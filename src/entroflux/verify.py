"""One-shot verification battery: one ordered table of rows, ``ROWS``.

The library computes each quantity by one route; each row checks one
identity between two routes.  A row names its tolerance, its status rule,
the system kinds it applies to and a residual function of a per-system
``Context``, whose curve cache evaluates each (p, t, alpha) once.
``run_battery`` runs the rows on a built-in roster, the caller's systems
and the fixed systems of the batch rows, one ``pool.fork_map`` job per
system, the largest in forked children and the smallest in the calling
process; the rows come back in table order, so the table and
the first domain error are a serial run's at any worker count.
Off time-reversal invariance a ``TRI`` row is reported as ``<name>_breaks``,
which asserts that the violation is present.  A ``NumericalDomainError`` in
a row is re-raised naming the row and the system, with the rows run before
it in ``results``.
The ``fcs`` and ``classical`` subcommands reuse the status helpers and the
classical residuals.
"""
from __future__ import annotations

import math
from contextlib import closing
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from . import classical as cl
from . import fcs as fc
from . import functionals as fn
from . import measures as ms
from . import models as md
from . import pool
from . import quantum as qm
# defined in config, which validates overrides at parse time; read here too
from .config import DEFAULT_TOLERANCES, merge_tolerances  # noqa: F401
from .errors import NumericalDomainError, WorkerLostError

PASS = "pass"
FAIL = "fail"
XFAIL = "xfail"

# symmetric about 1/2 in exact multiples of 1/4, so the reversed curve is e(1 - alpha)
_ALPHAS_COARSE = np.round(np.arange(-1.0, 2.0001, 0.25), 10)
_ALPHAS_FINE = np.round(np.arange(-1.0, 2.0001, 0.05), 10)
_ALPHAS_SPARSE = (-1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0)
_QUARTERS = (0.25, 0.5, 0.75)
_REFLECTED = np.array([-0.5, 0.3, 1.2])
_P_GRID = (1.0, 1.5, 2.0, 3.0, 4.0, 6.0, math.inf)
_P_FULL = (1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 64.0, math.inf)
_T_GRID = (0.5, 1.0, math.pi / 2)
_DIFF_STEP = 1e-4
_H_FOUR = np.array([2.0, 1.0, -1.0, -2.0]) * _DIFF_STEP
_QUADRATURE_PHASE = 16.0    # radians of Bohr phase over the quadrature row's span

BOUNDED = "bounded"    # pass when residual <= tolerance
TRI = "tri"            # BOUNDED under TRI, else <name>_breaks at violation_floor
BREAKS = "breaks"      # xfail when residual > tolerance: the violation is the point
ABOVE = "above"        # pass when the value is strictly above the tolerance


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one invariant check.

    ``status`` is "pass"/"fail" for ordinary bounds and "xfail" for checks
    that are expected to be violated (the violation is the point).
    """

    name: str
    system_id: str
    residual: float
    tolerance: float
    status: str


def bounded_check(name: str, system_id: str, residual: float,
                  tolerance: float, rule: str = BOUNDED) -> CheckResult:
    """Status of ``residual`` against ``tolerance`` under a BOUNDED, BREAKS
    or ABOVE rule."""
    if rule == BOUNDED:
        status = PASS if residual <= tolerance else FAIL
    else:
        status = (XFAIL if rule == BREAKS else PASS) if residual > tolerance \
            else FAIL
    return CheckResult(name, system_id, float(residual), float(tolerance), status)


def tri_check(name: str, system_id: str, residual: float, tri: bool,
              tol: dict, key: str) -> CheckResult:
    """An invariant of time-reversal invariant systems: bounded by
    ``tol[key]`` when ``tri`` holds, otherwise reported as
    ``name + "_breaks"``, which asserts the violation is present."""
    if tri:
        return bounded_check(name, system_id, residual, tol[key])
    return bounded_check(name + "_breaks", system_id, residual,
                         tol["violation_floor"], BREAKS)


def suite_passed(results) -> bool:
    return all(r.status != FAIL for r in results)


def _sup(values) -> float:
    """Largest absolute entry of a curve, a stack of curves or a matrix."""
    return float(np.abs(values).max())


def _five_point(values) -> float:
    """(-e(2h) + 8 e(h) - 8 e(-h) + e(-2h)) / 12h from the values at
    ``_H_FOUR``, e'(0) up to a truncation error of O(h^4)."""
    e2, e1, m1, m2 = values
    return (-e2 + 8.0 * e1 - 8.0 * m1 + m2) / (12 * _DIFF_STEP)


def _complex_gaussians(seed: int, dim: int, count: int):
    """Seeded dim x dim matrices with standard normal real and imaginary parts."""
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            for _ in range(count)]


class Context:
    """What the rows of one system share: the system, its time-reversal
    flag, the time of its counting rows, the counting measure per t and
    e_[p,t](alpha) per (p, t) and alpha."""

    def __init__(self, kind: str, system):
        self.system = system
        self.tri = getattr(system, "tri", None)    # batch rows have no system
        self.fcs_t = math.pi / 2 if kind == "qubit" else 1.0
        self._curves = {}
        self._counting = {}

    def curve(self, p: float, alphas, t: float) -> np.ndarray:
        """e_[p,t] at ``alphas``.  The alphas not yet held at (p, t) are
        evaluated in one ``functional`` call; grid entries equal scalar calls
        bit for bit, so no value depends on which row asked first."""
        held = self._curves.setdefault((p, t), {})
        grid = np.atleast_1d(np.asarray(alphas, dtype=float)).tolist()
        missing = [a for a in dict.fromkeys(grid) if a not in held]
        if missing:
            values = fn.functional(self.system, p, np.array(missing), t)
            held.update(zip(missing, values.tolist()))
        return np.array([held[a] for a in grid])

    def counting(self, t: float) -> ms.SpectralMeasure:
        if t not in self._counting:
            self._counting[t] = fc.fcs_distribution(self.system, t)
        return self._counting[t]

    def evolved(self, t: float) -> np.ndarray:
        """The reference state evolved to time t."""
        return qm.schrodinger_evolve(self.system, self.system.reference_state, t)


# -- classical ----------------------------------------------------------

def classical_symmetry_residual(system: cl.ClassicalSystem, alphas, times) -> float:
    """Largest |e_t(alpha) - e_t(1 - alpha)| over the grid."""
    alphas = np.asarray(alphas)
    return max(_sup(cl.classical_functional(system, alphas, t)
                    - cl.classical_functional(system, 1.0 - alphas, t))
               for t in times)


def classical_fourway_residual(system: cl.ClassicalSystem, alphas, times) -> float:
    """Largest gap between e_t(alpha) and its variational, Renyi and
    transfer-operator forms; off time-reversal invariance the transfer form
    is compared with e_t(1 - alpha)."""
    alphas = np.asarray(alphas)
    worst = 0.0
    for t in times:
        direct = cl.classical_functional(system, alphas, t)
        target = direct if system.tri \
            else cl.classical_functional(system, 1.0 - alphas, t)
        worst = max(worst, _sup([
            direct - cl.variational_functional(system, alphas, t),
            direct - cl.renyi_identity_check(system, alphas, t),
            cl.classical_transfer_functional(system, 2.0, alphas, t) - target,
        ]))
    return worst


def _classical_mean_ep(c: Context, t: int) -> float:
    """w0(Sigma_t)."""
    return float(np.sum(c.system.reference_state
                        * cl.mean_ep_observable(c.system, t)))


def _classical_telescoping(c: Context) -> float:
    # Sigma_t telescopes: it is the time average of the evolved one-step
    # rate sigma = log(w1 / w0)
    s, w0 = c.system, c.system.reference_state
    sigma = np.log(cl.evolve_state(s, w0, 1)) - np.log(w0)
    return max(_sup(cl.mean_ep_observable(s, t)
                    - sum(cl.evolve_observable(s, sigma, k)
                          for k in range(1, t + 1)) / t)
               for t in (1, 2, 3))


def _classical_duality(c: Context) -> float:
    s = c.system
    rng = np.random.default_rng(404)
    f = rng.standard_normal(s.size)
    rho = rng.dirichlet(np.ones(s.size)) * 0.9 + 0.1 / s.size
    return max(abs(float(np.sum(cl.evolve_state(s, rho, t) * f))
                   - float(np.sum(rho * cl.evolve_observable(s, f, t))))
               for t in (3, -2))


# -- reservoirs and the quantum core --------------------------------------

def _model_assembly(c: Context) -> float:
    model = c.system
    built_h = model.left_embedded + model.right_embedded + model.coupling
    res_h = float(np.abs(model.hamiltonian - built_h).max())
    gibbs = np.kron(md._gibbs(model.left_hamiltonian, model.beta_left),
                    md._gibbs(model.right_hamiltonian, model.beta_right))
    res_w = float(np.abs(model.reference_state - gibbs).max())
    return max(res_h, res_w)


def _quantum_sigma_traceless(c: Context) -> float:
    sigma = qm.entropy_production_observable(c.system)
    return max(abs(complex(np.trace(sigma))),
               abs(complex(np.trace(c.system.reference_state @ sigma))))


def _quantum_sigma_spectrum(c: Context) -> float:
    lam = np.linalg.eigvalsh(qm.mean_ep_observable(c.system, 1.0))
    return float(np.abs(lam + lam[::-1]).max())


def _quantum_ep_quadrature(c: Context) -> float:
    """S_tau - S_0 = tau Sigma_tau against the 24-node Gauss-Legendre integral
    of sigma over [0, tau], tau = min(1, ``_QUADRATURE_PHASE`` / (E_max - E_min)).
    In the eigenbasis of H each entry sigma_jk exp(i w_jk s) of the integrand
    turns through at most that many radians, so the rule's error is below
    2e-32 tau ||sigma||_F whatever ||H||: the residual is rounding, and as a
    difference of integrals, not of means, it does not grow as 1 / tau."""
    dec = c.system.hamiltonian_eig()
    sigma = qm.entropy_production_observable(c.system)
    width = float(dec.eigenvalues[-1] - dec.eigenvalues[0])
    tau = 1.0 if width <= _QUADRATURE_PHASE else _QUADRATURE_PHASE / width

    def evolved(s: float) -> np.ndarray:
        prop = dec.apply(lambda lam: np.exp(1j * s * lam))
        return prop @ sigma @ prop.conj().T

    return float(np.linalg.norm(tau * qm.mean_ep_observable(c.system, tau)
                                - qm.gauss_legendre_matrix(evolved, 0.0, tau)))


def _quantum_duality(c: Context) -> float:
    s = c.system
    [raw] = _complex_gaussians(405, s.dim, 1)
    obs = (raw + raw.conj().T) / 2
    return max(abs(complex(
        np.trace(c.evolved(t) @ obs)
        - np.trace(s.reference_state @ qm.heisenberg_evolve(s, obs, t))))
        for t in (1.3, -0.4))


# -- entropic functionals -----------------------------------------------

def _functional_symmetry(c: Context) -> float:
    grid = [(p, t) for p in _P_GRID for t in _T_GRID] if c.tri else [(2.0, 1.0)]
    return max(_sup(curve - curve[::-1])
               for curve in (c.curve(p, _ALPHAS_COARSE, t) for p, t in grid))


def _functional_derivative(c: Context) -> float:
    mean_ep = qm.mean_ep_expectation(c.system, 1.0)
    return max(abs(_five_point(c.curve(p, _H_FOUR, 1.0)) + mean_ep) for p in _P_FULL)


def _functional_renyi_bridge(c: Context) -> float:
    grids = [(_ALPHAS_COARSE, 0.5), (_ALPHAS_COARSE, 1.0)] if c.tri \
        else [(np.array([0.4]), 1.0)]
    # the evolved state's spectrum is carried, not recomputed
    return max(_sup(qm.q_renyi_entropy(c.system.heisenberg_reference_eig(-t),
                                       c.system.reference_eig(), alphas)
                    - c.curve(2.0, alphas, t))
               for alphas, t in grids)


def _functional_transfer(c: Context) -> float:
    """The transfer form against e(alpha) under TRI, else e(1 - alpha)."""
    sample = np.array([-0.5, 0.3, 0.8, 1.5])
    target = sample if c.tri else 1.0 - sample
    return max(_sup(fn.transfer_functional(c.system, p, sample, 1.0)
                    - c.curve(p, target, 1.0))
               for p in (1.0, 2.0, 4.0))


def _transfer_group_law(c: Context) -> float:
    s = c.system
    [a_mat] = _complex_gaussians(406, s.dim, 1)
    double = fn.transfer_apply(s, 3.0, fn.transfer_apply(s, 3.0, a_mat, 0.7), 0.3)
    single = fn.transfer_apply(s, 3.0, a_mat, 1.0)
    return float(np.linalg.norm(double - single)) / float(np.linalg.norm(single))


def _transfer_intertwine(c: Context) -> float:
    s, t = c.system, 0.9
    a_mat, b_mat = _complex_gaussians(406, s.dim, 2)
    lhs = fn.transfer_apply(s, 2.0, a_mat @ fn.transfer_apply(s, 2.0, b_mat, t), -t)
    rhs = s.propagator(-t) @ a_mat @ s.propagator(t) @ b_mat
    return float(np.linalg.norm(lhs - rhs)) / float(np.linalg.norm(rhs))


def _transfer_isometry(c: Context) -> float:
    s = c.system
    [a_mat] = _complex_gaussians(406, s.dim, 1)
    iso = 0.0
    for p in (1.0, 2.0, 3.5):
        base = fn.araki_masuda_norm(a_mat, s, p)
        moved = fn.araki_masuda_norm(fn.transfer_apply(s, p, a_mat, 0.8), s, p)
        iso = max(iso, abs(moved - base) / base)
    return iso


def _functional_kernel_svd(c: Context) -> float:
    nu, overlap = c.system.reference_eig().eigenvalues, c.system.overlap(1.0)
    stacks = {p: fn._weighted_overlap(nu, overlap, _ALPHAS_COARSE, p)
              for p in (2.0, 3.0, 4.0, 6.0, 64.0)}
    return max(_sup(fn._log_schatten(y, p) - fn._log_schatten_svd(y, p))
               for p, y in stacks.items())


# -- counting statistics / modular --------------------------------------

def _fcs_es_symmetry(c: Context) -> float:
    """The fluctuation-symmetry residual of the counting measure and, under
    TRI, the largest distance from -a to its nearest atom over the atoms a
    whose mirror should carry e^(-t a) w(a) >= ``WEIGHT_DROP``: lighter
    mirrors are dropped when the measure is built."""
    t = c.fcs_t
    counting = c.counting(t)
    es = ms.fluctuation_symmetry_residual(counting, t)
    if c.tri:
        atoms = counting.atoms
        with np.errstate(over="ignore"):
            required = np.exp(-t * atoms) * counting.weights >= ms.WEIGHT_DROP
        mirrors = -atoms[required]
        right = np.minimum(np.searchsorted(atoms, mirrors), atoms.size - 1)
        left = np.maximum(right - 1, 0)
        gaps = np.minimum(np.abs(atoms[left] - mirrors),
                          np.abs(atoms[right] - mirrors))
        es = max(es, float(gaps.max(initial=0.0)))
    return es


def _fcs_modular_positivity(c: Context) -> float:
    positivity = 0.0
    for a_mat in _complex_gaussians(407, c.system.dim, 4):
        image = fc.relative_modular_apply(c.system, c.fcs_t, a_mat)
        ip = complex(np.trace(a_mat.conj().T @ image))
        positivity = max(positivity, -ip.real, abs(ip.imag))
    return positivity


def _fcs_modular_eigenoperator(c: Context) -> float:
    s, t, last = c.system, c.fcs_t, c.system.dim - 1
    evolved = s.heisenberg_reference_eig(-t)
    reference = s.reference_eig()
    eigop = 0.0
    for i, j in ((0, 0), (last, 0), (0, last)):
        a_mat = np.outer(evolved.eigenvectors[:, i],
                         reference.eigenvectors[:, j].conj())
        image = fc.relative_modular_apply(s, t, a_mat)
        ratio = evolved.eigenvalues[i] / reference.eigenvalues[j]
        eigop = max(eigop, float(np.abs(image - ratio * a_mat).max()))
    return eigop


def _fcs_qubit_closed_form(c: Context) -> float:
    counting = c.counting(c.fcs_t)
    atom = 2.0 / math.pi * math.log(3.0)
    res = max(abs(counting.mass_at(atom) - 0.75), abs(counting.mass_at(-atom) - 0.25),
              abs(float(counting.weights.sum()) - 1.0))
    present = sorted(counting.atoms[counting.weights > 1e-13])
    if len(present) != 2:
        return max(res, 1.0)
    return max(res, abs(present[0] + atom), abs(present[1] - atom))


# -- fixed systems -------------------------------------------------------

def _quantum_second_law_batch(c: Context) -> float:
    systems = [md.random_system(2 + (k % 7), tri=(k % 2 == 0), seed=300 + k)
               for k in range(20)]
    return max(0.0, -min(qm.mean_ep_expectation(system, t)
                         for system in systems for t in (0.1, 1.0, 10.0)))


def _naive_kawasaki_batch(c: Context) -> float:
    violations = sorted(
        abs(fn.naive_functional(md.random_system(3 + (k % 4), tri=(k % 2 == 0),
                                                 seed=500 + k), 1.0, 1.0))
        for k in range(20))
    return violations[1]    # all but at most one must stay clear of the floor


def _sigma_decomposition_batch(c: Context) -> float:
    worst = 0.0
    rng = np.random.default_rng(42)
    for _ in range(10):
        n_l, n_r = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        # in draw order: coupling, left and right Hamiltonians, temperatures
        v, h_l, h_r = (rng.standard_normal((n, n)) for n in (n_l * n_r, n_l, n_r))
        model = md.build_two_reservoir(
            (h_l + h_l.T) / 2, (h_r + h_r.T) / 2,
            float(rng.uniform(0.5, 2.5)), float(rng.uniform(0.5, 2.5)),
            0.3 * (v + v.T) / 2)
        worst = max(worst, _sup(md.entropy_production_decomposition(model)
                                - qm.entropy_production_observable(model)))
    return worst


def _format_round_trip(c: Context) -> float:
    samples = np.concatenate([c.curve(p, (-0.6, 0.35, 1.7), 1.0)
                              for p in (1.0, 2.0, math.inf)]).tolist()
    samples += [qm.mean_ep_expectation(c.system, 0.5), math.pi, 1e-300]
    return float(sum(1 for v in samples if float("%.17g" % v) != v))


def fixed_systems():
    """The systems that close the battery.  A fixed system's kind is its id,
    so it runs only its own rows; the batch rows build their own systems."""
    h_local, sigma_z = np.diag([0.0, 1.0]), np.diag([1.0, -1.0])
    decoupled = md.build_two_reservoir(h_local, h_local, 1.0, 2.0,
                                       np.zeros((4, 4)))
    balanced = md.build_two_reservoir(h_local, h_local, 1.3, 1.3,
                                      0.2 * np.kron(sigma_z, sigma_z))
    return [(sid, sid, obj) for sid, obj in (
        ("classical-tri-batch-20", None), ("quantum-batch-20", None),
        ("reservoir-batch-10", None), ("reservoir-decoupled", decoupled),
        ("reservoir-balanced", balanced), ("format", md.canonical_model()))]


# -- the table -----------------------------------------------------------

class Row(NamedTuple):
    """One battery row.  ``tolerance`` is a key of the merged tolerances or
    a fixed bound; ``only`` narrows the systems of ``kinds`` further."""

    name: str
    tolerance: str | float
    kinds: tuple
    residual: Callable[[Context], float]
    rule: str = BOUNDED
    only: Callable[[Context], bool] | None = None


def _tri(c: Context) -> bool:
    return c.tri


def _not_tri(c: Context) -> bool:
    return not c.tri


CLASSICAL = ("classical",)
RESERVOIR = ("reservoir",)
CORE = ("quantum", "commuting", "qubit", "reservoir")
FUNCTIONAL = ("quantum", "qubit", "reservoir")    # the fcs rows too

ROWS = (
    Row("classical_symmetry", "symmetry", CLASSICAL,
        lambda c: classical_symmetry_residual(c.system, _ALPHAS_SPARSE, (1, 2)),
        rule=TRI),
    Row("classical_convexity", "convexity", CLASSICAL,
        lambda c: max(0.0, -float(np.diff(
            cl.classical_functional(c.system, _ALPHAS_FINE, 1), 2).min()))),
    Row("classical_derivative", "derivative", CLASSICAL,
        lambda c: abs(_five_point(cl.classical_functional(c.system, _H_FOUR, 1))
                      + _classical_mean_ep(c, 1))),
    Row("classical_second_law", "second_law", CLASSICAL,
        lambda c: max(0.0, -min(_classical_mean_ep(c, t) for t in (1, 2, 3)))),
    Row("classical_ep_telescoping", "classical_identity", CLASSICAL,
        _classical_telescoping),
    Row("classical_es_symmetry", "tv", CLASSICAL,
        lambda c: max(ms.fluctuation_symmetry_residual(
            cl.es_distribution(c.system, t), t) for t in (1, 2)), rule=TRI),
    Row("classical_transfer_reflection", "classical_identity", CLASSICAL,
        lambda c: _sup(cl.classical_transfer_functional(c.system, 2.0, _REFLECTED, 1)
                       - cl.classical_functional(c.system, 1.0 - _REFLECTED, 1)),
        only=_not_tri),
    Row("classical_duality", "exact", CLASSICAL, _classical_duality),

    Row("model_assembly", "exact", RESERVOIR, _model_assembly),
    Row("model_flux_balance", "flux_balance", RESERVOIR,
        lambda c: max(md.flux_balance_residual(c.system, t, side)
                      for t in (0.5, 1.0, 2.0) for side in ("left", "right"))),
    Row("model_sigma_flux_form", "decomposition", RESERVOIR,
        lambda c: _sup(md.entropy_production_decomposition(c.system)
                       - qm.entropy_production_observable(c.system))),
    Row("model_heat_flow", 1e-10, RESERVOIR,
        lambda c: qm.mean_ep_expectation(c.system, 1.0), rule=ABOVE,
        only=lambda c: c.system.beta_left != c.system.beta_right),
    Row("model_tri_flag", 0.5, RESERVOIR, lambda c: 0.0 if c.system.tri else 1.0),

    Row("quantum_second_law", "second_law", CORE,
        lambda c: max(0.0, -min(qm.mean_ep_expectation(c.system, t)
                                for t in (0.1, 1.0, 10.0)))),
    Row("quantum_ep_identity", "bridge", CORE,
        lambda c: max(abs(qm.mean_ep_expectation(c.system, t)
                          + qm.q_relative_entropy(c.evolved(t),
                                                  c.system.reference_eig()) / t)
                      for t in (0.5, 1.0))),
    Row("quantum_unitarity", "bridge", CORE,
        lambda c: max(_sup(np.sort(np.linalg.eigvalsh(c.evolved(t)))
                           - c.system.reference_eig().eigenvalues)
                      for t in (0.7, 2.3))),
    Row("quantum_ep_quadrature", "quadrature", CORE, _quantum_ep_quadrature),
    Row("quantum_sigma_traceless", "bridge", CORE, _quantum_sigma_traceless),
    Row("quantum_sigma_spectrum", "bridge", CORE, _quantum_sigma_spectrum, only=_tri),
    Row("quantum_duality", "exact", CORE, _quantum_duality),

    Row("functional_symmetry", "symmetry", FUNCTIONAL, _functional_symmetry,
        rule=TRI),
    Row("functional_kawasaki", "kawasaki", FUNCTIONAL,
        lambda c: max(_sup(c.curve(p, (0.0, 1.0), t))
                      for p in _P_FULL for t in (0.5, 1.0))),
    Row("functional_convexity", "convexity", FUNCTIONAL,
        lambda c: max(0.0, max(-float(np.diff(c.curve(p, _ALPHAS_FINE, 1.0), 2).min())
                               for p in (1.0, 2.0, math.inf)))),
    Row("functional_p_monotone", "p_monotone", FUNCTIONAL,
        lambda c: max(0.0, float(np.diff([c.curve(p, _QUARTERS, 1.0)
                                          for p in _P_FULL], axis=0).max()))),
    Row("functional_p_limit", "p_limit", FUNCTIONAL,
        lambda c: _sup(c.curve(64.0, _QUARTERS, 1.0)
                       - c.curve(math.inf, _QUARTERS, 1.0))),
    Row("functional_derivative", "derivative", FUNCTIONAL, _functional_derivative),
    Row("functional_variational", "bridge", FUNCTIONAL,
        lambda c: _sup(fn.variational_max(c.system, (0.3, 1.2), 1.0)
                       - c.curve(math.inf, (0.3, 1.2), 1.0))),
    Row("functional_renyi_bridge", "bridge", FUNCTIONAL, _functional_renyi_bridge,
        rule=TRI),
    Row("functional_transfer_bridge", "bridge", FUNCTIONAL, _functional_transfer,
        only=_tri),
    Row("functional_transfer_reflection", "bridge", FUNCTIONAL, _functional_transfer,
        only=_not_tri),
    Row("transfer_group_law", "bridge", FUNCTIONAL, _transfer_group_law),
    Row("transfer_intertwine", "bridge", FUNCTIONAL, _transfer_intertwine),
    Row("transfer_isometry", "bridge", FUNCTIONAL, _transfer_isometry),
    Row("am_norm_unit", "exact", FUNCTIONAL,
        lambda c: max(abs(fn.araki_masuda_norm(np.eye(c.system.dim), c.system, p) - 1.0)
                      for p in (1.0, 2.0, 7.0))),
    Row("functional_kernel_svd", "bridge", FUNCTIONAL, _functional_kernel_svd),

    Row("fcs_normalization", "tv", FUNCTIONAL,
        lambda c: abs(float(c.counting(c.fcs_t).weights.sum()) - 1.0)),
    Row("fcs_es_symmetry", "tv", FUNCTIONAL, _fcs_es_symmetry, rule=TRI),
    Row("fcs_modular_tv", "tv", FUNCTIONAL,
        lambda c: ms.total_variation(c.counting(c.fcs_t),
                                     fc.modular_spectral_measure(c.system, c.fcs_t)),
        rule=TRI),
    Row("fcs_time_reversal_twist", "tv", FUNCTIONAL,
        lambda c: ms.total_variation(c.counting(c.fcs_t), fc.modular_spectral_measure(
            qm.QuantumSystem(-c.system.hamiltonian,
                             c.system.reference_state), c.fcs_t)),
        only=_not_tri),
    Row("fcs_cgf_bridge", "bridge", FUNCTIONAL,
        lambda c: _sup(fc.fcs_cgf(c.counting(c.fcs_t), _ALPHAS_COARSE, c.fcs_t)
                       - c.curve(2.0, _ALPHAS_COARSE, c.fcs_t))),
    Row("fcs_mean_derivative", "derivative", FUNCTIONAL,
        lambda c: abs(c.counting(c.fcs_t).mean()
                      + _five_point(fc.fcs_cgf(c.counting(c.fcs_t), _H_FOUR, c.fcs_t))
                      / c.fcs_t)),
    Row("fcs_modular_positivity", "exact", FUNCTIONAL, _fcs_modular_positivity),
    Row("fcs_modular_eigenoperator", "bridge", FUNCTIONAL, _fcs_modular_eigenoperator),

    Row("fcs_qubit_closed_form", "exact", ("qubit",), _fcs_qubit_closed_form),

    Row("functional_commuting_collapse", "exact", ("commuting",),
        lambda c: max(_sup(c.curve(p, (-1.0, 0.5, 2.0), t))
                      for p in (1.0, 2.0, 64.0, math.inf) for t in (0.7, 1.0))),
    Row("naive_commuting_endpoint", "exact", ("commuting",),
        lambda c: abs(fn.naive_functional(c.system, 1.0, 1.0))),
    Row("fcs_commuting_point", "exact", ("commuting",),
        lambda c: max(float(np.abs(c.counting(1.0).atoms).max()),
                      abs(c.counting(1.0).mass_at(0.0) - 1.0))),
    Row("quantum_sigma_commuting_zero", "exact", ("commuting",),
        lambda c: _sup(qm.entropy_production_observable(c.system))),

    Row("classical_identity_fourway", "classical_identity", ("classical-tri-batch-20",),
        lambda c: max(classical_fourway_residual(
            md.random_classical_system(3 + 2 * k, seed=100 + k, tri=True),
            (-0.7, 0.3, 0.5, 1.4), (1, 3)) for k in range(20))),
    Row("quantum_second_law_batch", "second_law", ("quantum-batch-20",),
        _quantum_second_law_batch),
    Row("naive_kawasaki_breaks", "violation_floor", ("quantum-batch-20",),
        _naive_kawasaki_batch, rule=BREAKS),
    Row("model_sigma_decomposition", "decomposition", ("reservoir-batch-10",),
        _sigma_decomposition_batch),
    Row("model_decoupled_collapse", "exact", ("reservoir-decoupled",),
        lambda c: max(_sup(c.curve(p, (0.5, 1.5), 1.0)) for p in (2.0, math.inf))),
    Row("model_equilibrium_sigma", "exact", ("reservoir-balanced",),
        lambda c: _sup(qm.entropy_production_observable(c.system))),
    Row("format_round_trip", 0.5, ("format",), _format_round_trip),
)


# -- roster and driver ---------------------------------------------------

def default_systems():
    """Built-in roster: (system_id, kind, object) triples."""
    sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]])
    commuting_h = np.diag([0.0, 1.0, 2.0])
    commuting_w = np.diag(np.exp(-np.array([0.0, 1.0, 2.0])))
    commuting_w = commuting_w / np.trace(commuting_w)
    return [
        ("classical-tri-3", "classical", cl.ClassicalSystem([0.25, 0.5, 0.25])),
        ("classical-tri-9", "classical",
         md.random_classical_system(9, seed=11, tri=True)),
        ("classical-asym-7", "classical",
         md.random_classical_system(7, seed=5, tri=False)),
        ("quantum-tri-4", "quantum", md.random_system(4, tri=True, seed=21)),
        ("quantum-tri-6", "quantum", md.random_system(6, tri=True, seed=22)),
        ("quantum-asym-5", "quantum", md.random_system(5, tri=False, seed=23)),
        ("quantum-commuting-3", "commuting",
         qm.QuantumSystem(commuting_h, commuting_w)),
        ("qubit-flip", "qubit",
         qm.QuantumSystem(sigma_x, np.diag([0.75, 0.25]))),
        ("reservoir-canonical", "reservoir", md.canonical_model()),
    ]


def check_system(system_id: str, kind: str, obj, tol: dict):
    """The rows of ``ROWS`` that apply to one system, in table order."""
    if not any(kind in row.kinds for row in ROWS):
        raise ValueError(f"unknown system kind {kind!r}")
    ctx = Context(kind, obj)
    out = []
    for row in ROWS:
        if kind not in row.kinds or (row.only and not row.only(ctx)):
            continue
        try:
            value = row.residual(ctx)
        except NumericalDomainError as exc:
            error = NumericalDomainError(f"{row.name} on system {system_id}: {exc}")
            error.results = tuple(out)
            raise error from exc
        if row.rule == TRI:
            out.append(tri_check(row.name, system_id, value, ctx.tri, tol,
                                 row.tolerance))
        else:
            bound = tol[row.tolerance] if isinstance(row.tolerance, str) \
                else row.tolerance
            out.append(bounded_check(row.name, system_id, value, bound, row.rule))
    return out


def run_battery(extra_systems=(), tolerances=None):
    """Every row on the roster, then the extra systems, then the fixed
    systems; returns the list of CheckResult rows.  Each system is one
    ``pool.fork_map`` job: forked children check the largest systems and
    this process the smallest.  A domain error carries every row before it
    in ``results``, and so does the ``WorkerLostError`` of a child that
    died, which names the system that child was checking."""
    tol = merge_tolerances(tolerances)
    systems = list(default_systems()) + list(extra_systems) + fixed_systems()
    jobs = [partial(check_system, *system, tol) for system in systems]
    sizes = [getattr(obj, "dim", 0) for _, _, obj in systems]
    results = []
    try:
        with closing(pool.fork_map(jobs, sizes, pool.cpu_count())) as rows:
            for system_id, _, _ in systems:
                results += next(rows)
    except WorkerLostError as exc:
        error = WorkerLostError("a battery worker process died before the "
                                f"rows of system {system_id} came back")
        error.results = tuple(results)
        raise error from exc
    except NumericalDomainError as exc:
        exc.results = tuple(results) + exc.results
        raise
    return results
