"""One-shot verification battery.

Every library invariant is exercised here against a built-in roster of
systems (plus any the caller supplies): classical chains, random quantum
systems with and without time-reversal invariance, a commuting system, a
qubit with closed-form counting statistics, and the canonical coupled
reservoirs.  Checks that are supposed to fail off the invariance class
(symmetry on a non-TRI system, the naive functional's endpoint) are
reported as expected failures and do not fail the suite.

The library computes each quantity by one route; every identity between
two routes is checked here, as one battery row.  The check rows of the
``fcs`` and ``classical`` subcommands reuse the residual helpers below.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import classical as cl
from . import fcs as fc
from . import functionals as fn
from . import measures as ms
from . import models as md
from . import quantum as qm

PASS = "pass"
FAIL = "fail"
XFAIL = "xfail"

DEFAULT_TOLERANCES = {
    "symmetry": 1e-10,
    "kawasaki": 1e-10,
    "convexity": 1e-9,
    "derivative": 1e-6,
    "second_law": 1e-12,
    "classical_identity": 1e-12,
    "bridge": 1e-10,
    "tv": 1e-10,
    "p_monotone": 1e-10,
    "p_limit": 1e-3,
    "flux_balance": 1e-8,
    "decomposition": 1e-10,
    "quadrature": 1e-8,
    "exact": 1e-12,
    "violation_floor": 1e-8,
}

_ALPHAS_COARSE = tuple(np.round(np.arange(-1.0, 2.0001, 0.25), 10))
_ALPHAS_FINE = tuple(np.round(np.arange(-1.0, 2.0001, 0.05), 10))
_ALPHAS_SPARSE = (-1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0)
_P_GRID = (1.0, 1.5, 2.0, 3.0, 4.0, 6.0, math.inf)
_P_FULL = (1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 64.0, math.inf)
_T_GRID = (0.5, 1.0, math.pi / 2)
_DIFF_STEP = 1e-4


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
                  tolerance: float) -> CheckResult:
    status = PASS if residual <= tolerance else FAIL
    return CheckResult(name, system_id, float(residual), float(tolerance), status)


def expected_violation_check(name: str, system_id: str, residual: float,
                             floor: float) -> CheckResult:
    """A check whose point is that the bound is broken off the invariance
    class; it reports xfail when the violation is present."""
    status = XFAIL if residual > floor else FAIL
    return CheckResult(name, system_id, float(residual), float(floor), status)


def tri_check(name: str, system_id: str, residual: float, tri: bool,
              tol: dict, key: str) -> CheckResult:
    """An invariant of time-reversal invariant systems: bounded by
    ``tol[key]`` when ``tri`` holds, otherwise reported as
    ``name + "_breaks"``, which asserts the violation is present."""
    if tri:
        return bounded_check(name, system_id, residual, tol[key])
    return expected_violation_check(name + "_breaks", system_id, residual,
                                    tol["violation_floor"])


def strictly_above_check(name: str, system_id: str, value: float,
                         floor: float) -> CheckResult:
    status = PASS if value > floor else FAIL
    return CheckResult(name, system_id, float(value), float(floor), status)


def merge_tolerances(overrides=None) -> dict:
    tol = dict(DEFAULT_TOLERANCES)
    for key, value in (overrides or {}).items():
        if key not in tol:
            raise ValueError(
                f"unknown tolerance {key!r}; known names: {sorted(tol)}"
            )
        if not (float(value) > 0):
            raise ValueError(f"tolerance {key!r} must be positive")
        tol[key] = float(value)
    return tol


def suite_passed(results) -> bool:
    return all(r.status != FAIL for r in results)


# -- classical ----------------------------------------------------------

def classical_symmetry_residual(system: cl.ClassicalSystem, alphas, times) -> float:
    """Largest |e_t(alpha) - e_t(1 - alpha)| over the grid."""
    return max(abs(cl.classical_functional(system, a, t)
                   - cl.classical_functional(system, 1.0 - a, t))
               for t in times for a in alphas)


def classical_fourway_residual(system: cl.ClassicalSystem, alphas, times) -> float:
    """Largest gap between e_t(alpha) and its variational, Renyi and
    transfer-operator forms; off time-reversal invariance the transfer form
    is compared with e_t(1 - alpha)."""
    worst = 0.0
    for t in times:
        for a in alphas:
            direct = cl.classical_functional(system, a, t)
            transfer = cl.classical_transfer_functional(system, 2.0, a, t)
            target = direct if system.is_tri \
                else cl.classical_functional(system, 1.0 - a, t)
            worst = max(
                worst,
                abs(direct - cl.variational_functional(system, a, t)),
                abs(direct - cl.renyi_identity_check(system, a, t)),
                abs(transfer - target),
            )
    return worst


def classical_checks(system_id: str, system: cl.ClassicalSystem, tol: dict):
    out = []
    sym = classical_symmetry_residual(system, _ALPHAS_SPARSE, (1, 2))
    out.append(tri_check("classical_symmetry", system_id, sym, system.is_tri,
                         tol, "symmetry"))

    values = np.array([cl.classical_functional(system, a, 1) for a in _ALPHAS_FINE])
    second = np.diff(values, 2)
    out.append(bounded_check("classical_convexity", system_id,
                        max(0.0, -float(second.min())), tol["convexity"]))

    h = _DIFF_STEP
    slope = (cl.classical_functional(system, h, 1)
             - cl.classical_functional(system, -h, 1)) / (2 * h)
    mean_ep = float(np.sum(system.reference_state
                           * cl.mean_ep_observable(system, 1).values))
    out.append(bounded_check("classical_derivative", system_id,
                        abs(slope + mean_ep), tol["derivative"]))

    # Sigma_t telescopes: it is the time average of the evolved one-step
    # rate sigma = log(w1 / w0)
    w0 = system.reference_state
    sigma = np.log(cl.evolve_state(system, w0, 1).probabilities) - np.log(w0)
    floor = 0.0
    telescoping = 0.0
    for t in (1, 2, 3):
        direct = cl.mean_ep_observable(system, t).values
        floor = min(floor, float(np.sum(w0 * direct)))
        summed = sum(cl.evolve_observable(system, sigma, s).values
                     for s in range(1, t + 1)) / t
        telescoping = max(telescoping, float(np.abs(direct - summed).max()))
    out.append(bounded_check("classical_second_law", system_id,
                        max(0.0, -floor), tol["second_law"]))
    out.append(bounded_check("classical_ep_telescoping", system_id, telescoping,
                             tol["classical_identity"]))

    es = max(ms.fluctuation_symmetry_residual(cl.es_distribution(system, t), t)
             for t in (1, 2))
    out.append(tri_check("classical_es_symmetry", system_id, es, system.is_tri,
                         tol, "tv"))
    if not system.is_tri:
        reflect = max(
            abs(cl.classical_transfer_functional(system, 2.0, a, 1)
                - cl.classical_functional(system, 1.0 - a, 1))
            for a in (-0.5, 0.3, 1.2))
        out.append(bounded_check("classical_transfer_reflection", system_id,
                            reflect, tol["classical_identity"]))

    rng = np.random.default_rng(404)
    f = rng.standard_normal(system.size)
    rho = rng.dirichlet(np.ones(system.size)) * 0.9 + 0.1 / system.size
    dual = 0.0
    for t in (3, -2):
        lhs = float(np.sum(cl.evolve_state(system, rho, t).probabilities * f))
        rhs = float(np.sum(rho * cl.evolve_observable(system, f, t).values))
        dual = max(dual, abs(lhs - rhs))
    out.append(bounded_check("classical_duality", system_id, dual, tol["exact"]))
    return out


def classical_identity_batch(tol: dict, count: int = 20):
    worst = max(classical_fourway_residual(
        md.random_classical_system(3 + 2 * k, seed=100 + k, tri=True),
        (-0.7, 0.3, 0.5, 1.4), (1, 3)) for k in range(count))
    return [bounded_check("classical_identity_fourway", f"classical-tri-batch-{count}",
                     worst, tol["classical_identity"])]


# -- quantum core -------------------------------------------------------

def quantum_core_checks(system_id: str, system: qm.QuantumSystem, tol: dict):
    out = []
    floor = min(qm.mean_ep_expectation(system, t) for t in (0.1, 1.0, 10.0))
    out.append(bounded_check("quantum_second_law", system_id,
                        max(0.0, -floor), tol["second_law"]))

    res = 0.0
    for t in (0.5, 1.0):
        evolved = qm.schrodinger_evolve(system, system.reference_state, t)
        rel = qm.q_relative_entropy(evolved, system.reference_state)
        res = max(res, abs(qm.mean_ep_expectation(system, t) + rel / t))
    out.append(bounded_check("quantum_ep_identity", system_id, res, tol["bridge"]))

    lam0 = system.reference_eig().eigenvalues
    drift = 0.0
    for t in (0.7, 2.3):
        lam_t = np.linalg.eigvalsh(
            qm.schrodinger_evolve(system, system.reference_state, t).matrix)
        drift = max(drift, float(np.abs(np.sort(lam_t) - lam0).max()))
    out.append(bounded_check("quantum_unitarity", system_id, drift, tol["bridge"]))

    direct = qm.mean_ep_observable(system, 1.0).matrix
    sigma = qm.entropy_production_observable(system).matrix
    dec = system.hamiltonian_eig()

    def evolved_sigma(s: float) -> np.ndarray:
        prop = dec.apply(lambda lam: np.exp(1j * s * lam))
        return prop @ sigma @ prop.conj().T

    integral = qm.adaptive_simpson_matrix(evolved_sigma, 0.0, 1.0)
    out.append(bounded_check("quantum_ep_quadrature", system_id,
                        float(np.linalg.norm(direct - integral)),
                        tol["quadrature"]))

    w0 = system.reference_state.matrix
    traceless = max(abs(complex(np.trace(sigma))),
                    abs(complex(np.trace(w0 @ sigma))))
    out.append(bounded_check("quantum_sigma_traceless", system_id,
                        traceless, tol["bridge"]))

    if system.tri:
        lam = np.linalg.eigvalsh(direct)
        out.append(bounded_check("quantum_sigma_spectrum", system_id,
                            float(np.abs(lam + lam[::-1]).max()), tol["bridge"]))

    rng = np.random.default_rng(405)
    raw = rng.standard_normal((system.dim, system.dim)) \
        + 1j * rng.standard_normal((system.dim, system.dim))
    obs = (raw + raw.conj().T) / 2
    dual = 0.0
    for t in (1.3, -0.4):
        lhs = np.trace(qm.schrodinger_evolve(system, system.reference_state,
                                             t).matrix @ obs)
        rhs = np.trace(w0 @ qm.heisenberg_evolve(system, obs, t).matrix)
        dual = max(dual, abs(complex(lhs - rhs)))
    out.append(bounded_check("quantum_duality", system_id, dual, tol["exact"]))
    return out


def quantum_second_law_batch(tol: dict, count: int = 20):
    floor = 0.0
    for k in range(count):
        system = md.random_system(2 + (k % 7), tri=(k % 2 == 0), seed=300 + k)
        for t in (0.1, 1.0, 10.0):
            floor = min(floor, qm.mean_ep_expectation(system, t))
    return [bounded_check("quantum_second_law_batch", f"quantum-batch-{count}",
                     max(0.0, -floor), tol["second_law"])]


# -- entropic functionals -----------------------------------------------

def functional_checks(system_id: str, system: qm.QuantumSystem, tol: dict):
    out = []
    sym = 0.0
    if system.tri:
        for p in _P_GRID:
            for t in _T_GRID:
                for a in _ALPHAS_COARSE:
                    sym = max(sym, abs(fn.functional(system, p, a, t)
                                       - fn.functional(system, p, 1.0 - a, t)))
    else:
        for a in _ALPHAS_COARSE:
            sym = max(sym, abs(fn.functional(system, 2.0, a, 1.0)
                               - fn.functional(system, 2.0, 1.0 - a, 1.0)))
    out.append(tri_check("functional_symmetry", system_id, sym, system.tri,
                         tol, "symmetry"))

    kaw = 0.0
    for p in _P_FULL:
        for t in (0.5, 1.0):
            kaw = max(kaw, abs(fn.functional(system, p, 0.0, t)),
                      abs(fn.functional(system, p, 1.0, t)))
    out.append(bounded_check("functional_kawasaki", system_id, kaw, tol["kawasaki"]))

    bend = 0.0
    for p in (1.0, 2.0, math.inf):
        curve = np.array([fn.functional(system, p, a, 1.0) for a in _ALPHAS_FINE])
        bend = max(bend, -float(np.diff(curve, 2).min()))
    out.append(bounded_check("functional_convexity", system_id,
                        max(0.0, bend), tol["convexity"]))

    grow = 0.0
    gap = 0.0
    for a in (0.25, 0.5, 0.75):
        values = [fn.functional(system, p, a, 1.0) for p in _P_FULL]
        grow = max(grow, float(np.diff(values).max()))
        gap = max(gap, abs(values[-2] - values[-1]))
    out.append(bounded_check("functional_p_monotone", system_id,
                        max(0.0, grow), tol["p_monotone"]))
    out.append(bounded_check("functional_p_limit", system_id, gap, tol["p_limit"]))

    h = _DIFF_STEP
    mean_ep = qm.mean_ep_expectation(system, 1.0)
    drift = 0.0
    for p in _P_FULL:
        slope = (fn.functional(system, p, h, 1.0)
                 - fn.functional(system, p, -h, 1.0)) / (2 * h)
        drift = max(drift, abs(slope + mean_ep))
    out.append(bounded_check("functional_derivative", system_id, drift,
                        tol["derivative"]))

    vres = max(abs(fn.variational_max(system, a, 1.0)
                   - fn.functional(system, math.inf, a, 1.0))
               for a in (0.3, 1.2))
    out.append(bounded_check("functional_variational", system_id, vres,
                        tol["bridge"]))

    if system.tri:
        bres = 0.0
        for t in (0.5, 1.0):
            evolved = qm.schrodinger_evolve(system, system.reference_state, t)
            for a in _ALPHAS_COARSE:
                bres = max(bres, abs(
                    qm.q_renyi_entropy(evolved, system.reference_state, a)
                    - fn.functional(system, 2.0, a, t)))
    else:
        evolved = qm.schrodinger_evolve(system, system.reference_state, 1.0)
        bres = abs(qm.q_renyi_entropy(evolved, system.reference_state, 0.4)
                   - fn.functional(system, 2.0, 0.4, 1.0))
    out.append(tri_check("functional_renyi_bridge", system_id, bres, system.tri,
                         tol, "bridge"))
    if system.tri:
        tres = max(abs(fn.transfer_functional(system, p, a, 1.0)
                       - fn.functional(system, p, a, 1.0))
                   for p in (1.0, 2.0, 4.0)
                   for a in (-0.5, 0.3, 0.8, 1.5))
        out.append(bounded_check("functional_transfer_bridge", system_id, tres,
                            tol["bridge"]))
    else:
        tres = max(abs(fn.transfer_functional(system, p, a, 1.0)
                       - fn.functional(system, p, 1.0 - a, 1.0))
                   for p in (1.0, 2.0, 4.0)
                   for a in (-0.5, 0.3, 0.8, 1.5))
        out.append(bounded_check("functional_transfer_reflection", system_id, tres,
                            tol["bridge"]))

    rng = np.random.default_rng(406)
    a_mat = rng.standard_normal((system.dim, system.dim)) \
        + 1j * rng.standard_normal((system.dim, system.dim))
    b_mat = rng.standard_normal((system.dim, system.dim)) \
        + 1j * rng.standard_normal((system.dim, system.dim))

    double = fn.transfer_apply(
        system, 3.0, fn.transfer_apply(system, 3.0, a_mat, 0.7), 0.3).matrix
    single = fn.transfer_apply(system, 3.0, a_mat, 1.0).matrix
    scale = float(np.linalg.norm(single))
    out.append(bounded_check("transfer_group_law", system_id,
                        float(np.linalg.norm(double - single)) / scale,
                        tol["bridge"]))

    t = 0.9
    inner = a_mat @ fn.transfer_apply(system, 2.0, b_mat, t).matrix
    lhs = fn.transfer_apply(system, 2.0, inner, -t).matrix
    moved = system.propagator(-t) @ a_mat @ system.propagator(t)
    rhs = moved @ b_mat
    scale = float(np.linalg.norm(rhs))
    out.append(bounded_check("transfer_intertwine", system_id,
                        float(np.linalg.norm(lhs - rhs)) / scale,
                        tol["bridge"]))

    iso = 0.0
    for p in (1.0, 2.0, 3.5):
        base = fn.araki_masuda_norm(a_mat, system, p)
        moved = fn.araki_masuda_norm(fn.transfer_apply(system, p, a_mat, 0.8),
                                     system, p)
        iso = max(iso, abs(moved - base) / base)
    out.append(bounded_check("transfer_isometry", system_id, iso, tol["bridge"]))

    unit = max(abs(fn.araki_masuda_norm(np.eye(system.dim), system, p) - 1.0)
               for p in (1.0, 2.0, 7.0))
    out.append(bounded_check("am_norm_unit", system_id, unit, tol["exact"]))
    return out


def naive_kawasaki_batch(tol: dict, count: int = 20):
    violations = []
    for k in range(count):
        system = md.random_system(3 + (k % 4), tri=(k % 2 == 0), seed=500 + k)
        violations.append(abs(fn.naive_functional(system, 1.0, 1.0)))
    violations.sort()
    # all but at most one must stay clear of the floor
    return [expected_violation_check("naive_kawasaki_breaks", f"quantum-batch-{count}",
                                violations[1], tol["violation_floor"])]


# -- counting statistics / modular --------------------------------------

def fcs_checks(system_id: str, system: qm.QuantumSystem, tol: dict,
               t: float = 1.0):
    out = []
    counting = fc.fcs_distribution(system, t)
    out.append(bounded_check("fcs_normalization", system_id,
                        abs(float(counting.weights.sum()) - 1.0), tol["tv"]))

    es = ms.fluctuation_symmetry_residual(counting, t)
    if system.tri:
        atoms = counting.atoms
        pairing = float(np.abs(atoms + atoms[::-1]).max()) if len(counting) else 0.0
        es = max(es, pairing)
    out.append(tri_check("fcs_es_symmetry", system_id, es, system.tri, tol, "tv"))
    modular = fc.modular_spectral_measure(system, t)
    out.append(tri_check("fcs_modular_tv", system_id,
                         ms.total_variation(counting, modular), system.tri,
                         tol, "tv"))
    if not system.tri:
        reversed_system = qm.QuantumSystem(-system.hamiltonian.matrix,
                                           system.reference_state.matrix)
        twisted = fc.modular_spectral_measure(reversed_system, t)
        out.append(bounded_check("fcs_time_reversal_twist", system_id,
                            ms.total_variation(counting, twisted), tol["tv"]))

    bres = max(abs(fc.fcs_cgf(counting, a, t) - fn.functional(system, 2.0, a, t))
               for a in _ALPHAS_COARSE)
    out.append(bounded_check("fcs_cgf_bridge", system_id, bres, tol["bridge"]))

    h = _DIFF_STEP
    slope = (fc.fcs_cgf(counting, h, t) - fc.fcs_cgf(counting, -h, t)) / (2 * h)
    out.append(bounded_check("fcs_mean_derivative", system_id,
                        abs(counting.mean() + slope / t), tol["derivative"]))

    evolved = system.heisenberg_reference_eig(-t)
    reference = system.reference_eig()
    raw = np.abs(system.overlap(t)) ** 2 * reference.eigenvalues[:, None]
    out.append(bounded_check("fcs_q_weights_nonneg", system_id,
                        max(0.0, -float(raw.min())), 1e-14))

    rng = np.random.default_rng(407)
    positivity = 0.0
    for _ in range(4):
        a_mat = rng.standard_normal((system.dim, system.dim)) \
            + 1j * rng.standard_normal((system.dim, system.dim))
        image = fc.relative_modular_apply(system, t, a_mat).matrix
        ip = complex(np.trace(a_mat.conj().T @ image))
        positivity = max(positivity, -ip.real, abs(ip.imag))
    out.append(bounded_check("fcs_modular_positivity", system_id,
                        max(0.0, positivity), tol["exact"]))

    eigop = 0.0
    for i, j in ((0, 0), (system.dim - 1, 0), (0, system.dim - 1)):
        a_mat = np.outer(evolved.eigenvectors[:, i],
                         reference.eigenvectors[:, j].conj())
        image = fc.relative_modular_apply(system, t, a_mat).matrix
        ratio = evolved.eigenvalues[i] / reference.eigenvalues[j]
        eigop = max(eigop, float(np.abs(image - ratio * a_mat).max()))
    out.append(bounded_check("fcs_modular_eigenoperator", system_id, eigop,
                        tol["bridge"]))
    return out


def qubit_closed_form_check(system_id: str, system: qm.QuantumSystem,
                            tol: dict):
    t = math.pi / 2
    counting = fc.fcs_distribution(system, t)
    atom = 2.0 / math.pi * math.log(3.0)
    res = max(
        abs(counting.mass_at(atom) - 0.75),
        abs(counting.mass_at(-atom) - 0.25),
        abs(float(counting.weights.sum()) - 1.0),
    )
    present = sorted(counting.atoms[counting.weights > 1e-13])
    if len(present) != 2:
        res = max(res, 1.0)
    else:
        res = max(res, abs(present[0] + atom), abs(present[1] - atom))
    return [bounded_check("fcs_qubit_closed_form", system_id, res, tol["exact"])]


def commuting_checks(system_id: str, system: qm.QuantumSystem, tol: dict):
    out = []
    collapse = max(abs(fn.functional(system, p, a, t))
                   for p in (1.0, 2.0, 64.0, math.inf)
                   for a in (-1.0, 0.5, 2.0)
                   for t in (0.7, 1.0))
    out.append(bounded_check("functional_commuting_collapse", system_id, collapse,
                        tol["exact"]))
    out.append(bounded_check("naive_commuting_endpoint", system_id,
                        abs(fn.naive_functional(system, 1.0, 1.0)),
                        tol["exact"]))
    counting = fc.fcs_distribution(system, 1.0)
    res = max(float(np.abs(counting.atoms).max()),
              abs(counting.mass_at(0.0) - 1.0))
    out.append(bounded_check("fcs_commuting_point", system_id, res, tol["exact"]))
    sigma = qm.entropy_production_observable(system).matrix
    out.append(bounded_check("quantum_sigma_commuting_zero", system_id,
                        float(np.abs(sigma).max()), tol["exact"]))
    return out


# -- reservoirs ----------------------------------------------------------

def reservoir_checks(system_id: str, model: md.ReservoirModel, tol: dict):
    out = []
    assembled = model.system
    built_h = model.left_embedded + model.right_embedded + model.coupling
    res_h = float(np.abs(assembled.hamiltonian.matrix - built_h).max())
    gibbs = np.kron(md._gibbs(model.left_hamiltonian, model.beta_left),
                    md._gibbs(model.right_hamiltonian, model.beta_right))
    res_w = float(np.abs(assembled.reference_state.matrix - gibbs).max())
    out.append(bounded_check("model_assembly", system_id, max(res_h, res_w),
                        tol["exact"]))

    balance = max(md.flux_balance_residual(model, t, side)
                  for t in (0.5, 1.0, 2.0) for side in ("left", "right"))
    out.append(bounded_check("model_flux_balance", system_id, balance,
                        tol["flux_balance"]))

    combined = md.entropy_production_decomposition(model)
    direct = qm.entropy_production_observable(assembled).matrix
    out.append(bounded_check("model_sigma_flux_form", system_id,
                        float(np.abs(combined - direct).max()),
                        tol["decomposition"]))

    if model.beta_left != model.beta_right:
        out.append(strictly_above_check("model_heat_flow", system_id,
                                   qm.mean_ep_expectation(assembled, 1.0),
                                   1e-10))
    out.append(bounded_check("model_tri_flag", system_id,
                        0.0 if assembled.tri else 1.0, 0.5))
    return out


def reservoir_special_checks(tol: dict):
    out = []
    h_local = np.diag([0.0, 1.0])
    sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]])

    decoupled = md.build_two_reservoir(h_local, h_local, 1.0, 2.0,
                                       np.zeros((4, 4)))
    collapse = max(abs(fn.functional(decoupled.system, p, a, 1.0))
                   for p in (2.0, math.inf) for a in (0.5, 1.5))
    out.append(bounded_check("model_decoupled_collapse", "reservoir-decoupled",
                        collapse, tol["exact"]))

    sigma_z = np.diag([1.0, -1.0])
    balanced = md.build_two_reservoir(h_local, h_local, 1.3, 1.3,
                                      0.2 * np.kron(sigma_z, sigma_z))
    sigma = qm.entropy_production_observable(balanced.system).matrix
    out.append(bounded_check("model_equilibrium_sigma", "reservoir-balanced",
                        float(np.abs(sigma).max()), tol["exact"]))
    return out


def sigma_decomposition_batch(tol: dict, count: int = 10):
    worst = 0.0
    rng = np.random.default_rng(42)
    for _ in range(count):
        n_l = int(rng.integers(2, 4))
        n_r = int(rng.integers(2, 4))

        def local(n):
            raw = rng.standard_normal((n, n))
            return (raw + raw.T) / 2

        v_raw = rng.standard_normal((n_l * n_r, n_l * n_r))
        model = md.build_two_reservoir(
            local(n_l), local(n_r),
            float(rng.uniform(0.5, 2.5)), float(rng.uniform(0.5, 2.5)),
            0.3 * (v_raw + v_raw.T) / 2)
        combined = md.entropy_production_decomposition(model)
        direct = qm.entropy_production_observable(model.system).matrix
        worst = max(worst, float(np.abs(combined - direct).max()))
    return [bounded_check("model_sigma_decomposition",
                     f"reservoir-batch-{count}", worst, tol["decomposition"])]


# -- output formatting ----------------------------------------------------

def format_round_trip_check(tol: dict):
    model = md.canonical_model()
    samples = [fn.functional(model.system, p, a, 1.0)
               for p in (1.0, 2.0, math.inf) for a in (-0.6, 0.35, 1.7)]
    samples += [qm.mean_ep_expectation(model.system, 0.5), math.pi, 1e-300]
    bad = sum(1 for v in samples if float("%.17g" % v) != v)
    return [bounded_check("format_round_trip", "format", float(bad), 0.5)]


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


def run_battery(extra_systems=(), tolerances=None, include_batches=True):
    """Run every check; returns the list of CheckResult rows."""
    tol = merge_tolerances(tolerances)
    results = []
    for system_id, kind, obj in list(default_systems()) + list(extra_systems):
        if kind == "classical":
            results += classical_checks(system_id, obj, tol)
        elif kind == "quantum":
            results += quantum_core_checks(system_id, obj, tol)
            results += functional_checks(system_id, obj, tol)
            results += fcs_checks(system_id, obj, tol)
        elif kind == "commuting":
            results += quantum_core_checks(system_id, obj, tol)
            results += commuting_checks(system_id, obj, tol)
        elif kind == "qubit":
            results += quantum_core_checks(system_id, obj, tol)
            results += functional_checks(system_id, obj, tol)
            results += fcs_checks(system_id, obj, tol, t=math.pi / 2)
            results += qubit_closed_form_check(system_id, obj, tol)
        elif kind == "reservoir":
            results += reservoir_checks(system_id, obj, tol)
            results += quantum_core_checks(system_id, obj.system, tol)
            results += functional_checks(system_id, obj.system, tol)
            results += fcs_checks(system_id, obj.system, tol)
        else:
            raise ValueError(f"unknown system kind {kind!r}")
    if include_batches:
        results += classical_identity_batch(tol)
        results += quantum_second_law_batch(tol)
        results += naive_kawasaki_batch(tol)
        results += sigma_decomposition_batch(tol)
        results += reservoir_special_checks(tol)
        results += format_round_trip_check(tol)
    return results
