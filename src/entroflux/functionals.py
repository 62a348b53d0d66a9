"""Entropic functionals of quantum dynamics and their operator-space forms.

The central object is the interpolating family

    e_[p,t](alpha) = log tr([ w0^((1-alpha)/p) m_t^(2 alpha/p) w0^((1-alpha)/p) ]^(p/2))

for p in [1, oo), where m_t = exp(itH) w0 exp(-itH) carries the Heisenberg
evolution of the entropy observable, together with its p -> oo limit

    e_[oo,t](alpha) = log tr(exp((1-alpha) log w0 + alpha log m_t)).

Both are evaluated in the reference eigenbasis.  With w0 = V diag(nu) V*,
m_t has the same spectrum nu and eigenvectors exp(itH) V, so every product
of functions of m_t and w0 reduces to the overlap O = V* exp(-itH) V
(``QuantumSystem.overlap``):

* finite p: the bracket is the Gram matrix of m_t^(alpha/p) w0^((1-alpha)/p),
  whose singular values are those of
  diag(nu^(alpha/p)) O diag(nu^((1-alpha)/p));
* p = oo: the exponent is unitarily equivalent to
  (1-alpha) diag(log nu) + alpha O* diag(log nu) O, whose eigenvalues enter
  a log-sum-exp.

The family is convex in alpha, vanishes at alpha in {0, 1}, decreases in p,
and for time-reversal invariant systems obeys e(alpha) = e(1 - alpha).
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import NumericalDomainError
from .measures import logsumexp
from .quantum import (
    DensityMatrix,
    QuantumSystem,
    as_matrix,
    matrix_log,
    matrix_power,
    mean_ep_observable,
    q_relative_entropy,
)

VARIATIONAL_SLACK = 1e-9
_LOG_DOUBLE_MAX = math.log(sys.float_info.max)
_PERTURBATION_TRIALS = 8
_PERTURBATION_SEED = 734


@dataclass(frozen=True, eq=False)
class OperatorSpaceElement:
    """Arbitrary square complex matrix, viewed as a vector in operator space."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", as_matrix(self.matrix))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _validate_p(p: float) -> float:
    p = float(p)
    if not p >= 1:
        raise ValueError(f"index must satisfy p >= 1 (or be infinite), got {p}")
    return p


def _finite_p(p: float) -> float:
    p = float(p)
    if not 1 <= p < math.inf:
        raise ValueError(f"index must satisfy 1 <= p < oo, got {p}")
    return p


def _log_schatten(y: np.ndarray, p: float) -> float:
    """log sum_i s_i^p over the nonzero singular values s_i of ``y``."""
    singulars = np.linalg.svd(y, compute_uv=False)   # descending, so zeros trail
    return logsumexp(p * np.log(singulars[:np.count_nonzero(singulars)]))


def functional(system: QuantumSystem, p: float, alpha: float, t: float) -> float:
    """The entropic functional e_[p,t](alpha); ``p`` may be ``math.inf``.

    Raises ``NumericalDomainError`` when the powers of the reference
    spectrum or the singular values would overflow double precision, when
    the kernel fails, or when the value is not finite.
    """
    p = _validate_p(p)
    nu = system.reference_eig().eigenvalues
    overlap = system.overlap(t)
    try:
        if math.isinf(p):
            logw = np.log(nu)
            combined = ((1.0 - alpha) * np.diag(logw)
                        + alpha * (overlap.conj().T * logw) @ overlap)
            lam = np.linalg.eigvalsh((combined + combined.conj().T) / 2.0)
            value = logsumexp(lam)
        # nu <= 1 and |O_ji| <= 1: the entries of y stay below exp(max(0, first
        # term)) and its singular values below n times that, so both are finite
        elif (min(alpha, 1.0 - alpha) / p * math.log(nu[0]) + math.log(nu.size)
              < _LOG_DOUBLE_MAX):
            y = (nu ** (alpha / p))[:, None] * overlap * nu ** ((1.0 - alpha) / p)
            value = _log_schatten(y, p)
        else:
            value = math.inf
    except np.linalg.LinAlgError:
        value = math.nan
    if not math.isfinite(value):
        raise NumericalDomainError(
            f"e_[p,t](alpha) is not finite in double precision at p={p}, "
            f"alpha={alpha}, t={t}")
    return value


def naive_functional(system: QuantumSystem, alpha: float, t: float) -> float:
    """log tr(w0 exp(-alpha t Sigma_t)).

    The direct quantization of the classical functional.  It vanishes at
    alpha = 0 but, whenever H and w0 do not commute, generically fails the
    normalization e(1) = 0 that the ordered family keeps.
    """
    sig = mean_ep_observable(system, t).matrix
    lam, vecs = np.linalg.eigh(-alpha * t * sig)
    weight = (vecs * np.exp(lam)) @ vecs.conj().T
    trace = np.trace(system.reference_state.matrix @ weight).real
    if trace <= 0.0:
        raise NumericalDomainError(f"trace is not positive: {trace:.3e}")
    return float(np.log(trace))


def variational_max(system: QuantumSystem, alpha: float, t: float) -> float:
    """e_[oo,t](alpha) as the maximum of rho -> S(rho|w0) - alpha t rho(Sigma_t).

    The maximizer is rho* = exp((1-alpha) log w0 + alpha log m_t) / Z.  The
    objective is evaluated at rho* and at eight seeded perturbed density
    matrices, none of which may exceed it beyond 1e-9.  Its agreement with
    the p = oo functional is the ``functional_variational`` row of the
    verification battery.
    """
    sig = mean_ep_observable(system, t).matrix
    combined = ((1.0 - alpha) * matrix_log(system.reference_eig())
                + alpha * matrix_log(system.heisenberg_reference_eig(t)))
    lam, vecs = np.linalg.eigh((combined + combined.conj().T) / 2.0)
    log_z = logsumexp(lam)
    maximizer = (vecs * np.exp(lam - log_z)) @ vecs.conj().T

    w0 = system.reference_state

    def objective(rho_mat: np.ndarray) -> float:
        rho = DensityMatrix(rho_mat)
        return q_relative_entropy(rho, w0) - alpha * t * float(
            np.trace(rho.matrix @ sig).real
        )

    best = objective(maximizer)
    rng = np.random.default_rng(_PERTURBATION_SEED)
    dim = system.dim
    for _ in range(_PERTURBATION_TRIALS):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        g = (g + g.conj().T) / 2.0
        lam_g, vecs_g = np.linalg.eigh(g)
        random_state = (vecs_g * np.exp(-lam_g)) @ vecs_g.conj().T
        random_state /= np.trace(random_state).real
        rho = 0.85 * maximizer + 0.15 * random_state
        rho /= np.trace(rho).real
        trial = objective(rho)
        if trial > best + VARIATIONAL_SLACK:
            raise NumericalDomainError(
                f"perturbed state beats the maximizer by {trial - best:.3e}"
            )
    return best


def araki_masuda_norm(element, system: QuantumSystem, p: float) -> float:
    """Weighted operator-space norm ||A||_p = (sum_i s_i^p)^(1/p), where the
    s_i are the singular values of A w0^(1/p).  Defined for p in [1, oo)."""
    p = _finite_p(p)
    mat = as_matrix(element, system.dim)
    weight = matrix_power(system.reference_eig(), 1.0 / p)
    return float(np.exp(_log_schatten(mat @ weight, p) / p))


def transfer_apply(system: QuantumSystem, p: float, element,
                   t: float) -> OperatorSpaceElement:
    """Transfer operator U_p(t) A = A_{-t} exp(-S_{-t}/p) exp(S0/p).

    Equivalently A_{-t} w_t^(1/p) w0^(-1/p) with w_t the evolved reference
    state.  The family is a group in t, an isometry of the weighted p-norm,
    and implements the dynamics: U_p(-t)[A U_p(t) B] = A_t B.
    """
    p = _finite_p(p)
    mat = as_matrix(element, system.dim)
    u = system.propagator(t)           # exp(-itH), so u A u* = A_{-t}
    moved = u @ mat @ u.conj().T
    grow = matrix_power(system.heisenberg_reference_eig(-t), 1.0 / p)
    shrink = matrix_power(system.reference_eig(), -1.0 / p)
    return OperatorSpaceElement(moved @ grow @ shrink)


def transfer_functional(system: QuantumSystem, p: float, alpha: float,
                        t: float) -> float:
    """log ||U_{p/alpha}(t) 1||_p^p = p log ||w_t^(alpha/p) w0^(-alpha/p)||_p.

    The transferred identity is formed directly from the closed form, so
    every alpha != 0 is admissible even when the formal index p/alpha leaves
    [1, oo).  For time-reversal invariant systems the value is
    e_[p,t](alpha), checked by the ``functional_transfer_bridge`` row of the
    verification battery; in general it is e_[p,t](1 - alpha), checked by
    ``functional_transfer_reflection``.
    """
    p = _finite_p(p)
    if alpha == 0:
        raise ValueError("alpha = 0 leaves the transferred identity undefined")
    grow = matrix_power(system.heisenberg_reference_eig(-t), alpha / p)
    shrink = matrix_power(system.reference_eig(), -alpha / p)
    transferred = OperatorSpaceElement(grow @ shrink)
    return p * float(np.log(araki_masuda_norm(transferred, system, p)))
