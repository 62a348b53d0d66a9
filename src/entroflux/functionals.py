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
from dataclasses import dataclass

import numpy as np

from .errors import NumericalDomainError
from .quantum import (
    EIGENVALUE_CLAMP,
    DensityMatrix,
    HermitianOperator,
    QuantumSystem,
    mean_ep_observable,
    q_relative_entropy,
)

VARIATIONAL_SLACK = 1e-9
_PERTURBATION_TRIALS = 8
_PERTURBATION_SEED = 734


@dataclass(frozen=True, eq=False)
class OperatorSpaceElement:
    """Arbitrary square complex matrix, viewed as a vector in operator space."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {mat.shape}")
        if not np.all(np.isfinite(mat)):
            raise ValueError("matrix entries must be finite")
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _as_matrix(a, dim: int) -> np.ndarray:
    if isinstance(a, (OperatorSpaceElement, HermitianOperator, DensityMatrix)):
        mat = a.matrix
    else:
        mat = OperatorSpaceElement(a).matrix
    if mat.shape != (dim, dim):
        raise ValueError(f"operator shape {mat.shape} does not match dim {dim}")
    return mat


def _logsumexp(exponents: np.ndarray) -> float:
    m = exponents.max()
    return float(m + np.log(np.sum(np.exp(exponents - m))))


def _clamped_power(dec, exponent: float) -> np.ndarray:
    lam = np.maximum(dec.eigenvalues, EIGENVALUE_CLAMP)
    return (dec.eigenvectors * lam ** exponent) @ dec.eigenvectors.conj().T


def _validate_p(p: float) -> float:
    p = float(p)
    if math.isnan(p) or p < 1:
        raise ValueError(f"index must satisfy p >= 1 (or be infinite), got {p}")
    return p


def functional(system: QuantumSystem, p: float, alpha: float, t: float) -> float:
    """The entropic functional e_[p,t](alpha); ``p`` may be ``math.inf``."""
    p = _validate_p(p)
    nu = np.maximum(system.reference_eig().eigenvalues, EIGENVALUE_CLAMP)
    overlap = system.overlap(t)
    if math.isinf(p):
        logw = np.log(nu)
        combined = ((1.0 - alpha) * np.diag(logw)
                    + alpha * (overlap.conj().T * logw) @ overlap)
        lam = np.linalg.eigvalsh((combined + combined.conj().T) / 2.0)
        return _logsumexp(lam)
    y = (nu ** (alpha / p))[:, None] * overlap * nu ** ((1.0 - alpha) / p)
    singulars = np.linalg.svd(y, compute_uv=False)
    singulars = np.maximum(singulars, EIGENVALUE_CLAMP)
    return _logsumexp(p * np.log(singulars))


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
    w_dec = system.reference_eig()
    m_dec = system.heisenberg_reference_eig(t)
    logw = (w_dec.eigenvectors * np.log(w_dec.eigenvalues)) @ w_dec.eigenvectors.conj().T
    logm = (m_dec.eigenvectors * np.log(m_dec.eigenvalues)) @ m_dec.eigenvectors.conj().T
    combined = (1.0 - alpha) * logw + alpha * logm
    lam, vecs = np.linalg.eigh((combined + combined.conj().T) / 2.0)
    log_z = _logsumexp(lam)
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
    p = float(p)
    if math.isnan(p) or math.isinf(p) or p < 1:
        raise ValueError(f"norm index must satisfy 1 <= p < oo, got {p}")
    mat = _as_matrix(element, system.dim)
    weight = _clamped_power(system.reference_eig(), 1.0 / p)
    singulars = np.linalg.svd(mat @ weight, compute_uv=False)
    singulars = np.maximum(singulars, EIGENVALUE_CLAMP)
    return float(np.exp(_logsumexp(p * np.log(singulars)) / p))


def transfer_apply(system: QuantumSystem, p: float, element,
                   t: float) -> OperatorSpaceElement:
    """Transfer operator U_p(t) A = A_{-t} exp(-S_{-t}/p) exp(S0/p).

    Equivalently A_{-t} w_t^(1/p) w0^(-1/p) with w_t the evolved reference
    state.  The family is a group in t, an isometry of the weighted p-norm,
    and implements the dynamics: U_p(-t)[A U_p(t) B] = A_t B.
    """
    p = float(p)
    if math.isnan(p) or math.isinf(p) or p < 1:
        raise ValueError(f"transfer index must satisfy 1 <= p < oo, got {p}")
    mat = _as_matrix(element, system.dim)
    u = system.propagator(t)           # exp(-itH), so u A u* = A_{-t}
    moved = u @ mat @ u.conj().T
    grow = _clamped_power(system.schrodinger_reference_eig(t), 1.0 / p)
    shrink = _clamped_power(system.reference_eig(), -1.0 / p)
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
    p = float(p)
    if math.isnan(p) or math.isinf(p) or p < 1:
        raise ValueError(f"norm index must satisfy 1 <= p < oo, got {p}")
    if alpha == 0:
        raise ValueError("alpha = 0 leaves the transferred identity undefined")
    grow = _clamped_power(system.schrodinger_reference_eig(t), alpha / p)
    shrink = _clamped_power(system.reference_eig(), -alpha / p)
    transferred = OperatorSpaceElement(grow @ shrink)
    return p * float(np.log(araki_masuda_norm(transferred, system, p)))
