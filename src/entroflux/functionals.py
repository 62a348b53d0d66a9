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
  whose singular values s_i are those of
  y = diag(nu^(alpha/p)) O diag(nu^((1-alpha)/p)), and the trace is
  sum_i s_i^p;
* p = oo: the exponent is unitarily equivalent to
  (1-alpha) diag(log nu) + alpha O* diag(log nu) O, whose eigenvalues enter
  a log-sum-exp.

The family is convex in alpha, vanishes at alpha in {0, 1}, decreases in p,
and for time-reversal invariant systems obeys e(alpha) = e(1 - alpha).

The Schatten sum log sum_i s_i^p is taken by one kernel per index.  For
p >= 2 the kernels read G = y* y, after y is divided by its largest entry
magnitude:

* p = 2: log tr G = log sum_ij |y_ij|^2, no matrix product;
* p = 4: log ||G||_F^2, one product;
* p = 6: log tr(G^3) = log <G^2, G>, two products;
* any other p >= 2: the eigenvalues lambda_i = s_i^2 of G;
* p in [1, 2): the singular values of y themselves.  G squares the
  condition number, so its small eigenvalues, and the s_i^p for p < 2
  that they feed, would lose relative accuracy.

The ``functional_kernel_svd`` row of the verification battery compares
every p >= 2 kernel with the singular values of the same y.

``functional`` runs its kernel on stacks of alphas: one (k, n, n) array and
one batched LAPACK call per stack, with k n^2 at most _STACK_ENTRIES (2^13
complex entries, 128 KiB), which holds a default alpha grid whole up to
n = 11 and two alphas a stack at n = 64.  Larger stacks were slower, serially
and on worker processes; ``BENCH_one_pool.json`` (``stack_entries``) holds
the timings.
"""
from __future__ import annotations

import math
import sys

import numpy as np

from .errors import NumericalDomainError, require_finite
from .measures import logsumexp
from .quantum import (
    QuantumSystem,
    as_matrix,
    density_matrix,
    matrix_log,
    matrix_power,
    mean_ep_observable,
    per_alpha,
)

VARIATIONAL_SLACK = 1e-9
SCHATTEN_ROUNDING = 3e-11
_EPS = sys.float_info.epsilon
_PERTURBATION_TRIALS = 8
_PERTURBATION_SEED = 734
_STACK_ENTRIES = 1 << 13


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


def _weighted_overlap(nu: np.ndarray, overlap: np.ndarray, alphas,
                      p: float) -> np.ndarray:
    """diag(nu^(alpha/p)) O diag(nu^((1-alpha)/p)) for each alpha, whose
    Schatten p-sum is exp(e_[p,t](alpha)).  Exponents spelled out to the full
    (..., n) shape get the same bits wherever their alpha sits in a stack."""
    alphas = np.asarray(alphas, dtype=float)[..., None]
    y = (nu ** np.repeat(alphas / p, nu.size, -1))[..., :, None] * overlap
    y *= (nu ** np.repeat((1.0 - alphas) / p, nu.size, -1))[..., None, :]
    return y


def _log_power_sum(x: np.ndarray, power: float):
    """log sum_i x_i^power over the positive x_i of each row of ``x``."""
    return logsumexp(power * np.log(x, out=np.full(x.shape, -np.inf),
                                    where=x > 0.0))


def _re_inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re tr(a* b) for each pair of matrices of two contiguous stacks: one
    BLAS dot product of their interleaved real and imaginary parts."""
    size = 2 * a.shape[-2] * a.shape[-1]
    return (a.view(float).reshape(-1, 1, size)
            @ b.view(float).reshape(-1, size, 1))[:, 0, 0]


def _log_schatten_svd(y: np.ndarray, p: float):
    """log sum_i s_i^p over the nonzero singular values s_i of each matrix
    of ``y`` (its last two axes), by SVD."""
    return _log_power_sum(np.linalg.svd(y, compute_uv=False), p)


def _log_schatten(y: np.ndarray, p: float):
    """log sum_i s_i^p over the nonzero singular values s_i of each matrix
    of ``y`` (its last two axes), p >= 1, by the kernel for this p (see the
    module docstring); -inf, without a warning, for an all-zero matrix.

    For p >= 2, each matrix is first divided by its largest entry magnitude
    m and p log m added back: the entries of G = y* y are then at most n and
    its trace at least 1, so no kernel overflows or underflows.

    Each kernel rounds log s_i by up to about n eps and the sum multiplies
    that by p, so a p with p n eps above SCHATTEN_ROUNDING, about 1.35e5 / n,
    raises ``NumericalDomainError`` naming p and the bound.  Below it e_p
    stayed within 2.5 p n eps of e_oo on random systems of dim 2 to 12 and
    within the battery's ``p_monotone`` (1e-10); far above it e_p falls
    below e_oo, or leaves double precision altogether.
    """
    dim = y.shape[-1]
    if p * dim * _EPS > SCHATTEN_ROUNDING:
        raise NumericalDomainError(
            f"p={p} is above the bound {SCHATTEN_ROUNDING / (dim * _EPS):.6g} "
            f"of n={dim} matrices, where p n eps exceeds {SCHATTEN_ROUNDING:g}")
    live = y.any(axis=(-2, -1))
    value = np.full(live.shape, -np.inf)
    if not live.all():                               # drop all-zero matrices
        y = y[live]
    if p < 2.0:                                      # SVD needs no rescaling
        value[live] = _log_schatten_svd(y, p)
        return value[()]
    scale = np.abs(y).max(axis=(-2, -1))
    y = y * (1.0 / scale)[..., None, None]         # the bits of y / m, faster
    if p == 2.0:                                     # tr G
        kernel = np.log(_re_inner(y, y))
    else:
        gram = np.swapaxes(y.conj(), -1, -2) @ y
        if p in (4.0, 6.0):                          # <G, G> or <G^2, G>
            kernel = np.log(_re_inner(gram @ gram if p == 6.0 else gram, gram))
        else:
            kernel = _log_power_sum(np.linalg.eigvalsh(gram), p / 2.0)
    value[live] = kernel + p * np.log(scale)
    return value[()]


def functional(system: QuantumSystem, p: float, alpha, t: float):
    """The entropic functional e_[p,t](alpha); ``p`` may be ``math.inf``.

    A scalar alpha gives a float, a 1-D array of alphas an array equal entry
    for entry, bit for bit, to scalar calls.  Each stack runs as the points of
    ``quantum.per_alpha`` do, and ``require_finite`` then names p, t and the
    first alpha, in grid order, whose value is not a finite double.
    """
    p = _validate_p(p)
    nu = system.reference_eig().eigenvalues
    overlap = system.overlap(t)
    alphas = np.atleast_1d(np.asarray(alpha, dtype=float))
    dim = nu.size
    if math.isinf(p):
        logw = np.log(nu)
        mixed = (overlap.conj().T * logw) @ overlap
        mixed = (mixed + mixed.conj().T) / 2.0

        def kernel(batch: np.ndarray) -> np.ndarray:
            # (1-alpha) diag(log nu) + alpha O* diag(log nu) O, per alpha
            combined = batch[:, None, None] * mixed
            diagonal = combined.reshape(batch.size, -1)[:, ::dim + 1]
            diagonal += np.outer(1.0 - batch, logw)
            return logsumexp(np.linalg.eigvalsh(combined))
    else:
        def kernel(batch: np.ndarray) -> np.ndarray:
            return _log_schatten(_weighted_overlap(nu, overlap, batch, p), p)
    values = np.empty(alphas.shape)
    step = max(1, _STACK_ENTRIES // dim ** 2)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for start in range(0, alphas.size, step):
            batch = alphas[start:start + step]
            try:
                values[start:start + step] = kernel(batch)
            except np.linalg.LinAlgError:
                # one alpha at a time, so that NaN marks the alpha whose call failed
                values[start:start + step] = per_alpha(
                    lambda a: kernel(np.array([a]))[0], batch)
    require_finite(values, "e_[p,t](alpha)", alphas, t, f"p={p}, ")
    return float(values[0]) if np.ndim(alpha) == 0 else values


def naive_functional(system: QuantumSystem, alpha, t: float):
    """log tr(w0 exp(-alpha t Sigma_t)), per alpha.

    The direct quantization of the classical functional.  It vanishes at
    alpha = 0 but, whenever H and w0 do not commute, generically fails the
    normalization e(1) = 0 that the ordered family keeps.
    """
    sig = mean_ep_observable(system, t)

    def point(alpha: float) -> float:
        lam, vecs = np.linalg.eigh(-alpha * t * sig)
        weight = (vecs * np.exp(lam)) @ vecs.conj().T
        return float(np.log(np.trace(system.reference_state @ weight).real))

    return require_finite(per_alpha(point, alpha),
                          "log tr(w0 exp(-alpha t Sigma_t))", alpha, t)


def variational_max(system: QuantumSystem, alpha, t: float):
    """e_[oo,t](alpha) as the maximum of rho -> S(rho|w0) - alpha t rho(Sigma_t),
    per alpha.

    The maximizer is rho* = exp(K) / Z, K = (1-alpha) log w0 + alpha log m_t;
    its entropy is read off the log-spectrum of K.  The objective is
    evaluated at rho* and at eight seeded perturbed density matrices, each
    checked, none of which may exceed it beyond 1e-9.  Its agreement with
    the p = oo functional is the ``functional_variational`` row of the
    verification battery.
    """
    sig = mean_ep_observable(system, t)
    log_w0 = matrix_log(system.reference_eig())
    log_mt = matrix_log(system.heisenberg_reference_eig(t))
    rng = np.random.default_rng(_PERTURBATION_SEED)
    dim = system.dim
    random_states = []
    for _ in range(_PERTURBATION_TRIALS):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        g = (g + g.conj().T) / 2.0
        lam_g, vecs_g = np.linalg.eigh(g)
        random_state = (vecs_g * np.exp(-lam_g)) @ vecs_g.conj().T
        random_state /= np.trace(random_state).real
        random_states.append(random_state)

    def objective(weight, rho, log_lam) -> float:
        # tr(rho (log w0 - alpha t Sigma_t)) - tr(rho log rho), log_lam = log spec rho
        return float(np.vdot(weight, rho).real) - float(np.exp(log_lam) @ log_lam)

    def point(alpha: float) -> float:
        combined = (1.0 - alpha) * log_w0 + alpha * log_mt
        lam, vecs = np.linalg.eigh((combined + combined.conj().T) / 2.0)
        log_lam = lam - logsumexp(lam)
        maximizer = (vecs * np.exp(log_lam)) @ vecs.conj().T
        weight = log_w0 - alpha * t * sig
        best = objective(weight, maximizer, log_lam)
        for random_state in random_states:
            rho = 0.85 * maximizer + 0.15 * random_state
            # the spectrum of the positivity check gives the entropy
            checked, spectrum = density_matrix(rho / np.trace(rho).real)
            trial = objective(weight, checked, np.log(spectrum))
            if trial > best + VARIATIONAL_SLACK:
                raise NumericalDomainError(
                    f"perturbed state beats the maximizer by {trial - best:.3e} "
                    f"at alpha={alpha}, t={t}")
        return best

    return require_finite(per_alpha(point, alpha), "the maximizer's objective",
                          alpha, t)


def araki_masuda_norm(element, system: QuantumSystem, p: float) -> float:
    """Weighted operator-space norm ||A||_p = (sum_i s_i^p)^(1/p), where the
    s_i are the singular values of A w0^(1/p).  Defined for p in [1, oo)."""
    p = _finite_p(p)
    mat = as_matrix(element, system.dim)
    weight = matrix_power(system.reference_eig(), 1.0 / p)
    return float(np.exp(_log_schatten(mat @ weight, p) / p))


def transfer_apply(system: QuantumSystem, p: float, element,
                   t: float) -> np.ndarray:
    """Transfer operator U_p(t) A = A_{-t} exp(-S_{-t}/p) exp(S0/p).

    Equivalently A_{-t} w_t^(1/p) w0^(-1/p) with w_t the evolved reference
    state.  The family is a group in t, an isometry of the weighted p-norm,
    and implements the dynamics: U_p(-t)[A U_p(t) B] = A_t B.
    """
    p = _finite_p(p)
    mat = as_matrix(element, system.dim)
    u = system.propagator(t)           # exp(-itH), so u A u* = A_{-t}
    with np.errstate(over="ignore", invalid="ignore"):
        out = (u @ mat @ u.conj().T
               @ matrix_power(system.heisenberg_reference_eig(-t), 1.0 / p)
               @ matrix_power(system.reference_eig(), -1.0 / p))
    if not np.isfinite(out).all():
        raise NumericalDomainError(
            f"U_p(t) A is not finite in double precision at p={p}, t={t}")
    return out


def transfer_functional(system: QuantumSystem, p: float, alpha, t: float):
    """log ||U_{p/alpha}(t) 1||_p^p = log sum_i s_i^p, per alpha, where the s_i
    are the singular values of w_t^(alpha/p) w0^((1-alpha)/p).

    That matrix is the transferred identity w_t^(alpha/p) w0^(-alpha/p) times
    the norm's weight w0^(1/p), formed directly from the two spectra, so every
    alpha != 0 has a value, even where the formal index p/alpha leaves [1, oo),
    until a power of the spectra leaves double precision.  For time-reversal
    invariant systems it is e_[p,t](alpha), checked by the
    ``functional_transfer_bridge`` row of the verification battery; in
    general it is e_[p,t](1 - alpha), checked by
    ``functional_transfer_reflection``.
    """
    p = _finite_p(p)
    reference = system.reference_eig()
    evolved = system.heisenberg_reference_eig(-t)

    def point(alpha: float) -> float:
        if alpha == 0:
            raise ValueError("alpha = 0 leaves the transferred identity undefined")
        return float(_log_schatten(matrix_power(evolved, alpha / p)
                                   @ matrix_power(reference, (1.0 - alpha) / p), p))

    return require_finite(per_alpha(point, alpha),
                          "log ||U_{p/alpha}(t) 1||_p^p", alpha, t, f"p={p}, ")
