"""Dense Hermitian linear algebra and finite-dimensional quantum dynamics.

Every matrix function here goes through an exact eigendecomposition of a
Hermitian matrix; no differential equation is integrated anywhere.  Time
evolution is conjugation by exp(+-itH): observables move forward,
A_t = exp(itH) A exp(-itH), states move by duality,
rho_t = exp(-itH) rho exp(itH); time integrals of A_t are closed forms in
the eigenbasis of H (``evolved_integral``).

Every matrix is a plain complex array, checked where it enters by one rule
with one outcome: ``hermitian`` rejects a matrix more than rounding away
from Hermitian and returns the Hermitian part (A + A*) / 2 of any other.
``density_matrix`` also checks every state (unit trace, strictly
positive).  Derived matrices (evolved operators and states, the entropy
observables) are Hermitian parts too.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import NumericalDomainError
from .measures import logsumexp

HERMITIAN_ATOL = 1e-12
POSITIVITY_REL = 1e-12
TRACE_ATOL = 1e-12
RECONSTRUCTION_RTOL = 1e-10
QUADRATURE_ATOL = 1e-9
QUADRATURE_MAX_DEPTH = 30


def as_matrix(value, dim: int | None = None) -> np.ndarray:
    """Square complex matrix with finite entries, of dimension ``dim`` if given."""
    mat = np.asarray(value, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    if dim is not None and mat.shape[0] != dim:
        raise ValueError(f"matrix shape {mat.shape} does not match dim {dim}")
    if not np.isfinite(mat).all():
        raise ValueError("matrix entries must be finite")
    return mat


def hermitian(matrix, what: str) -> np.ndarray:
    """The Hermitian part (A + A*) / 2 of a square finite matrix A, which
    is rejected, named ``what``, if that moves an entry by more than
    rounding: max |A - A*| / 2 above HERMITIAN_ATOL * max(1, max |A_ij|)."""
    mat = as_matrix(matrix)
    deviation = float(np.abs(mat - mat.conj().T).max()) / 2.0
    bound = HERMITIAN_ATOL * max(1.0, float(np.abs(mat).max()))
    if deviation > bound:
        raise ValueError(f"{what} deviates from Hermitian by {deviation:.3e} "
                         f"(tolerance {bound:.3e})")
    return _hermitian_part(mat)


def _hermitian_part(mat: np.ndarray) -> np.ndarray:
    return (mat + mat.conj().T) / 2.0


def density_matrix(matrix) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian part of a strictly positive unit-trace matrix, with its
    ascending spectrum.

    States whose smallest eigenvalue falls below 1e-12 times the largest are
    rejected rather than regularized.
    """
    mat = hermitian(matrix, "density matrix")
    trace = np.trace(mat).real
    if abs(trace - 1.0) > TRACE_ATOL:
        raise ValueError(f"density matrix trace is {trace:.17g}, expected 1")
    evals = np.linalg.eigvalsh(mat)
    if evals[0] <= POSITIVITY_REL * evals[-1]:
        raise NumericalDomainError(
            f"density matrix is not strictly positive: min eigenvalue "
            f"{evals[0]:.3e} vs max {evals[-1]:.3e}"
        )
    return mat, evals


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Ascending eigenvalues with a unitary matrix of eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.eigenvectors * self.eigenvalues) @ self.eigenvectors.conj().T

    def apply(self, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        return (self.eigenvectors * f(self.eigenvalues)) @ self.eigenvectors.conj().T


def eig(operator) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix.

    The input must pass ``hermitian``, the rule of every matrix input; its
    Hermitian part is diagonalized.  The reconstruction U diag(lam) U* is
    verified against that part to 1e-10 in Frobenius norm, relative to its
    Frobenius norm (or to 1 for near-zero matrices).
    """
    mat = hermitian(operator, "matrix")
    evals, evecs = np.linalg.eigh(mat)
    dec = SpectralDecomposition(evals, evecs)
    scale = max(1.0, float(np.linalg.norm(mat)))
    residual = float(np.linalg.norm(dec.reconstruct() - mat))
    if residual > RECONSTRUCTION_RTOL * scale:
        raise NumericalDomainError(
            f"eigendecomposition failed to reconstruct input: {residual:.3e}"
        )
    return dec


def matrix_log(dec: SpectralDecomposition) -> np.ndarray:
    if dec.eigenvalues[0] <= 0.0:
        raise NumericalDomainError(
            f"logarithm needs a positive spectrum, min eigenvalue "
            f"{dec.eigenvalues[0]:.3e}"
        )
    return dec.apply(np.log)


def matrix_power(dec: SpectralDecomposition, exponent: float) -> np.ndarray:
    """Real matrix power of a Hermitian matrix, given as its decomposition.

    Fractional and negative exponents need a positive spectrum; integer
    powers accept any spectrum.
    """
    if exponent != int(exponent) or exponent < 0:
        if dec.eigenvalues[0] <= 0.0:
            raise NumericalDomainError(
                f"fractional or negative power needs a positive spectrum, "
                f"min eigenvalue {dec.eigenvalues[0]:.3e}"
            )
    return dec.apply(lambda lam: lam ** exponent)


def matrix_exp(operator) -> np.ndarray:
    return eig(operator).apply(np.exp)


@dataclass(frozen=True, eq=False)
class QuantumSystem:
    """Hamiltonian plus a faithful reference state, stored as the Hermitian
    parts of the given matrices.  Both must pass ``hermitian``, and the
    state also ``density_matrix``; a matrix that fails raises, and none is
    repaired.

    The computed flag ``tri`` marks time-reversal invariance, realized here
    as realness of both matrices in the standard basis.  Every dim-2 system
    has it: any two 2 x 2 Hermitian matrices are real in a common basis.

    ``_memo`` holds the spectral data computed so far: the two
    eigendecompositions (keys "h" and "rho"), one propagator per distinct
    signed t (key ("u", t)) and one overlap per distinct t (key ("o", t)).
    Each new key adds one n x n matrix and nothing is evicted, so the memo
    grows with the number of distinct times a system is asked about.
    """

    hamiltonian: np.ndarray
    reference_state: np.ndarray
    tri: bool = field(init=False)
    _memo: dict = field(init=False, default_factory=dict, repr=False)

    def __post_init__(self):
        h = hermitian(self.hamiltonian, "Hamiltonian")
        rho, _ = density_matrix(self.reference_state)
        if h.shape != rho.shape:
            raise ValueError(f"Hamiltonian dim {h.shape[0]} does not match "
                             f"state dim {rho.shape[0]}")
        object.__setattr__(self, "tri", h.shape[0] == 2 or all(
            np.abs(m.imag).max() <= HERMITIAN_ATOL for m in (h, rho)))
        object.__setattr__(self, "hamiltonian", h)
        object.__setattr__(self, "reference_state", rho)

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]

    # -- cached spectral data; systems are immutable so these never go stale

    def hamiltonian_eig(self) -> SpectralDecomposition:
        if "h" not in self._memo:
            self._memo["h"] = eig(self.hamiltonian)
        return self._memo["h"]

    def reference_eig(self) -> SpectralDecomposition:
        if "rho" not in self._memo:
            self._memo["rho"] = eig(self.reference_state)
        return self._memo["rho"]

    def propagator(self, t: float) -> np.ndarray:
        """exp(-itH)."""
        key = ("u", float(t))
        if key not in self._memo:
            dec = self.hamiltonian_eig()
            self._memo[key] = dec.apply(lambda lam: np.exp(-1j * t * lam))
        return self._memo[key]

    def overlap(self, t: float) -> np.ndarray:
        """O(t) = V* exp(-itH) V, the propagator in the reference eigenbasis.

        Entry O_ji is the amplitude for the reference eigenvector v_i to
        arrive at v_j after time t.  Counting statistics, the modular
        measure and the functionals are all read off this matrix and the
        reference spectrum.
        """
        key = ("o", float(t))
        if key not in self._memo:
            vecs = self.reference_eig().eigenvectors
            self._memo[key] = vecs.conj().T @ self.propagator(t) @ vecs
        return self._memo[key]

    def heisenberg_reference_eig(self, t: float) -> SpectralDecomposition:
        """Eigendecomposition of exp(itH) w0 exp(-itH) = exp(-S_t).

        Conjugation keeps the spectrum of w0 and carries its eigenvectors
        along, so no second diagonalization is needed; degenerate
        eigenvalues of w0 stay exactly degenerate.
        """
        ref = self.reference_eig()
        return SpectralDecomposition(ref.eigenvalues,
                                     self.propagator(-t) @ ref.eigenvectors)


def per_alpha(point: Callable[[float], float], alpha):
    """``point(alpha)`` for a scalar alpha; for a 1-D array of alphas, the
    array of ``point(a)`` over its entries, in order."""
    if np.ndim(alpha) == 0:
        return point(alpha)
    return np.array([point(a) for a in np.asarray(alpha, dtype=float).tolist()])


def heisenberg_evolve(system: QuantumSystem, operator, t: float) -> np.ndarray:
    """A_t = exp(itH) A exp(-itH), Hermitian part."""
    mat = as_matrix(operator, system.dim)
    u = system.propagator(-t)          # exp(itH)
    return _hermitian_part(u @ mat @ u.conj().T)


def schrodinger_evolve(system: QuantumSystem, state, t: float) -> np.ndarray:
    """rho_t = exp(-itH) rho exp(itH), the Heisenberg evolution by -t."""
    return heisenberg_evolve(system, state, -t)


def _two_state(rho, nu):
    """log r, log n and W_ij = |<u_i|v_j>|^2 for rho = sum_i r_i |u_i><u_i|
    and nu = sum_j n_j |v_j><v_j|.  A state given as its
    ``SpectralDecomposition`` is taken as checked; any other is checked by
    ``density_matrix`` and diagonalized once."""
    r_eig, n_eig = (s if isinstance(s, SpectralDecomposition)
                    else eig(density_matrix(s)[0]) for s in (rho, nu))
    r, n = r_eig.eigenvalues, n_eig.eigenvalues
    if r.size != n.size:
        raise ValueError(f"state dims differ: {r.size} vs {n.size}")
    weights = np.abs(r_eig.eigenvectors.conj().T @ n_eig.eigenvectors) ** 2
    return np.log(r), np.log(n), weights


def q_relative_entropy(rho, nu) -> float:
    """Relative entropy tr(rho (log nu - log rho))
    = sum_ij r_i W_ij (log n_j - log r_i).

    With this sign convention the value is nonpositive and vanishes exactly
    when the states coincide.
    """
    log_r, log_n, weights = _two_state(rho, nu)
    return float(np.sum(np.exp(log_r)[:, None] * weights
                        * (log_n[None, :] - log_r[:, None])))


def q_renyi_entropy(rho, nu, alpha):
    """Renyi relative entropy log tr(rho^alpha nu^(1-alpha)), per alpha: the
    log-sum-exp of alpha log r_i + log W_ij + (1-alpha) log n_j.

    Each state is diagonalized once per call, or not at all when given as
    its ``SpectralDecomposition``; each alpha then costs O(n^2).
    """
    log_r, log_n, weights = _two_state(rho, nu)
    log_w = np.log(weights, out=np.full(weights.shape, -np.inf),
                   where=weights > 0.0).ravel()

    def point(alpha: float) -> float:
        return logsumexp(np.add.outer(alpha * log_r, (1.0 - alpha) * log_n)
                         .ravel() + log_w)

    return per_alpha(point, alpha)


def entropy_observable(system: QuantumSystem) -> np.ndarray:
    """S0 = -log w0."""
    return _hermitian_part(-matrix_log(system.reference_eig()))


def entropy_production_observable(system: QuantumSystem) -> np.ndarray:
    """sigma = -i [H, log w0].  Hermitian and traceless."""
    h = system.hamiltonian
    logw = matrix_log(system.reference_eig())
    return _hermitian_part(-1j * (h @ logw - logw @ h))


def adaptive_simpson_matrix(f: Callable[[float], np.ndarray], a: float,
                            b: float) -> np.ndarray:
    """Adaptive Simpson quadrature of a matrix-valued function.

    The library integrates exactly; this is the independent numerical route
    of the verification battery's ``quantum_ep_quadrature`` row.

    Subdivision stops when the entrywise Richardson error estimate drops
    below QUADRATURE_ATOL, and the estimate is folded back in.  A subinterval
    still above its share after QUADRATURE_MAX_DEPTH halvings, or whose
    estimate is not finite, raises ``NumericalDomainError``.
    """
    if b == a:
        return np.zeros_like(np.asarray(f(a)))

    def recurse(lo, hi, flo, fmid, fhi, whole, tol, depth):
        mid = (lo + hi) / 2.0
        fl = f((lo + mid) / 2.0)
        fr = f((mid + hi) / 2.0)
        left = (mid - lo) / 6.0 * (flo + 4.0 * fl + fmid)
        right = (hi - mid) / 6.0 * (fmid + 4.0 * fr + fhi)
        err = left + right - whole
        gap = np.abs(err).max()
        if gap <= 15.0 * tol:
            return left + right + err / 15.0
        # a non-finite estimate never shrinks, so halving cannot help
        if depth <= 0 or not np.isfinite(gap):
            raise NumericalDomainError(
                f"quadrature did not converge on [{lo:.17g}, {hi:.17g}]: "
                f"error estimate {gap / 15.0:.3e} above tolerance {tol:.3e}"
            )
        return (recurse(lo, mid, flo, fl, fmid, left, tol / 2.0, depth - 1)
                + recurse(mid, hi, fmid, fr, fhi, right, tol / 2.0, depth - 1))

    fa, fm, fb = f(a), f((a + b) / 2.0), f(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return recurse(a, b, fa, fm, fb, whole, QUADRATURE_ATOL, QUADRATURE_MAX_DEPTH)


def evolved_integral(system: QuantumSystem, operator, t: float) -> np.ndarray:
    """integral_0^t exp(isH) A exp(-isH) ds, in closed form.

    In the eigenbasis of H, with energies E and eigenvectors V, entry
    (j, k) of the integrand is exp(is w_jk) (V* A V)_jk, w_jk = E_j - E_k,
    whose integral is W_jk = t exp(it w_jk / 2) sinc(t w_jk / 2 pi); the
    result is V [(V* A V) * W] V*.  An entry with w_jk = 0 integrates to
    exactly t.  No quadrature runs and no memo entry is added.
    """
    mat = as_matrix(operator, system.dim)
    dec = system.hamiltonian_eig()
    vecs = dec.eigenvectors
    phase = t * np.subtract.outer(dec.eigenvalues, dec.eigenvalues)
    weights = t * np.exp(0.5j * phase) * np.sinc(phase / (2.0 * np.pi))
    return vecs @ ((vecs.conj().T @ mat @ vecs) * weights) @ vecs.conj().T


def mean_ep_observable(system: QuantumSystem, t: float) -> np.ndarray:
    """Mean entropy production rate Sigma_t = (S_t - S0) / t.

    Its other form, the time average of the evolved entropy production
    observable sigma, is checked by the ``quantum_ep_quadrature`` row of
    the verification battery.
    """
    if t == 0:
        raise ValueError("time must be nonzero")
    s0 = entropy_observable(system)
    u = system.propagator(-t)
    st = u @ s0 @ u.conj().T
    return _hermitian_part((st - s0) / t)


def mean_ep_expectation(system: QuantumSystem, t: float) -> float:
    """w0(Sigma_t)."""
    sig = mean_ep_observable(system, t)
    return float(np.trace(system.reference_state @ sig).real)
