"""Dense Hermitian linear algebra and finite-dimensional quantum dynamics.

Every matrix function here goes through an exact eigendecomposition of a
Hermitian matrix; no differential equation is integrated anywhere.  Time
evolution is conjugation by exp(+-itH): observables move forward,
A_t = exp(itH) A exp(-itH), states move by duality,
rho_t = exp(-itH) rho exp(itH).
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import NumericalDomainError

HERMITIAN_ATOL = 1e-12
POSITIVITY_REL = 1e-12
TRACE_ATOL = 1e-12
RECONSTRUCTION_RTOL = 1e-10
QUADRATURE_ATOL = 1e-9


def as_matrix(value, dim: int | None = None) -> np.ndarray:
    """Square complex matrix with finite entries, of dimension ``dim`` if given.

    ``value`` is an array-like or any wrapper exposing ``.matrix``.
    """
    mat = np.asarray(getattr(value, "matrix", value), dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    if dim is not None and mat.shape[0] != dim:
        raise ValueError(f"matrix shape {mat.shape} does not match dim {dim}")
    if not np.isfinite(mat).all():
        raise ValueError("matrix entries must be finite")
    return mat


def _symmetrize(matrix, what: str) -> np.ndarray:
    mat = as_matrix(matrix)
    correction = np.abs(mat - mat.conj().T).max() / 2.0
    if correction > HERMITIAN_ATOL * max(1.0, np.abs(mat).max()):
        warnings.warn(
            f"{what} deviates from Hermitian by {correction:.3e}; symmetrized",
            stacklevel=3,
        )
    return (mat + mat.conj().T) / 2.0


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """Square complex matrix, symmetrized to (A + A*) / 2 on construction."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _symmetrize(self.matrix, "operator"))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def is_real(self, atol: float = HERMITIAN_ATOL) -> bool:
        return bool(np.abs(self.matrix.imag).max() <= atol)


@dataclass(frozen=True, eq=False)
class DensityMatrix(HermitianOperator):
    """Strictly positive unit-trace Hermitian matrix.

    States whose smallest eigenvalue falls below 1e-12 times the largest are
    rejected rather than regularized.
    """

    def __post_init__(self):
        mat = _symmetrize(self.matrix, "density matrix")
        trace = np.trace(mat).real
        if abs(trace - 1.0) > TRACE_ATOL:
            raise ValueError(f"density matrix trace is {trace:.17g}, expected 1")
        evals = np.linalg.eigvalsh(mat)
        if evals[0] <= POSITIVITY_REL * evals[-1]:
            raise NumericalDomainError(
                f"density matrix is not strictly positive: min eigenvalue "
                f"{evals[0]:.3e} vs max {evals[-1]:.3e}"
            )
        object.__setattr__(self, "matrix", mat)


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

    Raw arrays are accepted but must be Hermitian to entrywise 1e-12
    (relative to the largest entry).  The reconstruction U diag(lam) U* is
    verified against the input to 1e-10 in Frobenius norm, relative to the
    Frobenius norm of the input (or to 1 for near-zero matrices).
    """
    if isinstance(operator, HermitianOperator):     # symmetrized on construction
        mat = operator.matrix
    else:
        mat = as_matrix(operator)
        gap = np.abs(mat - mat.conj().T).max()
        if gap > HERMITIAN_ATOL * max(1.0, np.abs(mat).max()):
            raise ValueError(f"matrix is not Hermitian: asymmetry {gap:.3e}")
        mat = (mat + mat.conj().T) / 2.0
    evals, evecs = np.linalg.eigh(mat)
    dec = SpectralDecomposition(evals, evecs)
    scale = max(1.0, float(np.linalg.norm(mat)))
    residual = float(np.linalg.norm(dec.reconstruct() - mat))
    if residual > RECONSTRUCTION_RTOL * scale:
        raise NumericalDomainError(
            f"eigendecomposition failed to reconstruct input: {residual:.3e}"
        )
    return dec


def matrix_log(operator) -> np.ndarray:
    dec = operator if isinstance(operator, SpectralDecomposition) else eig(operator)
    if dec.eigenvalues[0] <= 0.0:
        raise NumericalDomainError(
            f"logarithm needs a positive spectrum, min eigenvalue "
            f"{dec.eigenvalues[0]:.3e}"
        )
    return dec.apply(np.log)


def matrix_power(operator, exponent: float) -> np.ndarray:
    """Real matrix power of a Hermitian matrix.

    Fractional and negative exponents need a positive spectrum; integer
    powers accept any spectrum.
    """
    dec = operator if isinstance(operator, SpectralDecomposition) else eig(operator)
    if exponent != int(exponent) or exponent < 0:
        if dec.eigenvalues[0] <= 0.0:
            raise NumericalDomainError(
                f"fractional or negative power needs a positive spectrum, "
                f"min eigenvalue {dec.eigenvalues[0]:.3e}"
            )
    return dec.apply(lambda lam: lam ** exponent)


def matrix_exp(operator) -> np.ndarray:
    dec = operator if isinstance(operator, SpectralDecomposition) else eig(operator)
    return dec.apply(np.exp)


@dataclass(frozen=True, eq=False)
class QuantumSystem:
    """Hamiltonian plus a faithful reference state.

    ``tri`` marks time-reversal invariance, realized here as realness of
    both matrices in the standard basis.  When left unset it is detected
    from the entries; when set to True it is enforced.
    """

    hamiltonian: HermitianOperator
    reference_state: DensityMatrix
    tri: bool | None = None
    _memo: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        h = self.hamiltonian
        if not isinstance(h, HermitianOperator):
            h = HermitianOperator(h)
        rho = self.reference_state
        if not isinstance(rho, DensityMatrix):
            rho = DensityMatrix(rho)
        if h.dim != rho.dim:
            raise ValueError(
                f"Hamiltonian dim {h.dim} does not match state dim {rho.dim}"
            )
        real = h.is_real() and rho.is_real()
        if self.tri is None:
            object.__setattr__(self, "tri", real)
        elif self.tri and not real:
            raise ValueError(
                "tri=True requires real Hamiltonian and reference state entries"
            )
        object.__setattr__(self, "hamiltonian", h)
        object.__setattr__(self, "reference_state", rho)

    @property
    def dim(self) -> int:
        return self.hamiltonian.dim

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


def heisenberg_evolve(system: QuantumSystem, operator, t: float) -> HermitianOperator:
    """A_t = exp(itH) A exp(-itH)."""
    mat = as_matrix(operator, system.dim)
    u = system.propagator(-t)          # exp(itH)
    return HermitianOperator(u @ mat @ u.conj().T)


def schrodinger_evolve(system: QuantumSystem, state, t: float) -> DensityMatrix:
    """rho_t = exp(-itH) rho exp(itH), the Heisenberg evolution by -t."""
    return DensityMatrix(heisenberg_evolve(system, state, -t).matrix)


def _state_pair(rho, nu):
    r = rho if isinstance(rho, DensityMatrix) else DensityMatrix(rho)
    n = nu if isinstance(nu, DensityMatrix) else DensityMatrix(nu)
    if r.dim != n.dim:
        raise ValueError(f"state dims differ: {r.dim} vs {n.dim}")
    return r, n


def q_relative_entropy(rho, nu) -> float:
    """Relative entropy tr(rho (log nu - log rho)).

    With this sign convention the value is nonpositive and vanishes exactly
    when the states coincide.
    """
    r, n = _state_pair(rho, nu)
    value = np.trace(r.matrix @ (matrix_log(n) - matrix_log(r)))
    return float(value.real)


def q_renyi_entropy(rho, nu, alpha: float) -> float:
    """Renyi relative entropy log tr(rho^alpha nu^(1-alpha))."""
    r, n = _state_pair(rho, nu)
    trace = np.trace(matrix_power(r, alpha) @ matrix_power(n, 1.0 - alpha)).real
    if trace <= 0.0:
        raise NumericalDomainError(f"Renyi trace is not positive: {trace:.3e}")
    return float(np.log(trace))


def entropy_observable(system: QuantumSystem) -> HermitianOperator:
    """S0 = -log w0."""
    return HermitianOperator(-matrix_log(system.reference_eig()))


def entropy_production_observable(system: QuantumSystem) -> HermitianOperator:
    """sigma = -i [H, log w0].  Hermitian and traceless."""
    h = system.hamiltonian.matrix
    logw = matrix_log(system.reference_eig())
    return HermitianOperator(-1j * (h @ logw - logw @ h))


def adaptive_simpson_matrix(f: Callable[[float], np.ndarray], a: float, b: float,
                            atol: float = QUADRATURE_ATOL,
                            max_depth: int = 30) -> np.ndarray:
    """Adaptive Simpson quadrature of a matrix-valued function.

    Subdivision stops when the entrywise Richardson error estimate drops
    below ``atol``; the estimate is folded back in for an extra order.  A
    subinterval whose estimate is still above its share of ``atol`` after
    ``max_depth`` halvings, or is not finite, raises ``NumericalDomainError``.
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
    return recurse(a, b, fa, fm, fb, whole, atol, max_depth)


def mean_ep_observable(system: QuantumSystem, t: float) -> HermitianOperator:
    """Mean entropy production rate Sigma_t = (S_t - S0) / t.

    Its other form, the time average of the evolved entropy production
    observable sigma, is checked by the ``quantum_ep_quadrature`` row of
    the verification battery.
    """
    if t == 0:
        raise ValueError("time must be nonzero")
    s0 = entropy_observable(system).matrix
    u = system.propagator(-t)
    st = u @ s0 @ u.conj().T
    return HermitianOperator((st - s0) / t)


def mean_ep_expectation(system: QuantumSystem, t: float) -> float:
    """w0(Sigma_t)."""
    sig = mean_ep_observable(system, t).matrix
    return float(np.trace(system.reference_state.matrix @ sig).real)
