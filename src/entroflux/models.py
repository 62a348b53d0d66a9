"""Concrete systems: coupled reservoirs and random test instances.

The two-reservoir model is the composite ``QuantumSystem`` of two finite
subsystems coupled through an interaction term, each side prepared in its
own Gibbs state, and it also carries those local pieces.  Heat
fluxes out of each side are the commutators of the embedded local
Hamiltonians with the coupling, and the entropy production observable
decomposes as minus the flux weighted by each side's inverse
temperature.

Tensor-product convention: the left factor is the slow (row-major
Kronecker) index.  All cross-checks depend on this ordering.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classical import ClassicalSystem
from .errors import NumericalDomainError
from .quantum import (
    QuantumSystem,
    as_matrix,
    evolved_integral,
    heisenberg_evolve,
    hermitian,
    matrix_exp,
)

COMMUTATION_FLOOR = 1e-6
MAX_GENERATION_ATTEMPTS = 100


def _commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def _gibbs(hamiltonian: np.ndarray, beta: float) -> np.ndarray:
    state = matrix_exp(-beta * np.asarray(hamiltonian, dtype=complex))
    return state / np.trace(state).real


@dataclass(frozen=True, eq=False, kw_only=True)
class ReservoirModel(QuantumSystem):
    """The composite of two subsystems, carrying its local pieces.

    As a ``QuantumSystem`` its Hamiltonian is H_l (x) 1 + 1 (x) H_r + V and
    its reference state is Gibbs(H_l, beta_l) (x) Gibbs(H_r, beta_r).
    ``left_hamiltonian`` and ``right_hamiltonian`` live on their factor
    spaces; ``coupling`` acts on the composite space.
    """

    left_hamiltonian: np.ndarray
    right_hamiltonian: np.ndarray
    beta_left: float
    beta_right: float
    coupling: np.ndarray

    @property
    def dims(self) -> tuple[int, int]:
        return self.left_hamiltonian.shape[0], self.right_hamiltonian.shape[0]

    @property
    def left_embedded(self) -> np.ndarray:
        """Left local Hamiltonian on the composite space."""
        return np.kron(self.left_hamiltonian, np.eye(self.right_hamiltonian.shape[0]))

    @property
    def right_embedded(self) -> np.ndarray:
        """Right local Hamiltonian on the composite space."""
        return np.kron(np.eye(self.left_hamiltonian.shape[0]), self.right_hamiltonian)


def build_two_reservoir(left_hamiltonian, right_hamiltonian,
                        beta_left: float, beta_right: float,
                        coupling) -> ReservoirModel:
    """Assemble the coupled model from local pieces.

    ``coupling`` acts on the composite space and must match the product
    dimension of the two local Hamiltonians.  Each piece must pass
    ``quantum.hermitian`` and is stored as its Hermitian part, so the
    composite Hamiltonian is Hermitian exactly.
    """
    if beta_left <= 0 or beta_right <= 0:
        raise ValueError("inverse temperatures must be positive")
    h_left = hermitian(left_hamiltonian, "left Hamiltonian")
    h_right = hermitian(right_hamiltonian, "right Hamiltonian")
    v = hermitian(as_matrix(coupling, h_left.shape[0] * h_right.shape[0]),
                  "coupling")
    total = (np.kron(h_left, np.eye(h_right.shape[0]))
             + np.kron(np.eye(h_left.shape[0]), h_right) + v)
    reference = np.kron(_gibbs(h_left, beta_left), _gibbs(h_right, beta_right))
    return ReservoirModel(total, reference, left_hamiltonian=h_left,
                          right_hamiltonian=h_right, beta_left=beta_left,
                          beta_right=beta_right, coupling=v)


def flux_observables(model: ReservoirModel) -> tuple[np.ndarray, np.ndarray]:
    """Heat fluxes (left, right): Phi = i [H_local, V] on the composite space."""
    phi_left = 1j * _commutator(model.left_embedded, model.coupling)
    phi_right = 1j * _commutator(model.right_embedded, model.coupling)
    return phi_left, phi_right


def flux_balance_residual(model: ReservoirModel, t: float,
                          side: str = "left") -> float:
    """Residual of H_local(t) - H_local = -integral_0^t Phi(s) ds.

    The time integral of the Heisenberg-evolved flux is taken in closed
    form in the eigenbasis of H (``quantum.evolved_integral``); the residual
    is the Frobenius norm of the difference.
    """
    if t == 0:
        return 0.0
    if side == "left":
        local = model.left_embedded
        phi = flux_observables(model)[0]
    elif side == "right":
        local = model.right_embedded
        phi = flux_observables(model)[1]
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    moved = heisenberg_evolve(model, local, t)
    integral = evolved_integral(model, phi, t)
    return float(np.linalg.norm((moved - local) + integral))


def entropy_production_decomposition(model: ReservoirModel) -> np.ndarray:
    """Entropy production as a flux sum: sigma = -beta_l Phi_l - beta_r Phi_r.

    It equals the commutator form -i [H, log w0] because the reference state
    is a product of Gibbs states for the local Hamiltonians; the
    ``model_sigma_flux_form`` and ``model_sigma_decomposition`` rows of the
    verification battery check that.
    """
    phi_left, phi_right = flux_observables(model)
    return -model.beta_left * phi_left - model.beta_right * phi_right


def canonical_pieces() -> dict:
    """The canonical junction as ``build_two_reservoir`` keywords: two qubits
    with energies (0, 1), sigma_x coupling 1/4, betas 1 and 2."""
    h_local = np.diag([0.0, 1.0])
    sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]])
    return {"left_hamiltonian": h_local, "right_hamiltonian": h_local,
            "beta_left": 1.0, "beta_right": 2.0,
            "coupling": 0.25 * np.kron(sigma_x, sigma_x)}


def canonical_model() -> ReservoirModel:
    """The junction of ``canonical_pieces``."""
    return build_two_reservoir(**canonical_pieces())


def random_system(dim: int, tri: bool = False, seed: int | None = None,
                  spread: float = 1.0) -> QuantumSystem:
    """Random out-of-equilibrium system with controlled spectral scales.

    The Hamiltonian is scaled to unit spectral norm and the exponent of
    the reference state, w0 = exp(-R)/tr, to spectral norm ``spread``, so
    functional values stay in a regime where double-precision margins are
    uniform across ``dim``.  Draws are rejected until the reference
    visibly fails to commute with the Hamiltonian.  Without ``tri`` the
    draw is complex, and the system's own ``tri`` still holds at dim 2.
    """
    if dim < 2:
        raise ValueError(f"dimension must be at least 2, got {dim}")
    if spread <= 0:
        raise ValueError("spread must be positive")
    rng = np.random.default_rng(seed)
    for _ in range(MAX_GENERATION_ATTEMPTS):
        if tri:
            raw_h = rng.standard_normal((dim, dim))
            raw_r = rng.standard_normal((dim, dim))
        else:
            raw_h = rng.standard_normal((dim, dim)) \
                + 1j * rng.standard_normal((dim, dim))
            raw_r = rng.standard_normal((dim, dim)) \
                + 1j * rng.standard_normal((dim, dim))
        h = (raw_h + raw_h.conj().T) / 2
        h = h / np.linalg.norm(h, 2)
        r = (raw_r + raw_r.conj().T) / 2
        r = spread * r / np.linalg.norm(r, 2)
        state = matrix_exp(-r)
        state = state / np.trace(state).real
        if np.abs(_commutator(h, state)).max() > COMMUTATION_FLOOR:
            return QuantumSystem(h, state)
    raise NumericalDomainError(
        f"no non-commuting draw in {MAX_GENERATION_ATTEMPTS} attempts"
    )


def random_classical_system(size: int, seed: int | None = None,
                            tri: bool = False) -> ClassicalSystem:
    """Random classical system; a floor keeps all weights well above zero."""
    if size < 2:
        raise ValueError(f"size must be at least 2, got {size}")
    rng = np.random.default_rng(seed)
    weights = 0.9 * rng.dirichlet(np.ones(size)) + 0.1 / size
    if tri:
        weights = (weights + weights[::-1]) / 2
    return ClassicalSystem(weights)
