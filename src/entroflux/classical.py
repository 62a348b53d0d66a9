"""Finite classical dynamics on a cyclic phase space.

The phase space is {0, ..., N} and the dynamics is the cyclic shift sending
point j to j+1 (mod N+1).  Observables are real functions on the phase
space; states are strictly positive probability vectors.  Observables evolve
forward along the flow, f_t(j) = f(j + t), and states by duality,
rho_t(j) = rho(j - t), so that rho_t(f) = rho(f_t) for every t.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalDomainError
from .measures import SpectralMeasure, build_measure, logsumexp

TRI_ATOL = 1e-12
VARIATIONAL_SLACK = 1e-10
_PERTURBATION_TRIALS = 10
_PERTURBATION_SEED = 1021


def _positive_probability_vector(values, what: str) -> np.ndarray:
    vec = np.asarray(values, dtype=float).ravel()
    if vec.size < 1:
        raise ValueError(f"{what} must be a nonempty vector")
    if not np.all(np.isfinite(vec)):
        raise ValueError(f"{what} must be finite")
    if vec.min() <= 0.0:
        raise NumericalDomainError(f"{what} must be strictly positive")
    if abs(vec.sum() - 1.0) > 1e-12:
        raise ValueError(f"{what} must sum to 1 within 1e-12, got {vec.sum():.17g}")
    return vec


@dataclass(frozen=True, eq=False)
class ClassicalSystem:
    """Cyclic shift dynamics together with a faithful reference state."""

    reference_state: np.ndarray

    def __post_init__(self):
        vec = _positive_probability_vector(self.reference_state, "reference state")
        object.__setattr__(self, "reference_state", vec)

    @property
    def size(self) -> int:
        return self.reference_state.size

    @property
    def is_tri(self) -> bool:
        """Time-reversal invariance: the reference weights are symmetric
        under the reflection j -> N - j."""
        w = self.reference_state
        return bool(np.abs(w - w[::-1]).max() <= TRI_ATOL)


@dataclass(frozen=True, eq=False)
class ClassicalObservable:
    """Real function on the phase space."""

    values: np.ndarray

    def __post_init__(self):
        vec = np.asarray(self.values, dtype=float).ravel()
        if vec.size < 1 or not np.all(np.isfinite(vec)):
            raise ValueError("observable values must be a nonempty finite vector")
        object.__setattr__(self, "values", vec)


@dataclass(frozen=True, eq=False)
class ClassicalState:
    """Strictly positive probability vector on the phase space."""

    probabilities: np.ndarray

    def __post_init__(self):
        vec = _positive_probability_vector(self.probabilities, "state")
        object.__setattr__(self, "probabilities", vec)


def _as_values(f) -> np.ndarray:
    if isinstance(f, ClassicalObservable):
        return f.values
    return ClassicalObservable(f).values


def _as_probabilities(rho) -> np.ndarray:
    if isinstance(rho, ClassicalState):
        return rho.probabilities
    return ClassicalState(rho).probabilities


def _check_size(system: ClassicalSystem, vec: np.ndarray, what: str) -> None:
    if vec.size != system.size:
        raise ValueError(
            f"{what} has size {vec.size}, system phase space has {system.size}"
        )


def evolve_observable(system: ClassicalSystem, f, t: int) -> ClassicalObservable:
    """Evolve an observable by ``t`` steps: (f_t)(j) = f(j + t mod N+1)."""
    values = _as_values(f)
    _check_size(system, values, "observable")
    return ClassicalObservable(np.roll(values, -int(t)))


def evolve_state(system: ClassicalSystem, rho, t: int) -> ClassicalState:
    """Evolve a state by ``t`` steps: (rho_t)(j) = rho(j - t mod N+1)."""
    probs = _as_probabilities(rho)
    _check_size(system, probs, "state")
    return ClassicalState(np.roll(probs, int(t)))


def relative_entropy(rho, nu) -> float:
    """S(rho | nu) = sum_j rho_j log(nu_j / rho_j).  Nonpositive, and zero
    exactly when the two states coincide."""
    p = _as_probabilities(rho)
    q = _as_probabilities(nu)
    if p.size != q.size:
        raise ValueError(f"state sizes differ: {p.size} vs {q.size}")
    return float(np.sum(p * (np.log(q) - np.log(p))))


def renyi_entropy(rho, nu, alpha: float) -> float:
    """Renyi relative entropy log sum_j rho_j^(1-alpha) nu_j^alpha."""
    p = _as_probabilities(rho)
    q = _as_probabilities(nu)
    if p.size != q.size:
        raise ValueError(f"state sizes differ: {p.size} vs {q.size}")
    return logsumexp((1.0 - alpha) * np.log(p) + alpha * np.log(q))


def entropy_observable(system: ClassicalSystem) -> ClassicalObservable:
    """Information content of the reference state, S0 = -log w0."""
    return ClassicalObservable(-np.log(system.reference_state))


def _integer_positive_time(t) -> int:
    tt = int(t)
    if tt != t or tt <= 0:
        raise ValueError(f"time must be a positive integer, got {t!r}")
    return tt


def mean_ep_observable(system: ClassicalSystem, t: int) -> ClassicalObservable:
    """Mean entropy production rate over ``t`` steps, (S_t - S0) / t.

    Its telescoped form, the time average of the evolved one-step rate
    log(w1 / w0), is checked by the ``classical_ep_telescoping`` row of
    the verification battery.
    """
    tt = _integer_positive_time(t)
    s0 = entropy_observable(system).values
    st = np.roll(s0, -tt)
    return ClassicalObservable((st - s0) / tt)


def classical_functional(system: ClassicalSystem, alpha: float, t: int) -> float:
    """Entropic functional e_t(alpha) = log w0(exp(-alpha t Sigma_t))."""
    tt = _integer_positive_time(t)
    sig = mean_ep_observable(system, tt).values
    logw = np.log(system.reference_state)
    return logsumexp(logw - alpha * tt * sig)


def es_distribution(system: ClassicalSystem, t: int) -> SpectralMeasure:
    """Law of the mean entropy production rate under the reference state."""
    tt = _integer_positive_time(t)
    sig = mean_ep_observable(system, tt).values
    return build_measure(sig, system.reference_state, total=1.0)


def variational_functional(system: ClassicalSystem, alpha: float, t: int) -> float:
    """e_t(alpha) as the maximum of rho -> S(rho|w0) - alpha t rho(Sigma_t).

    The maximizer is rho* proportional to w0 exp(-alpha t Sigma_t).  The
    returned value is the objective at rho*; ten seeded perturbed states
    are checked to not exceed it beyond 1e-10.  Its agreement with
    ``classical_functional`` is the ``classical_identity_fourway`` row of
    the verification battery.
    """
    tt = _integer_positive_time(t)
    sig = mean_ep_observable(system, tt).values
    logw = np.log(system.reference_state)
    exponents = logw - alpha * tt * sig
    log_z = logsumexp(exponents)
    maximizer = np.exp(exponents - log_z)

    def objective(rho: np.ndarray) -> float:
        return float(np.sum(rho * (logw - np.log(rho))) - alpha * tt * np.sum(rho * sig))

    best = objective(maximizer)
    rng = np.random.default_rng(_PERTURBATION_SEED)
    for _ in range(_PERTURBATION_TRIALS):
        jitter = rng.dirichlet(np.ones(system.size))
        rho = 0.8 * maximizer + 0.2 * jitter
        rho = rho / rho.sum()
        trial = objective(rho)
        if trial > best + VARIATIONAL_SLACK:
            raise NumericalDomainError(
                f"perturbed state beats the maximizer by {trial - best:.3e}"
            )
    return best


def renyi_identity_check(system: ClassicalSystem, alpha: float, t: int) -> float:
    """Renyi entropy of the evolved reference against the reference.

    Equals e_t(alpha); the ``classical_identity_fourway`` row of the
    verification battery checks the agreement.
    """
    tt = _integer_positive_time(t)
    evolved = evolve_state(system, ClassicalState(system.reference_state), tt)
    return renyi_entropy(evolved, ClassicalState(system.reference_state), alpha)


def lp_norm(system: ClassicalSystem, f, p: float) -> float:
    """Weighted norm ||f||_p = (sum_j |f_j|^p w0_j)^(1/p)."""
    if not p >= 1:
        raise ValueError(f"norm index must satisfy p >= 1, got {p}")
    values = _as_values(f)
    _check_size(system, values, "observable")
    return float(np.sum(np.abs(values) ** p * system.reference_state) ** (1.0 / p))


def classical_transfer_apply(system: ClassicalSystem, p: float, f,
                             t: int) -> ClassicalObservable:
    """Transfer operator U_p(t) f = f_{-t} * exp((S0 - S_{-t}) / p).

    The family satisfies the group law U_p(t1) U_p(t2) = U_p(t1+t2),
    implements the dynamics via U_p(-t)[f * U_p(t) g] = f_t * g, and is an
    isometry of the weighted p-norm.
    """
    if not p >= 1:
        raise ValueError(f"transfer index must satisfy p >= 1, got {p}")
    values = _as_values(f)
    _check_size(system, values, "observable")
    tt = int(t)
    if tt != t:
        raise ValueError(f"time must be an integer, got {t!r}")
    s0 = -np.log(system.reference_state)
    s_mt = np.roll(s0, tt)            # S_{-t}(j) = S0(j - t)
    f_mt = np.roll(values, tt)        # f_{-t}(j) = f(j - t)
    return ClassicalObservable(f_mt * np.exp((s0 - s_mt) / p))


def classical_transfer_functional(system: ClassicalSystem, p: float, alpha: float,
                                  t: int) -> float:
    """log ||U_{p/alpha}(t) 1||_p^p, evaluated through the explicit exponent.

    The index p cancels; for time-reversal invariant systems the value is
    e_t(alpha), otherwise it is e_t(1 - alpha).
    """
    if not p >= 1:
        raise ValueError(f"norm index must satisfy p >= 1, got {p}")
    tt = _integer_positive_time(t)
    s0 = -np.log(system.reference_state)
    s_mt = np.roll(s0, tt)
    return logsumexp(alpha * (s0 - s_mt) + np.log(system.reference_state))
