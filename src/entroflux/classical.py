"""Finite classical dynamics on a cyclic phase space.

The phase space is {0, ..., N} and the dynamics is the cyclic shift sending
point j to j+1 (mod N+1).  Observables are real functions on the phase
space; states are strictly positive probability vectors.  Observables evolve
forward along the flow, f_t(j) = f(j + t), and states by duality,
rho_t(j) = rho(j - t), so that rho_t(f) = rho(f_t) for every t.

``ClassicalSystem`` checks the reference weights where they enter.
Observables and states are plain 1-D float arrays: arguments are checked
(finite, of the system's size, positive and normalized for states), and
derived values are returned as computed.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import NumericalDomainError, require_finite
from .measures import (SpectralMeasure, build_measure, logsumexp,
                       logsumexp_in_place)

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
    """Cyclic shift dynamics together with a faithful reference state.

    ``tri`` marks time-reversal invariance: the reference weights are
    symmetric, to ``TRI_ATOL``, under a reflection j -> c - j (mod N+1);
    every such reflection reverses the shift.
    """

    reference_state: np.ndarray
    tri: bool = field(init=False)

    def __post_init__(self):
        vec = _positive_probability_vector(self.reference_state, "reference state")
        object.__setattr__(self, "reference_state", vec)
        rev = vec[::-1]     # those weights are rotations of rev, tried in O(N)
        object.__setattr__(self, "tri", any(
            np.abs(np.roll(rev, -j) - vec).max() <= TRI_ATOL
            for j in np.flatnonzero(np.abs(rev - vec[0]) <= TRI_ATOL)))

    @property
    def size(self) -> int:
        return self.reference_state.size


def _check_size(system: ClassicalSystem, vec: np.ndarray, what: str) -> None:
    if vec.size != system.size:
        raise ValueError(
            f"{what} has size {vec.size}, system phase space has {system.size}"
        )


def evolve_observable(system: ClassicalSystem, f, t: int) -> np.ndarray:
    """Evolve an observable by ``t`` steps: (f_t)(j) = f(j + t mod N+1)."""
    values = np.asarray(f, dtype=float).ravel()
    if values.size < 1 or not np.isfinite(values).all():
        raise ValueError("observable values must be a nonempty finite vector")
    _check_size(system, values, "observable")
    return np.roll(values, -int(t))


def evolve_state(system: ClassicalSystem, rho, t: int) -> np.ndarray:
    """Evolve a state by ``t`` steps: (rho_t)(j) = rho(j - t mod N+1)."""
    probs = _positive_probability_vector(rho, "state")
    _check_size(system, probs, "state")
    return np.roll(probs, int(t))


def entropy_observable(system: ClassicalSystem) -> np.ndarray:
    """Information content of the reference state, S0 = -log w0."""
    return -np.log(system.reference_state)


def _integer_positive_time(t) -> int:
    tt = int(t)
    if tt != t or tt <= 0:
        raise ValueError(f"time must be a positive integer, got {t!r}")
    return tt


def mean_ep_observable(system: ClassicalSystem, t: int) -> np.ndarray:
    """Mean entropy production rate over ``t`` steps, (S_t - S0) / t.

    Its telescoped form, the time average of the evolved one-step rate
    log(w1 / w0), is checked by the ``classical_ep_telescoping`` row of
    the verification battery.
    """
    tt = _integer_positive_time(t)
    s0 = entropy_observable(system)
    return (np.roll(s0, -tt) - s0) / tt


def classical_functional(system: ClassicalSystem, alpha, t: int):
    """Entropic functional e_t(alpha) = log w0(exp(-alpha t Sigma_t)), per alpha."""
    tt = _integer_positive_time(t)
    sig = mean_ep_observable(system, tt)
    logw = np.log(system.reference_state)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        exponents = np.multiply((np.asarray(alpha) * tt)[..., None], sig)
        values = logsumexp_in_place(np.subtract(logw, exponents, out=exponents))
    return require_finite(values, "e_t(alpha)", alpha, tt)


def es_distribution(system: ClassicalSystem, t: int) -> SpectralMeasure:
    """Law of the mean entropy production rate under the reference state."""
    tt = _integer_positive_time(t)
    sig = mean_ep_observable(system, tt)
    return build_measure(sig, system.reference_state)


@lru_cache(maxsize=32)
def _jitter(size: int) -> np.ndarray:
    """The seeded perturbing states, drawn once per size; shared, so read-only."""
    draw = np.random.default_rng(_PERTURBATION_SEED).dirichlet(
        np.ones(size), size=_PERTURBATION_TRIALS)
    draw.flags.writeable = False
    return draw


def variational_functional(system: ClassicalSystem, alpha, t: int):
    """e_t(alpha) as the maximum of rho -> S(rho|w0) - alpha t rho(Sigma_t), per alpha.

    The maximizer is rho* proportional to w0 exp(-alpha t Sigma_t).  The
    returned value is the objective at rho*; ten seeded perturbed states
    are checked to not exceed it beyond 1e-10.  Its agreement with
    ``classical_functional`` is the ``classical_identity_fourway`` row of
    the verification battery.
    """
    tt = _integer_positive_time(t)
    sig = mean_ep_observable(system, tt)
    logw = np.log(system.reference_state)
    # one row per state: the maximizer, then the perturbed states
    states = np.empty(np.shape(alpha) + (1 + _PERTURBATION_TRIALS, system.size))
    maximizer, perturbed = states[..., :1, :], states[..., 1:, :]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        scale = (np.asarray(alpha) * tt)[..., None]
        np.subtract(logw, np.multiply(scale[..., None], sig, out=maximizer),
                    out=maximizer)
        maximizer -= logsumexp(maximizer)[..., None]
        np.exp(maximizer, out=maximizer)
        np.multiply(0.8, maximizer, out=perturbed)
        perturbed += 0.2 * _jitter(system.size)
        perturbed /= perturbed.sum(axis=-1, keepdims=True)
        work = np.multiply(states, sig)
        mean_sig = work.sum(axis=-1)
        # a weight that underflowed to 0 keeps work's 0 for its log: 0 log 0 = 0
        np.subtract(logw, np.log(states, out=work, where=states > 0), out=work)
        values = (np.sum(np.multiply(states, work, out=work), axis=-1)
                  - scale * mean_sig)
    best = require_finite(values[..., 0], "the maximizer's objective", alpha, tt)
    excess = (values[..., 1:] - best[..., None]).max()
    if excess > VARIATIONAL_SLACK:
        raise NumericalDomainError(
            f"perturbed state beats the maximizer by {excess:.3e}")
    return best if best.ndim else float(best)


def renyi_identity_check(system: ClassicalSystem, alpha, t: int):
    """Renyi entropy log sum_j rho_j^(1-alpha) w0_j^alpha of the evolved
    reference state rho against the reference w0, per alpha.

    Equals e_t(alpha); the ``classical_identity_fourway`` row of the
    verification battery checks the agreement.
    """
    tt = _integer_positive_time(t)
    logw = np.log(system.reference_state)
    a = np.asarray(alpha)[..., None]
    terms = np.empty((2,) + np.broadcast_shapes(a.shape, logw.shape))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        np.multiply(1.0 - a, np.roll(logw, tt), out=terms[0])
        np.multiply(a, logw, out=terms[1])
        values = logsumexp_in_place(np.add(terms[0], terms[1], out=terms[0]))
    return require_finite(values, "log sum_j rho_j^(1-alpha) w0_j^alpha", alpha, tt)


def classical_transfer_functional(system: ClassicalSystem, p: float, alpha,
                                  t: int):
    """log ||U_{p/alpha}(t) 1||_p^p, evaluated through the explicit exponent,
    per alpha.

    The index p cancels; for time-reversal invariant systems the value is
    e_t(alpha), otherwise it is e_t(1 - alpha).
    """
    if not p >= 1:
        raise ValueError(f"norm index must satisfy p >= 1, got {p}")
    tt = _integer_positive_time(t)
    s0 = -np.log(system.reference_state)
    s_mt = np.roll(s0, tt)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        exponents = np.multiply(np.asarray(alpha)[..., None], s0 - s_mt)
        values = logsumexp_in_place(np.add(
            exponents, np.log(system.reference_state), out=exponents))
    return require_finite(values, "log ||U_{p/alpha}(t) 1||_p^p", alpha, tt, f"p={p}, ")
