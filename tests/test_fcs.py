import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entroflux import fcs
from entroflux import functionals as fn
from entroflux import quantum as qm
from entroflux.measures import (
    WEIGHT_DROP,
    build_measure,
    fluctuation_symmetry_residual,
    total_variation,
)
from entroflux.models import canonical_model, random_system

SX = np.array([[0.0, 1.0], [1.0, 0.0]])
W0 = np.diag([0.75, 0.25])
FLIP = qm.QuantumSystem(SX, W0)
RATE = (2.0 / math.pi) * math.log(3.0)


def test_flip_qubit_closed_form_distribution():
    m = fcs.fcs_distribution(FLIP, math.pi / 2)
    assert m.atoms.size == 2
    np.testing.assert_allclose(m.atoms, [-RATE, RATE], atol=1e-12)
    np.testing.assert_allclose(m.weights, [0.25, 0.75], atol=1e-12)


def test_flip_qubit_modular_measure_matches():
    counting = fcs.fcs_distribution(FLIP, math.pi / 2)
    modular = fcs.modular_spectral_measure(FLIP, math.pi / 2)
    assert total_variation(counting, modular) < 1e-12


def test_distribution_normalized_with_nonnegative_weights():
    system = random_system(6, seed=71)
    m = fcs.fcs_distribution(system, 1.0)
    assert m.weights.min() >= 0.0
    assert m.weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_distribution_mean_is_mean_entropy_production():
    system = random_system(5, tri=True, seed=72)
    for t in (0.5, 1.0):
        m = fcs.fcs_distribution(system, t)
        assert m.mean() == pytest.approx(qm.mean_ep_expectation(system, t),
                                         abs=1e-11)


def test_fluctuation_symmetry_of_counting_statistics():
    system = random_system(6, tri=True, seed=73)
    m = fcs.fcs_distribution(system, 1.0)
    assert fluctuation_symmetry_residual(m, 1.0) < 1e-12


def test_symmetry_fails_for_complex_generators():
    system = random_system(5, tri=False, seed=74)
    m = fcs.fcs_distribution(system, 1.0)
    assert fluctuation_symmetry_residual(m, 1.0) > 1e-8


def test_commuting_pair_gives_point_mass_at_zero():
    system = qm.QuantumSystem(np.diag([0.0, 1.0, 2.0]),
                              np.diag([0.5, 0.3, 0.2]))
    m = fcs.fcs_distribution(system, 1.0)
    assert m.atoms.size == 1
    assert m.atoms[0] == pytest.approx(0.0, abs=1e-14)
    assert m.weights[0] == pytest.approx(1.0, abs=1e-14)


def test_cgf_endpoints():
    m = fcs.fcs_distribution(FLIP, math.pi / 2)
    assert fcs.fcs_cgf(m, 0.0, math.pi / 2) == pytest.approx(0.0, abs=1e-14)
    assert fcs.fcs_cgf(m, 1.0, math.pi / 2) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("alpha", [-0.8, 0.0, 0.5, 1.0, 1.9])
def test_cgf_matches_quadratic_functional(alpha):
    system = random_system(5, tri=True, seed=75)
    t = 1.0
    m = fcs.fcs_distribution(system, t)
    assert fcs.fcs_cgf(m, alpha, t) == pytest.approx(
        fn.functional(system, 2.0, alpha, t), abs=1e-11)


def test_cgf_bridge_holds_without_tri_too():
    system = random_system(4, tri=False, seed=76)
    t = 1.0
    m = fcs.fcs_distribution(system, t)
    for alpha in (-0.5, 0.4, 1.5):
        assert fcs.fcs_cgf(m, alpha, t) == pytest.approx(
            fn.functional(system, 2.0, alpha, t), abs=1e-11)


def test_modular_matches_counting_on_tri_systems():
    for seed, dim in ((77, 3), (78, 5), (79, 8)):
        system = random_system(dim, tri=True, seed=seed)
        counting = fcs.fcs_distribution(system, 1.0)
        modular = fcs.modular_spectral_measure(system, 1.0)
        assert total_variation(counting, modular) < 1e-11


def test_modular_measure_without_tri_departs_from_counting():
    system = random_system(5, tri=False, seed=80)
    m = fcs.modular_spectral_measure(system, 1.0)
    assert m.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert total_variation(m, fcs.fcs_distribution(system, 1.0)) > 1e-8


def test_time_reversed_generator_reproduces_counting_statistics():
    system = random_system(5, tri=False, seed=81)
    reversed_system = qm.QuantumSystem(-system.hamiltonian,
                                       system.reference_state)
    counting = fcs.fcs_distribution(system, 1.0)
    twisted = fcs.modular_spectral_measure(reversed_system, 1.0)
    assert total_variation(counting, twisted) < 1e-11


def test_relative_modular_eigenoperators():
    system = random_system(4, seed=82)
    t = 1.0
    evolved = system.heisenberg_reference_eig(-t)
    reference = system.reference_eig()
    for i, j in ((0, 0), (3, 0), (0, 3)):
        e_i = evolved.eigenvectors[:, i]
        f_j = reference.eigenvectors[:, j]
        op = np.outer(e_i, f_j.conj())
        moved = fcs.relative_modular_apply(system, t, op)
        scale = evolved.eigenvalues[i] / reference.eigenvalues[j]
        np.testing.assert_allclose(moved, scale * op, atol=1e-11)


def test_relative_modular_positivity():
    """The modular map has positive spectrum: <A, Delta A> > 0."""
    system = random_system(4, tri=True, seed=83)
    rng = np.random.default_rng(84)
    for _ in range(3):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        moved = fcs.relative_modular_apply(system, 1.0, a)
        inner = np.trace(a.conj().T @ moved)
        assert inner.real > 0
        assert abs(inner.imag) < 1e-10 * abs(inner.real)


def test_modular_measure_from_root_state_weights():
    system = random_system(3, seed=85)
    m = fcs.modular_spectral_measure(system, 1.0)
    assert m.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert m.weights.min() >= 0.0


def _degenerate_system(multiplicities, seed):
    """Random complex H with w0 = basis diag(nu) basis*, each level of nu
    repeated as often as ``multiplicities`` says; returns the system, the
    distinct levels and their spectral projectors."""
    rng = np.random.default_rng(seed)
    dim = sum(multiplicities)
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    basis, _ = np.linalg.qr(raw)
    levels = rng.uniform(0.2, 1.0, size=len(multiplicities))
    levels /= np.dot(levels, multiplicities)
    nu = np.repeat(levels, multiplicities)
    edges = np.cumsum((0,) + tuple(multiplicities))
    projectors = [basis[:, lo:hi] @ basis[:, lo:hi].conj().T
                  for lo, hi in zip(edges[:-1], edges[1:])]
    h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    system = qm.QuantumSystem((h + h.conj().T) / 2,
                              (basis * nu) @ basis.conj().T)
    return system, levels, projectors


def _exp_i(h, s):
    """exp(i s h) for a Hermitian matrix h."""
    lam, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(1j * s * lam)) @ vecs.conj().T


def _projector_pair_measures(system, levels, projectors, t):
    """P_t and Q_t summed over pairs of spectral projectors of w0."""
    u = _exp_i(system.hamiltonian, -t)
    entropy = -np.log(levels)
    p_atoms, p_weights, q_atoms, q_weights = [], [], [], []
    for i, first in enumerate(projectors):
        moved = u @ first @ u.conj().T
        for j, second in enumerate(projectors):
            overlap = float(np.trace(moved @ second).real)
            p_atoms.append((entropy[j] - entropy[i]) / t)
            p_weights.append(levels[i] * overlap)
            q_atoms.append((entropy[i] - entropy[j]) / t)
            q_weights.append(levels[j] * overlap)
    return (build_measure(p_atoms, p_weights, drop=WEIGHT_DROP),
            build_measure(q_atoms, q_weights, drop=WEIGHT_DROP))


DEGENERATE_LEVELS = [(2, 2), (3, 1, 2), (4, 2, 3)]


@pytest.mark.parametrize("multiplicities", DEGENERATE_LEVELS)
def test_counting_and_modular_on_degenerate_reference(multiplicities):
    system, levels, projectors = _degenerate_system(multiplicities, seed=86)
    for t in (0.6, 1.7):
        p_oracle, q_oracle = _projector_pair_measures(system, levels,
                                                      projectors, t)
        counting = fcs.fcs_distribution(system, t)
        modular = fcs.modular_spectral_measure(system, t)
        assert total_variation(counting, p_oracle) <= 1e-10
        assert total_variation(modular, q_oracle) <= 1e-10


@pytest.mark.parametrize("multiplicities", DEGENERATE_LEVELS)
def test_heisenberg_reference_eig_on_degenerate_reference(multiplicities):
    system, _, _ = _degenerate_system(multiplicities, seed=87)
    w0 = system.reference_state
    for t in (0.8, -2.1):
        dec = system.heisenberg_reference_eig(t)
        assert np.array_equal(dec.eigenvalues,
                              system.reference_eig().eigenvalues)
        u = _exp_i(system.hamiltonian, t)
        np.testing.assert_allclose(dec.reconstruct(), u @ w0 @ u.conj().T,
                                   rtol=0, atol=1e-10)


def test_counting_requires_positive_time():
    with pytest.raises(ValueError):
        fcs.fcs_distribution(FLIP, 0.0)
    with pytest.raises(ValueError):
        fcs.fcs_distribution(FLIP, -1.0)
    with pytest.raises(ValueError, match="counting time must be positive"):
        fcs.fcs_cgf(fcs.fcs_distribution(FLIP, 1.0), 0.5, 0.0)


def test_canonical_model_identity():
    system = canonical_model()
    counting = fcs.fcs_distribution(system, 1.0)
    modular = fcs.modular_spectral_measure(system, 1.0)
    assert total_variation(counting, modular) < 1e-10
    assert counting.mean() == pytest.approx(
        qm.mean_ep_expectation(system, 1.0), abs=1e-11)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=6),
       st.integers(min_value=0, max_value=10_000),
       st.floats(min_value=0.1, max_value=4.0))
def test_counting_modular_agreement_property(dim, seed, t):
    system = random_system(dim, tri=True, seed=seed)
    counting = fcs.fcs_distribution(system, t)
    modular = fcs.modular_spectral_measure(system, t)
    assert total_variation(counting, modular) < 1e-10


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=8),
       st.integers(min_value=0, max_value=10_000),
       st.floats(min_value=0.1, max_value=12.0),
       st.lists(st.floats(min_value=-5.0, max_value=5.0), min_size=1,
                max_size=12))
def test_cgf_over_an_alpha_array_equals_scalar_calls(dim, seed, t, alphas):
    system = random_system(dim, seed=seed)
    measure = fcs.fcs_distribution(system, t)
    evolved = qm.schrodinger_evolve(system, system.reference_state, t)
    # alpha = 0 leaves the transferred identity undefined
    nonzero = [a for a in alphas if a != 0.0] or [0.5]
    routes = [
        (lambda a: fcs.fcs_cgf(measure, a, t), alphas),
        (lambda a: qm.q_renyi_entropy(evolved, system.reference_state, a), alphas),
        (lambda a: fn.transfer_functional(system, 2.0, a, t), nonzero),
    ] + [(lambda a, p=p: fn.functional(system, p, a, t), alphas)
         for p in (1.0, 2.0, 100.0, math.inf)]
    for route, grid in routes:
        values = route(np.array(grid))
        assert np.array_equal(values, [route(a) for a in grid])
        assert type(route(grid[0])) is float
