import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entroflux import quantum as qm
from entroflux.errors import NumericalDomainError
from entroflux.models import random_system

SX = np.array([[0.0, 1.0], [1.0, 0.0]])
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
W0 = np.diag([0.75, 0.25])

FLIP = qm.QuantumSystem(SX, W0)


def _random_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2


def test_density_matrix_rejects_nonpositive_state():
    with pytest.raises(NumericalDomainError):
        qm.DensityMatrix(np.diag([1.0, 0.0]))
    with pytest.raises(NumericalDomainError):
        qm.DensityMatrix(np.diag([1.5, -0.5]))


def test_density_matrix_rejects_wrong_trace():
    with pytest.raises(ValueError):
        qm.DensityMatrix(np.diag([0.9, 0.3]))


def test_matrix_log_exp_roundtrip():
    h = _random_hermitian(5, 7)
    w = qm.matrix_exp(h)
    np.testing.assert_allclose(qm.matrix_log(w), h, atol=1e-10)


def test_matrix_power_composes():
    w = qm.matrix_exp(_random_hermitian(4, 3))
    half = qm.matrix_power(w, 0.5)
    np.testing.assert_allclose(half @ half, w, atol=1e-10)


def test_fractional_power_inverse():
    w = qm.matrix_exp(_random_hermitian(3, 11))
    np.testing.assert_allclose(qm.matrix_power(w, -1.0) @ w, np.eye(3),
                               atol=1e-10)


def test_integer_power_keeps_negative_eigenvalues():
    np.testing.assert_array_equal(qm.matrix_power(np.diag([-1.0, 1.0]), 2),
                                  np.eye(2))
    np.testing.assert_array_equal(qm.matrix_power(np.diag([-2.0, 1.0]), 3),
                                  np.diag([-8.0, 1.0]))


def test_as_matrix_checks_shape_dim_and_entries():
    state = qm.DensityMatrix(W0)
    assert qm.as_matrix(state, 2) is state.matrix
    assert qm.as_matrix([[1, 2], [3, 4]]).dtype == complex
    for bad, dim in ((np.ones((2, 3)), None), (np.ones(4), None),
                     (np.eye(3), 2), (np.diag([1.0, np.inf]), None)):
        with pytest.raises(ValueError):
            qm.as_matrix(bad, dim)


@pytest.mark.parametrize("t", [0.3, 1.0, -2.2])
def test_propagator_unitary(t):
    system = random_system(5, seed=2)
    u = system.propagator(t)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(5), atol=1e-12)


def test_propagator_group_law():
    system = random_system(4, seed=9)
    lhs = system.propagator(0.7) @ system.propagator(1.1)
    np.testing.assert_allclose(lhs, system.propagator(1.8), atol=1e-12)


def test_heisenberg_flip_exchanges_diagonal():
    moved = qm.heisenberg_evolve(FLIP, W0, math.pi / 2)
    np.testing.assert_allclose(moved.matrix, np.diag([0.25, 0.75]),
                               atol=1e-14)


def test_heisenberg_schrodinger_duality():
    system = random_system(4, seed=5)
    a = _random_hermitian(4, 6)
    rho = system.reference_state.matrix
    t = 1.3
    lhs = np.trace(rho @ qm.heisenberg_evolve(system, a, t).matrix)
    rhs = np.trace(qm.schrodinger_evolve(system, rho, t).matrix @ a)
    assert lhs.real == pytest.approx(rhs.real, abs=1e-12)


def test_relative_entropy_frozen_value():
    got = qm.q_relative_entropy(np.diag([0.25, 0.75]), W0)
    assert got == pytest.approx(-0.5 * math.log(3), abs=1e-14)


def test_relative_entropy_zero_iff_equal():
    w = qm.matrix_exp(_random_hermitian(3, 1))
    w = w / np.trace(w).real
    assert qm.q_relative_entropy(w, w) == pytest.approx(0.0, abs=1e-12)
    other = np.diag([0.7, 0.2, 0.1])
    assert qm.q_relative_entropy(w, other) < 0


def test_renyi_entropy_frozen_value():
    got = qm.q_renyi_entropy(np.eye(2) / 2, W0, 0.5)
    want = math.log(math.sqrt(3 / 8) + math.sqrt(1 / 8))
    assert got == pytest.approx(want, abs=1e-14)


def test_renyi_interpolates_relative_entropy_slope():
    """d/dα S_α at α=1 recovers -S(ρ,ν) by finite differences."""
    rho = np.diag([0.6, 0.3, 0.1])
    nu = np.diag([0.2, 0.5, 0.3])
    h = 1e-5
    slope = (qm.q_renyi_entropy(rho, nu, 1.0 + h)
             - qm.q_renyi_entropy(rho, nu, 1.0 - h)) / (2 * h)
    assert slope == pytest.approx(-qm.q_relative_entropy(rho, nu), abs=1e-8)


def test_entropy_observable_matches_minus_log():
    s = qm.entropy_observable(FLIP)
    np.testing.assert_allclose(s.matrix, -np.diag(np.log([0.75, 0.25])),
                               atol=1e-14)


def test_entropy_production_observable_flip_qubit():
    sigma = qm.entropy_production_observable(FLIP)
    np.testing.assert_allclose(sigma.matrix, -math.log(3) * SY, atol=1e-13)


def test_entropy_production_traceless_and_centered():
    system = random_system(6, seed=13)
    sigma = qm.entropy_production_observable(system).matrix
    assert abs(np.trace(sigma)) < 1e-12
    assert abs(np.trace(system.reference_state.matrix @ sigma)) < 1e-12


def test_mean_ep_observable_flip_qubit():
    sigma_bar = qm.mean_ep_observable(FLIP, math.pi / 2)
    want = (2 / math.pi) * np.diag([math.log(3), -math.log(3)])
    np.testing.assert_allclose(sigma_bar.matrix, want, atol=1e-12)


def test_mean_ep_expectation_flip_qubit():
    got = qm.mean_ep_expectation(FLIP, math.pi / 2)
    assert got == pytest.approx(math.log(3) / math.pi, abs=1e-12)


def test_mean_ep_matches_relative_entropy_route():
    system = random_system(5, seed=17)
    t = 0.8
    direct = qm.mean_ep_expectation(system, t)
    evolved = qm.schrodinger_evolve(system, system.reference_state.matrix, t)
    via_entropy = -qm.q_relative_entropy(evolved.matrix,
                                         system.reference_state.matrix) / t
    assert direct == pytest.approx(via_entropy, abs=1e-11)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=7),
       st.integers(min_value=0, max_value=10_000),
       st.floats(min_value=0.05, max_value=8.0))
def test_mean_ep_nonnegative(dim, seed, t):
    system = random_system(dim, seed=seed)
    assert qm.mean_ep_expectation(system, t) >= -1e-12


def test_commuting_pair_produces_no_entropy():
    h = np.diag([0.0, 1.0, 2.0])
    w = np.diag([0.5, 0.3, 0.2])
    system = qm.QuantumSystem(h, w)
    sigma = qm.entropy_production_observable(system).matrix
    assert np.abs(sigma).max() < 1e-14
    assert qm.mean_ep_expectation(system, 2.0) == pytest.approx(0.0,
                                                                abs=1e-13)


def test_simpson_quadrature_on_polynomial():
    got = qm.adaptive_simpson_matrix(lambda s: np.array([[s ** 3]]), 0.0, 2.0)
    np.testing.assert_allclose(got, [[4.0]], atol=1e-12)


def test_simpson_quadrature_on_oscillatory_integrand():
    got = qm.adaptive_simpson_matrix(
        lambda s: np.array([[math.cos(7 * s)]]), 0.0, 1.0)
    np.testing.assert_allclose(got, [[math.sin(7.0) / 7.0]], atol=1e-9)


def test_simpson_quadrature_raises_when_depth_runs_out():
    def jump(s):
        return np.array([[0.0 if s < 0.3 else 1.0]])
    with pytest.raises(NumericalDomainError,
                       match=r"on \[.*\]: error estimate .* above tolerance"):
        qm.adaptive_simpson_matrix(jump, 0.0, 1.0, max_depth=3)


def test_simpson_quadrature_raises_on_non_finite_integrand():
    with pytest.raises(NumericalDomainError, match="error estimate nan"):
        qm.adaptive_simpson_matrix(lambda s: np.array([[math.nan]]), 0.0, 1.0)


def test_tri_flag_rejects_complex_matrices():
    h = _random_hermitian(3, 23)
    w = qm.matrix_exp(_random_hermitian(3, 24))
    w = w / np.trace(w).real
    if np.abs(h.imag).max() > 1e-12:
        with pytest.raises(ValueError):
            qm.QuantumSystem(h, w, tri=True)


def test_tri_flag_autodetected_for_real_matrices():
    assert FLIP.tri is True
    system = random_system(4, seed=31)
    assert system.tri is False
