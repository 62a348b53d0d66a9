import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entroflux import classical as cl
from entroflux.measures import fluctuation_symmetry_residual
from entroflux.models import random_classical_system

REFERENCE = cl.ClassicalSystem([0.25, 0.5, 0.25])
LOPSIDED = cl.ClassicalSystem([0.7, 0.2, 0.1])

# e_1(1/2) for the reference chain: log(1/4 + sqrt(2)/2)
E_HALF = -0.043840314666364601


def test_observable_shift():
    f = cl.evolve_observable(REFERENCE, [1.0, 2.0, 3.0], 1)
    np.testing.assert_allclose(f.values, [2.0, 3.0, 1.0])


def test_state_shift_opposes_observable_shift():
    rho = cl.evolve_state(REFERENCE, [0.25, 0.5, 0.25], 1)
    np.testing.assert_allclose(rho.probabilities, [0.25, 0.25, 0.5])


def test_shift_period():
    f = [0.3, -1.0, 2.0]
    rolled = cl.evolve_observable(REFERENCE, f, 3)
    np.testing.assert_allclose(rolled.values, f)


@given(st.integers(min_value=0, max_value=12))
def test_evolution_duality(t):
    """Pairing of evolved observable with a state matches the dual shift."""
    f = np.array([0.2, -0.7, 1.3])
    rho = np.array([0.5, 0.3, 0.2])
    lhs = float(cl.evolve_observable(REFERENCE, f, t).values @ rho)
    rhs = float(f @ cl.evolve_state(REFERENCE, rho, t).probabilities)
    assert lhs == pytest.approx(rhs, abs=1e-14)


def test_entropy_observable_is_minus_log():
    s = cl.entropy_observable(REFERENCE)
    np.testing.assert_allclose(s.values, -np.log([0.25, 0.5, 0.25]))


def test_mean_ep_observable_reference_chain():
    sigma = cl.mean_ep_observable(REFERENCE, 1)
    np.testing.assert_allclose(sigma.values, [-math.log(2), math.log(2), 0.0],
                               atol=1e-15)


def test_mean_ep_mean_vanishes_only_at_full_period():
    vals = cl.mean_ep_observable(REFERENCE, 3).values
    np.testing.assert_allclose(vals, 0.0, atol=1e-15)


def test_relative_entropy_nonpositive_and_zero_on_diagonal():
    assert cl.relative_entropy([0.5, 0.5], [0.5, 0.5]) == pytest.approx(0.0)
    assert cl.relative_entropy([0.9, 0.1], [0.5, 0.5]) < 0


def test_renyi_entropy_frozen_value():
    got = cl.renyi_entropy([0.5, 0.5], [0.75, 0.25], 0.5)
    assert got == pytest.approx(math.log(math.sqrt(3 / 8) + math.sqrt(1 / 8)),
                                abs=1e-14)


def test_functional_frozen_value():
    assert cl.classical_functional(REFERENCE, 0.5, 1) == pytest.approx(
        E_HALF, abs=1e-14)


@pytest.mark.parametrize("t", [1, 2, 5])
def test_functional_endpoints(t):
    assert abs(cl.classical_functional(REFERENCE, 0.0, t)) < 1e-14
    assert abs(cl.classical_functional(REFERENCE, 1.0, t)) < 1e-14


@pytest.mark.parametrize("alpha", [-1.0, -0.3, 0.2, 0.5, 1.4, 2.0])
def test_functional_symmetry_for_palindromic_weights(alpha):
    lhs = cl.classical_functional(REFERENCE, alpha, 1)
    rhs = cl.classical_functional(REFERENCE, 1.0 - alpha, 1)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_symmetry_fails_without_palindromic_weights():
    lhs = cl.classical_functional(LOPSIDED, -0.5, 1)
    rhs = cl.classical_functional(LOPSIDED, 1.5, 1)
    assert abs(lhs - rhs) > 1e-6


def test_es_distribution_reference_chain():
    m = cl.es_distribution(REFERENCE, 1)
    np.testing.assert_allclose(m.atoms, [-math.log(2), 0.0, math.log(2)],
                               atol=1e-15)
    np.testing.assert_allclose(m.weights, [0.25, 0.25, 0.5])


def test_es_distribution_obeys_fluctuation_symmetry():
    m = cl.es_distribution(REFERENCE, 1)
    assert fluctuation_symmetry_residual(m, 1) < 1e-15


def test_es_distribution_mean_matches_mean_ep():
    m = cl.es_distribution(LOPSIDED, 2)
    sigma = cl.mean_ep_observable(LOPSIDED, 2)
    expected = float(sigma.values @ LOPSIDED.reference_state)
    assert m.mean() == pytest.approx(expected, abs=1e-14)


@pytest.mark.parametrize("alpha,t", [(0.3, 1), (0.5, 1), (1.2, 2), (-0.4, 3)])
def test_alternative_formulas_agree(alpha, t):
    direct = cl.classical_functional(REFERENCE, alpha, t)
    assert cl.renyi_identity_check(REFERENCE, alpha, t) == pytest.approx(
        direct, abs=1e-13)
    assert cl.variational_functional(REFERENCE, alpha, t) == pytest.approx(
        direct, abs=1e-12)


def test_transfer_functional_palindromic_case():
    for p in (1.0, 2.0, 4.0):
        got = cl.classical_transfer_functional(REFERENCE, p, 0.3, 1)
        want = cl.classical_functional(REFERENCE, 0.3, 1)
        assert got == pytest.approx(want, abs=1e-13)


def test_transfer_functional_reflects_alpha_in_general():
    got = cl.classical_transfer_functional(LOPSIDED, 2.0, 0.3, 1)
    want = cl.classical_functional(LOPSIDED, 0.7, 1)
    assert got == pytest.approx(want, abs=1e-13)


def test_lp_norm_of_unit_observable():
    for p in (1.0, 2.0, 7.5):
        assert cl.lp_norm(REFERENCE, np.ones(3), p) == pytest.approx(1.0)


def test_transfer_apply_preserves_norm_at_matching_index():
    f = np.array([0.4, 1.1, 0.2])
    for p in (1.0, 3.0):
        moved = cl.classical_transfer_apply(REFERENCE, p, f, 1)
        assert cl.lp_norm(REFERENCE, moved.values, p) == pytest.approx(
            cl.lp_norm(REFERENCE, f, p), abs=1e-13)


def test_index_checks_reject_nan_and_below_one():
    f = np.ones(3)
    for p in (0.5, math.nan):
        with pytest.raises(ValueError):
            cl.lp_norm(REFERENCE, f, p)
        with pytest.raises(ValueError):
            cl.classical_transfer_apply(REFERENCE, p, f, 1)
        with pytest.raises(ValueError):
            cl.classical_transfer_functional(REFERENCE, p, 0.5, 1)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=3, max_value=41), st.integers(min_value=0,
                                                           max_value=9999))
def test_random_palindromic_systems_satisfy_symmetry(size, seed):
    system = random_classical_system(size, seed=seed, tri=True)
    assert system.is_tri
    for alpha in (-0.5, 0.25, 1.5):
        lhs = cl.classical_functional(system, alpha, 1)
        rhs = cl.classical_functional(system, 1.0 - alpha, 1)
        assert lhs == pytest.approx(rhs, abs=1e-11)


def test_rejects_invalid_weights():
    with pytest.raises(ValueError):
        cl.ClassicalSystem([0.5, 0.5, 0.1])
    with pytest.raises(ValueError):
        cl.ClassicalSystem([1.0, 0.0])


def test_rejects_non_integer_time():
    with pytest.raises(ValueError):
        cl.classical_functional(REFERENCE, 0.5, 1.5)
