import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entroflux import classical as cl
from entroflux.errors import NumericalDomainError
from entroflux.fcs import fcs_cgf
from entroflux.measures import fluctuation_symmetry_residual, logsumexp
from entroflux.models import random_classical_system

REFERENCE = cl.ClassicalSystem([0.25, 0.5, 0.25])
LOPSIDED = cl.ClassicalSystem([0.7, 0.2, 0.1])

# every classical e_t(alpha) route, called as route(system, alpha, t)
ALPHA_ROUTES = (
    cl.classical_functional,
    cl.variational_functional,
    cl.renyi_identity_check,
    lambda system, alpha, t: cl.classical_transfer_functional(system, 2.0,
                                                              alpha, t),
)

# e_1(1/2) for the reference chain: log(1/4 + sqrt(2)/2)
E_HALF = -0.043840314666364601


def test_observable_shift():
    f = cl.evolve_observable(REFERENCE, [1.0, 2.0, 3.0], 1)
    np.testing.assert_allclose(f, [2.0, 3.0, 1.0])


def test_state_shift_opposes_observable_shift():
    rho = cl.evolve_state(REFERENCE, [0.25, 0.5, 0.25], 1)
    np.testing.assert_allclose(rho, [0.25, 0.25, 0.5])


def test_shift_period():
    f = [0.3, -1.0, 2.0]
    rolled = cl.evolve_observable(REFERENCE, f, 3)
    np.testing.assert_allclose(rolled, f)


@given(st.integers(min_value=0, max_value=12))
def test_evolution_duality(t):
    """Pairing of evolved observable with a state matches the dual shift."""
    f = np.array([0.2, -0.7, 1.3])
    rho = np.array([0.5, 0.3, 0.2])
    lhs = float(cl.evolve_observable(REFERENCE, f, t) @ rho)
    rhs = float(f @ cl.evolve_state(REFERENCE, rho, t))
    assert lhs == pytest.approx(rhs, abs=1e-14)


def test_entropy_observable_is_minus_log():
    s = cl.entropy_observable(REFERENCE)
    np.testing.assert_allclose(s, -np.log([0.25, 0.5, 0.25]))


def test_mean_ep_observable_reference_chain():
    sigma = cl.mean_ep_observable(REFERENCE, 1)
    np.testing.assert_allclose(sigma, [-math.log(2), math.log(2), 0.0],
                               atol=1e-15)


def test_mean_ep_mean_vanishes_only_at_full_period():
    vals = cl.mean_ep_observable(REFERENCE, 3)
    np.testing.assert_allclose(vals, 0.0, atol=1e-15)


def test_renyi_identity_frozen_value():
    # the chain (3/4, 1/4) moved by one step is (1/4, 3/4)
    got = cl.renyi_identity_check(cl.ClassicalSystem([0.75, 0.25]), 0.5, 1)
    assert got == pytest.approx(math.log(math.sqrt(3) / 2), abs=1e-14)


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
    expected = float(sigma @ LOPSIDED.reference_state)
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


def test_index_checks_reject_nan_and_below_one():
    for p in (0.5, math.nan):
        with pytest.raises(ValueError):
            cl.classical_transfer_functional(REFERENCE, p, 0.5, 1)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=3, max_value=41), st.integers(min_value=0,
                                                           max_value=9999))
def test_random_palindromic_systems_satisfy_symmetry(size, seed):
    system = random_classical_system(size, seed=seed, tri=True)
    assert system.tri
    for alpha in (-0.5, 0.25, 1.5):
        lhs = cl.classical_functional(system, alpha, 1)
        rhs = cl.classical_functional(system, 1.0 - alpha, 1)
        assert lhs == pytest.approx(rhs, abs=1e-11)


# each is symmetric under a reflection j -> c - j other than c = N
REFLECTED = ([0.3, 0.7], [0.5, 0.25, 0.25], [0.125, 0.25, 0.375, 0.25])


@pytest.mark.parametrize("weights", REFLECTED)
def test_tri_holds_under_every_reflection(weights):
    system = cl.ClassicalSystem(weights)
    assert system.tri
    for t in (1, 2, 3):
        for alpha in (-0.5, 0.25, 1.5):
            assert cl.classical_functional(system, alpha, t) == pytest.approx(
                cl.classical_functional(system, 1.0 - alpha, t), abs=1e-14)
        assert fluctuation_symmetry_residual(
            cl.es_distribution(system, t), t) < 1e-14


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=3, max_value=40),
       st.integers(min_value=0, max_value=9999),
       st.integers(min_value=0, max_value=39))
def test_tri_is_invariant_under_rotation(size, seed, shift):
    # every 2-point chain is TRI, so sizes start at 3
    weights = random_classical_system(size, seed=seed, tri=seed % 2 == 0) \
        .reference_state
    assert cl.ClassicalSystem(np.roll(weights, shift)).tri == \
        cl.ClassicalSystem(weights).tri == (seed % 2 == 0)


def test_tri_needs_every_weight_to_match():
    assert not LOPSIDED.tri
    assert not cl.ClassicalSystem([0.25, 0.25, 0.2, 0.3]).tri
    assert not cl.ClassicalSystem([0.2, 0.3, 0.3, 0.2 - 4e-12, 4e-12]).tri
    assert cl.ClassicalSystem([0.2, 0.3, 0.3 + 5e-13, 0.2 - 5e-13]).tri


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=60),
       st.integers(min_value=0, max_value=9999),
       st.integers(min_value=1, max_value=70),
       st.lists(st.floats(min_value=-5.0, max_value=5.0), min_size=1,
                max_size=12))
def test_functional_over_an_alpha_array_equals_scalar_calls(size, seed, t,
                                                           alphas):
    system = random_classical_system(size, seed=seed)
    for route in ALPHA_ROUTES:
        values = route(system, np.array(alphas), t)
        assert np.array_equal(values, [route(system, a, t) for a in alphas])
        assert type(route(system, alphas[0], t)) is float


def _one_expression_forms(system, alpha, t):
    """Each route's exponents written as one expression, handed to the
    copying ``logsumexp``: the values every route must keep bit for bit."""
    logw = np.log(system.reference_state)
    sig = cl.mean_ep_observable(system, t)
    a = np.asarray(alpha)[..., None]
    scale = (np.asarray(alpha) * t)[..., None]
    exponents = (logw - scale * sig)[..., None, :]
    maximizer = np.exp(exponents - logsumexp(exponents)[..., None])
    jitter = np.random.default_rng(cl._PERTURBATION_SEED).dirichlet(
        np.ones(system.size), size=cl._PERTURBATION_TRIALS)
    perturbed = 0.8 * maximizer + 0.2 * jitter
    states = np.concatenate(
        [maximizer, perturbed / perturbed.sum(axis=-1, keepdims=True)], axis=-2)
    values = (np.sum(states * (logw - np.log(states)), axis=-1)
              - scale * np.sum(states * sig, axis=-1))[..., 0]
    measure = cl.es_distribution(system, t)
    return {
        cl.classical_functional: logsumexp(logw - scale * sig),
        cl.variational_functional: values if values.ndim else float(values),
        cl.renyi_identity_check:
            logsumexp((1.0 - a) * np.roll(logw, t) + a * logw),
        ALPHA_ROUTES[3]: logsumexp(a * (-logw - np.roll(-logw, t)) + logw),
        "fcs_cgf": logsumexp(np.log(measure.weights)
                             - (t * np.asarray(alpha))[..., None]
                             * measure.atoms),
    }


@pytest.mark.parametrize("size, t", [(2000, 64), (1200, 1), (3, 5)])
def test_routes_keep_the_bits_of_their_one_expression_forms(size, t):
    system = random_classical_system(size, seed=size)
    measure = cl.es_distribution(system, t)
    alphas = np.linspace(-1.5, 2.5, 33)
    routes = dict(zip(ALPHA_ROUTES, ALPHA_ROUTES))
    routes["fcs_cgf"] = lambda _, alpha, t: fcs_cgf(measure, alpha, t)
    for alpha in (alphas, alphas[:1], 0.3):
        want = _one_expression_forms(system, alpha, t)
        for key, route in routes.items():
            got = route(system, alpha, t)
            assert type(got) is type(want[key])
            assert np.asarray(got).tobytes() == np.asarray(want[key]).tobytes()
    for route in routes.values():
        assert np.array_equal(route(system, alphas, t),
                              [route(system, a, t) for a in alphas])


def test_perturbed_state_beating_the_maximizer_raises(monkeypatch):
    monkeypatch.setattr(cl, "VARIATIONAL_SLACK", -1.0)
    for alpha in (0.3, np.array([0.3, 1.2])):
        with pytest.raises(NumericalDomainError, match="beats the maximizer"):
            cl.variational_functional(LOPSIDED, alpha, 1)


def test_variational_route_with_an_underflowing_maximizer_is_finite():
    # at alpha t = 1000 a weight of rho* underflows to 0, and 0 log 0 = 0
    system = random_classical_system(7, seed=3)
    alphas = np.array([0.5, 1000.0, -1000.0, 1e4])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = cl.variational_functional(system, alphas, 1)
        assert cl.variational_functional(system, 1000.0, 1) == \
            1142.7984195351519
    assert np.array_equal(values, cl.classical_functional(system, alphas, 1))
    assert values[1:].tolist() == [1142.7984195351519, 1679.6397146116135,
                                   11450.43042749322]


def test_variational_route_with_an_overflowing_alpha_t_names_alpha_and_t():
    # alpha t = 2e308 is not a double: the maximizer's objective is nan
    system = random_classical_system(7, seed=3)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalDomainError,
                           match=r"not finite .* at alpha=1e\+308, t=2$"):
            cl.variational_functional(system, np.array([0.5, 1e308]), 2)


@pytest.mark.parametrize("size", [3, 2000])
def test_perturbing_states_are_one_read_only_seeded_draw(size):
    jitter = cl._jitter(size)
    fresh = np.random.default_rng(1021).dirichlet(np.ones(size), size=10)
    assert np.array_equal(jitter, fresh)
    assert cl._jitter(size) is jitter
    assert not jitter.flags.writeable


def test_rejects_invalid_weights():
    with pytest.raises(ValueError):
        cl.ClassicalSystem([0.5, 0.5, 0.1])
    with pytest.raises(ValueError):
        cl.ClassicalSystem([1.0, 0.0])


def test_derived_values_are_plain_arrays():
    for value in (cl.evolve_observable(REFERENCE, [1.0, 2.0, 3.0], 1),
                  cl.evolve_state(REFERENCE, [0.25, 0.5, 0.25], 1),
                  cl.entropy_observable(REFERENCE),
                  cl.mean_ep_observable(REFERENCE, 2)):
        assert type(value) is np.ndarray
        assert value.shape == (3,) and value.dtype == float


@pytest.mark.parametrize("values", [[1.0, math.nan, 2.0], [1.0, math.inf, 2.0],
                                    [], [1.0, 2.0], [1.0, 2.0, 3.0, 4.0]])
def test_evolve_observable_rejects_non_finite_or_wrongly_sized(values):
    with pytest.raises(ValueError):
        cl.evolve_observable(REFERENCE, values, 1)


@pytest.mark.parametrize("probs", [[0.25, math.nan, 0.75], [0.5, 0.5],
                                   [0.5, 0.5, 0.0], [0.2, 0.2, 0.2], []])
def test_evolve_state_rejects_invalid_or_wrongly_sized(probs):
    with pytest.raises(ValueError):
        cl.evolve_state(REFERENCE, probs, 1)


def test_rejects_non_integer_time():
    with pytest.raises(ValueError):
        cl.classical_functional(REFERENCE, 0.5, 1.5)
