import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entroflux import classical as cl
from entroflux import fcs as fc
from entroflux import functionals as fn
from entroflux import quantum as qm
from entroflux.config import DEFAULT_PS
from entroflux.errors import NumericalDomainError
from entroflux.models import canonical_model, random_classical_system, random_system
from strategies import quantum_systems

SX = np.array([[0.0, 1.0], [1.0, 0.0]])
W0 = np.diag([0.75, 0.25])
FLIP = qm.QuantumSystem(SX, W0)

P_GRID = (1.0, 1.5, 2.0, 3.0, 4.0, 6.0, math.inf)


def flip_closed_form(alpha):
    """Deformed functional of the flip qubit at t = pi/2, any p."""
    return math.log(0.75 * 3.0 ** (-alpha) + 0.25 * 3.0 ** alpha)


@pytest.mark.parametrize("p", P_GRID)
@pytest.mark.parametrize("alpha", [-1.0, 0.25, 0.5, 1.3, 2.0])
def test_flip_qubit_closed_form(p, alpha):
    got = fn.functional(FLIP, p, alpha, math.pi / 2)
    assert got == pytest.approx(flip_closed_form(alpha), abs=1e-12)


@pytest.mark.parametrize("p", P_GRID)
def test_endpoints_vanish(p):
    system = random_system(5, tri=True, seed=41)
    for t in (0.5, 1.0):
        assert abs(fn.functional(system, p, 0.0, t)) < 1e-12
        assert abs(fn.functional(system, p, 1.0, t)) < 1e-12


@pytest.mark.parametrize("p", P_GRID)
def test_symmetry_on_tri_system(p):
    system = random_system(6, tri=True, seed=42)
    for alpha in (-0.75, 0.2, 0.5, 1.6):
        lhs = fn.functional(system, p, alpha, 1.0)
        rhs = fn.functional(system, p, 1.0 - alpha, 1.0)
        assert lhs == pytest.approx(rhs, abs=1e-11)


def test_symmetry_fails_without_tri():
    system = random_system(5, tri=False, seed=43)
    gap = abs(fn.functional(system, 2.0, -0.5, 1.0)
              - fn.functional(system, 2.0, 1.5, 1.0))
    assert gap > 1e-8


def test_renyi_bridge_on_tri_system():
    system = random_system(6, tri=True, seed=44)
    for t in (0.5, 1.0):
        evolved = qm.schrodinger_evolve(system, system.reference_state,
                                        t)
        for alpha in (-0.3, 0.4, 1.2):
            via_renyi = qm.q_renyi_entropy(evolved,
                                           system.reference_state,
                                           alpha)
            got = fn.functional(system, 2.0, alpha, t)
            assert got == pytest.approx(via_renyi, abs=1e-11)


def test_bridge_uses_backward_state_without_tri():
    """For complex generators the p=2 curve matches the time-reversed state."""
    system = random_system(5, tri=False, seed=46)
    t, alpha = 1.0, 0.6
    backward = qm.schrodinger_evolve(system, system.reference_state,
                                     -t)
    via_renyi = qm.q_renyi_entropy(backward,
                                   system.reference_state, alpha)
    got = fn.functional(system, 2.0, alpha, t)
    assert got == pytest.approx(via_renyi, abs=1e-11)


def test_variational_route_matches_limit_functional():
    system = random_system(5, tri=True, seed=47)
    alphas = (0.3, 1.2)
    got = fn.variational_max(system, alphas, 1.0)
    assert np.array_equal(got, [fn.variational_max(system, a, 1.0)
                                for a in alphas])
    want = fn.functional(system, math.inf, alphas, 1.0)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)


def test_perturbed_state_beating_the_maximizer_raises(monkeypatch):
    monkeypatch.setattr(fn, "VARIATIONAL_SLACK", -1.0)
    system = random_system(4, tri=True, seed=47)
    for alpha in (0.3, np.array([0.3, 1.2])):
        with pytest.raises(NumericalDomainError, match="beats the maximizer"):
            fn.variational_max(system, alpha, 1.0)


def test_p_monotone_in_p():
    system = random_system(6, tri=True, seed=48)
    for alpha in (0.25, 0.5, 0.75):
        values = [fn.functional(system, p, alpha, 1.0) for p in P_GRID]
        diffs = np.diff(values)
        assert np.all(diffs <= 1e-10)


def test_p64_close_to_limit():
    system = random_system(6, tri=True, seed=49)
    for alpha in (0.25, 0.6):
        gap = abs(fn.functional(system, 64.0, alpha, 1.0)
                  - fn.functional(system, math.inf, alpha, 1.0))
        assert gap < 1e-3


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
def test_convexity_in_alpha(p):
    system = random_system(4, tri=True, seed=50)
    alphas = np.linspace(-1.0, 2.0, 31)
    vals = np.array([fn.functional(system, p, a, 1.0) for a in alphas])
    assert np.diff(vals, 2).min() >= -1e-9


@pytest.mark.parametrize("p", P_GRID)
def test_derivative_at_zero_matches_mean_ep(p):
    system = random_system(5, tri=True, seed=51)
    t, h = 1.0, 1e-4
    slope = (fn.functional(system, p, h, t)
             - fn.functional(system, p, -h, t)) / (2 * h)
    assert slope == pytest.approx(-t * qm.mean_ep_expectation(system, t),
                                  abs=1e-6)


def test_naive_functional_breaks_endpoint():
    system = random_system(4, tri=False, seed=52)
    assert abs(fn.naive_functional(system, 1.0, 1.0)) > 1e-8
    assert abs(fn.functional(system, 2.0, 1.0, 1.0)) < 1e-12


def test_naive_functional_overflow_names_alpha_and_t():
    # exp(-alpha t Sigma_t) leaves the double range for a reference spread of 12
    system = random_system(3, seed=2, spread=12)
    assert fn.naive_functional(system, 50, 1.0) == 380.88781512015936
    for alpha in (200, 1000, -1000):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalDomainError,
                               match=f"not finite .* at alpha={alpha}, t=1.0$"):
                fn.naive_functional(system, alpha, 1.0)


def test_naive_functional_collapses_for_commuting_pair():
    system = qm.QuantumSystem(np.diag([0.0, 1.0, 2.0]),
                              np.diag([0.5, 0.3, 0.2]))
    for alpha in (0.3, 1.0, 1.7):
        assert fn.naive_functional(system, alpha, 1.0) == pytest.approx(
            fn.functional(system, 2.0, alpha, 1.0), abs=1e-13)


def test_am_norm_frozen_example():
    got = fn.araki_masuda_norm(np.diag([2.0, 0.0]), FLIP, 2.0)
    assert got == pytest.approx(math.sqrt(3), abs=1e-14)


@pytest.mark.parametrize("p", [1.0, 2.0, 7.0])
def test_am_norm_of_identity(p):
    system = random_system(4, seed=53)
    assert fn.araki_masuda_norm(np.eye(4), system, p) == pytest.approx(
        1.0, abs=1e-13)


def test_am_norm_scales_homogeneously():
    system = random_system(3, seed=54)
    a = np.array([[1.0, 0.2], [0.1, -0.4]])
    a = np.pad(a, ((0, 1), (0, 1)))
    base = fn.araki_masuda_norm(a, system, 3.0)
    assert fn.araki_masuda_norm(2.5 * a, system, 3.0) == pytest.approx(
        2.5 * base, abs=1e-12)


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_am_norm_of_zero_is_exactly_zero(p):
    system = random_system(3, seed=54)
    assert fn.araki_masuda_norm(np.zeros((3, 3)), system, p) == 0.0


def test_transfer_functional_matches_on_tri_system():
    # the second reference spectrum spans 1e10, where a route that forms
    # w0^(-alpha/p) w0^(1/p) loses about 6e-7 to cancellation
    rng = np.random.default_rng(5)
    basis, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    nu = np.geomspace(1.0, 1e-10, 4)
    h = rng.normal(size=(4, 4))
    wide = qm.QuantumSystem(h + h.T, (basis * (nu / nu.sum())) @ basis.T)
    for system in (random_system(5, tri=True, seed=55), wide):
        for p in (1.0, 2.0, 4.0):
            for alpha in (-0.5, 0.3, 1.5):
                got = fn.transfer_functional(system, p, alpha, 1.0)
                want = fn.functional(system, p, alpha, 1.0)
                assert got == pytest.approx(want, abs=1e-10)


def test_transfer_functional_reflects_alpha_without_tri():
    system = random_system(4, tri=False, seed=56)
    got = fn.transfer_functional(system, 2.0, 0.3, 1.0)
    want = fn.functional(system, 2.0, 0.7, 1.0)
    assert got == pytest.approx(want, abs=1e-10)


def test_transfer_apply_group_law():
    system = random_system(4, tri=True, seed=57)
    a = np.eye(4)
    p = 3.0
    two_step = fn.transfer_apply(system, p,
                                 fn.transfer_apply(system, p, a, 0.4), 0.6)
    one_step = fn.transfer_apply(system, p, a, 1.0)
    np.testing.assert_allclose(two_step, one_step, atol=1e-11)


def test_transfer_apply_intertwines_evolution():
    system = random_system(4, seed=58)
    rng = np.random.default_rng(59)
    a = rng.normal(size=(4, 4))
    b = rng.normal(size=(4, 4))
    t, p = 0.9, 2.0
    lhs = fn.transfer_apply(system, p, a @ fn.transfer_apply(system, p, b, t), -t)
    moved = system.propagator(-t) @ a @ system.propagator(t)
    np.testing.assert_allclose(lhs, moved @ b, atol=1e-11)


def test_rejects_p_below_one():
    with pytest.raises(ValueError):
        fn.functional(FLIP, 0.5, 0.3, 1.0)


@pytest.mark.parametrize("call,match", [
    (lambda: fn.araki_masuda_norm(np.eye(2), FLIP, math.inf),
     "1 <= p < oo, got inf"),
    (lambda: fn.transfer_functional(FLIP, 2.0, 0.0, 1.0),
     "alpha = 0 leaves the transferred identity undefined"),
], ids=["am-norm-p-inf", "transfer-alpha-0"])
def test_rejects_arguments_outside_the_definition(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_overflowing_powers_raise_domain_error():
    # nu^(-49) leaves the double range for a reference spread of 12
    system = random_system(4, tri=True, seed=1, spread=12.0)
    with pytest.raises(NumericalDomainError,
                       match=r"p=1\.0, alpha=50\.0, t=1\.0"):
        fn.functional(system, 1.0, 50.0, 1.0)
    with pytest.raises(NumericalDomainError,
                       match=r"p=1\.0, alpha=50\.0, t=1\.0"):
        fn.functional(system, 1.0, np.array([0.5, 50.0]), 1.0)


def test_overflowing_transfer_raises_domain_error():
    # w0^(50) w_t^(-50) and e^12-sized powers of 1e300 leave the double range
    system = random_system(4, tri=True, seed=1, spread=12.0)
    with pytest.raises(NumericalDomainError,
                       match=r"p=1\.0, alpha=-50\.0, t=1\.0"):
        fn.transfer_functional(system, 1.0, -50.0, 1.0)
    with pytest.raises(NumericalDomainError, match=r"p=1\.0, t=1\.0"):
        fn.transfer_apply(system, 1.0, np.full((4, 4), 1e300), 1.0)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=8),
       st.integers(min_value=0, max_value=10_000))
def test_kawasaki_endpoint_property(dim, seed):
    system = random_system(dim, tri=bool(seed % 2), seed=seed)
    assert abs(fn.functional(system, 2.0, 1.0, 1.0)) < 1e-11
    assert abs(fn.functional(system, math.inf, 1.0, 1.0)) < 1e-11


@settings(max_examples=60, deadline=None)
@given(quantum_systems(), st.floats(min_value=-1.0, max_value=2.0),
       st.floats(min_value=0.1, max_value=20.0),
       st.one_of(st.sampled_from([2.0, 4.0, 6.0]),
                 st.floats(min_value=2.0, max_value=1e4)))
def test_schatten_kernel_matches_svd_property(system, alpha, t, p):
    # log sum_i s_i^p moves by about p * eps under a relative rounding of y,
    # in either route, so the kernels are compared as log ||y||_p = value / p
    y = fn._weighted_overlap(system.reference_eig().eigenvalues,
                             system.overlap(t), alpha, p)
    assert fn._log_schatten(y, p) / p == pytest.approx(
        fn._log_schatten_svd(y, p) / p, rel=1e-12, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(quantum_systems(),
       st.floats(min_value=-2.0, max_value=3.0).filter(lambda a: a != 0.0),
       st.floats(min_value=1.0, max_value=4.0),
       st.floats(min_value=0.1, max_value=20.0))
def test_transfer_functional_matches_am_norm_route_property(system, alpha,
                                                            stretch, t):
    # the norm route multiplies w0^(-alpha/p) by w0^(1/p) and so loses about
    # eps (nu_max/nu_min)^(|alpha|/p) to cancellation; p keeps that below e^6
    nu = system.reference_eig().eigenvalues
    p = stretch * max(1.0, abs(alpha) * math.log(nu[-1] / nu[0]) / 6.0)
    transferred = (qm.matrix_power(system.heisenberg_reference_eig(-t), alpha / p)
                   @ qm.matrix_power(system.reference_eig(), -alpha / p))
    want = p * math.log(fn.araki_masuda_norm(transferred, system, p))
    got = fn.transfer_functional(system, p, alpha, t)
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


@settings(max_examples=40, deadline=None)
@given(quantum_systems(), st.floats(min_value=-1.0, max_value=2.0),
       st.floats(min_value=0.1, max_value=20.0),
       st.lists(st.floats(min_value=64.0, max_value=1e4, exclude_min=True),
                min_size=1, max_size=4))
def test_functional_decreases_in_p_beyond_64_property(system, alpha, t, ps):
    values = [fn.functional(system, p, alpha, t) for p in sorted(ps)]
    values.append(fn.functional(system, math.inf, alpha, t))
    assert np.diff(values).max(initial=0.0) <= 1e-10


@settings(max_examples=60, deadline=None)
@given(quantum_systems(), st.floats(min_value=-1.0, max_value=2.0),
       st.floats(min_value=0.1, max_value=20.0),
       st.floats(min_value=math.log(64.0), max_value=math.log(1e300)))
def test_functional_far_above_64_stays_near_its_limit_or_raises_property(
        system, alpha, t, log_p):
    # each rounding of log s_i is multiplied by p; above the bound on p the
    # Schatten kernels raise rather than return a value below e_inf
    p = math.exp(log_p)
    e_64 = fn.functional(system, 64.0, alpha, t)
    e_inf = fn.functional(system, math.inf, alpha, t)
    try:
        e_p = fn.functional(system, p, alpha, t)
    except NumericalDomainError as exc:
        assert p * system.dim * sys.float_info.epsilon > fn.SCHATTEN_ROUNDING
        assert str(exc).startswith(f"p={p} is above the bound ")
        return
    assert e_inf - 1e-10 <= e_p <= e_64 + 1e-10


LARGE_P_CALLS = {
    "functional": lambda s, p: fn.functional(s, p, 0.5, 1.0),
    "transfer_functional": lambda s, p: fn.transfer_functional(s, p, 0.5, 1.0),
    "araki_masuda_norm": lambda s, p: fn.araki_masuda_norm(np.eye(8), s, p),
}


@pytest.mark.parametrize("call", sorted(LARGE_P_CALLS))
@pytest.mark.parametrize("p", [1.0e12, 1.0e300])
def test_large_finite_p_names_p_and_the_bound(p, call):
    system = random_system(8, tri=True, seed=3, spread=4.0)
    bound = re.escape(f"p={p} is above the bound 16888.5 of n=8 ")
    with pytest.raises(NumericalDomainError, match="^" + bound):
        LARGE_P_CALLS[call](system, p)


# every e(alpha) route on a quantum system q and a chain c: the call, then the
# text its error names before and after the alpha (p where the route has one)
OVERFLOW_ROUTES = {
    **{f"functional-p{p}": ((lambda q, c, a, p=p: fn.functional(q, p, a, 1.0)),
                            f"p={p}, ", ", t=1.0") for p in DEFAULT_PS},
    "transfer_functional": (lambda q, c, a: fn.transfer_functional(q, 2.0, a, 1.0),
                            "p=2.0, ", ", t=1.0"),
    "naive_functional": (lambda q, c, a: fn.naive_functional(q, a, 1.0),
                         "", ", t=1.0"),
    "variational_max": (lambda q, c, a: fn.variational_max(q, a, 1.0),
                        "", ", t=1.0"),
    "q_renyi_entropy": (lambda q, c, a: qm.q_renyi_entropy(
        q.heisenberg_reference_eig(-1), q.reference_eig(), a), "", ""),
    "fcs_cgf": (lambda q, c, a: fc.fcs_cgf(fc.fcs_distribution(q, 1.0), a, 1.0),
                "", ", t=1.0"),
    "classical_functional": (lambda q, c, a: cl.classical_functional(c, a, 2),
                             "", ", t=2"),
    "variational_functional": (lambda q, c, a: cl.variational_functional(c, a, 2),
                               "", ", t=2"),
    "renyi_identity_check": (lambda q, c, a: cl.renyi_identity_check(c, a, 2),
                             "", ", t=2"),
    "classical_transfer_functional": (
        lambda q, c, a: cl.classical_transfer_functional(c, 2.0, a, 2),
        "p=2.0, ", ", t=2"),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("alpha, named", [
    (1e308, "1e+308"), (-1e308, "-1e+308"), (np.array([0.5, 1e308]), "1e+308"),
], ids=["1e308", "-1e308", "grid"])
@pytest.mark.parametrize("route", list(OVERFLOW_ROUTES))
def test_every_route_outside_double_precision_names_its_alpha(route, alpha,
                                                               named):
    # alpha t overflows a double, and so do the powers of a spread-12 spectrum;
    # no route may warn, raise LinAlgError or return nan instead
    call, before, after = OVERFLOW_ROUTES[route]
    quantum = random_system(3, seed=2, spread=12)
    chain = random_classical_system(7, seed=3)
    with pytest.raises(NumericalDomainError, match=re.escape(
            f" is not finite in double precision at {before}alpha={named}{after}")
            + "$"):
        call(quantum, chain, alpha)


# dim 40 puts a few alphas in a stack, so this grid spans several stacks
STACKED_GRID = np.linspace(-1.0, 2.0, 61)


@pytest.mark.parametrize("p", [1.0, 3.0, 6.0, 64.0, math.inf])
def test_alpha_array_spanning_several_stacks_equals_scalar_calls(p):
    system = random_system(40, seed=61)
    assert fn._STACK_ENTRIES // 40 ** 2 < STACKED_GRID.size
    values = fn.functional(system, p, STACKED_GRID, 0.7)
    assert np.array_equal(values, [fn.functional(system, p, a, 0.7)
                                   for a in STACKED_GRID])


def test_overflow_in_a_later_stack_names_its_alpha():
    system = random_system(40, tri=True, seed=1, spread=12.0)
    grid = STACKED_GRID.copy()
    grid[45], grid[55] = 50.0, 60.0
    with pytest.raises(NumericalDomainError,
                       match=r"p=1\.0, alpha=50\.0, t=1\.0"):
        fn.functional(system, 1.0, grid, 1.0)


def test_failed_lapack_call_in_a_stack_names_its_alpha(monkeypatch):
    system = random_system(40, seed=62)
    nu = system.reference_eig().eigenvalues
    bad = fn._weighted_overlap(nu, system.overlap(1.0), STACKED_GRID[33], 1.0)
    bad /= np.abs(bad).max()
    svd = np.linalg.svd

    def failing_svd(y, **kwargs):
        # the kernel may rescale y, so matrices are compared up to a factor
        if any(np.allclose(m / np.abs(m).max(), bad)
               for m in y.reshape(-1, 40, 40)):
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(y, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", failing_svd)
    with pytest.raises(NumericalDomainError,
                       match=re.escape(f"alpha={STACKED_GRID[33]}, t=1.0")):
        fn.functional(system, 1.0, STACKED_GRID, 1.0)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 64.0])
def test_all_zero_matrix_in_a_stack_gives_minus_inf(p):
    system = random_system(5, seed=63)
    y = fn._weighted_overlap(system.reference_eig().eigenvalues,
                             system.overlap(1.0), np.array([0.2, 0.5, 1.4]), p)
    y[1] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        values = fn._log_schatten(y, p)
    assert values[1] == -math.inf
    assert np.array_equal(values[[0, 2]], [fn._log_schatten(y[0], p),
                                           fn._log_schatten(y[2], p)])


def test_canonical_model_functional_is_finite_and_convex():
    system = canonical_model()
    alphas = np.linspace(-1.0, 2.0, 25)
    vals = np.array([fn.functional(system, math.inf, a, 1.0)
                     for a in alphas])
    assert np.all(np.isfinite(vals))
    assert np.diff(vals, 2).min() >= -1e-9
