
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entroflux import fcs
from entroflux import functionals as fn
from entroflux import models as md
from entroflux import quantum as qm

SX = np.array([[0.0, 1.0], [1.0, 0.0]])

# mean entropy production of the canonical junction at t=1
CANONICAL_MEAN_EP = 0.088596397279719075


def test_canonical_model_assembly():
    model = md.canonical_model()
    h_local = np.diag([0.0, 1.0])
    want_h = (np.kron(h_local, np.eye(2)) + np.kron(np.eye(2), h_local)
              + 0.25 * np.kron(SX, SX))
    np.testing.assert_allclose(model.hamiltonian, want_h,
                               atol=1e-14)
    assert model.beta_left == 1.0
    assert model.beta_right == 2.0


def test_canonical_reference_state_is_product_gibbs():
    model = md.canonical_model()
    h_local = np.diag([0.0, 1.0])
    left = np.diag(np.exp(-1.0 * np.diag(h_local)))
    right = np.diag(np.exp(-2.0 * np.diag(h_local)))
    want = np.kron(left / left.trace(), right / right.trace())
    np.testing.assert_allclose(model.reference_state, want,
                               atol=1e-14)


def test_canonical_mean_entropy_production():
    model = md.canonical_model()
    got = qm.mean_ep_expectation(model, 1.0)
    assert got == pytest.approx(CANONICAL_MEAN_EP, abs=1e-12)
    assert got > 1e-10


def test_flux_observables_are_hermitian_commutators():
    model = md.canonical_model()
    phi_left, phi_right = md.flux_observables(model)
    for phi in (phi_left, phi_right):
        np.testing.assert_allclose(phi, phi.conj().T, atol=1e-13)
    want_left = 1j * (model.left_embedded @ model.coupling
                      - model.coupling @ model.left_embedded)
    np.testing.assert_allclose(phi_left, want_left, atol=1e-14)


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("side", ["left", "right"])
def test_flux_balance(t, side):
    model = md.canonical_model()
    assert md.flux_balance_residual(model, t, side) < 1e-8


def test_flux_balance_keeps_only_its_time_in_the_memo():
    model = md.canonical_model()
    memo = model._memo
    model.hamiltonian_eig()
    before = set(memo)
    times = (0.5, 1.0, 2.0)
    for t in times:
        for side in ("left", "right"):
            md.flux_balance_residual(model, t, side)
    assert set(memo) - before <= {("u", -t) for t in times}


@pytest.mark.parametrize("t", [200.0, 2000.0])
@pytest.mark.parametrize("side", ["left", "right"])
def test_flux_balance_at_long_times_runs_no_quadrature(monkeypatch, t, side):
    def no_quadrature(*args, **kwargs):
        raise AssertionError("the flux integral is exact, not quadrature")

    monkeypatch.setattr(qm, "adaptive_simpson_matrix", no_quadrature)
    assert md.flux_balance_residual(md.canonical_model(), t, side) <= 1e-8


def test_sigma_decomposes_into_fluxes():
    model = md.canonical_model()
    sigma = md.entropy_production_decomposition(model)
    np.testing.assert_allclose(
        sigma, qm.entropy_production_observable(model),
        atol=1e-10)


def test_equal_temperatures_kill_entropy_production():
    h = np.diag([0.0, 1.0])
    v = 0.2 * np.kron(np.diag([1.0, -1.0]), np.diag([1.0, -1.0]))
    model = md.build_two_reservoir(h, h, 1.3, 1.3, v)
    sigma = qm.entropy_production_observable(model)
    assert np.abs(sigma).max() < 1e-12


def test_decoupled_model_is_stationary():
    h = np.diag([0.0, 1.0])
    model = md.build_two_reservoir(h, h, 1.0, 2.0, np.zeros((4, 4)))
    sigma = qm.entropy_production_observable(model)
    assert np.abs(sigma).max() < 1e-13


def test_asymmetric_factor_dimensions():
    model = md.build_two_reservoir(np.diag([0.0, 1.0, 2.0]),
                                   np.diag([0.0, 0.5]), 0.7, 1.9,
                                   0.1 * np.eye(6))
    assert model.dims == (3, 2)
    assert model.dim == 6
    assert model.reference_state.shape == (6, 6)


def test_build_rejects_nonpositive_beta():
    h = np.diag([0.0, 1.0])
    with pytest.raises(ValueError):
        md.build_two_reservoir(h, h, 0.0, 1.0, np.zeros((4, 4)))
    with pytest.raises(ValueError):
        md.build_two_reservoir(h, h, 1.0, -2.0, np.zeros((4, 4)))


def test_build_rejects_a_skewed_coupling():
    h = np.diag([0.0, 1.0])
    v = np.zeros((4, 4))
    v[0, 1] = 0.1
    with pytest.raises(ValueError, match="^coupling deviates from Hermitian "
                                         r"by 5\.000e-02 \(tolerance 1\.000e-12\)"):
        md.build_two_reservoir(h, h, 1.0, 2.0, v)


def test_build_rejects_mismatched_coupling():
    h = np.diag([0.0, 1.0])
    with pytest.raises(ValueError):
        md.build_two_reservoir(h, h, 1.0, 2.0, np.zeros((3, 3)))


def test_canonical_model_is_tri():
    assert md.canonical_model().tri is True


def _complex_junction() -> md.ReservoirModel:
    rng = np.random.default_rng(8)
    raw = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    return md.build_two_reservoir(np.diag([0.0, 0.7, 1.5]), np.diag([0.0, 1.1]),
                                  0.6, 1.8, 0.2 * (raw + raw.conj().T))


@pytest.mark.parametrize("build", [md.canonical_model, _complex_junction])
def test_reservoir_model_is_its_composite_system(build):
    model = build()
    plain = qm.QuantumSystem(model.hamiltonian, model.reference_state)
    assert isinstance(model, qm.QuantumSystem)
    assert model.tri == plain.tri
    alphas = np.linspace(-1.0, 2.0, 13)
    for p in (1.0, 2.0, 4.0, math.inf):
        assert np.array_equal(fn.functional(model, p, alphas, 1.0),
                              fn.functional(plain, p, alphas, 1.0))
    for t in (0.5, 1.0):
        ours, theirs = fcs.fcs_distribution(model, t), fcs.fcs_distribution(plain, t)
        assert np.array_equal(ours.atoms, theirs.atoms)
        assert np.array_equal(ours.weights, theirs.weights)


def test_random_system_normalization():
    system = md.random_system(6, seed=90)
    h = system.hamiltonian
    w = system.reference_state
    assert np.linalg.norm(h, 2) == pytest.approx(1.0, abs=1e-12)
    assert np.trace(w).real == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.eigvalsh(w).min() > 0


def test_random_system_does_not_commute_with_state():
    for seed in range(20):
        system = md.random_system(4, seed=seed)
        h = system.hamiltonian
        w = system.reference_state
        assert np.abs(h @ w - w @ h).max() > 1e-6


def test_random_system_tri_flag_draws_real_matrices():
    system = md.random_system(5, tri=True, seed=91)
    assert system.tri is True
    assert np.abs(system.hamiltonian.imag).max() == 0.0


def test_random_system_seed_reproducible():
    a = md.random_system(4, seed=92)
    b = md.random_system(4, seed=92)
    np.testing.assert_array_equal(a.hamiltonian,
                                  b.hamiltonian)
    np.testing.assert_array_equal(a.reference_state,
                                  b.reference_state)


def test_random_system_spread_controls_state_range():
    narrow = md.random_system(6, seed=93, spread=0.1)
    wide = md.random_system(6, seed=93, spread=3.0)
    ratio = lambda s: (np.linalg.eigvalsh(s.reference_state).max()
                       / np.linalg.eigvalsh(s.reference_state).min())
    assert ratio(wide) > ratio(narrow)


def test_random_classical_system_properties():
    system = md.random_classical_system(9, seed=94, tri=True)
    w = system.reference_state
    assert w.min() > 0
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    assert system.tri


def test_random_classical_system_asymmetric_by_default():
    system = md.random_classical_system(8, seed=95)
    assert not system.tri


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=2, max_value=5),
       st.integers(min_value=0, max_value=5000))
def test_random_reservoirs_satisfy_flux_decomposition(dim, seed):
    rng = np.random.default_rng(seed)
    h_l = np.diag(rng.uniform(0.0, 1.0, size=dim))
    h_r = np.diag(rng.uniform(0.0, 1.0, size=2))
    v = rng.normal(size=(2 * dim, 2 * dim), scale=0.2)
    v = (v + v.T) / 2
    model = md.build_two_reservoir(h_l, h_r, 1.0, 2.0, v)
    sigma = md.entropy_production_decomposition(model)
    np.testing.assert_allclose(
        sigma, qm.entropy_production_observable(model),
        atol=1e-10)
