import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entroflux import quantum as qm
from entroflux import verify as vf
from entroflux.config import SystemEntry, parse_matrix
from entroflux.errors import ConfigValidationError, NumericalDomainError
from entroflux.models import build_two_reservoir, random_system
from strategies import quantum_systems

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
        qm.density_matrix(np.diag([1.0, 0.0]))
    with pytest.raises(NumericalDomainError):
        qm.density_matrix(np.diag([1.5, -0.5]))


def test_density_matrix_rejects_wrong_trace():
    with pytest.raises(ValueError):
        qm.density_matrix(np.diag([0.9, 0.3]))


def test_density_matrix_rejects_malformed_matrices():
    with pytest.raises(ValueError, match="square"):
        qm.density_matrix(np.full((2, 3), 1.0 / 3.0))
    for entry in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            qm.density_matrix(np.diag([0.5, entry]))


def test_density_matrix_returns_hermitian_part_and_spectrum():
    raw = np.array([[0.75, 0.1 + 0.2j], [0.1 - 0.2j, 0.25]])
    mat, spectrum = qm.density_matrix(raw)
    assert type(mat) is np.ndarray and mat.dtype == complex
    assert np.array_equal(mat, mat.conj().T)
    assert np.array_equal(spectrum, np.linalg.eigvalsh(mat))
    assert spectrum[0] < spectrum[1]


def test_system_rejects_non_hermitian_input():
    h = _random_hermitian(3, 41)
    h[0, 1] += 0.25
    w = qm.matrix_exp(_random_hermitian(3, 42))
    w = w / np.trace(w).real
    with pytest.raises(ValueError, match="^Hamiltonian deviates from "
                                         "Hermitian by 1.250e-01"):
        qm.QuantumSystem(h, w)
    skewed = w.copy()
    skewed[2, 0] += 1e-3
    with pytest.raises(ValueError, match="^density matrix deviates from "
                                         "Hermitian by 5.000e-04"):
        qm.QuantumSystem(np.diag([0.0, 1.0, 2.0]), skewed.real)
    with pytest.raises(ValueError, match="^density matrix deviates"):
        qm.density_matrix(skewed)


def test_system_symmetrizes_rounding_silently():
    w = qm.matrix_exp(_random_hermitian(4, 44))
    w = w / np.trace(w).real
    h = _random_hermitian(4, 43)
    h[1, 3] += 1e-15
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        system = qm.QuantumSystem(h, w)
    assert np.array_equal(system.hamiltonian, system.hamiltonian.conj().T)


def test_stored_matrices_diagonalize_as_memoized():
    for system in (random_system(5, seed=4), FLIP):
        for stored, memo in ((system.hamiltonian, system.hamiltonian_eig()),
                             (system.reference_state, system.reference_eig())):
            fresh = qm.eig(stored)
            assert fresh.eigenvalues.tobytes() == memo.eigenvalues.tobytes()
            assert fresh.eigenvectors.tobytes() == memo.eigenvectors.tobytes()


def test_eig_applies_the_hermitian_deviation_rule():
    # max |A - A*| / 2 <= 1e-12 max(1, max |A_ij|), as config matrices
    for skew in (0.9e-12, 1.1e-12):
        mat = np.array([[0.0, 1.0 + 2 * skew], [1.0, 1.0]])
        deviation = np.abs(mat - mat.conj().T).max() / 2
        bound = qm.HERMITIAN_ATOL * max(1.0, np.abs(mat).max())
        assert (deviation < bound) == (skew < 1e-12)
        if skew < 1e-12:
            dec = qm.eig(mat)
            np.testing.assert_allclose(dec.reconstruct(), (mat + mat.T) / 2,
                                       atol=1e-14)
        else:
            with pytest.raises(ValueError,
                               match="deviates from Hermitian by 1.100e-12"):
                qm.eig(mat)


def _skewed(mat, k):
    """``mat`` with max |A - A*| / 2 at k times the Hermitian bound."""
    out = mat.copy()
    out[0, -1] += 2 * k * qm.HERMITIAN_ATOL * max(1.0, np.abs(mat).max())
    return out


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=3), st.integers(0, 2**32 - 1),
       st.floats(min_value=0.1, max_value=10.0), st.sampled_from([0.5, 2.0]))
def test_one_hermitian_rule_at_every_entry_point(dim, seed, scale, k):
    h = scale * _random_hermitian(dim, seed)
    w = qm.matrix_exp(_random_hermitian(dim, seed + 1))
    w = w / np.trace(w).real
    right = np.diag([0.0, 1.0])
    v = 0.25 * _random_hermitian(2 * dim, seed + 2)
    entries = {
        "parse_matrix": lambda: parse_matrix(
            [[[z.real, z.imag] for z in row] for row in _skewed(h, k)], "m"),
        "QuantumSystem H": lambda: qm.QuantumSystem(_skewed(h, k), w),
        "QuantumSystem state": lambda: qm.QuantumSystem(h, _skewed(w, k)),
        "density_matrix": lambda: qm.density_matrix(_skewed(w, k)),
        "eig": lambda: qm.eig(_skewed(h, k)),
        "left Hamiltonian": lambda: build_two_reservoir(
            _skewed(h, k), right, 0.1, 0.2, v),
        "right Hamiltonian": lambda: build_two_reservoir(
            right, _skewed(h, k), 0.1, 0.2, v),
        "coupling": lambda: build_two_reservoir(
            right, right, 0.1, 0.2, _skewed(v[:4, :4], k)),
    }
    if k > 1:
        for name, enter in entries.items():
            with pytest.raises(ValueError, match="deviates from Hermitian"):
                enter()
        return
    built = {name: enter() for name, enter in entries.items()}
    # a junction stores the Hermitian parts of its pieces, so its Hamiltonian
    # is their assembly exactly; the Gibbs half of the row is exact too when
    # the local Hamiltonians are diagonal
    assembly = next(row for row in vf.ROWS if row.name == "model_assembly")
    for name in ("left Hamiltonian", "right Hamiltonian", "coupling"):
        model = built[name]
        assert np.array_equal(model.hamiltonian, model.left_embedded
                              + model.right_embedded + model.coupling)
    assert assembly.residual(vf.Context("reservoir", built["coupling"])) == 0.0


def test_matrix_log_exp_roundtrip():
    h = _random_hermitian(5, 7)
    w = qm.matrix_exp(h)
    np.testing.assert_allclose(qm.matrix_log(qm.eig(w)), h, atol=1e-10)


def test_matrix_power_composes():
    w = qm.matrix_exp(_random_hermitian(4, 3))
    half = qm.matrix_power(qm.eig(w), 0.5)
    np.testing.assert_allclose(half @ half, w, atol=1e-10)


def test_fractional_power_inverse():
    w = qm.matrix_exp(_random_hermitian(3, 11))
    np.testing.assert_allclose(qm.matrix_power(qm.eig(w), -1.0) @ w,
                               np.eye(3), atol=1e-10)


def test_integer_power_keeps_negative_eigenvalues():
    np.testing.assert_array_equal(
        qm.matrix_power(qm.eig(np.diag([-1.0, 1.0])), 2), np.eye(2))
    np.testing.assert_array_equal(
        qm.matrix_power(qm.eig(np.diag([-2.0, 1.0])), 3), np.diag([-8.0, 1.0]))


def test_as_matrix_checks_shape_dim_and_entries():
    state, _ = qm.density_matrix(W0)
    assert qm.as_matrix(state, 2) is state
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
    np.testing.assert_allclose(moved, np.diag([0.25, 0.75]),
                               atol=1e-14)


def test_heisenberg_schrodinger_duality():
    system = random_system(4, seed=5)
    a = _random_hermitian(4, 6)
    rho = system.reference_state
    t = 1.3
    lhs = np.trace(rho @ qm.heisenberg_evolve(system, a, t))
    rhs = np.trace(qm.schrodinger_evolve(system, rho, t) @ a)
    assert lhs.real == pytest.approx(rhs.real, abs=1e-12)


def test_derived_values_are_hermitian_arrays():
    system = random_system(4, seed=5)
    a = _random_hermitian(4, 6)
    for value in (qm.heisenberg_evolve(system, a, 0.7),
                  qm.schrodinger_evolve(system, system.reference_state, 0.7),
                  qm.entropy_observable(system),
                  qm.entropy_production_observable(system),
                  qm.mean_ep_observable(system, 0.7)):
        assert type(value) is np.ndarray
        assert value.shape == (4, 4) and value.dtype == complex
        assert (value == value.conj().T).all()


@pytest.mark.parametrize("evolve", [qm.heisenberg_evolve, qm.schrodinger_evolve])
def test_evolution_rejects_non_finite_or_wrongly_sized_operators(evolve):
    system = random_system(3, seed=4)
    with pytest.raises(ValueError, match="finite"):
        evolve(system, np.diag([1.0, math.nan, 0.0]), 1.0)
    with pytest.raises(ValueError, match="does not match dim"):
        evolve(system, np.eye(2), 1.0)


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


@st.composite
def state_pairs(draw):
    """Two density matrices of dim 2-12 in independent random bases, each
    with spectrum ratio down to e^-27, just above the 1e-12 positivity
    floor: spread-out spectra, or ones with at most three distinct values."""
    dim = draw(st.integers(min_value=2, max_value=12))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=10_000)))
    degenerate = draw(st.booleans())
    states = []
    for _ in range(2):
        spread = draw(st.floats(min_value=0.05, max_value=13.5))
        levels = (rng.integers(0, 3, size=dim) if degenerate
                  else np.r_[0.0, 2.0, rng.uniform(0.0, 2.0, dim - 2)])
        raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        basis, _ = np.linalg.qr(raw)
        nu = np.exp(-spread * levels)
        nu /= nu.sum()
        states.append(qm.density_matrix((basis * nu) @ basis.conj().T)[0])
    return states


@settings(max_examples=60, deadline=None)
@given(state_pairs(), st.floats(min_value=-2.0, max_value=3.0))
def test_two_state_entropies_match_matrix_functions_property(states, alpha):
    # the matrix-function forms: tr(rho (log nu - log rho)) and
    # log tr(rho^alpha nu^(1-alpha))
    rho, nu = states
    rho_eig, nu_eig = qm.eig(rho), qm.eig(nu)
    relative = np.trace(rho @ (qm.matrix_log(nu_eig)
                               - qm.matrix_log(rho_eig))).real
    renyi = math.log(np.trace(qm.matrix_power(rho_eig, alpha)
                              @ qm.matrix_power(nu_eig, 1.0 - alpha)).real)
    for got, want in ((qm.q_relative_entropy(rho, nu), relative),
                      (qm.q_renyi_entropy(rho, nu, alpha), renyi)):
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_entropy_observable_matches_minus_log():
    s = qm.entropy_observable(FLIP)
    np.testing.assert_allclose(s, -np.diag(np.log([0.75, 0.25])),
                               atol=1e-14)


def test_entropy_production_observable_flip_qubit():
    sigma = qm.entropy_production_observable(FLIP)
    np.testing.assert_allclose(sigma, -math.log(3) * SY, atol=1e-13)


def test_entropy_production_traceless_and_centered():
    system = random_system(6, seed=13)
    sigma = qm.entropy_production_observable(system)
    assert abs(np.trace(sigma)) < 1e-12
    assert abs(np.trace(system.reference_state @ sigma)) < 1e-12


def test_mean_ep_observable_flip_qubit():
    sigma_bar = qm.mean_ep_observable(FLIP, math.pi / 2)
    want = (2 / math.pi) * np.diag([math.log(3), -math.log(3)])
    np.testing.assert_allclose(sigma_bar, want, atol=1e-12)


def test_mean_ep_expectation_flip_qubit():
    got = qm.mean_ep_expectation(FLIP, math.pi / 2)
    assert got == pytest.approx(math.log(3) / math.pi, abs=1e-12)


def test_mean_ep_matches_relative_entropy_route():
    system = random_system(5, seed=17)
    t = 0.8
    direct = qm.mean_ep_expectation(system, t)
    evolved = qm.schrodinger_evolve(system, system.reference_state, t)
    via_entropy = -qm.q_relative_entropy(evolved,
                                         system.reference_state) / t
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
    sigma = qm.entropy_production_observable(system)
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
        qm.adaptive_simpson_matrix(jump, 0.0, 1.0)


def test_simpson_quadrature_raises_on_non_finite_integrand():
    with pytest.raises(NumericalDomainError, match="error estimate nan"):
        qm.adaptive_simpson_matrix(lambda s: np.array([[math.nan]]), 0.0, 1.0)


@settings(max_examples=40, deadline=None)
@given(quantum_systems(), st.sampled_from([-0.7, 0.3, 1.0, 5.0]),
       st.integers(min_value=0, max_value=10_000))
def test_evolved_integral_matches_quadrature_property(system, t, seed):
    a = _random_hermitian(system.dim, seed)
    a /= np.linalg.norm(a, 2)
    dec = system.hamiltonian_eig()

    def evolved(s):
        prop = dec.apply(lambda lam: np.exp(1j * s * lam))
        return prop @ a @ prop.conj().T

    gap = qm.evolved_integral(system, a, t) - qm.adaptive_simpson_matrix(evolved, 0.0, t)
    assert np.linalg.norm(gap) <= 1e-8


@pytest.mark.parametrize("t", [-0.7, 0.3, 5.0, 2000.0])
def test_evolved_integral_of_a_conserved_operator_is_t_times_it(t):
    # H has a repeated level and A acts inside its eigenspaces, so they commute;
    # in H's eigenbasis every weight A meets is the w = 0 weight, exactly t
    levels, inner = np.array([0.0, 1.0, 1.0, 2.5]), np.diag([0.4, -0.3, 0.2, -1.1])
    diagonal = qm.QuantumSystem(np.diag(levels), np.eye(4) / 4)
    assert np.array_equal(qm.evolved_integral(diagonal, inner, t), t * inner)
    basis = np.linalg.qr(_random_hermitian(4, 41))[0]
    inner = inner.astype(complex)
    inner[1:3, 1:3] = _random_hermitian(2, 42)
    h = (basis * levels) @ basis.conj().T
    a = basis @ inner @ basis.conj().T
    assert np.abs(h @ a - a @ h).max() < 1e-13
    rotated = qm.QuantumSystem(h, np.eye(4) / 4)
    # rounding splits the repeated level by about eps, a phase of t eps
    np.testing.assert_allclose(qm.evolved_integral(rotated, a, t), t * a, rtol=0,
                               atol=1e-12 * abs(t) * np.abs(a).max())


def test_evolved_integral_over_no_time_is_zero():
    system = random_system(5, seed=3)
    got = qm.evolved_integral(system, _random_hermitian(5, 4), 0.0)
    assert np.array_equal(got, np.zeros((5, 5)))


def test_tri_flag_rejects_complex_matrices():
    h = _random_hermitian(3, 23)
    w = qm.matrix_exp(_random_hermitian(3, 24))
    w = w / np.trace(w).real
    assert np.abs(h.imag).max() > 1e-12
    assert qm.QuantumSystem(h, w).tri is False
    # tri and the spectral memo are computed, never passed
    for extra in ({"tri": False}, {"tri": None}, {"_memo": {}}):
        with pytest.raises(TypeError):
            qm.QuantumSystem(h, w, **extra)
    with pytest.raises(TypeError):
        qm.QuantumSystem(h, w, None, {})


def test_tri_flag_autodetected_for_real_matrices():
    assert FLIP.tri is True
    system = random_system(4, seed=31)
    assert system.tri is False


def test_tri_flag_holds_for_every_qubit_and_must_match_detection():
    # two 2 x 2 Hermitian matrices are real in a common basis
    qubit = random_system(2, seed=1)
    assert np.abs(qubit.hamiltonian.imag).max() > 1e-3
    assert qubit.tri is True
    assert qm.QuantumSystem(qubit.hamiltonian,
                            qubit.reference_state).tri is True
    # a config that declares tri must match the detected flag
    h = _random_hermitian(3, 23)
    w = qm.matrix_exp(_random_hermitian(3, 24))
    for h_mat, w_mat in ((qubit.hamiltonian, qubit.reference_state),
                         (h.real, (w / np.trace(w)).real)):
        entry = SystemEntry("s", "quantum", {"hamiltonian": h_mat,
                                             "reference_state": w_mat,
                                             "tri": False})
        with pytest.raises(ConfigValidationError,
                           match="systems.s: tri=False contradicts"):
            entry.build()
    entry = SystemEntry("s", "quantum", {"hamiltonian": h, "reference_state":
                                         w / np.trace(w).real, "tri": True})
    with pytest.raises(ConfigValidationError, match="tri=True contradicts"):
        entry.build()
