import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from entroflux.errors import NumericalDomainError
from entroflux.measures import (
    ATOM_TOL,
    SpectralMeasure,
    build_measure,
    fluctuation_symmetry_residual,
    logsumexp,
    total_variation,
)


def test_build_measure_merges_nearby_atoms():
    m = build_measure([1.0, 1.0 + 1e-13, 2.0], [0.3, 0.2, 0.5])
    assert len(m) == m.atoms.size == 2
    np.testing.assert_allclose(m.weights, [0.5, 0.5])


def test_build_measure_drops_negligible_weights():
    m = build_measure([0.0, 5.0], [1.0, 1e-16], drop=1e-14)
    assert m.atoms.size == 1
    assert m.atoms[0] == 0.0


def test_build_measure_rejects_negative_weight():
    with pytest.raises(NumericalDomainError):
        build_measure([0.0, 1.0], [0.5, -1e-6])


def test_build_measure_clamps_rounding_noise():
    m = build_measure([0.0, 1.0], [1.0, -1e-13])
    assert m.weights.min() >= 0.0


def test_atoms_sorted_and_mass_lookup():
    m = build_measure([3.0, -1.0, 0.5], [0.2, 0.3, 0.5])
    assert np.all(np.diff(m.atoms) > 0)
    assert m.mass_at(-1.0) == pytest.approx(0.3)
    assert m.mass_at(7.0) == 0.0


def test_mean_is_weighted_average():
    m = build_measure([-1.0, 2.0], [0.25, 0.75])
    assert m.mean() == pytest.approx(-0.25 + 1.5)


def test_total_variation_basic_cases():
    a = build_measure([0.0, 1.0], [0.5, 0.5])
    b = build_measure([0.0, 1.0], [0.5, 0.5])
    c = build_measure([5.0], [1.0])
    assert total_variation(a, b) == 0.0
    assert total_variation(a, c) == pytest.approx(1.0)


def test_total_variation_partial_overlap():
    a = build_measure([0.0, 1.0], [0.6, 0.4])
    b = build_measure([0.0, 2.0], [0.6, 0.4])
    assert total_variation(a, b) == pytest.approx(0.4)


def test_symmetry_residual_zero_for_balanced_measure():
    # weights w(a) and w(-a) = e^{-ta} w(a) satisfy the symmetry exactly
    t, a, w = 2.0, 0.7, 0.4
    paired = w * math.exp(-t * a)
    rest = 1.0 - w - paired
    m = build_measure([a, -a, 0.0], [w, paired, rest])
    assert fluctuation_symmetry_residual(m, t) < 1e-15


def test_symmetry_residual_detects_imbalance():
    m = build_measure([1.0, -1.0], [0.9, 0.1])
    assert fluctuation_symmetry_residual(m, 1.0) > 1e-3


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=2,
                max_size=8),
       st.lists(st.floats(min_value=-5.0, max_value=5.0), min_size=2,
                max_size=8))
def test_total_variation_is_a_metric_on_random_measures(weights, atoms):
    n = min(len(weights), len(atoms))
    w = np.asarray(weights[:n])
    w = w / w.sum()
    a = build_measure(atoms[:n], w)
    b = build_measure(list(reversed(atoms[:n])), w)
    tv = total_variation(a, b)
    assert 0.0 <= tv <= 1.0 + 1e-12
    assert total_variation(b, a) == pytest.approx(tv, abs=1e-15)
    assert total_variation(a, a) == 0.0


def test_measure_requires_matched_lengths():
    with pytest.raises(ValueError):
        SpectralMeasure(np.array([0.0, 1.0]), np.array([1.0]))


@pytest.mark.parametrize("call,error,match", [
    (lambda: SpectralMeasure(np.array([]), np.array([])), ValueError,
     "at least one atom"),
    (lambda: SpectralMeasure(np.array([1.0, 0.0]), np.array([0.5, 0.5])),
     ValueError, "strictly increasing"),
    (lambda: SpectralMeasure(np.array([0.0, 1.0]), np.array([1.0 + 1e-11,
                                                              -1e-11])),
     NumericalDomainError, "negative weight"),
    (lambda: build_measure([], []), ValueError, "matching nonempty arrays"),
    (lambda: build_measure([0.0, 5.0], [1e-16, 1e-16], drop=1e-14),
     NumericalDomainError, "all weights were dropped"),
], ids=["no-atom", "decreasing-atoms", "negative-weight", "no-value",
        "all-dropped"])
def test_measure_rejects_malformed_input(call, error, match):
    with pytest.raises(error, match=match):
        call()


# -- per-atom loops the vectorized measure algebra replaced, kept as oracles

def _loop_mass_at(measure, value, tol=ATOM_TOL):
    sel = np.abs(measure.atoms - value) <= tol
    return float(measure.weights[sel].sum())


def _loop_build_measure(values, weights, tol=ATOM_TOL, drop=0.0):
    values = np.asarray(values, dtype=float).ravel()
    weights = np.asarray(weights, dtype=float).ravel()
    order = np.argsort(values, kind="stable")
    values = values[order]
    weights = weights[order]
    boundaries = np.flatnonzero(np.diff(values) > tol)
    starts = np.concatenate(([0], boundaries + 1))
    stops = np.concatenate((boundaries + 1, [values.size]))
    atoms = []
    mass = []
    for lo, hi in zip(starts, stops):
        w = weights[lo:hi].sum()
        if w < drop:
            continue
        atoms.append(values[lo:hi].mean())
        mass.append(w)
    return SpectralMeasure(np.array(atoms), np.array(mass))


def _loop_total_variation(first, second, tol=ATOM_TOL):
    merged = np.sort(np.concatenate((first.atoms, second.atoms)))
    keep = np.concatenate(([True], np.diff(merged) > tol))
    points = merged[keep]
    dev = [abs(_loop_mass_at(first, x, tol) - _loop_mass_at(second, x, tol))
           for x in points]
    return 0.5 * float(np.sum(dev))


def _loop_fs_residual(measure, t, tol=ATOM_TOL):
    res = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for a in measure.atoms:
            res = max(res, abs(_loop_mass_at(measure, -a, tol)
                               - np.exp(-t * a) * _loop_mass_at(measure, a, tol)))
    return res


def _agree(new, old):
    assert new == old or abs(new - old) <= 1e-14, (new, old)


def _assert_algebra_matches_loops(values, weights, other, t):
    """Vectorized build/mass/TV/residual against the loops, on one input."""
    built = build_measure(values, weights)
    oracle = _loop_build_measure(values, weights)
    assert built.atoms.size == oracle.atoms.size
    assert np.abs(built.atoms - oracle.atoms).max() <= 1e-14
    assert np.abs(built.weights - oracle.weights).max() <= 1e-14
    probes = np.concatenate((values, built.atoms, built.atoms + ATOM_TOL,
                             built.atoms - ATOM_TOL, -built.atoms))
    for x in probes:
        _agree(built.mass_at(x), _loop_mass_at(built, x))
    for measure in (built, other):
        _agree(fluctuation_symmetry_residual(measure, t),
               _loop_fs_residual(measure, t))
    _agree(total_variation(built, other), _loop_total_variation(built, other))
    _agree(total_variation(other, built), _loop_total_variation(other, built))


def _raw_measure(atoms, weights):
    """SpectralMeasure straight from sorted distinct atoms, no clustering."""
    w = np.asarray(weights, dtype=float)
    return SpectralMeasure(np.asarray(atoms, dtype=float), w / w.sum())


WEIGHTS = st.floats(min_value=0.01, max_value=1.0)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=-2e-9, max_value=2e-9),
       st.lists(st.floats(min_value=ATOM_TOL, max_value=2 * ATOM_TOL),
                min_size=1, max_size=12),
       st.lists(WEIGHTS, min_size=13, max_size=13),
       st.floats(min_value=-3.0, max_value=3.0),
       st.floats(min_value=0.1, max_value=5.0))
def test_measure_algebra_matches_loops_on_tol_spaced_atoms(start, spacings,
                                                           weights, shift, t):
    # gaps between tol and 2 tol sit on the clustering and window edges
    values = start + np.concatenate(([0.0], np.cumsum(spacings)))
    w = np.asarray(weights[:values.size])
    w = w / w.sum()
    other = _raw_measure(-values[::-1] + 0.5 * ATOM_TOL, w[::-1])
    _assert_algebra_matches_loops(values, w, other, t)
    _assert_algebra_matches_loops(values + shift, w, _raw_measure(values, w), t)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from([-1.5, -0.25, 0.0, 0.25, 0.7, 1.5]),
                min_size=2, max_size=20),
       st.lists(WEIGHTS, min_size=20, max_size=20),
       st.floats(min_value=0.1, max_value=5.0))
def test_measure_algebra_matches_loops_on_duplicate_values(values, weights, t):
    values = np.asarray(values)
    w = np.asarray(weights[:values.size])
    w = w / w.sum()
    other = _raw_measure(np.unique(values), np.ones(np.unique(values).size))
    _assert_algebra_matches_loops(values, w, other, t)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=720.0, max_value=1000.0),
       st.floats(min_value=1.0, max_value=3.0),
       st.lists(st.floats(min_value=-5.0, max_value=5.0), min_size=1,
                max_size=6, unique=True),
       st.lists(WEIGHTS, min_size=8, max_size=8))
def test_fs_residual_skips_overflow_against_zero_mass(far, t, near, weights):
    # exp(-t * (-far)) overflows; times the zero mass there it is NaN
    atoms = np.sort(np.concatenate(([-far, far], near)))
    w = np.asarray(weights[:atoms.size])
    w[atoms == -far] = 0.0
    measure = SpectralMeasure(atoms, w / w.sum())
    new = fluctuation_symmetry_residual(measure, t)
    old = _loop_fs_residual(measure, t)
    assert math.isfinite(old)
    _agree(new, old)


def _shifted_logsumexp(x):
    """The one-expression form: m + log(sum exp(x - m)) over the last axis."""
    if x.shape[-1] == 0:
        return -np.inf
    m = x.max(-1)
    out = m + np.log(np.exp(x - m[..., None]).sum(-1))
    return float(out) if x.ndim == 1 else out


# one to three axes, the last possibly empty; entries may be -inf, and a row
# of -inf alone gives nan on both sides
@settings(max_examples=200, deadline=None)
@given(hnp.arrays(float, hnp.array_shapes(min_dims=1, max_dims=3, min_side=0,
                                          max_side=9),
                  elements=st.one_of(st.floats(-700.0, 700.0),
                                     st.just(-math.inf))))
def test_logsumexp_keeps_its_input_and_the_bits_of_the_shifted_formula(x):
    before = x.copy()
    with np.errstate(invalid="ignore"):
        got = logsumexp(x)
        want = _shifted_logsumexp(x)
    assert x.tobytes() == before.tobytes()
    assert type(got) is type(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_logsumexp_on_a_single_row_a_vector_and_no_terms():
    row = np.array([[0.5, -math.inf, -3.0, 2.0]])
    assert logsumexp(row).shape == (1,)
    assert logsumexp(row)[0] == logsumexp(row[0]) == _shifted_logsumexp(row[0])
    assert type(logsumexp(row[0])) is float
    assert logsumexp(np.zeros(0)) == logsumexp(np.zeros((3, 0))) == -math.inf
