import math
import pickle
import subprocess
import sys
import time

import numpy as np
import pytest

from entroflux import classical as cl
from entroflux import config as cf
from entroflux import fcs as fc
from entroflux import functionals as fn
from entroflux import measures as ms
from entroflux import pool
from entroflux import quantum as qm
from entroflux import runner
from entroflux import verify as vf
from entroflux.errors import NumericalDomainError
from entroflux.models import random_classical_system, random_system

CHECKED = """
systems:
  - id: chain
    kind: random_classical
    size: 5
    tri: true
    seed: 3
  - id: probe
    kind: random
    dim: 3
    tri: true
    seed: 7
sweep:
  alpha: [0.0, 0.5, 1.0]
  p: [2]
  t: [1.0]
"""


def test_default_battery_has_no_failures():
    results = vf.run_battery()
    assert vf.suite_passed(results)
    statuses = {r.status for r in results}
    assert statuses <= {vf.PASS, vf.XFAIL}


def test_battery_includes_expected_violations():
    """Deliberately broken symmetries must show up, flagged as expected."""
    results = vf.run_battery()
    expected = [r for r in results if r.status == vf.XFAIL]
    names = {r.name for r in expected}
    assert "naive_kawasaki_breaks" in names
    assert any(n.endswith("_breaks") for n in names - {"naive_kawasaki_breaks"})
    for r in expected:
        assert r.residual > r.tolerance


def test_every_result_names_system_and_tolerance():
    for r in vf.run_battery():
        assert r.name
        assert r.system_id
        assert r.tolerance > 0
        assert r.residual >= 0 or r.name.startswith("model_heat_flow")


def test_extra_systems_are_checked():
    extra = [("probe-7", "quantum", random_system(3, tri=True, seed=7))]
    results = vf.run_battery(extra_systems=extra)
    assert any(r.system_id == "probe-7" for r in results)


def test_tolerance_override_applies():
    results = vf.run_battery(tolerances={"symmetry": 1e-30})
    hits = [r for r in results if r.name == "functional_symmetry"]
    assert hits
    assert all(r.tolerance == 1e-30 for r in hits)
    assert any(r.status == vf.FAIL for r in hits)
    assert not vf.suite_passed(results)


def test_merge_tolerances_validates_names():
    merged = vf.merge_tolerances({"tv": 1e-9})
    assert merged["tv"] == 1e-9
    assert merged["symmetry"] == vf.DEFAULT_TOLERANCES["symmetry"]
    with pytest.raises(ValueError):
        vf.merge_tolerances({"bogus": 1.0})
    with pytest.raises(ValueError):
        vf.merge_tolerances({"tv": -1.0})


def test_suite_passed_ignores_expected_failures():
    ok = vf.CheckResult("a", "s", 0.0, 1.0, vf.PASS)
    xf = vf.CheckResult("b", "s", 2.0, 1.0, vf.XFAIL)
    bad = vf.CheckResult("c", "s", 2.0, 1.0, vf.FAIL)
    assert vf.suite_passed([ok, xf])
    assert not vf.suite_passed([ok, xf, bad])


@pytest.mark.parametrize("rule,residual,status", [
    (vf.BOUNDED, 1e-3, vf.PASS), (vf.BOUNDED, 2e-3, vf.FAIL),
    (vf.BREAKS, 2e-3, vf.XFAIL), (vf.BREAKS, 1e-3, vf.FAIL),
    (vf.ABOVE, 2e-3, vf.PASS), (vf.ABOVE, 1e-3, vf.FAIL),
    (vf.ABOVE, 0.0, vf.FAIL),
])
def test_bounded_check_status_under_each_rule(rule, residual, status):
    assert vf.bounded_check("row", "probe", residual, 1e-3, rule).status == \
        status


def _status(results, name):
    [row] = [r for r in results if r.name == name]
    return row.status


def test_variational_disagreement_is_a_fail_row(monkeypatch):
    exact = fn.functional

    def shifted(system, p, alpha, t):
        return exact(system, p, alpha, t) + (1e-6 if math.isinf(p) else 0.0)

    monkeypatch.setattr(fn, "functional", shifted)
    system = random_system(4, tri=True, seed=21)
    results = vf.check_system("probe", "quantum", system, vf.merge_tolerances())
    assert _status(results, "functional_variational") == vf.FAIL


def test_check_system_rejects_an_unknown_kind():
    with pytest.raises(ValueError, match="unknown system kind 'bogus'"):
        vf.check_system("probe", "bogus", random_system(3, seed=21),
                        vf.merge_tolerances())


def test_telescoping_disagreement_is_a_fail_row(monkeypatch):
    exact = cl.mean_ep_observable
    system = cl.ClassicalSystem([0.25, 0.5, 0.25])
    tol = vf.merge_tolerances()
    assert _status(vf.check_system("probe", "classical", system, tol),
                   "classical_ep_telescoping") == vf.PASS

    def shifted(system, t):
        return exact(system, t) + 1e-9

    monkeypatch.setattr(cl, "mean_ep_observable", shifted)
    assert _status(vf.check_system("probe", "classical", system, tol),
                   "classical_ep_telescoping") == vf.FAIL


def test_battery_runs_quadrature_once_per_core_system(monkeypatch):
    calls = []
    quadrature = qm.gauss_legendre_matrix

    def counted(*args, **kwargs):
        calls.append(args)
        return quadrature(*args, **kwargs)

    monkeypatch.setattr(qm, "gauss_legendre_matrix", counted)
    monkeypatch.setattr(pool, "cpu_count", lambda: 1)    # calls are seen in-process
    vf.run_battery()
    core = [sid for sid, kind, _ in vf.default_systems()
            if kind in ("quantum", "commuting", "qubit", "reservoir")]
    assert len(core) == 6
    assert len(calls) == len(core)


def _flip(h: float) -> qm.QuantumSystem:
    return qm.QuantumSystem([[0.0, h], [h, 0.0]], np.diag([0.75, 0.25]))


@pytest.mark.parametrize("h", [1e4, 1e8])
def test_quadrature_row_is_bounded_on_wide_hamiltonians(h):
    """The quadrature spans 16 radians of Bohr phase, not [0, 1]: every row
    of a qubit with ||H|| = h passes within a second."""
    start = time.perf_counter()
    results = vf.check_system("flip", "quantum", _flip(h), vf.merge_tolerances())
    assert time.perf_counter() - start < 1.0
    assert [r.name for r in results if r.status == vf.FAIL] == []
    assert _status(results, "quantum_ep_quadrature") == vf.PASS


@pytest.mark.parametrize("route", ["mean_ep_observable",
                                   "entropy_production_observable"])
@pytest.mark.parametrize("h", [1.0, 1e4])
def test_quadrature_row_catches_a_broken_route(monkeypatch, route, h):
    """A relative error of 1e-6 on either side fails the row, over [0, 1]
    (h = 1) and over a shorter span (h = 1e4)."""
    exact = getattr(qm, route)
    monkeypatch.setattr(qm, route, lambda *args: exact(*args) * (1 + 1e-6))
    results = vf.check_system("flip", "quantum", _flip(h), vf.merge_tolerances())
    assert _status(results, "quantum_ep_quadrature") == vf.FAIL


def test_fcs_mean_derivative_five_point_stencil(monkeypatch):
    """The stencil's O(h^4) error passes the 1e11-ratio system, where a
    central difference reads 1.5e-6; a cgf with a 1 % wrong rate still fails."""
    rng = np.random.default_rng(5)
    basis, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    nu = np.geomspace(1.0, 1e-11, 4)
    h = rng.normal(size=(4, 4))
    wide = qm.QuantumSystem(h + h.T, (basis * (nu / nu.sum())) @ basis.T)
    tol = vf.merge_tolerances()
    assert _status(vf.check_system("wide", "quantum", wide, tol),
                   "fcs_mean_derivative") == vf.PASS
    cgf = fc.fcs_cgf
    monkeypatch.setattr(fc, "fcs_cgf",
                        lambda measure, alpha, t: cgf(measure, 1.01 * alpha, t))
    system = random_system(4, tri=True, seed=21)
    assert _status(vf.check_system("probe", "quantum", system, tol),
                   "fcs_mean_derivative") == vf.FAIL


def _residual(results, name):
    [row] = [r for r in results if r.name == name]
    return row.residual


def test_functional_derivative_five_point_stencil(monkeypatch):
    """The stencil's O(h^4) error passes the 1e11-ratio system, where a
    central difference reads 5.9e-6; a mean entropy production 1 % off
    still fails."""
    rng = np.random.default_rng(5)
    basis, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    nu = np.geomspace(1.0, 1e-11, 4)
    h = rng.normal(size=(4, 4))
    wide = qm.QuantumSystem(h + h.T, (basis * (nu / nu.sum())) @ basis.T)
    tol = vf.merge_tolerances()
    assert _residual(vf.check_system("wide", "quantum", wide, tol),
                     "functional_derivative") < 1e-9
    mean = qm.mean_ep_expectation
    monkeypatch.setattr(qm, "mean_ep_expectation",
                        lambda system, t: 1.01 * mean(system, t))
    system = random_system(4, tri=True, seed=21)
    assert _status(vf.check_system("probe", "quantum", system, tol),
                   "functional_derivative") == vf.FAIL


def test_classical_derivative_five_point_stencil(monkeypatch):
    """The stencil reads about 1e-12 on a 9-point chain, where a central
    difference reads 1.2e-9; a functional with a 1 % wrong rate fails."""
    chain = random_classical_system(9, seed=11, tri=True)
    tol = vf.merge_tolerances()
    assert _residual(vf.check_system("chain", "classical", chain, tol),
                     "classical_derivative") < 1e-10
    functional = cl.classical_functional
    monkeypatch.setattr(cl, "classical_functional",
                        lambda system, alpha, t: functional(
                            system, 1.01 * np.asarray(alpha), t))
    assert _status(vf.check_system("chain", "classical", chain, tol),
                   "classical_derivative") == vf.FAIL


def test_no_system_gets_two_rows_of_one_name():
    extra = [("probe-tri", "quantum", random_system(3, tri=True, seed=7)),
             ("probe-asym", "quantum", random_system(3, tri=False, seed=8)),
             ("probe-chain", "classical", cl.ClassicalSystem([0.2, 0.5, 0.3]))]
    keys = [(r.system_id, r.name) for r in vf.run_battery(extra_systems=extra)]
    assert len(keys) == len(set(keys))
    assert {sid for sid, _ in keys} >= {sid for sid, _, _ in extra}


def test_every_tolerance_key_is_read(monkeypatch):
    read = set()

    class Recording(dict):
        def __getitem__(self, key):
            read.add(key)
            return dict.__getitem__(self, key)

    exact = vf.merge_tolerances
    monkeypatch.setattr(vf, "merge_tolerances",
                        lambda overrides=None: Recording(exact(overrides)))
    # reads are seen in-process, and a local class cannot reach a worker
    monkeypatch.setattr(pool, "cpu_count", lambda: 1)
    vf.run_battery()
    by_rows = set(read)
    read.clear()
    # the check rows of the fcs and classical subcommands
    cfg = cf.parse_config(CHECKED)
    runner.run_fcs(cfg)
    runner.run_classical(cfg)
    assert read == {"tv", "classical_identity", "symmetry"}
    assert by_rows | read == set(vf.DEFAULT_TOLERANCES)


@pytest.mark.parametrize("tri", [True, False])
def test_battery_evaluates_each_curve_point_once(monkeypatch, tri):
    exact = fn.functional
    seen = []

    def counting(system, p, alpha, t):
        seen.extend((p, t, a) for a in np.atleast_1d(alpha).tolist())
        return exact(system, p, alpha, t)

    monkeypatch.setattr(fn, "functional", counting)
    system = random_system(4, tri=tri, seed=9)
    results = vf.check_system("probe", "quantum", system, vf.merge_tolerances())
    assert vf.suite_passed(results)
    assert len(seen) > 100
    assert len(seen) == len(set(seen))


def test_domain_error_names_row_and_system(monkeypatch):
    def boom(system, alpha, t):
        raise NumericalDomainError("synthetic breakdown")

    monkeypatch.setattr(fn, "variational_max", boom)
    with pytest.raises(NumericalDomainError,
                       match="^functional_variational on system probe: "
                             "synthetic breakdown$"):
        vf.check_system("probe", "quantum", random_system(3, tri=True, seed=7),
                        vf.merge_tolerances())


def test_es_symmetry_pairs_atoms_whose_light_mirror_was_dropped():
    # one mirror of this measure would weigh 1e-16, below the drop
    system = random_system(12, tri=True, seed=2, spread=12)
    ctx = vf.Context("quantum", system)
    counting = ctx.counting(ctx.fcs_t)
    assert counting.atoms.size % 2 == 0     # so the atoms are not mirror pairs
    assert vf._fcs_es_symmetry(ctx) <= vf.DEFAULT_TOLERANCES["tv"]


def test_es_symmetry_fails_a_light_atom_moved_off_its_mirror(monkeypatch):
    exact = fc.fcs_distribution

    def moved(system, t):
        measure = exact(system, t)
        atoms, weights = measure.atoms.copy(), measure.weights
        mirror = np.exp(-t * atoms) * weights
        # an atom and a mirror too light for the mass comparison to see
        [light, *_] = np.flatnonzero((weights < 1e-11) & (mirror < 1e-11)
                                     & (mirror >= ms.WEIGHT_DROP))
        atoms[light] += 1e-6
        return ms.SpectralMeasure(atoms, weights)

    monkeypatch.setattr(fc, "fcs_distribution", moved)
    ctx = vf.Context("quantum", random_system(8, tri=True, seed=3, spread=12))
    counting = ctx.counting(ctx.fcs_t)
    assert ms.fluctuation_symmetry_residual(counting, ctx.fcs_t) < 1e-10
    assert vf._fcs_es_symmetry(ctx) == pytest.approx(1e-6, rel=1e-6)


def test_domain_error_keeps_its_rows_through_pickling(monkeypatch):
    # a forked battery worker sends its error back pickled
    def boom(system, alpha, t):
        raise NumericalDomainError("synthetic breakdown")

    monkeypatch.setattr(fn, "variational_max", boom)
    with pytest.raises(NumericalDomainError) as caught:
        vf.check_system("probe", "quantum", random_system(3, tri=True, seed=7),
                        vf.merge_tolerances())
    copy = pickle.loads(pickle.dumps(caught.value))
    assert str(copy) == str(caught.value)
    assert copy.results and copy.results == caught.value.results


def test_one_cpu_battery_imports_no_process_pool():
    code = ("import sys; from entroflux import pool, verify as vf; "
            "pool.cpu_count = lambda: 1; vf.run_battery(); "
            "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert done.stdout == "[]\n"


@pytest.mark.parametrize("weights", [[0.3, 0.7], [0.5, 0.25, 0.25],
                                     [0.125, 0.25, 0.375, 0.25]])
def test_chains_symmetric_under_any_reflection_pass(weights):
    rows = vf.check_system("chain", "classical", cl.ClassicalSystem(weights),
                           vf.merge_tolerances())
    assert not [r for r in rows if r.status == vf.FAIL]
    assert not [r for r in rows if r.name.endswith("_breaks")]


@pytest.mark.parametrize("tri", [True, False])
def test_rows_do_not_depend_on_which_row_filled_the_cache(monkeypatch, tri):
    """Each row run alone on a fresh Context, and all rows in reverse order,
    give the residuals of one pass in table order, bit for bit."""
    system = random_system(4, tri=tri, seed=9)
    tol = vf.merge_tolerances()
    in_order = vf.check_system("probe", "quantum", system, tol)
    rows = [row for row in vf.ROWS if "quantum" in row.kinds]
    alone = []
    for row in rows:
        monkeypatch.setattr(vf, "ROWS", (row,))
        alone += vf.check_system("probe", "quantum", system, tol)
    monkeypatch.setattr(vf, "ROWS", tuple(reversed(rows)))
    backwards = vf.check_system("probe", "quantum", system, tol)[::-1]
    assert len(in_order) > 20
    assert alone == in_order
    assert backwards == in_order


def test_wide_reference_spectrum_runs_every_row():
    """A valid state with spectrum ratio 1e11, near the positivity floor:
    the maximizer and the evolved state are read off carried spectra, so no
    row stops the battery, and the two rows on those routes pass."""
    rng = np.random.default_rng(5)
    basis, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    nu = np.geomspace(1.0, 1e-11, 4)
    h = rng.normal(size=(4, 4))
    wide = qm.QuantumSystem(h + h.T, (basis * (nu / nu.sum())) @ basis.T)
    # returns, so no row raised a NumericalDomainError
    results = vf.check_system("wide", "quantum", wide, vf.merge_tolerances())
    for name in ("functional_variational", "functional_renyi_bridge"):
        assert _status(results, name) == vf.PASS
