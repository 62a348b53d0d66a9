import math

import pytest

from entroflux import classical as cl
from entroflux import functionals as fn
from entroflux import verify as vf
from entroflux.models import random_system


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
    for r in vf.run_battery(include_batches=False):
        assert r.name
        assert r.system_id
        assert r.tolerance > 0
        assert r.residual >= 0 or r.name.startswith("model_heat_flow")


def test_extra_systems_are_checked():
    extra = [("probe-7", "quantum", random_system(3, tri=True, seed=7))]
    results = vf.run_battery(extra_systems=extra, include_batches=False)
    assert any(r.system_id == "probe-7" for r in results)


def test_tolerance_override_applies():
    results = vf.run_battery(tolerances={"symmetry": 1e-30},
                             include_batches=False)
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


def _status(results, name):
    [row] = [r for r in results if r.name == name]
    return row.status


def test_variational_disagreement_is_a_fail_row(monkeypatch):
    exact = fn.functional

    def shifted(system, p, alpha, t):
        return exact(system, p, alpha, t) + (1e-6 if math.isinf(p) else 0.0)

    monkeypatch.setattr(fn, "functional", shifted)
    system = random_system(4, tri=True, seed=21)
    results = vf.functional_checks("probe", system, vf.merge_tolerances())
    assert _status(results, "functional_variational") == vf.FAIL


def test_telescoping_disagreement_is_a_fail_row(monkeypatch):
    exact = cl.mean_ep_observable
    system = cl.ClassicalSystem([0.25, 0.5, 0.25])
    tol = vf.merge_tolerances()
    assert _status(vf.classical_checks("probe", system, tol),
                   "classical_ep_telescoping") == vf.PASS

    def shifted(system, t):
        return cl.ClassicalObservable(exact(system, t).values + 1e-9)

    monkeypatch.setattr(cl, "mean_ep_observable", shifted)
    assert _status(vf.classical_checks("probe", system, tol),
                   "classical_ep_telescoping") == vf.FAIL
