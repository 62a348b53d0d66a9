"""End-to-end acceptance battery.

Each test covers one acceptance criterion at its stated tolerance and
shows up as a single pass/fail line under ``pytest -v``.  Runtime-bound
criteria assert their own wall-clock budget.
"""
import json
import math
import time

import numpy as np
import pytest

from entroflux import classical as cl
from entroflux import cli
from entroflux import fcs
from entroflux import functionals as fn
from entroflux import measures as ms
from entroflux import models as md
from entroflux import quantum as qm

P_GRID = (1.0, 1.5, 2.0, 3.0, 4.0, 6.0, math.inf)
T_GRID = (0.5, 1.0, math.pi / 2)
ALPHAS = np.round(np.arange(-1.0, 2.0001, 0.05), 10)

SX = np.array([[0.0, 1.0], [1.0, 0.0]])
FLIP = qm.QuantumSystem(SX, np.diag([0.75, 0.25]))


def quantum_fleet(count=20, tri=True, dim_span=(2, 16), base_seed=1000):
    lo, hi = dim_span
    fleet = []
    for k in range(count):
        dim = lo + k % (hi - lo + 1)
        fleet.append(md.random_system(dim, tri=tri, seed=base_seed + k))
    return fleet


def classical_fleet(count=20, base_seed=2000):
    return [md.random_classical_system(3 + 5 * k, seed=base_seed + k,
                                       tri=True)
            for k in range(count)]


def test_criterion_1_fluctuation_symmetry():
    start = time.monotonic()
    worst = 0.0
    for system in quantum_fleet():
        for p in P_GRID:
            for t in T_GRID:
                curve = np.array([fn.functional(system, p, a, t)
                                  for a in ALPHAS])
                worst = max(worst, float(np.abs(curve - curve[::-1]).max()))
    for system in classical_fleet():
        curve = np.array([cl.classical_functional(system, a, 1)
                          for a in ALPHAS])
        worst = max(worst, float(np.abs(curve - curve[::-1]).max()))
    elapsed = time.monotonic() - start
    assert worst <= 1e-10, f"symmetry residual {worst:.3e}"
    assert elapsed < 30.0, f"sweep took {elapsed:.1f}s"


def test_criterion_2_kawasaki_endpoints():
    worst = 0.0
    for system in quantum_fleet(count=6):
        for p in P_GRID:
            for t in T_GRID:
                worst = max(worst, abs(fn.functional(system, p, 0.0, t)),
                            abs(fn.functional(system, p, 1.0, t)))
    for system in classical_fleet(count=6):
        worst = max(worst, abs(cl.classical_functional(system, 0.0, 1)),
                    abs(cl.classical_functional(system, 1.0, 1)))
    assert worst <= 1e-10, f"endpoint residual {worst:.3e}"

    violations = 0
    for k in range(20):
        system = md.random_system(3 + k % 4, tri=False, seed=3000 + k)
        if abs(fn.naive_functional(system, 1.0, 1.0)) > 1e-8:
            violations += 1
    assert violations >= 19, f"naive endpoint broke on only {violations}/20"


def test_criterion_3_bridge_identities():
    alphas = (-0.6, 0.25, 0.5, 1.1, 1.8)
    for system in quantum_fleet(count=8, dim_span=(2, 8)):
        for t in (0.5, 1.0):
            evolved = qm.schrodinger_evolve(
                system, system.reference_state, t)
            for a in alphas:
                direct = fn.functional(system, 2.0, a, t)
                renyi = qm.q_renyi_entropy(
                    evolved, system.reference_state, a)
                assert abs(direct - renyi) <= 1e-10
                limit = fn.functional(system, math.inf, a, t)
                assert abs(limit - fn.variational_max(system, a, t)) <= 1e-10
                for p in (1.0, 3.0):
                    transfer = fn.transfer_functional(system, p, a, t)
                    assert abs(transfer
                               - fn.functional(system, p, a, t)) <= 1e-10
    chain = cl.ClassicalSystem([0.25, 0.5, 0.25])
    for system in [chain] + classical_fleet(count=8):
        for t in (1, 2):
            for a in alphas:
                direct = cl.classical_functional(system, a, t)
                assert abs(direct
                           - cl.renyi_identity_check(system, a, t)) <= 1e-12
                assert abs(direct
                           - cl.variational_functional(system, a, t)) <= 1e-12
                assert abs(direct - cl.classical_transfer_functional(
                    system, 2.0, a, t)) <= 1e-12


def test_criterion_4_counting_equals_modular():
    fleet = quantum_fleet(count=10, dim_span=(2, 10))
    fleet.append(md.canonical_model())
    fleet.append(FLIP)
    for system in fleet:
        for t in (0.5, 1.0):
            counting = fcs.fcs_distribution(system, t)
            modular = fcs.modular_spectral_measure(system, t)
            assert ms.total_variation(counting, modular) <= 1e-10

    m = fcs.fcs_distribution(FLIP, math.pi / 2)
    rate = (2.0 / math.pi) * math.log(3.0)
    assert m.atoms.size == 2
    assert abs(m.atoms[1] - rate) <= 1e-12
    assert abs(m.atoms[0] + rate) <= 1e-12
    assert abs(m.mass_at(rate) - 0.75) <= 1e-12
    assert abs(m.mass_at(-rate) - 0.25) <= 1e-12


def test_criterion_5_cgf_identity():
    fleet = quantum_fleet(count=6, dim_span=(2, 8))
    fleet.append(md.canonical_model())
    fleet.append(md.random_system(5, tri=False, seed=4000))
    for system in fleet:
        t = 1.0
        measure = fcs.fcs_distribution(system, t)
        for a in ALPHAS:
            gap = abs(fcs.fcs_cgf(measure, a, t)
                      - fn.functional(system, 2.0, a, t))
            assert gap <= 1e-10, f"cgf gap {gap:.3e} at alpha={a}"


def test_criterion_6_second_law_and_derivative():
    for k, system in enumerate(quantum_fleet(count=20, tri=False,
                                             dim_span=(2, 8),
                                             base_seed=5000)):
        t = 0.5 + 0.25 * (k % 5)
        mean_ep = qm.mean_ep_expectation(system, t)
        assert mean_ep >= -1e-12
        evolved = qm.schrodinger_evolve(
            system, system.reference_state, t)
        via_entropy = -qm.q_relative_entropy(
            evolved, system.reference_state) / t
        assert abs(mean_ep - via_entropy) <= 1e-10

    system = md.random_system(6, tri=True, seed=5100)
    t, h = 1.0, 1e-4
    mean_ep = qm.mean_ep_expectation(system, t)
    for p in P_GRID:
        slope = (fn.functional(system, p, h, t)
                 - fn.functional(system, p, -h, t)) / (2 * h)
        assert abs(slope + t * mean_ep) <= 1e-6


def test_criterion_7_p_monotone_convex_and_limit():
    inner = (ALPHAS > 0.0) & (ALPHAS < 1.0)
    for system in quantum_fleet(count=6, dim_span=(2, 8), base_seed=6000):
        t = 1.0
        curves = {p: np.array([fn.functional(system, p, a, t)
                               for a in ALPHAS]) for p in P_GRID}
        for lo, hi in zip(P_GRID[:-1], P_GRID[1:]):
            assert np.all(curves[hi][inner] - curves[lo][inner] <= 1e-10)
        for p in P_GRID:
            assert np.diff(curves[p], 2).min() >= -1e-9
        for a in ALPHAS[inner][::10]:
            gap = abs(fn.functional(system, 64.0, a, t)
                      - fn.functional(system, math.inf, a, t))
            assert gap < 1e-3


def test_criterion_8_reservoir_physics():
    model = md.canonical_model()
    for t in (0.5, 1.0, 2.0):
        for side in ("left", "right"):
            assert md.flux_balance_residual(model, t, side) <= 1e-8
    combined = md.entropy_production_decomposition(model)
    direct = qm.entropy_production_observable(model)
    assert np.abs(combined - direct).max() <= 1e-10
    assert qm.mean_ep_expectation(model, 1.0) > 1e-10


def test_criterion_9_cli_determinism_and_verify(tmp_path, capsys):
    config_path = tmp_path / "cfg.yaml"
    config_path.write_text("""
systems:
  - id: probe
    kind: random
    dim: 4
    seed: 17
    tri: true
sweep:
  alpha: {min: -1.0, max: 2.0, step: 0.25}
  p: [1, 2, "inf"]
  t: [1.0]
""")
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli.main(["functionals", "-c", str(config_path),
                         "-o", str(out)]) == 0
        manifest = json.loads((out / "run.json").read_text())
        manifest.pop("wall_time_seconds")
        outputs.append(((out / "curves.csv").read_bytes(), manifest))
    assert outputs[0] == outputs[1]

    start = time.monotonic()
    code = cli.main(["verify"])
    elapsed = time.monotonic() - start
    capsys.readouterr()
    assert code == 0
    assert elapsed < 60.0, f"verify took {elapsed:.1f}s"

    broken = tmp_path / "broken.yaml"
    broken.write_text("systems: [whoops")
    assert cli.main(["verify", "-c", str(broken)]) == 2
    capsys.readouterr()
