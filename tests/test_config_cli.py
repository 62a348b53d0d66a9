import argparse
import errno
import json
import math
import os
import re
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
import yaml

from entroflux import classical as cl
from entroflux import cli, runner
from entroflux import config as cf
from entroflux import fcs as fc
from entroflux import functionals as fn
from entroflux import models as md
from entroflux import pool
from entroflux import quantum as qm
from entroflux import verify as vf
from entroflux.errors import (
    ConfigParseError,
    ConfigValidationError,
    NumericalDomainError,
)
from entroflux.version import __version__

EXAMPLE = Path(__file__).resolve().parents[1] / "configs" / "example.yaml"


def _assert_no_child():
    """Every forked worker has been reaped: this process has no child."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _record_pids(monkeypatch, module, name, path):
    """Patch ``module.name`` to append the calling pid to ``path``; forked
    workers inherit the patch."""
    exact = getattr(module, name)

    def recorded(*args, **kwargs):
        with open(path, "a") as handle:
            handle.write(f"{os.getpid()}\n")
        return exact(*args, **kwargs)

    monkeypatch.setattr(module, name, recorded)


MINIMAL = """
systems:
  - id: chain
    kind: classical
    weights: [0.25, 0.5, 0.25]
"""

QUBIT = """
systems:
  - id: flip
    kind: quantum
    hamiltonian:
      - [0, 1]
      - [1, 0]
    reference_state:
      - [0.75, 0]
      - [0, 0.25]
sweep:
  alpha: [0.0, 0.5, 1.0]
  p: [2, "inf"]
  t: [1.0]
"""


def test_minimal_config_parses_with_defaults():
    cfg = cf.parse_config(MINIMAL)
    assert len(cfg.systems) == 1
    assert cfg.ps == cf.DEFAULT_PS
    assert math.inf in cfg.ps
    assert len(cfg.alphas) == 61


def test_default_config_builds_canonical_junction():
    built = cf.default_config().build_systems()
    assert len(built) == 1
    system_id, tag, model = built[0]
    assert tag == "reservoir"
    assert model.beta_left != model.beta_right
    canonical = md.canonical_model()
    for name in ("hamiltonian", "reference_state", "left_hamiltonian",
                 "right_hamiltonian", "coupling", "beta_left", "beta_right"):
        assert np.array_equal(getattr(model, name), getattr(canonical, name))


def test_alpha_grid_from_range_mapping():
    cfg = cf.parse_config(MINIMAL + """
sweep:
  alpha: {min: -1.0, max: 2.0, step: 0.5}
""")
    np.testing.assert_allclose(cfg.alphas,
                               [-1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0])
    cfg = cf.parse_config(MINIMAL + """
sweep:
  alpha: {min: 0, max: 999999, step: 1}
""")
    assert len(cfg.alphas) == cf.MAX_GRID_POINTS


def _per_element_range(lo, hi, step):
    """A ``{min, max, step}`` grid by one ``np.round`` per element."""
    count = int(math.floor((hi - lo) / step + 1e-9)) + 1
    return tuple(float(np.round(lo + k * step, 12)) for k in range(count))


def test_alpha_range_grid_is_the_per_element_formula_bit_for_bit():
    rng = np.random.default_rng(28)
    ranges = [(-1.0, 2.0, 0.05)]                # the example config's
    for _ in range(600):                        # decimal, as typed
        lo = round(float(rng.uniform(-3, 3)), int(rng.integers(0, 4)))
        step = float(rng.choice([0.001, 0.01, 0.025, 0.05, 0.1, 0.2, 0.25,
                                 0.3, 0.5, 0.7, 1.0, 1.5]))
        ranges.append((lo, lo + step * int(rng.integers(0, 400)), step))
    for _ in range(600):                        # any doubles
        lo, width = rng.uniform(-5, 5), rng.uniform(0, 3)
        ranges.append((lo, lo + width, 10 ** rng.uniform(-2, 0.5)))
    for lo, hi, step in ranges:
        grid = cf._parse_alpha_grid(
            {"min": float(lo), "max": float(hi), "step": float(step)}, "alpha")
        assert [x.hex() for x in grid] == \
            [x.hex() for x in _per_element_range(lo, hi, step)]
    assert cf.load_config(str(EXAMPLE)).alphas == \
        _per_element_range(-1.0, 2.0, 0.05)


@pytest.mark.parametrize("grid,path", [
    ("[0.5, .inf]", r"sweep\.alpha\[1\]"),
    ("[-.inf]", r"sweep\.alpha\[0\]"),
    ("{min: 0, max: .inf, step: 1}", r"sweep\.alpha\.max"),
    ("{min: -.inf, max: 0, step: 1}", r"sweep\.alpha\.min"),
    ("{min: 0, max: 1, step: .inf}", r"sweep\.alpha\.step"),
])
def test_alpha_grid_rejects_non_finite_values(grid, path):
    with pytest.raises(ConfigValidationError, match=path):
        cf.parse_config(MINIMAL + f"\nsweep:\n  alpha: {grid}\n")


@pytest.mark.parametrize("lo,hi,count", [
    ("0", "1000000", "1000001"),
    ("-1.0e308", "1.0e308", "inf"),         # max - min overflows
])
def test_alpha_range_of_over_a_million_points_is_rejected(lo, hi, count):
    with pytest.raises(ConfigValidationError) as info:
        cf.parse_config(MINIMAL + f"\nsweep:\n  alpha: "
                        f"{{min: {lo}, max: {hi}, step: 1}}\n")
    assert str(info.value) == \
        f"sweep.alpha: a range of {count} points exceeds the limit of 1000000"


def test_cli_oversized_alpha_range_exits_two(tmp_path, capsys):
    path = tmp_path / "big.yaml"
    path.write_text(MINIMAL
                    + "sweep:\n  alpha: {min: 0, max: 1.0e6, step: 1.0e-9}\n")
    assert cli.main(["classical", "-c", str(path),
                     "-o", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "config error: sweep.alpha: a range of 1000000000000001 points "
        "exceeds the limit of 1000000\n")


def test_an_empty_config_gives_the_defaults():
    cfg, default = cf.parse_config(""), cf.default_config()
    assert [(e.system_id, e.kind) for e in cfg.systems] == \
        [(e.system_id, e.kind) for e in default.systems]
    assert (cfg.alphas, cfg.ps, cfg.ts, cfg.seed, cfg.tolerances) == \
        (default.alphas, default.ps, default.ts, default.seed, {})
    assert cfg.output_dir is None and cfg.from_file


def test_inf_sentinel_and_p_validation():
    cfg = cf.parse_config(MINIMAL + """
sweep:
  p: [1, 2, "inf"]
""")
    assert cfg.ps[-1] == math.inf
    assert cf.parse_config(MINIMAL + "\nsweep:\n  p: [2, .inf]\n").ps == \
        (2.0, math.inf)
    with pytest.raises(ConfigValidationError, match="p"):
        cf.parse_config(MINIMAL + "\nsweep:\n  p: [-1]\n")


def test_p_grid_rejects_negative_infinity():
    with pytest.raises(ConfigValidationError, match=r"sweep\.p\[1\]"):
        cf.parse_config(MINIMAL + "\nsweep:\n  p: [2, -.inf]\n")


def test_complex_entries_parse_as_pairs():
    cfg = cf.parse_config("""
systems:
  - id: spin
    kind: quantum
    hamiltonian:
      - [0, [0, -1]]
      - [[0, 1], 0]
    reference_state:
      - [0.75, 0]
      - [0, 0.25]
""")
    _, _, system = cfg.build_systems()[0]
    want = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    np.testing.assert_allclose(system.hamiltonian, want)
    assert system.tri is True       # every dim-2 system is time-reversal invariant


JUNCTION = ("kind: two_reservoir, left_hamiltonian: [[0, 0], [0, 1]], "
            "right_hamiltonian: [[0, 0], [0, 1]], beta_left: 1.0, "
            "beta_right: 2.0, coupling: [[0, 0, 0, 0], [0, 0, 0, 0], "
            "[0, 0, 0, 0], [0, 0, 0, 0]]")


def _one_system(body: str) -> str:
    return f"systems: [{{{body}}}]\n"


@pytest.mark.parametrize("text,path", [
    (_one_system("kind: classical"), "systems[0].weights"),
    (_one_system("kind: quantum, hamiltonian: [[0, 1], [1, 0]]"),
     "systems[0].reference_state"),
    (_one_system(JUNCTION.replace(", beta_right: 2.0", "")),
     "systems[0].beta_right"),
    (_one_system("kind: random"), "systems[0].dim"),
    (_one_system("kind: random_classical, seed: 3"), "systems[0].size"),
    (_one_system("kind: random, dim: 2, colour: red"), "systems[0].colour"),
    (_one_system("kind: random, dim: 1"), "systems[0].dim"),
    (_one_system("kind: random, dim: true"), "systems[0].dim"),
    (_one_system("kind: random_classical, size: 1.5"), "systems[0].size"),
    (_one_system("kind: random, dim: 2, seed: -1"), "systems[0].seed"),
    (_one_system("kind: random_classical, size: 3, seed: x"),
     "systems[0].seed"),
    (_one_system("kind: random_classical, size: 3, tri: 1"),
     "systems[0].tri"),
    (_one_system("kind: random, dim: 2, spread: 0"), "systems[0].spread"),
    (_one_system("kind: classical, weights: [0.7, 0.7]"),
     "systems[0].weights"),
    (_one_system(JUNCTION.replace("beta_left: 1.0", "beta_left: -1.0")),
     "systems[0].beta_left"),
    (_one_system("kind: quantum, hamiltonian: [[0, 1, 0], [1, 0, 0]], "
                 "reference_state: [[0.75, 0], [0, 0.25]]"),
     "systems[0].hamiltonian"),
    (_one_system("kind: quantum, hamiltonian: [[0, 1, 0], [1, 0, 0], "
                 "[0, 0, 1]], reference_state: [[0.75, 0], [0, 0.25]]"),
     "systems[0]"),
    (_one_system(JUNCTION.replace("coupling: [[0, 0, 0, 0], [0, 0, 0, 0], "
                                  "[0, 0, 0, 0], [0, 0, 0, 0]]",
                                  "coupling: [[0, 0], [0, 0]]")),
     "systems[0].coupling"),
    (MINIMAL + "output: {curves: 1}\n", "output.curves"),
    (MINIMAL + "seed: true\n", "seed"),
    (MINIMAL + "sweep: [1, 2]\n", "sweep"),
    (_one_system("kind: classical, weights: [.nan, 0.5]"),
     "systems[0].weights[0]"),
    (_one_system(JUNCTION.replace("beta_left: 1.0", "beta_left: hot")),
     "systems[0].beta_left"),
    (_one_system("kind: classical, weights: []"), "systems[0].weights"),
    (_one_system("kind: classical, weights: [0.0, 1.0]"), "systems[0].weights"),
    (_one_system("kind: quantum, hamiltonian: [[0, x], [x, 0]], "
                 "reference_state: [[0.75, 0], [0, 0.25]]"),
     "systems[0].hamiltonian[0][1]"),
    (_one_system("kind: quantum, hamiltonian: 1, "
                 "reference_state: [[0.75, 0], [0, 0.25]]"),
     "systems[0].hamiltonian"),
    (_one_system("kind: quantum, hamiltonian: [0, 1], "
                 "reference_state: [[0.75, 0], [0, 0.25]]"),
     "systems[0].hamiltonian[0]"),
    (_one_system("kind: quantum, hamiltonian: [[0, 1], [1]], "
                 "reference_state: [[0.75, 0], [0, 0.25]]"),
     "systems[0].hamiltonian"),
    (_one_system("kind: magic"), "systems[0].kind"),
    (_one_system("id: '', kind: classical, weights: [1.0]"), "systems[0].id"),
    (_one_system("id: 'a,b', kind: classical, weights: [1.0]"),
     "systems[0].id"),
    (_one_system('id: "a\\rb", kind: classical, weights: [1.0]'),
     "systems[0].id"),
    (_one_system("id: '\"a', kind: classical, weights: [1.0]"),
     "systems[0].id"),
    (MINIMAL + "sweep: {alpha: {min: 0, max: 1}}\n", "sweep.alpha.step"),
    (MINIMAL + "sweep: {alpha: {min: 1, max: 0, step: 0.1}}\n",
     "sweep.alpha"),
    (MINIMAL + "sweep: {p: 2}\n", "sweep.p"),
    (MINIMAL + "sweep: {p: [2, big]}\n", "sweep.p[1]"),
    ("systems: []\n", "systems"),
    (MINIMAL + "sweep: {t: []}\n", "sweep.t"),
    (MINIMAL + "output: {directory: 3}\n", "output.directory"),
], ids=["classical-missing-weights", "quantum-missing-reference-state",
        "junction-missing-beta-right", "random-missing-dim",
        "random-classical-missing-size", "unknown-key", "dim-1", "dim-true",
        "size-1.5", "seed-negative", "seed-string", "tri-integer",
        "spread-zero", "weights-sum", "beta-negative", "hamiltonian-not-square",
        "quantum-shape-mismatch",
        "coupling-dimension", "output-curves-integer", "top-level-seed-bool",
        "section-not-mapping", "weight-nan", "real-not-number",
        "weights-empty", "weights-nonpositive", "matrix-bad-entry",
        "matrix-not-list", "matrix-row-not-list", "matrix-ragged",
        "kind-unknown", "id-empty", "id-comma", "id-carriage-return",
        "id-quote", "range-missing-step",
        "range-max-below-min", "p-not-list", "p-bad-string", "systems-empty",
        "t-empty", "directory-not-string"])
def test_error_messages_name_offending_key(text, path):
    with pytest.raises(ConfigValidationError) as info:
        cf.parse_config(text)
    assert str(info.value).startswith(f"{path}: ")


@pytest.mark.parametrize("key,body", [
    ("beta_left", JUNCTION.replace("beta_left: 1.0", "beta_left: .inf")),
    ("beta_right", JUNCTION.replace("beta_right: 2.0", "beta_right: .inf")),
    ("spread", "kind: random, dim: 2, spread: .inf"),
], ids=["beta_left", "beta_right", "spread"])
def test_non_finite_positive_reals_rejected_at_parse_time(key, body):
    with pytest.raises(ConfigValidationError) as info:
        cf.parse_config(_one_system(body))
    assert str(info.value) == f"systems[0].{key}: must be finite, got inf"


SKEW = "[[0, 1], [2, 0]]"


@pytest.mark.parametrize("key,body", [
    ("hamiltonian", f"kind: quantum, hamiltonian: {SKEW}, "
                    "reference_state: [[0.75, 0], [0, 0.25]]"),
    ("reference_state", "kind: quantum, hamiltonian: [[0, 1], [1, 0]], "
                        "reference_state: [[0.5, 1], [2, 0.5]]"),
    ("left_hamiltonian", JUNCTION.replace("left_hamiltonian: [[0, 0], [0, 1]]",
                                          f"left_hamiltonian: {SKEW}")),
    ("right_hamiltonian", JUNCTION.replace(
        "right_hamiltonian: [[0, 0], [0, 1]]", f"right_hamiltonian: {SKEW}")),
    ("coupling", JUNCTION.replace("[[0, 0, 0, 0], [0, 0, 0, 0]",
                                  "[[0, 1, 0, 0], [2, 0, 0, 0]")),
], ids=["hamiltonian", "reference_state", "left_hamiltonian",
        "right_hamiltonian", "coupling"])
def test_non_hermitian_inline_matrices_rejected(key, body):
    with pytest.raises(ConfigValidationError) as info:
        cf.parse_config(_one_system(body))
    assert str(info.value) == (f"systems[0].{key}: deviates from Hermitian "
                               f"by 5.000e-01 (tolerance 2.000e-12)")


def test_non_finite_matrix_entry_rejected_at_parse_time():
    with pytest.raises(ConfigValidationError) as info:
        cf.parse_config(_one_system(
            "kind: quantum, hamiltonian: [[0, 1], [1, [0, .nan]]], "
            "reference_state: [[0.75, 0], [0, 0.25]]"))
    assert str(info.value) == \
        "systems[0].hamiltonian[1][1]: must be finite, got [0, nan]"


def test_hermitian_up_to_rounding_is_accepted():
    cfg = cf.parse_config(_one_system(
        "kind: quantum, hamiltonian: [[0, 1], [1.00000000000001, 0]], "
        "reference_state: [[0.75, 0], [0, 0.25]]"))
    _, _, system = cfg.build_systems()[0]
    assert system.hamiltonian[0, 1] == pytest.approx(1.0, abs=1e-13)


def test_cli_non_hermitian_hamiltonian_exits_two(tmp_path, capsys):
    bad = tmp_path / "skew.yaml"
    bad.write_text(QUBIT.replace("- [1, 0]\n    reference_state",
                                 "- [2, 0]\n    reference_state"))
    assert cli.main(["functionals", "-c", str(bad),
                     "-o", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert "systems[0].hamiltonian: deviates from Hermitian by 5.000e-01" in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("text,read", [
    ("systems: [{kind: random, dim: 2, spread: 1e-3}]\n",
     lambda cfg: cfg.systems[0].params["spread"]),
    (MINIMAL + "tolerances: {tv: 1e-3}\n", lambda cfg: cfg.tolerances["tv"]),
    (MINIMAL + "sweep: {alpha: {min: 0, max: 0.002, step: 1E-3}}\n",
     lambda cfg: cfg.alphas[1]),
], ids=["spread", "tolerances.tv", "sweep.alpha.step"])
def test_exponent_literals_without_a_point_are_numbers(text, read):
    assert read(cf.parse_config(text)) == 1e-3


@pytest.mark.parametrize("literal,value", [
    ("1.0e3", 1000.0), ("2.5E2", 250.0), (".5e1", 5.0), ("1.e3", 1000.0),
    ("+1.0e3", 1000.0), ("1.5e-1", 0.15), ("1.5E+2", 150.0), ("2.", 2.0),
])
def test_exponent_literals_with_a_point_are_numbers(literal, value):
    cfg = cf.parse_config(
        f"systems: [{{kind: random, dim: 2, spread: {literal}}}]\n")
    assert cfg.systems[0].params["spread"] == value


def test_integers_point_exponents_and_inf_parse_as_before():
    cfg = cf.parse_config(MINIMAL + """
sweep: {p: [1, 2.0e+0, "inf"], t: [1, 1.0e-9]}
tolerances: {tv: 1.0e-9}
seed: 7
""")
    assert cfg.ps == (1.0, 2.0, math.inf)
    assert cfg.ts == (1.0, 1e-9)
    assert cfg.tolerances == {"tv": 1e-9}
    assert cfg.seed == 7 and isinstance(cfg.seed, int)


def test_libyaml_and_python_loaders_read_the_same_values():
    # the config loader parses with libyaml where PyYAML has it; its pure
    # Python base, given the same resolvers, reads every value alike
    assert issubclass(cf._Loader, getattr(yaml, "CSafeLoader", ())) == \
        yaml.__with_libyaml__
    python = type("PythonLoader", (yaml.SafeLoader,),
                  {"yaml_implicit_resolvers": cf._Loader.yaml_implicit_resolvers})
    literals = "[1e-3, 1.0e3, .5e1]"
    assert yaml.load(literals, Loader=cf._Loader) == [1e-3, 1000.0, 5.0]
    for text in (EXAMPLE.read_text(), literals):
        assert yaml.load(text, Loader=cf._Loader) == \
            yaml.load(text, Loader=python)


def test_hand_built_entry_of_unknown_kind_rejected():
    with pytest.raises(ConfigValidationError, match=r"^systems\.x\.kind: "):
        cf.SystemEntry("x", "bogus").build()


def test_malformed_text_raises_parse_error():
    with pytest.raises(ConfigParseError):
        cf.parse_config("systems: [")
    with pytest.raises(ConfigParseError):
        cf.load_config("/nonexistent/config.yaml")


def test_duplicate_ids_rejected():
    with pytest.raises(ConfigValidationError, match="id"):
        cf.parse_config("""
systems:
  - id: twin
    kind: classical
    weights: [0.5, 0.5]
  - id: twin
    kind: classical
    weights: [0.25, 0.75]
""")


def test_unknown_keys_rejected():
    with pytest.raises(ConfigValidationError):
        cf.parse_config(MINIMAL + "\nfrobnicate: 1\n")
    with pytest.raises(ConfigValidationError):
        cf.parse_config("""
systems:
  - id: chain
    kind: classical
    weights: [0.5, 0.5]
    extra_key: 1
""")


def test_empty_grids_rejected():
    with pytest.raises(ConfigValidationError, match="alpha"):
        cf.parse_config(MINIMAL + "\nsweep:\n  alpha: []\n")
    with pytest.raises(ConfigValidationError, match="t"):
        cf.parse_config(MINIMAL + "\nsweep:\n  t: [0.0]\n")


def test_tolerance_overrides_validated():
    cfg = cf.parse_config(MINIMAL + "\ntolerances:\n  tv: 1.0e-9\n")
    assert cfg.tolerances == {"tv": 1e-9}
    with pytest.raises(ConfigValidationError):
        cf.parse_config(MINIMAL + "\ntolerances:\n  bogus: 1.0\n")


def test_classical_times_filters_integer_entries():
    cfg = cf.parse_config(MINIMAL + "\nsweep:\n  t: [0.5, 1.0, 2.0]\n")
    assert cfg.classical_times() == (1, 2)


def test_classical_times_need_an_integer_entry(tmp_path, capsys):
    message = "sweep.t: classical sweeps need at least one integer t >= 1"
    cfg = cf.parse_config(MINIMAL + "\nsweep:\n  t: [0.5, 1.5]\n")
    with pytest.raises(ConfigValidationError, match=message):
        cfg.classical_times()
    bad = tmp_path / "half.yaml"
    bad.write_text(MINIMAL + "\nsweep:\n  t: [0.5]\n")
    for subcommand in ("functionals", "fcs", "classical"):
        assert cli.main([subcommand, "-c", str(bad),
                         "-o", str(tmp_path / "x")]) == 2
        assert message in capsys.readouterr().err


# -- formatting and table layer -------------------------------------------


def test_seventeen_digits_round_trip():
    for x in (math.pi, 1 / 3, 1e-300, 0.1 + 0.2, -math.e ** 10):
        text = runner.format_cell(x)
        assert struct.pack("<d", float(text)) == struct.pack("<d", x)
    assert runner.format_cell(math.inf) == "inf"


def test_result_table_layout():
    table = runner.ResultTable(("a", "b"))
    table.append("x", 1.5)
    table.append("y", None)
    assert table.to_csv() == "a,b\nx,1.5\ny,\n"
    with pytest.raises(ValueError):
        table.append("too", "many", "cells")


def _csv_rows(table) -> list:
    """The data rows of a table's CSV text, split into cells."""
    return [line.split(",") for line in table.to_csv().splitlines()[1:]]


def test_block_renders_like_rows_appended_one_by_one():
    atoms = np.array([-math.inf, math.inf, math.nan, -0.0, 5e-324, 1e-300])
    weights = np.array([0.5, 1 / 3, 0.1 + 0.2, 1.0, -2.5, 7.0])
    block = runner.ResultTable(runner.DISTRIBUTION_COLUMNS)
    block.append("100%-d", 1.5, atoms, weights, None)
    rows = runner.ResultTable(runner.DISTRIBUTION_COLUMNS)
    for atom, weight in zip(atoms, weights):
        rows.append("100%-d", 1.5, atom, weight, None)
    text = block.to_csv()
    assert text == rows.to_csv()
    assert text.splitlines()[1:4] == ["100%-d,1.5,-inf,0.5,",
                                      "100%-d,1.5,inf,0.33333333333333331,",
                                      "100%-d,1.5,nan,0.30000000000000004,"]
    assert len(block) == len(rows) == 6
    assert _csv_rows(block) == _csv_rows(rows)
    assert [row[3] for row in _csv_rows(block)] == \
        ["%.17g" % w for w in weights]
    # a block long enough for the vectorized rendering, over three chunks
    rng = np.random.default_rng(3)
    count = 2 * runner.CHUNK_ROWS + 7
    assert count >= runner.VECTOR_ROWS
    ties = (2 * rng.integers(2 ** 16, 5 * 2 ** 17, size=40) + 1) * 2.0 ** -17
    special = np.array([-math.inf, math.inf, math.nan, -0.0, 0.0, 5e-324,
                        -1e-300, 1e16, 1e17, 1e-5, 1e-4, 1000000000000000.25,
                        1000000000000000.75, np.finfo(float).max])
    spread = rng.standard_normal(count) * 10.0 ** rng.integers(-320, 300, count)
    atoms = np.concatenate([special, ties, spread])[:count]
    weights = np.concatenate([-ties, special, rng.random(count)])[:count]
    block = runner.ResultTable(runner.DISTRIBUTION_COLUMNS)
    block.append("100%-d", 1.5, atoms, weights, "P")
    rows = runner.ResultTable(runner.DISTRIBUTION_COLUMNS)
    for atom, weight in zip(atoms, weights):
        rows.append("100%-d", 1.5, atom, weight, "P")
    assert block.to_csv() == rows.to_csv()
    assert len(block) == len(rows) == count
    assert block.to_csv().splitlines()[1:3] == [
        "100%-d,1.5,-inf," + "%.17g" % -ties[0] + ",P",
        "100%-d,1.5,inf," + "%.17g" % -ties[1] + ",P"]


def test_streamed_writer_and_to_csv_give_the_same_bytes(tmp_path):
    table = runner.ResultTable(runner.CURVE_COLUMNS)
    table.append("100%-d", 2.0, 1.0, np.array([-0.5, 1 / 3, math.inf]),
                 np.array([0.1 + 0.2, -0.0, math.nan]))
    table.append("scalars %s", None, 0.5, 1e-300, -2.5)
    table.append("one-row", math.inf, 3.0, np.array([0.25]), np.array([7.0]))
    cfg = cf.parse_config(QUBIT)
    runner.write_outputs(str(tmp_path), "functionals", {"curves": table},
                         cfg, 0.0)
    text = table.to_csv()
    assert (tmp_path / "curves.csv").read_bytes() == text.encode()
    assert text == "\n".join([
        "system_id,p,t,alpha,value",
        "100%-d,2,1,-0.5,0.30000000000000004",
        "100%-d,2,1,0.33333333333333331,-0",
        "100%-d,2,1,inf,nan",
        "scalars %s,,0.5,1e-300,-2.5",
        "one-row,inf,3,0.25,7"]) + "\n"
    assert len(table) == 5


def test_block_shape_errors():
    table = runner.ResultTable(runner.CURVE_COLUMNS)
    with pytest.raises(ValueError):
        table.append("s", None, 1.0, np.zeros(3))
    with pytest.raises(ValueError):
        table.append("s", None, 1.0, np.zeros(3), np.zeros(4))
    assert len(table) == 0


def test_run_functionals_row_count_and_order():
    cfg = cf.parse_config(QUBIT)
    curves = runner.run_functionals(cfg)["curves"]
    rows = _csv_rows(curves)
    assert len(rows) == 6
    assert [row[1] for row in rows] == ["2", "2", "2", "inf", "inf", "inf"]
    assert [row[3] for row in rows[:3]] == ["0", "0.5", "1"]


def test_run_functionals_needs_integer_time_for_classical():
    cfg = cf.parse_config(MINIMAL + "\nsweep:\n  t: [0.5]\n")
    with pytest.raises(ConfigValidationError, match="t"):
        runner.run_functionals(cfg)


def test_run_classical_skips_the_t_grid_without_classical_systems(
        tmp_path, capsys):
    text = QUBIT.replace("t: [1.0]", "t: [0.5]")
    assert "t: [0.5]" in text
    tables = runner.run_classical(cf.parse_config(text))
    assert not any(len(table) for table in tables.values())
    path = tmp_path / "quantum.yaml"
    path.write_text(text)
    out = tmp_path / "out"
    assert cli.main(["classical", "-c", str(path), "-o", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["run.json"]
    # a classical system still needs an integer time
    with pytest.raises(ConfigValidationError, match="sweep.t: classical"):
        runner.run_classical(cf.parse_config(MINIMAL + "sweep:\n  t: [0.5]\n"))


def _record_builds(monkeypatch, refuse=()):
    """Patch every builder to append its kind to the returned list; those
    of the kinds in ``refuse`` raise as a build-time error does."""
    built = []
    for kind, (tag, schema, builder) in list(cf._KINDS.items()):
        def recorded(params, seed, kind=kind, builder=builder):
            built.append(kind)
            if kind in refuse:
                raise ValueError(f"{kind} builder called")
            return builder(params, seed)
        monkeypatch.setitem(cf._KINDS, kind, (tag, schema, recorded))
    return built


EXAMPLE_KINDS = ["classical", "quantum", "two_reservoir", "random",
                 "random_classical"]


@pytest.mark.parametrize("subcommand,kinds", [
    ("classical", ["classical", "random_classical"]),
    ("model", ["two_reservoir"]),
    ("functionals", EXAMPLE_KINDS),
    ("fcs", EXAMPLE_KINDS),
])
def test_each_subcommand_builds_the_kinds_it_reads(tmp_path, monkeypatch,
                                                   capsys, subcommand, kinds):
    built = _record_builds(monkeypatch)
    assert cli.main([subcommand, "-c", str(EXAMPLE),
                     "-o", str(tmp_path)]) == 0
    assert built == kinds


def test_verify_builds_every_entry_of_the_config(monkeypatch):
    built = _record_builds(monkeypatch)
    runner.execute(cf.load_config(str(EXAMPLE)), "verify", None)
    # then each of the determinism row's two sweeps builds its canonical
    # junction and its random system
    assert built == EXAMPLE_KINDS + ["two_reservoir", "random"] * 2


QUANTUM_KINDS = ("random", "quantum", "two_reservoir")


def test_classical_never_calls_a_quantum_builder(tmp_path, monkeypatch):
    exact = tmp_path / "exact"
    assert cli.main(["classical", "-c", str(EXAMPLE), "-o", str(exact)]) == 0
    _record_builds(monkeypatch, refuse=QUANTUM_KINDS)
    skipped = tmp_path / "skipped"
    assert cli.main(["classical", "-c", str(EXAMPLE),
                     "-o", str(skipped)]) == 0
    for name in ("curves.csv", "distributions.csv", "checks.csv"):
        assert (skipped / name).read_bytes() == (exact / name).read_bytes()
    manifests = [json.loads((out / "run.json").read_text())
                 for out in (exact, skipped)]
    for manifest in manifests:
        manifest.pop("wall_time_seconds")
    assert manifests[0] == manifests[1]


def test_model_skips_the_entries_that_are_not_reservoirs(monkeypatch,
                                                         capsys):
    assert cli.main(["model", "-c", str(EXAMPLE)]) == 0
    exact = capsys.readouterr().out
    assert exact.startswith("system two-qubit-junction\n")
    _record_builds(monkeypatch, refuse=set(cf._KINDS) - {"two_reservoir"})
    assert cli.main(["model", "-c", str(EXAMPLE)]) == 0
    assert capsys.readouterr().out == exact


@pytest.mark.parametrize("subcommand", ["functionals", "fcs", "verify"])
def test_the_other_subcommands_still_build_every_entry(tmp_path, monkeypatch,
                                                       capsys, subcommand):
    _record_builds(monkeypatch, refuse=QUANTUM_KINDS)
    assert cli.main([subcommand, "-c", str(EXAMPLE),
                     "-o", str(tmp_path)]) == 2
    assert "systems.flip-qubit: quantum builder called" in \
        capsys.readouterr().err


def test_a_build_error_surfaces_only_where_the_entry_is_read(tmp_path,
                                                             capsys):
    # parses, but its state is below the positivity floor: a build error
    path = tmp_path / "floor.yaml"
    path.write_text(MINIMAL + """
  - id: pure
    kind: quantum
    hamiltonian: [[0, 1], [1, 0]]
    reference_state: [[1, 0], [0, 0]]
""")
    cf.load_config(str(path))
    assert cli.main(["classical", "-c", str(path),
                     "-o", str(tmp_path / "classical")]) == 0
    capsys.readouterr()
    for subcommand in ("functionals", "fcs", "verify"):
        assert cli.main([subcommand, "-c", str(path),
                         "-o", str(tmp_path / subcommand)]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: systems.pure: ")


def test_determinism_row_compares_pooled_sweeps(monkeypatch, tmp_path, forks):
    pids = tmp_path / "pids"
    _record_pids(monkeypatch, fn, "functional", pids)
    monkeypatch.setattr(pool, "cpu_count", lambda: 2)
    [row] = runner._determinism_check()
    assert (row.name, row.residual, row.status) == \
        ("runner_determinism", 0.0, vf.PASS)
    # 4 curves: the junction's 2 here in both runs, the dim-16 system's 2
    # here in the one-worker run and shared with one forked child in the other
    seen = pids.read_text().split()
    assert len(seen) == 8 and 6 <= seen.count(str(os.getpid())) <= 8
    assert len(set(seen)) <= 2
    assert forks == [1]
    _assert_no_child()


def test_run_functionals_leaves_no_thread_behind(monkeypatch, forks):
    # a later fork is safe only while no other thread runs
    monkeypatch.setattr(pool, "cpu_count", lambda: 2)
    cfg = cf.parse_config("systems: [{id: dense, kind: random, dim: 16}]\n"
                          "sweep: {alpha: [0.5], p: [2], t: [1, 2]}\n")
    before = threading.active_count()
    assert len(runner.run_functionals(cfg)["curves"]) == 2
    assert forks == [1]
    assert threading.active_count() == before
    _assert_no_child()


def test_run_fcs_emits_both_measures_and_identity_row():
    cfg = cf.parse_config(QUBIT)
    tables = runner.run_fcs(cfg)
    measures = {row[4] for row in _csv_rows(tables["distributions"])}
    assert measures == {"P", "Q"}
    check_rows = _csv_rows(tables["checks"])
    assert any(row[1] == "fcs_tv_distance" and row[4] == "pass"
               for row in check_rows)


def test_run_classical_check_rows():
    cfg = cf.parse_config("""
systems:
  - id: palindrome
    kind: classical
    weights: [0.2, 0.3, 0.3, 0.2]
  - id: lopsided
    kind: classical
    weights: [0.1, 0.2, 0.3, 0.4]
sweep:
  t: [1, 2]
""")
    status = {(row[0], row[1]): row[4]
              for row in _csv_rows(runner.run_classical(cfg)["checks"])}
    assert status == {
        ("palindrome", "classical_identity_fourway"): "pass",
        ("palindrome", "classical_symmetry"): "pass",
        ("lopsided", "classical_identity_fourway"): "pass",
        ("lopsided", "classical_symmetry_breaks"): "xfail",
    }


def test_write_outputs_and_manifest(tmp_path):
    cfg = cf.parse_config(QUBIT)
    tables = runner.run_functionals(cfg)
    manifest = runner.write_outputs(str(tmp_path), "functionals", tables,
                                    cfg, 1.23)
    assert (tmp_path / "curves.csv").exists()
    stored = json.loads((tmp_path / "run.json").read_text())
    assert stored["rows"] == {"curves": 6}
    assert stored["subcommand"] == "functionals"
    assert stored["config_sha256"] == manifest["config_sha256"]
    header = (tmp_path / "curves.csv").read_text().splitlines()[0]
    assert header == "system_id,p,t,alpha,value"


def test_outputs_byte_identical_across_runs(tmp_path):
    cfg = cf.parse_config(QUBIT)
    paths = []
    for name in ("one", "two"):
        out = tmp_path / name
        runner.write_outputs(str(out), "functionals",
                             runner.run_functionals(cfg), cfg, 0.0)
        paths.append(out / "curves.csv")
    assert paths[0].read_bytes() == paths[1].read_bytes()


# a pooled system (dim 16) between a serial quantum system and a classical chain
MIXED = """
systems:
  - id: flip
    kind: quantum
    hamiltonian: [[0, 1], [1, 0]]
    reference_state: [[0.75, 0], [0, 0.25]]
  - id: dense
    kind: random
    dim: 16
    seed: 5
  - id: chain
    kind: random_classical
    size: 9
    seed: 2
sweep:
  alpha: [-0.5, 0.0, 0.25, 0.5, 1.0, 1.5]
  p: [1, 2, 3, "inf"]
  t: [1, 2]
"""


def test_functionals_tables_do_not_depend_on_the_worker_count(monkeypatch,
                                                               tmp_path, forks):
    pids = tmp_path / "pids"
    _record_pids(monkeypatch, fn, "functional", pids)
    tables = {}
    for workers in (1, 2, 8):
        pids.write_text("")
        forks.clear()
        monkeypatch.setattr(pool, "cpu_count", lambda: workers)
        tables[workers] = runner.run_functionals(
            cf.parse_config(MIXED))["curves"].to_csv()
        # 8 curves of flip, always here; 8 of dense, shared with a forked
        # child per extra CPU, up to one worker per curve
        seen = pids.read_text().split()
        assert len(seen) == 16
        assert seen.count(str(os.getpid())) >= (16 if workers == 1 else 8)
        assert len(set(seen)) <= min(workers, 8)
        assert forks == [1] * (min(workers, 8) - 1)
        _assert_no_child()
    serial = tables[1]
    assert tables[2] == serial and tables[8] == serial
    assert [line.split(",", 1)[0] for line in serial.splitlines()[1::6]] == \
        ["flip"] * 8 + ["dense"] * 8 + ["chain"] * 2


def test_domain_error_in_a_worker_names_the_first_failing_curve(monkeypatch):
    # alpha = 50 overflows at p = 1 on this spectrum, at every t
    text = MIXED.replace("seed: 5", "seed: 5\n    spread: 12").replace(
        "alpha: [", "alpha: [50, ").replace("t: [1, 2]", "t: [0.5, 1, 2]")
    messages = []
    for workers in (1, 2):
        monkeypatch.setattr(pool, "cpu_count", lambda: workers)
        with pytest.raises(NumericalDomainError) as caught:
            runner.run_functionals(cf.parse_config(text))
        messages.append(str(caught.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("functionals on system dense: ")
    assert "p=1.0, alpha=50.0, t=0.5" in messages[0]


# -- command line ----------------------------------------------------------


def test_cli_functionals_writes_files(tmp_path, capsys):
    config_path = tmp_path / "cfg.yaml"
    config_path.write_text(QUBIT)
    out = tmp_path / "data"
    code = cli.main(["functionals", "-c", str(config_path),
                     "-o", str(out)])
    assert code == 0
    assert (out / "curves.csv").exists()
    assert (out / "run.json").exists()
    assert "6 rows" in capsys.readouterr().out


FLAGS = ["-c", "cfg.yaml", "-o", "out", "--seed", "3",
         "--tolerance", "tv=1e-9", "--tolerance", "symmetry=2e-9"]
HELP_LINES = [
    "functionals  sweep the deformed entropic functionals",
    "fcs          counting and modular spectral measures with CGF",
    "classical    classical functional sweep and rate distribution",
    "verify       run the full invariant battery",
    "model        print the assembled two-reservoir system",
]


@pytest.mark.parametrize("argv", [
    ["classical"] + FLAGS,
    FLAGS + ["classical"],
    FLAGS[:4] + ["classical"] + FLAGS[4:],
])
def test_flags_parse_alike_before_and_after_the_subcommand(argv):
    assert vars(cli._build_parser().parse_args(argv)) == {
        "subcommand": "classical", "config": "cfg.yaml", "output_dir": "out",
        "seed": 3, "tolerance": ["tv=1e-9", "symmetry=2e-9"]}


@pytest.mark.parametrize("argv,code,stream,pieces", [
    (["--version"], 0, "out", [f"{__version__}\n"]),
    (["-h"], 0, "out", HELP_LINES),
    (["classical", "-h"], 0, "out", HELP_LINES),
    (["-o", "out", "--help"], 0, "out", HELP_LINES),
    (["bogus"], 2, "err", ["usage: entroflux [-h] [--version] ",
                           "invalid choice: 'bogus'"]),
    ([], 2, "err", ["usage: entroflux [-h] [--version] ",
                    "required: subcommand"]),
    (["classical", "--seed", "x"], 2, "err", ["usage: entroflux [-h] ",
                                             "--seed: invalid int value"]),
])
def test_parser_exits_print_version_help_or_usage(argv, code, stream, pieces,
                                                  capsys):
    with pytest.raises(SystemExit) as caught:
        cli.main(argv)
    assert caught.value.code == code
    text = getattr(capsys.readouterr(), stream)
    assert all(piece in text for piece in pieces), text


def test_one_main_call_builds_one_argument_parser(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert cli.main(["model"]) == 0
    assert len(built) == 1


@pytest.mark.parametrize("subcommand", ["classical", "verify"])
def test_cli_unwritable_output_dir_exits_two_before_the_run(
        subcommand, monkeypatch, tmp_path, capsys):
    config_path, taken = tmp_path / "cfg.yaml", tmp_path / "taken"
    config_path.write_text(MINIMAL)
    taken.write_text("")

    def never(*args):
        raise AssertionError("the run started")

    monkeypatch.setattr(runner, "run_classical", never)
    monkeypatch.setattr(vf, "run_battery", never)
    for out in (taken, taken / "sub"):
        code = cli.main([subcommand, "-c", str(config_path), "-o", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(
            f"output error: cannot write to directory {out}: ")


def test_cli_verify_defaults_pass(capsys):
    assert cli.main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "summary:" in out
    assert " 0 fail" in out


def test_cli_verify_reports_failure_with_exit_one(capsys):
    code = cli.main(["verify", "--tolerance", "symmetry=1e-30"])
    assert code == 1
    assert "fail" in capsys.readouterr().out


def test_cli_config_errors_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("systems: [")
    assert cli.main(["verify", "-c", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err

    bad.write_text(MINIMAL + "\nsweep:\n  p: [0.5]\n")
    assert cli.main(["functionals", "-c", str(bad),
                     "-o", str(tmp_path / "x")]) == 2

    assert cli.main(["model", "--seed", "-1"]) == 2
    assert "config error: seed: " in capsys.readouterr().err


@pytest.mark.parametrize("subcommand", ["functionals", "fcs", "classical"])
def test_cli_non_finite_alpha_exits_two(tmp_path, capsys, subcommand):
    bad = tmp_path / "bad.yaml"
    chain = MINIMAL.replace("systems:\n", "")
    bad.write_text(QUBIT.replace("sweep:", chain + "sweep:")
                   .replace("alpha: [0.0, 0.5, 1.0]", "alpha: [0.5, .inf]"))
    assert cli.main([subcommand, "-c", str(bad),
                     "-o", str(tmp_path / "x")]) == 2
    assert "sweep.alpha[1]" in capsys.readouterr().err


def test_cli_unknown_tolerance_exits_two(capsys):
    assert cli.main(["verify", "--tolerance", "bogus=1"]) == 2
    assert cli.main(["verify", "--tolerance", "tv"]) == 2
    assert "config error" in capsys.readouterr().err
    assert cli.main(["verify", "--tolerance", "tv=abc"]) == 2
    assert capsys.readouterr().err == \
        "config error: tolerance override tv: 'abc' is not a number\n"


def test_cli_numerical_domain_exits_three(monkeypatch, tmp_path, capsys):
    def boom(cfg):
        raise NumericalDomainError("synthetic breakdown")

    monkeypatch.chdir(tmp_path)         # the default output directory is made first
    monkeypatch.setattr(runner, "run_functionals", boom)
    monkeypatch.setitem(cli.__dict__, "runner", runner)
    assert cli.main(["functionals"]) == 3
    assert "numerical domain error" in capsys.readouterr().err


def test_cli_verify_domain_error_names_row_and_system(tmp_path, capsys,
                                                       monkeypatch):
    exact = fn.variational_max

    def breaks_on_dim_3(system, alpha, t):
        if system.dim == 3:     # no built-in system has dim 3 and this route
            raise NumericalDomainError("synthetic breakdown")
        return exact(system, alpha, t)

    monkeypatch.setattr(fn, "variational_max", breaks_on_dim_3)
    path = tmp_path / "probe.yaml"
    path.write_text("systems:\n  - {id: probe-3, kind: random, dim: 3, seed: 2}\n")
    assert cli.main(["verify", "-c", str(path)]) == 3
    err = capsys.readouterr().err
    assert "numerical domain error: functional_variational on system probe-3: " \
           "synthetic breakdown" in err


def test_cli_verify_domain_error_writes_the_rows_that_ran(tmp_path, capsys,
                                                         monkeypatch):
    text = "systems:\n  - {id: probe-3, kind: random, dim: 3, seed: 2}\n"
    tol = vf.merge_tolerances()
    roster = [r for sid, kind, obj in vf.default_systems()
              for r in vf.check_system(sid, kind, obj, tol)]
    [(sid, kind, obj)] = cf.parse_config(text).build_systems()
    probe = vf.check_system(sid, kind, obj, tol)
    failing = [r.name for r in probe].index("functional_variational")
    exact = fn.variational_max

    def breaks_on_dim_3(system, alpha, t):
        if system.dim == 3:     # no built-in system has dim 3 and this route
            raise NumericalDomainError("synthetic breakdown")
        return exact(system, alpha, t)

    monkeypatch.setattr(fn, "variational_max", breaks_on_dim_3)
    path, out = tmp_path / "probe.yaml", tmp_path / "out"
    path.write_text(text)
    assert cli.main(["verify", "-c", str(path), "-o", str(out)]) == 3
    assert "functional_variational on system probe-3" in capsys.readouterr().err
    ran = roster + probe[:failing]
    assert (out / "checks.csv").read_text() == runner.checks_to_table(ran).to_csv()
    assert json.loads((out / "run.json").read_text())["rows"] == {"checks": len(ran)}


# two dim-16 systems, handed out first, among smaller ones
POOLED = """
systems:
  - {id: small, kind: random, dim: 3, seed: 4}
  - {id: dense-a, kind: random, dim: 16, seed: 5}
  - {id: chain, kind: random_classical, size: 5, seed: 2}
  - {id: dense-b, kind: random, dim: 16, seed: 6, tri: true}
"""


def _verify_at(monkeypatch, tmp_path, workers, name):
    """``verify`` on ``POOLED`` with ``workers`` CPUs: (exit code, checks.csv)."""
    monkeypatch.setattr(pool, "cpu_count", lambda: workers)
    path, out = tmp_path / "pooled.yaml", tmp_path / name
    path.write_text(POOLED)
    code = cli.main(["verify", "-c", str(path), "-o", str(out)])
    return code, (out / "checks.csv").read_text()


def test_verify_tables_do_not_depend_on_the_worker_count(monkeypatch, tmp_path,
                                                          capsys, forks):
    pids = tmp_path / "pids"

    class Recorded(vf.Context):     # one per checked system
        def __init__(self, kind, system):
            with open(pids, "a") as handle:     # also written by forked workers
                handle.write(f"{os.getpid()}\n")
            super().__init__(kind, system)

    monkeypatch.setattr(vf, "Context", Recorded)
    systems = len(vf.default_systems()) + 4 + len(vf.fixed_systems())  # 4 in POOLED
    tables = {}
    for workers in (1, 2, 8):
        pids.write_text("")
        forks.clear()
        code, tables[workers] = _verify_at(monkeypatch, tmp_path, workers,
                                           f"w{workers}")
        assert code == 0
        seen = pids.read_text().split()
        assert len(seen) == systems
        # this process is a worker too: it checks the smallest systems
        assert str(os.getpid()) in seen
        assert len(set(seen)) <= workers
        # a forked child per extra CPU up to one worker per system, then for
        # the determinism row's pooled run up to one worker per curve of its
        # 2, each forked before any helper thread
        assert forks == [1] * (min(workers, systems) - 1 + min(workers, 2) - 1)
        _assert_no_child()
    assert tables[2] == tables[1] and tables[8] == tables[1]
    ids = [line.split(",", 1)[0] for line in tables[1].splitlines()[1:]]
    order = [sid for k, sid in enumerate(ids) if k == 0 or ids[k - 1] != sid]
    assert order[9:13] == ["small", "dense-a", "chain", "dense-b"]


def _refuse_every_fork(monkeypatch):
    def refused():
        raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(os, "fork", refused)


def test_verify_with_every_fork_refused_writes_a_one_worker_run(
        monkeypatch, tmp_path, capsys):
    code, serial = _verify_at(monkeypatch, tmp_path, 1, "serial")
    assert code == 0
    _refuse_every_fork(monkeypatch)
    descriptors = len(os.listdir("/proc/self/fd"))
    assert _verify_at(monkeypatch, tmp_path, 2, "refused") == (0, serial)
    assert len(os.listdir("/proc/self/fd")) == descriptors
    assert "output error" not in capsys.readouterr().err


def test_functionals_with_every_fork_refused_writes_a_one_worker_run(
        monkeypatch, tmp_path, capsys):
    path = tmp_path / "mixed.yaml"
    path.write_text(MIXED)

    def curves_at(workers, name):
        monkeypatch.setattr(pool, "cpu_count", lambda: workers)
        out = tmp_path / name
        assert cli.main(["functionals", "-c", str(path), "-o", str(out)]) == 0
        return (out / "curves.csv").read_bytes()

    serial = curves_at(1, "serial")
    _refuse_every_fork(monkeypatch)
    assert curves_at(2, "refused") == serial


@pytest.mark.parametrize("subcommand, off, kept", [
    ("functionals", "curves", []),
    ("fcs", "distributions", ["checks", "curves"]),
    ("verify", "checks", []),
])
def test_an_output_switched_off_is_neither_written_nor_counted(
        tmp_path, capsys, subcommand, off, kept):
    path, out = tmp_path / "off.yaml", tmp_path / "out"
    path.write_text(QUBIT + f"output:\n  {off}: false\n")
    assert cli.main([subcommand, "-c", str(path), "-o", str(out)]) == 0
    assert sorted(p.name for p in out.glob("*.csv")) == \
        [f"{name}.csv" for name in kept]
    rows = json.loads((out / "run.json").read_text())["rows"]
    assert sorted(rows) == kept and all(rows.values())


def test_verify_worker_death_exits_four_with_the_rows_before_it(
        monkeypatch, tmp_path, capsys):
    exact, parent = fn.variational_max, os.getpid()

    def dies_on_dim_16(system, alpha, t):
        if system.dim == 16 and os.getpid() != parent:
            os._exit(9)         # as an out-of-memory kill ends a worker
        return exact(system, alpha, t)

    monkeypatch.setattr(fn, "variational_max", dies_on_dim_16)
    monkeypatch.setattr(pool, "cpu_count", lambda: 2)
    path, out = tmp_path / "dies.yaml", tmp_path / "out"
    path.write_text("systems:\n  - {id: probe, kind: random, dim: 16, seed: 1}\n")
    assert cli.main(["verify", "-c", str(path), "-o", str(out)]) == 4
    _assert_no_child()
    # the largest system goes to the child, which dies holding it; every
    # row of the roster before it is written
    assert capsys.readouterr().err == "worker error: a battery worker " \
        "process died before the rows of system probe came back\n"
    ran = [r for system in vf.default_systems()
           for r in vf.check_system(*system, vf.merge_tolerances())]
    assert json.loads((out / "run.json").read_text())["rows"] == \
        {"checks": len(ran)}
    assert (out / "checks.csv").read_text() == \
        runner.checks_to_table(ran).to_csv()


@pytest.fixture(scope="module")
def example_battery():
    """The battery rows of a ``verify`` run on the example config."""
    cfg = cf.load_config(str(EXAMPLE))
    return vf.run_battery(cfg.build_systems(), cfg.tolerances)


@pytest.mark.parametrize("code,err", [
    (4, "worker error: functionals on system pooled: a worker process died "
        "before returning a result\n"),
    (3, "numerical domain error: functionals on system pooled: synthetic "
        "breakdown\n"),
], ids=["worker-lost", "domain-error"])
def test_verify_determinism_failure_writes_every_battery_row(
        code, err, example_battery, monkeypatch, tmp_path, capsys):
    exact, parent = fn.functional, os.getpid()

    def breaks_on_pooled_dim(system, *args):
        if system.dim == runner.POOLED_DIM:
            if code == 3:
                raise NumericalDomainError("synthetic breakdown")
            if os.getpid() != parent:
                os._exit(9)     # as an out-of-memory kill ends a worker
            time.sleep(0.05)    # so that the child surely takes a curve
        return exact(system, *args)

    monkeypatch.setattr(fn, "functional", breaks_on_pooled_dim)
    monkeypatch.setattr(pool, "cpu_count", lambda: 2)
    out = tmp_path / "out"
    assert cli.main(["verify", "-c", str(EXAMPLE), "-o", str(out)]) == code
    _assert_no_child()
    # the determinism row's sweeps fail after the whole battery has run
    assert capsys.readouterr().err == err
    assert (out / "checks.csv").read_text() == \
        runner.checks_to_table(example_battery).to_csv()
    assert json.loads((out / "run.json").read_text())["rows"] == \
        {"checks": len(example_battery)}


def test_functionals_worker_death_exits_four_naming_the_system(
        monkeypatch, tmp_path, capsys):
    exact, parent = fn.functional, os.getpid()

    def dies_on_dim_16(system, *args):
        if system.dim == 16:
            if os.getpid() != parent:
                os._exit(9)     # as an out-of-memory kill ends a worker
            time.sleep(0.05)    # so that the child surely takes a curve
        return exact(system, *args)

    monkeypatch.setattr(fn, "functional", dies_on_dim_16)
    monkeypatch.setattr(pool, "cpu_count", lambda: 2)
    path, out = tmp_path / "mixed.yaml", tmp_path / "out"
    path.write_text(MIXED)
    assert cli.main(["functionals", "-c", str(path), "-o", str(out)]) == 4
    _assert_no_child()
    assert capsys.readouterr().err == "worker error: functionals on system " \
        "dense: a worker process died before returning a result\n"
    assert not (out / "curves.csv").exists()


def test_one_cpu_functionals_imports_no_process_pool():
    code = ("import sys; from entroflux import config, pool, runner; "
            "pool.cpu_count = lambda: 1; "
            "runner.run_functionals(config.parse_config(sys.argv[1])); "
            "print(sorted({'multiprocessing', 'concurrent.futures'} "
            "& set(sys.modules)))")
    dense = ("systems: [{id: dense, kind: random, dim: 16}]\n"
             "sweep: {alpha: [0.5], p: [2], t: [1, 2]}\n")
    done = subprocess.run([sys.executable, "-c", code, dense],
                          capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


def test_verify_domain_error_in_a_worker_names_the_first_failing_system(
        monkeypatch, tmp_path, capsys):
    # dense-b breaks in an early row and so first in time, but dense-a comes
    # first in table order; forked workers inherit both patches
    def breaks_on_dim_16(route, tri):
        def patched(system, *args):
            if system.dim == runner.POOLED_DIM and system.tri == tri:
                raise NumericalDomainError("synthetic breakdown")
            return route(system, *args)
        return patched

    monkeypatch.setattr(fn, "variational_max",
                        breaks_on_dim_16(fn.variational_max, False))
    monkeypatch.setattr(qm, "mean_ep_expectation",
                        breaks_on_dim_16(qm.mean_ep_expectation, True))
    runs = []
    for workers in (1, 2):
        code, table = _verify_at(monkeypatch, tmp_path, workers, f"w{workers}")
        runs.append((code, capsys.readouterr().err, table))
        _assert_no_child()
    assert runs[0] == runs[1]
    code, err, table = runs[0]
    assert code == 3
    assert err == "numerical domain error: functional_variational on system " \
                  "dense-a: synthetic breakdown\n"
    ids = [line.split(",", 1)[0] for line in table.splitlines()[1:]]
    roster = [sid for sid, _, _ in vf.default_systems()]
    assert list(dict.fromkeys(ids)) == roster + ["small", "dense-a"]


DIM_2 = "systems:\n  - {id: qubit-2, kind: random, dim: 2, tri: false, seed: 1}\n"


def test_cli_dim_2_complex_system_passes_as_tri(tmp_path, capsys):
    path = tmp_path / "qubit.yaml"
    path.write_text(DIM_2)
    assert cli.main(["verify", "-c", str(path), "-o", str(tmp_path / "v")]) == 0
    rows = (tmp_path / "v" / "checks.csv").read_text().splitlines()
    mine = [row for row in rows if row.startswith("qubit-2,")]
    assert any(",functional_symmetry," in row for row in mine)
    assert not [row for row in rows if row.endswith(",fail")]
    assert cli.main(["fcs", "-c", str(path), "-o", str(tmp_path / "f")]) == 0
    checks = (tmp_path / "f" / "checks.csv").read_text().splitlines()[1:]
    assert checks and all(row.startswith("qubit-2,fcs_tv_distance,")
                          and row.endswith(",pass") for row in checks)


SKEWED_JUNCTION = """
systems:
  - id: skewed
    kind: two_reservoir
    left_hamiltonian: [[0, 1.0000000000015], [1, 1]]
    right_hamiltonian: [[0, 0], [0, 1]]
    beta_left: 1.0
    beta_right: 2.0
    coupling: [[0, 0, 0, 0.25], [0, 0, 0.25, 0], [0, 0.25, 0, 0], [0.25, 0, 0, 0]]
"""


def test_cli_junction_skewed_by_rounding_runs(tmp_path, capsys):
    # max |A - A*| / 2 = 7.5e-13 passes the parser and every eig
    path = tmp_path / "skewed.yaml"
    path.write_text(SKEWED_JUNCTION)
    assert cli.main(["model", "-c", str(path)]) == 0
    assert "system skewed" in capsys.readouterr().out
    for sub in ("functionals", "verify"):
        assert cli.main([sub, "-c", str(path),
                         "-o", str(tmp_path / sub)]) == 0


def test_cli_tri_false_on_real_matrices_exits_two(tmp_path, capsys):
    path = tmp_path / "real.yaml"
    path.write_text(QUBIT.replace("kind: quantum", "kind: quantum\n    tri: false"))
    assert cli.main(["verify", "-c", str(path)]) == 2
    assert "config error: systems.flip: tri=False contradicts" \
        in capsys.readouterr().err


def test_cli_functional_overflow_exits_three(tmp_path, capsys):
    path = tmp_path / "overflow.yaml"
    path.write_text("""
systems:
  - id: wide
    kind: random
    dim: 4
    seed: 1
    tri: true
    spread: 12
sweep:
  alpha: [50]
  p: [1]
  t: [1]
""")
    assert cli.main(["functionals", "-c", str(path),
                     "-o", str(tmp_path / "x")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical domain error: functionals on system wide: ")
    assert "alpha=50" in err


def test_cli_fcs_domain_error_names_the_system(tmp_path, capsys, monkeypatch):
    def boom(system, t):
        raise NumericalDomainError("synthetic breakdown")

    monkeypatch.setattr(fc, "modular_spectral_measure", boom)
    path = tmp_path / "qubit.yaml"
    path.write_text(QUBIT)
    assert cli.main(["fcs", "-c", str(path), "-o", str(tmp_path / "x")]) == 3
    assert capsys.readouterr().err == \
        "numerical domain error: fcs on system flip: synthetic breakdown\n"


def test_cli_classical_domain_error_names_the_system(tmp_path, capsys,
                                                     monkeypatch):
    monkeypatch.setattr(cl, "VARIATIONAL_SLACK", -1.0)
    path = tmp_path / "chain.yaml"
    path.write_text(MINIMAL)
    assert cli.main(["classical", "-c", str(path),
                     "-o", str(tmp_path / "x")]) == 3
    assert capsys.readouterr().err.startswith(
        "numerical domain error: classical on system chain: perturbed state")


OVERFLOW_SWEEP = """
sweep:
  alpha: [0.5, 1.0e308]
  t: [2]
"""
OVERFLOW_CHAIN = """
systems:
  - {id: c, kind: random_classical, size: 5, seed: 1}
""" + OVERFLOW_SWEEP
OVERFLOW_QUANTUM = """
systems:
  - {id: q, kind: random, dim: 3, seed: 1}
""" + OVERFLOW_SWEEP
CGF = "log sum_phi exp(-t alpha phi) P(phi)"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("subcommand, text, system, quantity, where", [
    ("classical", OVERFLOW_CHAIN, "c", "e_t(alpha)", "alpha=1e+308, t=2"),
    ("functionals", OVERFLOW_CHAIN, "c", "e_t(alpha)", "alpha=1e+308, t=2"),
    ("fcs", OVERFLOW_CHAIN, "c", "e_t(alpha)", "alpha=1e+308, t=2"),
    ("fcs", OVERFLOW_QUANTUM, "q", CGF, "alpha=1e+308, t=2.0"),
    ("functionals", OVERFLOW_QUANTUM, "q", "e_[p,t](alpha)",
     "p=1.0, alpha=1e+308, t=2.0"),
], ids=["classical", "functionals", "fcs-chain", "fcs-quantum",
        "functionals-quantum"])
def test_cli_overflowing_alpha_t_exits_three_naming_alpha_and_t(
        tmp_path, capsys, subcommand, text, system, quantity, where):
    # alpha t = 2e308 is not a double: the log-sum-exp of the curve is nan
    path = tmp_path / "overflow.yaml"
    path.write_text(text)
    out = tmp_path / "x"
    assert cli.main([subcommand, "-c", str(path), "-o", str(out)]) == 3
    assert capsys.readouterr().err == (
        f"numerical domain error: {subcommand} on system {system}: {quantity} "
        f"is not finite in double precision at {where}\n")
    assert not (out / "curves.csv").exists()


def test_cli_model_prints_junction(capsys):
    assert cli.main(["model"]) == 0
    out = capsys.readouterr().out
    assert "beta_left=1" in out
    assert "hamiltonian" in out


TWISTED_JUNCTION = """
systems:
  - id: twisted
    kind: two_reservoir
    left_hamiltonian: [[0, 0], [0, 1]]
    right_hamiltonian: [[0, 0], [0, 1]]
    beta_left: 1.0
    beta_right: 2.0
    coupling: [[0, 0, 0, [0, 0.25]], [0, 0, 0, 0], [0, 0, 0, 0], [[0, -0.25], 0, 0, 0]]
"""


@pytest.mark.parametrize("text,line", [
    (MINIMAL, "system canonical"),          # no junction: the built-in one
    (TWISTED_JUNCTION, "    [0-0.25j, 0, 0, 2]"),
], ids=["no-junction", "complex-coupling"])
def test_cli_model_prints_the_junction_it_reads(tmp_path, capsys, text, line):
    path = tmp_path / "cfg.yaml"
    path.write_text(text)
    assert cli.main(["model", "-c", str(path)]) == 0
    assert line in capsys.readouterr().out.splitlines()


def test_cli_seed_override_threads_into_manifest(tmp_path):
    config_path = tmp_path / "cfg.yaml"
    config_path.write_text(QUBIT)
    out = tmp_path / "o"
    assert cli.main(["functionals", "-c", str(config_path), "-o", str(out),
                     "--seed", "9"]) == 0
    assert json.loads((out / "run.json").read_text())["seed"] == 9


def test_cli_verify_writes_checks_table(tmp_path):
    out = tmp_path / "v"
    assert cli.main(["verify", "-o", str(out)]) == 0
    header = (out / "checks.csv").read_text().splitlines()[0]
    assert header == "system_id,check_name,residual,tolerance,status"
