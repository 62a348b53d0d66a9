import json
import math
import struct

import numpy as np
import pytest

from entroflux import cli, runner
from entroflux import config as cf
from entroflux.errors import (
    ConfigParseError,
    ConfigValidationError,
    NumericalDomainError,
)

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


def test_alpha_grid_from_range_mapping():
    cfg = cf.parse_config(MINIMAL + """
sweep:
  alpha: {min: -1.0, max: 2.0, step: 0.5}
""")
    np.testing.assert_allclose(cfg.alphas,
                               [-1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0])


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


def test_inf_sentinel_and_p_validation():
    cfg = cf.parse_config(MINIMAL + """
sweep:
  p: [1, 2, "inf"]
""")
    assert cfg.ps[-1] == math.inf
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
    np.testing.assert_allclose(system.hamiltonian.matrix, want)
    assert system.tri is False


def test_error_messages_name_offending_key():
    with pytest.raises(ConfigValidationError, match="weights"):
        cf.parse_config("""
systems:
  - id: bad
    kind: classical
    weights: [0.7, 0.7]
""")
    with pytest.raises(ConfigValidationError, match="hamiltonian"):
        cf.parse_config("""
systems:
  - id: bad
    kind: quantum
    hamiltonian:
      - [0, 1, 0]
      - [1, 0, 0]
    reference_state:
      - [0.75, 0]
      - [0, 0.25]
""")
    with pytest.raises(ConfigValidationError, match="beta"):
        cf.parse_config("""
systems:
  - id: bad
    kind: two_reservoir
    left_hamiltonian: [[0, 0], [0, 1]]
    right_hamiltonian: [[0, 0], [0, 1]]
    beta_left: -1.0
    beta_right: 2.0
    coupling: [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
""")


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


# -- formatting and table layer -------------------------------------------


def test_seventeen_digits_round_trip():
    for x in (math.pi, 1 / 3, 1e-300, 0.1 + 0.2, -math.e ** 10):
        text = runner.format_float(x)
        assert struct.pack("<d", float(text)) == struct.pack("<d", x)
    assert runner.format_float(math.inf) == "inf"


def test_result_table_layout():
    table = runner.ResultTable(("a", "b"))
    table.append("x", 1.5)
    table.append("y", None)
    assert table.to_csv() == "a,b\nx,1.5\ny,\n"
    with pytest.raises(ValueError):
        table.append("too", "many", "cells")


def test_run_functionals_row_count_and_order():
    cfg = cf.parse_config(QUBIT)
    curves = runner.run_functionals(cfg)["curves"]
    assert len(curves.rows) == 6
    ps = [row[1] for row in curves.rows]
    assert ps == [2.0, 2.0, 2.0, math.inf, math.inf, math.inf]
    alphas = [row[3] for row in curves.rows[:3]]
    assert alphas == sorted(alphas)


def test_run_functionals_needs_integer_time_for_classical():
    cfg = cf.parse_config(MINIMAL + "\nsweep:\n  t: [0.5]\n")
    with pytest.raises(ConfigValidationError, match="t"):
        runner.run_functionals(cfg)


def test_run_fcs_emits_both_measures_and_identity_row():
    cfg = cf.parse_config(QUBIT)
    tables = runner.run_fcs(cfg)
    measures = {row[4] for row in tables["distributions"].rows}
    assert measures == {"P", "Q"}
    check_rows = tables["checks"].rows
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
              for row in runner.run_classical(cfg)["checks"].rows}
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


def test_cli_numerical_domain_exits_three(monkeypatch, capsys):
    def boom(cfg):
        raise NumericalDomainError("synthetic breakdown")

    monkeypatch.setattr(runner, "run_functionals", boom)
    monkeypatch.setitem(cli.__dict__, "runner", runner)
    assert cli.main(["functionals"]) == 3
    assert "numerical domain error" in capsys.readouterr().err


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
    assert "numerical domain error" in err and "alpha=50" in err


def test_cli_model_prints_junction(capsys):
    assert cli.main(["model"]) == 0
    out = capsys.readouterr().out
    assert "beta_left=1" in out
    assert "hamiltonian" in out


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
