"""Experiment configuration: YAML parsing, validation, system building.

Configs are YAML mappings with four optional sections: ``systems`` (list
of system declarations), ``sweep`` (alpha/p/t grids), ``output``
(directory and table selection), ``tolerances`` (named overrides for the
verification battery), plus a global ``seed``.  Complex matrix entries
are written as [re, im] pairs; plain numbers are real entries.  The p
grid accepts the string "inf" (or a YAML infinity) for the limiting
functional.

Malformed YAML raises ConfigParseError; structurally valid YAML that
violates a constraint raises ConfigValidationError naming the offending
key.  Both map to the config-error exit code in the CLI.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import yaml

from .classical import ClassicalSystem
from .errors import ConfigParseError, ConfigValidationError, NumericalDomainError
from .models import (
    build_two_reservoir,
    random_classical_system,
    random_system,
)
from .quantum import QuantumSystem
from .verify import merge_tolerances

DEFAULT_ALPHAS = tuple(float(a) for a in np.round(np.arange(-1.0, 2.0001, 0.05), 10))
DEFAULT_PS = (1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 64.0, math.inf)
DEFAULT_TS = (0.5, 1.0)

_SYSTEM_KINDS = ("classical", "quantum", "two_reservoir", "random",
                 "random_classical")

_KIND_TAGS = {
    "classical": "classical",
    "quantum": "quantum",
    "two_reservoir": "reservoir",
    "random": "quantum",
    "random_classical": "classical",
}


def _fail(path: str, message: str):
    raise ConfigValidationError(f"{path}: {message}")


def _require_mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        _fail(path, f"expected a mapping, got {type(value).__name__}")
    return value


def _reject_unknown(mapping: dict, allowed, path: str) -> None:
    for key in mapping:
        if key not in allowed:
            _fail(f"{path}.{key}" if path else str(key),
                  f"unknown key (expected one of {sorted(allowed)})")


def _real(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {value!r}")
    out = float(value)
    if math.isnan(out):
        _fail(path, "must not be NaN")
    return out


def _entry(value, path: str) -> complex:
    """One matrix entry: a real number or an [re, im] pair."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(value)
    if isinstance(value, list) and len(value) == 2 \
            and all(isinstance(x, (int, float)) and not isinstance(x, bool)
                    for x in value):
        return complex(value[0], value[1])
    _fail(path, f"expected a number or [re, im] pair, got {value!r}")


def parse_matrix(value, path: str) -> np.ndarray:
    if not isinstance(value, list) or not value:
        _fail(path, "expected a nonempty list of rows")
    rows = []
    for i, row in enumerate(value):
        if not isinstance(row, list) or not row:
            _fail(f"{path}[{i}]", "expected a nonempty list of entries")
        rows.append([_entry(x, f"{path}[{i}][{j}]") for j, x in enumerate(row)])
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        _fail(path, "rows have inconsistent lengths")
    mat = np.array(rows, dtype=complex)
    if mat.shape[0] != mat.shape[1]:
        _fail(path, f"matrix must be square, got shape {mat.shape}")
    return mat


def _vector(value, path: str) -> np.ndarray:
    if not isinstance(value, list) or not value:
        _fail(path, "expected a nonempty list of numbers")
    return np.array([_real(x, f"{path}[{i}]") for i, x in enumerate(value)])


@dataclass(frozen=True)
class SystemEntry:
    """Declarative description of one system from the config."""

    system_id: str
    kind: str
    params: dict = field(default_factory=dict)

    def build(self, global_seed: int = 0):
        """Materialize: returns (system_id, battery_kind, object)."""
        p = self.params
        tag = _KIND_TAGS[self.kind]
        try:
            if self.kind == "classical":
                obj = ClassicalSystem(p["weights"])
            elif self.kind == "quantum":
                obj = QuantumSystem(p["hamiltonian"], p["reference_state"],
                                    tri=p.get("tri"))
            elif self.kind == "two_reservoir":
                obj = build_two_reservoir(
                    p["left_hamiltonian"], p["right_hamiltonian"],
                    p["beta_left"], p["beta_right"], p["coupling"])
            elif self.kind == "random":
                obj = random_system(p["dim"], tri=p.get("tri", False),
                                    seed=p.get("seed", global_seed),
                                    spread=p.get("spread", 1.0))
            elif self.kind == "random_classical":
                obj = random_classical_system(p["size"],
                                              seed=p.get("seed", global_seed),
                                              tri=p.get("tri", False))
            else:
                raise ConfigValidationError(
                    f"systems.{self.system_id}.kind: unknown kind {self.kind!r}")
        except (ValueError, NumericalDomainError) as exc:
            if isinstance(exc, ConfigValidationError):
                raise
            raise ConfigValidationError(
                f"systems.{self.system_id}: {exc}") from exc
        return self.system_id, tag, obj


@dataclass(frozen=True)
class ExperimentConfig:
    systems: tuple
    alphas: tuple
    ps: tuple
    ts: tuple
    output_dir: str | None = None
    write_curves: bool = True
    write_distributions: bool = True
    write_checks: bool = True
    tolerances: dict = field(default_factory=dict)
    seed: int = 0
    from_file: bool = False
    source_text: str = "defaults\n"

    def build_systems(self):
        built = [entry.build(self.seed) for entry in self.systems]
        return built

    def classical_times(self) -> tuple:
        """Integer entries of the t grid, required by classical sweeps."""
        times = tuple(int(round(t)) for t in self.ts
                      if abs(t - round(t)) < 1e-9 and round(t) >= 1)
        return times


def default_config() -> ExperimentConfig:
    entry = SystemEntry("canonical", "two_reservoir", {
        "left_hamiltonian": np.diag([0.0, 1.0]),
        "right_hamiltonian": np.diag([0.0, 1.0]),
        "beta_left": 1.0,
        "beta_right": 2.0,
        "coupling": 0.25 * np.kron(np.array([[0.0, 1.0], [1.0, 0.0]]),
                                   np.array([[0.0, 1.0], [1.0, 0.0]])),
    })
    return ExperimentConfig(systems=(entry,), alphas=DEFAULT_ALPHAS,
                            ps=DEFAULT_PS, ts=DEFAULT_TS)


def _parse_system(entry, index: int) -> SystemEntry:
    path = f"systems[{index}]"
    mapping = _require_mapping(entry, path)
    kind = mapping.get("kind")
    if kind not in _SYSTEM_KINDS:
        _fail(f"{path}.kind", f"expected one of {list(_SYSTEM_KINDS)}, got {kind!r}")
    system_id = mapping.get("id", f"{kind}-{index}")
    if not isinstance(system_id, str) or not system_id:
        _fail(f"{path}.id", "expected a nonempty string")
    if "," in system_id or "\n" in system_id:
        _fail(f"{path}.id", "must not contain commas or newlines")

    params = {}
    if kind == "classical":
        _reject_unknown(mapping, {"id", "kind", "weights"}, path)
        if "weights" not in mapping:
            _fail(f"{path}.weights", "required for classical systems")
        weights = _vector(mapping["weights"], f"{path}.weights")
        if weights.min() <= 0:
            _fail(f"{path}.weights", "entries must be strictly positive")
        if abs(weights.sum() - 1.0) > 1e-12:
            _fail(f"{path}.weights",
                  f"must sum to 1 within 1e-12, got {weights.sum():.17g}")
        params["weights"] = weights
    elif kind == "quantum":
        _reject_unknown(mapping, {"id", "kind", "hamiltonian",
                                  "reference_state", "tri"}, path)
        for key in ("hamiltonian", "reference_state"):
            if key not in mapping:
                _fail(f"{path}.{key}", "required for quantum systems")
            params[key] = parse_matrix(mapping[key], f"{path}.{key}")
        if params["hamiltonian"].shape != params["reference_state"].shape:
            _fail(path, "hamiltonian and reference_state dimensions differ")
        tri = mapping.get("tri")
        if tri is not None and not isinstance(tri, bool):
            _fail(f"{path}.tri", f"expected a boolean, got {tri!r}")
        params["tri"] = tri
    elif kind == "two_reservoir":
        allowed = {"id", "kind", "left_hamiltonian", "right_hamiltonian",
                   "beta_left", "beta_right", "coupling"}
        _reject_unknown(mapping, allowed, path)
        for key in ("left_hamiltonian", "right_hamiltonian", "coupling"):
            if key not in mapping:
                _fail(f"{path}.{key}", "required for two_reservoir systems")
            params[key] = parse_matrix(mapping[key], f"{path}.{key}")
        for key in ("beta_left", "beta_right"):
            if key not in mapping:
                _fail(f"{path}.{key}", "required for two_reservoir systems")
            beta = _real(mapping[key], f"{path}.{key}")
            if beta <= 0:
                _fail(f"{path}.{key}", f"must be positive, got {beta}")
            params[key] = beta
        expected = (params["left_hamiltonian"].shape[0]
                    * params["right_hamiltonian"].shape[0])
        if params["coupling"].shape[0] != expected:
            _fail(f"{path}.coupling",
                  f"dimension {params['coupling'].shape[0]} does not match "
                  f"the product dimension {expected}")
    elif kind == "random":
        _reject_unknown(mapping, {"id", "kind", "dim", "tri", "seed",
                                  "spread"}, path)
        if "dim" not in mapping:
            _fail(f"{path}.dim", "required for random systems")
        dim = mapping["dim"]
        if not isinstance(dim, int) or isinstance(dim, bool) or dim < 2:
            _fail(f"{path}.dim", f"expected an integer >= 2, got {dim!r}")
        params["dim"] = dim
        if "spread" in mapping:
            spread = _real(mapping["spread"], f"{path}.spread")
            if spread <= 0:
                _fail(f"{path}.spread", "must be positive")
            params["spread"] = spread
        _copy_seed_tri(mapping, params, path)
    elif kind == "random_classical":
        _reject_unknown(mapping, {"id", "kind", "size", "tri", "seed"}, path)
        if "size" not in mapping:
            _fail(f"{path}.size", "required for random_classical systems")
        size = mapping["size"]
        if not isinstance(size, int) or isinstance(size, bool) or size < 2:
            _fail(f"{path}.size", f"expected an integer >= 2, got {size!r}")
        params["size"] = size
        _copy_seed_tri(mapping, params, path)
    return SystemEntry(system_id, kind, params)


def _copy_seed_tri(mapping: dict, params: dict, path: str) -> None:
    if "tri" in mapping:
        if not isinstance(mapping["tri"], bool):
            _fail(f"{path}.tri", f"expected a boolean, got {mapping['tri']!r}")
        params["tri"] = mapping["tri"]
    if "seed" in mapping:
        seed = mapping["seed"]
        if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
            _fail(f"{path}.seed", f"expected a nonnegative integer, got {seed!r}")
        params["seed"] = seed


def _finite_real(value, path: str) -> float:
    out = _real(value, path)
    if not math.isfinite(out):
        _fail(path, f"must be finite, got {out}")
    return out


def _parse_alpha_grid(value, path: str) -> tuple:
    if isinstance(value, list):
        grid = tuple(_finite_real(x, f"{path}[{i}]") for i, x in enumerate(value))
        if not grid:
            _fail(path, "grid must be non-empty")
        return grid
    mapping = _require_mapping(value, path)
    _reject_unknown(mapping, {"min", "max", "step"}, path)
    for key in ("min", "max", "step"):
        if key not in mapping:
            _fail(f"{path}.{key}", "required in a range grid")
    lo = _finite_real(mapping["min"], f"{path}.min")
    hi = _finite_real(mapping["max"], f"{path}.max")
    step = _finite_real(mapping["step"], f"{path}.step")
    if step <= 0:
        _fail(f"{path}.step", f"must be positive, got {step}")
    if hi < lo:
        _fail(path, f"max {hi} is below min {lo}")
    count = int(math.floor((hi - lo) / step + 1e-9)) + 1
    return tuple(float(np.round(lo + k * step, 12)) for k in range(count))


def _parse_p_grid(value, path: str) -> tuple:
    if not isinstance(value, list) or not value:
        _fail(path, "expected a non-empty list")
    out = []
    for i, x in enumerate(value):
        here = f"{path}[{i}]"
        if isinstance(x, str):
            if x.lower() in ("inf", "infinity"):
                out.append(math.inf)
                continue
            _fail(here, f"expected a number or \"inf\", got {x!r}")
        p = _real(x, here)
        if p == math.inf:
            out.append(math.inf)
            continue
        if p < 1:
            _fail(here, f"p must be >= 1, got {p}")
        out.append(p)
    return tuple(out)


def _parse_t_grid(value, path: str) -> tuple:
    if not isinstance(value, list) or not value:
        _fail(path, "expected a non-empty list")
    out = []
    for i, x in enumerate(value):
        t = _finite_real(x, f"{path}[{i}]")
        if t <= 0:
            _fail(f"{path}[{i}]", f"t must be positive, got {t}")
        out.append(t)
    return tuple(out)


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a YAML config; defaults fill whatever is absent."""
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigParseError(f"malformed config: {exc}") from exc
    if raw is None:
        raw = {}
    raw = _require_mapping(raw, "config")
    _reject_unknown(raw, {"systems", "sweep", "output", "tolerances", "seed"},
                    "")

    base = default_config()
    systems = base.systems
    if "systems" in raw:
        entries = raw["systems"]
        if not isinstance(entries, list) or not entries:
            _fail("systems", "expected a non-empty list")
        systems = tuple(_parse_system(e, i) for i, e in enumerate(entries))
        ids = [s.system_id for s in systems]
        if len(set(ids)) != len(ids):
            _fail("systems", f"duplicate system ids in {ids}")

    alphas, ps, ts = base.alphas, base.ps, base.ts
    if "sweep" in raw:
        sweep = _require_mapping(raw["sweep"], "sweep")
        _reject_unknown(sweep, {"alpha", "p", "t"}, "sweep")
        if "alpha" in sweep:
            alphas = _parse_alpha_grid(sweep["alpha"], "sweep.alpha")
        if "p" in sweep:
            ps = _parse_p_grid(sweep["p"], "sweep.p")
        if "t" in sweep:
            ts = _parse_t_grid(sweep["t"], "sweep.t")

    output_dir = None
    write_curves = write_distributions = write_checks = True
    if "output" in raw:
        output = _require_mapping(raw["output"], "output")
        _reject_unknown(output, {"directory", "curves", "distributions",
                                 "checks"}, "output")
        if "directory" in output:
            if not isinstance(output["directory"], str) or not output["directory"]:
                _fail("output.directory", "expected a nonempty string")
            output_dir = output["directory"]
        for key, default in (("curves", True), ("distributions", True),
                             ("checks", True)):
            if key in output and not isinstance(output[key], bool):
                _fail(f"output.{key}", "expected a boolean")
        write_curves = output.get("curves", True)
        write_distributions = output.get("distributions", True)
        write_checks = output.get("checks", True)

    tolerances = {}
    if "tolerances" in raw:
        mapping = _require_mapping(raw["tolerances"], "tolerances")
        for key, value in mapping.items():
            tolerances[str(key)] = _real(value, f"tolerances.{key}")
        try:
            merge_tolerances(tolerances)
        except ValueError as exc:
            raise ConfigValidationError(f"tolerances: {exc}") from exc

    seed = 0
    if "seed" in raw:
        seed = raw["seed"]
        if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
            _fail("seed", f"expected a nonnegative integer, got {seed!r}")

    return ExperimentConfig(
        systems=systems, alphas=alphas, ps=ps, ts=ts, output_dir=output_dir,
        write_curves=write_curves, write_distributions=write_distributions,
        write_checks=write_checks, tolerances=tolerances, seed=seed,
        from_file=True, source_text=text,
    )


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigParseError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)
