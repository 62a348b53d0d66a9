"""Experiment configuration: YAML parsing, validation, system building.

Configs are YAML mappings with four optional sections: ``systems`` (list
of system declarations), ``sweep`` (alpha/p/t grids), ``output``
(directory and table selection), ``tolerances`` (named overrides for the
verification battery), plus a global ``seed``.  Complex matrix entries
are written as [re, im] pairs; plain numbers are real entries, and every
matrix must be Hermitian up to rounding.  Exponent literals without a
decimal point (1e-9) are numbers, as 1.0e-9 is.  The p grid accepts the
string "inf" (or a YAML infinity) for the limiting functional.

Malformed YAML raises ConfigParseError; structurally valid YAML that
violates a constraint raises ConfigValidationError naming the offending
key.  Both map to the config-error exit code in the CLI.
"""
from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass, field

import numpy as np
import yaml

from .classical import ClassicalSystem
from .errors import ConfigParseError, ConfigValidationError
from .models import (
    build_two_reservoir,
    canonical_pieces,
    random_classical_system,
    random_system,
)
from .quantum import QuantumSystem, hermitian

DEFAULT_ALPHAS = tuple(float(a) for a in np.round(np.arange(-1.0, 2.0001, 0.05), 10))
DEFAULT_PS = (1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 64.0, math.inf)
DEFAULT_TS = (0.5, 1.0)
# most points of a {min, max, step} alpha range, checked before numpy builds it
MAX_GRID_POINTS = 1_000_000

# the verification battery's named tolerances, which a config may override
DEFAULT_TOLERANCES = {
    "symmetry": 1e-10,
    "kawasaki": 1e-10,
    "convexity": 1e-9,
    "derivative": 1e-6,
    "second_law": 1e-12,
    "classical_identity": 1e-12,
    "bridge": 1e-10,
    "tv": 1e-10,
    "p_monotone": 1e-10,
    "p_limit": 1e-3,
    "flux_balance": 1e-8,
    "decomposition": 1e-10,
    "quadrature": 1e-8,
    "exact": 1e-12,
    "violation_floor": 1e-8,
}


def merge_tolerances(overrides=None) -> dict:
    """``DEFAULT_TOLERANCES`` with ``overrides``, each a known name and a
    positive value."""
    tol = dict(DEFAULT_TOLERANCES)
    for key, value in (overrides or {}).items():
        if key not in tol:
            raise ValueError(
                f"unknown tolerance {key!r}; known names: {sorted(tol)}"
            )
        if not (float(value) > 0):
            raise ValueError(f"tolerance {key!r} must be positive")
        tol[key] = float(value)
    return tol


class _Loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """YAML 1.1 safe loading, plus the exponent literals that YAML 1.1 leaves
    strings (``1e-3``, ``1.0e3``, ``.5e1``: no point, or no exponent sign)
    read as floats.  Parsed by libyaml when PyYAML was built with it."""


_Loader.add_implicit_resolver("tag:yaml.org,2002:float", re.compile(
    r"^[-+]?([0-9]+(\.[0-9]*)?|\.[0-9]+)[eE][-+]?[0-9]+$"), list("-+.0123456789"))


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


def _finite_real(value, path: str) -> float:
    out = _real(value, path)
    if not math.isfinite(out):
        _fail(path, f"must be finite, got {out}")
    return out


def _positive(value, path: str) -> float:
    out = _finite_real(value, path)
    if out <= 0:
        _fail(path, f"must be positive, got {out}")
    return out


def _flag(value, path: str) -> bool:
    if not isinstance(value, bool):
        _fail(path, f"expected a boolean, got {value!r}")
    return value


def _integer(value, path: str, least: int, expected: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        _fail(path, f"expected {expected}, got {value!r}")
    return value


def _count(value, path: str) -> int:
    return _integer(value, path, 2, "an integer >= 2")


def _seed(value, path: str) -> int:
    return _integer(value, path, 0, "a nonnegative integer")


def _probabilities(value, path: str) -> np.ndarray:
    if not isinstance(value, list) or not value:
        _fail(path, "expected a nonempty list of numbers")
    weights = np.array([_real(x, f"{path}[{i}]") for i, x in enumerate(value)])
    if weights.min() <= 0:
        _fail(path, "entries must be strictly positive")
    if abs(weights.sum() - 1.0) > 1e-12:
        _fail(path, f"must sum to 1 within 1e-12, got {weights.sum():.17g}")
    return weights


def _entry(value, path: str) -> complex:
    """One matrix entry: a finite real number or [re, im] pair."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        out = complex(value)
    elif isinstance(value, list) and len(value) == 2 \
            and all(isinstance(x, (int, float)) and not isinstance(x, bool)
                    for x in value):
        out = complex(value[0], value[1])
    else:
        _fail(path, f"expected a number or [re, im] pair, got {value!r}")
    if not cmath.isfinite(out):
        _fail(path, f"must be finite, got {value!r}")
    return out


def parse_matrix(value, path: str) -> np.ndarray:
    """The Hermitian part of a matrix that passes ``quantum.hermitian``."""
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
    try:
        return hermitian(mat, f"{path}:")
    except ValueError as exc:
        raise ConfigValidationError(str(exc)) from None


def _quantum(params: dict, seed: int) -> QuantumSystem:
    system = QuantumSystem(params["hamiltonian"], params["reference_state"])
    if params.get("tri", system.tri) != system.tri:
        raise ValueError(
            f"tri={params['tri']} contradicts the matrices: time-reversal "
            f"invariance holds for real entries and for every dim-2 system")
    return system


# kind -> (battery tag, {key: (parser, required)} in check order,
# builder(params, global seed)).  Optional keys a config leaves out are
# absent from params, and the builder supplies their defaults.
_KINDS = {
    "classical": ("classical", {"weights": (_probabilities, True)},
                  lambda p, seed: ClassicalSystem(p["weights"])),
    "quantum": (
        "quantum",
        {"hamiltonian": (parse_matrix, True),
         "reference_state": (parse_matrix, True), "tri": (_flag, False)},
        _quantum),
    "two_reservoir": (
        "reservoir",
        {"left_hamiltonian": (parse_matrix, True),
         "right_hamiltonian": (parse_matrix, True),
         "coupling": (parse_matrix, True),
         "beta_left": (_positive, True), "beta_right": (_positive, True)},
        lambda p, seed: build_two_reservoir(
            p["left_hamiltonian"], p["right_hamiltonian"],
            p["beta_left"], p["beta_right"], p["coupling"])),
    "random": (
        "quantum",
        {"dim": (_count, True), "spread": (_positive, False),
         "tri": (_flag, False), "seed": (_seed, False)},
        lambda p, seed: random_system(p["dim"], tri=p.get("tri", False),
                                      seed=p.get("seed", seed),
                                      spread=p.get("spread", 1.0))),
    "random_classical": (
        "classical",
        {"size": (_count, True), "tri": (_flag, False),
         "seed": (_seed, False)},
        lambda p, seed: random_classical_system(
            p["size"], seed=p.get("seed", seed), tri=p.get("tri", False))),
}


@dataclass(frozen=True)
class SystemEntry:
    """Declarative description of one system from the config."""

    system_id: str
    kind: str
    params: dict = field(default_factory=dict)

    def build(self, global_seed: int = 0):
        """Materialize: returns (system_id, battery_kind, object)."""
        if self.kind not in _KINDS:
            _fail(f"systems.{self.system_id}.kind",
                  f"unknown kind {self.kind!r}")
        tag, _, builder = _KINDS[self.kind]
        try:
            obj = builder(self.params, global_seed)
        except ValueError as exc:  # NumericalDomainError included
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

    def build_systems(self, tags=None):
        """``(system_id, battery tag, object)`` for each entry in declared
        order; given ``tags``, only the entries of those battery tags are
        built, and the rest never reach their builders.  An unknown kind is
        always built, so that ``SystemEntry.build`` names it."""
        return [entry.build(self.seed) for entry in self.systems
                if tags is None or entry.kind not in _KINDS
                or _KINDS[entry.kind][0] in tags]

    def classical_times(self) -> tuple:
        """Integer entries t >= 1 of the t grid; classical sweeps need one."""
        times = tuple(int(round(t)) for t in self.ts
                      if abs(t - round(t)) < 1e-9 and round(t) >= 1)
        if not times:
            _fail("sweep.t", "classical sweeps need at least one integer t >= 1")
        return times


def default_config() -> ExperimentConfig:
    entry = SystemEntry("canonical", "two_reservoir", canonical_pieces())
    return ExperimentConfig(systems=(entry,), alphas=DEFAULT_ALPHAS,
                            ps=DEFAULT_PS, ts=DEFAULT_TS)


def _parse_system(entry, index: int) -> SystemEntry:
    path = f"systems[{index}]"
    mapping = _require_mapping(entry, path)
    kind = mapping.get("kind")
    if not isinstance(kind, str) or kind not in _KINDS:
        _fail(f"{path}.kind", f"expected one of {list(_KINDS)}, got {kind!r}")
    system_id = mapping.get("id", f"{kind}-{index}")
    if not isinstance(system_id, str) or not system_id:
        _fail(f"{path}.id", "expected a nonempty string")
    # an id is written unquoted in every CSV row, where a zero byte is padding
    if any(c in system_id for c in ',\n\r"\0'):
        _fail(f"{path}.id", "must not contain commas, line breaks, double "
              "quotes or NUL characters")

    _, schema, _ = _KINDS[kind]
    _reject_unknown(mapping, {"id", "kind", *schema}, path)
    params = {}
    for key, (parse, required) in schema.items():
        if key in mapping:
            params[key] = parse(mapping[key], f"{path}.{key}")
        elif required:
            _fail(f"{path}.{key}", f"required for {kind} systems")
    if kind == "quantum" \
            and params["hamiltonian"].shape != params["reference_state"].shape:
        _fail(path, "hamiltonian and reference_state dimensions differ")
    if kind == "two_reservoir":
        expected = (params["left_hamiltonian"].shape[0]
                    * params["right_hamiltonian"].shape[0])
        if params["coupling"].shape[0] != expected:
            _fail(f"{path}.coupling",
                  f"dimension {params['coupling'].shape[0]} does not match "
                  f"the product dimension {expected}")
    return SystemEntry(system_id, kind, params)


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
    step = _positive(mapping["step"], f"{path}.step")
    if hi < lo:
        _fail(path, f"max {hi} is below min {lo}")
    span = (hi - lo) / step + 1e-9
    count = math.floor(span) + 1 if math.isfinite(span) else math.inf
    if count > MAX_GRID_POINTS:
        _fail(path, f"a range of {count} points exceeds the limit of "
                    f"{MAX_GRID_POINTS}")
    return tuple(np.round(lo + np.arange(count) * step, 12).tolist())


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


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a YAML config; defaults fill whatever is absent."""
    try:
        raw = yaml.load(text, Loader=_Loader)
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
            if not isinstance(sweep["t"], list) or not sweep["t"]:
                _fail("sweep.t", "expected a non-empty list")
            ts = tuple(_positive(x, f"sweep.t[{i}]")
                       for i, x in enumerate(sweep["t"]))

    output_dir = None
    writes = {"curves": True, "distributions": True, "checks": True}
    if "output" in raw:
        output = _require_mapping(raw["output"], "output")
        _reject_unknown(output, {"directory", *writes}, "output")
        if "directory" in output:
            if not isinstance(output["directory"], str) or not output["directory"]:
                _fail("output.directory", "expected a nonempty string")
            output_dir = output["directory"]
        for key in writes:
            if key in output:
                writes[key] = _flag(output[key], f"output.{key}")

    tolerances = {}
    if "tolerances" in raw:
        mapping = _require_mapping(raw["tolerances"], "tolerances")
        for key, value in mapping.items():
            tolerances[str(key)] = _real(value, f"tolerances.{key}")
        try:
            merge_tolerances(tolerances)
        except ValueError as exc:
            raise ConfigValidationError(f"tolerances: {exc}") from exc

    return ExperimentConfig(
        systems=systems, alphas=alphas, ps=ps, ts=ts, output_dir=output_dir,
        write_curves=writes["curves"],
        write_distributions=writes["distributions"],
        write_checks=writes["checks"], tolerances=tolerances,
        seed=_seed(raw["seed"], "seed") if "seed" in raw else 0,
        from_file=True, source_text=text,
    )


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigParseError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)
