"""Entropic functionals and fluctuation statistics for finite systems.

The names of ``fcs``, ``functionals`` and ``verify`` load on first access,
so importing the package and building a config's systems loads neither
those modules nor the worker pool.
"""
from importlib import import_module

from .classical import (
    ClassicalSystem,
    classical_functional,
    classical_transfer_functional,
    es_distribution,
)
from .config import (
    ExperimentConfig,
    default_config,
    load_config,
    parse_config,
)
from .errors import (
    ConfigError,
    ConfigParseError,
    ConfigValidationError,
    NumericalDomainError,
)
from .measures import SpectralMeasure, total_variation
from .models import (
    ReservoirModel,
    build_two_reservoir,
    canonical_model,
    random_classical_system,
    random_system,
)
from .quantum import (
    QuantumSystem,
    entropy_production_observable,
    mean_ep_expectation,
    q_relative_entropy,
    q_renyi_entropy,
)
from .version import __version__

__all__ = [
    "CheckResult",
    "ClassicalSystem",
    "ConfigError",
    "ConfigParseError",
    "ConfigValidationError",
    "ExperimentConfig",
    "NumericalDomainError",
    "QuantumSystem",
    "ReservoirModel",
    "SpectralMeasure",
    "__version__",
    "build_two_reservoir",
    "canonical_model",
    "classical_functional",
    "classical_transfer_functional",
    "default_config",
    "entropy_production_observable",
    "es_distribution",
    "fcs_cgf",
    "fcs_distribution",
    "functional",
    "load_config",
    "mean_ep_expectation",
    "modular_spectral_measure",
    "naive_functional",
    "parse_config",
    "q_relative_entropy",
    "q_renyi_entropy",
    "random_classical_system",
    "random_system",
    "run_battery",
    "suite_passed",
    "total_variation",
    "transfer_functional",
]

# name -> submodule, imported on first access (PEP 562)
_LAZY = {name: module for module, names in (
    ("fcs", ("fcs_cgf", "fcs_distribution", "modular_spectral_measure")),
    ("functionals", ("functional", "naive_functional", "transfer_functional")),
    ("verify", ("CheckResult", "run_battery", "suite_passed")),
) for name in names}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_LAZY[name]}", __name__), name)
