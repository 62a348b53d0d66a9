"""Entropic functionals and fluctuation statistics for finite systems."""
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
from .fcs import fcs_cgf, fcs_distribution, modular_spectral_measure
from .functionals import (
    functional,
    naive_functional,
    transfer_functional,
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
    DensityMatrix,
    HermitianOperator,
    QuantumSystem,
    entropy_production_observable,
    mean_ep_expectation,
    q_relative_entropy,
    q_renyi_entropy,
)
from .verify import CheckResult, run_battery, suite_passed
from .version import __version__

__all__ = [
    "CheckResult",
    "ClassicalSystem",
    "ConfigError",
    "ConfigParseError",
    "ConfigValidationError",
    "DensityMatrix",
    "ExperimentConfig",
    "HermitianOperator",
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
