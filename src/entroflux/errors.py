"""Exception types shared across the library."""


class NumericalDomainError(ValueError):
    """An input left the numerical domain of an operation.

    Raised for lost positivity, spectra outside the domain of a matrix
    function, and cross-checks between redundant computation routes that
    disagree beyond their stated tolerance.  ``results`` holds the
    verification rows that ran before the error, when a battery raised it.
    """

    results: tuple = ()


class WorkerLostError(RuntimeError):
    """A worker process died before its job returned; from a battery,
    ``results`` holds the rows of the systems before that job's system."""


class ConfigError(ValueError):
    """Base class for experiment configuration problems."""


class ConfigParseError(ConfigError):
    """Configuration text could not be parsed."""


class ConfigValidationError(ConfigError):
    """Configuration parsed but violates the schema."""
