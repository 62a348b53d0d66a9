"""Exception types shared across the library, and ``require_finite``."""
import numpy as np


class NumericalDomainError(ValueError):
    """An input left the numerical domain of an operation.

    Raised for lost positivity, spectra outside the domain of a matrix
    function, and cross-checks between redundant computation routes that
    disagree beyond their stated tolerance.  ``results`` holds the
    verification rows that ran before the error, when a battery raised it.
    """

    results: tuple = ()


def require_finite(values, quantity: str, alpha, t=None, at: str = ""):
    """``values``, one per alpha, if every one is a finite double; else raises
    ``NumericalDomainError`` naming ``quantity``, ``at``, the first alpha
    whose value is not, and ``t`` if given.  The one place an e(alpha) route
    raises for a value outside double precision (see ``quantum.per_alpha``)."""
    finite = np.isfinite(values)
    if not finite.all():
        raise NumericalDomainError(
            f"{quantity} is not finite in double precision at {at}"
            f"alpha={np.asarray(alpha)[~finite][0]}" + ("" if t is None else f", t={t}"))
    return values


class WorkerLostError(RuntimeError):
    """A worker process died before its job returned; from a battery,
    ``results`` holds the rows of the systems before that job's system."""

    results: tuple = ()


class ConfigError(ValueError):
    """Base class for experiment configuration problems."""


class ConfigParseError(ConfigError):
    """Configuration text could not be parsed."""


class ConfigValidationError(ConfigError):
    """Configuration parsed but violates the schema."""
