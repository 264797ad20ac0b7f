"""Exception types shared across the library, and the type checks of counts
and real numbers."""

import numbers

import numpy as np


def is_count(value):
    """Whether value is a Python or NumPy integer; a bool is not one."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_real(value):
    """Whether value is one Python or NumPy real number; a bool is not one."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def is_real_kind(value):
    """Whether value, a number or an array, holds integers or floats, not bools;
    a ragged list holds neither, nor does a list of numbers with a bool among
    them, which NumPy reads as numbers."""
    try:
        kind = np.asarray(value).dtype.kind
    except ValueError:
        return False
    return kind in "iuf" and not (isinstance(value, (list, tuple)) and any(
        isinstance(v, (bool, np.bool_)) for v in np.asarray(value, dtype=object).flat))


def real_array(value, what):
    """value, a number or an array of integers or floats, as a float array;
    text, bools, complex, object or ragged input raises :class:`DomainError`."""
    if not is_real_kind(value):
        raise DomainError(f"{what} must be real numbers, got {value!r}")
    return np.asarray(value, dtype=float)


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class AccuracyError(RuntimeError):
    """A numerical routine could not reach the requested tolerance.

    Carries the best available estimate so callers can decide whether the
    partial result is still usable.
    """

    def __init__(self, message, value=None, err_estimate=None):
        super().__init__(message)
        self.value = value
        self.err_estimate = err_estimate


class NearResonanceError(RuntimeError):
    """The Lippmann-Schwinger system is numerically singular (candidate k in Lambda)."""

    def __init__(self, message, rcond=None):
        super().__init__(message)
        self.rcond = rcond
