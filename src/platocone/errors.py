"""Exception types shared across the package.

Every error raised by validation code derives from :class:`PlatoconeError`,
which itself derives from ``ValueError`` so that callers who do not care
about the fine-grained class can catch the usual built-in.

The scalar argument rules live here too.  Each raises the class its
caller passes, so a value that is not a number at all fails like one
out of range.
"""

import math
import numbers

import numpy as np


class PlatoconeError(ValueError):
    """Base class for all validation errors raised by this package."""


class DimensionMismatch(PlatoconeError):
    """Objects with incompatible spatial dimensions were combined."""


class NonPositiveMark(PlatoconeError):
    """A configuration point carries a mark that is not a positive finite real."""


class NonPositiveWeight(PlatoconeError):
    """A measure atom carries a weight that is not a positive finite real."""


class NotPinpointing(PlatoconeError):
    """Two configuration points share a position, so no measure corresponds.

    Attributes
    ----------
    position : tuple of float
        The first duplicated position in canonical order.
    """

    def __init__(self, position):
        self.position = tuple(position)
        super().__init__(f"duplicate position {list(self.position)} in configuration")


class EqualMarks(PlatoconeError):
    """The two marks of a merging sequence coincide; its limit would be a
    doubled point instead of a two-mark collision."""


class UnboundedWindow(PlatoconeError):
    """A sampling window has an infinite extent along some axis."""


class DegenerateWindow(PlatoconeError):
    """A sampling window has zero volume."""


class NonIntegrableDensity(PlatoconeError):
    """A mark density is unusable: unbounded support, negative or non-finite
    values, or vanishing total mass."""


class InvalidTheta(PlatoconeError):
    """The Gamma intensity parameter ``theta`` must be a positive finite real."""


class InvalidEpsilon(PlatoconeError):
    """The truncation threshold ``epsilon`` must lie strictly in (0, 1)."""


class InvalidArgument(PlatoconeError):
    """Catch-all for argument validation outside the specific classes above."""


class NotCanonical(InvalidArgument):
    """Row ``index`` repeats its predecessor or sorts before it."""

    def __init__(self, index: int, message: str):
        self.index = index
        super().__init__(message)


class DegenerateTable(PlatoconeError):
    """A contingency table has an empty row or column, or fewer than two
    categories along some margin."""


class JsonlFormatError(PlatoconeError):
    """A JSONL file does not follow the expected header/record schema."""


def _real(value, name: str, error=InvalidArgument) -> float:
    """``float(value)``, raising ``error`` for anything ``float`` rejects."""
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise error(f"{name} must be a real number, got {value!r}") from None


def _reals(values, name: str, error=InvalidArgument) -> np.ndarray:
    """``values`` as a new float64 array; ``error`` if they do not convert."""
    try:
        return np.array(values, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise error(f"{name} must be an array of real numbers") from None


def _iterable(values, name: str):
    """``iter(values)``; ``InvalidArgument`` if ``values`` is not iterable."""
    try:
        return iter(values)
    except TypeError:
        raise InvalidArgument(f"{name} must be iterable, got {values!r}") from None


def _real_pair(values, name: str) -> tuple:
    """Two reals ``(a, b)``, each a ``NAME bound``."""
    try:
        a, b = values
    except (TypeError, ValueError):
        raise InvalidArgument(f"{name} must be a pair (a, b), got {values!r}") from None
    return _real(a, f"{name} bound"), _real(b, f"{name} bound")


def _positive(value, name: str, error=InvalidArgument) -> float:
    """A positive finite real."""
    v = _real(value, name, error)
    if not 0.0 < v < math.inf:  # False for NaN
        raise error(f"{name} must be a positive finite real, got {v!r}")
    return v


def _integer(value, name: str, low: int = 1, high=math.inf, error=InvalidArgument) -> int:
    """An integer in ``[low, high)``: any ``numbers.Integral`` but ``bool``."""
    # type() first: isinstance against the ABC costs about 0.4 us
    if type(value) is int or isinstance(value, numbers.Integral) and not isinstance(value, bool):
        v = int(value)
        if low <= v < high:
            return v
    rule = "a positive integer" if (low, high) == (1, math.inf) else f"an integer in [{low}, {high})"
    raise error(f"{name} must be {rule}, got {value!r}")
