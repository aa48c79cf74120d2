"""Exception types shared across the package.

Every error raised by validation code derives from :class:`PlatoconeError`,
which itself derives from ``ValueError`` so that callers who do not care
about the fine-grained class can catch the usual built-in.
"""


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
