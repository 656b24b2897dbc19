"""Exception hierarchy shared across the package."""


class WickstarError(Exception):
    """Base class for all package-specific errors."""


class DomainError(WickstarError, ValueError):
    """Input lies outside the mathematical domain of an operation
    (point outside the surface, deformation parameter at a pole,
    singular Moebius matrix, ...)."""


class NonRepresentableError(WickstarError, ValueError):
    """An operation requires a representation the input does not admit
    (a value that is not a finite f_{p,q} combination, or a Taylor jet of
    a certified series, which would drop its tail bound)."""


class SeriesOrderError(WickstarError, ValueError):
    """A truncated-series function was asked for a derivative or an
    evaluation beyond its certified order / radius."""


class NonTerminatingError(WickstarError, ValueError):
    """Exact-finite evaluation was requested for a star-product series
    that does not terminate for the given operands."""


class FloatRangeError(WickstarError, OverflowError):
    """A float evaluation left the range of double precision: a term it
    sums is infinite or NaN, so neither its value nor its error bound
    means anything."""
