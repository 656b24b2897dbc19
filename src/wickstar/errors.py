"""Exception hierarchy shared across the package.

Every class derives from :class:`WickstarError`.  The input errors are
also ``ValueError``s, and the CLI reports them with exit code 2;
:class:`FloatRangeError` is an ``OverflowError``, which it reports with
exit code 4.  An input that lies outside a domain, or that has no
representation an operation needs, raises :class:`DomainError`; so does a
truncated series asked for a derivative past its usable order or a value
outside the certified radius of a derivative."""


class WickstarError(Exception):
    """Base class for all package-specific errors."""


class DomainError(WickstarError, ValueError):
    """Input lies outside the mathematical domain of an operation
    (point outside the surface, deformation parameter at a pole,
    singular Moebius matrix, a value that is not a finite f_{p,q}
    combination, a series asked past its usable order or certified
    radius, ...)."""


class NonTerminatingError(WickstarError, ValueError):
    """Exact-finite evaluation was requested for a star-product series
    that does not terminate for the given operands."""


class FloatRangeError(WickstarError, OverflowError):
    """A float evaluation left the range of double precision: a term it
    sums is infinite or NaN, so neither its value nor its error bound
    means anything."""
