"""Exception types shared across the package."""


class ClusterCharError(Exception):
    """Base class for all errors raised by this package."""


class NonInvertibleImage(ClusterCharError):
    """A variable with a negative exponent was mapped to something that is
    not an invertible Laurent monomial."""


class InvalidArgument(ClusterCharError):
    """An argument violates a documented precondition."""


class DimensionMismatch(ClusterCharError):
    """A dimension vector or matrix shape does not fit its quiver."""


class QuiverMismatch(ClusterCharError):
    """Two representations live over different quivers."""


class InvalidParams(ClusterCharError):
    """Catalog family parameters are out of range."""


class DimOutOfRange(ClusterCharError):
    """A sub-dimension vector is not between 0 and the module dimension."""


class ExcludedPrime(ClusterCharError):
    """Counting was requested over a field whose characteristic is on the
    representation's exclusion list."""


class NonPolynomialCount(ClusterCharError):
    """Held-out nodes contradict the interpolated counting polynomial;
    the module is outside the tool's validity envelope."""


class IdentityFailed(ClusterCharError):
    """An exact identity check found two different values."""


class NonLaurentResult(ClusterCharError):
    """An exchange-relation division left a remainder.  This signals an
    implementation bug and must never fire on valid seeds."""


class UnsupportedQuiver(ClusterCharError):
    """The operation is only defined for the catalog affine quivers."""


def read_only(record: object, name: str, value: object = None) -> None:
    """``__setattr__`` and ``__delattr__`` of the package's records, whose
    fields ``__init__`` sets once."""
    raise AttributeError(f"{type(record).__name__}.{name} is read-only")
