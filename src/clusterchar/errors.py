"""The exception types shared across the package, ``Record``, the base of
its public records, and ``CheckLine``, the record every check returns."""

import operator


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


class Record:
    """Base of the package's public records: read-only fields, equality and
    hashing on the leading ``_compared`` of ``_fields``, and a repr of every
    field.

    The records are not dataclasses: importing ``dataclasses`` and
    generating each record's methods added about 20 ms to the start of
    every command.  Each subclass writes out its own ``__init__``, which
    validates its arguments and sets each field once in the instance dict;
    a generic ``__init__`` looping over ``_fields`` was measured slower on
    the benchmark's run_s.
    """

    __slots__ = ()
    _fields: tuple[str, ...]
    _compared: int

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__

    def __init_subclass__(cls) -> None:
        # the compared fields of an instance dict, as a tuple
        cls._key = operator.itemgetter(*cls._fields[:cls._compared])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self.__dict__) == other._key(other.__dict__)

    def __hash__(self) -> int:
        return hash(self._key(self.__dict__))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={self.__dict__[name]!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class CheckLine(Record):
    """One tested instance of a check: its label, whether it held, and a
    witness or reason when it did not."""

    _fields = ("label", "passed", "detail")
    _compared = 3

    def __init__(self, label: str, passed: bool, detail: str = "") -> None:
        self.__dict__.update(label=label, passed=bool(passed), detail=detail)
