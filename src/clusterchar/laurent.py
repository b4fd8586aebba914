"""Sparse exact multivariate Laurent polynomials over the integers.

This is the universal value type of the package: characters, Chebyshev-type
polynomials and mutation all produce elements of
``Z[y, u][x^{±1}, q^{±1}, t^{±1}]``.  Coefficients are Python ints, so every
positivity or identity check downstream is exact.

Canonical form: no zero coefficients are stored, and serialization sorts
terms by total degree descending, then lexicographically on the variable
order (family rank, then index), a larger exponent first.  Within a printed
monomial, factors appear in descending variable order, e.g. ``t2*t1 - q2``.

``VarId`` is a named tuple (family, index), so variables hash, compare and
order as plain tuples.  The canonical order is the sort key ``_term_key``:
the negated degree, then each stored (variable, exponent) pair in variable
order, then the terminator ``(1,)``.  A pair with a positive exponent maps to
``(0, v, -e)``; one with a negative exponent to ``(2, -family, -index, -e)``.
Compared at the first pair where two monomials differ, a positive exponent
sorts ahead of everything that lacks the variable (the other monomial's next
pair is a later variable, or the terminator), a negative exponent sorts after
it, and ``(1,)`` stands for the zero exponents of all later variables.  That
is the lexicographic comparison of the dense exponent vectors.

Values are immutable after construction and safe to share between
concurrent tasks; all operations are pure functions.
"""

from __future__ import annotations

from enum import IntEnum
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence, Union

from .errors import NonInvertibleImage, NonLaurentResult

__all__ = [
    "Family",
    "VarId",
    "Monomial",
    "LaurentPoly",
    "x", "y", "q", "t", "u", "z",
    "xid", "yid", "qid", "tid", "uid", "zid",
]

class Family(IntEnum):
    """Indeterminate families, ranked for the total variable order."""

    X = 0
    Y = 1
    Q = 2
    T = 3
    U = 4
    GENERIC = 5

    @property
    def letter(self) -> str:
        return "xyqtuz"[int(self)]


class VarId(NamedTuple):
    """One indeterminate, identified by (family, index).

    Ordering is total and deterministic: family rank first, then index.
    """

    family: Family
    index: int

    @property
    def name(self) -> str:
        return f"{self.family.letter}{self.index}"

    def __repr__(self) -> str:
        return f"VarId({self.name})"


def xid(i: int) -> VarId:
    return VarId(Family.X, i)


def yid(i: int) -> VarId:
    return VarId(Family.Y, i)


def qid(i: int) -> VarId:
    return VarId(Family.Q, i)


def tid(i: int) -> VarId:
    return VarId(Family.T, i)


def uid(i: int) -> VarId:
    return VarId(Family.U, i)


def zid(i: int = 1) -> VarId:
    return VarId(Family.GENERIC, i)


class Monomial:
    """A Laurent monomial: a finite map VarId -> nonzero integer exponent."""

    __slots__ = ("_exps", "_degree", "_hash")

    def __init__(self, exps: dict[VarId, int] | Iterable[tuple[VarId, int]] = ()):
        items = exps.items() if isinstance(exps, dict) else exps
        cleaned = tuple(sorted((v, e) for v, e in items if e != 0))
        self._exps = cleaned
        self._degree = sum(e for _, e in cleaned)
        self._hash = hash(cleaned)

    def exponent(self, v: VarId) -> int:
        for w, e in self._exps:
            if w == v:
                return e
        return 0

    def variables(self) -> tuple[VarId, ...]:
        return tuple(v for v, _ in self._exps)

    @property
    def degree(self) -> int:
        return self._degree

    def is_one(self) -> bool:
        return not self._exps

    def mul(self, other: "Monomial") -> "Monomial":
        if not self._exps:
            return other
        if not other._exps:
            return self
        acc = dict(self._exps)
        for v, e in other._exps:
            acc[v] = acc.get(v, 0) + e
        return Monomial(acc)

    def div(self, other: "Monomial") -> "Monomial":
        return self.mul(other.inverse())

    def inverse(self) -> "Monomial":
        return Monomial(tuple((v, -e) for v, e in self._exps))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Monomial) and self._exps == other._exps

    def __hash__(self) -> int:
        return self._hash

    def text(self) -> str:
        if not self._exps:
            return "1"
        parts = []
        for v, e in reversed(self._exps):
            parts.append(v.name if e == 1 else f"{v.name}^{e}")
        return "*".join(parts)

    def __repr__(self) -> str:
        return f"Monomial({self.text()})"


_MONO_ONE = Monomial(())


def _term_key(m: Monomial) -> tuple:
    """Sort key of the canonical order: total degree descending, then
    lexicographic on the variable order with the larger exponent first
    (see the module docstring).  Compatible with multiplication, so it
    doubles as the monomial order for exact division."""
    pairs = [(0, v, -e) if e > 0 else (2, -v.family, -v.index, -e) for v, e in m._exps]
    return (-m._degree, *pairs, (1,))


def _drop_zeros(acc: dict[Monomial, int]) -> dict[Monomial, int]:
    """Delete the zero coefficients of a term map in place; returns it."""
    for m in [m for m, c in acc.items() if not c]:
        del acc[m]
    return acc


PolyLike = Union["LaurentPoly", int]


class LaurentPoly:
    """Exact Laurent polynomial: a map from monomials to nonzero ints."""

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: dict[Monomial, int] | Iterable[tuple[Monomial, int]] = ()):
        items = terms.items() if isinstance(terms, dict) else terms
        acc: dict[Monomial, int] = {}
        for m, c in items:
            acc[m] = acc.get(m, 0) + c
        self._terms = _drop_zeros(acc)
        self._hash = None

    @staticmethod
    def _of(acc: dict[Monomial, int]) -> "LaurentPoly":
        """Wrap a term map that the caller hands over, without copying it;
        its zero coefficients are deleted in place."""
        out = LaurentPoly.__new__(LaurentPoly)
        out._terms = _drop_zeros(acc)
        out._hash = None
        return out

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "LaurentPoly":
        return _ZERO

    @staticmethod
    def one() -> "LaurentPoly":
        return _ONE

    @staticmethod
    def constant(c: int) -> "LaurentPoly":
        return LaurentPoly({_MONO_ONE: c})

    @staticmethod
    def variable(v: VarId) -> "LaurentPoly":
        return LaurentPoly({Monomial(((v, 1),)): 1})

    @staticmethod
    def from_monomial(m: Monomial, c: int = 1) -> "LaurentPoly":
        return LaurentPoly({m: c})

    # -- inspection ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def is_one(self) -> bool:
        return self._terms == {_MONO_ONE: 1}

    def __len__(self) -> int:
        return len(self._terms)

    def terms(self) -> Iterator[tuple[Monomial, int]]:
        return iter(self._terms.items())

    def canonical_terms(self) -> list[tuple[Monomial, int]]:
        return [(m, self._terms[m]) for m in sorted(self._terms, key=_term_key)]

    def single_term(self) -> tuple[Monomial, int] | None:
        """The (monomial, coefficient) pair if this has exactly one term."""
        if len(self._terms) != 1:
            return None
        return next(iter(self._terms.items()))

    def support(self) -> tuple[VarId, ...]:
        vs: set[VarId] = set()
        for m in self._terms:
            vs.update(m.variables())
        return tuple(sorted(vs))

    def constant_value(self) -> int | None:
        """The integer value if the polynomial is constant, else None."""
        if not self._terms:
            return 0
        if len(self._terms) == 1 and _MONO_ONE in self._terms:
            return self._terms[_MONO_ONE]
        return None

    # -- ring structure -------------------------------------------------

    @staticmethod
    def _coerce(v: PolyLike) -> "LaurentPoly":
        if isinstance(v, LaurentPoly):
            return v
        if isinstance(v, int):
            return LaurentPoly.constant(v)
        raise TypeError(f"cannot coerce {type(v).__name__} to LaurentPoly")

    def __add__(self, other: PolyLike) -> "LaurentPoly":
        other = self._coerce(other)
        if not self._terms:
            return other
        if not other._terms:
            return self
        acc = dict(self._terms)
        for m, c in other._terms.items():
            acc[m] = acc.get(m, 0) + c
        return LaurentPoly._of(acc)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._of({m: -c for m, c in self._terms.items()})

    def __sub__(self, other: PolyLike) -> "LaurentPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other: PolyLike) -> "LaurentPoly":
        return self._coerce(other) + (-self)

    def __mul__(self, other: PolyLike) -> "LaurentPoly":
        other = self._coerce(other)
        if not self._terms or not other._terms:
            return _ZERO
        a, b = self._terms, other._terms
        if len(a) > len(b):
            a, b = b, a
        acc: dict[Monomial, int] = {}
        for ma, ca in a.items():
            for mb, cb in b.items():
                m = ma.mul(mb)
                acc[m] = acc.get(m, 0) + ca * cb
        return LaurentPoly._of(acc)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            return self.inverse() ** (-n)
        result = _ONE
        base = self
        k = n
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = LaurentPoly.constant(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(tuple(sorted((m._hash, c) for m, c in self._terms.items())))
        return self._hash

    # -- the operations the rest of the package is built on --------------

    def substitute(self, sigma: Mapping[VarId, PolyLike]) -> "LaurentPoly":
        """Ring-homomorphic substitution.

        Variables outside ``sigma`` are left fixed.  A variable occurring
        with a negative exponent must map to an invertible single-term
        image (unit coefficient), otherwise NonInvertibleImage is raised.
        """
        images = {v: self._coerce(p) for v, p in sigma.items()}
        power_cache: dict[tuple[VarId, int], LaurentPoly] = {}

        def image_power(v: VarId, e: int) -> LaurentPoly:
            key = (v, e)
            got = power_cache.get(key)
            if got is None:
                img = images[v]
                if e < 0:
                    img = img.inverse() ** (-e)
                else:
                    img = img ** e
                power_cache[key] = got = img
            return got

        acc: dict[Monomial, int] = {}
        for m, c in self._terms.items():
            fixed: list[tuple[VarId, int]] = []
            factors: list[tuple[VarId, int]] = []
            for v, e in m._exps:
                if v in images:
                    factors.append((v, e))
                else:
                    fixed.append((v, e))
            term = LaurentPoly({Monomial(fixed): c})
            for v, e in factors:
                term = term * image_power(v, e)
            for tm, tc in term._terms.items():
                acc[tm] = acc.get(tm, 0) + tc
        return LaurentPoly._of(acc)

    def inverse(self) -> "LaurentPoly":
        """Invert a unit: a single term with coefficient ±1."""
        single = self.single_term()
        if single is None or single[1] not in (1, -1):
            raise NonInvertibleImage(
                f"not an invertible Laurent monomial: {self}"
            )
        m, c = single
        return LaurentPoly({m.inverse(): c})

    def partial_derivative(self, v: VarId) -> "LaurentPoly":
        """Formal partial derivative d/dv with the rule d(v^n) = n v^(n-1)."""
        down = Monomial(((v, -1),))
        return LaurentPoly(
            (m.mul(down), c * e) for m, c in self._terms.items() if (e := m.exponent(v))
        )

    def specialize_ones(self, family: Family) -> "LaurentPoly":
        """Set every variable of the given family to 1."""
        return LaurentPoly(
            (Monomial([(v, e) for v, e in m._exps if v.family != family]), c)
            for m, c in self._terms.items()
        )

    def is_subtraction_free(self) -> bool:
        """True iff every coefficient is strictly positive (zero counts)."""
        return all(c > 0 for c in self._terms.values())

    def min_family_exponent(self, family: Family) -> int:
        """The smallest exponent carried by any variable of the family
        anywhere in the polynomial (0 if the family does not occur)."""
        lo = 0
        for m in self._terms:
            for v, e in m._exps:
                if v.family == family and e < lo:
                    lo = e
        return lo

    def _family_vector(self, m: Monomial, family: Family, width: int) -> tuple[int, ...] | None:
        """Exponents of family variables with indices 1..width; None if the
        monomial carries a family variable outside that index range."""
        vec = [0] * width
        for v, e in m._exps:
            if v.family == family:
                if 1 <= v.index <= width:
                    vec[v.index - 1] = e
                else:
                    return None
        return tuple(vec)

    def graded_coefficient(self, e: Sequence[int], family: Family = Family.Y) -> "LaurentPoly":
        """The coefficient of the monomial ``prod family_i^{e[i-1]}``.

        The result is a polynomial in the remaining variables; summing
        ``family^e * graded_coefficient(p, e)`` over the graded support
        reconstructs ``p``.
        """
        target = tuple(e)
        width = len(target)
        return LaurentPoly(
            (Monomial([(v, k) for v, k in m._exps if v.family != family]), c)
            for m, c in self._terms.items()
            if self._family_vector(m, family, width) == target
        )

    def graded_support(self, family: Family = Family.Y) -> set[tuple[int, ...]]:
        """All exponent vectors of the family occurring in the polynomial,
        padded to the largest family index present."""
        width = 0
        for m in self._terms:
            for v, _ in m._exps:
                if v.family == family and v.index > width:
                    width = v.index
        out: set[tuple[int, ...]] = set()
        for m in self._terms:
            vec = self._family_vector(m, family, width)
            out.add(vec if vec is not None else ())
        return out

    def exact_div(self, divisor: "LaurentPoly") -> "LaurentPoly":
        """Exact division; raises NonLaurentResult if a remainder is left.

        The division ends by construction.  With m_a, m_d the exponentwise
        minima of the terms of ``self`` and of the divisor, ``divisor / m_d``
        is a polynomial that no variable divides, and Z[vars] is a UFD, so
        an exact quotient is ``m_a / m_d`` times a polynomial.  Long
        division under the canonical order (graded, compatible with
        multiplication) takes quotient terms ``r / d`` in strictly
        descending order, ``r`` the remainder's leading monomial and ``d``
        the divisor's.  In an exact division ``r / d`` is a quotient term,
        so ``r`` lies exponentwise above ``m_a * d / m_d``, hence above the
        floor ``min(m_a, 1)``: an ``r`` below it, or an indivisible
        coefficient, proves a remainder.  Above ``floor / d`` each degree
        holds finitely many monomials and degrees are bounded below, so the
        descent ends.
        """
        divisor = self._coerce(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return _ZERO
        dm = min(divisor._terms, key=_term_key)
        dc = divisor._terms[dm]
        floor: dict[VarId, int] = {}
        for m in self._terms:
            for v, e in m._exps:
                if e < 0 and e < floor.get(v, 0):
                    floor[v] = e
        rem = dict(self._terms)
        quot: dict[Monomial, int] = {}
        while rem:
            lead = min(rem, key=_term_key)
            c = rem[lead]
            if c % dc:
                raise NonLaurentResult(
                    f"leading coefficient {c} not divisible by {dc}"
                )
            if any(e < floor.get(v, 0) for v, e in lead._exps if e < 0):
                raise NonLaurentResult(
                    f"remainder term {lead.text()} lies below the dividend's floor"
                )
            qm = lead.div(dm)
            qc = c // dc
            quot[qm] = qc
            for m2, c2 in divisor._terms.items():
                key = qm.mul(m2)
                nc = rem.get(key, 0) - qc * c2
                if nc:
                    rem[key] = nc
                else:
                    rem.pop(key, None)
        return LaurentPoly(quot)

    # -- serialization ----------------------------------------------------

    def to_text(self) -> str:
        if not self._terms:
            return "0"
        pieces: list[str] = []
        for i, (m, c) in enumerate(self.canonical_terms()):
            mag = abs(c)
            if m.is_one():
                body = str(mag)
            elif mag == 1:
                body = m.text()
            else:
                body = f"{mag}*{m.text()}"
            if i == 0:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(f" + {body}" if c > 0 else f" - {body}")
        return "".join(pieces)

    def to_json_obj(self) -> list[dict]:
        return [
            {
                "exponents": {v.name: e for v, e in m._exps},
                "coeff": str(c),
            }
            for m, c in self.canonical_terms()
        ]

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"LaurentPoly({self.to_text()})"


_ZERO = LaurentPoly(())
_ONE = LaurentPoly({_MONO_ONE: 1})


def x(i: int) -> LaurentPoly:
    return LaurentPoly.variable(xid(i))


def y(i: int) -> LaurentPoly:
    return LaurentPoly.variable(yid(i))


def q(i: int) -> LaurentPoly:
    return LaurentPoly.variable(qid(i))


def t(i: int) -> LaurentPoly:
    return LaurentPoly.variable(tid(i))


def u(i: int) -> LaurentPoly:
    return LaurentPoly.variable(uid(i))


def z(i: int = 1) -> LaurentPoly:
    return LaurentPoly.variable(zid(i))
