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
order as plain tuples.  Sorting, multiplication and exact division work in a
*frame*: the sorted variables v_1 < ... < v_n that occur in the operands.
In a frame a monomial is the dense key ``(-degree, -e_1, ..., -e_n)``, and
plain tuple order on keys is the canonical order above: the lexicographic
order of the dense exponent vectors, graded by degree.  Variables a monomial
lacks sit at 0, so a larger frame orders the same.  A product of monomials is
the elementwise sum of their keys, a quotient the difference; exact division
takes the leading remainder term from a heap of these keys.  Multiplication
needs no order, only sums: it packs each exponent vector into one integer,
with a bit field per variable wide enough for every product, and adds those.

Values are immutable after construction and safe to share between
concurrent tasks; all operations are pure functions.
"""

from __future__ import annotations

import heapq
from enum import IntEnum
from itertools import chain
from operator import add, gt, sub
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

    @staticmethod
    def _of(exps: tuple[tuple[VarId, int], ...], degree: int) -> "Monomial":
        """Wrap pairs that are already sorted, with no zero exponent, and
        their exponent sum."""
        m = Monomial.__new__(Monomial)
        m._exps = exps
        m._degree = degree
        m._hash = hash(exps)
        return m

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
        return Monomial._of(
            tuple(sorted(p for p in acc.items() if p[1])), self._degree + other._degree
        )

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


def _frame(monomials: Iterable[Monomial]) -> tuple[VarId, ...]:
    """The sorted variables that occur in the monomials."""
    return tuple(sorted({v for m in monomials for v, _ in m._exps}))


def _encoder(frame: Sequence[VarId]):
    """The map from a monomial over the frame's variables to its dense key
    ``(-degree, -e_1, ..., -e_n)``; keys sort in the canonical order."""
    pos = {v: i for i, v in enumerate(frame, 1)}
    width = len(frame) + 1

    def encode(m: Monomial) -> tuple[int, ...]:
        key = [0] * width
        key[0] = -m._degree
        for v, e in m._exps:
            key[pos[v]] = -e
        return tuple(key)

    return encode


def _decode(key: tuple[int, ...], frame: Sequence[VarId]) -> Monomial:
    """The monomial whose dense key in the frame is ``key``."""
    return Monomial._of(tuple((v, -k) for v, k in zip(frame, key[1:]) if k), -key[0])


def _packer(a: dict[Monomial, int], b: dict[Monomial, int]):
    """Pack and unpack for the products of monomials from ``a`` and ``b``.

    A monomial packs into the integer ``sum e_v << s_v``, one bit field per
    frame variable.  Every product exponent lies in [-bound, bound] and each
    field is wide enough for 2 * bound, so the packing is additive and
    one-to-one on products.
    """
    frame = _frame(chain(a, b))
    bound = sum(max((abs(e) for m in t for _, e in m._exps), default=0) for t in (a, b))
    bits = (2 * bound).bit_length()
    mask = (1 << bits) - 1
    shift = {v: i * bits for i, v in enumerate(frame)}
    bias = sum(bound << s for s in shift.values())

    def pack(m: Monomial) -> int:
        return sum(e << shift[v] for v, e in m._exps)

    def unpack(k: int) -> Monomial:
        k += bias  # every field now holds e_v + bound >= 0
        exps = []
        degree = 0
        for v in frame:
            e = (k & mask) - bound
            k >>= bits
            if e:
                exps.append((v, e))
                degree += e
        return Monomial._of(tuple(exps), degree)

    return pack, unpack


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
        encode = _encoder(_frame(self._terms))
        return sorted(self._terms.items(), key=lambda mc: encode(mc[0]))

    def single_term(self) -> tuple[Monomial, int] | None:
        """The (monomial, coefficient) pair if this has exactly one term."""
        if len(self._terms) != 1:
            return None
        return next(iter(self._terms.items()))

    def support(self) -> tuple[VarId, ...]:
        return _frame(self._terms)

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
        if len(a) == 1:
            ((ma, ca),) = a.items()
            return LaurentPoly._of({ma.mul(mb): ca * cb for mb, cb in b.items()})
        pack, unpack = _packer(a, b)
        eb = [(pack(mb), cb) for mb, cb in b.items()]
        acc: dict[int, int] = {}
        for ma, ca in a.items():
            ka = pack(ma)
            for kb, cb in eb:
                k = ka + kb
                acc[k] = acc.get(k, 0) + ca * cb
        return LaurentPoly._of({unpack(k): c for k, c in acc.items() if c})

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
            value = self.constant_value()
            if value is not None:  # equal to that int, so hashed as it
                self._hash = hash(value)
            else:
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
        # Work on dense keys in the frame of both operands.  The remainder is
        # a key -> coefficient map with a heap of its keys; a key that cancels
        # leaves the map, and its heap entry is skipped when popped.  Every
        # product qk + d sorts after the lead it was made from, so a popped
        # key never returns.
        frame = _frame(chain(self._terms, divisor._terms))
        encode = _encoder(frame)
        dterms = sorted((encode(m), c) for m, c in divisor._terms.items())
        (dk, dc), rest = dterms[0], dterms[1:]
        rem = {encode(m): c for m, c in self._terms.items()}
        # The floor min(m_a, 1) as a dense key bound: -e_i <= ceil[i].
        ceil = [max(0, *col) for col in list(zip(*rem))[1:]]
        heap = list(rem)
        heapq.heapify(heap)
        quot: dict[Monomial, int] = {}
        while heap:
            lead = heapq.heappop(heap)
            c = rem.pop(lead, 0)
            if not c:
                continue
            if c % dc:
                raise NonLaurentResult(
                    f"leading coefficient {c} not divisible by {dc}"
                )
            if any(map(gt, lead[1:], ceil)):
                raise NonLaurentResult(
                    f"remainder term {_decode(lead, frame).text()} lies below the dividend's floor"
                )
            qk = tuple(map(sub, lead, dk))
            qc = c // dc
            quot[_decode(qk, frame)] = qc
            for k2, c2 in rest:
                key = tuple(map(add, qk, k2))
                nc = rem.get(key, 0) - qc * c2
                if nc:
                    if key not in rem:
                        heapq.heappush(heap, key)
                    rem[key] = nc
                else:
                    del rem[key]
        return LaurentPoly._of(quot)

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
