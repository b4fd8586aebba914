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
In a frame a monomial packs into one integer key, the dense vector
``(-degree, -e_1, ..., -e_n)`` written as balanced signed digits in bit
fields, the degree most significant.  Integer order on keys is the
canonical order above: the lexicographic order of the dense exponent
vectors, graded by degree.  Variables a monomial lacks sit at 0, so a larger
frame orders the same.  A product of monomials is the sum of their keys, a
quotient the difference, as long as every exponent involved fits the field
width; each operation derives that width from a bound on its own exponents.
Multiplication adds keys; exact division takes the leading remainder term
from a heap of them, its fields holding digits up to 2n(a + d) for n frame
variables and largest |exponent| a and d of dividend and divisor (proved in
``LaurentPoly.exact_div``).

Values are immutable after construction and safe to share between
concurrent tasks; all operations are pure functions.
"""

from __future__ import annotations

import heapq
from enum import IntEnum
from itertools import chain
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


def _max_exponent(monomials: Iterable[Monomial]) -> int:
    """The largest |exponent| in the monomials (0 if there is none)."""
    return max((abs(e) for m in monomials for _, e in m._exps), default=0)


def _packing(frame: Sequence[VarId], bound: int):
    """Order-preserving packed keys over the frame's variables v_1 < ... < v_n.

    A monomial packs into one integer with n fields of ``bits`` bits under a
    top field: the top holds ``-degree``, the field of v_i holds ``-e_i``, v_1
    the most significant.  A field holds a balanced signed digit, so keys add
    like exponent vectors.  When every exponent lies in [-bound, bound],
    ``2**(bits - 1) > 2 * bound`` makes the fields read back one-to-one and
    integer order equal to the canonical order (the top field has no bound):
    the first differing field outweighs every field below it.

    Returns ``pack``, ``unpack`` and ``guards``, the top bit of every field.
    For a floor monomial f, field i of ``guards + pack(f) - key`` holds
    ``2**(bits - 1) + e_i - f_i``, which lies in [0, 2**bits) as both
    exponents lie in [-bound, bound].  So ``(guards + pack(f) - key) & guards``
    keeps the guard of field i exactly when e_i >= f_i: one subtraction
    tests every field.
    """
    bits = (2 * bound).bit_length() + 1
    top = bits * len(frame)
    shift = {v: top - bits * i for i, v in enumerate(frame, 1)}
    ones = ((1 << top) - 1) // ((1 << bits) - 1)  # a 1 in every field
    bias = bound * ones
    guards = ones << (bits - 1)
    mask = (1 << bits) - 1
    tail = frame[::-1]

    def pack(m: Monomial) -> int:
        k = m._degree << top
        for v, e in m._exps:
            k += e << shift[v]
        return -k

    def unpack(k: int) -> Monomial:
        k = bias - k  # fields e_i + bound >= 0 under the degree
        exps = []
        for v in tail:
            e = (k & mask) - bound
            k >>= bits
            if e:
                exps.append((v, e))
        exps.reverse()
        return Monomial._of(tuple(exps), k)

    return pack, unpack, guards


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
        terms = self._terms
        if len(terms) < 2:
            return list(terms.items())
        pack = _packing(_frame(terms), _max_exponent(terms))[0]
        return [(m, terms[m]) for m in sorted(terms, key=pack)]

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
        # Every product exponent lies within the sum of the factors' bounds.
        pack, unpack, _ = _packing(_frame(chain(a, b)), _max_exponent(a) + _max_exponent(b))
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
        ``family^e * graded_coefficient(p, e)`` over the exponent vectors
        of the family in ``p``'s terms reconstructs ``p``.
        """
        target = tuple(e)
        width = len(target)
        return LaurentPoly(
            (Monomial([(v, k) for v, k in m._exps if v.family != family]), c)
            for m, c in self._terms.items()
            if self._family_vector(m, family, width) == target
        )

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

        Keys are packed over the n frame variables with the field bound
        M = 2n(a + d), a and d the largest |exponent| of the dividend and
        of the divisor.  Each remainder term sorts at or after the
        dividend's leading term, so a lead r has deg r <= n*a; if r passes
        the floor check, every e_i(r) >= -a, so deg r >= -n*a and
        e_i(r) = deg r - sum_{j != i} e_j(r) <= (2n - 1)*a.  A quotient term
        r / d then has |e_i| <= (2n - 1)*a + d, and a product of it with a
        divisor term |e_i| <= (2n - 1)*a + 2d <= M.  Every key formed, the
        dividend's, the divisor's, quotients and products, lies within M,
        the lead that fails the floor check included.
        """
        divisor = self._coerce(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return _ZERO
        # Work on packed keys in the frame of both operands.  The remainder is
        # a key -> coefficient map with a heap of its keys; a key that cancels
        # leaves the map, and its heap entry is skipped when popped.  Every
        # product qk + d sorts after the lead it was made from, so a popped
        # key never returns.
        frame = _frame(chain(self._terms, divisor._terms))
        bound = 2 * len(frame) * (_max_exponent(self._terms) + _max_exponent(divisor._terms))
        pack, unpack, guards = _packing(frame, bound)
        dterms = sorted((pack(m), c) for m, c in divisor._terms.items())
        (dk, dc), rest = dterms[0], dterms[1:]
        rem = {pack(m): c for m, c in self._terms.items()}
        floor: dict[VarId, int] = {}
        for m in self._terms:
            for v, e in m._exps:
                if e < floor.get(v, 0):
                    floor[v] = e
        gate = guards + pack(Monomial(floor))
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
            if (gate - lead) & guards != guards:
                raise NonLaurentResult(
                    f"remainder term {unpack(lead).text()} lies below the dividend's floor"
                )
            qk = lead - dk
            qc = c // dc
            quot[unpack(qk)] = qc
            for k2, c2 in rest:
                key = qk + k2
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
