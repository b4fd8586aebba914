"""Sparse exact multivariate Laurent polynomials over the integers.

This is the universal value type of the package: characters, Chebyshev-type
polynomials and mutation all produce elements of
``Z[y, u][x^{±1}, q^{±1}, t^{±1}]``.  Coefficients are Python ints, so every
positivity or identity check downstream is exact.

Canonical form: no zero coefficients are stored, and serialization sorts
terms by total degree descending, then lexicographically on the variable
order (family rank, then index), a larger exponent first.  Within a printed
monomial, factors appear in descending variable order, e.g. ``t2*t1 - q2``.

A polynomial stores its *frame*, the sorted variables v_1 < ... < v_n that
occur in it, and its terms as packed integer keys over that frame: the
vector ``(-degree, -e_1, ..., -e_n)`` in balanced signed fields of one fixed
width ``_BITS`` under an unbounded degree field.  With every |e_i| at most
``_LIMIT``, integer order on keys is the canonical order, and keys add under
multiplication.  ``*``, ``+`` and ``exact_div`` work on the stored keys and
re-key, moving fields, only an operand whose frame is not the union frame;
``Monomial`` objects are made at the API boundary alone.  Each polynomial
also stores the least and greatest exponent of each frame variable.  Over Z
the Newton polytope of a product is the Minkowski sum of the factors', so a
product's bounds are the sums of theirs and an exact quotient's the
differences; a sum takes the hull, rescanning only when a term cancels.  A
variable bounded by 0 on both sides leaves the frame, so equal polynomials
have equal frames and keys whatever built them, and every operation knows
before it forms a key whether an exponent could pass ``_LIMIT``, which
raises InvalidArgument.  Exact division takes the leading remainder term
from a heap of keys and holds the divisor's other terms as offsets from its
leading key, so each product key is one addition (the bound on every key it
forms, offsets included, is proved in ``LaurentPoly.exact_div``).  Text is
read off the keys as well: ``to_text`` cuts each key into its fields by
shift and mask and looks each field up in a table of factor texts, one
table per frame variable, that lives for that call only.

Values are immutable after construction and safe to share between
concurrent tasks; all operations are pure functions.
"""

from __future__ import annotations

import heapq
from collections import namedtuple
from collections.abc import Iterable, Iterator, Mapping, Sequence
from enum import IntEnum
from functools import lru_cache
from operator import add, neg, or_, sub

from .errors import InvalidArgument, NonInvertibleImage, NonLaurentResult

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


class VarId(namedtuple("VarId", ("family", "index"))):
    """One indeterminate, identified by (family, index): a Family and an int.

    Ordering is total and deterministic: family rank first, then index.
    """

    __slots__ = ()

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

    __slots__ = ("_exps", "_degree")

    def __init__(self, exps: dict[VarId, int] | Iterable[tuple[VarId, int]] = ()):
        items = exps.items() if isinstance(exps, dict) else exps
        cleaned = tuple(sorted((v, e) for v, e in items if e != 0))
        self._exps = cleaned
        self._degree = sum(e for _, e in cleaned)

    @staticmethod
    def _of(exps: tuple[tuple[VarId, int], ...], degree: int) -> "Monomial":
        """Wrap pairs that are already sorted, with no zero exponent, and
        their exponent sum."""
        m = Monomial.__new__(Monomial)
        m._exps = exps
        m._degree = degree
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
        acc = dict(self._exps)
        for v, e in other._exps:
            acc[v] = acc.get(v, 0) + e
        return Monomial(acc)

    def inverse(self) -> "Monomial":
        return Monomial(tuple((v, -e) for v, e in self._exps))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Monomial) and self._exps == other._exps

    def __hash__(self) -> int:
        return hash(self._exps)

    def text(self) -> str:
        return _factors([(v.name, e) for v, e in self._exps]) if self._exps else "1"

    def __repr__(self) -> str:
        return f"Monomial({self.text()})"


_BITS = 32  # the width of every exponent field of a key
_LIMIT = (1 << (_BITS - 2)) - 1  # the largest |exponent| a polynomial holds
_MASK = (1 << _BITS) - 1

Frame = tuple[VarId, ...]
Bounds = Sequence[int]


@lru_cache(maxsize=64)
def _ones(n: int) -> int:
    """A 1 in each of n fields."""
    return ((1 << (_BITS * n)) - 1) // _MASK


def _key(exps: Sequence[int]) -> int:
    """The key of a dense exponent vector (e_1, ..., e_n), every |e_i| at
    most ``_LIMIT``.  Integer order on these keys is the canonical order:
    two keys differ in their first differing field by at least 1, and in
    each field below it by at most 2 * _LIMIT < 2**_BITS - 1."""
    k = 0
    for e in exps:
        k = (k << _BITS) - e
    return k - (sum(exps) << (_BITS * len(exps)))


@lru_cache(maxsize=64)
def _units(n: int) -> tuple[int, ...]:
    """The key of each unit vector over n fields.  ``_key`` is linear, so
    the key of (e_1, ..., e_n) is the sum of e_i times the i-th of these,
    and subtracting the i-th from a key lowers its i-th exponent by 1."""
    return tuple(-(1 << _BITS * (n - 1 - i)) - (1 << _BITS * n) for i in range(n))


def _decode(keys: Iterable[int], n: int) -> Iterator[tuple[int, list[int]]]:
    """The degree and the dense exponent vector of each key over n fields."""
    bias, top = _LIMIT * _ones(n), _BITS * n  # fields of bias - key hold e_i + _LIMIT
    shifts = range(top - _BITS, -1, -_BITS)
    for key in keys:
        k = bias - key
        yield k >> top, [(k >> s & _MASK) - _LIMIT for s in shifts]


def _pairs(labels: Sequence, keys: Iterable[int]) -> Iterator[tuple[list[tuple], int]]:
    """For each key over a frame, the (label of the frame variable, exponent)
    pairs of its nonzero exponents in variable order, and its degree."""
    n = len(labels)
    bias, top = _LIMIT * _ones(n), _BITS * n
    fields = tuple(zip(labels, range(top - _BITS, -1, -_BITS)))
    for key in keys:
        k = bias - key
        yield [(v, e) for v, s in fields if (e := (k >> s & _MASK) - _LIMIT)], k >> top


def _factors(pairs: Sequence[tuple[str, int]]) -> str:
    """The text of a monomial's (name, exponent) pairs, given in variable
    order: factors print in descending order, e.g. ``t2*t1^-1``."""
    return "*".join(v if e == 1 else f"{v}^{e}" for v, e in reversed(pairs))


def _monomials(frame: Frame, keys: Iterable[int]) -> Iterator[Monomial]:
    return (Monomial._of(tuple(pairs), degree) for pairs, degree in _pairs(frame, keys))


@lru_cache(maxsize=256)
def _plan(src: Frame, dst: Frame) -> tuple:
    """How keys over frame ``src`` move to frame ``dst``: each field of
    ``bias - key`` holds e_i + _LIMIT >= 0, so no borrow crosses a field,
    and fields that stay adjacent move as one block.  Also gives the
    position in ``dst`` of each variable of ``src`` (None if absent)."""
    n, m = len(src), len(dst)
    at = {v: j for j, v in enumerate(dst)}
    slots = tuple(at.get(v) for v in src)
    blocks: list[list[int]] = []  # [first, last] field of src, last of dst
    for i, j in enumerate(slots):
        if j is not None and blocks and blocks[-1][1:] == [i - 1, j - 1]:
            blocks[-1][1:] = i, j
        elif j is not None:
            blocks.append([i, i, j])
    moves = [(_BITS * (n - 1 - i1), _ones(i1 - i0 + 1), _BITS * (m - 1 - j1)) for i0, i1, j1 in blocks]
    base = sum(_LIMIT * ones << d for _, ones, d in moves)
    moves = tuple((s, ones * _MASK, d) for s, ones, d in moves)
    return _LIMIT * _ones(n), _BITS * n, _BITS * m, base, moves, slots


def _rekey(terms: dict[int, int], plan: tuple) -> dict[int, int]:
    """Terms re-keyed by a ``_plan`` to a frame that holds every variable
    that they carry."""
    bias, top, new_top, base, moves, _ = plan
    out = {}
    for k, c in terms.items():
        b = bias - k
        k = base - (b >> top << new_top)
        for s, mask, d in moves:
            k -= (b >> s & mask) << d
        out[k] = c
    return out


@lru_cache(maxsize=256)
def _names(frame: Frame) -> tuple[str, ...]:
    return tuple(v.name for v in frame)


@lru_cache(maxsize=256)
def _union(a: Frame, b: Frame) -> Frame:
    return a if a == b else tuple(sorted({*a, *b}))


def _check(frame: Frame, lo: Bounds, hi: Bounds) -> None:
    """Raise InvalidArgument if an exponent bound leaves the field."""
    if frame and (min(lo) < -_LIMIT or max(hi) > _LIMIT):
        v, e = next((v, e) for v, *b in zip(frame, lo, hi) for e in b if abs(e) > _LIMIT)
        raise InvalidArgument(
            f"exponent {e} of {v.name} is outside the supported range ±{_LIMIT}"
        )


def _nonzero(terms: dict[int, int]) -> dict[int, int]:
    """The terms, with those that cancelled to 0 deleted in place."""
    for k in [k for k, c in terms.items() if not c]:
        del terms[k]
    return terms


class LaurentPoly:
    """Exact Laurent polynomial: a frame, a map from packed keys to nonzero
    ints, and the least and greatest exponent of each frame variable (see
    the module docstring)."""

    __slots__ = ("_vars", "_terms", "_lo", "_hi", "_hash")

    def __init__(self, terms: dict[Monomial, int] | Iterable[tuple[Monomial, int]] = ()):
        items = terms.items() if isinstance(terms, dict) else terms
        p = LaurentPoly.sum([LaurentPoly.from_monomial(m, c) for m, c in items])
        self._vars, self._terms, self._lo, self._hi, self._hash = p._vars, p._terms, p._lo, p._hi, None

    @staticmethod
    def _wrap(frame: Frame, terms: dict[int, int], lo: Bounds, hi: Bounds) -> "LaurentPoly":
        out = LaurentPoly.__new__(LaurentPoly)
        out._vars, out._terms, out._lo, out._hi, out._hash = frame, terms, lo, hi, None
        return out

    @staticmethod
    def _exact(frame: Frame, terms: dict[int, int], lo: Bounds, hi: Bounds) -> "LaurentPoly":
        """Wrap nonzero terms with exact bounds; a variable bounded by 0 on
        both sides leaves the frame."""
        if 0 in map(or_, lo, hi):
            keep = [i for i, b in enumerate(map(or_, lo, hi)) if b]
            small = tuple(frame[i] for i in keep)
            terms, frame = _rekey(terms, _plan(frame, small)), small
            lo, hi = tuple(lo[i] for i in keep), tuple(hi[i] for i in keep)
        return LaurentPoly._wrap(frame, terms, lo, hi)

    @staticmethod
    def _rescan(frame: Frame, terms: dict[int, int]) -> "LaurentPoly":
        """Wrap nonzero terms over a frame, reading their bounds off the keys."""
        if not terms:
            return _ZERO
        cols = list(zip(*(exps for _, exps in _decode(terms, len(frame)))))
        return LaurentPoly._exact(frame, terms, tuple(map(min, cols)), tuple(map(max, cols)))

    def _lift(self, frame: Frame) -> tuple[dict[int, int], Bounds, Bounds]:
        """The terms and bounds over a frame that holds this one."""
        if frame == self._vars:
            return self._terms, self._lo, self._hi
        if len(self._terms) == 1:  # one term: its bounds are its exponents
            at = dict(zip(self._vars, self._lo))
            exps = tuple([at.get(v, 0) for v in frame])
            return {_key(exps): next(iter(self._terms.values()))}, exps, exps
        plan = _plan(self._vars, frame)
        lo, hi = [0] * len(frame), [0] * len(frame)
        for j, l, h in zip(plan[5], self._lo, self._hi):
            lo[j], hi[j] = l, h
        return _rekey(self._terms, plan), lo, hi

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "LaurentPoly":
        return _ZERO

    @staticmethod
    def one() -> "LaurentPoly":
        return _ONE

    @staticmethod
    def constant(c: int) -> "LaurentPoly":
        return LaurentPoly._wrap((), {0: int(c)} if c else {}, (), ())

    @staticmethod
    def variable(v: VarId) -> "LaurentPoly":
        return LaurentPoly._wrap((v,), {_key((1,)): 1}, (1,), (1,))

    @staticmethod
    def from_monomial(m: Monomial, c: int = 1) -> "LaurentPoly":
        return LaurentPoly._single(m._exps, c)

    @staticmethod
    def _single(pairs: Sequence[tuple[VarId, int]], c: int) -> "LaurentPoly":
        """c times the monomial of the (variable, nonzero exponent) pairs, in
        variable order; no key is formed before the exponents are checked."""
        if not c or not pairs:
            return LaurentPoly.constant(c)
        frame, exps = zip(*pairs)
        _check(frame, exps, exps)
        return LaurentPoly._wrap(frame, {_key(exps): int(c)}, exps, exps)

    # -- inspection ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def is_one(self) -> bool:
        return not self._vars and self._terms == {0: 1}

    def __len__(self) -> int:
        return len(self._terms)

    def terms(self) -> Iterator[tuple[Monomial, int]]:
        return zip(_monomials(self._vars, self._terms), self._terms.values())

    def canonical_terms(self) -> list[tuple[Monomial, int]]:
        keys = sorted(self._terms)
        return list(zip(_monomials(self._vars, keys), map(self._terms.__getitem__, keys)))

    def single_term(self) -> tuple[Monomial, int] | None:
        """The (monomial, coefficient) pair if this has exactly one term."""
        if len(self._terms) != 1:
            return None
        return next(self.terms())

    def support(self) -> tuple[VarId, ...]:
        return self._vars

    def constant_value(self) -> int | None:
        """The integer value if the polynomial is constant, else None."""
        if self._vars:
            return None
        return self._terms.get(0, 0)

    # -- ring structure -------------------------------------------------

    @staticmethod
    def _coerce(v: PolyLike) -> "LaurentPoly":
        if isinstance(v, LaurentPoly):
            return v
        if isinstance(v, int):
            return LaurentPoly.constant(v)
        raise TypeError(f"cannot coerce {type(v).__name__} to LaurentPoly")

    @staticmethod
    def sum(parts: Iterable["LaurentPoly"]) -> "LaurentPoly":
        """The sum of the parts over the union of their frames: the first is
        copied and the rest are merged into it, so the first should be the
        largest.  Each later part of several terms is lifted once; the
        one-term parts are keyed in one pass, a key being linear in the
        exponents."""
        parts = [p for p in parts if p._terms]
        if len(parts) < 2:
            return parts[0] if parts else _ZERO
        frame = parts[0]._vars
        for p in parts:
            if p._vars != frame:
                frame = _union(frame, p._vars)
        acc, lo, hi = parts[0]._lift(frame)
        acc, lo, hi = dict(acc), list(lo), list(hi)
        get = acc.get
        singles = []
        for p in parts[1:]:
            if len(p._terms) == 1:
                singles.append(p)
                continue
            terms, plo, phi = p._lift(frame)
            for k, c in terms.items():
                acc[k] = get(k, 0) + c
            lo = [a if a < b else b for a, b in zip(lo, plo)]
            hi = [a if a > b else b for a, b in zip(hi, phi)]
        if singles:
            slots = {v: (j, unit) for j, (v, unit) in enumerate(zip(frame, _units(len(frame))))}
            held = [0] * len(frame)  # how many one-term parts hold each variable
            for p in singles:
                k = 0
                for v, e in zip(p._vars, p._lo):
                    j, unit = slots[v]
                    k += e * unit
                    held[j] += 1
                    if e < lo[j]:
                        lo[j] = e
                    elif e > hi[j]:
                        hi[j] = e
                (c,) = p._terms.values()
                acc[k] = get(k, 0) + c
            for j, count in enumerate(held):  # a part without the variable has exponent 0
                if count < len(singles):
                    lo[j], hi[j] = min(lo[j], 0), max(hi[j], 0)
        if 0 not in acc.values():  # no term cancelled, so the hull is exact
            return LaurentPoly._wrap(frame, acc, tuple(lo), tuple(hi))
        return LaurentPoly._rescan(frame, _nonzero(acc))

    def __add__(self, other: PolyLike) -> "LaurentPoly":
        other = self._coerce(other)
        return LaurentPoly.sum((self, other) if len(self._terms) >= len(other._terms) else (other, self))

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._wrap(self._vars, {k: -c for k, c in self._terms.items()}, self._lo, self._hi)

    def __sub__(self, other: PolyLike) -> "LaurentPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other: PolyLike) -> "LaurentPoly":
        return self._coerce(other) + (-self)

    def __mul__(self, other: PolyLike) -> "LaurentPoly":
        f, g = self, self._coerce(other)
        if not f._terms or not g._terms:
            return _ZERO
        if not f._vars:
            f, g = g, f
        if not g._vars:  # a constant factor scales the terms
            c = g._terms[0]
            if c == 1:
                return f
            return LaurentPoly._wrap(f._vars, {k: c * v for k, v in f._terms.items()}, f._lo, f._hi)
        frame = f._vars if f._vars == g._vars else _union(f._vars, g._vars)
        (a, alo, ahi), (b, blo, bhi) = f._lift(frame), g._lift(frame)
        lo, hi = tuple(map(add, alo, blo)), tuple(map(add, ahi, bhi))
        _check(frame, lo, hi)
        if len(a) > len(b):
            a, b = b, a
        if len(a) == 1:
            ((ka, ca),) = a.items()
            return LaurentPoly._exact(frame, {ka + kb: ca * cb for kb, cb in b.items()}, lo, hi)
        acc: dict[int, int] = {}
        get = acc.get
        if a is b:  # a square: the triangle i <= j, off-diagonal terms twice
            items = list(a.items())
            for i, (ka, ca) in enumerate(items):
                k = ka + ka
                acc[k] = get(k, 0) + ca * ca
                ca += ca
                for kb, cb in items[i + 1 :]:
                    k = ka + kb
                    acc[k] = get(k, 0) + ca * cb
        else:
            for ka, ca in a.items():
                for kb, cb in b.items():
                    k = ka + kb
                    acc[k] = get(k, 0) + ca * cb
        return LaurentPoly._exact(frame, _nonzero(acc), lo, hi)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            return self.inverse() ** (-n)
        if not n:
            return _ONE
        result = None  # the product so far, from the first set bit on
        base = self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = LaurentPoly.constant(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._vars == other._vars and self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:  # a constant equals its int, so hashes as it
            value = self.constant_value()
            self._hash = hash((self._vars, frozenset(self._terms.items())) if value is None else value)
        return self._hash

    # -- the operations the rest of the package is built on --------------

    def substitute(self, sigma: Mapping[VarId, PolyLike]) -> "LaurentPoly":
        """Ring-homomorphic substitution.

        Variables outside ``sigma`` are left fixed.  A variable occurring
        with a negative exponent must map to an invertible single-term
        image (unit coefficient), otherwise NonInvertibleImage is raised.

        The result's frame is fixed first: the kept variables and those of
        the images used.  Each image power is lifted to it once, and every
        term expands by key addition into one map.  A term's bounds, its
        kept exponents plus the bounds of its image powers, are checked
        before any of its keys is formed.
        """
        images = {v: self._coerce(p) for v, p in sigma.items()}
        frame = self._vars
        moved = [(i, images[v]) for i, v in enumerate(frame) if v in images]
        if not moved:
            return self
        kept = [v for v in frame if v not in images]
        out = tuple(sorted({*kept, *(w for _, img in moved for w in img._vars)}))
        units = _units(len(out))
        kept_at = [(i, out.index(v)) for i, v in enumerate(frame) if v not in images]
        powers: dict[tuple[int, int], tuple] = {}
        acc: dict[int, int] = {}
        get = acc.get
        for (_, exps), c in zip(_decode(self._terms, len(frame)), self._terms.values()):
            lo, key = [0] * len(out), 0
            for i, j in kept_at:
                if e := exps[i]:
                    lo[j] = e
                    key += e * units[j]
            factors = []
            for i, img in moved:
                if e := exps[i]:
                    got = powers.get((i, e))
                    if got is None:
                        p = img.inverse() ** -e if e < 0 else img ** e
                        terms, plo, phi = p._lift(out)
                        got = powers[i, e] = list(terms.items()), plo, phi
                    factors.append(got)
            if not all(terms for terms, _, _ in factors):
                continue  # a zero image
            hi = lo
            for _, plo, phi in factors:
                lo, hi = list(map(add, lo, plo)), list(map(add, hi, phi))
            _check(out, lo, hi)
            part = {key: c}
            for terms, _, _ in factors:
                step: dict[int, int] = {}
                for k1, c1 in part.items():
                    for k2, c2 in terms:
                        k = k1 + k2
                        step[k] = step.get(k, 0) + c1 * c2
                part = step
            for k, c1 in part.items():
                acc[k] = get(k, 0) + c1
        return LaurentPoly._rescan(out, _nonzero(acc))

    def inverse(self) -> "LaurentPoly":
        """Invert a unit: a single term with coefficient ±1."""
        if len(self._terms) != 1 or next(iter(self._terms.values())) not in (1, -1):
            raise NonInvertibleImage(
                f"not an invertible Laurent monomial: {self}"
            )
        ((k, c),) = self._terms.items()
        return LaurentPoly._wrap(self._vars, {-k: c}, tuple(map(neg, self._hi)), tuple(map(neg, self._lo)))

    def partial_derivative(self, v: VarId) -> "LaurentPoly":
        """Formal partial derivative d/dv with the rule d(v^n) = n v^(n-1)."""
        if v not in self._vars:
            return _ZERO
        n, i = len(self._vars), self._vars.index(v)
        _check((v,), (self._lo[i] - 1,), (self._hi[i] - 1,))
        bias, s, down = _LIMIT * _ones(n), _BITS * (n - 1 - i), -_units(n)[i]
        out = {}
        for k, c in self._terms.items():
            if e := ((bias - k) >> s & _MASK) - _LIMIT:
                out[k + down] = c * e
        return LaurentPoly._rescan(self._vars, out)

    def _project(self, family: Family, want: list[int] | None = None) -> "LaurentPoly":
        """The terms whose exponents of the family's frame variables are
        ``want`` (every term if None), with the family's variables dropped:
        their fields are cleared in the key, which then moves to the
        smaller frame."""
        frame = self._vars
        drop = [i for i, v in enumerate(frame) if v.family == family]
        if not drop:
            return self
        n = len(frame)
        bias, units = _LIMIT * _ones(n), _units(n)
        fields = [(_BITS * (n - 1 - i), units[i]) for i in drop]
        if want is not None:  # one mask compares every field of the family
            mask = sum(_MASK << s for s, _ in fields)
            target = sum(e + _LIMIT << s for (s, _), e in zip(fields, want))
            offset = sum(e * unit for (_, unit), e in zip(fields, want))
            acc = {k - offset: c for k, c in self._terms.items() if (bias - k) & mask == target}
        else:
            acc = {}
            get = acc.get
            for k, c in self._terms.items():
                b = bias - k
                for s, unit in fields:
                    k -= ((b >> s & _MASK) - _LIMIT) * unit
                acc[k] = get(k, 0) + c
            _nonzero(acc)
        small = tuple(v for v in frame if v.family != family)
        return LaurentPoly._rescan(small, _rekey(acc, _plan(frame, small)))

    def specialize_ones(self, family: Family) -> "LaurentPoly":
        """Set every variable of the given family to 1."""
        return self._project(family)

    def is_subtraction_free(self) -> bool:
        """True iff every coefficient is strictly positive (zero counts)."""
        return all(c > 0 for c in self._terms.values())

    def min_family_exponent(self, family: Family) -> int:
        """The smallest exponent carried by any variable of the family
        anywhere in the polynomial (0 if the family does not occur)."""
        return min([lo for v, lo in zip(self._vars, self._lo) if v.family == family] + [0])

    def graded_coefficient(self, e: Sequence[int], family: Family = Family.Y) -> "LaurentPoly":
        """The coefficient of the monomial ``prod family_i^{e[i-1]}``.

        The result is a polynomial in the remaining variables; summing
        ``family^e * graded_coefficient(p, e)`` over the exponent vectors
        of the family in ``p``'s terms reconstructs ``p``.
        """
        target = tuple(e)
        present = {v.index for v in self._vars if v.family == family}
        # no term holds an exponent past _LIMIT, and the mask of
        # ``_project`` compares fields only within it
        if any(c for i, c in enumerate(target, 1) if i not in present or abs(c) > _LIMIT):
            return _ZERO
        want = [
            target[v.index - 1] if 1 <= v.index <= len(target) else 0
            for v in self._vars if v.family == family
        ]
        return self._project(family, want)

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

        Keys are formed over the n variables of both frames, with
        exponents bounded by M = 2n(a + d), a and d the largest |exponent|
        of the dividend and of the divisor; InvalidArgument is raised before
        any key is formed if M exceeds ``_LIMIT``.  Each remainder term
        sorts at or after the dividend's leading term, so a lead r has
        deg r <= n*a; if r passes the floor check, every e_i(r) >= -a, so
        deg r >= -n*a and e_i(r) = deg r - sum_{j != i} e_j(r) <= (2n - 1)*a.
        A quotient term r / d then has |e_i| <= (2n - 1)*a + d, and a
        product of it with a divisor term |e_i| <= (2n - 1)*a + 2d <= M.
        Each other divisor term is stored as its offset from d, the key of
        its exponents minus d's, which lie within ±2d <= M; a product's key
        is then r's key plus the offset, the key being linear.  Every key
        formed, the dividend's, the divisor's, offsets, quotients and
        products, lies within M, the lead that fails the floor check
        included.
        """
        divisor = self._coerce(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return _ZERO
        frame = _union(self._vars, divisor._vars)
        n = len(frame)
        (rem, alo, ahi), (dterms, dlo, dhi) = self._lift(frame), divisor._lift(frame)
        a = max(map(abs, (*alo, *ahi)), default=0)
        d = max(map(abs, (*dlo, *dhi)), default=0)
        if 2 * n * (a + d) > _LIMIT:
            raise InvalidArgument(
                f"exact division over {n} variables with exponents up to {a} and {d}"
                f" needs the bound {2 * n * (a + d)}, past ±{_LIMIT}"
            )
        # The remainder is a key -> coefficient map with a heap of its keys,
        # each pushed once, when it first enters the map.  A key that cancels
        # stays in the map at 0 and is skipped when popped.  Every product
        # key lead + offset sorts after the lead it was made from, so a popped
        # key never returns.
        # Field i of gate - key holds 2**(_BITS - 1) + e_i - f_i for the floor
        # f, in [0, 2**_BITS) as |e_i - f_i| <= 2M < 2**(_BITS - 1): its top
        # bit survives exactly when e_i >= f_i, one subtraction for all fields.
        guards = _ones(n) << (_BITS - 1)
        gate = guards + _key([min(lo, 0) for lo in alo])
        # The divisor's other terms as offsets from its leading key, their
        # coefficients negated: lead + offset is the key of the quotient term
        # lead / d times that term.
        (dk, dc), *rest = sorted(dterms.items())
        rest = [(k2 - dk, -c2) for k2, c2 in rest]
        rem = dict(rem)
        get, push, pop = rem.get, heapq.heappush, heapq.heappop
        heap = list(rem)
        heapq.heapify(heap)
        quot: dict[int, int] = {}
        while heap:
            lead = pop(heap)
            c = rem.pop(lead)
            if not c:
                continue
            if c % dc:
                raise NonLaurentResult(
                    f"leading coefficient {c} not divisible by {dc}"
                )
            if (gate - lead) & guards != guards:
                ((pairs, _),) = _pairs(_names(frame), (lead,))
                raise NonLaurentResult(
                    f"remainder term {_factors(pairs)} lies below the dividend's floor"
                )
            qc = c // dc
            quot[lead - dk] = qc
            for offset, c2 in rest:
                key = lead + offset
                old = get(key)
                if old is None:
                    push(heap, key)
                    rem[key] = qc * c2
                else:
                    rem[key] = old + qc * c2
        return LaurentPoly._exact(frame, quot, tuple(map(sub, alo, dlo)), tuple(map(sub, ahi, dhi)))

    # -- serialization ----------------------------------------------------

    def _named_terms(self) -> Iterator[tuple[list[tuple[str, int]], int]]:
        """In canonical order, each term's (variable name, exponent) pairs,
        ascending, and its coefficient."""
        keys = sorted(self._terms)
        for (pairs, _), k in zip(_pairs(_names(self._vars), keys), keys):
            yield pairs, self._terms[k]

    def to_text(self) -> str:
        """The canonical text: terms in canonical order, each a magnitude
        and its factors in descending variable order.  Each factor's text,
        ``*`` first, is looked up in a table per field keyed by the raw
        field of ``bias - key``; the tables live for this call only."""
        terms = self._terms
        if not terms:
            return "0"
        bias = _LIMIT * _ones(len(self._vars))
        # the last frame variable is the lowest field and prints first
        fields = [(_BITS * i, {}, name) for i, name in enumerate(reversed(_names(self._vars)))]
        pieces: list[str] = []
        for key in sorted(terms):
            k = bias - key
            text = ""
            for s, table, name in fields:
                raw = k >> s & _MASK
                got = table.get(raw)
                if got is None:
                    e = raw - _LIMIT
                    got = table[raw] = "" if not e else f"*{name}" if e == 1 else f"*{name}^{e}"
                text += got
            c = terms[key]
            mag = abs(c)
            pieces.append(" + " if c > 0 else " - ")
            pieces.append(text[1:] if mag == 1 and text else f"{mag}{text}")
        pieces[0] = "" if pieces[0] == " + " else "-"
        return "".join(pieces)

    def to_json_obj(self) -> list[dict]:
        return [{"exponents": dict(pairs), "coeff": str(c)} for pairs, c in self._named_terms()]

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"LaurentPoly({self.to_text()})"


PolyLike = LaurentPoly | int

_ZERO = LaurentPoly._wrap((), {}, (), ())
_ONE = LaurentPoly._wrap((), {0: 1}, (), ())


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
