"""Generalized Chebyshev polynomials, delta-polynomials, and the
one-variable normalized Chebyshev families.

Everything here rests on one three-term recurrence,

    P_n = t_n * P_{n-1} - q_n * P_{n-2},    P_0 = 1,  P_{-1} = 0,

and `gen_cheb_values` is the only loop that runs it.  The window
polynomial `gen_cheb` over [start, start+length-1] depends on the window
only through its length: the loop runs once per length, on q/t_1, ...,
q/t_length, and every other window, like any sequence of distinct indices
(`gen_cheb_along`), is that polynomial with its variables renamed, which
moves no coefficient.  `delta` is P_{lp} - q_1 * P over [2, lp-1], two
windows; `delta_values` and the second-kind family S_n (all q = 1, all
t = z) run the loop on their own argument lists, and the first kind is
F_n = S_n - S_{n-2}.  The tridiagonal-determinant expansion is kept as an
independent oracle (`gen_cheb_det`) and the two must agree on every window.

P over an empty window is 1 and over a negative-length window is 0; these
conventions make the three-term relations and the degenerate
delta-polynomial cases well defined.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Sequence

from .errors import InvalidArgument, Record
from .laurent import Family, LaurentPoly, VarId, q, qid, t, tid, u, z

__all__ = [
    "ChebWindow",
    "gen_cheb",
    "gen_cheb_along",
    "gen_cheb_det",
    "gen_cheb_values",
    "delta",
    "delta_cf",
    "delta_values",
    "cheb_first_kind",
    "cheb_second_kind",
    "s_from_f",
    "tail_substitution",
    "periodic_neighbour",
]

_ZERO = LaurentPoly.zero()
_ONE = LaurentPoly.one()


class ChebWindow(Record):
    """The index interval [start, start+length-1] of q/t variables."""

    _fields = ("start", "length")
    _compared = 2

    def __init__(self, start: int, length: int) -> None:
        if start < 0:
            raise InvalidArgument(f"window start must be >= 0 (t0, t1, ...), got {start}")
        self.__dict__.update(start=start, length=length)


@functools.lru_cache(maxsize=256)  # every window of `verify lemma-dpsn --n 20`
def gen_cheb(w: ChebWindow) -> LaurentPoly:
    """P over the window.  The recurrence runs on q/t_1, ..., q/t_length
    alone; a window at another start is that polynomial renamed."""
    if w.length < 0:
        return _ZERO
    if w.start != 1:
        return gen_cheb_along(range(w.start, w.start + w.length))
    idx = range(1, w.length + 1)
    return gen_cheb_values([q(i) for i in idx], [t(i) for i in idx])


def gen_cheb_along(order: Sequence[int]) -> LaurentPoly:
    """P_n over the n distinct indices of ``order``: the recurrence's value
    at q/t_order[0], ..., q/t_order[n-1], formed from P over [1, n] by
    renaming q_k and t_k to q and t of order[k-1]."""
    sigma = {}
    for k, j in enumerate(order, 1):
        sigma[qid(k)], sigma[tid(k)] = qid(j), tid(j)
    return gen_cheb(ChebWindow(1, len(order)))._rename(sigma)


def gen_cheb_det(w: ChebWindow) -> LaurentPoly:
    """P over the window as a literal tridiagonal determinant.

    The matrix has diagonal t_{last}, ..., t_{start}, superdiagonal 1 and
    subdiagonal q_{last}, ..., q_{start+1}; the determinant is expanded by
    cofactors along the first active row, memoized on column subsets.
    """
    n = w.length
    if n < 0:
        return _ZERO
    if n == 0:
        return _ONE

    def entry(r: int, c: int) -> LaurentPoly:
        if r == c:
            return t(w.start + n - 1 - r)
        if c == r + 1:
            return _ONE
        if c == r - 1:
            return q(w.start + n - r)
        return _ZERO

    memo: dict[frozenset[int], LaurentPoly] = {}

    def minor(cols: frozenset[int]) -> LaurentPoly:
        if not cols:
            return _ONE
        got = memo.get(cols)
        if got is not None:
            return got
        row = n - len(cols)
        total = _ZERO
        for pos, c in enumerate(sorted(cols)):
            a = entry(row, c)
            if a.is_zero():
                continue
            sub = minor(cols - {c})
            term = a * sub
            total = total + (term if pos % 2 == 0 else -term)
        memo[cols] = total
        return total

    return minor(frozenset(range(n)))


def gen_cheb_values(qs: Sequence[LaurentPoly], ts: Sequence[LaurentPoly]) -> LaurentPoly:
    """Evaluate P_n at explicit argument lists (q_1..q_n, t_1..t_n).

    This is the package's one three-term loop.  Evaluation runs the
    defining recurrence directly, which agrees with substituting into the
    window polynomial because both are ring maps.
    """
    if len(qs) != len(ts):
        raise InvalidArgument("q and t argument lists must have equal length")
    prev2: LaurentPoly = _ZERO
    prev: LaurentPoly = _ONE
    for qv, tv in zip(qs, ts):
        prev, prev2 = tv * prev - qv * prev2, prev
    return prev


def _lp(l: int, p: int) -> int:
    if l < 1 or p < 1:
        raise InvalidArgument(f"delta requires l, p >= 1, got l={l}, p={p}")
    return l * p


def delta(l: int, p: int) -> LaurentPoly:
    """Delta_{l,p} = P_{lp}([1,lp]) - q_1 * P_{lp-2}([2,lp-1]).

    It depends on l and p only through lp, and is memoized on lp.
    """
    return _delta(_lp(l, p))


@functools.lru_cache(maxsize=32)  # P_32 alone has 3.5 million terms
def _delta(lp: int) -> LaurentPoly:
    return gen_cheb(ChebWindow(1, lp)) - q(1) * gen_cheb(ChebWindow(2, lp - 2))


def delta_cf(l: int, p: int) -> LaurentPoly:
    """Coefficient-free delta: all q variables specialized to 1."""
    return delta(l, p).specialize_ones(Family.Q)


def delta_values(l: int, p: int, qs: Sequence[LaurentPoly], ts: Sequence[LaurentPoly]) -> LaurentPoly:
    """Delta_{l,p} evaluated at explicit argument lists of length lp."""
    lp = _lp(l, p)
    if len(qs) != lp or len(ts) != lp:
        raise InvalidArgument(f"expected {lp} q and t arguments")
    if lp < 2:
        return gen_cheb_values(qs, ts)  # the inner window has length -1
    return gen_cheb_values(qs, ts) - qs[0] * gen_cheb_values(qs[1:lp - 1], ts[1:lp - 1])


def cheb_first_kind(n: int) -> LaurentPoly:
    """Normalized first-kind polynomial: F_0 = 2, F_1 = z, F_n = S_n - S_{n-2}."""
    if n < 0:
        raise InvalidArgument("n must be >= 0")
    if n < 2:
        return LaurentPoly.constant(2) if n == 0 else z()
    return cheb_second_kind(n) - cheb_second_kind(n - 2)


@functools.lru_cache(maxsize=64)  # `verify` reads S_0, ..., S_12
def cheb_second_kind(n: int) -> LaurentPoly:
    """Normalized second-kind polynomial: S_0 = 1, S_1 = z, S_{n+1} = z S_n - S_{n-1}.

    Equivalently S_n = P_n(1, ..., 1, z, ..., z), which is how it is computed.
    """
    if n < 0:
        raise InvalidArgument("n must be >= 0")
    return gen_cheb_values([_ONE] * n, [z()] * n)


def s_from_f(n: int) -> list[tuple[int, int]]:
    """Decomposition of S_n into first-kind terms, as (index, multiplier).

    For odd n the terms are F_n, F_{n-2}, ..., F_1, each once.  For even n
    the chain F_n, ..., F_2 is closed by the constant 1 (index -1 denotes
    the constant), not by F_0 = 2: with F_0 the even-n sum overshoots by 1,
    e.g. F_2 + F_0 = x^2 while S_2 = x^2 - 1.
    """
    if n < 0:
        raise InvalidArgument("n must be >= 0")
    out = [(k, 1) for k in range(n, 0, -2)]
    if n % 2 == 0:
        out.append((-1, 1))
    return out


def s_from_f_value(n: int) -> LaurentPoly:
    """The right-hand side of the decomposition, expanded exactly."""
    total = LaurentPoly.zero()
    for idx, mult in s_from_f(n):
        part = _ONE if idx == -1 else cheb_first_kind(idx)
        total = total + mult * part
    return total


def tail_substitution(
    n: int, neighbour: Callable[[int], int], with_u: bool = False
) -> dict[VarId, LaurentPoly]:
    """t_i -> t_i (+ u_i) + q_i / t_{neighbour(i)} for i = 1..n.

    The positivity statements take neighbour(i) = i - 1: with a fresh t_0
    for P_n, and with t_0 wrapping back to t_n (``periodic_neighbour``) for
    the periodic delta-polynomials.  Relative to the pinned determinant
    orientation (diagonal t_n, ..., t_1, recurrence stripping the top index)
    this is the direction that makes the substituted polynomial
    subtraction-free; attaching the tail to t_{i+1} instead leaves an
    uncancelled -q_n already at n = 2.
    """
    sigma = {}
    for i in range(1, n + 1):
        img = t(i) + q(i) * t(neighbour(i)).inverse()
        if with_u:
            img = img + u(i)
        sigma[tid(i)] = img
    return sigma


def periodic_neighbour(n: int) -> Callable[[int], int]:
    """i -> i - 1 on 1..n with 0 wrapping back to n."""
    return lambda i: (i - 2) % n + 1
