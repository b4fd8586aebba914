"""Quiver Grassmannian point counting over prime fields and Euler
characteristics via counting-polynomial interpolation.

Subspaces are enumerated through reduced row-echelon bases (one canonical
representative each).  The walk proceeds in topological order with early
pruning: at each vertex only superspaces of the span of the incoming
images are generated.  The final vertex (a sink) is never enumerated,
only counted by a Gaussian binomial in the dimension of its incoming span.
The vertex before it is counted in closed form too when at most one arrow
leaves it (all its arrows end at the sink): with W its incoming span, A
that arrow and C the span of the other arrows' images at the sink, the
subspaces U above W are counted by dim(U meet A^{-1}(C)), which fixes the
sink's incoming span, through q-binomials.  A multiple arrow there (as in
the Kronecker quiver) keeps that vertex enumerated.  When the
transpose-dual of the representation has fewer walk leaves at the prime
in hand, counting happens there; orthogonal complements carry the counts
back exactly.

The Euler characteristic is defined operationally as the counting
polynomial evaluated at 1.  The polynomial is interpolated through the
first D+1 admissible primes, with D the ambient product-of-Grassmannians
dimension bound, and verified against two held-out primes; disagreement
raises instead of guessing.

Counting at distinct primes or dimension vectors is independent and
side-effect-free; results aggregate deterministically by (prime, e) key.
"""

from __future__ import annotations

import functools
import itertools
import operator
import os
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import (
    DimOutOfRange,
    ExcludedPrime,
    InvalidArgument,
    NonPolynomialCount,
)
from .quiver import DimVector, IntRep, Quiver, dual_rep

__all__ = [
    "CountProfile",
    "count_subreps",
    "counting_polynomial",
    "euler_char",
    "profile",
    "box_profiles",
    "gaussian_binomial",
    "default_primes",
    "PRIMES_ENV_VAR",
]

PRIMES_ENV_VAR = "CLUSTERCHAR_PRIMES"
_DEFAULT_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)


# ---------------------------------------------------------------------------
# primes


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def default_primes() -> tuple[int, ...]:
    """The configured base prime list (CLUSTERCHAR_PRIMES overrides)."""
    raw = os.environ.get(PRIMES_ENV_VAR)
    if raw is None:
        return _DEFAULT_PRIMES
    try:
        vals = sorted({int(tok) for tok in raw.split(",") if tok.strip()})
    except ValueError as exc:
        raise InvalidArgument(f"bad {PRIMES_ENV_VAR}: {raw!r}") from exc
    if not vals or any(not _is_prime(v) for v in vals):
        raise InvalidArgument(f"{PRIMES_ENV_VAR} must list primes, got {raw!r}")
    return tuple(vals)


def _prime_stream(base: Sequence[int]) -> Iterator[int]:
    """The base list in order, extended with the next primes beyond it
    whenever interpolation needs more samples than the list provides."""
    last = 1
    for p in base:
        yield p
        last = p
    n = last + 1
    while True:
        if _is_prime(n):
            yield n
        n += 1


def admissible_primes(rep: IntRep, base: Sequence[int] | None = None) -> Iterator[int]:
    excluded = rep.excluded_primes()
    for p in _prime_stream(base if base is not None else default_primes()):
        if p not in excluded:
            yield p


# ---------------------------------------------------------------------------
# linear algebra over F_p (vectors are tuples of ints in [0, p))


def _extend(basis: dict[int, list[int]], vectors: Sequence[Sequence[int]], p: int) -> int:
    """Grow an echelon basis (pivot column -> row that is 1 there and 0
    before it) by the given vectors; returns the rank of the grown span."""
    for vec in vectors:
        row = list(vec)
        for c in range(len(row)):
            x = row[c]
            if not x:
                continue
            pivot = basis.get(c)
            if pivot is None:
                inv = pow(x, p - 2, p)
                basis[c] = [v * inv % p for v in row]
                break
            row = [(u - x * v) % p for u, v in zip(row, pivot)]
    return len(basis)


def _apply(matrix: Sequence[Sequence[int]], basis: Sequence[Sequence[int]], p: int) -> list[tuple[int, ...]]:
    """Images of basis row-vectors under the matrix (acting on columns)."""
    return [tuple(sum(map(operator.mul, row, v)) % p for row in matrix) for v in basis]


def _echelon_subspaces(d: int, k: int, p: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All k-dimensional subspaces of F_p^d as RREF bases, each exactly once."""
    if k < 0 or k > d:
        return
    if k == 0:
        yield ()
        return
    for pivots in itertools.combinations(range(d), k):
        pivot_set = set(pivots)
        free_cells = [
            (i, j)
            for i in range(k)
            for j in range(pivots[i] + 1, d)
            if j not in pivot_set
        ]
        for values in itertools.product(range(p), repeat=len(free_cells)):
            rows = [[0] * d for _ in range(k)]
            for i in range(k):
                rows[i][pivots[i]] = 1
            for (i, j), v in zip(free_cells, values):
                rows[i][j] = v
            yield tuple(tuple(r) for r in rows)


def _superspaces(
    w_rows: tuple[tuple[int, ...], ...],
    w_pivots: tuple[int, ...],
    d: int,
    k: int,
    p: int,
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Bases of the k-dimensional subspaces containing the span W of the
    echelon rows ``w_rows``.

    Subspaces above W correspond to subspaces of the quotient, coordinates
    taken on the non-pivot columns of W; each lift is joined to W's rows.
    """
    w = len(w_rows)
    if k < w or k > d:
        return
    if k == w:
        yield w_rows
        return
    non_pivot = [j for j in range(d) if j not in w_pivots]
    for qbasis in _echelon_subspaces(len(non_pivot), k - w, p):
        lifted = []
        for qrow in qbasis:
            vec = [0] * d
            for pos, val in zip(non_pivot, qrow):
                vec[pos] = val
            lifted.append(tuple(vec))
        yield w_rows + tuple(lifted)


@functools.lru_cache(maxsize=None)
def gaussian_binomial(n: int, k: int, p: int) -> int:
    """Number of k-dimensional subspaces of F_p^n."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (k - i) - 1
    return num // den


# ---------------------------------------------------------------------------
# counting


def _walk_plan(quiver: Quiver) -> tuple[tuple[int, ...], int | None, int]:
    """The enumerated vertices, the vertex counted in closed form ahead of
    the sink (None if there is none), and the sink, all in topological order.

    Every arrow out of the vertex just before the sink ends at the sink; that
    vertex is counted in closed form when at most one such arrow exists.
    """
    order = quiver.topological_order()
    if len(order) > 1 and sum(1 for s, _ in quiver.arrow_indices() if s == order[-2]) <= 1:
        return order[:-2], order[-2], order[-1]
    return order[:-1], None, order[-1]


def _walk_cost(rep: IntRep, p: int) -> int:
    """Number of leaves of the walk over F_p: subspace tuples at the
    enumerated vertices, before pruning."""
    cost = 1
    for v in _walk_plan(rep.quiver)[0]:
        cost *= sum(gaussian_binomial(rep.dim[v], k, p) for k in range(rep.dim[v] + 1))
    return cost


def _count_box_raw(rep: IntRep, p: int) -> dict[DimVector, int]:
    """Counts of stable subspace tuples for every dimension vector at once.

    Each leaf of the walk fixes subspaces at the enumerated vertices and is
    tallied by a few ranks; the closed-form vertex and the sink are then
    counted from those ranks alone.
    """
    explicit, tail, sink = _walk_plan(rep.quiver)
    in_arrows: dict[int, list[tuple[tuple[tuple[int, ...], ...], int]]] = {
        v: [] for v in range(len(rep.dim))
    }
    for (s, t), m in zip(rep.quiver.arrow_indices(), rep.matrices):
        in_arrows[t].append((tuple(tuple(v % p for v in row) for row in m), s))

    chosen: dict[int, tuple[tuple[int, ...], ...]] = {}
    dims: list[int] = [0] * len(rep.dim)
    leaves: dict[tuple, int] = {}  # (dims, ranks at the leaf) -> number of leaves

    def images(arrows: list) -> list[tuple[int, ...]]:
        return [img for mat, s in arrows for img in _apply(mat, chosen[s], p)]

    if tail is None:

        def leaf_ranks() -> tuple[int, ...]:
            return (_extend({}, images(in_arrows[sink]), p),)

    else:
        # With W the incoming span at the tail, C the span the other arrows
        # give at the sink and A the arrow tail -> sink (zero if absent):
        # w = dim W, r_w = dim(C + AW), r_v = dim(C + A V_tail).
        a_mat = next((mat for mat, s in in_arrows[sink] if s == tail), None)
        others = [(mat, s) for mat, s in in_arrows[sink] if s != tail]
        columns = list(zip(*a_mat)) if a_mat else []

        def leaf_ranks() -> tuple[int, ...]:
            gens = images(in_arrows[tail])
            basis: dict[int, list[int]] = {}
            r_w = _extend(basis, images(others) + (_apply(a_mat, gens, p) if a_mat else []), p)
            return _extend({}, gens, p), r_w, _extend(basis, columns, p)

    def recurse(i: int) -> None:
        if i == len(explicit):
            key = (tuple(dims), *leaf_ranks())
            leaves[key] = leaves.get(key, 0) + 1
            return
        v = explicit[i]
        span: dict[int, list[int]] = {}
        w = _extend(span, images(in_arrows[v]), p)
        w_rows = tuple(tuple(row) for row in span.values())
        for k in range(w, rep.dim[v] + 1):
            dims[v] = k
            for basis in _superspaces(w_rows, tuple(span), rep.dim[v], k, p):
                chosen[v] = basis
                recurse(i + 1)
        chosen.pop(v, None)

    recurse(0)

    # (dims, dim of the incoming span at the sink) -> number of tuples
    spans: dict[tuple[DimVector, int], int] = leaves
    if tail is not None:
        # A U between W and V_tail with k' = dim U/W (kk below) gives the
        # sink span C + AU of dim r_w + k' - j, where j = dim(U/W meet K')
        # for K' = (A^{-1}(C) + W)/W, of dim m = n - (r_v - r_w) inside
        # V_tail/W of dim n.  q^{(k'-j)(m-j)} [m, j]_q [n-m, k'-j]_q of the
        # U have a given j.
        spans = {}
        for (key, w, r_w, r_v), mult in leaves.items():
            n = rep.dim[tail] - w
            m = n - (r_v - r_w)
            cur = list(key)
            for kk in range(n + 1):
                cur[tail] = w + kk
                for j in range(max(0, kk - (n - m)), min(kk, m) + 1):
                    ways = (
                        p ** ((kk - j) * (m - j))
                        * gaussian_binomial(m, j, p)
                        * gaussian_binomial(n - m, kk - j, p)
                    )
                    span_key = (tuple(cur), r_w + kk - j)
                    spans[span_key] = spans.get(span_key, 0) + mult * ways

    counts: dict[DimVector, int] = {}
    d_sink = rep.dim[sink]
    for (key, s), mult in spans.items():
        cur = list(key)
        for k in range(s, d_sink + 1):
            cur[sink] = k
            e = tuple(cur)
            counts[e] = counts.get(e, 0) + mult * gaussian_binomial(d_sink - s, k - s, p)
    return counts


@functools.lru_cache(maxsize=None)
def _count_box(rep: IntRep, p: int) -> dict[DimVector, int]:
    if p in rep.excluded_primes():
        raise ExcludedPrime(f"prime {p} is excluded for {rep.label or 'this module'}")
    dual = dual_rep(rep)
    if _walk_cost(dual, p) < _walk_cost(rep, p):
        raw = _count_box_raw(dual, p)
        total = rep.dim
        flipped: dict[DimVector, int] = {}
        for e, c in raw.items():
            comp = tuple(t - x for t, x in zip(total, e))
            flipped[comp] = c
        return flipped
    return _count_box_raw(rep, p)


def _check_e(rep: IntRep, e: Sequence[int]) -> DimVector:
    e = tuple(int(v) for v in e)
    if len(e) != len(rep.dim):
        raise DimOutOfRange(f"e has {len(e)} entries for {len(rep.dim)} vertices")
    if any(v < 0 or v > d for v, d in zip(e, rep.dim)):
        raise DimOutOfRange(f"e={e} is not between 0 and {rep.dim}")
    return e


def count_subreps(rep: IntRep, e: Sequence[int], p: int) -> int:
    """Exact number of subrepresentations of dimension vector e over F_p."""
    e = _check_e(rep, e)
    box = _count_box(rep, p)
    return box.get(e, 0)


# ---------------------------------------------------------------------------
# interpolation


def _newton_coefficients(points: Sequence[tuple[int, int]]) -> tuple[int, ...]:
    """Exact interpolation through integer nodes by Newton divided
    differences; coefficients ascending by degree.

    Every divided difference of an integer polynomial at integer nodes is
    an integer, so the first division that leaves a remainder proves the
    interpolant is not integral and raises NonPolynomialCount.
    """
    xs = [x for x, _ in points]
    dd = [y for _, y in points]
    for j in range(1, len(xs)):
        for i in range(len(xs) - 1, j - 1, -1):
            num, den = dd[i] - dd[i - 1], xs[i] - xs[i - j]
            if num % den:
                raise NonPolynomialCount(
                    f"divided difference over nodes {xs[i - j:i + 1]} is "
                    f"{num}/{den}, not an integer"
                )
            dd[i] = num // den
    out = [0]
    for k in range(len(xs) - 1, -1, -1):  # Horner on the Newton form
        out = [a - xs[k] * b for a, b in zip([0] + out, out + [0])]
        out[0] += dd[k]
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


def _eval_poly(coeffs: Sequence[int], x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


@dataclass(frozen=True)
class CountProfile:
    """Per-prime counts, the interpolated counting polynomial (ascending
    coefficients), and the Euler characteristic it yields at 1."""

    rep: IntRep
    e: DimVector
    samples: tuple[tuple[int, int], ...]
    coefficients: tuple[int, ...]
    chi: int

    def __post_init__(self) -> None:
        for p, c in self.samples:
            if _eval_poly(self.coefficients, p) != c:
                raise NonPolynomialCount(
                    f"sample at p={p} disagrees with the interpolant"
                )
        if _eval_poly(self.coefficients, 1) != self.chi:
            raise NonPolynomialCount("chi must be the polynomial value at 1")


def _ambient_degree_bound(rep: IntRep, e: DimVector) -> int:
    return sum(ei * (di - ei) for ei, di in zip(e, rep.dim))


def profile(rep: IntRep, e: DimVector) -> CountProfile:
    """Sample, interpolate, and cross-check the counting polynomial for e."""
    return _profile_with(rep, _check_e(rep, e), default_primes())


@functools.lru_cache(maxsize=None)
def _profile_with(rep: IntRep, e: DimVector, base: tuple[int, ...]) -> CountProfile:
    bound = _ambient_degree_bound(rep, e)
    needed = bound + 3  # interpolation nodes plus two held-out checks
    primes = list(itertools.islice(admissible_primes(rep, base), needed))
    samples = tuple((p, count_subreps(rep, e, p)) for p in primes)
    coeffs = _newton_coefficients(samples[: bound + 1])
    for p, c in samples[bound + 1 :]:
        if _eval_poly(coeffs, p) != c:
            raise NonPolynomialCount(
                f"held-out prime {p} disagrees for e={e}: "
                f"count {c} vs interpolant {_eval_poly(coeffs, p)}"
            )
    return CountProfile(rep, e, samples, coeffs, _eval_poly(coeffs, 1))


def counting_polynomial(rep: IntRep, e: Sequence[int]) -> tuple[int, ...]:
    """Ascending coefficients of the verified counting polynomial."""
    return profile(rep, tuple(int(v) for v in e)).coefficients


def euler_char(rep: IntRep, e: Sequence[int]) -> int:
    """Counting polynomial evaluated at 1."""
    return profile(rep, tuple(int(v) for v in e)).chi


def box_profiles(rep: IntRep) -> dict[DimVector, CountProfile]:
    """Profiles for every 0 <= e <= dim, sharing the per-prime walks."""
    ranges = [range(d + 1) for d in rep.dim]
    return {e: profile(rep, e) for e in itertools.product(*ranges)}
