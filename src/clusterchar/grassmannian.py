"""Quiver Grassmannian point counting over finite fields and Euler
characteristics via counting-polynomial interpolation.

Counts are taken over F_q for q a power of an admissible prime p (one
at which reduction keeps the module; see IntRep.excluded_primes).
Katz's theorem (appendix to Hausel and Rodriguez-Villegas, Mixed Hodge
polynomials of character varieties) turns a count that is one polynomial
in q over every F_q into the E-polynomial, whose value at 1 is the Euler
characteristic; prime powers also see points that every sampled prime
misses, such as a quadratic point that is rational over F_{p^2}.  F_q is
held in tables (sum, difference and product of every pair, and inverses),
built the first time a walk over F_q runs: an element's base-p digits are
its coordinates over F_p in powers of a generator of F_q^*.

Subspaces are enumerated through reduced row-echelon bases (one canonical
representative each).  The walk proceeds in topological order with early
pruning: at each vertex only superspaces of the span of the incoming
images are generated.  It is incremental: every receiving vertex keeps one
running echelon basis of its incoming span, the superspaces at a vertex
form a tree whose nodes each add one echelon row (left of the rows before
it, which never change), and a node pushes only that row's images into
the running bases, popping their new pivots on the way back.  Sibling rows
share their images' affine span of matrix columns, reduced once per node
modulo the running bases for all of them.

Most leaves of a large walk end in a row with pivot 0 at the last
enumerated vertex.  Those are tallied a family (the q^r siblings of one
node, r the row's free entries x) at a time, not visited.  Their images,
reduced modulo the running bases, are affine in x, and a leaf's ranks are
the ranks of the groups of images entering each basis.  For a relation
space R_g of each group, the x whose images satisfy every relation in the
R_g solve one affine system over F_q, and number q^(r - rank) or 0.
Summed over the R_g of each dimension, these counts are a triangular
system in the numbers of x with each tuple of ranks, which the walk
inverts.  A family with fewer systems than rows is counted so; a smaller
one loops over its rows and reads each rank off the reduced images,
without touching the running bases.

The final vertex (a sink) is never enumerated, only counted by a Gaussian
binomial in the dimension of its incoming span.
The vertex before it is counted in closed form too when at most one arrow
leaves it (all its arrows end at the sink): with W its incoming span, A
that arrow and C the span of the other arrows' images at the sink, the
subspaces U above W are counted by dim(U meet A^{-1}(C)), which fixes the
sink's incoming span, through q-binomials.  A multiple arrow there (as in
the Kronecker quiver) keeps that vertex enumerated.

The walk therefore only tallies its leaves by stratum: the dimensions at
the enumerated vertices plus the few ranks the closed forms need.  The
closing of a stratum, the number of ways to finish a leaf at the
closed-form vertices for each dimension vector e, is an integer
polynomial in q, and the count over F_q is the sum over strata of tally
times closing at q.

The Euler characteristic is defined operationally as the counting
polynomial evaluated at 1.  All but e is decided once per module: the side
walked at every node (the module or its transpose-dual, whichever has the
smaller stratum degree B; orthogonal complements carry the counts back
exactly), the nodes (the first B+3 admissible prime powers 2, 3, 4, 5, 7,
8, 9, ..., B the sum over enumerated vertices of floor(d/2)*ceil(d/2)),
and whether the strata interpolate.  Each stratum's tally is interpolated
through the first b+1 nodes, b the sum of k(d-k) over its dims, and
checked against all later nodes (at least two); the closings then give the
counting polynomial of every e at once, checked against every sample.  If
a stratum fails, each e of the module is interpolated alone through the
first D+3 nodes, D the ambient product-of-Grassmannians degree bound.
When no node is the square of a prime, both paths also check one node
they do not list, the square of the smallest admissible prime, which sees
the points over quadratic fields.  Disagreement on a held-out node raises
instead of guessing, and so does a module whose pencil has a point that
is not rational, whose counts cannot be a polynomial in q.  One walk per
(module, node) is cached, with the counts of every e.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Iterator, Sequence

from .errors import DimOutOfRange, ExcludedPrime, InvalidArgument, NonPolynomialCount, Record
from .linalg import _eval_poly, _newton_coefficients, _poly_add, _poly_mul, _prime_factors, _trim
from .quiver import DimVector, IntRep, Quiver, dual_rep

__all__ = [
    "CountProfile",
    "count_subreps",
    "counting_polynomial",
    "euler_char",
    "profile",
    "box_profiles",
    "gaussian_binomial",
]


# ---------------------------------------------------------------------------
# interpolation nodes


def admissible_nodes(rep: IntRep) -> Iterator[int]:
    """The prime powers in increasing order, skipping the powers of the
    module's excluded primes (an integer matrix has the same rank over
    F_{p^k} as over F_p)."""
    excluded = rep.excluded_primes()
    for n in itertools.count(2):
        factors = _prime_factors(n)
        if len(factors) == 1 and not factors & excluded:
            yield n


def _nodes(rep: IntRep, bound: int) -> tuple[int, ...]:
    """Interpolation nodes for degree ``bound`` plus two held-out nodes."""
    return tuple(itertools.islice(admissible_nodes(rep), bound + 3))


def _square_node(nodes: tuple[int, ...]) -> tuple[int, ...]:
    """One more held-out node when no node is the square of a prime: the
    square of the smallest admissible prime, nodes[0].  The nodes are the
    first admissible prime powers, so some node is such a square exactly
    when that one is.  A point over a quadratic field is rational over
    F_{p^2}, so a count that is 1 + (D/p) at every prime node is 2 there.
    Past the largest field (_FIELD_LIMIT) there is no such node to count."""
    square = nodes[0] ** 2
    return () if square <= nodes[-1] or square > _FIELD_LIMIT else (square,)


# ---------------------------------------------------------------------------
# the field F_q (elements are the ints 0..q-1, vectors lists of them)

_FIELD_LIMIT = 256


def _characteristic(q: int) -> int:
    """The prime p of which q is a power; InvalidArgument unless q is a prime
    power of at most _FIELD_LIMIT (the tables hold q^2 entries each)."""
    factors = _prime_factors(q) if q > 1 else set()
    if len(factors) != 1:
        raise InvalidArgument(f"q={q} is not a prime power, so there is no field F_q")
    if q > _FIELD_LIMIT:
        raise InvalidArgument(f"q={q} exceeds the largest field order {_FIELD_LIMIT}")
    return min(factors)


class _Field:
    """F_q for q = p^k by tables.  An element's base-p digits are its
    coordinates in the basis 1, a, ..., a^(k-1), with a a generator of
    F_q^*, so 0..p-1 is the prime field and digit-wise addition mod p is
    the field's addition; products go through the powers of a."""

    __slots__ = ("char", "add", "sub", "mul", "inv", "scalings")

    def __init__(self, q: int) -> None:
        p = self.char = _characteristic(q)
        k = next(k for k in itertools.count(1) if p**k == q)
        turn = [list(range(a, p)) + list(range(a)) for a in range(p)]
        add = turn  # a + b for a = a_0 + p a', b = b_0 + p b': low digit, then the rest
        for _ in range(k - 1):
            add = [[lo + p * hi for hi in rest for lo in turn[a0]] for rest in add for a0 in range(p)]
        neg = [row.index(0) for row in add]
        powers = _generator_powers(p, k, add)
        log = [0] * q
        for i, x in enumerate(powers):
            log[x] = i
        twice = powers * 2
        self.add = add
        self.sub = [list(map(row.__getitem__, neg)) for row in add]
        self.mul = [[0] * q] + [
            [0, *map(twice[log[a]:].__getitem__, log[1:])] for a in range(1, q)
        ]
        self.inv = [0] + [powers[-log[a]] for a in range(1, q)]
        self.scalings = [self.mul[p**i] for i in range(k)]  # times 1, a, ..., a^(k-1)

    def of(self, n: int) -> int:
        """The integer n in the prime field."""
        return n % self.char


def _generator_powers(p: int, k: int, add: list[list[int]]) -> list[int]:
    """1, a, ..., a^(q-2) for a generator a of F_q^*, q = p^k: the first r
    in 1..q-1 for which a with a^k = r (as a polynomial of degree below k)
    has order q - 1, so that F_p[a] is a field and a generates it."""
    q, top = p**k, p ** (k - 1)
    for r in range(1, q):
        scaled = [sum(t * (r // p**i) % p * p**i for i in range(k)) for t in range(p)]
        powers, x = [], 1
        for _ in range(q - 1):
            powers.append(x)
            high, low = divmod(x, top)
            x = add[low * p][scaled[high]]  # a*x: shift the digits up, a^k = r
            if x == 1:
                break
        if x == 1 and len(powers) == q - 1:
            return powers
    raise AssertionError(f"F_{q}^* has no generator")


@functools.lru_cache(maxsize=None)
def _field(q: int) -> _Field:
    """The tables of F_q, built the first time a walk over F_q runs."""
    return _Field(q)


def _reduce(basis: dict[int, list[int]], vec: list[int], field: _Field) -> list[int]:
    """The vector minus the element of the basis's span that agrees with it
    at every pivot column: 0 at the pivots, and linear in the vector."""
    sub, mul = field.sub, field.mul
    for c in sorted(basis):
        x = vec[c]
        if x:
            scale = mul[x]
            vec = [sub[u][scale[v]] for u, v in zip(vec, basis[c])]
    return vec


def _push(basis: dict[int, list[int]], vec: list[int], field: _Field) -> int | None:
    """Grow an echelon basis (pivot column -> row that is 1 there and 0
    before it) by the vector; returns the new pivot, or None if the vector
    lies in the span.  Deleting that pivot undoes the push."""
    sub, mul = field.sub, field.mul
    for c in range(len(vec)):
        x = vec[c]
        if x:
            row = basis.get(c)
            if row is None:
                scale = mul[field.inv[x]]
                basis[c] = [scale[u] for u in vec]
                return c
            scale = mul[x]
            vec = [sub[u][scale[v]] for u, v in zip(vec, row)]
    return None


def _combine(cols: Sequence[Sequence[int]], x: Sequence[int], field: _Field) -> list[int]:
    """The linear combination sum x_j cols_j of at least one vector."""
    add, mul = field.add, field.mul
    out = None
    for c, col in zip(x, cols):
        if c:
            scale = mul[c]
            if out is None:
                out = list(col) if c == 1 else [scale[v] for v in col]
            else:
                out = [add[u][scale[v]] for u, v in zip(out, col)]
    return [0] * len(cols[0]) if out is None else out


def _affine_span(base: list[int], gens: Sequence[list[int]], field: _Field) -> Iterator[list[int]]:
    """Every base + sum x_j gens_j over x in F_q^len(gens), one vector add
    each: over F_p, x_j gens_j runs through the span of a^i gens_j for
    i < k, and each of those steps is added p - 1 times in turn."""
    add, p = field.add, field.char
    steps = [[scale[u] for u in g] for g in gens for scale in field.scalings]

    def span(n: int) -> Iterator[list[int]]:
        if not n:
            yield base
            return
        step = steps[n - 1]
        for vec in span(n - 1):
            yield vec
            for _ in range(p - 1):
                vec = [add[u][v] for u, v in zip(vec, step)]
                yield vec

    return span(len(steps))


def _subspace_bases(m: int, q: int) -> list[tuple[int, list[list[int]]]]:
    """Every subspace of F_q^m as its dimension and a reduced echelon basis,
    built as the walk builds subspaces: each new row has its pivot left of
    the rows before it and is 0 at their pivots."""
    out: list[tuple[int, list[list[int]]]] = []

    def grow(rows: list[list[int]], taken: tuple[int, ...], lowest: int) -> None:
        out.append((len(rows), rows))
        for c in range(lowest):
            free = [j for j in range(c + 1, m) if j not in taken]
            for x in itertools.product(range(q), repeat=len(free)):
                row = [0] * m
                row[c] = 1
                for j, a in zip(free, x):
                    row[j] = a
                grow(rows + [row], taken + (c,), c)

    grow([], (), m)
    return out


@functools.lru_cache(maxsize=32)  # one char-ladder pass builds 10 distinct plans
def _relation_plan(sizes: tuple[int, ...], q: int) -> tuple[list, list]:
    """What _rank_by_solving needs for groups of these sizes over F_q: the
    relation spaces of each group, and for each tuple d of relation
    dimensions the coefficients c(d, j) = prod_g (-1)^(j_g - d_g)
    q^binom(j_g - d_g, 2) [j_g, d_g]_q, which invert the q-binomial sums
    N(j) = sum_d prod_g [d_g, j_g]_q T(d) to T(d) = sum_j c(d, j) N(j).
    The plan is cached, so every walk that reads it shares it."""
    spaces = [_subspace_bases(m, q) for m in sizes]
    dims = list(itertools.product(*[range(m + 1) for m in sizes]))
    inverse = []
    for d in dims:
        terms = [
            (j, math.prod(
                (-1) ** (b - a) * q ** ((b - a) * (b - a - 1) // 2) * gaussian_binomial(b, a, q)
                for a, b in zip(d, j)
            ))
            for j in dims
            if all(a <= b for a, b in zip(d, j))
        ]
        inverse.append((tuple(m - a for m, a in zip(sizes, d)), terms))
    return spaces, inverse


def _rank_by_loop(
    groups: list[list[tuple[int, int]]], base: list[int], gens: list[list[int]], field: _Field
) -> dict[tuple[int, ...], int]:
    """For the images base + sum x_j gens_j over x in F_q^r, each cut into
    segments grouped by the running basis they enter, the number of x with
    each tuple of group ranks.  The images are reduced modulo the bases, so
    a group's rank is its rank increment."""
    out: dict[tuple[int, ...], int] = {}
    for img in _affine_span(base, gens, field):
        key = tuple([_rank([img[lo:hi] for lo, hi in segs], field) for segs in groups])
        out[key] = out.get(key, 0) + 1
    return out


def _rank(vecs: list[list[int]], field: _Field) -> int:
    """The rank of the vectors; two are dependent when a_c b = b_c a, c the
    first column where a is not 0."""
    if len(vecs) == 1:
        return 1 if any(vecs[0]) else 0
    if len(vecs) == 2:
        a, b = vecs
        for c, x in enumerate(a):
            if x:
                by_a, by_b = field.mul[x], field.mul[b[c]]
                return 1 if list(map(by_a.__getitem__, b)) == list(map(by_b.__getitem__, a)) else 2
        return 1 if any(b) else 0
    basis: dict[int, list[int]] = {}
    return sum(_push(basis, v, field) is not None for v in vecs)


def _rank_by_solving(
    groups: list[list[tuple[int, int]]],
    base: list[int],
    gens: list[list[int]],
    field: _Field,
    plan: tuple[list, list],
    q: int,
) -> dict[tuple[int, ...], int]:
    """The tallies of _rank_by_loop by linear algebra, without visiting x.

    A group of m images s_i(x) has the relations K(x) = {lam : sum lam_i
    s_i(x) = 0}, of dimension m minus its rank.  For a relation space R_g of
    each group, the x with every R_g inside K_g(x) solve one affine system
    in x, and number q^(r - rank) or 0.  Summed over the R_g of dimensions
    j_g, these counts are N(j) = sum_x prod_g [dim K_g(x), j_g]_q, which
    ``plan`` (from _relation_plan) inverts.
    """
    spaces, inverse = plan
    r = len(gens)
    cols = [*gens, base]
    systems = [((), {})]  # (relation dimensions, equations) of every solvable system so far
    for segs, group_spaces in zip(groups, spaces):
        # per coordinate, each image's affine map as a row: x's coefficients, then the constant
        maps = [list(zip(*[col[lo:hi] for col in cols])) for lo, hi in segs]
        coords = [rows for rows in zip(*maps) if any(map(any, rows))]
        solvable = []
        for j, lams in group_spaces:
            eqs: dict[int, list[int]] = {}
            for lam, rows in itertools.product(lams, coords):
                if _push(eqs, _combine(rows, lam, field), field) == r:
                    break  # a pivot at the constant is the equation 0 = 1
            else:
                solvable.append((j, eqs))
        grown = []
        for js, eqs in systems:
            for j, part in solvable:
                both = dict(eqs or part)
                if eqs and any(_push(both, row, field) == r for row in part.values()):
                    continue
                grown.append((js + (j,), both))
        systems = grown
    n: dict[tuple[int, ...], int] = {}
    for js, eqs in systems:
        n[js] = n.get(js, 0) + q ** (r - len(eqs))
    out = {}
    for increments, terms in inverse:
        t = sum(c * n.get(j, 0) for j, c in terms)
        if t:
            out[increments] = t
    return out


@functools.lru_cache(maxsize=None)
def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of F_q^n."""
    return _eval_poly(_q_binomial(n, k), q)


@functools.lru_cache(maxsize=None)
def _q_binomial(n: int, k: int) -> tuple[int, ...]:
    """The Gaussian binomial [n, k]_q as a polynomial in q."""
    if k < 0 or k > n:
        return (0,)
    if k == 0 or k == n:
        return (1,)
    out = list(_q_binomial(n - 1, k - 1))  # [n-1, k-1] + q^k [n-1, k]
    _poly_add(out, _q_binomial(n - 1, k), k)
    return tuple(out)


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


def _walk_cost(rep: IntRep, q: int) -> int:
    """Number of leaves the walk tallies over F_q: subspace tuples at the
    enumerated vertices, before pruning.  The walk visits fewer, since it
    counts the last echelon row's families at the last vertex in bulk."""
    cost = 1
    for v in _walk_plan(rep.quiver)[0]:
        cost *= sum(gaussian_binomial(rep.dim[v], k, q) for k in range(rep.dim[v] + 1))
    return cost


def _grassmannian_dim(dim: DimVector, e: Sequence[int]) -> int:
    """The dimension of the product of Grassmannians Gr(e_v, d_v), the sum
    of e_v(d_v - e_v): the degree in q of counting subspaces of dims e."""
    return sum(k * (d - k) for k, d in zip(e, dim))


def _walk_degree(rep: IntRep) -> int:
    """The largest degree in q of a stratum count: the largest
    Grassmannian dimension over the enumerated vertices."""
    explicit = _walk_plan(rep.quiver)[0]
    half = [d // 2 if v in explicit else 0 for v, d in enumerate(rep.dim)]
    return _grassmannian_dim(rep.dim, half)


@functools.lru_cache(maxsize=None)
def _module_plan(rep: IntRep) -> tuple[IntRep, bool, tuple[int, ...]]:
    """The counting state of a module: the side walked at every node, the
    module or its transpose-dual, whichever has the smaller stratum degree B
    (ties to the fewer leaves over F_2, then the module); whether that is
    the dual; and the nodes, the first B + 3 admissible prime powers."""
    dual = dual_rep(rep)
    walked = min((rep, dual), key=lambda side: (_walk_degree(side), _walk_cost(side, 2)))
    return walked, walked is dual, _nodes(rep, _walk_degree(walked))


def _walk(rep: IntRep, q: int) -> dict[tuple, int]:
    """Leaf tallies of the walk over F_q, by stratum.

    Each leaf fixes subspaces at the enumerated vertices.  Its stratum is
    (dims, w, r_w, r_v) when a vertex is counted in closed form ahead of
    the sink, else (dims, s) with s the rank of the incoming span at the
    sink; ``dims`` holds the dimensions at the enumerated vertices and 0
    elsewhere.

    Every receiving vertex keeps one running echelon basis of its incoming
    span, so a leaf's ranks are read off, not recomputed.  The subspaces
    above the incoming span W at an enumerated vertex form a tree: a node
    adds one row in reduced echelon form on the columns that are not
    pivots of W, with its pivot left of every earlier row's pivot, so rows
    already chosen never change.  The node pushes only that row's images
    and pops their pivots on the way back.  Siblings differ only in the
    row's free entries, so their images are one affine span of matrix
    columns, each reduced modulo the running bases once per node.

    At the last enumerated vertex the children whose row has pivot 0 are
    leaves, and all the running bases they would grow are ranked.  Each
    node tallies that family at once (tally_family): by _rank_by_solving
    when its relation spaces, a number fixed for the walk, are fewer than
    its q^r rows, else by _rank_by_loop.
    """
    explicit, tail, sink = _walk_plan(rep.quiver)
    field = _field(q)
    dim = rep.dim
    at = {v: i for i, v in enumerate(explicit)}
    bases: list[dict[int, list[int]]] = [{} for _ in explicit]
    arrows = [
        (s, t, [[field.of(row[j]) for row in m] for j in range(dim[s])])
        for (s, t), m in zip(rep.quiver.arrow_indices(), rep.matrices)
    ]
    # feeds[v]: (running basis, length of its vectors, images of v's unit vectors)
    feeds: dict[int, list[tuple[int, int, list[list[int]]]]] = {v: [] for v in explicit}
    if tail is None:
        ranked = [len(bases)]
        bases.append({})
        for s, t, cols in arrows:
            feeds[s].append((at.get(t, ranked[0]), dim[t], cols))
    else:
        # With W the incoming span at the tail, C the span the other arrows
        # give at the sink and A the arrow tail -> sink (zero if absent), the
        # bases span W, C + AW and C + A V_tail: w, r_w and r_v.
        ranked = [len(bases), len(bases) + 1, len(bases) + 2]
        w_b, cw_b, cv_b = ranked
        bases += [{}, {}, {}]
        a_cols = next((cols for s, _, cols in arrows if s == tail), [])
        for col in a_cols:
            _push(bases[cv_b], col, field)
        for s, t, cols in arrows:
            if t == tail:
                feeds[s].append((w_b, dim[tail], cols))
                if a_cols:
                    composite = [_combine(a_cols, col, field) for col in cols]
                    feeds[s].append((cw_b, dim[sink], composite))
            elif t == sink and s != tail:
                feeds[s] += [(cw_b, dim[sink], cols), (cv_b, dim[sink], cols)]
            elif s != tail:
                feeds[s].append((at[t], dim[t], cols))

    # Per enumerated vertex, the stacked images of its unit vectors under
    # every feed, and each feed's segment of the stack.
    stacks = []
    for v in explicit:
        segs, lo = [], 0
        for b, length, _ in feeds[v]:
            segs.append((b, lo, lo + length))
            lo += length
        stacks.append(([sum((f[j] for _, _, f in feeds[v]), []) for j in range(dim[v])], segs))

    # The last vertex's image segments, grouped by the ranked basis they
    # enter (a group may be empty), and the number of relation spaces of the
    # groups: the affine systems that would count one family of its leaves.
    last = len(explicit) - 1
    groups: list[list[tuple[int, int]]] = [[] for _ in ranked]
    for b, lo, hi in stacks[last][1] if explicit else ():
        groups[ranked.index(b)].append((lo, hi))
    sizes = tuple(len(g) for g in groups)
    system_count = math.prod(sum(gaussian_binomial(m, j, q) for j in range(m + 1)) for m in sizes)

    dims: list[int] = [0] * len(dim)
    leaves: dict[tuple, int] = {}

    def push(segs: list, img: list[int]) -> list[tuple[int, int]]:
        added = []
        for b, lo, hi in segs:
            pivot = _push(bases[b], img[lo:hi], field)
            if pivot is not None:
                added.append((b, pivot))
        return added

    def pop(added: list[tuple[int, int]]) -> None:
        for b, pivot in added:
            del bases[b][pivot]

    def reduced(segs: list, col: list[int]) -> list[int]:
        return sum((_reduce(bases[b], col[lo:hi], field) for b, lo, hi in segs), [])

    def enter(i: int) -> None:
        if i == len(explicit):
            key = (tuple(dims), *[len(bases[b]) for b in ranked])
            leaves[key] = leaves.get(key, 0) + 1
            return
        v = explicit[i]
        cols, segs = stacks[i]
        span = bases[i]
        added = [a for row in span.values() for a in push(segs, _combine(cols, row, field))]
        free = [cols[c] for c in range(dim[v]) if c not in span]
        grow(i, v, free, segs, len(free), (), len(span))
        pop(added)

    def grow(i: int, v: int, free: list, segs: list, lowest: int, taken: tuple, k: int) -> None:
        # one node: the rows taken so far have pivots `taken`, all at least lowest
        dims[v] = k
        enter(i + 1)
        if not lowest:
            return
        red = {j: reduced(segs, free[j]) for j in range(len(free)) if j not in taken}
        family = i == last  # the children of pivot 0 are leaves, tallied in bulk
        for c in range(1 if family else 0, lowest):
            rest = [red[j] for j in range(c + 1, len(free)) if j not in taken]
            for img in _affine_span(red[c], rest, field):
                added = push(segs, img)
                grow(i, v, free, segs, c, taken + (c,), k + 1)
                pop(added)
        if family:
            dims[v] = k + 1
            tally_family(red[0], [red[j] for j in range(1, len(free)) if j not in taken])

    def tally_family(base: list[int], gens: list[list[int]]) -> None:
        if system_count < q ** len(gens):
            ranks = _rank_by_solving(groups, base, gens, field, _relation_plan(sizes, q), q)
        else:
            ranks = _rank_by_loop(groups, base, gens, field)
        stratum = tuple(dims)
        for increments, n in ranks.items():
            key = (stratum, *[len(bases[b]) + x for b, x in zip(ranked, increments)])
            leaves[key] = leaves.get(key, 0) + n

    enter(0)
    return leaves


@functools.lru_cache(maxsize=None)
def _closing(
    dim: DimVector, tail: int | None, sink: int, stratum: tuple
) -> tuple[tuple[DimVector, tuple[int, ...]], ...]:
    """For one leaf of the stratum, the number of stable choices at the
    closed-form vertex and the sink, by dimension vector e, as polynomials
    in q."""
    if tail is None:
        spans = {stratum: [1]}
    else:
        # A U between W and V_tail with k' = dim U/W (kk below) gives the
        # sink span C + AU of dim r_w + k' - j, where j = dim(U/W meet K')
        # for K' = (A^{-1}(C) + W)/W, of dim m = n - (r_v - r_w) inside
        # V_tail/W of dim n.  q^{(k'-j)(m-j)} [m, j]_q [n-m, k'-j]_q of the
        # U have a given j.
        key, w, r_w, r_v = stratum
        n = dim[tail] - w
        m = n - (r_v - r_w)
        spans = {}
        cur = list(key)
        for kk in range(n + 1):
            cur[tail] = w + kk
            for j in range(max(0, kk - (n - m)), min(kk, m) + 1):
                ways = _poly_mul(_q_binomial(m, j), _q_binomial(n - m, kk - j))
                span = spans.setdefault((tuple(cur), r_w + kk - j), [])
                _poly_add(span, ways, (kk - j) * (m - j))
    out: dict[DimVector, list[int]] = {}
    for (key, s), ways in spans.items():
        cur = list(key)
        for k in range(s, dim[sink] + 1):
            cur[sink] = k
            sink_ways = _q_binomial(dim[sink] - s, k - s)
            _poly_add(out.setdefault(tuple(cur), []), _poly_mul(ways, sink_ways))
    return tuple((e, tuple(poly)) for e, poly in out.items())


def _count_side(rep: IntRep, q: int) -> tuple[dict[tuple, int], dict[DimVector, int]]:
    """The walk over F_q on this side: its leaf tallies by stratum, and the
    count of every dimension vector at once, each stratum's tally times its
    closing at q."""
    _, tail, sink = _walk_plan(rep.quiver)
    tallies = _walk(rep, q)
    counts: dict[DimVector, int] = {}
    for stratum, mult in tallies.items():
        for e, ways in _closing(rep.dim, tail, sink, stratum):
            counts[e] = counts.get(e, 0) + mult * _eval_poly(ways, q)
    return tallies, counts


def _flip(dim: DimVector, dual: bool, e: DimVector) -> DimVector:
    """A dimension vector on the walked side, read on the module's side:
    orthogonal complements carry sub-dimension e of the dual to dim - e."""
    return tuple(t - x for t, x in zip(dim, e)) if dual else e


@functools.lru_cache(maxsize=None)
def _count_box(rep: IntRep, q: int) -> tuple[dict[tuple, int], dict[DimVector, int]]:
    """The walk's tallies over F_q, and the counts on the module's side."""
    p = _characteristic(q)
    if p in rep.excluded_primes():
        raise ExcludedPrime(f"prime {p} is excluded for {rep.label or 'this module'}")
    walked, dual, _ = _module_plan(rep)
    tallies, counts = _count_side(walked, q)
    return tallies, {_flip(rep.dim, dual, e): c for e, c in counts.items()}


class _Checked(tuple):
    """A dimension vector that _check_e has passed for the module it is
    counted on.  Only _samples makes one, so that count_subreps checks each
    e of a profile once, not once per node."""

    __slots__ = ()


def _check_e(rep: IntRep, e: Sequence[int]) -> DimVector:
    if e.__class__ is _Checked:
        return e
    e = tuple(map(int, e))
    dim = rep.dim
    if len(e) != len(dim):
        raise DimOutOfRange(f"e has {len(e)} entries for {len(dim)} vertices")
    for v, d in zip(e, dim):
        if v < 0 or v > d:
            raise DimOutOfRange(f"e={e} is not between 0 and {dim}")
    return e


def count_subreps(rep: IntRep, e: Sequence[int], q: int) -> int:
    """Exact number of subrepresentations of dimension vector e over F_q,
    for q a prime power."""
    e = _check_e(rep, e)
    return _count_box(rep, q)[1].get(e, 0)


# ---------------------------------------------------------------------------
# interpolation


def _check_spectrum(rep: IntRep) -> None:
    """Refuse a module whose pencil (IntRep._pencil) has an irrational point."""
    if rep._pencil is not None:
        rep._pencil.refuse_irrational()


def _interpolate(points: Sequence[tuple[int, int]], bound: int, what: str) -> tuple[int, ...]:
    """The interpolant of degree at most ``bound`` through the first
    bound + 1 points, checked against every later (held-out) point."""
    try:
        coeffs = _newton_coefficients(points[: bound + 1])
    except NonPolynomialCount as exc:
        raise NonPolynomialCount(f"{what}: {exc}") from None
    checked = [(q, c, _eval_poly(coeffs, q)) for q, c in points[bound + 1 :]]
    bad = [(q, c, v) for q, c, v in checked if v != c]
    if bad:
        raise NonPolynomialCount(
            f"held-out primes {[q for q, _, _ in bad]} disagree for {what}: "
            f"counts {[c for _, c, _ in bad]} vs interpolant {[v for _, _, v in bad]}"
        )
    return coeffs


class CountProfile(Record):
    """Counts at the nodes q, the interpolated counting polynomial
    (ascending coefficients), and the Euler characteristic it yields at 1."""

    _fields = ("rep", "e", "samples", "coefficients", "chi")
    _compared = 5

    def __init__(
        self,
        rep: IntRep,
        e: DimVector,
        samples: tuple[tuple[int, int], ...],
        coefficients: tuple[int, ...],
        chi: int,
    ) -> None:
        for q, c in samples:
            if _eval_poly(coefficients, q) != c:
                raise NonPolynomialCount(f"sample at q={q} disagrees with the interpolant")
        if _eval_poly(coefficients, 1) != chi:
            raise NonPolynomialCount("chi must be the polynomial value at 1")
        self.__dict__.update(rep=rep, e=e, samples=samples, coefficients=coefficients, chi=chi)


@functools.lru_cache(maxsize=None)
def _box_polynomials(rep: IntRep) -> dict[DimVector, tuple[int, ...]] | NonPolynomialCount:
    """The counting polynomial of every e in the box, from the strata, or
    the error of the first stratum that fails.

    Each stratum's tally is interpolated with the degree bound of its own
    dims; every later node, and the _square_node, is held out.  Its
    closing polynomials then give each e's share.  The walks were done
    (and cached) by count_subreps.
    """
    walked, dual, nodes = _module_plan(rep)
    nodes += _square_node(nodes)
    _, tail, sink = _walk_plan(walked.quiver)
    tallies = [_count_box(rep, q)[0] for q in nodes]
    totals: dict[DimVector, list[int]] = {}
    for stratum in sorted(set().union(*tallies)):
        points = [(q, t.get(stratum, 0)) for q, t in zip(nodes, tallies)]
        bound = _grassmannian_dim(walked.dim, stratum[0])
        try:
            count = _interpolate(points, bound, f"stratum {stratum}")
        except NonPolynomialCount as exc:
            return exc.with_traceback(None)  # cached, so it keeps no frames alive
        for e, ways in _closing(walked.dim, tail, sink, stratum):
            _poly_add(totals.setdefault(_flip(rep.dim, dual, e), []), _poly_mul(count, ways))
    return {e: _trim(poly) for e, poly in totals.items()}


def _samples(rep: IntRep, e: DimVector, nodes: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """The count of the checked e at every node, each through count_subreps."""
    checked = _Checked(e)
    return tuple((q, count_subreps(rep, checked, q)) for q in nodes)


def _per_e_profile(rep: IntRep, e: DimVector) -> CountProfile:
    """The fallback: interpolate e's count alone, through the first nodes
    of the ambient product-of-Grassmannians degree bound, checked at the
    later ones and at their _square_node."""
    bound = _grassmannian_dim(rep.dim, e)
    nodes = _nodes(rep, bound)
    points = _samples(rep, e, nodes + _square_node(nodes))
    coeffs = _interpolate(points, bound, f"e={e}")
    return CountProfile(rep, e, points[:len(nodes)], coeffs, _eval_poly(coeffs, 1))


def profile(rep: IntRep, e: Sequence[int]) -> CountProfile:
    """Sample, interpolate, and cross-check the counting polynomial for e.
    The samples come first, so each walk runs inside count_subreps."""
    e = _check_e(rep, e)
    _check_spectrum(rep)
    _, _, nodes = _module_plan(rep)
    points = _samples(rep, e, nodes + _square_node(nodes))
    box = _box_polynomials(rep)
    if isinstance(box, NonPolynomialCount):
        return _per_e_profile(rep, e)
    coeffs = box.get(e, (0,))
    return CountProfile(rep, e, points[:len(nodes)], coeffs, _eval_poly(coeffs, 1))


def counting_polynomial(rep: IntRep, e: Sequence[int]) -> tuple[int, ...]:
    """Ascending coefficients of the verified counting polynomial."""
    return profile(rep, e).coefficients


def euler_char(rep: IntRep, e: Sequence[int]) -> int:
    """Counting polynomial evaluated at 1."""
    return profile(rep, e).chi


def box_profiles(rep: IntRep) -> dict[DimVector, CountProfile]:
    """Profiles for every 0 <= e <= dim, sharing the walk at each node."""
    ranges = [range(d + 1) for d in rep.dim]
    return {e: profile(rep, e) for e in itertools.product(*ranges)}
