"""Cluster-seed mutation with principal or trivial coefficients.

This engine is deliberately independent of the character pipeline: it only
knows the exchange matrix and polynomial arithmetic, and serves as the
oracle that characters of rigid catalog modules are cross-checked against.

The extended exchange matrix stores the signed adjacency of the quiver on
top (b_ij = arrows i->j minus arrows j->i) and, with principal
coefficients, an identity block below.  Coefficient dynamics follow the
convention under which characters with principal coefficients land exactly
on mutation-produced variables: the y-monomials attach to the opposite
sides of the exchange binomial relative to the x-products, equivalently
the whole thing is the textbook update run on [B; -C].  ``_exchange_weights``
is the one place that column of [B; -C] is written; the exchange binomial
and the g-vector both read it.  Each side of the binomial is the product of
the cluster variables of its sign's weight, a variable of weight ±1 taken
as it is and one of weight ±w as its w-th power, times one y-monomial that
carries all of that side's coefficients.  Every produced
variable is verified to be a genuine Laurent polynomial by exact division;
a remainder raises NonLaurentResult and means the implementation is wrong.

A breadth-first search meets the same cluster variable many times
(affineA2 at depth 8 with principal coefficients: 385 mutations, 30 new
variables).  ``seeds_up_to`` computes each once, through one memo per
search keyed by g-vector.  With principal coefficients every cluster
variable is homogeneous under deg x_i = e_i, deg y_j = column j of the
initial B, and its degree is its g-vector (Fomin-Zelevinsky, Cluster
algebras IV, Compositio Math. 143 (2007), Prop. 6.1 and 6.6).  So the
variable an exchange makes has the g-vector deg(P) - g_k, P the side with
x_i^b_ik for b_ik > 0 and y_j^|c_jk| for c_jk < 0; the search checks in
integers that both sides have one degree and raises IdentityFailed if
not.  For skew-symmetric B, which every quiver gives, different cluster
variables have different g-vectors (Derksen-Weyman-Zelevinsky, JAMS 23
(2010), Thm 1.7), so a g-vector found in the memo names the variable and
no division is made.  The search tracks the g-vectors and the coefficient
rows C of each seed also without coefficients: a coefficient-free variable
is the y = 1 specialisation of the principal one at the same seed (FZ IV,
Thm 3.7), so principal g-vectors tell it apart as well.  ``mutate`` alone
knows no g-vectors and always divides.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import reduce
from operator import mul

from .errors import IdentityFailed, InvalidArgument, NonLaurentResult, Record
from .laurent import Family, LaurentPoly, x as x_var, yid
from .quiver import Quiver

__all__ = ["Seed", "initial_seed", "mutate", "cluster_variables_up_to", "seeds_up_to"]

Matrix = tuple[tuple[int, ...], ...]


class Seed(Record):
    """Exchange matrix (2m x m with principal coefficients, m x m without)
    plus the current cluster of Laurent polynomials in the initial
    variables.  ``depth`` counts mutations and does not enter equality."""

    _fields = ("exchange_matrix", "cluster", "depth")
    _compared = 2

    def __init__(
        self, exchange_matrix: Matrix, cluster: tuple[LaurentPoly, ...], depth: int = 0
    ) -> None:
        m = len(cluster)
        if len(exchange_matrix) not in (m, 2 * m):
            raise ValueError("exchange matrix must have m or 2m rows")
        b = exchange_matrix[:m]
        for i in range(m):
            for j in range(m):
                if b[i][j] != -b[j][i]:
                    raise ValueError("principal part must be skew-symmetric")
        self.__dict__.update(exchange_matrix=exchange_matrix, cluster=cluster, depth=depth)

    @property
    def rank(self) -> int:
        return len(self.cluster)

    @property
    def principal(self) -> bool:
        return len(self.exchange_matrix) == 2 * self.rank


def initial_seed(quiver: Quiver, principal: bool = True) -> Seed:
    """Cluster (x_1, ..., x_m); B from the quiver; coefficient rows are the
    identity when principal."""
    m = len(quiver.vertices)
    b = [[0] * m for _ in range(m)]
    for s, t in quiver.arrow_indices():
        b[s][t] += 1
        b[t][s] -= 1
    rows = [tuple(r) for r in b]
    if principal:
        rows += [tuple(1 if i == j else 0 for j in range(m)) for i in range(m)]
    cluster = tuple(x_var(i + 1) for i in range(m))
    return Seed(tuple(rows), cluster)


def _mutate_matrix(rows: Matrix, k: int, m: int, start: int = 0) -> Matrix:
    """The textbook mutation at k of [B; -C], applied to [B; C] as stored
    (rows m on are C): entries in row k or column k change sign, and any
    other b_ij of [B; -C] gains b_ik * b_kj when both are positive and loses
    it when both are negative.  Only the rows from ``start`` on are updated
    and returned."""
    up = [(j, b) for j, b in enumerate(rows[k]) if b > 0]
    down = [(j, b) for j, b in enumerate(rows[k]) if b < 0]
    out = []
    for i in range(start, len(rows)):
        row = rows[i]
        bik = row[k]
        if i == k:
            out.append(tuple(-v for v in row))
            continue
        new_row = list(row)
        if bik and (bik > 0) == (i < m):  # row i of [B; -C] is positive at k
            for j, bkj in up:
                new_row[j] += bik * bkj
        elif bik:
            for j, bkj in down:
                new_row[j] -= bik * bkj
        new_row[k] = -bik
        out.append(tuple(new_row))
    return tuple(out)


def _exchange_weights(seed: Seed, c_rows: Matrix, k: int) -> list[int]:
    """Column k of [B; -C]: the weights of (x_1, ..., x_m, y_1, ..., y_m) in
    the exchange at k, positive on one side of the binomial and negative on
    the other."""
    return [row[k] for row in seed.exchange_matrix[: seed.rank]] + [-row[k] for row in c_rows]


def mutate(seed: Seed, k: int) -> Seed:
    """Mutation at cluster position k (0-based); involutive.

    The new variable is computed by exact division.
    """
    m = seed.rank
    if not 0 <= k < m:
        raise IndexError(f"mutation index {k} out of range for rank {m}")
    weights = _exchange_weights(seed, seed.exchange_matrix[m:], k)
    sides = []  # P, N
    for sign in (1, -1):
        signed = [sign * w for w in weights]
        factors = [f if w == 1 else f ** w for f, w in zip(seed.cluster, signed) if w > 0]
        ys = [(yid(j + 1), w) for j, w in enumerate(signed[m:]) if w > 0]
        if ys:
            factors.append(LaurentPoly._single(ys, 1))
        sides.append(reduce(mul, factors) if factors else LaurentPoly.one())
    new_var = (sides[0] + sides[1]).exact_div(seed.cluster[k])
    if new_var.min_family_exponent(Family.Y) < 0:
        raise NonLaurentResult("mutation produced a negative y exponent")
    cluster = list(seed.cluster)
    cluster[k] = new_var
    return Seed(_mutate_matrix(seed.exchange_matrix, k, m), tuple(cluster), seed.depth + 1)


def seeds_up_to(quiver: Quiver, depth: int, principal: bool = True) -> Iterator[Seed]:
    """Breadth-first seeds reachable by mutation sequences of length <= depth,
    each distinct (matrix, cluster) pair yielded once, deterministically.

    A negative depth raises InvalidArgument at the call.  The search computes
    each distinct cluster variable once, through one g-vector memo that lives
    as long as the returned iterator (see the module docstring).
    """
    if depth < 0:
        raise InvalidArgument(f"depth must be >= 0, got {depth}")
    return _breadth_first(initial_seed(quiver, principal), depth)


def _g_vector(
    seed: Seed, c_rows: Matrix, g: Matrix, y_degrees: Matrix, k: int
) -> tuple[int, ...]:
    """The g-vector deg(P) - g_k of the variable made by the exchange at k.

    ``g`` holds the g-vectors of the seed's cluster and ``y_degrees`` the
    degree of each y_j.  Column k of [B; -C] weighs the degrees of
    (x_1, ..., x_m, y_1, ..., y_m): P sums those of positive weight, N the
    others.  An exchange whose sides differ in degree raises IdentityFailed.
    """
    m = seed.rank
    sides = ([0] * m, [0] * m)  # deg(P), deg(N)
    for w, vec in zip(_exchange_weights(seed, c_rows, k), g + y_degrees):
        if w:
            side = sides[w < 0]
            w = abs(w)
            for r, v in enumerate(vec):
                side[r] += w * v
    pos, neg = sides
    if pos != neg:
        raise IdentityFailed(
            f"exchange at x{k + 1} of a seed at depth {seed.depth}: its sides have"
            f" degrees {tuple(pos)} and {tuple(neg)}"
        )
    return tuple(p - e for p, e in zip(pos, g[k]))


def _breadth_first(start: Seed, depth: int) -> Iterator[Seed]:
    m = start.rank
    unit = tuple(tuple(int(i == j) for j in range(m)) for i in range(m))
    y_degrees = tuple(zip(*start.exchange_matrix[:m]))  # deg y_j: column j of B
    memo: dict[tuple[int, ...], LaurentPoly] = dict(zip(unit, start.cluster))
    seen = {(start.exchange_matrix, start.cluster)}
    # A seed, the position it was reached by, the g-vectors of its cluster
    # and its coefficient rows C, tracked also without coefficients.
    frontier = [(start, -1, unit, start.exchange_matrix[m:] or unit)]
    yield start
    for _ in range(depth):
        next_frontier: list[tuple[Seed, int, Matrix, Matrix]] = []
        for seed, last, g, c_rows in frontier:
            for k in range(m):
                if k == last:
                    continue  # immediate repeat is the involution
                g_new = _g_vector(seed, c_rows, g, y_degrees, k)
                known = memo.get(g_new)
                if known is None:
                    child = mutate(seed, k)
                    memo[g_new] = child.cluster[k]
                else:
                    cluster = seed.cluster[:k] + (known,) + seed.cluster[k + 1 :]
                    child = Seed(_mutate_matrix(seed.exchange_matrix, k, m), cluster, seed.depth + 1)
                key = (child.exchange_matrix, child.cluster)
                if key in seen:
                    continue
                seen.add(key)
                yield child
                if child.principal:
                    new_c = child.exchange_matrix[m:]
                else:
                    new_c = _mutate_matrix(seed.exchange_matrix + c_rows, k, m, m)
                next_frontier.append((child, k, g[:k] + (g_new,) + g[k + 1 :], new_c))
        frontier = next_frontier


def cluster_variables_up_to(
    quiver: Quiver, depth: int, principal: bool = True
) -> list[LaurentPoly]:
    """Deduplicated cluster variables reachable within ``depth`` mutations.

    Deduplication is by canonical polynomial equality, not seed identity;
    the result keeps first-found (breadth-first) order.
    """
    found: dict[LaurentPoly, None] = {}
    for seed in seeds_up_to(quiver, depth, principal):
        for v in seed.cluster:
            found.setdefault(v, None)
    return list(found)
