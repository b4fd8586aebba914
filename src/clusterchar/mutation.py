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
the whole thing is the textbook update run on [B; -C].  Every produced
variable is verified to be a genuine Laurent polynomial by exact division;
a remainder raises NonLaurentResult and means the implementation is wrong.

A breadth-first search meets the same exchange many times (affineA2 at
depth 8 with principal coefficients: 385 mutations, 122 distinct
exchanges).  ``seeds_up_to`` keeps one memo per search, keyed by the exact
input of the exchange, ``(x_k, frozenset({P, N}))`` with P and N the sides
of the binomial as frozensets of (factor, exponent): cluster variables
x_i^|b_ik| and coefficients y_j^|c_jk|.  The binomial P + N does not change
when the sides swap, and neither does the key.  The memo holds only the
new variable; every seed makes its own matrix update.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .errors import InvalidArgument, NonLaurentResult
from .laurent import Family, LaurentPoly, x as x_var, yid
from .quiver import Quiver

__all__ = ["Seed", "initial_seed", "mutate", "cluster_variables_up_to", "seeds_up_to"]

Matrix = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Seed:
    """Exchange matrix (2m x m with principal coefficients, m x m without)
    plus the current cluster of Laurent polynomials in the initial
    variables.  ``depth`` counts mutations and does not enter equality."""

    exchange_matrix: Matrix
    cluster: tuple[LaurentPoly, ...]
    depth: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        m = len(self.cluster)
        if len(self.exchange_matrix) not in (m, 2 * m):
            raise ValueError("exchange matrix must have m or 2m rows")
        b = self.exchange_matrix[:m]
        for i in range(m):
            for j in range(m):
                if b[i][j] != -b[j][i]:
                    raise ValueError("principal part must be skew-symmetric")

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


def _mutate_matrix(rows: list[list[int]], k: int, m: int) -> list[list[int]]:
    out = []
    for i, row in enumerate(rows):
        new_row = []
        for j in range(m):
            if i == k or j == k:
                new_row.append(-row[j])
            else:
                bik, bkj = row[k], rows[k][j]
                new_row.append(
                    row[j]
                    + max(bik, 0) * max(bkj, 0)
                    - max(-bik, 0) * max(-bkj, 0)
                )
        out.append(new_row)
    return out


def _product(factors: dict[LaurentPoly, int]) -> LaurentPoly:
    out = LaurentPoly.one()
    for f, e in factors.items():
        out = out * f ** e
    return out


def mutate(seed: Seed, k: int, *, exchanges: dict | None = None) -> Seed:
    """Mutation at cluster position k (0-based); involutive.

    ``exchanges`` maps the input of an exchange to the variable it produced:
    a key found there is not computed again.  ``seeds_up_to`` passes one dict
    per breadth-first search; without one, every exchange is computed.
    """
    m = seed.rank
    if not 0 <= k < m:
        raise IndexError(f"mutation index {k} out of range for rank {m}")
    b_rows = [list(r) for r in seed.exchange_matrix[:m]]
    c_rows = [list(r) for r in seed.exchange_matrix[m:]]

    # The two sides of the exchange binomial, each as {factor: exponent}.
    pos: dict[LaurentPoly, int] = {}
    neg: dict[LaurentPoly, int] = {}
    for i in range(m):
        bik = b_rows[i][k]
        if bik:
            side = pos if bik > 0 else neg
            side[seed.cluster[i]] = side.get(seed.cluster[i], 0) + abs(bik)
    for j, row in enumerate(c_rows):
        cjk = row[k]
        if cjk:
            # y-monomials join the opposite sides; see the module docstring.
            side = neg if cjk > 0 else pos
            yj = LaurentPoly.variable(yid(j + 1))
            side[yj] = side.get(yj, 0) + abs(cjk)
    # The new variable is (prod pos + prod neg) / x_k, whichever side is which.
    new_var = key = None
    if exchanges is not None:
        key = (seed.cluster[k], frozenset((frozenset(pos.items()), frozenset(neg.items()))))
        new_var = exchanges.get(key)
    if new_var is None:
        new_var = (_product(pos) + _product(neg)).exact_div(seed.cluster[k])
        if new_var.min_family_exponent(Family.Y) < 0:
            raise NonLaurentResult("mutation produced a negative y exponent")
        if key is not None:
            exchanges[key] = new_var

    # The textbook matrix update applies to [B; -C]; store C back negated.
    work = b_rows + [[-v for v in row] for row in c_rows]
    mutated = _mutate_matrix(work, k, m)
    new_rows = [tuple(r) for r in mutated[:m]]
    new_rows += [tuple(-v for v in row) for row in mutated[m:]]

    cluster = list(seed.cluster)
    cluster[k] = new_var
    return Seed(tuple(new_rows), tuple(cluster), seed.depth + 1)


def seeds_up_to(quiver: Quiver, depth: int, principal: bool = True) -> Iterator[Seed]:
    """Breadth-first seeds reachable by mutation sequences of length <= depth,
    each distinct (matrix, cluster) pair yielded once, deterministically.

    A negative depth raises InvalidArgument at the call.  The search computes
    each distinct exchange once, through one memo that lives as long as the
    returned iterator (see the module docstring).
    """
    if depth < 0:
        raise InvalidArgument(f"depth must be >= 0, got {depth}")
    return _breadth_first(initial_seed(quiver, principal), depth)


def _breadth_first(start: Seed, depth: int) -> Iterator[Seed]:
    exchanges: dict = {}
    seen = {(start.exchange_matrix, start.cluster)}
    frontier = [(start, -1)]
    yield start
    for _ in range(depth):
        next_frontier: list[tuple[Seed, int]] = []
        for seed, last in frontier:
            for k in range(seed.rank):
                if k == last:
                    continue  # immediate repeat is the involution
                child = mutate(seed, k, exchanges=exchanges)
                key = (child.exchange_matrix, child.cluster)
                if key in seen:
                    continue
                seen.add(key)
                yield child
                next_frontier.append((child, k))
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
