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
carries all of that side's coefficients.  ``mutate`` makes the new
variable by exact division of Laurent polynomials; a remainder raises
NonLaurentResult and means the implementation is wrong.

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

With principal coefficients a cluster variable is x^g F(y-hat), F its
F-polynomial, a polynomial in y_1, ..., y_m, and y-hat_j = y_j times x^(-b)
for b column j of the initial B, so that y-hat_j has degree 0 (FZ IV,
Cor. 6.3).  At x = 1 the exchange reads F_k F'_k = y^a+ prod F_i^w_i +
y^a- prod F_i^-w_i over the weights of ``_exchange_weights`` (FZ IV, Prop.
5.1).  A principal search carries the F-polynomial of each position and
makes a new variable from it, dense in its exponent box: ``_f_quotient``
evaluates every F at y_j = X^(s_j), s the strides of the numerator's box
and X a power of two above twice its value at 1, multiplies and adds those
integers, and divides them once.  Every coefficient there lies in [0, X),
so the integer identity is the polynomial identity once three checks hold:
the remainder is 0, each base-X digit of the quotient lies in the box of
the numerator's box minus F_k's, and F_k(1) times the quotient's value at 1
is the numerator's.  A failed check raises NonLaurentResult; no positivity
is assumed, the digits are >= 0 by construction.  The variable x^g' F'(y-hat)
is then read off F' by key arithmetic (``LaurentPoly._lattice``).  A search
without coefficients divides Laurent polynomials through ``mutate``, which
was faster there than the detour through F.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator, Sequence
from functools import reduce
from operator import mul, sub

from .errors import IdentityFailed, InvalidArgument, NonLaurentResult, Record
from .laurent import Family, LaurentPoly, x as x_var, xid, yid
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


# An F-polynomial: its exponent box (the degree in each y_j), its
# coefficients over every cell of the box, y_1's exponent varying fastest,
# and its value at y = 1.
FPoly = namedtuple("FPoly", ("box", "coefficients", "one"))
Side = tuple[Sequence[int], Sequence[tuple[FPoly, int]]]  # y^a, [(F_i, w_i), ...]


def _cells(box: Sequence[int]) -> tuple[list[int], int]:
    """The index step of each exponent in the cells of a box, y_1's
    varying fastest, and the number of cells."""
    strides, size = [], 1
    for d in box:
        strides.append(size)
        size *= d + 1
    return strides, size


def _rows(box: Sequence[int], strides: Sequence[int]) -> list[int]:
    """The index, under ``strides``, of the first cell of each row of a box
    (the cells that differ in y_1's exponent alone), in the box's order."""
    starts = [0]
    for d, s in zip(reversed(box[1:]), reversed(strides[1:])):
        starts = [a + e * s for a in starts for e in range(d + 1)]
    return starts


def _place(digits: bytes, box: Sequence[int], strides: Sequence[int], width: int) -> int:
    """The integer of base-X digits ``digits``, X = 2**(8 * width), given
    for the cells of a box in its order, each row moved to its index under
    ``strides``."""
    rows = _rows(box, strides)
    n = (box[0] + 1) * width  # the bytes of one row
    if len(rows) == 1:
        return int.from_bytes(digits, "little")
    buf = bytearray(rows[-1] * width + n)
    for i, a in enumerate(rows):
        buf[a * width : a * width + n] = digits[i * n : i * n + n]
    return int.from_bytes(buf, "little")


def _encode(f: FPoly, strides: Sequence[int], width: int, w: int = 1) -> int:
    """f**w evaluated at y_j = X**strides[j], X = 2**(8 * width).  A power
    is taken in the layout of its own box, whose indices are never larger,
    and then moved: a factor that is sparse along the first axes of the
    numerator's box would fill a much longer integer there."""
    digits = b"".join([c.to_bytes(width, "little") for c in f.coefficients])
    if w == 1:
        return _place(digits, f.box, strides, width)
    box = [w * d for d in f.box]
    own, size = _cells(box)
    value = _place(digits, f.box, own, width) ** w
    if own == strides:
        return value
    return _place(value.to_bytes(size * width, "little"), box, strides, width)


def _f_quotient(sides: Sequence[Side], divisor: FPoly) -> FPoly:
    """(y^a * prod F_i^w_i + y^b * prod G_j^v_j) / divisor by one big-int
    division; ``sides`` holds (a, [(F_i, w_i), ...]) and (b, [(G_j, v_j), ...]),
    each F nonzero and each w_i >= 1.

    Every polynomial here has coefficients >= 0 and a value >= 1 at 1, so
    each product's coefficients are at most its value at 1, hence at most
    N(1), N the numerator.  With X a power of two above N(1), each
    polynomial's value at y_j = X**s_j, s the strides of N's box, is its
    coefficients as base-X digits, and products and the sum are formed on
    those integers.  The integer quotient q is
    accepted only if the remainder is 0, each of its base-X digits lies in
    the box of N's box minus the divisor's, and divisor(1) * Q(1) = N(1), Q
    the polynomial of those digits.  Then q is Q's value; the product of the
    divisor and Q has coefficients >= 0 that sum to N(1) < X, so its value's
    base-X digits are its coefficients, and equal values give the identity
    divisor * Q = N.  Anything else raises NonLaurentResult.
    """
    boxes, total = [], 0  # each side's box, and N(1)
    for shift, factors in sides:
        box, one = list(shift), 1
        for f, w in factors:
            box = [b + w * d for b, d in zip(box, f.box)]
            one *= f.one**w
        boxes.append(box)
        total += one
    box = tuple(map(max, *boxes))
    qbox = tuple(map(sub, box, divisor.box))
    if min(qbox) < 0:
        raise NonLaurentResult(f"divisor of degrees {divisor.box} does not divide degrees {box}")
    width = total.bit_length() // 8 + 1  # bytes per digit: X > 2 * N(1)
    strides, _ = _cells(box)
    numerator = 0
    for shift, factors in sides:
        side = 1
        for f, w in factors:
            side *= _encode(f, strides, width, w)
        numerator += side << 8 * width * sum(map(mul, shift, strides))
    quotient, remainder = divmod(numerator, _encode(divisor, strides, width))
    if remainder:
        raise NonLaurentResult("F-polynomial division left a remainder")
    rows = _rows(qbox, strides)
    n = (qbox[0] + 1) * width
    try:
        raw = quotient.to_bytes(rows[-1] * width + n, "little")
    except OverflowError:
        raw = None
    coefficients: list[int] = []
    end = 0
    for a in rows:
        a *= width
        if raw is None or raw.count(0, end, a) != a - end:
            raise NonLaurentResult(f"F-polynomial quotient has a digit outside the box {qbox}")
        end = a + n
        coefficients += [int.from_bytes(raw[p : p + width], "little") for p in range(a, end, width)]
    one = sum(coefficients)
    if divisor.one * one != total:
        raise NonLaurentResult(
            f"F-polynomial quotient has value {one} at 1, times the divisor's {divisor.one}"
            f" not the numerator's {total}"
        )
    return FPoly(qbox, coefficients, one)


def _f_exchange(seed: Seed, c_rows: Matrix, fs: Sequence[FPoly], k: int) -> FPoly:
    """The F-polynomial of the variable made by the exchange at k: the
    exchange binomial of ``mutate`` at x = 1, divided by F_k."""
    m = seed.rank
    weights = _exchange_weights(seed, c_rows, k)
    sides = []
    for sign in (1, -1):
        signed = [sign * w for w in weights]
        shift = [w if w > 0 else 0 for w in signed[m:]]
        sides.append((shift, [(f, w) for f, w in zip(fs, signed) if w > 0]))
    return _f_quotient(sides, fs[k])


def _principal_variable(g: Sequence[int], f: FPoly, b0: Matrix) -> LaurentPoly:
    """x^g * F(y-hat), y-hat_j = y_j * x^(-column j of the initial B): the
    term y^e of F becomes x^(g - B e) y^e, which has degree g."""
    m = len(g)
    frame = tuple(xid(i + 1) for i in range(m)) + tuple(yid(j + 1) for j in range(m))
    steps = [tuple(-row[j] for row in b0) + tuple(int(i == j) for i in range(m)) for j in range(m)]
    return LaurentPoly._lattice(frame, tuple(g) + (0,) * m, steps, f.box, f.coefficients)


def _breadth_first(start: Seed, depth: int) -> Iterator[Seed]:
    m = start.rank
    unit = tuple(tuple(int(i == j) for j in range(m)) for i in range(m))
    b0 = start.exchange_matrix[:m]
    y_degrees = tuple(zip(*b0))  # deg y_j: column j of B
    # Principal searches carry each position's F-polynomial and make a new
    # variable from it; the others divide Laurent polynomials in ``mutate``.
    f_one = FPoly((0,) * m, [1], 1) if start.principal else None
    memo: dict[tuple[int, ...], tuple[LaurentPoly, FPoly | None]] = {
        g: (v, f_one) for g, v in zip(unit, start.cluster)
    }
    seen = {(start.exchange_matrix, start.cluster)}
    # A seed, the position it was reached by, the g-vectors of its cluster,
    # its coefficient rows C, tracked also without coefficients, and the
    # F-polynomials of its cluster.
    frontier = [(start, -1, unit, start.exchange_matrix[m:] or unit, (f_one,) * m)]
    yield start
    for _ in range(depth):
        next_frontier: list[tuple[Seed, int, Matrix, Matrix, tuple]] = []
        for seed, last, g, c_rows, fs in frontier:
            for k in range(m):
                if k == last:
                    continue  # immediate repeat is the involution
                g_new = _g_vector(seed, c_rows, g, y_degrees, k)
                known = memo.get(g_new)
                if known is None and f_one is None:  # divide Laurent polynomials
                    child = mutate(seed, k)
                    memo[g_new] = child.cluster[k], None
                    f_new = None
                else:
                    if known is None:  # divide F-polynomials
                        f = _f_exchange(seed, c_rows, fs, k)
                        known = memo[g_new] = _principal_variable(g_new, f, b0), f
                    variable, f_new = known
                    cluster = seed.cluster[:k] + (variable,) + seed.cluster[k + 1 :]
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
                next_frontier.append(
                    (child, k, g[:k] + (g_new,) + g[k + 1 :], new_c, fs[:k] + (f_new,) + fs[k + 1 :])
                )
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
