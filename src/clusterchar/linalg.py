"""Exact integer algebra, with no quiver and no field F_q in it: integer
matrices and the primes at which their rank drops (_diagonal_entries,
_prime_factors), integer polynomials as ascending coefficient tuples with
no trailing zero past the constant (_trim, _newton_coefficients), and the
pencil mu*B - lambda*A of two square matrices (_Pencil).
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from .errors import InvalidArgument, NonPolynomialCount

IntMatrix = tuple[tuple[int, ...], ...]


# ---------------------------------------------------------------------------
# matrices and the primes at which their rank drops


def _det(rows: Sequence[Sequence[int]]) -> int:
    """Integer determinant by fraction-free (Bareiss) elimination."""
    a = [list(r) for r in rows]
    n, sign, prev = len(a), 1, 1
    for c in range(n):
        pivot = next((r for r in range(c, n) if a[r][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            sign = -sign
        for r in range(c + 1, n):
            for k in range(c + 1, n):
                a[r][k] = (a[r][k] * a[c][c] - a[r][c] * a[c][k]) // prev
        prev = a[c][c]
    return sign * (a[n - 1][n - 1] if n else 1)


def _matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """The product ab of integer matrices, b with at least one row."""
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


def _end_matrix(
    pairs: Sequence[tuple[int, int]], dim: Sequence[int], matrices: Sequence[IntMatrix]
) -> list[list[int]]:
    """The map (phi_v) -> (M_a phi_s - phi_t M_a) over the arrows a: s -> t
    (index pairs), whose kernel is End(M).  phi_v[i][j] is unknown
    offset[v] + i * dim[v] + j.  The row of entry (r, c) of M_a holds row r
    of M_a at the phi_s[i][c] and minus column c at the phi_t[r][j]; with
    no loops the two never meet."""
    offset = [0]
    for d in dim:
        offset.append(offset[-1] + d * d)
    rows = []
    for (s, t), m in zip(pairs, matrices):
        minus_cols = [[-v for v in col] for col in zip(*m)]
        for r in range(dim[t]):
            at = offset[t] + r * dim[t]
            for c in range(dim[s]):
                row = [0] * offset[-1]
                row[offset[s] + c:offset[s + 1]:dim[s]] = m[r]
                row[at:at + dim[t]] = minus_cols[c]
                rows.append(row)
    return rows


def _diagonal_entries(mat: Sequence[Sequence[int]]) -> list[int]:
    """The absolute values of the nonzero entries of a diagonal form of the
    matrix under invertible integer row and column operations.  Those
    operations stay invertible mod every p, so the matrix's rank mod p is
    the number of entries that p does not divide.

    The form depends on the pivot order, but the primes dividing its entries
    do not.  Invertible integer operations keep the gcd of the r x r minors,
    r the rank; a diagonal form has one nonzero r x r minor, the product of
    its entries; so the primes that divide some entry are those dividing
    that gcd, whichever form is reached.

    A +-1 entry, the first found, is the pivot whenever there is one: adding
    multiples of its row clears its column, and column operations would
    then clear its row without touching another, so the row is dropped.
    Without a unit, the smallest entry is reduced against its row and
    column until it is alone in both."""
    a = [list(row) for row in mat]
    out = []
    while True:
        i = next((i for i, row in enumerate(a) if 1 in row or -1 in row), None)
        if i is not None:
            pivot_row = a.pop(i)
            j = pivot_row.index(1) if 1 in pivot_row else pivot_row.index(-1)
            scaled = [(col, v * pivot_row[j]) for col, v in enumerate(pivot_row) if v]
            for row in a:
                f = row[j]
                if f:
                    for col, v in scaled:
                        row[col] -= f * v
            out.append(1)
            continue
        nonzero = [(abs(v), i, j) for i, row in enumerate(a) for j, v in enumerate(row) if v]
        if not nonzero:
            return out
        _, i, j = min(nonzero)
        pivot = a[i][j]
        for k, row in enumerate(a):
            if k != i and row[j]:
                f = row[j] // pivot
                a[k] = [x - f * y for x, y in zip(row, a[i])]
        for col in range(len(a[i])):
            if col != j and a[i][col]:
                f = a[i][col] // pivot
                for row in a:
                    row[col] -= f * row[j]
        # Each nonzero remainder is smaller than the pivot, so this ends.
        if sum(1 for row in a if row[j]) == 1 and sum(1 for v in a[i] if v) == 1:
            out.append(abs(pivot))
            del a[i]
            for row in a:
                del row[j]

_TRIAL_DIVISORS = 10**6


def _prime_factors(n: int) -> set[int]:
    """The prime factors of n >= 0, by trial division up to 10^6.  A
    cofactor left below (10^6 + 1)^2 is then prime; a larger one is refused,
    since it may have two factors beyond the trial bound."""
    whole = n
    out: set[int] = set()
    for d in range(2, _TRIAL_DIVISORS + 1):
        if d * d > n:
            break
        while n % d == 0:
            out.add(d)
            n //= d
    else:
        if n >= (_TRIAL_DIVISORS + 1) ** 2:
            raise InvalidArgument(
                f"cannot factor {whole}: trial division up to {_TRIAL_DIVISORS} "
                f"leaves {n}, too large to be known prime"
            )
    if n > 1:
        out.add(n)
    return out


def _divisors(n: int) -> list[int]:
    out = [1]
    for p in _prime_factors(abs(n)):
        powers = [1]
        while n % (powers[-1] * p) == 0:
            powers.append(powers[-1] * p)
        out = [d * x for d in out for x in powers]
    return out


# ---------------------------------------------------------------------------
# integer polynomials (ascending coefficient tuples)


def _poly_mul(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return tuple(out)


def _poly_add(acc: list[int], a: Sequence[int], shift: int = 0) -> None:
    """acc += q^shift * a, in place."""
    if len(acc) < shift + len(a):
        acc.extend([0] * (shift + len(a) - len(acc)))
    for i, x in enumerate(a):
        acc[shift + i] += x


def _trim(coeffs: Sequence[int]) -> tuple[int, ...]:
    out = list(coeffs) or [0]
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


def _eval_poly(coeffs: Sequence[int], x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


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
    return _trim(out)


def _without_rational_roots(
    coeffs: Sequence[int],
) -> tuple[tuple[int, ...], list[tuple[int, int, int]]]:
    """The integer polynomial divided by a linear factor s*t - r for every
    rational root r/s, with multiplicity (rational-root test), and those
    roots as (r, s, multiplicity), s > 0 and coprime to r."""
    c = list(_trim(coeffs))
    roots = []

    def value(r: int, s: int) -> int:  # s^deg times c at r/s
        return sum(ci * r**i * s ** (len(c) - 1 - i) for i, ci in enumerate(c))

    while len(c) > 1:
        root = next(
            (
                (r, s)
                for s in _divisors(c[-1])
                for a in (_divisors(c[0]) if c[0] else (0,))  # t divides c: the root 0
                for r in (a, -a)
                if math.gcd(r, s) == 1 and value(r, s) == 0
            ),
            None,
        )
        if root is None:
            break
        r, s = root
        m = 0
        while len(c) > 1 and value(r, s) == 0:
            quotient = [0] * len(c)  # c = (s t - r) * quotient, from the top down
            for i in range(len(c) - 1, 0, -1):
                quotient[i - 1] = (c[i] + r * quotient[i]) // s
            c, m = quotient[:-1], m + 1
        roots.append((r, s, m))
    return tuple(c), roots


def _form_text(coeffs: Sequence[int]) -> str:
    """The binary form sum c_i lambda^i mu^(deg-i), highest power of
    lambda first."""
    deg = len(coeffs) - 1
    out = ""
    for i in range(deg, -1, -1):
        c = coeffs[i]
        if not c:
            continue
        powers = [f"{v}^{k}" if k > 1 else v for v, k in (("lambda", i), ("mu", deg - i)) if k]
        body = "*".join(([str(abs(c))] if abs(c) != 1 or not powers else []) + powers)
        sign = ("-" if c < 0 else "") if not out else (" - " if c < 0 else " + ")
        out += sign + body
    return out


# ---------------------------------------------------------------------------
# pencils


class _Pencil:
    """The pencil mu*B - lambda*A of two n x n integer matrices A and B, as
    the arrow matrices of a Kronecker module of dimension (n, n).

    Its points are the roots of the binary form det(mu*B - lambda*A) = sum
    c_i lambda^i mu^(n-i).  ``rest`` is the form divided by its rational
    linear factors, and ``points`` are the rational roots (lambda, mu,
    multiplicity), lambda and mu coprime.  When every point is rational,
    rest is the content of the form up to sign (Gauss's lemma).
    """

    __slots__ = ("a", "b", "rest", "points")

    def __init__(self, a: IntMatrix, b: IntMatrix) -> None:
        n = len(a)
        # det(B - tA) at t = 0..n, interpolated: divided differences of an
        # integer polynomial at consecutive integers are integers
        dets = [_det([[y - t * x for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]) for t in range(n + 1)]
        form = _newton_coefficients(list(enumerate(dets)))
        self.a, self.b = a, b
        self.rest, roots = _without_rational_roots(form)
        # a degree below n is a root at mu = 0
        infinite = n + 1 - len(form) if any(form) else 0
        self.points = tuple(roots) + (((1, 0, infinite),) if infinite else ())

    def rational(self) -> bool:
        """Whether the form is not 0 and every point is rational."""
        return len(self.rest) == 1 and self.rest[0] != 0

    def refuse_irrational(self) -> None:
        """Raise NonPolynomialCount when the form has a factor of degree 2 or
        more without a rational root.  It splits differently mod different
        primes, so the counts of the module are not a polynomial in p."""
        if len(self.rest) > 2:
            raise NonPolynomialCount(
                f"det(mu*B - lambda*A) has the factor {_form_text(self.rest)} with no "
                f"rational root: the module has a point that is not rational, so "
                f"its counts are not a polynomial in p"
            )

    def type_values(self) -> set[int]:
        """Nonzero integers whose prime factors are exactly the primes at
        which reduction changes the type of the canonical form, for a
        rational pencil.

        Mod p the form must not vanish: p must not divide its content.  Then
        every point mod p is the reduction of a rational point (lam : mu).
        With (gamma, delta) completing (lam, mu) to a basis of Z^2, the
        pencil there is s*P + t*Q for P = mu*B - lam*A and Q = delta*B -
        gamma*A, and the kernel of the block matrix T_k with P down its
        diagonal and Q below it, of dimension sum_j min(k, kappa_j), gives
        the Jordan partition kappa at the point, over Q and over F_p alike.
        Its rank drops mod p exactly when p divides an entry of
        _diagonal_entries.  Two points meeting mod p raise the multiplicity
        m of each, so T_(m+1) loses rank there; with T_1, ..., T_(m+1) of
        unchanged rank the partition keeps its size m and, read off those
        kernels, its parts, so no larger k is needed (k stops at n).
        """
        a, b, n = self.a, self.b, len(self.a)
        values = {abs(self.rest[0])}
        for lam, mu, m in self.points:
            if mu:
                delta = pow(lam, -1, mu)
                gamma = (lam * delta - 1) // mu
            else:
                gamma, delta = 0, lam  # lam is +-1
            p = [[mu * y - lam * x for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
            q = [[delta * y - gamma * x for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
            rows: list[list[int]] = []
            left = [[] for _ in p]  # what stands left of P in the newest block row
            for k in range(1, min(n, m + 1) + 1):
                rows = [row + [0] * n for row in rows] + [x + y for x, y in zip(left, p)]
                left = [[0] * ((k - 1) * n) + row for row in q]
                values.update(_diagonal_entries(rows))
        return values
