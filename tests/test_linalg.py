"""Exact integer algebra against oracles over Q built here from Fractions."""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from clusterchar.linalg import _Pencil


def _fraction_det(rows):
    """Determinant over Q by Gaussian elimination."""
    a = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for c in range(len(a)):
        pivot = next((r for r in range(c, len(a)) if a[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, len(a)):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


@st.composite
def pencils(draw):
    """Two n x n integer matrices, n <= 3.  Half are upper triangular, so
    that every point is rational and points often meet or lie at infinity;
    the others often have an irrational point, or a form that is 0."""
    n = draw(st.integers(1, 3))
    triangular = draw(st.booleans())
    entry = st.integers(-3, 3)
    return tuple(
        tuple(tuple(draw(entry) if j >= i or not triangular else 0 for j in range(n)) for i in range(n))
        for _ in range(2)
    )


@given(pair=pencils())
@settings(max_examples=300, deadline=None)
def test_points_and_rest_give_the_form(pair):
    """rest times (s*t - r)^m over the finite points is det(B - tA), and a
    point at infinity is the drop of its degree below n."""
    a, b = pair
    n = len(a)
    pencil = _Pencil(a, b)
    finite = [(r, s, m) for r, s, m in pencil.points if s]
    infinite = [m for r, s, m in pencil.points if not s]
    for r, s, m in pencil.points:
        assert m >= 1 and math.gcd(r, s) == 1 and (s > 0 or (r, s) == (1, 0))
    for t in range(n + 3):
        rest = sum(c * t**i for i, c in enumerate(pencil.rest))
        value = rest * math.prod((s * t - r) ** m for r, s, m in finite)
        assert value == _fraction_det([[y - t * x for x, y in zip(ra, rb)] for ra, rb in zip(a, b)])
    if pencil.rest == (0,):  # the form is 0: no points
        assert pencil.points == ()
    else:
        degree = len(pencil.rest) - 1 + sum(m for _, _, m in finite)
        assert degree + sum(infinite) == n
        assert len(infinite) <= 1
