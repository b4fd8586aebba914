import functools
import json
import operator
import pickle

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from clusterchar.errors import InvalidArgument, NonInvertibleImage, NonLaurentResult
from clusterchar.laurent import (
    _BITS,
    _LIMIT,
    Family,
    LaurentPoly,
    Monomial,
    VarId,
    _decode,
    _key,
    _ones,
    q,
    qid,
    t,
    tid,
    u,
    uid,
    x,
    xid,
    y,
    yid,
    z,
    zid,
)

VAR_POOL = [xid(1), xid(2), yid(1), yid(2), tid(1), qid(2)]
WIDE_POOL = [xid(1), xid(2), xid(3), yid(1), yid(2), qid(1), tid(1), uid(1)]
ORDER_POOL = VAR_POOL + [xid(3), qid(1), uid(1), zid(1)]
EXTRA_POOL = ORDER_POOL + [xid(4), yid(3), tid(3), zid(2)]


@st.composite
def monomials(draw, pool=VAR_POOL):
    n = draw(st.integers(min_value=0, max_value=3))
    vs = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n, unique=True))
    exps = draw(st.lists(st.integers(min_value=-3, max_value=3), min_size=n, max_size=n))
    return Monomial({v: e for v, e in zip(vs, exps)})


@st.composite
def polys(draw, pool=VAR_POOL):
    n = draw(st.integers(min_value=0, max_value=4))
    ms = draw(st.lists(monomials(pool), min_size=n, max_size=n))
    cs = draw(st.lists(st.integers(min_value=-5, max_value=5), min_size=n, max_size=n))
    return LaurentPoly(list(zip(ms, cs)))


@st.composite
def wide_polys(draw, max_terms):
    """Polynomials over up to 8 variables with exponents in -40..40."""
    terms = []
    for _ in range(draw(st.integers(min_value=0, max_value=max_terms))):
        vs = draw(st.lists(st.sampled_from(WIDE_POOL), max_size=len(WIDE_POOL), unique=True))
        es = draw(st.lists(st.integers(-40, 40), min_size=len(vs), max_size=len(vs)))
        terms.append((Monomial(dict(zip(vs, es))), draw(st.integers(-5, 5))))
    return LaurentPoly(terms)


def _corner(sign):
    """A monomial in every WIDE_POOL variable with exponents +-40."""
    return LaurentPoly.from_monomial(
        Monomial({v: sign * (40 if i % 2 else -40) for i, v in enumerate(WIDE_POOL)})
    )


@st.composite
def plain_polys(draw):
    """Polynomials with non-negative exponents only, so any substitution
    image is admissible."""
    n = draw(st.integers(min_value=0, max_value=3))
    out = []
    for _ in range(n):
        k = draw(st.integers(min_value=0, max_value=2))
        vs = draw(st.lists(st.sampled_from(VAR_POOL), min_size=k, max_size=k, unique=True))
        es = draw(st.lists(st.integers(min_value=0, max_value=3), min_size=k, max_size=k))
        c = draw(st.integers(min_value=-5, max_value=5))
        out.append((Monomial({v: e for v, e in zip(vs, es)}), c))
    return LaurentPoly(out)


class TestRingAxioms:
    @given(a=polys(), b=polys(), c=polys())
    def test_add_mul_axioms(self, a, b, c):
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(a=polys())
    def test_units(self, a):
        assert a + LaurentPoly.zero() == a
        assert a * LaurentPoly.one() == a
        assert a - a == LaurentPoly.zero()
        assert a * 0 == 0

    def test_spec_examples(self):
        assert (x(1) + 1) + (x(1) - 1) == 2 * x(1)
        assert x(1) * x(1).inverse() == 1
        assert (x(1) + x(2)) * (x(1) - x(2)) == x(1) ** 2 - x(2) ** 2
        assert (t(1) + q(1) * t(2).inverse()) * t(2) == t(1) * t(2) + q(1)


class TestSubstitution:
    def test_binomial_square(self):
        image = t(1) + q(1) * t(2).inverse()
        got = (t(1) ** 2).substitute({tid(1): image})
        want = t(1) ** 2 + 2 * q(1) * t(1) * t(2).inverse() + q(1) ** 2 * t(2).inverse() ** 2
        assert got == want

    def test_monomial_image_inverts(self):
        got = t(1).inverse().substitute({tid(1): t(2)})
        assert got == t(2).inverse()

    def test_non_monomial_image_of_inverted_variable(self):
        with pytest.raises(NonInvertibleImage):
            t(1).inverse().substitute({tid(1): t(1) + 1})

    def test_identity_substitution(self):
        p = t(1) * t(2) - q(2) + 3
        assert p.substitute({tid(1): t(1), tid(2): t(2)}) == p

    @given(a=plain_polys(), b=plain_polys())
    @settings(max_examples=50)
    def test_ring_homomorphism(self, a, b):
        sigma = {xid(1): t(1) + 1, yid(1): q(2) * t(1)}
        assert (a + b).substitute(sigma) == a.substitute(sigma) + b.substitute(sigma)
        assert (a * b).substitute(sigma) == a.substitute(sigma) * b.substitute(sigma)


class TestDerivative:
    def test_simple(self):
        assert (t(1) * t(2) - q(2)).partial_derivative(tid(1)) == t(2)
        assert q(2).partial_derivative(tid(1)) == 0

    def test_degree_three(self):
        p3 = t(3) * t(2) * t(1) - t(3) * q(2) - q(3) * t(1)
        assert p3.partial_derivative(tid(2)) == t(1) * t(3)

    @given(a=polys(), b=polys())
    @settings(max_examples=50)
    def test_leibniz(self, a, b):
        v = xid(1)
        lhs = (a * b).partial_derivative(v)
        rhs = a * b.partial_derivative(v) + b * a.partial_derivative(v)
        assert lhs == rhs

    @given(a=polys(), b=polys())
    @settings(max_examples=50)
    def test_linear(self, a, b):
        v = yid(1)
        assert (a + b).partial_derivative(v) == a.partial_derivative(v) + b.partial_derivative(v)


class TestPositivityAndSpecialization:
    def test_subtraction_free(self):
        assert (x(1) + x(2)).is_subtraction_free()
        assert not (x(1) - x(2)).is_subtraction_free()
        assert LaurentPoly.zero().is_subtraction_free()

    def test_specialize_ones(self):
        p = y(1) * x(1) + y(2) * x(2)
        assert p.specialize_ones(Family.Y) == x(1) + x(2)
        p2 = x(1) * x(2).inverse()
        assert p2.specialize_ones(Family.Y) == p2

    def test_specialize_merges_terms(self):
        p = y(1) * x(1) + y(2) * x(1)
        assert p.specialize_ones(Family.Y) == 2 * x(1)

    @given(a=polys(), b=polys())
    @settings(max_examples=50)
    def test_positivity_preserved(self, a, b):
        if a.is_subtraction_free() and b.is_subtraction_free():
            assert (a + b).is_subtraction_free()
            assert (a * b).is_subtraction_free()
            assert a.specialize_ones(Family.Y).is_subtraction_free()


def _y_support(a):
    """Every y-exponent vector of a's terms, padded to the largest y index."""
    ys = [v.index for m, _ in a.terms() for v in m.variables() if v.family == Family.Y]
    width = max(ys, default=0)
    return {tuple(m.exponent(yid(i)) for i in range(1, width + 1)) for m, _ in a.terms()}


class TestGrading:
    def test_examples(self):
        p = y(1) * y(2) * x(2) * x(1).inverse() + x(1) * x(2).inverse()
        assert p.graded_coefficient((1, 1)) == x(2) * x(1).inverse()
        assert p.graded_coefficient((0, 0)) == x(1) * x(2).inverse()

    @given(a=polys())
    @settings(max_examples=60)
    def test_reconstruction(self, a):
        vectors = _y_support(a)
        total = LaurentPoly.zero()
        for e in vectors:
            mono = Monomial({yid(i + 1): v for i, v in enumerate(e) if v})
            total = total + LaurentPoly.from_monomial(mono) * a.graded_coefficient(e)
        assert total == a


class TestDivision:
    @given(a=polys(), b=polys())
    @settings(max_examples=60)
    def test_exact_product_division(self, a, b):
        if b.is_zero():
            return
        assert (a * b).exact_div(b) == a

    def test_remainder_raises(self):
        with pytest.raises(NonLaurentResult):
            (x(1) + 1).exact_div(x(2) + 1)

    def test_coefficient_remainder_raises(self):
        with pytest.raises(NonLaurentResult):
            (3 * x(1) + 1).exact_div(LaurentPoly.constant(2))

    def test_same_degree_descent_raises(self):
        # Long division would descend forever through the quotient terms
        # x2^k*x1^(-k-1) of degree -1, all above x3^-5 / x2 in the canonical
        # order; the exponentwise floor stops it at the first.
        with pytest.raises(NonLaurentResult):
            (1 + x(3) ** -5).exact_div(x(1) - x(2))

    @given(a=polys(), b=polys())
    @settings(max_examples=60)
    def test_unit_remainder_raises(self, a, b):
        single = b.single_term()
        assume(not b.is_zero() and not (single and single[1] in (1, -1)))
        with pytest.raises(NonLaurentResult):
            (a * b + 1).exact_div(b)


def _dense_cmp(a, b):
    """The canonical order written on dense exponent vectors: degree
    descending, then the larger exponent first in variable order.  Returns
    -1 when ``a`` comes first."""
    if a.degree != b.degree:
        return -1 if a.degree > b.degree else 1
    for v in sorted(set(a.variables()) | set(b.variables())):
        ea, eb = a.exponent(v), b.exponent(v)
        if ea != eb:
            return -1 if ea > eb else 1
    return 0


_DENSE_KEY = functools.cmp_to_key(_dense_cmp)


def _dense(m, frame):
    return [m.exponent(v) for v in frame]


def _key_of(m, frame):
    return _key(_dense(m, frame))


def _reach(p):
    """The largest |exponent| in p's terms (0 if there is none)."""
    return max((abs(m.exponent(v)) for m, _ in p.terms() for v in m.variables()), default=0)


EDGE_EXPONENTS = st.one_of(
    st.integers(-_LIMIT, _LIMIT), st.sampled_from([-_LIMIT, -_LIMIT + 1, 0, _LIMIT - 1, _LIMIT])
)


def _sparse_mul(ma, mb):
    """Monomial product on sparse exponent maps."""
    acc = {v: ma.exponent(v) for v in ma.variables()}
    for v in mb.variables():
        acc[v] = acc.get(v, 0) + mb.exponent(v)
    return Monomial(acc)


def _sparse_product(a, b):
    return LaurentPoly(
        [(_sparse_mul(ma, mb), ca * cb) for ma, ca in a.terms() for mb, cb in b.terms()]
    )


def _scan_div(a, d, trace=None):
    """Long division that scans the whole remainder for its leading term,
    with the coefficient and floor refusals of ``LaurentPoly.exact_div``.
    A ``trace`` list receives every lead that passes both checks as
    ("lead", m), every quotient and product monomial as ("formed", m), and
    every remainder term that a product cancels to 0 as ("cancelled", m)."""
    dm = min((m for m, _ in d.terms()), key=_DENSE_KEY)
    dc = dict(d.terms())[dm]
    floor = {}
    for m, _ in a.terms():
        for v in m.variables():
            floor[v] = min(floor.get(v, 0), m.exponent(v))
    rem = dict(a.terms())
    quot = {}
    while rem:
        lead = min(rem, key=_DENSE_KEY)
        c = rem[lead]
        if c % dc:
            raise NonLaurentResult(f"leading coefficient {c} not divisible by {dc}")
        if any(lead.exponent(v) < floor.get(v, 0) for v in lead.variables()):
            raise NonLaurentResult(
                f"remainder term {lead.text()} lies below the dividend's floor"
            )
        qm = _sparse_mul(lead, dm.inverse())
        qc = c // dc
        quot[qm] = qc
        if trace is not None:
            trace.append(("lead", lead))
            trace.append(("formed", qm))
        for m2, c2 in d.terms():
            key = _sparse_mul(qm, m2)
            if trace is not None:
                trace.append(("formed", key))
            nc = rem.get(key, 0) - qc * c2
            if nc:
                rem[key] = nc
            else:
                rem.pop(key, None)
                if trace is not None:
                    trace.append(("cancelled", key))
    return LaurentPoly(quot)


def _outcome(f):
    try:
        got = f()
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)
    return got, str(got), [m.degree for m, _ in got.canonical_terms()]


class TestDenseKeys:
    """Products and quotients on dense keys against the sparse reference."""

    @given(a=polys(ORDER_POOL), b=polys(ORDER_POOL), r=polys(ORDER_POOL))
    @settings(max_examples=150, deadline=None)
    def test_matches_sparse_reference(self, a, b, r):
        n = a * b + r
        for f, g in ((a, b), (n, n)):  # n * n spans wider exponent ranges
            assert _outcome(lambda: f * g) == _outcome(lambda: _sparse_product(f, g))
        assume(not b.is_zero())
        assert _outcome(lambda: n.exact_div(b)) == _outcome(lambda: _scan_div(n, b))

    @given(data=st.data())
    def test_packing_at_its_bound(self, data):
        """The key codec at the edge of its field bound: round trip, the
        canonical order, and the one-subtraction floor test."""
        n = len(WIDE_POOL)
        row = st.lists(EDGE_EXPONENTS, min_size=n, max_size=n)
        a, b, f = (Monomial(dict(zip(WIDE_POOL, data.draw(row)))) for _ in range(3))
        guards = _ones(n) << (_BITS - 1)
        ka, kb = _key_of(a, WIDE_POOL), _key_of(b, WIDE_POOL)
        assert next(_decode([ka], n)) == (a.degree, _dense(a, WIDE_POOL))
        assert (ka > kb) - (ka < kb) == _dense_cmp(a, b)
        below = Monomial({v: min(a.exponent(v), f.exponent(v)) for v in WIDE_POOL})
        for floor in (f, below):
            above = all(a.exponent(v) >= floor.exponent(v) for v in WIDE_POOL)
            assert ((guards + _key_of(floor, WIDE_POOL) - ka) & guards == guards) == above

    @given(a=wide_polys(3), b=wide_polys(3), r=wide_polys(2))
    @example(a=_corner(1) + 3, b=_corner(-1) - 2, r=LaurentPoly.zero())  # exact
    @example(a=_corner(1), b=x(1) - x(2), r=x(3) ** -40)  # floor refusal
    @example(a=_corner(1), b=2 * _corner(-1) + 1, r=_corner(1))  # coefficient refusal
    @settings(max_examples=80, deadline=None)
    def test_wide_exponents_match_sparse_reference(self, a, b, r):
        """Up to 8 frame variables, exponents up to 40 in magnitude: the
        packed division agrees with the reference, refusals included, and
        every monomial the reference forms lies within the bound
        M = 2n(a + d) that the division checks against the field (the key
        codec itself is checked at its bound by ``test_packing_at_its_bound``)."""
        assume(not b.is_zero())
        n = a * b + r
        trace = []
        assert _outcome(lambda: n.exact_div(b)) == _outcome(lambda: _scan_div(n, b, trace))
        frame = sorted(set(n.support()) | set(b.support()))
        k, ea = len(frame), _reach(n)
        bound = 2 * k * (ea + _reach(b))
        assert bound <= _LIMIT  # the division's field check let it through
        for kind, m in trace:
            exps = [m.exponent(v) for v in frame]
            assert max(map(abs, exps), default=0) <= bound
            if kind == "lead":
                assert abs(m.degree) <= k * ea
                assert all(abs(e) <= (2 * k - 1) * ea for e in exps)

    @pytest.mark.parametrize(
        "dividend, divisor, message",
        [
            (3 * x(1) + 1, LaurentPoly.constant(2), "leading coefficient 3 not divisible by 2"),
            (x(1) + 1, x(2) + 1, "remainder term x2^-1*x1 lies below the dividend's floor"),
            (
                1 + x(3) ** -5,
                x(1) - x(2),
                "remainder term x2*x1^-1 lies below the dividend's floor",
            ),
        ],
        ids=["coefficient", "floor", "same-degree-descent"],
    )
    def test_refusals_match_sparse_reference(self, dividend, divisor, message):
        want = (NonLaurentResult, message)
        assert _outcome(lambda: dividend.exact_div(divisor)) == want
        assert _outcome(lambda: _scan_div(dividend, divisor)) == want


ONE_TERM = st.builds(LaurentPoly.from_monomial, monomials(ORDER_POOL), st.sampled_from([-2, -1, 1, 3]))


class TestSum:
    @given(parts=st.lists(st.one_of(polys(ORDER_POOL), ONE_TERM), max_size=7))
    @example(parts=[x(1), LaurentPoly.one()])  # x1 is bounded by [0, 1]
    @example(parts=[x(1) * y(1), y(1) ** -1, -(x(1) * y(1))])  # x1 cancels
    @settings(max_examples=150, deadline=None)
    def test_terms_and_bounds(self, parts):
        """One-term parts are keyed in one pass, the others lifted: the sum
        holds the nonzero totals, and each frame variable's bounds are the
        least and greatest of its exponents over them."""
        got = LaurentPoly.sum(parts)
        totals = {}
        for p in parts:
            for m, c in p.terms():
                totals[m] = totals.get(m, 0) + c
        totals = {m: c for m, c in totals.items() if c}
        assert dict(got.terms()) == totals
        frame = got.support()
        assert frame == tuple(sorted({v for m in totals for v in m.variables()}))
        exps = [[m.exponent(v) for m in totals] for v in frame]
        assert (tuple(got._lo), tuple(got._hi)) == (tuple(map(min, exps)), tuple(map(max, exps)))


# (x1^2 - x1 - 1) * (-x1^2 + x1 - 1): dividing the product by the second
# factor cancels the remainder term x1^2 to 0, and a later product hits it
# again before it is the lead.
REHIT = (x(1) ** 2 - x(1) - 1, -x(1) ** 2 + x(1) - 1)


def _equal_copy(f):
    """A polynomial equal to f with its own term map, so that ``f * copy``
    runs the general product loop where ``f * f`` runs the square's (the
    zero polynomial is shared, and one term takes neither loop)."""
    g = LaurentPoly(list(f.terms()))
    assert g == f and (len(f) < 2 or g._terms is not f._terms)
    return g


class TestSquares:
    @given(f=polys(ORDER_POOL))
    @example(f=x(1) ** 2 + 2 * x(1) - 2)  # x1^2 cancels: 2*1*(-2) + 2*2 = 0
    @example(f=x(1) ** -3 - y(1) * x(2) ** 2 + 3 * t(1) ** -1)
    @settings(max_examples=120, deadline=None)
    def test_square_matches_general_product(self, f):
        g = _equal_copy(f)
        assert _outcome(lambda: f * f) == _outcome(lambda: f * g)
        assert _outcome(lambda: f ** 3) == _outcome(lambda: f * g * g)

    @given(f=wide_polys(4))
    @settings(max_examples=60, deadline=None)
    def test_wide_square_matches_sparse_reference(self, f):
        assert _outcome(lambda: f * f) == _outcome(lambda: _sparse_product(f, _equal_copy(f)))

    def test_square_cancels_a_term(self):
        f = x(1) ** 2 + 2 * x(1) - 2
        assert str(f * f) == "x1^4 + 4*x1^3 - 8*x1 + 4"
        assert (f * f).exact_div(f) == f

    @pytest.mark.parametrize("sign", [1, -1])
    def test_square_at_the_field_edge(self, sign):
        held = x(1) ** (sign * (_LIMIT // 2)) + y(1)
        assert held * held == held * _equal_copy(held)
        past = x(1) ** (sign * (_LIMIT // 2 + 1)) + y(1)
        message = f"exponent {sign * 2 * (_LIMIT // 2 + 1)} of x1 is outside the supported range"
        for other in (past, _equal_copy(past)):
            with pytest.raises(InvalidArgument, match=f"^{message}"):
                past * other


class TestDivisionRemainder:
    """The remainder map keeps a cancelled term at 0 until its key is popped."""

    @given(a=polys(ORDER_POOL), b=polys(ORDER_POOL))
    @example(a=REHIT[0], b=REHIT[1])
    @settings(max_examples=120, deadline=None)
    def test_product_divides_back(self, a, b):
        assume(not b.is_zero())
        assert (a * b).exact_div(b) == a

    def test_cancelled_term_is_hit_again(self):
        a, b = REHIT
        trace = []
        assert (a * b).exact_div(b) == _scan_div(a * b, b, trace) == a
        cancelled = [i for i, (kind, _) in enumerate(trace) if kind == "cancelled"]
        assert any(
            trace[j] == ("formed", trace[i][1]) for i in cancelled for j in range(i + 1, len(trace))
        )

    @pytest.mark.parametrize(
        "dividend, divisor, message",
        [
            (REHIT[0] * REHIT[1] + x(1), REHIT[1], "remainder term x1^-2 lies below the dividend's floor"),
            (REHIT[0] * REHIT[1] + 2, REHIT[1], "remainder term x1^-1 lies below the dividend's floor"),
            (
                REHIT[0] * REHIT[1] * x(2) + y(1),
                REHIT[1] * x(2),
                "remainder term y1*x1^-1 lies below the dividend's floor",
            ),
            (
                REHIT[0] * (x(1) + x(2) - 1) + x(1) ** 3,
                2 * x(1) + 2 * x(2) - 2,
                "leading coefficient -1 not divisible by 2",
            ),
            (REHIT[0] ** 3 + 1, REHIT[0] ** 2, "remainder term x1^-1 lies below the dividend's floor"),
        ],
        ids=["floor-after-rehit", "constant", "two-frames", "coefficient", "square-divisor"],
    )
    def test_refusal_text(self, dividend, divisor, message):
        want = (NonLaurentResult, message)
        assert _outcome(lambda: dividend.exact_div(divisor)) == want
        assert _outcome(lambda: _scan_div(dividend, divisor)) == want


def _unit(m, sign):
    return LaurentPoly.from_monomial(m, sign)


class TestCanonicalForm:
    """One polynomial, one frame and one set of keys, whatever built it."""

    @pytest.mark.parametrize(
        "draw_poly, draw_mono",
        [(polys(ORDER_POOL), monomials(ORDER_POOL)), (wide_polys(3), monomials(WIDE_POOL))],
        ids=["order-pool", "wide-pool"],
    )
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_routes_agree(self, draw_poly, draw_mono, data):
        p, q, r = (data.draw(draw_poly) for _ in range(3))
        unit = _unit(data.draw(draw_mono), data.draw(st.sampled_from([1, -1])))
        direct = LaurentPoly(list(r.terms()))
        routes = [p * q - p * q + r, unit * unit.inverse() * r, r + unit - unit]
        if not q.is_zero():
            routes.append((r * q).exact_div(q))
        for got in routes:
            assert got == direct and hash(got) == hash(direct)
            assert got.support() == tuple(sorted({v for m, _ in got.terms() for v in m.variables()}))
        assert unit * unit.inverse() == 1 and hash(unit * unit.inverse()) == hash(1)
        value = direct.constant_value()
        if value is not None:
            assert hash(direct) == hash(value)

    def test_cancelled_variable_leaves_the_frame(self):
        assert (x(1) * y(1) + 1 - x(1) * y(1)).support() == ()
        assert ((x(1) + y(1)) * x(2)).exact_div(x(2)).support() == (xid(1), yid(1))
        assert (x(1) * t(2) ** 2 * x(1).inverse()).support() == (tid(2),)


class TestFieldEdge:
    """Exponents up to ``_LIMIT`` are held; one step past it is refused by a
    typed error, never wrapped into another monomial."""

    @pytest.mark.parametrize("sign", [1, -1])
    def test_largest_exponent(self, sign):
        edge = x(1) ** (sign * _LIMIT)
        assert edge == _unit(Monomial({xid(1): sign * _LIMIT}), 1)
        assert str(edge) == f"x1^{sign * _LIMIT}"
        assert x(1) ** (sign * (_LIMIT - 1)) * x(1) ** sign == edge
        assert str(edge * y(1) * edge.inverse()) == "y1"
        past = [
            lambda: x(1) ** (sign * (_LIMIT + 1)),
            lambda: edge * x(1) ** sign,
            lambda: edge * (x(1) ** sign + y(1)),
            lambda: edge.exact_div(x(1) ** -sign),
            lambda: _unit(Monomial({xid(1): sign * (_LIMIT + 1)}), 1),
        ]
        for step in past:
            with pytest.raises(InvalidArgument):
                step()

    def test_division_checks_its_bound(self):
        # M = 2n(a + d) with n = 1, d = 1: the largest a it accepts.
        a = _LIMIT // 2 - 1
        assert (x(1) ** a).exact_div(x(1)) == x(1) ** (a - 1)
        with pytest.raises(InvalidArgument):
            (x(1) ** (a + 1)).exact_div(x(1))


TEXT_POOL = [VarId(f, i) for f in Family for i in (1, 2, 10)]


@st.composite
def text_polys(draw):
    """Polynomials over up to 12 variables of all six families, with
    exponents up to ±_LIMIT and coefficients ±1 or large."""
    frame = draw(st.lists(st.sampled_from(TEXT_POOL), max_size=12, unique=True))
    exps = st.one_of(st.integers(-3, 3), st.sampled_from([-_LIMIT, -_LIMIT + 1, _LIMIT]))
    coeffs = st.one_of(st.sampled_from([1, -1]), st.integers(-(10**30), 10**30))
    terms = []
    for _ in range(draw(st.integers(0, 5))):
        es = draw(st.lists(exps, min_size=len(frame), max_size=len(frame)))
        terms.append((Monomial(dict(zip(frame, es))), draw(coeffs)))
    return LaurentPoly(terms)


def _text_by_terms(p):
    """The canonical text written from ``canonical_terms`` and
    ``Monomial.text``."""
    pieces = []
    for i, (m, c) in enumerate(p.canonical_terms()):
        mag = abs(c)
        body = str(mag) if m.is_one() else m.text() if mag == 1 else f"{mag}*{m.text()}"
        if i == 0:
            pieces.append(body if c > 0 else "-" + body)
        else:
            pieces.append((" + " if c > 0 else " - ") + body)
    return "".join(pieces) or "0"


class TestSerialization:
    def test_canonical_text(self):
        assert str(t(2) * t(1) - q(2)) == "t2*t1 - q2"
        assert str(LaurentPoly.zero()) == "0"
        assert str(LaurentPoly.constant(-3)) == "-3"
        assert str(2 * x(1) ** 2 - x(2).inverse()) == "2*x1^2 - x2^-1"
        assert str(z() ** 3 - 3 * z()) == "z1^3 - 3*z1"

    def test_term_order_is_degree_then_lex(self):
        p = x(2) ** 2 + x(1) ** 2 + x(1)
        assert str(p) == "x1^2 + x2^2 + x1"

    def test_text_is_stable(self):
        p = (x(1) + y(2) * x(2).inverse()) ** 3
        assert str(p) == str((x(1) + y(2) * x(2).inverse()) ** 3)

    def test_json_shape(self):
        p = 2 * x(1) * y(1) - t(2).inverse()
        obj = p.to_json_obj()
        assert obj == [
            {"exponents": {"x1": 1, "y1": 1}, "coeff": "2"},
            {"exponents": {"t2": -1}, "coeff": "-1"},
        ]
        json.dumps(obj)  # serializable

    @given(
        a=monomials(ORDER_POOL),
        b=monomials(ORDER_POOL),
        c=monomials(ORDER_POOL),
        extra=st.lists(st.sampled_from(EXTRA_POOL), max_size=4),
    )
    def test_term_key_is_the_dense_order(self, a, b, c, extra):
        ms = [a, b, c]
        frame = sorted({v for m in ms for v in m.variables()})
        want = _dense_cmp(a, b)
        ka, kb = _key_of(a, frame), _key_of(b, frame)
        assert (ka > kb) - (ka < kb) == want
        assert sorted(ms, key=lambda m: _key_of(m, frame)) == sorted(ms, key=_DENSE_KEY)
        assert next(_decode([ka], len(frame))) == (a.degree, _dense(a, frame))
        if want < 0:  # compatible with multiplication, which adds keys
            kc = _key_of(c, frame)
            assert _key_of(a.mul(c), frame) == ka + kc
            assert _key_of(a.mul(c), frame) < _key_of(b.mul(c), frame)
            assert next(_decode([ka + kc], len(frame)))[1] == _dense(a.mul(c), frame)
        # Variables that no monomial carries do not change the order.
        wide = sorted(set(frame) | set(extra))
        wa, wb = _key_of(a, wide), _key_of(b, wide)
        assert (wa > wb) - (wa < wb) == want
        # A polynomial stores the key over its own support.
        p = LaurentPoly.from_monomial(a, 3)
        assert p.support() == a.variables() and p._terms == {_key_of(a, a.variables()): 3}

    def test_var_ordering(self):
        assert VarId(Family.X, 2) < VarId(Family.Y, 1)
        assert VarId(Family.Q, 3) < VarId(Family.T, 1)
        assert sorted([tid(2), qid(1), xid(5)]) == [xid(5), qid(1), tid(2)]
        assert repr(tid(2)) == "VarId(t2)" and tid(2).name == "t2"

    def test_var_id_is_its_pair(self):
        # Equality, hash, ordering and pickling are those of the tuple
        # (family, index), and an instance carries no __dict__.
        v = VarId(Family.Q, 3)
        assert VarId._fields == ("family", "index") and (v.family, v.index) == (Family.Q, 3)
        assert v == (Family.Q, 3) and hash(v) == hash((Family.Q, 3))
        pool = [VarId(f, i) for f in reversed(Family) for i in (10, 2, 1)]
        assert sorted(pool) == sorted(pool, key=tuple)
        assert not hasattr(v, "__dict__")
        back = pickle.loads(pickle.dumps(v))
        assert type(back) is VarId and back == v and repr(back) == "VarId(q3)"

    @given(p=text_polys())
    @example(p=LaurentPoly.zero())
    @example(p=LaurentPoly.constant(-7))
    @example(p=LaurentPoly.constant(10**40))
    @example(p=-(x(1) ** 2) + 3 * y(1) - 1)
    @example(p=x(1) ** -_LIMIT - z(2) ** _LIMIT * u(3) + 1)
    def test_text_is_the_canonical_terms_formatted(self, p):
        want = _text_by_terms(p)
        assert p.to_text() == str(p) == want
        assert repr(p) == f"LaurentPoly({want})"


class TestHash:
    @pytest.mark.parametrize("c", [0, 3, -1, -2, 2**70])
    def test_constant_hashes_as_its_int(self, c):
        p = LaurentPoly.constant(c)
        assert p == c and hash(p) == hash(c)
        assert c in {p} and p in {c}

    def test_bool_coefficients_are_stored_as_ints(self):
        made = [
            LaurentPoly.constant(True),
            LaurentPoly.constant(True) * 1,
            LaurentPoly.from_monomial(Monomial({xid(1): 1}), True),
        ]
        for p in made:
            assert [type(c) for _, c in p.terms()] == [int]
        assert _outcome(lambda: made[0].exact_div(3)) == (
            NonLaurentResult, "leading coefficient 1 not divisible by 3"
        )

    def test_equal_polys_hash_equal(self):
        assert hash(x(1) + 1) == hash(1 + x(1))
        assert hash(LaurentPoly.zero()) == hash(0) == hash(x(1) - x(1))


class TestPow:
    def test_negative_power_of_unit(self):
        m = x(1) * x(2).inverse()
        assert m ** -2 == x(1).inverse() ** 2 * x(2) ** 2

    def test_negative_power_of_sum_raises(self):
        with pytest.raises(NonInvertibleImage):
            (x(1) + 1) ** -1

    def test_u_family_round_trip(self):
        p = u(1) * u(2) + 1
        assert p.min_family_exponent(Family.U) == 0
        assert (u(1).inverse()).min_family_exponent(Family.U) == -1

    def test_squaring_starts_from_the_base(self, monkeypatch):
        f = x(1) + x(2)
        want = [LaurentPoly.constant(1), f]
        for _ in range(4):
            want.append(want[-1] * f)
        calls = []
        mul = LaurentPoly.__mul__

        def counted(a, b):
            calls.append(1)
            return mul(a, b)

        monkeypatch.setattr(LaurentPoly, "__mul__", counted)
        made = []
        for n in range(5):
            calls.clear()
            assert f ** n == want[n]
            made.append(len(calls))
        assert made == [0, 0, 1, 2, 2]



# -- term maps against a reference on terms() and Monomial ----------------

MAP_POOL = [xid(1), xid(2), yid(1), yid(2), tid(1), qid(1)]


def _from_terms(acc):
    """The reference's result: the nonzero terms, through the constructor,
    which refuses an exponent past ``_LIMIT``."""
    return LaurentPoly([(m, c) for m, c in acc.items() if c])


def _ref_product(a, b):
    acc = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            k = m1.mul(m2)
            acc[k] = acc.get(k, 0) + c1 * c2
    return acc


def _ref_power(img, e):
    """img ** e as a Monomial -> coefficient map; a negative e needs a unit."""
    terms = dict(img.terms())
    if e < 0:
        if len(terms) != 1 or set(terms.values()) - {1, -1}:
            raise NonInvertibleImage("not a unit")
        terms, e = {m.inverse(): c for m, c in terms.items()}, -e
    if len(terms) == 1:  # one term powers exponentwise
        ((m, c),) = terms.items()
        return {Monomial({v: e * m.exponent(v) for v in m.variables()}): c**e}
    acc = {Monomial(): 1}
    for _ in range(e):
        acc = _ref_product(acc, terms)
    return acc


def _ref_substitute(p, sigma):
    images = {v: LaurentPoly._coerce(img) for v, img in sigma.items()}
    acc = {}
    for m, c in p.terms():
        part = {Monomial({v: m.exponent(v) for v in m.variables() if v not in images}): c}
        for power in [_ref_power(images[v], m.exponent(v)) for v in m.variables() if v in images]:
            part = _ref_product(part, power)
        for k, c1 in part.items():
            acc[k] = acc.get(k, 0) + c1
    return _from_terms(acc)


def _ref_derivative(p, v):
    acc = {}
    for m, c in p.terms():
        if e := m.exponent(v):
            k = m.mul(Monomial({v: -1}))
            acc[k] = acc.get(k, 0) + c * e
    return _from_terms(acc)


def _ref_project(p, family, target=None):
    """specialize_ones(family), or graded_coefficient(target, family)."""
    acc = {}
    for m, c in p.terms():
        grade = {v.index: m.exponent(v) for v in m.variables() if v.family == family}
        if target is not None and (
            any(not 1 <= i <= len(target) for i in grade)
            or any(grade.get(i, 0) != e for i, e in enumerate(target, 1))
        ):
            continue
        k = Monomial({v: m.exponent(v) for v in m.variables() if v.family != family})
        acc[k] = acc.get(k, 0) + c
    return _from_terms(acc)


def _agree(got, want):
    """Both refuse with one error type, or both give polynomials that are
    equal, hash-equal and over the same frame, the variables of the terms."""
    try:
        want = want()
    except (InvalidArgument, NonInvertibleImage) as exc:
        with pytest.raises(type(exc)):
            got()
        return type(exc)
    got = got()
    assert got == want and hash(got) == hash(want)
    assert got.support() == want.support()
    assert got.support() == tuple(sorted({v for m, _ in got.terms() for v in m.variables()}))
    return got


@st.composite
def images(draw):
    """Substitution images: polynomials, units (which can cancel a variable
    out of the frame), constants and zero."""
    kind = draw(st.sampled_from(["poly", "unit", "constant"]))
    if kind == "poly":
        return draw(polys(MAP_POOL + [uid(1)]))
    if kind == "unit":
        return _unit(draw(monomials(MAP_POOL)), draw(st.sampled_from([1, -1])))
    return draw(st.integers(-2, 2))


_EDGE = 1 << 29  # (x^_EDGE)^2 is one past _LIMIT = 2 * _EDGE - 1
REFERENCE = {
    "substitute": _ref_substitute,
    "partial_derivative": _ref_derivative,
    "specialize_ones": _ref_project,
    "graded_coefficient": lambda p, e: _ref_project(p, Family.Y, e),
}
EDGE_CASES = {  # id: (polynomial, method, argument, outcome)
    "power-at-limit": (x(1) ** (_EDGE - 1), "substitute", {xid(1): y(1) ** 2}, None),
    "power-past-limit": (x(1) ** _EDGE, "substitute", {xid(1): y(1) ** 2}, InvalidArgument),
    "kept-at-limit": (x(1) * y(1) ** _LIMIT, "substitute", {xid(1): y(1).inverse() + t(1)}, None),
    "kept-past-limit": (x(1) * y(1) ** _LIMIT, "substitute", {xid(1): y(1)}, InvalidArgument),
    "kept-at-minus-limit": (
        x(1).inverse() * y(1) ** -_LIMIT, "substitute", {xid(1): y(1).inverse()}, None
    ),
    "kept-past-minus-limit": (
        x(1).inverse() * y(1) ** -_LIMIT, "substitute", {xid(1): -y(1)}, InvalidArgument
    ),
    "unit-constant": (x(1).inverse() + y(1), "substitute", {xid(1): -1}, None),
    "non-unit-constant": (x(1).inverse() + y(1), "substitute", {xid(1): 2}, NonInvertibleImage),
    "zero-inverted": (x(1).inverse() + y(1), "substitute", {xid(1): 0}, NonInvertibleImage),
    "sum-inverted": (x(1) ** -2, "substitute", {xid(1): 1 + y(1)}, NonInvertibleImage),
    "derivative-at-limit": (x(1) ** _LIMIT, "partial_derivative", xid(1), None),
    "derivative-to-minus-limit": (
        x(1) ** -(_LIMIT - 1) + y(1), "partial_derivative", xid(1), None
    ),
    "derivative-past-minus-limit": (
        x(1) ** -_LIMIT + y(1), "partial_derivative", xid(1), InvalidArgument
    ),
    "specialize-at-limit": (
        x(1) ** _LIMIT * y(1) ** -_LIMIT, "specialize_ones", Family.Y, None
    ),
    "graded-at-limit": (
        x(1) ** _LIMIT * y(1) ** -_LIMIT + x(2), "graded_coefficient", (-_LIMIT,), None
    ),
    # a grade past the field that would carry into y1's field if compared
    "graded-past-limit": (y(1) * y(2), "graded_coefficient", (0, (1 << _BITS) + 1), None),
}


class TestTermMapsMatchTerms:
    """``substitute``, ``partial_derivative``, ``specialize_ones`` and
    ``graded_coefficient`` re-key packed terms in one pass; each agrees
    with the same map computed monomial by monomial over ``terms()``."""

    @given(p=polys(MAP_POOL), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_substitute(self, p, data):
        moved = data.draw(st.lists(st.sampled_from(MAP_POOL + [uid(1)]), unique=True, max_size=4))
        sigma = {v: data.draw(images()) for v in moved}
        _agree(lambda: p.substitute(sigma), lambda: _ref_substitute(p, sigma))

    @given(p=polys(MAP_POOL), v=st.sampled_from(MAP_POOL + [uid(1)]))
    @settings(max_examples=100, deadline=None)
    def test_partial_derivative(self, p, v):
        _agree(lambda: p.partial_derivative(v), lambda: _ref_derivative(p, v))

    @given(p=polys(MAP_POOL), family=st.sampled_from(list(Family)), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_projections(self, p, family, data):
        _agree(lambda: p.specialize_ones(family), lambda: _ref_project(p, family))
        target = tuple(data.draw(st.lists(st.integers(-3, 3), max_size=3)))
        _agree(
            lambda: p.graded_coefficient(target, family), lambda: _ref_project(p, family, target)
        )

    def test_cancelled_variable_leaves_the_frame(self):
        got = (x(1) * y(1) + t(1)).substitute({xid(1): y(1).inverse()})
        assert got == 1 + t(1) and got.support() == (tid(1),)
        assert (x(1) * y(1)).partial_derivative(xid(1)).support() == (yid(1),)
        assert (x(1) * y(1) - x(1) * y(2)).specialize_ones(Family.Y) == 0

    @pytest.mark.parametrize("case", list(EDGE_CASES))
    def test_field_edge(self, case):
        """Exponents that reach ±_LIMIT are held, one past is refused, and
        an inverted variable needs a unit image."""
        p, method, arg, outcome = EDGE_CASES[case]
        got = _agree(lambda: getattr(p, method)(arg), lambda: REFERENCE[method](p, arg))
        assert got is outcome if outcome else isinstance(got, LaurentPoly)


@st.composite
def renamings(draw):
    """A one-to-one renaming of ORDER_POOL's variables into EXTRA_POOL, some
    of them left out of the map and so kept."""
    kept = draw(st.sets(st.sampled_from(ORDER_POOL)))
    moved = [v for v in ORDER_POOL if v not in kept]
    targets = draw(st.permutations([v for v in EXTRA_POOL if v not in kept]))
    return dict(zip(moved, targets))


class TestRename:
    """``_rename`` equals substituting one variable for each, with the
    bounds of the renamed polynomial, and makes no ``Monomial``."""

    @given(p=polys(ORDER_POOL), mapping=renamings())
    @settings(max_examples=150, deadline=None)
    def test_equals_substitute(self, p, mapping):
        want = p.substitute({v: LaurentPoly.variable(w) for v, w in mapping.items()})
        got = p._rename(mapping)
        assert got == want and hash(got) == hash(want)
        assert (tuple(got._lo), tuple(got._hi)) == (tuple(want._lo), tuple(want._hi))

    def test_order_kept_shares_the_terms(self, monkeypatch):
        p = t(2) * t(1) ** -3 - 4 * q(2) + u(1)
        shift = {qid(2): qid(7), tid(1): tid(6), tid(2): tid(7), uid(1): uid(3)}

        def refuse(*args):
            raise AssertionError("a Monomial was made")

        monkeypatch.setattr(Monomial, "__init__", refuse)
        monkeypatch.setattr(Monomial, "_of", refuse)
        got = p._rename(shift)
        swapped = p._rename({tid(1): tid(2), tid(2): tid(1)})
        monkeypatch.undo()
        assert got._terms is p._terms and (got._lo, got._hi) == (p._lo, p._hi)
        assert got == t(7) * t(6) ** -3 - 4 * q(7) + u(3)
        assert swapped._terms is not p._terms
        assert swapped == t(1) * t(2) ** -3 - 4 * q(2) + u(1)
        assert p._rename({}) is p and LaurentPoly.constant(3)._rename(shift) == 3

    def test_not_one_to_one_on_the_frame_raises(self):
        with pytest.raises(InvalidArgument, match="x1 and x2 both map to x2"):
            (x(1) + x(2))._rename({xid(1): xid(2)})
        with pytest.raises(InvalidArgument, match="not one to one"):
            (x(1) * y(2))._rename({xid(1): zid(1), yid(2): zid(1)})
        # a map that merges variables outside the frame renames the frame
        assert x(1)._rename({xid(1): xid(3), xid(2): xid(3)}) == x(3)
