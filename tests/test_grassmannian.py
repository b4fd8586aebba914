"""Counting tests, anchored by a deliberately naive oracle that enumerates
canonical bases at every vertex and checks every arrow by membership, with
none of the production walk's shortcuts (no pruning, no closed-form sink,
no dual switch)."""

import functools
import itertools
import math
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from clusterchar import grassmannian as gr
from clusterchar.errors import DimOutOfRange, ExcludedPrime, InvalidArgument, NonPolynomialCount
from clusterchar.linalg import _eval_poly, _newton_coefficients, _without_rational_roots
from clusterchar.quiver import (
    IntRep,
    Quiver,
    a21_homogeneous,
    a21_tube,
    affine_a2_quiver,
    catalog_module,
    desk_affine_catalog,
    direct_sum,
    dual_rep,
    homogeneous,
    kronecker_quiver,
    preinjective,
    preprojective,
)


@functools.lru_cache(maxsize=None)
def _all_subspaces(d, k, p):
    """Every k-subspace of F_p^d as a frozenset of all its vectors, one per
    reduced row-echelon basis: k pivot columns, each row 1 at its pivot, 0
    before it and at the other pivots, and any entry elsewhere."""
    out = []
    for pivots in itertools.combinations(range(d), k):
        free = [(i, c) for i, pc in enumerate(pivots) for c in range(pc + 1, d) if c not in pivots]
        for values in itertools.product(range(p), repeat=len(free)):
            rows = [[int(c == pc) for c in range(d)] for pc in pivots]
            for (i, c), x in zip(free, values):
                rows[i][c] = x
            out.append(frozenset(
                tuple(sum(a * row[c] for a, row in zip(coeffs, rows)) % p for c in range(d))
                for coeffs in itertools.product(range(p), repeat=k)
            ))
    return out


def naive_count(rep, e, p):
    quiver = rep.quiver
    pairs = quiver.arrow_indices()
    mats = rep.matrices
    spaces = [list(_all_subspaces(rep.dim[v], e[v], p)) for v in range(len(e))]
    count = 0
    for choice in itertools.product(*spaces):
        ok = True
        for (s, t), mat in zip(pairs, mats):
            for v in choice[s]:
                img = tuple(
                    sum(mat[i][j] * v[j] for j in range(len(v))) % p
                    for i in range(rep.dim[t])
                )
                if img not in choice[t]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            count += 1
    return count


SMALL_REPS = [
    catalog_module(homogeneous(1, 1)),
    catalog_module(homogeneous(2, 0)),
    catalog_module(preprojective(1)),
    catalog_module(preinjective(1)),
    catalog_module(a21_tube(1, 2)),
    catalog_module(a21_tube(2, 3)),
]


# Modules with a 3-dimensional enumerated vertex: over F_5 and F_7 the last
# echelon row's families there are large enough to be counted by solving.
THREE_DIMENSIONAL_REPS = [
    catalog_module(homogeneous(3, 1)),
    catalog_module(preprojective(2)),
    catalog_module(preinjective(2)),
]


class TestAgainstNaiveOracle:
    @pytest.mark.parametrize("rep", SMALL_REPS, ids=lambda r: r.label)
    @pytest.mark.parametrize("p", [2, 3])
    def test_full_box(self, rep, p):
        for e in itertools.product(*[range(d + 1) for d in rep.dim]):
            assert gr.count_subreps(rep, e, p) == naive_count(rep, e, p), (e, p)

    @pytest.mark.parametrize("rep", THREE_DIMENSIONAL_REPS, ids=lambda r: r.label)
    @pytest.mark.parametrize("p", [5, 7])
    def test_full_box_with_a_three_dimensional_vertex(self, rep, p):
        self.test_full_box(rep, p)

    def test_oracle_lists_each_subspace_once(self):
        for d, k, p in ((3, 1, 5), (3, 2, 7), (4, 2, 3), (2, 2, 2), (3, 0, 5)):
            spaces = _all_subspaces(d, k, p)
            assert len(set(spaces)) == len(spaces) == gr.gaussian_binomial(d, k, p)
            assert all(len(space) == p**k for space in spaces)


def assert_box_matches_oracle(rep, p):
    """The walk itself (no dual switch) against the oracle on every e."""
    box = gr._count_side(rep, p)[1]
    for e in itertools.product(*[range(d + 1) for d in rep.dim]):
        assert box.get(e, 0) == naive_count(rep, e, p), (rep.label, e, p)


@pytest.fixture
def solved(monkeypatch):
    """The families the walk counts by solving affine systems, recorded as
    (number of free entries, q) pairs."""
    calls = []
    solve = gr._rank_by_solving

    def spy(groups, base, gens, field, plan, q):
        calls.append((len(gens), q))
        return solve(groups, base, gens, field, plan, q)

    monkeypatch.setattr(gr, "_rank_by_solving", spy)
    return calls


# The vertex before the sink has one arrow into it (counted in closed form),
# none (closed form, zero arrow) or a double arrow (enumerated), or it is the
# only other vertex (A2: nothing enumerated; Kronecker and three arrows:
# enumerated, each image group with 2 or 3 images).  On the diamond, an
# enumerated vertex with an incoming span feeds both the closed-form vertex and
# the sink.
WALK_QUIVERS = {
    "affineA2": (affine_a2_quiver(), ((0,), 1, 2)),
    "diamond": (
        Quiver(("1", "2", "3", "4"), (("1", "2"), ("1", "3"), ("2", "3"), ("2", "4"), ("3", "4"))),
        ((0, 1), 2, 3),
    ),
    "no-arrow": (Quiver(("1", "2", "3"), (("1", "2"), ("1", "3"))), ((0,), 1, 2)),
    "double-arrow": (
        Quiver(("1", "2", "3"), (("1", "2"), ("2", "3"), ("2", "3"))),
        ((0, 1), None, 2),
    ),
    "A2": (Quiver(("1", "2"), (("1", "2"),)), ((), 0, 1)),
    "kronecker": (kronecker_quiver(), ((0,), None, 1)),
    "triple-arrow": (Quiver(("1", "2"), (("1", "2"),) * 3), ((0,), None, 1)),
}


@st.composite
def explicit_modules(draw, quiver):
    dim = tuple(draw(st.integers(0, 2)) for _ in quiver.vertices)
    mats = tuple(
        tuple(tuple(draw(st.integers(-2, 2)) for _ in range(dim[s])) for _ in range(dim[t]))
        for s, t in quiver.arrow_indices()
    )
    return IntRep(quiver, dim, mats)


def _end_complex(rep):
    """The matrix of (phi_v) -> (M_a phi_s - phi_t M_a), one row per entry
    of each Hom(M_s, M_t) over the arrows a: s -> t; its kernel is End(M)."""
    unknowns = [(v, i, j) for v, d in enumerate(rep.dim) for i in range(d) for j in range(d)]
    rows = []
    for (s, t), m in zip(rep.quiver.arrow_indices(), rep.matrices):
        for r, c in itertools.product(range(rep.dim[t]), range(rep.dim[s])):
            row = dict.fromkeys(unknowns, 0)
            for k in range(rep.dim[s]):
                row[s, k, c] += m[r][k]
            for k in range(rep.dim[t]):
                row[t, r, k] -= m[k][c]
            rows.append([row[u] for u in unknowns])
    return rows


def _rank(rows, p=None):
    """Rank by Gauss-Jordan elimination over F_p, or over Q if p is None."""
    rows = [[Fraction(v) if p is None else v % p for v in row] for row in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][c] if p is None else pow(rows[rank][c], -1, p)
        for r in range(len(rows)):
            if r != rank and rows[r][c]:
                f = rows[r][c] * inv
                rows[r] = [x - f * y if p is None else (x - f * y) % p
                           for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("name", sorted(WALK_QUIVERS))
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_end_keeps_its_dimension_at_admitted_primes(name, data):
    """Both ways: a prime is excluded exactly when the End complex, an arrow
    matrix or a composition along a path loses rank mod p; for a pencil
    with only rational points plus a semisimple module (_kronecker_pair),
    exactly when the type of its canonical form changes mod p."""
    rep = data.draw(explicit_modules(WALK_QUIVERS[name][0]))
    pair = _kronecker_pair(rep)
    over_q = pair and _rational_type(*pair)
    if over_q:
        for p in (2, 3, 5, 7):
            mod_p = _pencil_type(*pair, [(x, 1) for x in range(p)] + [(1, 0)], p)
            assert (p in rep.excluded_primes()) == (mod_p != over_q), p
        return
    mats = [_end_complex(rep), *_path_compositions(rep)]
    over_q = [_rank(m) for m in mats]
    for p in (2, 3, 5, 7):
        drops = any(_rank(m, p) < r for m, r in zip(mats, over_q))
        assert (p in rep.excluded_primes()) == drops, p


def _kronecker_pair(rep):
    """The arrow matrices A and B of a module whose nonzero arrows all run
    s -> t, along the only two arrows from s to t, with dim s = dim t; such
    a module is a Kronecker module plus a semisimple one.  Else None."""
    pairs = rep.quiver.arrow_indices()
    nonzero = {arrow for arrow, m in zip(pairs, rep.matrices) if any(x for row in m for x in row)}
    if len(nonzero) == 1:
        (s, t), = nonzero
        mats = [m for arrow, m in zip(pairs, rep.matrices) if arrow == (s, t)]
        if len(mats) == 2 and rep.dim[s] == rep.dim[t]:
            return tuple(mats)
    return None


def _pencil_type(a, b, points, p=None):
    """The type of the pencil mu*B - lambda*A over F_p (over Q if p is None)
    at the given points: for each point where mu*B - lambda*A is singular,
    the kernel dimensions of the block matrices with it down the diagonal
    and A (or B at mu = 0) below, k = 1..n, which give the Jordan partition
    there; sorted, so that two pencils of one type give one list."""
    n = len(a)
    out = []
    for lam, mu in points:
        diag = [[mu * y - lam * x for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
        below = a if (mu if p is None else mu % p) else b
        kernels = []
        for k in range(1, n + 1):
            rows = [
                [0] * ((i - 1) * n) + list(below[r]) + list(diag[r]) + [0] * ((k - i - 1) * n)
                if i else list(diag[r]) + [0] * ((k - 1) * n)
                for i in range(k) for r in range(n)
            ]
            kernels.append(k * n - _rank(rows, p))
        if kernels[0]:
            out.append(tuple(kernels))
    return sorted(out)


def _rational_type(a, b):
    """The pencil's type over Q when its form is not 0 and every point is
    rational (the algebraic multiplicities, the last kernel dimensions, of
    its rational points sum to n), else None.  The points are searched
    among (r : s) with |r|, |s| <= 16, which holds every root of a form of
    a 2 x 2 pencil with entries in -2..2 (coefficients at most 16 in size)."""
    points = [(r, s) for s in range(17) for r in range(-16, 17) if math.gcd(r, s) == 1 and (s or r == 1)]
    found = _pencil_type(a, b, points)
    return found if sum(kernels[-1] for kernels in found) == len(a) else None


def _path_compositions(rep):
    """The composition along every path of one or more arrows."""
    pairs = rep.quiver.arrow_indices()
    paths = [(t, m) for (_, t), m in zip(pairs, rep.matrices)]
    for end, mat in paths:  # grows while it is read; the quiver has no cycle
        paths.extend((t, _matmul(m, mat)) for (s, t), m in zip(pairs, rep.matrices) if s == end)
    return [mat for _, mat in paths]


def _matmul(a, b):
    """The product ab of matrices given as row tuples, a being rows x n and
    b being n x cols; a product with no rows is ()."""
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


@st.composite
def unimodular(draw, d):
    """An integer d x d matrix of determinant +-1 and its integer inverse,
    a product of elementary row additions and sign changes."""
    g = [[int(i == j) for j in range(d)] for i in range(d)]
    g_inv = [row[:] for row in g]
    for _ in range(draw(st.integers(0, 4)) if d > 1 else 0):
        i, j = draw(st.permutations(range(d)))[:2]
        c = draw(st.integers(-3, 3))
        g[i] = [a + c * b for a, b in zip(g[i], g[j])]  # row_i += c row_j, so the
        for row in g_inv:  # inverse gains column_j -= c column_i
            row[j] -= c * row[i]
    for i in range(d):
        if draw(st.booleans()):
            g[i] = [-a for a in g[i]]
            for row in g_inv:
                row[i] = -row[i]
    return tuple(map(tuple, g)), tuple(map(tuple, g_inv))


class TestClosedFormVertex:
    @pytest.mark.parametrize("name", sorted(WALK_QUIVERS))
    def test_walk_plan(self, name):
        quiver, plan = WALK_QUIVERS[name]
        assert gr._walk_plan(quiver) == plan

    @pytest.mark.parametrize(
        "fam",
        [a21_homogeneous(2, 0), a21_homogeneous(2, 1), a21_tube(1, 4), a21_tube(2, 4)],
        ids=lambda f: f.describe(),
    )
    @pytest.mark.parametrize("p", [2, 3])
    def test_affine_modules(self, fam, p):
        rep = catalog_module(fam)
        assert_box_matches_oracle(rep, p)
        assert_box_matches_oracle(dual_rep(rep), p)

    @pytest.mark.parametrize(
        "rep", [catalog_module(homogeneous(3, 1)), catalog_module(a21_tube(1, 5))], ids=lambda r: r.label
    )
    @pytest.mark.parametrize("p", [5, 7])
    def test_three_dimensional_vertex(self, rep, p, solved):
        assert_box_matches_oracle(rep, p)
        assert_box_matches_oracle(dual_rep(rep), p)
        # A family with r free entries is solved when it has fewer systems
        # than p^r: p + 3 on the Kronecker quiver, 4(p + 3) on affineA2, and
        # r is at most 2 at a 3-dimensional vertex.
        assert {r for r, _ in solved} == ({2} if len(rep.dim) == 2 or p == 7 else set())

    def test_three_arrows_into_the_sink(self, solved):
        # one group of three images: its relation spaces are the subspaces of F_q^3
        rep = IntRep(
            WALK_QUIVERS["triple-arrow"][0],
            (4, 2),
            (((1, 0, 2, 0), (0, 1, 0, 1)), ((0, 1, 1, 0), (1, 0, 0, 2)), ((1, 1, 0, 0), (0, 0, 1, 1))),
        )
        assert_box_matches_oracle(rep, 5)
        assert (3, 5) in solved

    @pytest.mark.parametrize("name", sorted(WALK_QUIVERS))
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_explicit_modules(self, name, data):
        rep = data.draw(explicit_modules(WALK_QUIVERS[name][0]))
        for p in (2, 3):
            assert_box_matches_oracle(rep, p)
            assert_box_matches_oracle(dual_rep(rep), p)

    @pytest.mark.parametrize("name", sorted(WALK_QUIVERS))
    @pytest.mark.parametrize("p", [2, 3, 4, 8, 9])
    def test_zero_module_walks_every_leaf(self, name, p):
        # with all matrices zero no incoming span prunes anything, and every
        # tuple of subspaces is a subrepresentation
        quiver = WALK_QUIVERS[name][0]
        n = len(quiver.vertices)
        for dim in ((2,) * n, (3, 1, 2, 1)[:n], (2, 3, 2, 1)[:n]):
            mats = tuple(
                tuple((0,) * dim[s] for _ in range(dim[t])) for s, t in quiver.arrow_indices()
            )
            rep = IntRep(quiver, dim, mats)
            assert sum(gr._walk(rep, p).values()) == gr._walk_cost(rep, p), dim
            for e in itertools.product(*[range(d + 1) for d in dim]):
                grassmannians = [gr.gaussian_binomial(d, k, p) for d, k in zip(dim, e)]
                assert gr.count_subreps(rep, e, p) == math.prod(grassmannians), (dim, e)

    @pytest.mark.parametrize("name", sorted(WALK_QUIVERS))
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_tallies_are_isomorphism_invariants(self, name, data):
        rep = data.draw(explicit_modules(WALK_QUIVERS[name][0]))
        v = data.draw(st.integers(0, len(rep.dim) - 1))
        d = rep.dim[v]
        g, g_inv = data.draw(unimodular(d))
        assert _matmul(g, g_inv) == tuple(tuple(int(i == j) for j in range(d)) for i in range(d))
        mats = tuple(
            _matmul(g, m) if t == v else _matmul(m, g_inv) if s == v else m
            for (s, t), m in zip(rep.quiver.arrow_indices(), rep.matrices)
        )
        conjugate = IntRep(rep.quiver, rep.dim, mats)
        for p in (2, 3):
            assert gr._walk(conjugate, p) == gr._walk(rep, p), (v, g)

    def test_walk_cost_counts_enumerated_vertices_at_the_walk_prime(self):
        rep = catalog_module(a21_homogeneous(2, 1))
        assert gr._walk_cost(rep, 3) == 1 + 4 + 1
        assert gr._walk_cost(rep, 5) == 1 + 6 + 1
        assert gr._walk_cost(catalog_module(preinjective(1)), 2) == 1 + 1


def _spectrum_ok(rep):
    try:
        gr._check_spectrum(rep)
    except NonPolynomialCount:
        return False
    return True


# An affineA2 module whose counting polynomials exist for every e while the
# stratum ((1, 0, 0), 0, 1, 1) has no polynomial tally.
NON_POLYNOMIAL_STRATUM = IntRep(
    affine_a2_quiver(), (2, 1, 2), (((-1, -1),), ((1,), (2,)), ((-1, -2), (1, 1)))
)


class TestStratifiedInterpolation:
    @pytest.mark.parametrize("name", sorted(WALK_QUIVERS))
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_matches_per_e_path(self, name, data):
        rep = data.draw(explicit_modules(WALK_QUIVERS[name][0]))
        assume(_spectrum_ok(rep))
        for e in itertools.product(*[range(d + 1) for d in rep.dim]):
            try:
                old = gr._per_e_profile(rep, e)
            except NonPolynomialCount:
                continue
            new = gr.profile(rep, e)
            assert (new.coefficients, new.chi) == (old.coefficients, old.chi), e
            box = gr._box_polynomials(rep)
            if isinstance(box, NonPolynomialCount):
                continue
            assert box.get(e, (0,)) == old.coefficients, e

    def test_catalog_samples_fewer_primes(self):
        rep = catalog_module(homogeneous(3, 1))
        walked, dual, nodes = gr._module_plan(rep)
        assert not dual and gr._walk_degree(walked) == 2 and nodes == (2, 3, 4, 5, 7)
        prof = gr.profile(rep, (1, 2))
        assert [q for q, _ in prof.samples] == [2, 3, 4, 5, 7]
        assert prof.coefficients == gr._per_e_profile(rep, (1, 2)).coefficients

    def test_walks_the_side_of_smaller_degree(self):
        walked, dual, _ = gr._module_plan(catalog_module(preprojective(4)))  # dim (5, 4)
        assert dual and gr._walk_degree(walked) == 4

    def test_non_polynomial_stratum_falls_back(self):
        rep = NON_POLYNOMIAL_STRATUM
        stratum = re.escape("held-out primes [4, 5] disagree for stratum ((1, 0, 0), 0, 1, 1)")
        error = gr._box_polynomials(rep)
        assert isinstance(error, NonPolynomialCount)
        assert re.search(stratum, str(error))
        for e, prof in gr.box_profiles(rep).items():
            assert prof == gr._per_e_profile(rep, e)
            ambient = sum(k * (d - k) for k, d in zip(e, rep.dim))
            assert len(prof.samples) == ambient + 3

    def test_fallback_is_decided_once_per_module(self, monkeypatch):
        rep = NON_POLYNOMIAL_STRATUM
        calls = {"primes": 0, "strata": 0}
        nodes, interpolate = gr._nodes, gr._interpolate

        def count_primes(*args):
            calls["primes"] += 1
            return nodes(*args)

        def count_strata(points, bound, what):
            calls["strata"] += what.startswith("stratum")
            return interpolate(points, bound, what)

        gr._module_plan.cache_clear()
        gr._box_polynomials.cache_clear()
        monkeypatch.setattr(gr, "_nodes", count_primes)
        monkeypatch.setattr(gr, "_interpolate", count_strata)
        gr.box_profiles(rep)
        assert gr._box_polynomials.cache_info().misses == 1
        assert calls == {"primes": 1 + 18, "strata": 2}  # the plan, then each e alone

    def test_module_consumes_its_primes_once(self, monkeypatch):
        rep = catalog_module(a21_tube(1, 3))
        calls = []
        admissible = gr.admissible_nodes

        def count_calls(rep):
            calls.append(rep)
            return admissible(rep)

        gr._module_plan.cache_clear()
        gr._box_polynomials.cache_clear()
        monkeypatch.setattr(gr, "admissible_nodes", count_calls)
        gr.box_profiles(rep)
        assert not isinstance(gr._box_polynomials(rep), NonPolynomialCount)
        assert calls == [rep]

    def test_failing_stratum_interpolation_falls_back(self, monkeypatch):
        rep = catalog_module(a21_tube(1, 3))
        interpolate = gr._interpolate

        def refuse_strata(points, bound, what):
            if what.startswith("stratum"):
                raise NonPolynomialCount(f"refused {what}")
            return interpolate(points, bound, what)

        gr._box_polynomials.cache_clear()
        monkeypatch.setattr(gr, "_interpolate", refuse_strata)
        try:
            for e, prof in gr.box_profiles(rep).items():
                assert prof == gr._per_e_profile(rep, e)
        finally:
            gr._box_polynomials.cache_clear()

    def test_held_out_error_names_every_prime(self):
        points = [(2, 1), (3, 1), (5, 2), (7, 1), (11, 3)]
        message = "held-out primes [5, 11] disagree for e=(1, 1): counts [2, 3] vs interpolant [1, 1]"
        with pytest.raises(NonPolynomialCount, match=re.escape(message)):
            gr._interpolate(points, 1, "e=(1, 1)")

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_q_binomial_matches_gaussian_binomial(self, p):
        # the product formula prod_i (p^(n-i) - 1) / (p^(k-i) - 1) as reference
        for n in range(7):
            for k in range(-1, n + 2):
                want = 0
                if 0 <= k <= n:
                    num = den = 1
                    for i in range(k):
                        num *= p ** (n - i) - 1
                        den *= p ** (k - i) - 1
                    want = num // den
                assert gr.gaussian_binomial(n, k, p) == want, (n, k)


def _kronecker(a, b):
    n = len(a)
    return IntRep(kronecker_quiver(), (n, n), (a, b))


class TestKroneckerSpectrum:
    @pytest.mark.parametrize(
        "a, b, factor",
        [
            (((1, 0), (0, 1)), ((0, -190), (1, 0)), "lambda^2 + 190*mu^2"),
            (((-1, 2), (0, -3)), ((-2, 1), (1, -1)), "3*lambda^2 - 5*lambda*mu + mu^2"),
        ],
    )
    def test_irrational_point_is_refused(self, a, b, factor):
        rep = _kronecker(a, b)
        with pytest.raises(NonPolynomialCount, match=re.escape(factor)):
            gr.profile(rep, (1, 1))
        with pytest.raises(NonPolynomialCount):
            gr.profile(rep, (0, 0))

    def test_counts_are_not_polynomial_there(self):
        # lambda^2 + 190 has two roots mod p exactly when -190 is a square:
        # not mod any admissible prime below 29, so every small sample is 0
        rep = _kronecker(((1, 0), (0, 1)), ((0, -190), (1, 0)))
        counts = {p: gr.count_subreps(rep, (1, 1), p) for p in (3, 23, 29, 31, 43)}
        assert counts == {3: 0, 23: 0, 29: 2, 31: 0, 43: 2}

    def test_kronecker_supported_on_two_vertices_is_refused(self):
        quiver = WALK_QUIVERS["double-arrow"][0]
        rep = IntRep(quiver, (0, 2, 2), (((), ()), ((1, 0), (0, 1)), ((0, -2), (1, 0))))
        with pytest.raises(NonPolynomialCount, match=re.escape("lambda^2 + 2*mu^2")):
            gr.profile(rep, (0, 1, 1))

    @pytest.mark.parametrize(
        "b", [((3, 1), (0, 5)), ((1, 2), (0, 1)), ((0, 2), (0, 0)), ((0, 0), (0, 0))]
    )
    def test_rational_points_pass(self, b):
        gr._check_spectrum(_kronecker(((1, 0), (0, 1)), b))

    def test_catalog_passes(self):
        for fam in desk_affine_catalog():
            gr._check_spectrum(catalog_module(fam))

    def test_rational_roots_are_divided_out(self):
        # (t - 1)(2t + 3)(t^2 + 2) t
        poly = (0, -6, 2, 1, 1, 2)
        assert _without_rational_roots(poly) == ((2, 0, 1), [(0, 1, 1), (1, 1, 1), (-3, 2, 1)])
        assert _without_rational_roots((-6, 1, 1)) == ((1,), [(-3, 1, 1), (2, 1, 1)])  # (t + 3)(t - 2)
        assert _without_rational_roots((0, 0)) == ((0,), [])
        assert _without_rational_roots((0, 0, 4, -4, 1)) == ((1,), [(0, 1, 2), (2, 1, 2)])


@st.composite
def rational_pencils(draw):
    """A Kronecker module of dimension (n, n), n <= 3, with only rational
    points: a sum of blocks (mu0 I + d N, lam0 I + c N) of random sizes at
    random points (lam0 : mu0), N the nilpotent shift (one Jordan block
    there unless mu0 c = lam0 d), scaled now and then, and moved by
    unimodular matrices on both sides, which keeps it over every F_p."""
    n = draw(st.integers(1, 3))
    sizes = []
    while sum(sizes) < n:
        sizes.append(draw(st.integers(1, n - sum(sizes))))
    a = [[0] * n for _ in range(n)]
    b = [[0] * n for _ in range(n)]
    at = 0
    for k in sizes:
        lam, mu = draw(st.integers(-6, 6)), draw(st.integers(0, 4))
        lam, mu = (lam // math.gcd(lam, mu), mu // math.gcd(lam, mu)) if mu else (1, 0)
        c, d = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        for i in range(at, at + k):
            a[i][i], b[i][i] = mu, lam
            if i + 1 < at + k:
                a[i][i + 1], b[i][i + 1] = d, c
        at += k
    scale = draw(st.sampled_from((1, 1, 1, 2, 3)))
    g, _ = draw(unimodular(n))
    h, _ = draw(unimodular(n))
    a, b = ([[scale * x for x in row] for row in _matmul(_matmul(g, m), h)] for m in (a, b))
    return _kronecker(tuple(map(tuple, a)), tuple(map(tuple, b)))


def _box(rep):
    return list(itertools.product(*[range(d + 1) for d in rep.dim]))


def _beside(rep, d):
    """The Kronecker module rep on the arrows 2 => 3 of the double-arrow
    quiver, plus S_1^d: the arrow 1 -> 2 is zero."""
    n = rep.dim[0]
    zero = tuple((0,) * d for _ in range(n))
    return IntRep(WALK_QUIVERS["double-arrow"][0], (d, n, n), (zero, *rep.matrices))


def _assert_excluded_exactly_where_counts_leave_the_polynomial(rep):
    polys = {e: gr.counting_polynomial(rep, e) for e in _box(rep)}
    for p in (2, 3, 5, 7, 11, 13):
        counts = gr._count_side(rep, p)[1]  # the walk itself does not refuse p
        off = [e for e, poly in polys.items() if counts.get(e, 0) != _eval_poly(poly, p)]
        assert bool(off) == (p in rep.excluded_primes()), (p, off)


class TestKroneckerTypes:
    """On the Kronecker quiver the counts depend only on the type of the
    canonical form, so a prime is excluded exactly where that type changes."""

    @given(rep=rational_pencils())
    @settings(max_examples=25, deadline=None)
    def test_excluded_exactly_where_counts_leave_the_polynomial(self, rep):
        _assert_excluded_exactly_where_counts_leave_the_polynomial(rep)

    @given(rep=rational_pencils(), semisimple=st.integers(1, 2))
    @settings(max_examples=15, deadline=None)
    def test_beside_a_semisimple_vertex(self, rep, semisimple):
        _assert_excluded_exactly_where_counts_leave_the_polynomial(_beside(rep, semisimple))

    def test_pencil_beside_a_semisimple_vertex_excludes_where_points_meet(self):
        # S_1^2 plus a pencil on 2 => 3 whose roots 0 and 7 of
        # det(B - tA) = -t(t - 7) meet mod 7
        rep = _beside(_kronecker(((-1, -1), (1, 2)), ((-1, 1), (-2, 2))), 2)
        assert rep.excluded_primes() == {7}
        assert gr.counting_polynomial(rep, (0, 1, 1)) == (2,)
        assert gr._count_side(rep, 7)[1][0, 1, 1] == 1

    def test_points_that_meet_as_one_jordan_block(self):
        # the roots 0 and -7 of det(B - tA) = t(t + 7) meet mod 7 as J_2:
        # P = B keeps rank 1 there, while the k = 2 block matrix loses rank
        rep = _kronecker(((1, 1), (1, 2)), ((-1, 1), (2, -2)))
        assert rep.excluded_primes() == {7}
        assert gr.counting_polynomial(rep, (1, 1)) == (2,)
        assert gr._count_side(rep, 7)[1][1, 1] == 1

    def test_homogeneous_counts_do_not_depend_on_the_point(self):
        checked = 0
        for n in (1, 2, 3):
            base = catalog_module(homogeneous(n, 1))
            for point in (2, -2, 4, -4, 3, -3, 9, -9, 6, -6, 12, -12):
                rep = catalog_module(homogeneous(n, point))
                assert rep.excluded_primes() == frozenset()
                for e in _box(rep):
                    poly = gr.counting_polynomial(base, e)
                    for q in (2, 3, 4, 8, 9):
                        assert gr.count_subreps(rep, e, q) == _eval_poly(poly, q), (n, point, e, q)
                        checked += 1
        assert checked == 1740

    def test_four_points_count_alike_whatever_their_cross_ratio(self):
        boxes = []
        for points in ((1, 2, 3, 4), (1, 2, 3, 5), (1, 2, 4, 8)):
            parts = [catalog_module(homogeneous(1, x)) for x in points]
            rep = functools.reduce(direct_sum, parts)
            boxes.append({e: prof.coefficients for e, prof in gr.box_profiles(rep).items()})
        assert len(boxes[0]) == 25 and boxes[0] == boxes[1] == boxes[2]


class TestCountExamples:
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_quasi_simple_counts(self, p):
        rep = catalog_module(homogeneous(1, 1))
        assert gr.count_subreps(rep, (1, 0), p) == 0
        assert gr.count_subreps(rep, (0, 1), p) == 1

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
    def test_jordan_block_line_count(self, p):
        rep = catalog_module(homogeneous(2, 0))
        assert gr.count_subreps(rep, (0, 1), p) == p + 1
        assert gr.count_subreps(rep, (1, 1), p) == 1

    def test_dim_out_of_range(self):
        rep = catalog_module(homogeneous(1, 1))
        with pytest.raises(DimOutOfRange):
            gr.count_subreps(rep, (2, 0), 5)
        with pytest.raises(DimOutOfRange):
            gr.count_subreps(rep, (0,), 5)

    def test_excluded_prime(self):
        rep = catalog_module(a21_homogeneous(1, 6))
        with pytest.raises(ExcludedPrime):
            gr.count_subreps(rep, (1, 1, 1), 3)


class TestCountingPolynomials:
    def test_spec_trio(self):
        quasi = catalog_module(homogeneous(1, 1))
        jordan = catalog_module(homogeneous(2, 0))
        assert gr.counting_polynomial(quasi, (0, 1)) == (1,)
        assert gr.counting_polynomial(jordan, (0, 1)) == (1, 1)
        assert gr.counting_polynomial(jordan, (1, 1)) == (1,)

    def test_chi_values(self):
        jordan = catalog_module(homogeneous(2, 0))
        assert gr.euler_char(jordan, (0, 1)) == 2
        assert gr.euler_char(jordan, (0, 0)) == 1
        assert gr.euler_char(jordan, (2, 2)) == 1

    def test_profile_invariants(self):
        rep = catalog_module(preprojective(1))
        prof = gr.profile(rep, (1, 1))
        for p, c in prof.samples:
            acc = 0
            for coeff in reversed(prof.coefficients):
                acc = acc * p + coeff
            assert acc == c
        assert prof.chi == sum(prof.coefficients)

    def test_profile_checks_e_once_and_counts_at_every_node(self, monkeypatch):
        rep = catalog_module(homogeneous(2, 3))
        passed = []
        count = gr.count_subreps

        def spy(rep, e, q):
            passed.append(type(e))
            return count(rep, e, q)

        monkeypatch.setattr(gr, "count_subreps", spy)
        prof = gr.profile(rep, [1, 1])
        assert passed == [gr._Checked] * len(prof.samples)
        assert type(prof.e) is tuple and prof.e == (1, 1)

    def test_profile_record_semantics(self):
        rep = catalog_module(homogeneous(2, 0))
        prof = gr.profile(rep, (0, 1))
        fields = (prof.rep, prof.e, prof.samples, prof.coefficients, prof.chi)
        by_keyword = gr.CountProfile(
            chi=2, coefficients=(1, 1), samples=prof.samples, e=(0, 1), rep=rep
        )
        assert fields == (rep, (0, 1), prof.samples, (1, 1), 2)
        assert prof == gr.CountProfile(*fields) == by_keyword and hash(prof) == hash(by_keyword)
        assert prof != gr.profile(rep, (1, 1))
        assert repr(prof) == (
            f"CountProfile(rep={rep!r}, e=(0, 1), samples={prof.samples!r}, "
            "coefficients=(1, 1), chi=2)"
        )
        for name in ("rep", "e", "samples", "coefficients", "chi"):
            with pytest.raises(AttributeError):
                setattr(prof, name, None)
        with pytest.raises(NonPolynomialCount, match="chi must be the polynomial value at 1"):
            gr.CountProfile(rep, (0, 1), prof.samples, (1, 1), 3)

    @pytest.mark.parametrize("fam", desk_affine_catalog(), ids=lambda f: f.describe())
    def test_held_out_primes_pass_across_catalog(self, fam):
        rep = catalog_module(fam)
        gr.box_profiles(rep)  # raises NonPolynomialCount on any disagreement

    def test_counts_independent_of_tube_point(self):
        per_e = {}
        for lam in (1, 2, 5):
            rep = catalog_module(homogeneous(2, lam))
            for e, prof in gr.box_profiles(rep).items():
                per_e.setdefault(e, set()).add(prof.coefficients)
        assert all(len(v) == 1 for v in per_e.values())

    def test_rigid_modules_have_nonnegative_chi(self):
        rigids = [preprojective(2), preinjective(2), a21_tube(1, 1), a21_tube(2, 1)]
        for fam in rigids:
            rep = catalog_module(fam)
            for e, prof in gr.box_profiles(rep).items():
                assert prof.chi >= 0, (fam, e)

    def test_gr_zero_and_full_are_points(self):
        for fam in [homogeneous(3, 1), a21_tube(1, 4), preinjective(3)]:
            rep = catalog_module(fam)
            assert gr.euler_char(rep, (0,) * len(rep.dim)) == 1
            assert gr.euler_char(rep, rep.dim) == 1


class TestDuality:
    def test_dual_counts_match_complement(self):
        from clusterchar.quiver import dual_rep

        rep = catalog_module(a21_tube(1, 3))
        dual = dual_rep(rep)
        p = 3
        for e in itertools.product(*[range(d + 1) for d in rep.dim]):
            comp = tuple(d - v for d, v in zip(rep.dim, e))
            assert gr.count_subreps(rep, e, p) == naive_count(dual, comp, p)


class TestPrimeConfiguration:
    @pytest.mark.parametrize(
        "fam", [homogeneous(2, 2), homogeneous(2, 6), a21_homogeneous(2, 3), a21_tube(1, 3)]
    )
    def test_admissible_primes_skip_exclusions(self, fam):
        rep = catalog_module(fam)
        expected = [q for q in FIRST_PRIME_POWERS if _base_prime(q) not in rep.excluded_primes()]
        got = list(itertools.islice(gr.admissible_nodes(rep), len(expected)))
        assert got == expected

    def test_gaussian_binomial(self):
        assert gr.gaussian_binomial(4, 2, 3) == 130
        assert gr.gaussian_binomial(3, 1, 5) == 31
        assert gr.gaussian_binomial(2, 3, 5) == 0
        assert gr.gaussian_binomial(3, 0, 7) == 1


PRIME_POWERS_TO_32 = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32)


class TestFiniteField:
    @pytest.mark.parametrize("q", PRIME_POWERS_TO_32)
    def test_field_axioms(self, q):
        f = gr._field(q)
        add, sub, mul, inv, p = f.add, f.sub, f.mul, f.inv, f.char
        assert q % p == 0 and _base_prime(q) == p
        elems = range(q)
        for a in elems:
            assert add[a][0] == a and mul[a][1] == a and mul[a][0] == 0
            if a:
                assert mul[a][inv[a]] == 1
            for b in elems:
                assert add[a][b] == add[b][a] and mul[a][b] == mul[b][a]
                assert add[sub[a][b]][b] == a
                for c in elems:
                    assert add[add[a][b]][c] == add[a][add[b][c]]
                    assert mul[mul[a][b]][c] == mul[a][mul[b][c]]
                    assert mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]
        for a in range(p):  # 0..p-1 is the prime field
            assert [f.of(a + p * n) for n in (-2, 0, 3)] == [a, a, a]
            for b in range(p):
                assert (add[a][b], mul[a][b]) == ((a + b) % p, a * b % p)
        assert all(sorted(row) == list(elems) for row in mul[1:])  # no zero divisors

    @pytest.mark.parametrize("q, count", [(2, 1), (3, 1), (4, 1), (5, 1), (9, 1)])
    def test_counts_over_prime_powers(self, q, count):
        rep = catalog_module(homogeneous(2, 1))
        assert gr.count_subreps(rep, (1, 1), q) == count

    @pytest.mark.parametrize("q", [0, 1, 6, -4, 12])
    def test_modulus_that_is_not_a_prime_power(self, q):
        rep = catalog_module(homogeneous(2, 1))
        with pytest.raises(InvalidArgument, match=f"q={q} is not a prime power"):
            gr.count_subreps(rep, (1, 1), q)

    def test_field_past_the_table_limit(self):
        rep = catalog_module(homogeneous(1, 1))
        assert gr.count_subreps(rep, (0, 1), gr._FIELD_LIMIT) == 1
        with pytest.raises(InvalidArgument, match="exceeds the largest field order 256"):
            gr.count_subreps(rep, (0, 1), 257)

    def test_excluded_prime_excludes_its_powers(self):
        rep = catalog_module(a21_homogeneous(1, 6))
        assert gr.count_subreps(rep, (0, 0, 1), 25) == 1
        for q in (4, 9, 27):
            with pytest.raises(ExcludedPrime, match=f"prime {_base_prime(q)} is excluded"):
                gr.count_subreps(rep, (1, 1, 1), q)


def _assert_polynomials_hold_at_primes(rep):
    """The counting polynomial of every e, built from the prime-power nodes,
    gives the count at every admissible prime up to 13."""
    primes = [p for p in (2, 3, 5, 7, 11, 13) if p not in rep.excluded_primes()]
    for e in itertools.product(*[range(d + 1) for d in rep.dim]):
        coeffs = gr.counting_polynomial(rep, e)
        for p in primes:
            assert _eval_poly(coeffs, p) == gr.count_subreps(rep, e, p), (rep.label, e, p)


class TestPrimePowerNodes:
    @pytest.mark.parametrize("fam", desk_affine_catalog(), ids=lambda f: f.describe())
    def test_catalog_polynomials_hold_at_primes(self, fam):
        _assert_polynomials_hold_at_primes(catalog_module(fam))

    # Not on three arrows: random modules there often gain a subrepresentation
    # mod a prime that excluded_primes keeps, and count off their polynomial
    # there (ROADMAP item 1).
    @pytest.mark.parametrize("name", sorted(set(WALK_QUIVERS) - {"triple-arrow"}))
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_explicit_polynomials_hold_at_primes(self, name, data):
        rep = data.draw(explicit_modules(WALK_QUIVERS[name][0]))
        assume(_spectrum_ok(rep))
        try:
            _assert_polynomials_hold_at_primes(rep)
        except NonPolynomialCount:
            assume(False)

    def test_a_square_node_sees_the_quadratic_point(self):
        # the two paths 1 -> 3 differ by [[0, -190], [1, 0]], whose points are
        # the roots of lambda^2 + 190; -190 is a square in F_9 but not in F_7
        # or F_11, so the counts at 7, 9, 11 are no polynomial
        rep = IntRep(affine_a2_quiver(), (2, 2, 2), (((1, 0), (0, 1)), ((1, 0), (0, 1)), ((0, -190), (1, 0))))
        assert [gr.count_subreps(rep, (1, 1, 1), q) for q in (7, 9, 11)] == [0, 2, 0]
        message = "e=(1, 1, 1): divided difference over nodes [7, 9, 11] is -2/4, not an integer"
        with pytest.raises(NonPolynomialCount, match=re.escape(message)):
            gr.profile(rep, (1, 1, 1))


class TestDirectSumCounts:
    def test_distinct_points_multiply(self):
        a = catalog_module(homogeneous(1, 1))
        b = catalog_module(homogeneous(1, 3))
        s = direct_sum(a, b)
        # 2 is excluded (divides 3 - 1), so sampling starts at 3
        assert 2 in s.excluded_primes()
        prof = gr.profile(s, (1, 1))
        assert prof.chi == sum(
            gr.euler_char(a, (i, j)) * gr.euler_char(b, (1 - i, 1 - j))
            for i in range(2)
            for j in range(2)
        )


FIRST_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
FIRST_PRIME_POWERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32, 37)


def _base_prime(q):
    return next(d for d in range(2, q + 1) if q % d == 0)


def _fraction_solve(points):
    """Ascending interpolant coefficients over Q, by Gaussian elimination on
    the Vandermonde system (its leading minors are nonzero at distinct
    positive nodes, so no pivoting is needed)."""
    n = len(points)
    rows = [[Fraction(x ** k) for k in range(n)] + [Fraction(y)] for x, y in points]
    for c in range(n):
        for r in range(c + 1, n):
            f = rows[r][c] / rows[c][c]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    coeffs = [Fraction(0)] * n
    for c in range(n - 1, -1, -1):
        tail = sum(rows[c][k] * coeffs[k] for k in range(c + 1, n))
        coeffs[c] = (rows[c][n] - tail) / rows[c][c]
    return coeffs


def _trimmed(coeffs):
    out = list(coeffs)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


def _values(coeffs, nodes):
    return [sum(c * x ** k for k, c in enumerate(coeffs)) for x in nodes]


class TestNewtonInterpolation:
    @given(
        coeffs=st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=10),
        extra=st.integers(0, 2),
    )
    @settings(max_examples=80, deadline=None)
    def test_recovers_integer_polynomials(self, coeffs, extra):
        nodes = FIRST_PRIMES[: len(coeffs) + extra]
        points = list(zip(nodes, _values(coeffs, nodes)))
        assert _newton_coefficients(points) == _trimmed(coeffs)

    @given(
        coeffs=st.lists(st.integers(-50, 50), min_size=1, max_size=10),
        noise=st.lists(st.sampled_from((0, 0, 0, 1, -1, 2)), min_size=10, max_size=10),
    )
    @settings(max_examples=150, deadline=None)
    def test_raises_exactly_when_not_integral(self, coeffs, noise):
        nodes = FIRST_PRIMES[: len(coeffs)]
        values = [v + d for v, d in zip(_values(coeffs, nodes), noise)]
        points = list(zip(nodes, values))
        exact = _fraction_solve(points)
        if all(c.denominator == 1 for c in exact):
            assert _newton_coefficients(points) == _trimmed(int(c) for c in exact)
        else:
            with pytest.raises(NonPolynomialCount):
                _newton_coefficients(points)
