import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from clusterchar import grassmannian as gr
from clusterchar.character import (
    _term,
    char_table,
    char_via_chebyshev,
    cf_cluster_char,
    check_lemma_key,
    cluster_char,
    term_L,
    y_monomial,
)
from clusterchar.chebyshev import ChebWindow, gen_cheb
from clusterchar.errors import DimOutOfRange, IdentityFailed, InvalidArgument
from clusterchar.laurent import Family, LaurentPoly, Monomial, qid, tid, x, xid, y, yid
from clusterchar.quiver import (
    IntRep,
    Quiver,
    a21_homogeneous,
    a21_tube,
    catalog_module,
    desk_tube_catalog,
    direct_sum,
    euler_form,
    homogeneous,
    preinjective,
    preprojective,
    quasi_factors,
    tau_translate,
    unit_vector,
    zero_rep,
)

QUASI = catalog_module(homogeneous(1, 1))


class TestTermL:
    def test_quasi_simple_terms(self):
        assert term_L(QUASI, (0, 0)) == x(1) * x(2).inverse()
        assert term_L(QUASI, (0, 1)) == y(2) * x(1).inverse() * x(2).inverse()
        assert term_L(QUASI, (1, 1)) == y(1) * y(2) * x(1).inverse() * x(2)
        assert term_L(QUASI, (1, 0)) == 0  # empty Grassmannian

    def test_term_is_monomial_times_chi(self):
        rep = catalog_module(homogeneous(2, 1))
        val = term_L(rep, (0, 1))
        assert len(val) == 1
        ((mono, coeff),) = val.terms()
        assert coeff == gr.euler_char(rep, (0, 1)) == 2

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_exponents_are_the_euler_form(self, data):
        m = data.draw(st.integers(2, 4))
        vertices = tuple(str(i + 1) for i in range(m))
        arrows = tuple(
            (vertices[i], vertices[j])
            for i, j in itertools.combinations(range(m), 2)
            for _ in range(data.draw(st.integers(0, 2)))
        )
        try:
            quiver = Quiver(vertices, arrows)
        except InvalidArgument:  # not connected
            assume(False)
        dim = tuple(data.draw(st.integers(0, 3)) for _ in vertices)
        e = tuple(data.draw(st.integers(0, d)) for d in dim)
        chi = data.draw(st.integers(-3, 3).filter(bool))
        zero = tuple(tuple((0,) * dim[s] for _ in range(dim[t])) for s, t in quiver.arrow_indices())
        rest = tuple(d - v for d, v in zip(dim, e))
        exps = {yid(i + 1): v for i, v in enumerate(e)}
        for i in range(m):
            s_i = unit_vector(quiver, i)
            exps[xid(i + 1)] = -euler_form(quiver, e, s_i) - euler_form(quiver, s_i, rest)
        assert list(_term(IntRep(quiver, dim, zero), e, chi).terms()) == [(Monomial(exps), chi)]

    @pytest.mark.parametrize("e", [(2, 0), (0, -1), (1,), (0, 0, 0)])
    def test_e_out_of_range(self, e):
        with pytest.raises(DimOutOfRange):
            term_L(QUASI, e)


class TestClusterChar:
    def test_zero_module(self, kronecker):
        assert cluster_char(zero_rep(kronecker)) == 1

    def test_quasi_simple(self):
        want = (
            x(1) * x(2).inverse()
            + y(2) * x(1).inverse() * x(2).inverse()
            + y(1) * y(2) * x(1).inverse() * x(2)
        )
        assert cluster_char(QUASI) == want

    def test_coefficient_free_quasi_simple(self):
        want = x(1) * x(2).inverse() + x(1).inverse() * x(2).inverse() + x(1).inverse() * x(2)
        assert cf_cluster_char(QUASI) == want

    def test_table_totals(self):
        table = char_table(QUASI)
        assert table.total == cluster_char(QUASI)
        assert table.leading() == x(1) * x(2).inverse()
        assert table.full() == y(1) * y(2) * x(1).inverse() * x(2)
        assert table.leading() + table.middle() + table.full() == table.total

    def test_multiplicative_on_direct_sums(self):
        a = catalog_module(homogeneous(1, 1))
        b = catalog_module(homogeneous(1, 2))
        s = direct_sum(a, b)
        assert cluster_char(s) == cluster_char(a) * cluster_char(b)
        assert cf_cluster_char(s) == cf_cluster_char(a) * cf_cluster_char(b)

    def test_y_exponents_never_negative(self):
        for fam in [preprojective(2), a21_tube(1, 3), homogeneous(2, 1)]:
            val = cluster_char(catalog_module(fam))
            assert val.min_family_exponent(Family.Y) == 0

    def test_explicit_module_split_at_two(self, kronecker):
        # Over Q this is homogeneous of quasi-length 2 at point 0; mod 2 the
        # second matrix vanishes and the module splits, so 2 must be skipped.
        rep = IntRep(kronecker, (2, 2), (((1, 0), (0, 1)), ((0, 2), (0, 0))))
        assert cluster_char(rep) == cluster_char(catalog_module(homogeneous(2, 0)))


class TestLemmaKey:
    @pytest.mark.parametrize("fam", desk_tube_catalog(), ids=lambda f: f.describe())
    def test_translate_identity_on_tubes(self, fam):
        rep = catalog_module(fam)
        tau = catalog_module(tau_translate(fam))
        assert check_lemma_key(rep, tau) is None
        assert char_table(rep).leading() * char_table(tau).full() == y_monomial(tau.dim)

    def test_homogeneous_hand_value(self):
        check_lemma_key(QUASI, QUASI)
        table = char_table(QUASI)
        assert table.leading() * table.full() == y(1) * y(2)

    def test_projective_input_fails(self):
        # the simple projective at the sink; the translate identity cannot
        # hold for it with any claimed translate
        proj = catalog_module(preinjective(0))
        with pytest.raises(IdentityFailed):
            check_lemma_key(proj, QUASI)


class TestChebyshevAssembly:
    def test_single_factor_is_identity(self):
        parts = [(QUASI.dim, cluster_char(QUASI))]
        assert char_via_chebyshev(parts, 1) == cluster_char(QUASI)

    def test_wrong_length_rejected(self):
        with pytest.raises(InvalidArgument):
            char_via_chebyshev([(QUASI.dim, cluster_char(QUASI))], 2)

    @pytest.mark.parametrize("n", [2, 3])
    def test_kronecker_homogeneous(self, n):
        fam = homogeneous(n, 1)
        parts = [
            (catalog_module(g).dim, cluster_char(catalog_module(g)))
            for g in quasi_factors(fam)
        ]
        assert char_via_chebyshev(parts, n) == cluster_char(catalog_module(fam))

    @pytest.mark.parametrize("idx", [1, 2])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_exceptional_tube(self, idx, n):
        fam = a21_tube(idx, n)
        parts = [
            (catalog_module(g).dim, cluster_char(catalog_module(g)))
            for g in quasi_factors(fam)
        ]
        assert char_via_chebyshev(parts, n) == cluster_char(catalog_module(fam))

    @pytest.mark.parametrize("idx", [1, 2])
    @pytest.mark.parametrize("n", [2, 3])
    def test_translate_decomposition_route(self, idx, n):
        """Rebuild each factor as leading + middle + y^dim/next-leading and
        assemble; must reproduce the direct character."""
        fam = a21_tube(idx, n)
        factors = quasi_factors(a21_tube(idx, n + 1))  # n+1 gives the wrap-around entry
        tables = [char_table(catalog_module(g)) for g in factors]
        sigma = {}
        for i in range(1, n + 1):
            rep_i = catalog_module(factors[i - 1])
            tau_i = tables[i - 1].leading()
            nu_i = tables[i - 1].middle()
            next_lead = tables[i].leading()
            slot = tau_i + nu_i + y_monomial(rep_i.dim) * next_lead.inverse()
            assert slot == cluster_char(rep_i)  # the decomposition itself
            sigma[tid(i)] = slot
            sigma[qid(i)] = y_monomial(rep_i.dim)
        assembled = gen_cheb(ChebWindow(1, n)).substitute(sigma)
        assert assembled == cluster_char(catalog_module(fam))


@st.composite
def small_laurent(draw, rank):
    """A sum of up to three monomials in x_1..x_rank (exponents -2..2) and
    y_1..y_rank (exponents 0..2), coefficients -3..3."""
    parts = []
    for _ in range(draw(st.integers(1, 3))):
        exps = {xid(i + 1): draw(st.integers(-2, 2)) for i in range(rank)}
        exps.update({yid(i + 1): draw(st.integers(0, 2)) for i in range(rank)})
        parts.append(LaurentPoly.from_monomial(Monomial(exps), draw(st.integers(-3, 3))))
    return LaurentPoly.sum(parts)


class TestChebyshevAssemblyBySubstitution:
    """The assembly evaluates P_n by its recurrence; the value is the one
    substituting q_i -> y^{d_i} and t_i -> X_i into the window polynomial
    P_n([1, n]) gives."""

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_equals_substitution_into_the_window(self, data):
        rank = data.draw(st.integers(2, 3))
        n = data.draw(st.integers(0, 5))
        dims = [data.draw(st.tuples(*[st.integers(0, 3)] * rank)) for _ in range(n)]
        chars = [data.draw(small_laurent(rank)) for _ in range(n)]
        sigma = {}
        for i, (d, c) in enumerate(zip(dims, chars), start=1):
            sigma[qid(i)] = LaurentPoly.from_monomial(Monomial({yid(j + 1): v for j, v in enumerate(d)}))
            sigma[tid(i)] = c
        want = gen_cheb(ChebWindow(1, n)).substitute(sigma)
        assert char_via_chebyshev(list(zip(dims, chars)), n) == want


class TestGradedRecovery:
    @pytest.mark.parametrize(
        "fam",
        [homogeneous(2, 1), preprojective(1), a21_tube(1, 3)],
        ids=lambda f: f.describe(),
    )
    def test_graded_coefficients_recover_chi(self, fam):
        rep = catalog_module(fam)
        total = cluster_char(rep)
        for e in itertools.product(*[range(d + 1) for d in rep.dim]):
            coeff = total.graded_coefficient(e).specialize_ones(Family.X)
            assert coeff.constant_value() == gr.euler_char(rep, e)


class TestPositivityDeskScale:
    @pytest.mark.parametrize(
        "fam",
        [a21_tube(1, 1), a21_tube(2, 2), a21_tube(1, 3), a21_tube(2, 3)],
        ids=lambda f: f.describe(),
    )
    def test_exceptional_tube_characters_positive_with_coefficients(self, fam):
        assert cluster_char(catalog_module(fam)).is_subtraction_free()

    def test_cf_positive_on_small_catalog(self):
        for fam in [homogeneous(3, 1), preinjective(3), a21_homogeneous(2, 1)]:
            assert cf_cluster_char(catalog_module(fam)).is_subtraction_free()
