import pytest

from clusterchar.chebyshev import (
    ChebWindow,
    cheb_first_kind,
    cheb_second_kind,
    delta,
    delta_cf,
    delta_values,
    gen_cheb,
    gen_cheb_along,
    gen_cheb_det,
    gen_cheb_values,
    s_from_f,
    s_from_f_value,
)
from clusterchar.errors import InvalidArgument
from clusterchar.laurent import Family, LaurentPoly, q, qid, t, tid, z


def P(start, length):
    return gen_cheb(ChebWindow(start, length))


class TestGenCheb:
    def test_small_windows(self):
        assert P(1, 0) == 1
        assert P(1, -1) == 0
        assert P(1, 1) == t(1)
        assert P(1, 2) == t(2) * t(1) - q(2)
        # frozen from an independent 3x3 cofactor expansion
        assert P(1, 3) == t(3) * t(2) * t(1) - t(3) * q(2) - q(3) * t(1)

    def test_window_start_shift(self):
        assert P(4, 2) == t(5) * t(4) - q(5)

    def test_negative_window_start_refused(self):
        with pytest.raises(InvalidArgument, match="window start must be >= 0"):
            ChebWindow(-5, 2)
        assert P(0, 2) == t(1) * t(0) - q(1)

    def test_window_record_semantics(self):
        w = ChebWindow(2, 3)
        assert w == ChebWindow(length=3, start=2) and hash(w) == hash(ChebWindow(2, 3))
        assert w != ChebWindow(3, 2) and (w.start, w.length) == (2, 3)
        assert repr(w) == "ChebWindow(start=2, length=3)"
        with pytest.raises(AttributeError):
            w.start = 1
        with pytest.raises(AttributeError):
            del w.length
        assert gen_cheb(ChebWindow(2, 3)) is gen_cheb(w)

    @pytest.mark.parametrize("length", range(0, 11))
    def test_matches_determinant_oracle(self, length):
        w = ChebWindow(1, length)
        assert gen_cheb(w) == gen_cheb_det(w)

    @pytest.mark.parametrize("start", [2, 5])
    def test_matches_determinant_oracle_shifted(self, start):
        for length in range(0, 6):
            w = ChebWindow(start, length)
            assert gen_cheb(w) == gen_cheb_det(w)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_first_q_never_occurs(self, n):
        assert qid(1) not in P(1, n).support()

    @pytest.mark.parametrize("i", range(3, 10))
    def test_three_term_relation_low_end(self, i):
        lhs = P(1, i - 1)
        rhs = t(1) * P(2, i - 2) - q(2) * P(3, i - 3)
        assert lhs == rhs

    @pytest.mark.parametrize("start", range(0, 13))
    def test_windows_are_the_loop_on_their_lists(self, start):
        """Each window, renamed from the one at start 1, is the loop run on
        the window's own variables."""
        assert P(start, -1) == 0
        for length in range(0, 10):
            idx = range(start, start + length)
            assert P(start, length) == gen_cheb_values([q(i) for i in idx], [t(i) for i in idx])

    def test_along_an_order_is_the_loop_on_its_lists(self):
        for order in ([3, 1, 2], [5, 9, 0, 2], [2], []):
            assert gen_cheb_along(order) == gen_cheb_values([q(i) for i in order], [t(i) for i in order])
        with pytest.raises(InvalidArgument, match="not one to one"):
            gen_cheb_along([2, 5, 2])

    def test_values_evaluator_agrees_with_substitution(self):
        qs = [q(5), q(6), q(7)]
        ts = [t(7) + 1, t(8), t(9) * t(7)]
        sigma = {qid(i): qs[i - 1] for i in range(1, 4)}
        sigma.update({tid(i): ts[i - 1] for i in range(1, 4)})
        assert gen_cheb_values(qs, ts) == P(1, 3).substitute(sigma)


class TestDerivativeSplit:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_split(self, n):
        for i in range(1, n + 1):
            lhs = P(1, n).partial_derivative(tid(i))
            assert lhs == P(1, i - 1) * P(i + 1, n - i)


class TestDelta:
    def test_values(self):
        assert delta(1, 2) == t(2) * t(1) - q(2) - q(1)
        assert delta(1, 1) == t(1)
        assert delta_cf(1, 2) == t(2) * t(1) - 2

    def test_invalid_arguments(self):
        with pytest.raises(InvalidArgument):
            delta(0, 2)
        with pytest.raises(InvalidArgument):
            delta(1, 0)

    @pytest.mark.parametrize("l,p", [(1, 1), (1, 2), (2, 1), (1, 3), (2, 2), (3, 1)])
    def test_cf_is_q_specialization(self, l, p):
        assert delta_cf(l, p) == delta(l, p).specialize_ones(Family.Q)

    def test_delta_values_matches_substitution(self):
        args_q = [q(1), q(2)]
        args_t = [t(1) + 1, t(2) ** 2]
        direct = delta(1, 2).substitute({tid(1): args_t[0], tid(2): args_t[1]})
        assert delta_values(1, 2, args_q, args_t) == direct

    @pytest.mark.parametrize("lp", range(1, 11))
    def test_matches_delta_values(self, lp):
        """delta, formed from two windows, is the loop on the lists."""
        idx = range(1, lp + 1)
        want = delta_values(1, lp, [q(i) for i in idx], [t(i) for i in idx])
        for l in (1, lp):
            assert delta(l, lp // l) == want

    def test_delta_values_degenerate(self):
        assert delta_values(1, 1, [q(1)], [t(1)]) == t(1)


def _downward_tails(n, with_u=False, wrap_to=None):
    from clusterchar.laurent import u as u_var

    sigma = {}
    for i in range(1, n + 1):
        prev = i - 1
        if i == 1 and wrap_to is not None:
            prev = wrap_to
        img = t(i) + q(i) * t(prev).inverse()
        if with_u:
            img = img + u_var(i)
        sigma[tid(i)] = img
    return sigma


class TestPositivitySubstitutions:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_tail_substitution_positive(self, n):
        val = P(1, n).substitute(_downward_tails(n))
        assert val.is_subtraction_free()

    @pytest.mark.parametrize("n", range(1, 5))
    def test_tail_substitution_with_u_positive(self, n):
        val = P(1, n).substitute(_downward_tails(n, with_u=True))
        assert val.is_subtraction_free()
        assert val.min_family_exponent(Family.U) >= 0

    def test_upward_open_form_is_not_positive(self):
        # the witness direction: attaching the tail above the window leaves
        # an uncancelled negative already at n = 2
        sigma = {
            tid(1): t(1) + q(1) * t(2).inverse(),
            tid(2): t(2) + q(2) * t(3).inverse(),
        }
        assert not P(1, 2).substitute(sigma).is_subtraction_free()

    @pytest.mark.parametrize("l,p", [(1, 2), (1, 3), (2, 2), (1, 5), (2, 3)])
    def test_periodic_delta_positive(self, l, p):
        lp = l * p
        val = delta(l, p).substitute(_downward_tails(lp, with_u=True, wrap_to=lp))
        assert val.is_subtraction_free()

    def test_periodic_anchor(self):
        val = delta(1, 2).substitute(_downward_tails(2, wrap_to=2))
        want = (t(1) ** 2 * t(2) ** 2 + q(1) * q(2)) * (t(1) * t(2)).inverse()
        assert val == want
        assert str(val) == str(want)

    def test_nonperiodic_anchor(self):
        sigma = {
            tid(1): t(1) + q(1) * t(2).inverse(),
            tid(2): t(2) + q(2) * t(3).inverse(),
        }
        val = delta(1, 2).substitute(sigma)
        want = (
            t(1) * t(2) ** 2 * t(3) + q(2) * (t(1) * t(2) - t(2) * t(3)) + q(1) * q(2)
        ) * (t(2) * t(3)).inverse()
        assert val == want
        assert str(val) == str(want)
        assert not val.is_subtraction_free()


class TestOneVariableFamilies:
    def test_first_kind(self):
        assert cheb_first_kind(0) == 2
        assert cheb_first_kind(1) == z()
        assert cheb_first_kind(2) == z() ** 2 - 2
        assert cheb_first_kind(3) == z() ** 3 - 3 * z()

    def test_second_kind(self):
        assert cheb_second_kind(0) == 1
        assert cheb_second_kind(2) == z() ** 2 - 1
        assert cheb_second_kind(3) == z() ** 3 - 2 * z()
        assert cheb_second_kind(4) == z() ** 4 - 3 * z() ** 2 + 1

    @pytest.mark.parametrize("n", range(0, 7))
    def test_second_kind_specializes_gen_cheb(self, n):
        sigma = {}
        for i in range(1, n + 1):
            sigma[qid(i)] = LaurentPoly.one()
            sigma[tid(i)] = z()
        assert cheb_second_kind(n) == P(1, n).substitute(sigma)

    def test_negative_degree_rejected(self):
        with pytest.raises(InvalidArgument):
            cheb_first_kind(-1)
        with pytest.raises(InvalidArgument):
            cheb_second_kind(-2)


class TestSecondFromFirst:
    def test_structure(self):
        assert s_from_f(0) == [(-1, 1)]
        assert s_from_f(3) == [(3, 1), (1, 1)]
        assert s_from_f(4) == [(4, 1), (2, 1), (-1, 1)]

    @pytest.mark.parametrize("n", range(0, 13))
    def test_reconstruction(self, n):
        assert s_from_f_value(n) == cheb_second_kind(n)
        assert all(mult >= 0 for _, mult in s_from_f(n))

    def test_naive_f0_convention_overshoots(self):
        # closing the even chain with F_0 = 2 instead of the constant 1
        # overshoots by exactly 1
        wrong = cheb_first_kind(2) + cheb_first_kind(0)
        assert wrong == cheb_second_kind(2) + 1
