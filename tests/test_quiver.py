import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from clusterchar.errors import (
    DimensionMismatch,
    InvalidArgument,
    InvalidParams,
    QuiverMismatch,
)
from clusterchar.linalg import _diagonal_entries
from clusterchar.quiver import (
    _CATALOG,
    IntRep,
    _Family,
    ModuleFamily,
    Quiver,
    a21_homogeneous,
    a21_tube,
    catalog_module,
    direct_sum,
    dual_rep,
    euler_form,
    homogeneous,
    module_from_json,
    preinjective,
    preprojective,
    quasi_factors,
    quiver_from_json,
    regular_rigid_catalog,
    tau_translate,
    unit_vector,
    zero_rep,
)

TUBE_MEMBERS = [
    *(make(n, point) for make in (homogeneous, a21_homogeneous)
      for n in range(1, 6) for point in (0, 1, -2)),
    *(a21_tube(index, n) for index in (1, 2) for n in range(1, 9)),
]


def _coxeter(quiver):
    """Phi = -E^-1 E^T, with E_ij = <S_i, S_j>, by Gauss-Jordan over Q."""
    m = len(quiver.vertices)
    units = [unit_vector(quiver, i) for i in range(m)]
    e = [[Fraction(euler_form(quiver, units[i], units[j])) for j in range(m)] for i in range(m)]
    rows = [e[i] + [-e[j][i] for j in range(m)] for i in range(m)]  # [E | -E^T]
    for c in range(m):
        pivot = next(r for r in range(c, m) if rows[r][c])
        rows[c], rows[pivot] = rows[pivot], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for r in range(m):
            if r != c and rows[r][c]:
                rows[r] = [x - rows[r][c] * y for x, y in zip(rows[r], rows[c])]
    return [row[m:] for row in rows]


class TestQuiverValidation:
    def test_rejects_directed_two_cycle(self):
        with pytest.raises(InvalidArgument):
            Quiver(("1", "2"), (("1", "2"), ("2", "1")))

    def test_rejects_loop(self):
        with pytest.raises(InvalidArgument):
            Quiver(("1",), (("1", "1"),))

    def test_rejects_disconnected(self):
        with pytest.raises(InvalidArgument):
            Quiver(("1", "2", "3"), (("1", "2"),))

    def test_rejects_unknown_vertex(self):
        with pytest.raises(InvalidArgument):
            Quiver(("1", "2"), (("1", "3"),))

    def test_topological_order_ends_at_sink(self, affine_a2):
        order = affine_a2.topological_order()
        last = order[-1]
        assert all(s != last for s, _ in affine_a2.arrow_indices())

    def test_derived_tuples_are_kept_outside_the_fields(self, affine_a2):
        again = Quiver(affine_a2.vertices, affine_a2.arrows)
        assert affine_a2.arrow_indices() is affine_a2.arrow_indices()
        assert affine_a2.topological_order() is affine_a2.topological_order()
        assert again == affine_a2 and hash(again) == hash(affine_a2)
        assert repr(again) == f"Quiver(vertices={again.vertices!r}, arrows={again.arrows!r})"

    def test_record_semantics(self, affine_a2):
        by_keyword = Quiver(arrows=affine_a2.arrows, vertices=affine_a2.vertices)
        assert by_keyword == affine_a2 and hash(by_keyword) == hash(affine_a2)
        assert by_keyword != affine_a2.opposite() and by_keyword != affine_a2.vertices
        for name in ("vertices", "arrows"):
            with pytest.raises(AttributeError):
                setattr(by_keyword, name, ())
            with pytest.raises(AttributeError):
                delattr(by_keyword, name)
        assert by_keyword.vertices == ("1", "2", "3")

    def test_opposite_reverses(self, kronecker):
        opp = kronecker.opposite()
        assert opp.arrows == (("2", "1"), ("2", "1"))


class TestEulerForm:
    def test_spec_examples(self, kronecker):
        assert euler_form(kronecker, (1, 0), (0, 1)) == -2
        assert euler_form(kronecker, (1, 1), (1, 1)) == 0
        for i in range(2):
            e = unit_vector(kronecker, i)
            assert euler_form(kronecker, e, e) == 1

    def test_unit_diagonal_on_affine(self, affine_a2):
        for i in range(3):
            e = unit_vector(affine_a2, i)
            assert euler_form(affine_a2, e, e) == 1

    def test_dimension_mismatch(self, kronecker):
        with pytest.raises(DimensionMismatch):
            euler_form(kronecker, (1, 0, 0), (0, 1))

    @given(
        d1=st.tuples(*[st.integers(0, 5)] * 2),
        d2=st.tuples(*[st.integers(0, 5)] * 2),
        e=st.tuples(*[st.integers(0, 5)] * 2),
    )
    def test_bilinear(self, d1, d2, e):
        from clusterchar.quiver import kronecker_quiver

        kq = kronecker_quiver()
        s = tuple(a + b for a, b in zip(d1, d2))
        assert euler_form(kq, s, e) == euler_form(kq, d1, e) + euler_form(kq, d2, e)
        assert euler_form(kq, e, s) == euler_form(kq, e, d1) + euler_form(kq, e, d2)


class TestCatalog:
    def test_homogeneous_matrices(self):
        rep = catalog_module(homogeneous(1, 1))
        assert rep.dim == (1, 1)
        assert rep.matrices == (((1,),), ((1,),))
        rep2 = catalog_module(homogeneous(2, 0))
        assert rep2.dim == (2, 2)
        assert rep2.matrices[0] == ((1, 0), (0, 1))
        assert rep2.matrices[1] == ((0, 1), (0, 0))

    def test_preprojective_shapes(self):
        rep = catalog_module(preprojective(1))
        assert rep.dim == (2, 1)
        assert rep.matrices == (((1, 0),), ((0, 1),))
        assert catalog_module(preprojective(0)).dim == (1, 0)

    def test_preinjective_shapes(self):
        rep = catalog_module(preinjective(1))
        assert rep.dim == (1, 2)
        assert rep.matrices == (((1,), (0,)), ((0,), (1,)))

    def test_tube_quasi_simples(self):
        r1 = catalog_module(a21_tube(1, 1))
        r2 = catalog_module(a21_tube(2, 1))
        assert r1.dim == (1, 0, 1)
        assert r2.dim == (0, 1, 0)

    def test_tube_dims_sum_quasi_factors(self):
        for fam in TUBE_MEMBERS:
            rep = catalog_module(fam)
            total = [0] * len(rep.dim)
            for g in quasi_factors(fam):
                for i, v in enumerate(catalog_module(g).dim):
                    total[i] += v
            assert tuple(total) == rep.dim, fam.describe()

    @pytest.mark.parametrize("fam", TUBE_MEMBERS, ids=lambda f: f.describe())
    def test_tau_acts_on_dims_by_the_coxeter_matrix(self, fam):
        rep = catalog_module(fam)
        phi = _coxeter(rep.quiver)
        want = tuple(sum(p * d for p, d in zip(row, rep.dim)) for row in phi)
        assert catalog_module(tau_translate(fam)).dim == want

    @pytest.mark.parametrize(
        "fam, dim, matrices",
        [
            (a21_tube(2, 3), (1, 2, 1), (((1,), (0,)), ((0, 1),), ((1,),))),
            (a21_tube(1, 4), (2, 2, 2), (((0, 1), (0, 0)), ((1, 0), (0, 1)), ((1, 0), (0, 1)))),
            (preprojective(2), (3, 2), (((1, 0, 0), (0, 1, 0)), ((0, 1, 0), (0, 0, 1)))),
            (preinjective(2), (2, 3), (((1, 0), (0, 1), (0, 0)), ((0, 0), (1, 0), (0, 1)))),
        ],
        ids=lambda v: v.describe() if isinstance(v, ModuleFamily) else "",
    )
    def test_string_module_matrices(self, fam, dim, matrices):
        rep = catalog_module(fam)
        assert (rep.dim, rep.matrices) == (dim, matrices)

    def test_tube_rank_is_catalog_data(self, monkeypatch, affine_a2):
        # A rank-3 entry needs no code of its own; its matrices are not read.
        stub = _Family(affine_a2, ("n", "index"), "stub(index={index}, n={n})", None, 3)
        monkeypatch.setitem(_CATALOG, "stub", stub)
        one, two, three = (ModuleFamily("stub", n=4, index=i) for i in (1, 2, 3))
        assert [tau_translate(f) for f in (one, three, two)] == [three, two, one]
        assert [g.index for g in quasi_factors(two)] == [2, 3, 1, 2]
        assert regular_rigid_catalog(affine_a2) == [
            a21_tube(1, 1), a21_tube(2, 1),
            *(ModuleFamily("stub", n=n, index=i) for i in (1, 2, 3) for n in (1, 2)),
        ]
        with pytest.raises(InvalidParams, match=r"^tube index must be 1, 2 or 3 on the rank-3 tube$"):
            ModuleFamily("stub", n=1, index=4)

    def test_family_is_its_tuple(self, affine_a2):
        fam = _Family(affine_a2, ("n",), "stub(n={n})", None, 0)
        assert _Family._fields == ("quiver", "reads", "label", "member", "tube")
        assert fam == (affine_a2, ("n",), "stub(n={n})", None, 0) and hash(fam) == hash(tuple(fam))
        assert fam < fam._replace(tube=1) and fam.tube == 0
        assert repr(fam) == (
            f"_Family(quiver={affine_a2!r}, reads=('n',), label='stub(n={{n}})', member=None, tube=0)"
        )
        assert not hasattr(fam, "__dict__")
        assert pickle.loads(pickle.dumps(fam)) == fam

    def test_tau_swaps_tube_index(self):
        assert tau_translate(a21_tube(1, 3)) == a21_tube(2, 3)
        assert tau_translate(homogeneous(2, 1)) == homogeneous(2, 1)
        with pytest.raises(InvalidParams):
            tau_translate(preprojective(1))
        with pytest.raises(InvalidParams):
            quasi_factors(preinjective(0))

    def test_family_record_semantics(self):
        fam = ModuleFamily("affineA21_tube", 3, 0, 2)
        by_keyword = ModuleFamily(index=2, n=3, family="affineA21_tube")
        assert (fam.family, fam.n, fam.point, fam.index) == ("affineA21_tube", 3, 0, 2)
        assert fam == by_keyword == a21_tube(2, 3) and hash(fam) == hash(by_keyword)
        assert fam != a21_tube(1, 3) and fam != a21_tube(2, 4)
        assert (ModuleFamily("kronecker_homogeneous").n, homogeneous(2).point) == (1, 1)
        assert repr(fam) == "ModuleFamily(family='affineA21_tube', n=3, point=0, index=2)"
        for name in ("family", "n", "point", "index"):
            with pytest.raises(AttributeError):
                setattr(fam, name, 1)
        assert fam == a21_tube(2, 3)

    def test_invalid_params(self):
        with pytest.raises(InvalidParams):
            ModuleFamily("affineA21_tube", n=2, index=3)
        with pytest.raises(InvalidParams):
            ModuleFamily("kronecker_homogeneous", n=0)
        with pytest.raises(InvalidParams):
            ModuleFamily("no_such_family")

    @pytest.mark.parametrize(
        "family, params, field",
        [
            ("kronecker_homogeneous", {"n": 2, "point": 1, "index": 3}, "index"),
            ("kronecker_preprojective", {"n": 2, "point": 5}, "point"),
            ("affineA21_tube", {"n": 2, "index": 1, "point": -1}, "point"),
        ],
    )
    def test_unread_field_refused(self, family, params, field):
        with pytest.raises(InvalidParams, match=f"{family} does not read {field}"):
            ModuleFamily(family, **params)

    @pytest.mark.parametrize("fam", TUBE_MEMBERS, ids=lambda f: f.describe())
    def test_translate_and_quasi_factors_on_the_catalog(self, fam):
        if fam.family == "affineA21_tube":
            swap = {1: 2, 2: 1}
            assert tau_translate(fam) == a21_tube(swap[fam.index], fam.n)
            parts = [a21_tube(fam.index if j % 2 == 0 else swap[fam.index], 1) for j in range(fam.n)]
        else:
            make = homogeneous if fam.family == "kronecker_homogeneous" else a21_homogeneous
            assert tau_translate(fam) == fam
            parts = [make(1, fam.point)] * fam.n
        assert quasi_factors(fam) == parts

    def test_excluded_primes_from_arrows_and_endomorphisms(self, kronecker, affine_a2):
        # mod 2 and 3 the pencil (1, 6) is M_1(0), of the same type as M_1(6)
        rep = catalog_module(homogeneous(1, 6))
        assert rep.excluded_primes() == frozenset()
        # the points 1 and 3 meet at 2 only; the arrow diag(1, 3) drops rank
        # at 3 as well, but the type does not change there
        both = direct_sum(catalog_module(homogeneous(1, 1)), catalog_module(homogeneous(1, 3)))
        assert both.excluded_primes() == {2}
        # every arrow keeps its rank at 11, but dim End is 1 over Q and 3 over F_11
        jump = IntRep(affine_a2, (2, 2, 1), (((1, 1), (2, 0)), ((-1, -2),), ((1, -2),)))
        assert jump.excluded_primes() == {2, 11}
        # conjugate to (I, J_2(1)) over Q; mod a prime of the corner both are
        # I, so the Jordan block J_2 at 1 splits in two
        for corner, primes in ((2, {2}), (6, {2, 3})):
            jordan = IntRep(kronecker, (2, 2), (((1, 0), (0, 1)), ((1, corner), (0, 1))))
            assert jordan.excluded_primes() == primes

    def test_excluded_primes_from_matrices(self, kronecker, affine_a2):
        # rank of [[0, 2], [0, 0]] drops mod 2
        rep = IntRep(kronecker, (2, 2), (((1, 0), (0, 1)), ((0, 2), (0, 0))))
        assert rep.excluded_primes() == {2}
        assert rep.excluded_primes() is rep.excluded_primes()
        # both arrows along 1 -> 2 -> 3 keep their rank mod 2; their
        # composition [[2]] does not
        path = IntRep(affine_a2, (1, 2, 1), (((1,), (1,)), ((1, 1),), ((1,),)))
        assert path.excluded_primes() == {2}
        # unimodular over the integers: nothing to exclude
        unimodular = IntRep(kronecker, (2, 2), (((2, 1), (1, 1)), ((1, 0), (0, 1))))
        assert unimodular.excluded_primes() == frozenset()

    def test_excluded_primes_near_the_trial_division_bound(self, affine_a2):
        big = 10**12 + 39  # prime, below (10^6 + 1)^2
        rep = IntRep(affine_a2, (1, 1, 1), (((1,),), ((1,),), ((big,),)))
        assert rep.excluded_primes() == {big}
        # the two largest primes below 10^6
        rep = IntRep(affine_a2, (1, 1, 1), (((1,),), ((1,),), ((999979 * 999983,),)))
        assert rep.excluded_primes() == {999979, 999983}

    def test_excluded_primes_refuse_unfactorable_entry(self, kronecker):
        square = (10**12 + 39) ** 2
        rep = IntRep(kronecker, (1, 1), (((1,),), ((square,),)))
        with pytest.raises(InvalidArgument, match=f"cannot factor {square}"):
            rep.excluded_primes()


def _rank_mod(rows, p):
    """Rank over F_p by plain Gauss-Jordan elimination."""
    rows = [[v % p for v in row] for row in rows]
    rank = 0
    for c in range(len(rows[0])):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], p - 2, p)
        for r in range(len(rows)):
            if r != rank and rows[r][c]:
                f = rows[r][c] * inv % p
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


@st.composite
def int_matrices(draw):
    """Sparse matrices up to 8 x 8, mostly 0 and +-1 so that the unit pivot
    runs, now and then with an entry up to 6 in size, which leaves some
    matrices, or what remains of them, without a unit."""
    small = st.sampled_from((0, 0, 0, 1, -1))
    entry = st.one_of(small, small, small, st.integers(min_value=-6, max_value=6))
    cols = draw(st.integers(min_value=1, max_value=8))
    row = st.lists(entry, min_size=cols, max_size=cols)
    return tuple(map(tuple, draw(st.lists(row, min_size=1, max_size=8))))


@given(int_matrices())
def test_diagonal_entries_give_rank_mod_p(mat):
    entries = _diagonal_entries(mat)
    # the prime 10^10 + 19 exceeds Hadamard's bound (6 sqrt 8)^8 on every
    # minor here, so it stands for the rank over Q
    for p in (2, 3, 5, 7, 10**10 + 19):
        assert sum(1 for d in entries if d % p) == _rank_mod(mat, p)


CATALOG_GRID = [
    *(make(n, point) for make in (homogeneous, a21_homogeneous)
      for n in range(1, 5) for point in range(-12, 13)),
    *(make(k) for make in (preprojective, preinjective) for k in range(6)),
    *(a21_tube(index, n) for index in (1, 2) for n in range(1, 9)),
]


@pytest.mark.parametrize("fam", CATALOG_GRID, ids=lambda f: f.describe())
def test_catalog_excludes_the_primes_of_its_point(fam):
    # every member but the homogeneous ones has point 0, and so excludes
    # nothing; on the Kronecker quiver M_n(point) mod p is M_n(point mod p),
    # of the same type, so it excludes nothing either
    kronecker = fam.family == "kronecker_homogeneous"
    want = {p for p in (2, 3, 5, 7, 11) if fam.point and fam.point % p == 0 and not kronecker}
    assert catalog_module(fam).excluded_primes() == want


class TestIntRep:
    def test_shape_validation(self, kronecker):
        with pytest.raises(DimensionMismatch):
            IntRep(kronecker, (1, 1), (((1,),),))  # one matrix missing
        with pytest.raises(DimensionMismatch):
            IntRep(kronecker, (1, 1), (((1, 1),), ((1,),)))  # wrong width

    def test_record_semantics(self, kronecker):
        mats = (((1,),), ((2,),))
        rep = IntRep(kronecker, (1, 1), mats, "A")
        by_keyword = IntRep(matrices=mats, dim=[1, 1], quiver=kronecker, label="B")
        assert by_keyword.dim == (1, 1) and IntRep(kronecker, (1, 1), mats).label == ""
        # the label names the module and does not enter equality or hashing
        assert rep == by_keyword and hash(rep) == hash(by_keyword)
        assert {rep: 1}[by_keyword] == 1
        assert rep != IntRep(kronecker, (1, 1), (((1,),), ((3,),)))
        assert rep != IntRep(kronecker.opposite(), (1, 1), mats)
        assert repr(rep) == f"IntRep(quiver={kronecker!r}, dim=(1, 1), matrices={mats!r}, label='A')"
        for name in ("quiver", "dim", "matrices", "label"):
            with pytest.raises(AttributeError):
                setattr(rep, name, None)
        assert rep.label == "A" and hash(rep) == hash(by_keyword)
        again = pickle.loads(pickle.dumps(rep))
        assert again == rep and again.label == "A" and copy.copy(rep) == rep

    def test_direct_sum_block_structure(self):
        a = catalog_module(homogeneous(1, 1))
        b = catalog_module(homogeneous(1, 2))
        s = direct_sum(a, b)
        assert s.dim == (2, 2)
        assert s.matrices[1] == ((1, 0), (0, 2))

    def test_direct_sum_with_zero(self, kronecker):
        a = catalog_module(preprojective(1))
        z = zero_rep(kronecker)
        s = direct_sum(a, z)
        assert s.dim == a.dim
        assert s.matrices == a.matrices

    def test_quiver_mismatch(self, affine_a2):
        with pytest.raises(QuiverMismatch):
            direct_sum(catalog_module(homogeneous(1, 1)), zero_rep(affine_a2))

    def test_dual_is_involutive(self):
        rep = catalog_module(a21_tube(1, 2))
        back = dual_rep(dual_rep(rep))
        assert back.dim == rep.dim
        assert back.matrices == rep.matrices
        assert back.quiver.arrows == rep.quiver.arrows


class TestJson:
    def test_quiver_round_trip(self, kronecker):
        obj = kronecker.to_json_obj()
        assert quiver_from_json(obj) == kronecker

    def test_module_family_json(self):
        rep = module_from_json({"family": "kronecker_homogeneous", "params": {"n": 2, "point": 1}})
        assert rep == catalog_module(homogeneous(2, 1))

    @pytest.mark.parametrize(
        "family, params, want",
        [
            ("kronecker_homogeneous", {"n": 2, "lam": 3}, homogeneous(2, 3)),
            ("affineA21_homogeneous", {"lambda": -2}, a21_homogeneous(1, -2)),
            ("kronecker_preprojective", {"k": 2}, preprojective(2)),
            ("kronecker_preinjective", {"k": 0}, preinjective(0)),
            ("affineA21_tube", {"n": 3}, a21_tube(1, 3)),
            ("affineA21_tube", {"index": 2, "n": 3}, a21_tube(2, 3)),
        ],
    )
    def test_each_family_reads_its_own_params(self, family, params, want):
        rep = module_from_json({"family": family, "params": params})
        assert rep == catalog_module(want)
        assert rep.label == want.describe()

    def test_module_explicit_json(self, kronecker):
        obj = {
            "quiver": kronecker.to_json_obj(),
            "dim": {"1": 1, "2": 1},
            "matrices": {"0": [[1]], "1": [[1]]},
        }
        rep = module_from_json(obj)
        assert rep.dim == (1, 1)

    def test_malformed_module(self):
        with pytest.raises(InvalidArgument):
            module_from_json({"dim": {"1": 1}})

    @pytest.mark.parametrize(
        "obj, problem",
        [
            ({"family": "kronecker_preprojective", "parms": {"k": 2}}, "unknown key 'parms'"),
            ({"family": "kronecker_preprojective", "label": "P"}, "unknown key 'label'"),
            (
                {"dim": {"1": 1, "2": 1}, "matrices": {"0": [[1]], "1": [[1]]}, "spectrm": [1]},
                "unknown key 'spectrm'",
            ),
            (
                {"dim": {"1": 1, "2": 1}, "matrices": {"0": [[1]], "1": [[1]]}, "spectrum": "ab"},
                "unknown key 'spectrum'",
            ),
            (
                {"dim": {"1": 1, "2": 1, "3": 0}, "matrices": {"0": [[1]], "1": [[1]]}},
                "unknown dim key '3'",
            ),
            (
                {"dim": {"1": 1, "2": 1}, "matrices": {"0": [[1]], "1": [[1]], "7": [[1]]}},
                "unknown matrices key '7'",
            ),
            (
                {"family": "affineA21_tube", "params": {"n": 2, "lam": 1}},
                "affineA21_tube does not read params key 'lam'",
            ),
        ],
    )
    def test_unread_keys_refused(self, kronecker, obj, problem):
        with pytest.raises(InvalidArgument) as info:
            module_from_json(obj, kronecker if "dim" in obj else None)
        assert str(info.value) == f"malformed module JSON: {problem}"

    @pytest.mark.parametrize(
        "obj, field",
        [
            ({"family": "kronecker_homogeneous", "params": {"n": "x"}}, "params.n"),
            ({"family": "kronecker_homogeneous", "params": {"n": 2.7}}, "params.n"),
            ({"family": "kronecker_homogeneous", "params": {"n": 2, "point": True}}, "params.point"),
            ({"dim": {"1": 1, "2": 1.0}, "matrices": {"0": [[1]], "1": [[1]]}}, "dim.2"),
            ({"dim": {"1": 1, "2": 1}, "matrices": {"0": [[1.9]], "1": [[1]]}}, "matrices.0"),
            ({"dim": {"1": 1, "2": 1}, "matrices": {"0": [[1]], "1": [["1"]]}}, "matrices.1"),
        ],
    )
    def test_non_integer_numbers_refused(self, kronecker, obj, field):
        with pytest.raises(InvalidArgument, match=field):
            module_from_json(obj, kronecker)
