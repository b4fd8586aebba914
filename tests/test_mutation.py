from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterchar.character import cf_cluster_char, cluster_char
from clusterchar import mutation
from clusterchar.errors import IdentityFailed, InvalidArgument
from clusterchar.laurent import Family, LaurentPoly, x, xid, y, yid
from clusterchar.mutation import (
    Seed,
    cluster_variables_up_to,
    initial_seed,
    mutate,
    seeds_up_to,
)
from clusterchar.quiver import (
    Quiver,
    affine_a2_quiver,
    catalog_module,
    kronecker_quiver,
    preinjective,
    preprojective,
)


class TestInitialSeed:
    def test_kronecker_matrix(self, kronecker):
        seed = initial_seed(kronecker, principal=True)
        assert seed.exchange_matrix[: seed.rank] == ((0, 2), (-2, 0))
        assert seed.exchange_matrix[seed.rank :] == ((1, 0), (0, 1))

    def test_cluster_is_initial_variables(self, kronecker):
        seed = initial_seed(kronecker, principal=False)
        assert seed.cluster == (x(1), x(2))
        assert seed.exchange_matrix == ((0, 2), (-2, 0))

    def test_affine_a2_matrix(self, affine_a2):
        seed = initial_seed(affine_a2, principal=False)
        assert seed.exchange_matrix == ((0, 1, 1), (-1, 0, 1), (-1, -1, 0))

    def test_record_semantics(self, kronecker):
        start = initial_seed(kronecker)
        deeper = Seed(cluster=start.cluster, exchange_matrix=start.exchange_matrix, depth=3)
        assert start.depth == 0 and deeper.depth == 3
        # depth counts mutations and does not enter equality or hashing
        assert deeper == start and hash(deeper) == hash(start)
        assert mutate(mutate(start, 0), 0) == start and mutate(start, 0) != start
        assert repr(start) == (
            f"Seed(exchange_matrix={start.exchange_matrix!r}, cluster={start.cluster!r}, depth=0)"
        )
        for name in ("exchange_matrix", "cluster", "depth"):
            with pytest.raises(AttributeError):
                setattr(start, name, None)
        with pytest.raises(ValueError, match="skew-symmetric"):
            Seed(((0, 1), (1, 0)), start.cluster)


class TestExchange:
    def test_first_exchange_coefficient_free(self, kronecker):
        seed = mutate(initial_seed(kronecker, principal=False), 0)
        assert seed.cluster[0] == (x(2) ** 2 + 1).exact_div(x(1))

    def test_first_exchange_principal(self, kronecker):
        seed = mutate(initial_seed(kronecker, principal=True), 0)
        assert seed.cluster[0] == (y(1) * x(2) ** 2 + 1).exact_div(x(1))

    def test_involution(self, kronecker):
        seed = initial_seed(kronecker, principal=True)
        assert mutate(mutate(seed, 0), 0) == seed
        assert mutate(mutate(seed, 1), 1) == seed

    @given(seq=st.lists(st.integers(0, 2), max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_involution_along_orbits(self, seq):
        seed = initial_seed(affine_a2_quiver(), principal=True)
        for k in seq:
            seed = mutate(seed, k)
        for k in (0, 1, 2):
            assert mutate(mutate(seed, k), k) == seed

    def test_out_of_range(self, kronecker):
        with pytest.raises(IndexError):
            mutate(initial_seed(kronecker, principal=False), 5)


class TestLaurentPhenomenon:
    @pytest.mark.parametrize("principal", [False, True])
    def test_kronecker_depth_six(self, kronecker, principal):
        for v in cluster_variables_up_to(kronecker, 6, principal=principal):
            assert v.min_family_exponent(Family.Y) >= 0
            assert v.is_subtraction_free()

    @pytest.mark.parametrize("principal", [False, True])
    def test_affine_a2_depth_six(self, affine_a2, principal):
        for v in cluster_variables_up_to(affine_a2, 6, principal=principal):
            assert v.min_family_exponent(Family.Y) >= 0
            assert v.is_subtraction_free()


class TestVariableSets:
    def test_depth_zero(self, kronecker):
        assert cluster_variables_up_to(kronecker, 0) == [x(1), x(2)]

    def test_depth_one_kronecker(self, kronecker):
        got = cluster_variables_up_to(kronecker, 1, principal=False)
        assert (x(2) ** 2 + 1).exact_div(x(1)) in got
        assert (x(1) ** 2 + 1).exact_div(x(2)) in got
        assert len(got) == 4

    def test_deduplication_by_polynomial(self, kronecker):
        # depth-2 sequences revisit seeds; variables must not repeat
        got = cluster_variables_up_to(kronecker, 3, principal=False)
        assert len(got) == len(set(got))

    def test_seed_iteration_is_deterministic(self, affine_a2):
        a = [s.cluster for s in seeds_up_to(affine_a2, 3, principal=False)]
        b = [s.cluster for s in seeds_up_to(affine_a2, 3, principal=False)]
        assert a == b


class TestCharacterAgreement:
    def test_coefficient_free_first_six(self, kronecker):
        variables = set(cluster_variables_up_to(kronecker, 3, principal=False))
        for k in range(3):
            assert cf_cluster_char(catalog_module(preprojective(k))) in variables
            assert cf_cluster_char(catalog_module(preinjective(k))) in variables

    def test_principal_first_four(self, kronecker):
        variables = set(cluster_variables_up_to(kronecker, 2, principal=True))
        for k in range(2):
            assert cluster_char(catalog_module(preprojective(k))) in variables
            assert cluster_char(catalog_module(preinjective(k))) in variables


# An estimate of an exchange's cost, |x_k| times the term-count bound of
# each side's product, above which the reference search stops.  Quivers
# with double arrows are wild from rank 3 on, and their depth-4 variables
# reach tens of thousands of terms.
EXCHANGE_BUDGET = 4000


def _exchange_estimate(seed, k):
    m = seed.rank
    sides = [1, 1]
    for i in range(m):
        b = seed.exchange_matrix[i][k]
        if b:
            sides[b > 0] *= len(seed.cluster[i]) ** abs(b)
    return len(seed.cluster[k]) * sum(sides)


def _reference_seeds(quiver, depth, principal):
    """The breadth-first search of ``seeds_up_to`` written out, calling
    ``mutate`` with no memo.  Returns the seeds and whether the search
    finished: it stops before an exchange over EXCHANGE_BUDGET."""
    start = initial_seed(quiver, principal)
    out = [start]
    seen = {(start.exchange_matrix, start.cluster)}
    frontier = [(start, -1)]
    for _ in range(depth):
        next_frontier = []
        for seed, last in frontier:
            for k in range(seed.rank):
                if k == last:
                    continue
                if _exchange_estimate(seed, k) > EXCHANGE_BUDGET:
                    return out, False
                child = mutate(seed, k)
                key = (child.exchange_matrix, child.cluster)
                if key not in seen:
                    seen.add(key)
                    out.append(child)
                    next_frontier.append((child, k))
        frontier = next_frontier
    return out, True


def _rows(seeds):
    return [(s.exchange_matrix, s.cluster, s.depth) for s in seeds]


@st.composite
def acyclic_quivers(draw):
    """Connected acyclic quivers of rank 2-4, each arrow of multiplicity
    at most 2, oriented along a random order of the vertices."""
    n = draw(st.integers(2, 4))
    mult = {}
    for j in range(1, n):  # a tree of arrows keeps the quiver connected
        mult[draw(st.integers(0, j - 1)), j] = draw(st.integers(1, 2))
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in mult:
                mult[i, j] = draw(st.integers(0, 2))
    order = draw(st.permutations(range(n)))
    vertices = tuple(str(v + 1) for v in range(n))
    arrows = []
    for (i, j), k in sorted(mult.items()):
        src, tgt = (i, j) if order.index(i) < order.index(j) else (j, i)
        arrows += [(vertices[src], vertices[tgt])] * k
    return Quiver(vertices, tuple(arrows))


class TestExchangeMemo:
    """``seeds_up_to`` computes each exchange once; the seeds it yields are
    those of a search that computes every exchange."""

    @pytest.mark.parametrize("name", ["kronecker", "affineA2"])
    @pytest.mark.parametrize("principal", [False, True])
    def test_catalog_quivers_depth_five(self, name, principal):
        quiver = kronecker_quiver() if name == "kronecker" else affine_a2_quiver()
        want, finished = _reference_seeds(quiver, 5, principal)
        assert finished
        assert _rows(seeds_up_to(quiver, 5, principal)) == _rows(want)

    @given(quiver=acyclic_quivers(), depth=st.integers(0, 5), principal=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_random_acyclic_quivers(self, quiver, depth, principal):
        want, finished = _reference_seeds(quiver, depth, principal)
        got = seeds_up_to(quiver, depth, principal)
        if finished:
            assert _rows(got) == _rows(want)
        else:  # the same prefix, in the same order
            assert _rows(islice(got, len(want))) == _rows(want)



def _binomial_by_rows(seed, k):
    """The exchange binomial at k with each side built row by row as
    {factor: exponent}: x_i joins P when b_ik > 0 and N when b_ik < 0, and
    y_j the other way round, N when c_jk > 0 and P when c_jk < 0."""
    m = seed.rank
    pos, neg = {}, {}
    for i in range(m):
        bik = seed.exchange_matrix[i][k]
        if bik:
            side = pos if bik > 0 else neg
            side[seed.cluster[i]] = side.get(seed.cluster[i], 0) + abs(bik)
    for j, row in enumerate(seed.exchange_matrix[m:]):
        if row[k]:
            side = neg if row[k] > 0 else pos
            side[y(j + 1)] = side.get(y(j + 1), 0) + abs(row[k])
    products = []
    for side in (pos, neg):
        out = LaurentPoly.one()
        for f, e in side.items():
            out = out * f ** e
        products.append(out)
    return products[0] + products[1]


class TestExchangeBinomial:
    """Each exchange x_k * x_k' is the binomial whose sides are built row
    by row from [B; C], along random mutation sequences."""

    @given(
        quiver=acyclic_quivers(),
        principal=st.booleans(),
        seq=st.lists(st.integers(0, 3), max_size=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_product_is_the_row_by_row_binomial(self, quiver, principal, seq):
        seed = initial_seed(quiver, principal)
        for k in seq:
            k %= seed.rank
            if _exchange_estimate(seed, k) > EXCHANGE_BUDGET:
                break
            child = mutate(seed, k)
            assert child.cluster[k] * seed.cluster[k] == _binomial_by_rows(seed, k)
            seed = child

    @pytest.mark.parametrize("name, depth", [("affineA2", 4), ("double-arrows", 2)])
    @pytest.mark.parametrize("principal", [False, True])
    def test_every_seed_of_a_search(self, name, depth, principal):
        quiver = affine_a2_quiver() if name == "affineA2" else DOUBLE_ARROWS
        weights = set()
        for seed in seeds_up_to(quiver, depth, principal):
            for k in range(seed.rank):
                weights.update(row[k] for row in seed.exchange_matrix)
                assert mutate(seed, k).cluster[k] * seed.cluster[k] == _binomial_by_rows(seed, k)
        if name == "double-arrows":
            assert {2, -2} <= weights


# The rank-3 wild quiver with two arrows on each of 1->2, 1->3 and 2->3.
DOUBLE_ARROWS = Quiver(("1", "2", "3"), (("1", "2"),) * 2 + (("1", "3"),) * 2 + (("2", "3"),) * 2)


def _homogeneous_degree(v, b0):
    """The one degree of every term of v under deg x_i = e_i and
    deg y_j = column j of b0, or None if the terms differ in degree."""
    m = len(b0)
    degrees = {
        tuple(
            mono.exponent(xid(r + 1)) + sum(mono.exponent(yid(j + 1)) * b0[r][j] for j in range(m))
            for r in range(m)
        )
        for mono, _ in v.terms()
    }
    return degrees.pop() if len(degrees) == 1 else None


# The three searches of the benchmark's mutation-bfs workload.
WORKLOAD_SEARCHES = [
    ("affineA2", 8, True, 30),
    ("affineA2", 8, False, 30),
    ("kronecker", 16, True, 32),
]


class TestGVectorMemo:
    """``seeds_up_to`` keys its memo by g-vector: each distinct cluster
    variable is computed once, by one exact division."""

    @pytest.mark.parametrize("name, depth, principal, divisions", WORKLOAD_SEARCHES)
    def test_one_division_per_new_variable(self, monkeypatch, name, depth, principal, divisions):
        calls = []
        divide = LaurentPoly.exact_div
        monkeypatch.setattr(LaurentPoly, "exact_div", lambda f, d: calls.append(d) or divide(f, d))
        quiver = kronecker_quiver() if name == "kronecker" else affine_a2_quiver()
        found = cluster_variables_up_to(quiver, depth, principal)
        assert len(calls) == divisions == len(found) - len(set(found) & set(x(i) for i in (1, 2, 3)))

    @pytest.mark.parametrize("principal", [False, True])
    def test_equal_variables_are_one_object(self, principal):
        seeds = list(seeds_up_to(affine_a2_quiver(), 6, principal))
        variables = [v for s in seeds for v in s.cluster]
        assert len({id(v) for v in variables}) == len(set(variables))

    @pytest.mark.parametrize("name", ["kronecker", "affineA2"])
    def test_principal_variables_are_homogeneous_of_their_g_vector(self, monkeypatch, name):
        # Record the g-vector of each exchange that divides and the variable
        # it made; the search reuses that variable for the same g-vector.
        quiver = kronecker_quiver() if name == "kronecker" else affine_a2_quiver()
        b0 = initial_seed(quiver).exchange_matrix[: len(quiver.vertices)]
        made, last = [], []
        g_vector, step = mutation._g_vector, mutation.mutate

        def record_g(seed, c_rows, g, y_degrees, k):
            last[:] = [g_vector(seed, c_rows, g, y_degrees, k)]
            return last[0]

        def record_step(seed, k):
            child = step(seed, k)
            made.append((last[0], child.cluster[k]))
            return child

        monkeypatch.setattr(mutation, "_g_vector", record_g)
        monkeypatch.setattr(mutation, "mutate", record_step)
        for seed in seeds_up_to(quiver, 6, principal=True):
            assert all(_homogeneous_degree(v, b0) is not None for v in seed.cluster)
        assert made and all(_homogeneous_degree(v, b0) == g for g, v in made)
        by_g = {}
        for g, v in made:  # DWZ: one variable per g-vector, and conversely
            assert by_g.setdefault(g, v) == v
        assert len(set(by_g.values())) == len(by_g)

    def test_inhomogeneous_exchange_is_refused(self):
        # Coefficient rows -I instead of I put each y on the wrong side of
        # the binomial; the first exchange's sides then differ in degree.
        seed = initial_seed(kronecker_quiver(), principal=True)
        flipped = Seed(seed.exchange_matrix[:2] + ((-1, 0), (0, -1)), seed.cluster)
        search = mutation._breadth_first(flipped, 1)
        assert next(search) == flipped
        with pytest.raises(
            IdentityFailed,
            match=r"^exchange at x1 of a seed at depth 0: its sides have degrees \(0, -2\) and \(0, 2\)$",
        ):
            next(search)


class TestNegativeDepth:
    def test_seeds_up_to_refuses(self, affine_a2):
        with pytest.raises(InvalidArgument, match=r"^depth must be >= 0, got -3$"):
            seeds_up_to(affine_a2, -3)

    def test_cluster_variables_up_to_refuses(self, kronecker):
        with pytest.raises(InvalidArgument, match=r"^depth must be >= 0, got -1$"):
            cluster_variables_up_to(kronecker, -1)
