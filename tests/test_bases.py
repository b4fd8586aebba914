import pytest

from clusterchar.bases import (
    BasisElement,
    basis_element,
    cluster_monomials,
    power_in_second_kind,
    verify_positivity,
    x_delta,
)
from clusterchar.character import cf_cluster_char
from clusterchar.chebyshev import (
    cheb_first_kind,
    cheb_second_kind,
    delta_values,
    s_from_f,
)
from clusterchar.errors import InvalidArgument, UnsupportedQuiver
from clusterchar.laurent import LaurentPoly, x, z, zid
from clusterchar.quiver import (
    Quiver,
    a21_homogeneous,
    a21_tube,
    catalog_module,
    homogeneous,
    regular_rigid_catalog,
)


class TestXDelta:
    def test_kronecker_value(self, kronecker):
        want = x(1) * x(2).inverse() + x(1).inverse() * x(2).inverse() + x(1).inverse() * x(2)
        assert x_delta(kronecker) == want

    def test_point_independence(self, kronecker, affine_a2):
        assert x_delta(kronecker) == cf_cluster_char(catalog_module(homogeneous(1, 2)))
        assert x_delta(affine_a2) == cf_cluster_char(catalog_module(a21_homogeneous(1, 2)))

    def test_affine_a2_dim_is_null_root(self):
        assert catalog_module(a21_homogeneous(1, 1)).dim == (1, 1, 1)

    def test_unsupported_quiver(self):
        q = Quiver(("a", "b"), (("a", "b"),))
        with pytest.raises(UnsupportedQuiver):
            x_delta(q)
        with pytest.raises(UnsupportedQuiver):
            regular_rigid_catalog(q)


class TestBasisElements:
    def test_kind_c_n1_is_x_delta(self, kronecker):
        elem = basis_element("C", 1, kronecker)
        assert elem.value == x_delta(kronecker)

    def test_kind_b_n2(self, kronecker):
        elem = basis_element("B", 2, kronecker)
        assert elem.value == x_delta(kronecker) ** 2 - 2

    def test_kind_g_matches_c_combination(self, kronecker):
        xd = x_delta(kronecker)
        coeffs = power_in_second_kind(2)
        combo = LaurentPoly.zero()
        for k, c in enumerate(coeffs):
            combo = combo + c * cheb_second_kind(k).substitute({zid(): xd})
        assert basis_element("G", 2, kronecker).value == combo

    def test_regular_part_multiplies(self, affine_a2):
        reg = a21_tube(1, 1)
        elem = basis_element("C", 1, affine_a2, reg)
        assert elem.value == x_delta(affine_a2) * cf_cluster_char(catalog_module(reg))

    def test_record_semantics(self, affine_a2):
        reg = a21_tube(1, 1)
        elem = basis_element("C", 1, affine_a2, reg)
        by_keyword = BasisElement(value=elem.value, regular_part=a21_tube(1, 1), n=1, kind="C")
        assert (elem.kind, elem.n, elem.regular_part) == ("C", 1, reg)
        assert elem == by_keyword == BasisElement("C", 1, reg, elem.value)
        assert hash(elem) == hash(by_keyword)
        assert elem != BasisElement("B", 1, reg, elem.value) and elem != basis_element("C", 1, affine_a2)
        assert repr(elem) == f"BasisElement(kind='C', n=1, regular_part={reg!r}, value={elem.value!r})"
        for name in ("kind", "n", "regular_part", "value"):
            with pytest.raises(AttributeError):
                setattr(elem, name, None)
        assert elem.describe() == "S_1(X_delta) * X[affineA21_tube(index=1, n=1)]"

    def test_bad_kind(self, kronecker):
        with pytest.raises(InvalidArgument):
            basis_element("Z", 1, kronecker)


class TestTriangularity:
    @pytest.mark.parametrize("n", range(0, 9))
    def test_powers_into_second_kind(self, n):
        coeffs = power_in_second_kind(n)
        assert all(c >= 0 for c in coeffs)
        combo = LaurentPoly.zero()
        for k, c in enumerate(coeffs):
            combo = combo + c * cheb_second_kind(k)
        assert combo == z() ** n

    @pytest.mark.parametrize("n", range(0, 9))
    def test_second_kind_into_first_kind(self, n):
        combo = LaurentPoly.zero()
        for idx, mult in s_from_f(n):
            assert mult >= 0
            part = LaurentPoly.one() if idx == -1 else cheb_first_kind(idx)
            combo = combo + mult * part
        assert combo == cheb_second_kind(n)


class TestHomogeneousTubeIdentities:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_quasi_length_is_second_kind(self, kronecker, n):
        lhs = cf_cluster_char(catalog_module(homogeneous(n, 1)))
        rhs = cheb_second_kind(n).substitute({zid(): x_delta(kronecker)})
        assert lhs == rhs

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_first_kind_positive_kronecker(self, kronecker, n):
        val = cheb_first_kind(n).substitute({zid(): x_delta(kronecker)})
        assert val.is_subtraction_free()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_first_kind_equals_delta_route(self, affine_a2, n):
        """F_n at the homogeneous character equals the coefficient-free
        delta-polynomial evaluated along the rank-2 exceptional tube."""
        lhs = cheb_first_kind(n).substitute({zid(): x_delta(affine_a2)})
        xr = [
            cf_cluster_char(catalog_module(a21_tube(1, 1))),
            cf_cluster_char(catalog_module(a21_tube(2, 1))),
        ]
        args_t = [xr[i % 2] for i in range(2 * n)]
        ones = [LaurentPoly.one()] * (2 * n)
        assert lhs == delta_values(n, 2, ones, args_t)


class TestPositivityCheckLines:
    @pytest.mark.parametrize("kind", ["B", "C", "G"])
    def test_kronecker_all_positive(self, kronecker, kind):
        lines = verify_positivity(kind, 4, kronecker)
        assert all(line.passed for line in lines)
        assert len(lines) > 4

    @pytest.mark.parametrize("kind", ["B", "C", "G"])
    def test_affine_a2_all_positive(self, affine_a2, kind):
        lines = verify_positivity(kind, 3, affine_a2)
        assert all(line.passed for line in lines)
        # regular rigid stratum present: None, R1, R2 for each n
        assert sum(1 for l in lines if "X[" in l.label) >= 6

    def test_cluster_monomials_positive(self, kronecker):
        monos = cluster_monomials(kronecker, 4)
        assert len(monos) > 10
        assert all(m.is_subtraction_free() for m in monos)
