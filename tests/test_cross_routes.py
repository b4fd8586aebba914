"""The independent routes to a catalog member's character agree on drawn
members: the F_q walk (``cluster_char``), the Chebyshev assembly from the
quasi-composition factors, and seed mutation for the rigid members."""

import functools

from hypothesis import given, settings
from hypothesis import strategies as st

from clusterchar.character import cf_cluster_char, char_via_chebyshev, cluster_char
from clusterchar.mutation import cluster_variables_up_to
from clusterchar.quiver import (
    a21_homogeneous,
    a21_tube,
    affine_a2_quiver,
    catalog_module,
    homogeneous,
    kronecker_quiver,
    preinjective,
    preprojective,
    quasi_factors,
)


def _assembled(fam):
    parts = [(catalog_module(g).dim, cluster_char(catalog_module(g))) for g in quasi_factors(fam)]
    return char_via_chebyshev(parts, fam.n)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([homogeneous, a21_homogeneous]), st.integers(1, 3), st.integers(-12, 12))
def test_homogeneous_members_assemble_and_ignore_the_point(family, n, point):
    fam = family(n, point)
    char = cluster_char(catalog_module(fam))
    assert char == _assembled(fam)
    assert char == cluster_char(catalog_module(family(n, 1)))


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([1, 2]), st.integers(1, 4))
def test_rank2_tube_members_assemble(index, n):
    fam = a21_tube(index, n)
    assert cluster_char(catalog_module(fam)) == _assembled(fam)


@functools.lru_cache(maxsize=None)
def _variables(quiver, depth, principal):
    return frozenset(cluster_variables_up_to(quiver, depth, principal))


# each rigid member with its quiver and a mutation depth that reaches it
RIGID = [(kronecker_quiver(), 3, family(k)) for family in (preprojective, preinjective) for k in range(3)]
RIGID += [(affine_a2_quiver(), 6, a21_tube(index, 1)) for index in (1, 2)]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(RIGID), st.booleans())
def test_rigid_members_are_cluster_variables(drawn, principal):
    quiver, depth, fam = drawn
    char = cluster_char if principal else cf_cluster_char
    assert char(catalog_module(fam)) in _variables(quiver, depth, principal)
