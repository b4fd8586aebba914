"""Copy and pickle of the public records: each round trip gives an equal
record with the same hash and repr, whose fields are still read-only."""

import copy
import pickle

import pytest

from clusterchar import grassmannian as gr
from clusterchar.bases import basis_element
from clusterchar.chebyshev import ChebWindow
from clusterchar.errors import CheckLine
from clusterchar.mutation import Seed, initial_seed
from clusterchar.quiver import (
    IntRep,
    a21_tube,
    affine_a2_quiver,
    catalog_module,
    homogeneous,
    kronecker_quiver,
)


def _seed():
    start = initial_seed(kronecker_quiver())
    return Seed(start.exchange_matrix, start.cluster, depth=3)


# each record with fields that equality ignores set away from their defaults
RECORDS = {
    "Quiver": (affine_a2_quiver, ("vertices", "arrows")),
    "IntRep": (
        lambda: IntRep(kronecker_quiver(), (1, 1), (((1,),), ((2,),)), label="A"),
        ("quiver", "dim", "matrices", "label"),
    ),
    "ModuleFamily": (lambda: a21_tube(2, 3), ("family", "n", "point", "index")),
    "CountProfile": (
        lambda: gr.profile(catalog_module(homogeneous(2, 0)), (0, 1)),
        ("rep", "e", "samples", "coefficients", "chi"),
    ),
    "ChebWindow": (lambda: ChebWindow(2, 3), ("start", "length")),
    "Seed": (_seed, ("exchange_matrix", "cluster", "depth")),
    "BasisElement": (
        lambda: basis_element("C", 1, affine_a2_quiver(), a21_tube(1, 1)),
        ("kind", "n", "regular_part", "value"),
    ),
    "CheckLine": (lambda: CheckLine("S_2(X_delta)", False, "-6"), ("label", "passed", "detail")),
}

ROUND_TRIPS = {
    "pickle": lambda obj: pickle.loads(pickle.dumps(obj)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


@pytest.mark.parametrize("trip", ROUND_TRIPS)
@pytest.mark.parametrize("name", RECORDS)
def test_round_trip(name, trip):
    build, fields = RECORDS[name]
    obj = build()
    again = ROUND_TRIPS[trip](obj)
    assert type(again).__name__ == name
    assert again == obj and hash(again) == hash(obj) and repr(again) == repr(obj)
    for field in fields:
        assert getattr(again, field) == getattr(obj, field)
        with pytest.raises(AttributeError, match=f"{name}.{field} is read-only"):
            setattr(again, field, None)
        with pytest.raises(AttributeError, match=f"{name}.{field} is read-only"):
            delattr(again, field)
