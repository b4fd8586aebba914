"""Quivers, dimension vectors, integer-matrix representations, and the
catalog of module families used as concrete test subjects.

Representations carry plain integer matrices and are reduced mod p on
demand, so a single object serves every prime during point counting.  The
primes a module excludes are read off its matrices, not declared; this
module picks the matrices, and ``linalg`` finds their primes.
The Auslander-Reiten translate is not implemented as a functor; tube
families expose it combinatorially (an index shift mod the tube's rank).

Each catalog family is one entry of ``_CATALOG`` (its quiver, the fields it
reads, its label, its matrices and its tube's rank), and whatever differs
between families reads the entry, so a new family is one entry.  Transient
and exceptional tube members are string modules, built by ``_string``.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence

from .errors import (
    DimensionMismatch, InvalidArgument, InvalidParams, QuiverMismatch, Record, UnsupportedQuiver,
)
from .linalg import IntMatrix, _Pencil, _diagonal_entries, _end_matrix, _matmul, _prime_factors

__all__ = [
    "DimVector",
    "Quiver",
    "IntRep",
    "ModuleFamily",
    "euler_form",
    "unit_vector",
    "catalog_module",
    "tau_translate",
    "quasi_factors",
    "direct_sum",
    "dual_rep",
    "zero_rep",
    "kronecker_quiver",
    "affine_a2_quiver",
    "quiver_by_name",
    "quiver_from_json",
    "module_from_json",
    "desk_affine_catalog",
    "desk_tube_catalog",
    "regular_rigid_catalog",
    "homogeneous",
    "preprojective",
    "preinjective",
    "a21_tube",
    "a21_homogeneous",
]

DimVector = tuple[int, ...]


class Quiver(Record):
    """A finite connected acyclic quiver without loops.

    ``vertices`` is an ordered tuple of vertex ids; position in the tuple
    fixes the variable index used by characters (vertex at position i-1
    pairs with x_i and y_i).
    """

    _fields = ("vertices", "arrows")
    _compared = 2

    def __init__(self, vertices: tuple[str, ...], arrows: tuple[tuple[str, str], ...]) -> None:
        self.__dict__.update(vertices=vertices, arrows=arrows)
        if not vertices:
            raise InvalidArgument("quiver needs at least one vertex")
        if len(set(vertices)) != len(vertices):
            raise InvalidArgument("duplicate vertex ids")
        idx = {v: i for i, v in enumerate(vertices)}
        for s, t in arrows:
            if s not in idx or t not in idx:
                raise InvalidArgument(f"arrow ({s}, {t}) references unknown vertex")
            if s == t:
                raise InvalidArgument(f"loop at vertex {s}")
        self._check_acyclic()
        self._check_connected(idx)

    def _check_acyclic(self) -> None:
        if len(self.topological_order()) != len(self.vertices):
            raise InvalidArgument("quiver has a directed cycle")

    def _check_connected(self, idx: dict[str, int]) -> None:
        m = len(self.vertices)
        if m == 1:
            return
        adj: list[set[int]] = [set() for _ in range(m)]
        for s, t in self.arrows:
            adj[idx[s]].add(idx[t])
            adj[idx[t]].add(idx[s])
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != m:
            raise InvalidArgument("quiver is not connected")

    def index(self, vertex: str) -> int:
        return self.vertices.index(vertex)

    def arrow_indices(self) -> tuple[tuple[int, int], ...]:
        return self._arrow_indices

    def topological_order(self) -> tuple[int, ...]:
        return self._topological_order

    # computed once per quiver, kept outside the fields that equality and
    # hashing read
    @functools.cached_property
    def _arrow_indices(self) -> tuple[tuple[int, int], ...]:
        idx = {v: i for i, v in enumerate(self.vertices)}
        return tuple((idx[s], idx[t]) for s, t in self.arrows)

    @functools.cached_property
    def _topological_order(self) -> tuple[int, ...]:
        m = len(self.vertices)
        pairs = self.arrow_indices()
        indeg = [0] * m
        outs: list[list[int]] = [[] for _ in range(m)]
        for s, t in pairs:
            outs[s].append(t)
            indeg[t] += 1
        order: list[int] = []
        avail = sorted(i for i in range(m) if indeg[i] == 0)
        while avail:
            v = avail.pop(0)
            order.append(v)
            for w in outs[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    avail.append(w)
            avail.sort()
        return tuple(order)

    def opposite(self) -> "Quiver":
        return Quiver(self.vertices, tuple((t, s) for s, t in self.arrows))

    def to_json_obj(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "arrows": [{"src": s, "tgt": t} for s, t in self.arrows],
        }


def euler_form(quiver: Quiver, d: Sequence[int], e: Sequence[int]) -> int:
    """<d, e> = sum_i d_i e_i - sum_{a: i->j} d_i e_j."""
    m = len(quiver.vertices)
    if len(d) != m or len(e) != m:
        raise DimensionMismatch(
            f"dimension vectors must have {m} entries, got {len(d)} and {len(e)}"
        )
    val = sum(di * ei for di, ei in zip(d, e))
    for s, t in quiver.arrow_indices():
        val -= d[s] * e[t]
    return val


def unit_vector(quiver: Quiver, i: int) -> DimVector:
    """Dimension vector of the simple module at vertex position i (0-based)."""
    return tuple(1 if j == i else 0 for j in range(len(quiver.vertices)))


def _validate_dim(quiver: Quiver, dim: Sequence[int]) -> DimVector:
    if len(dim) != len(quiver.vertices):
        raise DimensionMismatch(
            f"dimension vector has {len(dim)} entries for {len(quiver.vertices)} vertices"
        )
    if any(d < 0 for d in dim):
        raise DimensionMismatch("dimension entries must be non-negative")
    return tuple(int(d) for d in dim)


class IntRep(Record):
    """A representation by integer matrices, one per arrow, of shape
    dim(target) x dim(source).

    Counting excludes the primes at which the mod-p reduction is a
    different module.  A module whose nonzero arrows are two parallel ones
    s => t, dim s = dim t, is a pencil plus a semisimple module (_pencil).
    When the pencil's form is not 0 and has only rational points, the type
    of its Kronecker canonical form (a Jordan partition at each point) fixes
    it over any field, and with it every count, so it excludes exactly the
    primes at which that type changes.  Every other module excludes the
    primes at which an arrow matrix, a composition along a path, or the map
    whose kernel is End(M) loses rank (so dim End jumps).  That rule is
    necessary, not sufficient; the held-out nodes of interpolation catch
    the rest.

    The label names the module in messages; equality and hashing ignore it.
    """

    _fields = ("quiver", "dim", "matrices", "label")
    _compared = 3

    def __init__(
        self, quiver: Quiver, dim: DimVector, matrices: tuple[IntMatrix, ...], label: str = ""
    ) -> None:
        dim = _validate_dim(quiver, dim)
        self.__dict__.update(quiver=quiver, dim=dim, matrices=matrices, label=label)
        pairs = quiver.arrow_indices()
        if len(matrices) != len(pairs):
            raise DimensionMismatch(
                f"{len(pairs)} arrows but {len(matrices)} matrices"
            )
        for a, ((s, t), mat) in enumerate(zip(pairs, matrices)):
            if len(mat) != dim[t] or any(len(row) != dim[s] for row in mat):
                raise DimensionMismatch(
                    f"matrix {a} must be {dim[t]}x{dim[s]}"
                )

    def __hash__(self) -> int:
        return self._hash

    # every (rep, q) cache lookup of the walk hashes the module
    @functools.cached_property
    def _hash(self) -> int:
        return Record.__hash__(self)

    def __reduce__(self) -> tuple:
        # a copy, or a module unpickled under another hash seed, hashes afresh
        return IntRep, (self.quiver, self.dim, self.matrices, self.label)

    def excluded_primes(self) -> frozenset[int]:
        return self._excluded_primes

    @functools.cached_property
    def _excluded_primes(self) -> frozenset[int]:
        pencil = self._pencil
        if pencil is not None and pencil.rational():
            values = pencil.type_values()
        else:
            values = {v for mat in self._rank_matrices() for v in _diagonal_entries(mat)}
        return frozenset(p for v in values for p in _prime_factors(v))

    @functools.cached_property
    def _pencil(self) -> _Pencil | None:
        """The pencil (linalg._Pencil) of a module whose every nonzero arrow
        matrix is on one pair s => t of exactly two arrows, with dim s = dim
        t: a Kronecker module plus a semisimple one.  None for every other."""
        pairs = self.quiver.arrow_indices()
        live = {arrow for arrow, mat in zip(pairs, self.matrices) if any(map(any, mat))}
        inner = [mat for arrow, mat in zip(pairs, self.matrices) if {arrow} == live]
        if len(inner) != 2 or len(inner[0]) != len(inner[0][0]):  # not square
            return None
        return _Pencil(*inner)

    def _rank_matrices(self) -> Iterator[Sequence[Sequence[int]]]:
        """The matrices whose rank must not drop mod p: every arrow, every
        composition along a path (except through a zero map), and the map
        whose kernel is End(M) (linalg._end_matrix)."""
        pairs = self.quiver.arrow_indices()
        stack = [(t, m) for (_, t), m in zip(pairs, self.matrices)]
        while stack:
            end, mat = stack.pop()
            yield mat
            if any(any(row) for row in mat):
                stack.extend(
                    (t, _matmul(m, mat)) for (s, t), m in zip(pairs, self.matrices) if s == end
                )
        yield _end_matrix(pairs, self.dim, self.matrices)


def _jordan(n: int, lam: int) -> IntMatrix:
    return tuple(
        tuple(lam if i == j else (1 if j == i + 1 else 0) for j in range(n))
        for i in range(n)
    )


def zero_rep(quiver: Quiver) -> IntRep:
    return IntRep(quiver, (0,) * len(quiver.vertices), ((),) * len(quiver.arrows), label="0")


def direct_sum(a: IntRep, b: IntRep) -> IntRep:
    """Block-diagonal sum; dimension vectors add."""
    if a.quiver != b.quiver:
        raise QuiverMismatch("direct sum requires the same quiver")
    dim = tuple(da + db for da, db in zip(a.dim, b.dim))
    pairs = a.quiver.arrow_indices()
    mats = []
    for (s, t), ma, mb in zip(pairs, a.matrices, b.matrices):
        rows = []
        for r in ma:
            rows.append(tuple(r) + (0,) * b.dim[s])
        for r in mb:
            rows.append((0,) * a.dim[s] + tuple(r))
        mats.append(tuple(rows))
    label = f"{a.label or 'M'} + {b.label or 'N'}"
    return IntRep(a.quiver, dim, tuple(mats), label=label)


def dual_rep(rep: IntRep) -> IntRep:
    """Transpose-dual over the opposite quiver.

    Orthogonal complements give a bijection between sub-dimension e of the
    original and sub-dimension dim - e of the dual, so subrepresentation
    counts transfer; counting uses whichever side is cheaper.
    """
    opp = rep.quiver.opposite()
    transposed = []
    pairs = rep.quiver.arrow_indices()
    for (s, t), m in zip(pairs, rep.matrices):
        rows, cols = rep.dim[t], rep.dim[s]
        transposed.append(tuple(tuple(m[i][j] for i in range(rows)) for j in range(cols)))
    return IntRep(opp, rep.dim, tuple(transposed), label=f"dual({rep.label})")


# ---------------------------------------------------------------------------
# catalog


@functools.lru_cache(maxsize=None)
def kronecker_quiver() -> Quiver:
    return Quiver(("1", "2"), (("1", "2"), ("1", "2")))


@functools.lru_cache(maxsize=None)
def affine_a2_quiver() -> Quiver:
    return Quiver(("1", "2", "3"), (("1", "2"), ("2", "3"), ("1", "3")))


def quiver_by_name(name: str) -> Quiver:
    if name == "kronecker":
        return kronecker_quiver()
    if name in ("affineA2", "affine_a2", "a21"):
        return affine_a2_quiver()
    raise InvalidArgument(f"unknown quiver name: {name!r}")


KRONECKER_HOMOGENEOUS = "kronecker_homogeneous"
KRONECKER_PREPROJECTIVE = "kronecker_preprojective"
KRONECKER_PREINJECTIVE = "kronecker_preinjective"
AFFINE_A21_TUBE = "affineA21_tube"
AFFINE_A21_HOMOGENEOUS = "affineA21_homogeneous"

# the ModuleFamily parameters after ``family``, with their defaults
_DEFAULTS = (("n", 1), ("point", 0), ("index", 0))
_PARAMS = tuple(param for param, _ in _DEFAULTS)


class ModuleFamily(Record):
    """A catalog module family plus its parameters: ``n`` is the quasi-length
    (or the preprojective / preinjective step k), ``point`` an integer parameter
    of a homogeneous tube, ``index`` (1 to the tube's rank) the quasi-socle on an
    exceptional tube.  Each family reads the fields its catalog entry names; the
    others must keep their defaults, so two members that build the same module
    are equal."""

    _fields = ("family", "n", "point", "index")
    _compared = 4

    def __init__(self, family: str, n: int = 1, point: int = 0, index: int = 0) -> None:
        entry = _CATALOG.get(family)
        if entry is None:
            raise InvalidParams(f"unknown family {family!r}")
        if entry.tube and n < 1:
            raise InvalidParams("quasi-length must be >= 1")
        if not entry.tube and n < 0:
            raise InvalidParams("preprojective/preinjective step must be >= 0")
        if (r := entry.tube) > 1 and not 1 <= index <= r:
            choices = ", ".join(map(str, range(1, r)))
            raise InvalidParams(f"tube index must be {choices} or {r} on the rank-{r} tube")
        for (param, default), value in zip(_DEFAULTS, (n, point, index)):
            if param not in entry.reads and value != default:
                raise InvalidParams(f"{family} does not read {param}, given {value}")
        self.__dict__.update(family=family, n=n, point=point, index=index)

    def describe(self) -> str:
        return _CATALOG[self.family].label.format(n=self.n, point=self.point, index=self.index)


def homogeneous(n: int, point: int = 1) -> ModuleFamily:
    return ModuleFamily(KRONECKER_HOMOGENEOUS, n=n, point=point)


def preprojective(k: int) -> ModuleFamily:
    return ModuleFamily(KRONECKER_PREPROJECTIVE, n=k)


def preinjective(k: int) -> ModuleFamily:
    return ModuleFamily(KRONECKER_PREINJECTIVE, n=k)


def a21_tube(index: int, n: int) -> ModuleFamily:
    return ModuleFamily(AFFINE_A21_TUBE, n=n, index=index)


def a21_homogeneous(n: int, point: int = 1) -> ModuleFamily:
    return ModuleFamily(AFFINE_A21_HOMOGENEOUS, n=n, point=point)


_Matrices = tuple[DimVector, tuple[IntMatrix, ...]]


def _homogeneous_member(f: ModuleFamily, vertices: int) -> _Matrices:
    """Dimension n at each vertex, the identity on each arrow but the last and
    J_n(point) on the last (both catalog quivers have as many arrows as vertices)."""
    eye = tuple(tuple(int(i == j) for j in range(f.n)) for i in range(f.n))
    return (f.n,) * vertices, (eye,) * (vertices - 1) + (_jordan(f.n, f.point),)


def _string(quiver: Quiver, walk: Sequence[tuple[int, int | None]]) -> _Matrices:
    """The string module with one basis vector per step of ``walk``: a step
    (v, a) puts its vector at vertex position v, and arrow a joins it to the
    next step's vector in the arrow's direction (the last step's arrow is
    not read).  The vectors at a vertex are ordered as the walk meets them."""
    pairs = quiver.arrow_indices()
    dim = [0] * len(quiver.vertices)
    place = []
    for v, _ in walk:
        place.append(dim[v])
        dim[v] += 1
    mats = [[[0] * dim[s] for _ in range(dim[t])] for s, t in pairs]
    for i, (v, a) in enumerate(walk[:-1]):
        src, tgt = (i, i + 1) if pairs[a][0] == v else (i + 1, i)
        mats[a][place[tgt]][place[src]] = 1
    return tuple(dim), tuple(tuple(map(tuple, m)) for m in mats)


def _tube_member(quiver: Quiver, cycle: tuple, f: ModuleFamily) -> _Matrices:
    """The quasi-length-n module with quasi-socle the index-th quasi-simple of
    a tube whose quasi-simples, in tau-inverse order, are the string modules
    of ``cycle``'s walks; each walk's last arrow joins it to the next."""
    r = len(cycle)
    return _string(quiver, [step for j in range(f.n) for step in cycle[(f.index - 1 + j) % r]])


class _Family(namedtuple("_Family", ("quiver", "reads", "label", "member", "tube"))):
    """What the catalog knows of one family:

    - quiver: the Quiver;
    - reads: the ModuleFamily fields it reads;
    - label: describe() format over n, point and index;
    - member: ModuleFamily -> (dim, matrices);
    - tube: the tube's rank, 1 if homogeneous, 0 for a transient family.
    """

    __slots__ = ()


_CATALOG: dict[str, _Family] = {
    KRONECKER_HOMOGENEOUS: _Family(
        kronecker_quiver(), ("n", "point"), "kronecker_homogeneous(n={n}, point={point})",
        lambda f: _homogeneous_member(f, 2), 1,
    ),
    KRONECKER_PREPROJECTIVE: _Family(
        kronecker_quiver(), ("n",), "kronecker_preprojective(k={n})",
        lambda f: _string(kronecker_quiver(), ((0, 0), (1, 1)) * f.n + ((0, None),)), 0,
    ),
    KRONECKER_PREINJECTIVE: _Family(
        kronecker_quiver(), ("n",), "kronecker_preinjective(k={n})",
        lambda f: _string(kronecker_quiver(), ((1, 0), (0, 1)) * f.n + ((1, None),)), 0,
    ),
    # The rank-2 tube of 1->2, 2->3, 1->3: R_1 = (1,0,1) through 1->3, then
    # R_2 = S_2, joined by 2->3 and, back to R_1, by 1->2.
    AFFINE_A21_TUBE: _Family(
        affine_a2_quiver(), ("n", "index"), "affineA21_tube(index={index}, n={n})",
        lambda f: _tube_member(affine_a2_quiver(), (((0, 2), (2, 1)), ((1, 0),)), f), 2,
    ),
    AFFINE_A21_HOMOGENEOUS: _Family(
        affine_a2_quiver(), ("n", "point"), "affineA21_homogeneous(n={n}, point={point})",
        lambda f: _homogeneous_member(f, 3), 1,
    ),
}


def catalog_module(f: ModuleFamily) -> IntRep:
    """Explicit integer matrices for a catalog family member."""
    entry = _CATALOG[f.family]
    return IntRep(entry.quiver, *entry.member(f), label=f.describe())


def _tube_rank(f: ModuleFamily) -> int:
    rank = _CATALOG[f.family].tube
    if not rank:
        raise InvalidParams(f"{f.family} is not a tube family")
    return rank


def tau_translate(f: ModuleFamily) -> ModuleFamily:
    """The AR translate on tube families: the index one back round the tube,
    identity on homogeneous tubes.  Not defined for the transient families."""
    r = _tube_rank(f)
    return ModuleFamily(f.family, f.n, f.point, f.index and (f.index - 2) % r + 1)


def quasi_factors(f: ModuleFamily) -> list[ModuleFamily]:
    """Quasi-composition factors, socle first, in tau-inverse order."""
    r = _tube_rank(f)
    return [ModuleFamily(f.family, 1, f.point, f.index and (f.index - 1 + j) % r + 1)
            for j in range(f.n)]


def desk_affine_catalog() -> list[ModuleFamily]:
    """The finite affine module list exercised by the verification suite.

    Bounded so that exhaustive point counting stays within desk scale;
    every member has dimension entries <= 4.
    """
    out: list[ModuleFamily] = []
    out.extend(homogeneous(n, 1) for n in range(1, 4))
    out.extend(preprojective(k) for k in range(0, 4))
    out.extend(preinjective(k) for k in range(0, 4))
    out.extend(a21_tube(i, n) for i in (1, 2) for n in range(1, 5))
    out.extend(a21_homogeneous(n, 1) for n in (1, 2))
    return out


def desk_tube_catalog() -> list[ModuleFamily]:
    """Tube modules used for translate-based identity checks."""
    out: list[ModuleFamily] = []
    out.extend(homogeneous(n, 1) for n in range(1, 4))
    out.extend(a21_tube(i, n) for i in (1, 2) for n in range(1, 5))
    return out


def regular_rigid_catalog(quiver: Quiver) -> list[ModuleFamily]:
    """Regular rigid catalog modules of the given affine quiver: on each tube
    of rank r, the members of quasi-length below r (Dlab-Ringel, Mem. AMS
    173, 1976), so none on homogeneous tubes."""
    entries = [(name, e.tube) for name, e in _CATALOG.items() if e.quiver == quiver]
    if not entries:
        raise UnsupportedQuiver("not a catalog affine quiver")
    return [ModuleFamily(name, n=n, index=index) for name, r in entries
            for index in range(1, r + 1) for n in range(1, r)]


# ---------------------------------------------------------------------------
# JSON input


def quiver_from_json(obj: dict) -> Quiver:
    try:
        if not isinstance(obj["vertices"], list) or not isinstance(obj["arrows"], list):
            raise InvalidArgument("malformed quiver JSON: vertices and arrows must be lists")
        vertices = tuple(str(v) for v in obj["vertices"])
        arrows = tuple((str(a["src"]), str(a["tgt"])) for a in obj["arrows"])
    except (KeyError, TypeError) as exc:
        raise InvalidArgument(f"malformed quiver JSON: missing field {exc}") from exc
    return Quiver(vertices, arrows)


def _json_int(value: object, name: str) -> int:
    """A JSON integer; a float, a string or a boolean is refused, not rounded."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise InvalidArgument(f"malformed module JSON: {name} must be an integer, got {value!r}")


def _refuse_unknown(keys: Iterable[str], known: Sequence[str], what: str) -> None:
    for key in keys:
        if key not in known:
            raise InvalidArgument(f"malformed module JSON: unknown {what} {key!r}")


def module_from_json(obj: dict, quiver: Quiver | None = None) -> IntRep:
    """Accepts either {"family": ..., "params": {...}} or an explicit {"quiver": ...,
    "dim": {...}, "matrices": {"0": [[...]], ...}, "label": ...}.
    A key that the format, or the family, does not read is refused.  A given
    ``quiver`` must be the module's own."""
    if "family" in obj:
        _refuse_unknown(obj, ("family", "params"), "key")
        params = obj.get("params", {})
        if not isinstance(params, dict):
            raise InvalidArgument("malformed module JSON: params must be an object")
        fam, kwargs = str(obj["family"]), {}
        # An unknown family reads every parameter, so that ModuleFamily names it.
        reads = _CATALOG[fam].reads if fam in _CATALOG else _PARAMS
        for key, value in params.items():
            param = {"k": "n", "lam": "point", "lambda": "point"}.get(key, key)
            if param not in _PARAMS:
                raise InvalidArgument(f"malformed module JSON: unknown params key {key!r}")
            if param not in reads:
                raise InvalidArgument(f"malformed module JSON: {fam} does not read params key {key!r}")
            if param in kwargs:
                raise InvalidArgument(f"malformed module JSON: params give {param!r} twice")
            kwargs[param] = _json_int(value, f"params.{key}")
        if "index" in reads:
            kwargs.setdefault("index", 1)
        rep = catalog_module(ModuleFamily(fam, **kwargs))
    else:
        _refuse_unknown(obj, ("quiver", "dim", "matrices", "label"), "key")
        own = quiver_from_json(obj["quiver"]) if "quiver" in obj else quiver
        if own is None:
            raise InvalidArgument("explicit module JSON needs a quiver")
        try:
            dim = tuple(_json_int(obj["dim"][v], f"dim.{v}") for v in own.vertices)
            mats = []
            for i in range(len(own.arrows)):
                raw, name = obj["matrices"][str(i)], f"matrices.{i} entry"
                mats.append(tuple(tuple(_json_int(x, name) for x in row) for row in raw))
            _refuse_unknown(obj["dim"], own.vertices, "dim key")
            _refuse_unknown(obj.get("matrices", ()), [str(i) for i in range(len(mats))], "matrices key")
        except (KeyError, TypeError) as exc:
            raise InvalidArgument(f"malformed module JSON: {exc}") from exc
        rep = IntRep(own, dim, tuple(mats), label=str(obj.get("label", "")))
    if quiver is not None and quiver != rep.quiver:
        raise QuiverMismatch(
            f"the module is over the quiver {rep.quiver.to_json_obj()}, "
            f"not over the given {quiver.to_json_obj()}"
        )
    return rep
