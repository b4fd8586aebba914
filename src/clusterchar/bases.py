"""The three affine cluster bases at desk scale.

Each basis couples the cluster monomials with a one-parameter family built
from a distinguished element X_delta (the coefficient-free character of a
quasi-simple module in a homogeneous tube, independent of the tube):

    kind B: F_n(X_delta) * X_R       (first-kind Chebyshev)
    kind C: S_n(X_delta) * X_R       (second-kind Chebyshev)
    kind G: X_delta^n    * X_R       (plain powers, the generic family)

with R ranging over regular rigid catalog modules.  Positivity of every
element is verified by exact expansion, and the change-of-basis triangles
(powers into the S-family, S into the F-family) have non-negative integer
coefficients by construction, checked symbolically.
"""

from __future__ import annotations

import functools

from .character import cf_cluster_char
from .chebyshev import cheb_first_kind, cheb_second_kind
from .errors import CheckLine, InvalidArgument, Record, UnsupportedQuiver
from .laurent import LaurentPoly, zid
from .mutation import seeds_up_to
from .quiver import _CATALOG, ModuleFamily, Quiver, catalog_module, regular_rigid_catalog

__all__ = [
    "BasisElement",
    "x_delta",
    "basis_element",
    "verify_positivity",
    "cluster_monomials",
    "power_in_second_kind",
]

KINDS = ("B", "C", "G")


def x_delta(quiver: Quiver) -> LaurentPoly:
    """Coefficient-free character of a homogeneous quasi-simple: n = 1,
    point = 1 on the quiver's rank-1 catalog family.

    Only the catalog affine quivers are supported; the value does not
    depend on the chosen tube parameter (checked in the test suite).
    """
    for name, entry in _CATALOG.items():
        if entry.quiver == quiver and entry.tube == 1:
            return cf_cluster_char(catalog_module(ModuleFamily(name, n=1, point=1)))
    raise UnsupportedQuiver("x_delta is defined for the catalog affine quivers only")


class BasisElement(Record):
    _fields = ("kind", "n", "regular_part", "value")
    _compared = 4

    def __init__(
        self, kind: str, n: int, regular_part: ModuleFamily | None, value: LaurentPoly
    ) -> None:
        self.__dict__.update(kind=kind, n=n, regular_part=regular_part, value=value)

    def describe(self) -> str:
        reg = f" * X[{self.regular_part.describe()}]" if self.regular_part else ""
        fn = {"B": "F", "C": "S", "G": "pow"}[self.kind]
        return f"{fn}_{self.n}(X_delta){reg}"


def basis_element(
    kind: str,
    n: int,
    quiver: Quiver,
    regular_part: ModuleFamily | None = None,
) -> BasisElement:
    """Assemble one element of the chosen basis stratum.

    n = 0 with no regular part degenerates to the unit cluster monomial;
    with a regular part it is that module's coefficient-free character.
    """
    if kind not in KINDS:
        raise InvalidArgument(f"kind must be one of {KINDS}")
    if n < 0:
        raise InvalidArgument("n must be >= 0")
    head = _head(kind, n, x_delta(quiver))
    if regular_part is not None:
        head = head * cf_cluster_char(catalog_module(regular_part))
    return BasisElement(kind, n, regular_part, head)


def _head(kind: str, n: int, xd: LaurentPoly) -> LaurentPoly:
    """F_n(X_delta), S_n(X_delta) or X_delta^n for kind B, C or G."""
    if n == 0:
        return LaurentPoly.one()
    if kind == "B":
        return cheb_first_kind(n).substitute({zid(): xd})
    if kind == "C":
        return cheb_second_kind(n).substitute({zid(): xd})
    return xd ** n


def cluster_monomials(quiver: Quiver, depth: int) -> list[LaurentPoly]:
    """Monomials in the variables of a single cluster, over all seeds
    reachable within ``depth`` mutations, with exponent sum at most 2."""
    out: dict[LaurentPoly, None] = {}

    def extend(acc: LaurentPoly, vars_left: tuple[LaurentPoly, ...], budget: int) -> None:
        out.setdefault(acc, None)
        if budget == 0 or not vars_left:
            return
        for i, v in enumerate(vars_left):
            extend(acc * v, vars_left[i:], budget - 1)

    for seed in seeds_up_to(quiver, depth, principal=False):
        extend(LaurentPoly.one(), seed.cluster, 2)
    return list(out)


def _offending_term(p: LaurentPoly) -> str:
    if p.is_subtraction_free():
        return ""
    for m, c in p.canonical_terms():
        if c < 0:
            coeff = str(c) if m.is_one() else f"{c}*{m.text()}"
            return coeff
    return ""


def _positivity_line(description: str, value: LaurentPoly) -> CheckLine:
    return CheckLine(description, value.is_subtraction_free(), _offending_term(value))


@functools.lru_cache(maxsize=2)  # one entry per catalog affine quiver
def _monomial_lines(quiver: Quiver, depth: int) -> tuple[CheckLine, ...]:
    return tuple(
        _positivity_line(f"cluster monomial #{i}", mono)
        for i, mono in enumerate(cluster_monomials(quiver, depth))
    )


def verify_positivity(kind: str, max_n: int, quiver: Quiver) -> list[CheckLine]:
    """Expand every element of the basis stratum with n <= max_n over the
    catalog regular rigid modules, plus the cluster monomials of the seeds
    within 4 mutations: one line each, passed when it is subtraction-free,
    with a negative term as the detail when it is not.

    Each head F_n/S_n/X_delta^n is expanded once and multiplied by every
    regular part; the cluster monomial lines are kept per quiver."""
    if kind not in KINDS:
        raise InvalidArgument(f"kind must be one of {KINDS}")
    if max_n < 0:
        raise InvalidArgument("max_n must be >= 0")
    regulars: list[ModuleFamily | None] = [None]
    regulars.extend(regular_rigid_catalog(quiver))
    xd = x_delta(quiver)
    parts = [None if reg is None else cf_cluster_char(catalog_module(reg)) for reg in regulars]
    lines: list[CheckLine] = []
    for n in range(1, max_n + 1):
        head = _head(kind, n, xd)
        for reg, part in zip(regulars, parts):
            value = head if part is None else head * part
            lines.append(_positivity_line(BasisElement(kind, n, reg, value).describe(), value))
    return [*lines, *_monomial_lines(quiver, 4)]


def power_in_second_kind(n: int) -> list[int]:
    """Coefficients a_k with z^n = sum_k a_k S_k(z); all non-negative.

    Built from z * S_k = S_{k+1} + S_{k-1} (and z * S_0 = S_1), so
    non-negativity is structural; exactness is checked symbolically in the
    test suite.
    """
    if n < 0:
        raise InvalidArgument("n must be >= 0")
    coeffs = [1]
    for _ in range(n):
        new = [0] * (len(coeffs) + 1)
        for k, c in enumerate(coeffs):
            new[k + 1] += c
            if k >= 1:
                new[k - 1] += c
        coeffs = new
    return coeffs
