"""Cluster characters with principal coefficients, their coefficient-free
specialization, and the term decomposition they are assembled from.

A character is computed directly from its definition: the sum over all
sub-dimension vectors e of

    L(M, e) = chi(Gr_e(M)) * y^e * prod_i x_i^{-<e, S_i> - <S_i, dim M - e>},

with the exponents the Euler form expanded over the quiver's arrow list,
never hand-coded per quiver.  A second, independent route through
generalized Chebyshev polynomials (`char_via_chebyshev`) reproduces
characters of tube modules from their quasi-composition factors: it
evaluates P_n by its recurrence at q_i = y^{dim R_i}, t_i = X_{R_i}, the
quasi-simples' data; agreement of the two pipelines is the package's
strongest self-check.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence

from . import grassmannian
from .chebyshev import gen_cheb_values
from .errors import IdentityFailed, InvalidArgument
from .laurent import Family, LaurentPoly, xid, yid
from .quiver import DimVector, IntRep

__all__ = [
    "CharTermTable",
    "term_L",
    "char_table",
    "cluster_char",
    "cf_cluster_char",
    "check_lemma_key",
    "char_via_chebyshev",
    "y_monomial",
]


def y_monomial(e: Sequence[int]) -> LaurentPoly:
    """y^e as a Laurent monomial (vertex position i pairs with y_{i+1})."""
    return LaurentPoly._single([(yid(i + 1), v) for i, v in enumerate(e) if v], 1)


def _term(rep: IntRep, e: DimVector, chi: int) -> LaurentPoly:
    """L(M, e) for chi = chi(Gr_e(M)): chi * y^e * x^(Euler-form exponents).

    -<e, S_i> - <S_i, d - e> is -d_i, plus e_s for each arrow s -> i, plus
    (d - e)_t for each arrow i -> t; one pass over the arrows adds them up."""
    d = rep.dim
    k = [-v for v in d]
    for s, t in rep.quiver.arrow_indices():
        k[t] += e[s]
        k[s] += d[t] - e[t]
    pairs = [(xid(i + 1), v) for i, v in enumerate(k) if v]
    pairs += [(yid(i + 1), v) for i, v in enumerate(e) if v]
    return LaurentPoly._single(pairs, chi)


def term_L(rep: IntRep, e: Sequence[int]) -> LaurentPoly:
    """The e-term of the character: a single monomial scaled by chi."""
    return char_table(rep).term(grassmannian._check_e(rep, e))


class CharTermTable:
    """All nonzero terms L(M, e) of one module's character."""

    __slots__ = ("rep", "terms", "total")

    def __init__(
        self, rep: IntRep, terms: tuple[tuple[DimVector, LaurentPoly], ...], total: LaurentPoly
    ) -> None:
        self.rep = rep
        self.terms = terms
        self.total = total

    def term(self, e: Sequence[int]) -> LaurentPoly:
        e = tuple(int(v) for v in e)
        for f, val in self.terms:
            if f == e:
                return val
        return LaurentPoly.zero()

    def leading(self) -> LaurentPoly:
        """L(M, 0): always a single Laurent monomial."""
        return self.term((0,) * len(self.rep.dim))

    def full(self) -> LaurentPoly:
        """L(M, dim M)."""
        return self.term(self.rep.dim)

    def middle(self) -> LaurentPoly:
        """Sum of L(M, e) over e different from 0 and dim M."""
        zero = (0,) * len(self.rep.dim)
        return LaurentPoly.sum([val for f, val in self.terms if f != zero and f != self.rep.dim])


@functools.lru_cache(maxsize=None)
def char_table(rep: IntRep) -> CharTermTable:
    profiles = sorted(grassmannian.box_profiles(rep).items())
    terms = tuple((e, _term(rep, e, prof.chi)) for e, prof in profiles if prof.chi)
    return CharTermTable(rep, terms, LaurentPoly.sum([val for _, val in terms]))


@functools.lru_cache(maxsize=None)
def cluster_char(rep: IntRep) -> LaurentPoly:
    """The character with principal coefficients, in Z[y, x^{±1}]."""
    total = char_table(rep).total
    if total.min_family_exponent(Family.Y) < 0:
        raise IdentityFailed("character left Z[y, x^{±1}]: negative y exponent")
    return total


def cf_cluster_char(rep: IntRep) -> LaurentPoly:
    """Coefficient-free character: every y specialized to 1."""
    return cluster_char(rep).specialize_ones(Family.Y)


def check_lemma_key(rep: IntRep, tau_rep: IntRep) -> None:
    """Verify the translate identity L(M,0) * L(tM, dim tM) = y^{dim tM}
    exactly; ``tau_rep`` must be the AR translate of ``rep`` (tube
    combinatorics supply it), and ``rep`` must not be projective.  A
    violated identity raises IdentityFailed carrying both sides."""
    left = char_table(rep).leading() * char_table(tau_rep).full()
    right = y_monomial(tau_rep.dim)
    if left != right:
        raise IdentityFailed(
            f"translate identity failed: {left} != {right} "
            f"(is the input projective, or tau_rep not the translate?)"
        )


def char_via_chebyshev(
    quasi_simples: Sequence[tuple[Sequence[int], LaurentPoly]], n: int
) -> LaurentPoly:
    """Character of a quasi-length-n tube module from its factors.

    ``quasi_simples`` lists (dim R_i, X_{R_i}) for i = 1..n in translate
    order (tau R_i = R_{i-1}, indices cyclic around the tube).  The value
    is P_n evaluated by its recurrence at q_i = y^{dim R_i}, t_i = X_{R_i}.
    """
    if len(quasi_simples) != n:
        raise InvalidArgument(f"need {n} quasi-simple entries, got {len(quasi_simples)}")
    value = gen_cheb_values([y_monomial(d) for d, _ in quasi_simples], [x for _, x in quasi_simples])
    if value.min_family_exponent(Family.Y) < 0:
        raise IdentityFailed("assembled character left Z[y, x^{±1}]")
    return value
