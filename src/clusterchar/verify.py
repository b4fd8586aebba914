"""Named verification checks behind the CLI ``verify`` verb.

Each check returns a list of CheckLine records, one per tested instance,
so the CLI can print one PASS/FAIL line each and scripts can diff the
output.  Each check's default bound, written in REGISTRY, matches the
package's acceptance envelope.
"""

from __future__ import annotations

from collections.abc import Callable

from . import bases, mutation
from .character import (
    char_table,
    char_via_chebyshev,
    cf_cluster_char,
    check_lemma_key,
    cluster_char,
    y_monomial,
)
from .chebyshev import (
    ChebWindow,
    cheb_second_kind,
    delta,
    gen_cheb,
    gen_cheb_values,
    periodic_neighbour,
    s_from_f,
    s_from_f_value,
    tail_substitution,
)
from .errors import CheckLine, IdentityFailed
from .laurent import Family, LaurentPoly, q, t, tid
from .quiver import (
    a21_tube,
    affine_a2_quiver,
    catalog_module,
    desk_affine_catalog,
    desk_tube_catalog,
    homogeneous,
    kronecker_quiver,
    preinjective,
    preprojective,
    quasi_factors,
    tau_translate,
)

__all__ = ["REGISTRY", "run_check", "available_checks"]


def lemma_dpsn(max_n: int) -> list[CheckLine]:
    """d P_n / d t_i splits as the product of the two flanking windows."""
    out = []
    for n in range(1, max_n + 1):
        for i in range(1, n + 1):
            lhs = gen_cheb(ChebWindow(1, n)).partial_derivative(tid(i))
            rhs = gen_cheb(ChebWindow(1, i - 1)) * gen_cheb(ChebWindow(i + 1, n - i))
            out.append(CheckLine(f"derivative split n={n} i={i}", lhs == rhs))
    return out


def lemma_cc(max_n: int) -> list[CheckLine]:
    """P_n under t_i -> t_i + q_i/t_{i-1} (t_0 fresh) is subtraction-free."""
    out = []
    for n in range(1, max_n + 1):
        val = gen_cheb(ChebWindow(1, n)).substitute(tail_substitution(n, lambda i: i - 1))
        out.append(CheckLine(f"tail substitution positive n={n}", val.is_subtraction_free()))
    return out


def lemma_pnpos(max_n: int) -> list[CheckLine]:
    """P_n under t_i -> t_i + u_i + q_i/t_{i-1} (t_0 fresh) is subtraction-free."""
    out = []
    for n in range(1, max_n + 1):
        sigma = tail_substitution(n, lambda i: i - 1, with_u=True)
        val = gen_cheb(ChebWindow(1, n)).substitute(sigma)
        ok = val.is_subtraction_free() and val.min_family_exponent(Family.U) >= 0
        out.append(CheckLine(f"tail substitution with u positive n={n}", ok))
    return out


def _lp_pairs(max_lp: int) -> list[tuple[int, int]]:
    return [(l, p) for l in range(1, max_lp + 1) for p in range(1, max_lp + 1) if l * p <= max_lp]


def delta_pos(max_lp: int) -> list[CheckLine]:
    """Delta_{l,p} under the periodic substitution is subtraction-free.

    Delta_{l,p} depends on l and p only through lp, so the outcome is
    computed once per lp and printed for every (l, p)."""
    out = []
    seen: dict[int, bool] = {}
    for l, p in _lp_pairs(max_lp):
        lp = l * p
        ok = seen.get(lp)
        if ok is None:
            sigma = tail_substitution(lp, periodic_neighbour(lp), with_u=True)
            ok = seen[lp] = delta(l, p).substitute(sigma).is_subtraction_free()
        out.append(CheckLine(f"periodic substitution positive l={l} p={p}", ok))
    return out


def delta_claim(max_lp: int) -> list[CheckLine]:
    """d Delta_{l,p} / d t_i equals P_{lp-1} in the cyclically shifted
    variables starting after i.

    The outcome is computed once per (lp, i), since Delta_{l,p} depends on
    l and p only through lp, and printed for every (l, p, i)."""
    out = []
    seen: dict[tuple[int, int], bool] = {}
    for l, p in _lp_pairs(max_lp):
        lp = l * p
        for i in range(1, lp + 1):
            ok = seen.get((lp, i))
            if ok is None:
                order = list(range(i + 1, lp + 1)) + list(range(1, i))
                rhs = gen_cheb_values([q(j) for j in order], [t(j) for j in order])
                ok = seen[lp, i] = delta(l, p).partial_derivative(tid(i)) == rhs
            out.append(CheckLine(f"delta derivative l={l} p={p} i={i}", ok))
    return out


def s_from_f_check(max_n: int) -> list[CheckLine]:
    """The first-kind decomposition reconstructs S_n with multipliers >= 0."""
    out = []
    for n in range(0, max_n + 1):
        ok = s_from_f_value(n) == cheb_second_kind(n)
        ok = ok and all(mult >= 0 for _, mult in s_from_f(n))
        out.append(CheckLine(f"second kind from first kind n={n}", ok))
    return out


def lemma_key_check() -> list[CheckLine]:
    """Translate identity on every catalog tube module."""
    out = []
    for fam in desk_tube_catalog():
        rep = catalog_module(fam)
        tau = catalog_module(tau_translate(fam))
        try:
            check_lemma_key(rep, tau)
            out.append(CheckLine(f"translate identity {fam.describe()}", True))
        except IdentityFailed as exc:
            out.append(CheckLine(f"translate identity {fam.describe()}", False, str(exc)))
    return out


def char_cheb(max_n: int) -> list[CheckLine]:
    """Characters of tube modules agree with their Chebyshev assembly."""
    ns = range(1, max_n + 1)
    cases = [(f"kronecker n={n}", homogeneous(n, 1), n) for n in ns]
    cases += [(f"tube index={idx} n={n}", a21_tube(idx, n), n) for idx in (1, 2) for n in ns]
    out = []
    for label, fam, n in cases:
        direct = cluster_char(catalog_module(fam))
        parts = [
            (catalog_module(g).dim, cluster_char(catalog_module(g)))
            for g in quasi_factors(fam)
        ]
        assembled = char_via_chebyshev(parts, n)
        out.append(CheckLine(f"chebyshev assembly {label}", direct == assembled))
    return out


def char_mutation() -> list[CheckLine]:
    """Mutation-produced variables match characters of rigid catalog modules."""
    out = []
    for principal, depth, prefix, char in (
        (False, 3, "coefficient-free", cf_cluster_char),
        (True, 2, "principal", cluster_char),
    ):
        found = set(mutation.cluster_variables_up_to(kronecker_quiver(), depth, principal=principal))
        for mk, fam in (("preprojective", preprojective), ("preinjective", preinjective)):
            for k in range(depth):
                val = char(catalog_module(fam(k)))
                out.append(CheckLine(f"{prefix} {mk}({k}) from mutation", val in found))
    return out


def basis_pos(max_n: int) -> list[CheckLine]:
    """Every basis element over both catalog quivers is subtraction-free."""
    out = []
    for quiver, name in ((kronecker_quiver(), "kronecker"), (affine_a2_quiver(), "affineA2")):
        for kind in bases.KINDS:
            lines = bases.verify_positivity(kind, max_n, quiver)
            bad = [line.label for line in lines if not line.passed]
            out.append(
                CheckLine(
                    f"basis {kind} over {name} (n <= {max_n}, {len(lines)} elements)",
                    not bad,
                    "; ".join(bad),
                )
            )
    return out


def tame_positivity(max_entry: int) -> list[CheckLine]:
    """Coefficient-free characters of the affine catalog are subtraction-free."""
    out = []
    for fam in desk_affine_catalog():
        rep = catalog_module(fam)
        if max(rep.dim) > max_entry:
            continue
        val = cf_cluster_char(rep)
        out.append(CheckLine(f"positive character {fam.describe()}", val.is_subtraction_free()))
    return out


def graded_chi(max_entry: int) -> list[CheckLine]:
    """y-graded coefficients of the character at x = 1 recover each chi."""
    out = []
    for fam in desk_affine_catalog():
        rep = catalog_module(fam)
        if max(rep.dim) > max_entry:
            continue
        table = char_table(rep)
        # each term L(M, e) is chi(Gr_e(M)) times one monomial, so at x = 1
        # the total is the sum of chi(Gr_e(M)) y^e
        want = LaurentPoly.sum([val.single_term()[1] * y_monomial(e) for e, val in table.terms])
        ok = table.total.specialize_ones(Family.X) == want
        out.append(CheckLine(f"graded chi recovery {fam.describe()}", ok))
    return out


# name -> (check, default bound); a None default means the check takes no bound
REGISTRY: dict[str, tuple[Callable[..., list[CheckLine]], int | None]] = {
    "lemma-dpsn": (lemma_dpsn, 8),
    "lemma-cc": (lemma_cc, 6),
    "lemma-pnpos": (lemma_pnpos, 5),
    "delta-pos": (delta_pos, 6),
    "delta-claim": (delta_claim, 6),
    "s-from-f": (s_from_f_check, 12),
    "lemma-key": (lemma_key_check, None),
    "char-cheb": (char_cheb, 3),
    "char-mutation": (char_mutation, None),
    "basis-pos": (basis_pos, 4),
    "tame-pos": (tame_positivity, 4),
    "graded-chi": (graded_chi, 3),
}


def available_checks() -> list[str]:
    return list(REGISTRY)


def run_check(name: str, bound: int | None = None) -> list[CheckLine]:
    if name not in REGISTRY:
        raise KeyError(name)
    fn, default = REGISTRY[name]
    if default is None:
        return fn()
    return fn(bound if bound is not None else default)
