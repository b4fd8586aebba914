"""Acceptance suite: every criterion at its stated bound, exact arithmetic
throughout, one PASS/FAIL line printed per criterion (run with -s to see
them)."""

import itertools

from clusterchar import grassmannian as gr
from clusterchar.bases import verify_positivity, x_delta
from clusterchar.character import (
    char_via_chebyshev,
    cf_cluster_char,
    check_lemma_key,
    cluster_char,
)
from clusterchar.chebyshev import (
    ChebWindow,
    cheb_second_kind,
    delta,
    gen_cheb,
    gen_cheb_det,
    gen_cheb_values,
    s_from_f,
    s_from_f_value,
)
from clusterchar.errors import IdentityFailed
from clusterchar.laurent import Family, q, t, tid, u, zid
from clusterchar.mutation import cluster_variables_up_to
from clusterchar.quiver import (
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


def _report(num: int, description: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"{status} criterion {num}: {description}")
    assert not failures, f"criterion {num}: {failures[:5]}"


def _tails(n, with_u=False, wrap_to=None):
    sigma = {}
    for i in range(1, n + 1):
        prev = wrap_to if (i == 1 and wrap_to is not None) else i - 1
        img = t(i) + q(i) * t(prev).inverse()
        if with_u:
            img = img + u(i)
        sigma[tid(i)] = img
    return sigma


def test_criterion_1_determinant_cross_check():
    failures = []
    for start in (1, 3):
        for length in range(0, 11):
            w = ChebWindow(start, length)
            if gen_cheb(w) != gen_cheb_det(w):
                failures.append((start, length))
    _report(1, "recurrence equals determinant oracle on windows of length <= 10", failures)


def test_criterion_2_derivative_identities():
    failures = []
    for n in range(1, 9):
        for i in range(1, n + 1):
            lhs = gen_cheb(ChebWindow(1, n)).partial_derivative(tid(i))
            rhs = gen_cheb(ChebWindow(1, i - 1)) * gen_cheb(ChebWindow(i + 1, n - i))
            if lhs != rhs:
                failures.append((n, i))
    _report(2, "derivative of P_n splits into flanking windows for n <= 8", failures)


def test_criterion_3_tail_substitution_positive():
    failures = []
    for n in range(1, 7):
        val = gen_cheb(ChebWindow(1, n)).substitute(_tails(n))
        if not val.is_subtraction_free():
            failures.append(n)
    _report(3, "P_n under the open tail substitution is subtraction-free for n <= 6", failures)


def test_criterion_4_tail_substitution_with_u_positive():
    failures = []
    for n in range(1, 6):
        val = gen_cheb(ChebWindow(1, n)).substitute(_tails(n, with_u=True))
        if not (val.is_subtraction_free() and val.min_family_exponent(Family.U) >= 0):
            failures.append(n)
    _report(4, "P_n under the tail substitution with u-terms is subtraction-free for n <= 5", failures)


def test_criterion_5_periodic_delta_positive_and_claim():
    failures = []
    pairs = [(l, p) for l in range(1, 7) for p in range(1, 7) if l * p <= 6]
    for l, p in pairs:
        lp = l * p
        val = delta(l, p).substitute(_tails(lp, with_u=True, wrap_to=lp))
        if not val.is_subtraction_free():
            failures.append(("positivity", l, p))
        for i in range(1, lp + 1):
            lhs = delta(l, p).partial_derivative(tid(i))
            order = list(range(i + 1, lp + 1)) + list(range(1, i))
            rhs = gen_cheb_values([q(j) for j in order], [t(j) for j in order])
            if lhs != rhs:
                failures.append(("claim", l, p, i))
    _report(5, "periodic delta substitution positive and derivative claim for lp <= 6", failures)


def test_criterion_6_remark_anchors_byte_exact():
    failures = []
    periodic = delta(1, 2).substitute(
        {tid(1): t(1) + q(1) * t(2).inverse(), tid(2): t(2) + q(2) * t(1).inverse()}
    )
    want_p = (t(1) ** 2 * t(2) ** 2 + q(1) * q(2)) * (t(1) * t(2)).inverse()
    if periodic != want_p or str(periodic) != str(want_p):
        failures.append("periodic anchor")
    if not periodic.is_subtraction_free():
        failures.append("periodic positivity")
    open_form = delta(1, 2).substitute(
        {tid(1): t(1) + q(1) * t(2).inverse(), tid(2): t(2) + q(2) * t(3).inverse()}
    )
    want_o = (
        t(1) * t(2) ** 2 * t(3) + q(2) * (t(1) * t(2) - t(2) * t(3)) + q(1) * q(2)
    ) * (t(2) * t(3)).inverse()
    if open_form != want_o or str(open_form) != str(want_o):
        failures.append("open anchor")
    if open_form.is_subtraction_free():
        failures.append("open form unexpectedly positive")
    _report(6, "both displayed delta values match byte-exactly with the negative witness", failures)


def test_criterion_7_second_kind_from_first_kind():
    failures = []
    for n in range(0, 13):
        if s_from_f_value(n) != cheb_second_kind(n):
            failures.append(n)
        if any(mult < 0 for _, mult in s_from_f(n)):
            failures.append(("negative multiplier", n))
    _report(7, "corrected first-kind decomposition reconstructs S_n for n <= 12", failures)


def test_criterion_8_counting_polynomial_trio():
    failures = []
    quasi = catalog_module(homogeneous(1, 1))
    jordan = catalog_module(homogeneous(2, 0))
    cases = [
        (quasi, (0, 1), (1,)),
        (jordan, (0, 1), (1, 1)),
        (jordan, (1, 1), (1,)),
    ]
    for rep, e, want in cases:
        try:
            got = gr.counting_polynomial(rep, e)
        except Exception as exc:  # held-out disagreement would land here
            failures.append((rep.label, e, repr(exc)))
            continue
        if got != want:
            failures.append((rep.label, e, got))
    _report(8, "counting polynomials 1, q+1, 1 with held-out primes consistent", failures)


def test_criterion_9_character_cross_validation():
    failures = []
    xd = x_delta(kronecker_quiver())
    for n in range(1, 4):
        enumerated = cf_cluster_char(catalog_module(homogeneous(n, 1)))
        via_cheb = cheb_second_kind(n).substitute({zid(): xd})
        if enumerated != via_cheb:
            failures.append(n)
    _report(9, "enumeration and Chebyshev pipelines agree on homogeneous characters n <= 3", failures)


def test_criterion_10_character_mutation_agreement():
    failures = []
    kq = kronecker_quiver()
    cf_vars = set(cluster_variables_up_to(kq, 3, principal=False))
    for k in range(3):
        for name, fam in (("preprojective", preprojective), ("preinjective", preinjective)):
            if cf_cluster_char(catalog_module(fam(k))) not in cf_vars:
                failures.append(("coefficient-free", name, k))
    pr_vars = set(cluster_variables_up_to(kq, 2, principal=True))
    for k in range(2):
        for name, fam in (("preprojective", preprojective), ("preinjective", preinjective)):
            if cluster_char(catalog_module(fam(k))) not in pr_vars:
                failures.append(("principal", name, k))
    _report(10, "first 6 coefficient-free and 4 principal variables match characters", failures)


def test_criterion_11_translate_identity():
    failures = []
    for fam in desk_tube_catalog():
        try:
            check_lemma_key(catalog_module(fam), catalog_module(tau_translate(fam)))
        except IdentityFailed as exc:
            failures.append((fam.describe(), str(exc)))
    _report(11, "translate identity holds on every catalog tube module", failures)


def test_criterion_12_positivity_at_desk_scale():
    failures = []
    for fam in desk_affine_catalog():
        rep = catalog_module(fam)
        if max(rep.dim) > 4:
            continue
        if not cf_cluster_char(rep).is_subtraction_free():
            failures.append(("character", fam.describe()))
    for quiver, qname in ((kronecker_quiver(), "kronecker"), (affine_a2_quiver(), "affineA2")):
        for kind in ("B", "C", "G"):
            for line in verify_positivity(kind, 4, quiver):
                if not line.passed:
                    failures.append((qname, kind, line.label))
    _report(12, "affine catalog characters and all basis elements n <= 4 subtraction-free", failures)


def test_criterion_13_graded_chi_recovery():
    failures = []
    for fam in desk_affine_catalog():
        rep = catalog_module(fam)
        total = cluster_char(rep)
        for e in itertools.product(*[range(d + 1) for d in rep.dim]):
            coeff = total.graded_coefficient(e).specialize_ones(Family.X)
            if coeff.constant_value() != gr.euler_char(rep, e):
                failures.append((fam.describe(), e))
    _report(13, "y-graded coefficients at x=1 recover every Euler characteristic", failures)


def test_chebyshev_assembly_consistency():
    """Companion to criteria 9 and 11: the tube assembly route reproduces
    direct characters with principal coefficients on both quivers."""
    failures = []
    tube_families = [homogeneous(n, 1) for n in (1, 2, 3)]
    from clusterchar.quiver import a21_tube

    tube_families += [a21_tube(i, n) for i in (1, 2) for n in (1, 2, 3, 4)]
    for fam in tube_families:
        n = fam.n
        parts = [
            (catalog_module(g).dim, cluster_char(catalog_module(g)))
            for g in quasi_factors(fam)
        ]
        if char_via_chebyshev(parts, n) != cluster_char(catalog_module(fam)):
            failures.append(fam.describe())
    assert not failures, failures
