"""Each distinct identity of ``verify`` is computed once, and every line is
still printed, with the same bytes; a wrong input fails its own line."""

import hashlib

import pytest

from clusterchar import bases, verify
from clusterchar.character import CharTermTable, char_table
from clusterchar.cli import main
from clusterchar.laurent import LaurentPoly
from clusterchar.quiver import a21_tube, affine_a2_quiver, catalog_module, kronecker_quiver


def _counted(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_delta_pos_substitutes_once_per_lp(monkeypatch):
    calls = _counted(monkeypatch, LaurentPoly, "substitute")
    lines = verify.run_check("delta-pos")
    assert (len(lines), len(calls)) == (14, 6)
    assert all(line.passed for line in lines)


def test_delta_claim_differentiates_once_per_lp_and_i(monkeypatch):
    calls = _counted(monkeypatch, LaurentPoly, "partial_derivative")
    lines = verify.run_check("delta-claim")
    assert (len(lines), len(calls)) == (57, 21)
    assert all(line.passed for line in lines)


def test_basis_pos_enumerates_cluster_monomials_once_per_quiver(monkeypatch):
    bases._monomial_lines.cache_clear()
    enumerations = _counted(monkeypatch, bases, "cluster_monomials")
    heads = _counted(monkeypatch, bases, "_head")
    lines = verify.run_check("basis-pos")
    assert len(lines) == 2 * len(bases.KINDS)
    assert [quiver for quiver, _ in enumerations] == [kronecker_quiver(), affine_a2_quiver()]
    # one head per (kind, n, quiver), whatever the number of regular parts
    assert len(heads) == len(bases.KINDS) * 4 * 2


@pytest.mark.parametrize(
    "check, lines, digest",
    [
        ("delta-pos", 20, "d66cbe1fb04602c14b759cb1ba346a742a570565ab046674823b939e9f7146be"),
        ("delta-claim", 103, "606e6a2bac86b68267fcdeb099577678c788a8e77bc249e8846cd01db5e49d3d"),
    ],
)
def test_deduplicated_checks_print_every_line(capsys, check, lines, digest):
    """At --n 8 the output is the one each (l, p) printed when every line
    was computed on its own."""
    assert main(["verify", check, "--n", "8"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == lines
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_graded_chi_fails_the_module_whose_chi_is_wrong(monkeypatch, capsys):
    """One term of one table carries chi + 1 while the total keeps the true
    chi: that module's line fails and every other line passes."""
    fam = a21_tube(1, 3)
    bad = catalog_module(fam)

    def faulty_table(rep):
        table = char_table(rep)
        if rep != bad:
            return table
        (e, val), *rest = table.terms
        mono, chi = val.single_term()
        wrong = LaurentPoly.from_monomial(mono, chi + 1)
        return CharTermTable(rep, ((e, wrong),) + tuple(rest), table.total)

    monkeypatch.setattr(verify, "char_table", faulty_table)
    assert main(["verify", "graded-chi"]) == 1
    lines = capsys.readouterr().out.splitlines()
    label = f"[graded-chi] graded chi recovery {fam.describe()}"
    assert [line for line in lines if not line.startswith("PASS ")] == [f"FAIL {label}"]
