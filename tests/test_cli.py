import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterchar import bases, cli
from clusterchar.cli import _json_text, main
from clusterchar.laurent import LaurentPoly
from clusterchar.character import cluster_char
from clusterchar.quiver import catalog_module, homogeneous, kronecker_quiver


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGencheb:
    def test_pinned_text(self, capsys):
        code, out, _ = run_cli(capsys, "gencheb", "--n", "2")
        assert code == 0
        assert out == "t2*t1 - q2\n"

    def test_det_agrees(self, capsys):
        _, out1, _ = run_cli(capsys, "gencheb", "--n", "5")
        _, out2, _ = run_cli(capsys, "gencheb", "--n", "5", "--det")
        assert out1 == out2

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "gencheb", "--n", "1", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == [{"exponents": {"t1": 1}, "coeff": "1"}]

    def test_byte_stable(self, capsys):
        _, out1, _ = run_cli(capsys, "gencheb", "--n", "7")
        _, out2, _ = run_cli(capsys, "gencheb", "--n", "7")
        assert out1 == out2

    def test_negative_start_exit_two(self, capsys):
        code, out, err = run_cli(capsys, "gencheb", "--n", "2", "--start", "-5")
        assert (code, out) == (2, "")
        assert err.startswith("error: InvalidArgument: window start must be >= 0")
        code, out, _ = run_cli(capsys, "gencheb", "--n", "2", "--start", "0")
        assert (code, out) == (0, "t1*t0 - q1\n")


class TestDelta:
    def test_plain(self, capsys):
        code, out, _ = run_cli(capsys, "delta", "--l", "1", "--p", "2")
        assert code == 0
        assert out == "t2*t1 - q1 - q2\n"

    def test_periodic_positive_exit_zero(self, capsys):
        code, out, _ = run_cli(capsys, "delta", "--l", "1", "--p", "2", "--substitute", "periodic")
        assert code == 0
        assert out == "t2*t1 + t2^-1*t1^-1*q2*q1\n"

    def test_nonperiodic_witness_exit_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "delta", "--l", "1", "--p", "2", "--substitute", "nonperiodic", "--json"
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["subtraction_free"] is False
        coeffs = [int(term["coeff"]) for term in payload["value"]]
        assert any(c < 0 for c in coeffs)

    def test_coefficient_free(self, capsys):
        code, out, _ = run_cli(capsys, "delta", "--l", "1", "--p", "2", "--coefficient-free")
        assert code == 0
        assert out == "t2*t1 - 2\n"

    def test_bad_params_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "delta", "--l", "0", "--p", "2")
        assert code == 2
        assert "InvalidArgument" in err


class TestCheb:
    def test_first_kind(self, capsys):
        code, out, _ = run_cli(capsys, "cheb", "--kind", "F", "--n", "3")
        assert code == 0
        assert out == "z1^3 - 3*z1\n"

    def test_second_kind(self, capsys):
        code, out, _ = run_cli(capsys, "cheb", "--kind", "S", "--n", "4")
        assert code == 0
        assert out == "z1^4 - 3*z1^2 + 1\n"


MODULE_QUASI = '{"family": "kronecker_homogeneous", "params": {"n": 1, "point": 1}}'
HOMOGENEOUS_2_1 = '{"family": "kronecker_homogeneous", "params": {"n": 2, "point": 1}}'
JORDAN_CORNER = '{"dim": {"1": 2, "2": 2}, "matrices": {"0": [[1, 0], [0, 1]], "1": [[1, %d], [0, 1]]}}'


class TestChar:
    def test_coefficient_free_quasi_simple(self, capsys):
        code, out, _ = run_cli(capsys, "char", "--module", MODULE_QUASI, "--coefficient-free")
        assert code == 0
        assert out == "x2^-1*x1 + x2*x1^-1 + x2^-1*x1^-1\n"

    def test_json_terms_carry_e(self, capsys):
        code, out, _ = run_cli(capsys, "char", "--module", MODULE_QUASI, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["dim"] == [1, 1]
        assert [t["e"] for t in payload["terms"]] == [[0, 0], [0, 1], [1, 1]]

    def test_explicit_module_with_quiver(self, capsys):
        mod = json.dumps(
            {"dim": {"1": 1, "2": 1}, "matrices": {"0": [[1]], "1": [[1]]}}
        )
        code, out, _ = run_cli(
            capsys, "char", "--module", mod, "--quiver", "kronecker", "--coefficient-free"
        )
        assert code == 0
        assert out == "x2^-1*x1 + x2*x1^-1 + x2^-1*x1^-1\n"

    def test_malformed_json_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "char", "--module", "{not json")
        assert code == 2
        assert "line 1" in err

    def test_non_integer_param_exit_two(self, capsys):
        mod = '{"family":"kronecker_homogeneous","params":{"n":"x"}}'
        code, out, err = run_cli(capsys, "char", "--module", mod)
        assert code == 2
        assert out == ""
        assert err.startswith("error: InvalidArgument:")

    def test_missing_field_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "char", "--module", '{"dim": {"1": 1}}')
        assert code == 2
        assert "quiver" in err

    def test_quiver_contradicting_catalog_module_exit_two(self, capsys):
        code, out, err = run_cli(capsys, "char", "--quiver", "affineA2", "--module", MODULE_QUASI)
        assert (code, out) == (2, "")
        assert err.startswith("error: QuiverMismatch:")

    def test_quiver_contradicting_module_json_exit_two(self, capsys):
        arrows = [{"src": "1", "tgt": "2"}, {"src": "2", "tgt": "3"}]
        a3 = {"vertices": ["1", "2", "3"], "arrows": arrows}
        dim, matrices = {"1": 1, "2": 1, "3": 1}, {"0": [[1]], "1": [[1]]}
        mod = json.dumps({"quiver": a3, "dim": dim, "matrices": matrices})
        assert run_cli(capsys, "char", "--module", mod)[0] == 0
        code, out, err = run_cli(capsys, "char", "--quiver", "kronecker", "--module", mod)
        assert (code, out) == (2, "")
        assert err.startswith("error: QuiverMismatch:")

    def test_matching_quiver_accepted(self, capsys):
        _, want, _ = run_cli(capsys, "char", "--module", MODULE_QUASI)
        code, out, _ = run_cli(capsys, "char", "--quiver", "kronecker", "--module", MODULE_QUASI)
        assert (code, out) == (0, want)
        kronecker = {"vertices": ["1", "2"], "arrows": [{"src": "1", "tgt": "2"}] * 2}
        dim, matrices = {"1": 1, "2": 1}, {"0": [[1]], "1": [[1]]}
        mod = json.dumps({"quiver": kronecker, "dim": dim, "matrices": matrices})
        code, out, _ = run_cli(capsys, "char", "--quiver", "kronecker", "--module", mod)
        assert (code, out) == (0, want)

    @pytest.mark.parametrize(
        "family, params, problem",
        [
            ("affineA21_tube", {"idx": 2, "n": 3}, "unknown params key 'idx'"),
            ("kronecker_preprojective", {"n": 1, "k": 3}, "params give 'n' twice"),
            ("kronecker_homogeneous", {"n": 1, "point": 1, "lam": 2}, "params give 'point' twice"),
            ("kronecker_homogeneous", {"n": 1, "lambda": 2, "lam": 2}, "params give 'point' twice"),
            (
                "kronecker_preprojective",
                {"k": 1, "point": 5},
                "kronecker_preprojective does not read params key 'point'",
            ),
            (
                "affineA21_homogeneous",
                {"n": 1, "index": 2},
                "affineA21_homogeneous does not read params key 'index'",
            ),
            (
                "kronecker_preinjective",
                {"k": 1, "lam": 2},
                "kronecker_preinjective does not read params key 'lam'",
            ),
        ],
    )
    def test_strict_params_exit_two(self, capsys, family, params, problem):
        mod = json.dumps({"family": family, "params": params})
        code, out, err = run_cli(capsys, "char", "--module", mod)
        assert (code, out) == (2, "")
        assert err == f"error: InvalidArgument: malformed module JSON: {problem}\n"

    @pytest.mark.parametrize("field", ["vertices", "arrows"])
    def test_quiver_lists_required_exit_two(self, capsys, field):
        quiver = {"vertices": ["1", "2"], "arrows": [{"src": "1", "tgt": "2"}]}
        quiver[field] = "12"
        argv = ["mutate", "--quiver", json.dumps(quiver), "--sequence", "1"]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert "vertices and arrows must be lists" in err


class TestFileArguments:
    """``--module`` and ``--quiver`` also name a JSON file."""

    def test_module_from_file(self, capsys, tmp_path):
        path = tmp_path / "module.json"
        path.write_text(MODULE_QUASI.replace(", ", ",\n"))
        _, want, _ = run_cli(capsys, "char", "--module", MODULE_QUASI)
        assert run_cli(capsys, "char", "--module", str(path)) == (0, want, "")

    def test_quiver_from_json_file(self, capsys, tmp_path):
        path = tmp_path / "kronecker.json"
        path.write_text(json.dumps({"vertices": ["1", "2"], "arrows": [{"src": "1", "tgt": "2"}] * 2}))
        mod = json.dumps({"dim": {"1": 1, "2": 1}, "matrices": {"0": [[1]], "1": [[1]]}})
        _, want, _ = run_cli(capsys, "char", "--quiver", "kronecker", "--module", mod)
        assert run_cli(capsys, "char", "--quiver", str(path), "--module", mod) == (0, want, "")

    def test_quiver_from_file_without_json_suffix(self, capsys, tmp_path):
        path = tmp_path / "q.txt"
        path.write_text(json.dumps({"vertices": ["1", "2"], "arrows": [{"src": "1", "tgt": "2"}] * 2}))
        want = run_cli(capsys, "variables", "--quiver", "kronecker", "--depth", "1")
        assert want[0] == 0
        assert run_cli(capsys, "variables", "--quiver", str(path), "--depth", "1") == want

    def test_catalog_name_wins_over_a_file_of_that_name(self, capsys, tmp_path, monkeypatch):
        want = run_cli(capsys, "variables", "--quiver", "kronecker", "--depth", "1")
        monkeypatch.chdir(tmp_path)
        (tmp_path / "kronecker").write_text('{"vertices": ["1"], "arrows": []}')
        assert run_cli(capsys, "variables", "--quiver", "kronecker", "--depth", "1") == want

    def test_malformed_quiver_file_without_json_suffix_exit_two(self, capsys, tmp_path):
        path = tmp_path / "q.txt"
        path.write_text("kronecker\n")
        err = "error: malformed JSON (line 1, column 1): Expecting value\n"
        assert run_cli(capsys, "variables", "--quiver", str(path), "--depth", "1") == (2, "", err)

    @pytest.mark.parametrize("name", ["nosuch", "."])
    def test_unknown_quiver_name_exit_two(self, capsys, name):
        # neither a catalog name nor a file: "." is a directory
        err = f"error: InvalidArgument: unknown quiver name: {name!r}\n"
        assert run_cli(capsys, "variables", "--quiver", name, "--depth", "1") == (2, "", err)

    @pytest.mark.parametrize("flag", ["--module", "--quiver"])
    def test_missing_file_exit_two(self, capsys, tmp_path, flag):
        path = str(tmp_path / "missing.json")
        argv = ["char", "--module", MODULE_QUASI, flag, path]
        assert run_cli(capsys, *argv) == (2, "", f"error: no such file: {path}\n")

    def test_malformed_file_exit_two(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"family": "kronecker_homogeneous",\n nope}\n')
        err = "error: malformed JSON (line 2, column 2): Expecting property name enclosed in double quotes\n"
        assert run_cli(capsys, "char", "--module", str(path)) == (2, "", err)

    def test_directory_exit_two(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "char", "--module", str(tmp_path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read {tmp_path}: ") and "Traceback" not in err

    def test_non_utf8_file_exit_two(self, capsys, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"label": "caf\u00e9"}'.encode("latin-1"))
        code, out, err = run_cli(capsys, "char", "--module", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read {path}: ") and "Traceback" not in err


class TestGrass:
    def test_profile_output(self, capsys):
        mod = '{"family": "kronecker_homogeneous", "params": {"n": 2, "point": 0}}'
        code, out, _ = run_cli(capsys, "grass", "--module", mod, "--e", "0,1", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["coefficients"] == [1, 1]
        assert payload["chi"] == 2
        assert payload["samples"][0] == [2, 3]

    @pytest.mark.parametrize(
        "quiver, mod, e, primes",
        [
            # the Jordan block J_2(1) in a basis that splits it mod 2, and mod 3 too
            ("kronecker", JORDAN_CORNER % 2, "1,1", [3, 5, 7, 9]),
            ("kronecker", JORDAN_CORNER % 6, "1,1", [5, 7, 11, 13]),
            ("affineA2", '{"family": "affineA21_homogeneous", "params": {"n": 2, "point": 3}}', "1,1,1", [2, 4, 5, 7]),
        ],
    )
    def test_samples_skip_excluded_primes(self, capsys, quiver, mod, e, primes):
        code, out, _ = run_cli(capsys, "grass", "--quiver", quiver, "--module", mod, "--e", e, "--json")
        assert code == 0
        assert [p for p, _ in json.loads(out)["samples"]] == primes

    def test_homogeneous_samples_start_at_two(self, capsys):
        # M_2(6) mod 2 and 3 is M_2(0), of the same type, so no prime is skipped
        mod = '{"family": "kronecker_homogeneous", "params": {"n": 2, "point": 6}}'
        code, out, _ = run_cli(capsys, "grass", "--module", mod, "--e", "1,1", "--json")
        assert code == 0
        assert [p for p, _ in json.loads(out)["samples"]] == [2, 3, 4, 5]

    def test_unfactorable_entry_exit_two(self, capsys):
        mod = '{"dim": {"1": 1, "2": 1}, "matrices": {"0": [[1]], "1": [[100000000000000000039]]}}'
        code, out, err = run_cli(capsys, "grass", "--quiver", "kronecker", "--module", mod, "--e", "1,1")
        assert code == 2
        assert out == ""
        assert err.startswith("error: InvalidArgument: cannot factor 100000000000000000039")

    @pytest.mark.parametrize(
        "matrices, factor",
        [
            ('{"0": [[1, 0], [0, 1]], "1": [[0, -190], [1, 0]]}', "lambda^2 + 190*mu^2"),
            (
                '{"0": [[-1, 2], [0, -3]], "1": [[-2, 1], [1, -1]]}',
                "3*lambda^2 - 5*lambda*mu + mu^2",
            ),
        ],
    )
    def test_irrational_kronecker_point_exit_two(self, capsys, matrices, factor):
        mod = '{"dim": {"1": 2, "2": 2}, "matrices": %s}' % matrices
        for argv in (("grass", "--e", "1,1"), ("char", "--coefficient-free")):
            code, out, err = run_cli(capsys, *argv, "--quiver", "kronecker", "--module", mod)
            assert code == 2 and out == ""
            assert err.startswith("error: NonPolynomialCount:") and factor in err

    def test_quadratic_point_refused_at_a_square_node(self, capsys):
        # over C the points are the 2 roots of lambda^2 + 190; every admissible
        # prime below 29 sees none, F_9 sees both
        mod = '{"dim":{"1":2,"2":2,"3":2},"matrices":{"0":[[1,0],[0,1]],"1":[[1,0],[0,1]],"2":[[0,-190],[1,0]]}}'
        code, out, err = run_cli(capsys, "grass", "--quiver", "affineA2", "--module", mod, "--e", "1,1,1")
        assert (code, out) == (2, "")
        assert err == (
            "error: NonPolynomialCount: e=(1, 1, 1): divided difference over nodes "
            "[7, 9, 11] is -2/4, not an integer\n"
        )

    def test_quadratic_point_refused_at_the_square_of_the_smallest_prime(self, capsys):
        # the points are the roots of lambda^2 + 78, a non-residue at the nodes
        # 5, 7, 11, 17 of the strata; no node is a square, so F_25 is checked
        # too, and the fallback's nodes 5, ..., 23 and 25 see both points at 19 and 25
        mod = '{"dim":{"1":2,"2":2,"3":2},"matrices":{"0":[[1,0],[0,1]],"1":[[1,0],[0,1]],"2":[[0,-78],[1,0]]}}'
        code, out, err = run_cli(capsys, "grass", "--quiver", "affineA2", "--module", mod, "--e", "1,1,1")
        assert (code, out) == (2, "")
        assert err == (
            "error: NonPolynomialCount: held-out primes [19, 25] disagree for e=(1, 1, 1): "
            "counts [2, 2] vs interpolant [0, 0]\n"
        )

    @pytest.mark.parametrize("corner", [2, 6])
    def test_jordan_block_in_another_basis(self, capsys, corner):
        # conjugate to (I, J_2(1)) over Q; the block splits at the primes of the corner
        _, want, _ = run_cli(capsys, "char", "--module", HOMOGENEOUS_2_1)
        code, out, _ = run_cli(capsys, "char", "--quiver", "kronecker", "--module", JORDAN_CORNER % corner)
        assert (code, out) == (0, want)

    def test_two_rational_points_multiply(self, capsys):
        # M_1(3) + M_1(5) over Q; at 2 the points meet, and 2 is excluded
        mod = '{"dim": {"1": 2, "2": 2}, "matrices": {"0": [[1, 0], [0, 1]], "1": [[3, 1], [0, 5]]}}'
        code, out, _ = run_cli(capsys, "char", "--quiver", "kronecker", "--module", mod)
        quasi_simple = cluster_char(catalog_module(homogeneous(1, 1)))
        assert (code, out) == (0, (quasi_simple * quasi_simple).to_text() + "\n")

    def test_spectrum_key_exit_two(self, capsys):
        mod = '{"dim": {"1": 1, "2": 1}, "matrices": {"0": [[1]], "1": [[1]]}, "spectrum": [1]}'
        code, out, err = run_cli(capsys, "grass", "--quiver", "kronecker", "--module", mod, "--e", "1,1")
        assert (code, out) == (2, "")
        assert err == "error: InvalidArgument: malformed module JSON: unknown key 'spectrum'\n"

    def test_out_of_range_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "grass", "--module", MODULE_QUASI, "--e", "3,0")
        assert code == 2
        assert "DimOutOfRange" in err


class TestMutateAndVariables:
    def test_sequence(self, capsys):
        code, out, _ = run_cli(
            capsys, "mutate", "--quiver", "kronecker", "--sequence", "1"
        )
        assert code == 0
        assert out.splitlines()[0] == "x[1] = x2^2*x1^-1 + x1^-1"

    def test_unknown_vertex_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "mutate", "--quiver", "kronecker", "--sequence", "9")
        assert code == 2
        assert "unknown vertex" in err

    def test_variables_depth_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "variables", "--quiver", "kronecker", "--depth", "1"
        )
        assert code == 0
        lines = out.splitlines()
        assert "x1" in lines and "x2" in lines
        assert "x2^2*x1^-1 + x1^-1" in lines
        assert len(lines) == 4

    @pytest.mark.parametrize("json_mode", [False, True])
    def test_only_the_printed_form_is_built(self, capsys, monkeypatch, json_mode):
        built = []
        for form in ("to_text", "to_json_obj"):
            original = getattr(LaurentPoly, form)
            monkeypatch.setattr(
                LaurentPoly, form, lambda self, f=original, n=form: built.append(n) or f(self)
            )
        argv = ["variables", "--quiver", "kronecker", "--depth", "2"]
        code, out, _ = run_cli(capsys, *argv, *(["--json"] if json_mode else []))
        assert code == 0 and out
        assert set(built) == {"to_json_obj" if json_mode else "to_text"}

    def test_variables_negative_depth_exit_two(self, capsys):
        code, out, err = run_cli(capsys, "variables", "--quiver", "kronecker", "--depth", "-1")
        assert code == 2
        assert out == ""
        assert err.startswith("error: InvalidArgument:")


class TestBasisAndVerify:
    def test_basis_positive(self, capsys):
        code, out, _ = run_cli(
            capsys, "basis", "--kind", "B", "--max-n", "2", "--quiver", "kronecker"
        )
        assert code == 0
        assert all(line.startswith("PASS") for line in out.splitlines())

    def test_basis_on_a_non_catalog_quiver_exit_two(self, capsys):
        a2 = '{"vertices": ["a", "b"], "arrows": [{"src": "a", "tgt": "b"}]}'
        code, out, err = run_cli(capsys, "basis", "--kind", "B", "--max-n", "1", "--quiver", a2)
        assert (code, out) == (2, "")
        assert err == "error: UnsupportedQuiver: not a catalog affine quiver\n"

    def test_basis_negative_max_n_exit_two(self, capsys):
        code, out, err = run_cli(
            capsys, "basis", "--kind", "B", "--max-n", "-1", "--quiver", "kronecker"
        )
        assert code == 2
        assert out == ""
        assert err == "error: InvalidArgument: max_n must be >= 0\n"

    def test_verify_basis_pos_negative_n_exit_two(self, capsys):
        code, out, err = run_cli(capsys, "verify", "basis-pos", "--n", "-1")
        assert code == 2
        assert out == ""
        assert err == "error: InvalidArgument: max_n must be >= 0\n"

    def test_verify_single_check(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "s-from-f")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 13
        assert all(line.startswith("PASS [s-from-f]") for line in lines)

    def test_verify_unknown_check(self, capsys):
        code, _, err = run_cli(capsys, "verify", "nope")
        assert code == 2
        assert "unknown check" in err

    def test_verify_json_shape(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "lemma-dpsn", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["all_passed"] is True
        assert len(payload["results"]) == 36

    @pytest.mark.parametrize("check,n", [("lemma-dpsn", "-1"), ("char-cheb", "0")])
    def test_verify_bound_that_checks_nothing_exit_two(self, capsys, check, n):
        code, out, err = run_cli(capsys, "verify", check, "--n", n)
        assert code == 2
        assert out == ""
        assert "nothing to check" in err

    def test_verify_n_on_boundless_check_exit_two(self, capsys):
        code, out, err = run_cli(capsys, "verify", "lemma-key", "--n", "3")
        assert code == 2
        assert out == ""
        assert "takes no --n bound" in err

    def test_verify_all_with_n_runs_boundless_checks(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "all", "--n", "3")
        assert code == 0
        lines = out.splitlines()
        assert any(line.startswith("PASS [lemma-key]") for line in lines)
        assert sum(line.startswith("PASS [lemma-dpsn]") for line in lines) == 6


# sha256 of the stdout of `basis --kind K --max-n 4 --quiver Q`, text and --json
BASIS_DIGESTS = {
    ("kronecker", "B", False): "12db174e0cef551d3bc8fb76cb8bbfa863ae8866333c7af157cc17f680bdacd6",
    ("kronecker", "B", True): "35c1c46433f0570575958d84b2b18ae4e2936023c336ad45f7632b6c7dcbcad2",
    ("kronecker", "C", False): "3215b7de430c0d4fb4922b7f1942bd0892582fb0b2bdcb4b989777b5ed49f991",
    ("kronecker", "C", True): "70e6dfbaf53d269dd60f5b581946f17fd1e21632546c946f50cf39f991605143",
    ("kronecker", "G", False): "bbc27c9743a2ab68df600e4f695f8788ff62756819d19acca24f02246e19a47a",
    ("kronecker", "G", True): "db8873bed43fc49f6596057fac84537e911e10a691d0cda2c7f017a250ac45ce",
    ("affineA2", "B", False): "6fbf44dee9b0547f3e856015886ab8043e04ac9c80093598e05fcb6b09687870",
    ("affineA2", "B", True): "162f2e64a6ebd18993ed8fd6c3346971e0d7f46bd62634176a145c97f76481a0",
    ("affineA2", "C", False): "fa8c8cc919487a8cb459fe47978f4c211aa922cf75ece66fdd4a9abb1d2490d4",
    ("affineA2", "C", True): "30a1f3da63397ce6a6f06b6e2986e6ca3be235f517cbb3f4685d97b5dbcf5d64",
    ("affineA2", "G", False): "462561b7c51689c67ab7972bb1b53846d98eeb19ffe8988f8146e8a6c97989c7",
    ("affineA2", "G", True): "0ea221d3ec5c04067cd9260b969c1512f09a2eddf92726cfcf854ddbaece3479",
}


class TestBasisOutputs:
    @pytest.mark.parametrize("quiver, kind, as_json", list(BASIS_DIGESTS), ids=str)
    def test_byte_stable(self, capsys, quiver, kind, as_json):
        argv = ["basis", "--kind", kind, "--max-n", "4", "--quiver", quiver]
        code, out, _ = run_cli(capsys, *argv, *(["--json"] if as_json else []))
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == BASIS_DIGESTS[quiver, kind, as_json]

    @pytest.fixture
    def faulty_s2(self, monkeypatch):
        """S_2(X_delta) over the Kronecker quiver, less 7: its constant term
        becomes -6 and no other basis value changes."""
        head, xd = bases._head, bases.x_delta(kronecker_quiver())

        def faulty(kind, n, x):
            value = head(kind, n, x)
            return value - 7 * LaurentPoly.one() if (kind, n, x) == ("C", 2, xd) else value

        monkeypatch.setattr(bases, "_head", faulty)

    def test_fail_line_names_the_offending_term(self, capsys, faulty_s2):
        code, out, _ = run_cli(capsys, "basis", "--kind", "C", "--max-n", "4", "--quiver", "kronecker")
        assert code == 1
        assert [line for line in out.splitlines() if not line.startswith("PASS ")] == [
            "FAIL S_2(X_delta) [offending -6]"
        ]

    def test_fail_json_carries_the_witness(self, capsys, faulty_s2):
        code, out, _ = run_cli(
            capsys, "basis", "--kind", "C", "--max-n", "4", "--quiver", "kronecker", "--json"
        )
        payload = json.loads(out)
        assert (code, payload["all_positive"]) == (1, False)
        assert [e for e in payload["elements"] if not e["positive"]] == [
            {"description": "S_2(X_delta)", "positive": False, "witness": "-6"}
        ]

    def test_verify_basis_pos_fail_detail(self, capsys, faulty_s2):
        code, out, _ = run_cli(capsys, "verify", "basis-pos")
        assert code == 1
        assert [line for line in out.splitlines() if not line.startswith("PASS ")] == [
            "FAIL [basis-pos] basis C over kronecker (n <= 4, 34 elements) (S_2(X_delta))"
        ]


GOLDENS = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "goldens.json").read_text(encoding="utf-8")
)


def _golden_argv(key):
    """The CLI arguments of a golden key.  A variables key is its argument
    vector joined by ':'.  Homogeneous characters do not depend on the
    point, so point 1 stands for every one."""
    kind, *rest = key.split(":")
    if kind == "variables":
        return [kind, *rest]
    if kind == "verify":
        return ["verify", rest[0]]
    family = rest[0]
    n = int(rest[1].removeprefix("n="))
    index = int(rest[2].removeprefix("index="))
    if family in ("kronecker_preprojective", "kronecker_preinjective"):
        params = {"k": n}
    elif family == "affineA21_tube":
        params = {"index": index, "n": n}
    else:
        params = {"n": n, "point": 1}
    return ["char", "--json", "--module", json.dumps({"family": family, "params": params})]


# any text, and the escapes the writer must match: quote, backslash, control
# characters and non-ASCII
_JSON_TEXT = st.text(st.characters(), max_size=8) | st.sampled_from(
    ["", '"', "\\", "\n\t\x00\x1f\x7f", "\u00e9\u2603\U0001f600"]
)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(10**40), 10**40) | _JSON_TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_JSON_TEXT, inner, max_size=4),
    max_leaves=20,
)


@given(_JSON_VALUES)
@settings(max_examples=300, deadline=None)
def test_json_writer_matches_json_dumps(obj):
    assert _json_text(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize("obj", [1.5, (1,), {1: 2}, {"a": [set()]}, b"x"], ids=repr)
def test_json_writer_refuses_other_types(obj):
    with pytest.raises(TypeError):
        _json_text(obj)


# One valid argv of each verb.
VERB_ARGVS = [
    ["gencheb", "--n", "3"],
    ["delta", "--l", "2", "--p", "2", "--substitute", "periodic"],
    ["cheb", "--kind", "S", "--n", "4"],
    ["char", "--module", '{"family":"affineA21_tube","params":{"index":1,"n":3}}'],
    ["grass", "--module", MODULE_QUASI, "--e", "1,1"],
    ["mutate", "--quiver", "affineA2", "--sequence", "1,2,3", "--principal"],
    ["variables", "--quiver", "kronecker", "--depth", "3"],
    ["basis", "--kind", "B", "--max-n", "2", "--quiver", "kronecker"],
    ["verify", "lemma-key"],
]


@pytest.mark.parametrize("argv", VERB_ARGVS, ids=lambda argv: argv[0])
def test_json_output_is_json_dumps_indent_two(capsys, argv):
    _, out, _ = run_cli(capsys, *argv, "--json")
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


@pytest.mark.parametrize("key", list(GOLDENS))
def test_byte_stable_against_goldens(capsys, key):
    code, out, _ = run_cli(capsys, *_golden_argv(key))
    assert code == GOLDENS[key]["exit"]
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDENS[key]["sha256"]


def test_two_calls_share_one_parser(capsys, monkeypatch):
    parsers = []
    parse_args = argparse.ArgumentParser.parse_args

    def spy(self, *args, **kwargs):
        parsers.append(self)
        return parse_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
    run_cli(capsys, "cheb", "--kind", "F", "--n", "2")
    run_cli(capsys, "cheb", "--kind", "S", "--n", "2")
    assert len(parsers) == 2 and parsers[0] is parsers[1]


@pytest.mark.parametrize(
    "argv", [*VERB_ARGVS, ["-h"], [], ["bogus", "--n", "3"]], ids=lambda argv: " ".join(argv[:1]) or "none"
)
def test_main_calls_parse_args_once(capsys, monkeypatch, argv):
    # The benchmark ends its set-up at the first ArgumentParser.parse_args
    # call; a verb's own parser must not build the full one.
    calls = []
    parse_args = argparse.ArgumentParser.parse_args

    def spy(self, *args, **kwargs):
        calls.append(self)
        return parse_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
    cli._build_parser.cache_clear()
    cli._verb_parser.cache_clear()
    try:
        main(argv)
    except SystemExit:
        pass
    capsys.readouterr()
    assert len(calls) == 1
    full = not (argv and argv[0] in cli._VERBS)
    assert cli._build_parser.cache_info().currsize == full


def _parsed(parser, argv, capsys):
    try:
        got, code = vars(parser.parse_args(argv)), None
    except SystemExit as exc:
        got, code = None, exc.code
    return got, code, *capsys.readouterr()


def _parse_variants(argv):
    """Valid argv, then -h, no required option, an unknown option, an extra
    positional, and a bad int and a bad choice for each option that takes one."""
    verb = argv[0]
    yield argv
    yield [verb, "-h"]
    yield [verb, "--json"]
    yield [*argv, "--bogus"]
    yield [*argv, "extra"]
    for flags, kwargs in cli._VERBS[verb][2]:
        if kwargs.get("type") is int:
            yield [*argv, flags[0], "x"]
        if "choices" in kwargs:
            yield [*argv, flags[0], "nonesuch"]


@pytest.mark.parametrize("argv", VERB_ARGVS, ids=lambda argv: argv[0])
def test_verb_parser_matches_the_full_parser(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    for variant in _parse_variants(argv):
        want = _parsed(cli._build_parser(), variant, capsys)
        assert _parsed(cli._verb_parser(argv[0]), variant, capsys) == want, variant
    # "unrecognized arguments" is a top-level error: its usage lists every verb.
    _, code, _, err = _parsed(cli._verb_parser(argv[0]), [*argv, "extra"], capsys)
    assert code == 2 and "{gencheb,delta,cheb,char,grass,mutate,variables,basis,verify}" in err


class TestConsoleEntry:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "clusterchar", "gencheb", "--n", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "t2*t1 - q2\n"

    def test_closed_stdout_exits_141_without_traceback(self):
        # The read end is closed before the command starts, so its first
        # write to stdout fails with EPIPE whatever the timing.
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "clusterchar", "variables", "--quiver", "kronecker",
                 "--depth", "16", "--principal"],
                stdout=write,
                stderr=subprocess.PIPE,
            )
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (141, b"")

    def test_cli_import_loads_none_of_dataclasses_inspect_pathlib(self):
        src = Path(__file__).resolve().parents[1] / "src"
        heavy = "{'dataclasses', 'inspect', 'pathlib', 'typing'}"
        code = f"import sys, clusterchar.cli; print(sorted({heavy} & set(sys.modules)))"
        proc = subprocess.run(
            [sys.executable, "-S", "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"
