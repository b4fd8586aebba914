"""Command-line front end.

Every verb is deterministic: identical inputs produce byte-identical text,
and ``--json`` mirrors the text output in machine-readable form.  Exit
codes: 0 for success or identity-holds, 1 for a verified violation (for
example a requested substitution that is provably not subtraction-free),
2 for usage or input errors, 141 (128 + SIGPIPE) when the reader of stdout
closes it early.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections.abc import Callable, Iterable
from json.encoder import encode_basestring_ascii

from . import bases, grassmannian, mutation, verify
from .character import CharTermTable, char_table, cf_cluster_char, cluster_char
from .chebyshev import (
    ChebWindow,
    cheb_first_kind,
    cheb_second_kind,
    delta,
    gen_cheb,
    gen_cheb_det,
    periodic_neighbour,
    tail_substitution,
)
from .errors import ClusterCharError, InvalidArgument
from .laurent import Family, LaurentPoly
from .quiver import (
    IntRep,
    module_from_json,
    quiver_by_name,
    quiver_from_json,
)

__all__ = ["main"]


class UsageError(Exception):
    pass


def _emit(args: argparse.Namespace, text: Callable[[], str], payload: Callable[[], dict]) -> None:
    """Print the JSON payload under ``--json`` and the text otherwise; each
    is built only when it is printed."""
    print(_json_text(payload()) if args.json else text())


def _json_text(obj: object, newline: str = "\n") -> str:
    """``json.dumps(obj, indent=2)``, byte for byte, for the values payloads
    hold: dicts with str keys, lists, str, int, bool and None.  Any other
    value, a tuple too, raises TypeError.  With ``indent`` set, ``json`` runs
    its pure-Python encoder, which this writer outpaces."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = newline + "  "
    if isinstance(obj, list):
        if not obj:
            return "[]"
        return "[" + inner + ("," + inner).join([_json_text(v, inner) for v in obj]) + newline + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            items.append(encode_basestring_ascii(key) + ": " + _json_text(value, inner))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _load_json_arg(value: str) -> dict:
    """Accept an inline JSON object or a path to a JSON file."""
    text = value
    if not value.lstrip().startswith("{"):
        if not os.path.exists(value):
            raise UsageError(f"no such file: {value}")
        try:
            with open(value, encoding="utf-8") as f:
                text = f.read()
        except OSError as exc:
            raise UsageError(f"cannot read {value}: {exc.strerror or exc}")
        except UnicodeDecodeError as exc:
            raise UsageError(f"cannot read {value}: not UTF-8 (byte {exc.start}: {exc.reason})")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"malformed JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}")
    if not isinstance(obj, dict):
        raise UsageError("top-level JSON value must be an object")
    return obj


def _resolve_quiver(raw: str):
    """Inline JSON or a ``*.json`` path; else a catalog name, even where a
    file of that name exists; else any other existing file, as JSON."""
    if not (raw.lstrip().startswith("{") or raw.endswith(".json")):
        try:
            return quiver_by_name(raw)
        except InvalidArgument:
            if not os.path.isfile(raw):
                raise
    return quiver_from_json(_load_json_arg(raw))


def _resolve_module(args: argparse.Namespace) -> IntRep:
    obj = _load_json_arg(args.module)
    return module_from_json(obj, _resolve_quiver(args.quiver) if args.quiver else None)


# ---------------------------------------------------------------------------
# verb handlers


def _cmd_gencheb(args: argparse.Namespace) -> int:
    w = ChebWindow(args.start, args.n)
    value = gen_cheb_det(w) if args.det else gen_cheb(w)
    _emit(args, value.to_text, lambda: {"n": args.n, "start": args.start, "value": value.to_json_obj()})
    return 0


def _cmd_delta(args: argparse.Namespace) -> int:
    value = delta(args.l, args.p)
    lp = args.l * args.p
    if args.substitute == "periodic":
        value = value.substitute(tail_substitution(lp, periodic_neighbour(lp)))
    elif args.substitute == "nonperiodic":  # t_{lp+1} is fresh
        value = value.substitute(tail_substitution(lp, lambda i: i + 1))
    if args.coefficient_free:
        value = value.specialize_ones(Family.Q)
    positive = value.is_subtraction_free()
    _emit(args, value.to_text, lambda: {
        "l": args.l,
        "p": args.p,
        "substitute": args.substitute,
        "coefficient_free": args.coefficient_free,
        "value": value.to_json_obj(),
        "subtraction_free": positive,
    })
    if args.substitute != "none" and not positive:
        return 1  # a verified non-positivity witness
    return 0


def _cmd_cheb(args: argparse.Namespace) -> int:
    value = cheb_first_kind(args.n) if args.kind == "F" else cheb_second_kind(args.n)
    _emit(args, value.to_text, lambda: {"kind": args.kind, "n": args.n, "value": value.to_json_obj()})
    return 0


def _char_payload(table: CharTermTable, total: LaurentPoly) -> dict:
    return {
        "dim": list(table.rep.dim),
        "value": total.to_json_obj(),
        "terms": [
            {"e": list(e), "value": v.to_json_obj()}
            for e, v in table.terms
        ],
    }


def _cmd_char(args: argparse.Namespace) -> int:
    rep = _resolve_module(args)
    table = char_table(rep)
    total = cf_cluster_char(rep) if args.coefficient_free else cluster_char(rep)
    _emit(args, total.to_text, lambda: _char_payload(table, total))
    return 0


def _cmd_grass(args: argparse.Namespace) -> int:
    rep = _resolve_module(args)
    try:
        e = tuple(int(v) for v in args.e.split(","))
    except ValueError:
        raise UsageError(f"bad dimension vector: {args.e!r}")
    prof = grassmannian.profile(rep, e)
    samples = [[p, c] for p, c in prof.samples]
    _emit(
        args,
        lambda: f"e={list(e)} samples={samples} coefficients={list(prof.coefficients)} chi={prof.chi}",
        lambda: {"e": list(e), "samples": samples, "coefficients": list(prof.coefficients), "chi": prof.chi},
    )
    return 0


def _parse_sequence(raw: str, quiver) -> list[int]:
    out = []
    for tok in raw.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if tok in quiver.vertices:
            out.append(quiver.index(tok))
        else:
            raise UsageError(f"unknown vertex {tok!r}")
    return out


def _cmd_mutate(args: argparse.Namespace) -> int:
    quiver = _resolve_quiver(args.quiver)
    seed = mutation.initial_seed(quiver, principal=args.principal)
    for k in _parse_sequence(args.sequence, quiver):
        seed = mutation.mutate(seed, k)
    _emit(
        args,
        lambda: "\n".join(f"x[{v}] = {poly.to_text()}" for v, poly in zip(quiver.vertices, seed.cluster)),
        lambda: {
            "sequence": args.sequence,
            "principal": args.principal,
            "matrix": [list(r) for r in seed.exchange_matrix],
            "cluster": [p.to_json_obj() for p in seed.cluster],
        },
    )
    return 0


def _cmd_variables(args: argparse.Namespace) -> int:
    quiver = _resolve_quiver(args.quiver)
    variables = mutation.cluster_variables_up_to(quiver, args.depth, principal=args.principal)
    _emit(args, lambda: "\n".join(v.to_text() for v in variables), lambda: {
        "depth": args.depth,
        "principal": args.principal,
        "count": len(variables),
        "variables": [v.to_json_obj() for v in variables],
    })
    return 0


def _cmd_basis(args: argparse.Namespace) -> int:
    quiver = _resolve_quiver(args.quiver)
    lines = bases.verify_positivity(args.kind, args.max_n, quiver)
    all_positive = all(line.passed for line in lines)
    _emit(args, lambda: "\n".join(
        f"{'PASS' if line.passed else 'FAIL'} {line.label}"
        + (f" [offending {line.detail}]" if line.detail else "")
        for line in lines
    ), lambda: {
        "kind": args.kind,
        "max_n": args.max_n,
        "all_positive": all_positive,
        "elements": [
            {"description": l.label, "positive": l.passed, "witness": l.detail}
            for l in lines
        ],
    })
    return 0 if all_positive else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.check == "all":
        names = verify.available_checks()
    elif args.check not in verify.REGISTRY:
        raise UsageError(
            f"unknown check {args.check!r}; available: "
            + ", ".join(verify.available_checks()) + ", all"
        )
    elif args.n is not None and verify.REGISTRY[args.check][1] is None:
        raise UsageError(f"check {args.check!r} takes no --n bound")
    else:
        names = [args.check]
    results = []
    for name in names:
        lines = verify.run_check(name, args.n)
        if not lines:
            raise UsageError(f"--n {args.n} leaves check {name!r} nothing to check")
        results.extend(
            {"check": name, "label": line.label, "passed": line.passed, "detail": line.detail}
            for line in lines
        )
    all_ok = all(r["passed"] for r in results)
    _emit(args, lambda: "\n".join(
        f"{'PASS' if r['passed'] else 'FAIL'} [{r['check']}] {r['label']}"
        + (f" ({r['detail']})" if r["detail"] and not r["passed"] else "")
        for r in results
    ), lambda: {"all_passed": all_ok, "results": results})
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# parser


def _opt(*flags: str, **kwargs) -> tuple[tuple[str, ...], dict]:
    return flags, kwargs


# Each verb's handler, help text and options after ``--json``.
_VERBS = {
    "gencheb": (_cmd_gencheb, "generalized Chebyshev polynomial over a window", (
        _opt("--n", type=int, required=True, help="window length"),
        _opt("--start", type=int, default=1, help="window start index, >= 0 (default 1)"),
        _opt("--det", action="store_true", help="use the determinant oracle"),
    )),
    "delta": (_cmd_delta, "delta-polynomial, optionally substituted", (
        _opt("--l", type=int, required=True),
        _opt("--p", type=int, required=True),
        _opt(
            "--substitute",
            choices=("none", "periodic", "nonperiodic"),
            default="none",
            help="periodic: t_i -> t_i + q_i/t_{i-1}, t_0 wrapping to t_{l*p}; "
            "nonperiodic: t_i -> t_i + q_i/t_{i+1}, t_{l*p+1} fresh",
        ),
        _opt("--coefficient-free", action="store_true", help="set all q to 1"),
    )),
    "cheb": (_cmd_cheb, "one-variable normalized Chebyshev polynomial", (
        _opt("--kind", choices=("F", "S"), required=True),
        _opt("--n", type=int, required=True),
    )),
    "char": (_cmd_char, "cluster character of a module", (
        _opt("--module", required=True, help="module JSON (inline or path)"),
        _opt("--quiver", help="quiver name or JSON; must be the module's own"),
        _opt("--coefficient-free", action="store_true"),
    )),
    "grass": (_cmd_grass, "counting polynomial and Euler characteristic", (
        _opt("--module", required=True, help="module JSON (inline or path)"),
        _opt("--quiver", help="quiver name or JSON; must be the module's own"),
        _opt("--e", required=True, help="sub-dimension vector, e.g. 0,1"),
    )),
    "mutate": (_cmd_mutate, "apply a mutation sequence to the initial seed", (
        _opt("--quiver", required=True, help="kronecker | affineA2 | JSON"),
        _opt("--sequence", required=True, help="comma-separated vertex ids"),
        _opt("--principal", action="store_true", help="track principal coefficients"),
    )),
    "variables": (_cmd_variables, "cluster variables up to a mutation depth", (
        _opt("--quiver", required=True),
        _opt("--depth", type=int, required=True),
        _opt("--principal", action="store_true"),
    )),
    "basis": (_cmd_basis, "expand and check one basis stratum", (
        _opt("--kind", choices=bases.KINDS, required=True),
        _opt("--max-n", type=int, required=True),
        _opt("--quiver", required=True),
    )),
    "verify": (_cmd_verify, "run a named verification check", (
        _opt("check", help="check name or 'all'", nargs="?", default="all"),
        _opt("--n", type=int, default=None, help="override the check's size bound"),
    )),
}


def _parser_of(verbs: Iterable[str]) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clusterchar",
        description="Exact cluster characters, generalized Chebyshev polynomials, "
        "and quiver Grassmannian counting at desk scale.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for name in verbs:
        handler, help_, options = _VERBS[name]
        p = sub.add_parser(name, help=help_)
        p.set_defaults(handler=handler)
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")
        for flags, kwargs in options:
            p.add_argument(*flags, **kwargs)
    return parser


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The full parser, with every verb."""
    return _parser_of(_VERBS)


@functools.cache
def _verb_parser(verb: str) -> argparse.ArgumentParser:
    """A parser with only ``verb``'s subparser: a tenth of the full build.
    Once the verb is parsed, its one top-level error is "unrecognized
    arguments", which the full parser prints with every verb in its usage;
    the full parser is built only then."""
    parser = _parser_of((verb,))
    parser.error = lambda message: _build_parser().error(message)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _verb_parser(argv[0]) if argv and argv[0] in _VERBS else _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader left early.  Point stdout at devnull so that the flush
        # at exit does not fail again, and exit as a process killed by SIGPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ClusterCharError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
