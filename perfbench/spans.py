"""Layer tracing installed from outside the program.

``Tracer.install`` wraps public functions of the ``clusterchar`` modules
and rebinds each wrapper in every ``clusterchar.*`` namespace that holds
the original.  ``verify``, ``bases`` and ``cli`` use ``from``-imports, so
patching only the defining module would silently miss their calls.

Each call of a wrapped function records a span: name, start, end and the
span that was open when it began.  Spans stay in memory until ``dump``.
``layer_metrics`` turns a dump into per-layer metrics; a span's self time
is its duration minus the durations of the spans nested directly in it.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

SPAN_NAMES = (
    "cli.main",
    "verify.run_check",
    "bases.verify_positivity",
    "mutation.mutate",
    "character.char_table",
    "character.char_via_chebyshev",
    "chebyshev.gen_cheb",
    "chebyshev.delta",
    "grassmannian.walk",
    "grassmannian.count_subreps",
    "grassmannian.profile",
    "laurent.mul",
    "laurent.substitute",
    "laurent.exact_div",
    "laurent.serialize",
    "quiver.catalog_module",
)

# cached public functions whose cache_info() is reported
CACHED = (
    ("character", "char_table"),
    ("character", "cluster_char"),
    ("grassmannian", "gaussian_binomial"),
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: Counter[str] = Counter()
        self._caches: dict[str, object] = {}
        self._walked: set = set()
        self._profiled: set = set()

    def _id(self, name: str) -> int:
        got = self._ids.get(name)
        if got is None:
            got = self._ids[name] = len(self.names)
            self.names.append(name)
        return got

    def wrap(self, fn, name_for, after=None):
        """A wrapper of ``fn`` that records one span per call, named by
        ``name_for(args)``, and then calls ``after(args, result)``."""
        clock = time.perf_counter
        stack, start, end = self._stack, self.start, self.end

        def wrapper(*args, **kwargs):
            idx = len(start)
            self.name.append(self._id(name_for(args)))
            self.parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _walk_name(self, args) -> str:
        # count_subreps(rep, e, p): the first request of a (module, prime)
        # pair walks F_p; later ones read the cached box of counts.
        key = (args[0], args[2])
        if key in self._walked:
            return "grassmannian.count_subreps"
        self._walked.add(key)
        return "grassmannian.walk"

    def _after_profile(self, args, prof) -> None:
        key = (prof.rep, prof.e)
        if key in self._profiled:
            return
        self._profiled.add(key)
        bound = sum(ei * (di - ei) for ei, di in zip(prof.e, prof.rep.dim))
        self.counters["grassmannian.samples"] += len(prof.samples)
        self.counters["grassmannian.degree_slack"] += bound - (len(prof.coefficients) - 1)
        top = max(p for p, _ in prof.samples)
        self.counters["grassmannian.prime_max"] = max(self.counters["grassmannian.prime_max"], top)

    def _after_mul(self, args, result) -> None:
        self.counters["laurent.mul_terms_out"] += len(result)

    def _count_seeds(self, fn):
        counters = self.counters

        def seeds_up_to(*args, **kwargs):
            for seed in fn(*args, **kwargs):
                counters["mutation.seeds"] += 1
                yield seed

        seeds_up_to.__wrapped__ = fn
        return seeds_up_to

    def install(self) -> None:
        import clusterchar
        from clusterchar import (
            bases, character, chebyshev, cli, grassmannian, laurent, mutation, quiver, verify,
        )

        def const(name):
            return lambda args: name

        functions = [
            (cli, "main", const("cli.main"), None),
            (verify, "run_check", lambda args: "verify.run_check:" + args[0], None),
            (bases, "verify_positivity", const("bases.verify_positivity"), None),
            (mutation, "mutate", const("mutation.mutate"), None),
            (character, "char_table", const("character.char_table"), None),
            (character, "char_via_chebyshev", const("character.char_via_chebyshev"), None),
            (chebyshev, "gen_cheb", const("chebyshev.gen_cheb"), None),
            (chebyshev, "delta", const("chebyshev.delta"), None),
            (grassmannian, "count_subreps", self._walk_name, None),
            (grassmannian, "profile", const("grassmannian.profile"), self._after_profile),
            (quiver, "catalog_module", const("quiver.catalog_module"), None),
        ]
        for module, attr in CACHED:
            self._caches[f"{module}.{attr}"] = getattr(getattr(clusterchar, module), attr)
        replaced = {}
        for module, attr, name_for, after in functions:
            original = getattr(module, attr)
            replaced[id(original)] = (original, self.wrap(original, name_for, after))
        original = mutation.seeds_up_to
        replaced[id(original)] = (original, self._count_seeds(original))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "clusterchar" and not mod_name.startswith("clusterchar."):
                continue
            for attr, value in list(vars(module).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

        poly = laurent.LaurentPoly
        mul = self.wrap(poly.__mul__, const("laurent.mul"), self._after_mul)
        poly.__mul__ = poly.__rmul__ = mul
        poly.substitute = self.wrap(poly.substitute, const("laurent.substitute"))
        poly.exact_div = self.wrap(poly.exact_div, const("laurent.exact_div"))
        poly.to_text = self.wrap(poly.to_text, const("laurent.serialize"))
        poly.to_json_obj = self.wrap(poly.to_json_obj, const("laurent.serialize"))

    def dump(self) -> dict:
        caches = {}
        for key, fn in self._caches.items():
            info = fn.cache_info()
            caches[key] = [info.hits, info.misses]
        return {
            "names": self.names,
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "counters": dict(self.counters),
            "caches": caches,
        }


def span_totals(dump: dict) -> dict[str, dict[str, float]]:
    """Calls, inclusive time and self time for every span name."""
    start, end, parent = dump["start"], dump["end"], dump["parent"]
    dur = [e - s for s, e in zip(start, end)]
    covered = [0.0] * len(dur)
    for i, p in enumerate(parent):
        if p >= 0:
            covered[p] += dur[i]
    totals: dict[str, dict[str, float]] = {}
    for i, nid in enumerate(dump["name"]):
        row = totals.setdefault(dump["names"][nid], {"calls": 0, "incl": 0.0, "self": 0.0})
        row["calls"] += 1
        row["incl"] += dur[i]
        row["self"] += dur[i] - covered[i]
    return totals


def layer_metrics(dump: dict, checks, run_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced repetition that took ``run_s``."""
    totals = span_totals(dump)
    counters = dump["counters"]

    def get(name: str, field: str) -> float:
        return totals.get(name, {}).get(field, 0)

    walks = get("grassmannian.walk", "calls")
    count_calls = walks + get("grassmannian.count_subreps", "calls")
    out = {
        "grassmannian.walk_s": get("grassmannian.walk", "incl"),
        "grassmannian.walks": walks,
        "grassmannian.count_calls": count_calls,
        "grassmannian.walk_reuse": 1 - walks / count_calls if count_calls else 0.0,
        "grassmannian.samples": counters.get("grassmannian.samples", 0),
        "grassmannian.prime_max": counters.get("grassmannian.prime_max", 0),
        "grassmannian.degree_slack": counters.get("grassmannian.degree_slack", 0),
        "grassmannian.interp_s": get("grassmannian.profile", "self"),
        "laurent.mul_calls": get("laurent.mul", "calls"),
        "laurent.mul_s": get("laurent.mul", "self"),
        "laurent.mul_terms_out": counters.get("laurent.mul_terms_out", 0),
        "laurent.substitute_calls": get("laurent.substitute", "calls"),
        "laurent.substitute_s": get("laurent.substitute", "self"),
        "laurent.exact_div_calls": get("laurent.exact_div", "calls"),
        "laurent.exact_div_s": get("laurent.exact_div", "self"),
        "laurent.serialize_s": get("laurent.serialize", "self"),
        "chebyshev.gen_cheb_s": get("chebyshev.gen_cheb", "self"),
        "chebyshev.delta_s": get("chebyshev.delta", "self"),
        "bases.verify_positivity_s": get("bases.verify_positivity", "self"),
        "character.char_via_chebyshev_s": get("character.char_via_chebyshev", "self"),
        "character.char_table_s": get("character.char_table", "self"),
        "mutation.mutate_calls": get("mutation.mutate", "calls"),
        "mutation.seeds": counters.get("mutation.seeds", 0),
        "mutation.mutate_s": get("mutation.mutate", "self"),
        "quiver.catalog_module_s": get("quiver.catalog_module", "self"),
        "cli.self_s": get("cli.main", "self"),
    }
    for name in checks:
        out[f"verify.check_s.{name}"] = get("verify.run_check:" + name, "incl")
    for key, (hits, misses) in dump["caches"].items():
        out[f"{key}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["laurent.self_s"] = sum(
        row["self"] for name, row in totals.items() if name.startswith("laurent.")
    )
    out["traced_run_s"] = run_s
    out["grassmannian.walk_share"] = out["grassmannian.walk_s"] / run_s
    out["laurent.share"] = out["laurent.self_s"] / run_s
    return out


EMPTY_DUMP = {
    "names": [], "name": [], "parent": [], "start": [], "end": [], "counters": {},
    "caches": {f"{module}.{attr}": [0, 0] for module, attr in CACHED},
}


def unit(name: str) -> str:
    if name.endswith("_s") or ".check_s." in name:
        return "s"
    if name.endswith(("_ratio", "_reuse", "_share", ".share", "_overhead")):
        return "ratio"
    if name.endswith("prime_max"):
        return "prime"
    return "count"
