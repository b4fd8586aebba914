"""Self-test of the benchmark.

Usage (from the repository root): python3 perfbench/selftest.py [--seed N]

Runs two traced repetitions of every workload at the same seed and fails
(exit 1) when
  - an op disagrees with its golden,
  - a span the workload is expected to exercise never fires, or a span it
    is expected to bypass fires,
  - a count metric differs between the two repetitions,
  - the metric names the benchmark reports differ from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import time

import run
import spans

# Spans each workload must fire, and spans it must not (the bypassed layers).
EXPECTED = {
    "verify": {
        "fires": (
            "cli.main", "bases.verify_positivity", "mutation.mutate", "character.char_table",
            "character.char_via_chebyshev", "chebyshev.gen_cheb", "chebyshev.delta",
            "grassmannian.walk", "grassmannian.count_subreps", "grassmannian.profile",
            "laurent.mul", "laurent.substitute", "laurent.exact_div", "quiver.catalog_module",
            "verify.run_check",
        ) + tuple(f"verify.run_check:{name}" for name in run.CHECKS),
        "silent": (),
    },
    "char-ladder": {
        "fires": (
            "cli.main", "character.char_table", "grassmannian.walk",
            "grassmannian.count_subreps", "grassmannian.profile", "laurent.serialize",
            "quiver.catalog_module",
        ),
        "silent": ("mutation.mutate", "laurent.exact_div", "verify.run_check"),
    },
    "mutation-bfs": {
        "fires": ("cli.main", "mutation.mutate", "laurent.mul", "laurent.exact_div",
                  "laurent.serialize"),
        "silent": ("grassmannian.walk", "grassmannian.count_subreps", "grassmannian.profile",
                   "character.char_table", "quiver.catalog_module"),
    },
}

COUNTS = (
    "grassmannian.samples", "grassmannian.walks", "grassmannian.degree_slack",
    "laurent.mul_calls", "laurent.substitute_calls", "laurent.exact_div_calls",
    "mutation.mutate_calls", "mutation.seeds",
)


def check_workload(workload: str, seed: int, goldens: dict) -> list[str]:
    problems = []
    ops = run.workload_ops(workload, seed)
    deadline = time.monotonic() + run.RUN_DEADLINE_S
    reps = [run.repetition(ops, goldens, True, deadline) for _ in range(2)]
    if any(rep["failed"] or rep["trace"] is None for rep in reps):
        return [f"{workload}: ops failed in a traced repetition"]
    fired = {name.split(":")[0] for name in reps[0]["trace"]["names"]}
    fired |= set(reps[0]["trace"]["names"])
    want = EXPECTED[workload]
    problems += [f"{workload}: span {name} never fired" for name in want["fires"]
                 if name not in fired]
    problems += [f"{workload}: span {name} fired on a workload that bypasses it"
                 for name in want["silent"] if name in fired]
    first, second = (spans.layer_metrics(rep["trace"], run.CHECKS, rep["run_s"]) for rep in reps)
    problems += [f"{workload}: {name} differs between runs ({first[name]} vs {second[name]})"
                 for name in COUNTS if first[name] != second[name]]
    return problems


def check_declared() -> list[str]:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    layers = set(spans.layer_metrics(spans.EMPTY_DUMP, run.CHECKS, 1.0)) | {"trace_overhead"}
    declared = {m["name"] for m in bench["per_layer"]}
    if layers != declared:
        problems.append(f"per_layer names differ from the traced run: {sorted(layers ^ declared)}")
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    if end_to_end != {"run_s", "setup_s", "peak_rss_mb"}:
        problems.append(f"end_to_end names differ from the run: {sorted(end_to_end)}")
    if {w["name"] for w in bench["workloads"]} != set(run.WORKLOADS):
        problems.append("workload names differ from run.WORKLOADS")
    covered = set().union(*(set(e["fires"]) for e in EXPECTED.values()))
    problems += [f"declared span {name} is expected on no workload"
                 for name in spans.SPAN_NAMES if name not in covered]
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description="Self-test of the benchmark.")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    run.WORK.mkdir(exist_ok=True)
    goldens = json.loads(run.GOLDENS.read_text(encoding="utf-8"))
    problems = check_declared()
    for workload in run.WORKLOADS:
        found = check_workload(workload, args.seed, goldens)
        print(f"{'FAIL' if found else 'PASS'} {workload}")
        problems += found
    for line in problems:
        print(f"  {line}")
    print("FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
