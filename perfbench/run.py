"""End-to-end benchmark of the clusterchar CLI, with an optional traced run
for per-layer splits.

Usage (from the repository root):

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0

``--workload all`` runs the three workloads one after the other.

Each repetition of a workload is one fresh child interpreter (cold caches)
that runs the workload's ops through ``clusterchar.cli.main``; children run
one at a time.  Every op's exit code and stdout digest are checked against
``goldens.json``.  Repetitions repeat until ``--seconds`` have passed.

With ``--trace 0`` the run reports, as medians over repetitions:
  run_s        first op's start (arguments parsed) to the last op's end
  setup_s      child spawn to the first op's arguments parsed; sampled from
               every repetition and from set-up-only probes before each one
  peak_rss_mb  the child's own peak RSS, from os.wait4
and prints fail_frac (failed / attempted ops) with them.  fail_frac is not
a result metric: it is 0 on correct code, and the result line carries
``attempted`` and ``failed`` instead.

The speed of a shared machine's CPUs drifts by a quarter and more within
seconds to minutes, on CPU time as much as on wall time, and each CPU
drifts on its own.  So the benchmark pins itself and its children to one
CPU, and every untraced repetition runs ``calib.Sampler``, which times a
fixed kernel every SAMPLE_EVERY_S.  The repetition's run_s (without the
sampler's own time) and the set-up samples taken just before it are divided
by its slowdown, the kernel's mean time over its reference time: they are
times at the reference speed.  The unscaled medians and the median slowdown
are printed as well.

The last line of stdout is the JSON result; a replay record (Python
version, CPUs, commit, source digest and the generated ops) precedes it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
GOLDENS = HERE / "goldens.json"
WORK = ROOT / ".perfbench-work"

WORKLOADS = ("verify", "char-ladder", "mutation-bfs")

# The named checks of `clusterchar verify`, each run at its default bound.
CHECKS = (
    "lemma-dpsn", "lemma-cc", "lemma-pnpos", "delta-pos", "delta-claim", "s-from-f",
    "lemma-key", "char-cheb", "char-mutation", "basis-pos", "tame-pos", "graded-chi",
)

# Homogeneous tube points, grouped by the primes they exclude from counting.
# The excluded primes set which primes a walk must use, and so its cost.  Each
# homogeneous rung keeps one class and the seed draws the point inside it, so
# the seed changes the inputs but not the amount of work.
POINT_CLASSES = {
    "none": (1, -1),
    "2": (2, -2, 4, -4),
    "3": (3, -3, 9, -9),
    "6": (6, -6, 12, -12),
}

# (family, n, index, point class) for each rung of the char ladder.  It stops
# one rung below the cliff: Kronecker homogeneous n=4 (~101 s) and
# preprojective k=4 (~377 s) are too slow to repeat on every run.
LADDER = (
    [("kronecker_homogeneous", n, 0, cls) for n, cls in ((1, "none"), (2, "3"), (3, "6"))]
    + [("kronecker_preprojective", k, 0, None) for k in range(4)]
    + [("kronecker_preinjective", k, 0, None) for k in range(4)]
    + [("affineA21_tube", n, i, None) for i in (1, 2) for n in range(1, 7)]
    + [("affineA21_homogeneous", n, 0, cls) for n, cls in ((1, "6"), (2, "3"), (3, "2"))]
)

# Mutation BFS cases of similar cost, with and without principal coefficients.
VARIABLES = (("affineA2", 8, True), ("affineA2", 8, False), ("kronecker", 16, True))

SETUP_PROBES_PER_REP = 3
SAMPLE_EVERY_S = 0.05
SAMPLE_ROUNDS = 80  # about 4 ms of kernel per sample at the reference speed
RUN_DEADLINE_S = 170  # a child still running this long after the start is killed


def char_op(family: str, n: int, index: int, point: int | None) -> tuple[str, list[str]]:
    """Golden key and argv of one ladder rung.  The key leaves out the point:
    homogeneous characters do not depend on it, so every draw shares one
    golden and the check covers point invariance."""
    if family in ("kronecker_preprojective", "kronecker_preinjective"):
        params = {"k": n}
    elif family == "affineA21_tube":
        params = {"index": index, "n": n}
    else:
        params = {"n": n, "point": point}
    module = json.dumps({"family": family, "params": params}, sort_keys=True)
    return f"char:{family}:n={n}:index={index}", ["char", "--json", "--module", module]


def variables_op(quiver: str, depth: int, principal: bool) -> tuple[str, list[str]]:
    argv = ["variables", "--quiver", quiver, "--depth", str(depth)]
    if principal:
        argv.append("--principal")
    return "variables:" + ":".join(argv[1:]), argv


def workload_ops(workload: str, seed: int) -> list[tuple[str, list[str]]]:
    """The ops of one workload, in the order the seed gives them."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify":
        ops = [(f"verify:{name}", ["verify", name]) for name in CHECKS]
    elif workload == "char-ladder":
        ops = [
            char_op(fam, n, idx, rng.choice(POINT_CLASSES[cls]) if cls else None)
            for fam, n, idx, cls in LADDER
        ]
    elif workload == "mutation-bfs":
        ops = [variables_op(*case) for case in VARIABLES]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops


def all_golden_ops() -> list[tuple[str, list[str]]]:
    """One op per golden key, homogeneous rungs at their class's first point."""
    ops = [(f"verify:{name}", ["verify", name]) for name in CHECKS]
    ops += [
        char_op(fam, n, idx, POINT_CLASSES[cls][0] if cls else None)
        for fam, n, idx, cls in LADDER
    ]
    ops += [variables_op(*case) for case in VARIABLES]
    return ops


def child_env() -> dict[str, str]:
    """A pinned environment: the checkout's sources, a fixed hash seed and no
    CLUSTERCHAR_PRIMES override."""
    return {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "PYTHONPATH": str(SRC),
        "PYTHONHASHSEED": "0",
        "LC_ALL": "C.UTF-8",
    }


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(job: dict, deadline: float) -> dict:
    """Run child.py on one job and wait for it.  Returns the child's report
    (None if it failed), its spawn time, exit time and peak RSS."""
    tmp = Path(tempfile.mkdtemp(dir=WORK))
    try:
        job_path, report_path = tmp / "job.json", tmp / "report.json"
        job_path.write_text(json.dumps(job), encoding="utf-8")
        argv = [sys.executable, str(CHILD), str(job_path), str(report_path)]
        quiet = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
        spawned = time.monotonic()
        pid = os.posix_spawn(sys.executable, argv, child_env(), file_actions=quiet)
        timer = threading.Timer(max(deadline - spawned, 1.0), _kill, (pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            _kill(pid)
            os.wait4(pid, 0)
            raise
        finally:
            timer.cancel()
        exited = time.monotonic()
        report = None
        if os.waitstatus_to_exitcode(status) == 0 and report_path.exists():
            report = json.loads(report_path.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return {"report": report, "spawned": spawned, "exited": exited,
            "rss_mb": usage.ru_maxrss / 1024}


def probe(argv: list[str], deadline: float) -> float | None:
    """Set-up time of one child that stops once the op's arguments are parsed."""
    got = spawn({"ops": [argv], "trace": False, "probe": True, "sample_every": None}, deadline)
    report = got["report"]
    if report is None or report["ready"] is None:
        return None
    return report["ready"] - got["spawned"]


def repetition(ops, goldens: dict, trace: bool, deadline: float) -> dict:
    """One cold child running every op; each op is checked against its golden.
    Untraced repetitions sample the machine's speed; traced ones do not, so
    that the sampler's time stays out of the spans."""
    job = {"ops": [argv for _, argv in ops], "trace": trace, "probe": False,
           "sample_every": None if trace else SAMPLE_EVERY_S, "sample_rounds": SAMPLE_ROUNDS}
    got = spawn(job, deadline)
    report = got["report"]
    results = report["ops"] if report else []
    failed = len(ops) - len(results)
    for (key, _), res in zip(ops, results):
        want = goldens.get(key)
        if want is None or (res["exit"], res["sha256"]) != (want["exit"], want["sha256"]):
            failed += 1
            print(f"FAILED {key}: exit {res['exit']} sha256 {res['sha256'][:12]} "
                  f"{res['stderr'].strip()[-300:]}", file=sys.stderr)
    if report and report["ready"] is not None and results:
        setup_s = report["ready"] - got["spawned"]
        sampled = results[-1]["sampled"] - report["sampled_at_ready"]
        run_s = results[-1]["end"] - report["ready"] - sampled
    else:
        setup_s, run_s = None, got["exited"] - got["spawned"]
    return {"attempted": len(ops), "failed": failed, "run_s": run_s, "setup_s": setup_s,
            "rss_mb": got["rss_mb"], "slowdown": (report or {}).get("slowdown") or 1.0,
            "trace": report.get("trace") if report else None}


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    goldens = json.loads(GOLDENS.read_text(encoding="utf-8"))
    ops = workload_ops(workload, seed)
    deadline = time.monotonic() + RUN_DEADLINE_S
    # A first probe compiles the sources to bytecode in a fresh checkout; its
    # time is not counted.
    probe(ops[0][1], deadline)
    stop = time.monotonic() + seconds
    plain: list[dict] = []
    traced: list[dict] = []
    setups: list[tuple[float, int]] = []  # (seconds, index of the repetition)
    while True:
        for _ in range(SETUP_PROBES_PER_REP):
            got = probe(ops[0][1], deadline)
            if got is not None:
                setups.append((got, len(plain)))
        plain.append(repetition(ops, goldens, False, deadline))
        if trace:
            traced.append(repetition(ops, goldens, True, deadline))
        if time.monotonic() >= stop:
            break
    setups += [(r["setup_s"], i) for i, r in enumerate(plain) if r["setup_s"] is not None]
    reps = plain + traced
    wall_run_s = statistics.median(r["run_s"] for r in plain)
    result = {
        "workload": workload,
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "repetitions": len(plain),
        "run_s": statistics.median(r["run_s"] / r["slowdown"] for r in plain),
        "setup_s": statistics.median(s / plain[i]["slowdown"] for s, i in setups)
        if setups else seconds,
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in plain),
        "wall_run_s": wall_run_s,
        "wall_setup_s": statistics.median(s for s, _ in setups) if setups else seconds,
        "slowdown": statistics.median(r["slowdown"] for r in plain),
        "ops": [argv for _, argv in ops],
    }
    layers = [spans.layer_metrics(r["trace"], CHECKS, r["run_s"]) for r in traced if r["trace"]]
    if layers:
        result["layers"] = {k: statistics.median(row[k] for row in layers) for k in layers[0]}
        result["layers"]["trace_overhead"] = result["layers"]["traced_run_s"] / wall_run_s
    return result


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "clusterchar").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True, check=False)
    return got.stdout.strip() or None


def end_to_end_metrics(result: dict) -> dict:
    return {
        "run_s": {"value": result["run_s"], "unit": "s"},
        "setup_s": {"value": result["setup_s"], "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
    }


def per_layer_metrics(result: dict) -> dict:
    layers = result.get("layers", {})
    return {name: {"value": value, "unit": spans.unit(name)} for name, value in layers.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "clusterchar" / "cli.py").is_file():
        print(f"error: no clusterchar sources under {SRC}", file=sys.stderr)
        return 2
    if not GOLDENS.is_file():
        print(f"error: missing {GOLDENS}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    cpus = sorted(os.sched_getaffinity(0))
    # Children inherit the CPU, so the sampler measures the CPU they run on.
    os.sched_setaffinity(0, {cpus[-1]})
    # Turn a termination request into SystemExit, so the running child is
    # killed and reaped before the benchmark exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names]

    replay = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(cpus),
        "pinned_cpu": cpus[-1],
        "commit": commit(),
        "source_sha256": source_digest(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": {r["workload"]: r["ops"] for r in results},
    }
    print(json.dumps({"replay": replay}))

    metrics: dict[str, dict] = {}
    for r in results:
        got = per_layer_metrics(r) if args.trace else end_to_end_metrics(r)
        prefix = f"{r['workload']}." if len(results) > 1 else ""
        metrics.update({prefix + k: v for k, v in got.items()})
        frac = r["failed"] / r["attempted"]
        print(f"# {r['workload']}: {r['repetitions']} repetitions, "
              f"{r['attempted']} ops, fail_frac {frac:.4f} (ratio)")
        for name, m in got.items():
            print(f"{prefix}{name:<44} {m['value']:.6g} {m['unit']}")
        if not args.trace:
            print(f"{prefix}{'fail_frac':<44} {frac:.6g} ratio")
            for name, unit in (("wall_run_s", "s"), ("wall_setup_s", "s"), ("slowdown", "ratio")):
                print(f"{prefix}{name:<44} {r[name]:.6g} {unit} (unscaled)")
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    traced_ok = not args.trace or all("layers" in r for r in results)
    print(json.dumps({
        "correct": failed == 0 and traced_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
