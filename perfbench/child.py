"""One repetition of a benchmark workload, run in a fresh interpreter.

Usage: python3 child.py JOB_JSON REPORT_JSON

The job lists the ops (CLI argument vectors) and whether to trace.  Each op
runs through the public entry point ``clusterchar.cli.main`` with stdout and
stderr captured, so every op of a repetition shares one process and its
caches, and every repetition starts with cold caches.

Set-up ends when the first op's arguments are parsed: the child hooks
``argparse.ArgumentParser.parse_args`` to take that time.  In probe mode it
stops right there, so a probe measures interpreter start, ``import
clusterchar`` and argument parsing and nothing else.

Timestamps come from ``time.monotonic()``, the clock the parent uses too.
When the job asks for it, a ``calib.Sampler`` samples the machine's speed
all along; each op records the sampler's total time when it ends, so the parent
can take it out of the run time.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import time
import traceback


class SetupDone(BaseException):
    """Stops a probe once set-up is over.  A BaseException, so the CLI's own
    error handling does not catch it."""


def main(job_path: str, report_path: str) -> int:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    marks: list[float] = []
    parse_args = argparse.ArgumentParser.parse_args
    sampler = None
    if job["sample_every"]:
        import calib

        sampler = calib.Sampler(job["sample_every"], job["sample_rounds"])

    def parse_and_mark(self, *args, **kwargs):
        namespace = parse_args(self, *args, **kwargs)
        if not marks:
            marks.append(time.monotonic())
            if job["probe"]:
                raise SetupDone
            marks.append(sampler.spent if sampler else 0.0)
        return namespace

    argparse.ArgumentParser.parse_args = parse_and_mark

    import clusterchar.cli

    tracer = None
    if job["trace"]:
        import spans

        tracer = spans.Tracer()
        tracer.install()

    ops = []
    if sampler is not None:
        sampler.start()
    try:
        for argv in job["ops"]:
            out, err = io.StringIO(), io.StringIO()
            start = time.monotonic()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = clusterchar.cli.main(argv)
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 1
                except Exception:
                    code = -1
                    err.write(traceback.format_exc())
            digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
            ops.append(
                {"start": start, "end": time.monotonic(),
                 "sampled": sampler.spent if sampler else 0.0, "exit": code,
                 "sha256": digest, "stderr": err.getvalue()[-2000:]}
            )
    except SetupDone:
        pass
    if sampler is not None:
        sampler.stop()

    report = {
        "ready": marks[0] if marks else None,
        "sampled_at_ready": marks[1] if len(marks) > 1 else 0.0,
        "slowdown": sampler.slowdown() if sampler else None,
        "ops": ops,
    }
    if tracer is not None:
        report["trace"] = tracer.dump()
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1], sys.argv[2]))
