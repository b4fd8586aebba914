"""Record the golden exit code and stdout digest of every benchmark op.

Usage (from the repository root): python3 perfbench/goldens.py

Run it only when a change to the program is meant to change CLI output;
the benchmark counts any op that disagrees with goldens.json as failed.
"""

from __future__ import annotations

import json
import sys
import time

import run


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    ops = run.all_golden_ops()
    got = run.spawn({"ops": [argv for _, argv in ops], "trace": False, "probe": False},
                    time.monotonic() + 600)
    report = got["report"]
    if report is None or len(report["ops"]) != len(ops):
        print("error: the child did not finish every op", file=sys.stderr)
        return 1
    goldens = {key: {"exit": res["exit"], "sha256": res["sha256"]}
               for (key, _), res in zip(ops, report["ops"])}
    run.GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(goldens)} goldens to {run.GOLDENS}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
