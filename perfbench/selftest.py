#!/usr/bin/env python3
"""Self-test of the benchmark: every workload, tiny, both modes.

Usage (from the repository root; about two minutes)::

    python3 perfbench/selftest.py

For each workload it runs ``run.py --tiny --seconds 1`` twice:

* untraced — the run must be correct and emit every end-to-end metric
  ``BENCHMARK.json`` names, each with its unit;
* traced, with one response body deliberately corrupted — the run must
  still emit every per-layer metric with its unit, and must report the
  corrupted response as a failed operation (``correct`` false).

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run(workload: str, trace: int, extra: list[str]) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", "7", "--seconds", "1", "--trace", str(trace),
            "--tiny", *extra]
    proc = subprocess.run(argv, cwd=HERE.parent, capture_output=True,
                          text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}:\n"
                           + proc.stderr[-3000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    problems: list[str] = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, names, extra in (
                (0, spec["end_to_end"], []),
                (1, spec["per_layer"], ["--corrupt-response", "5"])):
            label = f"{workload} --trace {trace}"
            result = run(workload, trace, extra)
            metrics = result["metrics"]
            for metric in names:
                got = metrics.get(metric["name"])
                if got is None or got.get("unit") != metric["unit"]:
                    problems.append(f"{label}: {metric['name']} missing or "
                                    f"not in {metric['unit']}: {got}")
            extra_names = set(metrics) - {m["name"] for m in names}
            if extra_names:
                problems.append(f"{label}: unexpected {sorted(extra_names)}")
            if trace == 0 and not (result["correct"]
                                   and result["failed"] == 0):
                problems.append(f"{label}: not correct: {result}")
            if trace == 1 and (result["correct"] or result["failed"] < 1):
                problems.append(f"{label}: a corrupted response was not "
                                "counted as a failure")
            print(f"{label}: {len(metrics)} metrics, attempted "
                  f"{result['attempted']}, failed {result['failed']}",
                  flush=True)
    for problem in problems:
        print("FAIL", problem, file=sys.stderr)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
