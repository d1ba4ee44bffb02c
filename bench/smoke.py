"""Smoke test of the benchmark itself.

    python3 bench/smoke.py

Runs every workload of BENCHMARK.json at a tiny size (``--tiny``), with
tracing off and on, and checks the result line: exactly the four keys, a
correct run with no failures, and metric names and units equal to
BENCHMARK.json's end_to_end (trace 0) or per_layer (trace 1) lists.  Then
checks that the benchmark exits non-zero without a result line when the
sources are missing (a directory holding only BENCHMARK.json and bench/)
and for an unknown workload.  Takes about a minute; exits 1 on a failure.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cwd: str, workload: str, trace: int, tiny: bool = True) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace)]
    if tiny:
        cmd.append("--tiny")
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def result_line(proc: subprocess.CompletedProcess) -> dict | None:
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) and set(result) == RESULT_KEYS else None


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            label = f"{workload} trace={trace}"
            proc = run(ROOT, workload, trace)
            result = result_line(proc)
            if proc.returncode != 0 or result is None:
                errors.append(f"{label}: exit {proc.returncode}, no result\n{proc.stderr}")
                continue
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                errors.append(f"{label}: not correct: {result}")
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            expected = {m["name"]: m["unit"] for m in listed}
            if emitted != expected:
                errors.append(f"{label}: metrics {sorted(emitted.items())} "
                              f"!= BENCHMARK.json {sorted(expected.items())}")
            print(f"ok   {label}: attempted={result['attempted']}")

    bare = os.path.join(BENCH, "out", f"bare-{os.getpid()}")
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run(bare, spec["workloads"][0]["name"], 0, tiny=False)
        if proc.returncode == 0 or result_line(proc) is not None:
            errors.append(f"without sources: exit {proc.returncode}, stdout {proc.stdout!r}")
        else:
            print("ok   without sources: exit", proc.returncode)
    finally:
        shutil.rmtree(bare)
    proc = run(ROOT, "no-such-workload", 0)
    if proc.returncode == 0 or result_line(proc) is not None:
        errors.append(f"unknown workload: exit {proc.returncode}")
    else:
        print("ok   unknown workload: exit", proc.returncode)

    for error in errors:
        print("FAIL", error)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
