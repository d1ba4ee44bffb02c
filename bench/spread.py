"""Run-to-run spread of the benchmark's metrics across seeds.

    python3 bench/spread.py --workload NAME [--workload NAME ...] \
        --seeds 1-10 [--trace 0|1] [--label TEXT]

Runs ``bench/run.py`` once per seed and workload, one run at a time, with
BENCHMARK.json's run_seconds, and prints for every metric the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread: the
distance between the quartiles as a share of the median, next to the
metric's bound.  The runs' records go to ``bench/out/spread-<label>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label", default="latest")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    runs = []
    ok = True
    for workload in args.workload:
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            cmd = [sys.executable, *spec["command"][1:], "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else None
            if result is None or not result["correct"]:
                ok = False
                print(f"{workload} seed {seed}: exit {proc.returncode}, result {result}\n{proc.stderr}")
                continue
            runs.append({"workload": workload, "seed": seed, **result})
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"== {workload}: {sum(r['workload'] == workload for r in runs)} runs")
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = "" if bound is None or spread <= bound / 3 else "  <-- above bound/3"
            print(f"  {name:58s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {spread:.4f}  bound {bound}{flag}")
    os.makedirs(os.path.join(BENCH, "out"), exist_ok=True)
    with open(os.path.join(BENCH, "out", f"spread-{args.label}.json"), "w", encoding="utf-8") as fh:
        json.dump(runs, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
