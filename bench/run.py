"""symtail benchmark: one workload, closed loop, one caller.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Run from the repository root; ``symtail`` is imported from ``src/``.  The
workload's pass (its fixed list of top-level calls) is repeated until the
time budget is spent; every call's output is checked.  With ``--trace 0``
the last stdout line carries the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run.  Earlier lines give each metric with its
unit and sample count, the run metadata and the output digest; the same
record is written to ``bench/out/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter

from calibrate import REFERENCE_CHILD_S, Sampler, child_cpu_s, reference_child_cpu_s

# One caller, one thread: keep numpy's BLAS from starting (and spinning)
# worker threads in the run and in its set-up probes.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
SETUP_PROBES = 15

END_TO_END_UNITS = {
    "items_per_s": "1/s",
    "call_ms_p50": "ms",
    "call_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metric -> unit.  Values are per pass (the workload's full item
# set once) unless the name ends in _ratio or _per_s / per_instance.
PER_LAYER_UNITS = {
    "exactmath.largest_binomial_sum.hit_ratio": "ratio",
    "exactmath.largest_binomial_ratio.self_s": "s",
    "distributions.convolve.calls": "count",
    "distributions.convolve.self_s": "s",
    "distributions.convolve.out_atoms": "count",
    "distributions.poisson_binomial.calls": "count",
    "distributions.poisson_binomial.self_s": "s",
    "distributions.abs_tail.calls": "count",
    "distributions.abs_tail.self_s": "s",
    "distributions.abs_tail.atoms_scanned": "count",
    "distributions.abs_stochastically_geq.self_s": "s",
    "distributions.is_symmetric.self_s": "s",
    "distributions.is_unimodal_with_span.self_s": "s",
    "distributions.LatticeDistribution.from_json_dict.self_s": "s",
    "bounds.evaluate_bounds.calls": "count",
    "bounds.evaluate_bounds.self_s": "s",
    "bounds.improved_bound.calls": "count",
    "bounds.improved_bound.self_s": "s",
    "oracles.bound_soundness_sweep.self_s": "s",
    "oracles.bound_soundness_sweep.convolve_per_instance": "count",
    "oracles.bound_soundness_sweep.bound_reuse_ratio": "ratio",
    "oracles.kleitman_count.calls": "count",
    "oracles.kleitman_count.self_s": "s",
    "oracles.kleitman_count.subsets_per_s": "1/s",
    "oracles.exact_sum_distribution.calls": "count",
    "oracles.exact_sum_distribution.self_s": "s",
    "ordering.pruss_check.self_s": "s",
    "ordering.half_mass_check.self_s": "s",
    "ordering.birnbaum_check.self_s": "s",
    "ordering.ComparisonInstance.sums.calls": "count",
    "cli.main.self_s": "s",
    "rational.decimal_str.calls": "count",
    "rational.decimal_str.self_s": "s",
    "rational.format_rational.self_s": "s",
    "trace.items_per_s": "1/s",
    "trace.untraced_items_per_s": "1/s",
    "trace.overhead_ratio": "ratio",
}

# Extra counts taken from a wrapped call's arguments or result.
COUNTERS = {
    "distributions.convolve": lambda tr, args, res: tr.count(
        "distributions.convolve.out_atoms", len(res.atoms)),
    "distributions.abs_tail": lambda tr, args, res: tr.count(
        "distributions.abs_tail.atoms_scanned", len(args[0].atoms)),
    "oracles.kleitman_count": lambda tr, args, res: tr.count(
        "oracles.kleitman_count.subsets", 1 << len(args[0].vectors)),
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class PassResult:
    calls: list[tuple[float, float, float]]  # per call: start, end, wall s
    items: int
    failed: int
    digest: str
    cache_hits: int
    cache_misses: int
    call_s: list[float] = field(default_factory=list)  # calibrated, per call

    def calibrate(self, sampler: Sampler) -> None:
        self.call_s = [wall / sampler.factor(start, end) for start, end, wall in self.calls]

    @property
    def items_per_s(self) -> float:
        return self.items / sum(self.call_s)

    @property
    def raw_items_per_s(self) -> float:
        return self.items / sum(wall for _, _, wall in self.calls)


def _binomial_cache():
    # The LRU object behind largest_binomial_sum, captured before tracing
    # wraps it; None if a later version drops the cache.
    from symtail import exactmath
    fn = exactmath.largest_binomial_sum
    return fn if hasattr(fn, "cache_info") and hasattr(fn, "cache_clear") else None


def run_pass(workload, cache, sampler, tracer=None, first_item: int = 0) -> PassResult:
    """Run every call of the workload once; time each call, then check it.

    The binomial LRU cache is cleared first so that every pass does the same
    work, as a fresh process would.  Calibration-kernel time spent inside a
    call is taken out of its wall time.
    """
    if cache is not None:
        cache.cache_clear()
    gc.collect()
    digest = hashlib.sha256()
    calls, items, failed = [], 0, 0
    for index, call in enumerate(workload.calls):
        if tracer is not None:
            tracer.current_item = first_item + index
        paused = sampler.paused
        error = None
        t0 = perf_counter()
        try:
            result = call.run()
        except Exception as exc:  # a failed item is data, counted below
            error = exc
        t1 = perf_counter()
        calls.append((t0, t1, t1 - t0 - (sampler.paused - paused)))
        try:
            if error is not None:
                raise error
            bad, out = call.check(result)
        except Exception:  # the call raised, or its output is unreadable
            traceback.print_exc(file=sys.stderr)
            bad, out = call.items, b"error\n"
        items += call.items
        failed += bad
        digest.update(out)
    hits = misses = 0
    if cache is not None:
        info = cache.cache_info()
        hits, misses = info.hits, info.misses
    return PassResult(calls, items, failed, digest.hexdigest(), hits, misses)


def run_passes(workload, cache, seconds: float, sampler, tracer=None, first_item: int = 0):
    """Repeat passes while the next one is expected to end within budget."""
    passes: list[PassResult] = []
    started = perf_counter()
    while True:
        t0 = perf_counter()
        passes.append(run_pass(workload, cache, sampler, tracer, first_item))
        first_item += len(workload.calls)
        elapsed = perf_counter() - started
        if elapsed + (perf_counter() - t0) > seconds:
            break
    for p in passes:
        p.calibrate(sampler)
    return passes


def probe_setup(workload: str, seed: int, tiny: bool) -> list[tuple[float, float]]:
    """Cold set-ups, each a fresh interpreter (``probe.py``), between runs of
    the reference child: (CPU s of the whole probe process, host speed
    factor from the reference children before and after it)."""
    samples = []
    cmd = [sys.executable, os.path.join(BENCH, "probe.py"), workload, str(seed)]
    if tiny:
        cmd.append("--tiny")
    before = reference_child_cpu_s()
    for _ in range(SETUP_PROBES):
        start = child_cpu_s()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        cpu = child_cpu_s() - start
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{proc.stderr}")
        after = reference_child_cpu_s()
        samples.append((cpu, (before + after) / 2 / REFERENCE_CHILD_S))
        before = after
    return samples


def percentile(samples: list[float], q: int) -> float:
    """The q-th percentile (inclusive method) of at least two samples."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def end_to_end(passes: list[PassResult], setup: list[tuple[float, float]]) -> tuple[dict, dict, dict]:
    """Calibrated end-to-end metrics, their sample counts, and the same
    timings uncalibrated (for the record only).  Latency percentiles are
    taken over every call of every pass."""
    calls_ms = [s * 1e3 for p in passes for s in p.call_s]
    raw_ms = [wall * 1e3 for p in passes for _, _, wall in p.calls]
    values = {
        "items_per_s": statistics.median(p.items_per_s for p in passes),
        "call_ms_p50": statistics.median(calls_ms),
        "call_ms_p90": percentile(calls_ms, 90),
        "setup_s": statistics.median(cpu / factor for cpu, factor in setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    samples = {
        "items_per_s": len(passes),
        "call_ms_p50": len(calls_ms),
        "call_ms_p90": len(calls_ms),
        "setup_s": len(setup),
        "peak_rss_mb": 1,
    }
    raw = {
        "items_per_s": statistics.median(p.raw_items_per_s for p in passes),
        "call_ms_p50": statistics.median(raw_ms),
        "call_ms_p90": percentile(raw_ms, 90),
        "setup_s": statistics.median(cpu for cpu, _ in setup),
        "speed_factor": statistics.median(
            wall / cal for p in passes for (_, _, wall), cal in zip(p.calls, p.call_s)),
    }
    return values, samples, raw


def per_layer(tracer, workload, untraced, traced) -> tuple[dict, dict, dict]:
    stats = tracer.aggregate()
    n = len(traced)
    empty: dict = {}

    def stat(name: str, key: str) -> float:
        return stats.get(name, empty).get(key, 0)

    values = {}
    for metric in PER_LAYER_UNITS:
        name, _, key = metric.rpartition(".")
        values[metric] = stat(name, key) / n  # per pass; ratios replaced below
    hits = sum(p.cache_hits for p in traced)
    lookups = hits + sum(p.cache_misses for p in traced)
    values["exactmath.largest_binomial_sum.hit_ratio"] = hits / lookups if lookups else 0.0
    sweep = "oracles.bound_soundness_sweep"
    instances = workload.instances_per_pass * n
    checks = sum(p.items for p in traced)
    under = "calls_under." + sweep
    values[sweep + ".convolve_per_instance"] = (
        stat("distributions.convolve", under) / instances if instances else 0.0)
    values[sweep + ".bound_reuse_ratio"] = (
        1 - stat("bounds.improved_bound", under) / checks if instances else 0.0)
    kleitman_s = stat("oracles.kleitman_count", "self_s")
    values["oracles.kleitman_count.subsets_per_s"] = (
        stat("oracles.kleitman_count", "subsets") / kleitman_s if kleitman_s else 0.0)
    fast = statistics.median(p.items_per_s for p in untraced)
    slow = statistics.median(p.items_per_s for p in traced)
    values["trace.items_per_s"] = slow
    values["trace.untraced_items_per_s"] = fast
    values["trace.overhead_ratio"] = fast / slow
    samples = {m: n for m in values}
    samples["trace.untraced_items_per_s"] = len(untraced)
    return values, samples, stats


def git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def expected_digest(workload: str, seed: int) -> str | None:
    """The stored output digest of the seed's input set; a workload whose
    output ignores the seed stores one digest."""
    with open(os.path.join(BENCH, "digests.json"), encoding="utf-8") as fh:
        table = json.load(fh).get(workload)
    return table[seed % len(table)] if table else None


def import_symtail():
    if not os.path.isfile(os.path.join(SRC, "symtail", "__init__.py")):
        raise BenchError(f"no symtail sources under {SRC}; run from the repository root")
    sys.path.insert(0, SRC)
    import symtail
    if os.path.dirname(os.path.dirname(os.path.abspath(symtail.__file__))) != SRC:
        raise BenchError(f"symtail imported from {symtail.__file__}, not {SRC}")
    return symtail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="minimal inputs, for the smoke test; no digest check")
    args = parser.parse_args(argv)
    try:
        import_symtail()
        import workloads
        if args.workload not in workloads.NAMES:
            raise BenchError(f"unknown workload {args.workload!r}; choose from {workloads.NAMES}")
        return run(args, workloads)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


def run(args, workloads) -> int:
    import numpy

    setup = [] if args.trace else probe_setup(args.workload, args.seed, args.tiny)
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"run-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload = workloads.build(args.workload, args.seed, workdir, args.tiny)
        cache = _binomial_cache()
        with Sampler() as sampler:
            if args.trace:
                from tracer import Tracer

                untraced = run_passes(workload, cache, args.seconds / 3, sampler)
                # Span times leave out the calibration kernel's ticks.
                tracer = Tracer(clock=lambda: perf_counter() - sampler.paused)
                tracer.install(on_return=COUNTERS)
                traced = run_passes(workload, cache, args.seconds * 2 / 3, sampler, tracer,
                                    first_item=len(untraced) * len(workload.calls))
                passes = untraced + traced
            else:
                passes = run_passes(workload, cache, args.seconds, sampler)
        if args.trace:
            values, samples, stats = per_layer(tracer, workload, untraced, traced)
            units = PER_LAYER_UNITS
        else:
            values, samples, raw = end_to_end(passes, setup)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir)

    digests = sorted({p.digest for p in passes})
    expected = None if args.tiny else expected_digest(args.workload, args.seed)
    digest_ok = len(digests) == 1 and (args.tiny or expected == digests[0])
    attempted = sum(p.items for p in passes)
    failed = sum(p.failed for p in passes)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "tiny": args.tiny,
        "run_seconds": args.seconds,
        "passes": len(passes),
        "calls_per_pass": len(workload.calls),
        "samples": samples,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "commit": git_commit(),
        "digest": digests[0] if len(digests) == 1 else digests,
        "digest_expected": expected,
        "error_ratio": failed / attempted,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"meta": meta, "metrics": values,
              "call_ms": [[s * 1e3 for s in p.call_s] for p in passes]}
    if args.trace:
        record["layers"] = stats
        # One span file per workload, overwritten by the next traced run.
        tracer.write(os.path.join(OUT, f"spans-{args.workload}.csv.gz"))
    else:
        meta["uncalibrated"] = raw
    with open(os.path.join(OUT, f"result-{stem}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    for name, value in values.items():
        print(f"{name} {value!r} {units[name]} samples={samples[name]}")
    print(f"error_ratio {meta['error_ratio']!r} ratio attempted={attempted} failed={failed}")
    print(f"digest {meta['digest']} expected={expected}")
    print(json.dumps({"meta": meta}, sort_keys=True))
    if not digest_ok:
        print("bench: output digest mismatch or non-deterministic output", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and digest_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
