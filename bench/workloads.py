"""Seeded workload inputs, their timed calls and their output checks.

Every workload is a fixed list of top-level calls (one *pass*).  The seed
varies only the values inside the inputs; sizes are fixed by the call's
position in the list, so the work per item is comparable across seeds.
Calls look their target up on the ``symtail`` module at call time, so the
traced run's wrappers are the ones invoked.

Output checks do not depend on the seed and use nothing from ``symtail``
except the call under test: each returns (failed items, output bytes), and
the bytes feed the workload's sha256 output digest.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from symtail import cli, oracles

NAMES = ("sweep-family", "bound-grid", "kleitman-count", "compare-cli")
# Seeds are folded onto this many input sets.  Every input set has its
# output digest in digests.json, so every seed's run is checked byte-exactly.
INPUT_SETS = 64
PRIMES = (2, 3, 5, 7, 11)  # the denominators <= 12 of bound-grid's p_i


@dataclass(frozen=True)
class Call:
    """One timed top-level call, how to check its result, and its item count."""

    run: Callable[[], object]
    check: Callable[[object], tuple[int, bytes]]
    items: int


@dataclass(frozen=True)
class Workload:
    calls: tuple[Call, ...]
    instances_per_pass: int = 0  # sweep-family only: laws instances swept


def build(name: str, seed: int, workdir: str, tiny: bool = False) -> Workload:
    """Build a workload's inputs from input set ``seed % INPUT_SETS``; CLI
    fixtures are written under workdir."""
    builders = {
        "sweep-family": _sweep_family,
        "bound-grid": _bound_grid,
        "kleitman-count": _kleitman_count,
        "compare-cli": _compare_cli,
    }
    return builders[name](random.Random(seed % INPUT_SETS), workdir, tiny)


def largest_binomial_sum(n: int, m: int) -> int:
    """F_n(m) computed independently of symtail: the m largest C(n, i)."""
    return sum(sorted((math.comb(n, i) for i in range(n + 1)), reverse=True)[:m])


def _fmt(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _cli_call(argv: list[str], check, items: int) -> Call:
    return Call(run=lambda: cli.main(argv), check=check, items=items)


def _read_output(path: str) -> tuple[bytes, list[list[str]]]:
    with open(path, "rb") as fh:
        data = fh.read()
    os.remove(path)
    return data, list(csv.reader(io.StringIO(data.decode("utf-8"))))[1:]


# --- sweep-family -------------------------------------------------------------

def _sweep_family(rng: random.Random, workdir: str, tiny: bool) -> Workload:
    # The exhaustive eighth-mass family of criterion 05; the seed is unused.
    max_n, denominator, radius = (2 if tiny else 4), 8, 2
    family = list(oracles.symmetric_lattice_family(max_n, denominator, radius))
    t_grid = [Fraction(k, 2) for k in range(8)]
    # Profiles (u_1..u_radius) with 2 * sum <= denominator, u_0 taking the rest.
    laws = math.comb(denominator // 2 + radius, radius)
    per_n = {n: math.comb(laws + n - 1, n) for n in range(1, max_n + 1)}
    instances = sum(per_n.values())
    checks = sum(count * sum(1 for t in t_grid if t < n) for n, count in per_n.items())

    def check(report) -> tuple[int, bytes]:
        good = (
            report.instances == instances
            and report.checks == checks
            and not report.violations
            and report.min_slack == 0
        )
        index, t = report.min_slack_at
        out = f"{report.instances},{report.checks},{_fmt(report.min_slack)},{index},{_fmt(t)}\n"
        return (0 if good else checks), out.encode()

    call = Call(
        run=lambda: oracles.bound_soundness_sweep(family, 1, t_grid),
        check=check,
        items=checks,
    )
    return Workload((call,), instances_per_pass=instances)


# --- bound-grid ---------------------------------------------------------------

def _bound_grid(rng: random.Random, workdir: str, tiny: bool) -> Workload:
    sizes = list(range(8, 10)) if tiny else list(range(8, 25)) * 2
    grid = 4 if tiny else 32
    calls = []
    for i, n in enumerate(sizes):
        # Prime denominators fixed by position keep every p_i in lowest
        # terms, so the rationals' sizes, and the work, do not depend on
        # the seed; the seed draws the numerators.
        p = []
        for j in range(n):
            den = PRIMES[(i + j) % len(PRIMES)]
            p.append(f"{rng.randint(1, den - 1)}/{den}")
        t_grid = [_fmt(Fraction(k * n, grid)) for k in range(grid)]
        src = os.path.join(workdir, f"bound-{i}.json")
        dst = os.path.join(workdir, f"bound-{i}.csv")
        with open(src, "w", encoding="utf-8") as fh:
            json.dump({"p": p, "h": "1", "t_grid": t_grid}, fh)
        calls.append(
            _cli_call(["bound", "--input", src, "--output", dst],
                      _bound_check(dst, n, grid), grid)
        )
    return Workload(tuple(calls))


def _bound_check(path: str, n: int, rows_expected: int):
    def check(code) -> tuple[int, bytes]:
        if code != 0:
            return rows_expected, f"exit {code}\n".encode()
        data, rows = _read_output(path)
        failed = max(0, rows_expected - len(rows))
        for row in rows[:rows_expected]:
            t, nagaev, improved, kanter = (Fraction(row[i]) for i in (0, 3, 5, 7))
            good = (
                row[9] == ""
                and improved >= nagaev
                and improved + kanter == 1
                and (t < n - 1 or improved == nagaev)  # h = 1: last band is [n-1, n)
            )
            failed += not good
        return failed, data

    return check


# --- kleitman-count -----------------------------------------------------------

def _kleitman_count(rng: random.Random, workdir: str, tiny: bool) -> Workload:
    shapes = [
        (d, norm, m)
        for d in (1, 2, 3)
        for norm in ("euclidean", "sup", "one", "absolute")
        if norm != "absolute" or d == 1
        for m in (1, 2, 3, 4)
    ]
    count, base_n = (4, 6) if tiny else (100, 10)
    calls = []
    for i in range(count):
        d, norm, m = shapes[i % len(shapes)]
        n = base_n + (i + i // len(shapes)) % 5
        inst = _random_kleitman_instance(rng, d, norm, m, n)
        calls.append(_kleitman_call(inst, n, m, equality=False))
    for n in ((10,) if tiny else (16, 17, 18)):
        for m in (1, 3, 5):
            calls.append(_kleitman_call(oracles.equality_instance(n, m), n, m, equality=True))
    return Workload(tuple(calls))


def _random_kleitman_instance(rng: random.Random, d: int, norm: str, m: int, n: int):
    # Shapes are fixed by the caller; the seed draws coordinates and centres,
    # as in criterion 06's generator.
    vectors = []
    for _ in range(n):
        while True:
            v = tuple(Fraction(rng.randint(-4, 4), rng.choice([1, 2])) for _ in range(d))
            if any(v):
                break
        vectors.append(v)
    radius = min(max(abs(c) for c in v) for v in vectors) / 4
    targets = tuple(
        (tuple(Fraction(rng.randint(-2 * n, 2 * n), 2) for _ in range(d)), radius)
        for _ in range(m)
    )
    return oracles.KleitmanInstance(d, tuple(vectors), norm, targets)


def _kleitman_call(inst, n: int, m: int, equality: bool) -> Call:
    ceiling = largest_binomial_sum(n, m)

    def check(count) -> tuple[int, bytes]:
        good = count == ceiling if equality else count <= ceiling
        return (0 if good else 1), f"{count}\n".encode()

    return Call(run=lambda: oracles.kleitman_count(inst), check=check, items=1)


# --- compare-cli --------------------------------------------------------------

def _compare_cli(rng: random.Random, workdir: str, tiny: bool) -> Workload:
    # xs: symmetric laws with every atom of {-r..r} occupied (fixed support
    # size); ys: three-point laws dominated by their x, so half-mass applies.
    # Every other block of ten calls has a non-unimodal X_1, so both
    # Birnbaum branches run.
    den = 16
    calls = []
    for i in range(20 if tiny else 100):
        n = 2 + i % 5
        radius = 2 + (i // 5) % 2
        unimodal = (i // 10) % 2 == 0
        xs, ys = [], []
        for j in range(n):
            units = _symmetric_units(rng, radius, den, unimodal=unimodal or j > 0)
            xs.append(_law_json(units, den))
            v = rng.randint(1, min((den - units[0]) // 2, den // 3))
            ys.append(_law_json([den - 2 * v, v], den))
        t_grid = [_fmt(Fraction(k * n * radius, 12)) for k in range(1, 13)]
        src = os.path.join(workdir, f"compare-{i}.json")
        dst = os.path.join(workdir, f"compare-{i}.csv")
        with open(src, "w", encoding="utf-8") as fh:
            json.dump({"xs": xs, "ys": ys, "h": "1", "t_grid": t_grid, "m_max": n}, fh)
        calls.append(
            _cli_call(["compare", "--input", src, "--output", dst],
                      _compare_check(dst, len(t_grid), n, unimodal), 1)
        )
    return Workload(tuple(calls))


def _symmetric_units(rng: random.Random, radius: int, den: int, unimodal: bool) -> list[int]:
    # Units u_0..u_radius >= 1 with u_0 + 2 * (u_1 + ... + u_radius) = den;
    # unimodal iff u_0 >= u_1 >= ... >= u_radius.
    while True:
        units = [0] * (radius + 1)
        remaining = den
        for k in range(radius, 0, -1):
            units[k] = rng.randint(1, (remaining - 1) // 2 - (k - 1))
            remaining -= 2 * units[k]
        units[0] = remaining
        if all(a >= b for a, b in zip(units, units[1:])) == unimodal:
            return units


def _law_json(units: list[int], den: int) -> dict:
    atoms = [
        {"x": str(sign * k), "mass": _fmt(Fraction(u, den))}
        for k, u in enumerate(units)
        for sign in ((1,) if k == 0 else (-1, 1))
    ]
    return {"atoms": sorted(atoms, key=lambda a: int(a["x"]))}


def _compare_check(path: str, pruss_rows: int, m_max: int, unimodal: bool):
    def check(code) -> tuple[int, bytes]:
        if code != 0:
            return 1, f"exit {code}\n".encode()
        data, rows = _read_output(path)
        kinds = [row[0] for row in rows]
        statuses = [row[4] for row in rows]
        birnbaum = statuses[-1] if kinds and kinds[-1] == "birnbaum" else ""
        good = (
            kinds == ["pruss"] * pruss_rows + ["half_mass"] * m_max + ["birnbaum"]
            and "VIOLATION" not in statuses
            and (birnbaum == "ok" if unimodal else birnbaum.startswith("hypothesis-violated"))
        )
        return (0 if good else 1), data

    return check
