"""Command-line front-end: JSON instances in, CSV reports out.

Exit codes: 0 = all asserted inequalities held, 1 = a violation was found,
2 = input/usage error.  Rational values appear in the CSV as exact
"num/den" strings with a 12-significant-digit decimal column beside them;
the decimal column is derived, never authoritative.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction
from typing import Sequence

from . import bounds, oracles, ordering
from .distributions import LatticeDistribution, abs_tail, as_success_vector, is_symmetric
from .exactmath import largest_binomial_sum
from .rational import decimal_str, format_rational, parse_rational

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2


class InputError(Exception):
    pass


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, parse_constant=_reject_constant)
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read input {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError("top-level JSON value must be an object")
    return data


def _reject_constant(name: str):
    # json accepts NaN and +-Infinity, which are not JSON and not rationals.
    raise ValueError(f"non-standard JSON constant {name}")


def _write_csv(path: str, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _exit_code(rows: Sequence[Sequence]) -> int:
    """Exit 1 exactly when some row's status (last column) is a violation."""
    return EXIT_VIOLATION if any(row[-1] == "VIOLATION" for row in rows) else EXIT_OK


def _parse_distribution(literal) -> LatticeDistribution:
    try:
        return LatticeDistribution.from_json_dict(literal)
    except ValueError as exc:
        raise InputError(f"bad distribution literal: {exc}") from exc


def _rational_field(data: dict, key: str, default=None) -> Fraction:
    if key not in data and default is None:
        raise InputError(f"missing field {key!r}")
    try:
        return parse_rational(data.get(key, default))
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _as_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise InputError(f"{what} must be a list, got {type(value).__name__}")
    return value


def _list_field(data: dict, key: str, default=None) -> list:
    if key not in data and default is None:
        raise InputError(f"missing field {key!r}")
    return _as_list(data.get(key, default), f"field {key!r}")


def _rational_list(data: dict, key: str) -> list[Fraction]:
    values = _list_field(data, key)
    try:
        return [parse_rational(v) for v in values]
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _success_vector_from_input(data: dict, h: Fraction) -> tuple[Fraction, ...]:
    if "p" in data:
        try:
            return as_success_vector(_list_field(data, "p"))
        except ValueError as exc:
            raise InputError(str(exc)) from exc
    if "terms" in data:
        terms = [_parse_distribution(lit) for lit in _list_field(data, "terms")]
        for i, term in enumerate(terms):
            if not is_symmetric(term):
                raise InputError(f"term {i} is not symmetric")
        return tuple(abs_tail(term, h, strict=False) for term in terms)
    raise InputError("input must supply either 'p' or 'terms'")


def cmd_bound(args) -> int:
    data = _load_json(args.input)
    h = _rational_field(data, "h")
    if h <= 0:
        raise InputError(f"h must be positive, got {h}")
    t_grid = _rational_list(data, "t_grid")
    p = _success_vector_from_input(data, h)
    n = len(p)
    rows = []
    for t in t_grid:
        if t < 0 or t >= n * h:
            rows.append(
                [format_rational(t), format_rational(h), "", "", "", "", "", "", "",
                 f"domain: t outside [0, {format_rational(n * h)})"]
            )
            continue
        report = bounds.evaluate_bounds(p, h, t)
        rows.append(
            [
                format_rational(t),
                format_rational(h),
                report.m,
                format_rational(report.nagaev),
                decimal_str(report.nagaev),
                format_rational(report.improved),
                decimal_str(report.improved),
                format_rational(report.kanter_sup),
                decimal_str(report.kanter_sup),
                "",
            ]
        )
    _write_csv(
        args.output,
        ["t", "h", "m", "nagaev", "nagaev_decimal", "improved", "improved_decimal",
         "kanter_sup", "kanter_sup_decimal", "note"],
        rows,
    )
    return EXIT_OK


def cmd_sweep(args) -> int:
    data = _load_json(args.input)
    h = _rational_field(data, "h")
    if h <= 0:
        raise InputError(f"h must be positive, got {h}")
    t_grid = _rational_list(data, "t_grid")
    # Self-test knob: shifts the bound before comparison so the negative
    # path (a reported violation, exit 1) is exercisable from a fixture.
    inflate = _rational_field(data, "inflate_bound", 0)

    if "instances" in data:
        instances = [
            [_parse_distribution(lit) for lit in _as_list(inst, f"instance {index}")]
            for index, inst in enumerate(_list_field(data, "instances"))
        ]
        for index, terms in enumerate(instances):
            if len(terms) > args.max_n:
                raise InputError(f"instance {index} has n={len(terms)} > cap {args.max_n}")
    elif "family" in data:
        fam = data["family"]
        try:
            fam_n = int(fam["max_n"])
            instances = oracles.symmetric_lattice_family(
                max_n=fam_n,
                denominator=int(fam.get("denominator", 8)),
                radius=int(fam.get("radius", 2)),
                h=h,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad family description: {exc}") from exc
        if fam_n > args.max_n:
            raise InputError(f"family max_n={fam_n} > cap {args.max_n}")
    else:
        raise InputError("input must supply 'instances' or 'family'")

    rows = []
    try:
        checks = oracles.sweep_checks(instances, h, t_grid, args.max_width)
        for index, grid, tails, den, bound_pairs in checks:
            for t, tail_num, (b_num, b_den) in zip(grid, tails, bound_pairs):
                bound = Fraction(b_num, b_den) + inflate
                tail = Fraction(tail_num, den)
                slack = tail - bound
                rows.append(
                    [
                        index,
                        format_rational(t),
                        format_rational(bound),
                        decimal_str(bound),
                        format_rational(tail),
                        decimal_str(tail),
                        format_rational(slack),
                        "ok" if slack >= 0 else "VIOLATION",
                    ]
                )
    except ValueError as exc:  # a non-symmetric term, a bad family, the support cap
        raise InputError(str(exc)) from exc
    _write_csv(
        args.output,
        ["instance", "t", "bound", "bound_decimal", "tail", "tail_decimal",
         "slack", "status"],
        rows,
    )
    return _exit_code(rows)


def cmd_kleitman(args) -> int:
    data = _load_json(args.input)
    raw_instances = [data] if data.get("instances") is None else _list_field(data, "instances")
    instances = []
    for index, raw in enumerate(raw_instances):
        try:
            inst = oracles.KleitmanInstance.make(
                raw["dimension"],
                raw["vectors"],
                raw["norm"],
                [(t["center"], t["radius"]) for t in raw["targets"]],
            )
            inst.validate()
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"instance {index}: {exc}") from exc
        if args.max_n is not None and len(inst.vectors) > args.max_n:
            raise InputError(f"instance {index} has n={len(inst.vectors)} > cap {args.max_n}")
        instances.append(inst)
    rows = []
    for index, inst in enumerate(instances):
        n, m = len(inst.vectors), len(inst.targets)
        count, ceiling = oracles.kleitman_count(inst), largest_binomial_sum(n, m)
        rows.append([index, n, m, count, ceiling, "ok" if count <= ceiling else "VIOLATION"])
    _write_csv(args.output, ["instance", "n", "m", "count", "ceiling", "status"], rows)
    return _exit_code(rows)


def cmd_compare(args) -> int:
    data = _load_json(args.input)
    xs = tuple(_parse_distribution(lit) for lit in _list_field(data, "xs", []))
    ys = tuple(_parse_distribution(lit) for lit in _list_field(data, "ys", []))
    h = _rational_field(data, "h")
    if h <= 0:
        raise InputError(f"h must be positive, got {h}")
    t_grid = _rational_list(data, "t_grid") if "t_grid" in data else []
    try:
        m_max = int(data.get("m_max", len(xs)))
    except (TypeError, ValueError) as exc:
        raise InputError(f"bad m_max: {exc}") from exc
    if m_max > oracles.MAX_HALF_MASS_M:
        raise InputError(f"m_max={m_max} exceeds cap {oracles.MAX_HALF_MASS_M}")
    try:
        inst = ordering.ComparisonInstance(xs, ys)
        inst.validate()
    except (ValueError, ordering.HypothesisViolation) as exc:
        raise InputError(str(exc)) from exc

    rows = []
    pruss = ordering.pruss_check(inst, t_grid)
    for t, s_tail, t_tail in pruss.rows:
        ok = s_tail >= Fraction(1, 2) * t_tail
        rows.append(
            ["pruss", format_rational(t), format_rational(s_tail),
             format_rational(Fraction(1, 2) * t_tail), "ok" if ok else "VIOLATION"]
        )

    try:
        half = ordering.half_mass_check(inst, h, m_max)
    except ordering.HypothesisViolation as exc:
        rows.append(["half_mass", "", "", "", f"hypothesis-violated: {exc}"])
    else:
        for m, lhs, rhs in half.rows:
            rows.append(
                ["half_mass", str(m), format_rational(lhs), format_rational(rhs),
                 "ok" if lhs >= rhs else "VIOLATION"]
            )

    birnbaum = ordering.birnbaum_check(inst, h)
    if birnbaum.hypothesis_ok:
        status = "ok" if birnbaum.conclusion_holds else "VIOLATION"
    else:
        status = "hypothesis-violated: " + "; ".join(birnbaum.violations)
    rows.append(
        ["birnbaum", "", str(birnbaum.conclusion_holds).lower(), "", status]
    )

    _write_csv(args.output, ["check", "param", "lhs", "rhs", "status"], rows)
    return _exit_code(rows)


def cmd_tighten(args) -> int:
    data = _load_json(args.input)
    try:
        p = as_success_vector(_list_field(data, "p"))
        h = _rational_field(data, "h")
        m = int(data["m"])
        h_grid = _rational_list(data, "h_grid") if "h_grid" in data else []
        split_grid = (
            _rational_list(data, "split_grid") if "split_grid" in data else [1]
        )
        report = oracles.tightness_search(p, h, m, h_grid, split_grid)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(str(exc)) from exc
    rows = [
        [
            format_rational(report.t),
            format_rational(report.bound),
            decimal_str(report.bound),
            format_rational(report.best_value),
            decimal_str(report.best_value),
            format_rational(report.gap),
            format_rational(report.best_params[0]),
            format_rational(report.best_params[1]),
            "ok" if report.gap >= 0 else "VIOLATION",
        ]
    ]
    _write_csv(
        args.output,
        ["t", "bound", "bound_decimal", "best_value", "best_value_decimal",
         "gap", "best_outer_atom", "best_split", "status"],
        rows,
    )
    return _exit_code(rows)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symtail",
        description="Exact tail-bound tables and verification sweeps for sums "
        "of independent symmetric random variables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, func in (
        ("bound", cmd_bound),
        ("sweep", cmd_sweep),
        ("kleitman", cmd_kleitman),
        ("compare", cmd_compare),
        ("tighten", cmd_tighten),
    ):
        p = commands[name] = sub.add_parser(name)
        p.add_argument("--input", required=True, help="input JSON path")
        p.add_argument("--output", required=True, help="output CSV path")
        p.set_defaults(func=func)
    commands["sweep"].add_argument(
        "--max-n", type=int, default=8, help="cap on the terms of an instance (default 8)"
    )
    commands["sweep"].add_argument(
        "--max-width", type=int, default=200_000,
        help="cap on the support-size product of one convolution (default 200000)",
    )
    commands["kleitman"].add_argument(
        "--max-n", type=int, default=None, help="cap on the vectors of an instance"
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
