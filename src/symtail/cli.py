"""Command-line front-end: JSON instances in, CSV reports out.

Exit codes: 0 = all asserted inequalities held, 1 = a violation was found,
2 = input/usage error.  Rational values appear in the CSV as exact
"num/den" strings with a decimal column beside them: 12 significant digits,
rounded half to even whatever the caller's decimal context.  The decimal
column is derived, never authoritative.  Both cells of a value come from
its integer (numerator, denominator) pair through one helper, `_exact`;
`bound` keeps its h, p and t grid as such pairs from the JSON to the CSV,
so none builds a Fraction, and reads each once.  Bad input writes no CSV: `sweep`,
whose row count the input does not bound, streams its rows to a temporary
file that replaces the output only when the sweep ends; the others build
their rows before they open the output.

One argument parser, the subcommand's name then --input and --output, is
built once per process, on the first `main` call, and reused: parsing
changes no parser state, so `main` is safe to call repeatedly in one
process.

Every subcommand takes only --input and --output.  Each input field has a
typed reader that accepts only its own JSON type (an integer field takes
only a JSON integer); the work caps are constants in `symtail.oracles`.
`main` alone maps an error to exit 2: any ValueError or OSError, be it an
InputError or the library's own; readers wrap one only to name its field.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import stat
import sys
import tempfile
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from . import bounds, oracles, ordering
from .distributions import LatticeDistribution, _success_pairs, abs_tail, is_symmetric
from .exactmath import largest_binomial_sum
from .rational import decimal_str, format_rational, rational_pair

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2


class InputError(ValueError):
    """Malformed input: reported on stderr with exit 2."""


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, parse_constant=_reject_constant)
    except (OSError, ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise InputError(f"cannot read input {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError("top-level JSON value must be an object")
    return data


def _reject_constant(name: str):
    # json accepts NaN and +-Infinity, which are not JSON and not rationals.
    raise ValueError(f"non-standard JSON constant {name}")


# Typed readers: each takes a JSON value and the name to report it by, and
# returns it as its Python type or raises InputError.

_REQUIRED = object()


def _get(obj, key: str, read, default=_REQUIRED):
    """read(obj[key]) for a JSON object obj; default when key is absent."""
    if not isinstance(obj, dict):
        raise InputError(f"expected an object with field {key!r}, got {type(obj).__name__}")
    if key in obj:
        return read(obj[key], key)
    if default is _REQUIRED:
        raise InputError(f"missing field {key!r}")
    return default


def _list(value, name: str) -> list:
    if not isinstance(value, list):
        raise InputError(f"{name} must be a list, got {type(value).__name__}")
    return value


def _str(value, name: str) -> str:
    if not isinstance(value, str):
        raise InputError(f"{name} must be a string, got {type(value).__name__}")
    return value


def _int(value, name: str) -> int:
    if type(value) is not int:
        raise InputError(f"{name} must be a JSON integer, got {type(value).__name__}")
    return value


def _pair(value, name: str) -> tuple[int, int]:
    try:
        return rational_pair(value)
    except ValueError as exc:
        raise InputError(f"{name}: {exc}") from exc


def _pairs(value, name: str) -> tuple[tuple[int, int], ...]:
    return tuple(_pair(v, name) for v in _list(value, name))


def _rational(value, name: str) -> Fraction:
    return Fraction(*_pair(value, name))


def _rationals(value, name: str) -> tuple[Fraction, ...]:
    return tuple(_rational(v, name) for v in _list(value, name))


def _positive(value, name: str) -> tuple[int, int]:
    q = _pair(value, name)
    if q[0] <= 0:
        raise InputError(f"{name} must be positive, got {format_rational(q)}")
    return q


def _capped(terms: Sequence, cap: int, name: str, *, empty_ok: bool = True) -> Sequence:
    """A term list of at most cap entries, and at least one unless empty_ok."""
    if len(terms) > cap:
        raise InputError(f"{name}: n={len(terms)} terms exceed cap {cap}")
    if not (terms or empty_ok):
        raise InputError(f"{name}: need at least one term")
    return terms


def _laws(value, name: str) -> tuple[LatticeDistribution, ...]:
    """A list of distribution literals, capped at MAX_TERMS before any law is built."""
    literals = _capped(_list(value, name), oracles.MAX_TERMS, name)
    try:
        return tuple(LatticeDistribution.from_json_dict(v) for v in literals)
    except ValueError as exc:
        raise InputError(f"bad distribution literal in {name}: {exc}") from exc


def _probabilities(value, name: str) -> Sequence[tuple[int, int]]:
    """A success vector as integer pairs, capped at MAX_TERMS before any pmf
    is built; cmd_bound and tightness_search check once that each p_i is in
    [0, 1]."""
    return _capped(_pairs(value, name), oracles.MAX_TERMS, name)


def _exact(pair: tuple[int, int]) -> list[str]:
    """An integer pair's two CSV cells: exact, then its decimal view."""
    return [format_rational(pair), decimal_str(pair)]


def cmd_bound(data: dict) -> list[list]:
    hn, hd = h = _get(data, "h", _positive)
    t_grid = _get(data, "t_grid", _pairs)
    if "p" in data:
        p = _get(data, "p", _probabilities)
    elif "terms" in data:
        terms = _get(data, "terms", _laws)
        for i, term in enumerate(terms):
            if not is_symmetric(term):
                raise InputError(f"term {i} is not symmetric")
        p = [abs_tail(term, h, strict=False) for term in terms]  # _laws capped the terms
    else:
        raise InputError("input must supply either 'p' or 'terms'")
    ms = bounds.window_indices(t_grid, h)  # t in [0, n*h) iff 1 <= m <= n
    p = _success_pairs(p)  # p is validated here, even when no t is in the domain
    sums = bounds._window_sums(p, [m for m in ms if 1 <= m <= len(p)])
    h_cell = format_rational(h)
    note = f"domain: t outside [0, {format_rational((len(p) * hn, hd))})"
    # The six bound cells of each window index m in the domain, formatted once.
    cells = {m: [cell for num in nums for cell in _exact((num, common))]
             for m, (*nums, common) in sums.items()}
    return [[format_rational(t), h_cell, m, *cells[m], ""] if m in cells
            else [format_rational(t), h_cell, "", "", "", "", "", "", "", note]
            for t, m in zip(t_grid, ms)]


def cmd_sweep(data: dict) -> Iterator[tuple]:
    """The sweep's rows, one instance at a time: the family's row count is
    not bounded by the input's size, so main streams them to the CSV."""
    h = _get(data, "h", _positive)
    t_grid = _get(data, "t_grid", _rationals)
    cap = oracles.MAX_SWEEP_TERMS
    if "instances" in data:
        # every instance is capped, and checked non-empty, before any law is built
        literals = [_capped(_list(inst, "instances"), cap, f"instance {index}", empty_ok=False)
                    for index, inst in enumerate(_get(data, "instances", _list))]
        instances = [_laws(inst, "instances") for inst in literals]
    elif "family" in data:
        family = data["family"]
        max_n = _get(family, "max_n", _int)
        if max_n > cap:
            raise InputError(f"family max_n={max_n} > cap {cap}")
        # the fields given; symmetric_lattice_family holds the defaults
        shape = {k: _get(family, k, _int) for k in ("denominator", "radius") if k in family}
        try:
            instances = oracles.symmetric_lattice_family(max_n, h=h, **shape)
        except ValueError as exc:
            raise InputError(f"bad family description: {exc}") from exc
    else:
        raise InputError("input must supply 'instances' or 'family'")

    # The cells of each (numerator, denominator) pair, formatted once: bound
    # rows repeat per p-multiset, and tails across instances.
    cells: dict[tuple[int, int], list[str]] = {}

    def exact(pair: tuple[int, int]) -> list[str]:
        got = cells.get(pair)
        if got is None:
            got = cells[pair] = _exact(pair)
        return got

    def rows() -> Iterator[tuple]:
        for index, grid, tails, den, bound_pairs in oracles.sweep_checks(instances, h, t_grid):
            for t, tail_num, bound in zip(grid, tails, bound_pairs):
                b_num, b_den = bound
                slack_num = tail_num * b_den - b_num * den  # over den * b_den > 0
                yield (index, format_rational(t), *exact(bound), *exact((tail_num, den)),
                       format_rational((slack_num, den * b_den)),
                       "ok" if slack_num >= 0 else "VIOLATION")

    return rows()


def cmd_kleitman(data: dict) -> list[list]:
    instances = []
    for index, raw in enumerate(_get(data, "instances", _list, [data])):
        try:
            inst = oracles.KleitmanInstance(
                _get(raw, "dimension", _int),
                tuple(_rationals(v, "vectors") for v in _get(raw, "vectors", _list)),
                _get(raw, "norm", _str),
                tuple((_get(t, "center", _rationals), _get(t, "radius", _rational))
                      for t in _get(raw, "targets", _list)),
            )
        except ValueError as exc:
            raise InputError(f"instance {index}: {exc}") from exc
        instances.append(inst)
    rows = []
    for index, inst in enumerate(instances):
        n, m = len(inst.vectors), len(inst.targets)
        count, ceiling = oracles.kleitman_count(inst), largest_binomial_sum(n, m)
        rows.append([index, n, m, count, ceiling, "ok" if count <= ceiling else "VIOLATION"])
    return rows


def cmd_compare(data: dict) -> list[list]:
    xs = _get(data, "xs", _laws, ())
    ys = _get(data, "ys", _laws, ())
    h = _get(data, "h", _positive)
    t_grid = _get(data, "t_grid", _rationals, ())
    m_max = _get(data, "m_max", _int, len(xs))
    if m_max > oracles.MAX_HALF_MASS_M:
        raise InputError(f"m_max={m_max} exceeds cap {oracles.MAX_HALF_MASS_M}")
    inst = ordering.ComparisonInstance(xs, ys)
    # Both checks' rows: exact cells straight from the integer pairs.
    rows = [["pruss", format_rational(t), format_rational(lhs), format_rational(rhs),
             "ok" if ok else "VIOLATION"]
            for t, lhs, rhs, ok in ordering.pruss_check(inst, t_grid).rows]
    try:
        half = ordering.half_mass_check(inst, h, m_max).rows
    except ordering.HypothesisViolation as exc:
        rows.append(["half_mass", "", "", "", f"hypothesis-violated: {exc}"])
    else:
        rows += [["half_mass", str(m), format_rational(lhs), format_rational(rhs),
                  "ok" if ok else "VIOLATION"]
                 for m, lhs, rhs, ok in half]
    birnbaum = ordering.birnbaum_check(inst, h)
    if birnbaum.hypothesis_ok:
        status = "ok" if birnbaum.conclusion_holds else "VIOLATION"
    else:
        status = "hypothesis-violated: " + "; ".join(birnbaum.violations)
    rows.append(["birnbaum", "", str(birnbaum.conclusion_holds).lower(), "", status])
    return rows


def cmd_tighten(data: dict) -> list[list]:
    p = _get(data, "p", _probabilities)
    h = _get(data, "h", _positive)
    m = _get(data, "m", _int)
    h_grid = _get(data, "h_grid", _rationals, ())
    split_grid = _get(data, "split_grid", _rationals, (1,))
    report = oracles.tightness_search(p, h, m, h_grid, split_grid)
    outer_atom, split = report.best_params
    return [
        [format_rational(report.t), *_exact(rational_pair(report.bound)),
         *_exact(rational_pair(report.best_value)),
         format_rational(report.gap), format_rational(outer_atom), format_rational(split),
         "ok" if report.gap >= 0 else "VIOLATION"]
    ]


# Each subcommand: the handler that turns parsed JSON into rows, and the
# CSV header of those rows.
COMMANDS = {
    "bound": (cmd_bound, ["t", "h", "m", "nagaev", "nagaev_decimal", "improved",
                          "improved_decimal", "kanter_sup", "kanter_sup_decimal", "note"]),
    "sweep": (cmd_sweep, ["instance", "t", "bound", "bound_decimal", "tail", "tail_decimal",
                          "slack", "status"]),
    "kleitman": (cmd_kleitman, ["instance", "n", "m", "count", "ceiling", "status"]),
    "compare": (cmd_compare, ["check", "param", "lhs", "rhs", "status"]),
    "tighten": (cmd_tighten, ["t", "bound", "bound_decimal", "best_value",
                              "best_value_decimal", "gap", "best_outer_atom", "best_split",
                              "status"]),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first call."""
    parser = argparse.ArgumentParser(
        prog="symtail",
        description="Exact tail-bound tables and verification sweeps for sums "
        "of independent symmetric random variables.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--input", required=True, help="input JSON path")
    parser.add_argument("--output", required=True, help="output CSV path")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    handler, header = COMMANDS[args.command]
    try:
        rows = handler(_load_json(args.input))
        if isinstance(rows, list):
            with open(args.output, "w", encoding="utf-8", newline="") as fh:
                violation = _write_rows(fh, header, rows)
        else:
            violation = _write_streamed(args.output, header, rows)
    except (ValueError, OSError) as exc:  # InputError, and any other bad input
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_VIOLATION if violation else EXIT_OK


def _write_rows(fh, header: list, rows: Iterable[Sequence]) -> bool:
    """Write a CSV; True when some row's status (last column) is a violation."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    violation = False
    for row in rows:
        writer.writerow(row)
        if row[-1] == "VIOLATION":
            violation = True
    return violation


def _write_streamed(path: str, header: list, rows: Iterator[Sequence]) -> bool:
    """_write_rows at path, all or nothing.

    The rows go to a temporary file beside the file that path names (through
    any symlink).  Once the last row is written, the temporary file takes
    that file's permissions, or those open() gives a new file, and replaces
    it; on any error it is removed and the file is left as it was.  A path
    that names no regular file, such as /dev/stdout, is written directly.
    """
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = stat.S_IFREG | (0o666 & ~umask)
    if not stat.S_ISREG(mode):  # a device or a pipe: nothing to replace
        with open(path, "w", encoding="utf-8", newline="") as fh:
            return _write_rows(fh, header, rows)
    path = os.path.realpath(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".csv.tmp")
    try:
        with open(fd, "w", encoding="utf-8", newline="") as fh:
            violation = _write_rows(fh, header, rows)
        os.chmod(tmp, stat.S_IMODE(mode))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return violation


if __name__ == "__main__":
    sys.exit(main())
