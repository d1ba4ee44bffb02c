import argparse
import copy
import csv
import json
import math
import os
import random
import stat
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from symtail import bounds, cli, distributions, oracles, ordering, rational
from symtail.bounds import evaluate_bounds
from symtail.cli import main
from symtail.distributions import LatticeDistribution
from symtail.rational import format_rational

from util import (
    SUM_CORRUPTIONS,
    big_rational,
    corrupt_bound_sums,
    random_symmetric_law,
    ref_decimal_str,
    ref_sweep_rows,
    shifted_window_sums,
    tailless_s,
)

COIN = {"atoms": [{"x": "-1", "mass": "1/2"}, {"x": "1", "mass": "1/2"}]}
ZERO = {"atoms": [{"x": "0", "mass": "1"}]}
LAZY = {"atoms": [{"x": "-1", "mass": "1/4"}, {"x": "0", "mass": "1/2"}, {"x": "1", "mass": "1/4"}]}


def inflate_sweep_bound(monkeypatch, inflate):
    """Shift the sweep's bound up by `inflate`, so its violation path runs."""
    monkeypatch.setattr(oracles, "_window_sums", shifted_window_sums(inflate))


def count_p_checks(monkeypatch) -> list:
    """Count _success_pairs calls in every module that imports it: every
    success vector is validated there, as_success_vector's included."""
    calls = []

    def counted(values, check=distributions._success_pairs):
        calls.append(values)
        return check(values)

    for module in (distributions, bounds, oracles, cli):
        monkeypatch.setattr(module, "_success_pairs", counted, raising=False)
    return calls


def run(tmp_path, command, payload, name="in.json", **flags):
    inp = tmp_path / name
    out = tmp_path / (name + ".csv")
    inp.write_text(json.dumps(payload))
    argv = [command, "--input", str(inp), "--output", str(out)]
    for key, value in flags.items():
        argv += [f"--{key.replace('_', '-')}", str(value)]
    code = main(argv)
    rows = []
    if out.exists():
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
    return code, rows, out


class TestBoundCommand:
    def test_basic_table(self, tmp_path):
        code, rows, _ = run(
            tmp_path, "bound", {"p": ["1", "1"], "h": "1", "t_grid": ["0", "1"]}
        )
        assert code == 0
        assert rows[1]["t"] == "1"
        assert rows[1]["improved"] == "1/4"
        assert rows[1]["improved_decimal"] == "0.25"
        assert rows[1]["kanter_sup"] == "3/4"

    def test_all_zero_probabilities(self, tmp_path):
        code, rows, _ = run(
            tmp_path, "bound", {"p": ["0", "0"], "h": "1", "t_grid": ["0", "1"]}
        )
        assert code == 0
        assert all(r["nagaev"] == "0" and r["improved"] == "0" for r in rows)

    def test_domain_note_per_row(self, tmp_path):
        code, rows, _ = run(
            tmp_path, "bound", {"p": ["1", "1"], "h": "1", "t_grid": ["1", "2"]}
        )
        assert code == 0
        assert rows[0]["note"] == ""
        assert "domain" in rows[1]["note"]
        assert rows[1]["improved"] == ""

    def test_terms_input(self, tmp_path):
        code, rows, _ = run(
            tmp_path, "bound", {"terms": [COIN, COIN], "h": "1", "t_grid": ["1"]}
        )
        assert code == 0
        assert rows[0]["improved"] == "1/4"

    def test_schema_error(self, tmp_path):
        code, _, _ = run(tmp_path, "bound", {"p": ["1/2"], "t_grid": ["0"]})
        assert code == 2

    def test_asymmetric_terms_rejected(self, tmp_path):
        bad = {"atoms": [{"x": "0", "mass": "1/2"}, {"x": "1", "mass": "1/2"}]}
        code, _, _ = run(
            tmp_path, "bound", {"terms": [bad], "h": "1", "t_grid": ["0"]}
        )
        assert code == 2

    def test_p_validated_once(self, tmp_path, monkeypatch):
        calls = count_p_checks(monkeypatch)
        assert run(tmp_path, "bound", {"p": ["1/2", "1"], "h": "1", "t_grid": ["0", "1"]})[0] == 0
        assert len(calls) == 1

    def test_each_rational_read_once(self, tmp_path, monkeypatch):
        # The readers read h once, each t once and each p_i twice (its field
        # reader, then _success_pairs); the kernels read none.
        n, g = 11, 32
        callers = []
        read = rational.rational_pair

        def counted(value):
            frames = []
            frame = sys._getframe(1)
            while frame is not None and frame.f_code is not main.__code__:
                frames.append((frame.f_globals["__name__"], frame.f_code.co_name))
                frame = frame.f_back
            callers.append(frames)
            return read(value)

        for module in (rational, distributions, bounds, oracles, ordering, cli):
            monkeypatch.setattr(module, "rational_pair", counted, raising=False)
        p = [f"{k}/{2 * k + 1}" for k in range(1, n)] + ["2/4"]
        t_grid = [f"{k}/4" for k in range(g)]
        assert run(tmp_path, "bound", {"p": p, "h": "1/2", "t_grid": t_grid})[0] == 0
        assert len(callers) <= g + 2 * n + 1
        assert not [frames for frames in callers
                    if any(module == "symtail.bounds" or name == "_poisson_binomial_weights"
                           for module, name in frames)]

    @pytest.mark.parametrize(
        "source, message",
        [({"p": []}, "success vector must be non-empty"),
         ({"terms": []}, "success vector must be non-empty"),
         ({"p": ["1/2", "3/2"]}, "success probability 3/2 outside [0, 1]"),
         ({"p": ["1/2", "-2/6", "5/4"]}, "success probability -1/3 outside [0, 1]"),
         ({"p": ["6/4"]}, "success probability 3/2 outside [0, 1]"),
         ({"p": ["1/2", "1.5", "x"]}, "p: not a rational: '1.5'"),
         ({"p": ["1/2", "1/0"]}, "p: not a rational: '1/0'"),
         ({"p": "1/2"}, "p must be a list, got str"),
         ({"p": ["2"] * (oracles.MAX_TERMS + 1)},
          f"p: n={oracles.MAX_TERMS + 1} terms exceed cap {oracles.MAX_TERMS}")],
        ids=["empty-p", "empty-terms", "p-above-1", "p-below-0", "p-unreduced-above-1",
             "p-not-rational", "p-zero-denominator", "p-not-a-list", "p-over-max-terms"],
    )
    def test_bad_p_is_usage_error_with_no_t_in_domain(self, tmp_path, capsys, source, message):
        code, rows, _ = run(tmp_path, "bound", source | {"h": "1", "t_grid": ["5"]})
        assert (code, rows) == (2, [])
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_unreduced_p_writes_the_same_bytes(self, tmp_path):
        grid = {"h": "2/3", "t_grid": ["0", "1/3", "1", "3/2", "2", "8/3"]}
        _, _, reduced = run(tmp_path, "bound", {"p": ["1/2", "2/3", "0", "1"]} | grid,
                            name="reduced.json")
        _, _, unreduced = run(tmp_path, "bound", {"p": ["2/4", "6/9", "0/5", "7/7"]} | grid,
                              name="unreduced.json")
        assert unreduced.read_bytes() == reduced.read_bytes()

    def test_rationals_past_str_digit_limit(self, tmp_path):
        # The improved bound has ~5 700 digits in its denominator, past the
        # interpreter's default 4 300-digit limit on int-to-str conversion.
        p = [Fraction(1, 10**299 + k) for k in range(19)]
        code, rows, _ = run(
            tmp_path, "bound", {"p": [str(v) for v in p], "h": "1", "t_grid": ["1"]}
        )
        assert code == 0
        improved = big_rational(rows[0]["improved"])
        assert improved.denominator > 10**4300
        assert improved == bounds.improved_bound(p, 1, 1)

    def test_byte_determinism(self, tmp_path):
        payload = {"p": ["1/2", "2/3", "1/7"], "h": "2/3", "t_grid": ["0", "1", "3/2"]}
        _, _, out1 = run(tmp_path, "bound", payload, name="a.json")
        _, _, out2 = run(tmp_path, "bound", payload, name="b.json")
        assert out1.read_bytes() == out2.read_bytes()

    def test_lf_line_endings(self, tmp_path):
        _, _, out = run(
            tmp_path, "bound", {"p": ["1"], "h": "1", "t_grid": ["0"]}
        )
        raw = out.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")


class TestSweepCommand:
    def test_explicit_instances_pass(self, tmp_path):
        code, rows, _ = run(
            tmp_path,
            "sweep",
            {"h": "1", "t_grid": ["0", "1"], "instances": [[COIN, COIN]]},
        )
        assert code == 0
        assert all(r["status"] == "ok" for r in rows)

    def test_family_input(self, tmp_path):
        code, rows, _ = run(
            tmp_path,
            "sweep",
            {"h": "1", "t_grid": ["0", "1/2", "1"], "family": {"max_n": 2}},
        )
        assert code == 0
        assert rows  # 135 instances, several checks each

    def test_corrupted_bound_detected(self, tmp_path, monkeypatch):
        inflate = Fraction(1, 8)
        inflate_sweep_bound(monkeypatch, inflate)
        payload = {"h": "1", "t_grid": ["0", "1"], "instances": [[COIN] * 2, [LAZY] * 3]}
        code, _, out = run(tmp_path, "sweep", payload)
        assert code == 1
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        instances = [[LatticeDistribution.from_json_dict(law) for law in inst]
                     for inst in payload["instances"]]
        assert rows == ref_sweep_rows(instances, Fraction(1), [Fraction(0), Fraction(1)], inflate)
        assert [r[-1] for r in rows] == ["VIOLATION", "ok", "ok", "VIOLATION"]

    def test_cap_enforced(self, tmp_path):
        code, _, _ = run(
            tmp_path,
            "sweep",
            {"h": "1", "t_grid": ["0"], "instances": [[COIN] * 9]},
        )
        assert code == 2

    def test_empty_instance_is_usage_error(self, tmp_path, monkeypatch, capsys):
        def no_laws(*args):
            raise AssertionError("a law was built before the empty instance was rejected")

        monkeypatch.setattr(LatticeDistribution, "from_json_dict", no_laws)
        payload = {"h": "1", "t_grid": ["0"], "instances": [[], [COIN]]}
        code, _, out = run(tmp_path, "sweep", payload)
        assert code == 2 and not out.exists()
        assert "instance 0: need at least one term" in capsys.readouterr().err

    @pytest.mark.parametrize("source", [{"instances": []}, {"family": {"max_n": 0}}])
    def test_empty_sweep_writes_the_header_alone(self, tmp_path, source):
        # A sweep of no instances checks nothing and fails nothing: exit 0.
        code, rows, out = run(tmp_path, "sweep", {"h": "1", "t_grid": ["0"]} | source)
        assert code == 0 and rows == []
        assert out.read_bytes() == ",".join(cli.COMMANDS["sweep"][1]).encode() + b"\n"

    def test_rows_match_cacheless_reference(self, tmp_path, monkeypatch):
        rng = random.Random(31)
        h = Fraction(1, 2)
        instances = [
            [random_symmetric_law(rng, radius=rng.randint(1, 3), den=rng.choice([4, 6, 8]), h=h / 2)
             for _ in range(rng.randint(0, 4))]
            for _ in range(25)
        ]
        instances = [inst for inst in instances if inst]  # an empty instance is a usage error
        t_grid = [Fraction(k, 4) for k in range(-1, 9)] + [Fraction(1, 2), Fraction(1, 3)]
        literals = [[law.to_json_dict() for law in inst] for inst in instances]
        payload = {"h": "1/2", "t_grid": [str(t) for t in t_grid], "instances": literals}
        for inflate in (Fraction(0), Fraction(1, 64)):
            if inflate:
                inflate_sweep_bound(monkeypatch, inflate)
            code, _, out = run(tmp_path, "sweep", payload)
            with open(out, newline="") as fh:
                rows = list(csv.reader(fh))[1:]
            expected = ref_sweep_rows(instances, h, t_grid, inflate)
            assert rows == expected
            assert code == (1 if any(r[-1] == "VIOLATION" for r in expected) else 0)
        assert code == 1  # the inflated bound is violated somewhere

    def test_family_rows_match_cacheless_reference(self, tmp_path):
        t_grid = [Fraction(k, 2) for k in range(6)]
        family = {"max_n": 3, "denominator": 4, "radius": 2}
        code, _, out = run(
            tmp_path, "sweep", {"h": "1", "t_grid": [str(t) for t in t_grid], "family": family}
        )
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        instances = oracles.symmetric_lattice_family(3, 4, 2)
        assert rows == ref_sweep_rows(instances, Fraction(1), t_grid)

    def test_support_cap_is_usage_error(self, tmp_path, monkeypatch):
        payload = {"h": "1", "t_grid": ["0"], "instances": [[COIN] * 3]}
        monkeypatch.setattr(oracles, "MAX_SUPPORT_PRODUCT", 6)
        assert run(tmp_path, "sweep", payload)[0] == 0
        monkeypatch.setattr(oracles, "MAX_SUPPORT_PRODUCT", 3)
        assert run(tmp_path, "sweep", payload)[0] == 2

    def test_support_cap_on_the_unbuilt_sum(self, tmp_path, monkeypatch):
        # Only the last product, 3x2, is over the cap, and with one cut the
        # sweep reads the instance's tails from LAZY without building the sum.
        payload = {"h": "1", "t_grid": ["0"], "instances": [[LAZY, COIN]]}
        monkeypatch.setattr(oracles, "MAX_SUPPORT_PRODUCT", 6)
        assert run(tmp_path, "sweep", payload)[0] == 0
        monkeypatch.setattr(oracles, "MAX_SUPPORT_PRODUCT", 5)
        code, _, out = run(tmp_path, "sweep", payload, name="capped.json")
        assert code == 2 and not out.exists()

    def test_exit_2_mid_sweep_leaves_the_output_untouched(self, tmp_path, monkeypatch, capsys):
        # Two instances stream their rows before the third meets the cap.
        monkeypatch.setattr(oracles, "MAX_SUPPORT_PRODUCT", 5)
        out = tmp_path / "in.json.csv"
        out.write_bytes(b"an earlier run\r\n")
        payload = {"h": "1", "t_grid": ["0", "1"], "instances": [[COIN], [COIN, ZERO], [LAZY, COIN]]}
        assert run(tmp_path, "sweep", payload)[0] == 2
        assert "support product 3x2 exceeds cap 5" in capsys.readouterr().err
        assert out.read_bytes() == b"an earlier run\r\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.json", "in.json.csv"]

    def test_streamed_csv_replaces_the_output(self, tmp_path):
        out = tmp_path / "in.json.csv"
        out.write_text("an earlier run, longer than the new CSV\n" * 10)
        out.chmod(0o640)
        code, rows, _ = run(tmp_path, "sweep", SWEEP)
        assert code == 0 and [r["status"] for r in rows] == ["ok", "ok"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.json", "in.json.csv"]
        assert stat.S_IMODE(out.stat().st_mode) == 0o640

    def test_streamed_csv_through_a_symlink(self, tmp_path):
        (tmp_path / "real").mkdir()
        target = tmp_path / "real" / "out.csv"
        target.write_text("an earlier run\n")
        link = tmp_path / "in.json.csv"
        link.symlink_to(target)
        code, rows, _ = run(tmp_path, "sweep", SWEEP)
        assert code == 0 and len(rows) == 2
        assert link.is_symlink() and target.read_text().startswith("instance,t,")
        assert [p.name for p in (tmp_path / "real").iterdir()] == ["out.csv"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_streamed_csv_into_a_pipe(self, tmp_path):
        # A pipe has nothing to replace: the rows are written into it.
        fifo = tmp_path / "in.json.csv"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
        reader.start()
        inp = tmp_path / "in.json"
        inp.write_text(json.dumps(SWEEP))
        code = main(["sweep", "--input", str(inp), "--output", str(fifo)])
        reader.join(timeout=10)
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert code == 0 and got and got[0].count("\n") == 3

    @pytest.mark.parametrize(
        "change",
        [{"family": {"max_n": 2, "radius": "2"}}, {"family": {"max_n": 2, "denominator": None}},
         {"family": {"max_n": 2, "radius": -1}}, {"family": {"max_n": 2, "denominator": 0}},
         {"family": {"max_n": -2}}],
    )
    def test_malformed_input_is_usage_error(self, tmp_path, change):
        payload = {"h": "1", "t_grid": ["0"], "instances": [[COIN]]} | change
        if "family" in change:
            del payload["instances"]
        assert run(tmp_path, "sweep", payload)[0] == 2

    def test_family_size_cap_checked_before_any_law(self, tmp_path, monkeypatch):
        def no_laws(*args):
            raise AssertionError("a law was built before the family size was checked")

        monkeypatch.setattr(oracles, "_symmetric_mass_profiles", no_laws)
        # 1 373 701 laws of max_n 1: far above MAX_FAMILY_INSTANCES
        family = {"max_n": 1, "denominator": 400, "radius": 3}
        assert run(tmp_path, "sweep", {"h": "1", "t_grid": ["0"], "family": family})[0] == 2

    def test_wide_family_exits_cleanly(self, tmp_path, capsys):
        # 2 001 laws over 4 001 lattice points each: above MAX_FAMILY_BUILD_WORK
        family = {"max_n": 1, "denominator": 2, "radius": 2000}
        assert run(tmp_path, "sweep", {"h": "1", "t_grid": ["0"], "family": family})[0] == 2
        assert "lattice points" in capsys.readouterr().err
        # one law, the point mass at 0, whose profile is 5 001 units deep
        family = {"max_n": 1, "denominator": 1, "radius": 5000}
        code, rows, _ = run(tmp_path, "sweep", {"h": "1", "t_grid": ["0"], "family": family})
        assert code == 0 and [r["status"] for r in rows] == ["ok"]

    def test_family_cap_checked_before_enumeration(self, tmp_path, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("the sweep ran before the cap was checked")

        monkeypatch.setattr(oracles, "sweep_checks", no_work)
        monkeypatch.setattr(oracles, "MAX_SWEEP_TERMS", 5)
        payload = {"h": "1", "t_grid": ["0"], "family": {"max_n": 6}}
        assert run(tmp_path, "sweep", payload)[0] == 2


class TestKleitmanCommand:
    def test_equality_instance(self, tmp_path):
        payload = {
            "instances": [
                {
                    "dimension": 1,
                    "vectors": [[1], [1], [1], [1]],
                    "norm": "absolute",
                    "targets": [{"center": [2], "radius": "1/4"}],
                }
            ]
        }
        code, rows, _ = run(tmp_path, "kleitman", payload)
        assert code == 0
        assert rows[0]["count"] == "6"
        assert rows[0]["ceiling"] == "6"

    def test_hypothesis_violation_is_usage_error(self, tmp_path):
        payload = {
            "dimension": 1,
            "vectors": [[1]],
            "norm": "absolute",
            "targets": [{"center": [0], "radius": "2"}],
        }
        code, _, _ = run(tmp_path, "kleitman", payload)
        assert code == 2

    PAYLOAD = {
        "instances": [
            {"dimension": 1, "vectors": [[1]] * n, "norm": "absolute",
             "targets": [{"center": [1], "radius": "1/4"}]}
            for n in (3, 4)
        ]
    }

    def test_count_above_ceiling_is_violation(self, tmp_path, monkeypatch):
        # Every subset sum counts as a hit, so count = 2^n > F_n(1).
        monkeypatch.setattr(oracles, "kleitman_count", lambda inst: 1 << len(inst.vectors))
        code, rows, _ = run(tmp_path, "kleitman", self.PAYLOAD)
        assert code == 1
        assert [(r["count"], r["ceiling"], r["status"]) for r in rows] == [
            ("8", "3", "VIOLATION"), ("16", "6", "VIOLATION")
        ]

    def test_cap_checked_before_counting(self, tmp_path, monkeypatch):
        def no_work(inst):
            raise AssertionError("counted before the cap was checked")

        monkeypatch.setattr(oracles, "kleitman_count", no_work)
        # work 4 * (3 + 1) and 5 * (4 + 1): the second instance is over the cap
        monkeypatch.setattr(oracles, "MAX_SUMSET_WORK", 16)
        assert run(tmp_path, "kleitman", self.PAYLOAD)[0] == 2

    def test_target_cap_checked_before_counting(self, tmp_path, monkeypatch, capsys):
        # 12 generic vectors in Q^3: S = 2^12 distinct sums, work S * (12 + 3m),
        # which the constant admits up to m_max targets.
        sums = 1 << 12
        m_max = (oracles.MAX_SUMSET_WORK // sums - 12) // 3

        def payload(m):
            return {"dimension": 3, "vectors": [[1 << i, 0, 0] for i in range(12)],
                    "norm": "sup",
                    "targets": [{"center": [j, 0, 0], "radius": "1/4"} for j in range(m)]}

        monkeypatch.setattr(oracles, "kleitman_count", lambda inst: 0)
        assert run(tmp_path, "kleitman", payload(m_max))[0] == 0

        def no_work(inst):
            raise AssertionError("counted before the cap was checked")

        monkeypatch.setattr(oracles, "kleitman_count", no_work)
        assert run(tmp_path, "kleitman", payload(m_max + 1))[0] == 2
        assert "exceeds cap" in capsys.readouterr().err

    def test_cap_message_past_str_digit_limit(self, tmp_path, capsys):
        # 20 vectors over coprime 301-digit denominators: the box's B has
        # about 6 000 digits, more than str() may write.  The message gives
        # S = min(2^n, B) = 2^20, the count the work is formed from, on one
        # line, and not B.
        dens = [10**300 + 2 * i + 1 for i in range(20)]
        vectors = [Fraction(10**300 + 1, d) for d in dens]
        payload = {"dimension": 1, "vectors": [[str(v)] for v in vectors], "norm": "absolute",
                   "targets": [{"center": [0], "radius": "1/4"}] * 16}
        code, rows, _ = run(tmp_path, "kleitman", payload)
        assert (code, rows) == (2, [])
        # B = sum_i |a_i| / g + 1, g the gcd of the a_i: gcd(nums) / lcm(dens)
        g = Fraction(math.gcd(*(v.numerator for v in vectors)),
                     math.lcm(*(v.denominator for v in vectors)))
        distinct = sum(vectors) / g + 1
        assert distinct.denominator == 1 and distinct > 1 << 20
        with pytest.raises(ValueError):
            str(distinct.numerator)
        assert capsys.readouterr().err == (
            f"error: instance 0: sumset work {(1 << 20) * (20 + 16)} (n=20, m=16, d=1, at most "
            f"{1 << 20} distinct sums) exceeds cap {oracles.MAX_SUMSET_WORK}\n")


class TestCompareCommand:
    def test_two_coin_example(self, tmp_path):
        payload = {
            "xs": [COIN, COIN],
            "ys": [COIN, ZERO],
            "h": "1",
            "t_grid": ["1"],
            "m_max": 2,
        }
        code, rows, _ = run(tmp_path, "compare", payload)
        assert code == 0
        by_check = {}
        for row in rows:
            by_check.setdefault(row["check"], []).append(row)
        # lhs == rhs is no violation
        pruss = by_check["pruss"][0]
        assert (pruss["lhs"], pruss["rhs"], pruss["status"]) == ("1/2", "1/2", "ok")
        assert all(r["status"] == "ok" for r in by_check["half_mass"])
        assert by_check["birnbaum"][0]["status"].startswith("hypothesis-violated")

    def test_violation_rows_exit_1(self, tmp_path, monkeypatch):
        tailless_s(monkeypatch)
        payload = {"xs": [COIN, COIN], "ys": [COIN, ZERO], "h": "1", "t_grid": ["1", "3"],
                   "m_max": 2}
        code, rows, _ = run(tmp_path, "compare", payload)
        assert code == 1
        # at t = 3 and m = 2 both sides are 0: equality stays ok
        assert [(r["check"], r["param"], r["lhs"], r["rhs"], r["status"]) for r in rows[:4]] == [
            ("pruss", "1", "0", "1/2", "VIOLATION"), ("pruss", "3", "0", "0", "ok"),
            ("half_mass", "1", "0", "1/2", "VIOLATION"), ("half_mass", "2", "0", "0", "ok"),
        ]

    def test_cells_past_str_digit_limit(self, tmp_path):
        # Four terms with masses 1/d at +-1: the sums' denominator d^4 has
        # more digits than str() may write, so the cells take Decimal's path.
        d = 10 ** (sys.get_int_max_str_digits() // 4 + 1) + 1
        law = {"atoms": [{"x": "-1", "mass": f"1/{d}"}, {"x": "0", "mass": f"{d - 2}/{d}"},
                         {"x": "1", "mass": f"1/{d}"}]}
        payload = {"xs": [law] * 4, "ys": [law] * 4, "h": "1", "t_grid": ["1", "4"], "m_max": 4}
        code, rows, _ = run(tmp_path, "compare", payload)
        assert code == 0
        with pytest.raises(ValueError):
            str(d**4)

        terms = (LatticeDistribution.from_json_dict(law),) * 4
        inst = ordering.ComparisonInstance(terms, terms)
        pruss = ordering.pruss_check(inst, [1, 4]).rows
        half = ordering.half_mass_check(inst, 1, 4).rows
        assert [(r["check"], big_rational(r["lhs"]), big_rational(r["rhs"]), r["status"])
                for r in rows[:-1]] == [
            (check, Fraction(*lhs), Fraction(*rhs), "ok")
            for check, report in (("pruss", pruss), ("half_mass", half))
            for _, lhs, rhs, _ in report
        ]
        assert Fraction(*pruss[-1][1]) == Fraction(2, d**4)

    def test_mass_sum_message_past_str_digit_limit(self, tmp_path, capsys):
        # The masses' sum has about 6 000 digits in each part, more than
        # str() may write: the message takes Decimal's path.
        dens = [10**2000 + k for k in (1, 3, 7)]
        law = {"atoms": [{"x": str(x), "mass": f"1/{d}"} for x, d in enumerate(dens)]}
        code, rows, _ = run(tmp_path, "compare", {"xs": [law], "ys": [law], "h": "1"})
        assert (code, rows) == (2, [])
        err = capsys.readouterr().err
        prefix = "error: bad distribution literal in xs: masses must sum to 1, got "
        assert err.startswith(prefix) and err.endswith("\n")
        total = big_rational(err[len(prefix):-1])
        assert total == sum(Fraction(1, d) for d in dens)
        with pytest.raises(ValueError):
            str(total.denominator)

    def test_half_mass_hypothesis_row(self, tmp_path):
        # Y_1, the +-2 coin, is off {-h, 0, h} at h = 1: the check writes
        # one row that says so, which is no violation.
        two = {"atoms": [{"x": "-2", "mass": "1/2"}, {"x": "2", "mass": "1/2"}]}
        payload = {"xs": [two], "ys": [two], "h": "1", "t_grid": ["1"]}
        code, _, out = run(tmp_path, "compare", payload)
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[2] == 'half_mass,,,,"hypothesis-violated: Y_1 not supported on {-h, 0, h}"'

    def test_undominated_pair_is_usage_error(self, tmp_path):
        payload = {"xs": [ZERO], "ys": [COIN], "h": "1", "t_grid": ["1"]}
        code, _, _ = run(tmp_path, "compare", payload)
        assert code == 2

    @pytest.mark.parametrize("change", [{"m_max": "two"}, {"m_max": None}, {"h": "0"},
                                        {"m_max": -3}])
    def test_bad_field_is_usage_error(self, tmp_path, change):
        payload = {"xs": [COIN], "ys": [ZERO], "h": "1", "t_grid": ["1"]} | change
        assert run(tmp_path, "compare", payload)[0] == 2

    def test_m_max_cap_checked_before_sum_laws(self, tmp_path, monkeypatch):
        def no_sums(terms):
            raise AssertionError("sum laws built before m_max was checked")

        monkeypatch.setattr(oracles, "MAX_HALF_MASS_M", 3)
        payload = {"xs": [COIN], "ys": [ZERO], "h": "1", "t_grid": ["1"], "m_max": 3}
        code, rows, _ = run(tmp_path, "compare", payload)
        assert code == 0 and [r["param"] for r in rows if r["check"] == "half_mass"] == ["1", "2", "3"]
        monkeypatch.setattr(ordering, "exact_sum_distribution", no_sums)
        assert run(tmp_path, "compare", payload | {"m_max": 4})[0] == 2

    def test_support_cap_is_usage_error(self, tmp_path):
        # The sum of six 201-atom laws outgrows MAX_SUPPORT_PRODUCT.
        wide = {"atoms": [{"x": str(x), "mass": "1/201"} for x in range(-100, 101)]}
        payload = {"xs": [wide] * 6, "ys": [wide] * 6, "h": "1", "t_grid": ["1"], "m_max": 1}
        assert run(tmp_path, "compare", payload)[0] == 2

    def test_sum_laws_built_once(self, tmp_path, monkeypatch):
        built = []
        real = ordering.exact_sum_distribution

        def counting(terms):
            built.append(terms)
            return real(terms)

        monkeypatch.setattr(ordering, "exact_sum_distribution", counting)
        payload = {"xs": [COIN, COIN], "ys": [COIN, ZERO], "h": "1", "t_grid": ["1"], "m_max": 2}
        assert run(tmp_path, "compare", payload)[0] == 0
        assert len(built) == 2


class TestTightenCommand:
    def test_two_sure_coins(self, tmp_path):
        payload = {"p": ["1", "1"], "h": "1", "m": 1, "split_grid": ["0", "1/2", "1"]}
        code, rows, _ = run(tmp_path, "tighten", payload)
        assert code == 0
        assert rows[0]["bound"] == "1/4"
        assert rows[0]["best_value"] == "1/2"
        assert rows[0]["gap"] == "1/4"

    def test_bad_m_is_usage_error(self, tmp_path):
        code, _, _ = run(tmp_path, "tighten", {"p": ["1"], "h": "1", "m": 1})
        assert code == 2

    def test_empty_split_grid_is_usage_error(self, tmp_path):
        payload = {"p": ["1", "1"], "h": "1", "m": 1, "split_grid": []}
        assert run(tmp_path, "tighten", payload)[0] == 2

    def test_p_validated_once(self, tmp_path, monkeypatch):
        calls = count_p_checks(monkeypatch)
        assert run(tmp_path, "tighten", {"p": ["1/2", "1"], "h": "1", "m": 1})[0] == 0
        assert len(calls) == 1

    def test_value_below_bound_is_violation(self, tmp_path, monkeypatch):
        # The improved bound 1/4 shifted up to 1.
        monkeypatch.setattr(oracles, "_window_sums", shifted_window_sums(Fraction(3, 4)))
        payload = {"p": ["1", "1"], "h": "1", "m": 1}
        code, rows, _ = run(tmp_path, "tighten", payload)
        assert code == 1
        assert rows[0]["gap"] == "-1/2"
        assert rows[0]["status"] == "VIOLATION"


@pytest.mark.parametrize(
    "command, payload, work",
    [("bound", {"p": ["1/2"] * 3, "h": "1", "t_grid": ["1"]}, (bounds, "_scaled_pmf")),
     ("bound", {"terms": [COIN] * 3, "h": "1", "t_grid": ["1"]}, (bounds, "_scaled_pmf")),
     ("tighten", {"p": ["1/2"] * 3, "h": "1", "m": 1}, (oracles, "tightness_search")),
     ("compare", {"xs": [COIN] * 3, "ys": [LAZY] * 3, "h": "1", "t_grid": ["1"]},
      (ordering, "ComparisonInstance")),
     ("bound", {"terms": [COIN] * 3, "h": "1", "t_grid": ["1"]},
      (LatticeDistribution, "from_json_dict")),
     ("compare", {"xs": [COIN] * 3, "ys": [LAZY] * 3, "h": "1", "t_grid": ["1"]},
      (LatticeDistribution, "from_json_dict")),
     ("sweep", {"instances": [[COIN] * 2, [COIN] * 3], "h": "1", "t_grid": ["1"]},
      (LatticeDistribution, "from_json_dict"))],
    ids=["bound-p", "bound-terms", "tighten", "compare", "bound-terms-laws", "compare-laws",
         "sweep-instances-laws"],
)
def test_term_cap_checked_before_any_pmf(tmp_path, monkeypatch, command, payload, work):
    def no_work(*args):
        raise AssertionError("a law or pmf was built before the term cap was checked")

    caps = ("MAX_TERMS", "MAX_SWEEP_TERMS")  # `sweep` instances have their own cap
    for cap in caps:
        monkeypatch.setattr(oracles, cap, 3)
    assert run(tmp_path, command, payload)[0] == 0
    monkeypatch.setattr(*work, no_work)
    for cap in caps:
        monkeypatch.setattr(oracles, cap, 2)
    assert run(tmp_path, command, payload)[0] == 2


BOUND = {"p": ["1/2", "1"], "h": "1", "t_grid": ["0", "1"]}
SWEEP = {"h": "1", "t_grid": ["0", "1"], "instances": [[COIN, COIN]]}
KLEITMAN = {"instances": [{"dimension": 1, "vectors": [[1], [1]], "norm": "absolute",
                           "targets": [{"center": [1], "radius": "1/4"}]}]}
COMPARE = {"xs": [COIN, COIN], "ys": [COIN, ZERO], "h": "1", "t_grid": ["1"], "m_max": 2}
TIGHTEN = {"p": ["1", "1"], "h": "1", "m": 1, "h_grid": ["2"], "split_grid": ["1/2"]}


@pytest.mark.parametrize(
    "command, payload",
    [("sweep", SWEEP | {"instances": 5}), ("sweep", SWEEP | {"instances": [5]}),
     ("kleitman", {"instances": 5}), ("compare", COMPARE | {"xs": 5}),
     ("compare", COMPARE | {"ys": 5}), ("bound", BOUND | {"p": 5}),
     ("bound", {"terms": 5, "h": "1", "t_grid": ["0"]}),
     ("tighten", TIGHTEN | {"m": float("inf")}),
     ("tighten", TIGHTEN | {"m": True}), ("tighten", TIGHTEN | {"m": 1.9}),
     ("tighten", TIGHTEN | {"m": "1"}), ("compare", COMPARE | {"m_max": 1.5}),
     ("sweep", {"h": "1", "t_grid": ["0"], "family": {"max_n": 2.7}}),
     ("kleitman", {"instances": [KLEITMAN["instances"][0] | {"dimension": 1.5}]}),
     ("kleitman", {"instances": [KLEITMAN["instances"][0] | {"vectors": {"1": 0, "2": 0}}]}),
     ("kleitman", {"instances": [KLEITMAN["instances"][0]
                                 | {"targets": [{"center": "1", "radius": "1/4"}]}]})],
    ids=["sweep-instances", "sweep-instance", "kleitman-instances", "compare-xs", "compare-ys",
         "bound-p", "bound-terms", "tighten-infinity", "tighten-m-bool", "tighten-m-float",
         "tighten-m-string", "compare-m_max-float", "sweep-max_n-float",
         "kleitman-dimension-float", "kleitman-vectors-object", "kleitman-center-string"],
)
def test_malformed_shape_is_usage_error(tmp_path, command, payload):
    assert run(tmp_path, command, payload)[0] == 2


@pytest.mark.parametrize(
    "command, payload, message",
    [("bound", {"h": "1", "t_grid": ["0"]}, "input must supply either 'p' or 'terms'"),
     ("sweep", {"h": "1", "t_grid": ["0"]}, "input must supply 'instances' or 'family'"),
     ("sweep", {"h": "1", "t_grid": ["0"], "family": [2]},
      "expected an object with field 'max_n', got list"),
     ("kleitman", {"instances": [KLEITMAN["instances"][0] | {"norm": 1}]},
      "instance 0: norm must be a string, got int"),
     ("sweep", SWEEP | {"instances": [[COIN, 5]]},
      "bad distribution literal in instances: distribution literal must have an 'atoms' list"),
     ("compare", COMPARE | {"xs": [COIN, {"mass": "1"}]},
      "bad distribution literal in xs: distribution literal must have an 'atoms' list")],
    ids=["bound-no-p-or-terms", "sweep-no-instances-or-family", "sweep-family-list",
         "kleitman-norm-int", "sweep-law-int", "compare-law-no-atoms"],
)
def test_missing_or_misshapen_input_is_one_error_line(tmp_path, capsys, command, payload,
                                                      message):
    code, _, out = run(tmp_path, command, payload)
    assert (code, out.exists()) == (2, False)
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command, payload, cap",
                         [("compare", COMPARE, 4), ("tighten", TIGHTEN, 16)])
def test_support_cap_read_when_checked(tmp_path, monkeypatch, capsys, command, payload, cap):
    # cap is the largest support product the input forms.  Like `sweep`
    # (TestSweepCommand), these read MAX_SUPPORT_PRODUCT when they check it.
    monkeypatch.setattr(oracles, "MAX_SUPPORT_PRODUCT", cap)
    assert run(tmp_path, command, payload)[0] == 0
    monkeypatch.setattr(oracles, "MAX_SUPPORT_PRODUCT", cap - 1)
    code, _, out = run(tmp_path, command, payload, name="capped.json")
    assert code == 2 and not out.exists()
    assert f"exceeds cap {cap - 1}\n" in capsys.readouterr().err


@pytest.mark.parametrize("command, payload", [("bound", BOUND), ("sweep", SWEEP)])
def test_unusable_output_path_is_usage_error(tmp_path, capsys, command, payload):
    inp = tmp_path / "in.json"
    inp.write_text(json.dumps(payload))
    assert main([command, "--input", str(inp), "--output", str(tmp_path / "out\0.csv")]) == 2
    assert capsys.readouterr().err == "error: embedded null byte\n"
    assert [p.name for p in tmp_path.iterdir()] == ["in.json"]  # no temporary file



def _wire(q: Fraction, scale: int) -> str:
    """q as a wire string with numerator and denominator both times scale,
    so "2/4" for q = 1/2 and scale 2."""
    return f"{q.numerator * scale}/{q.denominator * scale}"


@st.composite
def bound_inputs(draw):
    """A `symtail bound` input over p, with p and t as unreduced wire strings
    and a grid drawn in quarter steps of h from [-h, n*h + h], so it holds
    negative t, t = n*h, t past the domain and repeated t."""
    n = draw(st.integers(1, 8))
    p = draw(st.lists(st.fractions(0, 1, max_denominator=12), min_size=n, max_size=n))
    h = draw(st.fractions(Fraction(1, 6), 3, max_denominator=6))
    ts = draw(st.lists(st.integers(-4, 4 * n + 4).map(lambda k: h * Fraction(k, 4)), max_size=12))
    scale = st.integers(1, 3)
    return {"p": [_wire(q, draw(scale)) for q in p], "h": _wire(h, draw(scale)),
            "t_grid": [_wire(t, draw(scale)) for t in ts]}


def ref_bound_rows(payload) -> list[dict]:
    """The rows of `symtail bound`, one evaluate_bounds call per t, with the
    domain read as Fraction comparisons and decimals from ref_decimal_str."""
    p = [Fraction(q) for q in payload["p"]]
    h = Fraction(payload["h"])
    note = f"domain: t outside [0, {format_rational(len(p) * h)})"
    rows = []
    for t in map(Fraction, payload["t_grid"]):
        row = {"t": format_rational(t), "h": format_rational(h), "note": ""}
        if 0 <= t < len(p) * h:
            report = evaluate_bounds(p, h, t)
            row["m"] = str(report.m)
            for name in ("nagaev", "improved", "kanter_sup"):
                value = getattr(report, name)
                row[name], row[f"{name}_decimal"] = format_rational(value), ref_decimal_str(value)
        else:
            row |= dict.fromkeys(("m", "nagaev", "nagaev_decimal", "improved", "improved_decimal",
                                  "kanter_sup", "kanter_sup_decimal"), "")
            row["note"] = note
        rows.append(row)
    return rows


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(bound_inputs())
@example({"p": ["2/4", "3/3"], "h": "2/2", "t_grid": ["-1/4", "2/1", "0/3", "0", "4/4", "3/2"]})
def test_bound_rows_match_per_row_reference(tmp_path, payload):
    code, rows, _ = run(tmp_path, "bound", payload)
    assert code == 0
    assert rows == ref_bound_rows(payload)


@pytest.mark.parametrize("corruption", SUM_CORRUPTIONS)
@pytest.mark.parametrize("command, payload", [("bound", BOUND), ("sweep", SWEEP),
                                              ("tighten", TIGHTEN)])
def test_corrupted_bound_sums_are_usage_errors(tmp_path, monkeypatch, capsys, command, payload,
                                               corruption):
    assert run(tmp_path, command, payload, name="good.json")[0] == 0
    corrupt_bound_sums(monkeypatch, corruption)
    code, _, out = run(tmp_path, command, payload)
    assert code == 2 and not out.exists()
    assert capsys.readouterr().err.startswith("error: bound sums")


@pytest.mark.parametrize(
    "command, payload, passes",
    # bound: m = 1, 1, 2, 2 in the domain, and t = -1, 3 = n*h, 5 outside it;
    # sweep: two p-multisets, each with m = 1, 1, 2.
    [("bound", {"p": ["1/2"] * 3, "h": "1", "t_grid": ["1/2", "0", "5", "-1", "1", "3/2", "3"]}, 2),
     ("sweep", SWEEP | {"t_grid": ["0", "1/2", "1"],
                        "instances": [[COIN] * 2, [LAZY] * 2, [COIN] * 2]}, 4),
     ("tighten", TIGHTEN, 1)],
)
def test_bound_sums_once_per_distinct_m(tmp_path, monkeypatch, command, payload, passes):
    calls = []
    real = bounds._bound_sums
    monkeypatch.setattr(bounds, "_bound_sums", lambda pmf, m: calls.append(m) or real(pmf, m))
    assert run(tmp_path, command, payload)[0] == 0
    assert len(calls) == passes

def _paths(value, prefix=()):
    """Every position in a JSON value, the root included, as a key path."""
    yield prefix
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        items = ()
    for key, child in items:
        yield from _paths(child, prefix + (key,))


def _replace(value, path, new):
    if not path:
        return new
    value = copy.deepcopy(value)
    parent = value
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = new
    return value


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from(["0", "1", "-1", "1/2", "1/4", "x"]),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(["atoms", "x", "mass", "max_n", "center", "radius", "k"]),
                      children, max_size=3),
    max_leaves=8,
)
FUZZ_INPUTS = [
    ("bound", BOUND), ("bound", {"terms": [COIN, COIN], "h": "1", "t_grid": ["1"]}),
    ("sweep", SWEEP),
    ("sweep", {"h": "1", "t_grid": ["1"], "family": {"max_n": 2, "denominator": 4, "radius": 1}}),
    ("kleitman", KLEITMAN), ("compare", COMPARE), ("tighten", TIGHTEN),
]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzzed_json_exits_cleanly(tmp_path, data):
    # Random JSON in place of any field of a valid input, at any depth:
    # every run ends in a CSV or a usage error, never a traceback.  No
    # valid input violates a theorem, so exit 1 would be a bug.
    command, payload = data.draw(st.sampled_from(FUZZ_INPUTS))
    for _ in range(data.draw(st.integers(1, 2))):
        path = data.draw(st.sampled_from(list(_paths(payload))))
        payload = _replace(payload, path, data.draw(json_values))
    assert run(tmp_path, command, payload)[0] in (0, 2)


@pytest.mark.parametrize("literal", ["1e1000000", "1e-1000000", "0.5", "1_0/2_0", "1/0"])
def test_rational_outside_wire_format_is_usage_error(tmp_path, literal):
    code, _, out = run(tmp_path, "bound", {"p": ["1/2"], "h": literal, "t_grid": ["0"]})
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize("t", [[1, 2], [[1, 2]], True, "1/0", "-1/-2"])
def test_t_outside_wire_format_is_usage_error(tmp_path, t):
    # t_grid is read into integer pairs; a JSON list is not one
    code, _, out = run(tmp_path, "bound", {"p": ["1/2"], "h": "1", "t_grid": [t]})
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize("literal", [True, 0.5, "1e3", "1/0", "1" * 5000])
@pytest.mark.parametrize("field", ["x", "mass"])
def test_malformed_atom_literal_is_usage_error(tmp_path, field, literal):
    law = {"atoms": [{"x": "0", "mass": "1"} | {field: literal}]}
    payload = {"xs": [law], "ys": [ZERO], "h": "1", "t_grid": ["1"]}
    code, _, out = run(tmp_path, "compare", payload)
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize("literal, t", [("-3/4", "-3/4"), (" 7 ", "7"), ("+2", "2")])
def test_rational_wire_forms_parse(tmp_path, literal, t):
    code, rows, _ = run(tmp_path, "bound", {"p": ["1/2"], "h": "1", "t_grid": [literal]})
    assert code == 0
    assert rows[0]["t"] == t


def test_deeply_nested_json_is_usage_error(tmp_path):
    inp = tmp_path / "deep.json"
    out = tmp_path / "deep.csv"
    inp.write_text('{"p": ' + "[" * 100_000 + "]" * 100_000 + ', "h": "1", "t_grid": ["0"]}')
    assert main(["bound", "--input", str(inp), "--output", str(out)]) == 2
    assert not out.exists()


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2


GOLDEN = Path(__file__).parent / "golden"


def test_parser_built_once_per_process(tmp_path, monkeypatch):
    built = []  # the prog of each parser constructed, subcommand parsers included
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    cli.build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    for _ in range(3):
        assert run(tmp_path, "bound", {"p": ["1/2"], "h": "1", "t_grid": ["0"]})[0] == 0
    assert built == ["symtail"]


def test_reused_parser_carries_no_state(tmp_path, capsys):
    out = tmp_path / "bound.csv"
    assert main(["frobnicate"]) == 2
    assert main(["bound", "--input", str(GOLDEN / "bound.json")]) == 2
    assert main(["--help"]) == 0
    assert main(["bound", "--input", str(GOLDEN / "bound.json"), "--output", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "bound.csv").read_bytes()


FLAG_CASES = [
    ("bound", {"seed": 0}), ("sweep", {"seed": 0}), ("bound", {"max_n": 3}),
    ("compare", {"max_width": 9}), ("tighten", {"max_n": 3}), ("kleitman", {"max_width": 9}),
]
FLAG_CASES += [
    (command, {flag: 3})
    for command in ("bound", "sweep", "kleitman", "compare", "tighten")
    for flag in ("seed", "max_n", "max_width")
    if (command, flag) not in {(c, f) for c, flags in FLAG_CASES for f in flags}
]


@pytest.mark.parametrize("command, flags", FLAG_CASES)
def test_flags_only_where_read(tmp_path, capsys, command, flags):
    # Only --input and --output exist; the caps are constants in oracles.
    assert run(tmp_path, command, {}, **flags)[0] == 2
    assert "unrecognized arguments" in capsys.readouterr().err
