import csv
import json
import random
from fractions import Fraction

import pytest

from symtail import oracles, ordering
from symtail.cli import main

from util import random_symmetric_law, ref_sweep_rows

COIN = {"atoms": [{"x": "-1", "mass": "1/2"}, {"x": "1", "mass": "1/2"}]}
ZERO = {"atoms": [{"x": "0", "mass": "1"}]}


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

    def test_corrupted_bound_detected(self, tmp_path):
        code, rows, _ = run(
            tmp_path,
            "sweep",
            {
                "h": "1",
                "t_grid": ["1"],
                "instances": [[COIN, COIN]],
                "inflate_bound": "1/2",
            },
        )
        assert code == 1
        assert any(r["status"] == "VIOLATION" for r in rows)

    def test_cap_enforced(self, tmp_path):
        code, _, _ = run(
            tmp_path,
            "sweep",
            {"h": "1", "t_grid": ["0"], "instances": [[COIN] * 9]},
        )
        assert code == 2

    def test_rows_match_cacheless_reference(self, tmp_path):
        rng = random.Random(31)
        h = Fraction(1, 2)
        instances = [
            [random_symmetric_law(rng, radius=rng.randint(1, 3), den=rng.choice([4, 6, 8]), h=h / 2)
             for _ in range(rng.randint(0, 4))]
            for _ in range(25)
        ]
        t_grid = [Fraction(k, 4) for k in range(-1, 9)] + [Fraction(1, 2), Fraction(1, 3)]
        literals = [[law.to_json_dict() for law in inst] for inst in instances]
        for inflate in (Fraction(0), Fraction(1, 64)):
            payload = {"h": "1/2", "t_grid": [str(t) for t in t_grid], "instances": literals,
                       "inflate_bound": str(inflate)}
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

    def test_support_cap_is_usage_error(self, tmp_path):
        payload = {"h": "1", "t_grid": ["0"], "instances": [[COIN] * 3]}
        assert run(tmp_path, "sweep", payload, max_width=6)[0] == 0
        assert run(tmp_path, "sweep", payload, max_width=3)[0] == 2

    @pytest.mark.parametrize(
        "change",
        [{"inflate_bound": "x"}, {"inflate_bound": None}, {"family": {"max_n": 2, "radius": -1}},
         {"family": {"max_n": 2, "denominator": 0}}],
    )
    def test_malformed_input_is_usage_error(self, tmp_path, change):
        payload = {"h": "1", "t_grid": ["0"], "instances": [[COIN]]} | change
        if "family" in change:
            del payload["instances"]
        assert run(tmp_path, "sweep", payload)[0] == 2

    def test_family_cap_checked_before_enumeration(self, tmp_path, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("the sweep ran before the cap was checked")

        monkeypatch.setattr(oracles, "sweep_checks", no_work)
        payload = {"h": "1", "t_grid": ["0"], "family": {"max_n": 6}}
        assert run(tmp_path, "sweep", payload, max_n=5)[0] == 2


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
        monkeypatch.setattr(oracles, "_membership_test", lambda inst, scale: lambda point: True)
        code, rows, _ = run(tmp_path, "kleitman", self.PAYLOAD)
        assert code == 1
        assert [(r["count"], r["ceiling"], r["status"]) for r in rows] == [
            ("8", "3", "VIOLATION"), ("16", "6", "VIOLATION")
        ]

    def test_cap_checked_before_counting(self, tmp_path, monkeypatch):
        def no_work(inst):
            raise AssertionError("counted before the cap was checked")

        monkeypatch.setattr(oracles, "kleitman_count", no_work)
        assert run(tmp_path, "kleitman", self.PAYLOAD, max_n=3)[0] == 2


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
        assert by_check["pruss"][0]["lhs"] == "1/2"
        assert by_check["pruss"][0]["rhs"] == "1/2"
        assert all(r["status"] == "ok" for r in by_check["half_mass"])
        assert by_check["birnbaum"][0]["status"].startswith("hypothesis-violated")

    def test_undominated_pair_is_usage_error(self, tmp_path):
        payload = {"xs": [ZERO], "ys": [COIN], "h": "1", "t_grid": ["1"]}
        code, _, _ = run(tmp_path, "compare", payload)
        assert code == 2

    @pytest.mark.parametrize("change", [{"m_max": "two"}, {"m_max": None}, {"h": "0"}])
    def test_bad_field_is_usage_error(self, tmp_path, change):
        payload = {"xs": [COIN], "ys": [ZERO], "h": "1", "t_grid": ["1"]} | change
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

    def test_value_below_bound_is_violation(self, tmp_path, monkeypatch):
        monkeypatch.setattr(oracles, "improved_bound", lambda p, h, t: Fraction(1))
        payload = {"p": ["1", "1"], "h": "1", "m": 1}
        code, rows, _ = run(tmp_path, "tighten", payload)
        assert code == 1
        assert rows[0]["gap"] == "-1/2"
        assert rows[0]["status"] == "VIOLATION"


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2


@pytest.mark.parametrize(
    "command, flags",
    [("bound", {"seed": 0}), ("sweep", {"seed": 0}), ("bound", {"max_n": 3}),
     ("compare", {"max_width": 9}), ("tighten", {"max_n": 3}), ("kleitman", {"max_width": 9})],
)
def test_flags_only_where_read(tmp_path, capsys, command, flags):
    assert run(tmp_path, command, {}, **flags)[0] == 2
    assert "unrecognized arguments" in capsys.readouterr().err
