"""CLI outputs pinned byte for byte.

Each ``tests/golden/<name>.json`` is a CLI input; ``<name>.csv`` is the CSV
the CLI wrote for it when the fixtures were made.  A case expected to exit 2
writes no CSV and has none stored.  A case listed in ``INFLATE`` runs with
every improved bound of ``oracles._window_sums`` shifted up by the given
amount, so the sweep's ``VIOLATION`` rows and exit 1 stay pinned.
"""

import shutil
from fractions import Fraction
from pathlib import Path

import pytest

from symtail import oracles
from symtail.cli import main

from util import shifted_window_sums

GOLDEN = Path(__file__).parent / "golden"

CASES = (
    ("bound", "bound", 0),
    ("bound_terms", "bound", 0),
    ("bound_grid_order", "bound", 0),
    ("bound_wide", "bound", 0),
    ("bound_unreduced", "bound", 0),
    ("sweep_family", "sweep", 0),
    ("sweep_family_half", "sweep", 0),
    ("sweep_instances", "sweep", 0),
    ("sweep_inflate", "sweep", 1),
    ("sweep_asymmetric", "sweep", 2),
    ("sweep_ncap", "sweep", 2),
    ("kleitman", "kleitman", 0),
    ("compare", "compare", 0),
    ("compare_two_coin", "compare", 0),
    ("compare_unimodal", "compare", 0),
    ("tighten", "tighten", 0),
)

INFLATE = {"sweep_inflate": Fraction(1, 8)}


@pytest.mark.parametrize("name, command, code", CASES, ids=[c[0] for c in CASES])
def test_golden_output(tmp_path, monkeypatch, name, command, code):
    if name in INFLATE:
        monkeypatch.setattr(oracles, "_window_sums", shifted_window_sums(INFLATE[name]))
    inp = tmp_path / f"{name}.json"
    shutil.copy(GOLDEN / f"{name}.json", inp)
    out = tmp_path / f"{name}.csv"
    assert main([command, "--input", str(inp), "--output", str(out)]) == code
    expected = GOLDEN / f"{name}.csv"
    if code == 2:
        assert not out.exists() and not expected.exists()
    else:
        assert out.read_bytes() == expected.read_bytes()


def test_every_fixture_has_a_case():
    assert {p.stem for p in GOLDEN.glob("*.json")} == {c[0] for c in CASES}
