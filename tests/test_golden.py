"""CLI outputs pinned byte for byte.

Each ``tests/golden/<name>.json`` is a CLI input; ``<name>.csv`` is the CSV
the CLI wrote for it when the fixtures were made.  A case expected to exit 2
writes no CSV and has none stored.
"""

import shutil
from pathlib import Path

import pytest

from symtail.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = (
    ("bound", "bound", 0),
    ("bound_terms", "bound", 0),
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


@pytest.mark.parametrize("name, command, code", CASES, ids=[c[0] for c in CASES])
def test_golden_output(tmp_path, name, command, code):
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
