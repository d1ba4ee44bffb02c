"""The exactness rule, read off the source of `symtail`.

Every checked inequality fails as data, never through an `assert` that
`python -O` strips, and no floating point reaches an exact path.  So an AST
scan of `src/symtail` finds:

  * no `assert` statement anywhere;
  * no float literal, no use of the name `float` outside an annotation, and
    no `math` name that is not exact on integers and Fractions, outside the
    Monte Carlo block;
  * no true division `/` outside the Monte Carlo block, a named allowlist.

The integer row paths of `symtail compare` and `symtail bound`, the window
index and bound sums every bound path reads, and the tail queries build no
Fraction and divide nothing; their functions are named below so a rename
cannot drop them from the scan.  The kernels among them read no rational:
they take the integer pairs their callers read once.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "symtail"

# Top-level definitions of oracles.py that sample floats.
MONTE_CARLO = {"SampleConfig", "_sampler", "monte_carlo_tail"}
# Top-level functions that may use `/`: the Monte Carlo block alone.
DIVISION = MONTE_CARLO
# math functions whose result is exact for integer or Fraction arguments.
EXACT_MATH = {"gcd", "lcm", "comb", "perm", "prod", "isqrt", "factorial", "ceil", "floor"}
# The integer paths of the comparison and bound rows, the shared helpers they call,
# the sweep's prefix records and slot packing, and the one source of F_k(m).
INTEGER_PATH = {"_row", "pruss_check", "half_mass_check", "is_symmetric", "cmd_compare",
                "cmd_bound", "window_indices", "_exact", "decimal_str", "_packed", "_slots",
                "_record", "_sum_form", "_success_pairs", "_poisson_binomial_weights",
                "_scaled_pmf", "_bound_sums", "_checked_sums", "_window_sums", "_abs_inside",
                "_upper_tail_weights", "_first_passages", "largest_binomial_sum"}
# Kernels that take integer pairs and call no reader.
KERNELS = {"window_indices", "_window_sums", "_scaled_pmf", "_bound_sums",
           "_poisson_binomial_weights", "_upper_tail_weights"}
READERS = {"rational_pair", "parse_rational"}


def scan(source: str) -> tuple[list[tuple[int, str, str]], set[str]]:
    """(findings, top-level names) of one module: each finding is (line,
    enclosing top-level name or "", what breaks the rule)."""
    tree = ast.parse(source)
    annotations = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg):
                if arg is not None and arg.annotation is not None:
                    annotations.update(map(id, ast.walk(arg.annotation)))
            if node.returns is not None:
                annotations.update(map(id, ast.walk(node.returns)))
        elif isinstance(node, ast.AnnAssign):
            annotations.update(map(id, ast.walk(node.annotation)))

    findings = []
    names = set()
    for top in tree.body:
        owner = getattr(top, "name", "")
        names.add(owner)
        floats_ok = owner in MONTE_CARLO
        for node in ast.walk(top):
            what = None
            if isinstance(node, ast.Assert):
                what = "assert"
            elif floats_ok:
                pass
            elif isinstance(node, ast.Constant) and isinstance(node.value, float):
                what = f"float literal {node.value!r}"
            elif isinstance(node, ast.Name) and node.id == "float" and id(node) not in annotations:
                what = "float"
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "math" and node.attr not in EXACT_MATH):
                what = f"math.{node.attr}"
            elif isinstance(node, ast.ImportFrom) and node.module == "math":
                inexact = [a.name for a in node.names if a.name not in EXACT_MATH]
                what = "from math import " + ", ".join(inexact) if inexact else None
            if what is None and owner not in DIVISION and (
                isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
            ):
                what = "/"
            if what is not None:
                findings.append((node.lineno, owner, what))
    return findings, names


def test_source_follows_the_exactness_rule():
    findings, names = [], set()
    for path in sorted(SRC.glob("*.py")):
        found, defined = scan(path.read_text(encoding="utf-8"))
        findings += [(path.name, *f) for f in found]
        names |= defined
    assert findings == []
    # every allowlisted name still exists, so the allowlists cannot go stale
    assert DIVISION | INTEGER_PATH | KERNELS <= names


def test_integer_path_builds_no_fraction_and_divides_nothing():
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            if getattr(top, "name", None) in INTEGER_PATH:
                for node in ast.walk(top):
                    assert not (isinstance(node, ast.Name) and node.id == "Fraction"), top.name
                    assert not (isinstance(node, (ast.BinOp, ast.AugAssign))
                                and isinstance(node.op, ast.Div)), top.name


def test_kernels_call_no_reader():
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            if getattr(top, "name", None) in KERNELS:
                read = {node.id for node in ast.walk(top) if isinstance(node, ast.Name)} & READERS
                assert not read, (top.name, read)


def test_scan_finds_each_breach():
    source = '''
import math
from math import gcd, sqrt

def exact(x: float) -> float:
    assert x
    y = 0.5 + float(x) + math.sqrt(x) + math.gcd(2, 4) + math.inf
    return y / 2

def _sampler(x):
    assert x
    return x / 2

def monte_carlo_tail(x):
    assert x
    return math.sqrt(x / 2.0)
'''
    findings, _ = scan(source)
    assert sorted((line, owner, what) for line, owner, what in findings) == [
        (3, "", "from math import sqrt"),
        (6, "exact", "assert"),
        (7, "exact", "float"),
        (7, "exact", "float literal 0.5"),
        (7, "exact", "math.inf"),
        (7, "exact", "math.sqrt"),
        (8, "exact", "/"),
        (11, "_sampler", "assert"),
        (15, "monte_carlo_tail", "assert"),
    ]
