"""Differential tests: the integer-lattice kernel against the per-atom
Fraction references in util.py, on random rational laws (non-integer steps,
half-lattice offsets, wide sparse gaps, point masses, mixed denominators),
the sweep's symmetric tails P(|S| > t) = 2 P(S > t) against per-atom tails
of the convolved sum, its rows from packed prefix records against the same
with every sum convolved, the sumset Kleitman count against the Gray-code
enumeration, the bound table and the window sums of every m against the
bounds' defining sums, JSON
literals read straight into the integer form against a per-atom Fraction
reading, the
comparison queries, their integer rows and verdicts, and the lattice checks
against per-atom tails and residues, the CSV's decimal view against a
division in the ambient context, the decimal view, exact cell and
window index of an unreduced integer pair against its reduced Fraction's,
and the bound's domain as the sweep, bound_table and `symtail bound` read
it against Fraction comparisons."""

import csv
import decimal
import json
import math
from fractions import Fraction
from functools import reduce
from unittest.mock import patch

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from symtail import bounds, oracles
from symtail.bounds import bound_table, improved_bound
from symtail.cli import main
from symtail.distributions import (
    LatticeDistribution,
    abs_stochastically_geq,
    abs_tail,
    convolve,
    interval_mass,
    is_symmetric,
    is_unimodal_with_span,
    poisson_binomial,
    symmetric_three_point,
)
from symtail.oracles import (
    NORMS,
    KleitmanInstance,
    SupportCapExceeded,
    exact_sum_distribution,
    kleitman_count,
    sweep_checks,
)
from symtail.ordering import (
    ComparisonInstance,
    _lattice_classes,
    _on_three_points,
    half_mass_check,
    pruss_check,
)
from symtail.rational import decimal_str, format_rational, rational_pair

from util import (
    ref_abs_stochastically_geq,
    ref_abs_tail,
    ref_bound_sums,
    ref_convolve,
    ref_decimal_str,
    ref_interval_mass,
    ref_is_symmetric,
    ref_is_unimodal_with_span,
    ref_kleitman_count,
    ref_poisson_binomial,
    ref_symmetric_three_point,
)

offsets = st.builds(Fraction, st.integers(-12, 12), st.sampled_from([1, 2, 3, 4, 6]))
steps = st.builds(Fraction, st.integers(1, 6), st.sampled_from([1, 2, 3, 5]))
probabilities = st.builds(
    lambda num, den: Fraction(min(num, den), den), st.integers(0, 12), st.integers(1, 12)
)


def _normalized(points, raw_masses):
    total = sum(raw_masses)
    return tuple((x, m / total) for x, m in zip(points, raw_masses))


def _raw_masses(draw, size):
    # each mass over its own denominator, so the law's denominators are mixed
    return [
        Fraction(draw(st.integers(1, 9)), draw(st.integers(1, 7))) for _ in range(size)
    ]


@st.composite
def laws(draw, wide=True):
    """Atoms of a random law on offset + step*Z; size 1 gives a point mass.

    Equal masses (drawn half the time) make palindromic weight sequences
    common, so symmetry must be decided by the support as well.
    """
    offset, step = draw(offsets), draw(steps)
    size = draw(st.integers(1, 6))
    top = 10**6 if wide and draw(st.booleans()) else 12
    indices = sorted(draw(st.sets(st.integers(0, top), min_size=size, max_size=size)))
    masses = [Fraction(1)] * size if draw(st.booleans()) else _raw_masses(draw, size)
    return _normalized([offset + step * i for i in indices], masses)


@st.composite
def symmetric_laws(draw):
    """Atoms of a random symmetric law on step*Z or step*(Z + 1/2)."""
    step = draw(steps)
    shift = step / 2 if draw(st.booleans()) else Fraction(0)
    masses: dict[Fraction, Fraction] = {}
    for k in draw(st.sets(st.integers(0, 20), min_size=1, max_size=4)):
        x = step * k + shift
        m = Fraction(draw(st.integers(1, 9)), draw(st.integers(1, 5)))
        masses[x] = masses.get(x, Fraction(0)) + m
        masses[-x] = masses.get(-x, Fraction(0)) + m
    points = sorted(masses)
    return _normalized(points, [masses[x] for x in points])


@st.composite
def unimodal_candidates(draw):
    """Atoms on consecutive lattice points, often with rise-then-fall masses."""
    offset, step = draw(offsets), draw(steps)
    size = draw(st.integers(1, 7))
    masses = _raw_masses(draw, size)
    if draw(st.booleans()):
        peak = draw(st.integers(0, size))
        masses = sorted(masses[:peak]) + sorted(masses[peak:], reverse=True)
    if size > 2 and draw(st.booleans()):  # punch a gap
        hole = draw(st.integers(1, size - 2))
        return _normalized(
            [offset + step * i for i in range(size) if i != hole],
            [m for i, m in enumerate(masses) if i != hole],
        )
    return _normalized([offset + step * i for i in range(size)], masses)


@st.composite
def centred_laws(draw):
    """A support whose end points are symmetric about 0, with equal masses
    (symmetric exactly when the interior points are) or random ones."""
    step, last = draw(steps), draw(st.integers(2, 12))
    interior = draw(st.sets(st.integers(1, last - 1), max_size=last - 1))
    indices = sorted({0, last} | interior)
    size = len(indices)
    masses = [Fraction(1)] * size if draw(st.booleans()) else _raw_masses(draw, size)
    return _normalized([step * (2 * i - last) / 2 for i in indices], masses)


any_laws = st.one_of(laws(), symmetric_laws())


def law(atoms) -> LatticeDistribution:
    return LatticeDistribution(atoms)


def thresholds(atoms):
    """Support points, their negations and midpoints: every boundary case."""
    xs = sorted({x for x, _ in atoms} | {-x for x, _ in atoms})
    return st.sampled_from(xs + [(a + b) / 2 for a, b in zip(xs, xs[1:])] + [Fraction(0)])


def with_cuts(n):
    """A law's atoms and n of its thresholds."""
    return any_laws.flatmap(lambda atoms: st.tuples(st.just(atoms), *[thresholds(atoms)] * n))


# Fixed inputs for the cut placement: a point mass, and a law with an atom at 0.
POINT = ((Fraction(1, 2), Fraction(1)),)
LAZY = tuple((Fraction(x), Fraction(m)) for x, m in ((-1, "1/4"), (0, "1/2"), (1, "1/4")))

ZERO = ((Fraction(0), Fraction(1)),)
COIN = ((Fraction(-1), Fraction(1, 2)), (Fraction(1), Fraction(1, 2)))
THIRDS = ((Fraction(-1, 3), Fraction(1, 2)), (Fraction(1, 3), Fraction(1, 2)))
FIVE = tuple((Fraction(x), Fraction(1, 5)) for x in range(-2, 3))
EVEN = tuple((2 * x, m) for x, m in FIVE)
WIDE = tuple((Fraction(x), Fraction(m)) for x, m in ((-1000, "1/4"), (0, "1/2"), (1000, "1/4")))
SPIKE = tuple((Fraction(x), Fraction(m)) for x, m in ((-1, "1/256"), (0, "254/256"), (1, "1/256")))
HALVES = tuple((x / 2, m) for x, m in LAZY)


@settings(max_examples=300, deadline=None)
@given(any_laws, any_laws)
@example(POINT, ZERO)  # two point masses: multipliers 0, step 0
@example(POINT, COIN)  # a point mass on either side of a coin: its indices at multiplier 1
@example(COIN, POINT)
@example(LAZY, FIVE)  # equal steps
@example(THIRDS, HALVES)  # steps 2/3 and 1/2: the common step 1/6
def test_convolve(a1, a2):
    out = convolve(law(a1), law(a2))
    expected = ref_convolve(a1, a2)
    assert out.atoms == expected
    rebuilt = law(expected)
    assert out == rebuilt and hash(out) == hash(rebuilt)


@settings(max_examples=100, deadline=None)
@given(st.lists(probabilities, min_size=1, max_size=9))
def test_poisson_binomial(p):
    out = poisson_binomial(p)
    assert out.atoms == ref_poisson_binomial(p)
    assert out == law(out.atoms)


@settings(max_examples=100, deadline=None)
@given(st.lists(probabilities, min_size=1, max_size=7), steps)
def test_symmetric_three_point(p, h):
    out = symmetric_three_point(p, h)
    assert out.atoms == ref_symmetric_three_point(p, h)
    assert out == law(out.atoms)


@settings(max_examples=300, deadline=None)
@given(with_cuts(1))
@example((POINT, Fraction(1, 2)))  # a cut on the only atom
@example((LAZY, Fraction(0)))  # the weak tail at 0 counts the atom at 0 once
@example((LAZY, Fraction(1)))  # cuts on atoms
@example((LAZY, Fraction(1, 2)))  # cuts between atoms
def test_abs_tail(case):
    atoms, t = case
    t = abs(t)
    for strict in (True, False):
        assert abs_tail(law(atoms), t, strict=strict) == ref_abs_tail(atoms, t, strict)


@st.composite
def sweep_cases(draw):
    """Up to three symmetric laws (point masses at 0 among them) and up to
    six thresholds of their sum."""
    terms = draw(st.lists(st.one_of(symmetric_laws(), st.just(ZERO)), max_size=3))
    total = reduce(ref_convolve, terms, ZERO)
    return terms, draw(st.lists(thresholds(total).map(abs), min_size=1, max_size=6))


@settings(max_examples=200, deadline=None)
@given(sweep_cases())
@example(([LAZY, THIRDS], [Fraction(k, 3) for k in range(4)]))  # X on another step than P
@example(([LAZY, ZERO], [Fraction(0), Fraction(1, 2), Fraction(1)]))  # X a point mass
@example(([], [Fraction(0)]))  # no terms
@example(([COIN, COIN], [Fraction(k, 2) for k in range(4)]))  # cuts inside S: one slot each
@example(([COIN, COIN], [Fraction(k, 2) for k in range(6)]))  # cuts past S's top: tail 0
@example(([WIDE, COIN], [0, 1, 999, 1000, 1001]))  # L = 1002 > 2 * 3 * 2: S is built
@example(([ZERO, ZERO], [Fraction(0), Fraction(1, 2), Fraction(1)]))  # two point masses: L = 1
@example(([FIVE, COIN], [Fraction(k, 2) for k in range(8)]))  # X on a coarser step than P
@example(([EVEN, LAZY], [Fraction(k, 2) for k in range(12)]))  # P on a coarser step than X
@example(([SPIKE, ZERO], [Fraction(k, 2) for k in range(4)]))  # den 256: one byte is too narrow
@example(([FIVE, LAZY, ZERO], [Fraction(0)]))  # FIVE + LAZY read from FIVE, then built
def test_sweep_tails(case):
    # The sweep reads P(|S| > t) as 2 P(S > t), from S or from the sum of all
    # terms but one; h is past every |x|, so every drawn t (support points,
    # midpoints, 0) is in the grid of the whole instance.  One sweep runs a
    # stream of the instance's prefixes, shortest first, the instance with
    # its terms reversed, then the prefixes longest first.  Equal drawn laws
    # are one term object, as in a family, so sums are shared across
    # instances: one may be read from its prefix first and built later.
    terms, ts = case
    objects = {}
    laws_ = [objects.setdefault(atoms, law(atoms)) for atoms in terms]
    prefixes = [laws_[:k] for k in range(len(laws_) + 1)]
    stream = prefixes + [laws_[::-1]] + prefixes[::-1]
    full = reduce(ref_convolve, terms, ZERO)
    h = max(abs(x) for x, _ in full) + 1
    checks = list(sweep_checks(stream, h, ts))
    assert [index for index, *_ in checks] == list(range(len(stream)))
    for (_, grid, tails, den, _), instance in zip(checks, stream):
        total = reduce(ref_convolve, [law_.atoms for law_ in instance], ZERO)
        assert grid == sorted(t for t in ts if t < len(instance) * h)
        assert [Fraction(tail, den) for tail in tails] == [
            ref_abs_tail(total, t, strict=True) for t in grid
        ]


def _symmetric(*pairs) -> LatticeDistribution:
    """The symmetric law with mass m at each of -x and x for each (x, m), and
    the rest at 0."""
    masses = {Fraction(x): Fraction(m) for x, m in pairs}
    atoms = {**{-x: m for x, m in masses.items()}, **masses}
    atoms[Fraction(0)] = 1 - 2 * sum(masses.values(), Fraction(0))
    return LatticeDistribution(sorted((x, m) for x, m in atoms.items() if m))


# Terms for the sweep's prefix records: a point mass, steps 1, 2, 1/2 and
# 1/3, a +-10^12 gap, and dens 2^7 and 3^5, so that a chain of up to ten
# terms crosses the 1-, 2-, 4- and 8-byte slots and goes past 64 bits.
RECORD_LAWS = (
    _symmetric(),  # point mass at 0
    _symmetric((1, "1/4")),  # step 1, den 4
    _symmetric((1, "1/2")),  # a coin: step 2, den 2
    _symmetric((2, "1/8"), (4, "1/8")),  # step 2, den 8
    _symmetric(("1/2", "1/243")),  # step 1/2, den 3^5
    _symmetric(("1/3", "1/3")),  # step 1/3, den 3
    _symmetric((10**12, "1/4")),  # the wide gap
    _symmetric((1, "1/128")),  # step 1, den 2^7
)
RECORD_GRID = [Fraction(t) for t in (
    0, "1/6", "1/3", "1/2", 1, "3/2", 2, "7/2", 6, 10**12 - 1, 10**12, 10**12 + 1, 3 * 10**12)]


@st.composite
def record_streams(draw):
    """A stream of instances over RECORD_LAWS: prefixes of one drawn list
    of up to ten terms, so prefixes are shared, and up to two more lists."""
    pick = st.sampled_from(RECORD_LAWS)
    base = draw(st.lists(pick, max_size=10))
    ends = draw(st.lists(st.integers(0, len(base)), min_size=1, max_size=4))
    return [base[:k] for k in ends] + draw(st.lists(st.lists(pick, max_size=4), max_size=2))


D7, GAP, COIN_LAW = RECORD_LAWS[7], RECORD_LAWS[6], RECORD_LAWS[2]


@settings(max_examples=60, deadline=None)
@given(record_streams(), st.sampled_from([Fraction(1, 3), Fraction(1), Fraction(10**13)]))
@example([[D7] * k for k in range(11)], Fraction(1))  # dens 2^7 .. 2^70 in one chain
@example([[D7] * k + [COIN_LAW] * j for k, j in ((1, 1), (2, 2), (4, 4), (9, 1))],
         Fraction(1))  # dens 2^8, 2^16, 2^32 and 2^64, each one bit past a slot
@example([[_symmetric((1, "1/256"))]], Fraction(1))  # a one-byte slot would carry into a read
@example([[COIN_LAW, GAP, GAP], [GAP, COIN_LAW]], Fraction(1))  # a sparse prefix, convolved
@example([[RECORD_LAWS[0]] * 3, [RECORD_LAWS[4]] * 9, []], Fraction(1, 3))  # den 3^45, no terms
def test_sweep_rows_from_prefix_records(stream, h):
    # Every row equals the one built from the per-atom reference sum, and
    # the rows are the same when no slot format is available (a big-endian
    # host), so that every prefix and every instance is convolved.
    rows = list(sweep_checks(stream, h, RECORD_GRID))
    assert [index for index, *_ in rows] == list(range(len(stream)))
    for (_, grid, tails, den, bounds), instance in zip(rows, stream):
        total = reduce(ref_convolve, [term.atoms for term in instance], ZERO)
        p = [abs_tail(term, h, strict=False) for term in instance]
        expected = [t for t in RECORD_GRID if t < len(instance) * h]
        assert (grid, den) == (expected, math.prod(term.den for term in instance))
        assert [Fraction(tail, den) for tail in tails] == [ref_abs_tail(total, t) for t in grid]
        assert [Fraction(*b) for b in bounds] == [improved_bound(p, h, t) for t in grid]
    with patch.object(oracles, "_SLOT_FORMATS", {}):
        assert list(sweep_checks(stream, h, RECORD_GRID)) == rows


@settings(max_examples=300, deadline=None)
@given(with_cuts(2))
@example((POINT, Fraction(1, 2), Fraction(1, 2)))  # ]q, q[ on an atom holds nothing
@example((LAZY, Fraction(-1), Fraction(1, 2)))  # a cut on an atom, a cut between atoms
@example((LAZY, Fraction(-1, 2), Fraction(0)))
def test_interval_mass(case):
    atoms, *cuts = case
    lo, hi = sorted(cuts)
    assert law(atoms).mass(lo) == ref_interval_mass(atoms, lo, lo)
    for lo_closed in (True, False):
        for hi_closed in (True, False):
            assert interval_mass(law(atoms), lo, hi, lo_closed, hi_closed) == (
                ref_interval_mass(atoms, lo, hi, lo_closed, hi_closed)
            )


@settings(max_examples=300, deadline=None)
@given(st.one_of(any_laws, centred_laws()))
def test_is_symmetric(atoms):
    assert is_symmetric(law(atoms)) == ref_is_symmetric(atoms)


@settings(max_examples=300, deadline=None)
@given(st.one_of(unimodal_candidates(), laws(wide=False)), st.data())
def test_is_unimodal_with_span(atoms, data):
    d = law(atoms)
    base = d.span or Fraction(1)
    h = data.draw(
        st.sampled_from([base, 2 * base, base / 2, base * 3 / 2, Fraction(0), Fraction(1, 7)])
    )
    assert is_unimodal_with_span(d, h) == ref_is_unimodal_with_span(atoms, h)


@settings(max_examples=300, deadline=None)
@given(any_laws, any_laws, st.booleans())
def test_abs_stochastically_geq(u, v, same):
    v = u if same else v
    assert abs_stochastically_geq(law(u), law(v)) == ref_abs_stochastically_geq(u, v)
    w = ref_convolve(u, v)
    assert abs_stochastically_geq(law(w), law(v)) == ref_abs_stochastically_geq(w, v)


@settings(max_examples=200, deadline=None)
@given(st.lists(laws(wide=False), min_size=1, max_size=4), st.integers(1, 80))
def test_exact_sum_support_cap(terms, cap):
    total = ((Fraction(0), Fraction(1)),)
    over = False
    for atoms in terms:
        if len(total) * len(atoms) > cap:
            over = True
            break
        total = ref_convolve(total, atoms)
    laws_ = [law(atoms) for atoms in terms]
    with patch.object(oracles, "MAX_SUPPORT_PRODUCT", cap):
        if over:
            with pytest.raises(SupportCapExceeded):
                exact_sum_distribution(laws_)
        else:
            assert exact_sum_distribution(laws_).atoms == total


@st.composite
def kleitman_instances(draw):
    """Vectors with one coordinate of size >= 3/2 (so radii up to 2/3 meet
    the diameter hypothesis in every norm), often repeated from a small pool
    so that subset sums coincide; radii in thirds and fifths; each centre is
    a subset sum moved along one axis by exactly r, by -r or not at all."""
    d = draw(st.integers(1, 3))
    norm = draw(st.sampled_from([x for x in NORMS if x != "absolute" or d == 1]))
    coords = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3]))
    long = st.builds(Fraction, st.sampled_from([-4, -3, 3, 4]), st.sampled_from([1, 2]))

    @st.composite
    def vectors(draw):
        v = draw(st.lists(coords, min_size=d, max_size=d))
        v[draw(st.integers(0, d - 1))] = draw(long)
        return tuple(v)

    n = draw(st.integers(1, 12))
    pool = draw(st.lists(vectors(), min_size=1, max_size=n))
    vecs = tuple(draw(st.sampled_from(pool)) for _ in range(n))
    radii = st.sampled_from([Fraction(r) for r in ("1/3", "2/3", "1/5", "2/5", "3/5")])
    targets = []
    for _ in range(draw(st.integers(1, 3))):
        r = draw(radii)
        picks = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        center = [sum((v[j] for v, b in zip(vecs, picks) if b), Fraction(0)) for j in range(d)]
        center[draw(st.integers(0, d - 1))] += draw(st.sampled_from([r, -r, Fraction(0)]))
        targets.append((tuple(center), r))
    return KleitmanInstance(d, vecs, norm, tuple(targets))


@settings(max_examples=200, deadline=None)
@given(kleitman_instances())
# one instance on each path of kleitman_count: a dense box (105 points for
# 2^8 subsets) and a sparse one (1 680 points for 2^3)
@example(KleitmanInstance(2, ((Fraction(3, 2), Fraction(0)),) * 4 + ((Fraction(1), Fraction(3, 2)),) * 4,
                          "sup", (((Fraction(5, 2), Fraction(3, 2)), Fraction(1, 3)),
                                  ((Fraction(6), Fraction(1)), Fraction(2, 3)))))
@example(KleitmanInstance(3, ((Fraction(3), Fraction(1), Fraction(-2)),
                              (Fraction(-1), Fraction(4), Fraction(1, 3)),
                              (Fraction(2), Fraction(-1, 2), Fraction(4))),
                          "euclidean", (((Fraction(2), Fraction(5), Fraction(-5, 3)), Fraction(1, 3)),)))
def test_kleitman_count(inst):
    assert kleitman_count(inst) == ref_kleitman_count(inst)


def ref_bound_row(p, h, t):
    """(m, nagaev, improved, kanter_sup, per-k terms) at t: ref_bound_sums
    at m = floor(t/h) + 1 (k > t/h is k >= m), and each k's B_p({k}) and
    weight 1 - 2^{-k} F_k(m), F_k(m) the sum of the m largest C(k, i)."""
    m = math.floor(t / h) + 1
    pmf = dict(ref_poisson_binomial(p))
    terms = []
    for k in range(len(p) + 1):
        f = sum(sorted((math.comb(k, i) for i in range(k + 1)), reverse=True)[:m])
        terms.append((k, pmf.get(k, Fraction(0)), 1 - Fraction(f, 2**k)))
    return (m, *ref_bound_sums(p, m), tuple(terms))


# p_i over denominators up to 97, 0 and 1 included.
window_probabilities = st.sampled_from([1, 2, 3, 7, 16, 97]).flatmap(
    lambda den: st.builds(Fraction, st.integers(0, den), st.just(den)))


# Every window index m = 1..n+2, past n included, where both bounds are 0.
@settings(max_examples=60, deadline=None)
@given(st.lists(window_probabilities, min_size=1, max_size=40))
@example([Fraction(0)] * 3)
@example([Fraction(1)] * 4)
@example([Fraction(1, 97), Fraction(96, 97), Fraction(15, 16), Fraction(2, 7), Fraction(1)])
def test_window_sums(p):
    n = len(p)
    ms = range(1, n + 3)
    sums = bounds._window_sums(tuple((v.numerator, v.denominator) for v in p), ms)
    assert list(sums) == list(ms)
    for m, (*nums, common) in sums.items():
        assert common == math.prod(v.denominator for v in p) << n
        assert tuple(Fraction(num, common) for num in nums) == ref_bound_sums(p, m), m


@st.composite
def bound_grids(draw):
    """p, h and a t-grid in [0, n*h) drawn from a small pool, so values of t
    repeat and several t share one window index."""
    p = draw(st.lists(probabilities, min_size=1, max_size=40))
    h = draw(steps)
    den = draw(st.sampled_from([1, 2, 3, 4, 6]))
    pool = [len(p) * h * Fraction(k, len(p) * den) for k in range(len(p) * den)]
    return p, h, draw(st.lists(st.sampled_from(pool), max_size=12))


# Window indices m = 1, n-1 and n, with p holding 0 and 1: the column's
# first and last steps, for n odd and even, so k-m takes both parities.
@settings(max_examples=200, deadline=None)
@given(bound_grids())
@example(([Fraction(0), Fraction(1)], Fraction(1), [Fraction(0), Fraction(3, 2), Fraction(1)]))
@example(([Fraction(v) for v in ("0", "1", "1/2", "1/3", "2/5")], Fraction(1),
          [Fraction(v) for v in ("0", "3", "4", "7/2", "1/2", "9/2")]))
@example(([Fraction(v) for v in ("1", "0", "3/7", "1", "5/6", "0")], Fraction(3, 2),
          [Fraction(v) for v in ("0", "1", "7", "15/2", "8", "35/4")]))
def test_bound_table(case):
    p, h, t_grid = case
    reports = bound_table(p, h, t_grid)
    assert len(reports) == len(t_grid)
    for t, report in zip(t_grid, reports):
        m, nagaev, improved, kanter, terms = ref_bound_row(p, h, t)
        assert (report.t, report.h, report.n, report.m, report.p) == (t, h, len(p), m, tuple(p))
        assert (report.nagaev, report.improved, report.kanter_sup) == (nagaev, improved, kanter)
        assert report.per_k_terms == terms


def test_bound_table_empty_grid():
    assert bound_table(["1/2", "1/3"], "1/2", []) == []


def test_bound_table_domain_checked_before_pmf(monkeypatch):
    def no_work(p):
        raise AssertionError("the pmf was built before the grid was checked")

    monkeypatch.setattr(bounds, "_scaled_pmf", no_work)
    for bad in ("-1/3", "1", "3/2"):  # below 0, exactly n*h, above n*h
        with pytest.raises(ValueError, match="outside the bound domain"):
            bound_table(["1/2", "1/3"], "1/2", ["0", "1/4", bad, "1/2"])


@st.composite
def domain_cases(draw):
    """n, a positive h and a t-grid, h and each t an unreduced integer pair.
    The grid mixes multiples of h/2 from -n*h to 2*n*h, so it often holds
    negative t, t = 0 and t = n*h, with t from anywhere around [0, n*h)."""
    n = draw(st.integers(1, 4))
    h = draw(st.fractions(Fraction(1, 10), 5, max_denominator=10))
    halves = st.integers(-2 * n, 4 * n).map(lambda k: h * Fraction(k, 2))
    anywhere = st.fractions(-n * h - 1, 2 * n * h + 1, max_denominator=12)
    ts = draw(st.lists(st.one_of(halves, anywhere), max_size=10))
    scales = st.integers(1, 4)
    pairs = [(q.numerator * k, q.denominator * k) for q, k in
             zip([h, *ts], draw(st.lists(scales, min_size=len(ts) + 1, max_size=len(ts) + 1)))]
    return n, pairs[0], pairs[1:]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(domain_cases())
@example((2, (2, 2), [(-1, 4), (0, 3), (4, 2), (6, 4), (2, 1), (9, 2)]))
def test_domain_is_m_from_1_to_n(tmp_path, case):
    # The bound's domain 0 <= t < n*h, read with Fractions, is what the
    # sweep's grid, bound_table's check and `symtail bound`'s note all use.
    n, h_pair, t_pairs = case
    h, ts = Fraction(*h_pair), [Fraction(*t) for t in t_pairs]
    inside = [0 <= t < n * h for t in ts]
    [(_, grid, *_)] = sweep_checks([[law(LAZY)] * n], h_pair, t_pairs)
    assert grid == sorted(t for t, ok in zip(ts, inside) if ok)
    p = ["1/3"] * n
    if all(inside):
        assert [r.m for r in bound_table(p, h_pair, t_pairs)] == [t // h + 1 for t in ts]
    else:
        with pytest.raises(ValueError, match="outside the bound domain"):
            bound_table(p, h_pair, t_pairs)
    wire = [f"{num}/{den}" for num, den in [h_pair, *t_pairs]]
    source, out = tmp_path / "in.json", tmp_path / "out.csv"
    source.write_text(json.dumps({"p": p, "h": wire[0], "t_grid": wire[1:]}))
    assert main(["bound", "--input", str(source), "--output", str(out)]) == 0
    with open(out, newline="") as fh:
        notes = [bool(row["note"]) for row in csv.DictReader(fh)]
    assert notes == [not ok for ok in inside]


# --- JSON ingest -------------------------------------------------------------


def _literal(q: Fraction):
    """q as the wire format writes it: "num/den" not reduced, and for an
    integer also a JSON int or "num"."""
    forms = st.integers(1, 3).map(lambda c: f"{q.numerator * c}/{q.denominator * c}")
    if q.denominator == 1:
        forms = st.one_of(forms, st.just(q.numerator), st.just(str(q.numerator)))
    return forms


@st.composite
def atom_literals(draw):
    """A literal's atom list: x from a small pool, so duplicates are common,
    and masses from integer units, signed half the time (zeros included),
    over their own sum when that is positive and drawn, else over a random
    denominator."""
    size = draw(st.integers(1, 7))
    xs = [
        Fraction(draw(st.integers(-6, 6)), draw(st.sampled_from([1, 2, 4]))) for _ in range(size)
    ]
    low = -2 if draw(st.booleans()) else 0
    units = [draw(st.integers(low, 6)) for _ in range(size)]
    total = sum(units)
    den = total if total > 0 and draw(st.booleans()) else draw(st.integers(1, 9))
    return [
        {"x": draw(_literal(x)), "mass": draw(_literal(Fraction(u, den)))}
        for x, u in zip(xs, units)
    ]


def ref_from_literal(atoms) -> tuple:
    """A literal's sorted atoms, read per atom in Fractions and independent
    of symtail's constructors: masses merged per x (atoms may repeat an x
    literal), merged zeros pruned, and the rest checked, in ascending x, to
    be positive and then to sum to 1."""
    masses: dict[Fraction, Fraction] = {}
    for atom in atoms:
        x = Fraction(atom["x"])
        masses[x] = masses.get(x, Fraction(0)) + Fraction(atom["mass"])
    pairs = tuple(sorted((x, m) for x, m in masses.items() if m))
    if not pairs:
        raise ValueError("distribution needs at least one atom")
    for x, m in pairs:
        if m < 0:
            raise ValueError(f"mass at {x} must be positive, got {m}")
    total = sum(m for _, m in pairs)
    if total != 1:
        raise ValueError(f"masses must sum to 1, got {total}")
    return pairs


@settings(max_examples=200, deadline=None)
@given(atom_literals())
@example(  # "1" and "2/2" merge to a zero mass, which is then pruned
    [{"x": "1", "mass": "1/2"}, {"x": "2/2", "mass": "-1/2"}, {"x": 0, "mass": 1}]
)
def test_from_json_dict(atoms):
    try:
        expected = ref_from_literal(atoms)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            LatticeDistribution.from_json_dict({"atoms": atoms})
        assert str(raised.value) == str(exc)
        return
    assert LatticeDistribution.from_json_dict({"atoms": atoms}).atoms == expected


@pytest.mark.parametrize(
    "literal", [True, False, 0.5, 1.0, "1e3", "1/0", "1" * 5000, "1/" + "7" * 5000]
)
@pytest.mark.parametrize("field", ["x", "mass"])
def test_from_json_dict_rejects_malformed_literal(field, literal):
    atom = {"x": "0", "mass": "1"} | {field: literal}
    with pytest.raises(ValueError):
        LatticeDistribution.from_json_dict({"atoms": [atom]})


# --- The comparison queries --------------------------------------------------

POINT_MASS = ((Fraction(0), Fraction(1)),)


def ref_sum(terms) -> tuple:
    return reduce(ref_convolve, terms, POINT_MASS)


def ref_half_mass(atoms, t) -> Fraction:
    strict = ref_abs_tail(atoms, t, strict=True)
    return strict + (ref_abs_tail(atoms, t, strict=False) - strict) / 2


@st.composite
def dominated_pairs(draw, ys):
    """(X, Y) with |X| >= |Y| stochastically: X a random symmetric law or
    point mass when it dominates, else Y scaled by 1, 3/2 or 2, so the two
    steps often differ."""
    y = draw(ys)
    x = draw(st.one_of(symmetric_laws(), st.just(POINT_MASS)))
    if not ref_abs_stochastically_geq(x, y):
        c = draw(st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(2)]))
        x = tuple((c * v, m) for v, m in y)
    return x, y


def instance(pairs) -> ComparisonInstance:
    xs, ys = zip(*pairs)
    return ComparisonInstance(tuple(map(law, xs)), tuple(map(law, ys)))


def query_points(atoms):
    """thresholds(atoms) and two points past the largest |x|."""
    top = max(abs(x) for x, _ in atoms)
    return st.one_of(thresholds(atoms), st.sampled_from([top + Fraction(1, 3), 2 * top + 1]))


@settings(max_examples=120, deadline=None)
@given(st.lists(dominated_pairs(st.one_of(symmetric_laws(), st.just(POINT_MASS))),
                min_size=1, max_size=3), st.data())
def test_pruss_check(pairs, data):
    s = ref_sum(x for x, _ in pairs)
    t = ref_sum(y for _, y in pairs)
    grid = data.draw(st.lists(st.one_of(query_points(s), query_points(t)), max_size=8))
    inst = instance(pairs)
    report = pruss_check(inst, grid)
    rows = [(u, ref_abs_tail(s, u, strict=False), ref_abs_tail(t, u, strict=False))
            for u in sorted(grid) if u > 0]
    # the integer rows: the sides as pairs, the verdict from the Fractions
    assert [(u, Fraction(*lhs), Fraction(*rhs), ok) for u, lhs, rhs, ok in report.rows] \
        == [(u, s_tail, t_tail / 2, s_tail >= t_tail / 2) for u, s_tail, t_tail in rows]
    assert report.ok == all(s_tail >= t_tail / 2 for _, s_tail, t_tail in rows)
    ratios = [s_tail / t_tail for _, s_tail, t_tail in rows if t_tail]
    assert report.min_ratio == (min(ratios) if ratios else None)


@st.composite
def three_point_laws(draw, h):
    p = draw(probabilities)
    return tuple((x, m) for x, m in ((-h, p / 2), (Fraction(0), 1 - p), (h, p / 2)) if m)


@settings(max_examples=120, deadline=None)
@given(steps, st.data())
def test_half_mass_check(h, data):
    pairs = data.draw(st.lists(dominated_pairs(three_point_laws(h)), min_size=1, max_size=3))
    m_max = data.draw(st.integers(0, 6))
    inst = instance(pairs)
    report = half_mass_check(inst, h, m_max)
    s = ref_sum(x for x, _ in pairs)
    t = ref_sum(y for _, y in pairs)
    rows = [(m, ref_half_mass(s, m * h), ref_half_mass(t, m * h)) for m in range(1, m_max + 1)]
    assert [(m, Fraction(*lhs), Fraction(*rhs), ok) for m, lhs, rhs, ok in report.rows] \
        == [(m, lhs, rhs, lhs >= rhs) for m, lhs, rhs in rows]
    assert report.ok == all(lhs >= rhs for _, lhs, rhs in rows)


def ref_lattice_classes(atoms, h) -> set[str]:
    residues = {(x / h) % 1 for x, _ in atoms}
    classes = set()
    if residues <= {Fraction(0)}:
        classes.add("integer")
    if residues <= {Fraction(1, 2)}:
        classes.add("half")
    return classes


@settings(max_examples=200, deadline=None)
@given(st.one_of(any_laws, unimodal_candidates(), st.just(POINT_MASS)), st.data())
def test_lattice_classes(atoms, data):
    d = law(atoms)
    base = d.span or Fraction(1)
    # h = 2 * span gives a step of h/2
    h = data.draw(st.one_of(
        st.sampled_from([base, 2 * base, base / 2, 2 * abs(d.offset) or base]), steps
    ))
    assert _lattice_classes(d, h) == ref_lattice_classes(atoms, h)


@st.composite
def symmetric_unimodal_laws(draw):
    """Atoms of a symmetric law unimodal with span h: weights rising to a
    middle peak over last + 1 consecutive points of h*Z - h*last/2, or a
    point mass at 0."""
    h, last = draw(steps), draw(st.integers(0, 8))
    size = last // 2 + 1
    rise = sorted(draw(st.lists(st.integers(1, 9).map(Fraction), min_size=size, max_size=size)))
    weights = rise + rise[::-1] if last % 2 else rise + rise[-2::-1]
    return h, _normalized([h * i - h * last / 2 for i in range(last + 1)], weights)


@settings(max_examples=200, deadline=None)
@given(symmetric_unimodal_laws())
def test_symmetric_unimodal_laws_have_a_lattice_class(h_atoms):
    # why wintner_check needs no lattice-class clause: symmetry and span-h
    # unimodality put a law on h*Z or h*(Z + 1/2)
    h, atoms = h_atoms
    d = law(atoms)
    assert is_symmetric(d) and is_unimodal_with_span(d, h)
    assert _lattice_classes(d, h)


@settings(max_examples=100, deadline=None)
@given(steps, st.data())
def test_three_point_support(h, data):
    pool = [-h, -h / 2, Fraction(0), h / 2, h, 2 * h]
    points = sorted(data.draw(st.sets(st.sampled_from(pool), min_size=1, max_size=4)))
    atoms = _normalized(points, _raw_masses(data.draw, len(points)))
    assert _on_three_points(law(atoms), h) == ({x for x, _ in atoms} <= {-h, Fraction(0), h})


# --- The decimal view --------------------------------------------------------

BIG = 10**60
signs = st.sampled_from([1, -1])
scales = st.integers(0, 40).map(lambda e: 10**e)


@st.composite
def ties(draw):
    """Exactly 13 significant digits ending in 5: a tie between two
    12-digit neighbours, either parity, scaled by a power of ten."""
    digits = draw(st.integers(10**11, 10**12 - 1)) * 10 + 5
    return Fraction(draw(signs) * digits * draw(scales), draw(scales))


@st.composite
def carries(draw):
    """At or above the midpoint below 10^k, so rounding carries to 10^k."""
    extra = draw(st.integers(0, 30))
    below = draw(st.integers(1, 5 * 10**extra))
    return Fraction(draw(signs) * (10 ** (12 + extra) - below), draw(scales))


rationals = st.one_of(
    st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG)),
    st.integers(-BIG, BIG).map(Fraction),
    st.just(Fraction(0)),
    ties(),
    carries(),
)


@settings(max_examples=500, deadline=None)
@given(rationals)
def test_decimal_str(q):
    assert decimal_str((q.numerator, q.denominator)) == ref_decimal_str(q)


def test_decimal_str_ignores_caller_context():
    values = [Fraction(2, 3), Fraction(-2, 3), Fraction(1, 3 * 10**10), Fraction(10**13 - 1),
              Fraction(1, 7), Fraction(0), Fraction(1, 4), Fraction(12345678901235, 10)]
    expected = [ref_decimal_str(q) for q in values]
    assert expected[:3] == ["0.666666666667", "-0.666666666667", "3.33333333333E-11"]
    with decimal.localcontext() as ctx:
        ctx.rounding = decimal.ROUND_DOWN
        ctx.traps[decimal.Inexact] = True
        ctx.capitals = 0
        ctx.prec = 3
        assert [decimal_str((q.numerator, q.denominator)) for q in values] == expected


@settings(max_examples=300, deadline=None)
@given(rationals, st.integers(1, BIG))
def test_format_rational_pair(q, k):
    # an unreduced integer pair renders as its reduced Fraction does
    assert format_rational((q.numerator * k, q.denominator * k)) == format_rational(q)


positive = st.builds(Fraction, st.integers(1, 10**6), st.integers(1, 10**6))


@settings(max_examples=500, deadline=None)
@given(rationals, st.integers(1, 10**20), positive, st.integers(1, 10**20))
def test_unreduced_pair_reads_as_its_fraction(q, k, h, j):
    # an unreduced pair (k*num, k*den), of either sign, passes through
    # rational_pair as it is and gives its reduced pair's decimal view,
    # exact cell and window index, against an unreduced h too
    pair, reduced = (q.numerator * k, q.denominator * k), (q.numerator, q.denominator)
    assert rational_pair(pair) is pair
    assert decimal_str(pair) == ref_decimal_str(q)
    assert format_rational(pair) == format_rational(q)
    h_pair, h_reduced = (h.numerator * j, h.denominator * j), (h.numerator, h.denominator)
    assert (bounds.window_indices([pair, reduced], h_pair)
            == bounds.window_indices([reduced, pair], h_reduced) == [math.floor(q / h) + 1] * 2)


@pytest.mark.parametrize("value", [(True, 1), (1, False), (1, 0), (1, -2), (0, -1), [1, 2],
                                   (1, 2, 3), (1,), (), (1.0, 2), ("1", "2")])
def test_rational_pair_rejects_what_is_not_an_integer_pair(value):
    with pytest.raises(ValueError, match="not a rational"):
        rational_pair(value)


class WireString(str):
    pass


@settings(max_examples=200, deadline=None)
@given(st.integers(-BIG, BIG), st.integers(1, BIG))
def test_rational_pair(num, den):
    # a wire string's pair is as written, a str subclass's too; a Fraction's
    # is reduced; a bool is not a rational
    text = f"{num}/{den}"
    assert rational_pair(text) == rational_pair(WireString(text)) == (num, den)
    assert rational_pair(Fraction(num, den)) == (Fraction(num, den).numerator,
                                                 Fraction(num, den).denominator)
    assert rational_pair(num) == (num, 1)
    with pytest.raises(ValueError, match="not a rational"):
        rational_pair(bool(num % 2))
