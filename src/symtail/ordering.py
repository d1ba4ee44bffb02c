"""Comparison checks for sums of independent symmetric random variables.

Given termwise ordering |X_i| >= |Y_i| in the stochastic sense, three
results relate the sums S = sum X_i and T = sum Y_i:

  * pruss_check       P(|S| >= t) >= (1/2) P(|T| >= t) for t > 0, and the
                      factor 1/2 cannot be improved;
  * half_mass_check   when every Y_i lives on {-h, 0, h}, the half-mass
                      functional P(|.| > mh) + (1/2) P(|.| = mh) is ordered
                      at every positive lattice multiple m*h;
  * birnbaum_check    when all terms are unimodal with a common span h and
                      each pair (X_i, Y_i) shares a lattice (both on h*Z or
                      both on h*(Z + 1/2)), |S| dominates |T| outright.

All checks are exact; hypothesis violations are reported separately from
conclusion failures, because the known counterexample to the lattice
condition is itself a hypothesis-violation demonstration.

The checks read each law's integer form (offset, step, indices, weights)
and build no atom.  Every term is symmetric, so both sums are: a tail
P(|S| >= t) is 2 P(S >= t), and one walk down each sum answers a whole
grid.  The lattice-class hypothesis takes O(1) integer work per law, and
the {-h, 0, h} hypothesis one walk over at most the law's atoms.

pruss_check and half_mass_check are the one producer of their rows.  A row
is (param, lhs, rhs, ok): both sides as (numerator, denominator) pairs over
the sums' denominators, and ok from one integer cross-multiplication.  A
report's ok is the conjunction of its rows' verdicts, and `symtail compare`
writes its cells and statuses straight from the rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .distributions import (
    LatticeDistribution,
    _upper_tail_weights,
    abs_stochastically_geq,
    half_mass,  # re-exported: the functional that half_mass_check orders
    is_symmetric,
    is_unimodal_with_span,
)
from .oracles import exact_sum_distribution
from .rational import parse_rational


class HypothesisViolation(ValueError):
    """A comparison was requested outside its theorem's hypotheses."""


@dataclass(frozen=True)
class ComparisonInstance:
    """Paired term lists (X_i), (Y_i); all symmetric, with |X_i| >= |Y_i|.

    Construction raises ValueError for unpaired or empty lists and
    HypothesisViolation for a non-symmetric term or an undominated pair.
    The two sum laws are built on first use, once per instance.
    """

    xs: tuple[LatticeDistribution, ...]
    ys: tuple[LatticeDistribution, ...]

    def __post_init__(self) -> None:
        if len(self.xs) != len(self.ys) or not self.xs:
            raise ValueError("need equally many X and Y terms, at least one pair")
        for i, (x, y) in enumerate(zip(self.xs, self.ys), 1):
            if not is_symmetric(x):
                raise HypothesisViolation(f"X_{i} is not symmetric")
            if not is_symmetric(y):
                raise HypothesisViolation(f"Y_{i} is not symmetric")
            if not abs_stochastically_geq(x, y):
                raise HypothesisViolation(f"|X_{i}| does not dominate |Y_{i}|")

    @cached_property
    def _sums(self) -> tuple[LatticeDistribution, LatticeDistribution]:
        return exact_sum_distribution(self.xs), exact_sum_distribution(self.ys)

    def sums(self) -> tuple[LatticeDistribution, LatticeDistribution]:
        return self._sums


def _row(param, lhs_num: int, lhs_den: int, rhs_num: int, rhs_den: int) -> tuple:
    """A check's row (param, lhs, rhs, ok): both sides as integer pairs over
    positive denominators, unreduced, and ok = lhs >= rhs decided by one
    cross-multiplication."""
    return param, (lhs_num, lhs_den), (rhs_num, rhs_den), lhs_num * rhs_den >= rhs_num * lhs_den


@dataclass
class CheckReport:
    """A comparison check's rows, each (param, lhs, rhs, ok) from _row."""

    rows: list[tuple]

    @property
    def ok(self) -> bool:
        """Every row's verdict holds."""
        return all(row[3] for row in self.rows)


class PrussReport(CheckReport):
    @property
    def min_ratio(self) -> Fraction | None:
        """The least P(|S| >= t) / P(|T| >= t) = lhs / (2 rhs) over the rows
        with rhs > 0, found by integer cross-multiplication; None if none."""
        least = None  # (numerator, denominator)
        for _, (s_num, s_den), (t_num, t_den), _ in self.rows:
            num, den = s_num * t_den, 2 * t_num * s_den
            if t_num and (least is None or num * least[1] < least[0] * den):
                least = num, den
        return None if least is None else Fraction(*least)


def pruss_check(inst: ComparisonInstance, t_grid: Sequence) -> PrussReport:
    """Check P(|S| >= t) >= (1/2) P(|T| >= t) at every positive grid t.

    The rows are (t, P(|S| >= t), (1/2) P(|T| >= t), ok), t ascending.  Both
    sums are symmetric, so P(|S| >= t) = 2 P(S >= t) for t > 0, and
    (1/2) P(|T| >= t) = P(T >= t): one walk down each sum reads the grid.
    """
    s, t_dist = inst.sums()
    ts = sorted(t for t in map(parse_rational, t_grid) if t.numerator > 0)
    cuts = [(t.numerator, t.denominator) for t in ts]
    s_tails, t_tails = (_upper_tail_weights(d, cuts) for d in (s, t_dist))
    return PrussReport([_row(t, 2 * s_ge, s.den, t_ge, t_dist.den)
                        for t, (_, s_ge), (_, t_ge) in zip(ts, s_tails, t_tails)])


def half_mass_check(inst: ComparisonInstance, h, m_max: int) -> CheckReport:
    """Check the half-mass ordering at t = m*h for m = 1..m_max.

    Requires every Y_i to be supported on {-h, 0, h}.  The ordering is only
    claimed for positive m; m = 0 genuinely fails (the known two-coin
    example gives 3/4 < 1 there).  The rows are (m, half-mass of S at m*h,
    half-mass of T at m*h, ok).  For a symmetric sum and t > 0 the
    half-mass P(|S| > t) + (1/2) P(|S| = t) is P(S > t) + P(S >= t), so one
    walk down each sum gives every row.
    """
    h = parse_rational(h)
    if h <= 0:
        raise ValueError(f"h must be positive, got {h}")
    if m_max < 0:
        raise ValueError(f"m_max must be nonnegative, got {m_max}")
    for i, y in enumerate(inst.ys):
        if not _on_three_points(y, h):
            raise HypothesisViolation(f"Y_{i + 1} not supported on {{-h, 0, h}}")
    s, t_dist = inst.sums()
    ms = range(1, m_max + 1)
    cuts = [(m * h.numerator, h.denominator) for m in ms]
    s_tails, t_tails = (_upper_tail_weights(d, cuts) for d in (s, t_dist))
    return CheckReport([_row(m, s_gt + s_ge, s.den, t_gt + t_ge, t_dist.den)
                        for m, (s_gt, s_ge), (t_gt, t_ge) in zip(ms, s_tails, t_tails)])


def _on_three_points(d: LatticeDistribution, h: Fraction) -> bool:
    # Every atom is -h, 0 or h: the masses there make up the whole law.
    hn, hd = h.numerator, h.denominator
    tails = _upper_tail_weights(d, [(-hn, hd), (0, 1), (hn, hd)])
    return sum(ge - gt for gt, ge in tails) == d.den


@dataclass
class BirnbaumReport:
    violations: tuple[str, ...]
    conclusion_holds: bool

    @property
    def hypothesis_ok(self) -> bool:
        return not self.violations


def birnbaum_check(inst: ComparisonInstance, h) -> BirnbaumReport:
    """Check |S| >= |T| stochastically under the unimodal-span-h hypotheses.

    The report separates hypothesis violations (terms not unimodal with
    span h, or a pair not sharing a lattice) from a failed conclusion; the
    conclusion is evaluated either way, since a false conclusion under a
    violated hypothesis is informative, not a bug.
    """
    h = parse_rational(h)
    violations: list[str] = []
    for i, (x, y) in enumerate(zip(inst.xs, inst.ys)):
        for label, d in ((f"X_{i + 1}", x), (f"Y_{i + 1}", y)):
            if not is_unimodal_with_span(d, h):
                violations.append(f"{label} is not unimodal with span {h}")
        if h > 0 and not _shared_lattice(x, y, h):
            violations.append(
                f"pair (X_{i + 1}, Y_{i + 1}) not both on h*Z or both on h*(Z+1/2)"
            )
    s, t_dist = inst.sums()
    return BirnbaumReport(tuple(violations), abs_stochastically_geq(s, t_dist))


def _lattice_classes(d: LatticeDistribution, h: Fraction) -> set[str]:
    # Which of h*Z / h*(Z+1/2) can carry this law; a point mass at 0 lives
    # on h*Z only, other laws may fit neither.  The indices have gcd 1, so
    # every atom offset + step*i is in the offset's class exactly when
    # step/h is an integer; then offset/h mod 1 names the class.
    hn, hd = h.numerator, h.denominator
    if d.step.numerator * hd % (d.step.denominator * hn):
        return set()
    scale = d.offset.denominator * hn
    residue = d.offset.numerator * hd % scale  # (offset/h mod 1) * scale
    if not residue:
        return {"integer"}
    return {"half"} if 2 * residue == scale else set()


def _shared_lattice(x: LatticeDistribution, y: LatticeDistribution, h: Fraction) -> bool:
    return bool(_lattice_classes(x, h) & _lattice_classes(y, h))


def birnbaum_pair_check(
    u: LatticeDistribution,
    v: LatticeDistribution,
    w: LatticeDistribution,
    h,
) -> bool:
    """Single-step comparison: |U + V| >= |U + W| stochastically.

    Hypotheses (enforced): U, V, W symmetric, |V| >= |W| stochastically,
    U unimodal with span h, and for h > 0, V and W both on h*Z or both on
    h*(Z + 1/2).
    """
    h = parse_rational(h)
    for label, d in (("U", u), ("V", v), ("W", w)):
        if not is_symmetric(d):
            raise HypothesisViolation(f"{label} is not symmetric")
    if not abs_stochastically_geq(v, w):
        raise HypothesisViolation("|V| does not dominate |W|")
    if not is_unimodal_with_span(u, h):
        raise HypothesisViolation(f"U is not unimodal with span {h}")
    if h > 0 and not _shared_lattice(v, w, h):
        raise HypothesisViolation("V and W are not on a common lattice class")
    s = exact_sum_distribution([u, v])
    t = exact_sum_distribution([u, w])
    return abs_stochastically_geq(s, t)


def wintner_check(x: LatticeDistribution, y: LatticeDistribution, h) -> bool:
    """Closure of symmetry and span-h unimodality under convolution.

    Hypotheses (enforced): x and y symmetric and unimodal with span h.  For
    h > 0 each then lies on h*Z or h*(Z + 1/2): a law of several atoms has
    step h, indices 0..last and offset -h*last/2.  Returns whether x (+) y
    is again symmetric and unimodal with span h; under the hypotheses this
    must be true.
    """
    h = parse_rational(h)
    for label, d in (("x", x), ("y", y)):
        if not is_symmetric(d):
            raise HypothesisViolation(f"{label} is not symmetric")
        if not is_unimodal_with_span(d, h):
            raise HypothesisViolation(f"{label} is not unimodal with span {h}")
    total = exact_sum_distribution([x, y])
    return is_symmetric(total) and is_unimodal_with_span(total, h)
