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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .distributions import (
    LatticeDistribution,
    abs_stochastically_geq,
    abs_tail,
    half_mass,
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

    The hypothesis check and the two sum laws are computed once per instance.
    """

    xs: tuple[LatticeDistribution, ...]
    ys: tuple[LatticeDistribution, ...]

    def __post_init__(self) -> None:
        if len(self.xs) != len(self.ys) or not self.xs:
            raise ValueError("need equally many X and Y terms, at least one pair")

    @cached_property
    def _violation(self) -> str | None:
        for i, (x, y) in enumerate(zip(self.xs, self.ys)):
            if not is_symmetric(x):
                return f"X_{i + 1} is not symmetric"
            if not is_symmetric(y):
                return f"Y_{i + 1} is not symmetric"
            if not abs_stochastically_geq(x, y):
                return f"|X_{i + 1}| does not dominate |Y_{i + 1}|"
        return None

    def validate(self) -> None:
        if self._violation is not None:
            raise HypothesisViolation(self._violation)

    @cached_property
    def _sums(self) -> tuple[LatticeDistribution, LatticeDistribution]:
        return exact_sum_distribution(self.xs), exact_sum_distribution(self.ys)

    def sums(self) -> tuple[LatticeDistribution, LatticeDistribution]:
        return self._sums


@dataclass
class PrussReport:
    rows: list[tuple[Fraction, Fraction, Fraction]] = field(default_factory=list)
    min_ratio: Fraction | None = None

    @property
    def ok(self) -> bool:
        return all(s >= Fraction(1, 2) * t for _, s, t in self.rows)


def pruss_check(inst: ComparisonInstance, t_grid: Sequence) -> PrussReport:
    """Check P(|S| >= t) >= (1/2) P(|T| >= t) at every positive grid t."""
    inst.validate()
    s, t_dist = inst.sums()
    report = PrussReport()
    for t in sorted(parse_rational(v) for v in t_grid):
        if t <= 0:
            continue
        s_tail = abs_tail(s, t, strict=False)
        t_tail = abs_tail(t_dist, t, strict=False)
        report.rows.append((t, s_tail, t_tail))
        if t_tail > 0:
            ratio = s_tail / t_tail
            if report.min_ratio is None or ratio < report.min_ratio:
                report.min_ratio = ratio
    return report


@dataclass
class HalfMassReport:
    rows: list[tuple[int, Fraction, Fraction]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(lhs >= rhs for _, lhs, rhs in self.rows)


def half_mass_check(inst: ComparisonInstance, h, m_max: int) -> HalfMassReport:
    """Check the half-mass ordering at t = m*h for m = 1..m_max.

    Requires every Y_i to be supported on {-h, 0, h}.  The ordering is only
    claimed for positive m; m = 0 genuinely fails (the known two-coin
    example gives 3/4 < 1 there).
    """
    inst.validate()
    h = parse_rational(h)
    if h <= 0:
        raise ValueError(f"h must be positive, got {h}")
    allowed = {-h, Fraction(0), h}
    for i, y in enumerate(inst.ys):
        if not set(y.support) <= allowed:
            raise HypothesisViolation(f"Y_{i + 1} not supported on {{-h, 0, h}}")
    s, t_dist = inst.sums()
    report = HalfMassReport()
    for m in range(1, m_max + 1):
        report.rows.append((m, half_mass(s, m * h), half_mass(t_dist, m * h)))
    return report


@dataclass
class BirnbaumReport:
    hypothesis_ok: bool
    violations: tuple[str, ...]
    conclusion_holds: bool


def birnbaum_check(inst: ComparisonInstance, h) -> BirnbaumReport:
    """Check |S| >= |T| stochastically under the unimodal-span-h hypotheses.

    The report separates hypothesis violations (terms not unimodal with
    span h, or a pair not sharing a lattice) from a failed conclusion; the
    conclusion is evaluated either way, since a false conclusion under a
    violated hypothesis is informative, not a bug.
    """
    inst.validate()
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
    conclusion = abs_stochastically_geq(s, t_dist)
    return BirnbaumReport(
        hypothesis_ok=not violations,
        violations=tuple(violations),
        conclusion_holds=conclusion,
    )


def _lattice_classes(d: LatticeDistribution, h: Fraction) -> set[str]:
    # Which of h*Z / h*(Z+1/2) can carry this law; a point mass at 0 lives
    # on h*Z only, other laws may fit neither.
    classes = set()
    residues = {(x / h) % 1 for x in d.support}
    if residues <= {Fraction(0)}:
        classes.add("integer")
    if residues <= {Fraction(1, 2)}:
        classes.add("half")
    return classes


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

    Hypotheses (enforced): x and y symmetric and unimodal with span h, each
    on h*Z or h*(Z + 1/2).  Returns whether x (+) y is again symmetric and
    unimodal with span h; under the hypotheses this must be true.
    """
    h = parse_rational(h)
    for label, d in (("x", x), ("y", y)):
        if not is_symmetric(d):
            raise HypothesisViolation(f"{label} is not symmetric")
        if not is_unimodal_with_span(d, h):
            raise HypothesisViolation(f"{label} is not unimodal with span {h}")
        if h > 0 and not _lattice_classes(d, h):
            raise HypothesisViolation(f"{label} is not on h*Z or h*(Z+1/2)")
    total = exact_sum_distribution([x, y])
    return is_symmetric(total) and is_unimodal_with_span(total, h)
