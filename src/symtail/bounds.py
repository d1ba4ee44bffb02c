"""Exact tail-probability lower bounds for sums of symmetric random variables.

Given exceedance probabilities p_i = P(|X_i| >= h), the classical lower
bound for P(|S| > t) is

    sum_{k > t/h} 2^{-k} B_p({k})                         (nagaev_bound)

where B_p is the Poisson binomial law of the p_i, and its sharpening is

    sum_{k > t/h} (1 - 2^{-k} F_k(m)) B_p({k})            (improved_bound)

with m = floor(t/h) + 1 and F_k(m) the sum of the m largest binomial
coefficients of order k.  The complementary quantity

    sum_{k=0}^{n} 2^{-k} F_k(m) B_p({k})                  (kanter_supremum)

is the exact maximal probability that the sum lands in a union of m sets of
diameter < 2h, attained by the symmetric three-point laws
(1-p_i) d_0 + (p_i/2)(d_{-h} + d_{+h}).  Everything is exact: the three
sums are formed on integers over one common denominator, 2^n times that of
the Poisson binomial pmf, and become Fractions only when returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Sequence

from .distributions import (  # noqa: F401  (extremal_distribution is re-exported)
    _poisson_binomial_weights,
    as_success_vector,
    extremal_distribution,
    interval_mass,
    symmetric_three_point,
)
from .exactmath import largest_binomial_sum
from .rational import parse_rational


@dataclass(frozen=True)
class BoundReport:
    """Both bounds at a given (t, h) plus the per-k decomposition for audit.

    per_k_terms lists (k, B_p({k}), improved weight 1 - 2^{-k} F_k(m)) for
    every k in 0..n; weights for k <= t/h do not enter the bounds but make
    the complement identity improved = 1 - kanter_sup checkable from the
    report alone.  It is built from p when read.  Construction raises
    ValueError if the invariants fail.
    """

    t: Fraction
    h: Fraction
    n: int
    m: int
    nagaev: Fraction
    improved: Fraction
    kanter_sup: Fraction
    p: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not 0 <= self.nagaev <= 1:
            raise ValueError(f"nagaev bound {self.nagaev} outside [0,1]")
        if not 0 <= self.improved <= 1:
            raise ValueError(f"improved bound {self.improved} outside [0,1]")
        if self.improved < self.nagaev:
            raise ValueError(f"improved bound {self.improved} below nagaev {self.nagaev}")
        if self.improved != 1 - self.kanter_sup:
            raise ValueError(
                f"improved bound {self.improved} != 1 - kanter_sup {self.kanter_sup}"
            )

    @property
    def per_k_terms(self) -> tuple[tuple[int, Fraction, Fraction], ...]:
        scaled, common = _scaled_pmf(self.p)
        m = self.m
        return tuple(
            (k, Fraction(w << k, common), Fraction((1 << k) - largest_binomial_sum(k, m), 1 << k))
            for k, w in enumerate(scaled)
        )


@lru_cache(maxsize=1)
def _scaled_pmf(p: tuple[Fraction, ...]) -> tuple[tuple[int, ...], int]:
    """B_p over the bounds' common denominator: (w_0, ..., w_n) and C with
    2^{-k} B_p({k}) = w_k / C, where C = 2^n D for the pmf's denominator D.

    One entry is enough: a bound table evaluates one p at many t.
    """
    coeffs, den = _poisson_binomial_weights(p)
    n = len(p)
    return tuple(c << (n - k) for k, c in enumerate(coeffs)), den << n


def _bound_sums(p: tuple[Fraction, ...], m: int) -> tuple[int, int, int, int]:
    """Numerators of the Nagaev bound, the improved bound and the Kanter
    supremum at window index m, and their common denominator.

    k > t/h is k >= m, since m = floor(t/h) + 1.
    """
    scaled, common = _scaled_pmf(p)
    nagaev = improved = kanter = 0
    for k, w in enumerate(scaled):
        f = largest_binomial_sum(k, m)
        kanter += f * w
        if k >= m:
            nagaev += w
            improved += ((1 << k) - f) * w
    return nagaev, improved, kanter, common


def _check_domain(n: int, h: Fraction, t: Fraction) -> None:
    if h <= 0:
        raise ValueError(f"h must be positive, got {h}")
    if t < 0 or t >= n * h:
        raise ValueError(f"t={t} outside the bound domain [0, {n * h})")


def window_index(t, h) -> int:
    """m = floor(t/h) + 1, the number of width-2h sets covering [-t, t]-ish."""
    t, h = parse_rational(t), parse_rational(h)
    return t.numerator * h.denominator // (t.denominator * h.numerator) + 1


def _validated(p: Sequence, h, t) -> tuple[tuple[Fraction, ...], Fraction, Fraction, int]:
    p = as_success_vector(p)
    h, t = parse_rational(h), parse_rational(t)
    _check_domain(len(p), h, t)
    return p, h, t, window_index(t, h)


def nagaev_bound(p: Sequence, h, t) -> Fraction:
    """Exact value of sum_{k > t/h} 2^{-k} B_p({k})."""
    p, _, _, m = _validated(p, h, t)
    nagaev, _, _, common = _bound_sums(p, m)
    return Fraction(nagaev, common)


def improved_bound(p: Sequence, h, t) -> Fraction:
    """Exact value of sum_{k > t/h} (1 - 2^{-k} F_k(m)) B_p({k})."""
    p, _, _, m = _validated(p, h, t)
    _, improved, _, common = _bound_sums(p, m)
    return Fraction(improved, common)


def kanter_supremum(p: Sequence, m: int) -> Fraction:
    """Exact value of sum_{k=0}^{n} 2^{-k} F_k(m) B_p({k})."""
    p = as_success_vector(p)
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    _, _, kanter, common = _bound_sums(p, m)
    return Fraction(kanter, common)


def kanter_supremum_via_stpc(p: Sequence, m: int) -> Fraction:
    """The same supremum read off the symmetric three-point convolution.

    Equals interval mass of [-m+1, m] under the unit-step three-point
    convolution; must agree with kanter_supremum exactly.
    """
    p = as_success_vector(p)
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    stpc = symmetric_three_point(p, 1)
    return interval_mass(stpc, -m + 1, m, lo_closed=True, hi_closed=True)


def evaluate_bounds(p: Sequence, h, t) -> BoundReport:
    """Evaluate both bounds at (t, h) with the per-k audit decomposition."""
    p, h, t, m = _validated(p, h, t)
    nagaev, improved, kanter, common = _bound_sums(p, m)
    return BoundReport(
        t=t,
        h=h,
        n=len(p),
        m=m,
        nagaev=Fraction(nagaev, common),
        improved=Fraction(improved, common),
        kanter_sup=Fraction(kanter, common),
        p=p,
    )


def extremal_interval_check(p: Sequence, h, H) -> tuple[Fraction, Fraction]:
    """Supremum of P(sum in ]-H, H] + a) and its attained extremal value.

    Requires h <= H with m := ceil(H/h) < H/h + 1/2.  The supremum equals
    kanter_supremum(p, m); it is attained by the extremal three-point laws
    at the shift a = m*h - H.  Returns (sup, attained); the two must be
    exactly equal.
    """
    p = as_success_vector(p)
    h, H = parse_rational(h), parse_rational(H)
    if not 0 < h <= H:
        raise ValueError(f"need 0 < h <= H, got h={h}, H={H}")
    m = math.ceil(H / h)
    if not m < H / h + Fraction(1, 2):
        raise ValueError(f"half-integer condition fails: ceil(H/h)={m} >= H/h + 1/2")
    a = m * h - H
    sup = kanter_supremum(p, m)
    total = symmetric_three_point(p, h)
    attained = interval_mass(total, -H + a, H + a, lo_closed=False, hi_closed=True)
    return sup, attained


def optimize_h(candidates: Mapping, t) -> tuple[Fraction, Fraction]:
    """Pick the candidate h maximizing the improved bound at t.

    candidates maps each candidate h to the success vector p(h) of
    exceedance probabilities at that threshold.  Candidates violating the
    domain 0 <= t < n*h are skipped; ties break toward smaller h.
    """
    t = parse_rational(t)
    parsed = [(parse_rational(h), as_success_vector(p)) for h, p in candidates.items()]
    best: tuple[Fraction, Fraction] | None = None
    for h, p in sorted(parsed, key=lambda item: item[0]):
        if h <= 0 or t < 0 or t >= len(p) * h:
            continue
        value = improved_bound(p, h, t)
        if best is None or value > best[1]:
            best = (h, value)
    if best is None:
        raise ValueError("no candidate h admits the requested t")
    return best
