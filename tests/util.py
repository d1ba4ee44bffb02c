"""Shared helpers for building exact distributions and random instances."""

from __future__ import annotations

import random
from fractions import Fraction

from symtail.bounds import improved_bound
from symtail.distributions import LatticeDistribution, abs_tail
from symtail.oracles import exact_sum_distribution
from symtail.rational import decimal_str, format_rational


def dist(masses) -> LatticeDistribution:
    return LatticeDistribution.from_masses(masses)


def coin(h=1) -> LatticeDistribution:
    h = Fraction(h)
    return dist({-h: Fraction(1, 2), h: Fraction(1, 2)})


def random_probability(rng: random.Random, max_den: int = 12) -> Fraction:
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(0, den), den)


def random_success_vector(rng: random.Random, n: int, positive: bool = False):
    ps = []
    for _ in range(n):
        p = random_probability(rng)
        if positive and p == 0:
            p = Fraction(1, rng.randint(2, 12))
        ps.append(p)
    return tuple(ps)


def random_symmetric_law(
    rng: random.Random, radius: int = 2, den: int = 8, h=1
) -> LatticeDistribution:
    """Random symmetric law on {-radius*h, ..., radius*h} with masses k/den."""
    h = Fraction(h)
    while True:
        units = [0] * (radius + 1)
        remaining = den
        for k in range(radius, 0, -1):
            units[k] = rng.randint(0, remaining // 2)
            remaining -= 2 * units[k]
        units[0] = remaining
        if any(units):
            break
    masses = {}
    if units[0]:
        masses[Fraction(0)] = Fraction(units[0], den)
    for k in range(1, radius + 1):
        if units[k]:
            masses[k * h] = Fraction(units[k], den)
            masses[-k * h] = Fraction(units[k], den)
    return dist(masses)


# --- Straight-line Fraction references ---------------------------------------
#
# Per-atom Fraction implementations of the distribution kernel, kept here
# only, as the oracle for the integer-lattice kernel in symtail.  Laws are
# plain tuples of (support point, mass) pairs, sorted ascending.


def ref_convolve(a1, a2) -> tuple:
    masses: dict[Fraction, Fraction] = {}
    for x, mx in a1:
        for y, my in a2:
            masses[x + y] = masses.get(x + y, Fraction(0)) + mx * my
    return tuple(sorted(masses.items()))


def ref_poisson_binomial(p) -> tuple:
    out = ((Fraction(0), Fraction(1)),)
    for pi in p:
        coin_p = tuple((x, m) for x, m in ((Fraction(0), 1 - pi), (Fraction(1), pi)) if m)
        out = ref_convolve(out, coin_p)
    return out


def ref_symmetric_three_point(p, h) -> tuple:
    out = ((Fraction(0), Fraction(1)),)
    for pi in p:
        term = tuple(
            (x, m) for x, m in ((-h, pi / 2), (Fraction(0), 1 - pi), (h, pi / 2)) if m
        )
        out = ref_convolve(out, term)
    return out


def ref_interval_mass(a, lo, hi, lo_closed=True, hi_closed=True) -> Fraction:
    total = Fraction(0)
    for x, m in a:
        above = x > lo or (lo_closed and x == lo)
        below = x < hi or (hi_closed and x == hi)
        if above and below:
            total += m
    return total


def ref_abs_tail(a, t, strict=True) -> Fraction:
    total = Fraction(0)
    for x, m in a:
        if abs(x) > t or (not strict and abs(x) == t):
            total += m
    return total


def ref_is_symmetric(a) -> bool:
    masses = dict(a)
    return all(masses.get(-x) == m for x, m in a)


def ref_is_unimodal_with_span(a, h) -> bool:
    # Dense over the lattice h*Z + min(support): only for narrow supports.
    if len(a) == 1:
        return True
    if h == 0:
        return False
    x0 = a[0][0]
    seq: dict[int, Fraction] = {}
    for x, m in a:
        q = (x - x0) / h
        if q.denominator != 1:
            return False
        seq[int(q)] = m
    dense = [seq.get(k, Fraction(0)) for k in range(max(seq) + 1)]
    descending = False
    for prev, cur in zip(dense, dense[1:]):
        if cur < prev:
            descending = True
        elif cur > prev and descending:
            return False
    return True


def ref_abs_stochastically_geq(u, v) -> bool:
    thresholds = {abs(x) for x, _ in u} | {abs(x) for x, _ in v}
    return all(
        ref_abs_tail(u, t, strict=False) >= ref_abs_tail(v, t, strict=False)
        for t in thresholds
    )


def ref_sweep_rows(instances, h, t_grid, inflate=Fraction(0)) -> list[list[str]]:
    """The rows of `symtail sweep`, recomputed per (instance, t) without any
    cache: each instance's sum law and each bound are built from scratch."""
    rows = []
    for index, terms in enumerate(instances):
        p = [abs_tail(term, h, strict=False) for term in terms]
        total = exact_sum_distribution(terms)
        for t in sorted(t_grid):
            if not 0 <= t < len(terms) * h:
                continue
            bound = improved_bound(p, h, t) + inflate
            tail = abs_tail(total, t, strict=True)
            slack = tail - bound
            rows.append([
                str(index), format_rational(t), format_rational(bound), decimal_str(bound),
                format_rational(tail), decimal_str(tail), format_rational(slack),
                "ok" if slack >= 0 else "VIOLATION",
            ])
    return rows
