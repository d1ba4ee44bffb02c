"""Shared helpers for building exact distributions and random instances."""

from __future__ import annotations

import decimal
import math
import random
from fractions import Fraction
from operator import sub

from symtail import bounds, oracles, ordering
from symtail.bounds import _window_sums, improved_bound
from symtail.distributions import LatticeDistribution, abs_tail, point_mass
from symtail.oracles import _SIZES, exact_sum_distribution
from symtail.rational import format_rational


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


def unimodal_span1_laws() -> list[LatticeDistribution]:
    """All symmetric laws on {-2,...,2} with eighth masses that are unimodal
    on the unit lattice: atom units (u2, u1, u0, u1, u2), u2 <= u1 <= u0."""
    laws = []
    for u1 in range(5):
        for u2 in range(u1 + 1):
            u0 = 8 - 2 * u1 - 2 * u2
            if u0 < u1:
                continue
            masses = {0: Fraction(u0, 8)}
            for k, units in ((1, u1), (2, u2)):
                if units:
                    masses[k] = Fraction(units, 8)
                    masses[-k] = Fraction(units, 8)
            laws.append(dist(masses))
    return laws


def half_lattice_laws() -> list[LatticeDistribution]:
    """The symmetric unimodal-span-1 laws on Z + 1/2 within [-3/2, 3/2] with
    eighth masses: units (u2, u1, u1, u2), u1 = 4 - u2 >= u2."""
    laws = []
    for u2 in range(3):
        u1 = 4 - u2
        masses = {Fraction(1, 2): Fraction(u1, 8), Fraction(-1, 2): Fraction(u1, 8)}
        if u2:
            masses[Fraction(3, 2)] = Fraction(u2, 8)
            masses[Fraction(-3, 2)] = Fraction(u2, 8)
        laws.append(dist(masses))
    return laws


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


def ref_bound_sums(p, m) -> tuple[Fraction, Fraction, Fraction]:
    """(nagaev, improved, kanter_sup) at window index m from their defining
    sums over ref_poisson_binomial's pmf, with F_k(m) the sum of the m
    largest C(k, i), found by sorting."""
    pmf = dict(ref_poisson_binomial(p))
    nagaev = improved = kanter = Fraction(0)
    for k in range(len(p) + 1):
        bk = pmf.get(k, Fraction(0))
        f = Fraction(sum(sorted((math.comb(k, i) for i in range(k + 1)), reverse=True)[:m]), 2**k)
        kanter += f * bk
        if k >= m:
            nagaev += bk / 2**k
            improved += (1 - f) * bk
    return nagaev, improved, kanter


def window_max(n: int, m: int) -> int:
    """Independent oracle for F_n(m): explicit maximum over every length-m
    window of row n."""
    if m == 0:
        return 0
    return max(sum(math.comb(n, i) for i in range(max(r, 0), min(r + m, n + 1)))
               for r in range(-m, n + 1))


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


def ref_decimal_str(q) -> str:
    """The decimal column's 12-significant-digit view of q, divided in a
    local copy of the ambient decimal context: the reference for
    symtail.rational.decimal_str, valid while that context has the default
    rounding (half even), traps and exponent letter."""
    q = Fraction(q)
    with decimal.localcontext() as ctx:
        ctx.prec = 12
        d = decimal.Decimal(q.numerator) / decimal.Decimal(q.denominator)
    return str(d)


def big_rational(text: str) -> Fraction:
    """The rational of a "num/den" or "num" string, read through Decimal so
    that parts past the interpreter's int-to-str digit limit read too."""
    num, _, den = text.partition("/")
    return Fraction(int(decimal.Decimal(num)), int(decimal.Decimal(den or 1)))


def shifted_window_sums(shift):
    """bounds._window_sums with each improved bound shifted up by `shift`,
    to patch over oracles._window_sums.  The shift is applied after the real
    evaluator has checked its invariants, which the shifted sums fail."""
    num, den = shift.numerator, shift.denominator

    def sums(p, ms):
        return {m: (nagaev * den, improved * den + num * common, kanter * den, common * den)
                for m, (nagaev, improved, kanter, common) in _window_sums(p, ms).items()}
    return sums


# Each breaks one invariant of the sums (nagaev, improved, kanter, common)
# that bounds._bound_sums returns, keeping the others where it can.
SUM_CORRUPTIONS = {
    "nagaev-negative": lambda na, im, ka, co: (-1, im, ka, co),
    "nagaev-above-improved": lambda na, im, ka, co: (im + 1, im, ka, co),
    "improved-above-1": lambda na, im, ka, co: (na, co + 1, -1, co),
    "kanter-not-complement": lambda na, im, ka, co: (na, im, ka + 1, co),
}


def tailless_s(monkeypatch) -> None:
    """Make the first sum of each comparison instance, S = sum X_i, a point
    mass at 0.  The comparison theorems hold on every valid input, so only
    a lost tail reaches their violation rows."""
    real = ordering.exact_sum_distribution
    built = []

    def sums(terms):  # each instance builds S, then T
        built.append(terms)
        return point_mass(0) if len(built) % 2 else real(terms)

    monkeypatch.setattr(ordering, "exact_sum_distribution", sums)


def count_convolutions(monkeypatch) -> list:
    """Count the convolutions the oracles make: one entry per call."""
    calls = []
    real = oracles.convolve
    monkeypatch.setattr(oracles, "convolve", lambda a, b: calls.append(1) or real(a, b))
    return calls


def count_dense_sumsets(monkeypatch) -> list:
    """Count the Kleitman counts that take the dense path: one entry per call."""
    calls = []
    real = oracles._dense_count
    monkeypatch.setattr(oracles, "_dense_count", lambda *args: calls.append(1) or real(*args))
    return calls


def count_prefix_sums(monkeypatch) -> list:
    """Count the prefix sums the sweep forms, packed or convolved: one
    (prefix key, term code) entry per sum."""
    calls = []
    real = oracles._Prefixes._extend

    def extend(self, prefix, code):
        calls.append((prefix, code))
        return real(self, prefix, code)

    monkeypatch.setattr(oracles._Prefixes, "_extend", extend)
    return calls


def corrupt_bound_sums(monkeypatch, name: str) -> None:
    """Patch bounds._bound_sums so that its result fails SUM_CORRUPTIONS[name]."""
    real = bounds._bound_sums
    monkeypatch.setattr(bounds, "_bound_sums",
                        lambda pmf, m: SUM_CORRUPTIONS[name](*real(pmf, m)))


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
                str(index), format_rational(t), format_rational(bound), ref_decimal_str(bound),
                format_rational(tail), ref_decimal_str(tail), format_rational(slack),
                "ok" if slack >= 0 else "VIOLATION",
            ])
    return rows


def ref_kleitman_count(inst) -> int:
    """Exhaustive count of subsets whose vector sum lands in a target ball.

    Enumerates all 2^n subsets (empty set included, contributing the zero
    sum) in Gray-code order, so each step is one coordinate update.  All
    coordinates, centres and radii are scaled to integers by one common
    factor.  The reference for the sumset count of symtail's kleitman_count.
    """
    n = len(inst.vectors)
    d = inst.dimension
    size = _SIZES[inst.norm]
    denoms = [c.denominator for v in inst.vectors for c in v]
    denoms += [q.denominator for center, radius in inst.targets for q in (*center, radius)]
    scale = math.lcm(*denoms)
    scaled = [[int(c * scale) for c in v] for v in inst.vectors]
    balls = [
        ([int(c * scale) for c in center], size((int(radius * scale),)))
        for center, radius in inst.targets
    ]

    def member(point: list[int]) -> bool:
        return any(size(map(sub, point, c)) < r for c, r in balls)

    cur = [0] * d
    count = 1 if member(cur) else 0
    g_prev = 0
    for i in range(1, 1 << n):
        g = i ^ (i >> 1)
        bit = (g ^ g_prev).bit_length() - 1
        g_prev = g
        vec = scaled[bit]
        if (g >> bit) & 1:
            for j in range(d):
                cur[j] += vec[j]
        else:
            for j in range(d):
                cur[j] -= vec[j]
        if member(cur):
            count += 1
    return count
