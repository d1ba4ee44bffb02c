"""Independent brute-force verifiers.

Nothing here reuses the closed forms it is meant to check: subset sums are
counted exactly over the sumset (each distinct sum with its multiplicity,
so all 2^n subsets are counted), sum laws are built by exact convolution,
and the Monte Carlo sampler is a seeded, fully deterministic cross-check
for continuous terms.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, combinations_with_replacement
from operator import mul, sub
from typing import Iterable, Iterator, Sequence

from .bounds import bound_table
from .distributions import (
    LatticeDistribution,
    _abs_tail_weights,
    abs_tail,
    as_success_vector,
    convolve,
    half_mass,
    is_symmetric,
    point_mass,
)
from .rational import parse_rational

# Work caps, checked before the work starts: the sumset work of one
# kleitman_count (n vector additions and m*d coordinate tests for each of
# at most min(2^n, box) distinct sums, see KleitmanInstance), the instances
# one symmetric_lattice_family may yield (criterion 05's family(6) has 54 263),
# the half-mass rows (m = 1..m_max) one `symtail compare` may write, the
# terms of one `symtail sweep` instance or family, the terms of one
# `symtail bound`, `tighten` or `compare` list (exact laws cost about n^2
# to n^3), and the support-size product of one exact convolution.
MAX_SUMSET_WORK = 1 << 24
MAX_FAMILY_INSTANCES = 100_000
MAX_HALF_MASS_M = 10_000
MAX_SWEEP_TERMS = 8
MAX_TERMS = 1_000
MAX_SUPPORT_PRODUCT = 200_000

# The exact size of a vector in each norm: the norm itself, or its square
# for the euclidean norm so that it stays rational.  Sizes order vectors as
# their norms do, so x lies in the open ball (c, r) exactly when
# size(x - c) < size((r,)).
_SIZES = {
    "euclidean": lambda v: sum(c * c for c in v),
    "sup": lambda v: max(map(abs, v)),
    "one": lambda v: sum(map(abs, v)),
}
_SIZES["absolute"] = _SIZES["one"]  # the one-norm of a 1-vector
NORMS = tuple(_SIZES)


class SupportCapExceeded(ValueError):
    """Raised when an exact convolution would exceed the support-size cap."""


@dataclass(frozen=True)
class KleitmanInstance:
    """Subset-sum counting instance: n vectors in Q^d and m open-ball targets.

    Each target is (center, radius) for the open ball {x : ||x - c|| < radius};
    open balls of radius r have diameter < 2r, so the counting bound applies
    whenever 2 * radius < min_i ||a_i|| for every target.  Construction
    raises ValueError unless the instance is well formed, meets that
    diameter hypothesis and its sumset work is at most MAX_SUMSET_WORK:
    S * (n + m*d) for S = min(2^n, B) distinct subset sums, that is n vector
    additions per sum to build the sumset and m*d coordinate tests per sum
    to test membership.  B = prod_j (sum_i |a_ij| / g_j + 1), with g_j the
    gcd of coordinate j's entries, bounds the number of distinct subset sums.
    """

    dimension: int
    vectors: tuple[tuple[Fraction, ...], ...]
    norm: str
    targets: tuple[tuple[tuple[Fraction, ...], Fraction], ...]

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if self.norm not in NORMS:
            raise ValueError(f"unknown norm {self.norm!r}; choose from {NORMS}")
        if self.norm == "absolute" and self.dimension != 1:
            raise ValueError("absolute-value norm requires dimension 1")
        if not self.vectors or not self.targets:
            raise ValueError("need at least one vector and one target")
        if any(len(v) != self.dimension for v in self.vectors):
            raise ValueError("vector dimension mismatch")
        for center, radius in self.targets:
            if len(center) != self.dimension:
                raise ValueError("target center dimension mismatch")
            if radius < 0:
                raise ValueError("target radius must be nonnegative")
        size = _SIZES[self.norm]
        min_size = min(map(size, self.vectors))
        for _, radius in self.targets:
            if not size((2 * radius,)) < min_size:
                raise ValueError(f"diameter hypothesis violated: 2*{radius} >= min vector norm")
        n = len(self.vectors)
        scale = math.lcm(*(c.denominator for v in self.vectors for c in v))
        box = _sum_box([[int(c * scale) for c in v] for v in self.vectors])
        distinct = math.prod(width for _, _, width in box)
        # min(2^n, distinct), without building 2^n for a large n
        sums = min(distinct, 1 << min(n, distinct.bit_length()))
        m = len(self.targets)
        work = sums * (n + m * self.dimension)
        if work > MAX_SUMSET_WORK:
            raise ValueError(
                f"sumset work {work} (n={n}, m={m}, d={self.dimension}, at most "
                f"{distinct} distinct sums) exceeds cap {MAX_SUMSET_WORK}"
            )


def kleitman_count(inst: KleitmanInstance) -> int:
    """Exact count of subsets whose vector sum lands in a target ball.

    Counts all 2^n subsets (empty set included, contributing the zero sum)
    through the sumset: a map from each distinct subset sum to its
    multiplicity, built by adding one vector at a time, after which each
    distinct sum is tested for membership once.  All coordinates, centres
    and radii are scaled to integers by one common factor, and each sum is
    packed into one integer key (see _sum_box).  The count is returned
    unchecked; the theorem bounds it by the binomial-window ceiling F_n(m).
    The instance was checked when built.
    """
    size = _SIZES[inst.norm]
    denoms = [c.denominator for v in inst.vectors for c in v]
    denoms += [q.denominator for center, radius in inst.targets for q in (*center, radius)]
    scale = math.lcm(*denoms)
    scaled = [[int(c * scale) for c in v] for v in inst.vectors]
    balls = [
        ([int(c * scale) for c in center], size((int(radius * scale),)))
        for center, radius in inst.targets
    ]

    # Mixed-radix packing over the sums' bounding box: coordinate j of every
    # partial sum is low + g*k with 0 <= k < width and packs as k*stride, so
    # adding a vector adds its packed step to the key.
    box = _sum_box(scaled)
    strides = list(accumulate((width for _, _, width in box[:-1]), mul, initial=1))
    counts = {sum(-low // g * s for (g, low, _), s in zip(box, strides)): 1}
    for v in scaled:
        step = sum(c // g * s for c, (g, _, _), s in zip(v, box, strides))
        total = counts.copy()
        for key, mult in counts.items():
            key += step
            total[key] = total.get(key, 0) + mult
        counts = total

    count = 0
    for key, mult in counts.items():
        point = []
        for g, low, width in box:
            key, k = divmod(key, width)
            point.append(low + g * k)
        if any(size(map(sub, point, c)) < r for c, r in balls):
            count += mult
    return count


def _sum_box(scaled: Sequence[Sequence[int]]) -> list[tuple[int, int, int]]:
    """(g, low, width) per coordinate of integer vectors: g is the gcd of the
    coordinate's entries and every subset sum's coordinate is low + g*k for
    some 0 <= k < width, so the product of the widths bounds the number of
    distinct subset sums whatever the scale."""
    box = []
    for column in zip(*scaled):
        g = math.gcd(*column) or 1
        box.append((g, sum(c for c in column if c < 0), sum(map(abs, column)) // g + 1))
    return box


def equality_instance(n: int, m: int) -> KleitmanInstance:
    """The real-line instance attaining the ceiling: a_i = 1, targets the
    m consecutive integers of the centered binomial window, fattened to
    open radius 1/4."""
    r = (n - m + 1) // 2
    targets = tuple(((Fraction(r + j),), Fraction(1, 4)) for j in range(m))
    return KleitmanInstance(1, ((Fraction(1),),) * n, "absolute", targets)


def exact_sum_distribution(
    terms: Sequence[LatticeDistribution], max_support: int = MAX_SUPPORT_PRODUCT
) -> LatticeDistribution:
    """Exact law of the sum of independent terms (empty sum is the point
    mass at 0), guarded by a cap on the running support size."""
    total = point_mass(0)
    for term in terms:
        total = _capped_convolve(total, term, max_support)
    return total


def _capped_convolve(total, term, max_support: int) -> LatticeDistribution:
    size, term_size = len(total.indices), len(term.indices)
    if size * term_size > max_support:
        raise SupportCapExceeded(f"support product {size}x{term_size} exceeds cap {max_support}")
    return convolve(total, term)


@dataclass
class SweepReport:
    """Result of a soundness sweep: exact tails versus the improved bound."""

    instances: int = 0
    checks: int = 0
    min_slack: Fraction | None = None
    min_slack_at: tuple[int, Fraction] | None = None
    violations: list[tuple[int, Fraction, Fraction, Fraction]] = field(
        default_factory=list
    )

    @property
    def ok(self) -> bool:
        return not self.violations


def sweep_checks(
    instances: Iterable[Sequence[LatticeDistribution]],
    h,
    t_grid: Sequence,
    max_support: int = MAX_SUPPORT_PRODUCT,
) -> Iterator[tuple[int, list[Fraction], list[int], int, list[tuple[int, int]]]]:
    """Exact tails of each instance's sum next to the improved bound.

    Each instance is a list of symmetric lattice laws, p_i = P(|X_i| >= h).
    Yields (index, grid, tails, den, bounds) per instance: grid is the sorted
    t in [0, n*h), P(|S| > grid[j]) = tails[j] / den, and bounds[j] is the
    (numerator, denominator) of the improved bound at grid[j], read from
    one bound_table per distinct multiset of p.  Convolutions and bound
    rows are cached across instances (sorted-prefix caching), so families
    enumerated in sorted order stay cheap.  Raises ValueError on a
    non-symmetric term; max_support caps each convolution as in
    exact_sum_distribution.
    """
    h = parse_rational(h)
    if h <= 0:
        raise ValueError(f"h must be positive, got {h}")
    ts = sorted(t for t in map(parse_rational, t_grid) if t >= 0)

    # Caches keyed by object identity for convolution prefixes (families
    # reuse term objects heavily) and by the sorted multiset of p values for
    # bounds (the bound is permutation invariant); each distinct p value
    # gets a small integer code, so a multiset key is a tuple of ints.
    # law_by_id keeps keyed objects alive so ids cannot be recycled.
    law_by_id: dict[int, LatticeDistribution] = {}
    conv_cache: dict[tuple[int, ...], LatticeDistribution] = {(): point_mass(0)}
    p_code: dict[int, int] = {}  # law id -> code of its p value
    codes: dict[Fraction, int] = {}  # in insertion order, so keys are indexed by code
    # bound rows: p-multiset key -> (numerator, denominator) per valid t
    bound_cache: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    valid_ts: dict[int, list[Fraction]] = {}  # n -> the t in [0, n*h)

    def conv_of(key: tuple[int, ...]) -> LatticeDistribution:
        if key not in conv_cache:
            conv_cache[key] = _capped_convolve(conv_of(key[:-1]), law_by_id[key[-1]], max_support)
        return conv_cache[key]

    for index, terms in enumerate(instances):
        terms = list(terms)
        for d in terms:
            law_id = id(d)
            if law_id not in law_by_id:
                if not is_symmetric(d):
                    raise ValueError(f"instance {index} has a non-symmetric term")
                law_by_id[law_id] = d
                p_code[law_id] = codes.setdefault(abs_tail(d, h, strict=False), len(codes))
        n = len(terms)
        ids = tuple(sorted(id(d) for d in terms))
        total = conv_of(ids)
        if n not in valid_ts:
            valid_ts[n] = ts[: bisect_left(ts, n * h)]
        grid = valid_ts[n]
        p_key = tuple(sorted(p_code[law_id] for law_id in ids))
        bounds = bound_cache.get(p_key)
        if bounds is None:
            by_code = list(codes)
            p = [by_code[code] for code in p_key]
            # An empty instance has an empty grid; bound_table rejects its empty p.
            rows = bound_table(p, h, grid) if grid else []
            bounds = bound_cache[p_key] = [
                (r.improved.numerator, r.improved.denominator) for r in rows
            ]
        yield index, grid, _abs_tail_weights(total, grid, strict=True), total.den, bounds


def bound_soundness_sweep(
    instances: Iterable[Sequence[LatticeDistribution]],
    h,
    t_grid: Sequence,
) -> SweepReport:
    """Verify P(|S| > t) >= the improved bound at (p, h, t) on every instance.

    A fold over sweep_checks: tails, bounds and slacks are compared as
    integer fractions; Fractions are built only for the report.
    """
    report = SweepReport()
    min_num = min_den = 0  # min slack as an integer fraction, once checked
    for index, grid, tails, den, bounds in sweep_checks(instances, h, t_grid):
        report.instances += 1
        report.checks += len(grid)
        for t, tail, (b_num, b_den) in zip(grid, tails, bounds):
            # slack = tail/den - b_num/b_den
            s_num, s_den = tail * b_den - b_num * den, den * b_den
            if not min_den or s_num * min_den < min_num * s_den:
                min_num, min_den = s_num, s_den
                report.min_slack_at = (index, t)
            if s_num < 0:
                report.violations.append((index, t, Fraction(b_num, b_den), Fraction(tail, den)))
    if min_den:
        report.min_slack = Fraction(min_num, min_den)
    return report


def symmetric_lattice_family(
    max_n: int, denominator: int = 8, radius: int = 2, h=1
) -> Iterable[list[LatticeDistribution]]:
    """All instances of 1..max_n symmetric laws on {-radius*h, ..., radius*h}
    with masses on the 1/denominator grid, up to reordering of terms.

    The arguments are checked when called, and a family of more than
    MAX_FAMILY_INSTANCES instances is rejected before any law is built;
    the instances are then generated lazily.
    """
    h = parse_rational(h)
    if denominator < 1 or radius < 0:
        raise ValueError(f"need denominator >= 1 and radius >= 0, got {denominator}, {radius}")
    # L = C(denominator//2 + radius, radius) laws give C(L + max_n, max_n) - 1
    # multisets of 1..max_n of them.
    cap = MAX_FAMILY_INSTANCES
    laws = _binomial_at_most(denominator // 2 + radius, radius, cap)
    if max_n >= 1 and _binomial_at_most(laws + max_n, max_n, cap + 1) > cap + 1:
        raise ValueError(
            f"family of max_n={max_n}, denominator={denominator}, radius={radius} "
            f"exceeds the cap of {MAX_FAMILY_INSTANCES} instances"
        )
    return _family_instances(max_n, denominator, radius, h)


def _binomial_at_most(n: int, k: int, limit: int) -> int:
    """min(C(n, k), limit + 1) for n >= k >= 0, in O(log limit) steps.

    The running product C(n-k+j, j) at least doubles with each j (k is
    taken <= n/2), so the loop stops early however large n and k are.
    """
    k = min(k, n - k)
    c = 1
    for j in range(1, k + 1):
        c = c * (n - k + j) // j
        if c > limit:
            return limit + 1
    return c


def _family_instances(
    max_n: int, denominator: int, radius: int, h: Fraction
) -> Iterator[list[LatticeDistribution]]:
    # Each profile (u_0, ..., u_radius) is the law's weights over denominator
    # at -radius*h, ..., radius*h: (u_radius, ..., u_1, u_0, u_1, ..., u_radius).
    laws = [
        LatticeDistribution._from_dense(-radius * h, h, denominator, profile[:0:-1] + profile)
        for profile in _symmetric_mass_profiles(denominator, radius)
    ]
    for n in range(1, max_n + 1):
        for combo in combinations_with_replacement(range(len(laws)), n):
            yield [laws[i] for i in combo]


def _symmetric_mass_profiles(denominator: int, radius: int) -> list[tuple[int, ...]]:
    # Profiles (u_0, u_1, ..., u_radius) of per-atom grid units: the atom at
    # each of -kh and +kh carries u_k/denominator, so u_0 + 2*(u_1 + ... +
    # u_radius) = denominator.
    profiles: list[tuple[int, ...]] = []

    def rec(k: int, remaining: int, acc: list[int]) -> None:
        if k == 0:
            profiles.append((remaining, *acc[::-1]))
            return
        for units in range(0, remaining // 2 + 1):
            acc.append(units)
            rec(k - 1, remaining - 2 * units, acc)
            acc.pop()

    rec(radius, denominator, [])
    return profiles


@dataclass
class TightnessReport:
    """Outcome of the non-assertive tightness probe at t = m*h."""

    t: Fraction
    bound: Fraction
    best_value: Fraction
    best_params: tuple[Fraction, Fraction]  # (outer atom h', mass split toward h)
    gap: Fraction


def tightness_search(
    p: Sequence,
    h,
    m: int,
    h_grid: Sequence = (),
    split_grid: Sequence = (1,),
) -> TightnessReport:
    """Search symmetric perturbations of the extremal laws at t = m*h.

    Each candidate law keeps P(|X_i| >= h) = p_i but moves exceedance mass
    between +-h and +-h' for grid values h' >= h:

        X_i = (1-p_i) d_0 + (s*p_i/2)(d_{-h}+d_{+h}) + ((1-s)*p_i/2)(d_{-h'}+d_{+h'})

    The objective P(|S| > mh) + (1/2) P(|S| = mh) is minimized over the
    grid and compared against the improved bound at t = m*h.  This is a
    falsification harness: it records the gap, which the theorem makes
    nonnegative, and does not claim the bound is attained.
    """
    p = as_success_vector(p)
    h = parse_rational(h)
    n = len(p)
    if not 1 <= m <= n - 1:
        raise ValueError(f"need 1 <= m <= n-1 = {n - 1} so that t = m*h < n*h")
    t = m * h
    bound = bound_table(p, h, (t,))[0].improved
    outer = sorted({h} | {parse_rational(v) for v in h_grid})
    if any(v < h for v in outer):
        raise ValueError("grid values h' must satisfy h' >= h")
    splits = sorted({parse_rational(s) for s in split_grid})
    if not splits or any(s < 0 or s > 1 for s in splits):
        raise ValueError("need at least one mass split, each in [0, 1]")

    best: tuple[Fraction, tuple[Fraction, Fraction]] | None = None
    for h2 in outer:
        for s in splits:
            terms = []
            for pi in p:
                masses = {Fraction(0): 1 - pi}
                for sign in (-1, 1):
                    masses[sign * h] = masses.get(sign * h, Fraction(0)) + s * pi / 2
                    masses[sign * h2] = (
                        masses.get(sign * h2, Fraction(0)) + (1 - s) * pi / 2
                    )
                terms.append(LatticeDistribution.from_masses(masses))
            value = half_mass(exact_sum_distribution(terms), t)
            if best is None or value < best[0]:
                best = (value, (h2, s))
    return TightnessReport(
        t=t, bound=bound, best_value=best[0], best_params=best[1], gap=best[0] - bound
    )


@dataclass(frozen=True)
class SampleConfig:
    """Seeded Monte Carlo run: each term is a symmetric real sampler.

    Terms are described by dicts:
      {"kind": "atoms", "atoms": {...}}        finite symmetric pmf literal
      {"kind": "uniform", "scale": a}          sign * Uniform(0, a]
      {"kind": "gaussian", "sigma": s}         sign * |Normal(0, s)|
    Every draw is built as an independent fair sign times a magnitude, so
    terms are symmetric by construction.
    """

    seed: int
    replications: int
    terms: tuple[dict, ...]

    def __post_init__(self) -> None:
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if not self.terms:
            raise ValueError("need at least one term")


def _magnitudes(term: dict, rng: random.Random, size: int) -> list[float]:
    kind = term.get("kind")
    if kind == "atoms":
        dist = LatticeDistribution.from_masses(term["atoms"])
        return rng.choices([abs(float(x)) for x in dist.support], dist.weights, k=size)
    if kind == "uniform":
        scale = float(parse_rational(term["scale"]))
        return [rng.uniform(0.0, scale) for _ in range(size)]
    if kind == "gaussian":
        sigma = float(term["sigma"])
        return [abs(rng.gauss(0.0, sigma)) for _ in range(size)]
    raise ValueError(f"unknown sampler kind {kind!r}")


def monte_carlo_tail(config: SampleConfig, t: float) -> tuple[float, float]:
    """Empirical P(|S| > t) with its binomial standard error.

    Deterministic given the seed: a single ``random.Random(seed)`` drives
    all draws in a fixed term order.
    """
    if config.replications < 1000:
        raise ValueError("need at least 1000 replications")
    if not t >= 0:  # also rejects NaN
        raise ValueError(f"t must be nonnegative, got {t}")
    rng = random.Random(config.seed)
    size = config.replications
    total = [0.0] * size
    for term in config.terms:
        signs = rng.choices((-1.0, 1.0), k=size)
        magnitudes = _magnitudes(term, rng, size)
        total = [acc + sign * x for acc, sign, x in zip(total, signs, magnitudes)]
    estimate = sum(abs(x) > t for x in total) / size
    std_error = math.sqrt(estimate * (1.0 - estimate) / size)
    return estimate, std_error
