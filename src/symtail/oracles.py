"""Independent brute-force verifiers.

Nothing here reuses the closed forms it is meant to check: subset sums are
enumerated exhaustively (Gray-code order, one vector update per step), sum
laws are built by exact convolution, and the Monte Carlo sampler is a
seeded, fully deterministic cross-check for continuous terms.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .bounds import improved_bound
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

NORMS = ("euclidean", "sup", "one", "absolute")

MAX_ENUMERATION_TERMS = 24


class SupportCapExceeded(ValueError):
    """Raised when an exact convolution would exceed the support-size cap."""


@dataclass(frozen=True)
class KleitmanInstance:
    """Subset-sum counting instance: n vectors in Q^d and m open-ball targets.

    Each target is (center, radius) for the open ball {x : ||x - c|| < radius};
    open balls of radius r have diameter < 2r, so the counting bound applies
    whenever 2 * radius < min_i ||a_i|| for every target.
    """

    dimension: int
    vectors: tuple[tuple[Fraction, ...], ...]
    norm: str
    targets: tuple[tuple[tuple[Fraction, ...], Fraction], ...]

    @staticmethod
    def make(dimension, vectors, norm, targets) -> "KleitmanInstance":
        d = int(dimension)
        vecs = tuple(tuple(parse_rational(c) for c in v) for v in vectors)
        tgts = tuple(
            (tuple(parse_rational(c) for c in center), parse_rational(radius))
            for center, radius in targets
        )
        return KleitmanInstance(d, vecs, str(norm), tgts)

    def validate(self) -> None:
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if self.norm not in NORMS:
            raise ValueError(f"unknown norm {self.norm!r}; choose from {NORMS}")
        if self.norm == "absolute" and self.dimension != 1:
            raise ValueError("absolute-value norm requires dimension 1")
        if not self.vectors or not self.targets:
            raise ValueError("need at least one vector and one target")
        if len(self.vectors) > MAX_ENUMERATION_TERMS:
            raise ValueError(
                f"n={len(self.vectors)} exceeds enumeration cap {MAX_ENUMERATION_TERMS}"
            )
        for v in self.vectors:
            if len(v) != self.dimension:
                raise ValueError("vector dimension mismatch")
        for center, radius in self.targets:
            if len(center) != self.dimension:
                raise ValueError("target center dimension mismatch")
            if radius < 0:
                raise ValueError("target radius must be nonnegative")
        # Diameter hypothesis: 2 * radius < min_i ||a_i||, compared exactly
        # (squared for the euclidean norm to stay in the rationals).
        if self.norm == "euclidean":
            min_sq = min(sum(c * c for c in v) for v in self.vectors)
            for _, radius in self.targets:
                if not 4 * radius * radius < min_sq:
                    raise ValueError(
                        f"diameter hypothesis violated: 2*{radius} >= min vector norm"
                    )
        else:
            reducer = max if self.norm == "sup" else sum
            min_norm = min(reducer(abs(c) for c in v) for v in self.vectors)
            for _, radius in self.targets:
                if not 2 * radius < min_norm:
                    raise ValueError(
                        f"diameter hypothesis violated: 2*{radius} >= min vector norm"
                    )


def _membership_test(inst: KleitmanInstance, scale: int) -> Callable[[list[int]], bool]:
    # Precompute per-target scaled centers and cross-multiplied thresholds so
    # the hot loop works on plain ints.
    checks = []
    for center, radius in inst.targets:
        c = [int(x * scale) for x in center]
        if inst.norm == "euclidean":
            thr = (radius * scale) ** 2
        else:
            thr = radius * scale
        checks.append((c, thr.numerator, thr.denominator))
    d = inst.dimension
    norm = inst.norm

    def member(point: list[int]) -> bool:
        for c, num, den in checks:
            if norm == "euclidean":
                dist = sum((point[i] - c[i]) ** 2 for i in range(d))
            elif norm == "sup":
                dist = max(abs(point[i] - c[i]) for i in range(d))
            else:  # "one" and "absolute"
                dist = sum(abs(point[i] - c[i]) for i in range(d))
            if dist * den < num:
                return True
        return False

    return member


def kleitman_count(inst: KleitmanInstance) -> int:
    """Exhaustive count of subsets whose vector sum lands in a target ball.

    Enumerates all 2^n subsets (empty set included, contributing the zero
    sum) in Gray-code order, so each step is one coordinate update.  The
    count is returned unchecked; the theorem bounds it by the
    binomial-window ceiling F_n(m).
    """
    inst.validate()
    n = len(inst.vectors)
    m = len(inst.targets)
    d = inst.dimension
    denoms = [c.denominator for v in inst.vectors for c in v]
    denoms += [c.denominator for center, _ in inst.targets for c in center]
    scale = math.lcm(*denoms)
    scaled = [[int(c * scale) for c in v] for v in inst.vectors]
    member = _membership_test(inst, scale)

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


def equality_instance(n: int, m: int) -> KleitmanInstance:
    """The real-line instance attaining the ceiling: a_i = 1, targets the
    m consecutive integers of the centered binomial window, fattened to
    open radius 1/4."""
    r = (n - m + 1) // 2
    targets = [((Fraction(r + j),), Fraction(1, 4)) for j in range(m)]
    return KleitmanInstance.make(1, [(1,)] * n, "absolute", targets)


def exact_sum_distribution(
    terms: Sequence[LatticeDistribution], max_support: int = 200_000
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
    max_support: int = 200_000,
) -> Iterator[tuple[int, list[Fraction], list[int], int, list[tuple[int, int]]]]:
    """Exact tails of each instance's sum next to the improved bound.

    Each instance is a list of symmetric lattice laws, p_i = P(|X_i| >= h).
    Yields (index, grid, tails, den, bounds) per instance: grid is the sorted
    t in [0, n*h), P(|S| > grid[j]) = tails[j] / den, and bounds[j] is the
    (numerator, denominator) of improved_bound(p, h, grid[j]).  Convolutions
    and bounds are cached across instances (sorted-prefix caching), so
    families enumerated in sorted order stay cheap.  Raises ValueError on a
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
    codes: dict[Fraction, int] = {}
    p_values: list[Fraction] = []  # indexed by code
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
                p = abs_tail(d, h, strict=False)
                code = p_code[law_id] = codes.setdefault(p, len(codes))
                if code == len(p_values):
                    p_values.append(p)
        n = len(terms)
        ids = tuple(sorted(id(d) for d in terms))
        total = conv_of(ids)
        if n not in valid_ts:
            valid_ts[n] = ts[: bisect_left(ts, n * h)]
        grid = valid_ts[n]
        p_key = tuple(sorted(p_code[law_id] for law_id in ids))
        bounds = bound_cache.get(p_key)
        if bounds is None:
            p = tuple(sorted(p_values[code] for code in p_key))
            bounds = bound_cache[p_key] = [
                (b.numerator, b.denominator) for b in (improved_bound(p, h, t) for t in grid)
            ]
        yield index, grid, _abs_tail_weights(total, grid, strict=True), total.den, bounds


def bound_soundness_sweep(
    instances: Iterable[Sequence[LatticeDistribution]],
    h,
    t_grid: Sequence,
) -> SweepReport:
    """Verify P(|S| > t) >= improved_bound(p, h, t) on every instance.

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
    with masses on the 1/denominator grid, up to reordering of terms."""
    from itertools import combinations_with_replacement

    h = parse_rational(h)
    if denominator < 1 or radius < 0:
        raise ValueError(f"need denominator >= 1 and radius >= 0, got {denominator}, {radius}")
    laws = []
    for profile in _symmetric_mass_profiles(denominator, radius):
        masses = {}
        for k, units in enumerate(profile):
            if units:
                mass = Fraction(units, denominator)
                if k == 0:
                    masses[Fraction(0)] = mass
                else:
                    masses[k * h] = mass
                    masses[-k * h] = mass
        laws.append(LatticeDistribution.from_masses(masses))
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
    bound = improved_bound(p, h, t)
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


def _magnitudes(term: dict, rng: np.random.Generator, size: int) -> np.ndarray:
    kind = term.get("kind")
    if kind == "atoms":
        dist = LatticeDistribution.from_masses(term["atoms"])
        agg: dict[float, float] = {}
        for x, mass in dist.atoms:
            a = abs(float(x))
            agg[a] = agg.get(a, 0.0) + float(mass)
        values = np.array(sorted(agg))
        probs = np.array([agg[v] for v in sorted(agg)])
        probs = probs / probs.sum()
        return rng.choice(values, size=size, p=probs)
    if kind == "uniform":
        return rng.uniform(0.0, float(parse_rational(term["scale"])), size=size)
    if kind == "gaussian":
        return np.abs(rng.normal(0.0, float(term["sigma"]), size=size))
    raise ValueError(f"unknown sampler kind {kind!r}")


def monte_carlo_tail(config: SampleConfig, t: float) -> tuple[float, float]:
    """Empirical P(|S| > t) with its binomial standard error.

    Deterministic given the seed: a single named generator (PCG64 via
    numpy's default_rng) drives all draws in a fixed term order.
    """
    if config.replications < 1000:
        raise ValueError("need at least 1000 replications")
    if t < 0:
        raise ValueError("t must be nonnegative")
    rng = np.random.default_rng(config.seed)
    size = config.replications
    total = np.zeros(size)
    for term in config.terms:
        signs = rng.integers(0, 2, size=size) * 2 - 1
        total += signs * _magnitudes(term, rng, size)
    estimate = float(np.mean(np.abs(total) > t))
    std_error = math.sqrt(estimate * (1.0 - estimate) / size)
    return estimate, std_error
