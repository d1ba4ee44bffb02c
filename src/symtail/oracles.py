"""Independent brute-force verifiers.

Nothing here reuses the closed forms it is meant to check: subset sums are
counted exactly over the sumset (each distinct sum with its multiplicity,
so all 2^n subsets are counted), sum laws are exact integer polynomial
products (a convolution, or in the sweep one product of packed integers),
the three-point supremum identity is read off the convolved extremal laws,
and the Monte Carlo sampler is a seeded, fully deterministic cross-check
for continuous terms.
"""

from __future__ import annotations

import math
import random
import sys
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, combinations, combinations_with_replacement, product
from operator import mul, sub
from typing import Callable, Iterable, Iterator, Sequence

from .bounds import _window_sums, kanter_supremum, window_indices
from .distributions import (
    LatticeDistribution,
    _success_pairs,
    _upper_tail_weights,
    abs_tail,
    convolve,
    half_mass,
    interval_mass,
    is_symmetric,
    point_mass,
    symmetric_three_point,
)
from .rational import format_rational, parse_rational

# Work caps, checked before the work starts: the sumset work of one
# kleitman_count (n vector additions and m*d coordinate tests for each of
# at most min(2^n, box) distinct sums, see KleitmanInstance; it also bounds
# the dense sumset at 2^23 bytes), the instances
# one symmetric_lattice_family may yield (criterion 05's family(6) has 54 263)
# and the work of building its laws (laws x (2*radius + 1) lattice points),
# the half-mass rows (m = 1..m_max) one `symtail compare` may write, the
# terms of one `symtail sweep` instance or family, the terms of one
# `symtail bound`, `tighten` or `compare` list (exact laws cost about n^2
# to n^3), the support-size product of one exact convolution, the sum of
# those products over one exact sum of laws or over a whole `tighten` grid,
# and a `tighten` grid's rows times n^2 (each row is one exact n-term sum).
MAX_SUMSET_WORK = 1 << 24
MAX_FAMILY_INSTANCES = 100_000
MAX_FAMILY_BUILD_WORK = 1 << 20
MAX_HALF_MASS_M = 10_000
MAX_SWEEP_TERMS = 8
MAX_TERMS = 1_000
MAX_SUPPORT_PRODUCT = 200_000
MAX_SUM_WORK = 1 << 23
MAX_TIGHTEN_WORK = 1 << 20

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
    """Raised when an exact sum of laws would exceed the support-size cap
    or the work budget."""


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
    gcd of coordinate j's entries, bounds the number of distinct subset sums
    (see _integer_form).  The cap also bounds kleitman_count's dense
    sumset, taken only when B <= 2S: B slots of at most (n + 1)/4 bytes
    once n >= 3, so 2S * (n + 1)/4 <= 2^23 bytes (and at most 8 for n <= 2).
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
        # on the Fractions: a failing instance never pays for _integer_form
        size = _SIZES[self.norm]
        min_size = min(map(size, self.vectors))
        for _, radius in self.targets:
            if not size((2 * radius,)) < min_size:
                raise ValueError(f"diameter hypothesis violated: 2*{radius} >= min vector norm")
        n = len(self.vectors)
        sums = self._integer_form[-1]
        m = len(self.targets)
        work = sums * (n + m * self.dimension)
        if work > MAX_SUMSET_WORK:
            raise ValueError(
                f"sumset work {format_rational(work)} (n={n}, m={m}, d={self.dimension}, "
                f"at most {format_rational(sums)} distinct sums) exceeds cap {MAX_SUMSET_WORK}"
            )

    @cached_property
    def _integer_form(self) -> tuple:
        """The instance on integers and packed, built once and by no other
        code: (balls, box, strides, start, steps, B, S).

        Coordinates are scaled by the lcm of all denominators; each ball is
        (centre, size of its radius, radius).  box[j] = (g, low, width), g
        the gcd of coordinate j's entries (1 if all are 0): coordinate j of
        every subset sum is low + g*k with 0 <= k < width, and packs as
        k*strides[j] into the sum's key.  start is the empty sum's key, and
        adding vector i adds steps[i].  B, the widths' product, bounds the
        distinct sums whatever the scale; S = min(2^n, B).
        """
        size = _SIZES[self.norm]
        dens = [math.lcm(*(q.denominator for q in column)) for column in zip(*self.vectors)]
        scale = math.lcm(*dens, *(q.denominator for c, r in self.targets for q in (*c, r)))
        def up(q: Fraction) -> int:  # q * scale, with no Fraction built
            return q.numerator * (scale // q.denominator)
        scaled = [list(map(up, v)) for v in self.vectors]
        balls = [(list(map(up, c)), size((up(r),)), up(r)) for c, r in self.targets]
        box = []
        for column, exact, den in zip(zip(*scaled), zip(*self.vectors), dens):
            # gcd(numerators) / lcm(denominators), scaled: no gcd of the large entries
            g = math.gcd(*(q.numerator for q in exact)) * (scale // den) or 1
            box.append((g, sum(c for c in column if c < 0), sum(map(abs, column)) // g + 1))
        *strides, distinct = accumulate((width for _, _, width in box), mul, initial=1)
        start = sum(-low // g * s for (g, low, _), s in zip(box, strides))
        steps = [sum(c // g * s for c, (g, _, _), s in zip(v, box, strides)) for v in scaled]
        # min(2^n, B), without building 2^n for a large n
        sums = min(distinct, 1 << min(len(steps), distinct.bit_length()))
        return balls, box, strides, start, steps, distinct, sums


def kleitman_count(inst: KleitmanInstance) -> int:
    """Exact count of subsets whose vector sum lands in a target ball.

    Counts all 2^n subsets (empty set included, contributing the zero sum)
    through the sumset, each distinct subset sum with its multiplicity,
    built by adding each vector's step to the keys of the instance's packed
    form (KleitmanInstance._integer_form).  The sumset takes one of two
    forms:

    - dense, when the box is (B <= 2S) and a multiplicity of n + 1 bits
      fits a slot of _SLOT_FORMATS: one integer of B slots, read only at
      the box points inside each target's bounding box (see _dense_count);
    - sparse otherwise: a map from each distinct sum's key to its
      multiplicity, after which each distinct sum is tested for membership
      once.

    The count is returned unchecked; the theorem bounds it by the
    binomial-window ceiling F_n(m).
    """
    balls, box, _, start, steps, distinct, sums = inst._integer_form
    slot = distinct <= 2 * sums and _SLOT_FORMATS.get(len(steps) + 1)
    if slot:
        return _dense_count(inst, *slot)
    counts = {start: 1}
    for step in steps:
        total = counts.copy()
        for key, mult in counts.items():
            key += step
            total[key] = total.get(key, 0) + mult
        counts = total

    size = _SIZES[inst.norm]
    count = 0
    for key, mult in counts.items():
        point = []
        for g, low, width in box:
            key, k = divmod(key, width)
            point.append(low + g * k)
        if any(size(map(sub, point, c)) < r for c, r, _ in balls):
            count += mult
    return count


def _dense_count(inst: KleitmanInstance, fmt: str, nbytes: int) -> int:
    """kleitman_count on a dense box: the sumset is one integer of B
    little-endian slots of nbytes, array format fmt, slot k holding the
    multiplicity (at most 2^n, so no carry) of the sum with key k.

    Adding a vector shifts the whole sumset by its packed step, left or
    right, and adds it: every subset sum lies in the box, so no nonzero slot
    is shifted out.  Each open ball of radius R lies in the box |x_j - c_j|
    < R, so only the lattice points of that box (clipped to the sums' box)
    are read, each tested by the norm's size as on the sparse path and
    counted once however many balls hold it.
    """
    size = _SIZES[inst.norm]
    balls, box, strides, start, steps, distinct, _ = inst._integer_form
    bits = 8 * nbytes
    acc = 1 << (start * bits)
    for step in steps:
        step *= bits
        acc += acc << step if step >= 0 else acc >> -step
    slots = memoryview(acc.to_bytes(distinct * nbytes, "little")).cast(fmt)

    inside: set[int] = set()
    for c, r, radius in balls:
        # (packed part, offset from the centre) of each k with |x - c| < R
        axes = [[(k * s, low + g * k - cj)
                 for k in range(max(0, (cj - radius - low) // g + 1),
                                min(width, -((low - cj - radius) // g)))]
                for cj, (g, low, width), s in zip(c, box, strides)]
        for cell in product(*axes):
            parts, offsets = zip(*cell)
            key = sum(parts)
            if slots[key] and size(offsets) < r:
                inside.add(key)
    return sum(slots[key] for key in inside)


def equality_instance(n: int, m: int) -> KleitmanInstance:
    """The real-line instance attaining the ceiling: a_i = 1, targets the
    m consecutive integers of the centered binomial window, fattened to
    open radius 1/4."""
    r = (n - m + 1) // 2
    targets = tuple(((Fraction(r + j),), Fraction(1, 4)) for j in range(m))
    return KleitmanInstance(1, ((Fraction(1),),) * n, "absolute", targets)


def exact_sum_distribution(terms: Sequence[LatticeDistribution]) -> LatticeDistribution:
    """Exact law of the sum of independent terms, from the first on (the
    empty sum is the point mass at 0); _check_support caps the first term and
    each convolution, and MAX_SUM_WORK their summed products, before each."""
    return _exact_sum(terms, 0)[0]


def _exact_sum(terms: Sequence[LatticeDistribution],
               work: int) -> tuple[LatticeDistribution, int]:
    """exact_sum_distribution on a MAX_SUM_WORK budget of which work is
    already spent: the law and the work spent once it is formed."""
    total = terms[0] if terms else point_mass(0)
    _check_support(1, len(total.indices))
    for term in terms[1:]:
        size, term_size = len(total.indices), len(term.indices)
        _check_support(size, term_size)
        work += size * term_size
        if work > MAX_SUM_WORK:
            raise SupportCapExceeded(f"exact sum work {work} exceeds cap {MAX_SUM_WORK}")
        total = convolve(total, term)
    return total, work


def _check_support(size: int, term_size: int) -> None:
    """The support cap of one exact sum of laws of size and term_size atoms,
    formed or read: size * term_size against MAX_SUPPORT_PRODUCT as it is."""
    if size * term_size > MAX_SUPPORT_PRODUCT:
        raise SupportCapExceeded(
            f"support product {size}x{term_size} exceeds cap {MAX_SUPPORT_PRODUCT}")


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


# den's bit length -> (format, byte width) of the narrowest array slot that holds
# den; slots are packed in native order and read as little-endian: none if big-endian.
_SLOT_FORMATS = {bits: (fmt, array(fmt).itemsize) for fmt in "QIHB"
                 for bits in range(8 * array(fmt).itemsize + 1) if sys.byteorder == "little"}


def _record(law: LatticeDistribution) -> tuple:
    """The record of a symmetric law, its body the law itself (see _Prefixes)."""
    step, indices = law.step, law.indices
    return (law.den, step.numerator, step.denominator, indices[-1], len(indices), law, {})


def _slots(den: int, top: int, body: int) -> array:
    """The top + 1 slots of a packed body over den."""
    fmt, nbytes = _SLOT_FORMATS[den.bit_length()]
    return array(fmt, body.to_bytes(nbytes * (top + 1), "little"))


def _packed(rec: tuple, stride: int, fmt: str) -> int:
    """Packs a record's weights into one integer of little-endian slots of
    array format fmt, index i in slot stride * i, kept in packs[stride, fmt]."""
    den, _, _, top, _, body, packs = rec
    dense = [0] * (stride * top + 1)
    if isinstance(body, int):
        dense[:: stride or 1] = _slots(den, top, body)  # stride 0: a point mass
    else:
        for i, w in zip(body.indices, body.weights):
            dense[stride * i] = w
    w = packs[stride, fmt] = int.from_bytes(array(fmt, dense).tobytes(), "little")
    return w


def _sum_form(head: tuple, term: tuple) -> tuple:
    """The sum S of two records, packed where it can be: (den, gn, gd, L, width, body).

    _check_support caps the product of their atom counts first.  On the
    common step g = gn/gd of the two, in lowest terms (0/1 for two point
    masses), head is on a*g and term on b*g; S has L = a*top_head +
    b*top_term + 1 lattice points over den = den_head * den_term.  width is
    the (format, byte width) of den's narrowest slot if there is one and L
    <= 2 * count_head * count_term; body is then W_S, the product of the two
    packed at strides a and b: S's weights at stride 1, none carrying as den
    bounds each slot.  Else width is false and body None: S is convolved.
    """
    _check_support(head[4], term[4])
    # convolve's step plan, kept inline: a helper shared with it made family(4)
    # sweep passes about 3 % slower (medians 29.2-30.9 ms -> 30.4-31.3 ms).
    den, gd = head[0] * term[0], math.lcm(head[2], term[2])
    pn, qn = head[1] * (gd // head[2]), term[1] * (gd // term[2])
    gn = math.gcd(pn, qn)
    a, b = pn // (gn or 1), qn // (gn or 1)
    size = a * head[3] + b * term[3] + 1
    if not (width := size <= 2 * head[4] * term[4] and _SLOT_FORMATS.get(den.bit_length())):
        return den, gn, gd, size, width, None
    fmt = width[0]
    return den, gn, gd, size, width, ((head[6].get((a, fmt)) or _packed(head, a, fmt))
                                      * (term[6].get((b, fmt)) or _packed(term, b, fmt)))


class _Prefixes:
    """Called with a key, the ascending codes of some terms, returns the
    record of their sum; its readers answer tail queries on such sums.

    A record of a symmetric law is (den, sn, sd, top, count, body, packs):
    count atoms at indices 0..top on step sn/sd in lowest terms (0/1 for a
    point mass), weighted over den, index 0 at -sn*top/(2*sd); body is the
    law, or its weights packed at stride 1 in den's narrowest slot; packs
    maps (stride, format) to each packed form _packed built.  ``records``
    maps the empty key, each term's code (the caller adds them) and each
    key asked for, or a prefix of one, to its record.  Each sum is formed
    once, from the longest cached prefix one term at a time.
    """

    def __init__(self) -> None:
        self.records: dict = {(): _record(point_mass(0))}

    def __call__(self, key: tuple[int, ...]) -> tuple:
        cached = len(key)
        while (total := self.records.get(key[:cached])) is None:  # the empty key always is
            cached -= 1
        for k in range(cached, len(key)):
            total = self.records[key[: k + 1]] = self._extend(key[:k], key[k])
        return total

    def _extend(self, prefix: tuple[int, ...], code: int) -> tuple:
        """The record of the sum of prefix and the term code: its packed
        body from _sum_form, or the two convolved where it has none."""
        head, term = self.records[prefix], self.records[code]
        den, gn, gd, size, width, body = _sum_form(head, term)
        if width:
            count = size - _slots(den, size - 1, body).count(0)
            return (den, gn, gd, size - 1, count, body, {(1, width[0]): body})
        p_den, sn, sd, top, _, law, _ = head
        if isinstance(law, int):  # a packed prefix, unpacked: its index 0 is at -sn*top/(2*sd)
            law = LatticeDistribution._from_dense(
                Fraction(-sn * top, 2 * sd), Fraction(sn, sd), p_den, _slots(p_den, top, law))
        return _record(convolve(law, term[5]))  # a term's record holds its law

    def reader(self, cuts: Sequence[tuple[int, int]]) -> Callable:
        """The tail query on one grid: read(key) -> (den, tails), P(|S| >
        c/d) = tails[j] / den for the j-th (c, d) of cuts, ascending, c >= 0
        and d > 0, S the sum of key's symmetric terms.  The reader holds
        cuts, which must not change.

        S = P + X, X the last term of key, is read, not kept: _sum_form
        packs S's L weights into slots of one width on the common step g,
        and in W_S * ONES_L, ONES_L the L slots set to 1 (Kronecker
        substitution), slot k < L holds S's weight up to its k-th point and
        slot L + k the weight above it, over den = P.den * X.den, which no
        slot exceeds.  S is symmetric, so its last point at or below t >= 0
        is k = min(floor((floor(2t/g) + L - 1)/2), L - 1), and P(|S| > t) =
        2 * (slot L + k).  Where _sum_form finds no slot, S is formed and
        walked.  _check_support caps each sum, read or formed, as in
        exact_sum_distribution.
        """
        records = self.records
        # (g as (numerator, denominator), L, slot bytes) -> (the slot of each cut, ONES_L)
        plans: dict[tuple[int, int, int, int], tuple[list[int], int]] = {}

        def read(key: tuple[int, ...]) -> tuple[int, list[int]]:
            if key:
                den, gn, gd, size, width, body = _sum_form(
                    records.get(key[:-1]) or self(key[:-1]), records[key[-1]])
                if width:
                    fmt, nbytes = width
                    if (plan := plans.get((gn, gd, size, nbytes))) is None:
                        plan = plans[gn, gd, size, nbytes] = (
                            [min((2 * gd * c // (d * (gn or 1)) + 3 * size - 1) // 2, 2 * size - 1)
                             for c, d in cuts],  # gn = 0 only where L = 1
                            ((1 << 8 * nbytes * size) - 1) // ((1 << 8 * nbytes) - 1))
                    at, ones = plan
                    below = memoryview((body * ones).to_bytes(2 * nbytes * size, "little"))
                    below = below.cast(fmt)
                    return den, [2 * below[k] for k in at]
            den, *_, total, _ = self(key)  # _sum_form found no slot: S's record holds its law
            return den, [2 * gt for gt, _ in _upper_tail_weights(total, cuts)]

        return read


def sweep_checks(
    instances: Iterable[Sequence[LatticeDistribution]],
    h,
    t_grid: Sequence,
) -> Iterator[tuple[int, list[Fraction], list[int], int, list[tuple[int, int]]]]:
    """Exact tails of each instance's sum next to the improved bound.

    Each instance is a list of symmetric lattice laws, p_i = P(|X_i| >= h).
    Yields (index, grid, tails, den, bounds) per instance: grid is the sorted
    t of t_grid in the bound's domain 1 <= m <= n, from one window_indices
    pass, P(|S| > grid[j]) = tails[j] / den, and bounds[j] is the improved
    bound at grid[j] as (numerator, common) of one _window_sums per distinct
    multiset of p, not reduced.  Bound rows are cached by the sorted p pairs.

    Terms are ordered by support size, largest first, then by first sight,
    and an instance's key lists its terms in that order.  Its tails come
    from the _Prefixes reader of its grid, one per n; all of them share
    one _Prefixes, so prefix sums are shared across instances.
    Raises ValueError on a non-symmetric term or over the support cap.
    """
    h = parse_rational(h)
    ts = sorted(map(parse_rational, t_grid))
    cuts = [(t.numerator, t.denominator) for t in ts]
    ms = window_indices(cuts, (h.numerator, h.denominator))  # ascending, as ts is; rejects h <= 0
    low = bisect_left(ms, 1)

    prefixes = _Prefixes()
    # term id -> code: -(support size) * 2^64 + the number of terms seen
    # before it, so ascending codes put the largest supports first.  The
    # last term is then one of fewest atoms, and the order (so the work)
    # does not depend on where terms sit in memory, as ids would.  Ids stay
    # valid because the terms' records keep every term alive.
    code_of: dict[int, int] = {}
    # term code -> its p as a reduced (numerator, denominator) pair.  A p is
    # an abs_tail, so in [0, 1]: _window_sums reads its pair unchecked.
    p_of: dict[int, tuple[int, int]] = {}
    # bound rows: the sorted p pairs of an instance (the bound is
    # permutation invariant) -> the unreduced (improved, common) per grid t
    bound_cache: dict[tuple[tuple[int, int], ...], list[tuple[int, int]]] = {}
    # n -> the t with 1 <= m <= n, the reader of their tails, and their m
    grids: dict[int, tuple[list[Fraction], Callable, list[int]]] = {}

    for index, terms in enumerate(instances):
        try:
            key = tuple(sorted(map(code_of.__getitem__, map(id, terms))))
        except KeyError:  # a term not seen before
            for d in terms:
                if id(d) not in code_of:
                    if not is_symmetric(d):
                        raise ValueError(f"instance {index} has a non-symmetric term") from None
                    code = code_of[id(d)] = len(code_of) - (len(d.indices) << 64)
                    prefixes.records[code] = _record(d)
                    p = abs_tail(d, h, strict=False)
                    p_of[code] = p.numerator, p.denominator
            key = tuple(sorted(map(code_of.__getitem__, map(id, terms))))
        n = len(key)
        if n not in grids:
            high = bisect_right(ms, n, low)
            grid = ts[low:high]
            grids[n] = (grid, prefixes.reader(cuts[low:high]), ms[low:high])
        grid, read, n_ms = grids[n]
        p_key = tuple(sorted(map(p_of.__getitem__, key)))
        bounds = bound_cache.get(p_key)
        if bounds is None:
            sums = _window_sums(p_key, n_ms)
            bounds = bound_cache[p_key] = [sums[m][1::2] for m in n_ms]
        den, tails = read(key)
        yield index, grid, tails, den, bounds


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
    MAX_FAMILY_INSTANCES instances, or whose laws take more than
    MAX_FAMILY_BUILD_WORK lattice points to build, is rejected before any
    law is built; the instances are then generated lazily.
    """
    h = parse_rational(h)
    if h <= 0 or max_n < 0:
        raise ValueError(f"need h > 0 and max_n >= 0, got h={h}, max_n={max_n}")
    if denominator < 1 or radius < 0:
        raise ValueError(f"need denominator >= 1 and radius >= 0, got {denominator}, {radius}")
    # L = C(denominator//2 + radius, radius) laws, each built over the
    # 2*radius + 1 points of its lattice, give C(L + max_n, max_n) - 1
    # multisets of 1..max_n of them.
    width = 2 * radius + 1
    laws = _binomial_at_most(denominator // 2 + radius, radius, MAX_FAMILY_BUILD_WORK // width)
    if laws * width > MAX_FAMILY_BUILD_WORK:
        raise ValueError(
            f"family of denominator={denominator}, radius={radius} exceeds the cap of "
            f"{MAX_FAMILY_BUILD_WORK} lattice points to build its laws"
        )
    cap = MAX_FAMILY_INSTANCES
    if _binomial_at_most(laws + max_n, max_n, cap + 1) > cap + 1:
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
    # u_radius) = denominator.  By stars and bars, (u_radius, ..., u_1) are
    # the gaps before each of radius bars among denominator//2 + radius
    # slots, so they come in lexicographic order, one per combination.
    profiles = []
    for bars in combinations(range(denominator // 2 + radius), radius):
        outer = [b - a - 1 for a, b in zip((-1, *bars), bars)]  # (u_radius, ..., u_1)
        profiles.append((denominator - 2 * sum(outer), *outer[::-1]))
    return profiles


def kanter_supremum_via_stpc(p: Sequence, m: int) -> Fraction:
    """bounds.kanter_supremum(p, m) read off the symmetric three-point
    convolution.

    Equals interval mass of [-m+1, m] under the unit-step three-point
    convolution; must agree with kanter_supremum exactly.
    """
    p = _success_pairs(p)
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    stpc = symmetric_three_point(p, 1)
    return interval_mass(stpc, -m + 1, m, lo_closed=True, hi_closed=True)


def extremal_interval_check(p: Sequence, h, H) -> tuple[Fraction, Fraction]:
    """Supremum of P(sum in ]-H, H] + a) and its attained extremal value.

    Requires h <= H with m := ceil(H/h) < H/h + 1/2.  The supremum equals
    kanter_supremum(p, m); it is attained by the extremal three-point laws
    at the shift a = m*h - H.  Returns (sup, attained); the two must be
    exactly equal.
    """
    p = _success_pairs(p)
    h, H = parse_rational(h), parse_rational(H)
    if not 0 < h <= H:
        raise ValueError(f"need 0 < h <= H, got h={h}, H={H}")
    # H/h = q_num/q_den; m = ceil(H/h), and m < H/h + 1/2 times 2*q_den
    q_num, q_den = H.numerator * h.denominator, H.denominator * h.numerator
    m = -(-q_num // q_den)
    if not 2 * m * q_den < 2 * q_num + q_den:
        raise ValueError(
            f"half-integer condition fails: ceil(H/h)={format_rational(m)} >= H/h + 1/2")
    a = m * h - H
    sup = kanter_supremum(p, m)
    total = symmetric_three_point(p, h)
    attained = interval_mass(total, -H + a, H + a, lo_closed=False, hi_closed=True)
    return sup, attained


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
    nonnegative, and does not claim the bound is attained.  Each (h', s)
    row is one exact n-term sum, so rows * n^2 is capped at
    MAX_TIGHTEN_WORK before the first sum, and the rows' sums share one
    MAX_SUM_WORK budget, checked before each product: a row whose h' is
    far from h has about n^2 atoms.
    """
    p = _success_pairs(p)
    h = parse_rational(h)
    hn, hd = h.numerator, h.denominator
    n = len(p)
    if not 1 <= m <= n - 1:
        raise ValueError(f"need 1 <= m <= n-1 = {n - 1} so that t = m*h < n*h")
    t = m * h
    [window] = window_indices([(m * hn, hd)], (hn, hd))  # m + 1; rejects h <= 0
    _, improved, _, common = _window_sums(p, (window,))[window]
    bound = Fraction(improved, common)
    outer = sorted({h} | {parse_rational(v) for v in h_grid})
    if any(v < h for v in outer):
        raise ValueError("grid values h' must satisfy h' >= h")
    splits = sorted({parse_rational(s) for s in split_grid})
    if not splits or any(s < 0 or s > 1 for s in splits):
        raise ValueError("need at least one mass split, each in [0, 1]")
    rows = len(outer) * len(splits)
    if rows * n * n > MAX_TIGHTEN_WORK:
        raise ValueError(f"{rows} grid rows x {n}^2 for {n} terms exceed cap {MAX_TIGHTEN_WORK}")

    best: tuple[Fraction, tuple[Fraction, Fraction]] | None = None
    work = 0
    for h2 in outer:
        for s in splits:
            sn, sd = s.numerator, s.denominator
            terms = []
            for a, b in p:
                # s*p_i/2 and (1-s)*p_i/2 over 2*den(s)*den(p_i); the core merges
                # +-h with +-h' when h' = h, and prunes zero masses
                near, far = (sn * a, 2 * sd * b), ((sd - sn) * a, 2 * sd * b)
                terms.append(LatticeDistribution._from_pairs(
                    ((0, (b - a, b)), (-h, near), (h, near), (-h2, far), (h2, far))
                ))
            total, work = _exact_sum(terms, work)
            value = half_mass(total, t)
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
    terms are symmetric by construction, and construction raises ValueError
    for an atoms literal that is not, and for fewer than 1000 replications.
    """

    seed: int
    replications: int
    terms: tuple[dict, ...]

    def __post_init__(self) -> None:
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")
        if self.replications < 1000:
            raise ValueError("need at least 1000 replications")
        if not self.terms:
            raise ValueError("need at least one term")
        self._samplers  # every term is parsed, and checked, once: here

    @cached_property
    def _samplers(self) -> tuple[Callable[[random.Random, int], list[float]], ...]:
        samplers = []
        for i, term in enumerate(self.terms):
            try:
                samplers.append(_sampler(term))
            except KeyError as exc:
                raise ValueError(f"term {i} {term!r} has no {exc}") from None
            except (AttributeError, TypeError, ValueError) as exc:
                raise ValueError(f"term {i} {term!r}: {exc}") from None
        return tuple(samplers)

    @cached_property
    def _sorted_abs_sample(self) -> list[float]:
        # The seed fixes the draw, so one sample answers every t asked of the
        # config.  A NaN sum (magnitudes that overflow to opposite infinities)
        # never exceeds t; leaving it out keeps the sample sorted.
        rng = random.Random(self.seed)
        size = self.replications
        total = [0.0] * size
        for sampler in self._samplers:
            signs = rng.choices((-1.0, 1.0), k=size)
            magnitudes = sampler(rng, size)
            total = [acc + sign * x for acc, sign, x in zip(total, signs, magnitudes)]
        return sorted(a for a in map(abs, total) if a == a)


def _sampler(term: dict) -> Callable[[random.Random, int], list[float]]:
    """A term's magnitude draw, (rng, size) -> size draws of |X|, built once
    from the term: its kind is read here and nowhere else."""
    kind = term.get("kind")
    if kind == "atoms":
        law = LatticeDistribution.from_masses(term["atoms"])
        if not is_symmetric(law):  # a fair sign times |x| would draw another law
            raise ValueError("atoms law is not symmetric")
        magnitudes, weights = [abs(float(x)) for x in law.support], law.weights
        return lambda rng, size: rng.choices(magnitudes, weights, k=size)
    if kind == "uniform":
        scale = float(parse_rational(term["scale"]))
        return lambda rng, size: [rng.uniform(0.0, scale) for _ in range(size)]
    if kind == "gaussian":
        sigma = float(term["sigma"])
        if not math.isfinite(sigma):  # every draw would be NaN or infinite
            raise ValueError(f"gaussian sigma must be finite, got {term['sigma']!r}")
        return lambda rng, size: [abs(rng.gauss(0.0, sigma)) for _ in range(size)]
    raise ValueError(f"unknown sampler kind {kind!r}")


def monte_carlo_tail(config: SampleConfig, t: float) -> tuple[float, float]:
    """Empirical P(|S| > t) with its binomial standard error.

    Deterministic given the seed: a single ``random.Random(seed)`` drives
    all draws in a fixed term order.  The config keeps its sorted |S|
    sample, so further t on it cost one bisection each.
    """
    if not t >= 0:  # also rejects NaN
        raise ValueError(f"t must be nonnegative, got {t}")
    size = config.replications
    sample = config._sorted_abs_sample
    estimate = (len(sample) - bisect_right(sample, t)) / size
    std_error = math.sqrt(estimate * (1.0 - estimate) / size)
    return estimate, std_error
