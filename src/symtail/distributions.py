"""Exact finite discrete distributions on rational lattices.

A :class:`LatticeDistribution` is a finite probability mass function whose
support lies on a lattice ``offset + step*Z``.  It is stored as integers over
one common denominator, so convolution is an integer polynomial product and
tail or interval queries are integer prefix sums; a ``Fraction`` is built
only for a value handed back to the caller.  There is no floating point in
this module.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import reduce
from itertools import accumulate
from typing import Iterable, Mapping, Sequence

from .rational import format_rational, parse_rational


def _frac_gcd(a: Fraction, b: Fraction) -> Fraction:
    # gcd of p1/q1, p2/q2 in lowest terms is gcd(p1,p2)/lcm(q1,q2)
    num = math.gcd(a.numerator, b.numerator)
    den = a.denominator * b.denominator // math.gcd(a.denominator, b.denominator)
    return Fraction(num, den)


class LatticeDistribution:
    """Finite exact pmf on the lattice ``offset + step*Z``.

    ``LatticeDistribution(atoms)`` takes (support point, mass) pairs of
    Fractions, sorted ascending.  Every mass must be positive, the masses
    must sum exactly to 1 and the support must be strictly increasing.

    The law is held as integers: the atom at ``offset + step*indices[j]``
    has mass ``weights[j] / den``.  ``offset`` is the first support point,
    ``step`` the gcd of the gaps (0 for a point mass), ``indices`` strictly
    increase from 0 and ``weights`` are positive and sum to ``den``.  The
    form is canonical (the indices and the weights each have gcd 1), so
    equal laws compare and hash equal.  ``atoms`` is built from it on first
    use.  Instances are immutable.
    """

    __slots__ = ("offset", "step", "den", "indices", "weights", "_atoms")

    offset: Fraction
    step: Fraction
    den: int
    indices: tuple[int, ...]
    weights: tuple[int, ...]

    def __init__(self, atoms: Iterable[tuple[Fraction, Fraction]]) -> None:
        atoms = tuple((x, mass) for x, mass in atoms)
        if not atoms:
            raise ValueError("distribution needs at least one atom")
        prev = None
        for x, mass in atoms:
            if not isinstance(x, Fraction) or not isinstance(mass, Fraction):
                raise ValueError("atoms must hold Fractions")
            if mass <= 0:
                raise ValueError(f"mass at {x} must be positive, got {mass}")
            if prev is not None and x <= prev:
                raise ValueError("support must be strictly increasing")
            prev = x
        den = math.lcm(*(mass.denominator for _, mass in atoms))
        weights = tuple(mass.numerator * (den // mass.denominator) for _, mass in atoms)
        if sum(weights) != den:
            raise ValueError(f"masses must sum to 1, got {Fraction(sum(weights), den)}")
        scale = math.lcm(*(x.denominator for x, _ in atoms))
        points = [x.numerator * (scale // x.denominator) for x, _ in atoms]
        gap = math.gcd(*(v - points[0] for v in points))
        indices = tuple((v - points[0]) // gap for v in points) if gap else (0,)
        self._init(atoms[0][0], Fraction(gap, scale), den, indices, weights)
        object.__setattr__(self, "_atoms", atoms)

    def _init(self, offset, step, den, indices, weights) -> None:
        for name, value in zip(
            ("offset", "step", "den", "indices", "weights", "_atoms"),
            (offset, step, den, indices, weights, None),
        ):
            object.__setattr__(self, name, value)

    @classmethod
    def _from_lattice(
        cls,
        offset: Fraction,
        step: Fraction,
        den: int,
        indices: Sequence[int],
        weights: Sequence[int],
    ) -> "LatticeDistribution":
        """Canonical law from positive weights at strictly increasing indices
        (any start, any gcd) over den, which the weights must sum to."""
        d = object.__new__(cls)
        first = indices[0]
        gap = math.gcd(*indices) if first == 0 else math.gcd(*(i - first for i in indices))
        if not gap:
            d._init(offset + step * first, Fraction(0), 1, (0,), (1,))
            return d
        if first or gap != 1:
            offset += step * first
            step *= gap
            indices = [(i - first) // gap for i in indices]
        content = math.gcd(*weights)
        if content != 1:
            den //= content
            weights = [w // content for w in weights]
        d._init(offset, step, den, tuple(indices), tuple(weights))
        return d

    @classmethod
    def _from_dense(
        cls, offset: Fraction, step: Fraction, den: int, coeffs: Sequence[int]
    ) -> "LatticeDistribution":
        """Canonical law from nonnegative weights at indices 0, 1, 2, ..."""
        indices = [k for k, c in enumerate(coeffs) if c]
        return cls._from_lattice(offset, step, den, indices, [coeffs[k] for k in indices])

    def __setattr__(self, name, value):
        raise AttributeError("LatticeDistribution is immutable")

    def __reduce__(self):
        return (LatticeDistribution._from_lattice, self._key())

    def _key(self) -> tuple:
        return (self.offset, self.step, self.den, self.indices, self.weights)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LatticeDistribution):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"LatticeDistribution(atoms={self.atoms!r})"

    @property
    def atoms(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """(support point, mass) pairs in ascending order."""
        if self._atoms is None:
            offset, step, den = self.offset, self.step, self.den
            atoms = tuple(
                (offset + step * i, Fraction(w, den))
                for i, w in zip(self.indices, self.weights)
            )
            object.__setattr__(self, "_atoms", atoms)
        return self._atoms

    @staticmethod
    def from_masses(masses: Mapping) -> "LatticeDistribution":
        """Build from a mapping of support point to mass; zero masses are pruned."""
        cleaned = {}
        for x, mass in masses.items():
            x = parse_rational(x)
            mass = parse_rational(mass)
            if mass == 0:
                continue
            cleaned[x] = cleaned.get(x, Fraction(0)) + mass
        return LatticeDistribution(tuple(sorted(cleaned.items())))

    @property
    def support(self) -> tuple[Fraction, ...]:
        return tuple(x for x, _ in self.atoms)

    def mass(self, x) -> Fraction:
        x = parse_rational(x)
        below, at_or_below = _ranker(self)(x.numerator, x.denominator)
        if at_or_below == below:
            return Fraction(0)
        return Fraction(self.weights[below], self.den)

    @property
    def span(self) -> Fraction:
        """Minimal span: gcd of support gaps; 0 for a single point mass."""
        return self.step

    def to_json_dict(self) -> dict:
        return {
            "atoms": [
                {"x": format_rational(x), "mass": format_rational(m)}
                for x, m in self.atoms
            ]
        }

    @staticmethod
    def from_json_dict(data: Mapping) -> "LatticeDistribution":
        try:
            atoms = data["atoms"]
        except (KeyError, TypeError) as exc:
            raise ValueError("distribution literal must have an 'atoms' list") from exc
        if not isinstance(atoms, list) or not atoms:
            raise ValueError("'atoms' must be a non-empty list")
        masses: dict[Fraction, Fraction] = {}
        for entry in atoms:
            try:
                x = parse_rational(entry["x"])
                m = parse_rational(entry["mass"])
            except (KeyError, TypeError) as exc:
                raise ValueError(f"bad atom entry: {entry!r}") from exc
            masses[x] = masses.get(x, Fraction(0)) + m
        return LatticeDistribution.from_masses(masses)


def _ranker(d: LatticeDistribution):
    """ranks(num, den) -> (number of atoms below num/den, number at or below),
    for den > 0, computed on integers."""
    on, od = d.offset.numerator, d.offset.denominator
    sn, sd = d.step.numerator, d.step.denominator
    indices = d.indices

    def ranks(num: int, den: int) -> tuple[int, int]:
        diff = num * od - on * den  # sign of num/den - offset
        if not sn:
            return int(diff > 0), int(diff >= 0)
        q, r = divmod(diff * sd, den * od * sn)  # floor((x - offset) / step)
        at_or_below = bisect_right(indices, q)
        return (bisect_left(indices, q) if r == 0 else at_or_below), at_or_below

    return ranks


def _abs_tail_weights(d: LatticeDistribution, ts: Iterable[Fraction], strict: bool) -> list[int]:
    """Numerators over d.den of P(|X| > t) (strict) or P(|X| >= t) (weak)
    for each t >= 0."""
    ranks = _ranker(d)
    cum = list(accumulate(d.weights, initial=0))
    out = []
    for t in ts:
        num, den = t.numerator, t.denominator
        if not strict and num == 0:
            out.append(d.den)
            continue
        below_hi, at_or_below_hi = ranks(num, den)
        below_lo, at_or_below_lo = ranks(-num, den)
        if strict:
            out.append(d.den - cum[at_or_below_hi] + cum[below_lo])
        else:
            out.append(d.den - cum[below_hi] + cum[at_or_below_lo])
    return out


def point_mass(c=0) -> LatticeDistribution:
    return LatticeDistribution(((parse_rational(c), Fraction(1)),))


def as_success_vector(values: Iterable) -> tuple[Fraction, ...]:
    """Validate a vector of exceedance probabilities, each in [0, 1]."""
    p = tuple(parse_rational(v) for v in values)
    if not p:
        raise ValueError("success vector must be non-empty")
    for v in p:
        if v < 0 or v > 1:
            raise ValueError(f"success probability {v} outside [0, 1]")
    return p


def _poisson_binomial_weights(p: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integer pmf of the success count: (c_0, ..., c_n) and D with
    B_p({k}) = c_k / D.

    Multiplies the generating polynomial by (b - a) + a*z for each
    p_i = a/b: the Poisson binomial recurrence, on integers.
    """
    coeffs, den = [1], 1
    for pi in p:
        a, b = pi.numerator, pi.denominator
        q = b - a
        coeffs = [q * c + a * prev for c, prev in zip(coeffs + [0], [0] + coeffs)]
        den *= b
    return coeffs, den


def poisson_binomial(p: Sequence) -> LatticeDistribution:
    """Exact law of the number of successes among independent Bernoulli(p_i)."""
    coeffs, den = _poisson_binomial_weights(as_success_vector(p))
    return LatticeDistribution._from_dense(Fraction(0), Fraction(1), den, coeffs)


def extremal_distribution(p: Sequence, h) -> list[LatticeDistribution]:
    """The n three-point laws (1-p_i) d_0 + (p_i/2)(d_{-h} + d_{+h}).

    Their convolution attains the concentration supremum among all
    independent symmetric terms with P(|X_i| < h) <= 1 - p_i.
    """
    p = as_success_vector(p)
    h = parse_rational(h)
    if h <= 0:
        raise ValueError(f"h must be positive, got {h}")
    return [
        LatticeDistribution._from_dense(-h, h, 2 * b, (a, 2 * (b - a), a))
        for a, b in ((pi.numerator, pi.denominator) for pi in p)
    ]


def symmetric_three_point(p: Sequence, h) -> LatticeDistribution:
    """Law of the sum of the extremal three-point laws extremal_distribution(p, h)."""
    return reduce(convolve, extremal_distribution(p, h))


def convolve(d1: LatticeDistribution, d2: LatticeDistribution) -> LatticeDistribution:
    """Exact law of the sum of independent draws from d1 and d2.

    The product of the two weight polynomials on the common lattice
    gcd(step1, step2), over the product of the denominators.
    """
    if not d1.step:
        d1, d2 = d2, d1
    if not d2.step:
        offset = d1.offset + d2.offset
        return LatticeDistribution._from_lattice(offset, d1.step, d1.den, d1.indices, d1.weights)
    if d1.step == d2.step:
        step, a, b = d1.step, 1, 1
    else:
        step = _frac_gcd(d1.step, d2.step)
        a = d1.step.numerator * step.denominator // (d1.step.denominator * step.numerator)
        b = d2.step.numerator * step.denominator // (d2.step.denominator * step.numerator)
    right = [(j * b, w) for j, w in zip(d2.indices, d2.weights)]
    # Sparse accumulation: memory follows the number of products, never the
    # width of the lattice range, however wide the gaps.
    acc: dict[int, int] = {}
    for i, v in zip(d1.indices, d1.weights):
        base = i * a
        for jb, w in right:
            acc[base + jb] = acc.get(base + jb, 0) + v * w
    indices = sorted(acc)
    return LatticeDistribution._from_lattice(
        d1.offset + d2.offset, step, d1.den * d2.den, indices, [acc[k] for k in indices]
    )


def interval_mass(
    d: LatticeDistribution,
    lo,
    hi,
    lo_closed: bool = True,
    hi_closed: bool = True,
) -> Fraction:
    """Exact mass of the interval between lo and hi with chosen endpoint rules."""
    lo = parse_rational(lo)
    hi = parse_rational(hi)
    if lo > hi:
        raise ValueError(f"need lo <= hi, got {lo} > {hi}")
    ranks = _ranker(d)
    below_lo, at_or_below_lo = ranks(lo.numerator, lo.denominator)
    below_hi, at_or_below_hi = ranks(hi.numerator, hi.denominator)
    start = below_lo if lo_closed else at_or_below_lo
    stop = at_or_below_hi if hi_closed else below_hi
    return Fraction(sum(d.weights[start:stop]), d.den)


def abs_tail(d: LatticeDistribution, t, strict: bool = True) -> Fraction:
    """Exact P(|X| > t) (strict) or P(|X| >= t) (weak)."""
    t = parse_rational(t)
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    return Fraction(_abs_tail_weights(d, (t,), strict)[0], d.den)


def half_mass(d: LatticeDistribution, t) -> Fraction:
    """P(|X| > t) + (1/2) P(|X| = t)."""
    strict = abs_tail(d, t, strict=True)
    weak = abs_tail(d, t, strict=False)
    return strict + Fraction(1, 2) * (weak - strict)


def is_symmetric(d: LatticeDistribution) -> bool:
    """True iff the law equals the law of its negation."""
    indices, weights = d.indices, d.weights
    last = indices[-1]
    # x -> -x sends offset + step*i to offset + step*(last - i) exactly when
    # the support is centred on 0
    return (
        2 * d.offset + d.step * last == 0
        and weights == weights[::-1]
        and all(i + j == last for i, j in zip(indices, reversed(indices)))
    )


def is_unimodal_with_span(d: LatticeDistribution, h) -> bool:
    """Unimodality with span h.

    For h > 0: the support must embed in h*Z + a for some offset a, and the
    full mass sequence over the lattice points between min and max of the
    support (unoccupied points counting as zero) must be weakly increasing
    up to some peak and weakly decreasing after it.  For h = 0 the only
    purely atomic laws that qualify are single point masses.

    A zero between two positive masses breaks that pattern, so a law with
    more than one atom qualifies only if its span is h and its lattice
    indices are contiguous; the check is linear in the number of atoms.
    """
    h = parse_rational(h)
    if h < 0:
        raise ValueError(f"span must be nonnegative, got {h}")
    if len(d.indices) == 1:
        return True
    if d.step != h or d.indices[-1] != len(d.indices) - 1:
        return False
    descending = False
    for prev, cur in zip(d.weights, d.weights[1:]):
        if cur < prev:
            descending = True
        elif cur > prev and descending:
            return False
    return True


def _abs_profile(d: LatticeDistribution, scale: int) -> dict[int, int]:
    # Weight at each |x| * scale; scale clears the denominators of offset
    # and step, so every key is an integer.
    start = d.offset.numerator * (scale // d.offset.denominator)
    stride = d.step.numerator * (scale // d.step.denominator)
    profile: dict[int, int] = {}
    for i, w in zip(d.indices, d.weights):
        a = abs(start + stride * i)
        profile[a] = profile.get(a, 0) + w
    return profile


def abs_stochastically_geq(u: LatticeDistribution, v: LatticeDistribution) -> bool:
    """True iff P(|U| >= t) >= P(|V| >= t) for every real t.

    For finite laws it suffices to compare at the absolute support points of
    both distributions (the weak tails are right-continuous step functions
    jumping only there).
    """
    scale = math.lcm(
        u.offset.denominator, u.step.denominator, v.offset.denominator, v.step.denominator
    )
    pu, pv = _abs_profile(u, scale), _abs_profile(v, scale)
    tail_u = tail_v = 0
    for a in sorted(pu.keys() | pv.keys(), reverse=True):
        tail_u += pu.get(a, 0)
        tail_v += pv.get(a, 0)
        if tail_u * v.den < tail_v * u.den:
            return False
    return True
