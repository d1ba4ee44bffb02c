"""Exact finite discrete distributions on rational lattices.

A :class:`LatticeDistribution` is a finite probability mass function whose
support lies on a lattice ``offset + step*Z``.  It is stored as integers over
one common denominator, so convolution is an integer polynomial product and
every tail, interval or point query is one walk down the integer weights
(``_upper_tail_weights``); a ``Fraction`` is built only for a value handed
back to the caller.  Every constructor from (x, mass) pairs (the atoms
``__init__`` takes, ``from_masses``, ``from_json_dict`` and ``point_mass``)
merges, prunes and validates masses in one integer core,
``LatticeDistribution._from_pairs``.  There is no floating point in this
module.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from typing import Iterable, Mapping, Sequence

from .rational import format_rational, parse_rational, rational_pair


class LatticeDistribution:
    """Finite exact pmf on the lattice ``offset + step*Z``.

    ``LatticeDistribution(atoms)`` takes (support point, mass) pairs of
    Fractions, sorted ascending.  Every mass must be positive, the masses
    must sum exactly to 1 and the support must be strictly increasing; the
    sum is checked, and the integer form built, by the core _from_pairs.

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
        prev = None
        for x, mass in atoms:
            if not isinstance(x, Fraction) or not isinstance(mass, Fraction):
                raise ValueError("atoms must hold Fractions")
            if mass <= 0:
                raise ValueError(f"mass at {x} must be positive, got {mass}")
            if prev is not None and x <= prev:
                raise ValueError("support must be strictly increasing")
            prev = x
        self._init(*LatticeDistribution._from_pairs(atoms)._key())
        object.__setattr__(self, "_atoms", atoms)

    def _init(self, offset, step, den, indices, weights) -> None:
        set_ = object.__setattr__
        set_(self, "offset", offset)
        set_(self, "step", step)
        set_(self, "den", den)
        set_(self, "indices", indices)
        set_(self, "weights", weights)
        set_(self, "_atoms", None)

    @staticmethod
    def _from_pairs(pairs: Iterable[tuple]) -> "LatticeDistribution":
        """The one constructor core: the law of (x, mass) pairs of rationals
        as rational_pair reads them.

        Every x is put over one common denominator and every mass over
        another.  Masses at equal x are merged, then zero masses pruned; the
        rest must be positive, checked in ascending order of x, and sum to
        1.  No Fraction atom is built.
        """
        pairs = [(rational_pair(x), rational_pair(mass)) for x, mass in pairs]
        scale = math.lcm(*(xd for (_, xd), _ in pairs))
        den = math.lcm(*(md for _, (_, md) in pairs))
        merged: dict[int, int] = {}  # x * scale -> mass * den
        get = merged.get
        for (xn, xd), (mn, md) in pairs:
            key = xn * (scale // xd)
            merged[key] = get(key, 0) + mn * (den // md)
        points = sorted(x for x, w in merged.items() if w)
        if not points:
            raise ValueError("distribution needs at least one atom")
        weights = [merged[x] for x in points]
        for x, w in zip(points, weights):
            if w < 0:
                raise ValueError(f"mass at {format_rational((x, scale))} must be positive, "
                                 f"got {format_rational((w, den))}")
        if sum(weights) != den:
            raise ValueError(f"masses must sum to 1, got {format_rational((sum(weights), den))}")
        first = points[0]
        return LatticeDistribution._from_lattice(
            Fraction(first, scale), Fraction(1, scale), den, [x - first for x in points], weights
        )

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
            d._init(offset + step * first if first else offset, Fraction(0), 1, (0,), (1,))
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
        """Build from a mapping of support point to mass, through the
        constructor core _from_pairs: masses at equal points ("1" and "2/2")
        are merged, then zero masses pruned."""
        return LatticeDistribution._from_pairs(masses.items())

    @property
    def support(self) -> tuple[Fraction, ...]:
        return tuple(x for x, _ in self.atoms)

    def mass(self, x) -> Fraction:
        [(gt, ge)] = _upper_tail_weights(self, [rational_pair(x)])
        return Fraction(ge - gt, self.den)

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
        """Read ``{"atoms": [{"x": ..., "mass": ...}, ...]}`` through the
        constructor core _from_pairs, so straight into the integer form: the
        law and the errors are those of from_masses on the same pairs."""
        try:
            atoms = data["atoms"]
        except (KeyError, TypeError) as exc:
            raise ValueError("distribution literal must have an 'atoms' list") from exc
        if not isinstance(atoms, list) or not atoms:
            raise ValueError("'atoms' must be a non-empty list")
        pairs = []
        for entry in atoms:
            try:
                pairs.append((entry["x"], entry["mass"]))
            except (KeyError, TypeError) as exc:
                raise ValueError(f"bad atom entry: {entry!r}") from exc
        return LatticeDistribution._from_pairs(pairs)


def _upper_tail_weights(d: LatticeDistribution,
                        cuts: Sequence[tuple[int, int]]) -> list[tuple[int, int]]:
    """Numerators over d.den of the pair (P(X > num/den), P(X >= num/den))
    for each (num, den) of cuts, given in ascending order with den > 0.

    It serves every tail, interval and point query on a built law (the
    sweep's packed read, oracles._Prefixes.reader, places its own cuts on
    packed sums, for which no law is built).  One walk down d's atoms from
    the top, taking the cuts from the highest: one integer floor per cut,
    and only the atoms above the lowest cut are visited.
    """
    on, od = d.offset.numerator, d.offset.denominator
    sn, sd = d.step.numerator, d.step.denominator
    indices, weights = d.indices, d.weights
    j = len(indices)
    tail = 0
    out = []
    last = None
    for num, den in reversed(cuts):
        if den != last:  # cuts often share a denominator
            last, base, div = den, on * den, den * od * sn
        diff = num * od - base  # sign of num/den - offset
        # the atoms above num/den are those with index > q
        q = diff * sd // div if sn else -(diff < 0)
        while j and indices[j - 1] > q:
            j -= 1
            tail += weights[j]
        # the atom of index q sits on num/den when the floor is exact
        on_cut = j and indices[j - 1] == q and (diff * sd == q * div if sn else not diff)
        out.append((tail, tail + weights[j - 1] if on_cut else tail))
    out.reverse()
    return out


def point_mass(c=0) -> LatticeDistribution:
    return LatticeDistribution._from_pairs(((c, 1),))


def _success_pairs(values: Iterable) -> tuple[tuple[int, int], ...]:
    """Validate a vector of exceedance probabilities, each in [0, 1], as
    integer pairs (a, b) with 0 <= a <= b, as rational_pair reads them."""
    p = tuple(map(rational_pair, values))
    if not p:
        raise ValueError("success vector must be non-empty")
    for a, b in p:
        if not 0 <= a <= b:
            raise ValueError(f"success probability {format_rational((a, b))} outside [0, 1]")
    return p


def as_success_vector(values: Iterable) -> tuple[Fraction, ...]:
    """Validate a vector of exceedance probabilities, each in [0, 1]."""
    return tuple(Fraction(a, b) for a, b in _success_pairs(values))


def _poisson_binomial_weights(p: Sequence[tuple[int, int]]) -> tuple[list[int], int]:
    """Integer pmf of the success count: (c_0, ..., c_n) and D with
    B_p({k}) = c_k / D, for p as _success_pairs returns it.

    Multiplies the generating polynomial by (b - a) + a*z for each
    p_i = a/b: the Poisson binomial recurrence, on integers.
    """
    coeffs, den = [1], 1
    for a, b in p:
        q = b - a
        coeffs = [q * c + a * prev for c, prev in zip(coeffs + [0], [0] + coeffs)]
        den *= b
    return coeffs, den


def poisson_binomial(p: Sequence) -> LatticeDistribution:
    """Exact law of the number of successes among independent Bernoulli(p_i)."""
    coeffs, den = _poisson_binomial_weights(_success_pairs(p))
    return LatticeDistribution._from_dense(Fraction(0), Fraction(1), den, coeffs)


def extremal_distribution(p: Sequence, h) -> list[LatticeDistribution]:
    """The n three-point laws (1-p_i) d_0 + (p_i/2)(d_{-h} + d_{+h}).

    Their convolution attains the concentration supremum among all
    independent symmetric terms with P(|X_i| < h) <= 1 - p_i.
    """
    p = _success_pairs(p)
    h = parse_rational(h)
    if h <= 0:
        raise ValueError(f"h must be positive, got {h}")
    return [LatticeDistribution._from_dense(-h, h, 2 * b, (a, 2 * (b - a), a)) for a, b in p]


def symmetric_three_point(p: Sequence, h) -> LatticeDistribution:
    """Law of the sum of the extremal three-point laws extremal_distribution(p, h)."""
    return reduce(convolve, extremal_distribution(p, h))


def convolve(d1: LatticeDistribution, d2: LatticeDistribution) -> LatticeDistribution:
    """Exact law of the sum of independent draws from d1 and d2.

    The product of the two weight polynomials on the common lattice step =
    gcd(step1, step2), over the product of the denominators, with d1's index
    i at i*a and d2's j at j*b (a = step1/step, b = step2/step; a point mass
    has multiplier 0, and two have step 0).  It is already canonical: its
    indices include every i*a and every j*b (each input has index 0), so
    their gcd divides gcd(a, b) = 1; and a product of weight polynomials of
    content 1 has content 1 (Gauss's lemma), all its coefficients positive.
    """
    s, t = d1.step, d2.step
    gd = math.lcm(s.denominator, t.denominator)
    pn, qn = s.numerator * (gd // s.denominator), t.numerator * (gd // t.denominator)
    gn = math.gcd(pn, qn)
    a, b = pn // (gn or 1), qn // (gn or 1)
    step = s if a == 1 else t if b == 1 else Fraction(gn, gd)
    out = object.__new__(LatticeDistribution)
    right = [(j * b, w) for j, w in zip(d2.indices, d2.weights)]
    # Sparse accumulation: memory follows the number of products, never the
    # width of the lattice range, however wide the gaps.
    acc: dict[int, int] = {}
    get = acc.get
    for i, v in zip(d1.indices, d1.weights):
        base = i * a
        for jb, w in right:
            k = base + jb
            acc[k] = get(k, 0) + v * w
    indices = tuple(sorted(acc))
    out._init(
        d1.offset + d2.offset, step, d1.den * d2.den, indices, tuple(map(acc.__getitem__, indices))
    )
    return out


def interval_mass(
    d: LatticeDistribution,
    lo,
    hi,
    lo_closed: bool = True,
    hi_closed: bool = True,
) -> Fraction:
    """Exact mass of the interval between lo and hi with chosen endpoint rules."""
    cuts = lo, hi = rational_pair(lo), rational_pair(hi)
    if lo[0] * hi[1] > hi[0] * lo[1]:
        raise ValueError(f"need lo <= hi, got {format_rational(lo)} > {format_rational(hi)}")
    [(lo_gt, lo_ge), (hi_gt, hi_ge)] = _upper_tail_weights(d, cuts)
    # the weight from lo up, less the weight past hi; ]q, q[ holds none
    inside = (lo_ge if lo_closed else lo_gt) - (hi_gt if hi_closed else hi_ge)
    return Fraction(max(inside, 0), d.den)


def abs_tail(d: LatticeDistribution, t, strict: bool = True) -> Fraction:
    """Exact P(|X| > t) (strict) or P(|X| >= t) (weak): the mass outside
    [-t, t] or outside ]-t, t[."""
    closed, open_ = _abs_inside(d, t)
    return Fraction(d.den - (closed if strict else open_), d.den)


def half_mass(d: LatticeDistribution, t) -> Fraction:
    """P(|X| > t) + (1/2) P(|X| = t)."""
    closed, open_ = _abs_inside(d, t)
    return Fraction(2 * d.den - closed - open_, 2 * d.den)


def _abs_inside(d: LatticeDistribution, t) -> tuple[int, int]:
    """Numerators over d.den of P(|X| <= t) and P(|X| < t), for t >= 0.

    Both are counts inside [-t, t] and ]-t, t[, never one-sided tails added
    up, which would count an atom at 0 twice when t = 0.
    """
    tn, td = rational_pair(t)
    if tn < 0:
        raise ValueError(f"t must be nonnegative, got {format_rational((tn, td))}")
    [(lo_gt, lo_ge), (hi_gt, hi_ge)] = _upper_tail_weights(d, [(-tn, td), (tn, td)])
    return lo_ge - hi_gt, max(lo_gt - hi_ge, 0)


def is_symmetric(d: LatticeDistribution) -> bool:
    """True iff the law equals the law of its negation."""
    indices, weights = d.indices, d.weights
    last = indices[-1]
    offset, step = d.offset, d.step
    # x -> -x sends offset + step*i to offset + step*(last - i) exactly when
    # the support is centred on 0: 2*offset + step*last == 0, over the
    # positive denominators' product
    return (
        2 * offset.numerator * step.denominator + step.numerator * last * offset.denominator == 0
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
