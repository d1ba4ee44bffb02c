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

The improved bound is a first-passage probability.  2^k - F_k(m) counts the
+-1 walks of k steps that reach m (exactmath), so

    improved_bound = P(T_m <= K) = sum_{i >= m} P(T_m = i) P(K >= i),

where T_m is the first time a fair +-1 walk reaches m and K ~ B_p is
independent of it; P(T_m = i) = 2^{-i} d_i(m) is nonzero only for
i = m, m+2, ....  The sums read it in that form: one pass over the pmf per
call forms the tails P(K >= i) and the Nagaev suffix sums, and each m then
takes about (n - m)/2 products.

All three depend on t only through m.  window_indices, the one place m is
formed, takes one integer floor per t of a grid; the domain 0 <= t < n*h
is 1 <= m <= n.  _window_sums, the one evaluator, forms the sums over one
pmf, once per distinct m, as unreduced integer numerators over one common
denominator, and checks each m once with _checked_sums, as BoundReport
checks its Fractions.  Each m reads the first-passage counts d_m(m),
d_{m+2}(m), ... of exactmath._first_passages, so no window sum is cached.
The kernels take integer pairs, p as distributions._success_pairs returns
it, and read no rational.  The CLI and the oracles read _window_sums
directly; bound_table and the single-value functions wrap it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import lcm
from operator import mul
from typing import Iterable, Mapping, Sequence

from .distributions import _poisson_binomial_weights, _success_pairs
from .exactmath import _first_passages
from .rational import format_rational, parse_rational, rational_pair


@dataclass(frozen=True)
class BoundReport:
    """Both bounds at a given (t, h) plus the per-k decomposition for audit.

    per_k_terms lists (k, B_p({k}), improved weight 1 - 2^{-k} F_k(m)) for
    every k in 0..n; weights for k <= t/h do not enter the bounds but make
    the complement identity improved = 1 - kanter_sup checkable from the
    report alone.  It is built from p, and one _first_passages pass, when read.
    Construction raises ValueError unless the three values over their least
    common denominator pass _checked_sums.
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
        pairs = [rational_pair(x) for x in (self.nagaev, self.improved, self.kanter_sup)]
        common = lcm(*(den for _, den in pairs))
        _checked_sums(tuple(num * (common // den) for num, den in pairs) + (common,), self.m)

    @property
    def per_k_terms(self) -> tuple[tuple[int, Fraction, Fraction], ...]:
        coeffs, den = _poisson_binomial_weights([(q.numerator, q.denominator) for q in self.p])
        # 2^k - F_k(m) counts the walks of k steps that reach m: twice those
        # of k - 1 steps, plus those that first reach m at step k.
        steps = [0] * len(coeffs)
        steps[self.m::2] = _first_passages(self.n, self.m)
        reached = accumulate(steps, lambda r, d: 2 * r + d)
        return tuple((k, Fraction(c, den), Fraction(r, 1 << k))
                     for k, (c, r) in enumerate(zip(coeffs, reached)))


def _scaled_pmf(p: Sequence[tuple[int, int]]) -> tuple[list[int], list[int], int]:
    """The once-per-call sums of B_p over the bounds' common denominator
    C = 2^n D, D the pmf's denominator, with B_p({k}) = c_k / D:
    (tails, nagaev, C) with tails[i] = 2^{n-i} sum_{k >= i} c_k, so that
    2^{-i} P(K >= i) = tails[i] / C, and nagaev[i] = sum_{k >= i} 2^{n-k} c_k
    for i in 0..n+1.

    Built once per _window_sums call, and not cached.
    """
    coeffs, den = _poisson_binomial_weights(p)
    n = len(coeffs) - 1
    tails, nagaev = [0] * (n + 1), [0] * (n + 2)
    tail = total = 0
    for k in range(n, -1, -1):
        c = coeffs[k]
        tail += c
        total += c << (n - k)
        tails[k] = tail << (n - k)
        nagaev[k] = total
    return tails, nagaev, den << n


def _bound_sums(pmf: tuple[list[int], list[int], int], m: int) -> tuple[int, int, int, int]:
    """Numerators of the Nagaev bound, the improved bound and the Kanter
    supremum at window index m, and their common denominator, from the sums
    _scaled_pmf returns.  k > t/h is k >= m, so nagaev is nagaev[m];
    improved = sum_{i = m, m+2, ...} d_i(m) tails[i], P(T_m <= K) over C,
    and kanter = common - improved.  nagaev and improved are 0 for m > n.
    """
    tails, nagaev, common = pmf
    n = len(tails) - 1
    improved = sum(map(mul, _first_passages(n, m), tails[m::2]))
    return nagaev[m] if m <= n else 0, improved, common - improved, common


def _checked_sums(sums: tuple[int, int, int, int], m: int) -> tuple[int, int, int, int]:
    """The bound sums (nagaev, improved, kanter, common) at window index m;
    raises ValueError, which python -O keeps, unless they meet
    0 <= nagaev <= improved <= common = improved + kanter.
    """
    nagaev, improved, kanter, common = sums
    if not (0 <= nagaev <= improved <= common and kanter == common - improved):
        raise ValueError(f"bound sums (nagaev, improved, kanter, common) = {sums} at "
                         f"m={m} fail 0 <= nagaev <= improved <= common = improved + kanter")
    return sums


def window_indices(t_grid: Iterable[tuple[int, int]], h: tuple[int, int]) -> list[int]:
    """m = floor(t/h) + 1 for each t of t_grid, the number of width-2h sets
    covering [-t, t]-ish.

    h and each t are integer pairs (num, den), den > 0, reduced or not.  h
    is checked positive once; each m is one integer floor.  t is in the
    bounds' domain 0 <= t < n*h exactly when 1 <= m <= n.
    """
    hn, hd = h
    if hn <= 0:
        raise ValueError(f"h must be positive, got {format_rational(h)}")
    return [tn * hd // (td * hn) + 1 for tn, td in t_grid]


def nagaev_bound(p: Sequence, h, t) -> Fraction:
    """Exact value of sum_{k > t/h} 2^{-k} B_p({k}): one bound_table row."""
    return evaluate_bounds(p, h, t).nagaev


def improved_bound(p: Sequence, h, t) -> Fraction:
    """Exact value of sum_{k > t/h} (1 - 2^{-k} F_k(m)) B_p({k}): one
    bound_table row."""
    return evaluate_bounds(p, h, t).improved


def kanter_supremum(p: Sequence, m: int) -> Fraction:
    """Exact value of sum_{k=0}^{n} 2^{-k} F_k(m) B_p({k})."""
    p = _success_pairs(p)
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    *_, kanter, common = _window_sums(p, (m,))[m]
    return Fraction(kanter, common)


def _window_sums(p: Sequence[tuple[int, int]], ms: Iterable[int]) -> dict[int, tuple]:
    """(nagaev, improved, kanter, common) per distinct m of ms, in order of
    first appearance: _bound_sums over one pmf, none for an empty ms.  p
    holds integer pairs as _success_pairs returns them, and each m >= 1.
    Each m is checked once, by _checked_sums.
    """
    distinct = dict.fromkeys(ms)
    pmf = _scaled_pmf(p) if distinct else None
    return {m: _checked_sums(_bound_sums(pmf, m), m) for m in distinct}


def bound_table(p: Sequence, h, t_grid: Iterable) -> list[BoundReport]:
    """One BoundReport per t of t_grid, in grid order.

    p and h are validated once, and one window_indices pass checks every t
    against the domain 0 <= t < n*h, as 1 <= m <= n, before the pmf is
    built.  The sums come from _window_sums, once per distinct window index
    m, and their Fractions are shared by the reports with that m.
    """
    p = _success_pairs(p)
    h = parse_rational(h)
    t_grid = list(map(rational_pair, t_grid))
    n = len(p)
    ms = window_indices(t_grid, (h.numerator, h.denominator))
    for t, m in zip(t_grid, ms):
        if not 1 <= m <= n:
            raise ValueError(f"t={format_rational(t)} outside the bound domain "
                             f"[0, {format_rational(n * h)})")
    values = {m: [Fraction(x, common) for x in sums]
              for m, (*sums, common) in _window_sums(p, ms).items()}
    p = tuple(Fraction(*q) for q in p)
    return [BoundReport(Fraction(*t), h, n, m, *values[m], p) for t, m in zip(t_grid, ms)]


def evaluate_bounds(p: Sequence, h, t) -> BoundReport:
    """Both bounds at (t, h) with the per-k audit decomposition: the
    one-row bound_table."""
    return bound_table(p, h, (t,))[0]


def optimize_h(candidates: Mapping, t) -> tuple[Fraction, Fraction]:
    """Pick the candidate h maximizing the improved bound at t.

    candidates maps each candidate h to the success vector p(h) of
    exceedance probabilities at that threshold.  Candidates violating the
    domain 0 <= t < n*h are skipped; ties break toward smaller h.
    """
    t = parse_rational(t)
    parsed = sorted(((parse_rational(h), _success_pairs(p)) for h, p in candidates.items()),
                    key=lambda item: item[0])
    values = [(h, improved_bound(p, h, t)) for h, p in parsed if h > 0 and 0 <= t < len(p) * h]
    if not values:
        raise ValueError("no candidate h admits the requested t")
    return max(values, key=lambda item: item[1])  # the first maximum, so the smallest h
