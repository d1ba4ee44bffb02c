"""Exact integer and rational combinatorics for binomial window sums.

Plain Python ints and fractions.Fraction only: no floating point, and no
cache.  F_k(m), the sum of the m largest binomial coefficients of order k,
has one implementation, _window_column, which builds F_m(m), ..., F_n(m) by
Pascal's rule; largest_binomial_sum reads its last entry and the bounds read
the whole column.
"""

from __future__ import annotations

import math
from fractions import Fraction


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k), with C(n, k) = 0 for k outside [0, n].

    The out-of-range convention makes a window sum sum_{i=r}^{r+m-1} C(n, i)
    valid for every integer r, as in the maximum that largest_binomial_sum
    attains.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def _window_column(n: int, m: int) -> list[int]:
    """[F_m(m), ..., F_n(m)] by Pascal's rule for m >= 1, empty if m > n.

    F_k(m) sums C(k, i) over the centred window i = s, ..., s+m-1, with
    s = floor((k-m+1)/2); C(k, i) = C(k-1, i-1) + C(k-1, i) makes it the sum
    of the windows of row k-1 at s-1 and s.  For k-m odd both are centred in
    row k-1, so F_k = 2 F_{k-1}.  For k-m = 2r even, the one at r is centred
    and the one at r-1 trades C(k-1, r+m-1) = C(k-1, r) for C(k-1, r-1), so
    F_k = 2 F_{k-1} - C(k-1, r) + C(k-1, r-1) = 2 F_{k-1} - m C(k, r) / k.
    From F_{m-1}(m) = 2^{m-1} each step is exact.  C(k, r) is carried from
    one even step to the next, C(k, r) = C(k-2, r-1) k (k-1) / (r (k-r)),
    from C(m, 0) = 1, so the column forms no binomial afresh.
    """
    if m > n:  # nothing to build, not even 2^(m-1)
        return []
    column, f, c = [], 1 << (m - 1), 1
    for j, k in enumerate(range(m, n + 1)):
        if j & 1:
            f <<= 1
        else:
            r = j >> 1
            if r:
                c = c * k * (k - 1) // (r * (k - r))
            f = (f << 1) - m * c // k
        column.append(f)
    return column


def largest_binomial_sum(n: int, m: int) -> int:
    """Sum of the m largest binomial coefficients of order n.

    Equals max over r in Z of sum_{i=r}^{r+m-1} C(n, i); the maximum is
    attained at the centered window r = floor((n - m + 1) / 2) (and equally
    at the ceiling).  Saturates at 2**n once m >= n + 1; below that it is the
    last entry of _window_column(n, m).
    """
    if n < 0 or m < 0:
        raise ValueError(f"n and m must be nonnegative, got n={n}, m={m}")
    if m == 0:
        return 0
    if m >= n + 1:
        return 1 << n
    return _window_column(n, m)[-1]


def largest_binomial_ratio(n: int, m: int) -> Fraction:
    """The normalized window sum largest_binomial_sum(n, m) / 2**n.

    Lies in [0, 1] and is weakly decreasing in n for every fixed m.
    """
    return Fraction(largest_binomial_sum(n, m), 1 << n)
