"""Exact integer and rational combinatorics for binomial window sums.

Everything in this module is computed with arbitrary-precision integers
(plain Python ``int``) and exact rationals (``fractions.Fraction``).  No
floating point is used anywhere, and nothing is cached:
largest_binomial_sum is the direct sum of m binomials, for single (n, m)
queries.  The bounds build whole columns of window sums by Pascal's rule
instead.
"""

from __future__ import annotations

import math
from fractions import Fraction


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k), with C(n, k) = 0 for k outside [0, n].

    The out-of-range convention makes a window sum sum_{i=r}^{r+m-1} C(n, i)
    valid for every integer r, as in the maximum that largest_binomial_sum
    (which sums math.comb over in-range indices only) attains.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def largest_binomial_sum(n: int, m: int) -> int:
    """Sum of the m largest binomial coefficients of order n.

    Equals max over r in Z of sum_{i=r}^{r+m-1} C(n, i); the maximum is
    attained at the centered window r = floor((n - m + 1) / 2) (and equally
    at the ceiling).  Saturates at 2**n once m >= n + 1.
    """
    if n < 0 or m < 0:
        raise ValueError(f"n and m must be nonnegative, got n={n}, m={m}")
    if m == 0:
        return 0
    if m >= n + 1:
        return 1 << n
    r = (n - m + 1) // 2
    return sum(math.comb(n, i) for i in range(r, r + m))


def largest_binomial_ratio(n: int, m: int) -> Fraction:
    """The normalized window sum largest_binomial_sum(n, m) / 2**n.

    Lies in [0, 1] and is weakly decreasing in n for every fixed m.
    """
    return Fraction(largest_binomial_sum(n, m), 1 << n)
