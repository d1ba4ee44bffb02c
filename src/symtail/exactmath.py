"""Exact integer and rational combinatorics for binomial window sums.

Plain Python ints and fractions.Fraction only: no floating point, and no
cache.  F_k(m), the sum of the m largest binomial coefficients of order k,
is read off first-passage counts.  By the reflection principle, 2^k - F_k(m)
counts the +-1 walks of k steps that reach m, so, by the step at which they
first do,

    2^k - F_k(m) = sum_{i <= k, i = m mod 2} d_i(m) 2^{k-i},

where d_i(m) = (m/i) C(i, (i-m)/2) counts the walks that first reach m at
step i.  _first_passages yields d_m(m), d_{m+2}(m), ... with one carried
binomial, and is the one source of F_k(m): largest_binomial_sum and the
bounds read the counts directly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator


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


def _first_passages(n: int, m: int) -> Iterator[int]:
    """d_k(m) = m C(k, r) / k for k = m + 2r = m, m + 2, ..., up to n, for
    m >= 1: the number of +-1 walks that first reach m at step k.

    C(k, r) is carried from one k to the next, C(k, r) = C(k-2, r-1)
    k (k-1) / (r (k-r)), from C(m, 0) = 1, so no binomial is formed afresh.
    """
    c = 1
    for r, k in enumerate(range(m, n + 1, 2)):
        if r:
            c = c * k * (k - 1) // (r * (k - r))
        yield m * c // k


def largest_binomial_sum(n: int, m: int) -> int:
    """Sum of the m largest binomial coefficients of order n.

    Equals max over r in Z of sum_{i=r}^{r+m-1} C(n, i); the maximum is
    attained at the centered window r = floor((n - m + 1) / 2) (and equally
    at the ceiling).  Saturates at 2**n once m >= n + 1; below that it is
    2^n less the walks of n steps that reach m, by the reflection identity.
    """
    if n < 0 or m < 0:
        raise ValueError(f"n and m must be nonnegative, got n={n}, m={m}")
    if m == 0:
        return 0
    if m >= n + 1:
        return 1 << n
    reached = sum(d << (n - k) for k, d in zip(range(m, n + 1, 2), _first_passages(n, m)))
    return (1 << n) - reached


def largest_binomial_ratio(n: int, m: int) -> Fraction:
    """The normalized window sum largest_binomial_sum(n, m) / 2**n.

    Lies in [0, 1] and is weakly decreasing in n for every fixed m.
    """
    return Fraction(largest_binomial_sum(n, m), 1 << n)
