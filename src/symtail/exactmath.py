"""Exact integer and rational combinatorics for binomial window sums.

Plain Python ints and fractions.Fraction only: no floating point, and no
cache.  F_k(m), the sum of the m largest binomial coefficients of order k,
has one implementation, _window_column, which builds F_m(m), ..., F_n(m) by
Pascal's rule; largest_binomial_sum reads its last entry.

By the reflection principle, 2^k - F_k(m) counts the +-1 walks of k steps
that reach m, so, by the step at which they first do,

    2^k - F_k(m) = sum_{i <= k, i = m mod 2} d_i(m) 2^{k-i},

where d_i(m) = (m/i) C(i, (i-m)/2) counts the walks that first reach m at
step i.  _first_passages yields d_m(m), d_{m+2}(m), ... with one carried
binomial; _window_column is built from it, so that recurrence has one
implementation.  The bounds read the counts directly: the improved bound
is P(T_m <= K), where T_m is the first time a fair +-1 walk reaches m and
K ~ B_p is independent of it.
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


def _window_column(n: int, m: int) -> list[int]:
    """[F_m(m), ..., F_n(m)] by Pascal's rule for m >= 1, empty if m > n.

    F_k(m) sums C(k, i) over the centred window i = s, ..., s+m-1, with
    s = floor((k-m+1)/2); C(k, i) = C(k-1, i-1) + C(k-1, i) makes it the sum
    of the windows of row k-1 at s-1 and s.  For k-m odd both are centred in
    row k-1, so F_k = 2 F_{k-1}.  For k-m = 2r even, the one at r is centred
    and the one at r-1 trades C(k-1, r+m-1) = C(k-1, r) for C(k-1, r-1), so
    F_k = 2 F_{k-1} - C(k-1, r) + C(k-1, r-1) = 2 F_{k-1} - d_k(m), the
    first-passage count of _first_passages.  From F_{m-1}(m) = 2^{m-1} each
    step is exact.
    """
    if m > n:  # nothing to build, not even 2^(m-1)
        return []
    column, f = [], 1 << (m - 1)
    passages = _first_passages(n, m)
    for j in range(n - m + 1):
        f <<= 1
        if not j & 1:
            f -= next(passages)
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
