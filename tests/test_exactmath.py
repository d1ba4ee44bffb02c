import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from symtail.exactmath import (
    _first_passages,
    binomial,
    largest_binomial_ratio,
    largest_binomial_sum,
)

from util import window_max


def pascal_binomial(n: int, k: int) -> int:
    """Independent oracle: Pascal recursion C(n,k) = C(n-1,k-1) + C(n-1,k)."""
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row[k] if 0 <= k < len(row) else 0


class TestBinomial:
    def test_small_value(self):
        assert binomial(4, 2) == 6

    def test_out_of_range_is_zero(self):
        assert binomial(5, -1) == 0
        assert binomial(5, 6) == 0

    def test_against_pascal_recursion(self):
        assert binomial(60, 30) == pascal_binomial(60, 30)

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)


class TestLargestBinomialSum:
    def test_order_zero(self):
        assert largest_binomial_sum(0, 3) == 1

    def test_empty_window(self):
        assert largest_binomial_sum(5, 0) == 0

    def test_two_term_window(self):
        # max window of row 4 with two terms: C(4,1) + C(4,2)
        assert largest_binomial_sum(4, 2) == 10

    def test_single_term_window(self):
        assert largest_binomial_sum(4, 1) == 6

    def test_matches_window_oracle(self):
        for n in range(31):
            for m in range(33):
                assert largest_binomial_sum(n, m) == window_max(n, m), (n, m)

    def test_long_column_forms_no_binomial(self, monkeypatch):
        # F_k(1) is the central binomial C(k, floor(k/2)); the first-passage
        # counts carry one binomial from step to step, where forming each
        # window afresh took about 0.5 s over k <= 4096.
        comb = math.comb
        monkeypatch.setattr(math, "comb", lambda n, k: pytest.fail("math.comb called"))
        ks = (*range(1, 64), 1023, 2048, 4095, 4096)
        central = [largest_binomial_sum(k, 1) for k in ks]
        cases = ((200, 3), (1000, 7), (1001, 8), (4096, 2048))
        windows = [largest_binomial_sum(n, m) for n, m in cases]
        monkeypatch.setattr(math, "comb", comb)
        for k, value in zip(ks, central):
            assert value == comb(k, k // 2), k
        for (n, m), value in zip(cases, windows):
            s = (n - m + 1) // 2
            assert value == sum(comb(n, i) for i in range(s, s + m)), (n, m)

    def test_recursion(self):
        for n in range(1, 41):
            for m in range(1, 41):
                assert largest_binomial_sum(n, m) == largest_binomial_sum(
                    n - 1, m - 1
                ) + largest_binomial_sum(n - 1, m + 1)

    def test_floor_and_ceil_windows_agree(self):
        for n in range(21):
            for m in range(1, 21):
                r_floor = (n - m + 1) // 2
                r_ceil = -((-(n - m + 1)) // 2)
                total_floor = sum(binomial(n, i) for i in range(r_floor, r_floor + m))
                total_ceil = sum(binomial(n, i) for i in range(r_ceil, r_ceil + m))
                assert total_floor == total_ceil == largest_binomial_sum(n, m)

    def test_saturation(self):
        for n in range(20):
            for m in range(n + 1, n + 5):
                assert largest_binomial_sum(n, m) == 2**n
        # equivalently: F_k(m) = 2**k for k <= m - 1
        for m in range(1, 12):
            for k in range(m):
                assert largest_binomial_sum(k, m) == 2**k

    def test_negative_arguments_rejected(self):
        with pytest.raises(ValueError):
            largest_binomial_sum(-1, 2)
        with pytest.raises(ValueError):
            largest_binomial_sum(2, -1)

    @given(st.integers(1, 80), st.integers(1, 80))
    def test_recursion_property(self, n, m):
        assert largest_binomial_sum(n, m) == largest_binomial_sum(
            n - 1, m - 1
        ) + largest_binomial_sum(n - 1, m + 1)


def walk_first_passages(m: int, n: int) -> list[int]:
    """Independent oracle: the number of +-1 walks that first reach m at
    step i, for i = 0..n, counted step by step over the walks still below m."""
    below = {0: 1}
    counts = [0] * (n + 1)
    for i in range(1, n + 1):
        step: dict[int, int] = {}
        for x, ways in below.items():
            for y in (x - 1, x + 1):
                if y == m:
                    counts[i] += ways
                else:
                    step[y] = step.get(y, 0) + ways
        below = step
    return counts


class TestFirstPassages:
    def test_counts_match_walks(self):
        for m in range(1, 42):
            counts = walk_first_passages(m, 40)
            assert list(_first_passages(40, m)) == counts[m::2], m
            assert not any(counts[m + 1::2]) and not any(counts[:m]), m

    def test_reflection_identity(self):
        # 2^k - F_k(m) = sum_{i <= k, i = m mod 2} d_i(m) 2^(k-i): the walks
        # of k steps that reach m, by the step at which they first do
        for m in range(1, 43):
            for k in range(41):
                d = _first_passages(k, m)
                reached = sum(di << (k - i) for i, di in zip(range(m, k + 1, 2), d))
                top = sorted((math.comb(k, i) for i in range(k + 1)), reverse=True)[:m]
                assert (1 << k) - sum(top) == reached, (k, m)

    def test_closed_form(self):
        # d_i(m) = (m/i) C(i, (i-m)/2), for m + 2r up to 1 000
        for m in (1, 2, 7, 500, 999):
            expected = [m * math.comb(i, (i - m) // 2) // i for i in range(m, 1001, 2)]
            assert list(_first_passages(1000, m)) == expected, m
        assert list(_first_passages(4, 5)) == []


class TestLargestBinomialRatio:
    def test_examples(self):
        assert largest_binomial_ratio(2, 2) == Fraction(3, 4)
        assert largest_binomial_ratio(0, 1) == 1
        assert largest_binomial_ratio(3, 1) == Fraction(3, 8)

    def test_in_unit_interval(self):
        for n in range(15):
            for m in range(15):
                assert 0 <= largest_binomial_ratio(n, m) <= 1

    def test_decreasing_in_n(self):
        for m in range(21):
            prev = largest_binomial_ratio(0, m)
            for n in range(1, 41):
                cur = largest_binomial_ratio(n, m)
                assert cur <= prev, (n, m)
                prev = cur
