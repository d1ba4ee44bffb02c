import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import reduce

import pytest

import symtail
from symtail import bounds
from symtail.bounds import (
    BoundReport,
    _window_sums,
    bound_table,
    evaluate_bounds,
    improved_bound,
    kanter_supremum,
    nagaev_bound,
    optimize_h,
    window_indices,
)
from symtail.distributions import (
    abs_tail,
    convolve,
    extremal_distribution,
    point_mass,
    poisson_binomial,
)
from symtail.oracles import (
    exact_sum_distribution,
    extremal_interval_check,
    kanter_supremum_via_stpc,
    sweep_checks,
    tightness_search,
)

from util import (
    SUM_CORRUPTIONS,
    coin,
    corrupt_bound_sums,
    dist,
    random_probability,
    random_success_vector,
    random_symmetric_law,
    window_max,
)


class TestNagaevBound:
    def test_sure_successes(self):
        assert nagaev_bound([1, 1], 1, 1) == Fraction(1, 4)

    def test_all_zero(self):
        assert nagaev_bound([0, 0, 0], 1, 2) == 0

    def test_two_term_sum(self):
        assert nagaev_bound(["1/2", "1/2"], 1, 0) == Fraction(5, 16)

    def test_domain_rejection(self):
        with pytest.raises(ValueError):
            nagaev_bound([1, 1], 1, -1)
        with pytest.raises(ValueError):
            nagaev_bound([1, 1], 1, 2)  # t = n*h is outside


class TestImprovedBound:
    def test_two_sure_terms(self):
        assert improved_bound([1, 1], 1, 1) == Fraction(1, 4)

    def test_three_sure_terms(self):
        assert improved_bound([1, 1, 1], 1, 1) == Fraction(1, 4)

    def test_agrees_with_nagaev_on_last_band(self):
        rng = random.Random(21)
        for _ in range(20):
            n = rng.randint(2, 7)
            p = random_success_vector(rng, n)
            h = Fraction(rng.randint(1, 3), rng.randint(1, 3))
            # t anywhere in [(n-1)h, nh)
            t = (n - 1) * h + h * Fraction(rng.randint(0, 3), 4)
            assert improved_bound(p, h, t) == nagaev_bound(p, h, t)

    def test_dominates_nagaev_everywhere(self):
        rng = random.Random(22)
        for _ in range(30):
            n = rng.randint(1, 8)
            p = random_success_vector(rng, n)
            h = Fraction(rng.randint(1, 4), rng.randint(1, 4))
            t = h * n * Fraction(rng.randint(0, 15), 16)
            assert improved_bound(p, h, t) >= nagaev_bound(p, h, t)

    def test_strictly_sharper_with_full_support(self):
        rng = random.Random(23)
        for _ in range(20):
            n = rng.randint(3, 7)
            p = random_success_vector(rng, n, positive=True)
            h = Fraction(1)
            assert improved_bound(p, h, 0) > nagaev_bound(p, h, 0)

    def test_complement_identity(self):
        rng = random.Random(24)
        for _ in range(20):
            n = rng.randint(1, 8)
            p = random_success_vector(rng, n)
            h = Fraction(rng.randint(1, 3))
            t = h * n * Fraction(rng.randint(0, 7), 8)
            [m] = window_indices([(t.numerator, t.denominator)], (h.numerator, h.denominator))
            assert improved_bound(p, h, t) == 1 - kanter_supremum(p, m)


class TestKanterSupremum:
    def test_examples(self):
        assert kanter_supremum([1, 1], 1) == Fraction(1, 2)
        assert kanter_supremum([1, 1], 2) == Fraction(3, 4)

    def test_saturates_past_n(self):
        rng = random.Random(25)
        for _ in range(10):
            n = rng.randint(1, 6)
            p = random_success_vector(rng, n)
            assert kanter_supremum(p, n + 1) == 1
            assert kanter_supremum(p, n + 3) == 1

    def test_equals_three_point_interval_mass(self):
        assert kanter_supremum_via_stpc([1], 1) == Fraction(1, 2)
        assert kanter_supremum_via_stpc([1, 1], 2) == Fraction(3, 4)
        assert kanter_supremum_via_stpc([0, 0, 0], 2) == 1
        rng = random.Random(26)
        for _ in range(25):
            n = rng.randint(1, 9)
            p = random_success_vector(rng, n)
            for m in range(1, n + 3):
                assert kanter_supremum(p, m) == kanter_supremum_via_stpc(p, m)

    @pytest.mark.parametrize("m", [0, -1])
    def test_via_stpc_rejects_m_below_1(self, m):
        with pytest.raises(ValueError, match=f"m must be >= 1, got {m}"):
            kanter_supremum_via_stpc([1], m)

    def test_nonincreasing_in_p(self):
        rng = random.Random(27)
        for _ in range(20):
            n = rng.randint(1, 6)
            p = list(random_success_vector(rng, n))
            q = [pi + (1 - pi) * Fraction(rng.randint(0, 4), 4) for pi in p]
            m = rng.randint(1, n + 1)
            assert kanter_supremum(q, m) <= kanter_supremum(p, m)

    def test_m_validation(self):
        with pytest.raises(ValueError):
            kanter_supremum([1], 0)

    def test_saturated_window_forms_no_binomial(self, monkeypatch):
        # For m > n every F_k(m) is 2^k: no binomial, and no 2^(m-1), is built.
        def no_comb(n, k):
            raise AssertionError("a binomial was formed for a saturated window")

        monkeypatch.setattr(math, "comb", no_comb)
        assert kanter_supremum(["1/2", "1/3", 0, 1], 10**12) == 1


class TestWindowIndex:
    def test_floor_plus_one(self):
        # h and t are integer pairs, reduced or not
        assert window_indices([(0, 1), (-1, 3)], (1, 1)) == [1, 0]
        assert window_indices([(3, 2), (2, 4)], (1, 2)) == [4, 2]
        assert window_indices([(3, 2), (2, 4)], (2, 4)) == [4, 2]
        assert window_indices([(7, 3)], (2, 3)) == [4]
        assert window_indices([], (1, 1)) == []

    @pytest.mark.parametrize("h", [(0, 1), (-1, 2), (-3, 1)], ids=["0", "-1/2", "h2"])
    def test_nonpositive_h_rejected(self, h):
        for grid in ([(1, 1)], [], [(0, 1), (1, 2), (7, 1)]):
            with pytest.raises(ValueError, match="h must be positive"):
                window_indices(grid, h)


def count_combs(monkeypatch) -> list:
    """Count the binomials formed through math.comb: one entry per call."""
    calls, comb = [], math.comb
    monkeypatch.setattr(math, "comb", lambda n, k: calls.append(1) or comb(n, k))
    return calls


def test_bound_table_forms_quadratically_many_binomials(monkeypatch):
    # n distinct window indices over n terms: the columns by Pascal's rule
    # take about n^2/4 binomials, where summing every window takes n^3/6.
    calls = count_combs(monkeypatch)
    n = 200
    reports = bound_table(["1/2"] * n, 1, range(n))
    assert [r.m for r in reports] == list(range(1, n + 1))
    assert len(calls) <= 2 * n * n


def test_per_k_terms_forms_one_column(monkeypatch):
    # One pass of first-passage counts per read, where one window sum per
    # k >= m would form m binomials each, 420 here.  Each weight is
    # 1 - 2^-k F_k(m), against the explicit window maximum.
    n = 40
    report = evaluate_bounds(["1/2"] * n, 1, 19)
    assert report.m == 20
    calls, passages = [], bounds._first_passages
    monkeypatch.setattr(bounds, "_first_passages", lambda *a: calls.append(a) or passages(*a))
    combs = count_combs(monkeypatch)
    terms = report.per_k_terms
    assert calls == [(n, 20)] and not combs
    assert report.per_k_terms == terms
    assert calls == [(n, 20)] * 2
    monkeypatch.undo()
    assert [k for k, _, _ in terms] == list(range(n + 1))
    for k, _, weight in terms:
        assert weight == 1 - Fraction(window_max(k, 20), 1 << k), k


class TestEvaluateBounds:
    def test_report_invariants_and_decomposition(self):
        rng = random.Random(28)
        for _ in range(15):
            n = rng.randint(1, 7)
            p = random_success_vector(rng, n)
            h = Fraction(rng.randint(1, 3))
            t = h * n * Fraction(rng.randint(0, 7), 8)
            report = evaluate_bounds(p, h, t)
            assert report.nagaev == nagaev_bound(p, h, t)
            assert report.improved == improved_bound(p, h, t)
            assert sum(bk for _, bk, _ in report.per_k_terms) == 1
            # per-k terms reproduce the complement decomposition
            assert report.improved == 1 - report.kanter_sup
            rebuilt = sum(
                (w * bk for k, bk, w in report.per_k_terms if k > t / h), Fraction(0)
            )
            assert rebuilt == report.improved


    # Each corrupts one invariant of the valid report at p = (1/2,), h = 1,
    # t = 0: nagaev = 1/4, improved = 1/4, kanter_sup = 3/4.
    CORRUPTIONS = (
        {"nagaev": Fraction(-1, 4)},
        {"improved": Fraction(5, 4)},
        {"nagaev": Fraction(1, 2)},
        {"kanter_sup": Fraction(1, 2)},
    )

    def test_domain_message_past_str_digit_limit(self):
        # n * h = 20 * (10^4300 - 1) has more digits than str() may write.
        h = "9" * 4300
        message = f"t=-1 outside the bound domain [0, 1{'9' * 4299}80)"
        for f, t in ((bound_table, ["-1"]), (evaluate_bounds, "-1"), (nagaev_bound, "-1"),
                     (improved_bound, "-1")):
            with pytest.raises(ValueError) as raised:
                f(["1/2"] * 20, h, t)
            assert str(raised.value) == message

    @pytest.mark.parametrize("change", CORRUPTIONS)
    def test_corrupted_report_rejected(self, change):
        fields = vars(evaluate_bounds(["1/2"], 1, 0)) | change
        with pytest.raises(ValueError):
            BoundReport(**fields)

    def test_invariants_survive_optimize_flag(self):
        # python -O strips asserts; the invariant checks must still fire.
        code = (
            "from fractions import Fraction\n"
            "from symtail.bounds import BoundReport, evaluate_bounds\n"
            "fired = 0\n"
            f"for change in {self.CORRUPTIONS!r}:\n"
            "    try:\n"
            "        BoundReport(**(vars(evaluate_bounds(['1/2'], 1, 0)) | change))\n"
            "    except ValueError:\n"
            "        fired += 1\n"
            "print(fired)\n"
        )
        src = os.path.dirname(os.path.dirname(symtail.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [str(len(self.CORRUPTIONS))]


class TestWindowSums:
    # Every product path reads bounds._window_sums, which checks the sums
    # of each distinct m as integers; a corrupted _bound_sums makes each
    # raise ValueError, under python -O too.
    PATHS = {
        "window_sums": lambda: _window_sums(((1, 2),) * 2, [2, 1, 2]),
        "bound_table": lambda: bound_table(["1/2", "1/2"], 1, ["0", "1"]),
        "kanter_supremum": lambda: kanter_supremum(["1/2", "1/2"], 3),
        "tightness_search": lambda: tightness_search(["1/2", "1/2"], 1, 1),
        "sweep_checks": lambda: list(sweep_checks([[coin(), coin()]], 1, [0, 1])),
    }

    def test_sums_per_distinct_m(self):
        # p = (1/2, 1/2): B_p = (1/4, 1/2, 1/4), so common = 2^2 * 4 = 16.
        sums = _window_sums(((1, 2),) * 2, [2, 1, 2, 3])
        assert sums == {2: (1, 1, 15, 16), 1: (5, 6, 10, 16), 3: (0, 0, 16, 16)}
        assert list(sums) == [2, 1, 3]
        assert _window_sums(((1, 2),) * 2, []) == {}
        # an unreduced pair gives the same values over a larger common denominator
        assert _window_sums(((2, 4), (1, 2)), [1]) == {1: (10, 12, 20, 32)}

    @pytest.mark.parametrize("path", PATHS)
    @pytest.mark.parametrize("corruption", SUM_CORRUPTIONS)
    def test_corrupted_sums_rejected(self, monkeypatch, path, corruption):
        self.PATHS[path]()
        corrupt_bound_sums(monkeypatch, corruption)
        with pytest.raises(ValueError, match="bound sums"):
            self.PATHS[path]()


class TestSoundness:
    def test_bound_below_exact_tail(self):
        rng = random.Random(29)
        for _ in range(25):
            n = rng.randint(1, 6)
            h = Fraction(1)
            terms = [random_symmetric_law(rng) for _ in range(n)]
            p = [abs_tail(x, h, strict=False) for x in terms]
            s = exact_sum_distribution(terms)
            for num in range(0, 2 * n):
                t = Fraction(num, 2)
                assert abs_tail(s, t, strict=True) >= improved_bound(p, h, t)


class TestExtremalDistribution:
    def test_examples(self):
        assert extremal_distribution([1], 1) == [dist({-1: "1/2", 1: "1/2"})]
        assert extremal_distribution([0], 5) == [point_mass(0)]
        assert extremal_distribution(["1/3"], 1) == [
            dist({-1: "1/6", 0: "2/3", 1: "1/6"})
        ]

    @pytest.mark.parametrize("h", [0, -1])
    def test_rejects_h_not_positive(self, h):
        with pytest.raises(ValueError, match=f"h must be positive, got {h}"):
            extremal_distribution([1], h)


class TestExtremalIntervalCheck:
    def test_two_sure_terms(self):
        # H/h = 5/3 has fractional part > 1/2, so m = 2 qualifies
        sup, attained = extremal_interval_check([1, 1], 1, Fraction(5, 3))
        assert sup == attained == Fraction(3, 4)

    def test_single_coin(self):
        sup, attained = extremal_interval_check([1], 1, 1)
        assert sup == attained == Fraction(1, 2)

    def test_all_zero(self):
        sup, attained = extremal_interval_check([0, 0], 1, 1)
        assert sup == attained == 1

    @pytest.mark.parametrize("h, H", [(2, 1), (0, 1)])
    def test_rejects_h_outside_0_to_H(self, h, H):
        with pytest.raises(ValueError, match="need 0 < h <= H"):
            extremal_interval_check([1, 1], h, H)

    def test_half_integer_condition_enforced(self):
        with pytest.raises(ValueError):
            extremal_interval_check([1, 1], 1, Fraction(3, 2))

    def test_half_integer_message_past_str_digit_limit(self):
        # h = 1/(10^4299 + 1) and H = (10^4299 + 1)/4: H/h = (10^4299 + 1)^2/4
        # has fractional part 1/4, and m = 25 * 10^8596 + 5 * 10^4298 + 1 has
        # more digits than str() may write.
        d = "1" + "0" * 4298 + "1"
        with pytest.raises(ValueError) as raised:
            extremal_interval_check(["1/2"], f"1/{d}", f"{d}/4")
        m = f"25{'0' * 4297}5{'0' * 4297}1"
        assert str(raised.value) == f"half-integer condition fails: ceil(H/h)={m} >= H/h + 1/2"

    def test_random_attainment(self):
        rng = random.Random(30)
        for _ in range(20):
            n = rng.randint(1, 7)
            p = random_success_vector(rng, n)
            h = Fraction(rng.randint(1, 3), rng.randint(1, 3))
            m = rng.randint(1, n + 1)
            # pick H with m = ceil(H/h) and H/h > m - 1/2; keep H >= h
            shave = Fraction(rng.randint(0, 3), 8) if m > 1 else Fraction(0)
            H = h * (m - shave)
            sup, attained = extremal_interval_check(p, h, H)
            assert sup == attained


class TestOptimizeH:
    def test_single_candidate(self):
        h, bound = optimize_h({1: [1, 1]}, 0)
        assert h == 1
        assert bound == improved_bound([1, 1], 1, 0)

    def test_zero_vector_loses(self):
        h, bound = optimize_h({1: [0, 0], 2: ["1/2", "1/2"]}, 1)
        assert h == 2
        assert bound > 0

    def test_uniform_four_point_terms(self):
        # X_i uniform on {-2,-1,1,2}: p(h=1) = (1,1,1,1), p(h=2) = (1/2,...)
        candidates = {1: [1] * 4, 2: [Fraction(1, 2)] * 4}
        h, bound = optimize_h(candidates, 1)
        assert improved_bound([1] * 4, 1, 1) == Fraction(3, 8)
        assert improved_bound([Fraction(1, 2)] * 4, 2, 1) == Fraction(65, 128)
        assert (h, bound) == (2, Fraction(65, 128))

    def test_empty_after_domain_filter(self):
        with pytest.raises(ValueError):
            optimize_h({1: [1, 1]}, 5)

    def test_ties_break_toward_smaller_h(self):
        h, _ = optimize_h({1: [0, 0, 0], 2: [0, 0, 0]}, 1)
        assert h == 1


def test_extremal_convolution_attains_supremum_vs_exact():
    # slack of the extremal instance at t = (m-1)h matches the complement
    rng = random.Random(31)
    for _ in range(10):
        n = rng.randint(2, 6)
        p = random_success_vector(rng, n)
        h = Fraction(1)
        m = rng.randint(1, n - 1)
        t = (m - 1) * h
        terms = extremal_distribution(p, h)
        s = reduce(convolve, terms, point_mass(0))
        lhs = abs_tail(s, t, strict=True)
        assert lhs >= improved_bound(p, h, t)
