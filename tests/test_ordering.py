import itertools
import random
from fractions import Fraction

import pytest

from symtail.bounds import kanter_supremum
from symtail.distributions import (
    LatticeDistribution,
    abs_stochastically_geq,
    abs_tail,
    is_symmetric,
    is_unimodal_with_span,
    point_mass,
)
from symtail.oracles import exact_sum_distribution
from symtail import ordering
from symtail.ordering import (
    ComparisonInstance,
    HypothesisViolation,
    birnbaum_check,
    birnbaum_pair_check,
    half_mass,
    half_mass_check,
    pruss_check,
    wintner_check,
)

from util import (
    coin,
    dist,
    half_lattice_laws,
    random_symmetric_law,
    tailless_s,
    unimodal_span1_laws,
)

UNIFORM3 = dist({-1: "1/3", 0: "1/3", 1: "1/3"})


def two_coin_example() -> ComparisonInstance:
    # n = 2 with X_1, X_2, Y_1 fair +-1 coins and Y_2 = 0; the sharpness
    # example for the factor 1/2 and for the lattice-compatibility clause
    return ComparisonInstance((coin(), coin()), (coin(), point_mass(0)))


class TestComparisonInstance:
    def test_validation(self):
        inst = two_coin_example()  # meets the hypotheses, so it builds
        assert len(inst.xs) == len(inst.ys) == 2

    def test_rejects_undominated_pair(self):
        with pytest.raises(HypothesisViolation, match=r"\|X_1\| does not dominate \|Y_1\|"):
            ComparisonInstance((point_mass(0),), (coin(),))

    def test_rejects_asymmetric_terms(self):
        lopsided = dist({0: "1/2", 1: "1/2"})
        with pytest.raises(HypothesisViolation, match="X_1 is not symmetric"):
            ComparisonInstance((lopsided,), (point_mass(0),))
        with pytest.raises(HypothesisViolation, match="Y_2 is not symmetric"):
            ComparisonInstance((coin(), coin()), (coin(), lopsided))

    def test_rejects_unpaired_terms(self):
        for xs, ys in [((coin(),), ()), ((), ())]:
            with pytest.raises(ValueError, match="equally many"):
                ComparisonInstance(xs, ys)

    def test_sums_built_once(self):
        inst = two_coin_example()
        assert inst.sums() is inst.sums()
        assert inst.sums() == (exact_sum_distribution(inst.xs), exact_sum_distribution(inst.ys))
        assert inst == two_coin_example() and hash(inst) == hash(two_coin_example())


class TestViolationRows:
    def test_pruss(self, monkeypatch):
        tailless_s(monkeypatch)
        inst = two_coin_example()
        # t = 1: 0 < 1/2; t = 3: 0 >= 0, equality is no violation
        report = pruss_check(inst, [1, 3])
        assert report.rows == [(1, (0, 1), (1, 2), False), (3, (0, 1), (0, 2), True)]
        assert report.min_ratio == 0 and not report.ok

    def test_half_mass(self, monkeypatch):
        tailless_s(monkeypatch)
        inst = two_coin_example()
        report = half_mass_check(inst, 1, 2)
        assert report.rows == [(1, (0, 1), (1, 2), False), (2, (0, 1), (0, 2), True)]
        assert not report.ok


class TestPruss:
    def test_sharpness_example(self):
        report = pruss_check(two_coin_example(), [1])
        # P(|S| >= 1) = 2/4 and (1/2) P(|T| >= 1) = 1/2: equality holds, and
        # the pairs stay over the sums' denominators
        assert report.rows == [(1, (2, 4), (1, 2), True)]
        assert report.min_ratio == Fraction(1, 2)
        assert report.ok

    def test_identical_terms_ratio_at_least_one(self):
        rng = random.Random(51)
        for _ in range(10):
            xs = tuple(random_symmetric_law(rng) for _ in range(3))
            report = pruss_check(ComparisonInstance(xs, xs), [1, 2, 3])
            assert report.min_ratio is None or report.min_ratio >= 1

    def test_random_instances_hold(self):
        rng = random.Random(52)
        checked = 0
        while checked < 25:
            n = rng.randint(1, 5)
            xs = tuple(random_symmetric_law(rng) for _ in range(n))
            ys = tuple(random_symmetric_law(rng) for _ in range(n))
            if not all(abs_stochastically_geq(x, y) for x, y in zip(xs, ys)):
                continue
            checked += 1
            report = pruss_check(
                ComparisonInstance(xs, ys), [Fraction(k, 2) for k in range(1, 4 * n)]
            )
            assert report.ok


class TestHalfMass:
    def test_positive_lattice_points_hold(self):
        report = half_mass_check(two_coin_example(), 1, 2)
        assert report.ok
        assert report.rows[0] == (1, (2, 4), (1, 2), True)  # 1/2 >= 1/2

    def test_zero_excluded_for_a_reason(self):
        # at m = 0 the ordering genuinely fails: 3/4 < 1
        s, t = two_coin_example().sums()
        assert half_mass(s, 0) == Fraction(3, 4)
        assert half_mass(t, 0) == 1

    def test_identical_extremal_terms_give_equality(self):
        law = dist({-1: "1/4", 0: "1/2", 1: "1/4"})
        inst = ComparisonInstance((law, law), (law, law))
        report = half_mass_check(inst, 1, 2)
        assert report.ok
        assert all(Fraction(*lhs) == Fraction(*rhs) for _, lhs, rhs, _ in report.rows)

    def test_wider_x_terms(self):
        xs = (dist({-2: "1/2", 2: "1/2"}), dist({-2: "1/2", 2: "1/2"}))
        ys = (coin(), coin())
        report = half_mass_check(ComparisonInstance(xs, ys), 1, 2)
        assert report.ok

    def test_y_support_enforced(self):
        xs = (dist({-2: "1/2", 2: "1/2"}),)
        with pytest.raises(HypothesisViolation):
            half_mass_check(ComparisonInstance(xs, xs), 1, 1)

    @pytest.mark.parametrize("h", [0, -1])
    def test_rejects_h_not_positive(self, h):
        with pytest.raises(ValueError, match=f"h must be positive, got {h}"):
            half_mass_check(two_coin_example(), h, 1)

    def test_negative_m_max_rejected_before_the_sums(self, monkeypatch):
        def no_sums(terms):
            raise AssertionError("sum laws built before m_max was checked")

        assert half_mass_check(two_coin_example(), 1, 0).rows == []
        monkeypatch.setattr(ordering, "exact_sum_distribution", no_sums)
        xs = (dist({-2: "1/2", 2: "1/2"}),)  # Y off {-h, 0, h}: m_max is checked first
        with pytest.raises(ValueError, match="m_max must be nonnegative, got -3") as err:
            half_mass_check(ComparisonInstance(xs, xs), 1, -3)
        assert not isinstance(err.value, HypothesisViolation)

    def test_cross_validates_against_supremum_complement(self):
        # with p_i = P(|Y_i| = h), 1 - kanter_supremum(p, m) lower-bounds
        # the half-mass of S at m*h
        rng = random.Random(53)
        checked = 0
        while checked < 15:
            n = rng.randint(1, 4)
            ys = tuple(random_symmetric_law(rng, radius=1) for _ in range(n))
            xs = tuple(random_symmetric_law(rng) for _ in range(n))
            if not all(abs_stochastically_geq(x, y) for x, y in zip(xs, ys)):
                continue
            checked += 1
            p = [abs_tail(y, 1, strict=False) for y in ys]
            s = exact_sum_distribution(xs)
            for m in range(1, n + 1):
                assert half_mass(s, m) >= 1 - kanter_supremum(p, m)


class TestBirnbaum:
    def test_uniform_versus_zero(self):
        inst = ComparisonInstance((UNIFORM3, UNIFORM3), (point_mass(0), point_mass(0)))
        report = birnbaum_check(inst, 1)
        assert report.hypothesis_ok
        assert report.conclusion_holds

    def test_lattice_clause_cannot_be_dropped(self):
        # all four terms are unimodal with span 2, but X_2 sits on 2Z+1
        # while Y_2 sits on 2Z; the conclusion then fails
        report = birnbaum_check(two_coin_example(), 2)
        assert not report.hypothesis_ok
        assert any("not both" in v for v in report.violations)
        assert not report.conclusion_holds
        s, t = two_coin_example().sums()
        assert abs_tail(s, 1, strict=False) == Fraction(1, 2)
        assert abs_tail(t, 1, strict=False) == 1

    def test_identical_terms(self):
        law = dist({-1: "1/4", 0: "1/2", 1: "1/4"})
        inst = ComparisonInstance((law,), (law,))
        report = birnbaum_check(inst, 1)
        assert report.hypothesis_ok and report.conclusion_holds

    def test_exhaustive_grid_n2(self):
        laws = unimodal_span1_laws()
        pairs = [
            (x, y)
            for x in laws
            for y in laws
            if abs_stochastically_geq(x, y)
        ]
        for (x1, y1), (x2, y2) in itertools.product(pairs, repeat=2):
            inst = ComparisonInstance((x1, x2), (y1, y2))
            report = birnbaum_check(inst, 1)
            assert report.hypothesis_ok
            assert report.conclusion_holds, (x1.atoms, x2.atoms, y1.atoms, y2.atoms)


class TestBirnbaumPair:
    def test_uniform_kernel(self):
        assert birnbaum_pair_check(UNIFORM3, coin(), point_mass(0), 1)

    def test_equal_comparands(self):
        assert birnbaum_pair_check(UNIFORM3, coin(2), coin(2), 1)

    def test_degenerate_kernel(self):
        assert birnbaum_pair_check(point_mass(0), coin(), point_mass(0), 1)

    def test_hypothesis_enforced(self):
        with pytest.raises(HypothesisViolation):
            birnbaum_pair_check(coin(), coin(), point_mass(0), 1)  # U not unimodal span 1
        lopsided = dist({0: "1/2", 1: "1/2"})
        with pytest.raises(HypothesisViolation, match="V is not symmetric"):
            birnbaum_pair_check(UNIFORM3, lopsided, point_mass(0), 1)
        with pytest.raises(HypothesisViolation, match="W is not symmetric"):
            birnbaum_pair_check(UNIFORM3, coin(), lopsided, 1)
        with pytest.raises(HypothesisViolation, match=r"\|V\| does not dominate \|W\|"):
            birnbaum_pair_check(UNIFORM3, point_mass(0), coin(), 1)
        # +-1/2 lies on Z + 1/2, 0 on Z only
        half_coin = dist({"-1/2": "1/2", "1/2": "1/2"})
        with pytest.raises(HypothesisViolation, match="V and W are not on a common lattice class"):
            birnbaum_pair_check(UNIFORM3, half_coin, point_mass(0), 1)


class TestWintner:
    def test_two_uniform_laws(self):
        assert wintner_check(UNIFORM3, UNIFORM3, 1)
        out = exact_sum_distribution([UNIFORM3, UNIFORM3])
        assert out == dist({-2: "1/9", -1: "2/9", 0: "3/9", 1: "2/9", 2: "1/9"})

    def test_half_lattice_pair(self):
        half_coin = dist({"-1/2": "1/2", "1/2": "1/2"})
        assert wintner_check(half_coin, half_coin, 1)
        assert exact_sum_distribution([half_coin, half_coin]) == dist(
            {-1: "1/4", 0: "1/2", 1: "1/4"}
        )

    def test_identity_term(self):
        assert wintner_check(point_mass(0), UNIFORM3, 1)

    def test_grid_closure(self):
        laws = unimodal_span1_laws() + half_lattice_laws()
        for x, y in itertools.product(laws, repeat=2):
            assert wintner_check(x, y, 1), (x.atoms, y.atoms)

    def test_half_lattice_convolutions_land_on_integers(self):
        for x, y in itertools.product(half_lattice_laws(), repeat=2):
            out = exact_sum_distribution([x, y])
            assert all(v.denominator == 1 for v in out.support)
            assert is_symmetric(out) and is_unimodal_with_span(out, 1)

    def test_hypothesis_enforced(self):
        with pytest.raises(HypothesisViolation):
            wintner_check(coin(), coin(), 1)  # gap at 0: not unimodal span 1
        with pytest.raises(HypothesisViolation, match="x is not symmetric"):
            wintner_check(dist({0: "1/2", 1: "1/2"}), UNIFORM3, 1)
