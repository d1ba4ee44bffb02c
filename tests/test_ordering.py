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

from util import coin, dist, random_symmetric_law

UNIFORM3 = dist({-1: "1/3", 0: "1/3", 1: "1/3"})


def two_coin_example() -> ComparisonInstance:
    # n = 2 with X_1, X_2, Y_1 fair +-1 coins and Y_2 = 0; the sharpness
    # example for the factor 1/2 and for the lattice-compatibility clause
    return ComparisonInstance((coin(), coin()), (coin(), point_mass(0)))


def unimodal_span1_laws():
    # all symmetric laws on {-2,...,2} with eighth masses that are unimodal
    # on the unit lattice: atom units (u2, u1, u0, u1, u2), u2 <= u1 <= u0
    laws = []
    for u1 in range(5):
        for u2 in range(u1 + 1):
            u0 = 8 - 2 * u1 - 2 * u2
            if u0 < u1:
                continue
            masses = {0: Fraction(u0, 8)}
            if u1:
                masses[1] = Fraction(u1, 8)
                masses[-1] = Fraction(u1, 8)
            if u2:
                masses[2] = Fraction(u2, 8)
                masses[-2] = Fraction(u2, 8)
            laws.append(dist(masses))
    return laws


def half_lattice_laws():
    # symmetric unimodal-span-1 laws on Z + 1/2 within [-3/2, 3/2]
    laws = []
    for u2 in range(3):
        u1 = 4 - u2
        if u2 > u1:
            continue
        masses = {
            Fraction(1, 2): Fraction(u1, 8),
            Fraction(-1, 2): Fraction(u1, 8),
        }
        if u2:
            masses[Fraction(3, 2)] = Fraction(u2, 8)
            masses[Fraction(-3, 2)] = Fraction(u2, 8)
        laws.append(dist(masses))
    return laws


class TestComparisonInstance:
    def test_validation(self):
        inst = two_coin_example()
        inst.validate()

    def test_rejects_undominated_pair(self):
        inst = ComparisonInstance((point_mass(0),), (coin(),))
        with pytest.raises(HypothesisViolation):
            inst.validate()

    def test_rejects_asymmetric_terms(self):
        inst = ComparisonInstance((dist({0: "1/2", 1: "1/2"}),), (point_mass(0),))
        with pytest.raises(HypothesisViolation):
            inst.validate()
        with pytest.raises(HypothesisViolation):
            inst.validate()  # a failed check is not cached as a pass

    def test_sums_built_once(self):
        inst = two_coin_example()
        assert inst.sums() is inst.sums()
        assert inst.sums() == (exact_sum_distribution(inst.xs), exact_sum_distribution(inst.ys))
        assert inst == two_coin_example() and hash(inst) == hash(two_coin_example())


class TestPruss:
    def test_sharpness_example(self):
        report = pruss_check(two_coin_example(), [1])
        (t, s_tail, t_tail), = report.rows
        assert (t, s_tail, t_tail) == (1, Fraction(1, 2), Fraction(1))
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
        assert report.rows[0] == (1, Fraction(1, 2), Fraction(1, 2))

    def test_zero_excluded_for_a_reason(self):
        # at m = 0 the ordering genuinely fails: 3/4 < 1
        s, t = two_coin_example().sums()
        assert half_mass(s, 0) == Fraction(3, 4)
        assert half_mass(t, 0) == 1

    def test_identical_extremal_terms_give_equality(self):
        law = dist({-1: "1/4", 0: "1/2", 1: "1/4"})
        inst = ComparisonInstance((law, law), (law, law))
        report = half_mass_check(inst, 1, 2)
        assert all(lhs == rhs for _, lhs, rhs in report.rows)

    def test_wider_x_terms(self):
        xs = (dist({-2: "1/2", 2: "1/2"}), dist({-2: "1/2", 2: "1/2"}))
        ys = (coin(), coin())
        report = half_mass_check(ComparisonInstance(xs, ys), 1, 2)
        assert report.ok

    def test_y_support_enforced(self):
        xs = (dist({-2: "1/2", 2: "1/2"}),)
        with pytest.raises(HypothesisViolation):
            half_mass_check(ComparisonInstance(xs, xs), 1, 1)

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
