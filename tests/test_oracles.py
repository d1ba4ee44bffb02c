import itertools
import random
from fractions import Fraction

import pytest

from symtail.bounds import improved_bound, kanter_supremum
from symtail.distributions import abs_tail, point_mass
from symtail.exactmath import largest_binomial_sum
from symtail import oracles
from symtail.oracles import (
    KleitmanInstance,
    SampleConfig,
    SupportCapExceeded,
    bound_soundness_sweep,
    equality_instance,
    exact_sum_distribution,
    kleitman_count,
    monte_carlo_tail,
    symmetric_lattice_family,
    tightness_search,
)

from util import coin, dist, random_success_vector, random_symmetric_law


def ball(center, radius):
    return (center, radius)


class TestKleitmanValidation:
    def test_diameter_hypothesis_enforced(self):
        inst = KleitmanInstance.make(
            1, [(1,)], "absolute", [ball((0,), Fraction(2, 3))]
        )
        with pytest.raises(ValueError, match="diameter"):
            inst.validate()

    def test_enumeration_cap(self):
        inst = KleitmanInstance.make(
            1, [(1,)] * 25, "absolute", [ball((0,), Fraction(1, 4))]
        )
        with pytest.raises(ValueError, match="cap"):
            inst.validate()

    def test_absolute_norm_needs_dimension_one(self):
        inst = KleitmanInstance.make(
            2, [(1, 0)], "absolute", [ball((0, 0), Fraction(1, 4))]
        )
        with pytest.raises(ValueError):
            inst.validate()

    def test_unknown_norm(self):
        inst = KleitmanInstance.make(1, [(1,)], "l7", [ball((0,), Fraction(1, 4))])
        with pytest.raises(ValueError, match="norm"):
            inst.validate()


class TestKleitmanCount:
    def test_central_window_equality(self):
        inst = KleitmanInstance.make(
            1, [(1,)] * 4, "absolute", [ball((2,), Fraction(1, 4))]
        )
        assert kleitman_count(inst) == 6  # C(4,2) = F_4(1)

    def test_unreachable_target(self):
        inst = KleitmanInstance.make(
            1, [(1,)], "absolute", [ball((10,), Fraction(1, 4))]
        )
        assert kleitman_count(inst) == 0

    def test_empty_set_counts(self):
        inst = KleitmanInstance.make(
            1, [(1,)], "absolute", [ball((0,), Fraction(1, 4))]
        )
        assert kleitman_count(inst) == 1

    def test_random_planar_instance_below_ceiling(self):
        rng = random.Random(41)
        vectors = []
        for _ in range(10):
            # unit sup-norm rational vectors
            x = Fraction(rng.randint(-4, 4), 4)
            vectors.append((Fraction(1), x) if rng.random() < 0.5 else (x, Fraction(1)))
        targets = [
            ball((Fraction(rng.randint(-8, 8), 2), Fraction(rng.randint(-8, 8), 2)),
                 Fraction(1, 4))
            for _ in range(2)
        ]
        inst = KleitmanInstance.make(2, vectors, "sup", targets)
        assert kleitman_count(inst) <= largest_binomial_sum(10, 2)

    def test_equality_instances(self):
        for n in range(1, 13):
            for m in range(1, 5):
                assert kleitman_count(equality_instance(n, m)) == largest_binomial_sum(
                    n, m
                )

    def test_matches_direct_enumeration_euclidean(self):
        rng = random.Random(42)
        for _ in range(5):
            n = rng.randint(3, 8)
            vectors = [
                (Fraction(rng.choice([-2, -1, 1, 2]), 2), Fraction(rng.randint(-2, 2), 2))
                for _ in range(n)
            ]
            # radius below half the smallest euclidean norm: sup norm >= 1/2
            # for every vector here, so euclidean norm >= 1/2 as well
            targets = [
                ball((Fraction(rng.randint(-4, 4), 2), Fraction(rng.randint(-4, 4), 2)),
                     Fraction(1, 5))
                for _ in range(rng.randint(1, 3))
            ]
            inst = KleitmanInstance.make(2, vectors, "euclidean", targets)
            # independent oracle: plain itertools subset enumeration
            expected = 0
            for mask in itertools.product([0, 1], repeat=n):
                sx = sum(b * v[0] for b, v in zip(mask, vectors))
                sy = sum(b * v[1] for b, v in zip(mask, vectors))
                for (cx, cy), r in targets:
                    if (sx - cx) ** 2 + (sy - cy) ** 2 < r * r:
                        expected += 1
                        break
            assert kleitman_count(inst) == expected

    def test_translation_and_permutation_invariance_of_bound(self):
        inst = equality_instance(8, 2)
        shifted = KleitmanInstance.make(
            1,
            list(reversed(inst.vectors)),
            "absolute",
            [((c[0] + 3,), r) for c, r in inst.targets],
        )
        count = kleitman_count(shifted)
        assert count <= largest_binomial_sum(8, 2)


class TestExactSumDistribution:
    def test_two_coins(self):
        assert exact_sum_distribution([coin(), coin()]) == dist(
            {-2: "1/4", 0: "1/2", 2: "1/4"}
        )

    def test_empty_sum(self):
        assert exact_sum_distribution([]) == point_mass(0)

    def test_extremal_half_half(self):
        terms = [dist({-1: "1/4", 0: "1/2", 1: "1/4"})] * 2
        assert exact_sum_distribution(terms) == dist(
            {-2: "1/16", -1: "1/4", 0: "3/8", 1: "1/4", 2: "1/16"}
        )

    def test_cap(self):
        with pytest.raises(SupportCapExceeded):
            exact_sum_distribution([coin(), coin()], max_support=3)

    def test_matches_sign_pattern_enumeration(self):
        # independent oracle: enumerate all (zero, -h, +h) patterns
        rng = random.Random(43)
        for _ in range(5):
            n = rng.randint(1, 6)
            p = random_success_vector(rng, n)
            h = Fraction(1)
            terms = [
                dist({-h: pi / 2, 0: 1 - pi, h: pi / 2}) if pi else point_mass(0)
                for pi in p
            ]
            masses = {}
            options = [
                [(Fraction(0), 1 - pi), (-h, pi / 2), (h, pi / 2)] for pi in p
            ]
            for combo in itertools.product(*options):
                z = sum((x for x, _ in combo), Fraction(0))
                w = Fraction(1)
                for _, q in combo:
                    w *= q
                if w:
                    masses[z] = masses.get(z, Fraction(0)) + w
            assert exact_sum_distribution(terms) == dist(masses)


class TestBoundSoundnessSweep:
    def test_small_family_no_violations(self):
        report = bound_soundness_sweep(
            symmetric_lattice_family(3), 1, [Fraction(k, 2) for k in range(6)]
        )
        assert report.ok
        assert report.min_slack is not None and report.min_slack >= 0
        assert report.instances == 15 + 120 + 680

    def test_all_zero_instance(self):
        report = bound_soundness_sweep([[point_mass(0)] * 3], 1, [0, 1, 2])
        assert report.ok
        assert report.min_slack == 0  # tail 0, bound 0

    def test_rejects_asymmetric_terms(self):
        with pytest.raises(ValueError, match="symmetric"):
            bound_soundness_sweep([[dist({0: "1/2", 1: "1/2"})]], 1, [0])

    def test_two_coins_slack(self):
        report = bound_soundness_sweep([[coin(), coin()]], 1, [1])
        assert report.min_slack == Fraction(1, 2) - Fraction(1, 4)

    def test_support_cap(self):
        # 447^2 <= 200 000 < 449^2, the cap of exact_sum_distribution
        for atoms, capped in ((447, False), (449, True)):
            wide = dist({k - atoms // 2: Fraction(1, atoms) for k in range(atoms)})
            if capped:
                with pytest.raises(SupportCapExceeded):
                    bound_soundness_sweep([[wide, wide]], 1, [0])
            else:
                assert bound_soundness_sweep([[wide, wide]], 1, [0]).ok


class TestTightnessSearch:
    def test_two_sure_coins(self):
        report = tightness_search([1, 1], 1, 1)
        assert report.best_value == Fraction(1, 2)
        assert report.bound == Fraction(1, 4)
        assert report.gap == Fraction(1, 4)

    def test_all_zero(self):
        report = tightness_search([0, 0], 1, 1)
        assert report.best_value == 0
        assert report.bound == 0
        assert report.gap == 0

    def test_with_outer_grid(self):
        report = tightness_search(
            [1, 1], 1, 1, h_grid=[Fraction(3, 2)], split_grid=[0, Fraction(1, 2), 1]
        )
        assert report.gap >= 0
        assert report.best_value >= report.bound

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            tightness_search([1], 1, 1)  # t = n*h is out of domain
        with pytest.raises(ValueError):
            tightness_search([1, 1], 1, 1, split_grid=[])

    def test_negative_gap_is_reported(self, monkeypatch):
        monkeypatch.setattr(oracles, "improved_bound", lambda p, h, t: Fraction(1))
        report = tightness_search([1, 1], 1, 1)
        assert report.gap == Fraction(-1, 2)


class TestMonteCarlo:
    def test_point_mass_terms(self):
        cfg = SampleConfig(seed=1, replications=1000, terms=(
            {"kind": "atoms", "atoms": {0: 1}},
        ))
        assert monte_carlo_tail(cfg, 0.0) == (0.0, 0.0)

    def test_deterministic_coin_event(self):
        cfg = SampleConfig(seed=2, replications=1000, terms=(
            {"kind": "atoms", "atoms": {"-1": "1/2", "1": "1/2"}},
        ))
        estimate, std_error = monte_carlo_tail(cfg, 0.5)
        assert estimate == 1.0
        assert std_error == 0.0

    def test_seed_determinism(self):
        cfg = SampleConfig(seed=99, replications=5000, terms=(
            {"kind": "gaussian", "sigma": 1.0},
            {"kind": "uniform", "scale": 2},
        ))
        assert monte_carlo_tail(cfg, 1.0) == monte_carlo_tail(cfg, 1.0)

    def test_lattice_tail_within_four_standard_errors(self):
        terms = [dist({-2: "1/4", -1: "1/4", 1: "1/4", 2: "1/4"})] * 3
        exact = abs_tail(exact_sum_distribution(terms), 2, strict=True)
        cfg = SampleConfig(
            seed=2024,
            replications=100_000,
            terms=tuple(
                {"kind": "atoms", "atoms": {-2: "1/4", -1: "1/4", 1: "1/4", 2: "1/4"}}
                for _ in range(3)
            ),
        )
        estimate, std_error = monte_carlo_tail(cfg, 2.0)
        assert abs(estimate - float(exact)) <= 4 * max(std_error, 1e-9)

    def test_replication_floor(self):
        cfg = SampleConfig(seed=1, replications=10, terms=(
            {"kind": "atoms", "atoms": {0: 1}},
        ))
        with pytest.raises(ValueError):
            monte_carlo_tail(cfg, 0.0)

    def test_gaussian_respects_improved_bound(self):
        import math

        n = 6
        h = 1
        # rational lower bound for P(|N(0,1)| >= 1)
        p_tail = math.erfc(1 / math.sqrt(2))
        p = Fraction(int(p_tail * 10**9), 10**9)
        bound = improved_bound([p] * n, h, 2)
        cfg = SampleConfig(
            seed=7,
            replications=100_000,
            terms=tuple({"kind": "gaussian", "sigma": 1.0} for _ in range(n)),
        )
        estimate, std_error = monte_carlo_tail(cfg, 2.0)
        assert estimate >= float(bound) - 3 * std_error
