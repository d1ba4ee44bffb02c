import copy
import itertools
import math
import pickle
import random
import time
from fractions import Fraction

import pytest

from symtail.distributions import (
    LatticeDistribution,
    abs_stochastically_geq,
    abs_tail,
    as_success_vector,
    convolve,
    interval_mass,
    is_symmetric,
    is_unimodal_with_span,
    point_mass,
    poisson_binomial,
    symmetric_three_point,
)

from util import big_rational, coin, dist, random_probability, random_symmetric_law


class TestConstruction:
    def test_zero_masses_pruned(self):
        d = dist({0: Fraction(1), 1: 0})
        assert d.support == (Fraction(0),)

    def test_equal_points_merged_before_zeros_pruned(self):
        # "1" and "2/2" are one point whose masses cancel: the merged zero is
        # pruned, as from_json_dict does with the same atoms.
        masses = {"1": "1/2", "2/2": "-1/2", 0: 1}
        atoms = [{"x": x, "mass": m} for x, m in masses.items()]
        assert dist(masses) == point_mass(0)
        assert LatticeDistribution.from_json_dict({"atoms": atoms}) == point_mass(0)
        assert dist({"1": "1", "2/2": "-1/2", 0: "1/2"}) == dist({0: "1/2", 1: "1/2"})

    def test_mass_sum_enforced(self):
        with pytest.raises(ValueError):
            LatticeDistribution(((Fraction(0), Fraction(1, 2)),))

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError):
            LatticeDistribution(
                ((Fraction(0), Fraction(3, 2)), (Fraction(1), Fraction(-1, 2)))
            )

    @pytest.mark.parametrize(
        "atoms, message",
        [((), "distribution needs at least one atom"),
         (((0, Fraction(1)),), "atoms must hold Fractions"),
         (((Fraction(0), 1),), "atoms must hold Fractions"),
         (((Fraction(0), Fraction(0)), (Fraction(1), Fraction(1))),
          "mass at 0 must be positive, got 0"),
         (((Fraction(1), Fraction(1, 2)), (Fraction(1), Fraction(1, 2))),
          "support must be strictly increasing"),
         (((Fraction(1), Fraction(1, 2)), (Fraction(-1), Fraction(1, 2))),
          "support must be strictly increasing")],
        ids=["empty", "int-x", "int-mass", "zero-mass", "equal-points", "decreasing-points"],
    )
    def test_atoms_contract(self, atoms, message):
        with pytest.raises(ValueError) as raised:
            LatticeDistribution(atoms)
        assert str(raised.value) == message

    @pytest.mark.parametrize(
        "masses, dense",
        [({"-1/2": "1/4", 0: "1/2", "3/2": "1/4"},
          (Fraction(-1, 2), Fraction(1, 2), 8, (2, 4, 0, 0, 2))),
         ({"3": "1"}, (Fraction(3), Fraction(7), 5, (5, 0))),
         ({"-1/3": "2/7", "2/3": "5/7"}, (Fraction(-1, 3), Fraction(1, 3), 7, (2, 0, 0, 5)))],
        ids=["three-atoms", "point-mass", "mixed-denominators"],
    )
    def test_every_constructor_builds_one_form(self, masses, dense):
        atoms = tuple(sorted((Fraction(x), Fraction(m)) for x, m in masses.items()))
        literal = {"atoms": [{"x": f"{2 * x.numerator}/{2 * x.denominator}", "mass": str(m)}
                             for x, m in reversed(atoms)]}
        laws = [
            LatticeDistribution(atoms),
            LatticeDistribution.from_masses(masses),
            LatticeDistribution.from_json_dict(literal),
            LatticeDistribution._from_dense(*dense),
        ]
        if len(atoms) == 1:
            laws.append(point_mass(atoms[0][0]))
        for d in laws:
            copied = pickle.loads(pickle.dumps(d))
            assert d == laws[0] == copied and hash(d) == hash(laws[0]) == hash(copied)
            assert d.atoms == copied.atoms == atoms

    def test_span_is_gcd_of_gaps(self):
        assert dist({0: "1/2", "3/2": "1/4", 3: "1/4"}).span == Fraction(3, 2)
        assert point_mass(5).span == 0

    def test_json_round_trip(self):
        d = dist({"-1/2": "1/4", 0: "1/2", "1/2": "1/4"})
        assert LatticeDistribution.from_json_dict(d.to_json_dict()) == d

    def test_immutable_and_copyable(self):
        d = dist({"-1/2": "1/4", 0: "1/2", "1/2": "1/4"})
        with pytest.raises(AttributeError):
            d.den = 2
        assert copy.deepcopy(d) == d
        assert pickle.loads(pickle.dumps(d)) == d

    def test_negative_mass_message_past_str_digit_limit(self):
        # Three masses at 0 merge to a negative one whose parts have about
        # 6 000 digits, more than str() may write.
        masses = [Fraction(1, 10**2000 + 1), Fraction(1, 10**2000 + 3), Fraction(-3, 10**2000 + 7)]
        atoms = [{"x": "0", "mass": f"{m.numerator}/{m.denominator}"} for m in masses]
        with pytest.raises(ValueError) as raised:
            LatticeDistribution.from_json_dict({"atoms": atoms + [{"x": "1", "mass": "1"}]})
        prefix = "mass at 0 must be positive, got "
        message = str(raised.value)
        assert message.startswith(prefix)
        merged = big_rational(message[len(prefix):])
        assert merged == sum(masses) < 0
        with pytest.raises(ValueError):
            str(merged.denominator)

    def test_json_rejects_garbage(self):
        with pytest.raises(ValueError):
            LatticeDistribution.from_json_dict({"atoms": []})
        with pytest.raises(ValueError):
            LatticeDistribution.from_json_dict({"atoms": [{"x": "1"}]})

    def test_success_vector_validation(self):
        assert as_success_vector(["1/2", 1]) == (Fraction(1, 2), Fraction(1))
        with pytest.raises(ValueError):
            as_success_vector([])
        with pytest.raises(ValueError):
            as_success_vector(["3/2"])


class TestPoissonBinomial:
    def test_fair_coins(self):
        assert poisson_binomial(["1/2", "1/2"]) == dist(
            {0: "1/4", 1: "1/2", 2: "1/4"}
        )

    def test_deterministic_successes(self):
        assert poisson_binomial([1, 1]) == point_mass(2)

    def test_heterogeneous(self):
        # direct product expansion of (1-p1)(1-p2), p1(1-p2)+p2(1-p1), p1*p2
        assert poisson_binomial(["1/2", "1/3"]) == dist(
            {0: "1/3", 1: "1/2", 2: "1/6"}
        )


class TestSymmetricThreePoint:
    def test_single_sure_term(self):
        assert symmetric_three_point([1], 1) == coin()

    def test_two_sure_terms(self):
        assert symmetric_three_point([1, 1], 1) == dist(
            {-2: "1/4", 0: "1/2", 2: "1/4"}
        )

    def test_scaled(self):
        assert symmetric_three_point(["1/2"], 2) == dist(
            {-2: "1/4", 0: "1/2", 2: "1/4"}
        )

    def test_always_symmetric(self):
        rng = random.Random(7)
        for _ in range(20):
            n = rng.randint(1, 6)
            p = [random_probability(rng) for _ in range(n)]
            assert is_symmetric(symmetric_three_point(p, Fraction(3, 2)))

    def test_matches_direct_product_expansion(self):
        # independent oracle: enumerate the product of per-term outcomes
        rng = random.Random(11)
        for _ in range(10):
            n = rng.randint(1, 8)
            p = [random_probability(rng) for _ in range(n)]
            h = Fraction(rng.randint(1, 3), rng.randint(1, 3))
            outcomes = [
                [(-h, pi / 2), (Fraction(0), 1 - pi), (h, pi / 2)] for pi in p
            ]
            masses = {}
            for combo in itertools.product(*outcomes):
                z = sum((x for x, _ in combo), Fraction(0))
                w = Fraction(1)
                for _, q in combo:
                    w *= q
                masses[z] = masses.get(z, Fraction(0)) + w
            expected = LatticeDistribution.from_masses(masses)
            assert symmetric_three_point(p, h) == expected

    def test_pushforward_of_poisson_binomial(self):
        # STPC equals B_p pushed through k -> sum of k independent +-h signs
        rng = random.Random(13)
        for _ in range(10):
            n = rng.randint(1, 7)
            p = [random_probability(rng) for _ in range(n)]
            h = Fraction(rng.randint(1, 4))
            masses = {}
            for k_frac, bk in poisson_binomial(p).atoms:
                k = int(k_frac)
                for j in range(k + 1):  # j positive signs among k
                    z = (2 * j - k) * h
                    w = bk * Fraction(math.comb(k, j), 2**k)
                    masses[z] = masses.get(z, Fraction(0)) + w
            assert symmetric_three_point(p, h) == LatticeDistribution.from_masses(
                masses
            )


class TestConvolve:
    def test_identity_element(self):
        d = dist({-1: "1/3", 2: "2/3"})
        assert convolve(point_mass(0), d) == d

    def test_two_coins(self):
        assert convolve(coin(), coin()) == dist({-2: "1/4", 0: "1/2", 2: "1/4"})

    def test_mixed_lattices(self):
        d1 = dist({0: "1/2", 1: "1/2"})
        d2 = dist({0: "2/3", "1/2": "1/3"})
        out = convolve(d1, d2)
        assert out == dist({0: "1/3", "1/2": "1/6", 1: "1/3", "3/2": "1/6"})
        assert out.span == Fraction(1, 2)

    def test_commutative_associative_random(self):
        rng = random.Random(3)
        for _ in range(15):
            a = random_symmetric_law(rng)
            b = random_symmetric_law(rng, h=Fraction(1, 2))
            c = random_symmetric_law(rng, h=Fraction(3, 2))
            assert convolve(a, b) == convolve(b, a)
            assert convolve(convolve(a, b), c) == convolve(a, convolve(b, c))

    def test_total_mass_exactly_one(self):
        rng = random.Random(5)
        for _ in range(10):
            out = convolve(random_symmetric_law(rng), random_symmetric_law(rng))
            assert sum(m for _, m in out.atoms) == 1


class TestQueries:
    def test_interval_mass_half_open(self):
        d = dist({-2: "1/4", 0: "1/2", 2: "1/4"})
        assert interval_mass(d, -2, 2, lo_closed=False, hi_closed=True) == Fraction(
            3, 4
        )

    def test_interval_mass_empty(self):
        d = dist({-2: "1/4", 0: "1/2", 2: "1/4"})
        assert interval_mass(d, 1, 1, lo_closed=False, hi_closed=False) == 0

    def test_interval_mass_point(self):
        assert interval_mass(point_mass(0), 0, 0) == 1

    def test_interval_mass_bad_bounds(self):
        with pytest.raises(ValueError):
            interval_mass(point_mass(0), 1, 0)

    def test_abs_tail_strict(self):
        d = dist({-2: "1/4", 0: "1/2", 2: "1/4"})
        assert abs_tail(d, 1, strict=True) == Fraction(1, 2)

    def test_abs_tail_at_zero(self):
        assert abs_tail(point_mass(0), 0, strict=True) == 0

    def test_abs_tail_weak(self):
        assert abs_tail(coin(), 1, strict=False) == 1

    def test_abs_tail_negative_t_rejected(self):
        with pytest.raises(ValueError):
            abs_tail(coin(), -1)


class TestPredicates:
    def test_symmetric_examples(self):
        assert is_symmetric(coin())
        assert not is_symmetric(dist({0: "1/3", 1: "2/3"}))
        assert is_symmetric(point_mass(0))
        assert not is_symmetric(point_mass(3))

    def test_unimodal_examples(self):
        assert is_unimodal_with_span(dist({-1: "1/4", 0: "1/2", 1: "1/4"}), 1)
        assert is_unimodal_with_span(coin(), 2)
        # gap at 0 breaks the rise/fall pattern on the unit lattice
        assert not is_unimodal_with_span(coin(), 1)

    def test_unimodal_point_mass_any_span(self):
        assert is_unimodal_with_span(point_mass(3), 0)
        assert is_unimodal_with_span(point_mass(3), "7/2")

    def test_unimodal_span_zero_only_point_masses(self):
        assert not is_unimodal_with_span(coin(), 0)

    def test_unimodal_rejects_negative_span(self):
        with pytest.raises(ValueError, match="span must be nonnegative, got -1"):
            is_unimodal_with_span(point_mass(3), -1)

    def test_unimodal_fine_span_needs_no_dense_scan(self):
        # two atoms 2*10^9 spans apart: rejected from the lattice form alone
        started = time.perf_counter()
        assert not is_unimodal_with_span(coin(), Fraction(1, 10**9))
        assert time.perf_counter() - started < 1

    def test_unimodal_off_lattice(self):
        assert not is_unimodal_with_span(dist({0: "1/2", "1/3": "1/2"}), 1)

    def test_unimodal_plateau_allowed(self):
        assert is_unimodal_with_span(
            dist({-1: "1/3", 0: "1/3", 1: "1/3"}), 1
        )

    def test_unimodal_rejects_double_peak(self):
        assert not is_unimodal_with_span(
            dist({-1: "3/8", 0: "1/4", 1: "3/8"}), 1
        )

    def test_abs_dominance_examples(self):
        assert abs_stochastically_geq(coin(), point_mass(0))
        assert not abs_stochastically_geq(point_mass(0), coin())

    def test_abs_dominance_reflexive(self):
        rng = random.Random(9)
        for _ in range(10):
            d = random_symmetric_law(rng)
            assert abs_stochastically_geq(d, d)
