import itertools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import symtail
from symtail.bounds import improved_bound, kanter_supremum
from symtail.distributions import LatticeDistribution, abs_tail, point_mass
from symtail.exactmath import largest_binomial_sum
from symtail import distributions, oracles
from symtail.oracles import (
    KleitmanInstance,
    SampleConfig,
    SupportCapExceeded,
    bound_soundness_sweep,
    equality_instance,
    exact_sum_distribution,
    kleitman_count,
    monte_carlo_tail,
    sweep_checks,
    symmetric_lattice_family,
    tightness_search,
)

from test_acceptance import _random_kleitman_instance
from util import (
    coin,
    count_convolutions,
    count_dense_sumsets,
    count_prefix_sums,
    dist,
    random_success_vector,
    random_symmetric_law,
    ref_kleitman_count,
    shifted_window_sums,
)

GOLDEN = Path(__file__).parent / "golden"


def ball(center, radius):
    return (center, radius)


def instance(dimension, vectors, norm, targets) -> KleitmanInstance:
    """A KleitmanInstance from lists of plain numbers, read as Fractions."""
    return KleitmanInstance(
        dimension,
        tuple(tuple(map(Fraction, v)) for v in vectors),
        norm,
        tuple((tuple(map(Fraction, center)), Fraction(radius)) for center, radius in targets),
    )


def halves(dimension, vectors, norm, targets) -> KleitmanInstance:
    """instance() with every coordinate and centre given in halves."""
    def half(v):
        return [Fraction(c, 2) for c in v]
    return instance(dimension, map(half, vectors), norm,
                    [(half(center), radius) for center, radius in targets])


def counted(inst, monkeypatch) -> tuple[int, str]:
    """kleitman_count(inst) and the path it took, "dense" or "sparse"."""
    with monkeypatch.context() as patch:
        dense = count_dense_sumsets(patch)
        count = kleitman_count(inst)
    return count, "dense" if dense else "sparse"


def norm_of(x, norm):
    """||x||, or ||x||^2 for the euclidean norm, from the norm's definition."""
    if norm == "euclidean":
        return sum(c * c for c in x)
    if norm == "sup":
        return max(abs(c) for c in x)
    return sum(abs(c) for c in x)


class TestKleitmanValidation:
    def test_diameter_hypothesis_enforced(self, monkeypatch):
        # on the Fractions, before the integer form is built: on large
        # denominators the form is the costly part
        def no_form(inst):
            raise AssertionError("integer form built before the diameter check")

        monkeypatch.setattr(KleitmanInstance, "_integer_form", property(no_form))
        with pytest.raises(ValueError, match="diameter"):
            instance(1, [(1,)], "absolute", [ball((0,), Fraction(2, 3))])

    def test_enumeration_cap(self):
        # Generic vectors: all 2^20 subset sums are distinct, and the work
        # 2^20 * (20 + 1) exceeds MAX_SUMSET_WORK = 2^24.
        with pytest.raises(ValueError, match="cap"):
            instance(1, [(1 << i,) for i in range(20)], "absolute", [ball((0,), Fraction(1, 4))])
        instance(1, [(1 << i,) for i in range(19)], "absolute", [ball((0,), Fraction(1, 4))])

    @pytest.mark.parametrize(
        "dimension, vectors, additions",
        [
            (1, [(1,)] * 5, 5 * 6),  # box: 6 distinct sums < 2^5
            (1, [("2/3",), ("4/3",), ("-2/3",)], 3 * 5),  # gcd 2/3: sums -2/3 .. 2
            (2, [(1, 0), (0, 1), (1, 1)], 3 * 8),  # 2^3 < box 3 * 3
            (3, [(1, 0, 0), (0, 2, 0), (0, 0, 3), (1, 2, 3)], 4 * 16),  # 2^4 < box 3*3*3
            (2, [(2, 0), (4, 0)], 2 * 4),  # a zero coordinate adds width 1
        ],
    )
    def test_work_cap_boundary(self, monkeypatch, dimension, vectors, additions):
        # additions = n * S for S = min(2^n, prod_j (sum_i |a_ij| / g_j + 1))
        # distinct sums, g_j the gcd of coordinate j; the work adds m * d
        # coordinate tests per sum.  At the cap it builds, one above it does not.
        targets = [ball((0,) * dimension, Fraction(1, 4))]
        work = additions + additions // len(vectors) * len(targets) * dimension
        monkeypatch.setattr(oracles, "MAX_SUMSET_WORK", work)
        instance(dimension, vectors, "sup", targets)
        monkeypatch.setattr(oracles, "MAX_SUMSET_WORK", work - 1)
        with pytest.raises(ValueError, match="cap"):
            instance(dimension, vectors, "sup", targets)

    @pytest.mark.parametrize(
        "dimension, vectors, m, work",
        [
            (1, [(1,)] * 5, 4, 6 * (5 + 4 * 1)),
            (2, [(1, 0), (0, 1), (1, 1)], 2, 8 * (3 + 2 * 2)),
            (3, [(1, 0, 0), (0, 2, 0), (0, 0, 3), (1, 2, 3)], 3, 16 * (4 + 3 * 3)),
        ],
    )
    def test_target_work_cap_boundary(self, monkeypatch, dimension, vectors, m, work):
        # S * (n + m * d): every target adds d coordinate tests per distinct sum.
        targets = [ball((j,) + (0,) * (dimension - 1), Fraction(1, 4)) for j in range(m)]
        monkeypatch.setattr(oracles, "MAX_SUMSET_WORK", work)
        instance(dimension, vectors, "sup", targets)
        with pytest.raises(ValueError, match="cap"):
            instance(dimension, vectors, "sup", targets + targets[:1])
        monkeypatch.setattr(oracles, "MAX_SUMSET_WORK", work - 1)
        with pytest.raises(ValueError, match="cap"):
            instance(dimension, vectors, "sup", targets)

    def test_absolute_norm_needs_dimension_one(self):
        with pytest.raises(ValueError):
            instance(2, [(1, 0)], "absolute", [ball((0, 0), Fraction(1, 4))])

    def test_unknown_norm(self):
        with pytest.raises(ValueError, match="norm"):
            instance(1, [(1,)], "l7", [ball((0,), Fraction(1, 4))])

    @pytest.mark.parametrize(
        "norm, vectors, min_norm",
        [("euclidean", [(6, -8), (3, 4)], 5), ("sup", [(6, -8), (3, -4)], 4),
         ("one", [(6, 8), (-3, 4)], 7), ("absolute", [(5,), (-3,)], 3)],
        ids=["euclidean", "sup", "one", "absolute"],
    )
    def test_diameter_boundary_per_norm(self, norm, vectors, min_norm):
        # Open balls of radius r have diameter 2r, so 2r = min ||a_i|| is
        # rejected, for the second target too, and 2r just below is accepted.
        center = (0,) * len(vectors[0])
        edge = Fraction(min_norm, 2)
        ok = ball(center, edge - Fraction(1, 1000))
        for targets in ([ball(center, edge)], [ok, ball(center, edge)]):
            with pytest.raises(ValueError, match="diameter"):
                instance(len(center), vectors, norm, targets)
        instance(len(center), vectors, norm, [ok, ok])

    def test_bad_shapes_rejected(self):
        good = dict(dimension=1, vectors=[(1,)], norm="one", targets=[ball((0,), "1/4")])
        instance(**good)
        for change, message in [
            ({"dimension": 0}, "dimension"),
            ({"vectors": []}, "at least one"),
            ({"targets": []}, "at least one"),
            ({"vectors": [(1, 0)]}, "vector dimension"),
            ({"targets": [ball((0, 0), "1/4")]}, "center dimension"),
            ({"targets": [ball((0,), "-1/4")]}, "nonnegative"),
        ]:
            with pytest.raises(ValueError, match=message):
                instance(**(good | change))


class TestKleitmanCount:
    def test_central_window_equality(self):
        inst = instance(1, [(1,)] * 4, "absolute", [ball((2,), Fraction(1, 4))])
        assert kleitman_count(inst) == 6  # C(4,2) = F_4(1)

    def test_unreachable_target(self):
        inst = instance(1, [(1,)], "absolute", [ball((10,), Fraction(1, 4))])
        assert kleitman_count(inst) == 0

    def test_empty_set_counts(self):
        inst = instance(1, [(1,)], "absolute", [ball((0,), Fraction(1, 4))])
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
        inst = instance(2, vectors, "sup", targets)
        assert kleitman_count(inst) <= largest_binomial_sum(10, 2)

    def test_equality_instances(self):
        for n in range(1, 13):
            for m in range(1, 5):
                assert kleitman_count(equality_instance(n, m)) == largest_binomial_sum(
                    n, m
                )

    def test_equality_instance_past_old_enumeration_cap(self):
        # 2^25 subsets but 26 distinct sums: work 25 * 26
        assert kleitman_count(equality_instance(25, 1)) == largest_binomial_sum(25, 1)

    @pytest.mark.parametrize("norm", oracles.NORMS)
    def test_matches_direct_enumeration(self, norm):
        rng = random.Random(42)
        d = 1 if norm == "absolute" else 2
        inside = on_boundary = 0
        for _ in range(30):
            n = rng.randint(3, 8)
            vectors = []
            for _ in range(n):
                # half-integer coordinates, one of them at least 3/2 in size,
                # so every norm is >= 3/2 and radii up to 2/3 are allowed
                v = [Fraction(rng.randint(-4, 4), 2) for _ in range(d)]
                v[rng.randrange(d)] = Fraction(rng.choice([-4, -3, 3, 4]), 2)
                vectors.append(tuple(v))
            targets = []
            for _ in range(rng.randint(1, 3)):
                # radii in fifths and thirds as well as halves; each centre is
                # a subset sum moved along one axis, by exactly the radius
                # (that sum must not count) or by a small offset
                r = rng.choice([Fraction(1, 5), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)])
                subset = [v for v in vectors if rng.random() < 0.5]
                center = [sum(v[k] for v in subset) for k in range(d)]
                center[rng.randrange(d)] += rng.choice([r, -r, Fraction(1, 3), Fraction(0)])
                targets.append(ball(tuple(center), r))
            inst = KleitmanInstance(d, tuple(vectors), norm, tuple(targets))
            # independent oracle: plain itertools subset enumeration
            radii = [r * r if norm == "euclidean" else r for _, r in targets]
            expected = 0
            for mask in itertools.product([0, 1], repeat=n):
                s = [sum(b * v[k] for b, v in zip(mask, vectors)) for k in range(d)]
                sizes = [norm_of([sk - ck for sk, ck in zip(s, c)], norm) for c, _ in targets]
                expected += any(x < r for x, r in zip(sizes, radii))
                on_boundary += any(x == r for x, r in zip(sizes, radii))
            inside += expected
            assert kleitman_count(inst) == expected
        assert inside and on_boundary

    def test_translation_and_permutation_invariance_of_bound(self):
        inst = equality_instance(8, 2)
        shifted = KleitmanInstance(
            1,
            tuple(reversed(inst.vectors)),
            "absolute",
            tuple(((c[0] + 3,), r) for c, r in inst.targets),
        )
        count = kleitman_count(shifted)
        assert count <= largest_binomial_sum(8, 2)

    @pytest.mark.parametrize("dimension, vectors, targets", [
        (1, [(-1,), (-2,), (-1,), (-3,), (-2,)], [(-4,), (-6,), (0,)]),
        # seven right shifts; (-1, 1) is the one left shift
        (2, [(-1, -1), (-1, -2), (-2, -1), (-1, -1), (-2, -2), (-1, -2), (1, -1), (-1, 1)],
         [(-3, -4), (-5, -5), (0, 0), (-9, -9)]),
    ])
    def test_negative_coordinates_on_every_axis(self, dimension, vectors, targets, monkeypatch):
        inst = instance(dimension, vectors, "sup", [ball(c, Fraction(1, 3)) for c in targets])
        expected = ref_kleitman_count(inst)
        assert expected and counted(inst, monkeypatch) == (expected, "dense")

    @pytest.mark.parametrize("dimension, vectors, targets", [
        (1, [(2,), (3,), (2,), (3,)], [(Fraction(-1, 2),), (Fraction(21, 2),)]),
        (2, [(2, 0), (3, 0), (0, 2), (0, 3), (2, 2), (3, 3), (2, 3)],
         [(Fraction(-1, 2), 5), (Fraction(25, 2), 4), (3, Fraction(-1, 2)),
          (3, Fraction(27, 2)), (Fraction(-1, 2), Fraction(-1, 2))]),
    ])
    def test_target_box_crossing_the_sums_box(self, dimension, vectors, targets, monkeypatch):
        # g = 1 while every norm is at least 2, so each target's box
        # |x_j - c_j| < 9/10 reaches past an edge of the sums' box, where an
        # unclipped index would wrap round or run into the next row
        inst = instance(dimension, vectors, "sup", [ball(c, Fraction(9, 10)) for c in targets])
        expected = ref_kleitman_count(inst)
        assert expected and counted(inst, monkeypatch) == (expected, "dense")

    def test_target_centred_off_the_sum_lattice(self, monkeypatch):
        line = instance(1, [(2,)] * 5, "absolute", [ball((Fraction(5, 2),), Fraction(3, 4))])
        assert counted(line, monkeypatch) == (5, "dense")  # the sum 2 alone, C(5, 1) ways
        # sums on 2Z x 3Z, centres between their points
        plane = halves(2, [(4, 0), (0, 6), (4, 6), (4, 0), (0, 6)], "euclidean",
                       [ball((5, 7), Fraction(4, 5)), ball((9, 1), Fraction(4, 5))])
        expected = ref_kleitman_count(plane)
        assert expected and counted(plane, monkeypatch) == (expected, "dense")

    def test_each_sum_counts_once(self, monkeypatch):
        twice = instance(1, [(1,)] * 6, "absolute", [ball((3,), Fraction(1, 4))] * 2)
        assert counted(twice, monkeypatch) == (largest_binomial_sum(6, 1), "dense")
        # both balls hold the sum 2 and nothing else
        overlap = instance(1, [(2,)] * 6, "absolute",
                           [ball((2,), Fraction(9, 10)), ball((Fraction(5, 2),), Fraction(9, 10))])
        assert counted(overlap, monkeypatch) == (6, "dense")
        plane = instance(2, [(1, 0), (0, 1), (1, 1), (1, 0), (0, 1)], "euclidean",
                         [ball((1, 1), Fraction(2, 5)), ball((Fraction(6, 5), 1), Fraction(2, 5)),
                          ball((1, 1), Fraction(2, 5))])
        expected = ref_kleitman_count(plane)
        assert expected and counted(plane, monkeypatch) == (expected, "dense")

    def test_empty_sum_inside_a_ball(self, monkeypatch):
        # mixed signs put the zero sum inside the box, not at a corner
        inst = instance(2, [(1, -1), (-1, 1), (1, 1), (-1, -1), (2, 0)], "one",
                        [ball((0, 0), Fraction(1, 2)), ball((2, 0), Fraction(1, 2))])
        zero = instance(2, inst.vectors, "one", inst.targets[:1])
        # the empty set, two opposite pairs, all four, and (2, 0) + (-1, 1) + (-1, -1)
        assert counted(zero, monkeypatch) == (5, "dense")
        assert counted(inst, monkeypatch) == (ref_kleitman_count(inst), "dense")

    @pytest.mark.parametrize("norm", oracles.NORMS)
    def test_every_norm_on_a_dense_box(self, norm, monkeypatch):
        if norm == "absolute":
            vectors, centres = [(1,), (2,), (-1,), (3,), (1,)], [(2,), (Fraction(17, 5),), (-1,)]
        else:
            vectors = [(1, 2), (2, 1), (-1, 1), (1, 0), (0, -1), (2, 2), (1, 1)]
            # a sum, a sum moved by the radius (not counted) and one moved less
            centres = [(2, 2), (Fraction(22, 5), 3), (Fraction(1, 5), Fraction(-9, 10))]
        inst = instance(len(vectors[0]), vectors, norm, [ball(c, Fraction(2, 5)) for c in centres])
        expected = ref_kleitman_count(inst)
        assert expected and counted(inst, monkeypatch) == (expected, "dense")

    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("n, path", [(63, "dense"), (64, "sparse")])
    def test_equality_instance_at_the_slot_limit(self, n, m, path, monkeypatch):
        # multiplicities need n + 1 bits: 64 fit a slot, 65 do not
        assert counted(equality_instance(n, m), monkeypatch) == (largest_binomial_sum(n, m), path)

    def test_path_rule(self, monkeypatch):
        # dense exactly when B <= 2 * min(2^n, B) for the box's B points
        edge = instance(1, [(3,), (4,)], "absolute", [ball((7,), Fraction(1, 4))])
        assert edge._integer_form[-2:] == (8, 4) and counted(edge, monkeypatch) == (1, "dense")
        past = instance(1, [(3,), (5,)], "absolute", [ball((8,), Fraction(1, 4))])
        assert past._integer_form[-2:] == (9, 4) and counted(past, monkeypatch) == (1, "sparse")
        plane = halves(2, [(0, -4), (-2, 2), (1, 2), (-4, 4), (3, 4), (4, 2), (8, -2)], "sup",
                       [ball((-8, -1), Fraction(1, 4)), ball((-4, 8), Fraction(1, 4)),
                        ball((6, 0), Fraction(1, 4))])
        # B/S just under 2 and about 2.44: instances of criterion 06's generator
        assert plane._integer_form[-2:] == (253, 128)
        assert counted(plane, monkeypatch) == (ref_kleitman_count(plane), "dense")
        space = halves(3, [(3, 0, 0), (-2, 2, -2), (4, -6, 2), (-2, 2, -6), (-1, -2, -6),
                           (3, 4, -4), (0, 6, -4), (4, 2, -2), (-1, 3, 6), (0, 0, 8),
                           (0, 3, -2), (3, 0, 0), (2, 4, 0)], "euclidean",
                       [ball((-13, -19, 2), Fraction(1, 4)), ball((12, -10, -5), Fraction(1, 4)),
                        ball((-19, -4, -6), Fraction(1, 4)), ball((-13, 13, -26), Fraction(1, 4))])
        assert space._integer_form[-2:] == (20020, 8192)
        assert counted(space, monkeypatch)[1] == "sparse"

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32), st.integers(1, 8))
    def test_packed_form(self, seed, n):
        # On criterion 06's shapes: start plus the steps of any subset
        # decodes through the box to the subset's sum, scaled by the lcm of
        # all denominators, and B and S are as KleitmanInstance defines them.
        inst = _random_kleitman_instance(random.Random(seed), n)
        _, box, _, start, steps, distinct, sums = inst._integer_form
        scale = math.lcm(*(q.denominator for v in inst.vectors for q in v),
                         *(q.denominator for c, r in inst.targets for q in (*c, r)))
        for picks in itertools.product((False, True), repeat=n):
            key = start + sum(step for step, b in zip(steps, picks) if b)
            point = []
            for g, low, width in box:
                key, k = divmod(key, width)
                point.append(low + g * k)
            chosen = [v for v, b in zip(inst.vectors, picks) if b]
            assert key == 0
            assert point == [sum(v[j] for v in chosen) * scale for j in range(inst.dimension)]
        expected = 1
        for column in zip(*inst.vectors):
            if any(column):
                # the gcd of rationals in lowest terms: gcd(nums) / lcm(dens)
                g = Fraction(math.gcd(*(q.numerator for q in column)),
                             math.lcm(*(q.denominator for q in column)))
                expected *= sum(map(abs, column)) / g + 1
        assert (distinct, sums) == (expected, min(expected, 2**n))

    def test_box_on_large_denominators(self):
        # g_j is taken from the Fractions, as gcd(nums) * (scale // lcm(dens));
        # it is the gcd of the scaled column, pinned here on coprime 60-digit
        # denominators, a target with a denominator of its own and a zero column.
        big = 10**60
        vectors = tuple((Fraction(big + 1, big + 2 * i + 1), Fraction(-3 * i, big + 7), Fraction(0))
                        for i in range(6))
        target = ((Fraction(1, 3), Fraction(0), Fraction(0)), Fraction(1, 4))
        _, box, *_ = KleitmanInstance(3, vectors, "sup", (target,))._integer_form
        scale = math.lcm(*(q.denominator for v in vectors for q in v), 3, 4)
        expected = []
        for column in zip(*vectors):
            scaled = [int(q * scale) for q in column]
            g = math.gcd(*scaled) or 1
            expected.append((g, sum(c for c in scaled if c < 0), sum(map(abs, scaled)) // g + 1))
        assert expected[2] == (1, 0, 1) and box == expected

    def test_dense_and_sparse_paths_agree(self, monkeypatch):
        # criterion 06's instances, counted on both paths; an empty slot
        # table sends every instance down the sparse one
        rng = random.Random(1006)
        sizes = [rng.randint(4, 13) for _ in range(490)] + [14, 14, 14, 15, 15, 16, 16, 17, 18, 18]
        instances = [_random_kleitman_instance(rng, n) for n in sizes]
        instances += [equality_instance(n, m) for n in range(1, 17) for m in range(1, 6)]
        dense = count_dense_sumsets(monkeypatch)
        counts = list(map(kleitman_count, instances))
        taken = len(dense)
        assert 0 < taken < len(instances)
        monkeypatch.setattr(oracles, "_SLOT_FORMATS", {})
        assert list(map(kleitman_count, instances)) == counts
        assert len(dense) == taken


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

    def test_cap(self, monkeypatch):
        monkeypatch.setattr(oracles, "MAX_SUPPORT_PRODUCT", 3)
        with pytest.raises(SupportCapExceeded):
            exact_sum_distribution([coin(), coin()])

    def test_work_budget(self, monkeypatch):
        # three coins: products 2x2, then 3x2, so the sum's work is 10
        monkeypatch.setattr(oracles, "MAX_SUM_WORK", 10)
        assert exact_sum_distribution([coin()] * 3) == dist(
            {-3: "1/8", -1: "3/8", 1: "3/8", 3: "1/8"}
        )
        monkeypatch.setattr(oracles, "MAX_SUM_WORK", 9)
        with pytest.raises(SupportCapExceeded, match="work 10 exceeds cap 9"):
            exact_sum_distribution([coin()] * 3)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_starts_from_the_first_term(self, n, monkeypatch):
        # n terms make n - 1 convolutions: none with a point mass at 0
        calls = count_convolutions(monkeypatch)
        total = exact_sum_distribution([coin()] * n)
        assert len(calls) == n - 1
        assert total.support == tuple(range(-n, n + 1, 2))

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

    def test_family_size_cap(self, monkeypatch):
        assert sum(1 for _ in symmetric_lattice_family(3, 4, 2)) == 83
        monkeypatch.setattr(oracles, "MAX_FAMILY_INSTANCES", 83)
        symmetric_lattice_family(3, 4, 2)
        monkeypatch.setattr(oracles, "MAX_FAMILY_INSTANCES", 82)
        with pytest.raises(ValueError, match="cap"):
            symmetric_lattice_family(3, 4, 2)  # raised at the call, not on iteration

    @pytest.mark.parametrize(
        "denominator, radius, h",
        [(8, 2, 1), (7, 3, Fraction(1, 2)), (5, 0, 2), (6, 1, Fraction(3, 2))],
    )
    def test_family_matches_product_enumeration(self, denominator, radius, h):
        # Profiles (u_radius, ..., u_1) from a product, in lexicographic order,
        # each law built from its masses; then every multiset of 1 or 2 laws.
        laws = []
        for outer in itertools.product(range(denominator // 2 + 1), repeat=radius):
            if 2 * sum(outer) <= denominator:
                masses = {0: Fraction(denominator - 2 * sum(outer), denominator)}
                for k, units in zip(range(radius, 0, -1), outer):
                    masses[k * h] = masses[-k * h] = Fraction(units, denominator)
                laws.append(dist(masses))
        expected = [[law] for law in laws] + [
            [law, other] for i, law in enumerate(laws) for other in laws[i:]
        ]
        family = list(symmetric_lattice_family(2, denominator, radius, h))
        assert family == expected
        assert [[law.atoms for law in inst] for inst in family] == [
            [law.atoms for law in inst] for inst in expected
        ]

    def test_profiles_match_brute_force(self):
        # Every (u_r, ..., u_1) with u_1 + ... + u_r <= d//2, sorted, as
        # (d - 2*sum, u_1, ..., u_r); the family's caps count exactly these.
        for d in range(1, 13):
            for r in range(5):
                outers = sorted(o for o in itertools.product(range(d // 2 + 1), repeat=r)
                                if sum(o) <= d // 2)
                profiles = oracles._symmetric_mass_profiles(d, r)
                assert profiles == [(d - 2 * sum(o), *o[::-1]) for o in outers], (d, r)
                assert len(profiles) == oracles._binomial_at_most(d // 2 + r, r, 10**9), (d, r)

    @pytest.mark.parametrize("max_n, h", [(2, 0), (2, -1), (-2, 1)])
    def test_bad_h_or_max_n_rejected_before_the_caps(self, max_n, h):
        # h = 0 would put both atoms of a coin at 0, h = -1 give a descending
        # support, max_n = -2 an empty family; the family below is past both caps
        with pytest.raises(ValueError, match=r"need h > 0 and max_n >= 0"):
            symmetric_lattice_family(max_n, 10**30, 10**30, h)

    def test_huge_family_rejected_at_once(self):
        with pytest.raises(ValueError, match="cap"):
            symmetric_lattice_family(2, 10**30, 10**30)

    def test_instance_longer_than_the_recursion_limit(self):
        # 1 100 prefix sums, each built from the one before it
        report = bound_soundness_sweep([[coin()] * 1100], 1, [0, 1])
        assert report.ok and report.checks == 2

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

    def test_violations_reported(self, monkeypatch):
        # The instances of the golden sweep_inflate input under the improved
        # bound shifted up by 1/8: the two rows its CSV marks VIOLATION, as
        # (instance, t, bound, tail), and the least slack at the first.
        spec = json.loads((GOLDEN / "sweep_inflate.json").read_text())
        instances = [[LatticeDistribution.from_json_dict(law) for law in inst]
                     for inst in spec["instances"]]
        monkeypatch.setattr(oracles, "_window_sums", shifted_window_sums(Fraction(1, 8)))
        report = bound_soundness_sweep(instances, spec["h"], spec["t_grid"])
        assert not report.ok
        assert (report.instances, report.checks) == (2, 4)
        assert report.violations == [(0, 0, Fraction(5, 8), Fraction(1, 2)),
                                     (1, 1, Fraction(1, 4), Fraction(7, 32))]
        assert (report.min_slack, report.min_slack_at) == (Fraction(-1, 8), (0, 0))

    def test_support_cap(self):
        # 447^2 <= 200 000 < 449^2, the cap of exact_sum_distribution
        for atoms, capped in ((447, False), (449, True)):
            wide = dist({k - atoms // 2: Fraction(1, atoms) for k in range(atoms)})
            if capped:
                with pytest.raises(SupportCapExceeded):
                    bound_soundness_sweep([[wide, wide]], 1, [0])
            else:
                assert bound_soundness_sweep([[wide, wide]], 1, [0]).ok


class TestSweepChecks:
    def test_family_convolutions(self, monkeypatch):
        # Every prefix sum is a prefix of a longer instance: the 815
        # multisets of 1-3 laws, each one packed product.  No instance's own
        # sum is formed, and nothing is convolved.
        calls = count_convolutions(monkeypatch)
        prefix_sums = count_prefix_sums(monkeypatch)
        # whether each _packed call finds its form already on the record
        packed, real = [], oracles._packed
        monkeypatch.setattr(oracles, "_packed", lambda rec, stride, fmt: packed.append(
            (stride, fmt) in rec[6]) or real(rec, stride, fmt))
        report = bound_soundness_sweep(
            symmetric_lattice_family(4), 1, [Fraction(k, 2) for k in range(8)]
        )
        assert (report.instances, report.checks, report.min_slack) == (3875, 29070, 0)
        assert (len(prefix_sums), len(calls)) == (815, 0)
        assert (len(packed), any(packed)) == (271, False)  # each form built once

    def test_reader_slots_follow_each_cuts(self):
        # One key read through readers on six grids of one _Prefixes, in
        # turn and twice over: each answers on its own grid.  A read keeps
        # no record of the instance's sum, and each record only the packed
        # forms of the strides it was summed at, none keyed by S's L = 5.
        lazy = dist({-1: "1/4", 0: "1/2", 1: "1/4"})
        prefixes = oracles._Prefixes()
        prefixes.records[0], prefixes.records[1] = oracles._record(lazy), oracles._record(coin())
        readers = [(k, prefixes.reader([(k, 2), (k + 1, 2)])) for k in range(6)]
        total = exact_sum_distribution([lazy, coin()])
        for k, read in readers * 2:
            den, tails = read((0, 1))
            assert [Fraction(tail, den) for tail in tails] == [
                abs_tail(total, Fraction(j, 2)) for j in (k, k + 1)]
        assert {key: set(rec[6]) for key, rec in prefixes.records.items()} == {
            (): {(0, "B")}, 0: {(1, "B")}, 1: {(2, "B")}, (0,): {(1, "B")}}

    @pytest.mark.parametrize("cuts", [1, 11])
    def test_support_cap_on_the_unbuilt_sum(self, cuts, monkeypatch):
        # P is the five-atom law (1x5, a packed product), and only the last
        # product, 5x3, is over a cap of 14.  S stays unformed on both grids:
        # its tails are read from the packed product.
        five = dist({x: Fraction(1, 5) for x in range(-2, 3)})
        lazy = dist({-1: "1/4", 0: "1/2", 1: "1/4"})
        grid = [Fraction(k, 8) for k in range(cuts)]
        monkeypatch.setattr(oracles, "MAX_SUPPORT_PRODUCT", 15)
        calls = count_convolutions(monkeypatch)
        prefix_sums = count_prefix_sums(monkeypatch)
        assert len(list(sweep_checks([[lazy, five]], 1, grid))) == 1
        assert (len(prefix_sums), len(calls)) == (1, 0)
        monkeypatch.setattr(oracles, "MAX_SUPPORT_PRODUCT", 14)
        with pytest.raises(SupportCapExceeded, match="support product 5x3 exceeds cap 14"):
            list(sweep_checks([[lazy, five]], 1, grid))

    def test_support_cap_on_a_prefix(self, monkeypatch):
        # The first instance's products, 1x5 and 5x3, are under a cap of 24.
        # The second instance's prefix FIVE + FIVE is the first product
        # over it, so the sweep raises there, after yielding the first.
        five = dist({x: Fraction(1, 5) for x in range(-2, 3)})
        lazy = dist({-1: "1/4", 0: "1/2", 1: "1/4"})
        monkeypatch.setattr(oracles, "MAX_SUPPORT_PRODUCT", 24)
        prefix_sums = count_prefix_sums(monkeypatch)
        seen = []
        with pytest.raises(SupportCapExceeded, match="^support product 5x5 exceeds cap 24$"):
            for index, *_ in sweep_checks([[lazy, five], [five, lazy, five]], 1, [0]):
                seen.append(index)
        assert seen == [0] and len(prefix_sums) == 2

    @pytest.mark.parametrize("terms, grid, convolved", [
        # L = 10^12 + 2 lattice points of S against 2 * 3 * 2 products: the
        # prefix (the wide law) is packed, S is convolved
        ([dist({-10**12: "1/4", 0: "1/2", 10**12: "1/4"}), coin()], [0, 1, Fraction(3, 2)], 1),
        # den 2^64 fits no 8-byte slot: the 63 sums of 1-63 coins are
        # packed, the 6 prefixes of 64-69 coins and S convolved
        ([coin()] * 70, [0, 1, 7, 35, 69], 7),
    ], ids=["sparse", "wide-den"])
    def test_density_rule(self, terms, grid, convolved, monkeypatch):
        # S is formed and walked: one sum past its n - 1 prefixes
        calls = count_convolutions(monkeypatch)
        prefix_sums = count_prefix_sums(monkeypatch)
        [(_, got, tails, den, _)] = sweep_checks([terms], 1, grid)
        assert (len(prefix_sums), len(calls)) == (len(terms), convolved)
        total = exact_sum_distribution(terms)
        assert got == grid
        assert [Fraction(tail, den) for tail in tails] == [abs_tail(total, t) for t in grid]


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

    def test_p_read_once_not_per_row(self, monkeypatch):
        # p is read once, by _success_pairs, however many grid rows there are
        reads, read = [], distributions.rational_pair

        def counted(value):
            reads.append(sys._getframe(1).f_code.co_name)
            return read(value)

        monkeypatch.setattr(distributions, "rational_pair", counted)
        monkeypatch.setattr(oracles, "rational_pair", counted, raising=False)
        p = ["1/2", "2/3", "3/4"]
        report = tightness_search(p, 1, 1, h_grid=[2, 3], split_grid=[0, Fraction(1, 2), 1])
        assert report.gap >= 0
        assert [name for name in reads if name in ("_success_pairs", "tightness_search")] == [
            "_success_pairs"] * len(p)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            tightness_search([1], 1, 1)  # t = n*h is out of domain
        with pytest.raises(ValueError):
            tightness_search([1, 1], 1, 1, split_grid=[])
        with pytest.raises(ValueError, match="h' >= h"):
            tightness_search([1, 1], 1, 1, h_grid=[2, Fraction(1, 2)])

    def test_grid_cap(self, monkeypatch):
        # h' in {1, 2} and splits {0, 1}: 4 rows of 2 terms, 4 * 2^2 = 16
        calls = count_convolutions(monkeypatch)
        monkeypatch.setattr(oracles, "MAX_TIGHTEN_WORK", 16)
        assert tightness_search([1, 1], 1, 1, h_grid=[2], split_grid=[0, 1]).gap >= 0
        assert len(calls) == 4
        monkeypatch.setattr(oracles, "MAX_TIGHTEN_WORK", 15)
        with pytest.raises(ValueError, match="4 grid rows x 2\\^2 for 2 terms exceed cap 15"):
            tightness_search([1, 1], 1, 1, h_grid=[2, 2, 1], split_grid=[0, 1, "2/2"])
        assert len(calls) == 4

    def test_grid_shares_one_sum_work_budget(self, monkeypatch):
        # the rows of test_grid_cap: each sums two laws of two atoms, 2x2,
        # so the grid's work is 16 and the fourth row's product passes 15
        calls = count_convolutions(monkeypatch)
        monkeypatch.setattr(oracles, "MAX_SUM_WORK", 16)
        assert tightness_search([1, 1], 1, 1, h_grid=[2], split_grid=[0, 1]).gap >= 0
        assert len(calls) == 4
        monkeypatch.setattr(oracles, "MAX_SUM_WORK", 15)
        with pytest.raises(SupportCapExceeded, match="work 16 exceeds cap 15"):
            tightness_search([1, 1], 1, 1, h_grid=[2], split_grid=[0, 1])
        assert len(calls) == 4 + 3

    def test_negative_gap_is_reported(self, monkeypatch):
        # The improved bound 1/4 shifted up to 1.
        monkeypatch.setattr(oracles, "_window_sums", shifted_window_sums(Fraction(3, 4)))
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
        twin = SampleConfig(seed=99, replications=5000, terms=cfg.terms)
        assert monte_carlo_tail(twin, 1.0) == monte_carlo_tail(cfg, 1.0)

    def test_samplers_parsed_once_per_config(self, monkeypatch):
        # The terms are parsed when the config is built, and the sample is
        # drawn on its first t; later t reuse both.
        parsed = []
        parse = oracles._sampler
        monkeypatch.setattr(oracles, "_sampler", lambda term: parsed.append(term) or parse(term))
        terms = ({"kind": "atoms", "atoms": {"-1": "1/2", "1": "1/2"}},
                 {"kind": "uniform", "scale": "1/2"})
        cfg = SampleConfig(seed=5, replications=1000, terms=terms)
        assert parsed == list(terms)
        # One sign draw per term and one magnitude draw for the atoms term:
        # three choices calls for the whole sample, none for later t.
        drawn = []
        choices = random.Random.choices
        monkeypatch.setattr(random.Random, "choices",
                            lambda rng, *a, **kw: drawn.append(a) or choices(rng, *a, **kw))
        estimates = [monte_carlo_tail(cfg, t)[0] for t in (0.0, 0.75, 1.25, 2.0)]
        assert parsed == list(terms) and len(drawn) == 3
        assert estimates == sorted(estimates, reverse=True) and estimates[-1] == 0.0

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

    @pytest.mark.parametrize("t", [float("nan"), -0.5, float("-inf")])
    def test_rejects_t_not_nonnegative(self, t):
        cfg = SampleConfig(seed=1, replications=1000, terms=(
            {"kind": "atoms", "atoms": {0: 1}},
        ))
        with pytest.raises(ValueError, match="nonnegative"):
            monte_carlo_tail(cfg, t)

    @pytest.mark.parametrize(
        "term, message",
        [({"kind": "gaussain", "sigma": 1.0}, "term 1 .*unknown sampler kind 'gaussain'"),
         ({"kind": "gaussian"}, "term 1 .* has no 'sigma'"),
         ({"kind": "uniform"}, "term 1 .* has no 'scale'")],
    )
    def test_rejects_malformed_term_when_built(self, term, message):
        with pytest.raises(ValueError, match=message):
            SampleConfig(seed=1, replications=1000, terms=({"kind": "gaussian", "sigma": 1.0}, term))

    @pytest.mark.parametrize("seed, terms, message", [
        (-1, ({"kind": "gaussian", "sigma": 1},), "seed must fit in 64 unsigned bits"),
        (2**64, ({"kind": "gaussian", "sigma": 1},), "seed must fit in 64 unsigned bits"),
        (1, (), "need at least one term"),
    ], ids=["seed-negative", "seed-2^64", "no-terms"])
    def test_rejects_bad_seed_or_no_terms(self, seed, terms, message):
        with pytest.raises(ValueError, match=message):
            SampleConfig(seed=seed, replications=1000, terms=terms)

    def test_rejects_asymmetric_atoms_when_built(self):
        # Two point masses at 1: S = 2, but a fair sign times |x| would draw
        # S in {-2, 0, 2} and read P(|S| > 3/2) as 1/2.
        with pytest.raises(ValueError, match="term 0 .*not symmetric"):
            SampleConfig(seed=1, replications=1000, terms=({"kind": "atoms", "atoms": {1: 1}},) * 2)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf"), float("-inf"), "nan"])
    def test_rejects_non_finite_sigma(self, sigma):
        # Every draw would be NaN or infinite, so every estimate reads 0.
        with pytest.raises(ValueError, match="finite"):
            SampleConfig(seed=1, replications=1000, terms=({"kind": "gaussian", "sigma": sigma},))

    def test_replication_floor(self):
        # The floor is checked when the config is built, before any draw.
        terms = ({"kind": "atoms", "atoms": {0: 1}},)
        for replications in (0, 10, 999):
            with pytest.raises(ValueError, match="need at least 1000 replications"):
                SampleConfig(seed=1, replications=replications, terms=terms)
        cfg = SampleConfig(seed=1, replications=1000, terms=terms)
        assert monte_carlo_tail(cfg, 0.0) == (0.0, 0.0)

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

    def test_runs_without_numpy(self, tmp_path):
        # The library is stdlib-only: with numpy unimportable, the package,
        # the CLI and every sampler kind still run.
        inp, out = tmp_path / "in.json", tmp_path / "out.csv"
        inp.write_text(json.dumps({"p": ["1/2", "1"], "h": "1", "t_grid": ["0", "1"]}))
        code = (
            "import sys\n"
            "sys.modules['numpy'] = None\n"
            "import symtail\n"
            "from symtail.cli import main\n"
            "from symtail.oracles import SampleConfig, monte_carlo_tail\n"
            f"print(main(['bound', '--input', {str(inp)!r}, '--output', {str(out)!r}]))\n"
            "cfg = SampleConfig(seed=3, replications=1000, terms=(\n"
            "    {'kind': 'atoms', 'atoms': {'-1': '1/2', '1': '1/2'}},\n"
            "    {'kind': 'uniform', 'scale': '1/2'}, {'kind': 'gaussian', 'sigma': 1.0}))\n"
            "print(0 < monte_carlo_tail(cfg, 0.25)[0] <= 1)\n"
        )
        src = os.path.dirname(os.path.dirname(symtail.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "True"]
        assert out.read_text().splitlines()[2] == "1,1,2,1/8,0.125,1/8,0.125,7/8,0.875,"
