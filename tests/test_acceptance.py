"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines.  Every tolerance is exact (rational equality / inequality) except
the Monte Carlo criterion, whose statistical windows are stated inline.
"""

import itertools
import math
import random
import time
from fractions import Fraction

from symtail.bounds import improved_bound, kanter_supremum, nagaev_bound
from symtail.distributions import (
    abs_stochastically_geq,
    abs_tail,
    point_mass,
    poisson_binomial,
)
from symtail.exactmath import binomial, largest_binomial_ratio, largest_binomial_sum
from symtail.oracles import (
    KleitmanInstance,
    SampleConfig,
    bound_soundness_sweep,
    equality_instance,
    exact_sum_distribution,
    extremal_interval_check,
    kanter_supremum_via_stpc,
    kleitman_count,
    monte_carlo_tail,
    symmetric_lattice_family,
    tightness_search,
)
from symtail.ordering import (
    ComparisonInstance,
    birnbaum_check,
    half_mass,
    half_mass_check,
    pruss_check,
    wintner_check,
)

from util import (
    coin,
    count_convolutions,
    count_prefix_sums,
    dist,
    half_lattice_laws,
    random_success_vector,
    random_symmetric_law,
    unimodal_span1_laws,
)


def report(number: int, message: str, started: float) -> None:
    print(f"ACCEPTANCE {number}: PASS - {message} ({time.time() - started:.1f}s)")


def test_criterion_01_binomial_window_identities():
    started = time.time()
    for n in range(1, 61):
        for m in range(1, 61):
            assert largest_binomial_sum(n, m) == largest_binomial_sum(
                n - 1, m - 1
            ) + largest_binomial_sum(n - 1, m + 1)
    for n in range(21):
        for m in range(21):
            brute = (
                max(
                    sum(binomial(n, i) for i in range(r, r + m))
                    for r in range(-m, n + 1)
                )
                if m
                else 0
            )
            assert largest_binomial_sum(n, m) == brute
    for m in range(21):
        prev = largest_binomial_ratio(0, m)
        for n in range(1, 61):
            cur = largest_binomial_ratio(n, m)
            assert cur <= prev
            prev = cur
    assert time.time() - started < 5
    report(1, "window-sum recursion, brute-force windows, monotone ratios", started)


def test_criterion_02_supremum_identity():
    started = time.time()
    rng = random.Random(1002)
    for _ in range(200):
        n = rng.randint(1, 12)
        p = random_success_vector(rng, n)
        for m in range(1, n + 3):
            assert kanter_supremum(p, m) == kanter_supremum_via_stpc(p, m)
    assert time.time() - started < 30
    report(2, "supremum formula equals three-point interval mass, 200 cases", started)


def test_criterion_03_extremal_attainment():
    started = time.time()
    rng = random.Random(1003)
    for _ in range(100):
        n = rng.randint(1, 8)
        p = random_success_vector(rng, n)
        h = Fraction(rng.randint(1, 4), rng.randint(1, 4))
        m = rng.randint(1, n + 1)
        shave = Fraction(rng.randint(0, 3), 8) if m > 1 else Fraction(0)
        H = h * (m - shave)  # ceil(H/h) = m and H/h > m - 1/2
        sup, attained = extremal_interval_check(p, h, H)
        assert sup == attained
    assert time.time() - started < 30
    report(3, "extremal three-point laws attain the interval supremum, 100 cases", started)


def test_criterion_04_dominance_and_agreement():
    started = time.time()
    rng = random.Random(1004)
    for _ in range(100):
        n = rng.randint(3, 8)
        p = random_success_vector(rng, n)
        h = Fraction(rng.randint(1, 4), rng.randint(1, 4))
        grid = [n * h * Fraction(j, 24) for j in range(24)]
        strict_seen = False
        for t in grid:
            nag = nagaev_bound(p, h, t)
            imp = improved_bound(p, h, t)
            assert imp >= nag
            if t >= (n - 1) * h:
                assert imp == nag
            elif imp > nag:
                strict_seen = True
        if poisson_binomial(p).mass(n - 1) > 0:
            assert strict_seen
    assert time.time() - started < 10
    report(4, "improved >= classical bound, equal on the last band, strict below", started)


def test_criterion_05_exhaustive_soundness_sweep(monkeypatch):
    started = time.time()
    convolutions = count_convolutions(monkeypatch)
    prefix_sums = count_prefix_sums(monkeypatch)
    sweep = bound_soundness_sweep(
        symmetric_lattice_family(6),
        1,
        [Fraction(k, 2) for k in range(12)],
    )
    assert sweep.ok, sweep.violations[:5]
    assert sweep.instances == 54263
    # every prefix sum is a prefix of a longer instance: the 15 503
    # multisets of 1-5 laws, each one packed product; nothing is convolved
    assert (len(prefix_sums), len(convolutions)) == (15503, 0)
    assert sweep.min_slack is not None and sweep.min_slack >= 0
    assert time.time() - started < 120
    report(
        5,
        f"{sweep.checks} exact tail-vs-bound checks over {sweep.instances} "
        f"instances, min slack {sweep.min_slack}",
        started,
    )


def _random_kleitman_instance(rng: random.Random, n: int) -> KleitmanInstance:
    d = rng.randint(1, 3)
    norm = rng.choice(["euclidean", "sup", "one"] + (["absolute"] if d == 1 else []))
    vectors = []
    for _ in range(n):
        while True:
            v = tuple(Fraction(rng.randint(-4, 4), rng.choice([1, 2])) for _ in range(d))
            if any(v):
                break
        vectors.append(v)
    min_sup = min(max(abs(c) for c in v) for v in vectors)
    radius = min_sup / 4  # 2r = min_sup/2 < min norm for every norm tag here
    m = rng.randint(1, 4)
    targets = [
        (tuple(Fraction(rng.randint(-2 * n, 2 * n), 2) for _ in range(d)), radius)
        for _ in range(m)
    ]
    return KleitmanInstance(d, tuple(vectors), norm, tuple(targets))


def test_criterion_06_subset_sum_counting():
    started = time.time()
    rng = random.Random(1006)
    sizes = [rng.randint(4, 13) for _ in range(490)] + [14, 14, 14, 15, 15, 16, 16, 17, 18, 18]
    for n in sizes:
        inst = _random_kleitman_instance(rng, n)
        count = kleitman_count(inst)  # returned unchecked: the ceiling is checked here
        assert count <= largest_binomial_sum(n, len(inst.targets))
    for n in range(1, 17):
        for m in range(1, 6):
            assert kleitman_count(equality_instance(n, m)) == largest_binomial_sum(n, m)
    assert time.time() - started < 120
    report(6, "500 random instances below the ceiling; equality family attains it", started)


def test_criterion_07_two_coin_example():
    started = time.time()
    inst = ComparisonInstance((coin(), coin()), (coin(), point_mass(0)))
    s, t = inst.sums()
    assert abs_tail(s, 1, strict=False) == Fraction(1, 2)
    assert abs_tail(t, 1, strict=False) == 1
    assert half_mass(s, 0) == Fraction(3, 4)
    assert half_mass(t, 0) == 1  # so the ordering genuinely fails at m = 0
    birnbaum = birnbaum_check(inst, 2)
    assert not birnbaum.hypothesis_ok
    assert not birnbaum.conclusion_holds
    report(7, "two-coin example: ratio 1/2, m=0 boundary, lattice clause needed", started)


def test_criterion_08_ordering_sweeps():
    started = time.time()
    rng = random.Random(1008)

    # factor-1/2 comparison on random valid instances
    checked = 0
    while checked < 60:
        n = rng.randint(1, 5)
        xs = tuple(random_symmetric_law(rng) for _ in range(n))
        ys = tuple(random_symmetric_law(rng) for _ in range(n))
        if not all(abs_stochastically_geq(x, y) for x, y in zip(xs, ys)):
            continue
        checked += 1
        rep = pruss_check(
            ComparisonInstance(xs, ys), [Fraction(k, 2) for k in range(1, 4 * n + 1)]
        )
        assert rep.ok
        assert rep.min_ratio is None or rep.min_ratio >= Fraction(1, 2)

    # half-mass ordering wherever the Y terms are three-point laws
    checked = 0
    while checked < 40:
        n = rng.randint(1, 4)
        xs = tuple(random_symmetric_law(rng) for _ in range(n))
        ys = tuple(random_symmetric_law(rng, radius=1) for _ in range(n))
        if not all(abs_stochastically_geq(x, y) for x, y in zip(xs, ys)):
            continue
        checked += 1
        assert half_mass_check(ComparisonInstance(xs, ys), 1, n).ok

    # exhaustive two-term sweep over the unimodal eighth-mass grid
    laws = unimodal_span1_laws()
    pairs = [(x, y) for x in laws for y in laws if abs_stochastically_geq(x, y)]
    for (x1, y1), (x2, y2) in itertools.product(pairs, repeat=2):
        rep = birnbaum_check(ComparisonInstance((x1, x2), (y1, y2)), 1)
        assert rep.hypothesis_ok and rep.conclusion_holds

    # convolution closure over the grid, half-lattice cases included
    closure_laws = laws + half_lattice_laws()
    for x, y in itertools.product(closure_laws, repeat=2):
        assert wintner_check(x, y, 1)

    assert time.time() - started < 300
    report(
        8,
        f"factor-1/2, half-mass, {len(pairs)**2} exhaustive comparisons, "
        f"{len(closure_laws)**2} closure checks",
        started,
    )


def test_criterion_09_monte_carlo_consistency():
    started = time.time()
    n, h = 6, 1
    # rational lower bound for the exceedance probability of a standard
    # Gaussian at h = 1; a smaller p only weakens the bound, keeping it valid
    p = Fraction(int(math.erfc(1 / math.sqrt(2)) * 10**9), 10**9)
    cfg = SampleConfig(
        seed=20240817,
        replications=100_000,
        terms=tuple({"kind": "gaussian", "sigma": 1.0} for _ in range(n)),
    )
    for j in range(10):
        t = Fraction(j, 2)  # 10-point grid inside [0, n*h)
        bound = improved_bound([p] * n, h, t)
        estimate, std_error = monte_carlo_tail(cfg, float(t))
        assert estimate >= float(bound) - 3 * std_error, (t, estimate, bound)

    atoms = {-2: "1/4", -1: "1/4", 1: "1/4", 2: "1/4"}
    terms = [dist(atoms)] * 4
    exact_law = exact_sum_distribution(terms)
    lattice_cfg = SampleConfig(
        seed=99,
        replications=100_000,
        terms=tuple({"kind": "atoms", "atoms": atoms} for _ in range(4)),
    )
    for t in (Fraction(1, 2), Fraction(3, 2), Fraction(7, 2)):
        exact = abs_tail(exact_law, t, strict=True)
        estimate, _ = monte_carlo_tail(lattice_cfg, float(t))
        se_exact = math.sqrt(float(exact) * (1 - float(exact)) / 100_000)
        assert abs(estimate - float(exact)) <= 4 * se_exact
    # determinism per seed
    assert monte_carlo_tail(cfg, 1.0) == monte_carlo_tail(cfg, 1.0)
    assert time.time() - started < 60
    report(9, "seeded Gaussian run respects the bound; lattice run matches exact tails", started)


def test_criterion_10_tightness_probe():
    started = time.time()
    probe = tightness_search(
        [1, 1], 1, 1, h_grid=[Fraction(3, 2), 2], split_grid=[0, Fraction(1, 2), 1]
    )
    assert probe.gap >= 0
    # independent values: the extremal pair of sure +-1 coins is a member of
    # the criterion-5 family; its half-mass objective and complement bound
    two_coins = exact_sum_distribution([coin(), coin()])
    assert probe.best_value == half_mass(two_coins, 1) == Fraction(1, 2)
    assert probe.bound == 1 - kanter_supremum([1, 1], 2) == Fraction(1, 4)
    assert probe.gap == Fraction(1, 4)
    report(10, "tightness probe reproduces the independently computed gap 1/4", started)
