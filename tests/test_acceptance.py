"""Acceptance gate: ten headline criteria, one pass line each.

Each test prints ``ACCEPTANCE <nn> <name>: PASS`` once its asserts hold, so
``pytest -v -s tests/test_acceptance.py`` reads as a checklist. Tolerances
are pinned here and nowhere else. Known-bad published figures are excluded
with a printed WARN line and a counter-assertion, never silently skipped.
"""

import math

import numpy as np
import pytest

from cooprob import (
    AsymmetricTable2,
    AttritionSpec,
    DinerSpec,
    GameTag,
    PayoffTable2,
    PayoffTable3,
    PublicGoodsSpec,
    TravelerSpec,
    attrition_distribution,
    attrition_pij,
    balanced_p,
    balanced_p3,
    balanced_p_asym,
    classify2,
    diner_p,
    diner_table2,
    diner_table3,
    equiprobability3,
    expected_payoff2,
    expected_payoff3,
    public_goods_distribution,
    traveler_distribution,
    traveler_mean,
)
from cooprob.iteration import iterate2_limits
from conftest import CLASS_PATTERNS, sample_tables

BULK = 10_000  # randomized tables per class for criterion 9


def _report(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


def test_criterion_01_lopsided_dilemmas():
    est = balanced_p(PayoffTable2(101, 100, 1, 0))
    assert est.p == 0.99  # linear fallback, exact
    near_zero = balanced_p(PayoffTable2(100, 51, 50, 0))
    assert abs(near_zero.p - 0.0196) <= 0.0001
    _report(1, "lopsided dilemmas")


def test_criterion_02_design_tables_p_and_mu():
    cases2 = [
        ((10, 7, 5, 1), 0.354, 0.005, 5.47, 0.015),
        ((8, 2, -2, -4), 0.500, 1e-9, 1.000, 1e-9),
        ((9, 8, 5, 2), 0.634, 0.005, 6.43, 0.015),
    ]
    for vals, p_want, p_tol, mu_want, mu_tol in cases2:
        t = PayoffTable2(*vals)
        p = balanced_p(t).p
        assert abs(p - p_want) <= p_tol, vals
        assert abs(expected_payoff2(t, p) - mu_want) <= mu_tol, vals

    t3 = PayoffTable3(10, 8, 7, 5, 4, 2)
    p3 = balanced_p3(t3).p
    assert abs(p3 - 1.0 / 3.0) <= 1e-12
    assert abs(expected_payoff3(t3, p3) - 5.33) <= 0.01

    t5 = PayoffTable3(9, 8, 7, 6, 3, 2)
    p5 = balanced_p3(t5).p
    assert abs(p5 - 0.634) <= 0.005
    assert abs(expected_payoff3(t5, p5) - 6.63) <= 0.015

    # the tied-rung showcase table is excluded: the 50% figure usually
    # quoted for it does not solve the balance cubic (the attracting root
    # sits near 18.6%), so only internal consistency is asserted here
    tied = PayoffTable3(10, 4, 1, -2, -2, -4)
    est = balanced_p3(tied)
    assert abs(est.p - (-5.0 + math.sqrt(33.0)) / 4.0) <= 1e-12
    assert abs(est.p - 0.5) > 0.3
    assert equiprobability3(tied).gap != 0.0
    print("WARN: 3-player table (10,4,1,-2,-2,-4) excluded; quoted p=50% fails "
          f"the balance cubic, attracting root is {est.p:.6f}")
    _report(2, "design tables (p, mu)")


def test_criterion_03_split_or_grab_comparisons():
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    for stake in (1.0, 100.0, 1e6):
        est = balanced_p(PayoffTable2(stake, stake / 2.0, 0.0, 0.0))
        assert abs(est.p - golden) <= 1e-12
    est = balanced_p(PayoffTable2(9, 7, 3, 1))
    assert abs(est.p - 2.0 / 3.0) <= 1e-12
    _report(3, "split-or-grab comparisons")


def test_criterion_04_battle_of_sexes_root():
    est = balanced_p(PayoffTable2(3, 0, 0, 2))
    assert est.class_used.tag is GameTag.BATTLE_OF_SEXES
    assert abs(est.p - (math.sqrt(6.0) - 2.0)) <= 1e-12
    _report(4, "battle-of-sexes root")


def test_criterion_05_public_goods_exact_fractions():
    uniform = public_goods_distribution(PublicGoodsSpec(r=100.0, k=4.0 / 3.0, options=4))
    assert all(abs(p - 0.2) <= 1e-12 for p in uniform.probabilities)

    rising = public_goods_distribution(PublicGoodsSpec(r=100.0, k=1.5, options=4))
    for got, num in zip(rising.probabilities, (4, 5, 6, 7, 8)):
        assert abs(got - num / 30.0) <= 1e-12

    falling = public_goods_distribution(PublicGoodsSpec(r=100.0, k=1.2, options=4))
    for got, num in zip(falling.probabilities, (8, 7, 6, 5, 4)):
        assert abs(got - num / 30.0) <= 1e-12
    _report(5, "public goods exact fractions")


def test_criterion_06_traveler_distributions():
    small = traveler_distribution(TravelerSpec(r=4.0, s=2.0, t=2.0, steps=2))
    for got, want in zip(small.probabilities, (0.206, 0.333, 0.461)):
        assert abs(got - want) <= 0.001

    big = traveler_distribution(TravelerSpec(r=100.0, s=2.0, t=2.0, steps=98))
    pp = np.asarray(big.probabilities) * 100.0  # percent points
    assert abs(pp[-1] - 2.01) <= 0.01
    assert abs(pp[0] - 0.0128) <= 0.0005
    # linearity: least-squares slope and every interior step in the window
    idx = np.arange(pp.size)
    slope = np.polyfit(idx, pp, 1)[0]
    assert abs(slope - 0.0206) <= 0.0005
    interior = np.diff(pp)[1:-1]
    assert np.all(np.abs(interior - 0.0206) <= 0.0005)
    _report(6, "traveler distributions")


def test_criterion_07_traveler_experiment_means():
    low_bonus = traveler_mean(TravelerSpec(r=200.0, s=80.0, t=5.0, steps=120))
    assert abs(low_bonus - 160.0) <= 2.0
    high_bonus = traveler_mean(TravelerSpec(r=200.0, s=80.0, t=80.0, steps=120))
    assert abs(high_bonus - 144.0) <= 2.0
    _report(7, "traveler experiment means")


def test_criterion_08_attrition_forced_structure():
    spec = AttritionSpec(x=2.0, max_bid=4)
    dist = attrition_distribution(spec, mode="paper")
    assert abs(dist.probabilities[2] - 0.200) <= 1e-9
    for i in (0, 1):
        assert abs(dist.probabilities[i] + dist.probabilities[4 - i] - 0.4) <= 1e-9

    # independent brute-force pairwise summation
    weights = np.zeros(5)
    for i in range(5):
        for j in range(5):
            if i == j:
                continue
            pij = attrition_pij(spec, i, j, mode="paper")
            weights[i] += pij if i < j else 1.0 - pij
    brute = weights / weights.sum()
    assert np.max(np.abs(brute - np.asarray(dist.probabilities))) <= 1e-12

    # the often-quoted tail digits (29.2, 25.5, ..., 10.8)% do not follow
    # from the uniform formula; flagged, not asserted
    assert abs(dist.probabilities[0] - 0.292) > 0.01
    print("WARN: attrition x=2, 4-bid vector differs from the quoted "
          f"(29.2, 25.5, 20, 14.5, 10.8)%: computed p_0 = {dist.probabilities[0]:.6f}")
    _report(8, "attrition forced structure")


def test_criterion_09_randomized_property_suite():
    rng = np.random.default_rng(2024)
    closed_by_tag: dict[GameTag, tuple] = {}

    for pos, tag in enumerate(sorted(CLASS_PATTERNS, key=lambda t: t.value)):
        a, b, c, d = sample_tables(tag, BULK, seed=101 + pos)
        closed = np.array([balanced_p(PayoffTable2(*v)).p for v in zip(a, b, c, d)])
        closed_by_tag[tag] = (a, b, c, d, closed)
        assert np.all((closed >= 0.0) & (closed <= 1.0))

    # (i) strict dilemma: exactly one root in (0, 1), equal to the + branch
    a, b, c, d, closed = closed_by_tag[GameTag.PRISONERS_DILEMMA]
    k = a - b - c + d
    disc = (b - d) ** 2 + 4.0 * (b - c) * k
    sq = np.sqrt(disc)
    r_plus = (-(b - d) + sq) / (2.0 * k)
    r_minus = (-(b - d) - sq) / (2.0 * k)
    inside = ((r_plus > 0) & (r_plus < 1)).astype(int) + ((r_minus > 0) & (r_minus < 1)).astype(int)
    assert np.all(inside == 1)
    assert np.max(np.abs(closed - r_plus)) <= 1e-9

    # (ii) the iteration oracle confirms every closed form from three seeds
    for tag, (a, b, c, d, closed) in closed_by_tag.items():
        for p0 in (0.0, 0.5, 1.0):
            limits, converged = iterate2_limits(tag, a, b, c, d, p0=p0)
            assert converged.all(), (tag, p0)
            assert np.max(np.abs(limits - closed)) <= 1e-9, (tag, p0)

    # (iii) translation and positive-scaling invariance
    for tag, (a, b, c, d, closed) in closed_by_tag.items():
        offsets = rng.uniform(-25.0, 25.0, a.shape)
        factors = rng.uniform(0.1, 10.0, a.shape)
        shifted = np.array(
            [
                balanced_p(PayoffTable2(*v)).p
                for v in zip(a + offsets, b + offsets, c + offsets, d + offsets)
            ]
        )
        scaled = np.array(
            [
                balanced_p(PayoffTable2(*v)).p
                for v in zip(a * factors, b * factors, c * factors, d * factors)
            ]
        )
        assert np.max(np.abs(shifted - closed)) <= 1e-9, tag
        assert np.max(np.abs(scaled - closed)) <= 1e-9, tag

    # (iv) the sign test: p > 1/2 exactly when 3 (b - c) > (a - d)
    a, b, c, d, closed = closed_by_tag[GameTag.PRISONERS_DILEMMA]
    gap = 3.0 * (b - c) - (a - d)
    assert np.array_equal(closed > 0.5, gap > 0.0)

    # (v) the two-sided solver collapses to the symmetric one
    sym_err = 0.0
    for va, vb, vc, vd, want in zip(a, b, c, d, closed):
        ex, ey = balanced_p_asym(AsymmetricTable2(va, vb, vc, vd, va, vb, vc, vd))
        sym_err = max(sym_err, abs(ex.p - want), abs(ey.p - want))
    assert sym_err <= 1e-12

    # (vi) every application distribution is a distribution
    for _ in range(100):
        k = rng.uniform(1.01, 1.99)
        n_opt = int(rng.integers(1, 30))
        dist = public_goods_distribution(PublicGoodsSpec(r=100.0, k=k, options=n_opt))
        assert abs(sum(dist.probabilities) - 1.0) <= 1e-12
    for _ in range(100):
        spec = TravelerSpec(
            r=rng.uniform(10.0, 200.0), s=5.0, t=rng.uniform(1.0, 5.0),
            steps=int(rng.integers(1, 50)),
        )
        assert abs(sum(traveler_distribution(spec).probabilities) - 1.0) <= 1e-12
    for mode in ("paper", "dispatch"):
        for _ in range(50):
            spec = AttritionSpec(x=rng.uniform(0.5, 8.0), max_bid=int(rng.integers(1, 20)))
            dist = attrition_distribution(spec, mode=mode)
            assert abs(sum(dist.probabilities) - 1.0) <= 1e-12
    _report(9, f"randomized property suite ({BULK} tables/class)")


def test_criterion_10_diner_consistency():
    rng = np.random.default_rng(77)

    def random_spec(n: int, window: tuple[float, float]) -> DinerSpec:
        r_cb = rng.uniform(*window)
        w = rng.uniform(0.5, 2.0)
        y = rng.uniform(0.5, 2.0)  # s - u
        delta = rng.uniform(0.05, 0.9) * y * (r_cb - 1.0)  # u - w
        u = w + delta
        s = u + y
        r = w + r_cb * y
        return DinerSpec(r=r, s=s, u=u, w=w, n=n)

    for _ in range(100):
        spec = random_spec(2, (1.05, 1.95))
        closed = 2.0 - 2.0 / spec.r_cb
        assert abs(diner_p(spec).p - closed) <= 1e-12
        assert abs(balanced_p(diner_table2(spec)).p - closed) <= 1e-12

    for _ in range(100):
        spec = random_spec(3, (1.55, 2.95))
        closed = 2.0 - 3.0 / spec.r_cb
        assert abs(diner_p(spec).p - closed) <= 1e-12
        assert abs(balanced_p3(diner_table3(spec)).p - closed) <= 1e-12

    # limit behavior: p climbs monotonically through the ratio window,
    # vanishing toward R_cb = 1 and saturating toward R_cb = 2
    ps = []
    for r_cb in np.linspace(1.0 + 1e-7, 2.0 - 1e-7, 40):
        u = 1.0 + (r_cb - 1.0) / 2.0
        spec = DinerSpec(r=1.0 + r_cb, s=u + 1.0, u=u, w=1.0, n=2)
        ps.append(diner_p(spec).p)
    assert all(x < y for x, y in zip(ps, ps[1:]))
    assert ps[0] < 1e-6
    assert ps[-1] > 1.0 - 1e-6
    _report(10, "diner closed-form consistency")
