"""Applied multi-option games: mappings, closed forms, distributions."""

import json
import math

import numpy as np
import pytest

from cooprob import (
    AttritionSpec,
    DinerSpec,
    DomainError,
    GameTag,
    InternalError,
    NumericPolicy,
    OptionDistribution,
    PayoffTable2,
    PublicGoodsSpec,
    TravelerSpec,
    UndefinedPairError,
    attrition_distribution,
    attrition_pij,
    attrition_table2,
    balanced_p,
    balanced_pn,
    classify2,
    diner_conjecture_test,
    diner_ladder,
    diner_p,
    diner_table2,
    diner_table3,
    public_goods_distribution,
    public_goods_p_star,
    public_goods_table2,
    traveler_distribution,
    traveler_mean,
    traveler_pij,
    traveler_table2,
)
from cooprob import applications
from cooprob.cli import main


def _loop_weights(p_by_gap, high_cooperates):
    """Per-level pairwise sums by a Python loop over levels, with the prefix
    sums taken in the same order as ``np.cumsum``: the tuple-era reference."""
    n = len(p_by_gap)
    cum = [0.0]
    for p in p_by_gap:
        cum.append(cum[-1] + p)
    if high_cooperates:  # p from the i lower partners, q from the n - i higher
        return [cum[i] + ((n - i) - cum[n - i]) for i in range(n + 1)]
    return [(i - cum[i]) + cum[n - i] for i in range(n + 1)]


def _assert_matches_loop(dist, weights, total):
    assert dist.weights.tolist() == weights
    assert dist.total == total
    assert dist.probabilities.tolist() == [w / total for w in weights]


# ------------------------------------------------------------ distribution


def test_option_distribution_holds_read_only_float64_arrays():
    dist = OptionDistribution((0.25, 0.75), (1, 3), 4.0)  # tuples still accepted
    for arr in (dist.probabilities, dist.weights):
        assert isinstance(arr, np.ndarray)
        assert arr.dtype == np.float64
        assert arr.ndim == 1
    assert dist.weights.tolist() == [1.0, 3.0]
    with pytest.raises(ValueError):
        dist.probabilities[0] = 0.5
    with pytest.raises(ValueError):
        dist.weights[0] = 2.0


def test_option_distribution_copies_the_callers_arrays():
    probs = np.array([0.5, 0.5])
    weights = np.array([1.0, 1.0])
    dist = OptionDistribution(probs, weights, 2.0)
    assert probs.flags.writeable and weights.flags.writeable
    assert not np.shares_memory(probs, dist.probabilities)
    assert not np.shares_memory(weights, dist.weights)
    probs[0] = 0.0
    assert dist.probabilities[0] == 0.5


@pytest.mark.parametrize(
    "probs, weights, total",
    [
        ((0.5, 0.6), (1.0, 1.0), 2.0),  # off-sum
        ((1.5, -0.5), (3.0, -1.0), 2.0),  # negative
        ((float("nan"), 1.0), (1.0, 1.0), 2.0),
        ((float("inf"), 0.0), (1.0, 1.0), 2.0),
        ((0.5, 0.5), (1.0, float("inf")), 2.0),
        ((0.5, 0.5), (1.0, 1.0), float("nan")),
        ((0.5, 0.5), (1.0, 1.0, 0.0), 2.0),  # mismatched lengths
        ([[0.5, 0.5]], [[1.0, 1.0]], 2.0),  # not 1-D
    ],
)
def test_option_distribution_rejects_invalid_values(probs, weights, total):
    with pytest.raises(InternalError):
        OptionDistribution(probs, weights, total)


@pytest.mark.parametrize(
    "build",
    [
        lambda: traveler_distribution(TravelerSpec(r=1.7e308, s=1e308, t=1e308, steps=3)),
        lambda: traveler_pij(TravelerSpec(r=1.7e308, s=1e308, t=1e308, steps=3), 1, 0),
        lambda: traveler_mean(TravelerSpec(r=1.7e308, s=1e308, t=1e308, steps=3)),
    ],
)
def test_payoff_scale_overflow_is_a_domain_error(build):
    # these used to return all-NaN distributions that passed validation
    with pytest.raises(DomainError, match="overflows float64"):
        build()


# ----------------------------------------------------------------- diner


def test_diner_spec_validation():
    with pytest.raises(DomainError):
        DinerSpec(r=4, s=5, u=2, w=1)  # r must top the ordering
    with pytest.raises(DomainError):
        DinerSpec(r=4, s=3, u=2, w=-1)  # positive payoffs only
    with pytest.raises(DomainError):
        DinerSpec(r=4, s=3.5, u=2, w=1, n=2)  # R_cb = 2 not below n = 2
    with pytest.raises(DomainError):
        DinerSpec(r=4, s=3, u=2, w=1, n=1)


def test_diner_table2_mapping_and_linearity():
    spec = DinerSpec(r=5.0, s=4.5, u=1.5, w=1.0, n=2)
    t = diner_table2(spec)
    assert t.values() == (1.5, 0.5, -0.5, -1.5)
    # the even split forces a - b - c + d = 0: closed form is linear
    a, b, c, d = t.values()
    assert a - b - c + d == 0.0
    assert classify2(t).tag is GameTag.PRISONERS_DILEMMA


def test_diner_closed_form_two_players():
    spec = DinerSpec(r=5.0, s=4.5, u=1.5, w=1.0, n=2)  # R_cb = 4/3
    est = diner_p(spec)
    assert est.p == pytest.approx(0.5, abs=1e-15)
    spec = DinerSpec(r=4.0, s=3.5, u=1.5, w=1.0, n=2)  # R_cb = 1.5
    assert diner_p(spec).p == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_diner_closed_form_three_players():
    # R_cb = 2 sits inside the (1.5, 3) chain window
    spec = DinerSpec(r=5.0, s=4.5, u=2.5, w=1.0, n=3)
    assert spec.r_cb == pytest.approx(2.0)
    est = diner_p(spec)
    assert est.p == pytest.approx(0.5, abs=1e-12)
    table = diner_table3(spec)
    assert table.values()[0] > table.values()[-1]


def test_diner_table3_requires_chain_window():
    spec = DinerSpec(r=4.0, s=3.5, u=2.0, w=1.0, n=3)  # R_cb = 2 OK
    diner_table3(spec)
    low = DinerSpec(r=4.0, s=3.0, u=0.5, w=1.0 / 3.0, n=3)  # R_cb < 1.5
    assert low.r_cb < 1.5
    with pytest.raises(DomainError):
        diner_table3(low)


def test_diner_ladder_reduces_to_the_two_player_table():
    spec = DinerSpec(r=5.0, s=4.5, u=1.5, w=1.0, n=2)
    assert diner_ladder(spec) == list(diner_table2(spec).values())


def test_diner_ladder_solver_tracks_the_closed_form():
    for r_cb in (2.25, 2.5, 2.75):
        rep = diner_conjecture_test(r_cb, 4)
        assert rep.p_conjecture == pytest.approx(2.0 - 4.0 / r_cb)
        assert abs(rep.gap) < 1e-12


def test_diner_conjecture_domain():
    with pytest.raises(DomainError):
        diner_conjecture_test(1.9, 4)  # below n/2
    with pytest.raises(DomainError):
        diner_conjecture_test(4.0, 4)  # at n
    with pytest.raises(DomainError):
        diner_conjecture_test(2.5, 1)


def test_diner_p_limits_monotone():
    # p -> 0 as R_cb -> 1+ and p -> 1 as R_cb -> 2- for two diners
    ratios = [1.001, 1.2, 1.5, 1.8, 1.999]
    ps = []
    for r_cb in ratios:
        u = 1.0 + (r_cb - 1.0) / 2.0
        spec = DinerSpec(r=1.0 + r_cb, s=u + 1.0, u=u, w=1.0, n=2)
        assert spec.r_cb == pytest.approx(r_cb)
        ps.append(diner_p(spec).p)
    assert all(x < y for x, y in zip(ps, ps[1:]))
    assert ps[0] < 0.01
    assert ps[-1] > 0.99


# ---------------------------------------------------------- public goods


def test_public_goods_p_star():
    assert public_goods_p_star(4.0 / 3.0) == pytest.approx(0.5, abs=1e-15)
    assert public_goods_p_star(1.5) == pytest.approx(2.0 / 3.0, abs=1e-15)
    for k in (1.0, 2.0, 0.5, math.nan):
        with pytest.raises(DomainError):
            public_goods_p_star(k)


def test_public_goods_pairwise_reduction_is_level_free():
    spec = PublicGoodsSpec(r=10.0, k=1.5, options=4)
    p_star = public_goods_p_star(spec.k)
    for i, j in ((1, 0), (4, 0), (3, 1), (4, 3), (2, 4)):
        t = public_goods_table2(spec, i, j)
        assert classify2(t).tag is GameTag.PRISONERS_DILEMMA
        assert balanced_p(t).p == pytest.approx(p_star, abs=1e-12)
    with pytest.raises(UndefinedPairError):
        public_goods_table2(spec, 2, 2)
    with pytest.raises(DomainError):
        public_goods_table2(spec, 5, 0)


def test_public_goods_distribution_exact_fractions():
    dist = public_goods_distribution(PublicGoodsSpec(r=100.0, k=1.5, options=4))
    assert dist.total == 10.0
    for got, num in zip(dist.probabilities, (4, 5, 6, 7, 8)):
        assert got == pytest.approx(num / 30.0, abs=1e-15)
    uniform = public_goods_distribution(PublicGoodsSpec(r=100.0, k=4.0 / 3.0, options=4))
    for got in uniform.probabilities:
        assert got == pytest.approx(0.2, abs=1e-15)
    low = public_goods_distribution(PublicGoodsSpec(r=100.0, k=1.2, options=4))
    for got, num in zip(low.probabilities, (8, 7, 6, 5, 4)):
        assert got == pytest.approx(num / 30.0, abs=1e-12)


@pytest.mark.parametrize("k, options", [(1.5, 1), (1.2, 7), (1.9, 50)])
def test_public_goods_distribution_matches_the_loop_reference(k, options):
    spec = PublicGoodsSpec(r=100.0, k=k, options=options)
    p_star = public_goods_p_star(k)
    weights = [float(i) * p_star + (options - float(i)) * (1.0 - p_star) for i in range(options + 1)]
    _assert_matches_loop(public_goods_distribution(spec), weights, options * (options + 1) / 2.0)


# -------------------------------------------------------------- traveler


def test_traveler_spec_validation():
    with pytest.raises(DomainError):
        TravelerSpec(r=2.0, s=4.0, t=2.0, steps=2)
    with pytest.raises(DomainError):
        TravelerSpec(r=4.0, s=2.0, t=3.0, steps=2)  # bonus above the floor
    with pytest.raises(DomainError):
        TravelerSpec(r=4.0, s=2.0, t=2.0, steps=0)


def test_traveler_pair_table_and_formula_agree():
    spec = TravelerSpec(r=4.0, s=2.0, t=2.0, steps=2)
    t = traveler_table2(spec, 1, 0)
    assert t.values() == (4.0, 3.0, 2.0, 0.0)
    assert classify2(t).tag is GameTag.PRISONERS_DILEMMA
    assert balanced_p(t).p == pytest.approx(traveler_pij(spec, 1, 0), abs=1e-12)
    assert traveler_pij(spec, 0, 1) == traveler_pij(spec, 1, 0)
    assert traveler_pij(spec, 1, 0) == pytest.approx((3.0 - math.sqrt(5.0)) / 2.0, abs=1e-12)


def test_traveler_wide_gaps_classify_coordination_and_cooperate():
    # gap * v above the bonus flips the pair out of the dilemma family;
    # its stag-type ratio lands at or above 1/2, so the high claim wins
    spec = TravelerSpec(r=10.0, s=2.0, t=2.0, steps=8)
    t = traveler_table2(spec, 5, 0)
    assert classify2(t).tag is GameTag.STAG_HUNT
    assert balanced_p(t).p == 1.0
    assert traveler_pij(spec, 5, 0) == 1.0


def test_traveler_boundary_gap_equal_bonus():
    # delta v == t: the mapped table has a == b and no strict class, while
    # the gap formula keeps the coordination answer p = 1
    spec = TravelerSpec(r=4.0, s=2.0, t=2.0, steps=2)
    assert traveler_pij(spec, 2, 0) == 1.0
    assert classify2(traveler_table2(spec, 2, 0)).tag is GameTag.UNCLASSIFIED


def test_traveler_small_distribution():
    dist = traveler_distribution(TravelerSpec(r=4.0, s=2.0, t=2.0, steps=2))
    p1 = (3.0 - math.sqrt(5.0)) / 2.0
    assert dist.probabilities[0] == pytest.approx((1.0 - p1) / 3.0, abs=1e-12)
    assert dist.probabilities[1] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert dist.probabilities[2] == pytest.approx((1.0 + p1) / 3.0, abs=1e-12)
    assert dist.total == pytest.approx(3.0)


def test_traveler_distribution_matches_brute_force():
    spec = TravelerSpec(r=20.0, s=2.0, t=2.0, steps=18)
    dist = traveler_distribution(spec)
    n = spec.steps
    weights = np.zeros(n + 1)
    for i in range(n + 1):
        for j in range(n + 1):
            if i == j:
                continue
            pij = traveler_pij(spec, i, j)
            weights[i] += pij if i > j else 1.0 - pij
    assert np.allclose(weights, dist.weights, atol=1e-12)
    assert dist.total == pytest.approx(weights.sum(), abs=1e-9)
    assert sum(dist.probabilities) == pytest.approx(1.0, abs=1e-12)


def test_traveler_large_case_endpoints():
    dist = traveler_distribution(TravelerSpec(r=100.0, s=2.0, t=2.0, steps=98))
    assert dist.total == pytest.approx(98 * 99 / 2.0)
    assert dist.probabilities[-1] == pytest.approx(0.020074616782364486, abs=1e-12)
    assert dist.probabilities[0] == pytest.approx(0.00012740341965571758, abs=1e-15)


@pytest.mark.parametrize(
    "spec",
    [
        TravelerSpec(r=5.0, s=3.0, t=3.0, steps=1),
        TravelerSpec(r=100.0, s=2.0, t=2.0, steps=50),  # gap 1 dilemma, the rest coordinate
        TravelerSpec(r=200.0, s=80.0, t=5.0, steps=40),
        TravelerSpec(r=10.0, s=5.0, t=5.0, steps=50),  # 49 dilemma gaps
    ],
)
def test_traveler_distribution_matches_the_loop_reference(spec):
    n = spec.steps
    weights = _loop_weights([traveler_pij(spec, d, 0) for d in range(1, n + 1)], True)
    _assert_matches_loop(traveler_distribution(spec), weights, float(np.sum(weights)))


def test_traveler_means():
    assert traveler_mean(TravelerSpec(r=200.0, s=80.0, t=5.0, steps=120)) == pytest.approx(
        160.24523236002165, abs=1e-9
    )
    assert traveler_mean(TravelerSpec(r=200.0, s=80.0, t=80.0, steps=120)) == pytest.approx(
        144.60423747063936, abs=1e-9
    )


def test_traveler_single_step_spec():
    # two options only; v = r - s lands exactly in the dilemma branch here
    spec = TravelerSpec(r=5.0, s=3.0, t=3.0, steps=1)
    assert traveler_mean(spec) == pytest.approx(4.0, abs=1e-12)


def test_traveler_discriminant_identity():
    # (g + t)^2 - 4 g^2 == (t - g)(t + 3 g): nonnegative on the branch g <= t
    for t in (1.0, 2.0, 5.0):
        for g in np.linspace(0.01, t, 7):
            assert (g + t) ** 2 - 4 * g * g == pytest.approx((t - g) * (t + 3 * g), abs=1e-9)


# ------------------------------------------------------------- attrition


def test_attrition_pair_table():
    spec = AttritionSpec(x=2.0, max_bid=4)
    assert attrition_table2(spec, 1, 0).values() == (2.0, 1.0, 0.0, 0.0)
    assert attrition_table2(spec, 3, 1).values() == (1.0, 0.0, -2.0, -1.0)
    with pytest.raises(UndefinedPairError):
        attrition_table2(spec, 2, 2)
    with pytest.raises(DomainError):
        attrition_table2(spec, 5, 0)


@pytest.mark.parametrize(
    "delta, expected",
    [
        (1, (math.sqrt(5.0) - 1.0) / 2.0),
        (2, (math.sqrt(17.0) - 1.0) / 4.0),
        (3, (math.sqrt(37.0) - 1.0) / 6.0),
        (4, (math.sqrt(65.0) - 1.0) / 8.0),
    ],
)
def test_attrition_uniform_formula(delta, expected):
    spec = AttritionSpec(x=2.0, max_bid=4)
    assert attrition_pij(spec, delta, 0, mode="paper") == pytest.approx(expected, abs=1e-12)


def test_attrition_modes_agree_only_in_the_dilemma_window():
    spec = AttritionSpec(x=2.0, max_bid=4)
    # gap 1 = x/2: dilemma side, both modes give the same root
    assert attrition_pij(spec, 1, 0, mode="paper") == pytest.approx(
        attrition_pij(spec, 1, 0, mode="dispatch"), abs=1e-12
    )
    # gap beyond x/2 classifies Chicken and the class-aware root moves
    assert classify2(attrition_table2(spec, 2, 0)).tag is GameTag.CHICKEN
    assert attrition_pij(spec, 2, 0, mode="dispatch") == pytest.approx(0.75, abs=1e-12)
    assert attrition_pij(spec, 2, 0, mode="paper") != pytest.approx(0.75, abs=1e-6)


def test_attrition_mode_validation(monkeypatch):
    spec = AttritionSpec(x=2.0, max_bid=4)
    with pytest.raises(DomainError):
        attrition_pij(spec, 1, 0, mode="other")

    def no_work(*args):
        raise AssertionError("the mode is checked before any gap is solved")

    monkeypatch.setattr(applications, "_attrition_paper_by_delta", no_work)
    monkeypatch.setattr(applications, "_balanced_p_batch", no_work)
    with pytest.raises(DomainError, match="mode must be 'paper' or 'dispatch', got 'other'"):
        attrition_distribution(spec, mode="other")


def test_attrition_distribution_structure():
    spec = AttritionSpec(x=2.0, max_bid=4)
    for mode in ("paper", "dispatch"):
        dist = attrition_distribution(spec, mode=mode)
        assert dist.total == pytest.approx(10.0, abs=1e-12)
        # the middle bid is formula-forced and symmetric pairs sum to 2/N
        assert dist.probabilities[2] == pytest.approx(0.2, abs=1e-12)
        for i in (0, 1):
            assert dist.probabilities[i] + dist.probabilities[4 - i] == pytest.approx(
                0.4, abs=1e-12
            )


def test_attrition_distribution_matches_brute_force():
    spec = AttritionSpec(x=2.0, max_bid=4)
    dist = attrition_distribution(spec, mode="paper")
    n = spec.max_bid
    weights = np.zeros(n + 1)
    for i in range(n + 1):
        for j in range(n + 1):
            if i == j:
                continue
            pij = attrition_pij(spec, i, j, mode="paper")
            # cooperation is the lower bid: level i concedes against higher j
            weights[i] += pij if i < j else 1.0 - pij
    assert np.allclose(weights, dist.weights, atol=1e-12)


def test_attrition_paper_mode_frozen_vector():
    dist = attrition_distribution(AttritionSpec(x=2.0, max_bid=4), mode="paper")
    expected = (
        0.31287197020718353,
        0.26279034947865425,
        0.2,
        0.13720965052134572,
        0.08712802979281645,
    )
    for got, want in zip(dist.probabilities, expected):
        assert got == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("x, max_bid", [(2.0, 1), (2.0, 50), (37.5, 33), (0.01, 20)])
def test_attrition_distribution_matches_the_loop_reference(x, max_bid):
    spec = AttritionSpec(x=x, max_bid=max_bid)
    gaps = range(1, max_bid + 1)
    # paper mode's closed form, one gap at a time (np.hypot, since math.hypot
    # rounds differently)
    scalar = [2.0 * d / (x / 2.0 + float(np.hypot(x / 2.0, 2.0 * d))) for d in gaps]
    assert [attrition_pij(spec, d, 0) for d in gaps] == scalar
    weights = _loop_weights(scalar, False)
    _assert_matches_loop(attrition_distribution(spec), weights, float(np.sum(weights)))
    dispatch = _loop_weights([attrition_pij(spec, d, 0, mode="dispatch") for d in gaps], False)
    _assert_matches_loop(
        attrition_distribution(spec, mode="dispatch"), dispatch, float(np.sum(dispatch))
    )


@pytest.mark.parametrize("x", [1e2, 1e4, 1e6, 1e9])
def test_attrition_paper_mode_keeps_its_digits_when_the_prize_dwarfs_the_gap(x):
    # (-x/2 + sqrt(x^2/4 + 4)) / 2 at d = 1 cancels: 1e-9 off at x = 1e4, 0 at 1e9
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        half = mpmath.mpf(x) / 2
        want = float((-half + mpmath.sqrt(half * half + 4)) / 2)
    assert attrition_pij(AttritionSpec(x=x, max_bid=1), 1, 0) == pytest.approx(want, rel=1e-14, abs=0.0)


def test_attrition_paper_mode_answers_a_prize_at_the_top_of_float64():
    # x^2 overflows here; 2 d / (x/2 + hypot(x/2, 2 d)) is 2 d / x to rounding
    spec = AttritionSpec(x=1e308, max_bid=3)
    assert [attrition_pij(spec, d, 0) for d in (1, 2, 3)] == pytest.approx([2e-308, 4e-308, 6e-308], rel=1e-15)
    dist = attrition_distribution(spec)
    assert dist.probabilities.tolist() == pytest.approx([2e-308, 1 / 6, 1 / 3, 1 / 2], rel=1e-15)


def _dispatch_reference(spec, policy=NumericPolicy()):
    gaps = range(1, spec.max_bid + 1)
    return _loop_weights([attrition_pij(spec, d, 0, "dispatch", policy) for d in gaps], False)


@pytest.mark.parametrize("x, max_bid", [(8.0, 20), (1000.0, 2500)])
def test_attrition_dispatch_across_the_class_seams_is_the_per_pair_reference(x, max_bid):
    spec = AttritionSpec(x=x, max_bid=max_bid)
    # gap x/2 makes c = d, the PrisonersDilemma boundary; gap x makes the
    # Chicken quadratic coefficient x - gap vanish, so its linear form applies
    boundary = classify2(attrition_table2(spec, int(x) // 2, 0))
    assert boundary.tag is GameTag.PRISONERS_DILEMMA and boundary.boundary_flags == {"c=d"}
    seam = balanced_p(attrition_table2(spec, int(x), 0))
    assert seam.class_used.tag is GameTag.CHICKEN and seam.roots == (seam.p,)
    weights = _dispatch_reference(spec)
    _assert_matches_loop(
        attrition_distribution(spec, mode="dispatch"), weights, float(np.sum(weights))
    )


def test_attrition_dispatch_makes_no_per_pair_scalar_calls(monkeypatch):
    spec = AttritionSpec(x=8.0, max_bid=20)
    weights = _dispatch_reference(spec)

    def per_pair(*args):
        raise AssertionError("dispatch mode solved a gap with the scalar balanced_p")

    monkeypatch.setattr(applications, "balanced_p", per_pair)
    _assert_matches_loop(
        attrition_distribution(spec, mode="dispatch"), weights, float(np.sum(weights))
    )


def test_attrition_dispatch_cli_policy_reaches_the_batch_solver(capsys):
    # gap 8 leaves the Chicken coefficient k = x - 8 = 0.001; --policy-eps
    # 1e-3 sets eps_root, which the closed form does not use
    args = ["app", "attrition", "--x", "8.001", "--max-bid", "10", "--mode", "dispatch"]
    spec = AttritionSpec(x=8.001, max_bid=10)
    rendered = [
        [float(f"{w:.12g}") for w in _dispatch_reference(spec, policy)]
        for policy in (NumericPolicy(eps_root=1e-3), NumericPolicy())
    ]
    assert rendered[0] == rendered[1]
    for extra, want in zip((["--policy-eps", "1e-3"], []), rendered):
        assert main(args + extra) == 0
        assert json.loads(capsys.readouterr().out)["result"]["weights"] == want


def test_attrition_escalation_limit():
    # the conceding probability grows toward 1 with the bid gap
    spec = AttritionSpec(x=2.0, max_bid=10**6)
    p_small = attrition_pij(spec, 1, 0, mode="paper")
    p_large = attrition_pij(spec, 10**6, 0, mode="paper")
    assert p_small < p_large < 1.0
    assert p_large > 0.999999
