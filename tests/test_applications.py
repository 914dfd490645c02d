"""Applied multi-option games: mappings, closed forms, distributions."""

import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from cooprob import (
    AttritionSpec,
    DinerSpec,
    DomainError,
    GameTag,
    InternalError,
    OptionDistribution,
    PayoffTable2,
    PublicGoodsSpec,
    TravelerSpec,
    UndefinedPairError,
    UnsupportedClassError,
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
from cooprob.estimators import _balanced_p_batch
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


# The builders' array bodies before they wrote into buffers of their own,
# kept as references: the in-place passes take the same operations in the
# same order, so every bit of their output must be the same.


def _ref_public_goods(spec):
    n = spec.options
    p_star = public_goods_p_star(spec.k)
    q_star = 1.0 - p_star
    levels = np.arange(n + 1, dtype=float)
    weights = levels * p_star + (n - levels) * q_star
    total = n * (n + 1) / 2.0
    return weights / total, weights, float(total)


def _ref_traveler_p(spec, deltas):
    gap = deltas * spec.v
    t = spec.t
    p = np.ones_like(gap)
    pd = gap < t
    if np.any(pd):
        g = gap[pd]
        if math.isfinite(2.0 * t * spec.steps):
            tg = np.maximum((t * spec.steps - deltas[pd] * (spec.r - spec.s)) / spec.steps, 0.0)
        else:
            tg = t - g
        p[pd] = g / (0.5 * g + 0.5 * t + np.sqrt(tg) * np.sqrt(0.25 * t + 0.75 * g))
    return p


def _ref_traveler(spec):
    n = spec.steps
    p = _ref_traveler_p(spec, np.arange(1, n + 1, dtype=float))
    cum = np.concatenate(([0.0], np.cumsum(p)))
    levels = np.arange(n + 1)
    weights = cum + ((n - levels) - cum[::-1])
    total = float(weights.sum())
    return weights / total, weights, total


def _ref_attrition(spec, mode):
    n = spec.max_bid
    deltas = np.arange(1, n + 1, dtype=float)
    if mode == "paper":
        half = spec.x / 2.0
        p = 2.0 * deltas / (half + np.hypot(half, 2.0 * deltas))
    else:
        x = spec.x
        p = _balanced_p_batch(x, x / 2.0, x / 2.0 - deltas, 0.0)
    cum = np.concatenate(([0.0], np.cumsum(p)))
    levels = np.arange(n + 1)
    weights = (levels - cum) + cum[::-1]
    total = float(weights.sum())
    return weights / total, weights, total


def _assert_same_bits(dist, reference):
    probs, weights, total = reference
    assert np.array_equal(dist.probabilities.view(np.uint64), probs.view(np.uint64))
    assert np.array_equal(dist.weights.view(np.uint64), weights.view(np.uint64))
    assert dist.total == total


# the benchmark's spec ranges, at 10^5 options
REFERENCE_OPTIONS = 10**5


@pytest.mark.parametrize("seed", range(3))
def test_public_goods_builder_is_bit_identical_to_its_array_reference(seed):
    rng = np.random.default_rng(seed)
    spec = PublicGoodsSpec(r=float(rng.uniform(10, 1000)), k=float(rng.uniform(1.05, 1.95)), options=REFERENCE_OPTIONS)
    _assert_same_bits(public_goods_distribution(spec), _ref_public_goods(spec))


@pytest.mark.parametrize("bonus", [0.1, 0.4, 0.7, 1.0])  # the bonus as a share of the floor s
def test_traveler_builder_is_bit_identical_to_its_array_reference(bonus):
    rng = np.random.default_rng(int(bonus * 10))
    s = float(rng.uniform(1.0, 10.0))
    spec = TravelerSpec(r=s + float(rng.uniform(50, 500)), s=s, t=s * bonus, steps=REFERENCE_OPTIONS)
    _assert_same_bits(traveler_distribution(spec), _ref_traveler(spec))


@pytest.mark.parametrize(
    "spec",
    [
        TravelerSpec(r=1.5e303, s=1e303, t=1e303, steps=REFERENCE_OPTIONS),  # t steps overflows: t - g
        TravelerSpec(r=1000.0, s=1.0, t=0.001, steps=REFERENCE_OPTIONS),  # no gap below the bonus
        TravelerSpec(r=10.0, s=5.0, t=5.0, steps=REFERENCE_OPTIONS),  # the widest gap is the bonus
    ],
)
def test_traveler_builder_is_bit_identical_to_its_array_reference_at_the_branch_ends(spec):
    deltas = np.arange(1, spec.steps + 1, dtype=float)
    got = applications._traveler_p_by_delta(spec, deltas)
    assert np.array_equal(got.view(np.uint64), _ref_traveler_p(spec, deltas).view(np.uint64))
    _assert_same_bits(traveler_distribution(spec), _ref_traveler(spec))


@pytest.mark.parametrize(
    "spec",
    [
        TravelerSpec(r=3.0, s=2.0, t=1.0, steps=1),  # one gap, the bonus itself
        TravelerSpec(r=10.0, s=9.0, t=9.0, steps=REFERENCE_OPTIONS),  # every gap below the bonus
        TravelerSpec(r=102.0, s=2.0, t=2.0, steps=50),  # the first gap is the bonus: no gap below it
        TravelerSpec(r=3e-300, s=1e-300, t=1e-300, steps=REFERENCE_OPTIONS),  # a 1e-300 payoff scale
        TravelerSpec(r=200.0, s=80.0, t=80.0, steps=10**6),  # Capra et al.'s claims at the benchmark's top size
        TravelerSpec(5.029648233610368, 2.609292184507319, 1.6353757088534115, 37),  # 25 v < t only by rounding
        # ceil(t / v) is exactly the number of gaps with d v < t, then two more than it
        TravelerSpec(14.58667596828181, 6.742360414374557, 5.08762351988612, 1824),
        TravelerSpec(10.222138052730529, 9.803912305975103, 0.07744921236211577, 108),
    ],
)
def test_traveler_builder_is_bit_identical_to_its_array_reference_at_the_edges(spec):
    _assert_same_bits(traveler_distribution(spec), _ref_traveler(spec))


@pytest.mark.parametrize("mode", ["paper", "dispatch"])
@pytest.mark.parametrize("seed", range(2))
def test_attrition_builder_is_bit_identical_to_its_array_reference(mode, seed):
    rng = np.random.default_rng(seed)
    spec = AttritionSpec(x=float(rng.uniform(1.0, 100.0)), max_bid=REFERENCE_OPTIONS)
    _assert_same_bits(attrition_distribution(spec, mode), _ref_attrition(spec, mode))




@pytest.fixture
def unchecked(monkeypatch):
    """The builders hand back (probabilities, weights, total) unchecked, so
    that sums past any valid distribution can be compared too."""
    monkeypatch.setattr(OptionDistribution, "_owning", classmethod(lambda cls, *arrays: arrays))


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


ONES_CASES = [
    (np.random.default_rng(0).uniform(size=40), 0),  # no gap of p = 1
    (np.empty(0), 3000),  # every gap p = 1
    (np.array([1e-300]), 5000),
    (np.array([2.0**53 - 3]), 8),  # past 2^53 a + 1 is no longer exact
    (np.array([2.0**52 - 0.5]), 4),  # the step to 2^52 is a tie, rounded to even
    (np.random.default_rng(1).uniform(size=37), 10_000),  # fractional sums over nine binades
    (np.random.default_rng(2).uniform(0.0, 1e-3, size=5), 70_000),
]


@pytest.mark.parametrize("high_cooperates", [True, False])
@pytest.mark.parametrize("p, ones", ONES_CASES + [
    # seeded draws: k gaps of p drawn on a scale 1e-300..1e15, then m ones
    (rng.uniform(size=rng.integers(0, 50)) * 10.0 ** rng.uniform(-300, 15), int(rng.integers(0, 3000)))
    for rng in map(np.random.default_rng, range(100, 120))
])
def test_a_count_of_ones_sums_as_the_ones_themselves(unchecked, p, ones, high_cooperates):
    got = applications._pairwise_distribution(p.copy(), high_cooperates, ones)
    want = applications._pairwise_distribution(np.concatenate([p, np.ones(ones)]), high_cooperates)
    for mine, theirs in zip(got, want):
        assert np.array_equal(_bits(mine), _bits(theirs))


def _spy_on_the_gaps(monkeypatch):
    """The (p, ones) of each _pairwise_distribution call, which runs as before."""
    seen = []
    real = applications._pairwise_distribution

    def spy(p, high_cooperates, ones=0):
        seen.append((p.copy(), ones))
        return real(p, high_cooperates, ones)

    monkeypatch.setattr(applications, "_pairwise_distribution", spy)
    return seen


def test_the_traveler_gap_equal_to_the_bonus_takes_the_dilemma_limit(monkeypatch):
    spec = TravelerSpec(102, 2, 2, 50)  # v = t: gap 1 is the bonus
    assert traveler_pij(spec, 1, 0) == 1.0
    with pytest.raises(UnsupportedClassError):  # a = b: the pair table has no class
        balanced_p(traveler_table2(spec, 1, 0))
    # the dilemma form, and balanced_p on the dilemma table, at g = t (1 - 2^-52)
    g = 2.0 * (1.0 - 2.0**-52)
    dilemma = applications._traveler_p_by_delta(TravelerSpec(4, 2, 2, 2), np.array([g]))  # v = 1
    assert abs(dilemma[0] - 1.0) < 1e-7
    assert abs(balanced_p(PayoffTable2(2.0, g, 0.0, -2.0)).p - 1.0) < 1e-7
    # the gap is passed in the count of ones, here and in the README's example at gap 2
    seen = _spy_on_the_gaps(monkeypatch)
    traveler_distribution(spec)
    traveler_distribution(TravelerSpec(100, 2, 2, 98))
    assert [(len(p), ones) for p, ones in seen] == [(0, 50), (1, 97)]


@pytest.mark.parametrize(
    "spec, pij, build",
    [
        (TravelerSpec(5.029648233610368, 2.609292184507319, 1.6353757088534115, 37), traveler_pij, traveler_distribution),
        *[
            (
                AttritionSpec(8.001, 30),
                lambda *pair, m=m: attrition_pij(*pair, m),
                lambda spec, m=m: attrition_distribution(spec, m),
            )
            for m in ("paper", "dispatch")
        ],
    ],
)
def test_every_pair_gets_the_builders_p_of_its_gap_bit_for_bit(monkeypatch, spec, pij, build):
    # dispatch mode solves the gap's table, not the translated one (x - lo,
    # ...), whose rounding would move 92 of these 465 pairs
    seen = _spy_on_the_gaps(monkeypatch)
    build(spec)
    ((p, ones),) = seen
    by_gap = np.concatenate([p, np.ones(ones)])
    pairs = [(i, j) for i in range(len(by_gap) + 1) for j in range(len(by_gap) + 1) if i != j]
    got = [pij(spec, i, j) for i, j in pairs]
    assert np.array_equal(_bits(got), _bits([by_gap[abs(i - j) - 1] for i, j in pairs]))


def test_attrition_dispatch_depends_on_the_gap_alone():
    spec = AttritionSpec(0.8019786751195999, 170)
    assert attrition_pij(spec, 170, 161, "dispatch") == attrition_pij(spec, 9, 0, "dispatch") == 0.960402375516192


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


def test_the_builders_hand_over_their_buffers_without_a_copy(monkeypatch):
    def no_copy(values):
        raise AssertionError("a builder copied its own buffer")

    monkeypatch.setattr(applications, "_read_only_copy", no_copy)
    for dist in (
        public_goods_distribution(PublicGoodsSpec(r=100, k=1.5, options=4)),
        traveler_distribution(TravelerSpec(r=100, s=2, t=2, steps=98)),
        *[attrition_distribution(AttritionSpec(x=2.0, max_bid=4), mode) for mode in ("paper", "dispatch")],
    ):
        assert not (dist.probabilities.flags.writeable or dist.weights.flags.writeable)
        assert dist.probabilities.dtype == dist.weights.dtype == np.float64
        assert math.isclose(dist.probabilities.sum(), 1.0) and dist.total > 0.0


@pytest.mark.parametrize(
    "build, message",
    [
        # a pair probability of 3 leaves level 0 the weight 1 - 3
        (lambda: applications._pairwise_distribution(np.array([3.0]), True), "negative probability"),
        (lambda: OptionDistribution._owning(np.array([0.5, 0.6]), np.ones(2), 2.0), "sums to"),
        (lambda: OptionDistribution._owning(np.array([0.5, 0.5]), np.ones(3), 2.0), "1-D arrays of one length"),
    ],
)
def test_a_handed_over_buffer_gets_every_check(build, message):
    with pytest.raises(InternalError, match=message):
        build()


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


@pytest.mark.parametrize(
    "spec, gap",
    [
        (TravelerSpec(1.0000001e160, 1e160, 1e160, 10), 1),  # (g + t)^2 overflows float64
        (TravelerSpec(1e-300, 5e-301, 5e-301, 9), 1),  # 4 g^2 underflows
        (TravelerSpec(4, 2, 2, 2_000_000), 1_999_999),  # (g + t)^2 - 4 g^2 cancels
        (TravelerSpec(1.1e307, 1e307, 1e307, 1000), 500),  # t steps overflows float64
    ],
)
def test_traveler_pij_is_the_high_precision_root(spec, gap):
    # the reference takes the exact gap of the spec: p is ill-conditioned in
    # t - g near the bonus t, where the last case's float64 gap is 4.9e-14 off
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        g = gap * (mpmath.mpf(spec.r) - mpmath.mpf(spec.s)) / spec.steps
        t = mpmath.mpf(spec.t)
        want = 2 * g / (g + t + mpmath.sqrt((t - g) * (t + 3 * g)))
    assert abs(traveler_pij(spec, gap, 0) - want) <= 1e-15 * want


def test_a_gap_below_the_bonus_only_by_rounding_cooperates():
    # 25 v rounds below t, while the exact gap 25 (r - s) / 37 is not below it:
    # t - g, formed from the exact spec, is then clamped at 0, not square-rooted
    spec = TravelerSpec(5.029648233610368, 2.609292184507319, 1.6353757088534115, 37)
    assert 25 * spec.v < spec.t
    assert traveler_pij(spec, 25, 0) == 1.0
    assert np.isfinite(traveler_distribution(spec).weights).all()


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


def _diner_spec(r_cb, n, number=float):
    """A spec whose cost/benefit ratio is r_cb: w = 1 and s - u = 1."""
    u = number(1) + (r_cb - 1) / 2
    return DinerSpec(r=1 + r_cb, s=u + 1, u=u, w=number(1), n=n)


def test_diner_p_answers_every_n_as_the_ladder_solver_does():
    for n in range(2, 201):
        for share in (0.55, 0.75, 0.95):
            spec = _diner_spec(share * n, n)
            assert abs(diner_p(spec).p - balanced_pn(diner_ladder(spec)).p) <= 1e-12, (n, share)


@pytest.mark.parametrize("n", [4, 7, 20])
def test_the_diner_closed_form_is_exact(n):
    # every psi gap C_i - D_(i+2) and every omega gap D_(j+1) - C_j of the
    # ladder is one number, so p = psi / (psi + omega) for every p
    r_cb = Fraction(3, 4) * n
    ladder = diner_ladder(_diner_spec(r_cb, n, Fraction))
    d, c = ladder[0::2], ladder[1::2]  # d[i] = D_(i+1), c[i] = C_i
    (psi,) = {c[i] - d[i + 1] for i in range(n - 1)}
    (omega,) = {d[j] - c[j] for j in range(n)}
    assert psi / (psi + omega) == 2 - n / r_cb


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


def test_traveler_spec_refuses_a_step_that_underflows_to_0():
    # (r - s) / steps = 5e-324 / 3 rounds to 0, and every gap's p would be 0 / 0
    with pytest.raises(DomainError, match="underflows to 0"):
        TravelerSpec(r=1e-323, s=5e-324, t=5e-324, steps=3)
    assert TravelerSpec(r=1e-323, s=5e-324, t=5e-324, steps=1).v == 5e-324


@pytest.mark.parametrize(
    "build, field, least",
    [
        (lambda v: TravelerSpec(100.0, 2.0, 2.0, v), "steps", 1),
        (lambda v: PublicGoodsSpec(100.0, 1.5, v), "options", 1),
        (lambda v: AttritionSpec(2.0, v), "max_bid", 1),
        (lambda v: DinerSpec(r=4.0, s=3.0, u=2.0, w=1.0, n=v), "n", 2),
        (lambda v: diner_conjecture_test(3.0, v), "n", 2),
    ],
)
def test_spec_counts_must_be_ints_at_their_minimum(build, field, least):
    for value in (least - 1, least + 0.5, float(least), True, math.nan, math.inf, str(least), None, np.int64(least)):
        with pytest.raises(DomainError, match=f"^{field} must be an int of at least {least}, got "):
            build(value)


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


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_traveler_cli_mean_builds_the_distribution_once(monkeypatch, capsys, fmt):
    golden = json.loads((Path(__file__).parent / "data" / "app_golden.json").read_text())
    command = f"app traveler --max 12 --min 4 --bonus 3 --steps 5 --mean --format {fmt}"
    calls = []
    original = applications.traveler_distribution

    def spy(spec):
        calls.append(spec)
        return original(spec)

    monkeypatch.setattr(applications, "traveler_distribution", spy)
    assert main(command.split()) == 0
    assert capsys.readouterr().out == golden[command]
    assert calls == [TravelerSpec(12.0, 4.0, 3.0, 5)]


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


def _dispatch_reference(spec):
    gaps = range(1, spec.max_bid + 1)
    return _loop_weights([attrition_pij(spec, d, 0, "dispatch") for d in gaps], False)


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


def test_attrition_dispatch_cli_is_the_per_pair_reference(capsys):
    # gap 8 leaves the Chicken coefficient k = x - 8 = 0.001
    args = ["app", "attrition", "--x", "8.001", "--max-bid", "10", "--mode", "dispatch"]
    want = [float(f"{w:.12g}") for w in _dispatch_reference(AttritionSpec(x=8.001, max_bid=10))]
    assert main(args) == 0
    assert json.loads(capsys.readouterr().out)["result"]["weights"] == want


def test_attrition_escalation_limit():
    # the conceding probability grows toward 1 with the bid gap
    spec = AttritionSpec(x=2.0, max_bid=10**6)
    p_small = attrition_pij(spec, 1, 0, mode="paper")
    p_large = attrition_pij(spec, 10**6, 0, mode="paper")
    assert p_small < p_large < 1.0
    assert p_large > 0.999999
