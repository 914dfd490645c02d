"""Two-player estimators: balanced roots, baselines, weights, payoffs."""

import itertools
import math

import numpy as np
import pytest

from cooprob import (
    AmbiguousRootError,
    CooprobError,
    DomainError,
    GameTag,
    InvalidTableError,
    Leaning,
    PayoffTable2,
    Response,
    UnsupportedClassError,
    balanced_p,
    best_response,
    best_response_threshold,
    classify2,
    equiprobability,
    expected_payoff2,
    maximin_alt_p,
    maximin_p,
    payoff_max_p,
    phi_chi,
)
from cooprob.estimators import _balanced_p_batch
from conftest import sample_near_linear_tables

SQRT3 = math.sqrt(3.0)
SQRT5 = math.sqrt(5.0)
SQRT6 = math.sqrt(6.0)
SQRT7 = math.sqrt(7.0)
GOLDEN_P = (SQRT5 - 1.0) / 2.0


# ------------------------------------------------------ balanced estimates


@pytest.mark.parametrize(
    "table, expected",
    [
        ((9, 8, 5, 2), (3.0 - SQRT3) / 2.0),
        ((10, 7, 5, 1), 3.0 - SQRT7),
        ((8, 2, -2, -4), 0.5),
        ((100, 51, 50, 0), (51.0 - math.sqrt(2597.0)) / 2.0),
    ],
)
def test_balanced_p_dilemma_quadratic(table, expected):
    est = balanced_p(PayoffTable2(*table))
    assert est.class_used.tag is GameTag.PRISONERS_DILEMMA
    assert est.method == "balanced"
    assert len(est.roots) == 2
    assert est.p == pytest.approx(expected, abs=1e-12)
    assert est.q == pytest.approx(1.0 - expected, abs=1e-12)


def test_balanced_p_dilemma_linear_fallback():
    # a - b - c + d = 0 kills the quadratic term; the linear form takes over
    est = balanced_p(PayoffTable2(101, 100, 1, 0))
    assert est.roots == (est.p,)
    assert est.p == 0.99

    est = balanced_p(PayoffTable2(9, 7, 3, 1))
    assert est.roots == (est.p,)
    assert est.p == pytest.approx(2.0 / 3.0, abs=1e-15)


@pytest.mark.parametrize("stake", [1.0, 100.0, 1e6])
def test_balanced_p_split_or_grab_is_golden_ratio(stake):
    # (J, J/2, 0, 0): the balance quadratic is p^2 + p - 1 = 0 at any stake
    est = balanced_p(PayoffTable2(stake, stake / 2.0, 0.0, 0.0))
    assert est.p == pytest.approx(GOLDEN_P, abs=1e-12)


def test_balanced_p_keeps_all_real_roots():
    est = balanced_p(PayoffTable2(9, 8, 5, 2))
    assert len(est.roots) == 2
    assert est.roots[0] == pytest.approx((3.0 - SQRT3) / 2.0, abs=1e-12)
    assert est.roots[1] == pytest.approx((3.0 + SQRT3) / 2.0, abs=1e-12)


def test_balanced_p_chicken():
    degen = balanced_p(PayoffTable2(4, 3, 0, 1))
    assert degen.class_used.tag is GameTag.CHICKEN
    assert degen.roots == (degen.p,)
    assert degen.p == pytest.approx(0.8, abs=1e-15)

    est = balanced_p(PayoffTable2(7, 3, 0, 2))
    assert len(est.roots) == 2
    assert est.p == pytest.approx((-7.0 + math.sqrt(89.0)) / 4.0, abs=1e-12)


def test_balanced_p_battle_of_sexes():
    est = balanced_p(PayoffTable2(3, 0, 0, 2))
    assert est.class_used.tag is GameTag.BATTLE_OF_SEXES
    assert est.p == pytest.approx(SQRT6 - 2.0, abs=1e-12)


def test_balanced_p_stag_hunt():
    # ratio (b-c)/(a-d) >= 1/2: full cooperation
    assert balanced_p(PayoffTable2(2, 3, 1, 0)).p == 1.0
    # ratio below 1/2: the interior root
    est = balanced_p(PayoffTable2(10, 11, 1, -30))
    assert est.p == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_balanced_p_translators_always_defect():
    est = balanced_p(PayoffTable2(5, 3, 4, 1))
    assert est.class_used.tag is GameTag.TRANSLATORS
    assert est.p == 0.0


def test_balanced_p_rejects_unclassified():
    with pytest.raises(UnsupportedClassError):
        balanced_p(PayoffTable2(1, 2, 3, 4))


# ------------------------------------------------- batch form of balanced_p


def _bits(values):
    """float64 bit patterns, so that the sign of zero counts too."""
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def test_balanced_p_batch_is_bitwise_the_scalar_path():
    rng = np.random.default_rng(0)
    draws = np.concatenate(
        (
            rng.uniform(-50.0, 50.0, (20_000, 4)),
            rng.integers(0, 10, (20_000, 4)).astype(float),
            sample_near_linear_tables(2_000, seed=1),  # BattleOfSexes has k > 0 otherwise
            # a dilemma whose p changes when (b - d) ** 2, which is libm pow,
            # is taken as (b - d) * (b - d)
            [(-1.9657613724032075, -10.8602948087441, -27.733598811195282, -42.98531837610899)],
        )
    )
    rows = [r for r in draws.tolist() if classify2(PayoffTable2(*r)).tag is not GameTag.UNCLASSIFIED]
    ests = [balanced_p(PayoffTable2(*r)) for r in rows]
    got = _balanced_p_batch(*np.array(rows).T)
    assert np.array_equal(_bits(got), _bits([e.p for e in ests]))
    tags = {e.class_used.tag for e in ests}
    assert tags == set(GameTag) - {GameTag.UNCLASSIFIED}
    # k = a - b + c - d > 0 on every BattleOfSexes table, so it never drops to linear
    linear = {e.class_used.tag for e in ests if len(e.roots) == 1}
    assert {GameTag.PRISONERS_DILEMMA, GameTag.CHICKEN} <= linear


@pytest.mark.parametrize(
    "refused, error",
    [
        ((1.0, 2.0, 3.0, 4.0), UnsupportedClassError),
        ((math.inf, 8.0, 5.0, 2.0), InvalidTableError),  # classifies as a dilemma
        ((1e308, 0.0, -1e308, -1.0), DomainError),  # the payoff scale overflows
        ((1e308, 5e307, -5e307, -1e308), DomainError),  # the same, though k = 0 gives p = 2/3
        ((0.0, 1e308, -1e308, 5.0), DomainError),  # the same, refused before its class
    ],
)
def test_balanced_p_batch_raises_the_scalar_error_of_the_first_refused_row(refused, error):
    with pytest.raises(error):
        balanced_p(PayoffTable2(*refused))
    rows = np.array([(9.0, 8.0, 5.0, 2.0), refused, (1.0, 2.0, 3.0, 5.0)])
    with pytest.raises(error, match=r"^row 1: "):
        _balanced_p_batch(*rows.T)


@pytest.mark.parametrize(
    "values, what",
    [
        ((1e308, 0.0, -1e308, -1.0), "payoff scale"),
        ((1e308, 5e307, -5e307, -1e308), "payoff scale"),
        ((0.0, 1e308, -1e308, 5.0), "payoff scale"),  # Unclassified too: the scale is refused first
    ],
)
def test_balanced_p_names_the_float64_overflow(values, what):
    with pytest.raises(DomainError, match=f"^{what} .*overflows float64"):
        balanced_p(PayoffTable2(*values))


def test_eps_root_does_not_widen_the_unit_interval():
    # the balance polynomial is negative at 0 and positive at 1, so its one
    # root in [0, 1] wins; the root at -9.906 never counts, and no tolerance
    # enters the 2x2 rule to widen [0, 1] towards it
    chicken = (14.0, -1.0, -16.0, -5.0)
    rows = np.array([(9, 8, 5, 2), chicken])
    assert balanced_p(PayoffTable2(*chicken)).p == 0.6561575435694019
    assert _balanced_p_batch(*rows.T).tolist() == [balanced_p(PayoffTable2(*row)).p for row in rows.tolist()]


def test_a_dilemma_past_the_square_of_its_gaps_is_answered():
    # (b - d)^2 overflows float64 here; the degree-2 rule never forms it
    table = (1e300, 1e200, 0.0, -1e200)
    est = balanced_p(PayoffTable2(*table))
    assert est.p == pytest.approx(9.9999999999999996e-51, rel=1e-15)
    assert all(math.isfinite(r) for r in est.roots)
    rows = np.array([(9.0, 8.0, 5.0, 2.0), table])
    assert _balanced_p_batch(*rows.T)[1] == est.p


def test_balanced_p_batch_rescales_a_wide_or_tiny_row_among_others_as_the_scalar_path():
    # one table of each class; the 1/8 payoff scaling and the power-of-two
    # rescale of the weights run only where some row needs them, and would
    # change no bit elsewhere
    plain = [(9.0, 8.0, 5.0, 2.0), (14.0, -1.0, -16.0, -5.0), (8.0, 9.0, 5.0, 2.0), (9.0, 2.0, 3.0, 5.0)]
    plain.append((9.0, 3.0, 5.0, 2.0))
    tiny = [tuple(v * 2.0**-1000 for v in row) for row in plain]  # weights below 2^-300
    wide = [tuple(v * 2.0**1019 for v in row) for row in plain]  # payoff scales above 2^1020
    for rows in (plain, tiny, wide, plain + tiny + wide, [plain[0], wide[1]]):
        want = [balanced_p(PayoffTable2(*row)).p for row in rows]
        assert np.array_equal(_bits(_balanced_p_batch(*np.array(rows).T)), _bits(want))


# signed zeros, subnormals, +-1..3 and +-1e307, +-1.7e308
EXTREME_GRID = [
    0.0, -0.0, 5e-324, -5e-324, 1e-320, -1e-320, 1e-310, -1e-310, 2.2250738585072009e-308,
    1.0, -1.0, 2.0, -2.0, 3.0, -3.0, 1e307, -1e307, 1.7e308, -1.7e308,
]


def test_a_root_past_float64_is_an_infinity_and_the_batch_agrees_row_by_row():
    # on 65 of these dilemmas, such as (0, -5e-324, -1e307, -1e307), the
    # rescale of the balance quadratic flushed its subnormal leading
    # coefficient to 0, and balanced_p divided by it
    rows, ps, infinite = [], [], []
    for values in itertools.product(EXTREME_GRID, repeat=4):
        try:
            est = balanced_p(PayoffTable2(*values))
        except CooprobError:
            continue
        rows.append(values)
        ps.append(est.p)
        if not all(math.isfinite(r) for r in est.roots):
            infinite.append((values, est))
    assert np.array_equal(_bits(_balanced_p_batch(*np.array(rows).T)), _bits(ps))
    assert len(infinite) == 146
    for values, est in infinite:
        assert est.p in est.roots
        one = _balanced_p_batch(*values)  # plain floats are one row
        assert one.shape == (1,) and _bits(one) == _bits([est.p])
    est = balanced_p(PayoffTable2(0.0, -5e-324, -1e307, -1e307))
    assert (est.p, est.roots) == (1.0, (-math.inf, 1.0))


# -------------------------------------------------------------- baselines


def test_maximin_interior():
    res = maximin_p(PayoffTable2(3, 0, 0, 2))
    assert res.defined
    assert res.value == pytest.approx(0.4, abs=1e-15)
    assert res.estimate.p == pytest.approx(0.4, abs=1e-15)
    assert res.estimate.method == "maximin"


def test_maximin_outside_unit_interval_is_undefined():
    res = maximin_p(PayoffTable2(100, 51, 50, 0))
    assert res.value == pytest.approx(50.0)
    assert not res.defined
    assert res.estimate is None


def test_maximin_degenerate_denominator():
    # (c - d) = (a - b) makes the mixing equation vanish
    res = maximin_p(PayoffTable2(3, 2, 1, 0))
    assert res.degenerate
    assert not res.defined


def test_maximin_alt_variant():
    assert maximin_alt_p(PayoffTable2(3, 0, 0, 2)) == pytest.approx(0.6, abs=1e-15)
    # the two printed forms genuinely disagree away from symmetric cases
    assert maximin_alt_p(PayoffTable2(100, 51, 50, 0)) == pytest.approx(-50.0)
    assert maximin_alt_p(PayoffTable2(3, 2, 1, 0)) is None


def test_payoff_max():
    est = payoff_max_p(PayoffTable2(10, 4, 1, 0))
    assert est.method == "payoff-max"
    assert est.p == pytest.approx(0.8, abs=1e-15)
    # outside the interior-optimum conditions the maximizer sits at p = 1
    assert payoff_max_p(PayoffTable2(100, 51, 50, 0)).p == 1.0
    assert payoff_max_p(PayoffTable2(101, 100, 1, 0)).p == 1.0
    # Translators: the critical point falls outside (0, 1) and mutual
    # defection (c) pays more than mutual cooperation (b)
    assert payoff_max_p(PayoffTable2(10, 3, 7, 1)).p == 0.0
    assert payoff_max_p(PayoffTable2(10, 5, 7, 1)).p == 0.0


def test_best_response_threshold_and_play():
    # dominant defection: threshold above 1 can never be crossed
    table = PayoffTable2(100, 51, 50, 0)
    for p2 in (0.0, 0.5, 1.0):
        assert best_response(table, p2) is Response.DEFECT

    chicken = PayoffTable2(4, 3, 0, 1)
    th = best_response_threshold(chicken)
    assert th.theta == pytest.approx(0.5, abs=1e-15)
    assert not th.flat_everywhere
    assert best_response(chicken, 0.3) is Response.COOPERATE
    assert best_response(chicken, 0.5) is Response.FLAT
    assert best_response(chicken, 0.7) is Response.DEFECT


def test_best_response_zero_denominator():
    # (c - d) = (a - b): payoff difference no longer depends on the opponent
    th = best_response_threshold(PayoffTable2(101, 100, 1, 0))
    assert th.theta is None
    assert best_response(PayoffTable2(101, 100, 1, 0), 0.5) is Response.DEFECT
    flat = best_response_threshold(PayoffTable2(2, 2, 1, 1))
    assert flat.theta is None
    assert flat.flat_everywhere
    assert best_response(PayoffTable2(2, 2, 1, 1), 0.5) is Response.FLAT


def test_best_response_rejects_bad_p2():
    with pytest.raises(DomainError):
        best_response(PayoffTable2(9, 8, 5, 2), 1.5)


# ------------------------------------------------------------ phi and chi


def test_phi_chi_dilemma_values():
    t = PayoffTable2(9, 8, 5, 2)
    w = phi_chi(t, 0.5)
    assert w.phi == pytest.approx(3.0)
    assert w.chi == pytest.approx(2.0)
    assert w.total == pytest.approx(5.0)


def test_phi_chi_class_specific_shapes():
    stag = PayoffTable2(2, 3, 1, 0)
    w = phi_chi(stag, 1.0)
    assert w.chi == 0.0  # no defectors left to beat
    trans = PayoffTable2(5, 3, 4, 1)
    w = phi_chi(trans, 0.25)
    assert w.phi == 0.0  # cooperation never pays in this ordering
    assert w.chi > 0.0


def test_phi_chi_validates_inputs():
    t = PayoffTable2(9, 8, 5, 2)
    with pytest.raises(DomainError):
        phi_chi(t, 1.25)
    with pytest.raises(UnsupportedClassError):
        bad = PayoffTable2(1, 2, 3, 4)
        phi_chi(bad, 0.5)


# -------------------------------------------------- equiprobability and mu


def test_equiprobability_sign_matches_estimate():
    lean_coop = equiprobability(PayoffTable2(9, 8, 5, 2))
    assert lean_coop.gap == pytest.approx(2.0)
    assert lean_coop.verdict is Leaning.COOPERATION
    assert balanced_p(PayoffTable2(9, 8, 5, 2)).p > 0.5

    lean_defect = equiprobability(PayoffTable2(100, 51, 50, 0))
    assert lean_defect.gap == pytest.approx(-97.0)
    assert lean_defect.verdict is Leaning.DEFECTION
    assert balanced_p(PayoffTable2(100, 51, 50, 0)).p < 0.5


def test_equiprobability_balanced_table_hits_half():
    # 3 (b - c) = (a - d) forces p = 1/2 exactly
    t = PayoffTable2(7, 3, 1, 1)
    rep = equiprobability(t)
    assert rep.gap == 0.0
    assert rep.verdict is Leaning.BALANCED
    assert balanced_p(t).p == pytest.approx(0.5, abs=1e-15)


def test_expected_payoff2():
    t = PayoffTable2(9, 8, 5, 2)
    p = balanced_p(t).p
    mu = expected_payoff2(t, p)
    assert mu == pytest.approx(6.437822173508929, abs=1e-12)
    # at the corners the payoff is the pure outcome
    assert expected_payoff2(t, 1.0) == 8.0
    assert expected_payoff2(t, 0.0) == 5.0
    with pytest.raises(DomainError):
        expected_payoff2(t, -0.1)
