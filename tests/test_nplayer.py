"""Three-player cubic, asymmetric coupling, and n-player ladders."""

import math

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from cooprob import (
    AsymmetricTable2,
    DegenerateWeightsError,
    DomainError,
    GameTag,
    Leaning,
    NoValidRootError,
    PayoffTable2,
    PayoffTable3,
    UnsupportedClassError,
    balanced_p,
    balanced_p3,
    balanced_p_asym,
    balanced_pn,
    cubic_coefficients,
    equiprobability3,
    expected_payoff3,
    iterate_asym,
    nplayer,
    psi_omega_coeffs,
)

SQRT3 = math.sqrt(3.0)


# ------------------------------------------------------------ three-player


@pytest.mark.parametrize(
    "table, coeffs",
    [
        ((10, 8, 7, 5, 4, 2), (0.0, 0.0, 3.0, -1.0)),
        ((9, 8, 7, 6, 3, 2), (0.0, -2.0, 6.0, -3.0)),
        ((10, 4, 1, -2, -2, -4), (2.0, 5.0, -1.0, 0.0)),
        ((13, 8, 7, 6, 3, 2), (4.0, -2.0, 6.0, -3.0)),
    ],
)
def test_cubic_coefficients(table, coeffs):
    assert cubic_coefficients(PayoffTable3(*table)).as_tuple() == coeffs


def test_balanced_p3_linear_degeneration():
    est = balanced_p3(PayoffTable3(10, 8, 7, 5, 4, 2))
    assert est.p == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert est.degenerate_branch  # cubic collapsed below degree 3
    mu = expected_payoff3(PayoffTable3(10, 8, 7, 5, 4, 2), est.p)
    assert mu == pytest.approx(16.0 / 3.0, abs=1e-12)


def test_balanced_p3_quadratic_degeneration():
    est = balanced_p3(PayoffTable3(9, 8, 7, 6, 3, 2))
    assert est.p == pytest.approx((3.0 - SQRT3) / 2.0, abs=1e-12)
    assert est.degenerate_branch


def test_balanced_p3_full_cubic_picks_attracting_root():
    # the cubic has roots {0, (-5 - sqrt(33))/4, (-5 + sqrt(33))/4}; zero is
    # a genuine balance root but repels the iteration, so it must lose
    est = balanced_p3(PayoffTable3(10, 4, 1, -2, -2, -4))
    assert est.p == pytest.approx((-5.0 + math.sqrt(33.0)) / 4.0, abs=1e-12)
    assert not est.degenerate_branch
    assert 0.0 in est.roots
    assert est.class_used.boundary_flags == frozenset({"j=k"})


def test_balanced_p3_gap_zero_table_gives_half():
    est = balanced_p3(PayoffTable3(13, 8, 7, 6, 3, 2))
    assert est.p == pytest.approx(0.5, abs=1e-12)
    assert equiprobability3(PayoffTable3(13, 8, 7, 6, 3, 2)).gap == 0.0


def test_balanced_p3_rejects_broken_chain():
    with pytest.raises(UnsupportedClassError):
        balanced_p3(PayoffTable3(1, 2, 3, 4, 5, 6))


def test_balanced_p3_identically_zero_polynomial():
    with pytest.raises(DegenerateWeightsError):
        balanced_p3(PayoffTable3(1, 1, 1, 1, 1, 1))


@pytest.mark.parametrize(
    "table, gap, verdict",
    [
        ((10, 8, 7, 5, 4, 2), -4.0, Leaning.DEFECTION),
        ((13, 8, 7, 6, 3, 2), 0.0, Leaning.BALANCED),
        ((9, 8, 7, 6, 3, 2), 4.0, Leaning.COOPERATION),
    ],
)
def test_equiprobability3(table, gap, verdict):
    rep = equiprobability3(PayoffTable3(*table))
    assert rep.gap == pytest.approx(gap)
    assert rep.verdict is verdict


def test_expected_payoff3_corners_and_domain():
    t = PayoffTable3(10, 8, 7, 5, 4, 2)
    assert expected_payoff3(t, 1.0) == 8.0  # everyone cooperates: g
    assert expected_payoff3(t, 0.0) == 4.0  # everyone defects: k
    with pytest.raises(DomainError):
        expected_payoff3(t, 1.1)


# -------------------------------------------------------------- asymmetric


def test_asym_reduces_to_symmetric():
    sym = balanced_p(PayoffTable2(9, 8, 5, 2)).p
    ex, ey = balanced_p_asym(AsymmetricTable2(9, 8, 5, 2, 9, 8, 5, 2))
    assert ex.p == pytest.approx(sym, abs=1e-12)
    assert ey.p == pytest.approx(sym, abs=1e-12)


def test_asym_mixed_sides_frozen_pair():
    ex, ey = balanced_p_asym(AsymmetricTable2(10, 7, 5, 1, 9, 8, 5, 2))
    assert ex.p == pytest.approx(0.36832267997260637, abs=1e-9)
    assert ey.p == pytest.approx(0.5699786932785461, abs=1e-9)


def test_asym_solution_satisfies_both_balance_equations():
    ax, bx, cx, dx = 10.0, 7.0, 5.0, 1.0
    ay, by, cy, dy = 9.0, 8.0, 5.0, 2.0
    ex, ey = balanced_p_asym(AsymmetricTable2(ax, bx, cx, dx, ay, by, cy, dy))
    px, py = ex.p, ey.p
    rx = px * (py * (ax - bx - cx + dx) + (bx - dx)) - (bx - cx)
    ry = py * (px * (ay - by - cy + dy) + (by - dy)) - (by - cy)
    assert abs(rx) < 1e-9
    assert abs(ry) < 1e-9


def test_asym_agrees_with_alternating_iteration():
    table = AsymmetricTable2(12, 9, 4, 1, 11, 8, 6, 2)
    ex, ey = balanced_p_asym(table)
    ox, oy = iterate_asym(table).limit
    assert ex.p == pytest.approx(ox, abs=1e-9)
    assert ey.p == pytest.approx(oy, abs=1e-9)


def test_asym_degenerate_sides():
    # both sides have a - b - c + d = 0: side quadratics drop to linear
    ex, ey = balanced_p_asym(AsymmetricTable2(101, 100, 1, 0, 101, 100, 1, 0))
    assert ex.p == pytest.approx(0.99, abs=1e-12)
    assert ey.p == pytest.approx(0.99, abs=1e-12)


def test_asym_requires_dilemma_sides():
    with pytest.raises(UnsupportedClassError):
        balanced_p_asym(AsymmetricTable2(4, 3, 0, 1, 9, 8, 5, 2))


# ----------------------------------------------------------------- ladders


def test_psi_omega_base_case_matches_two_player_weights():
    a, b, c, d = 9.0, 8.0, 5.0, 2.0
    psi, omega = psi_omega_coeffs([a, b, c, d])
    assert psi.tolist() == [b - c]
    assert omega.tolist() == [c - d, (a - b) - (c - d)]


def test_psi_omega_three_player_matches_direct_weights():
    f, g, h, j, k, m = 10.0, 8.0, 7.0, 5.0, 4.0, 2.0
    psi, omega = psi_omega_coeffs([f, g, h, j, k, m])
    # psi = p (g - h) + q (j - k); omega = p^2 (f - g) + 2pq (h - j) + q^2 (k - m)
    assert npoly.polyval(0.3, psi) == pytest.approx(0.3 * (g - h) + 0.7 * (j - k))
    assert npoly.polyval(0.3, omega) == pytest.approx(
        0.09 * (f - g) + 2 * 0.3 * 0.7 * (h - j) + 0.49 * (k - m)
    )


def test_balanced_pn_reduces_to_smaller_solvers():
    p2 = balanced_pn([9, 8, 5, 2])
    assert p2.p == pytest.approx(balanced_p(PayoffTable2(9, 8, 5, 2)).p, abs=1e-12)
    p3 = balanced_pn([10, 8, 7, 5, 4, 2])
    assert p3.p == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_balanced_pn_four_player_ladder():
    # strictly decreasing 8-rung ladder; answer cross-checked by iteration
    ladder = [12.0, 10.0, 8.5, 7.0, 5.0, 3.5, 2.0, 0.5]
    est = balanced_pn(ladder)
    assert 0.0 <= est.p <= 1.0
    psi, omega = psi_omega_coeffs(ladder)
    resid = est.p * (npoly.polyval(est.p, psi) + npoly.polyval(est.p, omega)) - npoly.polyval(
        est.p, psi
    )
    assert abs(resid) < 1e-10


def test_balanced_pn_validates_ladder():
    with pytest.raises(DomainError):
        balanced_pn([3, 2, 1])  # odd length
    with pytest.raises(DomainError):
        balanced_pn([3, 2])  # too short
    with pytest.raises(DomainError):
        balanced_pn([3, 2, 2, 1])  # not strictly decreasing
    with pytest.raises(DomainError):
        balanced_pn([9, 8, 5, 2], n=3)  # length does not match n


def test_balanced_pn_strict_ladder_always_brackets_a_root():
    # the balance function is negative at 0 and positive at 1 for every
    # strict ladder, so the solver never needs a fallback here
    est = balanced_pn([4.0, 3.0, 2.0, 1.0])
    assert 0.0 < est.p < 1.0


# one balance root in [0, 1], with map slope -1.27: iteration from 0.5
# falls into a 2-cycle around it and never converges
LONE_REPELLING = (95, 68, 67, 66, 10, 9)


def test_lone_repelling_root_is_returned_without_the_oracle(monkeypatch):
    def no_oracle(*args, **kwargs):
        raise AssertionError("the oracle ran on a single-root table")

    monkeypatch.setattr(nplayer, "iterate3", no_oracle)
    monkeypatch.setattr(nplayer, "_fixed_point", no_oracle)
    p3 = balanced_p3(PayoffTable3(*LONE_REPELLING)).p
    assert p3 == pytest.approx(0.6404385792148, abs=1e-12)
    assert balanced_pn(list(LONE_REPELLING)).p == pytest.approx(p3, abs=1e-12)


def test_balanced_pn_iteration_overrides_the_bracketed_root():
    # three roots in [0, 1]: the bracketed search lands on 0.9959, while
    # iteration from 0.5 settles on 0.0358, which wins
    est = balanced_pn([12.73, 12.72, 10.23, 10.22, 9.47, 6.81, 6.69, 1.98])
    assert len([r for r in est.roots if 0.0 <= r <= 1.0]) == 3
    assert est.p == pytest.approx(0.035771375209147, abs=1e-12)
