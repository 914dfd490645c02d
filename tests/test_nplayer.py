"""Three-player cubic, asymmetric coupling, and n-player ladders."""

import functools
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from conftest import sample_integer_chains

from cooprob import (
    AmbiguousRootError,
    AsymmetricTable2,
    CooprobError,
    DegenerateWeightsError,
    DinerSpec,
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
    diner_ladder,
    equiprobability3,
    expected_payoff3,
    iterate_asym,
    iteration,
    nplayer,
)
from cooprob.nplayer import psi_omega_coeffs

SQRT3 = math.sqrt(3.0)
ROOT = Path(__file__).resolve().parent.parent


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
    assert est.roots == (est.p,)  # the cubic collapsed to 3 p - 1
    mu = expected_payoff3(PayoffTable3(10, 8, 7, 5, 4, 2), est.p)
    assert mu == pytest.approx(16.0 / 3.0, abs=1e-12)


def test_balanced_p3_quadratic_degeneration():
    est = balanced_p3(PayoffTable3(9, 8, 7, 6, 3, 2))
    assert est.p == pytest.approx((3.0 - SQRT3) / 2.0, abs=1e-12)
    assert est.roots == (est.p,)  # the other root, (3 + sqrt(3)) / 2, lies past 1


def test_balanced_p3_full_cubic_picks_attracting_root():
    # the cubic has roots {0, (-5 - sqrt(33))/4, (-5 + sqrt(33))/4}; zero is
    # a genuine balance root but repels the iteration, so it must lose
    est = balanced_p3(PayoffTable3(10, 4, 1, -2, -2, -4))
    assert est.p == pytest.approx((-5.0 + math.sqrt(33.0)) / 4.0, abs=1e-12)
    assert est.roots == (0.0, est.p)
    assert est.class_used.boundary_flags == frozenset({"j=k"})


def test_balanced_p3_gap_zero_table_gives_half():
    est = balanced_p3(PayoffTable3(13, 8, 7, 6, 3, 2))
    assert est.p == pytest.approx(0.5, abs=1e-12)
    assert equiprobability3(PayoffTable3(13, 8, 7, 6, 3, 2)).gap == 0.0


@pytest.mark.parametrize(
    "table, p",
    [
        ((6, 5, 3, 2, 2, 0), 0.0),  # h = p^3
        ((9, 4, 3, 2, 2, 2), (math.sqrt(21.0) - 1.0) / (math.sqrt(21.0) + 9.0)),  # factor p
        ((6, 6, 4, 3, 2, 1), 1.0),  # h = -(1 + p) q^2
        ((7, 7, 7, 6, 5, 1), (math.sqrt(17.0) - 3.0) / (math.sqrt(17.0) + 1.0)),  # factor q
        ((8, 7, 7, 6, 6, 0), 0.0),  # psi = 0
    ],
)
def test_balanced_p3_on_tied_tables(table, p):
    # ties put a common factor p or q into psi and omega, or roots at 0 and 1
    est = balanced_p3(PayoffTable3(*table))
    assert est.p == pytest.approx(p, abs=1e-14)
    if p in (0.0, 1.0):
        assert est.p == p


def test_balanced_p3_returns_fixed_points_of_the_extended_map():
    mp = pytest.importorskip("mpmath")
    returned = 0
    for chain in sample_integer_chains(500, seed=11):
        try:
            p = balanced_p3(PayoffTable3(*chain)).p
        except AmbiguousRootError:
            continue
        returned += 1
        with mp.workdps(40):
            f, g, h, j, k, m = (mp.mpf(v) for v in chain)

            def weights(x):
                q = 1 - x
                return x * (g - h) + q * (j - k), x * x * (f - g) + 2 * x * q * (h - j) + q * q * (k - m)

            x = mp.mpf(p)
            if sum(weights(x)) == 0:
                # a common factor p or q: the map's continuous extension
                x += mp.mpf("1e-30") if p == 0.0 else -mp.mpf("1e-30")
            psi, omega = weights(x)
            assert abs(psi / (psi + omega) - p) < 1e-8, (chain, p)
    assert returned > 450


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


@functools.cache
def _two_sided_draws() -> tuple[AsymmetricTable2, ...]:
    """2000 tables whose sides are sorted uniform(0, 10) draws, then 2000
    dilemma tables whose sides are sorted integers 0..9, ties kept."""
    rng = np.random.default_rng(4)
    sides = [np.sort(rng.uniform(0, 10, 4))[::-1].tolist() for _ in range(4000)]
    tables = [AsymmetricTable2(*x, *y) for x, y in zip(sides[::2], sides[1::2])]
    rng = np.random.default_rng(6)
    while len(tables) < 4000:
        x, y = (np.sort(rng.integers(0, 10, 4))[::-1].astype(float).tolist() for _ in range(2))
        if x[0] > x[1] > x[2] and y[0] > y[1] > y[2]:
            tables.append(AsymmetricTable2(*x, *y))
    return tuple(tables)


def test_asym_matches_the_alternating_iteration_on_random_tables():
    for table in _two_sided_draws():
        ex, ey = balanced_p_asym(table)
        trace = iterate_asym(table)
        assert trace.converged
        assert ex.p == pytest.approx(trace.limit[0], abs=1e-9)
        assert ey.p == pytest.approx(trace.limit[1], abs=1e-9)
        ax, bx, cx, dx = table.side_x().values()
        ay, by, cy, dy = table.side_y().values()
        scale = max(ax, ay) - min(dx, dy)
        assert abs(ex.p * (ey.p * (ax - bx - cx + dx) + bx - dx) - (bx - cx)) <= 1e-12 * scale
        assert abs(ey.p * (ex.p * (ay - by - cy + dy) + by - dy) - (by - cy)) <= 1e-12 * scale


def test_asym_reports_the_roots_in_the_unit_interval_of_each_side_quadratic():
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        # every fourth draw: the 40-digit root finder takes about 1 ms a quadratic
        for table in _two_sided_draws()[::4]:
            x, y = table.side_x().values(), table.side_y().values()
            for est, (a, b, c, d), (a2, b2, c2, d2) in zip(balanced_p_asym(table), (x, y), (y, x)):
                a, b, c, d, a2, b2, c2, d2 = map(mp.mpf, (a, b, c, d, a2, b2, c2, d2))
                k, k2 = a - b - c + d, a2 - b2 - c2 + d2
                quad = [(b - d) * k2, k * (b2 - c2) - k2 * (b - c) + (b - d) * (b2 - d2), -(b - c) * (b2 - d2)]
                if k2 == 0:
                    quad.pop(0)
                roots = mp.polyroots(quad, maxsteps=50, extraprec=30)
                want = sorted(mp.re(r) for r in roots if abs(mp.im(r)) <= 1e-30 and -1e-30 <= mp.re(r) <= 1 + 1e-30)
                assert len(est.roots) == len(want)
                assert list(est.roots) == sorted(est.roots)
                for got, ref in zip(est.roots, want):
                    assert abs(got - ref) <= 1e-12 * abs(ref)


def test_asym_runs_no_oracle(monkeypatch):
    def no_oracle(*args, **kwargs):
        raise AssertionError("the fixed-point oracle ran")

    monkeypatch.setattr(iteration, "_fixed_point", no_oracle)
    monkeypatch.setattr(nplayer, "_orbit_root", no_oracle)
    for table in _two_sided_draws():
        ex, ey = balanced_p_asym(table)
        assert 0.0 < ex.p < 1.0 and 0.0 < ey.p < 1.0


def test_asym_of_a_tiny_cooperation_gain_keeps_its_side_roots():
    # b - c = 2^-126: every side coefficient is below 1e-12 of the payoff
    # scale, which once dropped them all
    t = (1.0, 2.0**-126, 0.0, 0.0)
    sym = balanced_p(PayoffTable2(*t))
    for est in balanced_p_asym(AsymmetricTable2(*t, *t)):
        assert est.p == pytest.approx(sym.p, abs=1e-15)
        assert est.roots == pytest.approx([r for r in sym.roots if 0.0 <= r <= 1.0], rel=1e-15)


def test_asym_refuses_a_payoff_scale_past_float64():
    with pytest.raises(DomainError, match="^payoff scale inf .*overflows float64"):
        balanced_p_asym(AsymmetricTable2(1e308, 0, -1e308, -1.7e308, 9, 8, 5, 2))


def test_asym_products_of_gaps_stay_in_float64_range():
    # unscaled, the products of gaps overflow: F_y (b_x - d_x) = 4e599 here,
    # and the side-x quadratic's leading coefficient (b_x - d_x) K_y = 1e400 below
    ex, ey = balanced_p_asym(AsymmetricTable2(1e300, 5e299, 1e299, 0, 1e300, 5e299, 1e299, 0))
    assert ex.p == ey.p == pytest.approx(balanced_p(PayoffTable2(10, 5, 1, 0)).p, abs=1e-15)
    table = AsymmetricTable2(4, 3, 2, -1e200, 1e200, 3, 2, 1)
    ex, ey = balanced_p_asym(table)
    ox, oy = iterate_asym(table).limit
    assert ex.p == pytest.approx(ox, abs=1e-15) and ey.p == pytest.approx(oy, abs=1e-12)
    # side y: -2e200 p^2 + 4e200 p - 1e200, roots 1 -+ sqrt(1/2), the second past 1
    assert ey.roots == pytest.approx((1 - math.sqrt(0.5),), rel=1e-15)
    # gaps from 1e-198 to 1e294: scaled with the payoffs, the small ones underflowed
    # and p_y read 0.0; a 60-digit mpmath solve gives p_x = 1 and this p_y
    ex, ey = balanced_p_asym(AsymmetricTable2(2.67e198, 3, -3.79e-198, -6.81e-127, 8.70e293, 2, -2, -1.98e106))
    assert ex.p == 1.0 and ey.p == pytest.approx(4.5977011494252872e-294, rel=1e-15)


def test_balanced_p3_refuses_float64_overflow():
    with pytest.raises(DomainError, match="^balance weights overflow float64"):
        balanced_p3(PayoffTable3(1.7e308, 1e308, 0, -1e308, -1.5e308, -1.7e308))


def test_cubic_coefficients_refuse_float64_overflow():
    # finite ladder weights, but 2 h and 2 j in the cubic overflow; the
    # ladder form answers the table (mpmath: 0.79440746598132823)
    table = PayoffTable3(1e308, 0.95e308, 0.95e308, 0.9e308, 0, 0)
    with pytest.raises(DomainError, match="^balance polynomial coefficients overflow float64"):
        cubic_coefficients(table)
    assert balanced_p3(table).p == pytest.approx(0.79440746598132823, rel=1e-15)


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

    monkeypatch.setattr(nplayer, "_orbit_root", no_oracle)
    p3 = balanced_p3(PayoffTable3(*LONE_REPELLING)).p
    assert p3 == pytest.approx(0.6404385792148, abs=1e-12)
    assert balanced_pn(list(LONE_REPELLING)).p == pytest.approx(p3, abs=1e-12)


def test_balanced_pn_iteration_overrides_the_bracketed_root():
    # three roots in [0, 1]: the bracketed search lands on 0.9959, while
    # iteration from 0.5 settles on 0.0358, which wins
    est = balanced_pn([12.73, 12.72, 10.23, 10.22, 9.47, 6.81, 6.69, 1.98])
    assert len([r for r in est.roots if 0.0 <= r <= 1.0]) == 3
    assert est.p == pytest.approx(0.035771375209147, abs=1e-12)


# ------------------------------------------------------------ ladder core


def _ladder(rng, n):
    return np.cumsum(rng.exponential(1.0, 2 * n))[::-1].tolist()


def _recursive_psi_omega(ladder):
    """The ladder recursion p * upper + q * lower on coefficient arrays,
    memoized on the sub-ladder's offset and player count."""
    vals = [float(v) for v in ladder]

    @functools.lru_cache(maxsize=None)
    def rec(start, players):
        if players == 2:
            d1, c0, d2, c1 = vals[start:start + 4]
            return np.array([c0 - d2]), np.array([d2 - c1, (d1 - c0) - (d2 - c1)])
        upper, lower = rec(start, players - 1), rec(start + 2, players - 1)
        return tuple(
            npoly.polyadd(npoly.polysub(npoly.polymulx(u), npoly.polymulx(lo)), lo)
            for u, lo in zip(upper, lower)
        )

    return rec(0, len(vals) // 2)


@pytest.mark.parametrize("n", range(2, 13))
def test_psi_omega_closed_form_matches_the_recursion(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(20):
        ladder = _ladder(rng, n)
        for got, want in zip(psi_omega_coeffs(ladder), _recursive_psi_omega(ladder)):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_brentq_port_is_bitwise_scipy():
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(7)
    for _ in range(200):
        psi, omega = psi_omega_coeffs(_ladder(rng, int(rng.integers(2, 9))))
        bal = npoly.polysub(npoly.polymulx(npoly.polyadd(psi, omega)), psi)

        def h(p):
            return float(npoly.polyval(p, bal))

        ours = nplayer.brentq(h, 0.0, 1.0, xtol=1e-15, rtol=8.9e-16)
        theirs = optimize.brentq(h, 0.0, 1.0, xtol=1e-15, rtol=8.9e-16)
        assert ours.hex() == float(theirs).hex()


@pytest.mark.parametrize("scale", [1e-300, 1e-310])
@pytest.mark.parametrize("root", [1e-3, 0.3, 0.999])
def test_brentq_port_is_bitwise_scipy_where_its_divisors_underflow(scale, root):
    # the extrapolation divisor is a product of three differences of f values,
    # which underflows to 0 here; scipy's C code then takes inf or nan and bisects
    optimize = pytest.importorskip("scipy.optimize")

    def f(x):
        return scale * (x - root) * (1.0 + x * x)

    ours = nplayer.brentq(f, 0.0, 1.0, xtol=1e-15, rtol=8.9e-16)
    assert ours.hex() == float(optimize.brentq(f, 0.0, 1.0, xtol=1e-15, rtol=8.9e-16)).hex()


def test_brentq_port_failures_are_typed():
    with pytest.raises(NoValidRootError, match="does not change sign"):
        nplayer.brentq(lambda x: x + 2.0, 0.0, 1.0, xtol=1e-15, rtol=8.9e-16)
    # a step at 0 inside [-1e300, 1e300] needs ~2000 bisections to meet
    # xtol = 5e-324, far past the 100-iteration cap
    with pytest.raises(NoValidRootError, match="did not converge"):
        nplayer.brentq(lambda x: -1.0 if x < 0 else 1.0, -1e300, 1e300, xtol=5e-324, rtol=8.9e-16)


@pytest.mark.parametrize("n", [60, 200])
def test_balanced_pn_on_long_diner_ladders_brackets_the_exact_root(n):
    mp = pytest.importorskip("mpmath")
    ladder = diner_ladder(DinerSpec(r=1.0 + 0.75 * n, s=0.375 * n + 1.5, u=0.375 * n + 0.5, w=1.0, n=n))
    p = balanced_pn(ladder).p

    def h(x):
        # psi and omega by the ladder recursion at one point, in 40 digits
        with mp.workdps(40):
            x = mp.mpf(x)
            q = 1 - x
            v = [mp.mpf(c) for c in ladder]
            psi = [v[i + 1] - v[i + 2] for i in range(0, 2 * n - 3, 2)]
            omega = [x * (v[i] - v[i + 1]) + q * (v[i + 2] - v[i + 3]) for i in range(0, 2 * n - 3, 2)]
            while len(psi) > 1:
                psi = [x * a + q * b for a, b in zip(psi, psi[1:])]
                omega = [x * a + q * b for a, b in zip(omega, omega[1:])]
            return x * omega[0] - q * psi[0]

    assert h(mp.mpf(p) - mp.mpf("1e-9")) < 0 < h(mp.mpf(p) + mp.mpf("1e-9"))


def test_trial_20_needs_no_oracle(monkeypatch):
    # trial 20 of a seeded draw of multi-root ladders (n = 10): roots near
    # 0.138, 0.523 and 0.9996 with map slopes -1.18, 2.25 and 5e-5; neither
    # rival can attract iteration, which from 0.5 falls into a 2-cycle and
    # used to run all 10^6 steps
    rng = np.random.default_rng(1)
    for _ in range(21):
        n = int(rng.integers(2, 13))
        ladder = np.cumsum(rng.exponential(1, 2 * n) * 10 ** rng.uniform(-3, 3, 2 * n))[::-1]

    def no_oracle(*args, **kwargs):
        raise AssertionError("the oracle ran although no rival root attracts")

    monkeypatch.setattr(nplayer, "_orbit_root", no_oracle)
    est = balanced_pn(ladder.tolist())
    assert len([r for r in est.roots if 0.0 <= r <= 1.0]) == 3
    assert est.p == pytest.approx(0.9996058448564662, abs=1e-12)


def _recursion_map(ladder, x):
    """psi / (psi + omega) at x by the ladder recursion p * upper + q * lower."""
    v, q = ladder, 1.0 - x
    psi = [v[i + 1] - v[i + 2] for i in range(0, len(v) - 3, 2)]
    omega = [x * (v[i] - v[i + 1]) + q * (v[i + 2] - v[i + 3]) for i in range(0, len(v) - 3, 2)]
    while len(psi) > 1:
        psi = [x * a + q * b for a, b in zip(psi, psi[1:])]
        omega = [x * a + q * b for a, b in zip(omega, omega[1:])]
    return psi[0] / (psi[0] + omega[0])


def _slope(ladder, r):
    return (_recursion_map(ladder, r + 1e-7) - _recursion_map(ladder, r - 1e-7)) / 2e-7


def _no_oracle(*args, **kwargs):
    raise AssertionError("the oracle ran")


def test_trial_29_returns_the_lone_attracting_root(monkeypatch):
    # trial 29 of the draw of test_trial_20_needs_no_oracle (n = 9): roots
    # near 0.0575, 0.5518 and 0.9296 with map slopes -1.68, 2.66 and -0.29;
    # iteration from 0.5 falls into a 2-cycle, and the attracting root wins
    rng = np.random.default_rng(1)
    for _ in range(30):
        n = int(rng.integers(2, 13))
        ladder = np.cumsum(rng.exponential(1, 2 * n) * 10 ** rng.uniform(-3, 3, 2 * n))[::-1]
    monkeypatch.setattr(nplayer, "_orbit_root", _no_oracle)
    est = balanced_pn(ladder.tolist())
    assert len(est.roots) == 3
    assert est.p == pytest.approx(0.92956197575641, abs=1e-12)


@pytest.mark.parametrize("n", [100, 600])
def test_long_random_ladders_need_no_oracle(monkeypatch, n):
    # n = 100 has three roots, of which only the first attracts; n = 600 has one
    ladder = np.cumsum(np.random.default_rng(0).exponential(1, 2 * n))[::-1].tolist()
    monkeypatch.setattr(nplayer, "_orbit_root", _no_oracle)
    est = balanced_pn(ladder)
    assert est.p == est.roots[0]
    assert [abs(_slope(ladder, r)) < 1.0 for r in est.roots] == [True] + [False] * (len(est.roots) - 1)
    assert _recursion_map(ladder, est.p - 1e-9) > est.p - 1e-9
    assert _recursion_map(ladder, est.p + 1e-9) < est.p + 1e-9


def test_thousand_player_ladder_fails_typed():
    # three roots near 0.457, 0.478 and 0.508, none attracting; the power
    # form of this ladder overflows float64
    ladder = np.cumsum(np.random.default_rng(3).exponential(1, 2000))[::-1].tolist()
    with pytest.raises(CooprobError) as info:
        balanced_pn(ladder)
    assert isinstance(info.value, AmbiguousRootError)
    assert len(info.value.candidates) == 3


# ten players, three roots with map slopes -1.36, 3.18 and -1.86
ALL_REPELLING = [944.67, 934.62, 934.45, 934.4, 934.25, 933.76, 536.3, 527.96, 527.94, 527.85,
                 527.71, 514.03, 514.02, 137.53, 127.91, 126.74, 27.72, 27.69, 25.71, 0.01]


def test_all_repelling_roots_raise_with_the_candidates(monkeypatch):
    monkeypatch.setattr(nplayer, "_orbit_root", _no_oracle)
    with pytest.raises(AmbiguousRootError) as info:
        balanced_pn(ALL_REPELLING)
    roots = info.value.candidates
    assert roots == pytest.approx([0.25138026028801, 0.54015886727085, 0.91216716201067], abs=1e-12)
    assert all(abs(_slope(ALL_REPELLING, r)) > 1.3 for r in roots)
    for r in roots:
        assert _recursion_map(ALL_REPELLING, r) == pytest.approx(r, abs=1e-12)


def _exact_power_form(beta):
    """Ascending power coefficients of sum_k C(m, k) b_k p^k q^(m - k), exactly."""
    m = len(beta) - 1
    return [
        sum(math.comb(m, k) * math.comb(m - k, r - k) * (-1) ** (r - k) * b for k, b in enumerate(beta[: r + 1]))
        for r in range(m + 1)
    ]


def _orbit_after(ladder, steps, bits=160):
    """Where the balance map's orbit from 1/2 is after ``steps`` steps, in
    ``bits``-bit fixed point (48 digits), with psi and omega in power form
    from the exact payoffs, scaled to integers by one denominator."""
    psi, omega = map(_exact_power_form, nplayer._ladder_bernstein([Fraction(v) for v in ladder]))
    den = math.lcm(*(c.denominator for c in psi + omega))
    one = 1 << bits
    psi, omega = ([int(c * den) * one for c in reversed(cs)] for cs in (psi, omega))

    def horner(cs, x):
        acc = 0
        for c in cs:
            acc = (acc * x >> bits) + c
        return acc

    x = one // 2
    for _ in range(steps):
        s, o = horner(psi, x), horner(omega, x)
        x = (s << bits) // (s + o)
    return Fraction(x, one)


# two attracting roots each, the one that iteration from 1/2 reaches with map
# slope -0.9998; a step tolerance of 1e-12 never stopped that orbit
SLOW_ATTRACTING = [
    ([128.64, 127.08, 126.4, 126.39, 56.08, 55.84, 47.0, 44.63, 43.84, 1.92, 1.9, 0.47], 0.9337273571569678),
    ([81.73, 76.95, 76.69, 76.65, 49.1, 48.58, 48.49, 48.42, 47.83, 38.15, 37.76, 0.27], 0.8364788542690764),
]


@pytest.mark.parametrize("ladder, p", SLOW_ATTRACTING)
def test_the_orbit_settles_a_slowly_attracting_root(ladder, p):
    est = balanced_pn(ladder)
    assert est.p == p and len(est.roots) == 3
    assert sum(abs(_slope(ladder, r)) < 1.0 for r in est.roots) == 2
    # after 2e5 steps the exact orbit is within 1e-17 of its limit
    assert abs(_orbit_after(ladder, 200_000) - Fraction(p)) <= 1e-12


@pytest.mark.parametrize(
    "chain, roots",
    [
        # the roots of h to 40 digits (mpmath.polyroots)
        ((15.98, 15.95, 15.63, 15.6, 15.57, 14.96),
         ("0.1171792532556080589539692072316366042681", "0.5000000000000104491578788251162856952780",
          "0.8828207467443814918881519676520777004539")),
        ((9, 9, 8, 8, 8, 6), ("0", "0.5", "1")),
    ],
)
def test_an_orbit_seeded_on_a_repelling_root_raises_naming_it(chain, roots):
    # two attracting roots around a repelling one at 1/2, where the orbit
    # starts and stays; no tie-break is made
    with pytest.raises(AmbiguousRootError) as info:
        balanced_p3(PayoffTable3(*chain))
    _assert_within_ulps(info.value.candidates, [Fraction(r) for r in roots])
    assert f"reaches the repelling root {info.value.candidates[1]!r} " in str(info.value)


def test_an_orbit_that_reaches_no_root_raises_after_its_budget():
    # the attracting root 0.9505 has map slope -0.9999992: the orbit from 1/2
    # is still about 1e-4 away from it after 10^6 steps
    ladder = [127.29, 126.73, 126.28, 126.25, 79.7, 79.66, 62.63, 62.46, 61.74, 6.44, 5.48, 0.04]
    with pytest.raises(AmbiguousRootError, match=r"^iteration from 1/2 reaches no root in 1000000 steps among") as info:
        balanced_pn(ladder)
    assert len(info.value.candidates) == 3


def test_balanced_pn_rejects_ladders_past_float64_binomials():
    with pytest.raises(DomainError, match="overflow float64"):
        balanced_pn(list(range(2200, 0, -1)))


def test_import_does_not_load_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = "import sys, cooprob; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# ------------------------------------------------------- reported roots


def _mp_unit_roots(mp, ascending):
    """Real roots in [0, 1], ascending, of a polynomial given by ascending coefficients."""
    coeffs = list(ascending)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if len(coeffs) < 2:
        return []
    roots = mp.polyroots(coeffs[::-1], maxsteps=200, extraprec=60)
    return sorted(mp.re(r) for r in roots if abs(mp.im(r)) <= 1e-25 and -1e-25 <= mp.re(r) <= 1 + 1e-25)


def _mp_ladder_h(mp, ladder):
    """Ascending coefficients of h = p omega - q psi for a ladder
    (D_1, C_0, ..., D_n, C_(n-1)), psi and omega as in psi_omega_coeffs."""
    vals = [mp.mpf(v) for v in ladder]
    n = len(vals) // 2
    d, c = vals[0::2], vals[1::2]  # d[i] = D_(i+1), c[i] = C_i

    def bernstein(m, weight):
        # sum_i C(m, i) p^(m-i) q^i weight(i), expanded in powers of p
        out = [mp.mpf(0)] * (m + 1)
        for i in range(m + 1):
            for r in range(i + 1):  # q^i = sum_r C(i, r) (-p)^r
                out[m - i + r] += mp.binomial(m, i) * mp.binomial(i, r) * (-1) ** r * weight(i)
        return out

    psi = bernstein(n - 2, lambda i: c[i] - d[i + 1]) + [0, 0]
    omega = bernstein(n - 1, lambda j: d[j] - c[j]) + [0]
    return [(omega[k - 1] if k else 0) - psi[k] + (psi[k - 1] if k else 0) for k in range(n + 1)]


def _mp_side_h(mp, own, other):
    """Ascending coefficients of h = p omega - q psi for one side of a
    two-sided table, with the weights of balanced_p_asym."""
    (a, b, c, d), (a2, b2, c2, d2) = ([mp.mpf(v) for v in side] for side in (own, other))
    s0, s1 = (b - c) * (b2 - d2), (b - c) * (a2 - c2)
    w0, w1 = (b2 - c2) * (a - b) + (c2 - d2) * (c - d), (b2 - c2) * (a - b) + (a2 - b2) * (c - d)
    return [-s0, w0 + 2 * s0 - s1, (w1 - w0) + (s1 - s0)]


# each reported root lies within this many ulps of the exact root of the
# table's balance polynomial: Brent's method stops within a few ulps of
# where h changes sign in floats, and forming the weights and evaluating h
# in floats move that point by the rest
ROOT_ULPS = 16


def _assert_within_ulps(got, want):
    """``got`` are floats and ``want`` exact (Fraction or mpf) roots, in order."""
    assert len(got) == len(want), (got, want)
    for x, ref in zip(got, want):
        assert abs(x - ref) <= ROOT_ULPS * math.ulp(float(ref)), (got, want)


def test_ladder_roots_lie_within_a_few_ulps_of_the_exact_roots():
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(12)
    # the last has its root at 2.5e-21, where Brent's method stopped by an
    # absolute tolerance of 1e-15 answered 0.0
    ladders = [_ladder(rng, n) for n in range(3, 13) for _ in range(10)] + [[3, 2, 1, 1e-20, 0, -5]]
    with mp.workdps(40):
        for ladder in ladders:
            roots = balanced_pn(ladder).roots
            h = _mp_ladder_h(mp, ladder)[::-1]
            # the 40-digit root of h beside each reported root, by mpmath's secant method
            _assert_within_ulps(roots, [mp.findroot(lambda x: mp.polyval(h, x), mp.mpf(r)) for r in roots])


def test_a_root_where_h_is_flat_near_0_is_still_found():
    # h is about p^2 - 1e-200 near 0, so Brent's method would bisect about
    # 330 binades down to the root 1e-100, past its 100 steps; it settles
    # for a bracket 1e-15 wide
    est = balanced_p3(PayoffTable3(3, 2, 1, 1e-200, 0, -1))
    assert est.roots == (est.p,) and 0.0 <= est.p <= 1e-15


def _assert_reports_the_unit_roots(est, want):
    assert list(est.roots) == sorted(est.roots)
    assert est.p.hex() in [r.hex() for r in est.roots]
    assert len(est.roots) == len(want), (est.roots, want)
    for got, ref in zip(est.roots, want):
        assert abs(got - ref) <= 1e-12, (est.roots, want)


def test_solvers_report_every_balance_root_in_the_unit_interval():
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(21)
    # 0 is a repelling root of the first; the cubic put 0.5000000000000001
    # beside p = 0.5 for the second; the last has three roots, two attracting
    chains = [(10, 4, 1, -2, -2, -4), (13, 8, 7, 6, 3, 2), (10, 8, 7, 5, 4, 2), (39, 38, 28, 27, 26, 1)]
    chains += [np.sort(rng.uniform(0, 10, 6))[::-1].tolist() for _ in range(100)]
    ladders = [_ladder(rng, n) for n in range(2, 8) for _ in range(15)]
    with mp.workdps(40):
        assert balanced_p3(PayoffTable3(*chains[0])).roots[0] == 0.0
        for chain in chains:
            _assert_reports_the_unit_roots(balanced_p3(PayoffTable3(*chain)), _mp_unit_roots(mp, _mp_ladder_h(mp, chain)))
        for ladder in ladders:
            _assert_reports_the_unit_roots(balanced_pn(ladder), _mp_unit_roots(mp, _mp_ladder_h(mp, ladder)))
        for table in _two_sided_draws()[::20]:
            x, y = table.side_x().values(), table.side_y().values()
            for est, own, other in zip(balanced_p_asym(table), (x, y), (y, x)):
                _assert_reports_the_unit_roots(est, _mp_unit_roots(mp, _mp_side_h(mp, own, other)))


def test_the_scalar_solvers_call_no_numpy():
    # numpy is imported only inside the array functions, so neither the
    # package, the CLI module nor a scalar solver loads it
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = """if True:
        import json, sys

        def numpy_modules():
            return sorted(m for m in sys.modules if m.split(".")[0] == "numpy")

        loaded = {}
        import cooprob
        loaded["import cooprob"] = numpy_modules()
        import cooprob.cli
        loaded["import cooprob.cli"] = numpy_modules()
        from cooprob import AsymmetricTable2, PayoffTable2, PayoffTable3, balanced_p, balanced_p3, balanced_p_asym, balanced_pn
        chain = (39, 38, 28, 27, 26, 1)  # two attracting roots: the oracle runs
        ex, ey = balanced_p_asym(AsymmetricTable2(10, 7, 5, 1, 9, 8, 5, 2))
        values = [
            balanced_p(PayoffTable2(9, 8, 5, 2)).p,
            balanced_p3(PayoffTable3(10, 4, 1, -2, -2, -4)).roots,
            balanced_p3(PayoffTable3(*chain)).p,
            balanced_pn(chain).p,
            [ex.p, ey.p],
        ]
        loaded["the scalar solvers"] = numpy_modules()
        print(json.dumps({"loaded": loaded, "values": values}))
    """
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["loaded"] == {"import cooprob": [], "import cooprob.cli": [], "the scalar solvers": []}
    p2, roots3, p3, pn, (px, py) = out["values"]
    assert p2 == pytest.approx((3.0 - SQRT3) / 2.0, abs=1e-15)
    assert roots3 == pytest.approx([0.0, 0.18614066163450715], abs=1e-15)
    assert p3 == pn == pytest.approx(0.06940133328365998, abs=1e-12)
    assert (px, py) == pytest.approx((0.36832267997260637, 0.5699786932785461), abs=1e-12)
