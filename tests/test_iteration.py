"""Fixed-point oracle: traces, convergence, and batch limits."""

import math

import numpy as np
import pytest

from cooprob import (
    DegenerateWeightsError,
    DomainError,
    GameTag,
    PayoffTable2,
    PayoffTable3,
    balanced_p,
    iterate2,
    iterate_asym,
    AsymmetricTable2,
    UnsupportedClassError,
)
from cooprob import iteration
from cooprob.iteration import iterate2_limits, iterate3, iterate3_limits


def test_trace_shape_and_bookkeeping():
    t = PayoffTable2(9, 8, 5, 2)
    trace = iterate2(t, p0=0.5)
    assert trace.iterates[0] == 0.5
    assert trace.converged
    assert trace.iterations_used == len(trace.iterates) - 1
    assert trace.limit == trace.iterates[-1]
    assert all(0.0 <= p <= 1.0 for p in trace.iterates)


@pytest.mark.parametrize("p0", [0.0, 0.25, 0.5, 1.0])
def test_dilemma_limit_is_seed_independent(p0):
    t = PayoffTable2(9, 8, 5, 2)
    trace = iterate2(t, p0=p0)
    assert trace.converged
    assert trace.limit == pytest.approx((3.0 - math.sqrt(3.0)) / 2.0, abs=1e-9)


def test_stag_hunt_escapes_the_repelling_corner():
    # p = 1 is a fixed point but repels when an interior root exists;
    # the repelling seed is detected and restarted from the interior
    t = PayoffTable2(10, 11, 1, -30)
    trace = iterate2(t, p0=1.0)
    assert trace.converged
    assert trace.limit == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_stag_hunt_full_cooperation_attracts():
    t = PayoffTable2(2, 3, 1, 0)
    trace = iterate2(t, p0=0.25)
    assert trace.converged
    assert trace.limit == pytest.approx(1.0, abs=1e-9)


def test_translators_collapse_in_one_step():
    t = PayoffTable2(5, 3, 4, 1)
    trace = iterate2(t, p0=0.7)
    assert trace.converged
    assert trace.limit == 0.0
    assert trace.iterations_used <= 2


def test_iterate2_validates_inputs():
    t = PayoffTable2(9, 8, 5, 2)
    with pytest.raises(DomainError):
        iterate2(t, p0=1.5)
    bad = PayoffTable2(1, 2, 3, 4)
    with pytest.raises(UnsupportedClassError):
        iterate2(bad, p0=0.5)


def test_iterate3_known_limits():
    assert iterate3(PayoffTable3(10, 8, 7, 5, 4, 2)).limit == pytest.approx(
        1.0 / 3.0, abs=1e-9
    )
    assert iterate3(PayoffTable3(9, 8, 7, 6, 3, 2)).limit == pytest.approx(
        (3.0 - math.sqrt(3.0)) / 2.0, abs=1e-9
    )
    # the tied-rung table: iteration lands on the attracting cubic root
    assert iterate3(PayoffTable3(10, 4, 1, -2, -2, -4)).limit == pytest.approx(
        (-5.0 + math.sqrt(33.0)) / 4.0, abs=1e-9
    )


def test_iterate3_budget_runs_out_on_a_two_cycle(monkeypatch):
    # the only root (0.6404) has map slope -1.27, so iteration from 0.5
    # drifts into a 2-cycle and stops at the budget without converging
    t = PayoffTable3(95, 68, 67, 66, 10, 9)
    trace = iterate3(t, 0.5)
    assert not trace.converged
    assert trace.iterations_used == 10**6
    assert len(trace.iterates) == 10**6 + 1
    assert trace.limit == pytest.approx(0.07865111708877408, abs=1e-15)
    # a one-lane batch pays numpy's per-call cost at every step, so it runs
    # an even budget of 100 steps, which ends on the same point of the cycle
    monkeypatch.setattr(iteration, "_MAX_STEPS", 100)
    limits, converged = iterate3_limits(*(np.array([v]) for v in t.values()))
    assert not converged[0]
    assert limits[0] == pytest.approx(0.07865111708877408, abs=1e-15)


def test_the_stop_rule_is_relative_to_the_iterate():
    # an absolute step of 1e-12 stopped this run after 2 rounds at
    # (5.6e-93, 8.3e-202), far from its fixed point
    table = AsymmetricTable2(2.67e198, 3, -3.79e-198, -6.81e-127, 8.70e293, 2, -2, -1.98e106)
    trace = iterate_asym(table)
    assert trace.converged
    px, py = trace.limit
    assert px == pytest.approx(1.0, rel=1e-15, abs=0.0)
    assert py == pytest.approx(4.597701149425287e-294, rel=1e-15, abs=0.0)


def test_the_batch_oracles_stop_on_the_scalar_rule():
    # the absolute rule stopped the first at 1e-13 after 2 steps and the
    # second at 7.7e-14 after 19
    pd = (1.0, 1e-26, 0.0, -1e-13)
    chain = (3.0, 2.0, 1.0, 1e-20, 0.0, -5.0)
    runs = [
        (iterate2(PayoffTable2(*pd)), iterate2_limits(GameTag.PRISONERS_DILEMMA, *([v] for v in pd)),
         (math.sqrt(5.0) - 1.0) / 2.0 * 1e-13),
        (iterate3(PayoffTable3(*chain)), iterate3_limits(*([v] for v in chain)), 2.5e-21),
    ]
    for trace, (limits, converged), p in runs:
        assert trace.converged and converged[0]
        assert limits[0] == trace.limit == pytest.approx(p, rel=1e-12, abs=0.0)


def test_iterate3_degenerate_weights_raise():
    with pytest.raises(DegenerateWeightsError):
        iterate3(PayoffTable3(1, 1, 1, 1, 1, 1))


def test_iterate_asym_symmetric_input_matches_scalar():
    t = PayoffTable2(9, 8, 5, 2)
    sym = iterate2(t).limit
    trace = iterate_asym(AsymmetricTable2(9, 8, 5, 2, 9, 8, 5, 2))
    assert trace.converged
    px, py = trace.limit
    assert px == pytest.approx(sym, abs=1e-9)
    assert py == pytest.approx(sym, abs=1e-9)


def test_iterate_asym_mixed_sides():
    trace = iterate_asym(AsymmetricTable2(10, 7, 5, 1, 9, 8, 5, 2))
    assert trace.converged
    px, py = trace.limit
    assert px == pytest.approx(0.36832267997260637, abs=1e-9)
    assert py == pytest.approx(0.5699786932785461, abs=1e-9)


def test_batch_limits_match_scalar_runs():
    tables = [(9, 8, 5, 2), (10, 7, 5, 1), (8, 2, -2, -4), (100, 51, 50, 0)]
    a, b, c, d = (np.array([t[i] for t in tables], dtype=float) for i in range(4))
    limits, converged = iterate2_limits(GameTag.PRISONERS_DILEMMA, a, b, c, d, p0=0.5)
    assert converged.all()
    for pos, vals in enumerate(tables):
        t = PayoffTable2(*vals)
        scalar = iterate2(t, p0=0.5).limit
        assert limits[pos] == pytest.approx(scalar, abs=1e-12)


def test_batch_limits_stag_hunt_corner_seed():
    a = np.array([10.0, 2.0])
    b = np.array([11.0, 3.0])
    c = np.array([1.0, 1.0])
    d = np.array([-30.0, 0.0])
    limits, converged = iterate2_limits(GameTag.STAG_HUNT, a, b, c, d, p0=1.0)
    assert converged.all()
    assert limits[0] == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert limits[1] == pytest.approx(1.0, abs=1e-9)


def test_batch_limits3():
    f = np.array([10.0, 9.0])
    g = np.array([8.0, 8.0])
    h = np.array([7.0, 7.0])
    j = np.array([5.0, 6.0])
    k = np.array([4.0, 3.0])
    m = np.array([2.0, 2.0])
    limits, converged = iterate3_limits(f, g, h, j, k, m, p0=0.5)
    assert converged.all()
    assert limits[0] == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert limits[1] == pytest.approx((3.0 - math.sqrt(3.0)) / 2.0, abs=1e-9)


def test_batch_agrees_with_closed_form_on_a_seeded_sample():
    from conftest import sample_tables

    a, b, c, d = sample_tables(GameTag.PRISONERS_DILEMMA, 300, seed=7)
    limits, converged = iterate2_limits(GameTag.PRISONERS_DILEMMA, a, b, c, d)
    assert converged.all()
    closed = np.array([balanced_p(PayoffTable2(*v)).p for v in zip(a, b, c, d)])
    assert np.max(np.abs(limits - closed)) < 1e-9
