"""Table verification, greedy balance search, and the tables file format."""

import json
import math
from collections import Counter

import numpy as np
import pytest

from cooprob import (
    BalanceTarget,
    DomainError,
    GameTag,
    InvalidTableError,
    PayoffTable2,
    PayoffTable3,
    balance,
    balance_search,
    balanced_p,
    classify2,
    expected_payoff2,
    load_table_entries,
    verify_table,
)
from cooprob.balance import SearchResult
from cooprob.errors import CooprobError
from cooprob.tables import DEFAULT_POLICY
from conftest import CLASS_PATTERNS


def test_balance_target_validation():
    with pytest.raises(DomainError):
        BalanceTarget(p=1.5, mu=1.0, p_tol=0.01, mu_tol=0.01)
    with pytest.raises(DomainError):
        BalanceTarget(p=0.5, mu=math.inf, p_tol=0.01, mu_tol=0.01)
    with pytest.raises(DomainError):
        BalanceTarget(p=0.5, mu=1.0, p_tol=0.0, mu_tol=0.01)


def test_verify_two_player_pass():
    report = verify_table(
        PayoffTable2(8, 2, -2, -4), BalanceTarget(p=0.5, mu=1.0, p_tol=1e-9, mu_tol=1e-9)
    )
    assert report.passed
    assert report.p_computed == pytest.approx(0.5, abs=1e-12)
    assert report.mu_computed == pytest.approx(1.0, abs=1e-12)
    assert report.delta_p == pytest.approx(0.0, abs=1e-12)
    assert report.game_class.tag is GameTag.PRISONERS_DILEMMA


def test_verify_reports_signed_deltas_on_miss():
    report = verify_table(
        PayoffTable2(9, 8, 5, 2), BalanceTarget(p=0.5, mu=6.0, p_tol=0.01, mu_tol=0.01)
    )
    assert not report.passed
    assert report.delta_p > 0  # this table leans cooperative of the target
    assert report.delta_mu > 0


def test_verify_three_player():
    report = verify_table(
        PayoffTable3(10, 8, 7, 5, 4, 2),
        BalanceTarget(p=1.0 / 3.0, mu=16.0 / 3.0, p_tol=1e-9, mu_tol=1e-9),
    )
    assert report.passed


def test_verify_unclassified_table_raises():
    with pytest.raises(Exception):
        verify_table(PayoffTable2(1, 2, 3, 4), BalanceTarget(0.5, 1.0, 0.1, 0.1))


def test_balance_search_reaches_a_nearby_target():
    result = balance_search(
        PayoffTable2(9, 8, 5, 2), BalanceTarget(p=0.5, mu=6.0, p_tol=0.01, mu_tol=0.05)
    )
    assert result.met_target
    assert not result.stalled
    assert result.report.passed
    # class preservation is a hard constraint of the search
    assert classify2(result.table).tag is GameTag.PRISONERS_DILEMMA


def test_balance_search_integer_mode_keeps_integers():
    result = balance_search(
        PayoffTable2(9, 8, 5, 2),
        BalanceTarget(p=0.5, mu=6.0, p_tol=0.02, mu_tol=0.1),
        step=1.0,
        integer_mode=True,
    )
    for v in result.table.values():
        assert v == int(v)


def test_balance_search_stalls_honestly():
    # an unreachable target with a tiny iteration budget must not pretend
    result = balance_search(
        PayoffTable2(9, 8, 5, 2),
        BalanceTarget(p=0.0, mu=-100.0, p_tol=1e-6, mu_tol=1e-6),
        step=0.25,
        max_iters=3,
    )
    assert not result.met_target
    assert result.iterations <= 3


def test_balance_search_validates_knobs():
    target = BalanceTarget(p=0.5, mu=1.0, p_tol=0.01, mu_tol=0.01)
    with pytest.raises(DomainError):
        balance_search(PayoffTable2(9, 8, 5, 2), target, step=0.0)
    with pytest.raises(DomainError):
        balance_search(PayoffTable2(9, 8, 5, 2), target, max_iters=0)


# ------------------------- the per-neighbour search loop, kept as reference


def reference_search(table, target, step=0.5, max_iters=200, integer_mode=False, policy=DEFAULT_POLICY):
    """``balance_search`` as it ran before it scored neighbours from their
    payoffs: every neighbour built as a table, classified and verified."""

    def objective(report):
        return (report.delta_p / target.p_tol) ** 2 + (report.delta_mu / target.mu_tol) ** 2

    if integer_mode:
        step = float(max(1, round(step)))
    tag0 = classify2(table).tag
    report = verify_table(table, target, policy)
    best_obj = objective(report)
    iterations = 0
    while iterations < max_iters:
        if report.passed:
            return SearchResult(table, report, True, False, iterations)
        iterations += 1
        best_neighbor = None
        for field in ("a", "b", "c", "d"):
            for sign in (1.0, -1.0):
                values = table.to_dict()
                values[field] += sign * step
                try:
                    cand = PayoffTable2(**values)
                except CooprobError:
                    continue
                if classify2(cand).tag is not tag0:
                    continue
                try:
                    cand_report = verify_table(cand, target, policy)
                except CooprobError:
                    continue
                obj = objective(cand_report)
                if obj < best_obj - 1e-15:
                    best_obj = obj
                    best_neighbor = (cand, cand_report)
        if best_neighbor is None:
            return SearchResult(table, report, report.passed, True, iterations)
        table, report = best_neighbor
    return SearchResult(table, report, report.passed, False, iterations)


def _search_jobs(seed, count):
    """Seeded (start, target, step, max_iters, integer_mode) jobs over the
    five classes, half of them with 0..9 integer starts, which hit the
    boundary flags; targets lie near the start's own (p, mu)."""
    rng = np.random.default_rng(seed)
    tags = list(CLASS_PATTERNS)
    jobs = []
    while len(jobs) < count:
        tag = tags[len(jobs) % len(tags)]
        integer = bool(rng.integers(0, 2))
        if integer:
            vals = np.sort(rng.integers(0, 10, 4))[::-1].astype(float)
        else:
            vals = np.sort(rng.uniform(-50.0, 50.0, 4))[::-1]
        start = PayoffTable2(*vals[list(CLASS_PATTERNS[tag])].tolist())
        if classify2(start).tag is not tag:
            continue
        p0 = balanced_p(start).p
        mu0 = expected_payoff2(start, p0)
        target = BalanceTarget(
            float(np.clip(p0 + rng.uniform(-0.2, 0.2), 0.0, 1.0)),
            float(mu0 + rng.uniform(-2.0, 2.0)),
            float(rng.choice([0.002, 0.02])),
            float(rng.choice([0.05, 0.25])),
        )
        step = 1.0 if integer else float(rng.uniform(0.05, 0.6))
        max_iters = int(rng.choice([3, 40, 200]))
        jobs.append((start, target, step, max_iters, integer and bool(rng.integers(0, 2))))
    return jobs


def _assert_same_search(*args, **kwargs):
    got, want = balance_search(*args, **kwargs), reference_search(*args, **kwargs)
    assert got == want and repr(got) == repr(want)  # repr tells -0.0 from 0.0
    return got


def test_balance_search_is_the_per_neighbour_loop():
    results = [_assert_same_search(*job) for job in _search_jobs(5, 150)]
    assert {r.report.game_class.tag for r in results} == set(CLASS_PATTERNS)
    assert any(r.report.game_class.is_boundary for r in results)
    assert any(r.met_target for r in results)
    assert any(r.stalled for r in results)
    assert any(not r.met_target and not r.stalled for r in results)  # the cap


@pytest.mark.parametrize(
    "start, target, step, max_iters, integer_mode",
    [
        # non-integer start, integer step: the payoffs stay off the integers
        ((9.5, 8.25, 5.0, 2.0), (0.5, 6.0, 0.02, 0.1), 1.4, 50, True),
        ((9, 8, 5, 2), (0.5, 6.0, 0.02, 0.1), 0.6, 50, True),
        ((9, 8, 5, 2), (0.0, -100.0, 1e-6, 1e-6), 0.25, 3, False),
        # a + step overflows to inf, and d - step takes the scale past float64
        ((1.7e308, 5e307, 0.0, -1e306), (0.3, 2e307, 0.01, 1e306), 1e307, 20, False),
        # a payoff scale past 2**1020: the weights come from the payoffs / 8
        ((1e308, 5e307, 1e307, -1e307), (0.5, 4e307, 0.01, 1e305), 2e306, 30, False),
        ((6e307, 1e307, 5e307, -1e307), (0.6, 4e307, 0.01, 1e305), 2e306, 30, False),
    ],
)
def test_balance_search_is_the_per_neighbour_loop_at_the_edges(start, target, step, max_iters, integer_mode):
    result = _assert_same_search(PayoffTable2(*start), BalanceTarget(*target), step, max_iters, integer_mode)
    assert result.iterations >= 1


def test_balance_search_scores_an_overflowing_objective_as_infinite():
    # (delta_mu / mu_tol) ** 2 = (1e150 / 1e-10) ** 2 passes float64, and float ** raises
    result = balance_search(PayoffTable2(1e300, 1, 0, -1), BalanceTarget(0.5, 0.0, 0.01, 1e-10))
    assert result.stalled and not result.met_target
    assert result.report.mu_computed == 1e150


def test_balance_search_builds_tables_only_for_its_result(monkeypatch):
    calls = Counter()
    verify, post_init = balance.verify_table, PayoffTable2.__post_init__

    def counted_verify(*args, **kwargs):
        calls["verify_table"] += 1
        return verify(*args, **kwargs)

    def counted_post_init(self):
        calls["PayoffTable2"] += 1
        post_init(self)

    start = PayoffTable2(9, 8, 5, 2)
    monkeypatch.setattr(balance, "verify_table", counted_verify)
    monkeypatch.setattr(PayoffTable2, "__post_init__", counted_post_init)
    result = balance_search(start, BalanceTarget(p=0.5, mu=6.0, p_tol=0.01, mu_tol=0.05), step=0.1)
    assert result.met_target and result.iterations >= 5
    # at most one table and one report per iteration, not one per neighbour
    assert 1 <= calls["verify_table"] <= result.iterations + 1
    assert calls["PayoffTable2"] <= result.iterations + 1


def _write_tables(tmp_path, payload):
    path = tmp_path / "tables.json"
    path.write_text(json.dumps(payload))
    return path


def test_load_table_entries_roundtrip(tmp_path):
    path = _write_tables(
        tmp_path,
        [
            {
                "name": "duel",
                "players": 2,
                "table": {"a": 8, "b": 2, "c": -2, "d": -4},
                "target": {"p": 0.5, "mu": 1.0, "p_tol": 1e-6, "mu_tol": 1e-6},
            },
            {
                "name": "trio",
                "players": 3,
                "table": {"f": 10, "g": 8, "h": 7, "j": 5, "k": 4, "m": 2},
                "target": {"p": 0.3333333333, "mu": 5.34, "p_tol": 0.01, "mu_tol": 0.05},
            },
        ],
    )
    entries = load_table_entries(path)
    assert [e.name for e in entries] == ["duel", "trio"]
    assert isinstance(entries[0].table, PayoffTable2)
    assert isinstance(entries[1].table, PayoffTable3)
    assert verify_table(entries[0].table, entries[0].target).passed
    assert verify_table(entries[1].table, entries[1].target).passed


def test_load_table_entries_rejects_garbage(tmp_path):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    with pytest.raises(InvalidTableError):
        load_table_entries(bad_json)

    with pytest.raises(InvalidTableError):
        load_table_entries(_write_tables(tmp_path, {"name": "not-a-list"}))

    with pytest.raises(InvalidTableError):
        load_table_entries(
            _write_tables(
                tmp_path,
                [{"name": "x", "players": 5, "table": {}, "target": {}}],
            )
        )

    with pytest.raises(InvalidTableError):
        load_table_entries(
            _write_tables(
                tmp_path,
                [{"players": 2, "table": {"a": 1, "b": 0, "c": -1, "d": -2}}],
            )
        )
