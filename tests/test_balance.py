"""Table verification, balance search, and the tables file format."""

import json
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from cooprob import (
    AmbiguousRootError,
    BalanceTarget,
    DomainError,
    GameTag,
    InvalidTableError,
    PayoffTable2,
    PayoffTable3,
    UnsupportedClassError,
    balance,
    balance_search,
    balanced_p,
    classify2,
    estimators,
    expected_payoff2,
    load_table_entries,
    verify_table,
)
from cooprob.balance import SearchResult, VerificationReport
from cooprob.errors import CooprobError
from cooprob.estimators import _mu2, weights2
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
    with pytest.raises(UnsupportedClassError):
        verify_table(PayoffTable2(1, 2, 3, 4), BalanceTarget(0.5, 1.0, 0.1, 0.1))


def _reference_verify(table, target):
    """verify_table's report on a 2x2 table, from balanced_p and expected_payoff2."""
    est = balanced_p(table)
    mu = expected_payoff2(table, est.p)
    dp, dmu = est.p - target.p, mu - target.mu
    return VerificationReport(est.class_used, est.p, mu, dp, dmu, abs(dp) <= target.p_tol and abs(dmu) <= target.mu_tol)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except CooprobError as exc:
        return type(exc), str(exc)


def test_verify_table_is_balanced_p_and_expected_payoff2():
    rng = np.random.default_rng(24)
    tables = []
    for tag, cols in CLASS_PATTERNS.items():
        # floats, 0..9 integers with -0.0 for zero (the boundary flags), and
        # magnitudes of 1e-300, 1e300 and past the 2**1020 payoff scale
        for scale in (1.0, 1.0, 1e-300, 1e300, 4e305):
            for _ in range(30):
                if scale == 1.0 and len(tables) % 2:
                    vals = [-0.0 if v == 0 else float(v) for v in np.sort(rng.integers(0, 10, 4))[::-1]]
                else:
                    vals = (np.sort(rng.uniform(-50.0, 50.0, 4))[::-1] * scale).tolist()
                vals = [vals[i] for i in cols]
                if classify2(PayoffTable2(*vals)).tag is tag:
                    tables.append(PayoffTable2(*vals))
    assert {classify2(t).tag for t in tables} == set(CLASS_PATTERNS)
    assert any(classify2(t).is_boundary for t in tables)
    assert any(math.copysign(1.0, v) < 0.0 for t in tables for v in t.values() if v == 0.0)
    passed = set()
    for table in tables:
        p0 = balanced_p(table).p
        for target in (
            BalanceTarget(p0, expected_payoff2(table, p0), 1e-9, 1e-9 * max(map(abs, table.values()))),
            BalanceTarget(float(rng.uniform(0.0, 1.0)), float(rng.normal()), 0.1, 0.1),
        ):
            got, want = verify_table(table, target), _reference_verify(table, target)
            assert got == want and repr(got) == repr(want)  # repr tells -0.0 from 0.0
            assert got.game_class is want.game_class
            passed.add(got.passed)
    assert passed == {True, False}


def test_verify_table_refuses_as_balanced_p(monkeypatch):
    target = BalanceTarget(0.5, 1.0, 0.1, 0.1)
    refused = [
        (PayoffTable2(1, 2, 3, 4), UnsupportedClassError),  # Unclassified
        (PayoffTable2(1.7e308, 1, 0, -1.7e308), DomainError),  # a Prisoner's Dilemma whose payoff scale overflows
        (PayoffTable2(1, 2, 1.7e308, -1.7e308), DomainError),  # both: the scale is refused first
    ]
    for table, error in refused:
        want = _outcome(_reference_verify, table, target)
        assert want[0] is error
        assert _outcome(verify_table, table, target) == want
    # h = p omega - q psi vanishes for every p where psi = p and omega = q; no
    # strict class ordering gives those weights, so the test hands them to the
    # Prisoner's Dilemma
    monkeypatch.setitem(estimators._END_WEIGHTS, GameTag.PRISONERS_DILEMMA, lambda a, b, c, d: (a - d, 0.0, 1.0, 1.0, 0.0))
    table = PayoffTable2(9, 8, 5, 2)
    want = _outcome(_reference_verify, table, target)
    assert want[0] is AmbiguousRootError
    assert _outcome(verify_table, table, target) == want


def test_verify_table_measures_without_the_quadratics_roots():
    # the balance quadratic's leading coefficient is 5e-324, so its second
    # root lies past float64 and balanced_p cannot list it; p is 1 to float
    # precision
    report = verify_table(PayoffTable2(0.0, -5e-324, -1e307, -1e307), BalanceTarget(1.0, 0.0, 0.01, 0.01))
    assert report.game_class.tag is GameTag.PRISONERS_DILEMMA
    assert (report.p_computed, report.mu_computed, report.passed) == (1.0, -5e-324, True)


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
    for bad in (0, float("nan"), math.inf, -math.inf, 2.5, 3.0, True):
        with pytest.raises(DomainError, match="max_iters"):
            balance_search(PayoffTable2(9, 8, 5, 2), target, max_iters=bad)


def test_balance_search_refuses_tables_that_are_not_2x2():
    target = BalanceTarget(p=1.0 / 3.0, mu=5.0, p_tol=0.01, mu_tol=0.01)
    for table in (PayoffTable3(10, 8, 7, 5, 4, 2), (9, 8, 5, 2)):
        with pytest.raises(UnsupportedClassError, match="2×2"):
            balance_search(table, target)


class _ExactP(Fraction):
    """A Fraction p that keeps ``1.0 - p`` and ``0.0 * p``, the float
    literals of ``weights2`` and ``_mu2``, exact."""

    def __rsub__(self, other):
        return Fraction(other) - Fraction(self)

    def __rmul__(self, other):
        return Fraction(other) * Fraction(self)


@pytest.mark.parametrize("tag", list(CLASS_PATTERNS))
def test_target_rows_are_the_balance_function_and_mu_exactly(tag):
    # the solve rests on h(p) = p omega - q psi and mu being linear in the payoffs at a fixed p
    quads = ((Fraction(37, 3), Fraction(29, 7), Fraction(-5, 11), Fraction(-17, 6)), (9, 8, 5, 2))
    for quad in quads:
        x = [quad[i] for i in CLASS_PATTERNS[tag]]
        assert classify2(PayoffTable2(*x)).tag is tag
        for p in (Fraction(0), Fraction(1, 3), Fraction(5, 7), Fraction(1)):
            h, m = balance._target_rows(tag, p)
            phi, chi = weights2(tag, *x, _ExactP(p))
            want_h = p * chi - (1 - p) * phi
            want_mu = _mu2(_ExactP(p), *x)
            got_h = sum(hj * xj for hj, xj in zip(h, x))
            got_mu = sum(mj * xj for mj, xj in zip(m, x))
            for v in (want_h, want_mu, got_h, got_mu):
                assert isinstance(v, (int, Fraction))  # no float crept in
            assert got_h == want_h
            assert got_mu == want_mu


# ------------------------- the per-neighbour search loop, kept as reference


def reference_search(table, target, step=0.5, max_iters=200, integer_mode=False):
    """``balance_search`` as it ran before it scored neighbours from their
    payoffs: every neighbour built as a table, classified and verified."""

    def objective(report):
        return (report.delta_p / target.p_tol) ** 2 + (report.delta_mu / target.mu_tol) ** 2

    if integer_mode:
        step = float(max(1, round(step)))
    tag0 = classify2(table).tag
    report = verify_table(table, target)
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
                    cand_report = verify_table(cand, target)
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
    """Seeded (start, target, step, max_iters, integer_mode) jobs, ``count``
    of each of two kinds. The first spans the five classes, half of them
    with 0..9 integer starts, which hit the boundary flags; targets lie near
    the start's own (p, mu). The second is shaped like the benchmark's
    ``solvers`` searches: the four classes other than Translators, half of
    them integer, p within 0.15 and mu within 1 of the start's, tolerances
    0.02 and 0.25, a step of 0.1 to 0.5 and 100 iterations; a few integer
    starts carry -0.0 for a zero payoff."""
    rng = np.random.default_rng(seed)
    jobs = []
    while len(jobs) < 2 * count:
        solvers = len(jobs) >= count
        tags = [t for t in CLASS_PATTERNS if not (solvers and t is GameTag.TRANSLATORS)]
        tag = tags[len(jobs) % len(tags)]
        integer = bool(rng.integers(0, 2))
        if integer:
            vals = np.sort(rng.integers(0, 10, 4))[::-1].astype(float)
        else:
            vals = np.sort(rng.uniform(-50.0, 50.0, 4))[::-1]
        vals = vals[list(CLASS_PATTERNS[tag])].tolist()
        if solvers and integer and len(jobs) % 3 == 0:
            vals = [-0.0 if v == 0.0 else v for v in vals]
        start = PayoffTable2(*vals)
        if classify2(start).tag is not tag:
            continue
        p0 = balanced_p(start).p
        mu0 = expected_payoff2(start, p0)
        if solvers:
            target = BalanceTarget(
                float(np.clip(p0 + rng.uniform(-0.15, 0.15), 0.01, 0.99)),
                float(mu0 + rng.uniform(-1.0, 1.0)),
                0.02,
                0.25,
            )
            jobs.append((start, target, float(rng.uniform(0.1, 0.5)), 100, False))
            continue
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


def _least_norm_table(start, target):
    """numpy's minimum-norm solution for the payoffs nearest ``start`` with
    p omega - q psi = 0 and mu = target.mu at p = target.p, the rows taken
    from ``weights2`` and ``expected_payoff2``."""
    tag, p = classify2(start).tag, target.p
    rows = []
    for unit in np.eye(4):
        phi, chi = weights2(tag, *unit, p)
        rows.append((p * chi - (1.0 - p) * phi, expected_payoff2(PayoffTable2(*unit), p)))
    a = np.array(rows).T
    x0 = np.array(start.values())
    return x0 + np.linalg.lstsq(a, np.array([0.0, target.mu]) - a @ x0, rcond=None)[0]


def _assert_search(start, target, *args):
    """Run ``balance_search`` next to ``reference_search``: a job the solve
    answers meets its target in its class, with the report verify_table
    gives, at numpy's least-norm table; every other job is the loop's, bit
    for bit. Returns the result and whether the solve answered."""
    got, want = balance_search(start, target, *args), reference_search(start, target, *args)
    solved = got.iterations == 0 and not verify_table(start, target).passed
    if solved:
        assert got.met_target and not got.stalled
        assert got.report.game_class.tag is classify2(start).tag
        assert got.report == verify_table(got.table, target)
        scale = max(start.values()) - min(start.values())
        assert np.abs(np.array(got.table.values()) - _least_norm_table(start, target)).max() <= 1e-9 * scale
    else:
        assert got == want and repr(got) == repr(want)  # repr tells -0.0 from 0.0
    assert got.met_target or not want.met_target  # no target the loop meets is lost
    return got, solved


def test_balance_search_is_the_per_neighbour_loop():
    jobs = _search_jobs(5, 150)
    runs = [_assert_search(*job) for job in jobs]
    results = [r for r, solved in runs if not solved]
    assert sum(solved for _, solved in runs) >= 150
    assert any(v == 0.0 and math.copysign(1.0, v) < 0.0 for job in jobs for v in job[0].values())
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
        # a payoff scale past 2**1020: the weights come from the payoffs / 8; the solve answers
        ((1e308, 5e307, 1e307, -1e307), (0.5, 4e307, 0.01, 1e305), 2e306, 30, False),
        ((6e307, 1e307, 5e307, -1e307), (0.6, 4e307, 0.01, 1e305), 2e306, 30, False),
        # the second job above without integer mode: the solve answers it
        ((9, 8, 5, 2), (0.5, 6.0, 0.02, 0.1), 0.6, 50, False),
        # the solved table misses mu by a rounding of 2**-20, past mu_tol: the loop runs
        ((9e9, 8e9, 5e9, 2e9), (0.5, 6e9 + 0.123, 0.01, 1e-9), 0.5, 3, False),
    ],
)
def test_balance_search_is_the_per_neighbour_loop_at_the_edges(start, target, step, max_iters, integer_mode):
    result, solved = _assert_search(PayoffTable2(*start), BalanceTarget(*target), step, max_iters, integer_mode)
    assert solved or result.iterations >= 1


def test_balance_search_scores_an_overflowing_objective_as_infinite():
    # (delta_mu / mu_tol) ** 2 = (1e150 / 1e-10) ** 2 passes float64, and float ** raises
    result = balance_search(PayoffTable2(1e300, 1, 0, -1), BalanceTarget(0.5, 0.0, 0.01, 1e-10))
    assert result.stalled and not result.met_target
    assert result.report.mu_computed == 1e150


def _count_tables_and_reports(monkeypatch):
    calls = Counter()
    verify, post_init = balance.verify_table, PayoffTable2.__post_init__

    def counted_verify(*args, **kwargs):
        calls["verify_table"] += 1
        return verify(*args, **kwargs)

    def counted_post_init(self):
        calls["PayoffTable2"] += 1
        post_init(self)

    monkeypatch.setattr(balance, "verify_table", counted_verify)
    monkeypatch.setattr(PayoffTable2, "__post_init__", counted_post_init)
    return calls


def test_balance_search_builds_tables_only_for_its_result(monkeypatch):
    # the solve's table leaves Chicken here, so the loop runs
    start = PayoffTable2(5, 4, 1, 2)
    calls = _count_tables_and_reports(monkeypatch)
    result = balance_search(start, BalanceTarget(p=0.5, mu=2.7, p_tol=0.01, mu_tol=0.05), step=0.1)
    assert result.met_target and result.iterations >= 5
    # at most one table and one report per iteration, not one per neighbour
    assert 1 <= calls["verify_table"] <= result.iterations + 1
    assert calls["PayoffTable2"] <= result.iterations + 1


def test_balance_search_builds_one_table_for_an_answer_from_the_solve(monkeypatch):
    start = PayoffTable2(9, 8, 5, 2)
    calls = _count_tables_and_reports(monkeypatch)
    result = balance_search(start, BalanceTarget(p=0.5, mu=6.0, p_tol=0.01, mu_tol=0.05), step=0.1)
    assert result.met_target and result.iterations == 0
    # the start's report, and the solved table with a report from the same rules
    assert calls == {"verify_table": 1, "PayoffTable2": 1}


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
