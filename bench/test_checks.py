"""Self-test of the benchmark's reference checks.

Each check must pass the program's correct output and reject a wrong one:
the other quadratic root, a p shifted by 1e-6, a permuted distribution, and
so on. Run from the repository root:

    python3 -m pytest -q bench/test_checks.py
"""

from __future__ import annotations

import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import model  # noqa: E402
import cooprob as cp  # noqa: E402
import cooprob.cli  # noqa: E402

SHIFT = 1e-6

# one table per class; the StagHunt one has its interior root selected
TABLES = {
    model.PD: (9.0, 8.0, 5.0, 2.0),
    model.CHICKEN: (9.0, 6.0, 1.0, 3.0),
    model.BOS: (9.0, 1.0, 3.0, 5.0),
    model.STAG: (10.0, 11.0, 9.0, 0.0),
    model.TRANSLATORS: (9.0, 2.0, 5.0, 1.0),
}


def program_outputs(rows) -> dict:
    tabs = [cp.PayoffTable2(*r) for r in rows]
    nan = float("nan")
    return {
        "cls": np.array([model.CLASS_NAMES.index(cp.classify2(t).tag.value) for t in tabs]),
        "p": np.array([cp.balanced_p(t).p for t in tabs]),
        "mu": np.array([cp.expected_payoff2(t, cp.balanced_p(t).p) for t in tabs]),
        "gap": np.array([cp.equiprobability(t).gap for t in tabs]),
        "maximin": np.array([nan if cp.maximin_p(t).value is None else cp.maximin_p(t).value for t in tabs]),
        "payoff_max": np.array([cp.payoff_max_p(t).p if model.classify(*t.values()) != model.TRANSLATORS else nan for t in tabs]),
    }


def check2(rows, out):
    return checks.check_tables2(np.array(rows, dtype=float), out, np.ones(len(rows), bool))


def test_tables2_accepts_the_program():
    rows = list(TABLES.values()) + [(9.0, 7.0, 3.0, 3.0), (101.0, 100.0, 1.0, 0.0)]
    assert check2(rows, program_outputs(rows)) == []


@pytest.mark.parametrize("cls", [model.PD, model.CHICKEN, model.BOS])
def test_tables2_rejects_the_other_root(cls):
    row = TABLES[cls]
    out = program_outputs([row])
    roots = cp.balanced_p(cp.PayoffTable2(*row)).roots
    other = [r for r in roots if abs(r - out["p"][0]) > 1e-9]
    assert other
    out["p"] = np.array([other[0]])
    assert check2([row], out)


@pytest.mark.parametrize("cls", list(TABLES))
def test_tables2_rejects_a_shifted_p(cls):
    row = TABLES[cls]
    out = program_outputs([row])
    out["p"] = out["p"] + (SHIFT if out["p"][0] < 1 else -SHIFT)
    assert check2([row], out)


def test_tables2_rejects_the_stag_hunt_corner_and_a_cooperating_translator():
    row = TABLES[model.STAG]
    out = program_outputs([row])
    out["p"] = np.array([1.0])  # the other root of this StagHunt table
    assert check2([row], out)
    row = TABLES[model.TRANSLATORS]
    out = program_outputs([row])
    out["p"] = np.array([0.25])
    assert check2([row], out)


@pytest.mark.parametrize("field,bump", [("cls", 1), ("mu", 1e-6), ("gap", 1e-6), ("maximin", 1e-6), ("payoff_max", -0.5)])
def test_tables2_rejects_a_wrong_baseline(field, bump):
    row = TABLES[model.CHICKEN]
    out = program_outputs([row])
    out[field] = out[field] + bump
    assert check2([row], out)


def test_payoff_argmax_finds_mutual_defection():
    # (10, 5, 7, 1): mutual defection pays 7, mutual cooperation 5
    assert checks.payoff_argmax(*(np.array([v]) for v in (10.0, 5.0, 7.0, 1.0)))[0] == 0.0


def test_p3_check():
    table = (10.0, 8.0, 7.0, 5.0, 4.0, 2.0)
    p = cp.balanced_p3(cp.PayoffTable3(*table)).p
    assert checks.check_p3(table, p) == []
    assert checks.check_p3(table, p + SHIFT)
    assert checks.check_p3(table, 1.0 - p)


def test_asym_check():
    x, y = (10.0, 7.0, 5.0, 1.0), (9.0, 8.0, 5.0, 2.0)
    ex, ey = cp.balanced_p_asym(cp.AsymmetricTable2(*x, *y))
    assert checks.check_asym(x, y, ex.p, ey.p) == []
    assert checks.check_asym(x, y, ey.p, ex.p)
    assert checks.check_asym(x, y, ex.p, ey.p + SHIFT)


def test_ladder_check():
    ladder = [10.0, 8.0, 7.0, 5.0, 4.0, 2.0, 1.5, 0.5]
    p = cp.balanced_pn(ladder).p
    assert checks.check_ladder(ladder, p) == []
    assert checks.check_ladder(ladder, p + SHIFT)
    assert checks.check_ladder(ladder, p - SHIFT)
    assert checks.check_ladder(ladder, 1.0 - p)


def test_ladder_profile_counts_roots_and_slope():
    count, root, slope = model.ladder_profile([95, 68, 67, 66, 10, 9])
    assert count == 1 and abs(root - 0.6404385792) < 1e-9 and slope < -1.0


def test_diner_check():
    spec = cp.DinerSpec(r=4.0, s=3.5, u=1.5, w=1.0, n=2)
    p = cp.diner_p(spec).p
    assert checks.check_diner(2, spec.r_cb, p) == []
    assert checks.check_diner(2, spec.r_cb, p + SHIFT)
    rep = cp.diner_conjecture_test(4.4, 6)
    assert checks.check_diner(6, 4.4, rep.p_solver) == []
    assert checks.check_diner(6, 4.4, rep.p_solver + SHIFT)


def test_public_goods_check():
    dist = cp.public_goods_distribution(cp.PublicGoodsSpec(100.0, 1.3, 1000))
    probs = np.asarray(dist.probabilities)
    assert checks.check_public_goods(1000, 1.3, probs, dist.total) == []
    assert checks.check_public_goods(1000, 1.3, probs[::-1], dist.total)
    swapped = probs.copy()
    swapped[[10, 700]] = swapped[[700, 10]]
    assert checks.check_public_goods(1000, 1.3, swapped, dist.total)
    assert checks.check_public_goods(1000, 1.3, probs, dist.total * 1.001)


def test_traveler_check():
    spec = cp.TravelerSpec(r=120.0, s=3.0, t=2.5, steps=500)
    dist = cp.traveler_distribution(spec)
    probs = np.asarray(dist.probabilities)
    sample = [0, 17, 250, 500]
    assert checks.check_traveler(spec.v, spec.t, probs, dist.total, sample) == []
    assert checks.check_traveler(spec.v, spec.t, probs[::-1], dist.total, sample)
    assert checks.check_traveler(spec.v, spec.t, np.random.default_rng(0).permutation(probs), dist.total, sample)
    assert checks.check_traveler(spec.v, spec.t * 1.01, probs, dist.total, sample)


@pytest.mark.parametrize("mode", ["paper", "dispatch"])
def test_attrition_check(mode):
    dist = cp.attrition_distribution(cp.AttritionSpec(6.0, 300), mode)
    probs = np.asarray(dist.probabilities)
    other = "dispatch" if mode == "paper" else "paper"
    sample = [0, 3, 150, 300]
    assert checks.check_attrition(6.0, mode, probs, dist.total, sample) == []
    assert checks.check_attrition(6.0, other, probs, dist.total, sample)
    assert checks.check_attrition(6.0, mode, probs[::-1], dist.total, sample)


def test_search_check():
    start = (8.0, 2.0, -2.0, -4.0)
    target = (0.5, 1.0, 0.01, 0.05)
    res = cp.balance_search(cp.PayoffTable2(*start), cp.BalanceTarget(*target))
    final = res.table.values()
    assert checks.check_search(start, target, final, res.met_target, res.report.p_computed) == []
    assert checks.check_search(start, target, (8.0, 2.0, -5.0, -4.0), res.met_target, res.report.p_computed)
    assert checks.check_search(start, (0.9, 1.0, 0.01, 0.05), final, True, res.report.p_computed)
    assert checks.check_search(start, target, final, res.met_target, res.report.p_computed + SHIFT)


def test_search_check_near_a_double_root():
    # a StagHunt table balance_search reached, with (b - c)/(a - d) a hair
    # below 1/2: the interior root is 1 - 6e-16, the float64 reference 1 - 1.4e-8
    table = (6.0, 8.383575532579147, 5.383575532579148, 0.0)
    target = (0.9, 1.0, 0.01, 0.05)
    p = cp.balanced_p(cp.PayoffTable2(*table)).p
    assert checks.check_search(table, target, table, False, p) == []
    assert checks.check_search(table, target, table, False, p - SHIFT)


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_cli_parsing_and_12_digit_agreement(fmt):
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert cooprob.cli.main(["estimate", "--table", "9,8,5,2", "--format", fmt]) == 0
    got = checks.parse_cli_output(fmt, buf.getvalue())
    p = checks.mp_balance_root(model.PD, 9, 8, 5, 2)
    assert checks.check_cli_values(fmt, got, {"p": p, "class": "prisoners-dilemma"}) == []
    assert checks.check_cli_values(fmt, got, {"p": p + SHIFT})
    assert checks.check_cli_values(fmt, got, {"p": p * (1 + 1e-10)})
    assert checks.check_cli_values(fmt, got, {"class": "chicken"})
    assert checks.check_cli_values(fmt, got, {"mean": 1.0})
