"""Classification, table containers, and the absence of a numeric policy."""

import ast
import dataclasses
import importlib
import inspect
import json
import math

import pytest

from cooprob import (
    AsymmetricTable2,
    DomainError,
    Estimate,
    GameTag,
    InvalidTableError,
    PayoffTable2,
    PayoffTable3,
    attrition_distribution,
    attrition_pij,
    balance_search,
    balanced_p,
    balanced_p3,
    balanced_p_asym,
    balanced_pn,
    classify2,
    classify3,
    diner_conjecture_test,
    diner_p,
    iterate2,
    payoff_scale,
    phi_chi,
    traveler_distribution,
    traveler_mean,
    traveler_pij,
    verify_table,
)
import cooprob
from cooprob.cli import main
from cooprob.estimators import _balanced_p_batch
from cooprob import iteration, nplayer


@pytest.mark.parametrize(
    "table, tag",
    [
        ((9, 8, 5, 2), GameTag.PRISONERS_DILEMMA),
        ((101, 100, 1, 0), GameTag.PRISONERS_DILEMMA),
        ((4, 3, 0, 1), GameTag.CHICKEN),
        ((3, 0, 0, 2), GameTag.BATTLE_OF_SEXES),
        ((2, 3, 1, 0), GameTag.STAG_HUNT),
        ((10, 11, 1, -30), GameTag.STAG_HUNT),
        ((5, 3, 4, 1), GameTag.TRANSLATORS),
        ((1, 2, 3, 4), GameTag.UNCLASSIFIED),
        ((0, 0, 0, 0), GameTag.UNCLASSIFIED),
    ],
)
def test_classify2_orderings(table, tag):
    assert classify2(PayoffTable2(*table)).tag is tag


@pytest.mark.parametrize(
    "table, tag, flags",
    [
        # c = d sits on the dilemma/chicken boundary and resolves to the dilemma
        ((2, 1, 0, 0), GameTag.PRISONERS_DILEMMA, {"c=d"}),
        ((3, 0, 0, 2), GameTag.BATTLE_OF_SEXES, {"b=c"}),
        ((5, 3, 3, 1), GameTag.TRANSLATORS, {"b=c"}),
        ((3, 4, 3, 1), GameTag.STAG_HUNT, {"a=c"}),
        ((9, 8, 5, 2), GameTag.PRISONERS_DILEMMA, set()),
    ],
)
def test_classify2_boundary_flags(table, tag, flags):
    cls = classify2(PayoffTable2(*table))
    assert cls.tag is tag
    assert set(cls.boundary_flags) == flags
    assert cls.is_boundary == bool(flags)


def test_classify2_is_exact_not_fuzzy():
    # a one-ulp separation still counts as strict ordering
    eps = 1e-12
    cls = classify2(PayoffTable2(2, 1, eps, 0.0))
    assert cls.tag is GameTag.PRISONERS_DILEMMA
    assert not cls.boundary_flags


def test_classify3_chain_and_flags():
    strict = classify3(PayoffTable3(10, 8, 7, 5, 4, 2))
    assert strict.tag is GameTag.PRISONERS_DILEMMA
    assert not strict.boundary_flags

    tied = classify3(PayoffTable3(10, 4, 1, -2, -2, -4))
    assert tied.tag is GameTag.PRISONERS_DILEMMA
    assert set(tied.boundary_flags) == {"j=k"}

    assert classify3(PayoffTable3(1, 2, 3, 4, 5, 6)).tag is GameTag.UNCLASSIFIED


def test_tables_reject_non_finite_payoffs():
    with pytest.raises(InvalidTableError):
        PayoffTable2(1, 2, 3, math.nan)
    with pytest.raises(InvalidTableError):
        PayoffTable2(math.inf, 2, 1, 0)
    with pytest.raises(InvalidTableError):
        PayoffTable3(1, 2, 3, 4, 5, math.nan)


def test_table_roundtrip_and_transforms():
    t = PayoffTable2(9, 8, 5, 2)
    assert PayoffTable2.from_dict(t.to_dict()) == t
    assert t.translated(10).values() == (19, 18, 15, 12)
    assert t.scaled(2).values() == (18, 16, 10, 4)
    t3 = PayoffTable3(10, 8, 7, 5, 4, 2)
    assert PayoffTable3.from_dict(t3.to_dict()) == t3


def test_asymmetric_table_sides():
    at = AsymmetricTable2(10, 7, 5, 1, 9, 8, 5, 2)
    assert at.side_x().values() == (10, 7, 5, 1)
    assert at.side_y().values() == (9, 8, 5, 2)
    rebuilt = AsymmetricTable2.from_tables(at.side_x(), at.side_y())
    assert rebuilt == at


def test_payoff_scale():
    assert payoff_scale((9, 8, 5, 2)) == 7.0
    assert payoff_scale((3, 3, 3, 3)) == 0.0
    with pytest.raises(DomainError, match=r"^payoff scale inf \(max - min\) overflows float64$"):
        payoff_scale((1e308, -1e308))


# ------------------------------------------------ no function takes a policy


def test_no_public_callable_takes_a_policy_and_no_command_a_tolerance(capsys, tmp_path):
    # the oracles stop on one fixed relative rule, and the solvers read no
    # tolerance, so neither the library nor the CLI offers one
    for name in ("NumericPolicy", "DEFAULT_POLICY"):
        with pytest.raises(AttributeError):
            getattr(cooprob, name)
    for module in cooprob._EXPORTS:
        if module == "errors":  # exception classes, which take a message
            continue
        mod = importlib.import_module(f"cooprob.{module}")
        # every public callable the module defines, exported or not, such as
        # the oracles iterate3, iterate2_limits and iterate3_limits
        for name, fn in vars(mod).items():
            if not name.startswith("_") and callable(fn) and getattr(fn, "__module__", None) == mod.__name__:
                assert "policy" not in inspect.signature(fn).parameters, f"{module}.{name}"
    (tmp_path / "tables.json").write_text(json.dumps([{
        "name": "pd", "players": 2, "table": dict(zip("abcd", (9, 8, 5, 2))),
        "target": {"p": 0.63, "mu": 1.0, "p_tol": 0.01, "mu_tol": 0.05},
    }]))
    commands = [
        ("classify", "--table", "9,8,5,2"),
        *[("estimate", "--table", "9,8,5,2", "--method", m) for m in ("balanced", "maximin", "payoff-max", "oracle")],
        ("estimate3", "--table", "10,8,7,5,4,2"),
        ("asym", "--table", "10,7,5,1,9,8,5,2"),
        ("equiprob", "--table", "9,8,5,2"),
        ("app", "diner", "--r", "4", "--s", "3.5", "--u", "1.5", "--w", "1", "--n", "2"),
        ("app", "public-goods", "--r", "100", "--k", "1.5", "--options", "4"),
        ("app", "traveler", "--max", "4", "--min", "2", "--bonus", "2", "--steps", "2"),
        ("app", "attrition", "--x", "2", "--max-bid", "4"),
        ("verify", "--file", str(tmp_path / "tables.json")),
    ]
    for command in commands:
        assert main(list(command)) == 0, command
        capsys.readouterr()
        for flag in ("--policy-tol", "--policy-eps"):
            for argv in ([*command, f"{flag}=1e-3"], [f"{flag}=1e-3", *command]):
                assert main(argv) == 64, argv
                assert f"unrecognized arguments: {flag}" in capsys.readouterr().err, argv


def test_no_solver_reads_a_tolerance():
    # among several attracting roots the core follows the orbit from 1/2
    # only to a root it already found, with its own two constants
    solvers = (balanced_p3, balanced_pn, diner_p, diner_conjecture_test, verify_table,
               nplayer._balance_root, nplayer._ladder_root)
    for fn in solvers:
        assert "policy" not in inspect.signature(fn).parameters, fn.__name__
    assert "keep" not in inspect.signature(iteration._fixed_point).parameters
    tree = ast.parse(inspect.getsource(nplayer))
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "iteration" not in imported and "NumericPolicy" not in vars(nplayer)
    assert "weights3" not in iteration.__all__ and callable(iteration.weights3)


def test_the_closed_forms_take_no_policy_and_no_class():
    closed = (balanced_p, _balanced_p_batch, balanced_p_asym, traveler_pij, traveler_distribution,
              traveler_mean, attrition_pij, attrition_distribution, balance_search)
    for fn in closed:
        assert "policy" not in inspect.signature(fn).parameters, fn.__name__
    for fn in (iterate2, phi_chi):
        assert "game_class" not in inspect.signature(fn).parameters, fn.__name__
    assert [f.name for f in dataclasses.fields(Estimate)] == ["p", "method", "class_used", "roots"]
    est = Estimate(0.1, "balanced", classify2(PayoffTable2(9, 8, 5, 2)))
    assert est.q == 1.0 - 0.1
    with pytest.raises(dataclasses.FrozenInstanceError):
        est.q = 0.5
