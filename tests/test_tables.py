"""Classification, table containers, and the numeric policy."""

import math

import pytest

from cooprob import (
    AsymmetricTable2,
    DomainError,
    GameTag,
    InvalidTableError,
    NumericPolicy,
    PayoffTable2,
    PayoffTable3,
    classify2,
    classify3,
    payoff_scale,
)


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


def test_numeric_policy_defaults_and_validation():
    policy = NumericPolicy()
    assert policy.eps_root == 1e-9
    assert policy.fp_tol == 1e-12
    assert policy.fp_max_iter == 10**6
    with pytest.raises(Exception):
        NumericPolicy(eps_root=-1.0)
