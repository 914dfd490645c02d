"""The value classes keep their dataclass contract, and classification hands
out one shared GameClass per result."""

import copy
import dataclasses
import itertools
import math
import pickle

import numpy as np
import pytest

from cooprob import (
    AsymmetricTable2,
    DomainError,
    Estimate,
    EquiprobabilityReport,
    GameClass,
    GameTag,
    InvalidTableError,
    Leaning,
    MaximinResult,
    PayoffTable2,
    PayoffTable3,
    VerificationReport,
    classify2,
    classify3,
)

PD = GameClass(GameTag.PRISONERS_DILEMMA)
EST = Estimate(0.25, "balanced", PD, (0.25,))

# (class, integer arguments, the repr of the instance built from them)
CASES = [
    (PayoffTable2, (9, 8, 5, 2), "PayoffTable2(a=9.0, b=8.0, c=5.0, d=2.0)"),
    (PayoffTable3, (10, 8, 7, 5, 4, 2), "PayoffTable3(f=10.0, g=8.0, h=7.0, j=5.0, k=4.0, m=2.0)"),
    (
        AsymmetricTable2,
        (10, 7, 5, 1, 9, 8, 5, 2),
        "AsymmetricTable2(ax=10.0, bx=7.0, cx=5.0, dx=1.0, ay=9.0, by=8.0, cy=5.0, dy=2.0)",
    ),
    (
        Estimate,
        (0, "balanced", PD, (0, 1)),
        "Estimate(p=0, method='balanced', class_used=GameClass(tag=<GameTag.PRISONERS_DILEMMA: "
        "'prisoners-dilemma'>, boundary_flags=frozenset()), roots=(0, 1))",
    ),
    (
        EquiprobabilityReport,
        (2, Leaning.COOPERATION),
        "EquiprobabilityReport(gap=2, verdict=<Leaning.COOPERATION: 'cooperationLeaning'>)",
    ),
    (MaximinResult, (3, EST), f"MaximinResult(value=3, estimate={EST!r}, degenerate=False)"),
    (
        VerificationReport,
        (PD, 0, 1, 0, -1, True),
        f"VerificationReport(game_class={PD!r}, p_computed=0, mu_computed=1, delta_p=0, delta_mu=-1, passed=True)",
    ),
]
FIELDS = {
    PayoffTable2: ["a", "b", "c", "d"],
    PayoffTable3: ["f", "g", "h", "j", "k", "m"],
    AsymmetricTable2: ["ax", "bx", "cx", "dx", "ay", "by", "cy", "dy"],
    Estimate: ["p", "method", "class_used", "roots"],
    EquiprobabilityReport: ["gap", "verdict"],
    MaximinResult: ["value", "estimate", "degenerate"],
    VerificationReport: ["game_class", "p_computed", "mu_computed", "delta_p", "delta_mu", "passed"],
}
TABLES = (PayoffTable2, PayoffTable3, AsymmetricTable2)
ids = [case[0].__name__ for case in CASES]


def _floats(args):
    return tuple(float(v) if isinstance(v, int) else v for v in args)


@pytest.mark.parametrize("cls, args, text", CASES, ids=ids)
def test_value_class_contract(cls, args, text):
    names = FIELDS[cls]
    assert [f.name for f in dataclasses.fields(cls)] == names
    obj = cls(*args)
    assert repr(obj) == text
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(obj, names[0], 1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(obj, names[0])
    as_floats = cls(*_floats(args))
    assert obj == as_floats and hash(obj) == hash(as_floats)
    assert cls(**dict(zip(names, args))) == obj
    for clone in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert clone == obj and repr(clone) == text and vars(clone) == vars(obj)
    moved = dataclasses.replace(obj, **{names[0]: 1})
    assert getattr(moved, names[0]) == 1 and moved != obj
    assert dataclasses.astuple(moved)[1:] == dataclasses.astuple(obj)[1:]
    assert obj != dataclasses.astuple(obj)


@pytest.mark.parametrize("cls", TABLES, ids=lambda c: c.__name__)
def test_tables_store_every_payoff_as_float(cls):
    n = len(FIELDS[cls])
    raw = [np.float32(1.5), np.int64(3), 2, True, "0.25", np.float64(-7.0)]
    args = (raw * 2)[:n]
    table = cls(*args)
    assert all(type(v) is float for v in vars(table).values())
    assert dataclasses.astuple(table) == tuple(float(v) for v in args)
    assert hash(table) == hash(cls(*map(float, args)))


@pytest.mark.parametrize("cls", TABLES, ids=lambda c: c.__name__)
def test_tables_name_the_first_non_finite_payoff(cls):
    names = FIELDS[cls]
    base = list(range(len(names), 0, -1))
    for i, name in enumerate(names):
        for bad in (math.nan, math.inf, -math.inf):
            args = list(base)
            args[i] = bad
            message = f"^payoff {name} must be finite, got {bad!r}$"
            with pytest.raises(InvalidTableError, match=message):
                cls(*args)
            with pytest.raises(InvalidTableError, match=message):
                dataclasses.replace(cls(*base), **{name: bad})
            # a later bad payoff, non-finite or not a number, is not reached
            for later in range(i + 1, len(names)):
                for worse in (math.inf, "x", None):
                    args2 = list(args)
                    args2[later] = worse
                    with pytest.raises(InvalidTableError, match=message):
                        cls(*args2)
        # an earlier payoff that is not a number raises float()'s own error
        if i:
            args = list(base)
            args[i - 1], args[i] = "x", math.nan
            with pytest.raises(ValueError, match="could not convert string to float"):
                cls(*args)


def test_estimate_keeps_its_probability_guard():
    for p in (-0.1, 1.5, math.nan, -math.inf):
        with pytest.raises(DomainError, match=r"^estimate p=.* outside \[0, 1\]$"):
            Estimate(p, "balanced", PD)
    with pytest.raises(DomainError, match=r"^estimate p=2 outside \[0, 1\]$"):
        dataclasses.replace(EST, p=2)
    assert Estimate(1, "balanced", PD).roots == ()


@pytest.mark.parametrize("cls", TABLES, ids=lambda c: c.__name__)
def test_each_table_runs_its_own_post_init_once(cls, monkeypatch):
    # bench/tracing.py wraps the class's own __post_init__ to count tables
    original = cls.__dict__["__post_init__"]
    calls = []

    def counted(self):
        calls.append(self)
        original(self)

    monkeypatch.setattr(cls, "__post_init__", counted)
    names = FIELDS[cls]
    args = tuple(range(len(names), 0, -1))
    built = [
        cls(*args),
        cls(**dict(zip(names, args))),
        cls.from_dict(dict(zip(names, args))),
        dataclasses.replace(cls(*args), **{names[0]: 99}),
    ]
    assert len(calls) == 5
    assert all(any(c is b for c in calls) for b in built)
    # a copy or an unpickled table restores the fields without validating again
    copy.copy(built[0])
    pickle.loads(pickle.dumps(built[0]))
    assert len(calls) == 5


@pytest.mark.parametrize("cls", TABLES, ids=lambda c: c.__name__)
def test_each_table_codes_its_payoffs_by_field_name(cls):
    names = FIELDS[cls]
    args = tuple(float(v) for v in range(len(names), 0, -1))
    data = cls(*args).to_dict()
    assert list(data.items()) == list(zip(names, args))
    assert cls.from_dict({**data, "extra": "ignored"}) == cls(*args)
    for gone in names[1], names[-1]:
        with pytest.raises(InvalidTableError, match=f"^missing payoff key {gone!r}$"):
            cls.from_dict({k: v for k, v in data.items() if k != gone})
    with pytest.raises(InvalidTableError, match=f"^missing payoff key {names[0]!r}$"):
        cls.from_dict({})


# ------------------------------------------------------------- classification


def _reference_class2(a, b, c, d):
    """classify2 written out: each ordering with its weak inequality."""
    orderings = [
        (GameTag.PRISONERS_DILEMMA, a > b > c >= d, "c=d", c == d),
        (GameTag.CHICKEN, a > b > d > c, None, False),
        (GameTag.BATTLE_OF_SEXES, a > d > c >= b, "b=c", b == c),
        (GameTag.STAG_HUNT, b > a >= c > d, "a=c", a == c),
        (GameTag.TRANSLATORS, a > c >= b > d, "b=c", b == c),
    ]
    for tag, holds, flag, hit in orderings:
        if holds:
            return GameClass(tag, frozenset({flag}) if hit else frozenset())
    return GameClass(GameTag.UNCLASSIFIED)


def test_classify2_is_one_shared_class_per_tag_and_flag():
    seen = {}
    for t in itertools.product(range(5), repeat=4):
        cls = classify2(PayoffTable2(*t))
        assert cls == _reference_class2(*t), t
        assert seen.setdefault(cls, cls) is cls, t
    # all 6 tags, each weak inequality both hit and missed
    assert {(c.tag, tuple(c.boundary_flags)) for c in seen} == {
        (GameTag.PRISONERS_DILEMMA, ()), (GameTag.PRISONERS_DILEMMA, ("c=d",)),
        (GameTag.CHICKEN, ()),
        (GameTag.BATTLE_OF_SEXES, ()), (GameTag.BATTLE_OF_SEXES, ("b=c",)),
        (GameTag.STAG_HUNT, ()), (GameTag.STAG_HUNT, ("a=c",)),
        (GameTag.TRANSLATORS, ()), (GameTag.TRANSLATORS, ("b=c",)),
        (GameTag.UNCLASSIFIED, ()),
    }
    for table, flags in [((2, 1, 0, 0), {"c=d"}), ((3, 0, 0, 2), {"b=c"}), ((3, 4, 3, 1), {"a=c"})]:
        assert classify2(PayoffTable2(*table)).boundary_flags == flags


def test_classify3_is_one_shared_class_per_flag_set():
    steps = ("f=g", "g=h", "h=j", "j=k", "k=m")
    seen = {}
    for t in itertools.product(range(3), repeat=6):
        pairs = list(zip(steps, t, t[1:]))
        if any(v1 < v2 for _, v1, v2 in pairs):
            want = GameClass(GameTag.UNCLASSIFIED)
        else:
            want = GameClass(GameTag.PRISONERS_DILEMMA, frozenset(s for s, v1, v2 in pairs if v1 == v2))
        cls = classify3(PayoffTable3(*t))
        assert cls == want, t
        assert seen.setdefault(cls, cls) is cls, t
    tied = classify3(PayoffTable3(10, 4, 1, -2, -2, -4))
    assert tied.boundary_flags == {"j=k"} and tied is classify3(PayoffTable3(9, 5, 3, 0, 0, -1))
