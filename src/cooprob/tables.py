"""Core domain types: payoff tables, game classification, estimates.

Two-player symmetric games are described by four payoffs seen from the row
player: ``a`` (defect against a cooperator), ``b`` (mutual cooperation),
``c`` (mutual defection), ``d`` (cooperate against a defector). Three-player
symmetric games use six payoffs ``f > g > h > j > k > m`` ordered by how
favorable the outcome is: ``f`` defect vs two cooperators, ``g`` all
cooperate, ``h`` defect vs one cooperator, ``j`` cooperate vs one defector,
``k`` all defect, ``m`` cooperate vs two defectors.

Classification tags a table with the conventional dilemma family based on
strict payoff orderings; designated weak inequalities are admitted and
recorded as boundary flags (for example ``c=d``).
"""

from __future__ import annotations

import enum
import functools
from dataclasses import astuple, dataclass, field, fields
from math import isfinite

from .errors import DomainError, InvalidTableError

__all__ = [
    "GameTag",
    "GameClass",
    "PayoffTable2",
    "PayoffTable3",
    "AsymmetricTable2",
    "Estimate",
    "classify2",
    "classify3",
    "payoff_scale",
]


class GameTag(enum.Enum):
    """Conventional 2x2 dilemma families plus a catch-all."""

    PRISONERS_DILEMMA = "prisoners-dilemma"
    CHICKEN = "chicken"
    BATTLE_OF_SEXES = "battle-of-sexes"
    STAG_HUNT = "stag-hunt"
    TRANSLATORS = "translators"
    UNCLASSIFIED = "unclassified"


@dataclass(frozen=True)
class GameClass:
    """Classification result: a tag plus any boundary equalities hit.

    ``boundary_flags`` holds strings like ``"c=d"`` recording which weak
    inequality in the matched ordering held with equality. Equality is
    tested exactly; numeric tolerances apply to computed coefficients, not
    to user-supplied payoffs.
    """

    tag: GameTag
    boundary_flags: frozenset[str] = field(default_factory=frozenset)

    @property
    def is_boundary(self) -> bool:
        return bool(self.boundary_flags)


def _check_payoffs(table, values) -> None:
    """Check the payoffs ``values`` of ``table`` in field order: each must
    convert with float() and be finite. Raises for the first that does not.

    The table classes convert and test all their payoffs at once and fall
    back to this loop only on failure, so an error names the first bad payoff.
    """
    for f, value in zip(fields(table), values):
        value = float(value)
        if not isfinite(value):
            raise InvalidTableError(f"payoff {f.name} must be finite, got {value!r}")


class _DictCodec:
    """``to_dict`` and ``from_dict`` of a table class: its payoffs keyed by
    field name, in field order."""

    def to_dict(self) -> dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict):
        try:
            return cls(*[data[f.name] for f in fields(cls)])
        except KeyError as exc:
            raise InvalidTableError(f"missing payoff key {exc.args[0]!r}") from exc


@dataclass(frozen=True, init=False)
class PayoffTable2(_DictCodec):
    """Symmetric two-player payoff table (a, b, c, d)."""

    a: float
    b: float
    c: float
    d: float

    def __init__(self, a: float, b: float, c: float, d: float) -> None:
        v = self.__dict__
        try:
            v["a"], v["b"], v["c"], v["d"] = float(a), float(b), float(c), float(d)
        except (TypeError, ValueError, OverflowError):
            _check_payoffs(self, (a, b, c, d))
            raise
        self.__post_init__()

    def __post_init__(self) -> None:
        if not (isfinite(self.a) and isfinite(self.b) and isfinite(self.c) and isfinite(self.d)):
            _check_payoffs(self, astuple(self))

    def values(self) -> tuple[float, float, float, float]:
        return (self.a, self.b, self.c, self.d)

    def translated(self, offset: float) -> "PayoffTable2":
        return PayoffTable2(self.a + offset, self.b + offset, self.c + offset, self.d + offset)

    def scaled(self, factor: float) -> "PayoffTable2":
        if factor <= 0:
            raise DomainError("scale factor must be positive")
        return PayoffTable2(self.a * factor, self.b * factor, self.c * factor, self.d * factor)


@dataclass(frozen=True, init=False)
class PayoffTable3(_DictCodec):
    """Symmetric three-player payoff table (f, g, h, j, k, m)."""

    f: float
    g: float
    h: float
    j: float
    k: float
    m: float

    def __init__(self, f: float, g: float, h: float, j: float, k: float, m: float) -> None:
        v = self.__dict__
        try:
            v["f"], v["g"], v["h"], v["j"], v["k"], v["m"] = (
                float(f), float(g), float(h), float(j), float(k), float(m)
            )
        except (TypeError, ValueError, OverflowError):
            _check_payoffs(self, (f, g, h, j, k, m))
            raise
        self.__post_init__()

    def __post_init__(self) -> None:
        if not (
            isfinite(self.f) and isfinite(self.g) and isfinite(self.h)
            and isfinite(self.j) and isfinite(self.k) and isfinite(self.m)
        ):
            _check_payoffs(self, astuple(self))

    def values(self) -> tuple[float, ...]:
        return (self.f, self.g, self.h, self.j, self.k, self.m)


@dataclass(frozen=True, init=False)
class AsymmetricTable2(_DictCodec):
    """Two-player game with a distinct table per side (x and y)."""

    ax: float
    bx: float
    cx: float
    dx: float
    ay: float
    by: float
    cy: float
    dy: float

    def __init__(
        self, ax: float, bx: float, cx: float, dx: float, ay: float, by: float, cy: float, dy: float
    ) -> None:
        v = self.__dict__
        try:
            v["ax"], v["bx"], v["cx"], v["dx"], v["ay"], v["by"], v["cy"], v["dy"] = (
                float(ax), float(bx), float(cx), float(dx), float(ay), float(by), float(cy), float(dy)
            )
        except (TypeError, ValueError, OverflowError):
            _check_payoffs(self, (ax, bx, cx, dx, ay, by, cy, dy))
            raise
        self.__post_init__()

    def __post_init__(self) -> None:
        if not (
            isfinite(self.ax) and isfinite(self.bx) and isfinite(self.cx) and isfinite(self.dx)
            and isfinite(self.ay) and isfinite(self.by) and isfinite(self.cy) and isfinite(self.dy)
        ):
            _check_payoffs(self, astuple(self))

    def side_x(self) -> PayoffTable2:
        return PayoffTable2(self.ax, self.bx, self.cx, self.dx)

    def side_y(self) -> PayoffTable2:
        return PayoffTable2(self.ay, self.by, self.cy, self.dy)

    @classmethod
    def from_tables(cls, x: PayoffTable2, y: PayoffTable2) -> "AsymmetricTable2":
        return cls(x.a, x.b, x.c, x.d, y.a, y.b, y.c, y.d)


@dataclass(frozen=True, init=False)
class Estimate:
    """A cooperation-probability estimate.

    ``q`` is derived from p: it reads ``1 - p``. ``roots`` carries the
    balance roots, ascending. The n-player solvers list every root in [0, 1]
    that the balance core found, p among them; ``balanced_p`` lists both
    real roots of its quadratic, also those outside [0, 1], or (p,) where
    the quadratic is linear.
    """

    p: float
    method: str
    class_used: GameClass
    roots: tuple[float, ...] = ()

    def __init__(self, p: float, method: str, class_used: GameClass, roots: tuple[float, ...] = ()) -> None:
        if not (0.0 <= p <= 1.0):
            raise DomainError(f"estimate p={p!r} outside [0, 1]")
        v = self.__dict__
        v["p"], v["method"], v["class_used"], v["roots"] = p, method, class_used, roots

    @property
    def q(self) -> float:
        return 1.0 - self.p


def payoff_scale(values: tuple[float, ...]) -> float:
    """Largest absolute pairwise payoff difference (max minus min); DomainError
    where it overflows float64."""
    scale = max(values) - min(values)
    if not isfinite(scale):
        raise DomainError(f"payoff scale {scale!r} (max - min) overflows float64")
    return scale


# the results of classify2: GameClass is immutable, so one instance per tag
# and boundary flag serves every table
_PD = GameClass(GameTag.PRISONERS_DILEMMA)
_PD_CD = GameClass(GameTag.PRISONERS_DILEMMA, frozenset({"c=d"}))
_CHICKEN = GameClass(GameTag.CHICKEN)
_BOS = GameClass(GameTag.BATTLE_OF_SEXES)
_BOS_BC = GameClass(GameTag.BATTLE_OF_SEXES, frozenset({"b=c"}))
_STAG = GameClass(GameTag.STAG_HUNT)
_STAG_AC = GameClass(GameTag.STAG_HUNT, frozenset({"a=c"}))
_TRANS = GameClass(GameTag.TRANSLATORS)
_TRANS_BC = GameClass(GameTag.TRANSLATORS, frozenset({"b=c"}))
_UNCLASSIFIED = GameClass(GameTag.UNCLASSIFIED)


def classify2(table: PayoffTable2) -> GameClass:
    """Classify a two-player table by strict payoff ordering.

    Orderings, in precedence order (equality permitted only where shown,
    recorded as a boundary flag):

    * PrisonersDilemma: ``a > b > c >= d``
    * Chicken:          ``a > b > d > c`` (``c = d`` resolves to PD)
    * BattleOfSexes:    ``a > d > c >= b``
    * StagHunt:         ``b > a >= c > d``
    * Translators:      ``a > c >= b > d``

    Anything else is Unclassified. Comparisons are exact; no epsilon is
    applied to user-supplied payoffs. Equal results are one shared instance.
    """
    return _class2(table.a, table.b, table.c, table.d)


def _class2(a: float, b: float, c: float, d: float) -> GameClass:
    """:func:`classify2` from the four payoffs alone."""
    if a > b > c >= d:
        return _PD_CD if c == d else _PD
    if a > b > d > c:
        return _CHICKEN
    if a > d > c >= b:
        return _BOS_BC if b == c else _BOS
    if b > a >= c > d:
        return _STAG_AC if a == c else _STAG
    if a > c >= b > d:
        return _TRANS_BC if b == c else _TRANS
    return _UNCLASSIFIED


_STEPS3 = ("f=g", "g=h", "h=j", "j=k", "k=m")


def classify3(table: PayoffTable3) -> GameClass:
    """Classify a three-player table.

    The dilemma chain ``f > g > h > j > k > m`` may hold with equality at
    any adjacent step; every equality hit is recorded as a boundary flag
    (for example ``j=k``). A chain violation yields Unclassified. Equal
    results are one shared instance.
    """
    vals = table.values()
    flags = []
    for flag, v1, v2 in zip(_STEPS3, vals, vals[1:]):
        if v1 < v2:
            return _UNCLASSIFIED
        if v1 == v2:
            flags.append(flag)
    return _dilemma3(tuple(flags))


@functools.cache
def _dilemma3(flags: tuple[str, ...]) -> GameClass:
    """The PrisonersDilemma class with ``flags``, one instance per flag tuple
    (at most 32, in chain order)."""
    return GameClass(GameTag.PRISONERS_DILEMMA, frozenset(flags))
