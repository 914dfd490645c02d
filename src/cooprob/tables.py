"""Core domain types: payoff tables, game classification, numeric policy.

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
import math
from dataclasses import dataclass, field

from .errors import DomainError, InvalidTableError

__all__ = [
    "GameTag",
    "GameClass",
    "PayoffTable2",
    "PayoffTable3",
    "AsymmetricTable2",
    "NumericPolicy",
    "DEFAULT_POLICY",
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


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise InvalidTableError(f"payoff {name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class PayoffTable2:
    """Symmetric two-player payoff table (a, b, c, d)."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self) -> None:
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, _require_finite(name, getattr(self, name)))

    def values(self) -> tuple[float, float, float, float]:
        return (self.a, self.b, self.c, self.d)

    def translated(self, offset: float) -> "PayoffTable2":
        return PayoffTable2(self.a + offset, self.b + offset, self.c + offset, self.d + offset)

    def scaled(self, factor: float) -> "PayoffTable2":
        if factor <= 0:
            raise DomainError("scale factor must be positive")
        return PayoffTable2(self.a * factor, self.b * factor, self.c * factor, self.d * factor)

    def to_dict(self) -> dict[str, float]:
        return {"a": self.a, "b": self.b, "c": self.c, "d": self.d}

    @classmethod
    def from_dict(cls, data: dict) -> "PayoffTable2":
        try:
            return cls(data["a"], data["b"], data["c"], data["d"])
        except KeyError as exc:
            raise InvalidTableError(f"missing payoff key {exc.args[0]!r}") from exc


@dataclass(frozen=True)
class PayoffTable3:
    """Symmetric three-player payoff table (f, g, h, j, k, m)."""

    f: float
    g: float
    h: float
    j: float
    k: float
    m: float

    def __post_init__(self) -> None:
        for name in ("f", "g", "h", "j", "k", "m"):
            object.__setattr__(self, name, _require_finite(name, getattr(self, name)))

    def values(self) -> tuple[float, ...]:
        return (self.f, self.g, self.h, self.j, self.k, self.m)

    def to_dict(self) -> dict[str, float]:
        return {"f": self.f, "g": self.g, "h": self.h, "j": self.j, "k": self.k, "m": self.m}

    @classmethod
    def from_dict(cls, data: dict) -> "PayoffTable3":
        try:
            return cls(data["f"], data["g"], data["h"], data["j"], data["k"], data["m"])
        except KeyError as exc:
            raise InvalidTableError(f"missing payoff key {exc.args[0]!r}") from exc


@dataclass(frozen=True)
class AsymmetricTable2:
    """Two-player game with a distinct table per side (x and y)."""

    ax: float
    bx: float
    cx: float
    dx: float
    ay: float
    by: float
    cy: float
    dy: float

    def __post_init__(self) -> None:
        for name in ("ax", "bx", "cx", "dx", "ay", "by", "cy", "dy"):
            object.__setattr__(self, name, _require_finite(name, getattr(self, name)))

    def side_x(self) -> PayoffTable2:
        return PayoffTable2(self.ax, self.bx, self.cx, self.dx)

    def side_y(self) -> PayoffTable2:
        return PayoffTable2(self.ay, self.by, self.cy, self.dy)

    @classmethod
    def from_tables(cls, x: PayoffTable2, y: PayoffTable2) -> "AsymmetricTable2":
        return cls(x.a, x.b, x.c, x.d, y.a, y.b, y.c, y.d)

    def to_dict(self) -> dict[str, float]:
        return {
            "ax": self.ax, "bx": self.bx, "cx": self.cx, "dx": self.dx,
            "ay": self.ay, "by": self.by, "cy": self.cy, "dy": self.dy,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AsymmetricTable2":
        try:
            return cls(*(data[k] for k in ("ax", "bx", "cx", "dx", "ay", "by", "cy", "dy")))
        except KeyError as exc:
            raise InvalidTableError(f"missing payoff key {exc.args[0]!r}") from exc


@dataclass(frozen=True)
class NumericPolicy:
    """Stop rule of the fixed-point oracles (``iterate2``, ``iterate3``,
    ``iterate_asym``, ``iterate2_limits``, ``iterate3_limits``): a step of at
    most ``fp_tol`` has converged, and ``fp_max_iter`` steps are the most
    taken. No solver takes a policy (see ``nplayer._orbit_root``)."""

    fp_tol: float = 1e-12
    fp_max_iter: int = 10**6

    def __post_init__(self) -> None:
        if not (self.fp_tol > 0 and math.isfinite(self.fp_tol)):
            raise DomainError("fp_tol must be finite and positive")
        if self.fp_max_iter < 1:
            raise DomainError("fp_max_iter must be at least 1")


DEFAULT_POLICY = NumericPolicy()


@dataclass(frozen=True)
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

    def __post_init__(self) -> None:
        if not (0.0 <= self.p <= 1.0):
            raise DomainError(f"estimate p={self.p!r} outside [0, 1]")

    @property
    def q(self) -> float:
        return 1.0 - self.p


def payoff_scale(values: tuple[float, ...]) -> float:
    """Largest absolute pairwise payoff difference (max minus min); DomainError
    where it overflows float64."""
    scale = max(values) - min(values)
    if not math.isfinite(scale):
        raise DomainError(f"payoff scale {scale!r} (max - min) overflows float64")
    return scale


def _tag2(a: float, b: float, c: float, d: float) -> GameTag:
    """The class tag of :func:`classify2`, from the four payoffs alone."""
    if a > b > c >= d:
        return GameTag.PRISONERS_DILEMMA
    if a > b > d > c:
        return GameTag.CHICKEN
    if a > d > c >= b:
        return GameTag.BATTLE_OF_SEXES
    if b > a >= c > d:
        return GameTag.STAG_HUNT
    if a > c >= b > d:
        return GameTag.TRANSLATORS
    return GameTag.UNCLASSIFIED


# per tag, the weak inequality of its ordering, named as the boundary flag
# it records when it holds with equality
_WEAK2 = {
    GameTag.PRISONERS_DILEMMA: "c=d",
    GameTag.BATTLE_OF_SEXES: "b=c",
    GameTag.STAG_HUNT: "a=c",
    GameTag.TRANSLATORS: "b=c",
}
_NO_FLAGS: frozenset[str] = frozenset()


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
    applied to user-supplied payoffs.
    """
    tag = _tag2(table.a, table.b, table.c, table.d)
    flag = _WEAK2.get(tag)
    if flag is not None and getattr(table, flag[0]) == getattr(table, flag[2]):
        return GameClass(tag, frozenset({flag}))
    return GameClass(tag, _NO_FLAGS)


def classify3(table: PayoffTable3) -> GameClass:
    """Classify a three-player table.

    The dilemma chain ``f > g > h > j > k > m`` may hold with equality at
    any adjacent step; every equality hit is recorded as a boundary flag
    (for example ``j=k``). A chain violation yields Unclassified.
    """
    names = ("f", "g", "h", "j", "k", "m")
    vals = table.values()
    flags = set()
    for (n1, v1), (n2, v2) in zip(zip(names, vals), zip(names[1:], vals[1:])):
        if v1 < v2:
            return GameClass(GameTag.UNCLASSIFIED)
        if v1 == v2:
            flags.add(f"{n1}={n2}")
    return GameClass(GameTag.PRISONERS_DILEMMA, frozenset(flags))
