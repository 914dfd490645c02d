"""Table balancing: verify payoff tables against design targets and nudge
them toward a target (p, mu) by greedy coordinate search."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import CooprobError, DomainError, InvalidTableError
from .estimators import _balance2, _mu2, balanced_p, expected_payoff2
from .nplayer import balanced_p3, expected_payoff3
from .tables import (
    DEFAULT_POLICY,
    GameClass,
    NumericPolicy,
    PayoffTable2,
    PayoffTable3,
    _tag2,
    classify2,
)

__all__ = [
    "BalanceTarget",
    "VerificationReport",
    "SearchResult",
    "TableEntry",
    "verify_table",
    "balance_search",
    "load_table_entries",
]


@dataclass(frozen=True)
class BalanceTarget:
    """Design target: cooperation probability and expected payoff, each with
    an absolute tolerance."""

    p: float
    mu: float
    p_tol: float
    mu_tol: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.p <= 1.0):
            raise DomainError(f"target p={self.p!r} outside [0, 1]")
        if not (math.isfinite(self.mu)):
            raise DomainError("target mu must be finite")
        if not (self.p_tol > 0 and self.mu_tol > 0):
            raise DomainError("tolerances must be positive")


@dataclass(frozen=True)
class VerificationReport:
    """Computed behavior of a table next to its target."""

    game_class: GameClass
    p_computed: float
    mu_computed: float
    delta_p: float
    delta_mu: float
    passed: bool


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a greedy balance search.

    ``stalled`` is set when no class-preserving neighbor improved the
    objective before the target was met.
    """

    table: PayoffTable2
    report: VerificationReport
    met_target: bool
    stalled: bool
    iterations: int


def verify_table(
    table: PayoffTable2 | PayoffTable3,
    target: BalanceTarget,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> VerificationReport:
    """Compute (p, mu) for the table and compare against the target."""
    if isinstance(table, PayoffTable3):
        est = balanced_p3(table, policy)
        mu = expected_payoff3(table, est.p)
    else:
        est = balanced_p(table, policy)
        mu = expected_payoff2(table, est.p)
    dp = est.p - target.p
    dmu = mu - target.mu
    passed = abs(dp) <= target.p_tol and abs(dmu) <= target.mu_tol
    return VerificationReport(
        game_class=est.class_used,
        p_computed=est.p,
        mu_computed=mu,
        delta_p=dp,
        delta_mu=dmu,
        passed=passed,
    )


def _objective(delta_p: float, delta_mu: float, target: BalanceTarget) -> float:
    try:
        return (delta_p / target.p_tol) ** 2 + (delta_mu / target.mu_tol) ** 2
    except OverflowError:  # float ** raises where the square passes float64
        return math.inf


def balance_search(
    table: PayoffTable2,
    target: BalanceTarget,
    step: float = 0.5,
    max_iters: int = 200,
    integer_mode: bool = False,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> SearchResult:
    """Greedily perturb payoffs toward the target without changing class.

    Each round tries +/- step on each of the four payoffs and moves to the
    best neighbor that lowers the squared tolerance-normalized objective.
    A neighbor is skipped when a payoff is not finite, when its class tag
    differs from the starting table's, or when the solver refuses it (an
    infinite payoff scale, an ambiguous balance root). Stops on target met,
    stall, or the iteration cap. In integer mode the step is snapped to a
    whole number (at least 1); only the step is snapped, so a start with
    non-integer payoffs stays non-integer.

    Neighbors are scored from their payoffs with the rules that
    :func:`verify_table` runs; the table and report are built only for the
    table returned.
    """
    if step <= 0 or not math.isfinite(step):
        raise DomainError("step must be finite and positive")
    if max_iters < 1:
        raise DomainError("max_iters must be at least 1")
    if integer_mode:
        step = float(max(1, round(step)))
    tag0 = classify2(table).tag
    report = verify_table(table, target, policy)
    values = table.values()
    passed = report.passed
    best_obj = _objective(report.delta_p, report.delta_mu, target)
    moved = False
    iterations = 0
    stalled = False
    while iterations < max_iters and not passed:
        iterations += 1
        best_neighbor = None
        for i in range(4):
            for sign in (1.0, -1.0):
                cand = list(values)
                cand[i] += sign * step
                # skipped wherever building and verifying its table would raise:
                # a payoff overflows, the class changes, the solver refuses
                # the payoffs, or p leaves [0, 1]
                if not math.isfinite(cand[i]) or _tag2(*cand) is not tag0:
                    continue
                try:
                    p = _balance2(tag0, cand)[0]
                except CooprobError:
                    continue
                if not 0.0 <= p <= 1.0:
                    continue
                dp = p - target.p
                dmu = _mu2(p, *cand) - target.mu
                obj = _objective(dp, dmu, target)
                if obj < best_obj - 1e-15:
                    best_obj = obj
                    best_neighbor = (cand, dp, dmu)
        if best_neighbor is None:
            stalled = True
            break
        values, dp, dmu = best_neighbor
        passed = abs(dp) <= target.p_tol and abs(dmu) <= target.mu_tol
        moved = True
    if moved:
        table = PayoffTable2(*values)
        report = verify_table(table, target, policy)
    return SearchResult(table, report, report.passed, stalled, iterations)


@dataclass(frozen=True)
class TableEntry:
    """One record of a tables file: a named table plus its target."""

    name: str
    players: int
    table: PayoffTable2 | PayoffTable3
    target: BalanceTarget


def load_table_entries(source: str | Path) -> list[TableEntry]:
    """Parse a tables file: a JSON array of
    {"name", "players": 2|3, "table": {...}, "target": {p, mu, p_tol, mu_tol}}.
    """
    text = Path(source).read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidTableError(f"tables file is not valid JSON: {exc}") from exc
    if not isinstance(data, list):
        raise InvalidTableError("tables file must hold a JSON array")
    entries: list[TableEntry] = []
    for pos, item in enumerate(data):
        if not isinstance(item, dict):
            raise InvalidTableError(f"entry {pos} is not an object")
        try:
            name = str(item["name"])
            players = int(item["players"])
            table_data = item["table"]
            target_data = item["target"]
        except KeyError as exc:
            raise InvalidTableError(f"entry {pos} missing key {exc.args[0]!r}") from exc
        if players == 2:
            table: PayoffTable2 | PayoffTable3 = PayoffTable2.from_dict(table_data)
        elif players == 3:
            table = PayoffTable3.from_dict(table_data)
        else:
            raise InvalidTableError(f"entry {pos}: players must be 2 or 3, got {players}")
        try:
            target = BalanceTarget(
                p=float(target_data["p"]),
                mu=float(target_data["mu"]),
                p_tol=float(target_data["p_tol"]),
                mu_tol=float(target_data["mu_tol"]),
            )
        except KeyError as exc:
            raise InvalidTableError(f"entry {pos} target missing {exc.args[0]!r}") from exc
        entries.append(TableEntry(name=name, players=players, table=table, target=target))
    return entries
