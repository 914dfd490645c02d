"""Table balancing: verify payoff tables against design targets and move a
2x2 table to a target (p, mu): by a least-norm solve of the two target
equations, and by greedy coordinate search where that solve misses. The
solve and the search measure each table with the rule of
:func:`verify_table` (``_measure`` and ``_report``)."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import CooprobError, DomainError, InvalidTableError, UnsupportedClassError
from .estimators import _END_WEIGHTS, _balance2, _mu2
from .nplayer import balanced_p3, expected_payoff3
from .tables import GameClass, PayoffTable2, PayoffTable3, _class2, classify2

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


@dataclass(frozen=True, init=False)
class VerificationReport:
    """Computed behavior of a table next to its target."""

    game_class: GameClass
    p_computed: float
    mu_computed: float
    delta_p: float
    delta_mu: float
    passed: bool

    def __init__(
        self, game_class: GameClass, p_computed: float, mu_computed: float,
        delta_p: float, delta_mu: float, passed: bool,
    ) -> None:
        v = self.__dict__
        v["game_class"], v["p_computed"], v["mu_computed"] = game_class, p_computed, mu_computed
        v["delta_p"], v["delta_mu"], v["passed"] = delta_p, delta_mu, passed


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a balance search.

    ``stalled`` is set when no class-preserving neighbor improved the
    objective before the target was met. An answer from the solve has
    ``iterations`` 0 and ``stalled`` False.
    """

    table: PayoffTable2
    report: VerificationReport
    met_target: bool
    stalled: bool
    iterations: int


def verify_table(table: PayoffTable2 | PayoffTable3, target: BalanceTarget) -> VerificationReport:
    """Compute (p, mu) for the table and compare against the target."""
    if isinstance(table, PayoffTable3):
        est = balanced_p3(table)
        return _report(est.class_used, est.p, expected_payoff3(table, est.p), target)
    cls = classify2(table)
    return _report(cls, *_measure(cls.tag, table.values()), target)


def _measure(tag, values) -> tuple[float, float]:
    """(p, mu) of the 2x2 payoffs ``values`` under class ``tag``: the rules of
    :func:`balanced_p` and :func:`expected_payoff2`, raising as balanced_p
    does. The one measurement that verify_table, the solve and the search
    loop make."""
    p = _balance2(tag, values)[0]
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"estimate p={p!r} outside [0, 1]")
    return p, _mu2(p, *values)


def _report(game_class: GameClass, p: float, mu: float, target: BalanceTarget) -> VerificationReport:
    """The report of a table of class ``game_class`` measured at (p, mu)."""
    dp, dmu = p - target.p, mu - target.mu
    passed = abs(dp) <= target.p_tol and abs(dmu) <= target.mu_tol
    return VerificationReport(game_class, p, mu, dp, dmu, passed)


def _objective(delta_p: float, delta_mu: float, target: BalanceTarget) -> float:
    try:
        return (delta_p / target.p_tol) ** 2 + (delta_mu / target.mu_tol) ** 2
    except OverflowError:  # float ** raises where the square passes float64
        return math.inf


_UNITS = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


def _target_rows(tag, p):
    """The coefficients over the payoffs (a, b, c, d) of h(p) = p omega -
    q psi, the balance function of class ``tag``, and of mu at p.

    At a fixed p both are linear in the payoffs: the class's end weights
    (``_END_WEIGHTS``) are homogeneous payoff gaps, whole numbers on a unit
    payoff vector, and h = w1 p^2 + (w0 - s1) p q - s0 q^2. The rows are
    exact for a ``Fraction`` p.
    """
    q = 1 - p
    ends = _END_WEIGHTS[tag]
    h = []
    for unit in _UNITS:
        _, s0, s1, w0, w1 = map(int, ends(*unit))
        h.append(w1 * p * p + (w0 - s1) * p * q - s0 * q * q)
    return h, (p * q, p * p, q * q, p * q)


def _solve(values, tag0, target: BalanceTarget) -> SearchResult | None:
    """The table nearest to ``values`` in the 2-norm on which h(target.p) = 0
    and mu(target.p) = target.mu, as a search result, if it passes every
    rule that a search neighbour passes and meets the target; else None.

    h(p*) = 0 makes p* a balance root, not always the one the class's root
    rule picks, and rounding can miss a tolerance, so the table is measured
    as verify_table measures it.
    """
    h, m = _target_rows(tag0, target.p)
    hh = sum(x * x for x in h)
    hm = sum(x * y for x, y in zip(h, m))
    mm = sum(y * y for y in m)
    det = hh * mm - hm * hm
    if not 0.0 < det < math.inf:
        return None
    rh = -sum(x * v for x, v in zip(h, values))
    rm = target.mu - sum(y * v for y, v in zip(m, values))
    yh = (mm * rh - hm * rm) / det
    ym = (hh * rm - hm * rh) / det
    cand = tuple(v + yh * x + ym * y for v, x, y in zip(values, h, m))
    if not all(map(math.isfinite, cand)):
        return None
    cls = _class2(*cand)
    if cls.tag is not tag0:
        return None
    try:
        report = _report(cls, *_measure(tag0, cand), target)
    except CooprobError:
        return None
    if not report.passed:
        return None
    return SearchResult(PayoffTable2(*cand), report, True, False, 0)


def balance_search(
    table: PayoffTable2,
    target: BalanceTarget,
    step: float = 0.5,
    max_iters: int = 200,
    integer_mode: bool = False,
) -> SearchResult:
    """Move a 2x2 table to the target without changing its class.

    A start that misses the target is first solved for: at p = target.p,
    the balance function h(p) = p omega - q psi and mu are both linear in
    the four payoffs, so the nearest table in the 2-norm with h = 0 and
    mu = target.mu is a least-norm solve of two equations. That table is
    returned, with ``iterations`` 0 and ``stalled`` False, if it passes
    every rule a neighbour below passes and meets the target.

    Otherwise, and always in integer mode, a greedy loop runs from the
    start. Each round tries +/- step on each of the four payoffs and moves
    to the best neighbor that lowers the squared tolerance-normalized
    objective. A neighbor is skipped when a payoff is not finite, when its
    class tag differs from the starting table's, or when the solver refuses
    it (an infinite payoff scale, an ambiguous balance root). Stops on
    target met, stall, or the iteration cap. In integer mode the step is
    snapped to a whole number (at least 1); only the step is snapped, so a
    start with non-integer payoffs stays non-integer.

    Neighbors and the solved table are measured from their payoffs with
    the rule of :func:`verify_table`; a table is built only for the one
    returned. A table that is not a ``PayoffTable2`` raises
    ``UnsupportedClassError``; ``step`` must be finite and positive and
    ``max_iters`` an int of at least 1, or ``DomainError`` is raised.
    """
    if not isinstance(table, PayoffTable2):
        raise UnsupportedClassError("balance_search takes 2×2 tables")
    if step <= 0 or not math.isfinite(step):
        raise DomainError("step must be finite and positive")
    if isinstance(max_iters, bool) or not isinstance(max_iters, int) or max_iters < 1:
        raise DomainError(f"max_iters must be an int of at least 1, got {max_iters!r}")
    if integer_mode:
        step = float(max(1, round(step)))
    tag0 = classify2(table).tag
    report = start = verify_table(table, target)
    values = table.values()
    if not (report.passed or integer_mode):
        solved = _solve(values, tag0, target)
        if solved is not None:
            return solved
    best_obj = _objective(report.delta_p, report.delta_mu, target)
    iterations = 0
    stalled = False
    while iterations < max_iters and not report.passed:
        iterations += 1
        best = None
        a, b, c, d = values
        neighbours = (
            (a + step, b, c, d),
            (a - step, b, c, d),
            (a, b + step, c, d),
            (a, b - step, c, d),
            (a, b, c + step, d),
            (a, b, c - step, d),
            (a, b, c, d + step),
            (a, b, c, d - step),
        )
        for i, cand in enumerate(neighbours):
            # skipped wherever building and verifying its table would raise:
            # the moved payoff overflows, the class changes, or the
            # measurement refuses the payoffs
            if not math.isfinite(cand[i // 2]) or (cls := _class2(*cand)).tag is not tag0:
                continue
            try:
                p, mu = _measure(tag0, cand)
            except CooprobError:
                continue
            obj = _objective(p - target.p, mu - target.mu, target)
            if obj < best_obj - 1e-15:
                best_obj = obj
                best = (cand, cls, p, mu)
        if best is None:
            stalled = True
            break
        values, cls, p, mu = best
        report = _report(cls, p, mu, target)
    if report is not start:
        table = PayoffTable2(*values)
    return SearchResult(table, report, report.passed, stalled, iterations)


@dataclass(frozen=True)
class TableEntry:
    """One record of a tables file: a named table plus its target."""

    name: str
    players: int
    table: PayoffTable2 | PayoffTable3
    target: BalanceTarget


_TABLE_CLASSES = {2: PayoffTable2, 3: PayoffTable3}


def _entry_numbers(pos: int, what: str, data, cls) -> list[float]:
    """The values in ``data``, the table or target of entry ``pos``, of the
    fields of ``cls``, as floats; ``InvalidTableError`` names the entry and
    the key of the first that is missing or not a number."""
    if not isinstance(data, dict):
        raise InvalidTableError(f"entry {pos}: {what} must be an object, got {type(data).__name__}")
    numbers = []
    for key in (f.name for f in fields(cls)):
        if key not in data:
            raise InvalidTableError(f"entry {pos} {what} missing {key!r}")
        try:
            numbers.append(float(data[key]))
        except (TypeError, ValueError):
            raise InvalidTableError(f"entry {pos} {what} {key!r}: {data[key]!r} is not a number") from None
    return numbers


def load_table_entries(source: str | Path) -> list[TableEntry]:
    """Parse a tables file: a JSON array of
    {"name", "players": 2|3, "table": {...}, "target": {p, mu, p_tol, mu_tol}}.

    Every field is checked: a malformed entry raises ``InvalidTableError``
    (or ``DomainError`` for a target out of range), naming the entry and,
    where one is at fault, the key.
    """
    import json  # here, not at module level: importing cooprob loads no json

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
            players = item["players"]
            table_data = item["table"]
            target_data = item["target"]
        except KeyError as exc:
            raise InvalidTableError(f"entry {pos} missing key {exc.args[0]!r}") from exc
        # 2.0 counts as 2; a string, a bool or 2.5 is no player count
        if type(players) not in (int, float) or players not in _TABLE_CLASSES:
            raise InvalidTableError(f"entry {pos}: players must be 2 or 3, got {players!r}")
        players = int(players)
        table_cls = _TABLE_CLASSES[players]
        table = table_cls(*_entry_numbers(pos, "table", table_data, table_cls))
        target = BalanceTarget(*_entry_numbers(pos, "target", target_data, BalanceTarget))
        entries.append(TableEntry(name=name, players=players, table=table, target=target))
    return entries
