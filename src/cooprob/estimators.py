"""Two-player estimators for the balanced-player cooperation probability.

The model: a balanced player's odds of cooperating are proportional to the
cooperation weight ``phi`` (what cooperation stands to gain) and the odds of
defecting to the defection weight ``chi`` (what defection stands to gain),
both evaluated against an opponent cooperating with the same probability.
The estimate solves the proportional-balance condition

    p * (phi(p) + chi(p)) = phi(p)

whose weights depend on the game class. For the dilemma ordering
``a > b > c >= d`` the weights are ``phi = b - c`` and
``chi = p (a - b) + q (c - d)``, giving the quadratic

    p^2 (a - b - c + d) + p (b - d) + (c - b) = 0

solved on the positive branch. Coordination-flavored classes swap which
payoff comparisons feed each weight; see :func:`phi_chi`.

Baselines kept alongside the balanced estimate: maximin mixing, the
payoff-sum maximizer, and the opponent-dependent best-response threshold.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AmbiguousRootError,
    CooprobError,
    DomainError,
    InternalError,
    NoValidRootError,
    UnsupportedClassError,
)
from .tables import DEFAULT_POLICY, Estimate, GameClass, GameTag, NumericPolicy, PayoffTable2, classify2, payoff_scale

__all__ = [
    "PhiChi",
    "Leaning",
    "EquiprobabilityReport",
    "MaximinResult",
    "BestResponseThreshold",
    "Response",
    "maximin_p",
    "maximin_alt_p",
    "payoff_max_p",
    "best_response_threshold",
    "best_response",
    "phi_chi",
    "balanced_p",
    "equiprobability",
    "expected_payoff2",
]


@dataclass(frozen=True)
class PhiChi:
    """Cooperation weight and defection weight at a given p."""

    phi: float
    chi: float

    @property
    def total(self) -> float:
        return self.phi + self.chi


class Leaning(enum.Enum):
    """Direction a table pushes the balanced probability relative to 1/2."""

    COOPERATION = "cooperationLeaning"
    DEFECTION = "defectionLeaning"
    BALANCED = "balanced"


@dataclass(frozen=True)
class EquiprobabilityReport:
    """Signed distance from the p = 1/2 locus, plus its verdict."""

    gap: float
    verdict: Leaning


@dataclass(frozen=True)
class MaximinResult:
    """Raw maximin mixing value plus its validity as a probability.

    ``value`` is the unclamped formula output (``None`` when the defining
    denominator vanishes); ``estimate`` is populated only when the value is
    a probability.
    """

    value: float | None
    estimate: Estimate | None
    degenerate: bool = False

    @property
    def defined(self) -> bool:
        return self.estimate is not None


@dataclass(frozen=True)
class BestResponseThreshold:
    """Opponent cooperation level at which the payoff row goes flat.

    ``theta`` is ``None`` when the denominator (c-d)-(a-b) vanishes; then
    the row coefficient is the constant d-c and ``flat_everywhere`` reports
    whether it is identically zero.
    """

    theta: float | None
    flat_everywhere: bool = False


class Response(enum.Enum):
    COOPERATE = "cooperate"
    DEFECT = "defect"
    FLAT = "flat"


def weights2(tag: GameTag, a, b, c, d, p):
    """Class-specific (phi, chi) at cooperation level p.

    Accepts scalars or numpy arrays; every addend is nonnegative for a table
    that actually satisfies the class ordering, so phi/(phi+chi) maps [0, 1]
    into itself.
    """
    q = 1.0 - p
    if tag is GameTag.PRISONERS_DILEMMA:
        return b - c, p * (a - b) + q * (c - d)
    if tag is GameTag.TRANSLATORS:
        return 0.0 * p, (c - b) + p * (a - b) + q * (c - d)
    if tag is GameTag.STAG_HUNT:
        return (b - c) + p * (b - a), q * (c - d)
    if tag is GameTag.CHICKEN:
        return (b - c) + q * (d - c), p * (a - b)
    if tag is GameTag.BATTLE_OF_SEXES:
        return q * (d - c), (c - b) + p * (a - b)
    raise UnsupportedClassError(f"no weights defined for class {tag.value}")


def phi_chi(table: PayoffTable2, game_class: GameClass, p: float) -> PhiChi:
    """Evaluate the class-specific weights at cooperation level ``p``."""
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"p={p!r} outside [0, 1]")
    if game_class.tag is GameTag.UNCLASSIFIED:
        raise UnsupportedClassError("weights are undefined for unclassified tables")
    phi, chi = weights2(game_class.tag, table.a, table.b, table.c, table.d, p)
    return PhiChi(float(phi), float(chi))


def maximin_p(table: PayoffTable2) -> MaximinResult:
    """Mixing probability that equalizes the two guaranteed-payoff lines.

    p = (c - d) / ((c - d) - (a - b)). The raw value is reported even when
    it is not a probability (for dilemma-ordered tables it never is); it is
    marked undefined in that case rather than clamped.
    """
    a, b, c, d = table.values()
    den = (c - d) - (a - b)
    if den == 0.0:
        return MaximinResult(value=None, estimate=None, degenerate=True)
    value = (c - d) / den
    if 0.0 <= value <= 1.0:
        est = Estimate(p=value, q=1.0 - value, method="maximin", class_used=classify2(table))
        return MaximinResult(value=value, estimate=est)
    return MaximinResult(value=value, estimate=None)


def maximin_alt_p(table: PayoffTable2) -> float | None:
    """Alternate printed maximin form, kept as a separate diagnostic.

    p = (a - c) / ((a - b) - (c - d)). Disagrees with :func:`maximin_p` on
    general tables (for (3,0,0,2): 0.6 here vs 0.4 there); exposed so the
    discrepancy stays visible. ``None`` when the denominator vanishes.
    """
    a, b, c, d = table.values()
    den = (a - b) - (c - d)
    if den == 0.0:
        return None
    return (a - c) / den


def payoff_max_p(table: PayoffTable2) -> Estimate:
    """Symmetric cooperation level maximizing the mutual expected payoff.

    The payoff is quadratic in p: the maximum over [0, 1] sits at 0, 1 or
    eta = (a + d - 2c) / (2 (a - b - c + d)) when 0 < eta < 1. Ties go to
    the first of 0, 1, eta.
    """
    a, b, c, d = table.values()
    k = a - b - c + d
    eta = (a + d - 2.0 * c) / (2.0 * k) if k != 0.0 else -1.0
    p = 1.0 if b > c else 0.0  # mu(0) = c and mu(1) = b
    if 0.0 < eta < 1.0 and expected_payoff2(table, eta) > max(b, c):
        p = eta
    return Estimate(p=p, q=1.0 - p, method="payoff-max", class_used=classify2(table))


def best_response_threshold(table: PayoffTable2) -> BestResponseThreshold:
    """Opponent cooperation level where one's own payoff row goes flat.

    theta = (c - d) / ((c - d) - (a - b)). With a zero denominator the row
    slope is the constant d - c and no crossing exists.
    """
    a, b, c, d = table.values()
    den = (c - d) - (a - b)
    if den == 0.0:
        return BestResponseThreshold(theta=None, flat_everywhere=(c == d))
    return BestResponseThreshold(theta=(c - d) / den)


def best_response(table: PayoffTable2, p2: float) -> Response:
    """Pure best response to an opponent cooperating with probability p2.

    Cooperate only when the threshold exists, lies in [0, 1) (equivalently
    c <= d), and p2 sits below it; flat exactly at the threshold. When the
    threshold denominator vanishes the response follows the sign of d - c,
    the constant row slope.
    """
    if not 0.0 <= p2 <= 1.0:
        raise DomainError(f"p2={p2!r} outside [0, 1]")
    a, b, c, d = table.values()
    thr = best_response_threshold(table)
    if thr.theta is None:
        if c == d:
            return Response.FLAT
        return Response.COOPERATE if d > c else Response.DEFECT
    if p2 == thr.theta:
        return Response.FLAT
    if 0.0 <= thr.theta < 1.0 and p2 < thr.theta:
        return Response.COOPERATE
    return Response.DEFECT


def _stable_quadratic_roots(qa: float, qb: float, qc: float) -> tuple[float, float]:
    """Both real roots of qa x^2 + qb x + qc, cancellation-safe, ascending."""
    disc = qb * qb - 4.0 * qa * qc
    if disc < 0.0:
        raise NoValidRootError(f"negative discriminant {disc!r}")
    s = math.sqrt(disc)
    if qb >= 0.0:
        t = -(qb + s) / 2.0
    else:
        t = -(qb - s) / 2.0
    if t == 0.0:
        # both roots zero (qb = 0, disc = 0)
        return (0.0, 0.0)
    r1 = t / qa
    r2 = qc / t
    return (r1, r2) if r1 <= r2 else (r2, r1)


def _select_unit_root(roots: tuple[float, ...], eps_root: float, what: str) -> float:
    inside = [r for r in roots if -eps_root <= r <= 1.0 + eps_root]
    if not inside:
        raise NoValidRootError(f"{what}: no root in [0, 1] among {roots!r}")
    # collapse duplicates produced by a double root
    uniq: list[float] = []
    for r in inside:
        if not any(abs(r - u) <= eps_root for u in uniq):
            uniq.append(r)
    if len(uniq) > 1:
        raise AmbiguousRootError(f"{what}: several roots in [0, 1]: {uniq!r}", tuple(uniq))
    return min(1.0, max(0.0, uniq[0]))


def balanced_p(table: PayoffTable2, policy: NumericPolicy = DEFAULT_POLICY) -> Estimate:
    """Balanced-player cooperation probability for a classified table.

    Dispatches on :func:`classify2`:

    * PrisonersDilemma: positive branch of the balance quadratic; when the
      quadratic coefficient a-b-c+d vanishes (within policy tolerance) the
      linear form p = (b-c)/(a-c) applies.
    * Chicken / BattleOfSexes: the unique balance root in [0, 1]; their
      degenerate linear forms are (a-c)/(2a-b-c) and (a-b)/(a+d-2b).
    * StagHunt: p = 1 when (b-c)/(a-d) >= 1/2, else the interior attractor
      (c-b)/(-a+b-c+d).
    * Translators: p = 0 (cooperation never pays).

    Unclassified tables raise UnsupportedClassError.

    ``_balanced_p_batch`` mirrors this function row by row over arrays of
    payoffs, bit for bit and with the same errors; a change to any branch
    here must be made there too.
    """
    cls = classify2(table)
    a, b, c, d = table.values()
    tol = policy.coeff_tol(payoff_scale(table.values()))
    tag = cls.tag

    if tag is GameTag.PRISONERS_DILEMMA:
        k = a - b - c + d
        if abs(k) <= tol:
            p = (b - c) / (a - c)
            return Estimate(p, 1.0 - p, "balanced", cls, roots=(p,), degenerate_branch=True)
        roots = _stable_quadratic_roots(k, b - d, c - b)
        try:
            disc = (b - d) ** 2 + 4.0 * (b - c) * k
        except OverflowError:
            raise DomainError(f"(b - d)^2 overflows float64 at b - d = {b - d!r}") from None
        if disc < 0.0:
            raise InternalError("dilemma balance discriminant negative; classification bug")
        # positive branch: p = (d - b + sqrt(disc)) / (2 k), evaluated via the
        # conjugate form 2 (b - c) / (sqrt(disc) + (b - d)) which is stable for
        # small k and continuous with the linear fallback at k = 0.
        p = 2.0 * (b - c) / (math.sqrt(disc) + (b - d))
        p = min(1.0, max(0.0, p))
        return Estimate(p, 1.0 - p, "balanced", cls, roots=roots)

    if tag is GameTag.CHICKEN:
        k = a - b + c - d
        if abs(k) <= tol:
            p = (a - c) / (2.0 * a - b - c)
            return Estimate(p, 1.0 - p, "balanced", cls, roots=(p,), degenerate_branch=True)
        roots = _stable_quadratic_roots(k, b + 2.0 * d - 3.0 * c, -(b + d - 2.0 * c))
        p = _select_unit_root(roots, policy.eps_root, "chicken balance")
        return Estimate(p, 1.0 - p, "balanced", cls, roots=roots)

    if tag is GameTag.BATTLE_OF_SEXES:
        k = a - b + c - d
        if abs(k) <= tol:
            p = (a - b) / (a + d - 2.0 * b)
            return Estimate(p, 1.0 - p, "balanced", cls, roots=(p,), degenerate_branch=True)
        roots = _stable_quadratic_roots(k, 2.0 * d - b - c, c - d)
        p = _select_unit_root(roots, policy.eps_root, "battle-of-sexes balance")
        return Estimate(p, 1.0 - p, "balanced", cls, roots=roots)

    if tag is GameTag.STAG_HUNT:
        k = b - a - c + d
        ratio = (b - c) / (a - d)
        if abs(k) <= tol:
            return Estimate(1.0, 0.0, "balanced", cls, roots=(1.0,), degenerate_branch=True)
        r2 = (c - b) / (-a + b - c + d)
        roots = (min(1.0, r2), max(1.0, r2))
        if ratio >= 0.5:
            p = 1.0
        else:
            p = min(1.0, max(0.0, r2))
        return Estimate(p, 1.0 - p, "balanced", cls, roots=roots)

    if tag is GameTag.TRANSLATORS:
        return Estimate(0.0, 1.0, "balanced", cls, roots=(0.0,))

    raise UnsupportedClassError("balanced_p requires a classified table")


# ------------------------------------------------- batch form of balanced_p
#
# Each helper below copies one piece of the scalar code above, with the same
# operations in the same order, so that every row comes out bit for bit
# equal. The per-class helpers return the rows' p and the mask of the rows
# on which the scalar code raises.


def _clamp_unit_batch(r):
    """Row-wise ``min(1.0, max(0.0, r))``: the builtins keep their first
    argument unless the second compares strictly beyond it, so NaN gives 0."""
    m = np.where(r > 0.0, r, 0.0)
    return np.where(m < 1.0, m, 1.0)


def _stable_quadratic_roots_batch(qa, qb, qc):
    """Row-wise :func:`_stable_quadratic_roots`: both roots, ascending, and
    the mask of rows whose negative discriminant raises there."""
    disc = qb * qb - 4.0 * qa * qc
    s = np.sqrt(disc)
    t = np.where(qb >= 0.0, -(qb + s) / 2.0, -(qb - s) / 2.0)
    # t = 0 needs qc = 0, and no class's quadratic has that
    r1 = t / qa
    r2 = qc / t
    ordered = r1 <= r2
    return np.where(ordered, r1, r2), np.where(ordered, r2, r1), disc < 0.0


def _select_unit_root_batch(lo, hi, eps_root):
    """Row-wise :func:`_select_unit_root` on ascending root pairs: the root
    it returns, and the mask of rows where it finds none or two."""
    lo_in = (-eps_root <= lo) & (lo <= 1.0 + eps_root)
    hi_in = (-eps_root <= hi) & (hi <= 1.0 + eps_root)
    two = lo_in & hi_in & ~(np.abs(hi - lo) <= eps_root)
    return _clamp_unit_batch(np.where(lo_in, lo, hi)), ~(lo_in | hi_in) | two


def _prisoners_dilemma_batch(a, b, c, d, tol, eps_root):
    k = a - b - c + d
    no_root = _stable_quadratic_roots_batch(k, b - d, c - b)[2]
    # ``(b - d) ** 2`` calls libm pow, which is not always (b - d) * (b - d);
    # np.float_power calls the same pow
    square = np.float_power(b - d, 2.0)
    disc = square + 4.0 * (b - c) * k
    quad = _clamp_unit_batch(2.0 * (b - c) / (np.sqrt(disc) + (b - d)))
    # balanced_p refuses a finite base whose square overflows
    fails = no_root | (np.isinf(square) & np.isfinite(b - d)) | (disc < 0.0)
    linear = np.abs(k) <= tol
    return np.where(linear, (b - c) / (a - c), quad), ~linear & fails


def _chicken_batch(a, b, c, d, tol, eps_root):
    k = a - b + c - d
    lo, hi, no_root = _stable_quadratic_roots_batch(k, b + 2.0 * d - 3.0 * c, -(b + d - 2.0 * c))
    quad, rejected = _select_unit_root_batch(lo, hi, eps_root)
    linear = np.abs(k) <= tol
    return np.where(linear, (a - c) / (2.0 * a - b - c), quad), ~linear & (no_root | rejected)


def _battle_of_sexes_batch(a, b, c, d, tol, eps_root):
    k = a - b + c - d
    lo, hi, no_root = _stable_quadratic_roots_batch(k, 2.0 * d - b - c, c - d)
    quad, rejected = _select_unit_root_batch(lo, hi, eps_root)
    linear = np.abs(k) <= tol
    return np.where(linear, (a - b) / (a + d - 2.0 * b), quad), ~linear & (no_root | rejected)


def _stag_hunt_batch(a, b, c, d, tol, eps_root):
    k = b - a - c + d
    r2 = (c - b) / (-a + b - c + d)
    p = np.where((b - c) / (a - d) >= 0.5, 1.0, _clamp_unit_batch(r2))
    return np.where(np.abs(k) <= tol, 1.0, p), np.zeros(k.shape, dtype=bool)


def _translators_batch(a, b, c, d, tol, eps_root):
    return np.zeros(a.shape), np.zeros(a.shape, dtype=bool)


def _balanced_p_batch(a, b, c, d, policy: NumericPolicy = DEFAULT_POLICY) -> np.ndarray:
    """``balanced_p(PayoffTable2(a[i], b[i], c[i], d[i]), policy).p`` for
    every row i, bit for bit, computed with numpy.

    The payoffs broadcast to one 1-D float64 array. When some row would make
    the scalar path raise, the first such row goes through :func:`balanced_p`
    and its error is raised with the row index in front of the message.
    """
    payoffs = np.array(np.broadcast_arrays(a, b, c, d), dtype=np.float64)
    a, b, c, d = payoffs
    p = np.zeros(a.shape)
    fails = np.ones(a.shape, dtype=bool)  # until one of the classes claims the row
    with np.errstate(all="ignore"):
        # every class has a strict inequality, so a classified row's payoff
        # scale is positive and coeff_tol is this product
        scale = payoffs.max(axis=0) - payoffs.min(axis=0)
        tol = policy.eps_coeff * scale
        # classify2's orderings are pairwise disjoint, so its precedence never decides
        for order, solve in (
            ((a > b) & (b > c) & (c >= d), _prisoners_dilemma_batch),
            ((a > b) & (b > d) & (d > c), _chicken_batch),
            ((a > d) & (d > c) & (c >= b), _battle_of_sexes_batch),
            ((b > a) & (a >= c) & (c > d), _stag_hunt_batch),
            ((a > c) & (c >= b) & (b > d), _translators_batch),
        ):
            rows = np.flatnonzero(order)
            if rows.size:
                p[rows], fails[rows] = solve(*payoffs[:, rows], tol[rows], policy.eps_root)
    # PayoffTable2 refuses non-finite payoffs, coeff_tol an infinite payoff
    # scale and Estimate a p outside [0, 1]
    fails |= ~(np.isfinite(a) & np.isfinite(b) & np.isfinite(c) & np.isfinite(d))
    fails |= np.isinf(scale) | ~((0.0 <= p) & (p <= 1.0))
    bad = np.flatnonzero(fails)
    if bad.size:
        i = int(bad[0])
        try:
            balanced_p(PayoffTable2(a[i], b[i], c[i], d[i]), policy)
        except CooprobError as exc:
            exc.args = (f"row {i}: {exc}",)
            raise
        raise InternalError(f"row {i}: the batch kernel refuses a table that balanced_p accepts")
    return p


def equiprobability(table: PayoffTable2) -> EquiprobabilityReport:
    """Signed test for whether the dilemma balance sits above or below 1/2.

    gap = 3 (b - c) - (a - d); positive leans cooperative, zero is exactly
    balanced, negative leans toward defection.
    """
    a, b, c, d = table.values()
    gap = 3.0 * (b - c) - (a - d)
    if gap == 0.0:
        verdict = Leaning.BALANCED
    elif gap > 0.0:
        verdict = Leaning.COOPERATION
    else:
        verdict = Leaning.DEFECTION
    return EquiprobabilityReport(gap=gap, verdict=verdict)


def expected_payoff2(table: PayoffTable2, p: float) -> float:
    """Per-player expected payoff when both sides cooperate at level p.

    mu = p^2 b + q^2 c + p q (a + d).
    """
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"p={p!r} outside [0, 1]")
    a, b, c, d = table.values()
    q = 1.0 - p
    return p * p * b + q * q * c + p * q * (a + d)
