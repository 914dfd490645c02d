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
payoff comparisons feed each weight; see :func:`phi_chi`. That choice of
weights is the only thing the classes differ in: every class's weights are
affine in p, and one degree-2 rule, the two-player case of the balance core
in :mod:`cooprob.nplayer`, solves them all.

Baselines kept alongside the balanced estimate: maximin mixing, the
payoff-sum maximizer, and the opponent-dependent best-response threshold.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import (
    AmbiguousRootError,
    CooprobError,
    DomainError,
    InternalError,
    UnsupportedClassError,
)
from .tables import Estimate, GameTag, PayoffTable2, classify2, payoff_scale

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


@dataclass(frozen=True, init=False)
class EquiprobabilityReport:
    """Signed distance from the p = 1/2 locus, plus its verdict."""

    gap: float
    verdict: Leaning

    def __init__(self, gap: float, verdict: Leaning) -> None:
        v = self.__dict__
        v["gap"], v["verdict"] = gap, verdict


@dataclass(frozen=True, init=False)
class MaximinResult:
    """Raw maximin mixing value plus its validity as a probability.

    ``value`` is the unclamped formula output (``None`` when the defining
    denominator vanishes); ``estimate`` is populated only when the value is
    a probability.
    """

    value: float | None
    estimate: Estimate | None
    degenerate: bool = False

    def __init__(self, value: float | None, estimate: Estimate | None, degenerate: bool = False) -> None:
        v = self.__dict__
        v["value"], v["estimate"], v["degenerate"] = value, estimate, degenerate

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
    into itself. This is the general-p form that :func:`phi_chi` and the
    iteration oracles use; the closed forms read the weights at p = 0 and 1
    from ``_END_WEIGHTS``, which a test holds equal to this function there.
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


def phi_chi(table: PayoffTable2, p: float) -> PhiChi:
    """Evaluate the weights of the table's class at cooperation level ``p``."""
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"p={p!r} outside [0, 1]")
    tag = classify2(table).tag
    if tag is GameTag.UNCLASSIFIED:
        raise UnsupportedClassError("weights are undefined for unclassified tables")
    phi, chi = weights2(tag, *table.values(), p)
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
        est = Estimate(p=value, method="maximin", class_used=classify2(table))
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
    return Estimate(p=p, method="payoff-max", class_used=classify2(table))


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


# products of numbers between these bounds neither overflow nor underflow
_TINY, _HUGE = 2.0**-300, 2.0**300


def _stable_quadratic_roots(qa: float, qb: float, qc: float) -> tuple[float, float]:
    """Both real roots of qa x^2 + qb x + qc, cancellation-safe, ascending.

    Every caller's quadratic changes sign on [0, 1], so its roots are real,
    and a negative discriminant is rounding at a double root: it counts as 0.
    A root past float64's range is an infinity of its sign.
    """
    m = max(abs(qb), math.sqrt(abs(qa)) * math.sqrt(abs(qc)))  # the scale of t below
    if not _TINY < m < _HUGE:
        # scaling by a power of two is exact and brings m near 1, so qb^2 and
        # qa qc stay in range and no root changes; the cap keeps qa and qc finite
        e = min(-math.frexp(m)[1], 1020 - math.frexp(max(abs(qa), abs(qc)))[1])
        qa, qb, qc = math.ldexp(qa, e), math.ldexp(qb, e), math.ldexp(qc, e)
    s = math.sqrt(max(qb * qb - 4.0 * qa * qc, 0.0))
    if qb >= 0.0:
        t = -(qb + s) / 2.0
    else:
        t = -(qb - s) / 2.0
    if t == 0.0:
        # both roots zero (qb = 0, disc = 0)
        return (0.0, 0.0)
    # the rescale can flush a subnormal qa to 0, where t / qa is past float64
    r1 = t / qa if qa else math.copysign(math.inf, t * math.copysign(1.0, qa))
    r2 = qc / t
    return (r1, r2) if r1 <= r2 else (r2, r1)


def _balance_root2(s0: float, s1: float, w0: float, w1: float) -> float:
    """Balanced p of psi = s0 q + s1 p and omega = w0 q + w1 p, the four
    weights finite and nonnegative: the degree-2 case of the balance core
    ``nplayer._balance_root``.

    With t = p / q, h = p omega - q psi = q^2 (H0 + H1 t + H2 t^2), where
    H0 = -s0 <= 0, H1 = w0 - s1 and H2 = w1 >= 0. If s0 > 0 and w1 > 0, then
    h(0) < 0 < h(1) and h has one root in (0, 1),

        p = 2 s0 / (H1 + sqrt(D) + 2 s0)                 if H1 >= 0,
        p = (sqrt(D) - H1) / (sqrt(D) - H1 + 2 w1)       if H1 < 0,

    with D = H1^2 + 4 s0 w1, so that nothing subtracts. The same forms give
    the ends: if w1 = 0, 1 is a root, and the interior root s0 / (s0 + H1)
    exists when H1 > 0; it attracts and 1 repels. If s0 = 0, 0 is a root, and
    the interior root -H1 / (w1 - H1) exists when H1 < 0; it attracts and 0
    repels. The map psi / (psi + omega) is a Moebius map, with at most one
    attracting fixed point, so this is the core's root rule (lone root, else
    lone attracting root), and no iteration runs.
    """
    h1 = w0 - s1
    g = math.sqrt(s0) * math.sqrt(w1)  # D = h1^2 + 4 g^2, g formed without overflow or underflow
    rho = max(abs(h1), g)
    if rho == 0.0:  # h = -s0 q^2 or w1 p^2
        if s0 == w1:
            raise AmbiguousRootError(
                "no single attracting root among the balance roots [0.0, 1.0] in [0, 1]", (0.0, 1.0)
            )
        return 1.0 if s0 else 0.0
    x = s0 if h1 >= 0.0 else w1  # the weight that the form for this sign of H1 holds
    hs = h1
    if not (_TINY < rho < _HUGE and x < _HUGE):
        # scaling by a power of two is exact and brings rho near 1, so the squares
        # stay in range; the cap keeps x finite, and where it binds p is 0 or 1
        e = min(-math.frexp(rho)[1], 1000 - math.frexp(x)[1])
        hs, g, x = math.ldexp(h1, e), math.ldexp(g, e), math.ldexp(x, e)
    r = math.sqrt(hs * hs + 4.0 * g * g)
    if h1 >= 0.0:
        return 2.0 * x / (hs + r + 2.0 * x)
    return (r - hs) / (r - hs + 2.0 * x)


# A weight adds up to two payoff gaps, and a coefficient of the balance
# quadratic up to six; below this payoff scale all of them stay finite, and
# above it balanced_p scales the payoffs by 1/8, which is exact there.
_WIDE_SCALE = 2.0**1020

# The end weights of each class: (scale, s0, s1, w0, w1) from the payoffs
# (a, b, c, d), where scale is the payoff scale max - min, which the class
# ordering fixes, and (s0, w0), (s1, w1) are weights2 at p = 0 and p = 1,
# formed with its operations less the terms it multiplies by 0.0. Under the
# ordering those terms are finite gaps >= 0, so only a weight of -0.0 can
# differ from weights2's, which gives +0.0 there; tests/test_balance_rule2.py
# holds the two equal and balanced_p bit for bit the rule on weights2.
_END_WEIGHTS = {
    GameTag.PRISONERS_DILEMMA: lambda a, b, c, d: (a - d, b - c, b - c, c - d, a - b),
    GameTag.CHICKEN: lambda a, b, c, d: (a - c, (b - c) + (d - c), b - c, 0.0, a - b),
    GameTag.BATTLE_OF_SEXES: lambda a, b, c, d: (a - b, d - c, 0.0, c - b, (c - b) + (a - b)),
    GameTag.STAG_HUNT: lambda a, b, c, d: (b - d, b - c, (b - c) + (b - a), c - d, 0.0),
    GameTag.TRANSLATORS: lambda a, b, c, d: (a - d, 0.0, 0.0, (c - b) + (c - d), (c - b) + (a - b)),
}


def _balance2(tag: GameTag, values):
    """(p, s0, s1, w0, w1): the balanced p of the payoffs ``values`` under
    class ``tag``, and the weights at p = 0 and 1 it came from, scaled by
    1/8 on a wide payoff scale.

    The whole rule of :func:`balanced_p` except the class and the reported
    roots; ``verify_table`` and ``balance_search`` measure with it. The weights
    come from the class's entry in ``_END_WEIGHTS``. Raises as
    :func:`balanced_p` does: DomainError for an infinite payoff scale, then
    UnsupportedClassError for Unclassified, then AmbiguousRootError.
    """
    ends = _END_WEIGHTS.get(tag)
    if ends is None:
        payoff_scale(values)  # an overflowing scale is refused before the class
        raise UnsupportedClassError("balanced_p requires a classified table")
    scale, s0, s1, w0, w1 = ends(*values)
    if scale > _WIDE_SCALE:
        payoff_scale(values)  # raises where the scale is infinite
        _, s0, s1, w0, w1 = ends(*(v * 0.125 for v in values))
    return _balance_root2(s0, s1, w0, w1), s0, s1, w0, w1


def balanced_p(table: PayoffTable2) -> Estimate:
    """Balanced-player cooperation probability for a classified table.

    Every class goes through one rule: its weights :func:`weights2` are
    affine in p, so they are fixed by their values at p = 0 and p = 1, which
    ``_END_WEIGHTS`` forms straight from the payoffs, and
    :func:`_balance_root2` returns the balance root that the core's root rule
    picks. For the dilemma that is the positive branch of the balance
    quadratic; Stag Hunt gets p = 1 when (b-c)/(a-d) >= 1/2 and the interior
    attractor otherwise; Translators gets p = 0 (cooperation never pays).

    ``roots`` lists both real roots of the balance quadratic in power form,
    k p^2 + (w0 + 2 s0 - s1) p - s0 with k = (w1 - w0) + (s1 - s0), where
    (s, w) are the weights at p = 0 and 1; where k is 0 it is (p,). A root
    past float64's range is listed as an infinity of its sign: for
    (0, -5e-324, -1e307, -1e307), p = 1 and the roots are (-inf, 1.0).
    Unclassified tables raise UnsupportedClassError.

    ``_balanced_p_batch`` mirrors this function row by row over arrays of
    payoffs, bit for bit and with the same errors; a change here must be
    made there too.
    """
    cls = classify2(table)
    p, s0, s1, w0, w1 = _balance2(cls.tag, table.values())
    k = (w1 - w0) + (s1 - s0)
    roots = _stable_quadratic_roots(k, w0 + 2.0 * s0 - s1, -s0) if k else (p,)
    return Estimate(p, "balanced", cls, roots=roots)


def _balance_root2_batch(s0, s1, w0, w1):
    """Row-wise :func:`_balance_root2`, with the same operations in the same
    order: the rows' p, and the mask of rows on which it raises."""
    import numpy as np

    h1 = w0 - s1
    g = np.sqrt(s0) * np.sqrt(w1)
    rho = np.maximum(np.abs(h1), g)
    pos = h1 >= 0.0
    x = np.where(pos, s0, w1)
    hs, fit = h1, (_TINY < rho) & (rho < _HUGE) & (x < _HUGE)
    if not fit.all():  # the rescale is by 2^0 on the rows that fit
        e = np.minimum(-np.frexp(rho)[1], 1000 - np.frexp(x)[1])
        e[fit] = 0
        hs, g, x = np.ldexp(h1, e), np.ldexp(g, e), np.ldexp(x, e)
    r = np.sqrt(hs * hs + 4.0 * g * g)
    p = np.where(pos, 2.0 * x / (hs + r + 2.0 * x), (r - hs) / (r - hs + 2.0 * x))
    return np.where(rho == 0.0, np.where(s0 != 0.0, 1.0, 0.0), p), (rho == 0.0) & (s0 == w1)


def _balanced_p_batch(a, b, c, d) -> np.ndarray:
    """``balanced_p(PayoffTable2(a[i], b[i], c[i], d[i])).p`` for
    every row i, bit for bit, computed with numpy.

    The payoffs broadcast to one 1-D float64 array, or to a 0-d one, which
    is one row, and each class's rows take their end weights from
    ``_END_WEIGHTS`` as the scalar path does.
    When some row would make the scalar path raise, the first such row goes
    through :func:`balanced_p` and its error is raised with the row index in
    front of the message.
    """
    import numpy as np

    payoffs = np.array(np.broadcast_arrays(a, b, c, d), dtype=np.float64).reshape(4, -1)
    a, b, c, d = payoffs
    p = np.zeros(a.shape)
    fails = np.ones(a.shape, dtype=bool)  # until one of the classes claims the row
    with np.errstate(all="ignore"):
        # payoff_scale refuses an infinite payoff scale, and a wide one is
        # scaled by 1/8 before the weights are formed, as in balanced_p
        scale = payoffs.max(axis=0) - payoffs.min(axis=0)
        wide = scale > _WIDE_SCALE
        weighed = np.where(wide, payoffs * 0.125, payoffs) if wide.any() else payoffs
        # classify2's orderings are pairwise disjoint, so its precedence never decides
        for tag, order in (
            (GameTag.PRISONERS_DILEMMA, (a > b) & (b > c) & (c >= d)),
            (GameTag.CHICKEN, (a > b) & (b > d) & (d > c)),
            (GameTag.BATTLE_OF_SEXES, (a > d) & (d > c) & (c >= b)),
            (GameTag.STAG_HUNT, (b > a) & (a >= c) & (c > d)),
            (GameTag.TRANSLATORS, (a > c) & (c >= b) & (b > d)),
        ):
            rows = np.flatnonzero(order)
            if rows.size:
                _, s0, s1, w0, w1 = _END_WEIGHTS[tag](*weighed[:, rows])
                p[rows], fails[rows] = _balance_root2_batch(s0, s1, w0, w1)
    # PayoffTable2 refuses non-finite payoffs, payoff_scale an infinite payoff
    # scale and Estimate a p outside [0, 1]
    fails |= ~(np.isfinite(a) & np.isfinite(b) & np.isfinite(c) & np.isfinite(d))
    fails |= np.isinf(scale) | ~((0.0 <= p) & (p <= 1.0))
    bad = np.flatnonzero(fails)
    if bad.size:
        i = int(bad[0])
        try:
            balanced_p(PayoffTable2(a[i], b[i], c[i], d[i]))
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
    return _leaning(3.0 * (b - c) - (a - d))


def _leaning(gap: float) -> EquiprobabilityReport:
    """The report of ``gap``, the signed distance from the p = 1/2 locus."""
    if gap == 0.0:
        return EquiprobabilityReport(gap, Leaning.BALANCED)
    return EquiprobabilityReport(gap, Leaning.COOPERATION if gap > 0.0 else Leaning.DEFECTION)


def expected_payoff2(table: PayoffTable2, p: float) -> float:
    """Per-player expected payoff when both sides cooperate at level p.

    mu = p^2 b + q^2 c + p q (a + d).
    """
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"p={p!r} outside [0, 1]")
    return _mu2(p, table.a, table.b, table.c, table.d)


def _mu2(p: float, a: float, b: float, c: float, d: float) -> float:
    """:func:`expected_payoff2` from the payoffs, p in [0, 1] unchecked."""
    q = 1.0 - p
    return p * p * b + q * q * c + p * q * (a + d)
