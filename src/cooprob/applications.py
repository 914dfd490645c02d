"""Multi-option games reduced to pairwise two-option tables.

Each application maps a parametric game onto the two- or three-player
payoff tables and reuses the balanced estimators:

* diner split-the-bill: order cheap (cooperate) or expensive (defect);
  the cost/benefit ratio R_cb = (r - w) / (s - u) controls everything.
* public goods: contribute your endowment or a fraction of it; any two
  contribution levels reduce to the same two-option game.
* traveler's claim game: claim high (cooperate) or undercut (defect);
  pair behavior switches family at the bonus/step boundary.
* war of attrition: concede early (cooperate) or bid on (defect).

Multi-option distributions weight each option by the summed pairwise
cooperation/defection probabilities and normalize. The builders work on
numpy arrays of per-gap probabilities and return read-only float64 arrays
of per-option values; a payoff scale whose arithmetic overflows float64
raises ``DomainError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, InternalError, UndefinedPairError
from .estimators import _balanced_p_batch, balanced_p
from .nplayer import balanced_p3, balanced_pn
from .tables import (
    DEFAULT_POLICY,
    Estimate,
    NumericPolicy,
    PayoffTable2,
    PayoffTable3,
    classify2,
)

__all__ = [
    "DinerSpec",
    "PublicGoodsSpec",
    "TravelerSpec",
    "AttritionSpec",
    "OptionDistribution",
    "ConjectureReport",
    "diner_table2",
    "diner_table3",
    "diner_ladder",
    "diner_p",
    "diner_conjecture_test",
    "public_goods_p_star",
    "public_goods_table2",
    "public_goods_distribution",
    "traveler_table2",
    "traveler_pij",
    "traveler_distribution",
    "traveler_mean",
    "attrition_table2",
    "attrition_pij",
    "attrition_distribution",
]


def _require_positive_finite(name: str, value: float) -> float:
    value = float(value)
    if not (math.isfinite(value) and value > 0):
        raise DomainError(f"{name} must be finite and positive, got {value!r}")
    return value


@dataclass(frozen=True)
class DinerSpec:
    """Split-the-bill game: expensive dish costs r and is worth s to you,
    cheap dish costs w and is worth u; the table splits the bill evenly
    among n diners. Requires r > s > u > w > 0 and R_cb < n."""

    r: float
    s: float
    u: float
    w: float
    n: int = 2

    def __post_init__(self) -> None:
        for name in ("r", "s", "u", "w"):
            _require_positive_finite(name, getattr(self, name))
        if not (self.r > self.s > self.u > self.w):
            raise DomainError("diner spec requires r > s > u > w")
        if self.n < 2:
            raise DomainError("diner spec requires n >= 2 diners")
        if not self.r_cb < self.n:
            raise DomainError(
                f"cost/benefit ratio {self.r_cb!r} must stay below the table size n={self.n}"
            )

    @property
    def r_cb(self) -> float:
        return (self.r - self.w) / (self.s - self.u)


@dataclass(frozen=True)
class PublicGoodsSpec:
    """Contribute-to-a-pot game: endowment r, multiplier k in (1, 2),
    contribution levels 0..options in steps of r/options."""

    r: float
    k: float
    options: int

    def __post_init__(self) -> None:
        _require_positive_finite("r", self.r)
        if not (math.isfinite(self.k) and 1.0 < self.k < 2.0):
            raise DomainError(f"multiplier k={self.k!r} must lie strictly between 1 and 2")
        if self.options < 1:
            raise DomainError("options must be at least 1")


@dataclass(frozen=True)
class TravelerSpec:
    """Claim game: claims run from s up to r in `steps` increments of
    v = (r - s) / steps; the lower claimant collects a bonus t and the
    higher pays it. Requires r > s >= t > 0."""

    r: float
    s: float
    t: float
    steps: int

    def __post_init__(self) -> None:
        _require_positive_finite("r", self.r)
        _require_positive_finite("s", self.s)
        _require_positive_finite("t", self.t)
        if not self.r > self.s:
            raise DomainError("traveler spec requires r > s")
        if not self.s >= self.t:
            raise DomainError("traveler spec requires s >= t")
        if self.steps < 1:
            raise DomainError("steps must be at least 1")

    @property
    def v(self) -> float:
        return (self.r - self.s) / self.steps


@dataclass(frozen=True)
class AttritionSpec:
    """Bidding contest for a prize worth x; bids run 0..max_bid and the
    lower bidder concedes (cooperates)."""

    x: float
    max_bid: int

    def __post_init__(self) -> None:
        _require_positive_finite("x", self.x)
        if self.max_bid < 1:
            raise DomainError("max_bid must be at least 1")


def _read_only_copy(values) -> np.ndarray:
    arr = np.array(values, dtype=np.float64)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class OptionDistribution:
    """Normalized weights over the options of a multi-option game.

    ``weights`` holds the unnormalized per-option sums U_i; ``total`` their
    sum W; ``probabilities`` is weights / total. Both are read-only 1-D
    float64 arrays, copied from whatever sequence or array is passed in, so
    the caller's array stays writable and unshared. Instances compare by
    identity: ``==`` over arrays has no single truth value.
    """

    probabilities: np.ndarray
    weights: np.ndarray
    total: float

    def __post_init__(self) -> None:
        probs = _read_only_copy(self.probabilities)
        weights = _read_only_copy(self.weights)
        object.__setattr__(self, "probabilities", probs)
        object.__setattr__(self, "weights", weights)
        if probs.ndim != 1 or probs.shape != weights.shape:
            raise InternalError(
                f"probabilities {probs.shape} and weights {weights.shape} "
                "must be 1-D arrays of one length"
            )
        # a NaN or infinity anywhere makes its array's sum non-finite
        s = float(probs.sum())
        if not abs(s - 1.0) <= 1e-12:
            raise InternalError(f"distribution sums to {s!r}, not 1")
        if not (math.isfinite(float(weights.sum())) and math.isfinite(self.total)):
            raise InternalError("non-finite weight or total in distribution")
        if (probs < 0.0).any():
            raise InternalError("negative probability in distribution")


@dataclass(frozen=True)
class ConjectureReport:
    """Numeric comparison of the generic ladder solve against 2 - n/R_cb."""

    n: int
    r_cb: float
    p_solver: float
    p_conjecture: float

    @property
    def gap(self) -> float:
        return self.p_solver - self.p_conjecture


# ---------------------------------------------------------------- diner


def diner_table2(spec: DinerSpec) -> PayoffTable2:
    """Two-diner payoff table; the even bill split cancels the quadratic
    term of the balance polynomial, so the closed form is linear."""
    if spec.n != 2:
        raise DomainError(f"two-player table requires n=2, spec has n={spec.n}")
    r, s, u, w = spec.r, spec.s, spec.u, spec.w
    half = (r + w) / 2.0
    return PayoffTable2(a=s - half, b=u - w, c=s - r, d=u - half)


def diner_table3(spec: DinerSpec) -> PayoffTable3:
    """Three-diner payoff table; valid for 1.5 < R_cb < 3."""
    if spec.n != 3:
        raise DomainError(f"three-player table requires n=3, spec has n={spec.n}")
    if not spec.r_cb > 1.5:
        raise DomainError(
            f"cost/benefit ratio {spec.r_cb!r} must exceed n/2 = 1.5 for a dilemma chain"
        )
    r, s, u, w = spec.r, spec.s, spec.u, spec.w
    shares = [(kk * r + (3 - kk) * w) / 3.0 for kk in range(4)]
    return PayoffTable3(
        f=s - shares[1], g=u - shares[0], h=s - shares[2],
        j=u - shares[1], k=s - shares[3], m=u - shares[2],
    )


def diner_ladder(spec: DinerSpec) -> list[float]:
    """Interleaved dilemma ladder (D_1, C_0, ..., D_n, C_{n-1}) for n diners.

    Strictly decreasing exactly when n/2 < R_cb < n.
    """
    if not spec.r_cb > spec.n / 2.0:
        raise DomainError(
            f"cost/benefit ratio {spec.r_cb!r} must exceed n/2 = {spec.n / 2.0} for a dilemma chain"
        )
    r, s, u, w, n = spec.r, spec.s, spec.u, spec.w, spec.n
    ladder: list[float] = []
    for kk in range(1, n + 1):
        share_d = (kk * r + (n - kk) * w) / n
        share_c = ((kk - 1) * r + (n - kk + 1) * w) / n
        ladder.append(s - share_d)
        ladder.append(u - share_c)
    return ladder


def diner_p(spec: DinerSpec, policy: NumericPolicy = DEFAULT_POLICY) -> Estimate:
    """Closed-form balanced probability p = 2 - n / R_cb for n in {2, 3}.

    Cross-checked against the generic solver on the mapped table; a
    disagreement beyond 1e-12 would mean a mapping bug.
    """
    if spec.n == 2:
        solved = balanced_p(diner_table2(spec), policy)
        p = 2.0 - 2.0 / spec.r_cb
    elif spec.n == 3:
        solved = balanced_p3(diner_table3(spec), policy)
        p = 2.0 - 3.0 / spec.r_cb
    else:
        raise DomainError("closed forms exist only for n in {2, 3}; see diner_conjecture_test")
    if abs(p - solved.p) > 1e-12:
        raise InternalError(
            f"closed form {p!r} and generic solver {solved.p!r} disagree beyond 1e-12"
        )
    return replace(solved, p=p, q=1.0 - p)


def diner_conjecture_test(
    r_cb: float, n: int, policy: NumericPolicy = DEFAULT_POLICY
) -> ConjectureReport:
    """Compare the generic n-diner solve against the candidate form 2 - n/R_cb.

    Reports the numbers; asserts nothing. Valid for n >= 2 and
    n/2 < R_cb < n (the strict-ladder domain).
    """
    if n < 2:
        raise DomainError("conjecture test requires n >= 2")
    if not (n / 2.0 < r_cb < n):
        raise DomainError(f"R_cb={r_cb!r} outside the strict-ladder domain (n/2, n)")
    # synthesize a spec realizing the requested ratio: scale cancels
    w = 1.0
    u = w + (r_cb - 1.0) / 2.0
    s = u + 1.0
    r = w + r_cb
    spec = DinerSpec(r=r, s=s, u=u, w=w, n=n)
    est = balanced_pn(diner_ladder(spec), n, policy)
    return ConjectureReport(
        n=n, r_cb=r_cb, p_solver=est.p, p_conjecture=2.0 - n / r_cb
    )


def _finite_by_delta(spec, p: np.ndarray) -> np.ndarray:
    """The per-gap probabilities ``p``, or DomainError when the spec's payoff
    scale overflowed float64 on the way to them."""
    if not np.isfinite(p).all():
        raise DomainError(f"payoff scale of {spec!r} overflows float64")
    return p


def _level_pair(i: int, j: int, top: int, what: str) -> tuple[int, int]:
    """(higher, lower) of two distinct levels that must lie in 0..top."""
    if i == j:
        raise UndefinedPairError(f"{what} levels must differ")
    hi, lo = (i, j) if i > j else (j, i)
    if not (0 <= lo and hi <= top):
        raise DomainError(f"levels must lie in 0..{top}")
    return hi, lo


# ---------------------------------------------------------- public goods


def public_goods_p_star(k: float) -> float:
    """Contribution probability 2 - 2/k, defined for 1 < k < 2."""
    if not (math.isfinite(k) and 1.0 < k < 2.0):
        raise DomainError(f"multiplier k={k!r} must lie strictly between 1 and 2")
    return 2.0 - 2.0 / k


def public_goods_table2(spec: PublicGoodsSpec, i: int, j: int) -> PayoffTable2:
    """Two-option reduction for contribution levels i > j (cooperate = give
    more). Every level pair yields the same balanced probability."""
    hi, lo = _level_pair(i, j, spec.options, "contribution")
    amount_hi = hi * spec.r / spec.options
    amount_lo = lo * spec.r / spec.options
    r, k = spec.r, spec.k
    return PayoffTable2(
        a=r - amount_lo + k * (amount_hi + amount_lo) / 2.0,
        b=r - amount_hi + k * amount_hi,
        c=r - amount_lo + k * amount_lo,
        d=r - amount_hi + k * (amount_hi + amount_lo) / 2.0,
    )


def public_goods_distribution(spec: PublicGoodsSpec) -> OptionDistribution:
    """Distribution over contribution levels 0..N.

    Pairwise reduction is level-independent, so U_i = i p* + (N - i) q*
    and W = N (N + 1) / 2.
    """
    n = spec.options
    p_star = public_goods_p_star(spec.k)
    q_star = 1.0 - p_star
    levels = np.arange(n + 1, dtype=float)
    weights = levels * p_star + (n - levels) * q_star
    total = n * (n + 1) / 2.0
    return OptionDistribution(weights / total, weights, float(total))


# ------------------------------------------------------------- traveler


def traveler_table2(spec: TravelerSpec, i: int, j: int) -> PayoffTable2:
    """Two-option reduction for claim levels i != j (cooperate = claim high).

    Both get the lower claim; the undercutter collects the bonus t from the
    higher claimant.
    """
    hi, lo = _level_pair(i, j, spec.steps, "claim")
    v = spec.v
    low_claim = spec.s + lo * v
    return PayoffTable2(
        a=low_claim + spec.t,
        b=spec.s + hi * v,
        c=low_claim,
        d=low_claim - spec.t,
    )


def _traveler_p_by_delta(spec: TravelerSpec, deltas: np.ndarray) -> np.ndarray:
    """Pairwise cooperation probability as a function of the level gap.

    Below the bonus/step boundary (delta v < t) the pair is a dilemma and
    the positive quadratic branch applies; at or above it the pair is
    coordination-flavored with (b-c)/(a-d) = delta v / (2t) >= 1/2, which
    always selects full cooperation on the high claim.
    """
    gap = deltas * spec.v
    t = spec.t
    p = np.ones_like(gap)
    pd = gap < t
    if np.any(pd):
        g = gap[pd]
        with np.errstate(over="ignore", invalid="ignore"):
            disc = (g + t) ** 2 - 4.0 * g * g  # = (t - g)(t + 3 g) >= 0 on this branch
            p[pd] = 2.0 * g / (np.sqrt(disc) + g + t)
    return _finite_by_delta(spec, p)


def traveler_pij(
    spec: TravelerSpec, i: int, j: int, policy: NumericPolicy = DEFAULT_POLICY
) -> float:
    """Probability that a balanced player keeps the higher of claims i, j."""
    hi, lo = _level_pair(i, j, spec.steps, "claim")
    return float(_traveler_p_by_delta(spec, np.array([float(hi - lo)]))[0])


def traveler_distribution(
    spec: TravelerSpec, policy: NumericPolicy = DEFAULT_POLICY
) -> OptionDistribution:
    """Distribution over claim levels 0..N by direct pairwise summation."""
    n = spec.steps
    p = _traveler_p_by_delta(spec, np.arange(1, n + 1, dtype=float))
    cum = np.concatenate(([0.0], np.cumsum(p)))
    levels = np.arange(n + 1)
    # level i: p over its i lower partners (cum[i]), q over its n - i higher
    # ones (n - i - cum[n - i], and cum[n - i] is cum reversed)
    weights = cum + ((n - levels) - cum[::-1])
    total = float(weights.sum())
    return OptionDistribution(weights / total, weights, total)


def traveler_mean(spec: TravelerSpec, policy: NumericPolicy = DEFAULT_POLICY) -> float:
    """Expected claim value under the balanced distribution."""
    dist = traveler_distribution(spec, policy)
    claims = spec.s + spec.v * np.arange(spec.steps + 1)
    return float(np.dot(claims, dist.probabilities))


# ------------------------------------------------------------ attrition


def attrition_table2(spec: AttritionSpec, i: int, j: int) -> PayoffTable2:
    """Two-option reduction for bid levels i != j (cooperate = bid low).

    Equal bids split the prize and pay their bid; otherwise the higher
    bidder takes the prize and both pay the lower bid.
    """
    hi, lo = _level_pair(i, j, spec.max_bid, "bid")
    x = spec.x
    return PayoffTable2(a=x - lo, b=x / 2.0 - lo, c=x / 2.0 - hi, d=float(-lo))


def _attrition_paper_by_delta(spec: AttritionSpec, deltas: np.ndarray) -> np.ndarray:
    """``paper`` mode's conceding probability as a function of the bid gap d:
    p = (-x/2 + sqrt(x^2/4 + 4 d^2)) / (2 d), taken as 2 d / (x/2 + hypot(x/2, 2 d)),
    which neither cancels when x >> d nor overflows."""
    half = spec.x / 2.0
    return 2.0 * deltas / (half + np.hypot(half, 2.0 * deltas))


def _check_attrition_mode(mode: str) -> None:
    if mode not in ("paper", "dispatch"):
        raise DomainError(f"mode must be 'paper' or 'dispatch', got {mode!r}")


def attrition_pij(
    spec: AttritionSpec,
    i: int,
    j: int,
    mode: str = "paper",
    policy: NumericPolicy = DEFAULT_POLICY,
) -> float:
    """Probability of conceding (the lower bid) for the pair of levels i, j.

    ``paper`` mode applies the dilemma branch formula uniformly:
    p = (-x/2 + sqrt(x^2/4 + 4 d^2)) / (2 d), d = |i - j|. ``dispatch``
    mode classifies the mapped table first; gaps above x/2 land in Chicken
    and take that family's root instead.
    """
    hi, lo = _level_pair(i, j, spec.max_bid, "bid")
    _check_attrition_mode(mode)
    if mode == "paper":
        return float(_attrition_paper_by_delta(spec, np.array([float(hi - lo)]))[0])
    return balanced_p(attrition_table2(spec, i, j), policy).p


def attrition_distribution(
    spec: AttritionSpec, mode: str = "paper", policy: NumericPolicy = DEFAULT_POLICY
) -> OptionDistribution:
    """Distribution over bid levels 0..N by direct pairwise summation.

    Cooperation means the lower bid, so a level collects p-weight from
    higher partners and q-weight from lower ones. ``dispatch`` mode solves
    the gap tables ``attrition_table2(spec, d, 0)``, d = 1..N, in one call
    of the batch form of :func:`balanced_p`, which gives every gap the same
    bits (and the same errors) as :func:`attrition_pij` does.
    """
    _check_attrition_mode(mode)
    n = spec.max_bid
    deltas = np.arange(1, n + 1, dtype=float)
    if mode == "paper":
        p = _attrition_paper_by_delta(spec, deltas)
    else:
        x = spec.x
        p = _balanced_p_batch(x, x / 2.0, x / 2.0 - deltas, 0.0, policy)
    cum = np.concatenate(([0.0], np.cumsum(p)))
    levels = np.arange(n + 1)
    # level i: q over its i lower partners (i - cum[i]), p over its n - i
    # higher ones (cum[n - i], and cum[n - i] is cum reversed)
    weights = (levels - cum) + cum[::-1]
    total = float(weights.sum())
    return OptionDistribution(weights / total, weights, total)
