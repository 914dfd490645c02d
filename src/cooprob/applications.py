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
raises ``DomainError``. The traveler's gaps at or past the bonus cooperate
with p = 1 and reach the summation as a count, whose prefix sums are
written in about log2 N runs, bit for bit as adding the ones one by one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import DomainError, InternalError, UndefinedPairError
from .estimators import _balanced_p_batch, balanced_p
from .tables import Estimate, PayoffTable2, PayoffTable3

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


def _require_count(name: str, value, least: int) -> None:
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise DomainError(f"{name} must be an int of at least {least}, got {value!r}")


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
        _require_count("n", self.n, 2)
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
        _require_count("options", self.options, 1)


@dataclass(frozen=True)
class TravelerSpec:
    """Claim game: claims run from s up to r in `steps` increments of
    v = (r - s) / steps; the lower claimant collects a bonus t and the
    higher pays it. Requires r > s >= t > 0 and v > 0 in float64."""

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
        _require_count("steps", self.steps, 1)
        if not self.v > 0.0:
            raise DomainError(f"traveler spec step (r - s) / steps underflows to 0 at steps={self.steps}")

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
        _require_count("max_bid", self.max_bid, 1)


def _read_only_copy(values) -> np.ndarray:
    import numpy as np

    arr = np.array(values, dtype=np.float64)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class OptionDistribution:
    """Normalized weights over the options of a multi-option game.

    ``weights`` holds the unnormalized per-option sums U_i; ``total`` their
    sum W; ``probabilities`` is weights / total. Both are read-only 1-D
    float64 arrays, copied from whatever sequence or array is passed in, so
    the caller's array stays writable and unshared; the builders below hand
    over the buffers they own instead. Instances compare by identity: ``==``
    over arrays has no single truth value.
    """

    probabilities: np.ndarray
    weights: np.ndarray
    total: float

    def __post_init__(self) -> None:
        self._take(_read_only_copy(self.probabilities), _read_only_copy(self.weights))

    @classmethod
    def _owning(cls, probs: np.ndarray, weights: np.ndarray, total: float) -> OptionDistribution:
        """The distribution of two float64 arrays that the caller built and
        hands over: they are marked read-only and checked, not copied."""
        probs.flags.writeable = False
        weights.flags.writeable = False
        dist = object.__new__(cls)
        object.__setattr__(dist, "total", total)
        dist._take(probs, weights)
        return dist

    def _take(self, probs: np.ndarray, weights: np.ndarray) -> None:
        """Hold the two read-only arrays and check them."""
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
        # the sum above has refused NaN and empty arrays
        if probs.min() < 0.0:
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
    """Two-diner payoff table, the ladder of :func:`diner_ladder`; the even
    bill split cancels the quadratic term of the balance polynomial, so the
    closed form is linear."""
    if spec.n != 2:
        raise DomainError(f"two-player table requires n=2, spec has n={spec.n}")
    return PayoffTable2(*diner_ladder(spec))


def diner_table3(spec: DinerSpec) -> PayoffTable3:
    """Three-diner payoff table, the ladder of :func:`diner_ladder`; valid
    for 1.5 < R_cb < 3."""
    if spec.n != 3:
        raise DomainError(f"three-player table requires n=3, spec has n={spec.n}")
    return PayoffTable3(*diner_ladder(spec))


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


def diner_p(spec: DinerSpec) -> Estimate:
    """Closed-form balanced probability p = 2 - n / R_cb for every n >= 2 on
    n/2 < R_cb < n: every psi gap of the ladder is (u - s) + 2(r - w)/n and
    every omega gap (s - u) - (r - w)/n, so the balance polynomial is linear.

    Cross-checked against the generic solver on the mapped table or ladder;
    a disagreement beyond 1e-12 would mean a mapping bug.
    """
    from .nplayer import balanced_p3, balanced_pn

    if spec.n == 2:
        solved = balanced_p(diner_table2(spec))
    elif spec.n == 3:
        solved = balanced_p3(diner_table3(spec))
    else:
        solved = balanced_pn(diner_ladder(spec), spec.n)
    p = 2.0 - spec.n / spec.r_cb
    if abs(p - solved.p) > 1e-12:
        raise InternalError(
            f"closed form {p!r} and generic solver {solved.p!r} disagree beyond 1e-12"
        )
    return replace(solved, p=p)


def diner_conjecture_test(r_cb: float, n: int) -> ConjectureReport:
    """Compare the generic n-diner solve against 2 - n/R_cb, the closed
    form that :func:`diner_p` answers with.

    Reports the numbers; asserts nothing. Valid for n >= 2 and
    n/2 < R_cb < n (the strict-ladder domain).
    """
    from .nplayer import balanced_pn

    _require_count("n", n, 2)
    if not (n / 2.0 < r_cb < n):
        raise DomainError(f"R_cb={r_cb!r} outside the strict-ladder domain (n/2, n)")
    # synthesize a spec realizing the requested ratio: scale cancels
    w = 1.0
    u = w + (r_cb - 1.0) / 2.0
    s = u + 1.0
    r = w + r_cb
    spec = DinerSpec(r=r, s=s, u=u, w=w, n=n)
    est = balanced_pn(diner_ladder(spec), n)
    return ConjectureReport(
        n=n, r_cb=r_cb, p_solver=est.p, p_conjecture=2.0 - n / r_cb
    )


def _level_pair(i: int, j: int, top: int, what: str) -> tuple[int, int]:
    """(higher, lower) of two distinct levels that must lie in 0..top."""
    if i == j:
        raise UndefinedPairError(f"{what} levels must differ")
    hi, lo = (i, j) if i > j else (j, i)
    if not (0 <= lo and hi <= top):
        raise DomainError(f"levels must lie in 0..{top}")
    return hi, lo


def _pairwise_distribution(p: np.ndarray, high_cooperates: bool, ones: int = 0) -> OptionDistribution:
    """The distribution over levels 0..n where, of two levels d apart, the
    higher one (if ``high_cooperates``, else the lower one) cooperates with
    probability p[d - 1], or 1 past the end of p: n = len(p) + ones. Each
    level collects p over the partners it cooperates against and q over the
    others, summed in order of gap (the ones by :func:`_add_ones`), and the
    weights are normalised."""
    import numpy as np

    k = len(p)
    n = k + ones
    cum = np.empty(n + 1)
    cum[0] = 0.0
    np.cumsum(p, out=cum[1 : k + 1])
    # where the caller handed p over as a temporary, its buffer is freed
    # here, and the weights reuse it instead of taking fresh pages
    del p
    # a level that cooperates against j partners collects cum[j] from them
    # and n - j - cum[n - j] from the others (cum reversed); j is the level
    # itself where the higher level cooperates and n minus it otherwise
    weights = np.arange(n, -1, -1, dtype=float) if high_cooperates else np.arange(n + 1, dtype=float)
    by_j = weights if high_cooperates else weights[::-1]
    _add_ones(cum, k, by_j[::-1])
    np.subtract(by_j, cum[::-1], out=by_j)
    np.add(cum, by_j, out=by_j)
    total = float(weights.sum())
    return OptionDistribution._owning(np.divide(weights, total, out=cum), weights, total)


def _add_ones(cum: np.ndarray, i: int, counts: np.ndarray) -> None:
    """Write cum[i + j] = cum[i] + counts[j] for j = 1.., where counts[j] is
    j, rounded as ``np.cumsum`` of ones rounds. Below 2^53 each +1 is exact
    until the sum reaches the power of two P above x = cum[i], so one vector
    add writes x + 1, ..., x + ceil(P - x), the last the same real sum as
    cumsum's step into the next binade; the next run starts there."""
    import numpy as np

    while i + 1 < len(cum):
        x = float(cum[i])
        if not 0.0 <= x < 2.0**53:
            cum[i + 1 :] = 1.0
            np.cumsum(cum[i:], out=cum[i:])
            return
        # P - x is exact: x is 0 or lies in [P/2, P)
        run = min(math.ceil(math.ldexp(1.0, math.frexp(x)[1]) - x), len(cum) - 1 - i)
        np.add(x, counts[1 : run + 1], out=cum[i + 1 : i + 1 + run])
        i += run


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
    import numpy as np

    n = spec.options
    p_star = public_goods_p_star(spec.k)
    q_star = 1.0 - p_star
    # levels p* + (n - levels) q*, in two buffers
    weights = np.arange(n + 1, dtype=float)
    weights *= p_star
    probs = np.arange(n, -1, -1, dtype=float)
    probs *= q_star
    weights += probs
    total = n * (n + 1) / 2.0
    np.divide(weights, total, out=probs)
    return OptionDistribution._owning(probs, weights, float(total))


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
    """Pairwise cooperation probability as a function of the level gap, for
    ascending ``deltas``.

    Below the bonus/step boundary (g = delta v < t) the pair is a dilemma and
    the positive quadratic branch p = 2 g / (g + t + sqrt((t - g)(t + 3 g)))
    applies, taken as g / (g/2 + t/2 + sqrt(t - g) sqrt(t/4 + 3g/4)), which
    squares nothing and so neither overflows nor underflows; above it the
    pair is coordination-flavored with (b-c)/(a-d) = delta v / (2t) > 1/2,
    which always selects full cooperation on the high claim. At g = t the
    table has a = b and is unclassified (``balanced_p`` raises); it gets
    p = 1, the dilemma branch's limit as g -> t and the coordination value. p is
    ill-conditioned in t - g near the boundary, so t - g is formed as
    (t steps - delta (r - s)) / steps, not from the rounded gap, where t steps
    has room in float64. DomainError where the largest pair payoff,
    s + (steps - 1) v + t, overflows float64.
    """
    import numpy as np

    if not math.isfinite(spec.s + (spec.steps - 1) * spec.v + spec.t):
        raise DomainError(f"payoff scale of {spec!r} overflows float64")
    gap = deltas * spec.v
    t = spec.t
    # the dilemma gaps, below t, are a prefix: the deltas ascend
    k = int(np.searchsorted(gap, t))
    g = gap[:k]
    if math.isfinite(2.0 * t * spec.steps):
        # zero where the exact gap reaches t, which the rounded one missed
        tg = deltas[:k] * (spec.r - spec.s)
        np.subtract(t * spec.steps, tg, out=tg)
        tg /= spec.steps
        np.maximum(tg, 0.0, out=tg)
    else:
        tg = t - g
    np.sqrt(tg, out=tg)
    # g / (g/2 + t/2 + sqrt(t - g) sqrt(t/4 + 3g/4)), written over the gaps
    denominator = 0.75 * g
    denominator += 0.25 * t
    np.sqrt(denominator, out=denominator)
    tg *= denominator
    np.multiply(g, 0.5, out=denominator)
    denominator += 0.5 * t
    denominator += tg
    np.divide(g, denominator, out=g)
    gap[k:] = 1.0
    return gap


def traveler_pij(spec: TravelerSpec, i: int, j: int) -> float:
    """Probability that a balanced player keeps the higher of claims i, j;
    1.0 where their gap is the bonus, as at claims 1, 0 of
    ``TravelerSpec(102, 2, 2, 50)``, whose table is unclassified."""
    import numpy as np

    hi, lo = _level_pair(i, j, spec.steps, "claim")
    return float(_traveler_p_by_delta(spec, np.array([float(hi - lo)]))[0])


def traveler_distribution(spec: TravelerSpec) -> OptionDistribution:
    """Distribution over claim levels 0..N by direct pairwise summation. Only
    the dilemma gaps, d v < t, are solved; the others, the gap equal to the
    bonus among them, cooperate with p = 1 and are passed as a count, whose
    prefix sums :func:`_pairwise_distribution` writes in runs."""
    import numpy as np

    n, v, t = spec.steps, spec.v, spec.t
    # d v < t rounded implies d < t / v exactly, so ceil(t / v) bounds the
    # dilemma gaps from above; the float test itself, monotone in d, trims it
    k = math.ceil(min(t / v, n))
    while k and not k * v < t:
        k -= 1
    return _pairwise_distribution(_traveler_p_by_delta(spec, np.arange(1, k + 1, dtype=float)), True, n - k)


def traveler_mean(spec: TravelerSpec) -> float:
    """Expected claim value under the balanced distribution."""
    return _traveler_mean(spec, traveler_distribution(spec))


def _traveler_mean(spec: TravelerSpec, dist: OptionDistribution) -> float:
    """:func:`traveler_mean` from the spec's distribution, already built."""
    import numpy as np

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
    import numpy as np

    half = spec.x / 2.0
    twice = 2.0 * deltas
    denominator = np.hypot(half, twice)
    denominator += half
    return np.divide(twice, denominator, out=twice)


def _check_attrition_mode(mode: str) -> None:
    if mode not in ("paper", "dispatch"):
        raise DomainError(f"mode must be 'paper' or 'dispatch', got {mode!r}")


def attrition_pij(spec: AttritionSpec, i: int, j: int, mode: str = "paper") -> float:
    """Probability of conceding (the lower bid) for the pair of levels i, j.

    ``paper`` mode applies the dilemma branch formula uniformly:
    p = (-x/2 + sqrt(x^2/4 + 4 d^2)) / (2 d), d = |i - j|. ``dispatch``
    mode classifies the gap's table ``attrition_table2(spec, d, 0)`` first;
    gaps above x/2 land in Chicken and take that family's root instead.
    Both depend on the gap alone, as :func:`attrition_distribution` does.
    """
    import numpy as np

    hi, lo = _level_pair(i, j, spec.max_bid, "bid")
    _check_attrition_mode(mode)
    if mode == "paper":
        return float(_attrition_paper_by_delta(spec, np.array([float(hi - lo)]))[0])
    return balanced_p(attrition_table2(spec, hi - lo, 0)).p


def attrition_distribution(spec: AttritionSpec, mode: str = "paper") -> OptionDistribution:
    """Distribution over bid levels 0..N by direct pairwise summation.

    Cooperation means the lower bid, so a level collects p-weight from
    higher partners and q-weight from lower ones. ``dispatch`` mode solves
    the gap tables ``attrition_table2(spec, d, 0)``, d = 1..N, in one call
    of the batch form of :func:`balanced_p`, which gives every gap the same
    bits (and the same errors) as :func:`attrition_pij` does.
    """
    import numpy as np

    _check_attrition_mode(mode)
    deltas = np.arange(1, spec.max_bid + 1, dtype=float)
    if mode == "paper":
        p = _attrition_paper_by_delta(spec, deltas)
    else:
        x = spec.x
        p = _balanced_p_batch(x, x / 2.0, x / 2.0 - deltas, 0.0)
    return _pairwise_distribution(p, False)
