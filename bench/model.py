"""The balanced-player model, written out again for the benchmark.

Nothing here imports cooprob. The class orderings, the class weights, the
ladder recursion and the game-to-table mappings are restated from their
definitions so that the benchmark can draw inputs with known properties
(one root, map slope at the root) and so that its checks have a reference
that does not share code with the program. Everything works in float64 on
numpy arrays; the high-precision references live in ``checks``.
"""

from __future__ import annotations

import numpy as np

PD, CHICKEN, BOS, STAG, TRANSLATORS, UNCLASSIFIED = range(6)
CLASS_NAMES = (
    "prisoners-dilemma", "chicken", "battle-of-sexes", "stag-hunt", "translators", "unclassified",
)
# the weak inequality each ordering admits: the flag the program reports and
# the positions in (a, b, c, d) that it compares
BOUNDARY_FLAG = {PD: ("c=d", 2, 3), BOS: ("b=c", 1, 2), STAG: ("a=c", 0, 2), TRANSLATORS: ("b=c", 1, 2)}


def classify(a, b, c, d):
    """Class code of each table, by the strict orderings of the paper."""
    a, b, c, d = (np.asarray(x, dtype=float) for x in (a, b, c, d))
    code = np.full(np.broadcast(a, b, c, d).shape, UNCLASSIFIED)
    rules = (
        (PD, (a > b) & (b > c) & (c >= d)),
        (CHICKEN, (a > b) & (b > d) & (d > c)),
        (BOS, (a > d) & (d > c) & (c >= b)),
        (STAG, (b > a) & (a >= c) & (c > d)),
        (TRANSLATORS, (a > c) & (c >= b) & (b > d)),
    )
    for cls, hit in reversed(rules):  # earlier rules take precedence
        code = np.where(hit, cls, code)
    return code


def boundary_flags(cls: int, *table: float) -> list[str]:
    if cls not in BOUNDARY_FLAG:
        return []
    flag, i, j = BOUNDARY_FLAG[cls]
    return [flag] if table[i] == table[j] else []


def weights(cls, a, b, c, d, p):
    """Cooperation weight phi and defection weight chi of each class at p."""
    q = 1.0 - p
    table = {
        PD: (b - c + 0.0 * p, p * (a - b) + q * (c - d)),
        CHICKEN: ((b - c) + q * (d - c), p * (a - b)),
        BOS: (q * (d - c), (c - b) + p * (a - b)),
        STAG: ((b - c) + p * (b - a), q * (c - d)),
        TRANSLATORS: (0.0 * p, (c - b) + p * (a - b) + q * (c - d)),
    }
    cls = np.asarray(cls)
    if cls.ndim == 0:
        return table[int(cls)]
    phi = np.zeros(np.broadcast(a, p, cls).shape)
    chi = np.zeros_like(phi)
    for code, (ph, ch) in table.items():
        hit = cls == code
        phi = np.where(hit, ph, phi)
        chi = np.where(hit, ch, chi)
    return phi, chi


def balance(cls, a, b, c, d, p):
    """The balance function p (phi + chi) - phi."""
    phi, chi = weights(cls, a, b, c, d, p)
    return p * (phi + chi) - phi


def balance_root(cls, a, b, c, d):
    """The balanced p of each table: the root of the balance quadratic in [0, 1].

    The quadratic's coefficients are read off the balance function at
    p = 0, 1/2, 1. StagHunt tables take p = 1 when (b - c)/(a - d) >= 1/2 and
    the interior root otherwise; Translators take p = 0.
    """
    a, b, c, d = (np.asarray(x, dtype=float) for x in (a, b, c, d))
    cls = np.broadcast_to(np.asarray(cls), a.shape)
    f0 = balance(cls, a, b, c, d, 0.0)
    fh = balance(cls, a, b, c, d, 0.5)
    f1 = balance(cls, a, b, c, d, 1.0)
    k2 = 2.0 * f1 - 4.0 * fh + 2.0 * f0
    k1 = f1 - f0 - k2
    k0 = f0
    with np.errstate(divide="ignore", invalid="ignore"):
        disc = np.sqrt(np.maximum(k1 * k1 - 4.0 * k2 * k0, 0.0))
        t = -0.5 * (k1 + np.where(k1 >= 0.0, disc, -disc))
        r_big = t / k2
        r_small = k0 / t
    roots = np.stack([r_small, r_big])
    inside = (roots >= -1e-12) & (roots <= 1.0 + 1e-12)
    stag = cls == STAG
    # StagHunt always has the root p = 1; keep the other one as "interior"
    inside &= ~(stag & (np.abs(roots - 1.0) <= 1e-12) & (np.abs(roots[::-1] - 1.0) > 1e-12))
    pick = np.where(inside[0], roots[0], roots[1])
    p = np.clip(np.where(inside.any(axis=0), pick, np.nan), 0.0, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = (b - c) / (a - d)
    p = np.where(stag & (ratio >= 0.5), 1.0, p)
    p = np.where(cls == TRANSLATORS, 0.0, p)
    return p


# ------------------------------------------------------------------ ladders


def ladder_weights(ladder, p):
    """psi and omega of a dilemma ladder (D_1, C_0, ..., D_n, C_{n-1}) at p.

    A ladder of two players has psi = C_0 - D_2 and omega = p (D_1 - C_0) +
    q (D_2 - C_1). One more cooperator drops the worst two rungs, one more
    defector the best two; psi and omega mix the two with weights p and q.
    Memoized on (first rung, players), so the cost is quadratic in n.
    """
    vals = [float(v) for v in ladder]
    p = np.asarray(p, dtype=float)
    q = 1.0 - p
    memo: dict = {}

    def rec(i: int, m: int):
        key = (i, m)
        if key not in memo:
            if m == 2:
                d1, c0, d2, c1 = vals[i:i + 4]
                memo[key] = (c0 - d2 + 0.0 * p, p * (d1 - c0) + q * (d2 - c1))
            else:
                psi_c, om_c = rec(i, m - 1)
                psi_d, om_d = rec(i + 2, m - 1)
                memo[key] = (p * psi_c + q * psi_d, p * om_c + q * om_d)
        return memo[key]

    return rec(0, len(vals) // 2)


def ladder_balance(ladder, p):
    psi, omega = ladder_weights(ladder, p)
    return p * (psi + omega) - psi


_GRID = np.linspace(0.0, 1.0, 4001)


def ladder_profile(ladder) -> tuple[int, float, float]:
    """(roots in [0, 1], a root, map slope there) for one ladder.

    Roots are counted as sign changes of the balance function on a grid of
    4001 points; the root is then bisected and the slope of the map
    p -> psi / (psi + omega) taken by central difference.
    """
    h = ladder_balance(ladder, _GRID)
    sign = np.sign(h)
    crossings = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    zeros = np.count_nonzero(h == 0.0)
    count = len(crossings) + zeros
    if count != 1 or zeros:
        return count, float("nan"), float("nan")
    lo, hi = _GRID[crossings[0]], _GRID[crossings[0] + 1]
    h_lo = h[crossings[0]]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        h_mid = float(ladder_balance(ladder, mid))
        if (h_mid < 0.0) == (h_lo < 0.0):
            lo, h_lo = mid, h_mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    eps = 1e-6
    x = np.array([root - eps, root + eps])
    psi, omega = ladder_weights(ladder, x)
    g = psi / (psi + omega)
    return 1, root, float((g[1] - g[0]) / (2.0 * eps))


# --------------------------------------------------------- applied games


def diner_ladder(r_cb: float, n: int) -> list[float]:
    """Diner ladder for a bill split n ways, scaled so that s - u = 1.

    A defector among k - 1 cooperating others eats the expensive dish
    (worth s, costing r) and pays an even share of k expensive and n - k
    cheap dishes; a cooperator eats the cheap one (worth u, costing w).
    The balance depends on the dishes only through R_cb = (r - w)/(s - u).
    """
    w, u, s = 0.0, 0.0, 1.0
    r = w + r_cb
    out = []
    for k in range(1, n + 1):
        out.append(s - (k * r + (n - k) * w) / n)
        out.append(u - ((k - 1) * r + (n - k + 1) * w) / n)
    return out


def traveler_pair(v: float, t: float, deltas):
    """Pairwise tables (a, b, c, d) of the claim game for level gaps delta,
    with the lower claim at 0: both get the lower claim, the undercutter
    collects the bonus t from the higher claimant."""
    gap = np.asarray(deltas, dtype=float) * v
    zero = np.zeros_like(gap)
    return zero + t, gap, zero, zero - t


def attrition_pair(x: float, deltas):
    """Pairwise tables (a, b, c, d) of the bidding contest for bid gaps
    delta, with the lower bid at 0: the higher bidder takes the prize x,
    both pay the lower bid, equal bids split the prize."""
    delta = np.asarray(deltas, dtype=float)
    zero = np.zeros_like(delta)
    return zero + x, zero + x / 2.0, x / 2.0 - delta, zero


def pairwise_distribution(p_by_delta: np.ndarray, high_cooperates: bool) -> np.ndarray:
    """Unnormalized option weights U_i of an (N+1)-option game.

    ``p_by_delta[k-1]`` is the probability that the cooperative option of a
    pair k levels apart is taken. With ``high_cooperates`` the higher level
    is the cooperative one (claim high); otherwise the lower one (bid low).
    """
    n = len(p_by_delta)
    cum = np.concatenate(([0.0], np.cumsum(p_by_delta)))
    i = np.arange(n + 1)
    below, above = i, n - i  # partners below / above level i
    if high_cooperates:
        return cum[below] + (above - cum[above])
    return cum[above] + (below - cum[below])
