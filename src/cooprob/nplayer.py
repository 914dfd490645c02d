"""Solvers beyond the symmetric two-player case.

Every dilemma solver here goes through one balance core: psi and omega in
Bernstein form, the roots of the balance polynomial in [0, 1] isolated by
subdivision and refined by Newton's method on its own coefficients,
safeguarded by bisection, and one root rule.
Three-player tables and n-player ladders hand it the ladder gaps. The
two-sided (asymmetric) game hands it, per side, that side's map composed
with the other side's, whose weights are affine in p. Every solver here
reports as ``roots`` the balance roots in [0, 1] that the core found. A
balance polynomial of degree 2, as there and for two-player ladders, goes
to the closed form ``estimators._balance_root2``, which also solves the
five 2x2 classes.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass

from .errors import (
    AmbiguousRootError,
    DegenerateWeightsError,
    DomainError,
    NoValidRootError,
    UnsupportedClassError,
)
from .estimators import EquiprobabilityReport, _balance_root2, _leaning
from .tables import (
    _PD,
    AsymmetricTable2,
    Estimate,
    GameTag,
    PayoffTable3,
    classify2,
    classify3,
    payoff_scale,
)

__all__ = [
    "CubicCoefficients",
    "cubic_coefficients",
    "balanced_p3",
    "equiprobability3",
    "expected_payoff3",
    "balanced_p_asym",
    "psi_omega_coeffs",
    "balanced_pn",
]


@dataclass(frozen=True)
class CubicCoefficients:
    """Descending coefficients of the three-player balance cubic."""

    c3: float
    c2: float
    c1: float
    c0: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.c3, self.c2, self.c1, self.c0)


def cubic_coefficients(table: PayoffTable3) -> CubicCoefficients:
    """Coefficients of p (psi + omega) - psi = 0 expanded in p (descending);
    DomainError where one of them overflows float64."""
    f, g, h, j, k, m = table.values()
    coeffs = CubicCoefficients(
        c3=f - g - 2.0 * h + 2.0 * j + k - m,
        c2=g + h - 3.0 * j - k + 2.0 * m,
        c1=-g + h + 2.0 * j - k - m,
        c0=k - j,
    )
    if not all(map(math.isfinite, coeffs.as_tuple())):
        raise DomainError("balance polynomial coefficients overflow float64")
    return coeffs


# no solver calls this; kept because bench/tracing.py wraps it by name
def _real_roots(desc_coeffs: list[float], eps_root: float) -> list[float]:
    """Real roots of a polynomial given by descending coefficients."""
    import numpy as np

    if len(desc_coeffs) <= 1:
        return []
    roots = np.roots(desc_coeffs).tolist()
    scale = max(map(abs, roots), default=1.0)
    return sorted(r.real for r in roots if abs(r.imag) <= eps_root * max(1.0, scale))


def balanced_p3(table: PayoffTable3) -> Estimate:
    """Balanced cooperation probability for a three-player dilemma table.

    The table (f, g, h, j, k, m) is the n = 3 dilemma ladder, equalities
    allowed, and p comes from the ladder solver of :func:`balanced_pn`. Root
    rule: a lone root in [0, 1] wins, else the lone attracting one (map slope
    below 1 in magnitude), else the attracting root that iteration from 1/2
    reaches first (see :func:`_orbit_root`); anything else raises
    ``AmbiguousRootError``. ``roots`` lists every balance root in [0, 1], as
    :func:`balanced_pn` does.
    """
    cls = classify3(table)
    if cls.tag is not GameTag.PRISONERS_DILEMMA:
        raise UnsupportedClassError("balanced_p3 requires the dilemma chain f>=g>=h>=j>=k>=m")
    p, roots = _ladder_root(list(table.values()))
    return Estimate(p, "balanced", cls, roots=tuple(roots))


def equiprobability3(table: PayoffTable3) -> EquiprobabilityReport:
    """Three-player analogue of the p = 1/2 test.

    gap = 3 (g - k) - (f - m) - 4 (h - j); sign semantics match the
    two-player report.
    """
    f, g, h, j, k, m = table.values()
    return _leaning(3.0 * (g - k) - (f - m) - 4.0 * (h - j))


def expected_payoff3(table: PayoffTable3, p: float) -> float:
    """Per-player expected payoff with all three cooperating at level p.

    mu = p^3 g + q^3 k + p^2 q (f + 2 j) + p q^2 (2 h + m).
    """
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"p={p!r} outside [0, 1]")
    f, g, h, j, k, m = table.values()
    q = 1.0 - p
    return p**3 * g + q**3 * k + p * p * q * (f + 2.0 * j) + p * q * q * (2.0 * h + m)


def _products(pairs) -> list[float]:
    """Products u v of pairs of gaps from mantissas and exponents, shifted by one
    even power of two to put the largest below 1: in range unless they span more
    than float64 holds, and the square roots in ``_balance_root2`` shift exactly."""
    parts = [(mu * mv, eu + ev) for (mu, eu), (mv, ev) in (map(math.frexp, pair) for pair in pairs)]
    top = max(e for m, e in parts if m)
    top += top & 1
    return [math.ldexp(m, e - top) for m, e in parts]


def balanced_p_asym(table: AsymmetricTable2) -> tuple[Estimate, Estimate]:
    """Coupled balanced probabilities (p_x, p_y) for a two-sided dilemma.

    Both sides must classify PrisonersDilemma (boundary flags permitted).
    Each side's p is the balance root of its map p' -> F / (F + chi(p'))
    composed with the other side's, F = b - c. With primes marking the other
    side, the weights psi = F (F' + chi'(p)) and omega = F' (a - b) + chi'(p) (c - d)
    are affine in p and nonnegative. The root rule is that of :func:`balanced_p3`;
    a composed Moebius map has at most one attracting fixed point, so the
    degree-2 closed form decides and no iteration runs.
    ``roots`` lists each side's balance roots in [0, 1]. A side whose payoff
    scale overflows float64 raises DomainError.
    """
    sides = table.side_x(), table.side_y()
    classes = [classify2(side) for side in sides]
    if any(cls.tag is not GameTag.PRISONERS_DILEMMA for cls in classes):
        raise UnsupportedClassError("both sides must classify PrisonersDilemma")
    x, y = (side.values() for side in sides)
    for values in x, y:
        payoff_scale(values)  # every gap within a side is finite where its scale is
    estimates = []
    for own, other, cls in ((x, y, classes[0]), (y, x, classes[1])):
        (a, b, c, d), (a2, b2, c2, d2) = own, other
        # F' + chi' is b' - d' at p = 0 and a' - c' at p = 1
        f, cd = b - c, c - d
        pairs = (f, b2 - d2), (f, a2 - c2), (b2 - c2, a - b), (c2 - d2, cd), (a2 - b2, cd)
        psi0, psi1, fab, cd0, cd1 = _products(pairs)
        p, roots = _balance_root_affine(*_reduced([psi0, psi1], [fab + cd0, fab + cd1]))
        estimates.append(Estimate(p, "balanced", cls, roots=tuple(roots)))
    return estimates[0], estimates[1]


def _validate_ladder(ladder, n: int | None) -> list[float]:
    vals = [float(v) for v in ladder]
    if len(vals) < 4 or len(vals) % 2 != 0:
        raise DomainError("ladder must hold 2n payoffs with n >= 2")
    players = len(vals) // 2
    if n is not None and n != players:
        raise DomainError(f"ladder length {len(vals)} does not match n={n}")
    for hi, lo in zip(vals, vals[1:]):
        if not hi > lo:
            raise DomainError("ladder payoffs must decrease strictly")
    if not all(math.isfinite(v) for v in vals):
        raise DomainError("ladder payoffs must be finite")
    return vals


# Brent's method: the iteration cap of scipy.optimize.brentq
_BRENT_MAXITER = 100


# no solver calls this; kept because bench/tracing.py wraps it by name
def brentq(f, a: float, b: float, xtol: float, rtol: float) -> float:
    """Root of f on [a, b], where f(a) and f(b) differ in sign, by Brent's method.

    A step-for-step port of ``scipy.optimize.brentq`` (scipy's ``brentq.c``,
    after Brent 1973, ch. 4): each step takes an inverse quadratic or secant
    step when it is short enough and bisects otherwise, until the bracket is
    narrower than xtol + rtol |x|. It makes the same steps in the same float
    operations as scipy, so it returns the same root bit for bit. Raises
    ``NoValidRootError`` when f(a) and f(b) have the same sign or 100
    iterations do not converge.
    """
    xpre, xcur = a, b
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise NoValidRootError(f"function does not change sign on [{a!r}, {b!r}]")
    for _ in range(_BRENT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # in C an inf or nan step, which fails the test below
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise NoValidRootError(f"Brent's method did not converge in {_BRENT_MAXITER} iterations")


@functools.lru_cache(maxsize=64)
def _binomials(m: int) -> tuple[float, ...]:
    """C(m, k) for k = 0..m as floats, the rows last used kept."""
    try:
        return tuple(float(math.comb(m, k)) for k in range(m + 1))
    except OverflowError:
        raise DomainError(f"binomial weights of degree {m} overflow float64") from None


def _ladder_bernstein(vals: list[float]) -> tuple[list[float], list[float]]:
    """Bernstein coefficients of (psi, omega), indexed by the power of p.

    They are the ladder gaps C_i - D_{i+2} and D_{j+1} - C_j, listed from
    the bottom of the ladder up; all are positive on a strict ladder.
    """
    psi = [c - d for c, d in zip(vals[1::2], vals[2::2])]
    omega = [d - c for d, c in zip(vals[0::2], vals[1::2])]
    return psi[::-1], omega[::-1]


def _weighted(beta: list[float]) -> list[float]:
    """C(m, k) b_k for Bernstein coefficients b_0..b_m."""
    return [c * b for c, b in zip(_binomials(len(beta) - 1), beta)]


def _bernstein(w: list[float], p: float) -> float:
    """sum_k w[k] p^k q^(m-k), q = 1 - p, by Horner in p/q (p <= 1/2) or q/p.

    With nonnegative weights every term is nonnegative, so on [0, 1] the
    sum carries no cancellation whatever the degree.
    """
    q = 1.0 - p
    s = 0.0
    if p <= 0.5:
        t = p / q
        for c in reversed(w):
            s = s * t + c
        return s * q ** (len(w) - 1)
    t = q / p
    for c in w:
        s = s * t + c
    return s * p ** (len(w) - 1)


def _power_form(beta: list[float]) -> np.ndarray:
    """Ascending power coefficients a_r = C(m, r) Delta^r b_0 of a Bernstein form."""
    import numpy as np

    diffs = np.array(beta)
    out = np.empty(len(beta))
    for r, c in enumerate(_binomials(len(beta) - 1)):
        out[r] = c * diffs[0]
        diffs = diffs[1:] - diffs[:-1]
    return out


def psi_omega_coeffs(ladder) -> tuple[np.ndarray, np.ndarray]:
    """Ascending polynomial coefficients of (psi, omega) for a dilemma ladder.

    The ladder interleaves defection and cooperation payoffs from best to
    worst: (D_1, C_0, D_2, C_1, ..., D_n, C_{n-1}), strictly decreasing.
    Mixing, with weights p and q = 1 - p, the ladders that face one more
    cooperator and one more defector is de Casteljau's algorithm, so psi and
    omega are Bernstein polynomials whose coefficients are the ladder gaps:

        psi(p)   = sum_{i=0}^{n-2} C(n-2, i) p^(n-2-i) q^i (C_i - D_{i+2})
        omega(p) = sum_{j=0}^{n-1} C(n-1, j) p^(n-1-j) q^j (D_{j+1} - C_j)

    The power coefficients follow by forward differences,
    a_r = C(m, r) Delta^r b_0, in O(n^2) work.
    """
    psi, omega = _ladder_bernstein([float(v) for v in ladder])
    return _power_form(psi), _power_form(omega)


# a piece narrower than this whose coefficients still change sign holds one root
_ROOT_WIDTH = 1e-12

# :func:`_refine` stops after a step of at most this fraction of its
# iterate, and gives up after this many steps
_REFINE_STOP, _REFINE_BUDGET = 2.0**-52, 300

# :func:`_orbit_root` reaches a root within this distance, or gives up after this many steps
_ORBIT_REACH, _ORBIT_BUDGET = 1e-9, 10**6


def _halves(b: list[float]) -> tuple[list[float], list[float]]:
    """Bernstein coefficients of both halves of a piece, by de Casteljau at 1/2."""
    left, right = [b[0]], [b[-1]]
    while len(b) > 1:
        b = [(x + y) * 0.5 for x, y in zip(b, b[1:])]
        left.append(b[0])
        right.append(b[-1])
    return left, right[::-1]


def _reduced(wpsi: list[float], womega: list[float]) -> tuple[list[float], list[float]]:
    """Weighted Bernstein coefficients of psi and omega with every common
    factor p or q dropped: a zero at the same end of both lists. What is left
    has psi + omega > 0 on [0, 1]. DomainError where a weight is not finite,
    DegenerateWeightsError where all of them vanish."""
    if not all(map(math.isfinite, wpsi + womega)):
        raise DomainError("balance weights overflow float64")
    if not any(wpsi) and not any(womega):
        raise DegenerateWeightsError("balance polynomial vanished identically")
    while wpsi and wpsi[0] == womega[0] == 0.0:
        wpsi, womega = wpsi[1:], womega[1:]
    while wpsi and wpsi[-1] == womega[-1] == 0.0:
        wpsi, womega = wpsi[:-1], womega[:-1]
    return wpsi, womega


def _balance_root_affine(wpsi: list[float], womega: list[float]) -> tuple[float, list[float]]:
    """:func:`_balance_root` of reduced weights of degree at most 1, which
    never iterates: degree 1 is raised to 2 by the factor p + q, and then
    h has at most one root in (0, 1), besides 0 where psi vanishes and 1
    where omega does, which :func:`estimators._balance_root2` picks from."""
    p = _balance_root2(wpsi[0], wpsi[-1], womega[0], womega[-1])
    ends = {0.0} if wpsi[0] == 0.0 else set()
    if womega[-1] == 0.0:
        ends.add(1.0)
    return p, sorted(ends | {p})


def _orbit_root(wpsi: list[float], womega: list[float], roots: list[float], attracting: list[float]) -> float:
    """The attracting root among ``roots`` that iteration of the map
    p <- psi / (psi + omega) from 1/2 reaches, psi and omega given by their
    weighted Bernstein coefficients.

    The orbit stops at its first iterate within _ORBIT_REACH of a root. It
    looks only after a step of at most twice that, as every step that close
    to an attracting root is. AmbiguousRootError where the root reached
    repels or where _ORBIT_BUDGET steps reach none.
    """
    p, look = 0.5, 2.0 * _ORBIT_REACH
    for _ in range(_ORBIT_BUDGET):
        psi = _bernstein(wpsi, p)
        total = psi + _bernstein(womega, p)
        if total == 0.0:
            raise DegenerateWeightsError(f"psi + omega = 0 at iterate {p!r}")
        prev, p = p, psi / total
        if abs(p - prev) <= look:
            near = min(roots, key=lambda r: abs(r - p))
            if abs(near - p) <= _ORBIT_REACH:
                if near in attracting:
                    return near
                why = f"reaches the repelling root {near!r}"
                break
    else:
        why = f"reaches no root in {_ORBIT_BUDGET} steps"
    msg = f"iteration from 1/2 {why} among the balance roots {roots!r} in [0, 1]"
    raise AmbiguousRootError(msg, tuple(roots))


def _h_coefficients(wpsi: list[float], womega: list[float]) -> list[float]:
    """Coefficients H_0..H_d of h = p omega - q psi = q^d sum_k H_k t^k,
    t = p / q, each one correctly rounded sum: H_k = W_{k-1} - S_k, less
    S_{k-1} too where psi comes one degree below omega and is raised by the
    factor p + q. ValueError where psi is neither degree."""
    w = [0.0, *womega]
    if len(wpsi) == len(womega):
        return [a - b for a, b in zip(w, wpsi + [0.0], strict=True)]
    s = wpsi + [0.0, 0.0]
    return [math.fsum((a, -b, -c)) for a, b, c in zip(w, s, [0.0, *wpsi, 0.0], strict=True)]


def _h_step(hk: list[float], x: float) -> tuple[float, float]:
    """h at x up to a positive factor, and the Newton step -h / h' there.

    With a = q and t = p / q at x <= 1/2 (a = p and t = q / p above), h is
    a^d P(t) for the polynomial P of the coefficients H_k (in reverse above
    1/2), and h' is a^(d-2) (P' - d a P) (its negative above 1/2). One
    Horner pass gives P and P', and the step a^2 P / (P' - d a P) needs no
    power of a.
    """
    deg = len(hk) - 1
    if x <= 0.5:
        a = 1.0 - x
        t, coeffs, sign = x / a, reversed(hk), -1.0
    else:
        a = x
        t, coeffs, sign = (1.0 - x) / x, hk, 1.0
    f = g = 0.0
    for c in coeffs:
        g = g * t + f
        f = f * t + c
    den = g - deg * a * f
    return f, (sign * a * a * f / den if den else math.inf)


def _midpoint(lo: float, hi: float) -> float:
    """Midpoint of a bracket in [0, 1]: of the float64 bit patterns where it
    spans binades, so that 64 halvings reach adjacent floats, else of the
    values, which within a binade is the same point."""
    if hi <= 2.0 * lo:
        return 0.5 * (lo + hi)
    bits = struct.unpack("<2q", struct.pack("<2d", lo, hi))
    return struct.unpack("<d", struct.pack("<q", sum(bits) // 2))[0]


def _refine(hk: list[float], b: list[float], lo: float, hi: float) -> float:
    """The root of h in a piece [lo, hi] whose Bernstein coefficients ``b``
    change sign once, by Newton's method safeguarded by bisection.

    It starts where the control polygon of ``b`` crosses 0. The bracket
    keeps the signs of the piece's own end coefficients, so it holds even
    where h is at rounding level there. A Newton step that leaves the
    bracket, or fails to halve the step before last (the rule of rtsafe,
    Numerical Recipes 9.4), gives way to a bisection by :func:`_midpoint`.
    Steps are measured relative to the iterate, so that Newton's method
    halving its way down to a root near 0, a binade a step, counts as no
    progress. It stops after a step of at most _REFINE_STOP of the iterate,
    one or two ulps.
    """
    rising = b[0] < 0.0
    j = 1
    while b[j] != 0.0 and (b[j] < 0.0) == rising:
        j += 1
    x = lo + (hi - lo) * (j - 1 + b[j - 1] / (b[j - 1] - b[j])) / (len(b) - 1)
    if not lo < x < hi:
        x = _midpoint(lo, hi)
    step = before = 1.0  # the relative sizes of the last two steps
    for _ in range(_REFINE_BUDGET):
        f, dx = _h_step(hk, x)
        if f == 0.0:
            return x
        if (f < 0.0) == rising:
            lo = x
        else:
            hi = x
        new = x + dx
        if abs(dx) <= _REFINE_STOP * x:
            return new if lo <= new <= hi else x
        if not (lo < new < hi and 2.0 * abs(dx) <= before * max(x, new)):
            new = _midpoint(lo, hi)
            dx = new - x
            if abs(dx) <= _REFINE_STOP * x:
                return new
        before, step = step, abs(dx) / max(x, new)
        x = new
    raise NoValidRootError(f"Newton's method did not converge in {_REFINE_BUDGET} steps")


def _balance_root(wpsi: list[float], womega: list[float]) -> tuple[float, list[float]]:
    """Balanced p of weights psi and omega, and every root of
    h = p omega - q psi in [0, 1].

    psi and omega come as weighted Bernstein coefficients C(m, k) b_k, all
    nonnegative, omega of degree m and psi of degree m or m - 1, and
    :func:`_reduced` drops their common factors. h has the coefficients of
    :func:`_h_coefficients`; weights so large that h, h' or those sums could
    overflow are first scaled down by a power of two. Degree 2 goes to
    :func:`_balance_root_affine`. Otherwise halving [0, 1] by de Casteljau
    isolates the roots: a piece whose coefficients change sign once holds
    one, refined by :func:`_refine`; an exact zero at 0, 1 or a split point
    is one. The choice among the roots follows the root rule stated under
    :func:`balanced_p3`.
    """
    wpsi, womega = _reduced(wpsi, womega)
    if len(womega) <= 2:
        return _balance_root_affine(wpsi or [0.0], womega)
    deg = len(womega)
    # |h|, |h'| and every partial sum below are at most 6 (deg + 1)^2 times the largest weight
    excess = math.frexp(max(wpsi + womega))[1] + (6 * (deg + 1) ** 2).bit_length() - 1023
    if excess > 0:
        wpsi = [math.ldexp(w, -excess) for w in wpsi]
        womega = [math.ldexp(w, -excess) for w in womega]
    hk = _h_coefficients(wpsi, womega)
    roots: list[float] = []

    def isolate(b: list[float], lo: float, hi: float) -> None:
        signs = [x > 0.0 for x in b if x != 0.0]
        changes = sum(s != t for s, t in zip(signs, signs[1:]))
        if changes == 1 and b[0] != 0.0 and b[-1] != 0.0:
            roots.append(_refine(hk, b, lo, hi))
        elif changes:
            mid = 0.5 * (lo + hi)
            if hi - lo < _ROOT_WIDTH:
                roots.append(mid)
                return
            left, right = _halves(b)
            isolate(left, lo, mid)
            if right[0] == 0.0:
                roots.append(mid)
            isolate(right, mid, hi)

    bern = [c / w for c, w in zip(hk, _binomials(deg))]
    roots += [0.0] if bern[0] == 0.0 else []
    isolate(bern, 0.0, 1.0)
    roots += [1.0] if bern[-1] == 0.0 else []
    if len(roots) == 1:
        return roots[0], roots

    # at a root, g = psi / (psi + omega) has slope g' = 1 - h' / (psi + omega)
    dh = [(k + 1) * b - (deg - k) * a for k, (a, b) in enumerate(zip(hk, hk[1:]))]
    attracting = [
        r for r in roots if abs(1.0 - _bernstein(dh, r) / (_bernstein(wpsi, r) + _bernstein(womega, r))) < 1.0
    ]
    if len(attracting) == 1:
        return attracting[0], roots
    if attracting:
        return _orbit_root(wpsi, womega, roots, attracting), roots
    raise AmbiguousRootError(
        f"no single attracting root among the balance roots {roots!r} in [0, 1]", tuple(roots)
    )


def _ladder_root(vals: list[float]) -> tuple[float, list[float]]:
    """:func:`_balance_root` of a weakly decreasing dilemma ladder, whose psi
    is one degree below omega."""
    bpsi, bomega = _ladder_bernstein(vals)
    return _balance_root(_weighted(bpsi), _weighted(bomega))


def balanced_pn(ladder, n: int | None = None) -> Estimate:
    """Balanced cooperation probability for an n-player dilemma ladder.

    psi and omega are evaluated in Bernstein form, whose coefficients are
    the positive ladder gaps, so every term is nonnegative and accurate for
    any n. ``Estimate.roots`` lists every balance root in [0, 1]; the choice
    among them is the root rule of :func:`balanced_p3`. Reduces
    exactly to the n = 2 and n = 3 solvers.
    """
    p, roots = _ladder_root(_validate_ladder(ladder, n))
    return Estimate(p, "balanced", _PD, roots=tuple(roots))
