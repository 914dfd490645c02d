"""Reference checks of the program's outputs, run after timing.

Nothing here imports cooprob. Each ``check_*`` function takes the inputs the
benchmark generated and the outputs the program returned, recomputes the
answer from the model in ``model`` (float64) or in mpmath at 40 digits, and
returns a list of mismatch messages; an empty list means every output
passed. ``bench/test_checks.py`` feeds each check wrong answers and asserts
that it rejects them.
"""

from __future__ import annotations

import csv
import io
import json

import mpmath as mp
import numpy as np

import model

mp.mp.dps = 40

P_TOL = 1e-9  # distance in p allowed between the program and a reference root
REL_TOL = 1e-9  # relative tolerance for sums over 10^5 - 10^6 options
SIG12 = 1e-11  # relative agreement of numbers printed at 12 significant digits


def _close(x, ref, rel, floor=1e-12) -> bool:
    return x is not None and abs(x - ref) <= max(rel * abs(ref), floor)


# ------------------------------------------------------------- 2x2 tables


def mp_balance_root(cls: int, a, b, c, d) -> float:
    """The balanced p of one classified table, in mpmath.

    The balance function p (phi + chi) - phi is a quadratic in p. Its
    coefficients are read off at p = 0, 1/2, 1 and its roots found with
    ``polyroots``. The interior root in [0, 1] is the answer, except for the
    StagHunt rule (b - c)/(a - d) >= 1/2 => p = 1 and p = 0 for Translators.
    """
    a, b, c, d = (mp.mpf(float(x)) for x in (a, b, c, d))
    if cls == model.TRANSLATORS:
        return 0.0
    if cls == model.STAG and (b - c) / (a - d) >= mp.mpf(1) / 2:
        return 1.0
    f = [model.balance(cls, a, b, c, d, mp.mpf(x)) for x in (0, mp.mpf(1) / 2, 1)]
    k2 = 2 * f[2] - 4 * f[1] + 2 * f[0]
    k1 = f[2] - f[0] - k2
    coeffs = [k2, k1, f[0]] if k2 != 0 else [k1, f[0]]
    roots = [mp.re(r) for r in mp.polyroots(coeffs, maxsteps=200, extraprec=60) if abs(mp.im(r)) < mp.mpf(10) ** -30]
    inside = [r for r in roots if 0 <= r <= 1]
    if cls == model.STAG:
        inside = [r for r in inside if abs(r - 1) > mp.mpf(10) ** -30] or inside
    if len(inside) != 1:
        raise ValueError(f"reference finds {len(inside)} roots in [0, 1] for {(a, b, c, d)}")
    return float(inside[0])


def check_tables2(tables: np.ndarray, out: dict, deep: np.ndarray) -> list[str]:
    """2x2 outputs for a block of tables (rows a, b, c, d).

    ``out`` holds arrays ``cls`` (class code), ``p``, ``mu``, ``gap``,
    ``maximin`` (NaN where undefined) and ``payoff_max`` (NaN where not run).
    Every row is checked against the class, the balance residual
    p (phi + chi) - phi in p units, the StagHunt and Translators rules and
    the baseline formulas; rows where ``deep`` is set are also checked
    against the mpmath root.
    """
    errs: list[str] = []
    a, b, c, d = tables.T
    cls = model.classify(a, b, c, d)
    p = out["p"]
    bad_cls = np.nonzero(cls != out["cls"])[0]
    errs += [f"table {tables[i].tolist()}: class {out['cls'][i]} != {cls[i]}" for i in bad_cls[:5]]
    phi, chi = model.weights(cls, a, b, c, d, p)
    with np.errstate(divide="ignore", invalid="ignore"):
        resid = np.where(phi + chi > 0, p - phi / (phi + chi), np.inf)
    ratio = np.where(cls == model.STAG, (b - c) / (a - d), 0.0)
    bad = (
        ~(np.abs(resid) <= P_TOL)
        | ~((p >= 0.0) & (p <= 1.0))
        | ((cls == model.TRANSLATORS) & (p != 0.0))
        | ((cls == model.STAG) & (ratio >= 0.5) & (p != 1.0))
        | ((cls == model.STAG) & (ratio < 0.5) & (p == 1.0))
    )
    errs += [f"table {tables[i].tolist()}: p={p[i]!r} fails the balance" for i in np.nonzero(bad)[0][:5]]
    q = 1.0 - p
    mu = p * p * b + p * q * d + q * p * a + q * q * c
    scale = np.maximum(np.max(tables, axis=1) - np.min(tables, axis=1), 1.0)
    bad = ~(np.abs(out["mu"] - mu) <= 1e-12 * np.maximum(np.abs(mu), scale))
    errs += [f"table {tables[i].tolist()}: mu={out['mu'][i]!r} != {mu[i]!r}" for i in np.nonzero(bad)[0][:5]]
    # sign of the dilemma balance at p = 1/2, scaled: gap > 0 means p > 1/2
    gap = -4.0 * model.balance(model.PD, a, b, c, d, 0.5)
    bad = ~(np.abs(out["gap"] - gap) <= 1e-12 * scale)
    errs += [f"table {tables[i].tolist()}: gap={out['gap'][i]!r} != {gap[i]!r}" for i in np.nonzero(bad)[0][:5]]
    # maximin: the opponent mix x that makes cooperating and defecting pay alike
    den = (b - a) + (c - d)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.where(den != 0.0, (c - d) / den, np.nan)
    bad = ~((np.isnan(x) & np.isnan(out["maximin"])) | (np.abs(out["maximin"] - x) <= 1e-12 * np.maximum(np.abs(x), 1.0)))
    errs += [f"table {tables[i].tolist()}: maximin={out['maximin'][i]!r} != {x[i]!r}" for i in np.nonzero(bad)[0][:5]]
    ran = ~np.isnan(out["payoff_max"])
    best = payoff_argmax(a[ran], b[ran], c[ran], d[ran])
    bad = ~(np.abs(out["payoff_max"][ran] - best) <= 1e-12)
    rows = np.nonzero(ran)[0][bad]
    errs += [f"table {tables[i].tolist()}: payoff-max p={out['payoff_max'][i]!r}" for i in rows[:5]]
    for i in np.nonzero(deep)[0]:
        ref = mp_balance_root(int(cls[i]), *tables[i])
        if not abs(p[i] - ref) <= P_TOL:
            errs.append(f"table {tables[i].tolist()}: p={p[i]!r}, mpmath root {ref!r}")
    return errs


def payoff_argmax(a, b, c, d):
    """The p in [0, 1] maximizing the mutual payoff p^2 b + pq (a + d) + q^2 c."""
    k = a - b - c + d
    with np.errstate(divide="ignore", invalid="ignore"):
        eta = np.where(k != 0.0, (a + d - 2.0 * c) / (2.0 * k), -1.0)
    cands = np.stack([np.zeros_like(a), np.ones_like(a), np.clip(eta, 0.0, 1.0)])
    q = 1.0 - cands
    mu = cands * cands * b + cands * q * (a + d) + q * q * c
    return cands[np.argmax(mu, axis=0), np.arange(a.shape[0])]


# -------------------------------------------------------- n-player ladders


def mp_ladder_balance(ladder, x) -> mp.mpf:
    """h(x) = x (psi + omega) - psi by the ladder recursion, memoized, in mpmath."""
    return model.ladder_balance([mp.mpf(float(v)) for v in ladder], mp.mpf(x))


def check_ladder(ladder, p: float, what: str = "ladder") -> list[str]:
    """p must bracket a sign change of the balance function within 1e-9."""
    if not (0.0 <= p <= 1.0):
        return [f"{what} {list(ladder)}: p={p!r} outside [0, 1]"]
    lo, hi = max(0.0, p - P_TOL), min(1.0, p + P_TOL)
    h_lo, h_hi = mp_ladder_balance(ladder, lo), mp_ladder_balance(ladder, hi)
    if h_lo * h_hi > 0:
        return [f"{what} {list(ladder)}: no sign change of h around p={p!r}"]
    return []


def mp_cubic_roots(table) -> list[float]:
    """Roots in [0, 1] of the three-player balance cubic, by mpmath polyroots.

    With A = f-g, B = h-j, C = k-m, G = g-h, J = j-k the weights are
    psi = J + p (G - J) and omega = C + 2p (B - C) + p^2 (A - 2B + C), so
    p (psi + omega) - psi has the coefficients below.
    """
    f, g, h, j, k, m = (mp.mpf(float(v)) for v in table)
    A, B, C, G, J = f - g, h - j, k - m, g - h, j - k
    coeffs = [A - 2 * B + C, G - J + 2 * B - 2 * C, 2 * J + C - G, -J]
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)
    roots = mp.polyroots(coeffs, maxsteps=200, extraprec=60)
    real = [mp.re(r) for r in roots if abs(mp.im(r)) < mp.mpf(10) ** -25]
    return sorted(float(r) for r in real if 0 <= r <= 1)


def check_p3(table, p: float) -> list[str]:
    roots = mp_cubic_roots(table)
    if len(roots) != 1:
        return [f"p3 {list(table)}: reference finds roots {roots} in [0, 1]"]
    if not abs(p - roots[0]) <= P_TOL:
        return [f"p3 {list(table)}: p={p!r}, cubic root {roots[0]!r}"]
    return []


def check_asym(x, y, px: float, py: float) -> list[str]:
    """Both coupled balance equations hold: each side's p is the balanced
    response of a dilemma table to the other side's p (residual in p units)."""
    errs = []
    for side, tab, mine, other in (("x", x, px, py), ("y", y, py, px)):
        if not 0.0 <= mine <= 1.0:
            errs.append(f"asym {list(x)}|{list(y)}: p_{side}={mine!r} outside [0, 1]")
            continue
        a, b, c, d = (mp.mpf(float(v)) for v in tab)
        phi, chi = model.weights(model.PD, a, b, c, d, mp.mpf(other))
        if not abs(mine - phi / (phi + chi)) <= P_TOL:
            errs.append(f"asym {list(x)}|{list(y)}: side {side} residual {float(mine - phi / (phi + chi))!r}")
    return errs


# ---------------------------------------------------------- applied games


def check_diner(n: int, r_cb: float, p: float) -> list[str]:
    """n = 2, 3: p = 2 - n/R_cb. Every n: p is the root of the diner ladder."""
    errs = []
    if n in (2, 3) and not abs(p - (2.0 - n / r_cb)) <= 1e-12:
        errs.append(f"diner n={n} R_cb={r_cb!r}: p={p!r} != 2 - n/R_cb")
    errs += check_ladder(model.diner_ladder(r_cb, n), p, f"diner n={n}")
    return errs


def _check_distribution(name: str, probs, total: float, weights_ref: np.ndarray, sample) -> list[str]:
    n = len(weights_ref) - 1
    probs = np.asarray(probs, dtype=float)
    if probs.shape != weights_ref.shape:
        return [f"{name}: {probs.shape[0]} options, expected {n + 1}"]
    w_total = n * (n + 1) / 2.0  # every pair of options hands out one unit
    errs = []
    if not _close(total, w_total, REL_TOL):
        errs.append(f"{name}: total {total!r} != N(N+1)/2 = {w_total!r}")
    ref = weights_ref / w_total
    bad = np.nonzero(~(np.abs(probs - ref) <= REL_TOL * np.abs(ref) + 1e-18))[0]
    errs += [f"{name}: level {i}: {probs[i]!r} != {ref[i]!r}" for i in bad[:5]]
    return errs


def check_public_goods(options: int, k: float, probs, total: float) -> list[str]:
    """U_i = i p* + (N - i) q* with p* = 2 - 2/k, over W = N (N + 1) / 2."""
    p_star = 2.0 - 2.0 / k
    i = np.arange(options + 1, dtype=float)
    return _check_distribution("public goods", probs, total, i * p_star + (options - i) * (1.0 - p_star), ())


def _pairwise_check(name, p_by_delta, high_cooperates, probs, total, sample) -> list[str]:
    """Full check against prefix sums, and a seeded sample of levels summed
    directly over their partners, independently of any prefix sum."""
    weights_ref = model.pairwise_distribution(p_by_delta, high_cooperates)
    errs = _check_distribution(name, probs, total, weights_ref, sample)
    n = len(p_by_delta)
    w_total = n * (n + 1) / 2.0
    for i in sample:
        below = p_by_delta[:i][::-1] if i else np.empty(0)  # gaps 1..i to lower partners
        above = p_by_delta[: n - i]  # gaps 1..N-i to higher partners
        if high_cooperates:
            u = np.sum(below) + np.sum(1.0 - above)
        else:
            u = np.sum(above) + np.sum(1.0 - below)
        if len(probs) == n + 1 and not _close(probs[i], u / w_total, REL_TOL, 1e-18):
            errs.append(f"{name}: level {i}: {probs[i]!r} != pairwise sum {u / w_total!r}")
    return errs


def traveler_p(v: float, t: float, n: int) -> np.ndarray:
    a, b, c, d = model.traveler_pair(v, t, np.arange(1, n + 1))
    return model.balance_root(model.classify(a, b, c, d), a, b, c, d)


def check_traveler(v: float, t: float, probs, total: float, sample) -> list[str]:
    return _pairwise_check("traveler", traveler_p(v, t, len(probs) - 1), True, probs, total, sample)


def attrition_p(x: float, n: int, mode: str) -> np.ndarray:
    """Pairwise concession probability by bid gap. ``paper`` applies the
    dilemma root to every gap; ``dispatch`` uses each table's own class."""
    a, b, c, d = model.attrition_pair(x, np.arange(1, n + 1))
    cls = model.PD if mode == "paper" else model.classify(a, b, c, d)
    return model.balance_root(cls, a, b, c, d)


def check_attrition(x: float, mode: str, probs, total: float, sample) -> list[str]:
    return _pairwise_check(f"attrition {mode}", attrition_p(x, len(probs) - 1, mode), False, probs, total, sample)


def check_search(start, target: tuple, final, met: bool, p_final: float) -> list[str]:
    """The class is kept; a met target is met by the reference p and mu."""
    c0 = int(model.classify(*start))
    c1 = int(model.classify(*final))
    if c0 != c1:
        return [f"search {list(start)} -> {list(final)}: class {c0} -> {c1}"]
    p = float(model.balance_root(c1, *final))
    if not abs(p - p_final) <= P_TOL:
        # where the quadratic's two roots nearly meet, as on StagHunt tables
        # with (b - c)/(a - d) next to 1/2, float64 keeps only half the digits
        p = mp_balance_root(c1, *final)
    if not abs(p - p_final) <= P_TOL:
        return [f"search {list(final)}: reported p={p_final!r}, reference {p!r}"]
    if met:
        tp, tmu, p_tol, mu_tol = target
        a, b, c, d = final
        q = 1.0 - p
        mu = p * p * b + p * q * (a + d) + q * q * c
        if not (abs(p - tp) <= p_tol and abs(mu - tmu) <= mu_tol):
            return [f"search {list(final)}: reported met, but p={p!r} mu={mu!r} miss {target}"]
    return []


# ----------------------------------------------------------------- the CLI


def flatten(prefix: str, value, out: dict) -> dict:
    if isinstance(value, dict):
        for k, v in value.items():
            flatten(f"{prefix}.{k}" if prefix else str(k), v, out)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            flatten(f"{prefix}.{i}", v, out)
    else:
        out[prefix] = value
    return out


def _scalar(text: str):
    if text in ("true", "True"):
        return True
    if text in ("false", "False"):
        return False
    if text in ("", "None", "null"):
        return None
    try:
        return float(text)
    except ValueError:
        return text


def parse_cli_output(fmt: str, text: str) -> dict:
    """The ``result`` block of one CLI envelope as a flat {key: value} dict."""
    if fmt == "json":
        return flatten("", json.loads(text)["result"], {})
    out = {}
    if fmt == "csv":
        rows = csv.reader(io.StringIO(text))
        if next(rows) != ["key", "value"]:
            raise ValueError("csv output lacks its header")
        for key, value in rows:
            if key.startswith("result."):
                out[key[len("result."):]] = _scalar(value)
        return out
    for line in text.splitlines()[1:]:
        if not line.startswith("  ") or line.startswith("  warning:"):
            continue
        key, _, value = line.strip().partition(" = ")
        if value.endswith("%)"):
            value = value.rsplit(" (", 1)[0]
        out[key] = _scalar(value)
    return out


def check_cli_values(label: str, got: dict, expected: dict, rel: float = SIG12) -> list[str]:
    """Every expected key is present and agrees to 12 significant digits."""
    errs = []
    for key, ref in expected.items():
        if key not in got:
            errs.append(f"{label}: key {key} missing")
            continue
        val = got[key]
        if isinstance(ref, float):
            if isinstance(val, bool) or not isinstance(val, (int, float)) or not _close(val, ref, rel):
                errs.append(f"{label}: {key}={val!r}, reference {ref!r}")
        elif val != ref:
            errs.append(f"{label}: {key}={val!r}, reference {ref!r}")
    return errs
