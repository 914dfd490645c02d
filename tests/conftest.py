"""Shared randomized-table samplers.

Everything is seeded. Margins keep samples away from class boundaries and
from degenerate quadratics, so sign tests and root-branch checks have no
floating ties to argue about; the margin policy is part of the test design,
not of the library.
"""

from __future__ import annotations

import numpy as np

from cooprob import GameTag, PayoffTable2

SPAN = 50.0  # payoffs drawn from [-SPAN, SPAN]
GAP_MIN = 0.05  # minimum separation between the four ordered payoffs

# sorted-descending column order realizing each strict class pattern
CLASS_PATTERNS = {
    GameTag.PRISONERS_DILEMMA: (0, 1, 2, 3),  # a > b > c > d
    GameTag.CHICKEN: (0, 1, 3, 2),  # a > b > d > c
    GameTag.BATTLE_OF_SEXES: (0, 3, 2, 1),  # a > d > c > b
    GameTag.STAG_HUNT: (1, 0, 2, 3),  # b > a > c > d
    GameTag.TRANSLATORS: (0, 2, 1, 3),  # a > c > b > d
}


def _descending_quads(rng: np.random.Generator, size: int) -> np.ndarray:
    vals = np.sort(rng.uniform(-SPAN, SPAN, size=(size, 4)), axis=1)[:, ::-1]
    while True:
        bad = (vals[:, :-1] - vals[:, 1:] < GAP_MIN).any(axis=1)
        if not bad.any():
            return vals
        fresh = np.sort(rng.uniform(-SPAN, SPAN, size=(int(bad.sum()), 4)), axis=1)
        vals[bad] = fresh[:, ::-1]


def _needs_resample(tag: GameTag, a, b, c, d) -> np.ndarray:
    scale = a.max() - d.min() if a.size else 1.0
    bad = np.zeros(a.shape, dtype=bool)
    if tag is GameTag.PRISONERS_DILEMMA:
        # keep the quadratic honest and the sign test tie-free
        bad |= np.abs(a - b - c + d) < 0.01 * scale
        bad |= np.abs(3.0 * (b - c) - (a - d)) < 0.01 * scale
    if tag is GameTag.STAG_HUNT:
        # near-neutral ratio means a near-unit map slope: slow, undecidable
        bad |= np.abs((b - c) / (a - d) - 0.5) < 0.01
    return bad


def sample_tables(tag: GameTag, size: int, seed: int):
    """(a, b, c, d) arrays of `size` strict tables of one class."""
    rng = np.random.default_rng(seed)
    cols = list(CLASS_PATTERNS[tag])
    quads = _descending_quads(rng, size)[:, cols]
    a, b, c, d = (quads[:, i].copy() for i in range(4))
    while True:
        bad = _needs_resample(tag, a, b, c, d)
        if not bad.any():
            return a, b, c, d
        fresh = _descending_quads(rng, int(bad.sum()))[:, cols]
        a[bad], b[bad], c[bad], d[bad] = (fresh[:, i] for i in range(4))


def sample_table_objects(tag: GameTag, size: int, seed: int) -> list[PayoffTable2]:
    a, b, c, d = sample_tables(tag, size, seed)
    return [PayoffTable2(*xs) for xs in zip(a, b, c, d)]


def sample_integer_chains(size: int, seed: int, top: int = 9) -> list[list[int]]:
    """`size` three-player chains f >= g >= h >= j >= k >= m of integers in 0..top.

    Unlike the samplers above, this one keeps ties: they put common factors
    p or q into the weights and roots at 0, 1/2 and 1.
    """
    rng = np.random.default_rng(seed)
    return [np.sort(rng.integers(0, top + 1, 6))[::-1].tolist() for _ in range(size)]


def sample_near_linear_tables(size: int, seed: int) -> np.ndarray:
    """Rows (a, b, c, d): `size` PrisonersDilemma, Chicken and BattleOfSexes
    tables each, whose quadratic coefficient k is 10^-e of a payoff gap, e
    uniform in [0, 15].

    Unlike the samplers above, this one aims at the degenerate linear forms:
    its k falls on both sides of every coefficient tolerance. Rounding can
    close a tiny gap and leave a row unclassified.
    """
    rng = np.random.default_rng(seed)
    lo = rng.uniform(-SPAN, 0.0, size)
    span = rng.uniform(1.0, SPAN, size)
    hi = lo + span
    g = span / 3.0
    t = g * 10.0 ** -rng.uniform(0.0, 15.0, size)
    dilemma = (hi + g + t, hi, lo + g, lo)  # k = t
    chicken = (hi + g, hi, lo, lo + g + t)  # k = -t
    battle = (hi + t, lo, lo + t, hi)  # k = 2t
    return np.concatenate([np.stack(cols, axis=1) for cols in (dilemma, chicken, battle)])


def sample_class_boundary_tables(size: int, seed: int) -> np.ndarray:
    """Rows (a, b, c, d) drawn from [-SPAN, SPAN], with one of the ties a = c,
    b = c or c = d imposed and then moved by -1, 0 or +1 ulp of c.

    Unlike the samplers above, this one aims at the class boundaries: a tie
    there decides between two classes, or puts a root of the balance
    polynomial at 0 or 1. Many rows come out unclassified.
    """
    rng = np.random.default_rng(seed)
    rows = rng.uniform(-SPAN, SPAN, (size, 4))
    tied = rng.integers(0, 3, size)  # column tied to c: a, b or d
    cols = np.array([0, 1, 3])[tied]
    c = rows[:, 2]
    rows[np.arange(size), cols] = c + rng.integers(-1, 2, size) * np.spacing(c)
    return rows
