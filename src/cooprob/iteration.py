"""Fixed-point iteration oracle.

Plain iteration of p <- phi(p) / (phi(p) + chi(p)), with no acceleration,
used as an independent check on every closed form. One scalar driver owns
the step, the budget and the trace; each oracle passes in its weights (the
two-sided one iterates p_y <- y(x(p_y))). A batch driver steps many tables
at once with numpy and returns limits only. Both stop on one rule,
:func:`_settled`: a step of at most _STEP_RTOL of the current iterate has
converged, and _MAX_STEPS steps are the budget. The rule scales with p, so
an iterate near 0 is not taken as converged because its steps are small.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from . import _EXPORTS
from .errors import DegenerateWeightsError, DomainError, UnsupportedClassError
from .estimators import weights2
from .tables import AsymmetricTable2, GameTag, PayoffTable2, PayoffTable3, classify2

__all__ = _EXPORTS["iteration"]


@dataclass(frozen=True)
class IterationTrace:
    """Record of one fixed-point run.

    ``iterates`` starts at the seed and ends at the final estimate; for the
    asymmetric run the entries are (p_x, p_y) pairs. ``converged`` means the
    last step was :func:`_settled`.
    """

    iterates: tuple
    converged: bool
    iterations_used: int

    @property
    def limit(self):
        return self.iterates[-1]


def weights3(f, g, h, j, k, m, p):
    """Three-player (psi, omega) at cooperation level p; array-friendly."""
    q = 1.0 - p
    psi = p * (g - h) + q * (j - k)
    omega = p * p * (f - g) + 2.0 * p * q * (h - j) + q * q * (k - m)
    return psi, omega


def _corner_repels(a, b, c, d):
    """Whether p = 1 repels under the StagHunt balance map.

    At p = 1 the defection weight chi vanishes, so 1 is always a fixed
    point; a deviation eps is multiplied by (c - d) / (2b - a - c) per
    step. This reads that factor off the map itself, no root formula
    involved.
    """
    return (c - d) > (2.0 * b - a - c)


# the stop rule of both drivers: the relative step that has converged, and the budget
_STEP_RTOL, _MAX_STEPS = 1e-12, 10**6


def _settled(p, prev):
    """Whether the step prev -> p has converged: it moved at most _STEP_RTOL
    of p. Works on floats and on numpy arrays, lane by lane."""
    return abs(p - prev) <= _STEP_RTOL * p


def _fixed_point(weights, p: float) -> IterationTrace:
    """Iterate p <- phi / (phi + chi) from a seed p in [0, 1], ``weights(p)``
    giving (phi, chi), until a step is :func:`_settled` or _MAX_STEPS steps
    are spent."""
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"starting point p0={p!r} outside [0, 1]")
    p = float(p)
    iterates = [p]
    for n in range(1, _MAX_STEPS + 1):
        phi, chi = weights(p)
        total = phi + chi
        if total == 0.0:
            raise DegenerateWeightsError(f"phi + chi = 0 at iterate {p!r}")
        prev, p = p, phi / total
        iterates.append(p)
        if _settled(p, prev):
            break
    return IterationTrace(tuple(iterates), _settled(p, prev), n)


def _fixed_point_batch(weights, arrays: tuple, p: np.ndarray):
    """(limits, converged) of :func:`_fixed_point` per lane, seeded by ``p``;
    ``weights(*arrays, p)`` gives (phi, chi) per lane. Converged lanes leave
    the active set, so a batch does not pay for its slowest lane everywhere."""
    import numpy as np

    converged = np.zeros(p.shape[0], dtype=bool)
    idx = np.arange(p.shape[0])
    cur = arrays
    for _ in range(_MAX_STEPS):
        if idx.size == 0:
            break
        phi, chi = weights(*cur, p[idx])
        total = phi + chi
        if np.any(total == 0.0):
            raise DegenerateWeightsError("phi + chi = 0 in batch iteration")
        nxt = phi / total
        done = _settled(nxt, p[idx])
        p[idx] = nxt
        if done.any():
            converged[idx[done]] = True
            idx = idx[~done]
            cur = tuple(x[idx] for x in arrays)
    return p, converged


def iterate2(table: PayoffTable2, p0: float = 0.5) -> IterationTrace:
    """Iterate the balance map of the table's class from p0 and record the trace.

    A StagHunt seed of exactly 1 lands on a fixed point that may repel:
    when it does, iterating in place would sit on the corner forever (and
    a tiny nudge stalls against the stop rule for weakly repelling tables),
    so the seed is moved to 0.5 and the interior attractor takes over. The
    repulsion test only inspects the map's own slope at the corner.
    """
    tag = classify2(table).tag
    if tag is GameTag.UNCLASSIFIED:
        raise UnsupportedClassError("iteration requires a classified table")
    a, b, c, d = table.values()
    if tag is GameTag.STAG_HUNT and p0 == 1.0 and _corner_repels(a, b, c, d):
        p0 = 0.5
    return _fixed_point(partial(weights2, tag, a, b, c, d), p0)


def iterate3(table: PayoffTable3, p0: float = 0.5) -> IterationTrace:
    """Iterate the three-player balance map p <- psi / (psi + omega)."""
    return _fixed_point(partial(weights3, *table.values()), p0)


def iterate_asym(table: AsymmetricTable2, p_y0: float = 0.5) -> IterationTrace:
    """Alternating iteration for a two-sided table.

    Each round updates side x against the current p_y, then side y against
    the fresh p_x, which is the driver run on the composed map
    p_y <- y(x(p_y)). The trace records (p_x, p_y) after every round; the
    run converges when the step of p_y is :func:`_settled`.
    """
    side_x = table.side_x().values()
    side_y = table.side_y().values()
    xs: list[float] = []

    def weights_y(py: float):
        phix, chix = weights2(GameTag.PRISONERS_DILEMMA, *side_x, py)
        if phix + chix == 0.0:
            raise DegenerateWeightsError("phi_x + chi_x = 0")
        xs.append(phix / (phix + chix))
        return weights2(GameTag.PRISONERS_DILEMMA, *side_y, xs[-1])

    trace = _fixed_point(weights_y, p_y0)
    return IterationTrace(tuple(zip(xs, trace.iterates[1:])), trace.converged, trace.iterations_used)


def iterate2_limits(
    tag: GameTag, a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray, p0: float = 0.5
) -> tuple[np.ndarray, np.ndarray]:
    """Batch limits of the two-player balance map over arrays of tables.

    Returns (limits, converged). All tables must share one class tag.
    StagHunt lanes seeded on a repelling corner (p0 = 1) restart from 0.5,
    as in iterate2.
    """
    import numpy as np

    a, b, c, d = (np.asarray(x, dtype=float) for x in (a, b, c, d))
    p = np.full(a.shape[0], float(p0))
    if tag is GameTag.STAG_HUNT and p0 == 1.0:
        p[_corner_repels(a, b, c, d)] = 0.5
    return _fixed_point_batch(partial(weights2, tag), (a, b, c, d), p)


def iterate3_limits(
    f: np.ndarray, g: np.ndarray, h: np.ndarray, j: np.ndarray, k: np.ndarray, m: np.ndarray,
    p0: float = 0.5,
) -> tuple[np.ndarray, np.ndarray]:
    """Batch limits of the three-player balance map."""
    import numpy as np

    arrays = tuple(np.asarray(x, dtype=float) for x in (f, g, h, j, k, m))
    return _fixed_point_batch(weights3, arrays, np.full(arrays[0].shape[0], float(p0)))
