"""Least-distance projection onto polyhedra, plus the exact simplex projection.

The projection problem min ||y - x0||^2 over {G y <= h, A y = b} is solved by
eliminating the equalities onto their affine subspace and then running a dual
active-set iteration on the reduced inequality-only problem.  Because the
Hessian of the least-distance objective is the identity, every subproblem is a
projection onto an affine set and can be solved with small dense least-squares
factorizations.  The iteration is one loop with one drop step, which serves
the warm start's solve and every later solved point; the final active set is
re-solved once more to certify the KKT conditions at full precision.  A warm
start whose solve leaves one of its own rows violated (``lstsq`` on nearly
parallel rows) is discarded, and the solve starts over cold.

Constraint systems are immutable, so what depends on the system alone (the
equality basis and the normalised reduced rows, one per system row, with the
rows constant on the affine subspace screened and made inert:
``vifd.sets._reduce``) is computed once and kept on the system object; a system
from ``ConstraintStore.add_with_slab`` comes with it.  The active-set iteration
works in the system's own row numbering.  A KKT residual is computed when
first read.  Every solve uses the same feasibility and KKT tolerance, ``TOL``.

Consecutive anchored systems share every stored row bit for bit, so a solve on
a system from ``add_with_slab`` records its last tight solve in the system's
link, and the store carries it into the next system.  There, a warm start
whose rows and ``w0`` are bitwise the carried solve's takes the carried point
and multipliers in place of its first tight solve, which would compute the
same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .sets import (TOL, InfeasibleSystem, LinearConstraintSystem, _frozen, _is_number,
                   _real, _reduced_form, as_point)

__all__ = [
    "QpSolution",
    "InfeasibleSystem",
    "MaxPivots",
    "least_distance",
    "simplex_projection",
]

# the pivot guard allows this many pivots per constraint row
PIVOTS_PER_ROW = 50


class MaxPivots(RuntimeError):
    """Active-set pivot guard exceeded (cycling or severe ill-conditioning)."""


@dataclass
class QpSolution:
    """Certified projection result.

    ``active_set`` lists the inequality rows tight at the solution in the
    order the pivoting visited them, which makes it directly reusable as a
    warm start.  ``kkt_residual`` is the largest violation among stationarity,
    primal feasibility, dual feasibility, and complementarity, computed on
    first read from the solve's own copies of the point and ``x0``.
    """

    point: np.ndarray
    active_set: list[int]
    iterations: int
    _certificate: tuple = field(repr=False, compare=False)

    @cached_property
    def kkt_residual(self) -> float:
        return _kkt_residual(*self._certificate)


class _TightSolve(NamedTuple):
    """A tight solve as ``_Link`` keeps it: bitwise what ``_tight_solve`` returns
    for these active rows and this ``w0`` on rows that share their bits."""

    active: tuple[int, ...]
    w0: bytes
    w: np.ndarray
    lam: tuple[float, ...]


def _tight_solve(M: np.ndarray, d: np.ndarray, w0: np.ndarray, active: list[int]):
    """Projection of ``w0`` onto the affine set where the active rows hold with equality."""
    if not active:
        return w0.copy(), []
    rows = M[active]
    gram = rows @ rows.T
    rhs = rows @ w0 - d[active]
    lam, _, _, _ = np.linalg.lstsq(gram, rhs, rcond=None)
    return w0 - rows.T @ lam, lam.tolist()


def _dual_active_set(M, d, w0, max_pivots, warm_start, link):
    """Dual active-set loop for min ||w - w0|| s.t. M w <= d (rows unit-normalized).

    The first solve is the tight solve on the ``warm_start`` rows (``w0`` when
    cold), or ``link.carried`` when it has bitwise these rows and ``w0``.  One
    drop step serves every solved point with a multiplier below ``-TOL``.  A
    primal-dual step leaves ``y`` inexact, so the final active set is solved
    again (the polish), which may step off a row into the next primal-dual
    step.  A warm-started solve that would return with an active row over
    ``TOL`` starts over cold, once.  The first warm solve, each drop and each
    primal-dual step count one pivot; the last tight solve goes to
    ``link.last``.
    """
    m = M.shape[0]
    active = list(warm_start or ())
    carried = link and link.carried
    if carried and (carried.active, carried.w0) == (tuple(active), w0.tobytes()):
        y, lam = carried.w.copy(), list(carried.lam)
    else:
        y, lam = _tight_solve(M, d, w0, active)
    pivots, exact = (1 if active else 0), True

    while True:
        if pivots > max_pivots:
            raise MaxPivots(f"pivot guard exceeded after {pivots} pivots")
        if exact and lam and min(lam) < -TOL:
            pivots += 1
            del active[int(np.argmin(lam))]
            y, lam = _tight_solve(M, d, w0, active)
            continue
        slack = M @ y - d if m else np.zeros(0)
        worst = int(slack.argmax()) if m else -1
        # the slack test is over the inactive rows; the active ones are masked
        # only when some row is over TOL
        masked = active and slack[worst] > TOL
        if masked:
            slack[active] = -np.inf
            worst = int(slack.argmax())
        if worst < 0 or slack[worst] <= TOL:
            if not exact:
                y, lam = _tight_solve(M, d, w0, active)
                exact = True
                continue
            if masked and warm_start:
                # lstsq on nearly parallel warm rows left one of them violated
                warm_start, active, y, lam = None, [], w0.copy(), []
                continue
            if active and link is not None:
                link.last = _TightSolve(tuple(active), w0.tobytes(), _frozen(y), tuple(lam))
            return y, active, [max(v, 0.0) for v in lam], pivots

        # drive constraint `worst` to feasibility, dropping blockers as needed
        exact, lam_new = False, 0.0
        while True:
            pivots += 1
            row = M[worst]
            if active:
                N = M[active].T
                r, _, _, _ = np.linalg.lstsq(N, row, rcond=None)
                zdir = row - N @ r
                r = r.tolist()
            else:
                r = []
                zdir = row.copy()
            zsq = float(zdir @ zdir)
            s_cur = float(row @ y - d[worst])
            t_full = s_cur / zsq if zsq > 1e-18 else math.inf
            t_drop, blocker = math.inf, -1
            for i, lam_i in enumerate(lam):
                if r[i] > 1e-12 and lam_i / r[i] < t_drop:
                    t_drop, blocker = lam_i / r[i], i
            t = min(t_full, t_drop)
            if not math.isfinite(t):
                raise InfeasibleSystem("unbounded dual step: no feasible point exists")
            t = max(t, 0.0)
            lam = [lam_i - t * r_i for lam_i, r_i in zip(lam, r)]
            lam_new += t
            if zsq > 1e-18:
                y = y - t * zdir
            if t_full <= t_drop:
                active.append(worst)
                lam.append(lam_new)
                break
            del active[blocker]
            del lam[blocker]


def _kkt_residual(system, Z, x0, y, mu):
    """Largest KKT violation; ``Z`` is the orthonormal null basis of ``A`` (None without equalities).

    The equality multipliers are eliminated by projecting the stationarity
    residual onto the null space of ``A``.
    """
    G, h, A, b = system.G, system.h, system.A, system.b
    resid = y - x0
    if G.shape[0]:
        resid = resid + G.T @ mu
    if A.shape[0]:
        resid = Z @ (Z.T @ resid)
    worst = float(np.abs(resid).max()) if resid.size else 0.0
    if G.shape[0]:
        slack = G @ y - h
        worst = max(worst, float(slack.max()))
        worst = max(worst, float(np.abs(mu * slack).max()))
    if A.shape[0]:
        worst = max(worst, float(np.abs(A @ y - b).max()))
    return max(worst, 0.0)


def least_distance(system: LinearConstraintSystem, x0, warm_start=None) -> QpSolution:
    """Project ``x0`` onto the polyhedron described by ``system``.

    Systems are immutable, so the work that depends on ``system`` alone (the
    equality elimination, the screen of rows constant on the affine subspace
    and the normalised reduced rows, numbered as the system's rows) is done on
    the first call for a system, stored on the system object, and reused by
    later calls; a system from ``ConstraintStore.add_with_slab`` has it
    already, and carries the previous system's last tight solve, which a
    ``warm_start`` equal to its rows at bitwise the same ``x0`` reuses.
    A warm start whose solve leaves one of its own rows violated is discarded
    for a cold restart.  Feasibility and the KKT conditions are held to
    ``TOL``, and the pivot guard allows ``PIVOTS_PER_ROW * max(m + p, 1)``
    pivots for ``m`` inequality and ``p`` equality rows, counting the warm
    start's first solve, each drop and each primal-dual step.

    Parameters
    ----------
    system : LinearConstraintSystem
        Constraints ``G y <= h``, ``A y = b``; the feasible set must be nonempty.
    x0 : array_like
        Point to project.
    warm_start : iterable of int, optional
        Inequality row indices (Python or NumPy integers, not booleans) to seed
        the active set with, typically the ``active_set`` of a previous nearby
        solve; an index out of range, or of a row constant on the equality
        subspace, is skipped, and any other entry raises ``ValueError``.

    Returns
    -------
    QpSolution
        Unique minimizer with its active set, pivot count, and KKT residual.

    Raises
    ------
    InfeasibleSystem
        No point satisfies the constraints.
    MaxPivots
        The pivot guard was exceeded.
    """
    x0 = as_point(x0, system.n)
    m, p = system.G.shape[0], system.A.shape[0]
    form = _reduced_form(system)
    y_part, Z = form.y_part, form.Z
    w0 = Z.T @ (x0 - y_part) if Z is not None else x0

    # a warm-start row must exist and must not vanish on the affine subspace
    warm = None
    if warm_start is not None:
        warm_start = list(warm_start)
        for i in warm_start:
            if type(i) is not int and not _is_number(i, "iu"):
                raise ValueError(f"warm_start must hold integer row indices, got {warm_start!r}")
        warm = list(dict.fromkeys(
            i for i in map(int, warm_start) if 0 <= i < m and form.norms[i] < np.inf))

    max_pivots = PIVOTS_PER_ROW * max(m + p, 1)
    w, active, lam, pivots = _dual_active_set(
        form.rows, form.rhs, w0, max_pivots, warm, system._link)

    y = y_part + Z @ w if Z is not None else w
    mu = np.zeros(m)
    if active:
        mu[active] = np.array(lam) / form.norms[active]
    return QpSolution(y, active, pivots, (system, Z, x0.copy(), y.copy(), mu))


def simplex_projection(v, a: float = 1.0) -> np.ndarray:
    """Exact sort-threshold projection of ``v`` onto ``{x >= 0, sum(x) = a}``, real ``a > 0``."""
    v = as_point(v)
    a = _real("a", a, 0.0)
    u = np.sort(v)[::-1]
    cumulative = np.cumsum(u)
    counts = np.arange(1, v.size + 1)
    positive = u + (a - cumulative) / counts > 0
    rho = int(np.flatnonzero(positive)[-1])
    tau = (cumulative[rho] - a) / (rho + 1)
    return np.maximum(v - tau, 0.0)
