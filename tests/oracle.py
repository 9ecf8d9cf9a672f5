"""Brute-force projection oracle that the tests cross-check ``least_distance`` against."""

import numpy as np

from vifd.qp import simplex_projection
from vifd.sets import LinearConstraintSystem, as_point


class UnsupportedShape(ValueError):
    """``oracle_project`` has no brute-force route for this system."""


def _simplex_scale(system: LinearConstraintSystem):
    """Return ``a`` when the system is exactly {x >= 0, sum(x) = a}, else None."""
    n = system.n
    if system.G.shape != (n, n) or system.A.shape != (1, n):
        return None
    if not np.array_equal(system.G, -np.eye(n)) or np.any(system.h != 0.0):
        return None
    row = system.A[0]
    if row[0] <= 0.0 or not np.all(row == row[0]):
        return None
    a = float(system.b[0] / row[0])
    return a if a > 0.0 else None


def oracle_project(
    system: LinearConstraintSystem,
    x0,
    resolution: float = 1e-3,
    window: float | None = None,
) -> np.ndarray:
    """Brute-force projection used to cross-check ``vifd.qp.least_distance``.

    Simplex-shaped systems are handled by the exact sort-threshold formula in
    any dimension.  Everything else in ambient dimension <= 3 goes through a
    staged grid scan: each stage minimizes the squared distance plus a stiff
    quadratic penalty on constraint violations, then re-centers a finer grid on
    the winner until the spacing drops below ``resolution``; the last grid is
    re-scanned keeping only (near-)feasible points.  The result is within
    about one grid spacing of the true projection.

    Raises :class:`UnsupportedShape` for non-simplex systems with n > 3.
    """
    x0 = as_point(x0, system.n)
    if resolution <= 0.0:
        raise ValueError("resolution must be positive")
    a = _simplex_scale(system)
    if a is not None:
        return simplex_projection(x0, a)
    n = system.n
    if n > 3:
        raise UnsupportedShape(
            "grid oracle supports dimension <= 3 (plus exact simplex slices)"
        )
    G, h, A, b = system.G, system.h, system.A, system.b
    points_per_axis = 65 if n <= 2 else 33
    half = window if window is not None else max(2.0, 2.0 * float(np.max(np.abs(x0))) + 2.0)
    center = x0.copy()
    stiffness = 1e8

    def scan(center, half):
        axes = [np.linspace(c - half, c + half, points_per_axis) for c in center]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
        score = np.sum((grid - x0) ** 2, axis=1)
        ineq = np.zeros((grid.shape[0], 0))
        if G.shape[0]:
            ineq = np.maximum(grid @ G.T - h, 0.0)
            score = score + stiffness * np.sum(ineq**2, axis=1)
        eq = np.zeros((grid.shape[0], 0))
        if A.shape[0]:
            eq = grid @ A.T - b
            score = score + stiffness * np.sum(eq**2, axis=1)
        return grid, score, ineq, eq

    while True:
        spacing = 2.0 * half / (points_per_axis - 1)
        grid, score, ineq, eq = scan(center, half)
        center = grid[int(np.argmin(score))]
        if spacing <= resolution / 2.0:
            break
        half = 3.0 * spacing

    # final pass: prefer strictly feasible grid points when any exist
    feasible = np.ones(grid.shape[0], dtype=bool)
    if ineq.shape[1]:
        feasible &= np.all(ineq <= 1e-9, axis=1)
    if eq.shape[1]:
        feasible &= np.all(np.abs(eq) <= spacing, axis=1)
    if np.any(feasible):
        dist = np.sum((grid[feasible] - x0) ** 2, axis=1)
        center = grid[feasible][int(np.argmin(dist))]
    return center.copy()


def kkt_residual_lstsq(system: LinearConstraintSystem, x0, y, mu) -> float:
    """KKT residual with the equality multipliers fitted by least squares.

    The reference for ``vifd.qp._kkt_residual``, which projects the
    stationarity residual onto the null space of ``A`` instead.
    """
    G, h, A, b = system.G, system.h, system.A, system.b
    resid = y - x0
    if G.shape[0]:
        resid = resid + G.T @ mu
    if A.shape[0]:
        nu, _, _, _ = np.linalg.lstsq(A.T, -resid, rcond=None)
        resid = resid + A.T @ nu
    worst = float(np.max(np.abs(resid))) if resid.size else 0.0
    if G.shape[0]:
        slack = G @ y - h
        worst = max(worst, float(np.max(slack)))
        worst = max(worst, float(np.max(np.abs(mu * slack))))
    if A.shape[0]:
        worst = max(worst, float(np.max(np.abs(A @ y - b))))
    return max(worst, 0.0)
