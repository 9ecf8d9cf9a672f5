"""Independent output check and the benchmark's summary statistics."""

from __future__ import annotations

import numpy as np

from vifd.qp import simplex_projection
from vifd.sets import Box, SimplexSlice
from vifd.solver import SOLUTION_STOPS

MEMBERSHIP_TOL = 1e-9
# Relative slack on the recomputed step-2b certificate.  The solver's value
# comes from the QP projection and the recomputed one from a closed form; on
# the workloads they differ by at most 5e-18 against a tolerance of 1e-4.
CERTIFICATE_SLACK = 1e-9
TAIL_ABOVE = 10


def project(C, y: np.ndarray) -> np.ndarray:
    """Closed-form projection onto the feasible sets the workloads use."""
    if isinstance(C, Box):
        return np.clip(y, C.lower, C.upper)
    if isinstance(C, SimplexSlice):
        return simplex_projection(y, C.a)
    raise TypeError(f"no closed-form projection for {type(C).__name__}")


def violation(C, x: np.ndarray) -> float:
    """Largest constraint violation of ``x`` in ``C``."""
    if isinstance(C, Box):
        return float(max(np.max(C.lower - x), np.max(x - C.upper), 0.0))
    if isinstance(C, SimplexSlice):
        return float(max(-np.min(x), abs(float(x.sum()) - C.a), 0.0))
    raise TypeError(f"no membership test for {type(C).__name__}")


def certificate(problem, x: np.ndarray) -> float:
    """Step-2b residual ``||x - P_C(x - v)||^2`` for ``v = select(x)``, without the QP."""
    v = problem.operator.select(x)
    return float(np.sum((x - project(problem.feasible, x - v)) ** 2))


def output_error(problem, row, tol_residual: float) -> str | None:
    """Why a result row is not a certified solution, or None when it is."""
    if row.stop_reason not in SOLUTION_STOPS:
        return f"stop reason {row.stop_reason.value}"
    x = row.terminal_point
    gap = violation(problem.feasible, x)
    if gap > MEMBERSHIP_TOL:
        return f"terminal point outside C by {gap:.3g}"
    value = certificate(problem, x)
    if value > tol_residual * (1.0 + CERTIFICATE_SLACK):
        return f"step-2b certificate {value:.3g} above tolerance {tol_residual:.3g}"
    return None


def tail(samples) -> tuple[float, float, int]:
    """Sample at the highest percentile with at least TAIL_ABOVE samples above it.

    Returns ``(value, percentile, sample_count)``; the value is the
    ``(n - TAIL_ABOVE)``-th smallest of ``n`` samples, so fewer than
    ``TAIL_ABOVE + 1`` samples have no tail.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_ABOVE:
        raise ValueError(f"a tail needs more than {TAIL_ABOVE} samples, got {n}")
    rank = n - TAIL_ABOVE
    return ordered[rank - 1], 100.0 * rank / n, n


def failed_frac(failed: int, attempted: int) -> float:
    if attempted < 1:
        raise ValueError("no solves attempted")
    return failed / attempted
