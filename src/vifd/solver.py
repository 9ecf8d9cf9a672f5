"""Feasible-direction projection method with accumulated separating halfspaces.

One outer iteration, starting from the current iterate x and the fixed start
point x0:

1. take u in T(x), project the trial step onto the feasible set C to get
   z = P_C(x - beta u), and stop if either x = z or z reprojects onto itself;
2. run a backtracking linesearch along the segment [x, z] until some element
   ubar of T(alpha z + (1 - alpha) x) satisfies
   <ubar, x - z> >= delta <u, x - z>;
3. record the separating halfspace through xbar = alpha z + (1 - alpha) x with
   normal ubar, and project x0 onto the intersection of C, every halfspace
   recorded so far, and the slab {y : <y - x, x0 - x> <= 0}.

The projection is anchored at x0 throughout, so iterates are not Fejer
monotone toward the solution set; instead their distance from x0 grows
monotonically while consecutive steps stay square-summable.
"""

from __future__ import annotations

import numbers
import time
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .operators import ProblemInstance, SetValuedOperator
from .qp import least_distance
from .sets import (
    FeasibleSet,
    Halfspace,
    LinearConstraintSystem,
    as_point,
    assemble,
    halfspace_from_pair,
    w_halfspace,
)

__all__ = [
    "SolverParams",
    "Counters",
    "IterationRecord",
    "SolverState",
    "StopReason",
    "StopCertificate",
    "RunReport",
    "LinesearchFailure",
    "compute_z",
    "linesearch_f",
    "step2_stop_check",
    "step",
    "solve",
]

_EXIT_SLACK = 1e-12


class LinesearchFailure(RuntimeError):
    """The backtracking linesearch exhausted its halving budget."""

    def __init__(self, message: str, probes: int):
        super().__init__(message)
        self.probes = probes


@dataclass
class SolverParams:
    """Tuning knobs for the outer loop and the linesearch.

    ``beta`` is the trial step length in ``z = P_C(x - beta u)``.
    ``tol_residual`` applies to the squared residuals ||x - z||^2 and
    ||z - P_C(z - v)||^2 of the two early stop checks; ``tol_step4`` applies to
    the norm of the difference between consecutive anchored projections.
    """

    delta: float = 0.01
    theta: float = 0.5
    beta: float = 1.0
    tol_residual: float = 1e-8
    tol_step4: float = 1e-12
    max_outer_iterations: int = 10_000
    max_linesearch_halvings: int = 200
    record_history: bool = False

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if not 0.0 < self.theta < 1.0:
            raise ValueError("theta must lie in (0, 1)")
        if not 0.0 < self.beta < np.inf:
            raise ValueError("beta must be positive and finite")
        # written so that NaN fails: a NaN tolerance would disable its stop test
        if not (0.0 < self.tol_residual < np.inf and 0.0 <= self.tol_step4 < np.inf):
            raise ValueError("tolerances must be positive and finite (tol_step4 may be 0)")
        for budget in (self.max_outer_iterations, self.max_linesearch_halvings):
            if isinstance(budget, bool) or not isinstance(budget, numbers.Integral) or budget < 1:
                raise ValueError("iteration budgets must be integers of at least 1")


@dataclass
class Counters:
    outer_iters: int = 0
    operator_evals: int = 0
    qp_solves: int = 0
    linesearch_probes: int = 0


@dataclass
class IterationRecord:
    """Everything one outer iteration produced, for diagnostics and tests."""

    k: int
    x: np.ndarray
    u: np.ndarray
    z: np.ndarray
    residual_sq: float
    alpha: float | None = None
    ubar: np.ndarray | None = None
    xbar: np.ndarray | None = None
    new_halfspace: Halfspace | None = None
    w: Halfspace | None = None
    x_next: np.ndarray | None = None


@dataclass
class SolverState:
    """Mutable loop state: iterate, counters, history, and the constraint store
    ``cuts`` holding C's rows and every cut so far (None before the first)."""

    x: np.ndarray
    x0: np.ndarray
    k: int = 0
    cuts: LinearConstraintSystem | None = None
    counters: Counters = field(default_factory=Counters)
    residual_history: list[float] = field(default_factory=list)
    history: list[IterationRecord] = field(default_factory=list)
    warm_active: list[int] = field(default_factory=list)

    @classmethod
    def initial(cls, x0) -> "SolverState":
        x0 = as_point(x0)
        return cls(x=x0.copy(), x0=x0.copy())


class StopReason(str, Enum):
    RESIDUAL_ZERO_STEP2A = "ResidualZero_Step2a"
    ZK_SOLVES_STEP2B = "ZkSolves_Step2b"
    FIXED_POINT_STEP4 = "FixedPoint_Step4"
    MAX_ITERATIONS = "MaxIterations"
    LINESEARCH_FAILURE = "LinesearchFailure"


#: Reasons that certify the terminal point as a solution.
SOLUTION_STOPS = (
    StopReason.RESIDUAL_ZERO_STEP2A,
    StopReason.ZK_SOLVES_STEP2B,
    StopReason.FIXED_POINT_STEP4,
)


@dataclass(frozen=True)
class StopCertificate:
    """Which stop test fired, its measured value, and the tolerance it met."""

    test: str
    value: float
    tolerance: float


@dataclass
class RunReport:
    stop_reason: StopReason
    terminal_point: np.ndarray
    terminal_certificate: StopCertificate
    counters: Counters
    wall_time_s: float = 0.0
    residual_history: list[float] = field(default_factory=list)
    seed_used: int | None = None
    start_projected: bool = False
    history: list[IterationRecord] | None = None


def compute_z(x, u, beta: float, C: FeasibleSet, counters: Counters | None = None) -> np.ndarray:
    """Projected trial point ``P_C(x - beta u)``."""
    x = as_point(x)
    u = as_point(u, x.size)
    if not beta > 0.0:
        raise ValueError("beta must be positive")
    solution = least_distance(assemble(C, []), x - beta * u)
    if counters is not None:
        counters.qp_solves += 1
    return solution.point


def linesearch_f(
    T: SetValuedOperator,
    x,
    z,
    u,
    params: SolverParams,
    counters: Counters | None = None,
):
    """Backtrack alpha over {1, theta, theta^2, ...} until the support test passes.

    At each trial the support of T at ``alpha z + (1 - alpha) x`` along
    ``x - z`` is compared against ``delta <u, x - z>``; the first alpha whose
    support reaches the threshold is returned together with a witness element
    achieving it and the number of probes spent.

    Raises :class:`LinesearchFailure` after ``max_linesearch_halvings`` probes
    without success.
    """
    x = as_point(x)
    z = as_point(z, x.size)
    u = as_point(u, x.size)
    direction = x - z
    threshold = params.delta * float(u @ direction)
    alpha = 1.0
    probes = 0
    for _ in range(params.max_linesearch_halvings + 1):
        y = alpha * z + (1.0 - alpha) * x
        result = T.support(y, direction)
        probes += 1
        if counters is not None:
            counters.operator_evals += 1
            counters.linesearch_probes += 1
        if result.value >= threshold - _EXIT_SLACK:
            if result.maximizer is not None:
                ubar = np.array(result.maximizer)
            else:
                ubar = T.witness_above(y, direction, threshold)
            return alpha, ubar, probes
        alpha *= params.theta
    raise LinesearchFailure(
        f"no admissible step after {probes} probes (alpha reached {alpha:.3e})",
        probes,
    )


def step2_stop_check(
    x,
    z,
    T: SetValuedOperator,
    C: FeasibleSet,
    params: SolverParams,
    counters: Counters | None = None,
):
    """Early stop tests on the trial point.

    Returns ``(reason, terminal_point, measured_value)`` when either
    ||x - z||^2 <= tol_residual (the iterate is already stationary) or
    ||z - P_C(z - v)||^2 <= tol_residual for v = select(z) (the trial point
    solves the problem); returns None otherwise.  The second test costs one
    operator evaluation and one projection.
    """
    x = as_point(x)
    z = as_point(z, x.size)
    residual_sq = float(((x - z) ** 2).sum())
    if residual_sq <= params.tol_residual:
        return StopReason.RESIDUAL_ZERO_STEP2A, x.copy(), residual_sq
    v = T.select(z)
    if counters is not None:
        counters.operator_evals += 1
    reprojected = least_distance(assemble(C, []), z - v).point
    if counters is not None:
        counters.qp_solves += 1
    solves_sq = float(((z - reprojected) ** 2).sum())
    if solves_sq <= params.tol_residual:
        return StopReason.ZK_SOLVES_STEP2B, z.copy(), solves_sq
    return None


def _report(state: SolverState, params: SolverParams, reason: StopReason,
            terminal: np.ndarray, certificate: StopCertificate) -> RunReport:
    state.counters.outer_iters = state.k
    return RunReport(
        stop_reason=reason,
        terminal_point=np.array(terminal),
        terminal_certificate=certificate,
        counters=state.counters,
        residual_history=list(state.residual_history),
        history=state.history if params.record_history else None,
    )


def step(state: SolverState, problem: ProblemInstance, params: SolverParams):
    """Run one outer iteration; return ``(state, report_or_None)``.

    The separating halfspace found this iteration extends the constraint store
    ``state.cuts`` (all cuts are kept; the slab anchored at the current iterate
    is added fresh every iteration and never stored), and the next iterate is
    the projection of the start point onto the intersection.
    Raises :class:`LinesearchFailure` if the linesearch stalls.
    """
    C, T = problem.feasible, problem.operator
    counters = state.counters
    if state.k >= params.max_outer_iterations:
        certificate = StopCertificate(
            "max_outer_iterations", float(state.k), float(params.max_outer_iterations)
        )
        return state, _report(state, params, StopReason.MAX_ITERATIONS, state.x, certificate)

    u = T.select(state.x)
    counters.operator_evals += 1
    z = compute_z(state.x, u, params.beta, C, counters)
    residual_sq = float(((state.x - z) ** 2).sum())
    state.residual_history.append(residual_sq)
    record = None
    if params.record_history:
        record = IterationRecord(
            k=state.k, x=state.x.copy(), u=u.copy(), z=z.copy(), residual_sq=residual_sq,
        )
        state.history.append(record)

    stop = step2_stop_check(state.x, z, T, C, params, counters)
    if stop is not None:
        reason, terminal, value = stop
        test = (
            "residual_sq_step2a"
            if reason is StopReason.RESIDUAL_ZERO_STEP2A
            else "residual_sq_step2b"
        )
        certificate = StopCertificate(test, value, params.tol_residual)
        return state, _report(state, params, reason, terminal, certificate)

    alpha, ubar, _ = linesearch_f(T, state.x, z, u, params, counters)
    xbar = alpha * z + (1.0 - alpha) * state.x
    separator = halfspace_from_pair(xbar, ubar)
    slab = w_halfspace(state.x0, state.x)
    if record is not None:
        record.alpha = alpha
        record.ubar = np.array(ubar)
        record.xbar = xbar.copy()
        record.new_halfspace = separator
        record.w = slab

    state.cuts = assemble(C if state.cuts is None else state.cuts, [separator])
    system = assemble(state.cuts, [slab])
    solution = least_distance(system, state.x0, warm_start=state.warm_active or None)
    counters.qp_solves += 1
    x_next = solution.point
    # stored rows keep their indices in the next iteration's system; the slab
    # row (always last) does not
    state.warm_active = [i for i in solution.active_set if i < len(state.cuts.h)]

    step_norm = float(np.linalg.norm(x_next - state.x))
    if record is not None:
        record.x_next = x_next.copy()
    state.x = x_next
    state.k += 1
    counters.outer_iters = state.k
    if step_norm <= params.tol_step4:
        certificate = StopCertificate("step_norm_step4", step_norm, params.tol_step4)
        return state, _report(state, params, StopReason.FIXED_POINT_STEP4, x_next, certificate)
    return state, None


def solve(problem: ProblemInstance, x0, params: SolverParams | None = None) -> RunReport:
    """Run the outer loop from ``x0`` until a stop test fires.

    A start outside the feasible set is replaced by its projection and flagged
    in the report.  A linesearch breakdown is reported as a stop reason rather
    than raised.
    """
    if params is None:
        params = SolverParams()
    x0 = as_point(x0, problem.dim)
    started = time.perf_counter()
    start_projected = False
    if not problem.feasible.contains(x0, 1e-9):
        projected = least_distance(assemble(problem.feasible, []), x0).point
        state = SolverState.initial(projected)
        state.counters.qp_solves += 1
        start_projected = True
    else:
        state = SolverState.initial(x0)

    report = None
    while report is None:
        try:
            state, report = step(state, problem, params)
        except LinesearchFailure as failure:
            certificate = StopCertificate(
                "linesearch_halvings",
                float(failure.probes),
                float(params.max_linesearch_halvings),
            )
            report = _report(
                state, params, StopReason.LINESEARCH_FAILURE, state.x, certificate
            )
    report.wall_time_s = time.perf_counter() - started
    report.seed_used = problem.seed
    report.start_projected = start_projected
    return report
