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

import math
import time
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .operators import ProblemInstance, SetValuedOperator
from .qp import least_distance
from .sets import Box, ConstraintStore, FeasibleSet, _integer, _point, _real, as_point, assemble

__all__ = [
    "SolverParams",
    "Counters",
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

#: The linesearch gives up after this many halvings of alpha.
MAX_LINESEARCH_HALVINGS = 200


class LinesearchFailure(RuntimeError):
    """The backtracking linesearch exhausted its halving budget."""

    def __init__(self, message: str, probes: int):
        super().__init__(message)
        self.probes = probes


@dataclass(frozen=True)
class SolverParams:
    """The method's parameters and the iteration budget.

    ``beta`` is the trial step length in ``z = P_C(x - beta u)``.
    ``tol_residual`` applies to the squared residuals ||x - z||^2 and
    ||z - P_C(z - v)||^2 of the two early stop checks. Step 4 and the
    linesearch acceptance are the paper's exact tests (see ``step`` and
    ``linesearch_f``); the linesearch's guard is the module constant
    ``MAX_LINESEARCH_HALVINGS``. Numbers are stored as plain ``float`` and
    ``int`` (numpy scalars are converted); a value of the wrong type or out of
    range raises a ``ValueError`` naming its field.  The parameters are frozen,
    so no value skips these checks; ``dataclasses.replace`` makes a checked
    copy with new values.
    """

    delta: float = 0.01
    theta: float = 0.5
    beta: float = 1.0
    tol_residual: float = 1e-8
    max_outer_iterations: int = 10_000

    def __post_init__(self):
        for key, high in (("delta", 1.0), ("theta", 1.0), ("beta", math.inf),
                          ("tol_residual", math.inf)):
            object.__setattr__(self, key, _real(key, getattr(self, key), 0.0, high))
        object.__setattr__(self, "max_outer_iterations",
                           _integer("max_outer_iterations", self.max_outer_iterations, 1))


@dataclass
class Counters:
    """Work done by a run. ``qp_solves`` counts active-set QP solves only: the
    anchored projection of every iteration, and the plain projections onto a C
    that is not a ``Box``; a projection onto a box is closed form and adds 0.
    ``qp_pivots`` sums those solves' pivots (``QpSolution.iterations``)."""

    outer_iters: int = 0
    operator_evals: int = 0
    qp_solves: int = 0
    linesearch_probes: int = 0
    qp_pivots: int = 0


@dataclass
class SolverState:
    """Mutable loop state: iterate, start point, counters (which count the
    iterations), and the ``ConstraintStore`` ``cuts`` of C's rows and every cut
    so far (None before the first), which also holds the next anchored
    projection's warm start."""

    x: np.ndarray
    x0: np.ndarray
    cuts: ConstraintStore | None = None
    counters: Counters = field(default_factory=Counters)

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
    start_projected: bool = False


def _project(C: FeasibleSet, y: np.ndarray, counters: Counters | None) -> np.ndarray:
    """``P_C(y)`` of a float vector ``y``: ``y.clip`` on a ``Box`` (the ufunc
    ``np.clip`` calls), else one QP solve counted in ``qp_solves`` and
    ``qp_pivots``."""
    if isinstance(C, Box):
        return y.clip(C.lower, C.upper)
    solution = least_distance(assemble(C, []), y)
    if counters is not None:
        counters.qp_solves += 1
        counters.qp_pivots += solution.iterations
    return solution.point


def compute_z(x, u, beta: float, C: FeasibleSet, counters: Counters | None = None) -> np.ndarray:
    """Projected trial point ``P_C(x - beta u)``: closed form on a ``Box``, one QP
    solve on any other C; ``beta``, a real > 0, is checked by ``vifd.sets``."""
    x = as_point(x)
    u = as_point(u, x.size)
    return _project(C, x - _real("beta", beta, 0.0) * u, counters)


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
    ``x - z`` is compared against ``delta <u, x - z>`` with no slack; the first
    alpha whose support is at least that threshold is returned together with a
    witness element achieving it (the support's maximizer, or
    ``witness_above`` of an unattained supremum) and the number of probes
    spent; a witness that is not a finite vector of the iterate's length
    raises ``ValueError``.

    Raises :class:`LinesearchFailure` after ``MAX_LINESEARCH_HALVINGS + 1``
    probes without success.
    """
    x = as_point(x)
    z = as_point(z, x.size)
    u = as_point(u, x.size)
    direction = x - z
    threshold = params.delta * float(u @ direction)
    alpha = 1.0
    probes = 0
    for _ in range(MAX_LINESEARCH_HALVINGS + 1):
        y = alpha * z + (1.0 - alpha) * x
        result = T.support(y, direction)
        probes += 1
        if counters is not None:
            counters.operator_evals += 1
            counters.linesearch_probes += 1
        if result.value >= threshold:
            if result.maximizer is not None:
                ubar = np.array(result.maximizer)
            else:
                ubar = T.witness_above(y, direction, threshold)
            return alpha, as_point(ubar, x.size), probes
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

    Returns ``(reason, terminal_point, certificate)``, the certificate a
    ``StopCertificate`` of the test that fired, when either
    ||x - z||^2 <= tol_residual (the iterate is already stationary) or
    ||z - P_C(z - v)||^2 <= tol_residual for v = select(z) (the trial point
    solves the problem); returns None otherwise.  The second test costs one
    operator evaluation and one projection onto C, which is a QP solve unless
    C is a ``Box``; a selection that is not a finite vector of the iterate's
    length raises ``ValueError``.
    """
    x = as_point(x)
    z = as_point(z, x.size)
    residual_sq = float(((x - z) ** 2).sum())
    if residual_sq <= params.tol_residual:
        certificate = StopCertificate("residual_sq_step2a", residual_sq, params.tol_residual)
        return StopReason.RESIDUAL_ZERO_STEP2A, x.copy(), certificate
    v = as_point(T.select(z), x.size)
    if counters is not None:
        counters.operator_evals += 1
    reprojected = _project(C, z - v, counters)
    solves_sq = float(((z - reprojected) ** 2).sum())
    if solves_sq <= params.tol_residual:
        certificate = StopCertificate("residual_sq_step2b", solves_sq, params.tol_residual)
        return StopReason.ZK_SOLVES_STEP2B, z.copy(), certificate
    return None


def _report(state: SolverState, reason: StopReason, terminal: np.ndarray,
            certificate: StopCertificate) -> RunReport:
    return RunReport(reason, np.array(terminal), certificate, state.counters)


def step(state: SolverState, problem: ProblemInstance, params: SolverParams):
    """Run one outer iteration; return ``(state, report_or_None)``.

    The separating halfspace found this iteration is added to the constraint
    store ``state.cuts`` as one row, or, when its unit normal is a stored
    cut's, lowers that row to the tighter of the two (the same feasible set,
    since the halfspaces are parallel).  The slab anchored at the current
    iterate is never stored: the next iterate projects the start point onto
    the system that ``state.cuts.add_with_slab`` makes of the rows and slab
    in the same call that stores the cut, warm started at the store's
    ``warm_start``.  Step 4 stops when that projection equals the iterate
    entrywise, with the certificate ``("step_norm_step4", 0.0, 0.0)``.  Every
    stop, a linesearch breakdown included, returns its report; the QP's
    ``MaxPivots`` and ``InfeasibleSystem`` still raise.
    """
    C, T = problem.feasible, problem.operator
    counters = state.counters
    k = counters.outer_iters
    if k >= params.max_outer_iterations:
        certificate = StopCertificate("max_outer_iterations", float(k),
                                      float(params.max_outer_iterations))
        return state, _report(state, StopReason.MAX_ITERATIONS, state.x, certificate)

    u = T.select(state.x)
    counters.operator_evals += 1
    z = compute_z(state.x, u, params.beta, C, counters)

    stop = step2_stop_check(state.x, z, T, C, params, counters)
    if stop is not None:
        return state, _report(state, *stop)

    try:
        alpha, ubar, _ = linesearch_f(T, state.x, z, u, params, counters)
    except LinesearchFailure as failure:
        certificate = StopCertificate("linesearch_halvings", float(failure.probes),
                                      float(MAX_LINESEARCH_HALVINGS))
        return state, _report(state, StopReason.LINESEARCH_FAILURE, state.x, certificate)
    xbar = alpha * z + (1.0 - alpha) * state.x
    if state.cuts is None:
        state.cuts = ConstraintStore(C)
    # the store normalises the normal again; scaling it first keeps the row
    # bitwise the one every recorded trajectory was computed with.  ubar, z
    # and x were checked by linesearch_f, and the store refuses a row that is
    # not finite.
    norm = math.sqrt(ubar @ ubar)
    system = state.cuts.add_with_slab(ubar / norm if norm > 0.0 else ubar, xbar,
                                      state.x0 - state.x, state.x)
    solution = least_distance(system, state.x0, warm_start=state.cuts.warm_start)
    counters.qp_solves += 1
    counters.qp_pivots += solution.iterations
    x_next = solution.point

    fixed = (x_next == state.x).all()
    state.x = x_next
    counters.outer_iters += 1
    if fixed:
        certificate = StopCertificate("step_norm_step4", 0.0, 0.0)
        return state, _report(state, StopReason.FIXED_POINT_STEP4, x_next, certificate)
    return state, None


def solve(problem: ProblemInstance, x0, params: SolverParams | None = None) -> RunReport:
    """Run the outer loop from ``x0`` until a stop test fires.

    A start outside the feasible set is replaced by its projection onto C
    (closed form on a ``Box``, else one QP solve) and flagged in the report.
    Every stop, a linesearch breakdown included, is ``step``'s report.
    A floating-point overflow, invalid value or division by zero anywhere in
    the run raises ``FloatingPointError`` naming the iteration, as the QP's
    ``MaxPivots`` and ``InfeasibleSystem`` are raised, and prints no warning.
    """
    if params is None:
        params = SolverParams()
    x0 = _point("x0", x0, problem.dim)
    started = time.perf_counter()
    counters = Counters()
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        try:
            start_projected = not problem.feasible.contains(x0, 1e-9)
            if start_projected:
                x0 = _project(problem.feasible, x0, counters)
            state = SolverState.initial(x0)
            state.counters = counters
            report = None
            while report is None:
                state, report = step(state, problem, params)
        except FloatingPointError as exc:
            raise FloatingPointError(
                f"numeric breakdown at iteration {counters.outer_iters}: {exc}"
            ) from None
    report.wall_time_s = time.perf_counter() - started
    report.start_projected = start_projected
    return report
