"""Solver library for variational inequalities with point-to-set operators.

The method combines a projected trial step, a backtracking linesearch over the
operator's support function, and an anchored projection of the fixed start
point onto the intersection of the feasible set with every separating
halfspace found so far.
"""

from .sets import (
    Box,
    FeasibleSet,
    LinearConstraintSystem,
    SimplexSlice,
    as_point,
    assemble,
)
from .qp import (
    InfeasibleSystem,
    MaxPivots,
    QpSolution,
    least_distance,
    simplex_projection,
)
from .operators import (
    DomainError,
    FractionalGradient,
    HsQuasimonotone,
    PROBLEM_NAMES,
    ProblemInstance,
    RayOperator,
    RhoOperator,
    SetValuedOperator,
    SupportResult,
    UnknownProblem,
    make_problem,
)
from .solver import (
    Counters,
    LinesearchFailure,
    RunReport,
    SolverParams,
    SolverState,
    StopCertificate,
    StopReason,
    compute_z,
    linesearch_f,
    solve,
    step,
    step2_stop_check,
)
from .bench import (
    ExperimentConfig,
    ResultRow,
    emit,
    preset_configs,
    run_experiment,
    run_reports,
)

__version__ = "0.1.0"
