"""Outer loop, linesearch, stop tests, and run-level geometric invariants."""

import math

import numpy as np
import pytest

import vifd.solver
from vifd.operators import (
    HsQuasimonotone,
    ProblemInstance,
    SetValuedOperator,
    SupportResult,
    make_problem,
)
from vifd.qp import InfeasibleSystem
from vifd.sets import Box, LinearConstraintSystem, assemble, contains
from vifd.solver import (
    SOLUTION_STOPS,
    Counters,
    LinesearchFailure,
    SolverParams,
    SolverState,
    StopReason,
    compute_z,
    linesearch_f,
    solve,
    step,
    step2_stop_check,
)


class StepFunctionOperator(SetValuedOperator):
    """One-dimensional singleton operator with a jump, for linesearch tests."""

    dim = 1
    singleton = True

    def __init__(self, cut: float, low: float, high: float):
        self.cut = cut
        self.low = low
        self.high = high

    def select(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return np.array([self.high if x[0] >= self.cut else self.low])

    def support(self, x, d):
        u = self.select(x)
        d = np.atleast_1d(np.asarray(d, dtype=float))
        return SupportResult(float(u @ d), u)


class TestSolverParams:
    def test_defaults(self):
        params = SolverParams()
        assert params.delta == 0.01
        assert params.theta == 0.5
        assert params.beta == 1.0
        assert params.tol_residual == 1e-8
        assert params.max_outer_iterations == 10_000
        assert vifd.solver.TOL_STEP4 == 1e-12
        assert vifd.solver.MAX_LINESEARCH_HALVINGS == 200

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"delta": 0.0},
            {"delta": 1.0},
            {"theta": 0.0},
            {"theta": 1.0},
            {"tol_residual": 0.0},
            {"delta": "0.5"},
            {"max_outer_iterations": 0},
            {"delta": True},
            {"beta": 0.0},
            {"beta": -1.0},
            {"beta": math.inf},
            {"beta": math.nan},
            {"tol_residual": math.inf},
            {"tol_residual": math.nan},
            {"theta": None},
            {"beta": 10**400},
            {"max_outer_iterations": 2.5},
            {"max_outer_iterations": math.inf},
            {"max_outer_iterations": True},
            {"max_outer_iterations": "5"},
            {"tol_residual": np.float64(-1e-8)},
            {"max_outer_iterations": np.int64(0)},
            {"theta": np.bool_(True)},
            {"max_outer_iterations": 5.0},
        ],
    )
    def test_rejects(self, kwargs):
        (key,) = kwargs
        with pytest.raises(ValueError, match=repr(key)):
            SolverParams(**kwargs)

    def test_stores_plain_numbers(self):
        # numpy scalars and integers become plain floats and ints
        params = SolverParams(delta=np.float32(0.5), beta=np.int64(2), tol_residual=1,
                              max_outer_iterations=np.int64(5))
        values = (params.delta, params.beta, params.tol_residual, params.max_outer_iterations)
        assert values == (0.5, 2.0, 1.0, 5)
        assert [type(v) for v in values] == [float, float, float, int]


def test_compute_z_projects_trial_step():
    box = Box(np.zeros(2), np.ones(2))
    counters = Counters()
    z = compute_z([0.5, 0.5], [1.0, 0.0], 0.25, box, counters)
    np.testing.assert_allclose(z, [0.25, 0.5], atol=1e-12)
    assert counters.qp_solves == 1
    z = compute_z([0.5, 0.5], [-1.0, -1.0], 2.0, box)
    np.testing.assert_allclose(z, [1.0, 1.0], atol=1e-12)
    with pytest.raises(ValueError):
        compute_z([0.5, 0.5], [1.0, 0.0], 0.0, box)


class TestLinesearch:
    def test_accepts_full_step_with_frozen_support_value(self):
        # at the trial point (0.5, 1) the auxiliary root is
        # t = (0.5 + sqrt(4.25)) / 2 and the support along (-0.5, 0) is
        # 0.5 t / (1 + t), far above the threshold 0.01 * 0.25
        T = HsQuasimonotone()
        x = np.array([0.0, 1.0])
        z = np.array([0.5, 1.0])
        u = T.select(x)
        counters = Counters()
        alpha, ubar, probes = linesearch_f(T, x, z, u, SolverParams(delta=0.01), counters)
        assert alpha == 1.0
        assert probes == 1
        assert counters.linesearch_probes == 1
        assert counters.operator_evals == 1
        t = 0.5 * (0.5 + math.sqrt(4.25))
        expected = 0.5 * t / (1.0 + t)
        assert float(ubar @ (x - z)) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.2807764064044151, abs=1e-12)

    def test_backtracks_until_threshold(self):
        # the operator drops from 1 to 0.1 below 0.9, so alpha must shrink
        # until the probe point 1 - alpha clears the jump
        T = StepFunctionOperator(cut=0.9, low=0.1, high=1.0)
        params = SolverParams(delta=0.5, theta=0.5)
        alpha, ubar, probes = linesearch_f(T, [1.0], [0.0], [1.0], params)
        assert alpha == pytest.approx(0.0625)
        assert probes == 5
        np.testing.assert_allclose(ubar, [1.0])

    def test_exhausted_budget_raises(self, monkeypatch):
        monkeypatch.setattr(vifd.solver, "MAX_LINESEARCH_HALVINGS", 10)
        T = StepFunctionOperator(cut=1.0, low=0.0, high=1.0)
        params = SolverParams(delta=0.5, theta=0.5)
        with pytest.raises(LinesearchFailure) as info:
            linesearch_f(T, [1.0], [0.0], [1.0], params)
        assert info.value.probes == 11

    def test_exit_inequality_on_benchmark_runs(self):
        problem = make_problem("hs-quasimonotone")
        params = SolverParams(delta=0.01)
        rng = np.random.default_rng(20)
        for _ in range(50):
            x = rng.random(2)
            u = problem.operator.select(x)
            z = compute_z(x, u, 1.0, problem.feasible)
            if float(np.sum((x - z) ** 2)) <= 1e-14:
                continue
            alpha, ubar, _ = linesearch_f(problem.operator, x, z, u, params)
            d = x - z
            assert float(ubar @ d) >= params.delta * float(u @ d) - 1e-12


class TestStep2:
    problem = make_problem("hs-quasimonotone")

    def test_stationary_iterate_stops_first_branch(self):
        result = step2_stop_check(
            [1.0, 1.0], [1.0, 1.0], self.problem.operator, self.problem.feasible,
            SolverParams(),
        )
        reason, terminal, value = result
        assert reason is StopReason.RESIDUAL_ZERO_STEP2A
        np.testing.assert_array_equal(terminal, [1.0, 1.0])
        assert value == 0.0

    def test_solving_trial_point_stops_second_branch(self):
        counters = Counters()
        result = step2_stop_check(
            [0.5, 0.5], [1.0, 1.0], self.problem.operator, self.problem.feasible,
            SolverParams(), counters,
        )
        reason, terminal, value = result
        assert reason is StopReason.ZK_SOLVES_STEP2B
        np.testing.assert_array_equal(terminal, [1.0, 1.0])
        assert value <= 1e-30
        assert counters.operator_evals == 1
        assert counters.qp_solves == 1

    def test_returns_none_away_from_solutions(self):
        assert (
            step2_stop_check(
                [0.0, 0.0], [0.0, 1.0], self.problem.operator, self.problem.feasible,
                SolverParams(),
            )
            is None
        )


class TestStep:
    def test_structure_of_one_iteration(self):
        problem = make_problem("hs-quasimonotone")
        params = SolverParams(delta=0.01, record_history=True)
        state = SolverState.initial([0.0, 0.0])
        state, report = step(state, problem, params)
        assert report is None
        assert state.k == 1
        assert state.counters.outer_iters == 1
        rec = state.history[0]
        # the constraint store holds the 4 box rows plus the single cut
        assert state.cuts.G.shape == (5, 2)
        np.testing.assert_allclose(state.cuts.G[-1], rec.new_halfspace.normal, atol=1e-15)
        np.testing.assert_array_equal(rec.x, [0.0, 0.0])
        np.testing.assert_allclose(rec.u, [0.0, -1.0], atol=1e-15)
        np.testing.assert_allclose(rec.z, [0.0, 1.0], atol=1e-12)
        assert rec.residual_sq == pytest.approx(1.0, abs=1e-12)
        assert rec.alpha is not None and rec.new_halfspace is not None
        # the slab is anchored at the current iterate, which here is x0 itself,
        # so it degenerates to the whole space and is not part of the system
        assert rec.w is not None and rec.w.is_whole_space
        np.testing.assert_array_equal(rec.x_next, state.x)
        # warm start indices must reference rows that keep their position:
        # the 5 stored rows
        assert all(0 <= i < 5 for i in state.warm_active)

    def test_budget_exhaustion_reports_max_iterations(self):
        problem = make_problem("rho-squared")
        params = SolverParams(max_outer_iterations=2)
        state = SolverState.initial([0.5])
        report = None
        while report is None:
            state, report = step(state, problem, params)
        assert report.stop_reason is StopReason.MAX_ITERATIONS
        assert report.stop_reason not in SOLUTION_STOPS
        assert report.terminal_certificate.test == "max_outer_iterations"
        assert report.counters.outer_iters == 2


class TestSolve:
    def test_immediate_stop_at_solution_costs_two_evaluations(self):
        problem = make_problem("hs-quasimonotone")
        report = solve(problem, [0.5, 0.5], SolverParams(delta=0.01))
        assert report.stop_reason is StopReason.ZK_SOLVES_STEP2B
        np.testing.assert_allclose(report.terminal_point, [1.0, 1.0], atol=1e-12)
        assert report.counters.outer_iters == 0
        assert report.counters.operator_evals == 2
        assert report.counters.linesearch_probes == 0
        assert report.wall_time_s > 0.0

    def test_infeasible_start_is_projected(self):
        problem = make_problem("hs-quasimonotone")
        report = solve(problem, [2.0, 2.0], SolverParams())
        assert report.start_projected
        assert report.stop_reason is StopReason.RESIDUAL_ZERO_STEP2A
        np.testing.assert_allclose(report.terminal_point, [1.0, 1.0], atol=1e-12)

    def test_linesearch_breakdown_is_reported_not_raised(self, monkeypatch):
        # from x = 1 the trial point is z = 0, which neither stop test accepts,
        # and every probe sees support -1 against a threshold of 4.95
        problem = ProblemInstance(
            name="jump",
            operator=StepFunctionOperator(cut=1.0, low=-1.0, high=5.0),
            feasible=Box([0.0], [1.0]),
        )
        monkeypatch.setattr(vifd.solver, "MAX_LINESEARCH_HALVINGS", 8)
        report = solve(problem, [1.0], SolverParams(delta=0.99, theta=0.5))
        assert report.stop_reason is StopReason.LINESEARCH_FAILURE
        assert report.terminal_certificate.test == "linesearch_halvings"
        assert report.terminal_certificate.value == 9.0
        assert report.terminal_certificate.tolerance == 8.0

    def test_loose_step4_tolerance_stops_on_fixed_point(self, monkeypatch):
        monkeypatch.setattr(vifd.solver, "TOL_STEP4", 10.0)
        problem = make_problem("hs-quasimonotone")
        report = solve(problem, [0.0, 0.0], SolverParams())
        assert report.stop_reason is StopReason.FIXED_POINT_STEP4
        assert report.terminal_certificate.test == "step_norm_step4"
        assert report.terminal_certificate.tolerance == 10.0
        assert report.counters.outer_iters == 1

    def test_max_iterations_reached(self):
        problem = make_problem("rho-squared")
        report = solve(problem, [0.5], SolverParams(max_outer_iterations=3))
        assert report.stop_reason is StopReason.MAX_ITERATIONS

    def test_deterministic_reruns(self):
        problem = make_problem("hs-quasimonotone")
        params = SolverParams(delta=0.01)
        a = solve(problem, [0.1, 0.9], params)
        b = solve(problem, [0.1, 0.9], params)
        np.testing.assert_array_equal(a.terminal_point, b.terminal_point)
        assert a.counters == b.counters
        assert a.residual_history == b.residual_history

    def test_history_only_on_request(self):
        problem = make_problem("hs-quasimonotone")
        off = solve(problem, [0.0, 0.0], SolverParams())
        assert off.history is None
        assert len(off.residual_history) >= 1
        on = solve(problem, [0.0, 0.0], SolverParams(record_history=True))
        assert on.history is not None
        assert [r.residual_sq for r in on.history] == on.residual_history

    def test_general_polyhedral_set(self):
        # the unit triangle x >= 0, y >= 0, x + y <= 1
        triangle = LinearConstraintSystem(
            G=[[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]], h=[0.0, 0.0, 1.0],
            A=np.zeros((0, 2)), b=np.zeros(0),
        )
        problem = ProblemInstance("triangle", HsQuasimonotone(), triangle)
        # a short trial step, so that cuts are stacked on the triangle's rows
        report = solve(problem, [0.0, 0.0], SolverParams(delta=0.01, beta=0.1))
        assert report.stop_reason in SOLUTION_STOPS
        assert report.counters.outer_iters >= 1
        assert triangle.contains(report.terminal_point, 1e-9)

    def test_empty_set_fails_at_its_first_projection(self):
        # x <= 0 and x >= 1
        empty = LinearConstraintSystem(G=[[1.0], [-1.0]], h=[0.0, -1.0],
                                       A=np.zeros((0, 1)), b=np.zeros(0))
        problem = ProblemInstance("empty", StepFunctionOperator(0.5, -1.0, 1.0), empty)
        with pytest.raises(InfeasibleSystem):
            solve(problem, [0.5], SolverParams())


def _run_cases():
    pi = math.pi
    return [
        ("hs-quasimonotone", {}, [0.0, 0.0],
         SolverParams(delta=0.01, theta=0.5, record_history=True)),
        ("hs-quasimonotone", {}, [0.1, 0.9],
         SolverParams(delta=0.01, theta=0.5, record_history=True)),
        ("hs-quasimonotone", {}, [1.0, 0.1],
         SolverParams(delta=0.01, theta=0.5, record_history=True)),
        ("rho-squared", {}, [0.5],
         SolverParams(delta=0.01, theta=0.5, record_history=True)),
        ("rho-squared", {}, [-0.5],
         SolverParams(delta=0.01, theta=0.5, record_history=True)),
        ("rho-norm", {"dim": 5}, [0.9, -0.3, 0.2, -0.8, 0.5],
         SolverParams(delta=0.01, theta=0.5, record_history=True)),
        ("fractional-simplex", {"seed": 0}, [0.0, 0.0, 5.0, 0.0, 0.0],
         SolverParams(delta=0.01, theta=0.25, tol_residual=1e-4, record_history=True)),
        ("fractional-simplex", {"seed": 0}, [0.0, 2.0, 0.0, 2.0, 1.0],
         SolverParams(delta=0.5, theta=0.25, tol_residual=1e-4, record_history=True)),
        ("ray-setvalued", {}, [1.0, pi / 2],
         SolverParams(delta=0.5, theta=0.5, tol_residual=1e-30, record_history=True)),
        ("ray-setvalued", {}, [10.0, pi / 4],
         SolverParams(delta=0.5, theta=0.5, tol_residual=1e-30, record_history=True)),
    ]


@pytest.mark.parametrize("name,kwargs,x0,params", _run_cases())
def test_run_invariants(name, kwargs, x0, params):
    problem = make_problem(name, **kwargs)
    report = solve(problem, x0, params)
    assert report.stop_reason in SOLUTION_STOPS
    history = report.history
    assert history, "invariant battery needs at least one recorded iteration"

    C = problem.feasible
    dual = problem.known_dual_solutions[0]
    anchor = history[0].x
    rho = float(np.linalg.norm(anchor - dual))
    center = 0.5 * (anchor + dual)
    beta_hat = params.beta
    cuts = []
    steps_sq = 0.0

    for rec in history:
        # every point the iteration touches stays feasible
        assert C.contains(rec.x, 1e-8)
        assert C.contains(rec.z, 1e-8)
        # iterates never leave the ball around the anchor-solution midpoint
        assert float(np.linalg.norm(rec.x - center)) <= rho / 2.0 + 1e-6

        if rec.alpha is None:
            continue
        assert C.contains(rec.xbar, 1e-8)
        d = rec.x - rec.z
        # the linesearch exit inequality, and its consequence at xbar
        assert float(rec.ubar @ d) >= params.delta * float(rec.u @ d) - 1e-12
        assert (
            float(rec.ubar @ (rec.x - rec.xbar))
            >= (rec.alpha / beta_hat) * params.delta * rec.residual_sq - 1e-10
        )

        if not rec.new_halfspace.is_whole_space:
            cuts.append(rec.new_halfspace)
        # every cut and every slab retains the known dual solution
        assert contains(rec.new_halfspace, dual, 1e-8)
        assert contains(rec.w, dual, 1e-8)

        # the next iterate satisfies the whole working system it came from
        assert C.contains(rec.x_next, 1e-8)
        for hs in cuts:
            assert contains(hs, rec.x_next, 1e-8)
        assert contains(rec.w, rec.x_next, 1e-8)

        # anchored distance grows, steps stay square-summable
        assert (
            float(np.linalg.norm(rec.x_next - anchor))
            >= float(np.linalg.norm(rec.x - anchor)) - 1e-8
        )
        steps_sq += float(np.sum((rec.x_next - rec.x) ** 2))

    assert steps_sq <= rho**2 + 1e-8
