"""Outer loop, linesearch, stop tests, and run-level geometric invariants."""

import math
from dataclasses import FrozenInstanceError, dataclass, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vifd.solver
from vifd import qp, sets
from vifd.bench import preset_configs, run_reports
from vifd.operators import (
    DomainError,
    HsQuasimonotone,
    ProblemInstance,
    SetValuedOperator,
    SupportResult,
    make_problem,
)
from vifd.qp import InfeasibleSystem, least_distance
from vifd.sets import Box, LinearConstraintSystem, SimplexSlice, assemble
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


@dataclass
class Iteration:
    """What one outer iteration produced, read through ``step``'s seams.

    ``alpha`` and every field after it stay None when the iteration stopped at
    step 2, before its linesearch. ``cuts`` is the constraint store's system
    after the iteration; the next iterate is the projection of the start point
    x0 onto it and the slab ``{y : <y - x, x0 - x> <= 0}``.
    """

    x: np.ndarray
    u: np.ndarray | None = None
    z: np.ndarray | None = None
    alpha: float | None = None
    ubar: np.ndarray | None = None
    xbar: np.ndarray | None = None
    x_next: np.ndarray | None = None
    cuts: LinearConstraintSystem | None = None


_SEAMS = ("step", "compute_z", "linesearch_f")


def run_iterations(problem, x0, params):
    """``solve`` with ``vifd.solver``'s ``step``, ``compute_z`` and ``linesearch_f``
    wrapped; return the report and one :class:`Iteration` per iteration that
    took its trial step.

    The originals are put back in ``finally`` rather than by a fixture, because
    the acceptance suite calls the tests that use this as plain functions.
    """
    originals = {name: getattr(vifd.solver, name) for name in _SEAMS}
    iterations = []

    def step(state, problem, params):
        current = Iteration(x=state.x)
        iterations.append(current)
        k = state.counters.outer_iters
        state, report = originals["step"](state, problem, params)
        if state.counters.outer_iters > k:
            current.x_next, current.cuts = state.x, state.cuts.system
        return state, report

    def compute_z(x, u, *args):
        iterations[-1].u = u
        iterations[-1].z = originals["compute_z"](x, u, *args)
        return iterations[-1].z

    def linesearch_f(T, x, z, u, *args):
        alpha, ubar, probes = originals["linesearch_f"](T, x, z, u, *args)
        current = iterations[-1]
        current.alpha, current.ubar = alpha, ubar
        current.xbar = alpha * z + (1.0 - alpha) * x
        return alpha, ubar, probes

    try:
        for wrapper in (step, compute_z, linesearch_f):
            setattr(vifd.solver, wrapper.__name__, wrapper)
        report = vifd.solver.solve(problem, x0, params)
    finally:
        for name, original in originals.items():
            setattr(vifd.solver, name, original)
    # a step that stops on the iteration budget returns before its trial step
    return report, [it for it in iterations if it.z is not None]


class TestRunIterations:
    def test_restores_the_seams(self):
        problem = make_problem("hs-quasimonotone")
        report, iterations = run_iterations(problem, [0.0, 0.0], SolverParams())
        assert report.counters.outer_iters == len(iterations) - 1
        assert [getattr(vifd.solver, name) for name in _SEAMS] == [
            step, compute_z, linesearch_f]

    def test_restores_the_seams_when_solve_raises(self):
        class Outside(StepFunctionOperator):
            def support(self, x, d):
                raise DomainError("probe outside the domain")

        # the first linesearch probe raises from inside the wrapped seams
        problem = ProblemInstance("outside", Outside(1.0, -1.0, 5.0), Box([0.0], [1.0]))
        with pytest.raises(DomainError):
            run_iterations(problem, [1.0], SolverParams(delta=0.99))
        assert [getattr(vifd.solver, name) for name in _SEAMS] == [
            step, compute_z, linesearch_f]


class TestSolverParams:
    def test_defaults(self):
        params = SolverParams()
        assert params.delta == 0.01
        assert params.theta == 0.5
        assert params.beta == 1.0
        assert params.tol_residual == 1e-8
        assert params.max_outer_iterations == 10_000
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
            {"theta": np.array(True)},
            {"delta": np.array([0.5])},
            {"max_outer_iterations": np.array(5.0)},
            {"delta": 5.0},
            {"max_outer_iterations": -3},
        ],
    )
    def test_rejects(self, kwargs):
        (key,) = kwargs
        with pytest.raises(ValueError, match=repr(key)):
            SolverParams(**kwargs)
        # nor can a value skip the checks later: the parameters are frozen,
        # and replace checks its values as the constructor does
        params = SolverParams()
        with pytest.raises(FrozenInstanceError):
            setattr(params, key, kwargs[key])
        with pytest.raises(ValueError, match=repr(key)):
            replace(params, **kwargs)
        assert params == SolverParams()

    def test_stores_plain_numbers(self):
        # numpy scalars and integers become plain floats and ints
        params = SolverParams(delta=np.float32(0.5), beta=np.int64(2), tol_residual=1,
                              max_outer_iterations=np.int64(5))
        values = (params.delta, params.beta, params.tol_residual, params.max_outer_iterations)
        assert values == (0.5, 2.0, 1.0, 5)
        assert [type(v) for v in values] == [float, float, float, int]
        # and so do 0-d arrays of a numeric dtype
        params = SolverParams(delta=np.array(0.5), max_outer_iterations=np.array(5))
        assert (params.delta, params.max_outer_iterations) == (0.5, 5)
        assert (type(params.delta), type(params.max_outer_iterations)) == (float, int)


def test_compute_z_projects_trial_step():
    box = Box(np.zeros(2), np.ones(2))
    counters = Counters()
    z = compute_z([0.5, 0.5], [1.0, 0.0], 0.25, box, counters)
    np.testing.assert_allclose(z, [0.25, 0.5], atol=1e-12)
    # a box projection is closed form, not a QP solve
    assert counters.qp_solves == 0
    z = compute_z([0.5, 0.5], [-1.0, -1.0], 2.0, box)
    np.testing.assert_allclose(z, [1.0, 1.0], atol=1e-12)
    for beta in (0.0, True, math.inf, "1"):
        with pytest.raises(ValueError, match="'beta'"):
            compute_z([0.5, 0.5], [1.0, 0.0], beta, box)
    # any other C is one QP solve
    z = compute_z([1.0, 1.0, 0.0], [0.0, 0.0, -1.0], 1.0, SimplexSlice(2.0, 3), counters)
    np.testing.assert_allclose(z, [2 / 3, 2 / 3, 2 / 3], atol=1e-12)
    assert counters.qp_solves == 1


_BOUND = st.one_of(st.just(math.inf), st.floats(0.0, 1e3))


@st.composite
def _boxes_and_points(draw):
    # lower = centre - below and upper = centre + above, each bound possibly
    # infinite; y lies up to 1e6 outside the box
    n = draw(st.integers(1, 6))

    def vector(elements):
        return np.array(draw(st.lists(elements, min_size=n, max_size=n)))

    centre, below, above = vector(st.floats(-1e3, 1e3)), vector(_BOUND), vector(_BOUND)
    return centre - below, centre + above, centre + vector(st.floats(-1e6, 1e6))


@settings(max_examples=300, deadline=None)
@given(case=_boxes_and_points())
# a point 1e-10 above a zero upper bound, which the QP leaves where it is
@example(case=(np.zeros(5), np.array([np.inf, np.inf, np.inf, 0.0, np.inf]),
               np.array([0.0, 0.0, 0.0, 1e-10, 0.0])))
def test_box_projection_is_the_qp_projection(case):
    lower, upper, y = case
    n = y.size
    box = Box(lower, upper)
    closed = compute_z(y, np.zeros(n), 1.0, box)
    exact = least_distance(assemble(box, []), y).point
    # the clip is exact, but the QP reference holds each constraint only to
    # its feasibility tolerance qp.TOL, so the two agree to TOL plus round-off
    tol = qp.TOL + 1e-12 * max(1.0, float(np.linalg.norm(y)))
    np.testing.assert_allclose(closed, exact, rtol=0.0, atol=tol)
    assert box.contains(closed)
    np.testing.assert_array_equal(compute_z(closed, np.zeros(n), 1.0, box), closed)


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
        # the test is the paper's inequality with no slack: at alpha = 1 a
        # support exactly at the threshold 0.5 passes and one 1e-13 below it
        # does not, so the second probe (support 1) is taken
        for low, accepted, spent in ((0.5, 1.0, 1), (0.5 - 1e-13, 0.5, 2)):
            T = StepFunctionOperator(cut=0.25, low=low, high=1.0)
            alpha, ubar, probes = linesearch_f(T, [1.0], [0.0], [1.0], params)
            assert (alpha, probes) == (accepted, spent)

    def test_exhausted_budget_raises(self, monkeypatch):
        monkeypatch.setattr(vifd.solver, "MAX_LINESEARCH_HALVINGS", 10)
        T = StepFunctionOperator(cut=1.0, low=0.0, high=1.0)
        params = SolverParams(delta=0.5, theta=0.5)
        with pytest.raises(LinesearchFailure) as info:
            linesearch_f(T, [1.0], [0.0], [1.0], params)
        assert info.value.probes == 11

    # SupportResult itself refuses a NaN maximizer
    @pytest.mark.parametrize("attained, witness", [
        (True, [1.0, 1.0]), (False, [1.0, 1.0]), (False, [math.nan]),
    ], ids=["long-maximizer", "long-witness_above", "nan-witness_above"])
    def test_refuses_a_witness_that_is_not_a_finite_point(self, attained, witness):
        class Bad(StepFunctionOperator):
            def support(self, x, d):
                if attained:
                    return SupportResult(1.0, np.array(witness))
                return SupportResult(math.inf)

            def witness_above(self, x, d, threshold):
                return np.array(witness)

        with pytest.raises(ValueError):
            linesearch_f(Bad(1.0, 0.0, 1.0), [1.0], [0.0], [1.0], SolverParams())

    def test_an_unattained_supremum_without_a_witness_names_the_operator(self):
        # the default witness_above serves no operator: one whose support can
        # be infinite must override it
        class Unbounded(StepFunctionOperator):
            def support(self, x, d):
                return SupportResult(math.inf)

        with pytest.raises(NotImplementedError, match="Unbounded"):
            linesearch_f(Unbounded(1.0, 0.0, 1.0), [1.0], [0.0], [1.0], SolverParams())

    @pytest.mark.parametrize("preset", ["table1", "table4"])
    def test_witness_above_serves_only_the_unattained_support_just_probed(self, preset,
                                                                          monkeypatch):
        # an attained support's maximizer is the witness, so each witness_above
        # call follows a support at its point and direction that reported no
        # maximizer; table1's singleton operator makes no such call
        config = preset_configs(preset)[0]
        cls = type(config.build_problem().operator)
        support, witness_above = cls.support, cls.witness_above
        calls = []

        def spy_support(self, x, d):
            result = support(self, x, d)
            calls.append(("support", x.tobytes(), d.tobytes(), result.maximizer is None))
            return result

        def spy_witness_above(self, x, d, level):
            calls.append(("witness_above", x.tobytes(), d.tobytes(), True))
            return witness_above(self, x, d, level)

        monkeypatch.setattr(cls, "support", spy_support)
        monkeypatch.setattr(cls, "witness_above", spy_witness_above)
        run_reports(config)
        witnesses = [i for i, call in enumerate(calls) if call[0] == "witness_above"]
        for i in witnesses:
            assert i > 0 and calls[i - 1] == ("support",) + calls[i][1:]
        assert len(calls) > 0 and bool(witnesses) == (preset == "table4")

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
            assert float(ubar @ d) >= params.delta * float(u @ d)


class TestStep2:
    problem = make_problem("hs-quasimonotone")

    def test_stationary_iterate_stops_first_branch(self):
        result = step2_stop_check(
            [1.0, 1.0], [1.0, 1.0], self.problem.operator, self.problem.feasible,
            SolverParams(),
        )
        reason, terminal, certificate = result
        assert reason is StopReason.RESIDUAL_ZERO_STEP2A
        np.testing.assert_array_equal(terminal, [1.0, 1.0])
        assert certificate.value == 0.0

    def test_solving_trial_point_stops_second_branch(self):
        counters = Counters()
        result = step2_stop_check(
            [0.5, 0.5], [1.0, 1.0], self.problem.operator, self.problem.feasible,
            SolverParams(), counters,
        )
        reason, terminal, certificate = result
        assert reason is StopReason.ZK_SOLVES_STEP2B
        np.testing.assert_array_equal(terminal, [1.0, 1.0])
        assert certificate.value <= 1e-30
        assert counters.operator_evals == 1
        # the box reprojection is closed form
        assert counters.qp_solves == 0

    def test_reprojection_onto_a_simplex_slice_is_one_qp_solve(self):
        problem = make_problem("fractional-simplex", a=5.0, seed=0)
        x_star = np.full(5, 1.0)
        counters = Counters()
        reason, _, _ = step2_stop_check(
            np.zeros(5), x_star, problem.operator, problem.feasible, SolverParams(), counters
        )
        assert reason is StopReason.ZK_SOLVES_STEP2B
        assert counters.operator_evals == 1
        assert counters.qp_solves == 1

    @pytest.mark.parametrize("selection", [[0.0], [0.0, math.nan]], ids=["short", "nan"])
    def test_refuses_a_selection_that_is_not_a_finite_point(self, selection):
        # on the 2-D box a one-entry selection would broadcast against z
        class Bad(HsQuasimonotone):
            def select(self, x):
                return np.array(selection)

        with pytest.raises(ValueError):
            step2_stop_check([0.0, 0.0], [0.0, 1.0], Bad(), self.problem.feasible,
                             SolverParams())

    def test_returns_none_away_from_solutions(self):
        assert (
            step2_stop_check(
                [0.0, 0.0], [0.0, 1.0], self.problem.operator, self.problem.feasible,
                SolverParams(),
            )
            is None
        )


class TestStep:
    def test_structure_of_one_iteration(self, monkeypatch):
        problem = make_problem("hs-quasimonotone")
        params = SolverParams(delta=0.01)
        state = SolverState.initial([0.0, 0.0])
        state, report = step(state, problem, params)
        assert report is None
        assert state.counters.outer_iters == 1
        # the same iteration, watched through step's seams
        _, (rec,) = run_iterations(
            problem, [0.0, 0.0], SolverParams(delta=0.01, max_outer_iterations=1)
        )
        # the constraint store holds the 4 box rows plus the single cut, the
        # unit row through xbar with normal ubar
        assert state.cuts.rows == 5
        assert state.cuts.system.G.shape == (5, 2)
        np.testing.assert_array_equal(rec.cuts.G, state.cuts.system.G)
        np.testing.assert_allclose(state.cuts.system.G[-1],
                                   rec.ubar / np.linalg.norm(rec.ubar), atol=1e-15)
        assert state.cuts.system.h[-1] == pytest.approx(state.cuts.system.G[-1] @ rec.xbar)
        np.testing.assert_array_equal(rec.x, [0.0, 0.0])
        np.testing.assert_allclose(rec.u, [0.0, -1.0], atol=1e-15)
        np.testing.assert_allclose(rec.z, [0.0, 1.0], atol=1e-12)
        assert float(np.sum((rec.x - rec.z) ** 2)) == pytest.approx(1.0, abs=1e-12)
        assert rec.alpha is not None and rec.ubar.any()
        # the slab is anchored at the current iterate, which here is x0 itself,
        # so it degenerates to the whole space and is not part of the system
        np.testing.assert_array_equal(rec.x_next, state.x)
        # warm start indices must reference rows that keep their position:
        # the 5 stored rows.  The next iteration's projection receives them
        # (its trial point would stop at step 2b, so that test is skipped).
        received = []

        def spy(system, x0, warm_start=None):
            received.append(warm_start)
            return least_distance(system, x0, warm_start=warm_start)

        monkeypatch.setattr(vifd.solver, "step2_stop_check", lambda *args: None)
        monkeypatch.setattr(vifd.solver, "least_distance", spy)
        step(state, problem, params)
        assert len(received) == 1 and received[0]
        assert all(0 <= i < 5 for i in received[0])

    def test_a_linesearch_breakdown_is_a_report(self, monkeypatch):
        # a loop that drives step itself gets a report for this stop too
        problem = ProblemInstance("jump", StepFunctionOperator(cut=1.0, low=-1.0, high=5.0),
                                  Box([0.0], [1.0]))
        monkeypatch.setattr(vifd.solver, "MAX_LINESEARCH_HALVINGS", 8)
        state, report = step(SolverState.initial([1.0]), problem,
                             SolverParams(delta=0.99, theta=0.5))
        assert report.stop_reason is StopReason.LINESEARCH_FAILURE
        assert report.terminal_certificate.value == 9.0
        np.testing.assert_array_equal(report.terminal_point, [1.0])
        assert report.counters is state.counters and state.counters.outer_iters == 0

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

    def test_a_ray_solve_keeps_one_row_per_repeated_cut_normal(self, monkeypatch):
        # every cut of a ray-operator solve has the same unit normal, so each
        # anchored system holds C's rows, one cut row and the slab, however
        # long the solve runs (the store appends no row for a twin cut)
        config = preset_configs("table4")[0]
        problem = config.build_problem()
        rows = []

        def spy(system, x0, **kwargs):
            if "warm_start" in kwargs:
                rows.append(system.G.shape[0])
            return least_distance(system, x0, **kwargs)

        monkeypatch.setattr(vifd.solver, "least_distance", spy)
        report = solve(problem, [1000.0, math.pi / 2 - 0.02], config.params)
        assert report.stop_reason in SOLUTION_STOPS
        assert report.counters.outer_iters > 50 and len(rows) == report.counters.outer_iters
        assert max(rows) <= assemble(problem.feasible, []).G.shape[0] + 2


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

    def test_refuses_a_start_that_is_not_numbers(self):
        problem = make_problem("hs-quasimonotone")
        for bad in ([True, False], ["0.5", "0.5"], np.array([True, False])):
            with pytest.raises(ValueError, match="'x0'"):
                solve(problem, bad)

    @staticmethod
    def _qp_systems(monkeypatch):
        """The system of every ``least_distance`` call ``vifd.solver`` makes."""
        systems = []

        def counted(system, *args, **kwargs):
            systems.append(system)
            return least_distance(system, *args, **kwargs)

        monkeypatch.setattr(vifd.solver, "least_distance", counted)
        return systems

    def test_box_solve_makes_one_qp_per_iteration(self, monkeypatch):
        problem = make_problem("hs-quasimonotone")
        systems = self._qp_systems(monkeypatch)
        report = solve(problem, [0.0, 0.0], SolverParams(delta=0.9))
        k = report.counters.outer_iters
        assert k == 6
        # only the anchored projections: none onto C alone
        assert report.counters.qp_solves == len(systems) == k
        assert all(system is not problem.feasible.constraints for system in systems)

    def test_simplex_solve_makes_three_qps_per_iteration(self, monkeypatch):
        problem = make_problem("fractional-simplex", a=5.0, seed=0)
        systems = self._qp_systems(monkeypatch)
        report = solve(problem, [0.0, 0.0, 5.0, 0.0, 0.0],
                       SolverParams(theta=0.25, tol_residual=1e-4))
        assert report.stop_reason is StopReason.ZK_SOLVES_STEP2B
        k = report.counters.outer_iters
        assert k == 26
        plain = sum(system is problem.feasible.constraints for system in systems)
        # two plain projections per iteration, the stopping one included, and
        # one anchored projection per completed iteration
        assert plain == 2 * (k + 1)
        assert len(systems) - plain == k
        assert report.counters.qp_solves == len(systems)

    def test_qp_pivots_sums_the_pivots_of_every_qp_solve(self, monkeypatch):
        pivots = []

        def counted(system, *args, **kwargs):
            solution = least_distance(system, *args, **kwargs)
            pivots.append(solution.iterations)
            return solution

        monkeypatch.setattr(vifd.solver, "least_distance", counted)
        runs = [
            # an infeasible start, projected by one more QP solve
            (make_problem("fractional-simplex", a=5.0, seed=0), [1.0, 0.0, 5.0, 0.0, 0.0],
             SolverParams(theta=0.25, tol_residual=1e-4)),
            (make_problem("hs-quasimonotone"), [0.0, 0.0], SolverParams(delta=0.9)),
        ]
        for problem, x0, params in runs:
            pivots.clear()
            counters = solve(problem, x0, params).counters
            assert counters.qp_solves == len(pivots) > 0
            assert counters.qp_pivots == sum(pivots) > 0

    def test_the_delta_099_row_makes_one_tight_solve_per_anchored_qp(self, monkeypatch):
        # an anchored QP's warm start is the last one's active rows, on rows
        # and at an x0 that keep their bits, so its first tight solve is the
        # last one's polish, which _tight_solve returns from its slot: what
        # it computes is its polish.  Without the reuse this row computes 2.0
        # tight solves per anchored QP
        config = preset_configs("table3")[-1]
        assert config.params.delta == 0.99 and config.seed == 0
        counts = {"tight": 0, "anchored": 0}
        anchored = False
        tight_solve = qp._tight_solve

        def counted_tight_solve(*args):
            last = qp._last_tight
            result = tight_solve(*args)
            counts["tight"] += anchored and qp._last_tight is not last
            return result

        def counted(system, *args, **kwargs):
            nonlocal anchored
            anchored = "warm_start" in kwargs
            counts["anchored"] += anchored
            try:
                return least_distance(system, *args, **kwargs)
            finally:
                anchored = False

        monkeypatch.setattr(qp, "_tight_solve", counted_tight_solve)
        monkeypatch.setattr(vifd.solver, "least_distance", counted)
        reports = run_reports(config)
        assert counts["anchored"] == sum(r.counters.outer_iters for r in reports) > 3000
        assert counts["tight"] <= 1.01 * counts["anchored"]

    def test_a_long_run_reduces_each_row_once_and_computes_no_certificate(self, monkeypatch):
        # counts, not times, so that this guard runs on any machine
        reduced_rows, certificates = [], []
        reduce, kkt_residual = sets._reduced_rows, qp._kkt_residual

        def counted_reduce(G, *args):
            reduced_rows.append(G.shape[0])
            return reduce(G, *args)

        def counted_kkt_residual(*args):
            certificates.append(args)
            return kkt_residual(*args)

        monkeypatch.setattr(sets, "_reduced_rows", counted_reduce)
        monkeypatch.setattr(qp, "_kkt_residual", counted_kkt_residual)
        config = preset_configs("table3")[-1]
        assert config.params.delta == 0.99
        problem = config.build_problem()
        params = replace(config.params, max_outer_iterations=200)
        report = solve(problem, config.starts[0], params)
        assert report.stop_reason is StopReason.MAX_ITERATIONS
        c_rows = assemble(problem.feasible, []).G.shape[0]
        # C's rows once for the plain projections and once in the store's
        # first batch, then one cut and one slab per iteration (409 rows);
        # reducing the whole anchored system every iteration reduces 21,105
        assert sum(reduced_rows) <= 2 * c_rows + 2 * report.counters.outer_iters
        assert certificates == []

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

    def test_step4_stops_where_the_anchored_projection_repeats_the_iterate(self):
        # table4's start (1, pi/2) at beta = 0.5: the ninth anchored
        # projection returns the eighth iterate entrywise
        config = preset_configs("table4")[0]
        params = replace(config.params, beta=0.5)
        report, iterations = run_iterations(config.build_problem(), [1.0, math.pi / 2], params)
        assert report.stop_reason is StopReason.FIXED_POINT_STEP4
        assert report.counters.outer_iters == 9
        assert report.terminal_certificate == vifd.solver.StopCertificate(
            "step_norm_step4", 0.0, 0.0)
        last = iterations[-1]
        np.testing.assert_array_equal(last.x_next, last.x)
        assert all((it.x_next != it.x).any() for it in iterations[:-1])

    def test_max_iterations_reached(self):
        problem = make_problem("rho-squared")
        report = solve(problem, [0.5], SolverParams(max_outer_iterations=3))
        assert report.stop_reason is StopReason.MAX_ITERATIONS

    def test_deterministic_reruns(self):
        problem = make_problem("hs-quasimonotone")
        params = SolverParams(delta=0.01)
        a, a_iterations = run_iterations(problem, [0.1, 0.9], params)
        b, b_iterations = run_iterations(problem, [0.1, 0.9], params)
        np.testing.assert_array_equal(a.terminal_point, b.terminal_point)
        assert a.counters == b.counters
        assert [(it.x.tolist(), it.z.tolist()) for it in a_iterations] == [
            (it.x.tolist(), it.z.tolist()) for it in b_iterations]

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
         SolverParams(delta=0.01, theta=0.5)),
        ("hs-quasimonotone", {}, [0.1, 0.9],
         SolverParams(delta=0.01, theta=0.5)),
        ("hs-quasimonotone", {}, [1.0, 0.1],
         SolverParams(delta=0.01, theta=0.5)),
        ("rho-squared", {}, [0.5],
         SolverParams(delta=0.01, theta=0.5)),
        ("rho-squared", {}, [-0.5],
         SolverParams(delta=0.01, theta=0.5)),
        ("rho-norm", {"dim": 5}, [0.9, -0.3, 0.2, -0.8, 0.5],
         SolverParams(delta=0.01, theta=0.5)),
        ("fractional-simplex", {"seed": 0}, [0.0, 0.0, 5.0, 0.0, 0.0],
         SolverParams(delta=0.01, theta=0.25, tol_residual=1e-4)),
        ("fractional-simplex", {"seed": 0}, [0.0, 2.0, 0.0, 2.0, 1.0],
         SolverParams(delta=0.5, theta=0.25, tol_residual=1e-4)),
        ("ray-setvalued", {}, [1.0, pi / 2],
         SolverParams(delta=0.5, theta=0.5, tol_residual=1e-30)),
        ("ray-setvalued", {}, [10.0, pi / 4],
         SolverParams(delta=0.5, theta=0.5, tol_residual=1e-30)),
        # table3's delta = 0.99 rows: about 1,500 iterations each
        ("fractional-simplex", {"seed": 0, "a": 10.0}, [1.0, 1.0, 1.0, 1.0, 6.0],
         SolverParams(delta=0.99, theta=0.25, tol_residual=1e-4)),
        ("fractional-simplex", {"seed": 0, "a": 10.0}, [1.0, 1.0, 6.0, 1.0, 1.0],
         SolverParams(delta=0.99, theta=0.25, tol_residual=1e-4)),
    ]


@pytest.mark.parametrize("name,kwargs,x0,params", _run_cases())
def test_run_invariants(name, kwargs, x0, params):
    problem = make_problem(name, **kwargs)
    report, iterations = run_iterations(problem, x0, params)
    assert report.stop_reason in SOLUTION_STOPS
    assert iterations, "invariant battery needs at least one recorded iteration"

    C = problem.feasible
    dual = problem.known_dual_solutions[0]
    anchor = iterations[0].x
    rho = float(np.linalg.norm(anchor - dual))
    center = 0.5 * (anchor + dual)
    beta_hat = params.beta
    steps_sq = 0.0

    for rec in iterations:
        # every point the iteration touches stays feasible
        assert C.contains(rec.x, 1e-8)
        assert C.contains(rec.z, 1e-8)
        # iterates never leave the ball around the anchor-solution midpoint
        assert float(np.linalg.norm(rec.x - center)) <= rho / 2.0 + 1e-6

        if rec.alpha is None:
            continue
        assert C.contains(rec.xbar, 1e-8)
        d = rec.x - rec.z
        # the linesearch exit inequality, exact, and its consequence at xbar
        assert float(rec.ubar @ d) >= params.delta * float(rec.u @ d)
        assert (
            float(rec.ubar @ (rec.x - rec.xbar))
            >= (rec.alpha / beta_hat) * params.delta * float(np.sum(d**2)) - 1e-10
        )

        # every stored row, C's and every cut so far, and the slab
        # {y : <y - x, x0 - x> <= 0} retain the known dual solution
        assert rec.cuts.max_violation(dual) <= 1e-8
        assert float((dual - rec.x) @ (anchor - rec.x)) <= 1e-8

        # the next iterate satisfies the whole working system it came from:
        # C's rows and every cut so far (the store), and the slab
        assert C.contains(rec.x_next, 1e-8)
        assert rec.cuts.max_violation(rec.x_next) <= 1e-8
        assert float((rec.x_next - rec.x) @ (anchor - rec.x)) <= 1e-8

        # anchored distance grows, steps stay square-summable
        assert (
            float(np.linalg.norm(rec.x_next - anchor))
            >= float(np.linalg.norm(rec.x - anchor)) - 1e-8
        )
        steps_sq += float(np.sum((rec.x_next - rec.x) ** 2))

    assert steps_sq <= rho**2 + 1e-8
