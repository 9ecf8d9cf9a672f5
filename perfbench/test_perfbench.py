"""Tests of the benchmark's own arithmetic, output check and tracer.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import vifd.bench  # noqa: E402
import vifd.operators  # noqa: E402
import vifd.solver  # noqa: E402
from vifd.bench import ExperimentConfig, ResultRow, preset_configs  # noqa: E402
from vifd.qp import MaxPivots  # noqa: E402
from vifd.solver import StopReason  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _span(name, start, end, parent):
    return [name, start, end, parent, 0, None]


class TestSelfTime:
    def test_synthetic_tree(self):
        spans = [
            _span("root", 0.0, 10.0, -1),
            _span("a", 1.0, 4.0, 0),
            _span("b", 5.0, 6.5, 0),
            _span("a.child", 2.0, 3.0, 1),
            _span("leaf", 7.0, 7.25, 0),
        ]
        assert tracing.self_times(spans) == pytest.approx([10 - 3 - 1.5 - 0.25, 2.0, 1.5, 1.0, 0.25])

    def test_overlapping_and_overhanging_children_count_once(self):
        spans = [
            _span("root", 0.0, 10.0, -1),
            _span("x", 1.0, 4.0, 0),
            _span("y", 3.0, 5.0, 0),
            _span("z", 9.0, 12.0, 0),
        ]
        # children cover [1, 5] and [9, 10] of the root
        assert tracing.self_times(spans)[0] == pytest.approx(5.0)


class TestTail:
    def test_leaves_ten_samples_above(self):
        samples = list(range(100, 0, -1))
        value, percentile, n = checks.tail(samples)
        assert (value, percentile, n) == (90, 90.0, 100)
        assert sum(s > value for s in samples) == checks.TAIL_ABOVE

    def test_smallest_sample_count(self):
        value, percentile, n = checks.tail([5.0] + [9.0] * 10)
        assert (value, n) == (5.0, 11)
        assert percentile == pytest.approx(100 / 11)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            checks.tail([1.0] * 10)


class TestEndToEnd:
    def test_wall_and_median_take_each_solves_upper_quintile(self):
        # six passes over three solves, so the 0.8 quantile is each solve's second slowest
        a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        b = [60.0, 10.0, 50.0, 20.0, 40.0, 30.0]
        c = [0.6, 0.5, 0.4, 0.3, 0.2, 0.1]
        passes = [list(times) for times in zip(a, b, c)]
        measured = {
            "pass_solve_times": passes,
            "solve_times": [t for times in passes for t in times],
            "pass_times": {False: [sum(times) for times in passes], True: []},
            "failed": 0,
            "attempted": 18,
        }
        metrics, details = run.end_to_end(measured, [0.3, 0.1, 0.2])
        assert metrics["wall_s"][0] == pytest.approx(5.0 + 50.0 + 0.5)
        assert metrics["solve_s_p50"][0] == pytest.approx(5.0)
        assert metrics["solve_s_tail"][0] == 2.0  # 18 pooled samples, 10 above
        assert metrics["setup_s"][0] == 0.2
        assert (details["solve_s_p50_samples"], details["passes"]) == (3, 6)


def _ray_solves(count=6):
    return workloads.build("ray-short", 3)[:count]


class TestFailures:
    def test_injected_exception_and_bad_output_count_as_failed(self, monkeypatch):
        solves = _ray_solves()
        real = vifd.bench.run_experiment
        calls = []

        def flaky(config):
            calls.append(config)
            if len(calls) == 2:
                raise MaxPivots("injected")
            rows = real(config)
            if len(calls) == 4:
                rows[0].terminal_point = rows[0].terminal_point - 1.0  # leaves C
            return rows

        monkeypatch.setattr(vifd.bench, "run_experiment", flaky)
        _, times, outcomes = run.run_pass(solves, 0)
        failures = {}
        failed = run.check_pass(solves, outcomes, failures)
        assert len(times) == len(solves) == len(calls)
        assert failed == 2
        assert checks.failed_frac(failed, len(solves)) == pytest.approx(2 / 6)
        kinds = sorted(key.split(": ", 1)[1].split(" ")[0] for key in failures)
        assert kinds == ["MaxPivots", "terminal"]

    def test_traced_pass_survives_a_raising_projection(self, monkeypatch):
        solves = _ray_solves()
        real = vifd.solver.least_distance
        calls = []

        def flaky(*args, **kwargs):
            calls.append(None)
            if len(calls) == 3:
                raise MaxPivots("injected")
            return real(*args, **kwargs)

        monkeypatch.setattr(vifd.solver, "least_distance", flaky)
        tracer = tracing.Tracer()
        with tracer.installed():
            _, _, outcomes = run.run_pass(solves, 0, tracer)
        assert sum(isinstance(o, MaxPivots) for o in outcomes) == 1
        assert run.check_pass(solves, outcomes, {}) == 1
        assert tracing.consistency_errors(tracer.spans) == []
        metrics = tracing.layer_metrics(tracer.spans, 1)
        assert metrics["qp.plain_calls"][0] + metrics["qp.anchored_calls"][0] == len(calls)

    def test_failed_frac_needs_attempts(self):
        with pytest.raises(ValueError):
            checks.failed_frac(0, 0)


class TestOutputCheck:
    def _row(self, point, reason=StopReason.ZK_SOLVES_STEP2B):
        point = np.asarray(point, dtype=float)
        return ResultRow(point, 1, 1, 0.0, point, reason)

    def test_simplex_solution_and_non_solution(self):
        problem = vifd.operators.make_problem("fractional-simplex", a=10.0, seed=0)
        solved = vifd.bench.run_experiment(preset_configs("table3")[2])[0]
        assert checks.output_error(problem, solved, 1e-4) is None
        assert "certificate" in checks.output_error(problem, self._row([10.0, 0, 0, 0, 0]), 1e-4)
        assert "outside" in checks.output_error(problem, self._row([3.0, 2, 2, 2, 2]), 1e-4)

    def test_stop_reason_must_certify(self):
        problem = vifd.operators.make_problem("rho-norm", dim=3)
        row = self._row([-1.0, -1.0, -1.0], StopReason.MAX_ITERATIONS)
        assert "stop reason" in checks.output_error(problem, row, 1e-8)
        row.stop_reason = StopReason.RESIDUAL_ZERO_STEP2A
        assert checks.output_error(problem, row, 1e-8) is None

    def test_closed_forms_match_the_qp(self):
        from vifd.qp import least_distance
        from vifd.sets import assemble

        rng = np.random.default_rng(0)
        for problem in (
            vifd.operators.make_problem("fractional-simplex", a=10.0),
            vifd.operators.make_problem("rho-squared", dim=7),
            vifd.operators.make_problem("ray-setvalued"),
        ):
            C = problem.feasible
            for _ in range(5):
                y = 4.0 * rng.standard_normal(problem.dim)
                expected = least_distance(assemble(C, []), y).point
                assert np.allclose(checks.project(C, y), expected, atol=1e-12)


class TestTracer:
    def test_counts_match_counters_and_wrappers_are_removed(self):
        solves = _ray_solves(20) + workloads.build("box-wide", 0)[:2]
        originals = [getattr(m, a) for m, a, _ in tracing.FUNCTIONS]
        tracer = tracing.Tracer()
        with tracer.installed():
            _, _, outcomes = run.run_pass(solves, 0, tracer)
        assert [getattr(m, a) for m, a, _ in tracing.FUNCTIONS] == originals
        assert "support" not in vars(vifd.operators.RhoOperator)
        assert tracing.consistency_errors(tracer.spans) == []
        solves_traced = [r for r in tracer.spans if r[tracing.NAME] == "solver.solve"]
        assert len(solves_traced) == len(solves)
        iters = sum(o[0].iterations for o in outcomes)
        metrics = tracing.layer_metrics(tracer.spans, 1)
        assert metrics["solver.outer_iters"][0] == iters
        assert metrics["operators.evals"][0] == sum(o[0].operator_evals for o in outcomes)

    def test_table3_baseline(self):
        """The two table3 delta = 0.99 starts reproduce the recorded baseline."""
        config = preset_configs("table3")[-1]
        assert config.params.delta == 0.99 and config.seed == 0
        solves = [
            workloads.Solve(
                ExperimentConfig(problem=config.problem, starts=[x0], params=config.params,
                                 a=config.a, seed=config.seed),
                config.build_problem(), "table3")
            for x0 in config.starts
        ]
        tracer = tracing.Tracer()
        with tracer.installed():
            _, _, outcomes = run.run_pass(solves, 0, tracer)
        assert [o[0].iterations for o in outcomes] == [1517, 1510]
        assert run.check_pass(solves, outcomes, {}) == 0
        assert tracing.consistency_errors(tracer.spans) == []
        metrics = tracing.layer_metrics(tracer.spans, 1)
        assert metrics["qp.anchored_rows_peak"][0] == 1523
        assert metrics["qp.anchored_active_peak"][0] <= 4
        mean_pivots = metrics["qp.anchored_pivots"][0] / metrics["qp.anchored_calls"][0]
        assert mean_pivots == pytest.approx(3.2, abs=0.1)


class TestWorkloads:
    def test_names_match_the_command_line(self):
        assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)

    @pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
    def test_enough_solves_for_a_tail(self, name):
        assert len(workloads.build(name, 0)) > checks.TAIL_ABOVE

    @pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
    def test_same_seed_same_inputs(self, name):
        first, again, other = (workloads.build(name, s) for s in (7, 7, 8))
        starts = lambda solves: np.concatenate([s.config.starts[0] for s in solves])
        assert np.array_equal(starts(first), starts(again))
        assert not np.array_equal(starts(first), starts(other))
