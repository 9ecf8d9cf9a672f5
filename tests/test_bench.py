"""Experiment configs, result emission, presets, and exit codes."""

import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from vifd.bench import (
    CSV_HEADER,
    PRESET_NAMES,
    ExperimentConfig,
    ResultRow,
    configs_from_file,
    emit,
    exit_code_for,
    preset_configs,
    rows_from_json,
    run_experiment,
    run_reports,
)
from vifd.operators import UnknownProblem
from vifd.solver import SOLUTION_STOPS, SolverParams, StopCertificate, StopReason


def _hs_config(**kwargs):
    defaults = dict(problem="hs-quasimonotone", starts=[[0.5, 0.5]])
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


class TestExperimentConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            _hs_config(starts=[])
        with pytest.raises(ValueError):
            _hs_config(starts=[[0.5, 0.5], [0.5]])
        # every other value is checked where it enters, naming its key
        for key, bad in [("seed", True), ("seed", 2.5), ("seed", -1), ("seed", "3"),
                         ("seed", None), ("seed", np.float64(3.0)), ("a", True),
                         ("a", "1.0"), ("a", math.nan), ("a", math.inf), ("a", 10**400),
                         ("label", 5), ("label", ["smoke"]), ("problem", 5)]:
            with pytest.raises(ValueError, match=repr(key)):
                _hs_config(**{key: bad})
        for bad in ("abc", 5, (), {"x0": [0.5, 0.5]}):
            with pytest.raises(ValueError, match="'starts'"):
                _hs_config(starts=bad)
        with pytest.raises(UnknownProblem, match="'problem' must be one of .*rho-squared"):
            ExperimentConfig(problem="nope", starts=[[0.0]])
        with pytest.raises(ValueError):
            ExperimentConfig(problem="hs-quasimonotone", starts=[[0.0, 0.0, 0.0]])
        # the constructor checks each start as config files are checked:
        # booleans, strings, non-finite values, scalars and nesting are refused
        for bad in ([[True, False]], [[np.True_, 0.5]], [np.array([True, False])],
                    [["0.5", "0.5"]], [np.array(["0.5", "0.5"])], [[0.5, np.nan]],
                    [np.array([np.inf, 0.5])], [[10**400, 0.5]], [0.5, 0.5], [[]],
                    [[[0.5, 0.5]]], [np.array([[0.5, 0.5]])], [np.array(0.5)]):
            with pytest.raises(ValueError, match="'starts'"):
                _hs_config(starts=bad)
        config = _hs_config(starts=[(0, 1), np.array([1, 0]), np.array([0.5, 0.5], np.float32)])
        assert all(s.dtype == float for s in config.starts)

    def test_refuses_params_that_are_not_solver_params(self):
        # a dict or None would build and solve, then fail in run_experiment or emit
        for bad in (None, {"delta": 0.5}, 0.5, "default"):
            with pytest.raises(ValueError, match="'params'"):
                _hs_config(params=bad)

    def test_dim_and_problem_build(self):
        config = ExperimentConfig(problem="rho-norm", starts=[[0.1] * 7], a=2.0)
        assert config.dim == 7
        problem = config.build_problem()
        assert problem.dim == 7
        assert problem.operator.a == 2.0

    def test_to_dict_echoes_every_knob(self):
        config = _hs_config(label="smoke", seed=4)
        d = config.to_dict()
        assert d == {
            "problem": "hs-quasimonotone",
            "starts": [[0.5, 0.5]],
            "a": None,
            "delta": 0.01,
            "theta": 0.5,
            "beta": 1.0,
            "tol_residual": 1e-8,
            "max_outer_iterations": 10_000,
            "seed": 4,
            "label": "smoke",
        }

    def test_numpy_scalars_survive_json(self):
        params = SolverParams(delta=np.float32(0.5), theta=np.float64(0.25),
                              max_outer_iterations=np.int64(5))
        config = ExperimentConfig(problem="fractional-simplex", starts=[np.ones(5)],
                                  params=params, a=np.float64(5.0), seed=np.int64(3),
                                  label=np.str_("numpy"))
        (block,) = json.loads(emit([(config, run_experiment(config))], "json"))
        back = ExperimentConfig.from_dict(block["config"])
        assert back.to_dict() == config.to_dict() == block["config"]
        assert (back.seed, back.a, back.params) == (3, 5.0, params)

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_preset_configs_round_trip_through_json(self, name):
        for config in preset_configs(name):
            back = ExperimentConfig.from_dict(json.loads(json.dumps(config.to_dict())))
            assert back.params == config.params
            assert (back.problem, back.a, back.seed, back.label) == (
                config.problem, config.a, config.seed, config.label)
            assert len(back.starts) == len(config.starts)
            for b, c in zip(back.starts, config.starts):
                assert np.array_equal(b, c)


class TestRunning:
    def test_known_immediate_stop_row(self):
        rows = run_experiment(_hs_config())
        assert len(rows) == 1
        row = rows[0]
        assert row.iterations == 0
        assert row.operator_evals == 2
        np.testing.assert_allclose(row.terminal_point, [1.0, 1.0], atol=1e-12)
        assert row.stop_reason in SOLUTION_STOPS
        assert row.wall_time_s > 0.0

    def test_run_does_not_mutate_config(self):
        config = _hs_config(starts=[[0.0, 0.0]])
        run_reports(config)
        assert config.params == SolverParams()

    def test_a_config_is_frozen_and_keeps_its_problem(self):
        start = np.array([0.0, 1.0])
        config = _hs_config(starts=[start, [0.2, 0.7]])
        for target, name, value in ((config, "seed", 1), (config, "a", 2.0),
                                    (config, "starts", [[0.5, 0.5]]), (config, "_problem", None),
                                    (config.params, "delta", 5.0),
                                    (config.params, "max_outer_iterations", -3)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(target, name, value)
        # the starts are read-only copies: a later write to the caller's
        # array leaves the config as it was, and a start cannot be written
        assert isinstance(config.starts, tuple)
        start[0] = 5.0
        assert config.starts[0].tolist() == [0.0, 1.0]
        for s in config.starts:
            with pytest.raises(ValueError):
                s[0] = 5.0
        problem = config.build_problem()
        assert config.build_problem() is problem
        first, second = run_reports(config), run_reports(config)
        assert config.build_problem() is problem
        for a, b in zip(first, second):
            assert (a.stop_reason, a.counters) == (b.stop_reason, b.counters)
            assert a.terminal_point.tobytes() == b.terminal_point.tobytes()

    def test_counters_and_terminals_are_deterministic(self):
        config = _hs_config(starts=[[0.0, 1.0], [0.2, 0.7]])
        a = run_experiment(config)
        b = run_experiment(config)
        for ra, rb in zip(a, b):
            assert ra.iterations == rb.iterations
            assert ra.operator_evals == rb.operator_evals
            np.testing.assert_array_equal(ra.terminal_point, rb.terminal_point)


class TestEmit:
    rows = run_experiment(_hs_config(label="smoke"))
    config = _hs_config(label="smoke")

    def test_csv(self):
        text = emit([(self.config, self.rows)], "csv")
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert fields[0] == "0.5;0.5"
        assert fields[1] == "0"
        assert fields[2] == "2"
        assert fields[4] == "1;1"
        assert fields[5] == StopReason.ZK_SOLVES_STEP2B.value

    def test_json_embeds_config_and_round_trips(self):
        text = emit([(self.config, self.rows)], "json")
        (block,) = json.loads(text)
        assert block["config"]["problem"] == "hs-quasimonotone"
        assert block["config"]["delta"] == 0.01
        certificate = self.rows[0].certificate
        assert certificate.test == "residual_sq_step2b"
        assert block["rows"][0]["certificate"] == {
            "test": "residual_sq_step2b",
            "value": certificate.value,
            "tolerance": 1e-8,
        }
        rebuilt = rows_from_json(text)
        assert len(rebuilt) == 1
        assert rebuilt[0].iterations == self.rows[0].iterations
        assert rebuilt[0].stop_reason == self.rows[0].stop_reason
        assert rebuilt[0].certificate == certificate
        np.testing.assert_allclose(rebuilt[0].terminal_point, self.rows[0].terminal_point)
        np.testing.assert_allclose(rebuilt[0].start, self.rows[0].start)
        # rows written without a certificate read back without one
        del block["rows"][0]["certificate"]
        assert rows_from_json(json.dumps([block]))[0].certificate is None

    def test_table_has_title_and_header(self):
        text = emit([(self.config, self.rows)], "table")
        lines = text.splitlines()
        assert lines[0] == "smoke"
        assert lines[1].split() == ["x0", "iter(nT)", "cpu_s", "sol", "stop"]
        assert "(1, 1)" in lines[3]

    def test_rejects_empty_and_unknown_format(self):
        with pytest.raises(ValueError):
            emit([], "csv")
        with pytest.raises(ValueError):
            emit([(self.config, self.rows)], "yaml")

    def test_several_experiments(self):
        c1 = _hs_config(label="one")
        c2 = _hs_config(starts=[[0.0, 0.0]], label="two")
        results = [(c1, run_experiment(c1)), (c2, run_experiment(c2))]
        csv_text = emit(results, "csv")
        assert csv_text.splitlines().count(CSV_HEADER) == 1
        assert len(csv_text.splitlines()) == 3
        json_rows = rows_from_json(emit(results, "json"))
        assert len(json_rows) == 2
        table_text = emit(results, "table")
        assert "one" in table_text and "two" in table_text


def test_rows_from_json_refuses_malformed_blocks_and_rows():
    row = {"x0": [0.5], "iter": 1, "nT": 2, "cpu_s": 0.1, "sol": [0.5],
           "stop_reason": StopReason.MAX_ITERATIONS.value}
    certificate = {"test": "residual_step2a", "value": 0.0, "tolerance": 1e-8}
    cases = [
        ([{"rows": [{}]}], r"block 0: .*'x0'"),
        ([1], r"block 0 .*'rows'"),
        ([{"config": {}}], r"block 0 .*'rows'"),
        ([{"rows": 5}], r"block 0 .*'rows'"),
        ([{"rows": [row]}, {"rows": [[0.5]]}], r"block 1: .*type"),
        ([{"rows": [{**row, "iter": None}]}], r"block 0: 'iter'"),
        ([{"rows": [{**row, "certificate": 3}]}], r"block 0: .*type"),
        ([{"rows": [row, {k: v for k, v in row.items() if k != "stop_reason"}]}],
         r"block 0: .*'stop_reason'"),
        # each value is read by the rule of vifd.sets, not coerced
        ([{"rows": [{**row, "iter": 2.7}]}], r"block 0: 'iter'"),
        ([{"rows": [{**row, "iter": -1}]}], r"block 0: 'iter'"),
        ([{"rows": [row]}, {"rows": [{**row, "nT": True}]}], r"block 1: 'nT'"),
        ([{"rows": [{**row, "cpu_s": "0.1"}]}], r"block 0: 'cpu_s'"),
        ([{"rows": [{**row, "sol": "1"}]}], r"block 0: 'sol'"),
        ([{"rows": [{**row, "x0": [[0.5]]}]}], r"block 0: 'x0'"),
        ([{"rows": [{**row, "x0": [math.nan]}]}], r"block 0: 'x0'"),
        ([{"rows": [{**row, "certificate": {**certificate, "test": 3}}]}], r"block 0: 'test'"),
        ([{"rows": [{**row, "certificate": {**certificate, "value": "0"}}]}],
         r"block 0: 'value'"),
        ([{"rows": [{**row, "certificate": {**certificate, "tolerance": None}}]}],
         r"block 0: 'tolerance'"),
        ([{"rows": [{**row, "certificate": {**certificate, "extra": 1}}]}], r"block 0: .*type"),
    ]
    for blocks, message in cases:
        with pytest.raises(ValueError, match=message):
            rows_from_json(json.dumps(blocks))
    assert rows_from_json(json.dumps([{"rows": [row]}]))[0].iterations == 1
    (read,) = rows_from_json(json.dumps([{"rows": [{**row, "certificate": certificate}]}]))
    assert read.certificate == StopCertificate(**certificate)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_rows_from_json_reads_every_preset_back_equal(name):
    results = [(config, run_experiment(config)) for config in preset_configs(name)]
    rows = [row for _, config_rows in results for row in config_rows]
    read = rows_from_json(emit(results, "json"))
    assert len(read) == len(rows)
    for got, want in zip(read, rows):
        assert (got.iterations, got.operator_evals, got.wall_time_s, got.stop_reason,
                got.certificate) == (want.iterations, want.operator_evals, want.wall_time_s,
                                     want.stop_reason, want.certificate)
        assert got.start.tolist() == want.start.tolist()
        assert got.terminal_point.tolist() == want.terminal_point.tolist()


def _row_with_reason(reason):
    return ResultRow(
        start=np.zeros(1),
        iterations=1,
        operator_evals=1,
        wall_time_s=0.0,
        terminal_point=np.zeros(1),
        stop_reason=reason,
    )


def test_exit_codes():
    ok = _row_with_reason(StopReason.RESIDUAL_ZERO_STEP2A)
    capped = _row_with_reason(StopReason.MAX_ITERATIONS)
    failed = _row_with_reason(StopReason.LINESEARCH_FAILURE)
    assert exit_code_for([ok, ok]) == 0
    assert exit_code_for([ok, capped]) == 2
    assert exit_code_for([ok, capped, failed]) == 3


class TestPresets:
    def test_every_preset_builds(self):
        for name in PRESET_NAMES:
            configs = preset_configs(name)
            assert configs

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            preset_configs("table9")

    def test_box_problem_batch(self):
        (config,) = preset_configs("table1")
        assert config.problem == "hs-quasimonotone"
        assert len(config.starts) == 6
        assert config.params.delta == 0.01
        assert config.params.theta == 0.5
        assert config.params.tol_residual == 1e-8

    def test_scalar_field_batch_dimensions(self):
        configs = preset_configs("table2")
        assert [c.dim for c in configs] == [1, 1, 1, 5, 50, 100]
        assert {c.a for c in configs} == {1.0}
        assert {c.problem for c in configs} == {"rho-squared", "rho-norm"}

    def test_fractional_batch_grid(self):
        configs = preset_configs("table3")
        assert [c.params.delta for c in configs] == [0.01, 0.5, 0.01, 0.99]
        assert [c.a for c in configs] == [5.0, 5.0, 10.0, 10.0]
        assert {c.params.theta for c in configs} == {0.25}
        assert {c.params.tol_residual for c in configs} == {1e-4}
        assert {c.seed for c in configs} == {0}

    def test_ray_batch(self):
        (config,) = preset_configs("table4")
        assert config.problem == "ray-setvalued"
        assert len(config.starts) == 9
        assert config.params.delta == 0.5
        assert config.params.theta == 0.5
        assert config.params.tol_residual == 1e-30


class TestConfigFile:
    def test_single_object(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(
            json.dumps(
                {
                    "problem": "rho-squared",
                    "starts": [[0.5]],
                    "delta": 0.02,
                    "theta": 0.4,
                    "beta": 1.0,
                    "tol_residual": 1e-6,
                    "max_outer_iterations": 50,
                    "label": "from file",
                }
            )
        )
        (config,) = configs_from_file(str(path))
        assert config.problem == "rho-squared"
        assert config.params.delta == 0.02
        assert config.params.theta == 0.4
        assert config.params.tol_residual == 1e-6
        assert config.params.max_outer_iterations == 50
        assert config.label == "from file"

    def test_list_of_objects_with_defaults(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(
            json.dumps(
                [
                    {"problem": "hs-quasimonotone", "starts": [[0.5, 0.5]]},
                    {"problem": "rho-norm", "starts": [[0.1, 0.1]], "a": 2.0},
                ]
            )
        )
        configs = configs_from_file(str(path))
        assert len(configs) == 2
        assert configs[0].params.delta == 0.01
        assert configs[1].a == 2.0

    def test_missing_required_keys(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"starts": [[0.5]]}))
        with pytest.raises(ValueError):
            configs_from_file(str(path))

    def test_empty_list_and_non_object_entries(self, tmp_path):
        path = tmp_path / "bad.json"
        for payload in ([], [[0.5]], "rho-squared"):
            path.write_text(json.dumps(payload))
            with pytest.raises(ValueError):
                configs_from_file(str(path))

    def test_readme_example_loads(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        after = readme.split("A config file holds one object or a list of objects", 1)[1]
        example = re.search(r"```json\n(.*?)```", after, re.S).group(1)
        path = tmp_path / "exp.json"
        path.write_text(example)
        (config,) = configs_from_file(str(path))
        assert config.to_dict() == json.loads(example)
        # it shows every key at its default, so a retired or renamed key
        # cannot leave it stale
        assert json.loads(example) == ExperimentConfig(
            problem="rho-squared", starts=[[0.1], [0.5], [-0.5]], a=1.0,
            label="scalar field, n = 1",
        ).to_dict()
