"""Command line entry points: solve and bench subcommands."""

import json

import pytest

import vifd.solver
from vifd.bench import CSV_HEADER
from vifd.cli import main
from vifd.qp import InfeasibleSystem, MaxPivots


def test_solve_table_output(capsys):
    code = main(["solve", "--problem", "hs-quasimonotone", "--x0", "0.5,0.5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "iter(nT)" in out
    assert "(1, 1)" in out


def test_solve_csv_output(capsys):
    code = main(
        ["solve", "--problem", "hs-quasimonotone", "--x0", "0.5,0.5", "--output", "csv"]
    )
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert lines[0] == CSV_HEADER
    assert lines[1].startswith("0.5;0.5,0,2,")


def test_solve_json_output_echoes_config(capsys):
    code = main(
        [
            "solve", "--problem", "fractional-simplex",
            "--x0", "0,0,5,0,0", "--theta", "0.25", "--tol", "1e-4", "--seed", "0",
            "--beta", "0.5", "--max-iter", "500", "--output", "json",
        ]
    )
    (block,) = json.loads(capsys.readouterr().out)
    assert code == 0
    assert block["config"]["problem"] == "fractional-simplex"
    assert block["config"]["theta"] == 0.25
    assert block["config"]["tol_residual"] == 1e-4
    assert block["config"]["beta"] == 0.5
    assert block["config"]["max_outer_iterations"] == 500
    assert block["config"]["delta"] == 0.01
    assert "output" not in block["config"]
    assert block["rows"][0]["stop_reason"].endswith("Step2b") or block["rows"][0][
        "stop_reason"
    ].endswith("Step2a")


def test_solve_iteration_cap_maps_to_exit_two(capsys):
    code = main(
        ["solve", "--problem", "rho-squared", "--x0", "0.5", "--max-iter", "2"]
    )
    capsys.readouterr()
    assert code == 2


def test_bad_parameter_maps_to_exit_one(capsys):
    code = main(["solve", "--problem", "rho-squared", "--x0", "0.5", "--delta", "1.5"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error:")


def test_non_finite_tolerance_maps_to_exit_one(capsys):
    code = main(["solve", "--problem", "hs-quasimonotone", "--x0", "0,0", "--tol", "inf"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


def test_dimension_mismatch_maps_to_exit_one(capsys):
    code = main(["solve", "--problem", "hs-quasimonotone", "--x0", "0.5,0.5,0.5"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_problem_rejected_by_parser():
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--problem", "nope", "--x0", "0.5"])
    assert exc.value.code == 1


def test_unparsable_vector_rejected_by_parser():
    # an empty field is rejected too, not closed up into a shorter vector
    for text in ("a,b", "0.5,abc", "0.5,,0.5", "0.5,0.5,", ""):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--problem", "rho-squared", "--x0", text])
        assert exc.value.code == 1, text


def test_bench_requires_exactly_one_source():
    with pytest.raises(SystemExit) as exc:
        main(["bench"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--preset", "table1", "--config", "x.json"])
    assert exc.value.code == 1


def test_bench_preset_csv(capsys):
    code = main(["bench", "--preset", "table1", "--output", "csv"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert lines[0] == CSV_HEADER
    assert len(lines) == 7


def test_bench_config_file(tmp_path, capsys):
    path = tmp_path / "exp.json"
    path.write_text(
        json.dumps(
            {
                "problem": "rho-squared",
                "starts": [[0.5]],
                "max_outer_iterations": 2,
            }
        )
    )
    code = main(["bench", "--config", str(path), "--output", "csv"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 2
    assert lines[0] == CSV_HEADER
    assert lines[1].endswith("MaxIterations")


@pytest.mark.parametrize(
    "key,value",
    [
        ("tol", 1e-2),
        ("beta_lower", 2.0),
        ("delta", "0.1"),
        ("max_outer_iterations", 2.5),
        ("max_outer_iterations", float("inf")),
        ("output", "csv"),
        ("starts", [[True, False]]),
        ("starts", [["0.5", "0.5"]]),
        ("starts", [0.1, 0.5]),
        # integers too large for a float
        pytest.param("beta", 10**400, id="beta-huge-int"),
        pytest.param("a", 10**400, id="a-huge-int"),
        pytest.param("tol_residual", 10**400, id="tol_residual-huge-int"),
        # retired keys: the guards are solver constants, timing is perfbench's
        ("tol_step4", 1e-12),
        ("max_linesearch_halvings", 200),
        ("repetitions", 1),
        # values that the constructors check, not from_dict
        ("seed", True),
        ("seed", -1),
        ("label", 5),
        ("problem", 5),
        ("problem", "nope"),
    ],
)
def test_bad_config_entry_maps_to_exit_one(tmp_path, capsys, key, value):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"problem": "rho-squared", "starts": [[0.5]], key: value}))
    code = main(["bench", "--config", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert repr(key) in captured.err


def test_retired_solve_option_rejected_by_parser(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--problem", "hs-quasimonotone", "--x0", "0.5,0.5",
              "--tol-step4", "1e-10"])
    assert exc.value.code == 1
    assert "--tol-step4" in capsys.readouterr().err


def test_negative_seed_names_the_key(capsys):
    code = main(["solve", "--problem", "fractional-simplex", "--x0", "0,0,5,0,0",
                 "--seed", "-1"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: 'seed'")


def test_bench_json_config_blocks_rerun_the_same_rows(tmp_path, capsys):
    assert main(["bench", "--preset", "table3", "--output", "json"]) == 0
    first = json.loads(capsys.readouterr().out)
    path = tmp_path / "table3.json"
    path.write_text(json.dumps([block["config"] for block in first]))
    assert main(["bench", "--config", str(path), "--output", "json"]) == 0
    second = json.loads(capsys.readouterr().out)
    assert len(second) == len(first)
    for a, b in zip(first, second):
        assert b["config"] == a["config"]
        assert len(b["rows"]) == len(a["rows"])
        for ra, rb in zip(a["rows"], b["rows"]):
            for key in ("iter", "nT", "sol", "stop_reason"):
                assert rb[key] == ra[key]


def test_solve_and_bench_print_one_json_shape(tmp_path, capsys):
    solve_args = [
        "solve", "--problem", "fractional-simplex", "--x0", "0,0,5,0,0",
        "--theta", "0.25", "--tol", "1e-4", "--seed", "0", "--output", "json",
    ]
    assert main(solve_args) == 0
    (solved,) = json.loads(capsys.readouterr().out)
    path = tmp_path / "solve.json"
    path.write_text(json.dumps(solved["config"]))
    assert main(["bench", "--config", str(path), "--output", "json"]) == 0
    (benched,) = json.loads(capsys.readouterr().out)
    assert benched["config"] == solved["config"]
    assert len(benched["rows"]) == len(solved["rows"]) == 1
    for rs, rb in zip(solved["rows"], benched["rows"]):
        for key in ("iter", "nT", "sol", "stop_reason"):
            assert rb[key] == rs[key]


def test_bench_missing_config_file_maps_to_exit_one(tmp_path, capsys):
    code = main(["bench", "--config", str(tmp_path / "absent.json")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("error", [MaxPivots, InfeasibleSystem])
def test_projection_breakdown_maps_to_exit_four(monkeypatch, capsys, error):
    def broken(*args, **kwargs):
        raise error("injected breakdown")

    monkeypatch.setattr(vifd.solver, "least_distance", broken)
    # from (0, 0) the run reaches its first anchored projection; the box's own
    # projections are closed form and never call least_distance
    code = main(["solve", "--problem", "hs-quasimonotone", "--x0", "0,0"])
    assert code == 4
    assert capsys.readouterr().err.strip() == "error: projection failed: injected breakdown"


def test_overflow_inside_a_run_maps_to_exit_four(capsys):
    code = main(["solve", "--problem", "ray-setvalued", "--x0", "1e200,0.5"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err == "error: numeric breakdown at iteration 0: overflow encountered in square\n"
