"""``tools/ab_solves.py``: the correctness gate, then the interleaved timing."""

import importlib.util
import os
import shutil
import subprocess
import sys
import types

import vifd

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "ab_solves.py")


def _run(parent):
    return subprocess.run(
        [sys.executable, TOOL, str(parent), "--workload", "box-wide", "--seed", "1",
         "--rounds", "1"],
        capture_output=True, text=True, timeout=300, cwd=ROOT)


def test_the_repository_against_itself_agrees_and_prints_the_ratio():
    out = _run(ROOT)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0] == "solves 48 agree: iteration counts and terminal-point bytes"
    assert lines[1].startswith("ratio candidate/parent over 1 rounds: median ")
    assert lines[2].startswith("solve_s_p50 ratio candidate/parent over 1 rounds: median ")
    assert len(lines) == 3


def _load_tool(monkeypatch):
    # the tool puts src/ and perfbench/ on sys.path and pins the BLAS threads
    # when imported; both are undone after the test
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    spec = importlib.util.spec_from_file_location("ab_solves", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_a_solve_that_raises_is_an_outcome_named_by_its_exception(monkeypatch):
    tool = _load_tool(monkeypatch)
    for exc in (FloatingPointError("numeric breakdown at iteration 3"),
                ValueError("a mid-run ValueError"), vifd.operators.DomainError("outside"),
                vifd.qp.MaxPivots("too many pivots")):
        def run_experiment(config, exc=exc):
            raise exc
        package = types.SimpleNamespace(qp=vifd.qp,
                                        bench=types.SimpleNamespace(run_experiment=run_experiment))
        seconds, outcome = tool.run(package, None)
        assert seconds >= 0.0 and outcome == type(exc).__name__


def test_a_parent_whose_results_differ_is_named_and_exits_1(tmp_path):
    # a copy whose QP pivot guard allows no pivot, so the first solve whose
    # anchored projection needs one raises MaxPivots
    shutil.copytree(os.path.join(ROOT, "src", "vifd"), tmp_path / "src" / "vifd",
                    ignore=shutil.ignore_patterns("__pycache__"))
    qp = tmp_path / "src" / "vifd" / "qp.py"
    source = qp.read_text()
    assert "PIVOTS_PER_ROW = 50" in source
    qp.write_text(source.replace("PIVOTS_PER_ROW = 50", "PIVOTS_PER_ROW = 0"))
    out = _run(tmp_path)
    assert out.returncode == 1, out.stderr
    assert out.stdout.startswith("solve ") and " differs: " in out.stdout
    assert "ratio" not in out.stdout
