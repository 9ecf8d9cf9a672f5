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
    assert len(lines) == 5
    # candidate/parent, then the parent's second copy against the parent
    for line, pair in zip(lines[1:], ["candidate/parent"] * 2 + ["parent/parent"] * 2):
        label = "ratio" if line.startswith("ratio") else "solve_s_p50 ratio"
        assert line.startswith(f"{label} {pair} over 1 rounds: median ") and " quartiles " in line
    assert [line.split()[0] for line in lines[1:]] == ["ratio", "solve_s_p50"] * 2


def test_the_floor_copy_is_a_package_of_its_own(monkeypatch):
    tool = _load_tool(monkeypatch)
    for name in (tool.PARENT_NAME, tool.FLOOR_NAME):
        monkeypatch.delitem(sys.modules, name, raising=False)
    parent, floor = tool.load_parent(ROOT), tool.load_parent(ROOT, tool.FLOOR_NAME)
    try:
        assert (parent.__name__, floor.__name__) == ("vifd_parent", "vifd_floor")
        # every module of the copy is its own, not the parent's or vifd's
        assert floor.sets is not parent.sets and floor.sets is not vifd.sets
        assert floor.sets.ConstraintStore is not parent.sets.ConstraintStore
    finally:
        copies = (tool.PARENT_NAME, tool.FLOOR_NAME)
        for name in [name for name in sys.modules if name.split(".")[0] in copies]:
            del sys.modules[name]


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
