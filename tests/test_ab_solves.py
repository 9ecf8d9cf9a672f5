"""``tools/ab_solves.py``: the correctness gate, then the interleaved timing."""

import dataclasses
import importlib.util
import os
import shutil
import subprocess
import sys
import types

import pytest

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
    assert lines[0] == "solves 48 agree: digest records, solve by solve"
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
        def run_reports(config, exc=exc):
            raise exc
        package = types.SimpleNamespace(qp=vifd.qp,
                                        bench=types.SimpleNamespace(run_reports=run_reports))
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


@pytest.mark.parametrize("field", ["qp_solves", "stop_reason"])
def test_outcomes_that_differ_only_in_one_digest_field_differ(monkeypatch, capsys, field):
    # a parent whose first report differs from the candidate's only in its QP
    # solve count or only in its stop reason: the digest would differ, so the
    # tool names that solve and exits 1
    tool = _load_tool(monkeypatch)

    def run_reports(config):
        first, *rest = vifd.bench.run_reports(config)
        if field == "qp_solves":
            counters = dataclasses.replace(first.counters, qp_solves=first.counters.qp_solves + 1)
            first = dataclasses.replace(first, counters=counters)
        else:
            other = next(reason for reason in vifd.StopReason if reason is not first.stop_reason)
            first = dataclasses.replace(first, stop_reason=other)
        return [first, *rest]

    bench = types.SimpleNamespace(run_reports=run_reports,
                                  ExperimentConfig=vifd.bench.ExperimentConfig)
    parent = types.SimpleNamespace(qp=vifd.qp, bench=bench)
    monkeypatch.setattr(tool, "load_parent", lambda checkout, name=None: parent)
    assert tool.main([ROOT, "--workload", "box-wide", "--seed", "1", "--rounds", "1"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("solve 0 (") and " differs: " in out and "ratio" not in out
