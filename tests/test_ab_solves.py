"""``tools/ab_solves.py``: the correctness gate, then the interleaved timing."""

import os
import shutil
import subprocess
import sys

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


def test_a_parent_whose_results_differ_is_named_and_exits_1(tmp_path):
    # a copy whose Step 4 tolerance stops the box solves at other iterates
    shutil.copytree(os.path.join(ROOT, "src", "vifd"), tmp_path / "src" / "vifd",
                    ignore=shutil.ignore_patterns("__pycache__"))
    solver = tmp_path / "src" / "vifd" / "solver.py"
    source = solver.read_text()
    assert "TOL_STEP4 = 1e-12" in source
    solver.write_text(source.replace("TOL_STEP4 = 1e-12", "TOL_STEP4 = 1e-1"))
    out = _run(tmp_path)
    assert out.returncode == 1, out.stderr
    assert out.stdout.startswith("solve ") and " differs: " in out.stdout
    assert "ratio" not in out.stdout
