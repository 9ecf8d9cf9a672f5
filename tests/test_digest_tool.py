"""``tools/trajectory_digest.py``: a solve that raises is counted, not fatal,
and each group of solves has its own digest line."""

import importlib.util
import os
import sys
from dataclasses import replace

from vifd.bench import ExperimentConfig, run_reports
from vifd.operators import DomainError

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "trajectory_digest.py")


def _load_tool(monkeypatch):
    # the tool puts src/ and perfbench/ on sys.path and pins the BLAS threads
    # when imported; both are undone after the test
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    spec = importlib.util.spec_from_file_location("trajectory_digest", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_solves_that_raise_are_counted_and_hashed(monkeypatch, capsys):
    tool = _load_tool(monkeypatch)
    solved = ExperimentConfig("hs-quasimonotone", [[0.5, 0.5], [0.0, 0.0]])
    breakdown = ExperimentConfig("rho-squared", [[0.5]])
    invalid = ExperimentConfig("rho-squared", [[0.5], [-0.5], [0.2]])
    failures = {id(breakdown): FloatingPointError("numeric breakdown at iteration 3"),
                id(invalid): DomainError("probe outside the domain")}

    def reports(config):
        if id(config) in failures:
            raise failures[id(config)]
        return run_reports(config)

    groups = [("table1", solved), ("ray-short", breakdown), ("ray-short", invalid)]
    monkeypatch.setattr(tool, "configs", lambda seed: iter(groups))
    monkeypatch.setattr(tool, "run_reports", reports)
    assert tool.main(["--seed", "1"]) == 0
    first = capsys.readouterr().out.splitlines()
    assert first[:2] == ["solves 6", "raised 4"]
    # one line per group after the three totals, in the order of the solves
    assert [line.rsplit(" ", 1)[0] for line in first[2:]] == [
        "sha256", "sha256 table1", "sha256 ray-short"]
    # the exception's name enters the digest and its group's, and no other
    failures[id(invalid)] = ValueError("a plain ValueError")
    assert tool.main(["--seed", "1"]) == 0
    second = capsys.readouterr().out.splitlines()
    assert second[:2] == first[:2]
    assert second[2] != first[2]
    assert second[3] == first[3]
    assert second[4] != first[4]


def test_the_groups_are_the_presets_then_the_workloads(monkeypatch):
    tool = _load_tool(monkeypatch)
    groups = [group for group, _ in tool.configs(1)]
    assert list(dict.fromkeys(groups)) == [
        "table1", "table2", "table3", "table4", "table4-beta0.25",
        "anchored-long", "box-wide", "ray-short"]
    # the Step 4 group is table4's config with only beta changed, to 0.25
    configs = list(tool.configs(1))
    (table4,), (quarter,) = ([c for g, c in configs if g == group]
                             for group in ("table4", "table4-beta0.25"))
    assert quarter.params == replace(table4.params, beta=0.25)
    assert replace(quarter, params=table4.params).to_dict() == table4.to_dict()

