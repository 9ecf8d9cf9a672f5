"""One sha256 over the trajectories of the preset rows and the benchmark workloads.

Usage, from the repository root::

    python3 tools/trajectory_digest.py --seed 1

Solves every start of presets table1 to table4, then table4's starts again
at ``beta = 0.25`` (group ``table4-beta0.25``: six of its nine starts stop at
Step 4, which no other solve here reaches), then every solve of the
``perfbench/workloads.py`` workloads (anchored-long, box-wide, ray-short)
drawn from ``--seed``, in that order.  Each solve contributes its
``record``: its stop reason, outer iterations, operator evaluations, QP
solves and the bytes of its terminal point.  The script prints the number
of solves, the number of those that raised, and the digest, then one digest
per group, over that group's solves in the same order: ``sha256 <group>
<hex>`` for each of table1 to table4, table4-beta0.25, anchored-long,
box-wide and ray-short.  A group's line tells which solves moved a digest.

Two commits that print the same digest at the same seed give bitwise the same
trajectories on all of these solves, so a refactor meant to change no result
can be checked by running this on both sides.  When a solve raises (a QP
failure, a numeric breakdown, or any other ``ValueError`` such as a
``DomainError``), the exception's name stands in for the counters of every
solve of its config, and those solves count as raised.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import os
import sys

# one BLAS thread, as in the benchmark, set before numpy is first imported
os.environ["OPENBLAS_NUM_THREADS"] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from vifd.bench import preset_configs, run_reports  # noqa: E402
from vifd.qp import InfeasibleSystem, MaxPivots  # noqa: E402

import workloads  # noqa: E402

PRESETS = ("table1", "table2", "table3", "table4")


def configs(seed: int):
    """Every single-run config with its group, presets first, in a fixed order."""
    for name in PRESETS:
        for config in preset_configs(name):
            yield name, config
    for config in preset_configs("table4"):
        params = dataclasses.replace(config.params, beta=0.25)
        yield "table4-beta0.25", dataclasses.replace(config, params=params)
    for name in sorted(workloads.WORKLOADS):
        for solve in workloads.build(name, seed):
            yield name, solve.config


def record(report) -> bytes:
    """One solve's part of the digest, read from its ``RunReport``."""
    counters = report.counters
    return (f"{report.stop_reason.value}|{counters.outer_iters}|{counters.operator_evals}|"
            f"{counters.qp_solves}|".encode() + report.terminal_point.tobytes())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1, help="workload seed")
    args = parser.parse_args(argv)
    digest = hashlib.sha256()
    groups = {}
    solves = raised = 0
    for group, config in configs(args.seed):
        try:
            reports = run_reports(config)
        except (MaxPivots, InfeasibleSystem, FloatingPointError, ValueError) as exc:
            data = f"{type(exc).__name__}\n".encode()
            solves += len(config.starts)
            raised += len(config.starts)
        else:
            data = b"".join(record(report) for report in reports)
            solves += len(reports)
        digest.update(data)
        groups.setdefault(group, hashlib.sha256()).update(data)
    print(f"solves {solves}")
    print(f"raised {raised}")
    print(f"sha256 {digest.hexdigest()}")
    for group, group_digest in groups.items():
        print(f"sha256 {group} {group_digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
