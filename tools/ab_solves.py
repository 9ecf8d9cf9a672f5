"""A/B timing of two vifd source trees in one process, interleaved solve by solve.

Usage, from the repository root::

    git worktree add ../vifd-parent HEAD
    python3 tools/ab_solves.py ../vifd-parent --workload ray-short --seed 7 --rounds 20

The positional argument is another checkout of this repository, the parent.
Its ``src/vifd`` is loaded under the package name ``vifd_parent`` beside this
checkout's ``vifd``, the candidate; every import inside vifd is relative, so
the two packages share no module.  One workload's solves are drawn from
``perfbench/workloads.py`` with the candidate, and each config is rebuilt for
the parent from its ``to_dict`` entry, which carries the same floats.

Correctness comes first: every solve runs once on each side, and each start's
``record`` in ``tools/trajectory_digest.py`` (stop reason, iterations,
operator evaluations, QP solves and terminal-point bytes), or the exception
raised, must agree, so sides that agree give the same digest solve by solve.
On the first solve that differs the script names it and exits 1.  Otherwise
it prints the number of ``np.linalg.lstsq`` calls each side made over that
pass, a count of work that host noise cannot move.

The parent is also loaded a second time, as the package ``vifd_floor``, and
checked against the parent like the candidate.  Then each round runs every
solve on the three sides back to back, the sides taking turns to go first,
solve by solve and round by round.  The script prints four lines, each the
median, quartiles, min and max over the rounds of a ratio taken within one
round, first candidate/parent and then parent/parent (the second copy over
the first: the noise floor that a candidate's ratio must clear):

* of each side's summed times;
* ``solve_s_p50``: of each side's median solve time.

Pass times on a shared host can swing 1.5 to 2 times from one run to the next
(see ``perfbench/run.py``), so a ratio taken in one process, alternating
solve by solve, resolves effects of a few percent that separate runs do not.
A solve that raises a QP failure, a numeric breakdown or any other
``ValueError`` (``DomainError`` among them) counts as an outcome, named by
the exception, as in ``tools/trajectory_digest.py``.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import statistics
import sys
import time

# one BLAS thread, as in the benchmark, set before numpy is first imported
os.environ["OPENBLAS_NUM_THREADS"] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, name) for name in ("src", "perfbench", "tools")]

import numpy as np  # noqa: E402

import vifd  # noqa: E402
import workloads  # noqa: E402
from trajectory_digest import record  # noqa: E402

PARENT_NAME = "vifd_parent"
FLOOR_NAME = "vifd_floor"


def load_parent(checkout: str, name: str = PARENT_NAME):
    """The checkout's ``src/vifd`` imported as the package ``name``."""
    package = os.path.join(os.path.abspath(checkout), "src", "vifd")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(package, "__init__.py"),
        submodule_search_locations=[package])
    if spec is None:
        sys.exit(f"error: no vifd sources under {package}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def run(package, config):
    """``(seconds, outcome)`` of one ``run_reports`` call: per start, the
    digest's ``record``, or the exception's name."""
    failures = (package.qp.MaxPivots, package.qp.InfeasibleSystem, FloatingPointError, ValueError)
    started = time.perf_counter()
    try:
        reports = package.bench.run_reports(config)
    except failures as exc:
        return time.perf_counter() - started, type(exc).__name__
    seconds = time.perf_counter() - started
    return seconds, [record(report) for report in reports]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="directory of the parent checkout")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1, help="workload seed")
    parser.add_argument("--rounds", type=int, default=10, help="timed rounds")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    copies = [load_parent(args.parent), load_parent(args.parent, FLOOR_NAME)]

    solves = workloads.build(args.workload, args.seed)
    # sides: the candidate, the parent and the parent's copy
    sides = [(vifd, [solve.config for solve in solves])] + [
        (copy, [copy.bench.ExperimentConfig.from_dict(solve.config.to_dict())
                for solve in solves]) for copy in copies]
    names = ("candidate", "parent", "parent copy")
    # every side calls np.linalg.lstsq through the numpy module they share
    lstsq, calls = np.linalg.lstsq, [0] * len(sides)
    current = 0

    def counted_lstsq(*args, **kwargs):
        calls[current] += 1
        return lstsq(*args, **kwargs)

    np.linalg.lstsq = counted_lstsq
    try:
        for i, solve in enumerate(solves):
            outcomes = []
            for current, (package, configs) in enumerate(sides):
                outcomes.append(run(package, configs[i])[1])
            for side, outcome in enumerate(outcomes):
                if outcome != outcomes[1]:
                    print(f"solve {i} ({solve.cell}) differs: {names[side]} {outcome!r:.200} "
                          f"against parent {outcomes[1]!r:.200}")
                    return 1
    finally:
        np.linalg.lstsq = lstsq
    print(f"solves {len(solves)} agree: digest records, solve by solve")
    print("lstsq calls over those solves: " +
          ", ".join(f"{name} {count}" for name, count in zip(names, calls)))

    # times[side][round] holds every solve's seconds in that round
    times = [[[] for _ in range(args.rounds)] for _ in sides]
    for r in range(args.rounds):
        for i in range(len(solves)):
            for k in range(len(sides)):
                side = (i + r + k) % len(sides)
                package, configs = sides[side]
                times[side][r].append(run(package, configs[i])[0])
    # the parent/parent lines time the parent's copy against the parent
    for pair, side in (("candidate/parent", 0), ("parent/parent", 2)):
        for label, statistic in (("ratio", sum), ("solve_s_p50 ratio", statistics.median)):
            ratios = [statistic(c) / statistic(p) for c, p in zip(times[side], times[1])]
            q1, median, q3 = np.percentile(ratios, [25, 50, 75])
            print(f"{label} {pair} over {args.rounds} rounds: median {median:.4f} "
                  f"quartiles {q1:.4f}-{q3:.4f} min {min(ratios):.4f} max {max(ratios):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
