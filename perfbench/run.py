"""Closed-loop benchmark of vifd solves, with an optional per-module layer trace.

Usage, from the repository root::

    python3 perfbench/run.py --workload anchored-long --seed 1 --seconds 60 --trace 0

One process and one thread run the workload's solves back to back, each
through the public ``vifd.bench.run_experiment`` with a single-start config,
and time every call from outside.  A pass is one run over all of the
workload's solves; passes repeat until the next one would end after
``--seconds`` (at least MIN_PASSES of them, and at least until the tail
percentile has its samples).  About WARMUP_S seconds of untimed solves come
first.  Every result is checked independently (see ``checks.output_error``); a solve
that fails the check or raises ``MaxPivots``, ``InfeasibleSystem`` or
``DomainError`` counts as failed and the run goes on.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: import vifd, draw the inputs and build configs and problems;
  the median of the run's set-ups: its own, then one in a fresh interpreter
  after every pass (at least SETUP_SAMPLES in all), so that they sample the
  host's speed over the whole run and not over a burst of two seconds;
* ``wall_s``: one pass with every solve at its typical time, that is, the
  sum over the workload's solves of each solve's 0.8 quantile over the
  run's passes (at least MIN_PASSES of them);
* ``solve_s_p50``: the median over the workload's solves of those times;
* ``solve_s_tail``: the per-solve time, pooled over the passes, at the
  highest percentile with at least 10 pooled samples above it;
* ``peak_rss_mb``: peak resident memory of the process.

Why an upper quantile of each solve's times: the shared host this was tuned
on has two speeds.  Much of the time a solve runs 1.5 to 2 times slower than
its best, with spells of full speed that come and go over tens of seconds
(on a 2-vCPU KVM guest one 4.4 s pass took 3.3 to 6.3 s over five minutes,
CPU time tracking wall time).  A statistic reads steadily only if it stays
on one of the two speeds.  The minimum needs a fast spell during every
solve's passes, which a one-minute run of 0.6-second solves often lacks; the
median flips between speeds when the slow share is near one half.  Over ten
60-second runs per workload on that guest, computed from the same per-solve
times, the interquartile range as a share of the median was 0.20
(anchored-long) and 0.07 (ray-short) for the summed 0.8 quantiles, 0.27 and
0.22 for the summed minima, 0.27 and 0.17 for the summed medians, and 0.30
and 0.38 for the fastest whole pass.  On a host that is mostly fast the
same quantile reads the fast speed.

``failed_frac`` is printed with them and carried in the ``failed`` and
``attempted`` fields of the result.

``--trace 1`` alternates untraced and traced passes and reports per-layer
metrics from the traced ones (counts and seconds per pass, see
``tracing.layer_metrics``) plus ``trace.overhead_frac``, the fastest traced
pass time over the fastest untraced one, minus 1.  It also checks that the
traced counts equal the program's own ``Counters`` for every solve, and writes the
spans to ``perfbench/out``.

The last line of standard output is the result as one JSON object; the line
before it records the run's details, the machine and the library versions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

# one BLAS thread, set before numpy is first imported
os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_SAMPLES = 7
WARMUP_S = 1.0
MIN_PASSES = 2
HARD_LIMIT_S = 140.0
WORKLOAD_NAMES = ("anchored-long", "box-wide", "ray-short")


def _use_source_tree() -> None:
    """Import vifd from this checkout's ``src``, never from an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "vifd", "__init__.py")):
        sys.exit(f"error: no vifd sources under {SRC}")
    sys.path[:0] = [SRC, HERE]


def setup(workload: str, seed: int):
    """Import vifd and build the workload's solves; returns ``(solves, seconds)``."""
    started = time.perf_counter()
    import vifd  # noqa: F401
    import workloads

    solves = workloads.build(workload, seed)
    return solves, time.perf_counter() - started


def probe_setup(workload: str, seed: int) -> float:
    """Time one set-up in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--probe-setup",
         "--workload", workload, "--seed", str(seed)],
        check=True, capture_output=True, text=True, timeout=60,
    )
    return float(out.stdout.split()[-1])


def run_pass(solves, first_id: int, tracer=None):
    """Run every solve once; returns ``(pass_s, solve_times, outcomes)``.

    An outcome is the call's result rows or the exception it raised.
    """
    import vifd.bench
    from vifd.operators import DomainError
    from vifd.qp import InfeasibleSystem, MaxPivots

    times, outcomes = [], []
    clock = time.perf_counter
    started = clock()
    for i, solve in enumerate(solves):
        if tracer is not None:
            tracer.solve_id = first_id + i
        t0 = clock()
        try:
            outcome = vifd.bench.run_experiment(solve.config)
        except (MaxPivots, InfeasibleSystem, DomainError) as exc:
            outcome = exc
        times.append(clock() - t0)
        outcomes.append(outcome)
    return clock() - started, times, outcomes


def check_pass(solves, outcomes, failures: dict) -> int:
    """Count failed solves, recording each failure's kind in ``failures``."""
    import checks

    failed = 0
    for solve, outcome in zip(solves, outcomes):
        if isinstance(outcome, Exception):
            error = type(outcome).__name__
        else:
            error = checks.output_error(
                solve.problem, outcome[0], solve.config.params.tol_residual)
        if error is not None:
            failed += 1
            key = f"{solve.cell}: {error}"
            failures[key] = failures.get(key, 0) + 1
    return failed


def warm_up(solves, seconds: float) -> None:
    """Run solves untimed for about ``seconds``; first calls of each code path run slower."""
    deadline = time.perf_counter() + seconds
    for solve in solves:
        run_pass([solve], 0)
        if time.perf_counter() > deadline:
            break


def measure(solves, seconds: float, traced: bool, between_passes=None):
    """Repeat passes until the next would end after ``seconds``.

    ``between_passes``, when given, is called after every pass, outside its timing.
    """
    import checks
    import tracing

    warm_up(solves, WARMUP_S)
    tracer = tracing.Tracer() if traced else None
    pass_times = {False: [], True: []}
    pass_solve_times, solve_times, failures = [], [], {}
    attempted = failed = 0
    started = time.perf_counter()
    while True:
        with_trace = traced and len(pass_times[False]) > len(pass_times[True])
        first_id = attempted
        if with_trace:
            with tracer.installed():
                pass_s, times, outcomes = run_pass(solves, first_id, tracer)
        else:
            pass_s, times, outcomes = run_pass(solves, first_id)
        pass_times[with_trace].append(pass_s)
        if not traced:
            pass_solve_times.append(times)
            solve_times.extend(times)
        attempted += len(solves)
        failed += check_pass(solves, outcomes, failures)
        if between_passes is not None:
            between_passes()

        elapsed = time.perf_counter() - started
        done = sum(map(len, pass_times.values()))
        enough = done >= MIN_PASSES and (traced or len(solve_times) > checks.TAIL_ABOVE)
        typical = statistics.median(pass_times[False] + pass_times[True])
        if (enough and elapsed + typical > seconds) or elapsed > HARD_LIMIT_S:
            break
    return {
        "tracer": tracer,
        "pass_times": pass_times,
        "pass_solve_times": pass_solve_times,
        "solve_times": solve_times,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "measured_s": elapsed,
    }


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "machine": platform.machine(),
    }


def end_to_end(run: dict, setup_samples: list[float]) -> tuple[dict, dict]:
    import checks

    tail_s, tail_pct, n = checks.tail(run["solve_times"])
    # each solve's 0.8 quantile over the passes, the last of the quintile cuts
    typical = [statistics.quantiles(times, n=5, method="inclusive")[-1]
               for times in zip(*run["pass_solve_times"])]
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "wall_s": (sum(typical), "s"),
        "solve_s_p50": (statistics.median(typical), "s"),
        "solve_s_tail": (tail_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    details = {
        "failed_frac": checks.failed_frac(run["failed"], run["attempted"]),
        "solve_s_p50_samples": len(typical),
        "passes": len(run["pass_solve_times"]),
        "solve_s_tail_samples": n,
        "solve_s_tail_percentile": tail_pct,
        "pass_s": run["pass_times"][False],
        "setup_samples": setup_samples,
    }
    return metrics, details


def per_layer(run: dict, workload: str, seed: int) -> tuple[dict, dict]:
    import tracing

    spans = run["tracer"].spans
    traced, plain = run["pass_times"][True], run["pass_times"][False]
    metrics = tracing.layer_metrics(spans, len(traced))
    metrics["trace.overhead_frac"] = (
        min(traced) / min(plain) - 1.0, "ratio")
    errors = tracing.consistency_errors(spans)
    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"spans-{workload}-seed{seed}.csv")
    run["tracer"].write(spans_path)
    details = {
        "traced_passes": len(traced),
        "untraced_passes": len(plain),
        "spans": len(spans),
        "spans_file": os.path.relpath(spans_path, ROOT),
        "consistency_errors": errors[:20],
    }
    return metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _use_source_tree()

    if args.probe_setup:
        _, seconds = setup(args.workload, args.seed)
        print(repr(seconds))
        return 0

    solves, own_setup = setup(args.workload, args.seed)
    traced = bool(args.trace)
    if traced:
        run = measure(solves, args.seconds, traced=True)
        metrics, details = per_layer(run, args.workload, args.seed)
        correct = run["failed"] == 0 and not details["consistency_errors"]
    else:
        setup_samples = [own_setup]

        def probe():
            setup_samples.append(probe_setup(args.workload, args.seed))

        run = measure(solves, args.seconds, traced=False, between_passes=probe)
        while len(setup_samples) < SETUP_SAMPLES:
            probe()
        metrics, details = end_to_end(run, setup_samples)
        correct = run["failed"] == 0

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "solves_per_pass": len(solves),
        "measured_s": run["measured_s"],
        "failures": run["failures"],
        **details,
        "environment": environment(),
    }
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:.6g} {unit}")
    if not traced:
        print(f"{'failed_frac':34s} {details['failed_frac']:.6g} ratio")
    result = {
        "correct": correct,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
