"""Per-module layer trace built from wrappers around vifd's public functions.

``Tracer.installed()`` replaces, for its duration, the module attributes the
solver looks its collaborators up by (and the operator classes' oracle
methods) with wrappers that record one span per call: name, start, end,
parent span and solve id, plus a few counts read off the call's arguments and
result.  Spans stay in memory; ``write`` saves them at the end of a run.

Layers are vifd's modules: ``bench`` (``run_experiment``), ``solver``
(``solve``, ``step``, ``compute_z``, ``step2_stop_check``, ``linesearch_f``),
``qp`` (``least_distance``), ``sets`` (``assemble``) and ``operators``
(``select``, ``support``, ``witness_above``).  A least-distance call is
*anchored* when ``step`` makes it (the projection of x0) and *plain* otherwise
(``compute_z``, ``step2_stop_check`` and the start projection in ``solve``).
"""

from __future__ import annotations

import contextlib
import math
import time
from collections import defaultdict

import vifd.bench
import vifd.operators
import vifd.solver

# (module, attribute, span name)
FUNCTIONS = (
    (vifd.bench, "run_experiment", "bench.run_experiment"),
    (vifd.bench, "solve", "solver.solve"),
    (vifd.solver, "step", "solver.step"),
    (vifd.solver, "compute_z", "solver.compute_z"),
    (vifd.solver, "step2_stop_check", "solver.step2_stop_check"),
    (vifd.solver, "linesearch_f", "solver.linesearch_f"),
    (vifd.solver, "least_distance", "qp.least_distance"),
    (vifd.solver, "assemble", "sets.assemble"),
)
OPERATOR_CLASSES = (
    vifd.operators.HsQuasimonotone,
    vifd.operators.RhoOperator,
    vifd.operators.FractionalGradient,
    vifd.operators.RayOperator,
)
ORACLES = ("select", "support", "witness_above")
PLAIN_CALLERS = ("solver.compute_z", "solver.step2_stop_check", "solver.solve")

# Span record fields.
NAME, START, END, PARENT, SOLVE, INFO = range(6)
# Info of a call that raised: there is no result to read counts from.
NO_INFO = defaultdict(int)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover.

    ``spans`` holds records ``[name, start, end, parent, ...]`` where
    ``parent`` indexes the list (-1 for a root).  Children are clipped to
    their parent and merged, so overlapping children count once.
    """
    children = defaultdict(list)
    for rec in spans:
        if rec[PARENT] >= 0:
            children[rec[PARENT]].append((rec[START], rec[END]))
    out = []
    for i, rec in enumerate(spans):
        start, end = rec[START], rec[END]
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def _qp_info(args, kwargs, result):
    warm = kwargs.get("warm_start") or ()
    return {
        "rows": args[0].G.shape[0],
        "pivots": result.iterations,
        "active": len(result.active_set),
        "kkt": result.kkt_residual,
        "warm": len(warm),
        "kept": len(set(warm) & set(result.active_set)),
    }


def _assemble_info(args, kwargs, result):
    return {"rows": result.G.shape[0], "n": result.n}


def _support_info(args, kwargs, result):
    return {"inf": math.isinf(result.value)}


def _solve_info(args, kwargs, result):
    return {"counters": dict(vars(result.counters))}


INFO_READERS = {
    "qp.least_distance": _qp_info,
    "sets.assemble": _assemble_info,
    "operators.support": _support_info,
    "solver.solve": _solve_info,
}


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.solve_id = -1

    def _wrap(self, name, fn, method=False):
        spans, stack = self.spans, self.stack
        reader = INFO_READERS.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            # an oracle that calls another oracle of the same operator (a
            # singleton's support calls its select) is one evaluation
            if method and parent >= 0 and spans[parent][NAME].startswith("operators."):
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, parent, self.solve_id, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if reader is not None:
                rec[INFO] = reader(args[1:] if method else args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Route vifd's layer boundaries through span-recording wrappers."""
        saved = []
        try:
            for module, attr, name in FUNCTIONS:
                saved.append((module, attr, getattr(module, attr), True))
                setattr(module, attr, self._wrap(name, getattr(module, attr)))
            for cls in OPERATOR_CLASSES:
                for attr in ORACLES:
                    own = attr in cls.__dict__
                    saved.append((cls, attr, cls.__dict__.get(attr), own))
                    setattr(cls, attr, self._wrap(
                        f"operators.{attr}", getattr(cls, attr), method=True))
            yield self
        finally:
            for owner, attr, original, own in reversed(saved):
                if own:
                    setattr(owner, attr, original)
                else:
                    delattr(owner, attr)

    def write(self, path: str) -> None:
        """Save the spans as CSV: index, name, start, end, parent, solve id."""
        with open(path, "w") as fh:
            fh.write("span,name,start,end,parent,solve\n")
            for i, rec in enumerate(self.spans):
                fh.write(f"{i},{rec[NAME]},{rec[START]!r},{rec[END]!r},"
                         f"{rec[PARENT]},{rec[SOLVE]}\n")


def layer_totals(spans) -> dict:
    """Per-layer counts and seconds summed over ``spans``."""
    own = self_times(spans)
    t = defaultdict(float)
    rows_peak = active_peak = 0
    kkt_max = 0.0
    for rec, self_s in zip(spans, own):
        name, info = rec[NAME], rec[INFO] or NO_INFO
        dur = rec[END] - rec[START]
        if name == "sets.assemble":
            t["assemble_calls"] += 1
            t["assemble_s"] += dur
            t["assemble_rows"] += info["rows"]
            t["assemble_bytes"] += info["rows"] * (info["n"] + 1) * 8
        elif name == "qp.least_distance":
            kind = "plain" if spans[rec[PARENT]][NAME] in PLAIN_CALLERS else "anchored"
            t[f"{kind}_calls"] += 1
            t[f"{kind}_s"] += dur
            t[f"{kind}_pivots"] += info["pivots"]
            kkt_max = max(kkt_max, info["kkt"])
            if kind == "anchored":
                t["anchored_rows"] += info["rows"]
                rows_peak = max(rows_peak, info["rows"])
                active_peak = max(active_peak, info["active"])
                t["warm_given"] += info["warm"]
                t["warm_kept"] += info["kept"]
        elif name.startswith("operators."):
            oracle = name.split(".", 1)[1]
            t[f"{oracle}_calls"] += 1
            t[f"{oracle}_s"] += dur
            if oracle == "support" and info["inf"]:
                t["support_inf"] += 1
        elif name == "solver.linesearch_f":
            t["linesearch_calls"] += 1
            t["linesearch_self_s"] += self_s
        elif name == "solver.step":
            t["step_self_s"] += self_s
        elif name == "bench.run_experiment":
            t["harness_self_s"] += self_s
    t["anchored_rows_peak"] = rows_peak
    t["anchored_active_peak"] = active_peak
    t["kkt_residual_max"] = kkt_max
    return t


def layer_metrics(spans, passes: int) -> dict:
    """The per-layer metrics: counts and seconds per pass, ratios and peaks as is."""
    t = layer_totals(spans)

    def ratio(num, den):
        return t[num] / t[den] if t[den] else 0.0

    per_pass = {
        "sets.assemble_calls": ("assemble_calls", "count"),
        "sets.assemble_s": ("assemble_s", "s"),
        "sets.assemble_rows": ("assemble_rows", "rows"),
        "sets.assemble_bytes_computed": ("assemble_bytes", "B"),
        "qp.plain_calls": ("plain_calls", "count"),
        "qp.plain_s": ("plain_s", "s"),
        "qp.plain_pivots": ("plain_pivots", "count"),
        "qp.anchored_calls": ("anchored_calls", "count"),
        "qp.anchored_s": ("anchored_s", "s"),
        "qp.anchored_pivots": ("anchored_pivots", "count"),
        "solver.outer_iters": ("anchored_calls", "count"),
        "solver.linesearch_probes": ("support_calls", "count"),
        "solver.linesearch_self_s": ("linesearch_self_s", "s"),
        "solver.step_self_s": ("step_self_s", "s"),
        "operators.evals": (None, "count"),
        "operators.select_s": ("select_s", "s"),
        "operators.support_s": ("support_s", "s"),
        "operators.witness_above_s": ("witness_above_s", "s"),
        "bench.harness_self_s": ("harness_self_s", "s"),
    }
    out = {}
    for metric, (key, unit) in per_pass.items():
        total = t["select_calls"] + t["support_calls"] if key is None else t[key]
        out[metric] = (total / passes, unit)
    out["qp.anchored_rows_peak"] = (t["anchored_rows_peak"], "rows")
    out["qp.anchored_rows_mean"] = (ratio("anchored_rows", "anchored_calls"), "rows")
    out["qp.anchored_active_peak"] = (t["anchored_active_peak"], "rows")
    out["qp.warm_start_kept_ratio"] = (ratio("warm_kept", "warm_given"), "ratio")
    out["qp.kkt_residual_max"] = (t["kkt_residual_max"], "abs")
    out["solver.linesearch_accept_ratio"] = (ratio("linesearch_calls", "support_calls"), "ratio")
    out["operators.unbounded_support_ratio"] = (ratio("support_inf", "support_calls"), "ratio")
    return out


def consistency_errors(spans) -> list[str]:
    """Solves whose traced counts differ from the program's own ``Counters``."""
    per_solve = defaultdict(lambda: defaultdict(int))
    counters = {}
    for rec in spans:
        name, sid = rec[NAME], rec[SOLVE]
        c = per_solve[sid]
        if name == "qp.least_distance":
            c["qp_solves"] += 1
            if spans[rec[PARENT]][NAME] == "solver.step":
                c["outer_iters"] += 1
        elif name in ("operators.select", "operators.support"):
            c["operator_evals"] += 1
            if name == "operators.support":
                c["linesearch_probes"] += 1
        elif name == "solver.solve" and rec[INFO] is not None:
            counters[sid] = rec[INFO]["counters"]
    errors = []
    for sid, expected in sorted(counters.items()):
        for key in ("outer_iters", "operator_evals", "qp_solves", "linesearch_probes"):
            if per_solve[sid][key] != expected[key]:
                errors.append(f"solve {sid}: traced {key} {per_solve[sid][key]} "
                              f"!= counted {expected[key]}")
    return errors
