"""Experiment harness: configured solve batches, presets, and result emitters."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .operators import ProblemInstance, make_problem
from .sets import _frozen, _integer, _point, _real
from .solver import RunReport, SolverParams, StopCertificate, StopReason, solve

__all__ = [
    "ExperimentConfig",
    "ResultRow",
    "run_experiment",
    "run_reports",
    "emit",
    "preset_configs",
    "configs_from_file",
    "rows_from_json",
    "exit_code_for",
    "PRESET_NAMES",
    "CSV_HEADER",
]

CSV_HEADER = "x0,iter,nT,cpu_s,sol,stop_reason"
OUTPUT_FORMATS = ("csv", "json", "table")
PRESET_NAMES = ("table1", "table2", "table3", "table4")

# The keys of a config entry: the solver keys are the SolverParams fields.
_SOLVER_KEYS = tuple(f.name for f in fields(SolverParams))
_ENTRY_KEYS = {"problem", "starts", "a", "seed", "label", *_SOLVER_KEYS}


@dataclass(frozen=True)
class ExperimentConfig:
    """One batch of solves: a problem, a list of starts, and shared parameters.

    Each value is checked here, where it enters: ``problem`` is a string,
    ``params`` a ``SolverParams``, ``starts`` a non-empty list of non-empty
    lists, tuples or 1-D arrays that ``as_point`` accepts, ``a`` None or a
    finite real number, ``seed`` an integer of at least 0 and ``label`` None
    or a string; numbers follow the rule of ``vifd.sets``. Numbers are stored
    as plain ``float`` and ``int``, so a config built from numpy scalars
    serializes as json, and ``starts`` as a tuple of read-only float64 copies,
    so a later write to the caller's arrays leaves the config as it was; a bad
    value raises a ``ValueError`` naming its key.
    The problem is built here too, so an unknown problem or a start of the
    wrong dimension fails at once, and kept: ``build_problem`` returns it.
    The config is frozen (assigning a field raises
    ``dataclasses.FrozenInstanceError``), so the kept problem always matches
    the fields.
    """

    problem: str
    starts: tuple[np.ndarray, ...]
    params: SolverParams = field(default_factory=SolverParams)
    a: float | None = None
    seed: int = 0
    label: str | None = None

    def __post_init__(self):
        if not isinstance(self.problem, str):
            raise ValueError(f"'problem' must be a string, not {self.problem!r}")
        if not isinstance(self.params, SolverParams):
            raise ValueError(f"'params' must be a SolverParams, not {self.params!r}")
        if not isinstance(self.starts, (list, tuple)) or not self.starts:
            raise ValueError("'starts' must be a non-empty list of start points")
        for s in self.starts:
            vector = isinstance(s, (list, tuple)) or isinstance(s, np.ndarray) and s.ndim == 1
            if not vector or not len(s):
                raise ValueError(f"'starts' entries must be non-empty vectors, not {s!r}")
        starts = tuple(_frozen(_point("starts", s)) for s in self.starts)
        if len({s.size for s in starts}) != 1:
            raise ValueError("all start points must share one dimension")
        a = None if self.a is None else _real("a", self.a)
        seed = _integer("seed", self.seed, 0)
        if not (self.label is None or isinstance(self.label, str)):
            raise ValueError(f"'label' must be a string or None, not {self.label!r}")
        problem = make_problem(self.problem, dim=starts[0].size, a=a, seed=seed)
        for name, value in (("starts", starts), ("a", a), ("seed", seed), ("_problem", problem)):
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return self.starts[0].size

    def build_problem(self) -> ProblemInstance:
        """The config's problem, built once by the constructor: the same object
        on every call, so every run of the config shares its feasible set's
        rows (``Box.constraints`` and ``SimplexSlice.constraints`` are built
        on first use and kept).  A ``ProblemInstance`` is immutable and its
        operator keeps no state, so sharing it is safe."""
        return self._problem

    def to_dict(self) -> dict:
        """This config as one flat config-file entry, which :meth:`from_dict` reads back."""
        params = asdict(self.params)
        return {
            "problem": self.problem,
            "starts": [s.tolist() for s in self.starts],
            "a": self.a,
            **{key: params[key] for key in _SOLVER_KEYS},
            "seed": self.seed,
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, entry: dict) -> "ExperimentConfig":
        """Build a config from one flat config-file entry.

        ``problem`` and ``starts`` are required; every other key is optional
        and defaults to the ``ExperimentConfig`` or ``SolverParams`` value.
        Raises ``ValueError`` naming the key on an unknown key; the values are
        checked by the two constructors, as for every config.
        """
        if not isinstance(entry, dict):
            raise ValueError("each experiment must be a JSON object")
        if "problem" not in entry or "starts" not in entry:
            raise ValueError("each experiment needs 'problem' and 'starts'")
        for key in entry:
            if key not in _ENTRY_KEYS:
                raise ValueError(f"unknown config key {key!r}")
        values = dict(entry)
        params = SolverParams(**{k: values.pop(k) for k in _SOLVER_KEYS if k in values})
        return cls(params=params, **values)


@dataclass
class ResultRow:
    """Flat view of one solve, mirroring the run report fields."""

    start: np.ndarray
    iterations: int
    operator_evals: int
    wall_time_s: float
    terminal_point: np.ndarray
    stop_reason: StopReason
    certificate: StopCertificate | None = None

    @classmethod
    def from_report(cls, start: np.ndarray, report: RunReport) -> "ResultRow":
        return cls(
            start=np.array(start),
            iterations=report.counters.outer_iters,
            operator_evals=report.counters.operator_evals,
            wall_time_s=report.wall_time_s,
            terminal_point=np.array(report.terminal_point),
            stop_reason=report.stop_reason,
            certificate=report.terminal_certificate,
        )


def run_reports(config: ExperimentConfig) -> list[RunReport]:
    """Solve every start of the experiment with the config's solver parameters,
    on the problem the config built and keeps (``build_problem``)."""
    problem = config.build_problem()
    return [solve(problem, start, config.params) for start in config.starts]


def run_experiment(config: ExperimentConfig) -> list[ResultRow]:
    """Run the experiment and flatten the reports into result rows."""
    reports = run_reports(config)
    return [
        ResultRow.from_report(start, report)
        for start, report in zip(config.starts, reports)
    ]


def _fmt_point(point: np.ndarray) -> str:
    return ";".join(f"{v:.6g}" for v in point)


def _row_dict(row: ResultRow) -> dict:
    out = {
        "x0": list(row.start),
        "iter": row.iterations,
        "nT": row.operator_evals,
        "cpu_s": row.wall_time_s,
        "sol": list(row.terminal_point),
        "stop_reason": row.stop_reason.value,
    }
    if row.certificate is not None:
        out["certificate"] = asdict(row.certificate)
    return out


def _certificate(test, value, tolerance) -> StopCertificate:
    """A row's certificate: ``test`` a string, ``value`` and ``tolerance`` finite reals."""
    if not isinstance(test, str):
        raise ValueError(f"'test' must be a string, not {test!r}")
    return StopCertificate(test, _real("value", value), _real("tolerance", tolerance))


def rows_from_json(text: str) -> list[ResultRow]:
    """Rebuild result rows, in order, from the list of blocks that :func:`emit` writes
    as json, each value read by the rule of ``vifd.sets``: ``x0`` and ``sol``
    through ``as_point``, ``iter`` and ``nT`` as integers of at least 0, ``cpu_s``
    as a finite real, and a ``certificate`` as ``_certificate`` reads it.
    Malformed input raises a ``ValueError`` naming the block and the key."""
    blocks = json.loads(text)
    if not isinstance(blocks, list):
        raise ValueError("expected a json list of {'config', 'rows'} blocks")
    rows = []
    for index, block in enumerate(blocks):
        entries = block.get("rows") if isinstance(block, dict) else None
        if not isinstance(entries, list):
            raise ValueError(f"block {index} must be a json object with a 'rows' list")
        for entry in entries:
            try:
                rows.append(ResultRow(
                    start=_point("x0", entry["x0"]),
                    iterations=_integer("iter", entry["iter"], 0),
                    operator_evals=_integer("nT", entry["nT"], 0),
                    wall_time_s=_real("cpu_s", entry["cpu_s"]),
                    terminal_point=_point("sol", entry["sol"]),
                    stop_reason=StopReason(entry["stop_reason"]),
                    certificate=(_certificate(**entry["certificate"])
                                 if "certificate" in entry else None),
                ))
            except KeyError as exc:
                raise ValueError(f"block {index}: a row lacks the key {exc.args[0]!r}") from None
            except TypeError as exc:
                raise ValueError(f"block {index}: a row or one of its values has the wrong "
                                 f"type ({exc})") from None
            except ValueError as exc:
                raise ValueError(f"block {index}: {exc}") from None
    return rows


def _csv_line(row: ResultRow) -> str:
    return (
        f"{_fmt_point(row.start)},{row.iterations},{row.operator_evals},"
        f"{row.wall_time_s:.6g},{_fmt_point(row.terminal_point)},{row.stop_reason.value}"
    )


def _emit_table(rows, title: str | None) -> str:
    headers = ["x0", "iter(nT)", "cpu_s", "sol", "stop"]
    body = [
        [
            "(" + ", ".join(f"{v:.6g}" for v in row.start) + ")",
            f"{row.iterations}({row.operator_evals})",
            f"{row.wall_time_s:.4g}",
            "(" + ", ".join(f"{v:.6g}" for v in row.terminal_point) + ")",
            row.stop_reason.value,
        ]
        for row in rows
    ]
    widths = [max(len(h), *(len(r[i]) for r in body)) for i, h in enumerate(headers)]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for r in body:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines)


def emit(results: list[tuple[ExperimentConfig, list[ResultRow]]], output_format: str) -> str:
    """Serialize experiments' result rows as one csv, json or aligned-table document.

    ``results`` pairs each config with its rows, in run order. csv has one
    header and a line per row. json is always a list with one
    ``{"config", "rows"}`` block per experiment, even for a single one; each
    ``config`` is the flat entry of :meth:`ExperimentConfig.to_dict`, so a saved
    result records how it was produced and re-runs as a config file. The table
    has one section per experiment, titled by its label.
    """
    if not results:
        raise ValueError("no experiments to emit")
    if output_format == "csv":
        return "\n".join([CSV_HEADER] + [_csv_line(row) for _, rows in results for row in rows])
    if output_format == "json":
        return json.dumps(
            [
                {"config": cfg.to_dict(), "rows": [_row_dict(r) for r in rows]}
                for cfg, rows in results
            ],
            indent=2,
        )
    if output_format == "table":
        return "\n\n".join(_emit_table(rows, cfg.label) for cfg, rows in results)
    raise ValueError(f"output format must be one of {OUTPUT_FORMATS}")


def exit_code_for(rows: list[ResultRow]) -> int:
    """0 when every run stopped at a solution, 2 on iteration caps, 3 on linesearch failure."""
    reasons = {row.stop_reason for row in rows}
    if StopReason.LINESEARCH_FAILURE in reasons:
        return 3
    if StopReason.MAX_ITERATIONS in reasons:
        return 2
    return 0


def preset_configs(name: str) -> list[ExperimentConfig]:
    """Built-in experiment batches covering the four benchmark problems."""
    if name == "table1":
        return [
            ExperimentConfig(
                problem="hs-quasimonotone",
                starts=[
                    [0.0, 1.0], [0.0, 0.0], [1.0, 0.0],
                    [0.5, 0.5], [0.2, 0.7], [0.1, 0.7],
                ],
                params=SolverParams(delta=0.01, theta=0.5, tol_residual=1e-8),
                label="quasimonotone box problem",
            )
        ]
    if name == "table2":
        mk = lambda variant, start, label: ExperimentConfig(
            problem=variant,
            starts=[start],
            params=SolverParams(delta=0.01, theta=0.5, tol_residual=1e-8),
            a=1.0,
            label=label,
        )
        return [
            mk("rho-squared", [0.1], "rho = |x|^2, n = 1"),
            mk("rho-squared", [0.5], "rho = |x|^2, n = 1"),
            mk("rho-squared", [-0.5], "rho = |x|^2, n = 1"),
            mk("rho-norm", [1e-3] * 5, "rho = |x|, n = 5"),
            mk("rho-norm", [-0.1] * 50, "rho = |x|, n = 50"),
            mk("rho-norm", [-0.001] * 100, "rho = |x|, n = 100"),
        ]
    if name == "table3":
        mk = lambda delta, a, starts: ExperimentConfig(
            problem="fractional-simplex",
            starts=starts,
            params=SolverParams(delta=delta, theta=0.25, tol_residual=1e-4),
            a=a,
            seed=0,
            label=f"fractional objective on the simplex, delta = {delta}, a = {a}",
        )
        return [
            mk(0.01, 5.0, [[0.0, 0.0, 5.0, 0.0, 0.0], [0.0, 2.0, 0.0, 2.0, 1.0]]),
            mk(0.5, 5.0, [[0.0, 0.0, 5.0, 0.0, 0.0], [0.0, 2.0, 0.0, 2.0, 1.0]]),
            mk(0.01, 10.0, [[1.0, 1.0, 1.0, 1.0, 6.0], [1.0, 1.0, 6.0, 1.0, 1.0]]),
            mk(0.99, 10.0, [[1.0, 1.0, 1.0, 1.0, 6.0], [1.0, 1.0, 6.0, 1.0, 1.0]]),
        ]
    if name == "table4":
        return [
            ExperimentConfig(
                problem="ray-setvalued",
                starts=[
                    [1.0, math.pi / 2], [0.5, math.pi / 3], [0.1, math.pi / 2],
                    [100.0, math.pi / 2], [0.1, math.pi / 10], [1.0, math.pi / 100],
                    [20.0, math.pi / 6], [10.0, math.pi / 4], [1500.0, math.pi / 8],
                ],
                # the residual tolerance is an exact-zero test here: the run
                # only stops once the trial point coincides with the iterate
                # to machine precision
                params=SolverParams(delta=0.5, theta=0.5, tol_residual=1e-30),
                label="ray-valued operator on the quarter plane",
            )
        ]
    raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")


def configs_from_file(path: str) -> list[ExperimentConfig]:
    """Load one or more experiment configs from a json file.

    The file holds a single entry or a list of entries in the flat schema of
    :meth:`ExperimentConfig.from_dict`, the one ``to_dict`` writes.
    """
    with open(path) as fh:
        payload = json.load(fh)
    entries = payload if isinstance(payload, list) else [payload]
    if not entries:
        raise ValueError(f"{path} holds no experiment")
    return [ExperimentConfig.from_dict(entry) for entry in entries]
