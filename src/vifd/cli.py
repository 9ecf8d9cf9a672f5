"""Command line front end: single solves and benchmark batches."""

from __future__ import annotations

import argparse
import sys

from .bench import (
    OUTPUT_FORMATS,
    ExperimentConfig,
    PRESET_NAMES,
    configs_from_file,
    emit,
    exit_code_for,
    preset_configs,
    run_experiment,
)
from .operators import PROBLEM_NAMES
from .qp import InfeasibleSystem, MaxPivots


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit 1, the code of every other input error."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_vector(text: str) -> list[float]:
    """Comma-separated numbers; an empty field is an error, not a dropped coordinate."""
    try:
        return [float(part) for part in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"cannot parse vector {text!r}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="vifd",
        description=(
            "Feasible-direction projection solver for variational inequalities "
            "with set-valued operators."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Flags not given stay out of the entry, so from_dict supplies the
    # ExperimentConfig and SolverParams defaults; each dest is a config key.
    sp = sub.add_parser("solve", help="run one problem from one start point",
                        argument_default=argparse.SUPPRESS)
    sp.add_argument("--problem", required=True, choices=PROBLEM_NAMES)
    sp.add_argument("--x0", required=True, type=_parse_vector,
                    help="comma-separated start point, e.g. 0.5,0.5")
    sp.add_argument("--delta", type=float)
    sp.add_argument("--theta", type=float)
    sp.add_argument("--beta", type=float)
    sp.add_argument("--tol", dest="tol_residual", type=float,
                    help="tolerance on the squared stop residuals")
    sp.add_argument("--max-iter", dest="max_outer_iterations", type=int)
    sp.add_argument("--seed", type=int, help="seed for randomized problem data")
    sp.add_argument("--a", type=float, help="feasible-set scale where applicable")

    bp = sub.add_parser("bench", help="run a preset or configured batch")
    group = bp.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", choices=PRESET_NAMES)
    group.add_argument("--config", help="path to a json experiment file")

    # The format belongs to the run, not to an experiment: it is no config key.
    for p in (sp, bp):
        p.add_argument("--output", choices=OUTPUT_FORMATS, default="table")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "solve":
            entry = {k: v for k, v in vars(args).items() if k not in ("command", "output")}
            entry["starts"] = [entry.pop("x0")]
            configs = [ExperimentConfig.from_dict(entry)]
        elif args.preset:
            configs = preset_configs(args.preset)
        else:
            configs = configs_from_file(args.config)
        results = [(cfg, run_experiment(cfg)) for cfg in configs]
        print(emit(results, args.output))
        return exit_code_for([row for _, rows in results for row in rows])
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (MaxPivots, InfeasibleSystem) as exc:
        print(f"error: projection failed: {exc}", file=sys.stderr)
        return 4
    except FloatingPointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
