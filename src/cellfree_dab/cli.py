"""Command-line front end for the experiment harness.

Exit codes: 0 success, 1 bad arguments or unknown subcommand, 2 runtime
failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import metrics
from .common import MODE_TAGS, SolverOptions
from .harness import (
    SOLVERS,
    ExperimentSpec,
    run_beampattern,
    run_experiment,
)
from .pa_model import PaModel
from .scenario import SystemConfig, desk_profile


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _parse_values(text: str):
    """"a:step:b" (inclusive) or comma-separated numbers."""
    if ":" in text:
        start, step, stop = (float(x) for x in text.split(":"))
        if not np.all(np.isfinite((start, step, stop))):
            raise ValueError(f"range bounds must be finite: {text!r}")
        if step <= 0:
            raise ValueError("step must be positive")
        n = int(np.floor((stop - start) / step + 1e-9)) + 1
        if n < 1:
            raise ValueError(f"empty value range {text!r}")
        return tuple(start + step * i for i in range(n))
    return tuple(float(x) for x in text.split(","))


def _counts(values):
    """Station or antenna counts: whole numbers, never truncated."""
    for v in values:
        if not float(v).is_integer():
            raise ValueError(f"station and antenna counts must be whole "
                             f"numbers, got {v!r}")
    return tuple(int(v) for v in values)


def _load_config(args) -> SystemConfig:
    if args.config:
        with open(args.config) as fh:
            cfg = SystemConfig.from_json(fh.read())
    else:
        cfg = desk_profile()
    doc = json.loads(cfg.to_json())
    if args.seed is not None:
        doc["rng_seed"] = args.seed
    return SystemConfig.from_json(json.dumps(doc))


def _add_common(sub):
    sub.add_argument("--config", help="scenario JSON file")
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--out", default="out")
    sub.add_argument("--trials", type=int, default=20)
    sub.add_argument("--solver", choices=[*SOLVERS, "all"], default="all")
    sub.add_argument("--mode", choices=[*MODE_TAGS, "all"], default="all")


def _solvers(args):
    return SOLVERS if args.solver == "all" else (args.solver,)


def _modes(args):
    return MODE_TAGS if args.mode == "all" else (args.mode,)


def build_parser() -> _Parser:
    parser = _Parser(prog="cellfree-dab",
                     description="Distortion-aware beamforming experiments")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("convergence", help="per-iteration solver traces")
    _add_common(p)

    p = sub.add_parser("sweep", help="sum-rate sweeps over pt/bs/nt")
    _add_common(p)
    p.add_argument("--var", choices=["pt", "bs", "nt"], required=True)
    p.add_argument("--values", required=True,
                   help='"start:step:stop" or comma list (pt in dBm)')

    p = sub.add_parser("beampattern", help="per-BS radiation pattern CSVs")
    _add_common(p)

    p = sub.add_parser("overhead", help="backhaul exchange counts")
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--B", type=int, required=True)
    p.add_argument("--iters", type=int, required=True)

    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1

    try:
        if args.command == "overhead":
            ring = metrics.overhead_ring(args.K, args.iters)
            _, _, star = metrics.overhead_star(args.B, args.K, args.iters)
            print(f"ring {ring}")
            print(f"star {star}")
            return 0

        cfg = _load_config(args)
        if args.command == "convergence":
            spec = ExperimentSpec(scenario=cfg, solvers=_solvers(args),
                                  modes=_modes(args), trials=args.trials,
                                  output_dir=args.out)
            manifest = run_experiment(spec)
            print(f"wrote {len(manifest['files'])} files to {args.out}")
            return 0

        if args.command == "sweep":
            values = _parse_values(args.values)
            if args.var in ("bs", "nt"):
                values = _counts(values)
            spec = ExperimentSpec(scenario=cfg, solvers=_solvers(args),
                                  modes=_modes(args), sweep_var=args.var,
                                  sweep_values=values, trials=args.trials,
                                  output_dir=args.out)
            run_experiment(spec)
            print(f"wrote summary.csv to {args.out}")
            return 0

        if args.command == "beampattern":
            solver = "ring" if args.solver == "all" else args.solver
            result = run_beampattern(cfg, PaModel.reference(), SolverOptions(),
                                     args.out, solver=solver,
                                     modes=_modes(args))
            print(f"wrote {len(result['files'])} pattern files to {args.out}")
            return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2
    return 1


def main() -> None:
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
