"""Command-line front end: solve, penalty and oracle subcommands."""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional, Sequence

from .model import DispatchError, InfeasibleError
from .penalty import penalty_factors_all
from .problem_file import format_demand, load_problem

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ceed",
        description="Combined economic-emission dispatch via penalty-factor scalarization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run the population solvers on a problem file")
    solve.add_argument("--problem", required=True, help="problem file (JSON)")
    solve.add_argument(
        "--demand", type=float, action="append",
        help="demand in MW; repeat the flag for several demands (default: the file's demand)",
    )
    solve.add_argument("--solver", choices=("pso", "ga", "both"), default="both")
    solve.add_argument("--trials", type=int, default=50)
    solve.add_argument("--iterations", type=int, default=None,
                       help="step budget of both solvers (PsoConfig.iterations, GaConfig.generations)")
    solve.add_argument("--seed", type=int, default=0, help="base seed; trial i uses seed+i")
    solve.add_argument("--k1", type=int, choices=(0, 1), default=1)
    solve.add_argument("--k2", type=int, choices=(0, 1), default=1)
    solve.add_argument("--out", default=None, help="directory for traces and the report")

    penalty = sub.add_parser("penalty", help="print the per-gas penalty factors")
    penalty.add_argument("--problem", required=True)
    penalty.add_argument("--demand", type=float, help="demand in MW (default: the file's demand)")

    oracle = sub.add_parser("oracle", help="equal-incremental-cost reference dispatch")
    oracle.add_argument("--problem", required=True)
    oracle.add_argument("--demand", type=float, help="demand in MW (default: the file's demand)")
    oracle.add_argument("--k1", type=int, choices=(0, 1), default=1)
    oracle.add_argument("--k2", type=int, choices=(0, 1), default=1)
    return parser


def _cmd_solve(args: argparse.Namespace) -> int:
    from . import ga, pso
    from .harness import ExperimentSpec, export_trace, format_report, run_experiment

    # without --demand, load_problem reads the file's demand or says it has none
    demands = args.demand or [load_problem(args.problem).demand]
    spec = ExperimentSpec(
        problem_path=args.problem,
        demands=tuple(demands),
        solver=args.solver,
        trials=args.trials,
        base_seed=args.seed,
        k1=args.k1,
        k2=args.k2,
        pso_config=None if args.iterations is None else pso.PsoConfig(iterations=args.iterations),
        ga_config=None if args.iterations is None else ga.GaConfig(generations=args.iterations),
    )
    # a zero budget leaves every trace empty, and export_trace refuses those
    if args.out is not None and args.iterations == 0:
        raise ValueError(f"{spec.solver_names[0]} has a zero step budget, so there is no trace "
                         f"to write to {args.out}")
    if args.out is not None:  # made before the first trial, so a file in its place fails first
        Path(args.out).mkdir(parents=True, exist_ok=True)
    reports = run_experiment(spec)
    texts = [format_report(report) for report in reports]
    if args.out is not None:
        out = Path(args.out)
        for report in reports:
            stem = f"{report.solver}_pd{format_demand(report.demand)}"
            for trial in report.trials:
                export_trace(trial.trace, out / f"{stem}_trial{trial.index:03d}.csv")
        (out / "report.txt").write_text("\n".join(texts))
    for text in texts:
        print(text)
    return EXIT_OK


def _cmd_penalty(args: argparse.Namespace) -> int:
    problem = load_problem(args.problem, args.demand)
    h = penalty_factors_all(problem)
    print(f"demand = {format_demand(problem.demand)} MW")
    for gas in problem.gases:
        print(f"h_{gas.value} = {h[gas]:.6g} $/kg")
    return EXIT_OK


def _cmd_oracle(args: argparse.Namespace) -> int:
    from .oracle import lambda_solve

    problem = replace(load_problem(args.problem, args.demand), k1=args.k1, k2=args.k2)
    h = penalty_factors_all(problem) if args.k2 else None
    result = lambda_solve(problem, h)
    solution = result.solution(problem, h)
    print(f"lambda = {result.lambda_:.6g} $/MWh "
          f"({result.iterations} bisection steps, residual {result.residual:.3g} MW)")
    for i, p in enumerate(solution.powers):
        print(f"P{i + 1} = {p:.4f} MW")
    for gas, value in solution.emissions.items():
        print(f"E_{gas.value} = {value:.2f} kg/h")
    print(f"FC = {solution.fuel_cost:.2f} $/h")
    print(f"EC = {solution.emission_cost:.2f} $/h")
    print(f"TC = {solution.total_cost:.2f} $/h")
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, and 2 means an infeasible demand here
        return EXIT_ERROR if exc.code else EXIT_OK
    handlers = {"solve": _cmd_solve, "penalty": _cmd_penalty, "oracle": _cmd_oracle}
    try:
        code = handlers[args.command](args)
        sys.stdout.flush()  # a reader that has gone shows here, not in the interpreter's last flush
        return code
    except BrokenPipeError:
        # the reader stopped reading: say nothing, and let the last flush write to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_ERROR
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (DispatchError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
