"""Command-line front end: solve, penalty and oracle subcommands."""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .harness import ExperimentSpec, format_demand, format_report, load_problem, run_experiment
from .model import DispatchError, InfeasibleError
from .penalty import penalty_factors_all

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
                       help="override the iteration/generation budget")
    solve.add_argument("--seed", type=int, default=0, help="base seed; trial i uses seed+i")
    solve.add_argument("--k1", type=int, choices=(0, 1), default=1)
    solve.add_argument("--k2", type=int, choices=(0, 1), default=1)
    solve.add_argument("--workers", type=int, default=0,
                       help="parallel trial workers; 0 runs serially")
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
        iterations=args.iterations,
        workers=args.workers,
        out_dir=args.out,
    )
    for report in run_experiment(spec):
        print(format_report(report))
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

    problem = load_problem(args.problem, args.demand, args.k1, args.k2)
    h = penalty_factors_all(problem) if args.k2 else None
    result = lambda_solve(problem, h)
    solution = result.solution(problem, h)
    print(f"lambda = {result.lambda_:.6g} $/MWh ({result.iterations} bisection steps)")
    for i, p in enumerate(solution.powers):
        print(f"P{i + 1} = {p:.4f} MW")
    for gas, value in solution.emissions.items():
        print(f"E_{gas.value} = {value:.2f} kg/h")
    print(f"FC = {solution.fuel_cost:.2f} $/h")
    print(f"EC = {solution.emission_cost:.2f} $/h")
    print(f"TC = {solution.total_cost:.2f} $/h")
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"solve": _cmd_solve, "penalty": _cmd_penalty, "oracle": _cmd_oracle}
    try:
        return handlers[args.command](args)
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (DispatchError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
