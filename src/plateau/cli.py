"""Command line interface: solve scenarios, check surfaces, run the oracle."""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .oracle import OracleConfig, isoperimetric_scan
from .scenarios import (
    DIAGNOSTIC_NAMES,
    build_problem,
    check_surface,
    load_scenario,
    parse_diagnostics,
    run,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plateau",
        description="Minimum-weight spanning surfaces on cubical grids",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run the solver on a scenario file")
    p_solve.add_argument("scenario")
    p_solve.add_argument("--out", metavar="DIR", default=None)
    p_solve.add_argument("--mesh", action="store_true")
    p_solve.add_argument(
        "--diagnostics",
        default=None,
        help="all, none, or a comma separated subset of "
        + ",".join(DIAGNOSTIC_NAMES),
    )

    p_check = sub.add_parser("check", help="spanning verdict for a surface file")
    p_check.add_argument("surface")
    p_check.add_argument("scenario")

    p_oracle = sub.add_parser("oracle", help="certified exhaustive minimum")
    p_oracle.add_argument("scenario")
    p_oracle.add_argument("--budget", type=int, default=500_000)
    p_oracle.add_argument(
        "--time-limit", type=float, default=540.0, metavar="SECONDS",
        help="wall-clock limit, first checked after the crop and the witness build, "
        "which always finish",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "solve":
            scenario = load_scenario(args.scenario)
            diag = None
            if args.diagnostics is not None:
                diag = parse_diagnostics(args.diagnostics)
            report, _X = run(
                scenario, out_dir=args.out, mesh=args.mesh,
                diagnostics_override=diag,
            )
            print(report.to_json())
            return 0 if report.solve_report.get("spans_verified") else 1
        if args.command == "check":
            scenario = load_scenario(args.scenario)
            verdict = check_surface(args.surface, scenario)
            print("spans" if verdict else "does-not-span")
            return 0 if verdict else 1
        if args.command == "oracle":
            scenario = load_scenario(args.scenario)
            problem = build_problem(scenario)
            cfg = OracleConfig(budget=args.budget, time_limit=args.time_limit)
            result = isoperimetric_scan(problem, cfg)
            import json

            print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
            return 0 if result.optimal else 1
        raise AssertionError(f"unhandled command {args.command!r}")
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
