"""Command-line entry point.

Two verbs:

  bergmanlab run <scenario.json> [...]   execute scenario files
  bergmanlab battery                     run the seeded random battery

Common flags select the output directory and a uniform multiplier on the
scaled check limits for exploratory runs.  Every run writes CSV files and
summary.json there.  The exit status is 0 when every executed check
passes, 1 when any check fails, and 2 on configuration or parse errors,
including an output directory that cannot be created or written.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .battery import max_principle_search, run_battery
from .errors import BergmanlabError
from .scenarios import emit_report, load_scenario_file, run_scenario

EXIT_GREEN = 0
EXIT_RED = 1
EXIT_CONFIG = 2


def finite_positive_float(text: str) -> float:
    """An argparse type for --tol-scale; argparse reports a ValueError by name."""
    value = float(text)
    if not 0.0 < value < math.inf:
        raise ValueError(text)
    return value


def positive_int(text: str) -> int:
    """An argparse type for --n."""
    value = int(text)
    if value < 1:
        raise ValueError(text)
    return value


def nonnegative_int(text: str) -> int:
    """An argparse type for --seed and --max-principle."""
    value = int(text)
    if value < 0:
        raise ValueError(text)
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bergmanlab",
        description="Kernel laboratory: scenario checks and random batteries.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--out",
        default="reports",
        help="directory for report artifacts (default: reports)",
    )
    common.add_argument(
        "--tol-scale",
        type=finite_positive_float,
        default=1.0,
        help="multiplier on the scaled check limits (default: 1)",
    )

    run_p = sub.add_parser(
        "run", parents=[common], help="execute one or more scenario files"
    )
    run_p.add_argument("files", nargs="+", help="scenario JSON files")

    bat_p = sub.add_parser(
        "battery", parents=[common], help="run the seeded random battery"
    )
    bat_p.add_argument(
        "--n", type=positive_int, default=200, help="instances (default 200)"
    )
    bat_p.add_argument(
        "--seed", type=nonnegative_int, default=0, help="rng seed (default 0)"
    )
    bat_p.add_argument(
        "--max-principle",
        type=nonnegative_int,
        default=0,
        metavar="N",
        help="also run the maximum-principle search over N instances",
    )
    return parser


def _run_verb(args) -> int:
    try:
        configs = [load_scenario_file(path) for path in args.files]
    except BergmanlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    seen = set()
    for config in configs:
        if config.scenario_id in seen:
            print(
                f"error: duplicate scenario id {config.scenario_id!r}",
                file=sys.stderr,
            )
            return EXIT_CONFIG
        seen.add(config.scenario_id)

    os.makedirs(args.out, exist_ok=True)
    try:
        reports = [run_scenario(c, args.tol_scale) for c in configs]
    except BergmanlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    written = emit_report(reports, args.out, extra={"tol_scale": args.tol_scale})
    for report in reports:
        for check in report.results:
            mark = "ok" if check.passed else "FAIL"
            print(f"{report.scenario_id}: {check.name} {mark}")
    green = all(r.green for r in reports)
    print(f"{'green' if green else 'red'}; reports in {args.out}")
    for path in written:
        print(f"  {path}")
    return EXIT_GREEN if green else EXIT_RED


def _battery_verb(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    dump_dir = os.path.join(args.out, "failures")
    report = run_battery(
        n_instances=args.n,
        seed=args.seed,
        dump_dir=dump_dir,
        tol_scale=args.tol_scale,
    )
    for line in report.summary_lines():
        print(line)
    extra = {"battery": report.document()}
    green = report.all_green

    if args.max_principle > 0:
        search = max_principle_search(args.max_principle, seed=args.seed)
        print(
            f"max principle search: {search.n_instances} instances, "
            f"premises-fail {search.premises_fail}, "
            f"conclusion-holds {search.conclusion_holds}, "
            f"counterexamples {len(search.counterexamples)}"
        )
        extra["max_principle_search"] = {
            "n_instances": search.n_instances,
            "seed": search.seed,
            "premises_fail": search.premises_fail,
            "conclusion_holds": search.conclusion_holds,
            "counterexamples": search.counterexamples,
            "elapsed_seconds": search.elapsed_seconds,
        }
        green = green and not search.found_counterexample

    written = emit_report([], args.out, extra=extra)
    print(f"{'green' if green else 'red'}; reports in {args.out}")
    for path in written:
        print(f"  {path}")
    return EXIT_GREEN if green else EXIT_RED


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    verb = _run_verb if args.verb == "run" else _battery_verb
    try:
        return verb(args)
    except OSError as exc:
        # load_scenario_file reports its own OSErrors as scenario errors,
        # so an OSError here comes from writing under --out.
        print(f"error: --out {args.out}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
