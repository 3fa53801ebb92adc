"""Command-line entry point.

Two verbs:

  bergmanlab run <scenario.json> [...]   execute scenario files
  bergmanlab battery                     run the seeded random battery

The common flag --out selects the output directory; every run writes CSV
files and summary.json there.  Each check is judged against its one limit
in the check table.  The exit status is 0 when every executed check
passes, 1 when any check fails, and 2 on configuration or parse errors,
including an output directory that cannot be created or written.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .battery import max_principle_search, remove_failure_dumps, run_battery
from .errors import BergmanlabError, InvalidScenarioError
from .scenarios import emit_report, load_scenario_file, run_scenario

EXIT_GREEN = 0
EXIT_RED = 1
EXIT_CONFIG = 2
FAILURES_DIR = "failures"  # where a battery dumps failing instances, in --out


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
        seen = set()
        for config in configs:
            if config.scenario_id in seen:
                raise InvalidScenarioError(
                    f"duplicate scenario id {config.scenario_id!r}"
                )
            seen.add(config.scenario_id)
        os.makedirs(args.out, exist_ok=True)
        # A scenario run dumps nothing, so an earlier battery's dumps go.
        remove_failure_dumps(os.path.join(args.out, FAILURES_DIR))
        reports = [run_scenario(c) for c in configs]
    except BergmanlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    written = emit_report(reports, args.out)
    for report in reports:
        for check in report.results:
            mark = "ok" if check.passed else "FAIL"
            print(f"{report.scenario_id}: {check.name} {mark}")
    return _verdict(all(r.green for r in reports), written, args.out)


def _battery_verb(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    dump_dir = os.path.join(args.out, FAILURES_DIR)
    report = run_battery(n_instances=args.n, seed=args.seed, dump_dir=dump_dir)
    for line in report.summary_lines():
        print(line)
    extra = {"battery": report.document()}
    green = report.all_green

    if args.max_principle > 0:
        search = max_principle_search(args.max_principle, seed=args.seed)
        line = (
            f"max principle search: {search.n_instances} instances, "
            f"premises-fail {search.premises_fail}, "
            f"conclusion-holds {search.conclusion_holds}, "
            f"counterexamples {len(search.counterexamples)}, "
            f"candidates {search.candidates}"
        )
        if search.closest_instance is not None:
            line += (
                f", closest approach {search.closest_approach:.3g} "
                f"at instance {search.closest_instance}"
            )
        print(line)
        extra["max_principle_search"] = dataclasses.asdict(search)
        green = green and not search.found_counterexample

    # With no scenario reports, the document's own green would be all([]).
    extra["green"] = green
    return _verdict(green, emit_report([], args.out, extra=extra), args.out)


def _verdict(green: bool, written, out: str) -> int:
    """Print the verdict line and the written paths; return the exit code."""
    print(f"{'green' if green else 'red'}; reports in {out}")
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
