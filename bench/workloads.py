"""The benchmark's workloads and the checks on their outputs.

Each workload calls one public entry point of bergmanlab once per pass.
``prepare`` builds the pass inputs from the seed, ``run_pass`` is the timed
call, ``collect`` reduces its output to a plain summary outside the timed
region, and ``check`` counts the items that failed: an item fails when its
check is red or its output differs from the stored reference.  An item
that is red in the stored reference too is counted apart, as known red.
When the pass as a whole is red, or differs from the reference in a way no
single item accounts for, every item of the pass counts as failed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import re
from dataclasses import dataclass, field

import bergmanlab.battery
import bergmanlab.cli

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REFERENCES_PATH = os.path.join(BENCH_DIR, "references.json")

# Real output fields are compared to this tolerance, not byte for byte, so
# that ulp-level changes from a reordered computation do not count as
# failures.  Integers, booleans and strings must match exactly.
REAL_RTOL = 1e-9
REAL_ATOL = 1e-12

_INT_CELL = re.compile(r"-?\d+")


@dataclass
class Outcome:
    """Items a pass attempted, how many failed or were known red, and why."""

    items: int
    failed: int
    problems: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    known_red: int = 0


def load_references() -> dict:
    with open(REFERENCES_PATH) as fh:
        return json.load(fh)


def close(reference, value) -> bool:
    """True when value matches the reference under the field rules above.

    Dictionaries match when every key of the reference matches, so fields a
    later version adds to a report are not failures.
    """
    if isinstance(reference, dict):
        return isinstance(value, dict) and all(
            key in value and close(ref, value[key]) for key, ref in reference.items()
        )
    if isinstance(reference, list):
        return (
            isinstance(value, list)
            and len(value) == len(reference)
            and all(close(r, v) for r, v in zip(reference, value))
        )
    if isinstance(reference, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return False
        if math.isnan(reference) or math.isnan(value):
            return math.isnan(reference) and math.isnan(value)
        if math.isinf(reference):
            return value == reference
        return abs(value - reference) <= REAL_RTOL * abs(reference) + REAL_ATOL
    return type(value) is type(reference) and value == reference


def typed_cell(text: str):
    """A CSV cell as the value it serializes: bool, int, float or str."""
    if text in ("true", "false"):
        return text == "true"
    if _INT_CELL.fullmatch(text):
        return int(text)
    try:
        return float(text)
    except ValueError:
        return text


# references.json stores the outputs of seeds 0 to REFERENCE_SEEDS - 1.  A
# seed outside them draws its own instances and is checked on its verdicts
# only.
REFERENCE_SEEDS = 1000


class _SeededSearch:
    """A workload of n_instances random instances drawn from one seed."""

    name: str
    n_instances: int
    unit = "instance"

    def prepare(self, root: str, seed: int, out_dir: str):
        return seed

    def reference(self, references: dict, seed: int):
        return references[self.name].get(str(seed))

    def items(self, reference) -> int:
        return self.n_instances


class Battery(_SeededSearch):
    """``run_battery``: many small discrete spaces, each rebuilt many times."""

    name = "battery"
    n_instances = 200

    def run_pass(self, seed):
        return bergmanlab.battery.run_battery(n_instances=self.n_instances, seed=seed)

    def collect(self, seed, report) -> dict:
        return {
            "all_green": report.all_green,
            "red_instances": {str(i): labels for i, labels in report.failures},
            "bound_violations": report.bound_violations,
            "sandwich_failures": report.sandwich_failures,
            "worst_trace_error": report.worst_trace_error,
            "worst_reproducing_residual": report.worst_reproducing_residual,
            "worst_comparison_deficit": report.worst_comparison_deficit,
            "worst_three_form_dev": report.worst_three_form_dev,
            "min_sign_split": report.min_sign_split,
            "worst_fd_match_ratio": report.worst_fd_match_ratio,
            "worst_monotonicity_drop": report.worst_monotonicity_drop,
            "worst_endpoint_dev": report.worst_endpoint_dev,
            "order_slope": report.order_slope,
        }

    @staticmethod
    def reference_of(summary: dict) -> dict:
        return {key: summary[key] for key in ("all_green", "red_instances")}

    def check(self, summary: dict, reference) -> Outcome:
        """Red instances fail unless the reference records the same red labels.

        The program is red on some instances at some seeds (its tolerances
        are absolute where roundoff scales with the data).  Those verdicts
        are stored in the reference and counted as known red on every run,
        so that only a change of output counts as a failure.  An instance
        that turns green is reported, not failed.  Without a reference every
        red instance fails.
        """
        red = summary["red_instances"]
        known = reference["red_instances"] if reference is not None else {}
        new_red = sorted((i for i in red if known.get(i) != red[i]), key=int)
        problems = [f"instance {i} red: {', '.join(red[i])}" for i in new_red]
        notes = [
            f"instance {i} red, as in the reference: {', '.join(red[i])}"
            for i in sorted(red, key=int)
            if i not in new_red
        ]
        notes += [
            f"instance {i} green, red in the reference" for i in known if i not in red
        ]
        failed = len(new_red)
        known_red = len(red) - failed
        if not summary["all_green"] and not red:
            if reference is None or reference["all_green"]:
                problems.append("battery red: fd convergence order outside its window")
                failed = self.n_instances
            else:
                notes.append(
                    "battery red, as in the reference: fd convergence order "
                    "outside its window"
                )
                known_red = self.n_instances
        return Outcome(self.n_instances, failed, problems, notes, known_red)


class MaxPrinciple(_SeededSearch):
    """``max_principle_search``: tiny spaces, every build distinct."""

    name = "maxprinciple"
    n_instances = 10_000

    def run_pass(self, seed):
        return bergmanlab.battery.max_principle_search(
            n_instances=self.n_instances, seed=seed
        )

    def collect(self, seed, report) -> dict:
        return {
            "premises_fail": report.premises_fail,
            "conclusion_holds": report.conclusion_holds,
            "counterexamples": len(report.counterexamples),
        }

    @staticmethod
    def reference_of(summary: dict) -> dict:
        return dict(summary)

    def check(self, summary: dict, reference) -> Outcome:
        failed = summary["counterexamples"]
        problems = [f"{failed} counterexamples"] if failed else []
        if reference is not None and not close(reference, summary):
            problems.append(f"tallies {summary} differ from reference {reference}")
            failed = self.n_instances
        return Outcome(self.n_instances, failed, problems)


# The shipped scenario files, pinned so that a scenario added later does not
# silently change this workload.  disk-fock-scaling is the criterion-5
# scaling ladder (40 960 nodes, degree up to 127).
SCENARIO_FILES = (
    "disk-fock-scaling.json",
    "disk-strict-pair.json",
    "maxprinciple-example.json",
    "two-node-reference.json",
)
# Which checks write the rows of each CSV file.
CSV_SOURCES = {
    "comparison.csv": ("comparison", "sweep"),
    "homotopy.csv": ("homotopy",),
    "tcz.csv": ("tcz",),
}


class Scenarios:
    """``bergmanlab run`` on the shipped scenario files, in process."""

    name = "scenarios"
    unit = "check"

    def prepare(self, root: str, seed: int, out_dir: str):
        files = [os.path.join(root, "scenarios", name) for name in SCENARIO_FILES]
        missing = [path for path in files if not os.path.isfile(path)]
        if missing:
            raise FileNotFoundError(f"scenario files missing: {missing}")
        return files, out_dir

    def run_pass(self, inputs):
        files, out_dir = inputs
        with contextlib.redirect_stdout(io.StringIO()) as captured:
            code = bergmanlab.cli.main(["run", *files, "--out", out_dir])
        return code, captured.getvalue()

    def collect(self, inputs, result) -> dict:
        """Read, then remove, the files the pass wrote."""
        _, out_dir = inputs
        code, stdout = result
        summary = None
        tables = {}
        for name in sorted(os.listdir(out_dir)):
            path = os.path.join(out_dir, name)
            if name == "summary.json":
                with open(path) as fh:
                    summary = json.load(fh)
                for scenario in summary.get("scenarios", []):
                    for check in scenario.get("checks", []):
                        check.pop("wall_seconds", None)
                summary.pop("versions", None)
            elif name.endswith(".csv"):
                with open(path, newline="") as fh:
                    tables[name] = list(csv.reader(fh))
            os.remove(path)
        return {"exit_code": code, "stdout": stdout, "summary": summary, "csv": tables}

    def reference(self, references: dict, seed: int):
        return references[self.name]

    def items(self, reference) -> int:
        return _n_checks(reference)

    @staticmethod
    def reference_of(summary: dict) -> dict:
        return {"summary": summary["summary"], "csv": summary["csv"]}

    def check(self, summary: dict, reference) -> Outcome:
        doc = summary["summary"]
        if doc is None:
            return Outcome(
                _n_checks(reference), _n_checks(reference),
                [f"no summary.json; exit code {summary['exit_code']}"],
            )
        checks = [
            (s["scenario_id"], c["name"]) for s in doc["scenarios"] for c in s["checks"]
        ]
        bad = {
            (s["scenario_id"], c["name"])
            for s in doc["scenarios"]
            for c in s["checks"]
            if not c["passed"]
        }
        problems = [f"{sid}: {name} red" for sid, name in sorted(bad)]
        if summary["exit_code"] != (0 if not bad else 1):
            problems.append(f"exit code {summary['exit_code']}")
            bad.update(checks)
        if reference is not None:
            mismatched = _scenario_mismatches(reference, summary, checks)
            problems += [
                f"{sid}: {name} differs from reference"
                for sid, name in sorted(mismatched - bad)
            ]
            bad |= mismatched
        return Outcome(max(len(checks), _n_checks(reference)), len(bad), problems)


def _n_checks(reference) -> int:
    if reference is None:
        return 0
    return sum(len(s["checks"]) for s in reference["summary"]["scenarios"])


def _scenario_mismatches(reference: dict, summary: dict, checks: list) -> set:
    """(scenario id, check) pairs whose summary fields or CSV rows differ."""
    bad = set()
    got = {
        s["scenario_id"]: {c["name"]: c for c in s["checks"]}
        for s in summary["summary"]["scenarios"]
    }
    for scenario in reference["summary"]["scenarios"]:
        sid = scenario["scenario_id"]
        for check in scenario["checks"]:
            if not close(check, got.get(sid, {}).get(check["name"])):
                bad.add((sid, check["name"]))
    declared = {(sid, name) for sid, name in checks}
    for filename, ref_rows in reference["csv"].items():
        rows = summary["csv"].get(filename)
        sources = CSV_SOURCES[filename]
        if rows is None or rows[:1] != ref_rows[:1]:
            bad |= {(sid, name) for sid, name in declared if name in sources}
            continue
        ref_by_id, got_by_id = _rows_by_id(ref_rows), _rows_by_id(rows)
        for sid in set(ref_by_id) | set(got_by_id):
            want = [[typed_cell(c) for c in row] for row in ref_by_id.get(sid, [])]
            have = [[typed_cell(c) for c in row] for row in got_by_id.get(sid, [])]
            if not close(want, have):
                bad |= {(s, n) for s, n in declared if s == sid and n in sources}
    return bad


def _rows_by_id(rows: list) -> dict:
    grouped = {}
    for row in rows[1:]:
        grouped.setdefault(row[0], []).append(row)
    return grouped


WORKLOADS = {w.name: w for w in (Battery, MaxPrinciple, Scenarios)}
