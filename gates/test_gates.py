"""The gates CI runs after tier-1: the lab's outputs against the benchmark
references and the one-at-a-time draws, byte identity of the result files,
and peak-memory bounds.

Run from the repository root:

    PYTHONPATH=src python -m pytest gates -q

They stay outside tier-1's testpaths because they take about 90 s on two
cores.  A gate that reads peak memory, or whose bytes hold only at one BLAS
thread count, runs its workload in a fresh interpreter: a peak counts all
that the process has held, and OpenBLAS reads OPENBLAS_NUM_THREADS when
numpy is imported.
"""

import glob
import json
import os
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [SRC, os.path.join(ROOT, "tests")]

from bergmanlab import battery, max_principle_search, run_battery  # noqa: E402
from bergmanlab.cli import EXIT_RED, main  # noqa: E402
from bergmanlab.scenarios import CSV_FILES  # noqa: E402
from oracles import (  # noqa: E402
    reference_search_draws,
    search_group_row,
    search_row_mismatches,
)

with open(os.path.join(ROOT, "bench", "references.json")) as _fh:
    REFERENCES = json.load(_fh)

SCENARIOS = sorted(glob.glob(os.path.join(ROOT, "scenarios", "*.json")))


def _child(args, one_blas_thread=True):
    """Run python with args from the repository root in a fresh interpreter
    that imports this checkout's package; return its stdout lines.

    With one_blas_thread, OpenBLAS gets one thread, the setting at which
    the gates' bytes and memory bounds are stated.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    if one_blas_thread:
        env["OPENBLAS_NUM_THREADS"] = "1"
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, f"{args} exited {proc.returncode}:\n{proc.stderr}"
    return proc.stdout.splitlines()


@pytest.mark.parametrize("seed", range(200))
def test_search_tallies_match_the_references(seed):
    report = max_principle_search(10_000, seed)
    tallies = {
        "premises_fail": report.premises_fail,
        "conclusion_holds": report.conclusion_holds,
        "counterexamples": len(report.counterexamples),
    }
    reference = REFERENCES["maxprinciple"][str(seed)]
    assert tallies == reference, f"seed {seed}: {tallies} != {reference}"


@pytest.mark.parametrize("seed", range(50))
def test_search_rows_equal_the_one_at_a_time_draws(seed):
    """The search reads its draws off the raw PCG64 words (battery._Words).
    Every row it derives must equal the instance drawn one at a time
    through numpy's public calls, over a round's edge."""
    n = battery.SEARCH_ROUND + 100
    draws = reference_search_draws(n, seed)
    seen, differ = [], []
    for group in battery._search_groups(np.random.default_rng(seed), n):
        for k, i in enumerate(group.index):
            fields = search_row_mismatches(search_group_row(group, k), draws[i])
            if fields:
                differ.append(f"instance {i}: {', '.join(fields)} differ")
            seen.append(-1 if fields else int(i))
    assert sorted(seen) == list(range(n)), (
        f"seed {seed}: rows differ from the {n} draws; " + "; ".join(differ)
    )


# A child's peak resident memory, in MB.  It reads VmHWM, the peak of the
# child's own address space, because ru_maxrss would also count the peak of
# the pytest process that started it: the kernel keeps it across exec.
PEAK_MB = """
def peak_mb():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) / 1024
"""

SEARCH_MEMORY = PEAK_MB + """
from bergmanlab import max_principle_search
max_principle_search(100, 0)
warm = peak_mb()
max_principle_search(10_000, 0)
print(warm, peak_mb() - warm)
"""


def test_search_peak_memory_rises_at_most_3_mb():
    """The search holds one round of draws and one group of a round at a
    time, so its peak memory rises by about 1.2 MB over a 100-draw warm-up
    with one BLAS thread."""
    warm, rise = map(float, _child(["-c", SEARCH_MEMORY])[-1].split())
    assert rise <= 3.0, f"peak RSS {warm:.1f} MB after the warm-up, rise {rise:.2f} MB"


# Seed 1 holds a known red instance (85, monotonicity), so a verdict that
# moves either way shows here.  Seed 18 holds the first resampled draw
# (instance 80), so a change in the resample decision shows too.
@pytest.mark.parametrize("seed", [*range(10), 18])
def test_battery_verdicts_match_the_references(seed):
    report = run_battery(200, seed)
    verdicts = {
        "all_green": report.all_green,
        "red_instances": {str(i): labels for i, labels in report.failures},
    }
    reference = REFERENCES["battery"][str(seed)]
    assert verdicts == reference, f"seed {seed}: {verdicts} != {reference}"


def test_scenario_outputs_match_the_references():
    """bench/run.py exits 0 even when an output leaves bench/references.json;
    its last line counts those items as "failed"."""
    args = ["bench/run.py", "--workload", "scenarios", "--seed", "0"]
    lines = _child([*args, "--seconds", "1", "--trace", "0"], one_blas_thread=False)
    failed = json.loads(lines[-1])["failed"]
    assert failed == 0, "\n".join(lines)


def test_scenario_csvs_are_byte_identical_across_two_runs(tmp_path):
    """README promises byte-identical result files across reruns of the
    same configuration at one BLAS thread count; summary.json holds
    timings, so only the CSVs.  Warnings are errors, so a shipped scenario
    that warns fails here."""
    outs = [tmp_path / run for run in ("first", "second")]
    for out in outs:
        _child(["-W", "error", "-m", "bergmanlab.cli", "run", *SCENARIOS,
                "--out", os.fspath(out)])
    for name in CSV_FILES:
        first, second = ((out / name).read_bytes() for out in outs)
        assert first == second, f"{name} differs between two runs"


DISK_HOMOTOPY_D40 = {
    "id": "disk-homotopy-d40",
    "measure": {"kind": "disk-product", "radius": 2.0, "n_radial": 160,
                "n_angular": 256},
    "span": {"kind": "monomials", "degree": 40},
    "phi": {"family": "gauss", "a": 1.0},
    "psi": {"family": "constant", "c": 0.5},
    "checks": ["homotopy"],
}

HOMOTOPY_RUN = PEAK_MB + """
import sys
from bergmanlab.cli import main
status = main(["run", sys.argv[1], "--out", sys.argv[2]])
print(status, peak_mb())
"""


def test_degree_40_homotopy_is_green_repeatable_and_under_160_mb(tmp_path):
    """The homotopy checks read node values in blocks, so a homotopy
    scenario on the 160x256 disk at degree 40 stays under 160 MB peak RSS
    with one BLAS thread.  Each run reads its own peak."""
    scenario = tmp_path / "disk-homotopy-d40.json"
    scenario.write_text(json.dumps(DISK_HOMOTOPY_D40))
    outs = [tmp_path / f"d40-{run}" for run in ("first", "second")]
    for out in outs:
        line = _child(["-c", HOMOTOPY_RUN, os.fspath(scenario), os.fspath(out)])[-1]
        status, peak_mb = line.split()
        assert int(status) == 0 and float(peak_mb) < 160, (
            f"exit status {status}, peak RSS {float(peak_mb):.1f} MB"
        )
    first, second = ((out / "homotopy.csv").read_bytes() for out in outs)
    assert first == second, "homotopy.csv differs between two runs"


def test_the_red_battery_dump_reruns_red(tmp_path, capsys):
    """The red battery at seed 1 dumps instance 85, and the dump reruns red
    with its homotopy check failing."""
    red = os.fspath(tmp_path / "red")
    main(["battery", "--n", "90", "--seed", "1", "--out", red])
    dump = os.path.join(red, "failures", "battery-failure-85.json")
    capsys.readouterr()
    status = main(["run", dump, "--out", os.fspath(tmp_path / "red-rerun")])
    printed = capsys.readouterr().out
    assert status == EXIT_RED, f"exit status {status}:\n{printed}"
    assert "battery-instance-85: homotopy FAIL" in printed.splitlines(), printed
