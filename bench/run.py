#!/usr/bin/env python3
"""Benchmark of bergmanlab: three workloads, timed end to end and per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload maxprinciple --seed 0 --seconds 45 --trace 0
    python3 bench/run.py --workload all

Workloads (see ``workloads.py``): ``battery`` is ``run_battery(200, seed)``,
``maxprinciple`` is ``max_principle_search(10_000, seed)`` and
``scenarios`` is ``bergmanlab run`` on the shipped scenario files, called
in process.  BENCHMARK.json lists the last two; the battery is red at some
seeds, so it is run by hand.  One process carries the load.  Each pass calls the workload's
entry point once; one warm-up pass comes first and is not timed.  Passes
repeat until ``--seconds`` is used up.

With ``--trace 0`` the last line of standard output is a JSON object whose
metrics are the end-to-end ones: ``setup_s`` (the median, over fresh
processes started one after each pass, of the time to import bergmanlab
and build the pass inputs), ``pass_p50_s``, ``items_per_s`` and
``peak_rss_mb``.  With ``--trace 1`` untraced and traced
passes alternate, and the metrics are the per-layer ones from the traced
passes (``tracing.py``) plus the tracing overhead.  Every pass's output is
checked against its verdicts and against ``references.json``; ``failed``
counts the items that did not pass.  The line before the result, starting
``checks:``, is a JSON object that says whether a reference was stored for
the seed and counts the known red items: items that are red and red in the
reference too, so not failed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("battery", "maxprinciple", "scenarios")

# BLAS threads per workload, capped at the cores available.  The battery
# and the search factor matrices of order at most 10, where a second thread
# only adds noise; the scenario Grams (up to 40 960 x 128) are steadier and
# faster with two.
BLAS_THREADS = {"battery": 1, "maxprinciple": 1, "scenarios": 2}
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
MIN_PASSES = 3
MIN_TRACED_PASSES = 2

END_TO_END = (
    ("setup_s", "s"),
    ("pass_p50_s", "s"),
    ("items_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

# Per-layer metrics: (layer span, statistic, unit).  "calls" and "self_s"
# are medians over traced passes of the per-pass call count and self time.
LAYER_STATS = (
    ("kernels.build_space", "calls", "count"),
    ("kernels.orthonormal_basis", "calls", "count"),
    ("kernels.orthonormal_basis", "self_s", "s"),
    ("kernels.assemble_gram", "calls", "count"),
    ("kernels.assemble_gram", "self_s", "s"),
    ("kernels.orthonormal_node_values", "self_s", "s"),
    ("kernels.bergman_density_from_space", "self_s", "s"),
    ("kernels.reproducing_residual", "calls", "count"),
    ("kernels.reproducing_residual", "self_s", "s"),
    ("kernels.kernel_matrix", "calls", "count"),
    ("kernels.kernel_matrix", "self_s", "s"),
    ("kernels.retained_spread", "self_s", "s"),
    ("battery.generate_instance", "self_s", "s"),
    ("homotopy.g_derivative_forms", "self_s", "s"),
    ("homotopy.g_of_t", "calls", "count"),
    ("homotopy.g_of_t", "self_s", "s"),
    ("homotopy.monotonicity_sweep", "self_s", "s"),
    ("homotopy.difference_quotient_bound_check", "self_s", "s"),
    ("homotopy.l2_difference_bound_check", "self_s", "s"),
    ("comparison.shifted_comparison_sweep", "self_s", "s"),
    ("comparison.sandwich_check", "self_s", "s"),
    ("comparison.comparison_integrals", "self_s", "s"),
    ("comparison.max_principle_check", "self_s", "s"),
    ("quantization.tcz_convergence_report", "self_s", "s"),
    ("spans.monomial_span", "self_s", "s"),
    ("scenarios.load_scenario_file", "self_s", "s"),
    ("scenarios.run_scenario", "self_s", "s"),
    ("scenarios.emit_report", "self_s", "s"),
)
# The two disk scenarios differ in size (24 x 48 nodes at degree 8, and
# 160 x 256 nodes at degree up to 127), so their heavy layers read apart.
# Only disk-strict-pair computes a reproducing residual.
SCENARIO_LAYERS = {
    "disk-fock-scaling": (
        "kernels.assemble_gram",
        "kernels.orthonormal_basis",
        "kernels.orthonormal_node_values",
    ),
    "disk-strict-pair": (
        "kernels.assemble_gram",
        "kernels.orthonormal_basis",
        "kernels.orthonormal_node_values",
        "kernels.reproducing_residual",
    ),
}
COUNTED = (
    ("kernels.build_space.distinct", "count"),
    ("kernels.build_space.reuse_ratio", "ratio"),
    ("kernels.assemble_gram.gflop", "GFLOP"),
    ("kernels.assemble_gram.gbyte", "GB"),
    ("battery.generate_instance.draws", "count"),
    ("battery.generate_instance.acceptance", "ratio"),
    ("battery.check_instance.p50_ms", "ms"),
    ("battery.check_instance.p95_ms", "ms"),
    ("scenarios.emit_report.bytes", "B"),
    ("process.minflt", "count"),
    ("process.sys_s", "s"),
    ("process.user_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


# Metrics of layers that only the battery workload calls.  The battery is
# not a workload of BENCHMARK.json (bench/README.md says why), so these are
# printed in the table of a traced run but left out of its result line.
BATTERY_ONLY = (
    "kernels.retained_spread.self_s",
    "battery.generate_instance.self_s",
    "homotopy.monotonicity_sweep.self_s",
    "battery.generate_instance.draws",
    "battery.generate_instance.acceptance",
    "battery.check_instance.p50_ms",
    "battery.check_instance.p95_ms",
)


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {f"{layer}.{stat}": unit for layer, stat, unit in LAYER_STATS}
    units.update(COUNTED)
    for sid, layers in SCENARIO_LAYERS.items():
        units[f"{sid}.scenarios.run_scenario.s"] = "s"
        for layer in layers:
            units[f"{sid}.{layer}.self_s"] = "s"
    return units


def reported_per_layer_units() -> dict:
    """The per-layer metrics of the result line: those in BENCHMARK.json."""
    return {m: u for m, u in per_layer_units().items() if m not in BATTERY_ONLY}


PROBE = """
import sys, time
t0 = time.perf_counter()
src, bench, root, name, seed = sys.argv[1:6]
sys.path[:0] = [src, bench]
import bergmanlab
import workloads
workloads.WORKLOADS[name]().prepare(root, int(seed), None)
elapsed = time.perf_counter() - t0
if not bergmanlab.__file__.startswith(src):
    sys.exit(f"bergmanlab imported from {bergmanlab.__file__}, not {src}")
print(repr(elapsed))
"""


class BenchError(Exception):
    """The benchmark cannot run here; it prints no result."""


def setup_time(name: str, seed: int) -> float:
    """Seconds a fresh process takes to import bergmanlab and build the inputs."""
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, SRC, BENCH_DIR, ROOT, name, str(seed)],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


class PassRecord:
    """Wall time, resource use and checked outcome of one pass."""

    def __init__(self, seconds, usage_before, usage_after, summary, outcome):
        self.seconds = seconds
        self.minflt = usage_after.ru_minflt - usage_before.ru_minflt
        self.user_s = usage_after.ru_utime - usage_before.ru_utime
        self.sys_s = usage_after.ru_stime - usage_before.ru_stime
        self.summary = summary
        self.outcome = outcome


def one_pass(workload, inputs, reference) -> PassRecord:
    """Run and time one pass, then check its output outside the timing."""
    from workloads import Outcome

    gc.collect()
    before = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    try:
        raw = workload.run_pass(inputs)
    except Exception:
        # A raising pass is a result to report, not a reason to stop.
        seconds = time.perf_counter() - t0
        after = resource.getrusage(resource.RUSAGE_SELF)
        traceback.print_exc()
        items = workload.items(reference)
        outcome = Outcome(items, items, ["raised"])
        return PassRecord(seconds, before, after, None, outcome)
    seconds = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_SELF)
    summary = workload.collect(inputs, raw)
    outcome = workload.check(summary, reference)
    return PassRecord(seconds, before, after, summary, outcome)


def untraced_passes(workload, inputs, reference, seconds: float, probe):
    """Passes, each followed by a set-up probe, until the time given is used.

    Spreading the probes over the run lets the set-up median see the same
    machine load as the pass median, instead of the load of one moment.
    Returns the passes and the probe times.
    """
    passes, setups = [], []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or (
        time.perf_counter()
        - start
        + statistics.median(p.seconds for p in passes)
        + statistics.median(setups)
        <= seconds
    ):
        passes.append(one_pass(workload, inputs, reference))
        setups.append(probe())
    return passes, setups


def traced_passes(workload, inputs, reference, seconds: float, tracer):
    """Alternate untraced and traced passes; returns both lists."""
    untraced, traced = [], []
    start = time.perf_counter()
    while len(traced) < MIN_TRACED_PASSES or (
        time.perf_counter()
        - start
        + statistics.median(p.seconds for p in untraced)
        + statistics.median(p.seconds for p in traced)
        <= seconds
    ):
        untraced.append(one_pass(workload, inputs, reference))
        tracer.begin_pass(len(traced))
        with tracer:
            traced.append(one_pass(workload, inputs, reference))
    return untraced, traced


def layer_metrics(tracer, untraced: list, traced: list) -> dict:
    """Per-layer metric values from the traced passes' spans and counters."""
    import numpy as np

    name, _, pass_id, scenario, duration, self_time = tracer.spans()
    n_names = len(tracer.names)
    passes = range(len(traced))

    def per_pass(mask_extra=None):
        calls, selfs = [], []
        for p in passes:
            mask = pass_id == p
            if mask_extra is not None:
                mask &= mask_extra
            calls.append(np.bincount(name[mask], minlength=n_names))
            selfs.append(
                np.bincount(name[mask], weights=self_time[mask], minlength=n_names)
            )
        return np.median(calls, axis=0), np.median(selfs, axis=0)

    def nid(layer):
        return tracer.names.index(layer) if layer in tracer.names else None

    calls, selfs = per_pass()
    values = {}
    for layer, stat, _ in LAYER_STATS:
        i = nid(layer)
        table = calls if stat == "calls" else selfs
        value = 0 if i is None else table[i].item()
        values[f"{layer}.{stat}"] = int(value) if stat == "calls" else value

    def median_count(attr):
        return statistics.median_low(getattr(tracer.counters[p], attr) for p in passes)

    build_calls = values["kernels.build_space.calls"]
    distinct = statistics.median_low(len(tracer.counters[p].build_keys) for p in passes)
    values["kernels.build_space.distinct"] = distinct
    values["kernels.build_space.reuse_ratio"] = (
        distinct / build_calls if build_calls else 0
    )
    values["kernels.assemble_gram.gflop"] = median_count("gram_flop") / 1e9
    values["kernels.assemble_gram.gbyte"] = median_count("gram_byte") / 1e9
    draws = median_count("draws")
    values["battery.generate_instance.draws"] = draws
    values["battery.generate_instance.acceptance"] = (
        median_count("instances") / draws if draws else 0
    )
    i = nid("battery.check_instance")
    checks = duration[name == i] * 1e3 if i is not None else np.zeros(0)
    values["battery.check_instance.p50_ms"] = (
        float(np.percentile(checks, 50)) if checks.size else 0
    )
    values["battery.check_instance.p95_ms"] = (
        float(np.percentile(checks, 95)) if checks.size else 0
    )
    values["scenarios.emit_report.bytes"] = median_count("emit_bytes")
    values["process.minflt"] = statistics.median_low(p.minflt for p in untraced)
    values["process.sys_s"] = statistics.median(p.sys_s for p in untraced)
    values["process.user_s"] = statistics.median(p.user_s for p in untraced)
    values["trace.overhead_ratio"] = statistics.median(
        p.seconds for p in traced
    ) / statistics.median(p.seconds for p in untraced)

    scenario_ids = {sid: i for i, sid in enumerate(tracer.scenario_names)}
    for sid, layers in SCENARIO_LAYERS.items():
        in_scenario = scenario == scenario_ids.get(sid, -2)  # -2 marks no span
        s_calls, s_selfs = per_pass(in_scenario)
        i = nid("scenarios.run_scenario")
        run_s = [
            duration[(pass_id == p) & in_scenario & (name == i)].sum() for p in passes
        ]
        values[f"{sid}.scenarios.run_scenario.s"] = float(statistics.median(run_s))
        for layer in layers:
            j = nid(layer)
            values[f"{sid}.{layer}.self_s"] = 0 if j is None else s_selfs[j].item()
    return values


def span_table(tracer, n_passes: int) -> list:
    """Lines of calls and self time per pass for every traced name."""
    import numpy as np

    name, _, _, _, duration, self_time = tracer.spans()
    n = len(tracer.names)
    calls = np.bincount(name, minlength=n) / n_passes
    selfs = np.bincount(name, weights=self_time, minlength=n) / n_passes
    total = np.bincount(name, weights=duration, minlength=n) / n_passes
    lines = [
        f"  {'span':<45} {'calls/pass':>11} {'self s/pass':>12} {'total s/pass':>13}"
    ]
    for i in np.argsort(-selfs):
        if calls[i]:
            lines.append(
                f"  {tracer.names[i]:<45} {calls[i]:>11.0f} "
                f"{selfs[i]:>12.4f} {total[i]:>13.4f}"
            )
    return lines


def machine_block() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    caches = []
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(cache_dir)):
            if entry.startswith("index"):
                fields = {}
                for key in ("level", "type", "size"):
                    with open(os.path.join(cache_dir, entry, key)) as fh:
                        fields[key] = fh.read().strip()
                caches.append(f"L{fields['level']} {fields['type']} {fields['size']}")
    except OSError:
        caches.append("unavailable")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "caches": caches,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    nproc = len(os.sched_getaffinity(0))
    threads = min(BLAS_THREADS[name], nproc)
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    if not os.path.isfile(os.path.join(SRC, "bergmanlab", "__init__.py")):
        raise BenchError(f"{ROOT} holds no bergmanlab sources under src/")
    sys.path[:0] = [SRC, BENCH_DIR]
    import bergmanlab

    if not bergmanlab.__file__.startswith(SRC):
        raise BenchError(f"bergmanlab imported from {bergmanlab.__file__}, not {SRC}")
    import workloads
    from tracing import Tracer

    workload = workloads.WORKLOADS[name]()
    reference = workload.reference(workloads.load_references(), seed)
    print(f"workload: {name}, seed {seed}, {seconds:g} s, trace {int(trace)}, "
          f"{threads} BLAS thread(s), items are {workload.unit}s")
    if name == "scenarios":
        print("reference: shipped scenario files; the seed does not change the inputs")
    elif reference is None:
        print(f"reference: none stored for seed {seed}; checking verdicts only")
    else:
        print(f"reference: stored for seed {seed}")
    print("machine: " + json.dumps(machine_block(), sort_keys=True))

    if not trace:
        # The first fresh process compiles the package's bytecode in a new
        # checkout and fills the file cache; later ones do not, so it is
        # not counted.
        setup_time(name, seed)
    with tempfile.TemporaryDirectory(prefix=".out-", dir=BENCH_DIR) as out_dir:
        inputs = workload.prepare(ROOT, seed, out_dir)
        warm = one_pass(workload, inputs, reference)
        if trace:
            tracer = Tracer()
            untraced, traced = traced_passes(
                workload, inputs, reference, seconds, tracer
            )
            timed = untraced + traced
        else:
            timed, setup = untraced_passes(
                workload, inputs, reference, seconds, lambda: setup_time(name, seed)
            )

    records = [warm] + timed
    attempted = sum(r.outcome.items for r in records)
    failed = sum(r.outcome.failed for r in records)
    known_red = sum(r.outcome.known_red for r in records)
    problems = sorted({p for r in records for p in r.outcome.problems})
    if trace:
        summaries = {json.dumps(r.summary, sort_keys=True) for r in records}
        if len(summaries) != 1:
            problems.append("traced and untraced passes gave different outputs")

    print(f"warm-up pass: {warm.seconds:.4f} s (not timed)")
    groups = [("untraced", timed)]
    if trace:
        groups = [("untraced", untraced), ("traced", traced)]
    for label, group in groups:
        q1, q2, q3 = statistics.quantiles([p.seconds for p in group], n=4)
        print(
            f"{label} passes: n={len(group)} "
            f"q1={q1:.4f} s median={q2:.4f} s q3={q3:.4f} s"
        )
    print(
        f"fail_ratio: {failed / attempted:g} "
        f"({failed} of {attempted} {workload.unit}s failed; "
        f"{known_red} known red)"
    )
    for problem in problems:
        print(f"problem: {problem}")
    for note in sorted({n for r in records for n in r.outcome.notes}):
        print(f"note: {note}")

    if trace:
        units = per_layer_units()
        reported = reported_per_layer_units()
        values = layer_metrics(tracer, untraced, traced)
        samples = {}
        print(f"spans per traced pass ({len(traced)} passes):")
        for line in span_table(tracer, len(traced)):
            print(line)
    else:
        units = reported = dict(END_TO_END)
        good = sum(r.outcome.items - r.outcome.failed for r in timed)
        values = {
            "setup_s": statistics.median(setup),
            "pass_p50_s": statistics.median(p.seconds for p in timed),
            "items_per_s": good / sum(p.seconds for p in timed),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        probes = " ".join(f"{t:.4f}" for t in setup)
        print(f"setup probes: n={len(setup)} {probes} s")
        samples = {
            "setup_s": f"median of {len(setup)} processes",
            "pass_p50_s": f"median of {len(timed)} passes",
            "items_per_s": f"{good} {workload.unit}s in {len(timed)} passes",
            "peak_rss_mb": "1 process",
        }
    for metric, unit in units.items():
        note = samples.get(metric, "")
        print(f"  {metric:<58} {values[metric]:>14.6g} {unit:<6} {note}".rstrip())
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": values[m], "unit": u} for m, u in reported.items()},
    }
    print("checks: " + json.dumps({
        "reference": "none" if reference is None else "stored",
        "known_red": known_red,
    }))
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process; one combined table and result.

    The combined result also sums the known red items of the workloads.
    """
    combined = {
        "correct": True, "attempted": 0, "failed": 0, "known_red": 0, "metrics": {}
    }
    rows = []
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [
                sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds),
                "--trace", str(int(trace)),
            ],
            capture_output=True,
            text=True,
            timeout=600,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        checks = json.loads(lines[-2].removeprefix("checks: "))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["known_red"] += checks["known_red"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
        rows.append((name, result))
    names = list(rows[0][1]["metrics"])
    print(f"{'workload':<14}" + "".join(
        f"{m + ' (' + rows[0][1]['metrics'][m]['unit'] + ')':>22}" for m in names
    ) + f"{'fail_ratio':>12}")
    for name, result in rows:
        print(f"{name:<14}" + "".join(
            f"{result['metrics'][m]['value']:>22.6g}" for m in names
        ) + f"{result['failed'] / result['attempted']:>12g}")
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    try:
        if args.workload == "all":
            return run_all(args.seed, args.seconds, bool(args.trace))
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
