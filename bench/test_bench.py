"""Tests of the benchmark itself.

Run from the repository root:

    python -m pytest bench/test_bench.py -q

They check that tracing rebinds every alias of a layer function and puts
each one back, that traced and untraced passes give equal outputs, that the
seed-0 build counts repeat exactly, and that the output checks flag what
they should.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

import bergmanlab  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

REFERENCES = workloads.load_references()


def _package_bindings() -> dict:
    return {
        (mod_name, attr): value
        for mod_name, module in list(sys.modules.items())
        if module is not None
        and (mod_name == "bergmanlab" or mod_name.startswith("bergmanlab."))
        for attr, value in vars(module).items()
        if callable(value)
    }


def _traced_passes(workload, seed, out_dir, passes):
    tracer = tracing.Tracer()
    inputs = workload.prepare(ROOT, seed, str(out_dir))
    reference = workload.reference(REFERENCES, seed)
    records = []
    for p in range(passes):
        tracer.begin_pass(p)
        with tracer:
            records.append(run.one_pass(workload, inputs, reference))
    return tracer, records


def test_tracing_rebinds_every_alias_and_restores_it(tmp_path):
    before = _package_bindings()
    original = bergmanlab.kernels.build_space
    tracer = tracing.Tracer()
    with pytest.raises(ZeroDivisionError):
        with tracer:
            rebound = {(m.__name__, attr) for m, attr, _ in tracer.bindings}
            for module in ("bergmanlab", "bergmanlab.kernels", "bergmanlab.comparison",
                           "bergmanlab.homotopy", "bergmanlab.battery",
                           "bergmanlab.quantization", "bergmanlab.scenarios"):
                assert (module, "build_space") in rebound
                assert sys.modules[module].build_space is not original
            assert ("bergmanlab.cli", "run_scenario") in rebound
            run.one_pass(workloads.Battery(), 0, None)
            1 / 0
    after = _package_bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []
    assert tracer.counters[0].build_keys


@pytest.mark.parametrize(
    "workload",
    [workloads.Battery(), workloads.MaxPrinciple(), workloads.Scenarios()],
    ids=lambda w: w.name,
)
def test_traced_and_untraced_passes_give_equal_outputs(workload, tmp_path):
    inputs = workload.prepare(ROOT, 3, str(tmp_path))
    plain = run.one_pass(workload, inputs, None)
    tracer = tracing.Tracer()
    tracer.begin_pass(0)
    with tracer:
        traced = run.one_pass(workload, inputs, None)
    assert plain.summary is not None
    assert json.dumps(traced.summary, sort_keys=True) == json.dumps(
        plain.summary, sort_keys=True
    )


@pytest.mark.parametrize(
    "workload, calls, distinct",
    [(workloads.Battery(), 9400, 3795), (workloads.MaxPrinciple(), 20000, 20000),
     (workloads.Scenarios(), 152, 78)],
    ids=lambda v: getattr(v, "name", str(v)),
)
def test_seed0_build_counts_repeat_exactly(workload, calls, distinct, tmp_path):
    tracer, records = _traced_passes(workload, 0, tmp_path, passes=2)
    name, _, pass_id, _, _, _ = tracer.spans()
    build = tracer.names.index("kernels.build_space")
    for p, record in enumerate(records):
        assert record.outcome.failed == 0, record.outcome.problems
        assert int(((name == build) & (pass_id == p)).sum()) == calls
        assert len(tracer.counters[p].build_keys) == distinct


def test_reference_comparison_rules():
    close = workloads.close
    assert close(1.0, 1.0 + 1e-12)
    assert not close(1.0, 1.0 + 1e-8)
    assert close(0.0, 5e-13) and not close(0.0, 5e-12)
    assert close(float("nan"), float("nan"))
    assert not close(3, 4) and not close(3, 3.0) and not close(True, 1)
    assert close({"a": 1}, {"a": 1, "added_later": 2})
    assert not close({"a": 1, "b": 2}, {"a": 1})
    cells = [workloads.typed_cell(c) for c in ("true", "12", "-0.5", "nan", "red")]
    assert cells[:3] == [True, 12, -0.5] and cells[3] != cells[3] and cells[4] == "red"


def _scenario_summary():
    ref = REFERENCES["scenarios"]
    return {"exit_code": 0, "stdout": "", "summary": copy.deepcopy(ref["summary"]),
            "csv": copy.deepcopy(ref["csv"])}


def test_scenario_check_flags_a_changed_real_cell_but_not_an_ulp():
    workload = workloads.Scenarios()
    reference = REFERENCES["scenarios"]
    assert workload.check(_scenario_summary(), reference).failed == 0

    rows = reference["csv"]["homotopy.csv"]
    column = rows[0].index("G")
    for scale, expect_failed in ((1 + 1e-15, False), (1 + 1e-6, True)):
        summary = _scenario_summary()
        row = summary["csv"]["homotopy.csv"][1]
        row[column] = repr(float(row[column]) * scale)
        outcome = workload.check(summary, reference)
        assert (outcome.failed > 0) is expect_failed
        if expect_failed:
            assert outcome.failed == 1
            assert outcome.problems == [f"{row[0]}: homotopy differs from reference"]


def test_scenario_check_flags_a_changed_discrete_field_and_a_red_check():
    workload = workloads.Scenarios()
    reference = REFERENCES["scenarios"]
    summary = _scenario_summary()
    summary["summary"]["scenarios"][0]["checks"][0]["metrics"]["phi_rank"] += 1
    assert workload.check(summary, reference).failed == 1
    summary = _scenario_summary()
    summary["summary"]["scenarios"][1]["checks"][0]["passed"] = False
    summary["exit_code"] = 1
    assert workload.check(summary, reference).failed == 1


def test_battery_check_counts_only_red_verdicts_the_reference_lacks():
    workload = workloads.Battery()
    summary = {"all_green": False, "red_instances": {"85": ["monotonicity"]}}
    known = {"all_green": False, "red_instances": {"85": ["monotonicity"]}}
    clean = {"all_green": True, "red_instances": {}}
    outcome = workload.check(summary, known)
    assert (outcome.failed, outcome.known_red) == (0, 1) and outcome.notes
    outcome = workload.check(summary, clean)
    assert (outcome.failed, outcome.known_red) == (1, 0)
    outcome = workload.check(summary, None)
    assert (outcome.failed, outcome.known_red) == (1, 0)
    assert workload.check({"all_green": True, "red_instances": {}}, known).failed == 0
    order_red = {"all_green": False, "red_instances": {}}
    outcome = workload.check(order_red, order_red)
    assert (outcome.failed, outcome.known_red) == (0, 200)
    outcome = workload.check(order_red, clean)
    assert (outcome.failed, outcome.known_red) == (200, 0)


def test_maxprinciple_check_fails_every_item_on_changed_tallies():
    workload = workloads.MaxPrinciple()
    reference = REFERENCES["maxprinciple"]["0"]
    assert workload.check(dict(reference), reference).failed == 0
    moved = dict(reference, premises_fail=reference["premises_fail"] - 1,
                 conclusion_holds=reference["conclusion_holds"] + 1)
    assert workload.check(moved, reference).failed == workload.n_instances


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == (
        run.reported_per_layer_units()
    )
    # The battery is red at some seeds, so it runs only by hand (README).
    assert [w["name"] for w in spec["workloads"]] == ["maxprinciple", "scenarios"]
    assert set(run.per_layer_units()) - set(run.reported_per_layer_units()) == set(
        run.BATTERY_ONLY
    )


def test_runner_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        BENCH_DIR,
        tmp_path / "bench",
        ignore=shutil.ignore_patterns("__pycache__", ".out-*"),
    )
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "battery", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_runner_checks_verdicts_only_at_a_seed_without_a_reference():
    seed = workloads.REFERENCE_SEEDS
    for cls in (workloads.Battery, workloads.MaxPrinciple):
        workload = cls()
        assert workload.prepare(ROOT, seed, None) == seed
        assert workload.reference(REFERENCES, seed) is None
        assert workload.reference(REFERENCES, seed - 1) is not None
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "battery", "--seed", str(seed),
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert f"reference: none stored for seed {seed}; checking verdicts only" in lines
    checks = json.loads(lines[-2].removeprefix("checks: "))
    assert checks == {"reference": "none", "known_red": 0}
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
