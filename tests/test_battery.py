"""Random-instance battery: generation, checks, aggregation, determinism."""

import json
import math
import os

import numpy as np
import pytest

from bergmanlab import (
    SizeBounds,
    check_instance,
    generate_instance,
    max_principle_search,
    parse_scenario,
    run_battery,
    run_scenario,
)
from bergmanlab.battery import (
    DERIVATIVE_T,
    MONOMIAL_NODE_MARGIN,
    ORDER_STEPS,
    SPREAD_BOUND,
    fit_order_slope,
)
from bergmanlab.homotopy import build_path, weight_at
from bergmanlab.kernels import assemble_gram, retained_spread


def test_generate_instance_respects_bounds():
    rng = np.random.default_rng(0)
    bounds = SizeBounds(max_nodes=20, max_dim=5)
    for i in range(30):
        inst = generate_instance(rng, i, bounds)
        m = inst.measure.n
        assert 2 <= m <= 20
        assert 1 <= inst.span.dim <= 5
        if inst.span.kind == "monomials":
            assert inst.span.dim <= max(1, m - MONOMIAL_NODE_MARGIN)
        path = build_path(inst.phi, inst.psi)
        for t in (0.0, DERIVATIVE_T, 1.0):
            gram = assemble_gram(inst.span, inst.measure, weight_at(path, t))
            assert retained_spread(gram) <= SPREAD_BOUND


def test_generate_instance_deterministic():
    a = generate_instance(np.random.default_rng(42), 0, SizeBounds())
    b = generate_instance(np.random.default_rng(42), 0, SizeBounds())
    assert np.array_equal(a.measure.points, b.measure.points)
    assert np.array_equal(a.span.basis_values, b.span.basis_values)
    assert np.array_equal(a.phi.values, b.phi.values)


def test_check_instance_green_at_default_tolerances():
    rng = np.random.default_rng(1)
    inst = generate_instance(rng, 0, SizeBounds())
    metrics = check_instance(inst)
    assert metrics.failures == []
    assert metrics.rank >= 1
    assert set(metrics.order_errors) == set(ORDER_STEPS)


def test_check_instance_tol_scale_tightens():
    """A microscopic tolerance multiplier must flag roundoff as failure."""
    rng = np.random.default_rng(2)
    inst = generate_instance(rng, 0, SizeBounds())
    metrics = check_instance(inst, tol_scale=1e-12)
    assert metrics.failures


def test_scenario_dict_round_trip():
    rng = np.random.default_rng(3)
    inst = generate_instance(rng, 7, SizeBounds(max_nodes=12, max_dim=3))
    config = parse_scenario(inst.scenario_dict())
    assert config.scenario_id == "battery-instance-7"
    report = run_scenario(config)
    assert report.green


def test_run_battery_green_and_deterministic():
    first = run_battery(n_instances=40, seed=0)
    second = run_battery(n_instances=40, seed=0)
    assert first.all_green
    assert not first.failures
    assert first.bound_violations == 0
    assert first.sandwich_failures == 0
    for field in (
        "worst_trace_error",
        "worst_reproducing_residual",
        "worst_comparison_deficit",
        "worst_three_form_dev",
        "min_sign_split",
        "worst_fd_match_ratio",
        "worst_monotonicity_drop",
        "worst_endpoint_dev",
        "order_slope",
    ):
        assert getattr(first, field) == getattr(second, field), field
    assert first.order_max_errors == second.order_max_errors


def test_run_battery_seed_changes_draws():
    a = run_battery(n_instances=10, seed=0)
    b = run_battery(n_instances=10, seed=1)
    assert a.worst_trace_error != b.worst_trace_error


def test_run_battery_zero_span_degrades_cleanly():
    """Rank-0 spaces turn every check into 0 <= 0 and stay green."""
    report = run_battery(n_instances=15, seed=0, size_bounds=SizeBounds(zero_span=True))
    assert report.all_green
    assert report.order_exact
    assert report.worst_trace_error == 0.0
    assert report.min_sign_split == 0.0


def test_run_battery_dumps_failures(tmp_path):
    dump_dir = os.fspath(tmp_path / "failures")
    report = run_battery(
        n_instances=6, seed=0, dump_dir=dump_dir, tol_scale=1e-12
    )
    assert not report.all_green
    assert report.failures
    assert report.failure_dumps
    for path in report.failure_dumps:
        with open(path) as fh:
            record = json.load(fh)
        rerun = run_scenario(parse_scenario(record))
        assert rerun.green  # failures at 1e-12 scale rerun clean at scale 1


def test_summary_lines_follow_tol_scale():
    """Each line is judged against the scaled limit, as the verdict is."""
    report = run_battery(n_instances=6, seed=0, tol_scale=1e-12)
    assert not report.all_green
    lines = report.summary_lines()
    assert any("FAIL" in line for line in lines)
    trace = next(line for line in lines if "trace identity" in line)
    assert "(limit 1.0e-21) FAIL" in trace


def test_check_instance_agrees_with_its_scenario_rerun():
    """The battery and the scenario runner share one definition per metric."""
    inst = generate_instance(np.random.default_rng(5), 0, SizeBounds())
    metrics = check_instance(inst)
    report = run_scenario(parse_scenario(inst.scenario_dict()))
    by_name = {r.name: r.metrics for r in report.results}
    assert by_name["structural"]["phi_trace_error"] == metrics.values["trace_error"]
    assert (
        by_name["structural"]["phi_reproducing_residual"]
        == metrics.values["reproducing_residual"]
    )
    sweep = run_scenario(
        parse_scenario(inst.scenario_dict(checks=("sweep",)))
    ).results[0]
    assert sweep.metrics["worst_margin_deficit"] == metrics.values["comparison_deficit"]


def test_summary_lines_shape():
    report = run_battery(n_instances=5, seed=0)
    lines = report.summary_lines()
    assert lines[0].startswith("battery: 5 instances, seed 0")
    assert any("trace identity" in line for line in lines)
    assert all("FAIL" not in line for line in lines)


def test_fit_order_slope_quadratic():
    errs = {tau: 3.7 * tau**2 for tau in (1e-2, 1e-3, 1e-4)}
    assert fit_order_slope(errs) == pytest.approx(2.0, abs=1e-9)
    assert math.isnan(fit_order_slope({1e-2: 0.0, 1e-3: 0.0}))
    assert math.isnan(fit_order_slope({1e-2: 1.0}))


def test_max_principle_search_small_run():
    report = max_principle_search(n_instances=400, seed=0)
    assert not report.found_counterexample
    assert report.counterexamples == []
    assert report.premises_fail + report.conclusion_holds == report.n_instances
    again = max_principle_search(n_instances=400, seed=0)
    assert again.premises_fail == report.premises_fail
    assert again.conclusion_holds == report.conclusion_holds


def test_max_principle_search_spans_are_proper():
    """The search must stay inside proper subspaces; with span dimension
    equal to the node count the density forgets the weight entirely and the
    discrete statement is vacuous."""
    report = max_principle_search(n_instances=200, seed=3, max_nodes=4, max_dim=8)
    assert not report.found_counterexample
