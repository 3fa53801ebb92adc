"""Random-instance battery: generation, checks, aggregation, determinism."""

import dataclasses
import json
import math
import os

import numpy as np
import pytest

from bergmanlab import (
    battery,
    check_instance,
    checks,
    comparison,
    generate_instance,
    max_principle_search,
    parse_scenario,
    report_document,
    run_battery,
    run_scenario,
)
from bergmanlab.battery import (
    MONOMIAL_NODE_MARGIN,
    ORDER_STEPS,
    SEARCH_CHUNK,
    SPREAD_BOUND,
    draw_search_instance,
    fit_order_slope,
)
from bergmanlab.comparison import (
    MAXPRINCIPLE_CONCLUSION_HOLDS,
    MAXPRINCIPLE_COUNTEREXAMPLE,
    MAXPRINCIPLE_PREMISES_FAIL,
    max_principle_check,
)
from bergmanlab.homotopy import (
    BOUND_T,
    build_path,
    central_difference,
    g_derivative_forms,
    weight_at,
)
from bergmanlab.kernels import (
    Spaces,
    bergman_densities,
    bergman_density_from_space,
    build_space,
)
from bergmanlab.scenarios import scenario_record
from bergmanlab.spans import tabulated_span


def test_generate_instance_respects_bounds(monkeypatch):
    monkeypatch.setattr(battery, "MAX_NODES", 20)
    monkeypatch.setattr(battery, "MAX_DIM", 5)
    rng = np.random.default_rng(0)
    for i in range(30):
        inst = generate_instance(rng, i)
        m = inst.measure.n
        assert 2 <= m <= 20
        assert 1 <= inst.span.dim <= 5
        if inst.span.kind == "monomials":
            assert inst.span.dim <= max(1, m - MONOMIAL_NODE_MARGIN)
        spaces = Spaces(inst.span, inst.measure)
        path = build_path(spaces, inst.phi, inst.psi)
        for t in (0.0, BOUND_T, 1.0):
            assert spaces(weight_at(path, t)).spread <= SPREAD_BOUND


def test_generate_instance_resamples_an_untame_draw():
    """Instance 80 of seed 18 is the first resampled draw of seeds 0-999."""
    rng = np.random.default_rng(18)
    resamples = [generate_instance(rng, i).resamples for i in range(81)]
    assert resamples == [0] * 80 + [1]


def test_generate_instance_gives_up_after_max_resamples(monkeypatch):
    """Every spread is at least 1, so a bound of 0.5 rejects every draw."""
    monkeypatch.setattr(battery, "SPREAD_BOUND", 0.5)
    message = f"instance 3: no tame draw in {battery.MAX_RESAMPLES} attempts"
    with pytest.raises(RuntimeError, match=message):
        generate_instance(np.random.default_rng(0), 3)


def test_generate_instance_deterministic():
    a = generate_instance(np.random.default_rng(42), 0)
    b = generate_instance(np.random.default_rng(42), 0)
    assert np.array_equal(a.measure.points, b.measure.points)
    assert np.array_equal(a.span.basis_values, b.span.basis_values)
    assert np.array_equal(a.phi.values, b.phi.values)


def test_check_instance_green_at_default_tolerances():
    rng = np.random.default_rng(1)
    inst = generate_instance(rng, 0)
    metrics = check_instance(inst)
    assert metrics.failures == []
    assert metrics.rank >= 1
    assert set(metrics.order_errors) == set(ORDER_STEPS)


def test_order_errors_take_the_sign_split_form_at_each_step():
    """Each order error is the central difference at that step against the
    report's sign-split form."""
    rng = np.random.default_rng(0)
    for i in range(20):
        inst = generate_instance(rng, i)
        order_errors = check_instance(inst).order_errors
        path = build_path(inst.spaces, inst.phi, inst.psi)
        exact = g_derivative_forms(path, BOUND_T).sign_split_form
        for tau in ORDER_STEPS:
            fd = central_difference(path, BOUND_T, tau)
            assert order_errors[tau] == abs(fd - exact)


def test_check_instance_flags_a_tightened_limit(tight_trace_limit):
    """A limit below roundoff turns the instance's trace identity red.

    The first instance of seed 0 misses the identity by 1.3e-16.
    """
    rng = np.random.default_rng(0)
    inst = generate_instance(rng, 0)
    metrics = check_instance(inst)
    assert "trace" in metrics.failures


def test_scenario_dict_round_trip(monkeypatch):
    monkeypatch.setattr(battery, "MAX_NODES", 12)
    monkeypatch.setattr(battery, "MAX_DIM", 3)
    rng = np.random.default_rng(3)
    inst = generate_instance(rng, 7)
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


def test_run_battery_zero_span_degrades_cleanly(monkeypatch):
    """Rank-0 spaces turn every check into 0 <= 0 and stay green."""

    def zero_span_instance(rng, index):
        inst = generate_instance(rng, index)
        zeros = np.zeros((inst.measure.n, inst.span.dim), dtype=complex)
        spaces = Spaces(tabulated_span(zeros), inst.measure)
        return dataclasses.replace(inst, spaces=spaces)

    monkeypatch.setattr(battery, "generate_instance", zero_span_instance)
    report = run_battery(n_instances=15, seed=0)
    assert report.all_green
    assert report.order_exact
    assert report.worst_trace_error == 0.0
    assert report.min_sign_split == 0.0


def test_run_battery_dumps_failures(tight_trace_limit, monkeypatch, tmp_path):
    dump_dir = os.fspath(tmp_path / "failures")
    report = run_battery(n_instances=6, seed=0, dump_dir=dump_dir)
    monkeypatch.undo()
    assert not report.all_green
    assert report.failures
    assert report.failure_dumps
    for path in report.failure_dumps:
        with open(path) as fh:
            record = json.load(fh)
        rerun = run_scenario(parse_scenario(record))
        assert rerun.green  # red under the tightened row, green under the table


def test_failure_dumps_hold_only_the_last_runs(
    tight_trace_limit, monkeypatch, tmp_path
):
    """A run removes the dumps an earlier run left in its dump directory."""
    dump_dir = os.fspath(tmp_path / "failures")
    red = run_battery(n_instances=4, seed=0, dump_dir=dump_dir)
    assert len(os.listdir(dump_dir)) == len(red.failure_dumps) == 4
    fewer = run_battery(n_instances=2, seed=0, dump_dir=dump_dir)
    assert sorted(os.listdir(dump_dir)) == sorted(
        os.path.basename(p) for p in fewer.failure_dumps
    )
    monkeypatch.undo()
    green = run_battery(n_instances=4, seed=0, dump_dir=dump_dir)
    assert green.all_green
    assert os.listdir(dump_dir) == []


def test_summary_lines_follow_the_limit_table(tight_trace_limit):
    """Each line is judged against its row of the table, as the verdict is."""
    report = run_battery(n_instances=6, seed=0)
    assert not report.all_green
    lines = report.summary_lines()
    trace = next(line for line in lines if "trace identity" in line)
    assert "(limit 1.0e-21) FAIL" in trace


def test_one_row_of_the_limit_table_drives_every_output(monkeypatch):
    """Replacing the trace row of checks.LIMITS, and nothing else, changes
    the verdicts, the summary line, the document and the tolerances block."""
    rows = tuple(
        dataclasses.replace(lim, constant=1e-21) if lim.key == "trace" else lim
        for lim in checks.LIMITS
    )
    monkeypatch.setattr(checks, "LIMITS", rows)
    report = run_battery(10, 0)
    assert report.failures
    assert all("trace" in labels for _, labels in report.failures)
    assert not report.all_green
    trace = next(line for line in report.summary_lines() if "trace identity" in line)
    assert "(limit 1.0e-21) FAIL" in trace
    doc = report_document([], extra={"battery": report.document()})
    assert doc["tolerances"]["trace"] == 1e-21
    assert doc["battery"]["failing_instances"] == [
        [i, labels] for i, labels in report.failures
    ]


def test_check_instance_agrees_with_its_scenario_rerun():
    """The battery and the scenario runner share one definition per metric."""
    for seed in (1, 2, 5):
        inst = generate_instance(np.random.default_rng(seed), 0)
        values = check_instance(inst).values

        def rerun(*names):
            config = parse_scenario(inst.scenario_dict(checks=names))
            return run_scenario(config).results[0]

        structural = rerun("structural").metrics
        assert structural["phi_trace_error"] == values["trace_error"]
        assert structural["phi_reproducing_residual"] == values["reproducing_residual"]
        sweep = rerun("sweep").metrics
        assert sweep["worst_margin_deficit"] == values["comparison_deficit"]
        homotopy = rerun("homotopy")
        assert homotopy.metrics["monotonicity_drop"] == values["monotonicity_drop"]
        assert homotopy.metrics["endpoint_dev"] == values["endpoint_dev"]
        assert homotopy.metrics["bounds_ok"] == values["bound"]
        (row,) = [row for row in homotopy.rows if row["t"] == BOUND_T]
        assert row["rhs28"] == values["sign_split"]


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


def test_max_principle_search_spans_are_proper(monkeypatch):
    """The search must stay inside proper subspaces; with span dimension
    equal to the node count the density forgets the weight entirely and the
    discrete statement is vacuous."""
    monkeypatch.setattr(battery, "SEARCH_MAX_NODES", 4)
    monkeypatch.setattr(battery, "SEARCH_MAX_DIM", 8)
    report = max_principle_search(n_instances=200, seed=3)
    assert not report.found_counterexample
    rng = np.random.default_rng(3)
    for inst in (draw_search_instance(rng) for _ in range(200)):
        assert 2 <= inst.measure.n <= 4
        assert 1 <= inst.span.dim <= inst.measure.n - 1


def _search_draws(n, seed):
    rng = np.random.default_rng(seed)
    return [draw_search_instance(rng) for _ in range(n)]


def _per_space_verdict(inst):
    return max_principle_check(
        Spaces(inst.span, inst.measure), inst.phi, inst.psi, inst.omega
    )


def test_search_stacks_equal_the_per_space_path():
    """600 draws cross two chunk boundaries and end in a ragged chunk; every
    stacked density equals its own build bit for bit, and every verdict
    equals max_principle_check's."""
    draws = _search_draws(600, 0)
    seen = 0
    for start in range(0, len(draws), SEARCH_CHUNK):
        chunk = draws[start : start + SEARCH_CHUNK]
        for items, verdicts in battery._judged_groups(chunk):
            group = [chunk[i] for i in items]
            values = np.stack([inst.span.basis_values for inst in group])
            masses = np.stack([inst.measure.masses for inst in group])
            b_phi, b_psi = np.split(
                bergman_densities(
                    np.concatenate([values, values]),
                    np.concatenate([masses, masses]),
                    np.stack(
                        [inst.phi.values for inst in group]
                        + [inst.psi.values for inst in group]
                    ),
                ),
                2,
            )
            for inst, row_phi, row_psi, verdict in zip(group, b_phi, b_psi, verdicts):
                for weight, row in ((inst.phi, row_phi), (inst.psi, row_psi)):
                    space = build_space(inst.span, inst.measure, weight)
                    assert np.array_equal(row, bergman_density_from_space(space))
                assert verdict == _per_space_verdict(inst)
                seen += 1
    assert seen == 600


@pytest.mark.parametrize("n", [1, SEARCH_CHUNK, SEARCH_CHUNK + 1])
def test_search_tallies_at_chunk_edges(n):
    report = max_principle_search(n, 4)
    verdicts = [_per_space_verdict(inst) for inst in _search_draws(n, 4)]
    assert report.premises_fail == verdicts.count(MAXPRINCIPLE_PREMISES_FAIL)
    assert report.conclusion_holds == verdicts.count(MAXPRINCIPLE_CONCLUSION_HOLDS)
    assert report.counterexamples == []


def test_search_of_no_instances():
    report = max_principle_search(0, 4)
    assert (report.premises_fail, report.conclusion_holds) == (0, 0)
    assert report.counterexamples == []


def test_search_counterexample_records_rerun_as_counterexamples(monkeypatch):
    """A premise slack of 1e6 admits instances built to break the conclusion.

    Their records equal those of the one-instance-at-a-time search, and each
    reruns through the scenario runner as a counterexample.
    """
    monkeypatch.setattr(comparison, "DENSITY_POINT_TOL", 1e6)
    report = max_principle_search(200, 0)
    assert (report.premises_fail, report.conclusion_holds) == (61, 81)
    expected = []
    for i, inst in enumerate(_search_draws(200, 0)):
        if _per_space_verdict(inst) == MAXPRINCIPLE_COUNTEREXAMPLE:
            record = scenario_record(
                f"battery-instance-{i}",
                inst.measure,
                inst.span,
                inst.phi,
                inst.psi,
                ("maxprinciple",),
            )
            record["omega"] = [int(j) for j in np.flatnonzero(inst.omega)]
            expected.append(record)
    assert len(expected) == 58
    assert report.counterexamples == expected
    for record in report.counterexamples:
        (result,) = run_scenario(parse_scenario(record)).results
        assert result.metrics["verdict"] == MAXPRINCIPLE_COUNTEREXAMPLE
