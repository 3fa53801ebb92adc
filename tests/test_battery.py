"""Random-instance battery: generation, checks, aggregation, determinism."""

import dataclasses
import itertools
import json
import math
import os
import re
from types import SimpleNamespace

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
from bergmanlab.errors import (
    BergmanlabError,
    InvalidConfigurationError,
    InvalidMeasureError,
)
from bergmanlab.measures import build_discrete_measure
from bergmanlab.scenarios import scenario_record
from bergmanlab.spans import KIND_MONOMIALS, monomial_span, tabulated_span
from bergmanlab.weights import eval_weight, tabulated_weight


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
    assert not os.path.exists(dump_dir)


def test_removing_dumps_keeps_a_directory_that_holds_other_files(tmp_path):
    dump_dir = tmp_path / "failures"
    dump_dir.mkdir()
    (dump_dir / "battery-failure-3.json").write_text("{}")
    (dump_dir / "notes.txt").write_text("kept")
    battery.remove_failure_dumps(os.fspath(dump_dir))
    assert os.listdir(dump_dir) == ["notes.txt"]


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


@pytest.mark.parametrize("entry", [run_battery, max_principle_search])
@pytest.mark.parametrize("count", [-3, -5, 2.5, "3", True])
def test_entry_points_reject_a_bad_count(entry, count):
    with pytest.raises(InvalidConfigurationError, match="n_instances"):
        entry(count, 0)


@pytest.mark.parametrize("entry", [run_battery, max_principle_search])
@pytest.mark.parametrize("seed", [-1, 1.5, "3", True, None])
def test_entry_points_reject_a_bad_seed(entry, seed):
    with pytest.raises(InvalidConfigurationError, match="seed"):
        entry(3, seed)


def test_run_battery_of_no_instances():
    report = run_battery(0, 0)
    assert report.n_instances == 0
    assert report.all_green


def _judged_stacks(monkeypatch):
    """Record each stack the search judges: its (m, d), its instance indices,
    the arrays it judges and each row's weight family, its verdicts and its
    stacked phi and psi densities."""
    judged = []
    stacked_densities = battery.bergman_densities
    judge_stack = battery._judge_stack

    def densities(values, masses, weights):
        out = stacked_densities(values, masses, weights)
        judged[-1]["densities"] = np.split(out, 2)
        return out

    def judge(stack):
        n = stack.size
        rows = {
            name: getattr(stack, name).copy()
            for name in ("points", "masses", "values", "monomial", "phi", "psi")
        }
        rows.update(omega=stack.omega[:n].copy(), family=stack.family[:n].copy())
        judged.append(
            {
                "shape": stack.values.shape[1:],
                "index": stack.index[:n].copy(),
                "rows": rows,
            }
        )
        verdicts, approach = judge_stack(stack)
        judged[-1]["verdicts"] = verdicts
        return verdicts, approach

    monkeypatch.setattr(battery, "bergman_densities", densities)
    monkeypatch.setattr(battery, "_judge_stack", judge)
    return judged


def test_max_principle_search_spans_are_proper(monkeypatch):
    """The search must stay inside proper subspaces; with span dimension
    equal to the node count the density forgets the weight entirely and the
    discrete statement is vacuous.  The size bounds are read at draw time,
    so the rows still follow the stream."""
    monkeypatch.setattr(battery, "SEARCH_MAX_NODES", 4)
    monkeypatch.setattr(battery, "SEARCH_MAX_DIM", 8)
    judged = _judged_stacks(monkeypatch)
    report = max_principle_search(n_instances=200, seed=3)
    assert not report.found_counterexample
    assert sum(len(stack["index"]) for stack in judged) == 200
    for stack in judged:
        m, d = stack["shape"]
        assert 2 <= m <= 4
        assert 1 <= d <= m - 1
    _assert_judged_rows_follow_the_stream(judged, _reference_search_draws(200, 3))


def _reference_search_draws(n, seed):
    """The search's draws one instance at a time through the public
    constructors, in the order of the seed's stream: the reference that the
    stack writer must reproduce."""
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(n):
        m = int(rng.integers(2, battery.SEARCH_MAX_NODES + 1))
        d = int(rng.integers(1, min(battery.SEARCH_MAX_DIM, m - 1) + 1))
        radii = rng.uniform(*battery.RADIUS_RANGE, m)
        angles = rng.uniform(0.0, 2.0 * math.pi, m)
        lo, hi = battery.MASS_RANGE
        masses = np.exp(rng.uniform(math.log(lo), math.log(hi), m))
        measure = build_discrete_measure(radii * np.exp(1j * angles), masses)
        if rng.uniform() < battery.MONOMIAL_FRACTION:
            span = monomial_span(measure, d - 1)
        else:
            vals = rng.standard_normal((m, d)) + 1j * rng.standard_normal((m, d))
            span = tabulated_span(vals / math.sqrt(2.0))
        omega = np.zeros(m, dtype=bool)
        omega[rng.choice(m, size=int(rng.integers(1, m)), replace=False)] = True
        phi_vals = rng.uniform(*battery.WEIGHT_RANGE, m)
        family = int(rng.integers(0, 4))
        if family == 0:
            psi_vals = rng.uniform(*battery.WEIGHT_RANGE, m)
        elif family == 1:
            psi_vals = phi_vals + np.where(omega, 0.0, rng.uniform(0.0, 2.0, m))
        elif family == 2:
            lift = np.where(omega, 0.0, rng.uniform(0.0, 2.0, m))
            dent = np.where(omega, rng.uniform(0.0, 2.0, m), 0.0)
            psi_vals = phi_vals + lift - dent
        else:
            psi_vals = phi_vals + rng.uniform(-1.0, 1.0)
        draws.append(
            SimpleNamespace(
                measure=measure,
                span=span,
                omega=omega,
                family=family,
                phi=eval_weight(tabulated_weight(phi_vals), measure),
                psi=eval_weight(tabulated_weight(psi_vals), measure),
            )
        )
    return draws


def _per_space_verdict(inst):
    return max_principle_check(
        Spaces(inst.span, inst.measure), inst.phi, inst.psi, inst.omega
    )


def test_search_stacks_equal_the_per_space_path(monkeypatch):
    """1000 draws fill the (2, 1) stack more than once and end in partly
    filled stacks; every stacked density equals its own build bit for bit,
    and every verdict equals max_principle_check's."""
    judged = _judged_stacks(monkeypatch)
    max_principle_search(1000, 0)
    draws = _reference_search_draws(1000, 0)
    full = [stack["shape"] for stack in judged if len(stack["index"]) == SEARCH_CHUNK]
    assert max(full.count(shape) for shape in full) >= 2
    assert any(len(stack["index"]) < SEARCH_CHUNK for stack in judged)
    seen = []
    for stack in judged:
        b_phi, b_psi = stack["densities"]
        for i, row_phi, row_psi, verdict in zip(
            stack["index"], b_phi, b_psi, stack["verdicts"]
        ):
            inst = draws[i]
            assert (inst.measure.n, inst.span.dim) == stack["shape"]
            for weight, row in ((inst.phi, row_phi), (inst.psi, row_psi)):
                space = build_space(inst.span, inst.measure, weight)
                assert np.array_equal(row, bergman_density_from_space(space))
            assert verdict == _per_space_verdict(inst)
            seen.append(i)
    assert sorted(seen) == list(range(1000))


def _assert_judged_rows_follow_the_stream(judged, draws):
    """Every judged row equals its draw through the public constructors, bit
    for bit; returns the weight families and span kinds the rows covered."""
    covered = set()
    seen = []
    for stack in judged:
        rows = stack["rows"]
        for k, i in enumerate(stack["index"]):
            inst = draws[i]
            monomial = inst.span.kind == KIND_MONOMIALS
            assert rows["monomial"][k] == monomial
            assert rows["family"][k] == inst.family
            for name, expected in (
                ("points", inst.measure.points),
                ("masses", inst.measure.masses),
                ("values", inst.span.basis_values),
                ("omega", inst.omega),
                ("phi", inst.phi.values),
                ("psi", inst.psi.values),
            ):
                assert np.array_equal(rows[name][k], expected), (i, name)
            covered.add((int(inst.family), monomial))
            seen.append(int(i))
    assert sorted(seen) == list(range(len(draws)))
    return covered


def test_search_rows_follow_the_stream(monkeypatch):
    """The rows hold only generator output, and what a stack derives from
    them is what the one-instance-at-a-time draw gives, at seeds 0-4: nodes,
    masses, span values, the monomial flag, omega, phi and psi."""
    judged = _judged_stacks(monkeypatch)
    covered = set()
    for seed in range(5):
        judged.clear()
        max_principle_search(2000, seed)
        draws = _reference_search_draws(2000, seed)
        covered |= _assert_judged_rows_follow_the_stream(judged, draws)
    assert covered == {(f, mono) for f in range(4) for mono in (False, True)}


def _per_space_approach(inst):
    """The row's approach, from densities of spaces built one at a time:
    None unless phi <= psi off omega and phi > psi somewhere on omega."""
    phi, psi, omega = inst.phi.values, inst.psi.values, inst.omega
    if np.any(~omega & (phi > psi)) or not np.any(omega & (phi > psi)):
        return None
    b_phi, b_psi = (
        bergman_density_from_space(build_space(inst.span, inst.measure, weight))
        for weight in (inst.phi, inst.psi)
    )
    return max((b_psi - b_phi)[omega] / b_psi[omega])


def test_search_closest_approach_equals_the_per_instance_one():
    report = max_principle_search(1000, 0)
    approaches = [
        (a, i)
        for i, inst in enumerate(_reference_search_draws(1000, 0))
        if (a := _per_space_approach(inst)) is not None
    ]
    assert report.candidates == len(approaches) > 0
    assert (report.closest_approach, report.closest_instance) == min(approaches)


def test_search_closest_approach_at_seed_0():
    """At seed 0, 2 968 of 10 000 draws are candidates, and the closest
    stays eight orders of magnitude above the premise's slack."""
    report = max_principle_search(10_000, 0)
    assert report.candidates == 2968
    assert report.closest_instance == 2936
    assert report.closest_approach == pytest.approx(3.16e-4, rel=1e-3)


def _first_fill(seed):
    """The number of draws after which the seed's first stack is full."""
    counts = {}
    for n, inst in enumerate(_reference_search_draws(1000, seed), start=1):
        shape = (inst.measure.n, inst.span.dim)
        counts[shape] = counts.get(shape, 0) + 1
        if counts[shape] == SEARCH_CHUNK:
            return n
    raise AssertionError("no stack filled in 1000 draws")


@pytest.mark.parametrize("edge", ["1", "fill-1", "fill", "fill+1"])
def test_search_tallies_at_chunk_edges(edge):
    """One draw, and the draws around the first stack that fills."""
    fill = _first_fill(4)
    n = {"1": 1, "fill-1": fill - 1, "fill": fill, "fill+1": fill + 1}[edge]
    report = max_principle_search(n, 4)
    verdicts = [_per_space_verdict(inst) for inst in _reference_search_draws(n, 4)]
    assert report.premises_fail == verdicts.count(MAXPRINCIPLE_PREMISES_FAIL)
    assert report.conclusion_holds == verdicts.count(MAXPRINCIPLE_CONCLUSION_HOLDS)
    assert report.counterexamples == []


def test_search_of_no_instances():
    report = max_principle_search(0, 4)
    assert (report.premises_fail, report.conclusion_holds) == (0, 0)
    assert report.counterexamples == []
    assert (report.candidates, report.closest_approach) == (0, None)
    assert report.closest_instance is None


def _full_stack(seed):
    """The first stack of the seed's search to fill, derived, not yet
    judged."""
    rng = np.random.default_rng(seed)
    stacks = {}
    for index in itertools.count():
        stack = battery._draw_search_row(rng, stacks, index)
        if stack.size == SEARCH_CHUNK:
            stack.derive()
            return stack


def _row_verdict(stack, k):
    """Row k of a stack judged alone, through the public constructors."""
    measure = build_discrete_measure(stack.points[k], stack.masses[k])
    if stack.monomial[k]:
        span = monomial_span(measure, stack.values.shape[2] - 1)
    else:
        span = tabulated_span(stack.values[k])
    return max_principle_check(
        Spaces(span, measure),
        tabulated_weight(stack.phi[k]),
        tabulated_weight(stack.psi[k]),
        stack.omega[k],
    )


@pytest.mark.parametrize(
    "corruption, error",
    [
        ("nan-point", InvalidMeasureError),
        ("nan-mass", InvalidMeasureError),
        ("zero-mass", InvalidMeasureError),
        ("inf-phi", InvalidMeasureError),
        ("inf-psi", InvalidMeasureError),
        ("omega-all", InvalidConfigurationError),
        ("omega-none", InvalidConfigurationError),
    ],
)
def test_judging_a_stack_runs_the_per_instance_checks(corruption, error):
    """One corrupted row of the derived arrays makes the stack's judge raise
    what the per-instance constructors or max_principle_check raise on that
    row."""
    stack = _full_stack(0)
    k = 5
    rows = {
        "nan-point": (stack.points, np.nan),
        "nan-mass": (stack.masses, np.nan),
        "zero-mass": (stack.masses, 0.0),
        "inf-phi": (stack.phi, np.inf),
        "inf-psi": (stack.psi, np.inf),
    }
    if corruption in rows:
        array, value = rows[corruption]
        array[k, 1] = value
    else:
        stack.omega[k] = corruption == "omega-all"
    with pytest.raises(BergmanlabError) as alone:
        _row_verdict(stack, k)
    assert type(alone.value) is error
    with pytest.raises(error, match=re.escape(str(alone.value))) as stacked:
        battery._judge_stack(stack)
    assert type(stacked.value) is error


def test_search_counterexample_records_rerun_as_counterexamples(monkeypatch):
    """A premise slack of 1e6 admits instances built to break the conclusion.

    Their records equal those of the one-instance-at-a-time search, in
    instance order, and each reruns through the scenario runner as a
    counterexample.
    """
    monkeypatch.setattr(comparison, "DENSITY_POINT_TOL", 1e6)
    report = max_principle_search(200, 0)
    assert (report.premises_fail, report.conclusion_holds) == (61, 81)
    expected = []
    for i, inst in enumerate(_reference_search_draws(200, 0)):
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
