"""Random-instance battery: generation, checks, aggregation, determinism."""

import dataclasses
import functools
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
    SEARCH_ROUND,
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
    build_space,
)
from bergmanlab.errors import (
    BergmanlabError,
    InvalidConfigurationError,
    InvalidMeasureError,
)
from bergmanlab.measures import build_discrete_measure
from bergmanlab.scenarios import scenario_record
from bergmanlab.spans import monomial_span, tabulated_span
from bergmanlab.weights import tabulated_weight
from oracles import reference_search_draws, search_group_row, search_row_mismatches


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
            record = inst.scenario_dict()
            record["checks"] = list(names)
            config = parse_scenario(record)
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


def _judged_groups(monkeypatch):
    """Record each group the search judges: its node count m, its instance
    indices, its derived rows (with each row's span values), its verdicts,
    its density stacks, and each row's phi and psi densities from them."""
    judged = []
    stacked_densities = battery.bergman_densities
    judge_group = battery._judge_group

    def densities(values, masses, weights):
        out = stacked_densities(values, masses, weights)
        judged[-1]["stacks"].append((values.shape, out))
        return out

    def judge(group):
        rows = [
            {name: np.copy(value) for name, value in search_group_row(group, k).items()}
            for k in range(len(group.index))
        ]
        judged.append(
            {
                "m": group.points.shape[1],
                "index": group.index.copy(),
                "rows": rows,
                "stacks": [],
            }
        )
        verdicts, approach = judge_group(group)
        judged[-1]["verdicts"] = verdicts
        # One stack for each shape (m, d) of the group, holding its rows in
        # row order, phi's densities first.
        dims = [shape[2] for shape, _ in judged[-1]["stacks"]]
        assert sorted(dims) == sorted(set(group.dim.tolist()))
        b = np.empty((2, *group.points.shape))
        for (_, m, d), out in judged[-1]["stacks"]:
            assert out.shape == (2, np.count_nonzero(group.dim == d), m)
            b[:, group.dim == d] = out
        judged[-1]["densities"] = b
        return verdicts, approach

    monkeypatch.setattr(battery, "bergman_densities", densities)
    monkeypatch.setattr(battery, "_judge_group", judge)
    return judged


def test_max_principle_search_spans_are_proper(monkeypatch):
    """The search must stay inside proper subspaces; with span dimension
    equal to the node count the density forgets the weight entirely and the
    discrete statement is vacuous.  The size bounds are read at draw time,
    so the rows still follow the stream."""
    monkeypatch.setattr(battery, "SEARCH_MAX_NODES", 4)
    monkeypatch.setattr(battery, "SEARCH_MAX_DIM", 8)
    judged = _judged_groups(monkeypatch)
    report = max_principle_search(n_instances=200, seed=3)
    assert not report.found_counterexample
    assert sum(len(group["index"]) for group in judged) == 200
    for group in judged:
        assert 2 <= group["m"] <= 4
        assert all(1 <= row["dim"] <= group["m"] - 1 for row in group["rows"])
    _assert_judged_rows_follow_the_stream(judged, reference_search_draws(200, 3))


def _per_space_verdict(inst):
    return max_principle_check(
        Spaces(inst.span, inst.measure), inst.phi, inst.psi, inst.omega
    )


def test_search_stacks_equal_the_per_space_path(monkeypatch):
    """A full round and a partial one; every stacked density equals its own
    build bit for bit, and every verdict equals max_principle_check's."""
    n = SEARCH_ROUND + 500
    judged = _judged_groups(monkeypatch)
    max_principle_search(n, 0)
    draws = reference_search_draws(n, 0)
    seen = []
    for group in judged:
        b_phi, b_psi = group["densities"]
        for i, row_phi, row_psi, verdict in zip(
            group["index"], b_phi, b_psi, group["verdicts"]
        ):
            inst = draws[i]
            assert inst.measure.n == group["m"]
            for weight, row in ((inst.phi, row_phi), (inst.psi, row_psi)):
                space = build_space(inst.span, inst.measure, weight)
                assert np.array_equal(row, space.density)
            assert verdict == _per_space_verdict(inst)
            seen.append(i)
    assert sorted(seen) == list(range(n))


def _assert_judged_rows_follow_the_stream(judged, draws):
    """Every judged row equals its draw through the public constructors, bit
    for bit; returns the weight families and span kinds the rows covered."""
    covered = set()
    seen = []
    for group in judged:
        for row, i in zip(group["rows"], group["index"]):
            inst = draws[i]
            assert search_row_mismatches(row, inst) == [], i
            covered.add((int(inst.family), bool(row["monomial"])))
            seen.append(int(i))
    assert sorted(seen) == list(range(len(draws)))
    return covered


def test_search_rows_follow_the_stream(monkeypatch):
    """The buffer holds only generator output, and what a round derives from
    it is what the one-instance-at-a-time draw gives, at seeds 0-4 and over
    a round's edge: nodes, masses, span values, the monomial flag, omega,
    phi and psi."""
    n = SEARCH_ROUND + 100
    judged = _judged_groups(monkeypatch)
    covered = set()
    for seed in range(5):
        judged.clear()
        max_principle_search(n, seed)
        draws = reference_search_draws(n, seed)
        covered |= _assert_judged_rows_follow_the_stream(judged, draws)
    assert covered == {(f, mono) for f in range(4) for mono in (False, True)}


def _assert_same_stream(numpy_rng, reader_rng, reader):
    """numpy's generator and the reader's stand at the same place: the same
    PCG64 state, and the same 32-bit half kept for the next 32-bit draw."""
    state = numpy_rng.bit_generator.state
    assert reader_rng.bit_generator.state["state"] == state["state"]
    assert reader.kept == (state["uinteger"] if state["has_uint32"] else None)


@pytest.mark.parametrize("seed", range(4))
def test_word_reader_follows_numpy_calls(seed):
    """Long interleaved sequences give the same values through the word
    reader and through numpy's own calls, and leave the stream at the same
    place: the same PCG64 state and the same kept half.  The sequences hold
    bounded draws at every bound the search uses, the subset of every
    choice(m, k) with 2 <= m <= SEARCH_MAX_NODES and 1 <= k <= m (k = m
    draws Floyd's j = 0, which takes nothing), and uniforms and normals of a
    few lengths in between.  At odd seeds a half is kept before the reader
    starts."""
    m_max = battery.SEARCH_MAX_NODES
    ops = [("bounded", n) for n in range(1, m_max + 1)]
    ops += [("subset", m, k) for m in range(2, m_max + 1) for k in range(1, m + 1)]
    ops += [("words", n) for n in (1, 2, 3 * m_max + 1)]
    ops += [("normals", n) for n in (1, 2 * m_max)]
    numpy_rng, reader_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    if seed % 2:
        assert numpy_rng.integers(0, 7) == reader_rng.integers(0, 7)
    reader = battery._Words(reader_rng)
    _assert_same_stream(numpy_rng, reader_rng, reader)
    order = np.random.default_rng(100 + seed)
    for _ in range(20):
        for i in order.permutation(len(ops)):
            kind, *args = ops[i]
            if kind == "bounded":
                (n,) = args
                assert reader.bounded(n) == numpy_rng.integers(0, n)
            elif kind == "subset":
                m, k = args
                picked = np.zeros(m, dtype=bool)
                picked[numpy_rng.choice(m, size=k, replace=False)] = True
                flags = reader.subset(m, k) >> np.arange(m) & 1 == 1
                assert np.array_equal(flags, picked), (m, k)
            elif kind == "words":
                doubles = battery._doubles(reader.words(*args))
                assert np.array_equal(doubles, numpy_rng.random(*args))
            else:
                normals = reader.normals(*args)
                assert np.array_equal(normals, numpy_rng.standard_normal(*args))
    _assert_same_stream(numpy_rng, reader_rng, reader)


def test_word_reader_draws_a_rejected_half_again():
    """For the bound 11, 2^32 mod 11 = 4, so a half u whose leftover
    (11 u) mod 2^32 is below 4 is drawn again.  780903145 leaves 3 and is
    rejected; 3904515724 leaves 4 and gives 10 (11 u = 10 * 2^32 + 4).  A
    rejected low half takes the same word's high half; a rejected kept half
    takes the next word's low half."""
    rejected, accepted = 780903145, 3904515724
    words = iter([accepted << 32 | rejected, 5 << 32 | accepted, 7 << 32 | accepted])
    generator = SimpleNamespace(
        state={"has_uint32": 0, "uinteger": 0}, random_raw=lambda: next(words)
    )
    rng = SimpleNamespace(bit_generator=generator, standard_normal=None)
    reader = battery._Words(rng)
    assert reader.bounded(11) == 10
    assert reader.kept is None
    assert reader.bounded(11) == 10
    assert reader.kept == 5
    assert reader.bounded(11) == 0
    reader.kept = rejected
    assert reader.bounded(11) == 10
    assert reader.kept == 7
    assert next(words, None) is None


@pytest.mark.parametrize("max_nodes", [2, 3])
def test_search_round_of_few_shapes(monkeypatch, max_nodes):
    """With at most 2 nodes every draw has the shape (2, 1), so a round is
    one group and one density stack; with at most 3 it has three shapes in
    two groups.  Over a full round and one more draw the rows follow the
    stream and the tallies are max_principle_check's."""
    monkeypatch.setattr(battery, "SEARCH_MAX_NODES", max_nodes)
    n = SEARCH_ROUND + 1
    judged = _judged_groups(monkeypatch)
    report = max_principle_search(n, 2)
    draws = reference_search_draws(n, 2)
    _assert_judged_rows_follow_the_stream(judged, draws)
    shapes = {
        (group["m"], int(row["dim"])) for group in judged for row in group["rows"]
    }
    assert shapes == ({(2, 1)} if max_nodes == 2 else {(2, 1), (3, 1), (3, 2)})
    if max_nodes == 2:
        assert [len(group["stacks"]) for group in judged] == [1, 1]
        assert len(judged[0]["index"]) == SEARCH_ROUND
    verdicts = [_per_space_verdict(inst) for inst in draws]
    assert report.premises_fail == verdicts.count(MAXPRINCIPLE_PREMISES_FAIL)
    assert report.conclusion_holds == verdicts.count(MAXPRINCIPLE_CONCLUSION_HOLDS)
    assert report.counterexamples == []


def _per_space_approach(inst):
    """The row's approach, from densities of spaces built one at a time:
    None unless phi <= psi off omega and phi > psi somewhere on omega."""
    phi, psi, omega = inst.phi.values, inst.psi.values, inst.omega
    if np.any(~omega & (phi > psi)) or not np.any(omega & (phi > psi)):
        return None
    b_phi, b_psi = (
        build_space(inst.span, inst.measure, weight).density
        for weight in (inst.phi, inst.psi)
    )
    return max((b_psi - b_phi)[omega] / b_psi[omega])


def test_search_closest_approach_equals_the_per_instance_one():
    report = max_principle_search(1000, 0)
    approaches = [
        (a, i)
        for i, inst in enumerate(reference_search_draws(1000, 0))
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
    assert report.closest_approach == 0.0003160444852271064


def test_a_search_of_10_000_judges_55_groups_and_190_density_stacks(monkeypatch):
    """One group per node count of each round, one stack per shape (m, d)
    of a group: README's figures for a pass of 10 000 draws at seed 0."""
    judged = {"groups": 0, "stacks": 0}

    def counting(name, fn):
        def counted(*args):
            judged[name] += 1
            return fn(*args)

        return counted

    monkeypatch.setattr(
        battery, "_judge_group", counting("groups", battery._judge_group)
    )
    monkeypatch.setattr(
        battery, "bergman_densities", counting("stacks", battery.bergman_densities)
    )
    max_principle_search(10_000, 0)
    assert judged == {"groups": 55, "stacks": 190}


# Candidates, closest instance and closest approach of 10 000 draws.
PINNED_SEARCHES = {
    1: (2995, 3490, 6.245742576487331e-05),
    2: (2951, 9317, 1.7360148567138294e-05),
    3: (2842, 2173, 0.00023712369339550947),
    4: (2940, 6736, 0.00037537838711800404),
    5: (2909, 1713, 2.0332381366642425e-06),
}


@pytest.mark.parametrize("seed", sorted(PINNED_SEARCHES))
def test_search_closest_approach_is_pinned(seed):
    """The search's candidates and closest approach, to the last bit, so
    that a change in how the search groups its draws cannot move them."""
    report = max_principle_search(10_000, seed)
    assert (
        report.candidates,
        report.closest_instance,
        report.closest_approach,
    ) == PINNED_SEARCHES[seed]


@functools.lru_cache(maxsize=None)
def _reference_verdicts(n, seed):
    """max_principle_check's verdicts on the seed's first n draws."""
    return tuple(_per_space_verdict(inst) for inst in reference_search_draws(n, seed))


@pytest.mark.parametrize("edge", ["1", "round-1", "round", "round+1"])
def test_search_tallies_at_round_edges(edge):
    """One draw, and the draws around the end of the first round."""
    n = {"1": 1, "round-1": SEARCH_ROUND - 1, "round": SEARCH_ROUND}.get(
        edge, SEARCH_ROUND + 1
    )
    report = max_principle_search(n, 4)
    verdicts = _reference_verdicts(SEARCH_ROUND + 1, 4)[:n]
    assert report.premises_fail == verdicts.count(MAXPRINCIPLE_PREMISES_FAIL)
    assert report.conclusion_holds == verdicts.count(MAXPRINCIPLE_CONCLUSION_HOLDS)
    assert report.counterexamples == []


def test_search_of_no_instances():
    report = max_principle_search(0, 4)
    assert (report.premises_fail, report.conclusion_holds) == (0, 0)
    assert report.counterexamples == []
    assert (report.candidates, report.closest_approach) == (0, None)
    assert report.closest_instance is None


def _first_group(seed):
    """The first group of the seed's first full round (node count 2),
    derived, not yet judged."""
    return next(battery._search_groups(np.random.default_rng(seed), SEARCH_ROUND))


def _row_verdict(group, k):
    """Row k of a group judged alone, through the public constructors."""
    measure = build_discrete_measure(group.points[k], group.masses[k])
    if group.monomial[k]:
        span = monomial_span(measure, int(group.dim[k]) - 1)
    else:
        span = tabulated_span(group.span_values(k))
    return max_principle_check(
        Spaces(span, measure),
        tabulated_weight(group.phi[k]),
        tabulated_weight(group.psi[k]),
        group.omega[k],
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
    """One corrupted row of a derived group makes the group's judge raise
    what the per-instance constructors or max_principle_check raise on that
    row."""
    group = _first_group(0)
    assert group.points.shape[1] == 2
    k = 5
    rows = {
        "nan-point": (group.points, np.nan),
        "nan-mass": (group.masses, np.nan),
        "zero-mass": (group.masses, 0.0),
        "inf-phi": (group.phi, np.inf),
        "inf-psi": (group.psi, np.inf),
    }
    if corruption in rows:
        array, value = rows[corruption]
        array[k, 1] = value
    else:
        group.omega[k] = corruption == "omega-all"
    with pytest.raises(BergmanlabError) as alone:
        _row_verdict(group, k)
    assert type(alone.value) is error
    with pytest.raises(error, match=re.escape(str(alone.value))) as stacked:
        battery._judge_group(group)
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
    for i, inst in enumerate(reference_search_draws(200, 0)):
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
