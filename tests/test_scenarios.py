"""Scenario parsing, check execution, and report emission."""

import csv
import dataclasses
import json
import os
import tracemalloc

import numpy as np
import pytest

from bergmanlab import (
    __version__,
    InvalidScenarioError,
    emit_report,
    load_scenario_file,
    parse_scenario,
    report_document,
    run_scenario,
)
from bergmanlab import checks, kernels, scenarios
from bergmanlab.spans import evaluate_basis


def two_node_dict(**overrides):
    base = {
        "id": "ref",
        "measure": {
            "kind": "discrete",
            "points": [[0.0, 0.0], [1.0, 0.0]],
            "masses": [1.0, 1.0],
        },
        "span": {"kind": "monomials", "degree": 0},
        "phi": {"family": "tabulated", "values": [0.0, 0.0]},
        "psi": {"family": "tabulated", "values": [-1.0, 1.0]},
        "checks": ["structural", "comparison", "sweep", "homotopy"],
    }
    base.update(overrides)
    return base


DISK_24X48 = {"kind": "disk-product", "radius": 1.0, "n_radial": 24, "n_angular": 48}


def test_parse_full_scenario():
    config = parse_scenario(two_node_dict())
    assert config.scenario_id == "ref"
    assert config.measure.n == 2
    assert config.span.degree == 0
    assert config.checks == ("structural", "comparison", "sweep", "homotopy")
    assert config.c_grid == (-2.0, -1.0, 0.0, 1.0, 2.0)


# A case's test id holds its index in this list, so a case that goes is
# replaced in place.
@pytest.mark.parametrize(
    "mutate,needle",
    [
        ({"id": ""}, "field 'id'"),
        ({"checks": []}, "field 'checks'"),
        ({"checks": ["spectral"]}, "unknown check"),
        ({"measure": {"kind": "lattice"}}, "unknown kind"),
        ({"measure": {"kind": "discrete", "points": [[0, 0]]}}, "masses"),
        ({"span": {"kind": "monomials"}}, "span.degree"),
        ({"phi": {"family": "mystery"}}, "phi"),
        ({"params": {"t_grid": [0.0, 0.5, 1.0]}}, "'params.t_grid': unknown parameter"),
        ({"params": {"tau_list": [0.1]}}, "'params.tau_list': unknown parameter"),
        ({"omega": [5]}, "out of range"),
        ({"omega": ["x"]}, "omega[0]"),
        ({"span": {"kind": "monomials", "degree": "x"}}, "span.degree"),
        ({"measure": DISK_24X48, "span": {"kind": "monomials", "degree": 400}},
         "span.degree"),
        ({"measure": dict(DISK_24X48, radius="big")}, "measure.radius"),
        ({"measure": dict(DISK_24X48, n_radial=2.5)}, "measure.n_radial"),
        ({"measure": {"kind": "discrete", "points": [[0, 0]], "masses": ["a"]}},
         "measure.masses[0]"),
        ({"params": {"c_grid": ["a"]}}, "params.c_grid[0]"),
        ({"measure": dict(DISK_24X48, radius=2.0, n_radial=8, n_angular=16),
          "checks": ["tcz"], "phi": {"family": "radial-poly", "coeffs": [0.0, 1e-11]},
          "psi": {"family": "constant", "c": 0.0},
          "params": {"k_list": [1e308]}}, "field 'params.k_list[0]'"),
        ({"params": [0.5]}, "field 'params': expected an object"),
        ({"params": {"k_list": []}}, "'params.k_list': must be nonempty"),
        ({"params": {"k_list": [0]}}, "params.k_list"),
        ({"params": {"k_list": [float("inf")]}}, "params.k_list[0]"),
        ({"params": {"interior_radius": 0.0}}, "params.interior_radius"),
        ({"params": {"interior_radius": float("nan")}}, "params.interior_radius"),
        ({"phi": {"family": "gauss", "a": float("nan")}}, "phi.a"),
        ({"psi": {"family": "radial-poly", "coeffs": [0.0, float("inf")]}},
         "psi.coeffs"),
        ({"measure": dict(DISK_24X48, n_radial=8, n_angular=16),
          "phi": {"family": "gauss", "a": -1e300}}, "field 'phi'"),
        ({"measure": dict(DISK_24X48, n_radial=8, n_angular=16),
          "phi": {"family": "tabulated", "values": [0.0, 1.0]}}, "field 'phi'"),
        ({"measure": dict(DISK_24X48, radius=1e300)}, "measure.radius"),
        ({"params": {"c_gird": [5.0]}}, "params.c_gird"),
        ({"measure": dict(DISK_24X48, n_radial=6, n_angular=12), "checks": ["tcz"],
          "phi": {"family": "constant", "c": 700.0}, "psi": {"family": "constant",
          "c": 0.0}}, "field 'phi'"),
        ({"measure": dict(DISK_24X48, n_radial=6, n_angular=12), "checks": ["tcz"],
          "phi": {"family": "harmonic", "b": 1.0}, "psi": {"family": "constant",
          "c": 0.0}}, "field 'phi'"),
        ({"omega": []}, "field 'omega'"),
        ({"omega": [0, 1]}, "field 'omega'"),
        ({"omega": [1, 0, 1]}, "field 'omega'"),
        ({"checks": ["tcz"]}, "field 'measure.kind': check 'tcz'"),
        ({"measure": dict(DISK_24X48, n_radial=2, n_angular=4), "checks": ["tcz"],
          "phi": {"family": "tabulated", "values": [0.0] * 8}, "psi": {"family":
          "constant", "c": 0.0}}, "field 'phi': check 'tcz'"),
        ({"phi": {"family": "gauss", "a": True}}, "field 'phi.a'"),
        ({"phi": {"family": "constant", "c": "0.5"}}, "field 'phi.c'"),
        ({"phi": {"family": "harmonic", "b": "1e-3"}}, "field 'phi.b'"),
        ({"phi": {"family": "radial-poly", "coeffs": "12"}}, "field 'phi.coeffs'"),
        ({"phi": {"family": "radial-poly", "coeffs": {"0": 1}}}, "field 'phi.coeffs'"),
        ({"phi": {"family": "constant", "c": 10**400}}, "field 'phi.c'"),
        ({"measure": {"kind": "discrete", "points": [[0, 0]], "masses": [10**400]}},
         "measure.masses[0]"),
        ({"phi": {"family": ["constant"]}}, "unknown weight family"),
        ({"measure": dict(DISK_24X48, radius=2.0, n_radial=6, n_angular=12),
          "checks": ["tcz"], "phi": {"family": "gauss", "a": 1.0},
          "psi": {"family": "constant", "c": 0.0},
          "params": {"k_list": [10.0, 1e308]}}, "field 'params.k_list[1]'"),
        ({"checks": ["sweep"], "params": {"c_grid": []}},
         "'params.c_grid': must be nonempty"),
        ({"phi": {"family": "constant", "c": 747.0}},
         "field 'phi': w e^{-phi} underflows to 0 at every node"),
        ({"psi": {"family": "tabulated", "values": [746.0, 748.0]}},
         "field 'psi': w e^{-phi} underflows to 0 at every node"),
        ({"checks": ["comparison", "comparison", "sweep"]},
         "field 'checks[1]': check 'comparison' is already checks[0]"),
        ({"chekcs": ["sweep"]}, "field 'chekcs': unknown field; valid: id, measure,"),
        ({"interior_radius": 0.5}, "field 'interior_radius': unknown field"),
        ({"measure": {"kind": "discrete", "points": [[0, 0], [1, 0]],
          "masses": [1, 1], "radius": 1.0}},
         "field 'measure.radius': unknown field of kind 'discrete'; "
         "valid: kind, points, masses"),
        ({"measure": dict(DISK_24X48, masses=[1.0])},
         "field 'measure.masses': unknown field of kind 'disk-product'"),
        ({"span": {"kind": "monomials", "degree": 0, "values": []}},
         "field 'span.values': unknown field of kind 'monomials'; valid: kind, degree"),
        ({"span": {"kind": "tabulated", "values": [[[1, 0]], [[1, 0]]], "degree": 0}},
         "field 'span.degree': unknown field of kind 'tabulated'"),
        ({"phi": {"family": "gauss", "a": 1.0, "c": 0.0}},
         "field 'phi.c': unknown field of family 'gauss'; valid: family, a"),
        ({"psi": {"family": "tabulated", "values": [0.0, 1.0], "value": 2.0}},
         "field 'psi.value': unknown field of family 'tabulated'"),
        ({"span": {"kind": "monomials", "degree": 10**30}},
         f"field 'span.degree': degree {10**30} gives {10**30 + 1} basis functions "
         "on 2 nodes"),
        ({"span": {"kind": "monomials", "degree": 2}},
         "field 'span.degree': degree 2 gives 3 basis functions on 2 nodes"),
        ({"omega": [0, 0]}, "field 'omega[1]': node 0 is already omega[0]"),
        ({"span": {"kind": "tabulated", "values": [[[0, 0]], [[0, 0]]]}},
         "field 'span.values': every value is 0"),
        ({"span": {"kind": "tabulated", "values": [[[1, 0]], [[0, 0]]]},
          "phi": {"family": "tabulated", "values": [800.0, 0.0]},
          "psi": {"family": "tabulated", "values": [800.0, 0.5]}},
         "field 'phi': w e^{-phi} underflows to 0 at every node where the span"),
        ({"span": {"kind": "tabulated", "values": [[[1, 0]], [[0, 0]]]},
          "psi": {"family": "tabulated", "values": [800.0, 0.5]}},
         "field 'psi': w e^{-phi} underflows to 0 at every node where the span"),
        # phi overflows at the nodes: the rule reports it, and no warning does.
        ({"measure": dict(DISK_24X48, radius=2.0, n_radial=8, n_angular=16),
          "phi": {"family": "gauss", "a": 1e308}},
         "field 'phi': w e^{-phi} is not finite at every node"),
        ({"measure": dict(DISK_24X48, radius=2.0, n_radial=8, n_angular=16),
          "phi": {"family": "harmonic", "b": 1e308}},
         "field 'phi': w e^{-phi} is not finite at every node"),
        ({"measure": {"kind": "discrete", "points": [[1e200, 1e200], [1, 0]],
          "masses": [1, 1]}, "phi": {"family": "gauss", "a": 1.0}},
         "field 'phi': w e^{-phi} is not finite at every node"),
        ({"measure": {"kind": "discrete", "points": [[1e200, 1e200], [1, 0]],
          "masses": [1, 1]}, "phi": {"family": "harmonic", "b": 1.0}},
         "field 'phi': w e^{-phi} is not finite at every node"),
        # null is a value, not an absent key.
        ({"params": {"interior_radius": None}},
         "field 'params.interior_radius': expected a number > 0, got None"),
        ({"omega": None}, "field 'omega': expected a list, got None"),
        ({"measure": {"kind": "discrete", "points": [[10**400, 0], [1, 0]],
          "masses": [1, 1]}},
         "field 'measure.points': expected a list of finite [re, im] pairs"),
        # Disk rules too large to build: leggauss's companion matrix, then
        # the node arrays.
        ({"measure": dict(DISK_24X48, n_radial=1_000_000)},
         "field 'measure.n_radial': expected an integer from 1 to 2048, got 1000000"),
        ({"measure": dict(DISK_24X48, n_radial=2049)}, "field 'measure.n_radial'"),
        ({"measure": dict(DISK_24X48, n_radial=1, n_angular=10**12)},
         "field 'measure.n_angular': expected an integer from 1 to 1048576"),
        ({"measure": dict(DISK_24X48, n_radial=1024, n_angular=1025)},
         "field 'measure.n_angular': expected an integer from 1 to 1024 "
         "(at most 1048576 nodes), got 1025"),
    ],
)
def test_parse_rejects_bad_fields(mutate, needle):
    with pytest.raises(InvalidScenarioError) as err:
        parse_scenario(two_node_dict(**mutate))
    message = str(err.value)
    assert needle in message
    # One prefix, naming the scenario once, or the source for a bad id.
    prefix = "<dict>: " if "id" in mutate else "scenario 'ref': "
    assert message.startswith(prefix + "field '")
    assert message.count("field '") == 1


def test_parse_tabulated_span_row_count():
    bad = two_node_dict(
        span={"kind": "tabulated", "values": [[[1.0, 0.0]]]},
    )
    with pytest.raises(InvalidScenarioError) as err:
        parse_scenario(bad)
    assert "1 rows" in str(err.value)


def test_parse_psi_required_by_checks():
    d = two_node_dict()
    del d["psi"]
    with pytest.raises(InvalidScenarioError) as err:
        parse_scenario(d)
    assert "psi" in str(err.value)
    d["checks"] = ["structural"]
    config = parse_scenario(d)
    assert config.psi is None


def test_parse_maxprinciple_needs_omega():
    d = two_node_dict(checks=["maxprinciple"])
    with pytest.raises(InvalidScenarioError) as err:
        parse_scenario(d)
    assert "omega" in str(err.value)
    d["omega"] = [0]
    config = parse_scenario(d)
    assert config.omega == (0,)


def test_load_scenario_file_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(InvalidScenarioError):
        load_scenario_file(os.fspath(missing))
    broken = tmp_path / "broken.json"
    broken.write_text('{"id": "x",')
    with pytest.raises(InvalidScenarioError) as err:
        load_scenario_file(os.fspath(broken))
    assert "line 1" in str(err.value)


def test_run_scenario_reference_green():
    report = run_scenario(parse_scenario(two_node_dict()))
    assert report.green
    names = [r.name for r in report.results]
    assert names == ["structural", "comparison", "sweep", "homotopy"]
    comparison = report.results[1]
    assert comparison.metrics["lhs"] == pytest.approx(0.5, abs=1e-12)
    assert comparison.metrics["verdict"] == "strict"
    homotopy = report.results[3]
    assert homotopy.metrics["endpoint_dev"] <= 1e-12
    assert homotopy.metrics["bounds_ok"]


def test_sweep_judges_nesting_in_shift_order():
    """The sets {psi < phi + c} grow with c, in whatever order c_grid lists it."""
    up, down = (
        run_scenario(
            parse_scenario(two_node_dict(checks=["sweep"], params={"c_grid": grid}))
        ).results[0]
        for grid in ([-2.0, 2.0], [2.0, -2.0])
    )
    assert [row["set_size"] for row in up.rows] == [0, 2]
    assert down.passed
    assert down.metrics == up.metrics
    assert down.rows == up.rows[::-1]


SCENARIO_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")


def test_two_node_fd_ratio():
    """The reported fd-match ratio of the shipped two-node reference."""
    config = load_scenario_file(os.path.join(SCENARIO_DIR, "two-node-reference.json"))
    report = run_scenario(config)
    homotopy = next(r for r in report.results if r.name == "homotopy")
    assert homotopy.passed
    assert homotopy.metrics["worst_fd_ratio"] == pytest.approx(0.1111, abs=1e-4)


def test_structural_checks_the_reproducing_identity_above_2048_nodes():
    d = two_node_dict(
        measure={
            "kind": "disk-product", "radius": 1.0, "n_radial": 48, "n_angular": 48
        },
        span={"kind": "monomials", "degree": 2},
        phi={"family": "gauss", "a": 1.0},
        checks=["structural"],
    )
    del d["psi"]
    config = parse_scenario(d)
    assert config.measure.n == 2304
    result = run_scenario(config).results[0]
    assert result.passed
    limit = checks.limit("reproducing_residual").constant
    assert result.metrics["phi_reproducing_residual"] <= limit


@pytest.mark.parametrize("name", ["_check_structural", "_check_tcz"])
def test_disk_fock_scaling_checks_hold_node_values_in_blocks(name):
    """On the 40 960-node rule, forming the node values whole made each check
    peak above 50 MiB; formed in blocks, each stays far below that."""
    config = load_scenario_file(os.path.join(SCENARIO_DIR, "disk-fock-scaling.json"))
    spaces = kernels.Spaces(config.span, config.measure)
    tracemalloc.start()
    try:
        passed, _, _ = getattr(scenarios, name)(config, spaces)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert passed
    assert peak < 20 * 2**20


@pytest.mark.parametrize("name, calls", [("_check_structural", 0), ("_check_tcz", 0)])
def test_disk_fock_scaling_checks_take_kernel_diagonals_ring_by_ring(
    name, calls, monkeypatch
):
    """The diagonals and the residual's Gram come from one FFT per ring, so
    no basis values are formed."""
    config = load_scenario_file(os.path.join(SCENARIO_DIR, "disk-fock-scaling.json"))
    spaces = kernels.Spaces(config.span, config.measure)
    evaluated = []

    def counted(span, z):
        evaluated.append(len(z))
        return evaluate_basis(span, z)

    monkeypatch.setattr(kernels, "evaluate_basis", counted)
    passed, _, _ = getattr(scenarios, name)(config, spaces)
    assert passed
    assert len(evaluated) == calls


def test_run_scenario_maxprinciple():
    d = two_node_dict(
        checks=["maxprinciple"],
        omega=[0],
        psi={"family": "tabulated", "values": [0.5, 0.0]},
    )
    report = run_scenario(parse_scenario(d))
    assert report.green
    assert report.results[0].metrics["verdict"] in (
        "premises-fail",
        "conclusion-holds",
    )


def test_run_scenario_wraps_check_errors():
    # The parser rejects tcz on a discrete measure, so the config is edited
    # after parsing to reach the error that tcz_convergence_report raises.
    config = dataclasses.replace(parse_scenario(two_node_dict()), checks=("tcz",))
    with pytest.raises(Exception) as err:
        run_scenario(config)
    assert "scenario 'ref'" in str(err.value)


# The CSV headers are the file contract, written out here rather than read
# from scenarios.CSV_FILES, so that reordering a column there fails.
COMPARISON_HEADER = (
    "scenario_id", "c", "set_size", "set_proper", "lhs", "rhs", "margin", "verdict",
)
HOMOTOPY_HEADER = (
    "scenario_id", "t", "G", "rhs26", "rhs27", "rhs28", "fd", "fd_step",
    "max_pairwise_dev",
)
TCZ_HEADER = ("scenario_id", "k", "degree", "n_eval_points", "max_abs_dev", "mean_abs_dev")


def test_emit_csv_contract(tmp_path):
    report = run_scenario(parse_scenario(two_node_dict()))
    out = os.fspath(tmp_path / "reports")
    written = emit_report([report], out)
    names = sorted(os.path.basename(p) for p in written)
    assert names == ["comparison.csv", "homotopy.csv", "summary.json"]
    with open(os.path.join(out, "comparison.csv")) as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == COMPARISON_HEADER
    assert rows[1][0] == "ref"
    with open(os.path.join(out, "homotopy.csv")) as fh:
        header = next(csv.reader(fh))
    assert tuple(header) == HOMOTOPY_HEADER
    # No tcz rows were produced, so no tcz.csv appears.
    assert not os.path.exists(os.path.join(out, "tcz.csv"))


def test_emit_removes_the_csvs_an_earlier_run_left(tmp_path):
    """A contract CSV that the current run writes no rows for is removed."""
    out = os.fspath(tmp_path / "reports")
    emit_report([run_scenario(parse_scenario(two_node_dict()))], out)
    assert os.path.exists(os.path.join(out, "homotopy.csv"))
    only_structural = parse_scenario(two_node_dict(checks=["structural"]))
    written = emit_report([run_scenario(only_structural)], out)
    assert sorted(os.listdir(out)) == ["summary.json"]
    assert written == [os.path.join(out, "summary.json")]


def test_emit_csv_booleans_and_floats(tmp_path):
    report = run_scenario(parse_scenario(two_node_dict()))
    out = os.fspath(tmp_path / "fmt")
    emit_report([report], out)
    with open(os.path.join(out, "comparison.csv")) as fh:
        text = fh.read()
    assert "true" in text or "false" in text
    assert "True" not in text and "False" not in text


def test_emit_csv_deterministic(tmp_path):
    config = parse_scenario(two_node_dict())
    out_a = os.fspath(tmp_path / "a")
    out_b = os.fspath(tmp_path / "b")
    emit_report([run_scenario(config)], out_a)
    emit_report([run_scenario(config)], out_b)
    for name in ("comparison.csv", "homotopy.csv"):
        with open(os.path.join(out_a, name), "rb") as fa:
            with open(os.path.join(out_b, name), "rb") as fb:
                assert fa.read() == fb.read(), name


def test_emit_json_single_document(tmp_path):
    """Besides the CSV files, a run writes one JSON document: summary.json."""
    report = run_scenario(parse_scenario(two_node_dict()))
    out = os.fspath(tmp_path / "json")
    written = emit_report([report], out)
    documents = [p for p in written if p.endswith(".json")]
    assert [os.path.basename(p) for p in documents] == ["summary.json"]
    with open(documents[0]) as fh:
        doc = json.load(fh)
    assert doc["green"] is True
    assert doc["scenarios"][0]["scenario_id"] == "ref"


def small_ladder_dict(k_list):
    return {
        "id": "scaling",
        "measure": {
            "kind": "disk-product",
            "radius": 1.0,
            "n_radial": 32,
            "n_angular": 64,
        },
        "span": {"kind": "monomials", "degree": 4},
        "phi": {"family": "gauss", "a": 1.0},
        "checks": ["tcz"],
        "params": {"k_list": k_list, "interior_radius": 0.5},
    }


def test_tcz_judges_the_ladder_in_increasing_k():
    """A ladder listed from the largest k down gets the ascending verdict;
    its rows and requested degrees keep the listed order."""
    up, down = (
        run_scenario(parse_scenario(small_ladder_dict(k_list))).results[0]
        for k_list in ([6.0, 12.0], [12.0, 6.0])
    )
    assert up.rows[0]["max_abs_dev"] > up.rows[1]["max_abs_dev"]
    assert down.passed and up.passed
    for name in ("final_max_abs_dev", "deviations_monotone", "n_skipped"):
        assert down.metrics[name] == up.metrics[name]
    assert down.metrics["degrees_requested"] == up.metrics["degrees_requested"][::-1]
    assert down.rows == up.rows[::-1]


def test_tcz_rows_create_tcz_csv(tmp_path):
    report = run_scenario(parse_scenario(small_ladder_dict([6.0, 12.0])))
    assert report.green
    out = os.fspath(tmp_path / "tcz")
    written = emit_report([report], out)
    tcz_path = os.path.join(out, "tcz.csv")
    assert tcz_path in written
    with open(tcz_path) as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == TCZ_HEADER
    assert len(rows) == 3


def test_report_document_contents(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setenv("MKL_NUM_THREADS", "2")
    report = run_scenario(parse_scenario(two_node_dict()))
    doc = report_document([report], extra={"note": 1})
    assert doc["green"] is True
    assert doc["versions"] == {
        "bergmanlab": __version__,
        "numpy": np.__version__,
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": None,
        "MKL_NUM_THREADS": "2",
    }
    assert "comparison" in doc["tolerances"]
    assert doc["note"] == 1
    scenario = doc["scenarios"][0]
    assert {c["name"] for c in scenario["checks"]} == {
        "structural",
        "comparison",
        "sweep",
        "homotopy",
    }
    for check in scenario["checks"]:
        assert "wall_seconds" in check
    # The context's counts: phi, psi and psi0 alone, the homotopy path's 33
    # spaces as one stack.
    assert scenario["spaces"] == {"built": 36, "stacks": 4, "max_spread": 1.0}


def test_report_document_writes_non_finite_floats_as_null():
    extra = {
        "values": [float("inf"), -float("inf"), float("nan"), 1.5],
        "numpy": [np.float64("inf"), np.float64("nan"), np.float64(2.0)],
    }
    doc = report_document([], extra=extra)
    assert doc["values"] == [None, None, None, 1.5]
    assert doc["numpy"] == [None, None, 2.0]
    json.dumps(doc, allow_nan=False)
