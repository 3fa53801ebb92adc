"""Scenario parsing, check execution, and report emission."""

import csv
import dataclasses
import json
import os

import pytest

from bergmanlab import (
    InvalidScenarioError,
    emit_report,
    load_scenario_file,
    parse_scenario,
    report_document,
    run_scenario,
)
from bergmanlab.kernels import REPRODUCING_TOL
from bergmanlab.scenarios import (
    COMPARISON_COLUMNS,
    HOMOTOPY_COLUMNS,
    TCZ_COLUMNS,
)


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
        ({"params": {"t_grid": [0.0, 1.5]}}, "t_grid"),
        ({"params": {"tau_list": [0.0]}}, "tau_list"),
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
        ({"params": {"t_grid": []}}, "params.t_grid"),
        ({"params": {"t_grid": [0.5, 0.0, 1.0]}}, "params.t_grid"),
        ({"params": {"tau_list": [float("nan")]}}, "params.tau_list[0]"),
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
    ],
)
def test_parse_rejects_bad_fields(mutate, needle):
    with pytest.raises(InvalidScenarioError) as err:
        parse_scenario(two_node_dict(**mutate))
    assert needle in str(err.value)


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


SCENARIO_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")


def test_fd_ratio_does_not_depend_on_tol_scale():
    """tol_scale moves the fd-match limit, not the reported ratio."""
    config = load_scenario_file(os.path.join(SCENARIO_DIR, "two-node-reference.json"))
    ratios = []
    for tol_scale in (1.0, 1e3):
        report = run_scenario(config, tol_scale=tol_scale)
        homotopy = next(r for r in report.results if r.name == "homotopy")
        ratios.append(homotopy.metrics["worst_fd_ratio"])
    assert ratios[0] == ratios[1]
    assert ratios[0] == pytest.approx(0.1111, abs=1e-4)


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
    assert result.metrics["phi_reproducing_residual"] <= REPRODUCING_TOL


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


def test_emit_csv_contract(tmp_path):
    report = run_scenario(parse_scenario(two_node_dict()))
    out = os.fspath(tmp_path / "reports")
    written = emit_report([report], out)
    names = sorted(os.path.basename(p) for p in written)
    assert names == ["comparison.csv", "homotopy.csv", "summary.json"]
    with open(os.path.join(out, "comparison.csv")) as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == COMPARISON_COLUMNS
    assert rows[1][0] == "ref"
    with open(os.path.join(out, "homotopy.csv")) as fh:
        header = next(csv.reader(fh))
    assert tuple(header) == HOMOTOPY_COLUMNS
    # No tcz rows were produced, so no tcz.csv appears.
    assert not os.path.exists(os.path.join(out, "tcz.csv"))


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


def test_tcz_rows_create_tcz_csv(tmp_path):
    d = {
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
        "params": {"k_list": [6.0, 12.0], "interior_radius": 0.5},
    }
    report = run_scenario(parse_scenario(d))
    assert report.green
    out = os.fspath(tmp_path / "tcz")
    written = emit_report([report], out)
    tcz_path = os.path.join(out, "tcz.csv")
    assert tcz_path in written
    with open(tcz_path) as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == TCZ_COLUMNS
    assert len(rows) == 3


def test_report_document_contents():
    report = run_scenario(parse_scenario(two_node_dict()))
    doc = report_document([report], extra={"note": 1})
    assert doc["green"] is True
    assert "bergmanlab" in doc["versions"]
    assert "numpy" in doc["versions"]
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
