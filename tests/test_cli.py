"""CLI verbs, exit codes, and report artifacts."""

import csv
import json
import os

import pytest

from bergmanlab.cli import EXIT_CONFIG, EXIT_GREEN, EXIT_RED, main

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")


@pytest.fixture()
def scenario_file(tmp_path):
    doc = {
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
    path = tmp_path / "ref.json"
    path.write_text(json.dumps(doc))
    return os.fspath(path)


def test_run_green(scenario_file, tmp_path, capsys):
    out = os.fspath(tmp_path / "out")
    assert main(["run", scenario_file, "--out", out]) == EXIT_GREEN
    stdout = capsys.readouterr().out
    assert "ref: structural ok" in stdout
    assert "green; reports in" in stdout
    assert os.path.exists(os.path.join(out, "comparison.csv"))
    assert os.path.exists(os.path.join(out, "summary.json"))


def test_run_shipped_scenarios_green(tmp_path, capsys):
    """Every shipped scenario runs end to end, and every check is green."""
    files = sorted(
        os.path.join(SCENARIO_DIR, name)
        for name in os.listdir(SCENARIO_DIR)
        if name.endswith(".json")
    )
    assert len(files) == 4
    out = os.fspath(tmp_path / "out")
    assert main(["run", *files, "--out", out]) == EXIT_GREEN
    capsys.readouterr()
    with open(os.path.join(out, "summary.json")) as fh:
        doc = json.load(fh)
    checks = {
        (scenario["scenario_id"], check["name"]): check
        for scenario in doc["scenarios"]
        for check in scenario["checks"]
    }
    assert all(check["passed"] for check in checks.values())
    # The degree rule asks for 1.5 k R^2 = 240 at k = 40; the 160x256 rule
    # caps it at 127, and the report says so.
    tcz = checks[("disk-fock-scaling", "tcz")]["metrics"]
    assert tcz["degrees_requested"] == [60.0, 120.0, 240.0]
    with open(os.path.join(out, "tcz.csv")) as fh:
        last = list(csv.DictReader(fh))[-1]
    assert (last["k"], last["degree"]) == ("40.0", "127")


def test_run_missing_file(tmp_path, capsys):
    code = main(["run", os.fspath(tmp_path / "absent.json")])
    assert code == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err


def test_run_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["run", os.fspath(bad)]) == EXIT_CONFIG
    assert "line 1" in capsys.readouterr().err


def test_run_duplicate_ids(scenario_file, capsys):
    assert main(["run", scenario_file, scenario_file]) == EXIT_CONFIG
    assert "duplicate scenario id" in capsys.readouterr().err


def test_run_red_under_tiny_tol_scale(scenario_file, tmp_path, capsys):
    out = os.fspath(tmp_path / "red")
    code = main(["run", scenario_file, "--out", out, "--tol-scale", "1e-16"])
    assert code == EXIT_RED
    assert "red; reports in" in capsys.readouterr().out


@pytest.mark.parametrize("value", ["nan", "-1", "0"])
def test_tol_scale_must_be_finite_and_positive(value, scenario_file, capsys):
    with pytest.raises(SystemExit) as err:
        main(["run", scenario_file, "--tol-scale", value])
    assert err.value.code == EXIT_CONFIG
    assert "--tol-scale" in capsys.readouterr().err


def test_run_json_format(scenario_file, tmp_path, capsys):
    out = os.fspath(tmp_path / "json")
    assert main(["run", scenario_file, "--out", out]) == EXIT_GREEN
    assert not os.path.exists(os.path.join(out, "run_report.json"))
    with open(os.path.join(out, "summary.json")) as fh:
        doc = json.load(fh)
    assert doc["green"] is True
    assert doc["tol_scale"] == 1.0


def test_battery_green(tmp_path, capsys):
    out = os.fspath(tmp_path / "bat")
    assert main(["battery", "--n", "12", "--seed", "0", "--out", out]) == EXIT_GREEN
    stdout = capsys.readouterr().out
    assert "battery: 12 instances, seed 0" in stdout
    with open(os.path.join(out, "summary.json")) as fh:
        summary = json.load(fh)
    assert summary["green"] is True
    assert summary["battery"]["n_instances"] == 12
    assert "elapsed_seconds" in summary["battery"]


def test_battery_rejects_nonpositive_n(capsys):
    with pytest.raises(SystemExit) as err:
        main(["battery", "--n", "0"])
    assert err.value.code == EXIT_CONFIG
    assert "--n" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value", [("--n", "-1"), ("--seed", "-1"), ("--max-principle", "-5")]
)
def test_battery_rejects_a_negative_count(flag, value, tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        main(["battery", flag, value, "--out", os.fspath(tmp_path / "out")])
    assert err.value.code == EXIT_CONFIG
    assert f"argument {flag}:" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out")


def test_battery_red_with_tiny_tol_scale(tmp_path, capsys):
    out = os.fspath(tmp_path / "batred")
    code = main(
        ["battery", "--n", "6", "--seed", "0", "--out", out, "--tol-scale", "1e-12"]
    )
    assert code == EXIT_RED
    failures = os.path.join(out, "failures")
    assert os.path.isdir(failures)
    assert os.listdir(failures)


def test_battery_max_principle_flag(tmp_path, capsys):
    out = os.fspath(tmp_path / "mp")
    code = main(
        ["battery", "--n", "5", "--seed", "0", "--max-principle", "200", "--out", out]
    )
    assert code == EXIT_GREEN
    stdout = capsys.readouterr().out
    assert "max principle search: 200 instances" in stdout
    with open(os.path.join(out, "summary.json")) as fh:
        summary = json.load(fh)
    assert summary["max_principle_search"]["counterexamples"] == []


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["run", "x.json", "--format", "json"])
    assert err.value.code == 2


@pytest.mark.parametrize("verb", ["run", "battery"])
def test_unwritable_out_exits_two(verb, scenario_file, tmp_path, capsys):
    args = ["run", scenario_file] if verb == "run" else ["battery", "--n", "1"]
    regular = tmp_path / "taken"
    regular.write_text("")
    assert main([*args, "--out", os.fspath(regular)]) == EXIT_CONFIG
    assert f"error: --out {regular}:" in capsys.readouterr().err
    # A directory that exists but where summary.json cannot be written.
    blocked = tmp_path / "blocked"
    (blocked / "summary.json").mkdir(parents=True)
    assert main([*args, "--out", os.fspath(blocked)]) == EXIT_CONFIG
    assert f"error: --out {blocked}:" in capsys.readouterr().err


def _disk_scenario(tmp_path, **overrides):
    doc = {
        "id": "disk",
        "measure": {"kind": "disk-product", "radius": 1.0, "n_radial": 24,
                    "n_angular": 48},
        "span": {"kind": "monomials", "degree": 2},
        "phi": {"family": "gauss", "a": 1.0},
        "psi": {"family": "constant", "c": 0.5},
        "checks": ["structural"],
    }
    doc.update(overrides)
    path = tmp_path / "disk.json"
    path.write_text(json.dumps(doc))
    return os.fspath(path)


@pytest.mark.parametrize(
    "overrides",
    [
        # e^{-k phi} overflows on the scaled space at k = 40, while the
        # limit density Laplacian(phi)/(4 pi) stays positive.
        {"phi": {"family": "radial-poly", "coeffs": [-30.0, 1.0]},
         "checks": ["tcz"], "params": {"k_list": [10, 40]}},
        # The finite-difference stencil at t = 0 builds a space at t < 0,
        # where e^{-phi_t} overflows.
        {"psi": {"family": "constant", "c": 1e300}, "checks": ["homotopy"]},
    ],
    ids=["tcz-overflow", "homotopy-stencil-overflow"],
)
def test_run_rejects_an_overflowing_derived_weight(
    overrides, tmp_path, capsys, recwarn
):
    path = _disk_scenario(tmp_path, **overrides)
    assert main(["run", path, "--out", os.fspath(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "scenario 'disk'" in err
    assert "gram is not finite" in err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize(
    "omega", [[], list(range(24 * 48))], ids=["empty", "every-node"]
)
def test_run_rejects_an_improper_omega(omega, tmp_path, capsys):
    path = _disk_scenario(tmp_path, checks=["maxprinciple"], omega=omega)
    assert main(["run", path, "--out", os.fspath(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "field 'omega'" in err
    assert "proper subset" in err
