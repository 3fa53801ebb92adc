"""CLI verbs, exit codes, and report artifacts."""

import csv
import json
import os
import subprocess
import sys
import warnings

import pytest

import bergmanlab
from bergmanlab.battery import max_principle_search
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


def test_run_green_with_both_weights_shifted_by_700(tmp_path, capsys):
    """Shifting phi and psi by one constant leaves the space and every verdict
    alone; the reproducing residual, ||E* D E - I||_2, has no units."""
    with open(os.path.join(SCENARIO_DIR, "two-node-reference.json")) as fh:
        doc = json.load(fh)
    doc["phi"]["c"] += 700.0
    doc["psi"]["values"] = [v + 700.0 for v in doc["psi"]["values"]]
    path = tmp_path / "shifted.json"
    path.write_text(json.dumps(doc))
    out = os.fspath(tmp_path / "out")
    assert main(["run", os.fspath(path), "--out", out]) == EXIT_GREEN
    assert "two-node-reference: structural ok" in capsys.readouterr().out


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


@pytest.fixture()
def red_scenario_file(tmp_path):
    """At k = 1 on a radius-2 disk the TCZ deviation is 0.1295, above 0.05."""
    measure = {"kind": "disk-product", "radius": 2.0, "n_radial": 16, "n_angular": 32}
    return _disk_scenario(
        tmp_path, measure=measure, checks=["tcz"], params={"k_list": [1.0]}
    )


def test_run_red_on_a_failing_check(red_scenario_file, tmp_path, capsys):
    out = os.fspath(tmp_path / "red")
    assert main(["run", red_scenario_file, "--out", out]) == EXIT_RED
    assert "disk: tcz FAIL" in capsys.readouterr().out
    with open(os.path.join(out, "summary.json")) as fh:
        metrics = json.load(fh)["scenarios"][0]["checks"][0]["metrics"]
    assert metrics["final_max_abs_dev"] == pytest.approx(0.1295, abs=1e-4)


@pytest.mark.parametrize("value", ["1", "0", "-1", "nan"])
@pytest.mark.parametrize(
    "verb", [["run", "SCENARIO"], ["battery"]], ids=["run", "battery"]
)
def test_tol_scale_is_not_an_option(verb, value, scenario_file, tmp_path, capsys):
    verb = [scenario_file if a == "SCENARIO" else a for a in verb]
    out = os.fspath(tmp_path / "out")
    with pytest.raises(SystemExit) as err:
        main([*verb, "--tol-scale", value, "--out", out])
    assert err.value.code == EXIT_CONFIG
    assert f"unrecognized arguments: --tol-scale {value}" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_run_rejects_a_k_whose_degree_is_not_finite(tmp_path, capsys):
    """k = 1e308 asks for the degree 1.5 k R^2 = inf on a radius-2 disk, while
    k * phi stays finite at every node."""
    measure = {"kind": "disk-product", "radius": 2.0, "n_radial": 8, "n_angular": 16}
    path = _disk_scenario(
        tmp_path,
        measure=measure,
        phi={"family": "radial-poly", "coeffs": [0.0, 1e-11]},
        checks=["tcz"],
        params={"k_list": [1e308]},
    )
    out = os.fspath(tmp_path / "out")
    assert main(["run", path, "--out", out]) == EXIT_CONFIG
    assert "field 'params.k_list[0]'" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "summary.json"))


def test_run_reports_an_overflowing_weight_once(tmp_path):
    """phi = 1e308 |z|^2 overflows on a radius-2 disk: the console command,
    under Python's default warning filters, exits 2 and writes one error
    line to stderr, with no warning before it."""
    measure = {"kind": "disk-product", "radius": 2.0, "n_radial": 8, "n_angular": 16}
    path = _disk_scenario(
        tmp_path, measure=measure, phi={"family": "gauss", "a": 1e308}
    )
    src = os.path.dirname(os.path.dirname(bergmanlab.__file__))
    path_dirs = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path_dirs))
    run = subprocess.run(
        [sys.executable, "-m", "bergmanlab.cli", "run", path, "--out",
         os.fspath(tmp_path / "out")],
        capture_output=True, text=True, env=env,
    )
    assert run.returncode == EXIT_CONFIG
    assert run.stderr.splitlines() == [
        "error: scenario 'disk': field 'phi': w e^{-phi} is not finite at every node"
    ]


def test_run_json_format(scenario_file, tmp_path, capsys):
    out = os.fspath(tmp_path / "json")
    assert main(["run", scenario_file, "--out", out]) == EXIT_GREEN
    assert not os.path.exists(os.path.join(out, "run_report.json"))
    with open(os.path.join(out, "summary.json")) as fh:
        doc = json.load(fh)
    assert doc["green"] is True
    assert "tol_scale" not in doc


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


def test_battery_red_under_a_tightened_limit(tight_trace_limit, tmp_path, capsys):
    out = os.fspath(tmp_path / "batred")
    code = main(["battery", "--n", "6", "--seed", "0", "--out", out])
    assert code == EXIT_RED
    assert "(limit 1.0e-21) FAIL" in capsys.readouterr().out
    failures = os.path.join(out, "failures")
    assert os.path.isdir(failures)
    assert os.listdir(failures)


def test_out_holds_only_the_last_runs_results(scenario_file, tmp_path, capsys):
    """A battery run into a scenario run's --out leaves no stale CSV there."""
    out = os.fspath(tmp_path / "out")
    assert main(["run", scenario_file, "--out", out]) == EXIT_GREEN
    assert os.path.exists(os.path.join(out, "homotopy.csv"))
    assert main(["battery", "--n", "2", "--seed", "0", "--out", out]) == EXIT_GREEN
    assert os.listdir(out) == ["summary.json"]


def test_a_scenario_run_removes_an_earlier_batterys_failure_dumps(
    tight_trace_limit, monkeypatch, scenario_file, tmp_path, capsys
):
    out = os.fspath(tmp_path / "out")
    failures = os.path.join(out, "failures")
    assert main(["battery", "--n", "2", "--seed", "0", "--out", out]) == EXIT_RED
    assert os.listdir(failures)
    monkeypatch.undo()
    assert main(["run", scenario_file, "--out", out]) == EXIT_GREEN
    assert not os.path.exists(failures)


def test_a_green_battery_removes_an_earlier_batterys_failure_dumps(
    tight_trace_limit, monkeypatch, tmp_path, capsys
):
    out = os.fspath(tmp_path / "out")
    failures = os.path.join(out, "failures")
    assert main(["battery", "--n", "2", "--seed", "0", "--out", out]) == EXIT_RED
    assert os.listdir(failures)
    monkeypatch.undo()
    assert main(["battery", "--n", "2", "--seed", "0", "--out", out]) == EXIT_GREEN
    assert not os.path.exists(failures)


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
    search = summary["max_principle_search"]
    assert list(search) == [
        "n_instances",
        "seed",
        "premises_fail",
        "conclusion_holds",
        "counterexamples",
        "candidates",
        "closest_approach",
        "closest_instance",
        "elapsed_seconds",
    ]
    assert search["counterexamples"] == []
    approach = f"{search['closest_approach']:.3g}"
    assert (
        f"candidates {search['candidates']}, closest approach {approach} "
        f"at instance {search['closest_instance']}\n"
    ) in stdout


def test_battery_max_principle_line_without_candidates(tmp_path, capsys):
    """With no candidate the approach fields are null and the line ends at
    the count."""
    out = os.fspath(tmp_path / "mp")
    args = ["battery", "--n", "1", "--seed", "4", "--max-principle", "1"]
    assert main([*args, "--out", out]) == EXIT_GREEN
    assert "counterexamples 0, candidates 0\n" in capsys.readouterr().out
    with open(os.path.join(out, "summary.json")) as fh:
        search = json.load(fh)["max_principle_search"]
    assert search["closest_approach"] is None
    assert search["closest_instance"] is None


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
        # where e^{-phi_t} overflows on the outer nodes; e^{-psi} underflows
        # there but not near the centre.
        {"psi": {"family": "radial-poly", "coeffs": [0.0, 0.0, 0.0, 0.0, 1e7]},
         "checks": ["homotopy"]},
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


def test_run_rejects_a_k_whose_scaled_weight_overflows(tmp_path, capsys, recwarn):
    """k * phi overflows on the outer nodes of a radius-2 disk at k = 1e308."""
    measure = {"kind": "disk-product", "radius": 2.0, "n_radial": 24, "n_angular": 48}
    path = _disk_scenario(
        tmp_path, measure=measure, checks=["tcz"], params={"k_list": [1e308]}
    )
    assert main(["run", path, "--out", os.fspath(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "field 'params.k_list[0]'" in err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_a_shift_that_overflows_phi_plus_c_gives_the_sublevel_set(tmp_path):
    """phi + c overflows to inf at the second node; {psi < inf} holds there,
    so the set is both nodes, and the run is green without a warning."""
    doc = {
        "id": "shift-overflow",
        "measure": {
            "kind": "discrete",
            "points": [[0.0, 0.0], [1.0, 0.0]],
            "masses": [1.0, 1.0],
        },
        "span": {"kind": "monomials", "degree": 0},
        "phi": {"family": "tabulated", "values": [0.0, 1e308]},
        "psi": {"family": "tabulated", "values": [0.0, 0.0]},
        "checks": ["sweep"],
        "params": {"c_grid": [1.7e308]},
    }
    path = tmp_path / "shift-overflow.json"
    path.write_text(json.dumps(doc))
    out = os.fspath(tmp_path / "out")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", os.fspath(path), "--out", out]) == EXIT_GREEN
    with open(os.path.join(out, "comparison.csv")) as fh:
        (row,) = csv.DictReader(fh)
    assert row["set_size"] == "2"


@pytest.mark.parametrize(
    "omega", [[], list(range(24 * 48))], ids=["empty", "every-node"]
)
def test_run_rejects_an_improper_omega(omega, tmp_path, capsys):
    path = _disk_scenario(tmp_path, checks=["maxprinciple"], omega=omega)
    assert main(["run", path, "--out", os.fspath(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "field 'omega'" in err
    assert "proper subset" in err


@pytest.mark.parametrize(
    "args",
    [
        ["battery", "--n", "6", "--seed", "0"],
        ["TIGHT", "battery", "--n", "6", "--seed", "0"],
        ["battery", "--n", "3", "--seed", "0", "--max-principle", "50"],
        ["run", "SCENARIO"],
        ["run", "RED_SCENARIO"],
    ],
    ids=["battery-green", "battery-red", "search-green", "run-green", "run-red"],
)
def test_summary_green_is_the_exit_verdict(args, request, tmp_path, capsys):
    """A leading TIGHT runs the battery under a tightened trace limit."""
    if args[0] == "TIGHT":
        request.getfixturevalue("tight_trace_limit")
        args = args[1:]
    files = {
        "SCENARIO": request.getfixturevalue("scenario_file"),
        "RED_SCENARIO": request.getfixturevalue("red_scenario_file"),
    }
    out = os.fspath(tmp_path / "out")
    args = [files.get(a, a) for a in args]
    code = main([*args, "--out", out])
    assert code in (EXIT_GREEN, EXIT_RED)
    with open(os.path.join(out, "summary.json")) as fh:
        assert json.load(fh)["green"] is (code == EXIT_GREEN)


def test_search_counterexample_makes_summary_red(tmp_path, monkeypatch, capsys):
    def with_counterexample(*args, **kwargs):
        search = max_principle_search(*args, **kwargs)
        search.counterexamples.append({"instance": -1})
        return search

    monkeypatch.setattr("bergmanlab.cli.max_principle_search", with_counterexample)
    out = os.fspath(tmp_path / "out")
    args = ["battery", "--n", "3", "--seed", "0", "--max-principle", "20"]
    assert main([*args, "--out", out]) == EXIT_RED
    with open(os.path.join(out, "summary.json")) as fh:
        assert json.load(fh)["green"] is False


@pytest.mark.parametrize(
    "content",
    [b"\xff\xfe{}", b"[" * 100_000 + b"]" * 100_000, b"[1" + b"0" * 5000 + b"]"],
    ids=["not-utf8", "nested-100000-deep", "5001-digit-integer"],
)
def test_undecodable_scenario_file_exits_two(content, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    assert main(["run", os.fspath(path), "--out", os.fspath(tmp_path / "out")]) == (
        EXIT_CONFIG
    )
    assert f"error: {path}:" in capsys.readouterr().err
