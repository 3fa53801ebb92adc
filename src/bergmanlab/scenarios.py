"""Scenario files: parsing, check execution, and report emission.

A scenario is a JSON document describing one configuration (measure, span,
one or two weights) plus the list of checks to run against it.  The runner
executes checks in declared order, collects pass/fail plus metrics per
check, and emits the results as CSV files with fixed column contracts plus
one JSON document, summary.json.

CSV column contracts:
  comparison.csv  scenario_id, c, set_size, set_proper, lhs, rhs, margin,
                  verdict
  homotopy.csv    scenario_id, t, G, rhs26, rhs27, rhs28, fd, fd_step,
                  max_pairwise_dev
  tcz.csv         scenario_id, k, degree, n_eval_points, max_abs_dev,
                  mean_abs_dev

The rhs26/rhs27/rhs28 column names are part of the file contract and label
the three algebraic forms of G' in their fixed order (direct, symmetric,
sign-split).

Timings appear only in the summary document, never in CSV rows, so result
files are byte-identical across reruns of the same configuration.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import checks
from .comparison import (
    MAXPRINCIPLE_COUNTEREXAMPLE,
    VERDICT_STRICT,
    comparison_integrals,
    max_principle_check,
    sandwich_check,
    shifted_comparison_sweep,
    strictness_check,
)
from .errors import (
    BergmanlabError,
    InvalidConfigurationError,
    InvalidMeasureError,
    InvalidScenarioError,
)
from .homotopy import BOUND_STEPS, build_path, g_derivative_forms
from .kernels import build_space, reproducing_residual
from .measures import KIND_DISK, build_discrete_measure, build_disk_measure
from .quantization import (
    DEFAULT_K_LADDER,
    DENSITY_SKIP_TOL,
    TCZ_DEV_FLOOR,
    TCZ_MONOTONE_SLACK,
    ladder_nodes,
    ma_density,
    tcz_convergence_report,
)
from .spans import monomial_span, tabulated_span
from .weights import eval_weight, weight_family_from_dict

CHECK_NAMES = (
    "structural",
    "comparison",
    "sweep",
    "homotopy",
    "tcz",
    "maxprinciple",
)

PARAM_NAMES = ("c_grid", "t_grid", "tau_list", "k_list", "interior_radius")

DEFAULT_C_GRID = (-2.0, -1.0, 0.0, 1.0, 2.0)

COMPARISON_COLUMNS = (
    "scenario_id",
    "c",
    "set_size",
    "set_proper",
    "lhs",
    "rhs",
    "margin",
    "verdict",
)
HOMOTOPY_COLUMNS = (
    "scenario_id",
    "t",
    "G",
    "rhs26",
    "rhs27",
    "rhs28",
    "fd",
    "fd_step",
    "max_pairwise_dev",
)
TCZ_COLUMNS = (
    "scenario_id",
    "k",
    "degree",
    "n_eval_points",
    "max_abs_dev",
    "mean_abs_dev",
)


@dataclass
class ScenarioConfig:
    """One parsed scenario: geometry, weights, and the checks to run."""

    scenario_id: str
    measure: object
    span: object
    phi: object
    psi: object
    checks: tuple
    c_grid: tuple = DEFAULT_C_GRID
    t_grid: tuple | None = None
    tau_list: tuple = BOUND_STEPS
    k_list: tuple = DEFAULT_K_LADDER
    omega: tuple | None = None
    interior_radius: float | None = None
    source: str = "<dict>"


def _fail(scenario_id, field_path, message):
    raise InvalidScenarioError(
        f"scenario {scenario_id!r}: field {field_path!r}: {message}"
    )


def _number(raw, scenario_id, field_path, rule=None, ok=None, integer=False):
    """raw if it is a finite number (an int when integer is set) passing ok."""
    kinds = numbers.Integral if integer else numbers.Real
    rule = rule or ("an integer" if integer else "a finite number")
    if (
        isinstance(raw, bool)
        or not isinstance(raw, kinds)
        or not abs(raw) < math.inf
        or (ok is not None and not ok(raw))
    ):
        _fail(scenario_id, field_path, f"expected {rule}, got {raw!r}")
    return int(raw) if integer else float(raw)


def _numbers(raw, scenario_id, field_path, *args, **kwargs):
    """A list of numbers, each checked by _number under its own index."""
    if not isinstance(raw, (list, tuple)):
        _fail(scenario_id, field_path, f"expected a list, got {raw!r}")
    return tuple(
        _number(value, scenario_id, f"{field_path}[{i}]", *args, **kwargs)
        for i, value in enumerate(raw)
    )


def _complex_pairs(raw, scenario_id, field_path, ndim=1):
    """Finite [re, im] pairs nested ndim lists deep, as a complex array."""
    try:
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError):
        arr = np.empty(0)
    if arr.ndim != ndim + 1 or arr.shape[-1] != 2 or not np.all(np.isfinite(arr)):
        rows = "a list" if ndim == 1 else "rows, one per node,"
        _fail(scenario_id, field_path, f"expected {rows} of finite [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def _parse_measure(raw, scenario_id):
    if not isinstance(raw, dict):
        _fail(scenario_id, "measure", "expected an object")
    kind = raw.get("kind")
    try:
        if kind == "discrete":
            return build_discrete_measure(
                _complex_pairs(raw["points"], scenario_id, "measure.points"),
                _numbers(raw["masses"], scenario_id, "measure.masses"),
            )
        if kind == "disk-product":
            radius = _number(raw["radius"], scenario_id, "measure.radius")
            n_radial, n_angular = (
                _number(
                    raw[key],
                    scenario_id,
                    f"measure.{key}",
                    "an integer >= 1",
                    lambda n: n >= 1,
                    integer=True,
                )
                for key in ("n_radial", "n_angular")
            )
            return build_disk_measure(radius, n_radial, n_angular)
    except KeyError as missing:
        _fail(scenario_id, f"measure.{missing.args[0]}", "required")
    except InvalidMeasureError as exc:
        # With the node counts checked, the disk rule can only reject its radius.
        field_path = "measure.radius" if kind == "disk-product" else "measure"
        _fail(scenario_id, field_path, str(exc))
    _fail(scenario_id, "measure.kind", f"unknown kind {kind!r}")


def _parse_span(raw, measure, scenario_id):
    if not isinstance(raw, dict):
        _fail(scenario_id, "span", "expected an object")
    kind = raw.get("kind")
    if kind == "monomials":
        if "degree" not in raw:
            _fail(scenario_id, "span.degree", "required for monomials")
        degree = _number(raw["degree"], scenario_id, "span.degree", integer=True)
        try:
            return monomial_span(measure, degree)
        except (InvalidMeasureError, InvalidConfigurationError) as exc:
            _fail(scenario_id, "span.degree", str(exc))
    if kind == "tabulated":
        if "values" not in raw:
            _fail(scenario_id, "span.values", "required for tabulated")
        values = _complex_pairs(raw["values"], scenario_id, "span.values", ndim=2)
        if values.shape[0] != measure.n:
            _fail(
                scenario_id,
                "span.values",
                f"{values.shape[0]} rows for a measure with {measure.n} nodes",
            )
        return tabulated_span(values)
    _fail(scenario_id, "span.kind", f"unknown kind {kind!r}")


def _parse_weight(raw, measure, scenario_id, field_path):
    """The weight tabulated on the measure's nodes, with a finite w e^{-phi}."""
    if not isinstance(raw, dict):
        _fail(scenario_id, field_path, "expected an object with a family")
    try:
        weight = weight_family_from_dict(raw)
    except KeyError as missing:
        _fail(scenario_id, f"{field_path}.{missing.args[0]}", "required")
    except Exception as exc:  # family errors carry their own message
        _fail(scenario_id, field_path, str(exc))
    params = weight.family.params() if weight.family is not None else {}
    for name, value in params.items():
        if not np.all(np.isfinite(value)):
            _fail(scenario_id, f"{field_path}.{name}", f"must be finite, got {value}")
    try:
        weight = eval_weight(weight, measure)
    except InvalidMeasureError as exc:
        _fail(scenario_id, field_path, str(exc))
    with np.errstate(over="ignore"):
        factor = measure.masses * np.exp(-weight.values)
    if not (np.all(np.isfinite(weight.values)) and np.all(np.isfinite(factor))):
        _fail(scenario_id, field_path, "w e^{-phi} is not finite at every node")
    return weight


def parse_scenario(raw: dict, source: str = "<dict>") -> ScenarioConfig:
    """Validate a scenario dictionary, field by field."""
    if not isinstance(raw, dict):
        raise InvalidScenarioError(f"{source}: scenario must be an object")
    scenario_id = raw.get("id")
    if not isinstance(scenario_id, str) or not scenario_id:
        raise InvalidScenarioError(f"{source}: field 'id': nonempty string required")

    checks_raw = raw.get("checks")
    if not isinstance(checks_raw, (list, tuple)) or not checks_raw:
        _fail(scenario_id, "checks", "nonempty list required")
    for name in checks_raw:
        if name not in CHECK_NAMES:
            _fail(
                scenario_id,
                "checks",
                f"unknown check {name!r}; valid: {', '.join(CHECK_NAMES)}",
            )

    if "measure" not in raw:
        _fail(scenario_id, "measure", "required")
    measure = _parse_measure(raw["measure"], scenario_id)
    if "span" not in raw:
        _fail(scenario_id, "span", "required")
    span = _parse_span(raw["span"], measure, scenario_id)
    if "phi" not in raw:
        _fail(scenario_id, "phi", "required")
    phi = _parse_weight(raw["phi"], measure, scenario_id, "phi")
    psi = None
    if "psi" in raw:
        psi = _parse_weight(raw["psi"], measure, scenario_id, "psi")

    needs_psi = {"comparison", "sweep", "homotopy", "maxprinciple"}
    for name in checks_raw:
        if name in needs_psi and psi is None:
            _fail(scenario_id, "psi", f"required by check {name!r}")

    params = raw.get("params", {})
    if not isinstance(params, dict):
        _fail(scenario_id, "params", "expected an object")
    for name in params:
        if name not in PARAM_NAMES:
            _fail(
                scenario_id,
                f"params.{name}",
                f"unknown parameter; valid: {', '.join(PARAM_NAMES)}",
            )

    def listed(name, default, *args):
        field_path = f"params.{name}"
        return _numbers(params.get(name, default), scenario_id, field_path, *args)

    c_grid = listed("c_grid", DEFAULT_C_GRID)
    t_grid = params.get("t_grid")
    if t_grid is not None:
        t_grid = listed("t_grid", None, "a time in [0, 1]", lambda t: 0 <= t <= 1)
        if not t_grid or any(a >= b for a, b in zip(t_grid, t_grid[1:])):
            _fail(scenario_id, "params.t_grid", "must be nonempty, strictly increasing")
    tau_list = listed("tau_list", BOUND_STEPS, "a step in (0, 1]", lambda s: 0 < s <= 1)
    k_list = listed("k_list", DEFAULT_K_LADDER, "a number > 0", lambda k: k > 0.0)
    if not k_list:
        _fail(scenario_id, "params.k_list", "must be nonempty")
    interior_radius = params.get("interior_radius")
    if interior_radius is not None:
        interior_radius = _number(
            interior_radius,
            scenario_id,
            "params.interior_radius",
            "a number > 0",
            lambda r: r > 0.0,
        )

    if "tcz" in checks_raw:
        if measure.kind != KIND_DISK:
            _fail(scenario_id, "measure.kind", "check 'tcz' needs kind 'disk-product'")
        if phi.family is None:
            _fail(scenario_id, "phi", "check 'tcz' needs a closed-form weight family")
        read, _ = ladder_nodes(ma_density(phi, measure), measure, interior_radius)
        if not read.any():
            _fail(
                scenario_id,
                "phi",
                "the limit density Laplacian(phi)/(4 pi) is not above "
                f"{DENSITY_SKIP_TOL} at any node within the interior radius, "
                "so the tcz check would read no node",
            )

    omega = raw.get("omega")
    if omega is not None:
        omega = _numbers(omega, scenario_id, "omega", integer=True)
        bad = [i for i in omega if i < 0 or i >= measure.n]
        if bad:
            _fail(scenario_id, "omega", f"node indices out of range: {bad}")
        if not 0 < len(set(omega)) < measure.n:
            _fail(
                scenario_id,
                "omega",
                f"must be a nonempty proper subset of the {measure.n} nodes",
            )
    if "maxprinciple" in checks_raw and omega is None:
        _fail(scenario_id, "omega", "required by check 'maxprinciple'")

    return ScenarioConfig(
        scenario_id=scenario_id,
        measure=measure,
        span=span,
        phi=phi,
        psi=psi,
        checks=tuple(checks_raw),
        c_grid=c_grid,
        t_grid=t_grid,
        tau_list=tau_list,
        k_list=k_list,
        omega=omega,
        interior_radius=interior_radius,
        source=source,
    )


def load_scenario_file(path: str) -> ScenarioConfig:
    """Parse one scenario JSON file."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise InvalidScenarioError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except OSError as exc:
        raise InvalidScenarioError(f"{path}: {exc.strerror or exc}") from exc
    return parse_scenario(raw, source=path)


@dataclass
class CheckResult:
    """Outcome of one named check on one scenario."""

    name: str
    passed: bool
    metrics: dict
    rows: list = field(default_factory=list)
    wall_seconds: float = 0.0


@dataclass
class RunReport:
    """All check outcomes for one scenario (or one battery run)."""

    scenario_id: str
    results: list

    @property
    def green(self) -> bool:
        return all(r.passed for r in self.results)


def _check_structural(config, tol_scale):
    metrics = {}
    passed = True
    weights = [("phi", config.phi)] + (
        [("psi", config.psi)] if config.psi is not None else []
    )
    for label, weight in weights:
        space = build_space(config.span, config.measure, weight)
        values = {
            "trace_error": checks.trace_error(space),
            "reproducing_residual": reproducing_residual(space),
        }
        metrics[f"{label}_rank"] = space.rank
        metrics.update({f"{label}_{name}": v for name, v in values.items()})
        passed &= not checks.failures(values, tol_scale)
    return passed, metrics, []


def _comparison_row(config, report, verdict):
    return {
        "scenario_id": config.scenario_id,
        "c": report.shift,
        "set_size": report.set_size,
        "set_proper": report.set_proper,
        "lhs": report.lhs,
        "rhs": report.rhs,
        "margin": report.margin,
        "verdict": verdict,
    }


def _check_comparison(config, tol_scale):
    report = comparison_integrals(
        config.phi, config.psi, config.span, config.measure
    )
    psi_space = build_space(config.span, config.measure, config.psi)
    verdict = strictness_check(report, psi_space.rank >= 1)
    sandwich = sandwich_check(config.phi, config.psi, config.span, config.measure)
    metrics = {
        "lhs": report.lhs,
        "rhs": report.rhs,
        "margin": report.margin,
        "verdict": verdict,
        "strict_expected": report.strict_expected,
        "sandwich_lhs": sandwich.lhs,
        "sandwich_mid": sandwich.mid,
        "sandwich_rhs": sandwich.rhs,
    }
    values = {
        "comparison_deficit": checks.comparison_deficit([report], tol_scale),
        "sandwich": bool(sandwich),
        "strict": verdict == VERDICT_STRICT or not report.strict_expected,
    }
    return not checks.failures(values, tol_scale), metrics, [
        _comparison_row(config, report, verdict)
    ]


def _check_sweep(config, tol_scale):
    reports = shifted_comparison_sweep(
        config.phi, config.psi, config.span, config.measure, config.c_grid
    )
    psi_space = build_space(config.span, config.measure, config.psi)
    psi_nontrivial = psi_space.rank >= 1
    rows = [
        _comparison_row(config, report, strictness_check(report, psi_nontrivial))
        for report in reports
    ]
    sizes = [report.set_size for report in reports]
    values = {
        "comparison_deficit": checks.comparison_deficit(reports, tol_scale),
        "set_sizes_nested": all(
            sizes[i] <= sizes[i + 1] for i in range(len(sizes) - 1)
        ),
    }
    metrics = {
        "n_shifts": len(reports),
        "worst_margin_deficit": values["comparison_deficit"],
        "set_sizes_nested": values["set_sizes_nested"],
    }
    return not checks.failures(values, tol_scale), metrics, rows


def _check_homotopy(config, tol_scale):
    path = build_path(config.phi, config.psi, config.t_grid)
    ders = [
        g_derivative_forms(path, t, config.span, config.measure)
        for t in path.t_grid
    ]
    rows = [
        {
            "scenario_id": config.scenario_id,
            "t": der.t,
            "G": der.g_value,
            "rhs26": der.direct_form,
            "rhs27": der.symmetric_form,
            "rhs28": der.sign_split_form,
            "fd": der.fd_estimate,
            "fd_step": der.fd_step,
            "max_pairwise_dev": der.max_pairwise_dev,
        }
        for der in ders
    ]
    g_values = [der.g_value for der in ders]
    # The endpoint identity G(0) = lhs, G(1) = rhs only applies when the
    # grid actually reaches the endpoints.
    endpoint_dev = 0.0
    if path.t_grid[0] == 0.0 and path.t_grid[-1] == 1.0:
        endpoint_dev = checks.endpoint_dev(
            g_values,
            comparison_integrals(config.phi, config.psi, config.span, config.measure),
        )
    values = {
        "three_form_dev": max([0.0, *map(checks.three_form_dev, ders)]),
        "sign_split": min([math.inf, *(der.sign_split_form for der in ders)]),
        "fd_match_ratio": max([0.0, *map(checks.fd_match_ratio, ders)]),
        "monotonicity_drop": checks.monotonicity_drop(g_values),
        "endpoint_dev": endpoint_dev,
        "bound": checks.quotient_bounds_hold(
            path,
            path.t_grid[len(path.t_grid) // 2],
            config.tau_list,
            config.span,
            config.measure,
        ),
    }
    metrics = {
        "worst_three_form_dev": values["three_form_dev"],
        "min_sign_split": values["sign_split"],
        "worst_fd_ratio": values["fd_match_ratio"],
        "monotonicity_drop": values["monotonicity_drop"],
        "endpoint_dev": endpoint_dev,
        "bounds_ok": values["bound"],
    }
    return not checks.failures(values, tol_scale), metrics, rows


def _check_tcz(config, tol_scale):
    reports = tcz_convergence_report(
        config.phi,
        config.k_list,
        config.measure,
        interior_radius=config.interior_radius,
    )
    rows = []
    devs = []
    for rep in reports:
        rows.append(
            {
                "scenario_id": config.scenario_id,
                "k": rep.k,
                "degree": rep.degree,
                "n_eval_points": len(rep.eval_indices),
                "max_abs_dev": rep.max_abs_dev_from_1,
                "mean_abs_dev": rep.mean_abs_dev,
            }
        )
        devs.append(rep.max_abs_dev_from_1)
    # The parser guarantees a nonempty ladder that reads at least one node,
    # so every deviation is a number.
    values = {
        "final_max_abs_dev": devs[-1],
        "deviations_monotone": all(
            b <= TCZ_MONOTONE_SLACK * a + TCZ_DEV_FLOOR for a, b in zip(devs, devs[1:])
        ),
    }
    metrics = dict(
        values,
        n_skipped=reports[0].n_skipped,
        degrees_requested=[rep.degree_requested for rep in reports],
    )
    return not checks.failures(values, tol_scale), metrics, rows


def _check_maxprinciple(config, tol_scale):
    mask = np.zeros(config.measure.n, dtype=bool)
    mask[list(config.omega)] = True
    verdict = max_principle_check(
        config.phi, config.psi, mask, config.span, config.measure
    )
    metrics = {"verdict": verdict, "omega_size": int(mask.sum())}
    return verdict != MAXPRINCIPLE_COUNTEREXAMPLE, metrics, []


_CHECK_TABLE = {
    "structural": _check_structural,
    "comparison": _check_comparison,
    "sweep": _check_sweep,
    "homotopy": _check_homotopy,
    "tcz": _check_tcz,
    "maxprinciple": _check_maxprinciple,
}


def run_scenario(config: ScenarioConfig, tol_scale: float = 1.0) -> RunReport:
    """Execute the scenario's checks in declared order."""
    results = []
    for name in config.checks:
        runner = _CHECK_TABLE[name]
        t0 = time.perf_counter()
        try:
            passed, metrics, rows = runner(config, tol_scale)
        except BergmanlabError as exc:
            raise type(exc)(f"scenario {config.scenario_id!r}: {exc}") from exc
        results.append(
            CheckResult(
                name=name,
                passed=bool(passed),
                metrics=metrics,
                rows=rows,
                wall_seconds=time.perf_counter() - t0,
            )
        )
    return RunReport(scenario_id=config.scenario_id, results=results)


def _csv_cell(value):
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path, columns, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_csv_cell(row[c]) for c in columns])
    return path


def _jsonable(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, float) and math.isnan(value):
        return None
    return value


def report_document(reports, extra=None) -> dict:
    """The JSON structure mirroring a list of run reports."""
    from . import __version__

    doc = {
        "green": all(r.green for r in reports),
        "versions": {
            "bergmanlab": __version__,
            "numpy": np.__version__,
        },
        "tolerances": {lim.key: lim.constant for lim in checks.LIMITS},
        "scenarios": [
            {
                "scenario_id": r.scenario_id,
                "green": r.green,
                "checks": [
                    {
                        "name": c.name,
                        "passed": c.passed,
                        "metrics": _jsonable(c.metrics),
                        "wall_seconds": c.wall_seconds,
                    }
                    for c in r.results
                ],
            }
            for r in reports
        ],
    }
    if extra:
        doc.update(_jsonable(extra))
    return doc


def emit_report(reports, out_dir, extra=None) -> list:
    """Write result artifacts; returns the list of file paths written.

    One CSV file per check suite that has rows and a column contract, plus
    summary.json.
    """
    os.makedirs(out_dir, exist_ok=True)
    written = []
    doc = report_document(reports, extra)
    suites = {
        "comparison.csv": (COMPARISON_COLUMNS, ("comparison", "sweep")),
        "homotopy.csv": (HOMOTOPY_COLUMNS, ("homotopy",)),
        "tcz.csv": (TCZ_COLUMNS, ("tcz",)),
    }
    for filename, (columns, sources) in suites.items():
        rows = []
        for report in reports:
            for result in report.results:
                if result.name in sources:
                    rows.extend(result.rows)
        if rows:
            written.append(
                _write_csv(os.path.join(out_dir, filename), columns, rows)
            )
    path = os.path.join(out_dir, "summary.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    written.append(path)
    return written
