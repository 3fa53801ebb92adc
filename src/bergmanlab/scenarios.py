"""Scenario files: parsing, check execution, and report emission.

A scenario is a JSON document describing one configuration (measure, span,
one or two weights) plus the list of checks to run against it.  The runner
executes checks in declared order, collects pass/fail plus metrics per
check, and emits the results as CSV files with fixed column contracts plus
one JSON document, summary.json.

The CSV column contracts are CSV_FILES: for comparison.csv, homotopy.csv
and tcz.csv, the checks whose rows each file takes and, after scenario_id,
each column in file order with the report field that fills it.  The
rhs26/rhs27/rhs28 column names are part of the file contract and label the
three algebraic forms of G' in their fixed order (direct, symmetric,
sign-split).

Timings appear only in the summary document, never in CSV rows, so result
files are byte-identical across reruns of the same configuration with the
same BLAS thread count.  A different thread count sums in another order:
tcz.csv's mean_abs_dev, an average of roundoff-level deviations, differs
between 1 and 2 OpenBLAS threads in the fifth significant digit at k = 20
and the third at k = 40 on disk-fock-scaling, so the summary's versions
block records the BLAS thread variables of the environment.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import checks
from .comparison import (
    MAXPRINCIPLE_COUNTEREXAMPLE,
    VERDICT_STRICT,
    max_principle_check,
    sandwich_check,
    shifted_comparison_sweep,
)
from .errors import (
    BergmanlabError,
    InvalidConfigurationError,
    InvalidMeasureError,
    InvalidScenarioError,
)
from .homotopy import T_GRID, build_path, g_derivative_forms
from .kernels import Spaces
from .measures import KIND_DISK, build_discrete_measure, build_disk_measure
from .quantization import (
    DEFAULT_K_LADDER,
    DENSITY_SKIP_TOL,
    ladder_nodes,
    ma_density,
    requested_degree,
    tcz_convergence_report,
)
from .spans import KIND_MONOMIALS, monomial_span, tabulated_span
from .weights import (
    constant_weight,
    eval_weight,
    gauss_weight,
    harmonic_weight,
    radial_poly_weight,
    tabulated_weight,
)

SCENARIO_FIELDS = ("id", "measure", "span", "phi", "psi", "checks", "params", "omega")
PARAM_NAMES = ("c_grid", "k_list", "interior_radius")

DEFAULT_C_GRID = (-2.0, -1.0, 0.0, 1.0, 2.0)

# The environment variables that set the BLAS thread count; null when unset.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Each CSV file: the checks whose rows it takes, then each column after
# scenario_id, in file order, with the report field that fills it.
CSV_FILES = {
    "comparison.csv": (
        ("comparison", "sweep"),
        {
            "c": "shift",
            "set_size": "set_size",
            "set_proper": "set_proper",
            "lhs": "lhs",
            "rhs": "rhs",
            "margin": "margin",
            "verdict": "verdict",
        },
    ),
    "homotopy.csv": (
        ("homotopy",),
        {
            "t": "t",
            "G": "g_value",
            "rhs26": "direct_form",
            "rhs27": "symmetric_form",
            "rhs28": "sign_split_form",
            "fd": "fd_estimate",
            "fd_step": "fd_step",
            "max_pairwise_dev": "max_pairwise_dev",
        },
    ),
    "tcz.csv": (
        ("tcz",),
        {
            "k": "k",
            "degree": "degree",
            "n_eval_points": "n_eval_points",
            "max_abs_dev": "max_abs_dev_from_1",
            "mean_abs_dev": "mean_abs_dev",
        },
    ),
}


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
    k_list: tuple = DEFAULT_K_LADDER
    omega: tuple | None = None
    interior_radius: float | None = None


def _fail(scenario_id, field_path, message):
    raise InvalidScenarioError(
        f"scenario {scenario_id!r}: field {field_path!r}: {message}"
    )


def _known_keys(raw, valid, scenario_id, prefix, what):
    """Fail on the first key of the object raw that valid does not hold,
    naming it as prefix + key; what says what kind of key it would be."""
    for key in raw:
        if key not in valid:
            message = f"unknown {what}; valid: {', '.join(valid)}"
            _fail(scenario_id, f"{prefix}{key}", message)


def _number(raw, scenario_id, field_path, rule=None, ok=None, integer=False):
    """raw if it is a finite number (an int when integer is set) passing ok."""
    kinds = numbers.Integral if integer else numbers.Real
    rule = rule or ("an integer" if integer else "a finite number")
    if (
        isinstance(raw, bool)
        or not isinstance(raw, kinds)
        or not abs(raw) <= sys.float_info.max
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
    what = f"field of kind {kind!r}"
    try:
        if kind == "discrete":
            valid = ("kind", "points", "masses")
            _known_keys(raw, valid, scenario_id, "measure.", what)
            return build_discrete_measure(
                _complex_pairs(raw["points"], scenario_id, "measure.points"),
                _numbers(raw["masses"], scenario_id, "measure.masses"),
            )
        if kind == "disk-product":
            valid = ("kind", "radius", "n_radial", "n_angular")
            _known_keys(raw, valid, scenario_id, "measure.", what)
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
    what = f"field of kind {kind!r}"
    if kind == "monomials":
        _known_keys(raw, ("kind", "degree"), scenario_id, "span.", what)
        if "degree" not in raw:
            _fail(scenario_id, "span.degree", "required for monomials")
        degree = _number(raw["degree"], scenario_id, "span.degree", integer=True)
        try:
            return monomial_span(measure, degree)
        except (InvalidMeasureError, InvalidConfigurationError) as exc:
            _fail(scenario_id, "span.degree", str(exc))
    if kind == "tabulated":
        _known_keys(raw, ("kind", "values"), scenario_id, "span.", what)
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


# Each weight family's one field, how it is read, and what builds the weight.
_WEIGHT_FAMILIES = {
    "constant": ("c", _number, constant_weight),
    "gauss": ("a", _number, gauss_weight),
    "radial-poly": ("coeffs", _numbers, radial_poly_weight),
    "harmonic": ("b", _number, harmonic_weight),
    "tabulated": ("values", _numbers, tabulated_weight),
}


def _parse_weight(raw, measure, scenario_id, field_path):
    """The weight tabulated on the nodes, with a finite, not all-zero w e^{-phi}."""
    if not isinstance(raw, dict):
        _fail(scenario_id, field_path, "expected an object with a family")
    kind = raw.get("family")
    if not isinstance(kind, str) or kind not in _WEIGHT_FAMILIES:
        _fail(scenario_id, field_path, f"unknown weight family {kind!r}")
    name, read, build = _WEIGHT_FAMILIES[kind]
    what = f"field of family {kind!r}"
    _known_keys(raw, ("family", name), scenario_id, f"{field_path}.", what)
    if name not in raw:
        _fail(scenario_id, f"{field_path}.{name}", "required")
    weight = build(read(raw[name], scenario_id, f"{field_path}.{name}"))
    try:
        weight = eval_weight(weight, measure)
    except InvalidMeasureError as exc:
        _fail(scenario_id, field_path, str(exc))
    with np.errstate(over="ignore"):
        factor = measure.masses * np.exp(-weight.values)
    if not (np.all(np.isfinite(weight.values)) and np.all(np.isfinite(factor))):
        _fail(scenario_id, field_path, "w e^{-phi} is not finite at every node")
    # Every space of the weight would have rank 0 and every check on it pass.
    if not factor.any():
        _fail(scenario_id, field_path, "w e^{-phi} underflows to 0 at every node")
    return weight


def parse_scenario(raw: dict, source: str = "<dict>") -> ScenarioConfig:
    """Validate a scenario dictionary, field by field."""
    if not isinstance(raw, dict):
        raise InvalidScenarioError(f"{source}: scenario must be an object")
    scenario_id = raw.get("id")
    if not isinstance(scenario_id, str) or not scenario_id:
        raise InvalidScenarioError(f"{source}: field 'id': nonempty string required")
    _known_keys(raw, SCENARIO_FIELDS, scenario_id, "", "field")

    checks_raw = raw.get("checks")
    if not isinstance(checks_raw, (list, tuple)) or not checks_raw:
        _fail(scenario_id, "checks", "nonempty list required")
    for i, name in enumerate(checks_raw):
        if name not in CHECK_NAMES:
            _fail(
                scenario_id,
                "checks",
                f"unknown check {name!r}; valid: {', '.join(CHECK_NAMES)}",
            )
        if name in checks_raw[:i]:
            message = f"check {name!r} is already checks[{checks_raw.index(name)}]"
            _fail(scenario_id, f"checks[{i}]", message)

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
    _known_keys(params, PARAM_NAMES, scenario_id, "params.", "parameter")

    def listed(name, default, *args):
        field_path = f"params.{name}"
        return _numbers(params.get(name, default), scenario_id, field_path, *args)

    c_grid = listed("c_grid", DEFAULT_C_GRID)
    if not c_grid:
        _fail(scenario_id, "params.c_grid", "must be nonempty")
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
        for i, k in enumerate(k_list):
            with np.errstate(over="ignore"):
                finite = np.isfinite(k * phi.values).all()
            if not finite:
                _fail(
                    scenario_id,
                    f"params.k_list[{i}]",
                    "k * phi is not finite at every node",
                )
            if not math.isfinite(requested_degree(k, measure)):
                _fail(
                    scenario_id,
                    f"params.k_list[{i}]",
                    "the requested degree 1.5 k R^2 is not finite",
                )
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
        k_list=k_list,
        omega=omega,
        interior_radius=interior_radius,
    )


def scenario_record(scenario_id, measure, span, phi, psi, checks) -> dict:
    """A scenario dictionary that parse_scenario reads back as these inputs.

    The measure is written as a discrete one, node by node, and both
    weights as their tabulated values.
    """
    def pairs(z):
        return np.stack([z.real, z.imag], axis=-1).tolist()

    if span.kind == KIND_MONOMIALS:
        span_desc = {"kind": "monomials", "degree": span.degree}
    else:
        span_desc = {"kind": "tabulated", "values": pairs(span.basis_values)}
    return {
        "id": scenario_id,
        "measure": {
            "kind": "discrete",
            "points": pairs(measure.points),
            "masses": measure.masses.tolist(),
        },
        "span": span_desc,
        "phi": {"family": "tabulated", "values": phi.values.tolist()},
        "psi": {"family": "tabulated", "values": psi.values.tolist()},
        "checks": list(checks),
    }


def load_scenario_file(path: str) -> ScenarioConfig:
    """Parse one scenario JSON file."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise InvalidScenarioError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except (ValueError, RecursionError) as exc:
        # Bytes that are not UTF-8, an integer literal longer than Python
        # converts, or JSON nested deeper than the decoder recurses.
        raise InvalidScenarioError(f"{path}: {exc}") from exc
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
    """All check outcomes for one scenario."""

    scenario_id: str
    results: list

    @property
    def green(self) -> bool:
        return all(r.passed for r in self.results)


def _check_structural(config, spaces):
    metrics = {}
    passed = True
    weights = [("phi", config.phi)] + (
        [("psi", config.psi)] if config.psi is not None else []
    )
    for label, weight in weights:
        space = spaces(weight)
        values = checks.structural_values(space)
        metrics[f"{label}_rank"] = space.rank
        metrics.update({f"{label}_{name}": v for name, v in values.items()})
        passed &= not checks.failures(values)
    return passed, metrics, []


def _check_comparison(config, spaces):
    (report,) = shifted_comparison_sweep(spaces, config.phi, config.psi, (0.0,))
    sandwich = sandwich_check(spaces, config.phi, config.psi)
    metrics = {
        "lhs": report.lhs,
        "rhs": report.rhs,
        "margin": report.margin,
        "verdict": report.verdict,
        "strict_expected": report.strict_expected,
        "sandwich_lhs": sandwich.lhs,
        "sandwich_mid": sandwich.mid,
        "sandwich_rhs": sandwich.rhs,
    }
    values = {
        "comparison_deficit": checks.comparison_deficit([report]),
        "sandwich": sandwich.ok,
        "strict": report.verdict == VERDICT_STRICT or not report.strict_expected,
    }
    rows = _csv_rows("comparison.csv", config.scenario_id, [report])
    return not checks.failures(values), metrics, rows


def _check_sweep(config, spaces):
    reports = shifted_comparison_sweep(spaces, config.phi, config.psi, config.c_grid)
    # The sets {psi < phi + c} grow with c, so they nest in shift order.
    sizes = [r.set_size for r in sorted(reports, key=lambda r: r.shift)]
    values = {
        "comparison_deficit": checks.comparison_deficit(reports),
        "set_sizes_nested": sizes == sorted(sizes),
    }
    metrics = {
        "n_shifts": len(reports),
        "worst_margin_deficit": values["comparison_deficit"],
        "set_sizes_nested": values["set_sizes_nested"],
    }
    rows = _csv_rows("comparison.csv", config.scenario_id, reports)
    return not checks.failures(values), metrics, rows


def _check_homotopy(config, spaces):
    path = build_path(spaces, config.phi, config.psi)
    ders = [g_derivative_forms(path, t) for t in T_GRID]
    values = checks.homotopy_values(
        path,
        ders,
        [der.g_value for der in ders],
        shifted_comparison_sweep(spaces, config.phi, config.psi, (0.0,))[0],
    )
    metrics = {
        "worst_three_form_dev": values["three_form_dev"],
        "min_sign_split": values["sign_split"],
        "worst_fd_ratio": values["fd_match_ratio"],
        "monotonicity_drop": values["monotonicity_drop"],
        "endpoint_dev": values["endpoint_dev"],
        "bounds_ok": values["bound"],
    }
    rows = _csv_rows("homotopy.csv", config.scenario_id, ders)
    return not checks.failures(values), metrics, rows


def _check_tcz(config, spaces):
    # The ladder builds each rung on its own span, so it takes no space
    # from the scenario's context.
    reports = tcz_convergence_report(
        config.phi,
        config.k_list,
        config.measure,
        interior_radius=config.interior_radius,
    )
    values = checks.tcz_values(reports)
    metrics = dict(
        values,
        n_skipped=reports[0].n_skipped,
        degrees_requested=[rep.degree_requested for rep in reports],
    )
    rows = _csv_rows("tcz.csv", config.scenario_id, reports)
    return not checks.failures(values), metrics, rows


def _check_maxprinciple(config, spaces):
    mask = np.zeros(config.measure.n, dtype=bool)
    mask[list(config.omega)] = True
    verdict = max_principle_check(spaces, config.phi, config.psi, mask)
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
CHECK_NAMES = tuple(_CHECK_TABLE)


def run_scenario(config: ScenarioConfig) -> RunReport:
    """Execute the scenario's checks in declared order.

    The checks share one Spaces context, so each distinct space of the
    scenario's span and measure is built once.
    """
    spaces = Spaces(config.span, config.measure)
    results = []
    for name in config.checks:
        runner = _CHECK_TABLE[name]
        t0 = time.perf_counter()
        try:
            passed, metrics, rows = runner(config, spaces)
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


def _csv_rows(filename, scenario_id, reports):
    """The rows of a CSV file for reports, one per report, keyed by column."""
    fields = CSV_FILES[filename][1]
    return [
        {"scenario_id": scenario_id}
        | {column: getattr(report, name) for column, name in fields.items()}
        for report in reports
    ]


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
    """Plain JSON values; every non-finite float becomes null."""
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        value = value.item()
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
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
            **{name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES},
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

    Each file of CSV_FILES that the checks of this run give rows, plus
    summary.json.  A file of CSV_FILES that they give no rows is removed
    from out_dir, so every file there belongs to this run.
    """
    os.makedirs(out_dir, exist_ok=True)
    written = []
    doc = report_document(reports, extra)
    for filename, (sources, columns) in CSV_FILES.items():
        rows = []
        for report in reports:
            for result in report.results:
                if result.name in sources:
                    rows.extend(result.rows)
        path = os.path.join(out_dir, filename)
        if rows:
            written.append(_write_csv(path, ("scenario_id", *columns), rows))
        elif os.path.exists(path):
            os.remove(path)
    path = os.path.join(out_dir, "summary.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, allow_nan=False)
        fh.write("\n")
    written.append(path)
    return written
