"""Seeded random-instance battery exercising every engine invariant.

The battery draws discrete instances (nodes, masses, span, two weights),
guards them against ill-conditioned Gram spectra, and runs three groups of
checks per instance: structural kernel identities, the comparison sweep,
and the homotopy derivative machinery.  A report aggregates worst-case
metrics so a single run answers "does every invariant hold at tolerance
across the whole sample".  Failures are dumped as rerunnable scenario
dictionaries.

A separate randomized search drives the maximum principle contrapositively:
it manufactures weight pairs whose conclusion fails by construction and
confirms the premises never hold for them.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import checks
from .comparison import (
    MAXPRINCIPLE_CONCLUSION_HOLDS,
    MAXPRINCIPLE_COUNTEREXAMPLE,
    MAXPRINCIPLE_PREMISES_FAIL,
    comparison_integrals,
    max_principle_check,
    sandwich_check,
    shifted_comparison_sweep,
)
from .homotopy import (
    BOUND_STEPS,
    ORDER_STEPS,
    build_path,
    g_derivative_forms,
    monotonicity_sweep,
    weight_at,
)
from .kernels import (
    assemble_gram,
    build_space,
    reproducing_residual,
    retained_spread,
)
from .measures import build_discrete_measure
from .scenarios import DEFAULT_C_GRID
from .spans import KIND_MONOMIALS, monomial_span, tabulated_span
from .weights import eval_weight, tabulated_weight

# Gram spectra with a retained eigenvalue spread beyond this amplify
# eigensolver roundoff past the battery tolerances, so the generator
# resamples such draws, up to MAX_RESAMPLES times.  The bound leaves
# roughly three orders of magnitude of headroom against the tightest
# (1e-12 relative) checks.
SPREAD_BOUND = 1e6
MAX_RESAMPLES = 100

# The law of a random instance: node radii, weight values and masses are
# uniform over these ranges (masses uniform in log), and a span is a
# monomial span with probability MONOMIAL_FRACTION.
RADIUS_RANGE = (0.55, 1.45)
WEIGHT_RANGE = (-2.0, 2.0)
MASS_RANGE = (0.1, 10.0)
MONOMIAL_FRACTION = 0.5

# Instance sizes: the battery draws 2..MAX_NODES nodes and a span of
# dimension 1..MAX_DIM; the maximum-principle search draws smaller ones.
MAX_NODES = 50
MAX_DIM = 10
SEARCH_MAX_NODES = 12
SEARCH_MAX_DIM = 4

# Monomial node-value matrices need strictly more nodes than columns to
# stay away from the square-Vandermonde conditioning cliff.
MONOMIAL_NODE_MARGIN = 4

DEFAULT_N_INSTANCES = 200
DERIVATIVE_T = 0.5

# Acceptable window for the measured convergence order of the central
# difference quotient, fitted across ORDER_STEPS on the whole battery.
ORDER_WINDOW = (1.8, 2.2)

# When every finite-difference error on the battery sits at or below this
# absolute level the quotient is exact to roundoff (G is affine in t, as
# for rank-0 spaces) and no convergence order is measurable.
ORDER_EXACT_FLOOR = 1e-14


@dataclass
class BatteryInstance:
    """One generated instance plus the bookkeeping to rerun it."""

    index: int
    measure: object
    span: object
    phi: object
    psi: object
    resamples: int

    def scenario_dict(self, checks=("structural", "comparison", "homotopy")) -> dict:
        """A scenario-file dictionary that reruns this instance."""
        pts = self.measure.points
        span_desc: dict
        if self.span.kind == KIND_MONOMIALS:
            span_desc = {"kind": "monomials", "degree": self.span.degree}
        else:
            vals = self.span.basis_values
            span_desc = {
                "kind": "tabulated",
                "values": [
                    [[float(v.real), float(v.imag)] for v in row] for row in vals
                ],
            }
        return {
            "id": f"battery-instance-{self.index}",
            "measure": {
                "kind": "discrete",
                "points": [[float(z.real), float(z.imag)] for z in pts],
                "masses": [float(m) for m in self.measure.masses],
            },
            "span": span_desc,
            "phi": {"family": "tabulated", "values": self.phi.values.tolist()},
            "psi": {"family": "tabulated", "values": self.psi.values.tolist()},
            "checks": list(checks),
        }


def _draw_measure(rng, m: int):
    """m nodes at uniform radii and angles, with log-uniform masses."""
    radii = rng.uniform(*RADIUS_RANGE, m)
    angles = rng.uniform(0.0, 2.0 * math.pi, m)
    lo_m, hi_m = MASS_RANGE
    masses = np.exp(rng.uniform(math.log(lo_m), math.log(hi_m), m))
    return build_discrete_measure(radii * np.exp(1j * angles), masses)


def generate_instance(rng, index: int) -> BatteryInstance:
    """Draw one instance, resampling until the Gram spectra are tame.

    Conditioning is checked at both homotopy endpoints and the midpoint,
    since the derivative checks build spaces there.  Resampling keeps the
    stream deterministic: a given seed always yields the same instances.
    """
    for attempt in range(MAX_RESAMPLES):
        m = int(rng.integers(2, MAX_NODES + 1))
        d = int(rng.integers(1, MAX_DIM + 1))
        measure = _draw_measure(rng, m)
        if rng.uniform() < MONOMIAL_FRACTION:
            d = min(d, max(1, m - MONOMIAL_NODE_MARGIN))
            span = monomial_span(measure, d - 1)
        else:
            vals = rng.standard_normal((m, d)) + 1j * rng.standard_normal((m, d))
            span = tabulated_span(vals / math.sqrt(2.0))
        phi = eval_weight(tabulated_weight(rng.uniform(*WEIGHT_RANGE, m)), measure)
        psi = eval_weight(tabulated_weight(rng.uniform(*WEIGHT_RANGE, m)), measure)
        path = build_path(phi, psi)
        tame = all(
            retained_spread(assemble_gram(span, measure, weight_at(path, t)))
            <= SPREAD_BOUND
            for t in (0.0, DERIVATIVE_T, 1.0)
        )
        if tame:
            return BatteryInstance(
                index=index,
                measure=measure,
                span=span,
                phi=phi,
                psi=psi,
                resamples=attempt,
            )
    raise RuntimeError(
        f"instance {index}: no tame draw in {MAX_RESAMPLES} attempts"
    )


@dataclass
class InstanceMetrics:
    """Per-instance check outcomes.

    values maps each metric of the check table, and the sandwich and bound
    verdicts, to this instance's value; failures lists the labels that broke.
    """

    index: int
    rank: int
    values: dict
    order_errors: dict
    failures: list


def check_instance(inst: BatteryInstance, tol_scale: float = 1.0) -> InstanceMetrics:
    """Run all three check groups on one instance.

    tol_scale multiplies the scaled limits of the check table; the fixed
    claims (quotient-bound envelope, sandwich slack, order window) keep
    their values.
    """
    measure, span, phi, psi = inst.measure, inst.span, inst.phi, inst.psi

    space = build_space(span, measure, phi)
    values = {
        "trace_error": checks.trace_error(space),
        "reproducing_residual": reproducing_residual(space),
        "comparison_deficit": checks.comparison_deficit(
            shifted_comparison_sweep(phi, psi, span, measure, DEFAULT_C_GRID),
            tol_scale,
        ),
        "sandwich": bool(sandwich_check(phi, psi, span, measure)),
    }

    path = build_path(phi, psi)
    der = g_derivative_forms(path, DERIVATIVE_T, span, measure)
    values["three_form_dev"] = checks.three_form_dev(der)
    values["sign_split"] = der.sign_split_form
    values["fd_match_ratio"] = checks.fd_match_ratio(der)

    g_vals = [g for _, g in monotonicity_sweep(path, span, measure)]
    values["monotonicity_drop"] = checks.monotonicity_drop(g_vals)
    values["endpoint_dev"] = checks.endpoint_dev(
        g_vals, comparison_integrals(phi, psi, span, measure)
    )
    values["bound"] = checks.quotient_bounds_hold(
        path, DERIVATIVE_T, BOUND_STEPS, span, measure
    )

    order_errors = {}
    for tau in ORDER_STEPS:
        d_tau = g_derivative_forms(path, DERIVATIVE_T, span, measure, fd_step=tau)
        order_errors[tau] = abs(d_tau.fd_estimate - d_tau.sign_split_form)

    return InstanceMetrics(
        index=inst.index,
        rank=space.rank,
        values=values,
        order_errors=order_errors,
        failures=checks.failures(values, tol_scale),
    )


def _worst_field(lim) -> str:
    """The BatteryReport field holding a metric's worst value over instances."""
    return ("worst_" if lim.upper else "min_") + lim.metric


@dataclass
class BatteryReport:
    """Aggregated worst-case metrics over a battery run."""

    n_instances: int
    seed: int
    tol_scale: float
    worst_trace_error: float
    worst_reproducing_residual: float
    worst_comparison_deficit: float
    worst_three_form_dev: float
    min_sign_split: float
    worst_fd_match_ratio: float
    worst_monotonicity_drop: float
    worst_endpoint_dev: float
    bound_violations: int
    sandwich_failures: int
    order_slope: float
    order_max_errors: dict
    failures: list
    failure_dumps: list
    elapsed_seconds: float

    @property
    def order_exact(self) -> bool:
        """True when the FD errors are all at roundoff (no order to fit)."""
        return all(e <= ORDER_EXACT_FLOOR for e in self.order_max_errors.values())

    @property
    def order_ok(self) -> bool:
        lo, hi = ORDER_WINDOW
        return self.order_exact or (
            math.isfinite(self.order_slope) and lo <= self.order_slope <= hi
        )

    @property
    def all_green(self) -> bool:
        return not self.failures and self.order_ok

    def summary_lines(self) -> list:
        """Human-readable one-line-per-metric summary, limits at tol_scale."""
        lines = [
            f"battery: {self.n_instances} instances, seed {self.seed}, "
            f"{self.elapsed_seconds:.2f}s"
        ]
        for lim in sorted(BATTERY_LIMITS, key=lambda lim: not lim.upper):
            value = getattr(self, _worst_field(lim))
            worst, limit = ("worst", "limit") if lim.upper else ("min", "floor")
            mark = "ok" if lim.holds(value, self.tol_scale) else "FAIL"
            lines.append(
                f"  {lim.title}: {worst} {value:.3e} "
                f"({limit} {lim.limit(self.tol_scale):.1e}) {mark}"
            )
        if self.order_exact:
            lines.append("  fd convergence order: exact to roundoff ok")
        else:
            lo, hi = ORDER_WINDOW
            lines.append(
                f"  fd convergence order: {self.order_slope:.4f} "
                f"(window [{lo}, {hi}]) {'ok' if self.order_ok else 'FAIL'}"
            )
        lines.append(
            f"  bound violations: {self.bound_violations}, "
            f"sandwich failures: {self.sandwich_failures}, "
            f"failing instances: {len(self.failures)}"
        )
        return lines

    def document(self) -> dict:
        """The report as the JSON block of the battery command."""
        doc = {
            "n_instances": self.n_instances,
            "seed": self.seed,
            "tol_scale": self.tol_scale,
        }
        doc.update({f: getattr(self, f) for f in map(_worst_field, BATTERY_LIMITS)})
        doc.update(
            bound_violations=self.bound_violations,
            sandwich_failures=self.sandwich_failures,
            order_slope=self.order_slope,
            failing_instances=self.failures,
            failure_dumps=self.failure_dumps,
            elapsed_seconds=self.elapsed_seconds,
        )
        return doc


# The rows of the check table that the battery measures on every instance.
BATTERY_LIMITS = tuple(
    lim
    for lim in checks.LIMITS
    if _worst_field(lim) in BatteryReport.__dataclass_fields__
)


def fit_order_slope(order_max_errors: dict) -> float:
    """Least-squares slope of log(max error) against log(step).

    The per-step maximum over the battery is truncation-dominated (the
    largest third-derivative instances set it), which keeps the fit away
    from the roundoff floor that individual near-linear instances hit.
    """
    steps = sorted(order_max_errors)
    errs = [order_max_errors[s] for s in steps]
    if any(e <= 0.0 for e in errs) or len(steps) < 2:
        return float("nan")
    slope = np.polyfit(np.log(steps), np.log(errs), 1)[0]
    return float(slope)


def run_battery(
    n_instances: int = DEFAULT_N_INSTANCES,
    seed: int = 0,
    dump_dir=None,
    tol_scale: float = 1.0,
) -> BatteryReport:
    """Generate and check a full battery; optionally dump failures.

    dump_dir, when given, receives one rerunnable scenario JSON per
    failing instance.
    """
    import json
    import os

    rng = np.random.default_rng(seed)
    t0 = time.perf_counter()
    results = []
    dumps = []

    for i in range(n_instances):
        inst = generate_instance(rng, i)
        metrics = check_instance(inst, tol_scale=tol_scale)
        results.append(metrics)
        if metrics.failures and dump_dir is not None:
            os.makedirs(dump_dir, exist_ok=True)
            path = os.path.join(dump_dir, f"battery-failure-{i}.json")
            with open(path, "w") as fh:
                json.dump(inst.scenario_dict(), fh, indent=1)
            dumps.append(path)

    worst = {}
    for lim in BATTERY_LIMITS:
        values = [m.values[lim.metric] for m in results]
        worst[_worst_field(lim)] = (max if lim.upper else min)(values, default=0.0)
    order_max = {
        tau: max([0.0, *(m.order_errors[tau] for m in results)]) for tau in ORDER_STEPS
    }
    return BatteryReport(
        n_instances=n_instances,
        seed=seed,
        tol_scale=tol_scale,
        **worst,
        bound_violations=sum(not m.values["bound"] for m in results),
        sandwich_failures=sum(not m.values["sandwich"] for m in results),
        order_slope=fit_order_slope(order_max),
        order_max_errors=order_max,
        failures=[(m.index, m.failures) for m in results if m.failures],
        failure_dumps=dumps,
        elapsed_seconds=time.perf_counter() - t0,
    )


@dataclass
class MaxPrincipleSearchReport:
    """Verdict tally of the randomized contrapositive search."""

    n_instances: int
    seed: int
    premises_fail: int
    conclusion_holds: int
    counterexamples: list
    elapsed_seconds: float

    @property
    def found_counterexample(self) -> bool:
        return bool(self.counterexamples)


def max_principle_search(
    n_instances: int = 10_000,
    seed: int = 0,
) -> MaxPrincipleSearchReport:
    """Hunt for a maximum-principle counterexample over random instances.

    Four draw families interleave: fully random weight pairs; pairs with
    the off-region premise forced; pairs built to violate the conclusion
    inside the region (so a counterexample appears the moment the density
    premise holds for one of them); and constant-offset pairs that sit on
    the equality edge of the density premise.  The principle predicts the
    counterexample list stays empty.
    """
    rng = np.random.default_rng(seed)
    t0 = time.perf_counter()
    tally = {
        MAXPRINCIPLE_PREMISES_FAIL: 0,
        MAXPRINCIPLE_CONCLUSION_HOLDS: 0,
        MAXPRINCIPLE_COUNTEREXAMPLE: 0,
    }
    counterexamples = []

    for i in range(n_instances):
        m = int(rng.integers(2, SEARCH_MAX_NODES + 1))
        # The span must be a proper subspace of the node functions: with
        # dim = node count the kernel is diagonal, the density no longer
        # depends on the weight, and the principle's strictness mechanism
        # is vacuous.  That degenerate regime has no counterpart in the
        # function-space setting being modeled, so the search excludes it.
        d = int(rng.integers(1, min(SEARCH_MAX_DIM, m - 1) + 1))
        measure = _draw_measure(rng, m)
        if rng.uniform() < MONOMIAL_FRACTION:
            span = monomial_span(measure, d - 1)
        else:
            vals = rng.standard_normal((m, d)) + 1j * rng.standard_normal((m, d))
            span = tabulated_span(vals / math.sqrt(2.0))
        omega = np.zeros(m, dtype=bool)
        omega[rng.choice(m, size=int(rng.integers(1, m)), replace=False)] = True

        phi_vals = rng.uniform(*WEIGHT_RANGE, m)
        family = int(rng.integers(0, 4))
        if family == 0:
            psi_vals = rng.uniform(*WEIGHT_RANGE, m)
        elif family == 1:
            psi_vals = phi_vals + np.where(omega, 0.0, rng.uniform(0.0, 2.0, m))
        elif family == 2:
            lift = np.where(omega, 0.0, rng.uniform(0.0, 2.0, m))
            dent = np.where(omega, rng.uniform(0.0, 2.0, m), 0.0)
            psi_vals = phi_vals + lift - dent
        else:
            psi_vals = phi_vals + rng.uniform(-1.0, 1.0)

        phi = eval_weight(tabulated_weight(phi_vals), measure)
        psi = eval_weight(tabulated_weight(psi_vals), measure)
        verdict = max_principle_check(phi, psi, omega, span, measure)
        tally[verdict] += 1
        if verdict == MAXPRINCIPLE_COUNTEREXAMPLE:
            inst = BatteryInstance(
                index=i,
                measure=measure,
                span=span,
                phi=phi,
                psi=psi,
                resamples=0,
            )
            record = inst.scenario_dict(checks=("maxprinciple",))
            record["omega"] = [int(j) for j in np.flatnonzero(omega)]
            counterexamples.append(record)

    return MaxPrincipleSearchReport(
        n_instances=n_instances,
        seed=seed,
        premises_fail=tally[MAXPRINCIPLE_PREMISES_FAIL],
        conclusion_holds=tally[MAXPRINCIPLE_CONCLUSION_HOLDS],
        counterexamples=counterexamples,
        elapsed_seconds=time.perf_counter() - t0,
    )
