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
confirms the premises never hold for them.  Its instances are small and
many, so it never builds one as objects: each draw writes only the
generator's output, as one row of a preallocated stack for its shape (node
count, span dimension).  When a stack holds SEARCH_CHUNK rows, one
vectorized pass derives their nodes, masses, span values and weights, by
the same arithmetic as numpy's uniform and vander (the battery draws its
nodes through the same mapping), and the stack is judged at once.
Judging validates the rows as the constructors would, takes their
densities from one stacked factorization (kernels.bergman_densities), and
from them each row's verdict and how close it came to a counterexample, in
one call of the function that max_principle_check uses.  Only a
counterexample is built back into objects, for its scenario record.
"""

from __future__ import annotations

import glob
import json
import math
import numbers
import os
import time
from dataclasses import dataclass

import numpy as np

from . import checks
from .comparison import (
    MAXPRINCIPLE_CONCLUSION_HOLDS,
    MAXPRINCIPLE_COUNTEREXAMPLE,
    MAXPRINCIPLE_PREMISES_FAIL,
    max_principle_verdicts,
    sandwich_check,
    shifted_comparison_sweep,
    validate_region,
)
from .errors import InvalidConfigurationError
from .homotopy import (
    BOUND_T,
    ORDER_STEPS,
    build_path,
    central_difference,
    g_derivative_forms,
    monotonicity_sweep,
    weight_at,
)
from .kernels import Spaces, bergman_densities
from .measures import build_discrete_measure, validate_nodes
from .scenarios import DEFAULT_C_GRID, scenario_record
from .spans import monomial_span, tabulated_span, vandermonde
from .weights import eval_weight, tabulated_weight, validate_weight_values

# Spaces with a retained spread (WeightedSpace.spread) beyond this amplify
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
# Search rows per stack: the search keeps one stack for each shape (m, d),
# judges it when it holds SEARCH_CHUNK rows, and judges the partly filled
# ones at the end of the pass.  A pass of 10 000 instances forms 641, 329
# and 176 stacks with 16, 32 and 64 rows.  Measured with bench/run.py
# (1 BLAS thread, 2 shared cores), 32 rows took a pass from a median of
# 1.66 s, for 256-draw chunks drawn as objects and grouped by shape, to
# 0.97-1.01 s at the same peak RSS, 42.3 MB; 64 rows add 1.1 MB to the peak
# for up to 0.1 s less a pass, and 256 rows add 6.7 MB.  Each row holds
# only generator output and a stack derives the rest in one pass, so the
# draws of a pass (0.27-0.38 s of CPU time, on the same host) take about
# what the same generator calls take alone (0.31-0.33 s), and the deriving
# and judging of the full stacks 0.27-0.28 s.
SEARCH_CHUNK = 32

# Monomial node-value matrices need strictly more nodes than columns to
# stay away from the square-Vandermonde conditioning cliff.
MONOMIAL_NODE_MARGIN = 4

DEFAULT_N_INSTANCES = 200

# Acceptable window for the measured convergence order of the central
# difference quotient, fitted across ORDER_STEPS on the whole battery.
ORDER_WINDOW = (1.8, 2.2)

# When every finite-difference error on the battery sits at or below this
# absolute level the quotient is exact to roundoff (G is affine in t, as
# for rank-0 spaces) and no convergence order is measurable.
ORDER_EXACT_FLOOR = 1e-14


@dataclass
class BatteryInstance:
    """One generated instance, the context of its spaces, and the bookkeeping
    to rerun it."""

    index: int
    spaces: Spaces
    phi: object
    psi: object
    resamples: int

    @property
    def measure(self):
        return self.spaces.measure

    @property
    def span(self):
        return self.spaces.span

    def scenario_dict(self, checks=("structural", "comparison", "homotopy")) -> dict:
        """A scenario-file dictionary that reruns this instance."""
        return scenario_record(
            f"battery-instance-{self.index}",
            self.measure,
            self.span,
            self.phi,
            self.psi,
            checks,
        )


def _uniform(u, lo: float, hi: float):
    """rng.uniform(lo, hi) at the generator's doubles u (rng.random): numpy
    computes it as lo + (hi - lo) * u, so this gives its values bit for
    bit."""
    return lo + (hi - lo) * u


def _nodes_from_uniforms(u):
    """The nodes and masses given by the uniforms u (..., 3m): the node
    radii, angles and log-masses, m of each, each uniform over its range."""
    m = u.shape[-1] // 3
    radii = _uniform(u[..., :m], *RADIUS_RANGE)
    angles = _uniform(u[..., m : 2 * m], 0.0, 2.0 * math.pi)
    lo, hi = MASS_RANGE
    masses = np.exp(_uniform(u[..., 2 * m :], math.log(lo), math.log(hi)))
    return radii * np.exp(1j * angles), masses


def _span_values_from_normals(z):
    """The node values (..., m, d) of a random span from the standard
    normals z (..., 2, m, d): their real and imaginary parts."""
    return (z[..., 0, :, :] + 1j * z[..., 1, :, :]) / math.sqrt(2.0)


def generate_instance(rng, index: int) -> BatteryInstance:
    """Draw one instance, resampling until its spaces are tame.

    A draw is tame when the spaces at both homotopy endpoints and the
    midpoint, where the derivative checks build them, have a spread of at
    most SPREAD_BOUND.  Those spaces are built in the instance's own Spaces
    context, which check_instance reuses.  Resampling keeps the stream
    deterministic: a given seed always yields the same instances.
    """
    for attempt in range(MAX_RESAMPLES):
        m = int(rng.integers(2, MAX_NODES + 1))
        d = int(rng.integers(1, MAX_DIM + 1))
        # The nodes, the masses and the span coin, as one search row draws
        # them (_SearchStack).
        u = rng.random(3 * m + 1)
        measure = build_discrete_measure(*_nodes_from_uniforms(u[:-1]))
        if u[-1] < MONOMIAL_FRACTION:
            # A monomial span shrinks (to 1 at least) to keep
            # MONOMIAL_NODE_MARGIN more nodes than columns.
            degree = min(d, max(1, m - MONOMIAL_NODE_MARGIN)) - 1
            span = monomial_span(measure, degree)
        else:
            normals = rng.standard_normal((2, m, d))
            span = tabulated_span(_span_values_from_normals(normals))
        phi = eval_weight(tabulated_weight(rng.uniform(*WEIGHT_RANGE, m)), measure)
        psi = eval_weight(tabulated_weight(rng.uniform(*WEIGHT_RANGE, m)), measure)
        spaces = Spaces(span, measure)
        path = build_path(spaces, phi, psi)
        if all(
            spaces(weight_at(path, t)).spread <= SPREAD_BOUND
            for t in (0.0, BOUND_T, 1.0)
        ):
            return BatteryInstance(index, spaces, phi, psi, resamples=attempt)
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


def check_instance(inst: BatteryInstance) -> InstanceMetrics:
    """Run all three check groups on one instance, building each space once.

    The spaces come from the instance's context, which already holds the
    three whose spread generate_instance judged tame.  The homotopy
    endpoints are the c = 0 report of the comparison sweep, and G' at
    BOUND_T is formed once: each order error is a central difference
    against its sign-split form, and the one at FD_STEP is the report's own.
    """
    spaces, phi, psi = inst.spaces, inst.phi, inst.psi

    space = spaces(phi)
    values = checks.structural_values(space)
    reports = shifted_comparison_sweep(spaces, phi, psi, DEFAULT_C_GRID)
    values["comparison_deficit"] = checks.comparison_deficit(reports)
    values["sandwich"] = sandwich_check(spaces, phi, psi).ok

    path = build_path(spaces, phi, psi)
    forms = g_derivative_forms(path, BOUND_T)
    values.update(
        checks.homotopy_values(
            path,
            [forms],
            [g for _, g in monotonicity_sweep(path)],
            reports[DEFAULT_C_GRID.index(0.0)],
        )
    )
    order_errors = {}
    for tau in ORDER_STEPS:
        if tau == forms.fd_step:
            fd = forms.fd_estimate
        else:
            fd = central_difference(path, BOUND_T, tau)
        order_errors[tau] = abs(fd - forms.sign_split_form)

    return InstanceMetrics(
        index=inst.index,
        rank=space.rank,
        values=values,
        order_errors=order_errors,
        failures=checks.failures(values),
    )


def _worst_fields() -> dict:
    """The rows of checks.LIMITS that the battery measures on every instance,
    by the BatteryReport field that holds their worst value over instances."""
    rows = {}
    for lim in checks.LIMITS:
        field = ("worst_" if lim.upper else "min_") + lim.metric
        if field in BatteryReport.__dataclass_fields__:
            rows[field] = lim
    return rows


@dataclass
class BatteryReport:
    """Aggregated worst-case metrics over a battery run."""

    n_instances: int
    seed: int
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
        """Human-readable one-line-per-metric summary with each limit."""
        lines = [
            f"battery: {self.n_instances} instances, seed {self.seed}, "
            f"{self.elapsed_seconds:.2f}s"
        ]
        rows = sorted(_worst_fields().items(), key=lambda row: not row[1].upper)
        for field, lim in rows:
            value = getattr(self, field)
            worst, limit = ("worst", "limit") if lim.upper else ("min", "floor")
            mark = "ok" if lim.holds(value) else "FAIL"
            lines.append(
                f"  {lim.title}: {worst} {value:.3e} "
                f"({limit} {lim.limit():.1e}) {mark}"
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
        doc = {"n_instances": self.n_instances, "seed": self.seed}
        doc.update({f: getattr(self, f) for f in _worst_fields()})
        doc.update(
            bound_violations=self.bound_violations,
            sandwich_failures=self.sandwich_failures,
            order_slope=self.order_slope,
            failing_instances=self.failures,
            failure_dumps=self.failure_dumps,
            elapsed_seconds=self.elapsed_seconds,
        )
        return doc


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


def _validate_nonnegative_int(name: str, value) -> None:
    """Raise unless value, the argument called name, is a nonnegative
    integer (and not a bool)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
        raise InvalidConfigurationError(
            f"{name} must be a nonnegative integer, got {value!r}"
        )


def remove_failure_dumps(dump_dir) -> None:
    """Remove the failing-instance dumps that a battery run left in dump_dir,
    and dump_dir itself if that leaves it empty."""
    pattern = os.path.join(glob.escape(dump_dir), "battery-failure-*.json")
    for stale in glob.glob(pattern):
        os.remove(stale)
    if os.path.isdir(dump_dir) and not os.listdir(dump_dir):
        os.rmdir(dump_dir)


def run_battery(
    n_instances: int = DEFAULT_N_INSTANCES,
    seed: int = 0,
    dump_dir=None,
) -> BatteryReport:
    """Generate and check a full battery; optionally dump failures.

    n_instances and seed must be nonnegative integers.  dump_dir, when given,
    receives one rerunnable scenario JSON per failing instance; the dumps
    of an earlier run there are removed first.
    """
    _validate_nonnegative_int("n_instances", n_instances)
    _validate_nonnegative_int("seed", seed)
    if dump_dir is not None:
        remove_failure_dumps(dump_dir)
    rng = np.random.default_rng(seed)
    t0 = time.perf_counter()
    results = []
    dumps = []

    for i in range(n_instances):
        inst = generate_instance(rng, i)
        metrics = check_instance(inst)
        results.append(metrics)
        if metrics.failures and dump_dir is not None:
            os.makedirs(dump_dir, exist_ok=True)
            path = os.path.join(dump_dir, f"battery-failure-{i}.json")
            with open(path, "w") as fh:
                json.dump(inst.scenario_dict(), fh, indent=1)
            dumps.append(path)

    worst = {}
    for field, lim in _worst_fields().items():
        values = [m.values[lim.metric] for m in results]
        worst[field] = (max if lim.upper else min)(values, default=0.0)
    order_max = {
        tau: max([0.0, *(m.order_errors[tau] for m in results)]) for tau in ORDER_STEPS
    }
    return BatteryReport(
        n_instances=n_instances,
        seed=seed,
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
    """Verdict tally of the randomized contrapositive search, and how close
    it came to a counterexample.

    A candidate is a draw that meets the boundary premise and breaks the
    conclusion, so only the density premise stands between it and a
    counterexample.  closest_approach is the least approach over the
    candidates (comparison.max_principle_verdicts) and closest_instance the
    draw that has it; both are None when no draw is a candidate.
    """

    n_instances: int
    seed: int
    premises_fail: int
    conclusion_holds: int
    counterexamples: list
    candidates: int
    closest_approach: float | None
    closest_instance: int | None
    elapsed_seconds: float

    @property
    def found_counterexample(self) -> bool:
        return bool(self.counterexamples)


class _SearchStack:
    """Search draws of one shape (m nodes, span dimension d), one per row.

    A row holds only what the generator wrote for a draw, in the order it
    drew it: the instance index; 3m + 1 uniforms for the node radii, angles
    and log-masses and the span coin; 2md standard normals when the span is
    tabulated; the region omega; m uniforms for phi; the weight family; and
    up to 2m uniforms for that family's psi.  size counts the rows written
    since the stack was last judged.  derive() makes the arrays that
    _judge_stack judges from the written rows, and clear() empties the
    stack.
    """

    def __init__(self, m: int, d: int):
        self.clear()
        self.index = np.empty(SEARCH_CHUNK, dtype=np.int64)
        self.uniforms = np.empty((SEARCH_CHUNK, 3 * m + 1))
        self.normals = np.empty((SEARCH_CHUNK, 2, m, d))
        self.omega = np.empty((SEARCH_CHUNK, m), dtype=bool)
        self.family = np.empty(SEARCH_CHUNK, dtype=np.int64)
        self.weight_uniforms = np.empty((SEARCH_CHUNK, 3 * m))
        # Where each family's psi uniforms end in a row of weight_uniforms.
        self.family_end = (2 * m, 2 * m, 3 * m, m + 1)

    def derive(self) -> None:
        """Set, for the written rows, the nodes and masses (points, masses),
        the span node values and whether the span is monomial (values,
        monomial), and the weights phi and psi: what drawing the instance
        through the public constructors gives, bit for bit."""
        n = self.size
        m, d = self.normals.shape[2:]
        u = self.uniforms[:n]
        self.points, self.masses = _nodes_from_uniforms(u[:, :-1])
        self.monomial = mono = u[:, -1] < MONOMIAL_FRACTION
        self.values = np.empty((n, m, d), dtype=complex)
        self.values[~mono] = _span_values_from_normals(self.normals[:n][~mono])
        # With d <= m - 1 no monomial span needs to shrink.
        self.values[mono] = vandermonde(self.points[mono], d)

        w, omega, family = self.weight_uniforms[:n], self.omega[:n], self.family[:n]
        self.phi = phi = _uniform(w[:, :m], *WEIGHT_RANGE)
        self.psi = psi = np.empty_like(phi)
        # Fully random pairs; pairs with the off-region premise forced; pairs
        # built to violate the conclusion inside the region (so a
        # counterexample appears the moment the density premise holds for
        # one of them); and constant-offset pairs that sit on the equality
        # edge of the density premise.
        f = family == 0
        psi[f] = _uniform(w[f, m : 2 * m], *WEIGHT_RANGE)
        f = (family == 1) | (family == 2)
        lift = np.where(omega[f], 0.0, _uniform(w[f, m : 2 * m], 0.0, 2.0))
        psi[f] = phi[f] + lift
        f = family == 2
        psi[f] -= np.where(omega[f], _uniform(w[f, 2 * m :], 0.0, 2.0), 0.0)
        f = family == 3
        psi[f] = phi[f] + _uniform(w[f, m : m + 1], -1.0, 1.0)

    def clear(self) -> None:
        """Empty the stack and drop its derived arrays, which derive()
        rebuilds: held from one judging to the next, they would add about a
        megabyte to the peak memory of a search."""
        self.size = 0
        self.points = self.masses = self.values = None
        self.monomial = self.phi = self.psi = None


def _draw_search_row(rng, stacks: dict, index: int) -> _SearchStack:
    """Draw search instance `index` from rng into the next row of the stack
    for its shape, kept in stacks by (m, d); returns that stack.

    The generator calls are those of drawing the instance through the
    public constructors, in the same order, and each writes straight into
    the row.  Nothing is derived or validated here; _SearchStack.derive and
    _judge_stack do that for a whole stack at once.
    """
    m = int(rng.integers(2, SEARCH_MAX_NODES + 1))
    # The span must be a proper subspace of the node functions: with
    # dim = node count the kernel is diagonal, the density no longer
    # depends on the weight, and the principle's strictness mechanism
    # is vacuous.  That degenerate regime has no counterpart in the
    # function-space setting being modeled, so the search excludes it.
    d = int(rng.integers(1, min(SEARCH_MAX_DIM, m - 1) + 1))
    stack = stacks.get((m, d))
    if stack is None:
        stack = stacks[m, d] = _SearchStack(m, d)
    k = stack.size
    stack.size += 1
    stack.index[k] = index
    u = stack.uniforms[k]
    rng.random(out=u)
    if u[-1] >= MONOMIAL_FRACTION:
        rng.standard_normal(out=stack.normals[k])
    omega = stack.omega[k]
    omega[:] = False
    omega[rng.choice(m, size=int(rng.integers(1, m)), replace=False)] = True
    w = stack.weight_uniforms[k]
    rng.random(out=w[:m])
    family = stack.family[k] = rng.integers(0, 4)
    rng.random(out=w[m : stack.family_end[family]])
    return stack


def _judge_stack(stack: _SearchStack):
    """Verdicts and approaches of the derived rows of a stack, one per row.

    The rows first pass, all at once, every check that the per-instance
    path runs: build_discrete_measure's on the nodes and masses,
    tabulated_weight's on phi and psi, and max_principle_check's on omega,
    with their error classes and messages.  The phi and psi spaces are then
    one stack of bergman_densities, and the verdicts and approaches one call
    of max_principle_verdicts, the function that max_principle_check uses,
    so each row's verdict is the one max_principle_check gives its instance.
    """
    masses, omega = stack.masses, stack.omega[: stack.size]
    phi, psi, values = stack.phi, stack.psi, stack.values
    validate_nodes(stack.points, masses)
    validate_weight_values(phi)
    validate_weight_values(psi)
    validate_region(omega)
    b_phi, b_psi = np.split(
        bergman_densities(
            np.concatenate([values, values]),
            np.concatenate([masses, masses]),
            np.concatenate([phi, psi]),
        ),
        2,
    )
    return max_principle_verdicts(b_phi, b_psi, phi, psi, omega)


def _search_record(stack: _SearchStack, k: int) -> dict:
    """The scenario record of row k, built through the public constructors."""
    measure = build_discrete_measure(stack.points[k], stack.masses[k])
    if stack.monomial[k]:
        span = monomial_span(measure, stack.values.shape[2] - 1)
    else:
        span = tabulated_span(stack.values[k])
    record = scenario_record(
        f"battery-instance-{stack.index[k]}",
        measure,
        span,
        tabulated_weight(stack.phi[k]),
        tabulated_weight(stack.psi[k]),
        ("maxprinciple",),
    )
    record["omega"] = [int(j) for j in np.flatnonzero(stack.omega[k])]
    return record


def max_principle_search(
    n_instances: int = 10_000,
    seed: int = 0,
) -> MaxPrincipleSearchReport:
    """Hunt for a maximum-principle counterexample over random instances.

    _draw_search_row draws the instances in the order of the seed's stream,
    each into the stack for its shape, and a stack is derived and judged by
    _judge_stack when it holds SEARCH_CHUNK rows; the partly filled ones are
    judged at the end.  Each verdict equals max_principle_check's on its
    instance, and the counterexample records come in instance order.  The
    principle predicts the counterexample list stays empty.  n_instances
    and seed must be nonnegative integers.
    """
    _validate_nonnegative_int("n_instances", n_instances)
    _validate_nonnegative_int("seed", seed)
    rng = np.random.default_rng(seed)
    t0 = time.perf_counter()
    tally = {
        MAXPRINCIPLE_PREMISES_FAIL: 0,
        MAXPRINCIPLE_CONCLUSION_HOLDS: 0,
        MAXPRINCIPLE_COUNTEREXAMPLE: 0,
    }
    found = []
    candidates, closest = 0, (math.inf, None)

    def judge(stack):
        nonlocal candidates, closest
        stack.derive()
        verdicts, approach = _judge_stack(stack)
        for verdict in tally:
            tally[verdict] += int(np.count_nonzero(verdicts == verdict))
        for k in np.flatnonzero(verdicts == MAXPRINCIPLE_COUNTEREXAMPLE):
            found.append((int(stack.index[k]), _search_record(stack, k)))
        n_candidates = int(np.count_nonzero(~np.isnan(approach)))
        candidates += n_candidates
        if n_candidates:
            k = np.nanargmin(approach)
            closest = min(closest, (float(approach[k]), int(stack.index[k])))
        stack.clear()

    stacks = {}
    for index in range(n_instances):
        stack = _draw_search_row(rng, stacks, index)
        if stack.size == SEARCH_CHUNK:
            judge(stack)
    for stack in stacks.values():
        if stack.size:
            judge(stack)

    approach, instance = closest
    return MaxPrincipleSearchReport(
        n_instances=n_instances,
        seed=seed,
        premises_fail=tally[MAXPRINCIPLE_PREMISES_FAIL],
        conclusion_holds=tally[MAXPRINCIPLE_CONCLUSION_HOLDS],
        counterexamples=[record for _, record in sorted(found, key=lambda f: f[0])],
        candidates=candidates,
        closest_approach=None if instance is None else approach,
        closest_instance=instance,
        elapsed_seconds=time.perf_counter() - t0,
    )
