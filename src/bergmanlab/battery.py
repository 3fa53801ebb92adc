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
many, so it never builds one as objects.  It draws them in rounds of
SEARCH_ROUND: each draw reads what numpy's public calls would draw off the
raw PCG64 words (_Words), writes its uniforms, as raw words, and its
normals into one flat buffer, at exactly their length, and a small table
records where it starts, its node count m, span dimension d and weight
family.  A draw takes m, d, the uniforms, the span coin, the normals and
the size k of its node subset Omega one by one, but Omega's halves, phi's
words and the family's half in one call (_draw_round); one vectorized pass
per node count then derives the rows' Omega masks with numpy's Floyd
arithmetic (_omega_masks).  A half that Lemire's method would draw again
(about once in 2e5 rounds) sends the round back to where it began, to be
drawn one instance at a time (_round_table).  A round is then judged one
node count at a time.  The rows with node count m are gathered once and
one vectorized pass derives their nodes, masses and weights, by the same
arithmetic as numpy's random and uniform (the battery draws its nodes
through the same mapping); they are validated as the constructors would
validate them, and each row's verdict and how close it came to a
counterexample come from one call of the function that max_principle_check
uses.  Only the densities go by shape (m, d), and only for the rows that
meet the boundary premise, since no density can save the others: each
shape's span values (numpy's vander for a monomial span) and its phi and
psi spaces form one stacked factorization (kernels.bergman_densities).
Only a counterexample is built back into objects, for its scenario record.
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
    boundary_premise,
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
# Search draws per round: the search draws SEARCH_ROUND instances into one
# buffer, then judges them one node count at a time, with one density
# stack for each shape (m, d) in the round, and judges the last, shorter
# round the same way.  A pass of 10 000 instances is five rounds: 55
# node-count groups and 190 density stacks, where one stack of at most 32
# rows for each shape made 329-330.  Measured on two shared cores with one
# BLAS thread, as CPU time a pass (median ratio over 16 pairs of passes of
# both designs, interleaved in one process) and as bench/run.py's peak RSS
# (42.6 MB for the stacks): 1024 draws take 0.94 of the stacks' time at
# 42.8 MB, 2048 draws 0.83 at 43.6 MB and 4096 draws 0.81 at 46.4 MB, where
# the buffer passes 4 MB and numpy asks for huge pages.  The draws
# themselves, read off the raw PCG64 words (_Words) with each group's Omega
# derived in one pass, take about 0.08 s of CPU a pass, where drawing Omega
# half by half took 0.11 s (median over 8 alternating processes of 15
# passes each, same machine).
SEARCH_ROUND = 2048

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

    def scenario_dict(self) -> dict:
        """A scenario-file dictionary that reruns this instance."""
        return scenario_record(
            f"battery-instance-{self.index}",
            self.measure,
            self.span,
            self.phi,
            self.psi,
            ("structural", "comparison", "homotopy"),
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
        # The nodes, the masses and the span coin, as a search draw writes
        # them (_draw_round).
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
    against its sign-split form; at FD_STEP it reuses the estimate's spaces.
    """
    spaces, phi, psi = inst.spaces, inst.phi, inst.psi

    space = spaces(phi)
    values = checks.structural_values(space)
    reports = shifted_comparison_sweep(spaces, phi, psi, DEFAULT_C_GRID)
    values["comparison_deficit"] = checks.comparison_deficit(reports)
    values["sandwich"] = sandwich_check(spaces, phi, psi).ok

    path = build_path(spaces, phi, psi)
    forms = g_derivative_forms(path, BOUND_T)
    endpoints = reports[DEFAULT_C_GRID.index(0.0)]
    values.update(checks.homotopy_values(path, [forms], endpoints))
    order_errors = {
        tau: abs(central_difference(path, BOUND_T, tau) - forms.sign_split_form)
        for tau in ORDER_STEPS
    }

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


def _weights_from_uniforms(w, omega, family):
    """The weights phi and psi (n, m) of search draws from their weight
    uniforms w (n, >= 3m), node masks omega (n, m) and weight families: m
    uniforms for phi, then what the family needs for psi.

    The families are fully random pairs (0); pairs with the off-region
    premise forced (1); pairs built to violate the conclusion inside the
    region (2), so a counterexample appears the moment the density premise
    holds for one of them; and constant-offset pairs (3), which sit on the
    equality edge of the density premise.  Each row reads only the uniforms
    its family drew.
    """
    m = omega.shape[-1]
    phi = _uniform(w[:, :m], *WEIGHT_RANGE)
    psi = np.empty_like(phi)
    f = family == 0
    psi[f] = _uniform(w[f, m : 2 * m], *WEIGHT_RANGE)
    f = (family == 1) | (family == 2)
    lift = np.where(omega[f], 0.0, _uniform(w[f, m : 2 * m], 0.0, 2.0))
    psi[f] = phi[f] + lift
    f = family == 2
    psi[f] -= np.where(omega[f], _uniform(w[f, 2 * m : 3 * m], 0.0, 2.0), 0.0)
    f = family == 3
    psi[f] = phi[f] + _uniform(w[f, m : m + 1], -1.0, 1.0)
    return phi, psi


# The low 32 bits of a PCG64 word.
_HALF = 0xFFFFFFFF


class _Words:
    """The search's draws from a Generator, read off its raw PCG64 words.

    Each method takes from the stream exactly what the numpy call it stands
    for takes, and gives the same result bit for bit:

    - bounded(n) is rng.integers(0, n): Lemire's method on a 32-bit half u,
      drawn again while (u·n) mod 2^32 < 2^32 mod n; n == 1 takes nothing.
      A fresh word gives its low half first and keeps its high half for
      the next 32-bit draw (kept: PCG64's uinteger where has_uint32 is
      set), which 64-bit draws leave alone.
    - subset(m, k) is the set that rng.choice(m, size=k, replace=False)
      picks, as a bit mask: Floyd's algorithm, then the draws of numpy's
      shuffle of the picks, whose order the mask drops.
    - words(n) is random_raw(n); rng.random gives _doubles of those words.
    - normals is rng.standard_normal itself, as numpy keeps its ziggurat
      tables private.  It takes whole words and leaves the kept half alone.
    """

    def __init__(self, rng):
        self.generator = rng.bit_generator
        state = self.generator.state
        self.words = self.generator.random_raw
        self.normals = rng.standard_normal
        self.kept = state["uinteger"] if state["has_uint32"] else None

    def save(self):
        """Where the stream stands: the generator's state and the kept half."""
        return self.generator.state, self.kept

    def restore(self, saved) -> None:
        """Stand the stream where save() found it."""
        self.generator.state, self.kept = saved

    def bounded(self, n: int) -> int:
        if n == 1:
            return 0
        if self.kept is None:
            word = self.words()
            product, self.kept = (word & _HALF) * n, word >> 32
        else:
            product, self.kept = self.kept * n, None
        if product & _HALF < (1 << 32) % n:
            return self.bounded(n)
        return product >> 32

    def subset(self, m: int, k: int) -> int:
        bounded = self.bounded
        mask = 0
        for j in range(m - k, m):
            v = bounded(j + 1)
            mask |= 1 << (j if mask >> v & 1 else v)
        for i in range(k, 1, -1):
            bounded(i)
        return mask


def _doubles(words):
    """The doubles numpy's random makes of raw PCG64 words: the top 53 bits
    of each, times 2^-53."""
    return (words >> 11) * 2.0**-53


def _draw_round(reader: _Words, buffer, count: int, exact: bool = False):
    """Draw count search instances into buffer; returns their table, one
    row (start, m, d, family, weights_at, node mask, k, half_at) per draw.

    The draws are those of drawing each instance through numpy's public
    calls, in the same order: m and d; 3m + 1 uniforms for the node radii,
    angles and log-masses and the span coin; 2md standard normals when the
    span is tabulated; the size k and the node subset Omega, as
    rng.choice(m, k, replace=False) picks it; m uniforms for phi; the
    weight family; and the 1 to 2m uniforms that the family draws for psi.
    The uniforms go into the flat uint64 buffer as raw words, from the
    draw's start, and the normals as doubles; the uniforms of phi and psi
    start at weights_at.  Nothing is derived or validated here;
    _search_group and _judge_group do that for a whole round at once.

    With exact, Omega is _Words.subset's node mask.  Otherwise a draw reads
    Omega's 2k - 1 halves, phi's m words and the family's half with one
    call of k + m words, and leaves the mask 0 for _omega_masks.  Where a
    half was kept when Omega began, that half is Omega's first, and the
    family's half is the low half of the call's last word, whose high half
    is kept; where none was, the family's half is the high half of Omega's
    last word.  A kept half goes into the buffer as the high half of a word
    of its own, so that Omega's halves lie in stream order from half
    position half_at (word w holds positions 2w, its low half, and 2w + 1).
    That is the stream's order only while Lemire's method keeps every half
    of Omega.  Where it would draw one again, the row and the rows after it
    are not the stream's, and _omega_masks flags the row.
    """
    words, normals, bounded = reader.words, reader.normals, reader.bounded
    rows, end = [], 0
    for _ in range(count):
        start = end
        m = 2 + bounded(SEARCH_MAX_NODES - 1)
        # The span must be a proper subspace of the node functions: with
        # dim = node count the kernel is diagonal, the density no longer
        # depends on the weight, and the principle's strictness mechanism
        # is vacuous.  That degenerate regime has no counterpart in the
        # function-space setting being modeled, so the search excludes it.
        d = 1 + bounded(min(SEARCH_MAX_DIM, m - 1))
        end += 3 * m + 1
        buffer[start:end] = words(3 * m + 1)
        if _doubles(int(buffer[end - 1])) >= MONOMIAL_FRACTION:
            normals(out=buffer[end : end + 2 * m * d].view(float))
            end += 2 * m * d
        k = 1 + bounded(m - 1)
        omega = half_at = 0
        if exact:
            omega = reader.subset(m, k)
            buffer[end : end + m] = words(m)
            weights_at, end = end, end + m
            family = bounded(4)
        else:
            block = words(k + m)
            if reader.kept is None:
                buffer[end : end + k + m] = block
                half_at = 2 * end
                # bounded(4) of the high half: the top two bits of the word.
                family = int(block[k - 1]) >> 62
            else:
                buffer[end] = reader.kept << 32
                buffer[end + 1 : end + k + m] = block[:-1]
                half_at = 2 * end + 1
                word = int(block[-1])
                family, reader.kept = (word & _HALF) >> 30, word >> 32
            weights_at = end + k
            end = weights_at + m
        n_psi = (m, m, 2 * m, 1)[family]
        buffer[end : end + n_psi] = words(n_psi)
        end += n_psi
        rows.append((start, m, d, family, weights_at, omega, k, half_at))
    return np.array(rows, dtype=np.int64)


def _omega_masks(buffer, half_at, k, m: int):
    """The node masks of rows with node count m, from the halves that
    _draw_round left in buffer, and a flag per row for a half that
    Lemire's method would draw again.

    Row r's Omega takes the 2k[r] - 1 halves from half position half_at[r]
    (position p is the low half of word p // 2 when p is even, else its
    high half): Floyd's algorithm takes the first k, at the bounds m - k + 1
    to m, then numpy's shuffle of the picks takes k - 1 more, at the bounds
    k down to 2.  The arithmetic is _Words.subset's, on every row at once.
    """
    h = np.arange(2 * m - 3)
    p = half_at[:, None] + h
    halves = buffer[p // 2] >> (p % 2 * 32).astype(np.uint64) & _HALF
    col = k[:, None]
    # Positions past a row's 2k - 1 halves take bound 1, which rejects none.
    shuffle = np.where(h < 2 * col - 1, 2 * col - h, 1)
    bound = np.where(h < col, m - col + h + 1, shuffle)
    product = halves.astype(np.int64) * bound
    flagged = (product & _HALF < (1 << 32) % bound).any(axis=1)
    picks = product >> 32
    mask = np.zeros(len(k), dtype=np.int64)
    for t in range(m - 1):
        j, v = m - k + t, picks[:, t]
        bit = np.where(mask >> v & 1, j, v)
        mask |= np.where(t < k, 1 << bit, 0)
    return mask, flagged


def _round_table(reader: _Words, buffer, count: int):
    """Draw a round of count search instances into buffer; returns its
    table, one row (start, m, d, family, weights_at, node mask) per draw.

    The round is drawn by _draw_round, and its node masks derived by
    _omega_masks one node count at a time.  If a half was flagged, the
    stream goes back to where the round began, kept half and all, and the
    round is drawn again with exact, where _Words.subset draws a rejected
    half again as numpy does.
    """
    saved = reader.save()
    table = _draw_round(reader, buffer, count)
    redraw = False
    for m in sorted(set(table[:, 1].tolist())):
        rows = table[:, 1] == m
        table[rows, 5], flagged = _omega_masks(
            buffer, table[rows, 7], table[rows, 6], m
        )
        redraw |= bool(flagged.any())
    if redraw:
        reader.restore(saved)
        table = _draw_round(reader, buffer, count, exact=True)
    return table[:, :6]


@dataclass
class _SearchGroup:
    """The draws of one round with one node count m, derived: what drawing
    each instance through the public constructors gives, bit for bit.

    Row k is instance index[k], with nodes and masses points[k] and
    masses[k], a span of dimension dim[k] (monomial or not), weights phi[k]
    and psi[k] and node flags omega[k].  A tabulated span's normals lie in
    buffer, the round's buffer, from normals_at[k]; span_stack derives the
    span node values of the rows that need them.
    """

    index: np.ndarray
    points: np.ndarray
    masses: np.ndarray
    dim: np.ndarray
    monomial: np.ndarray
    phi: np.ndarray
    psi: np.ndarray
    omega: np.ndarray
    buffer: np.ndarray
    normals_at: np.ndarray

    def span_stack(self, rows: np.ndarray, d: int) -> np.ndarray:
        """The span node values (len(rows), m, d) of rows, whose span
        dimension is d, with the arithmetic of numpy's vander for a monomial
        span.  They are read from the round's buffer, which stays valid
        until the next round is drawn."""
        m = self.points.shape[1]
        mono = self.monomial[rows]
        v = np.empty((len(rows), m, d), dtype=complex)
        tabulated = self.normals_at[rows][~mono]
        normals = _windows(self.buffer.view(float), tabulated, 2 * m * d)
        v[~mono] = _span_values_from_normals(normals.reshape(-1, 2, m, d))
        # With d <= m - 1 no monomial span needs to shrink.
        v[mono] = vandermonde(self.points[rows][mono], d)
        return v

    def span_values(self, k: int) -> np.ndarray:
        """The span node values (m, d) of row k, read from the round's
        buffer, which stays valid until the next round is drawn."""
        return self.span_stack(np.array([k]), int(self.dim[k]))[0]


def _windows(buffer, starts, width: int) -> np.ndarray:
    """The numbers buffer[s : s + width] from each start s, one row each."""
    return buffer[starts[:, None] + np.arange(width)]


def _search_group(buffer, table, m: int, first: int) -> _SearchGroup:
    """Derive the draws of a round with node count m as one _SearchGroup.

    buffer holds the round's output and table its (start, m, d, family,
    weights_at, node mask) rows (_round_table); the round's first draw is
    instance first.  The arithmetic is that of numpy's random and uniform
    (_doubles, _uniform, _nodes_from_uniforms), on the rows of node count m
    at once.  The span node values are left to _SearchGroup.span_stack.
    """
    rows = np.flatnonzero(table[:, 1] == m)
    at, _, dim, family, weights_at, mask = table[rows].T
    u = _doubles(_windows(buffer, at, 3 * m + 1))
    points, masses = _nodes_from_uniforms(u[:, :-1])
    monomial = u[:, -1] < MONOMIAL_FRACTION
    # A row's window holds 3m words, of which its family reads only those
    # it drew; the rest, past the row's end, are never used.  The window
    # holds no more than the longest draw of node count m, so it stays
    # inside the buffer.
    w = _doubles(_windows(buffer, weights_at, 3 * m))
    omega = (mask[:, None] >> np.arange(m) & 1).astype(bool)
    phi, psi = _weights_from_uniforms(w, omega, family)
    return _SearchGroup(
        index=first + rows,
        points=points,
        masses=masses,
        dim=dim,
        monomial=monomial,
        phi=phi,
        psi=psi,
        omega=omega,
        buffer=buffer,
        normals_at=at + 3 * m + 1,
    )


def _search_groups(rng, n_instances: int):
    """Draw n_instances search instances from rng, in the order of its
    stream, and yield them derived, one _SearchGroup per node count of each
    round, in increasing node count.

    A round is SEARCH_ROUND draws (the last may be shorter), all written
    into one flat buffer by _round_table before any is derived.
    """
    # A draw writes at most 6m + 1 + k + 2md <= 7m + 2md numbers, k of them
    # Omega's words or the kept half's word, at the largest m and d; a round
    # touches only the part of the buffer that its draws write.
    m_max = SEARCH_MAX_NODES
    d_max = min(SEARCH_MAX_DIM, m_max - 1)
    buffer = np.empty(SEARCH_ROUND * (7 * m_max + 2 * m_max * d_max), np.uint64)
    reader = _Words(rng)
    for first in range(0, n_instances, SEARCH_ROUND):
        table = _round_table(reader, buffer, min(SEARCH_ROUND, n_instances - first))
        # np.unique would import numpy.ma, about 1 MB of peak memory.
        for m in sorted(set(table[:, 1].tolist())):
            yield _search_group(buffer, table, m, first)


def _judge_group(group: _SearchGroup):
    """Verdicts and approaches of a group's rows, one per row.

    The rows first pass, all at once, every check that the per-instance
    path runs: build_discrete_measure's on the nodes and masses,
    tabulated_weight's on phi and psi, and max_principle_check's on omega,
    with their error classes and messages.  A row that fails the boundary
    premise (comparison.boundary_premise) is premises-fail whatever its
    densities, so only the rows that meet it are factored: their span
    values and their phi and psi spaces of each shape (m, d) are one stack
    of bergman_densities, and the other rows keep NaN densities.  The
    verdicts and approaches are one call of max_principle_verdicts, the
    function that max_principle_check uses, so each row's verdict is the
    one max_principle_check gives its instance.
    """
    validate_nodes(group.points, group.masses)
    validate_weight_values(group.phi)
    validate_weight_values(group.psi)
    validate_region(group.omega)
    weights = np.stack([group.phi, group.psi])
    densities = np.full_like(weights, np.nan)
    premise = boundary_premise(group.phi, group.psi, group.omega)
    for d in sorted(set(group.dim[premise].tolist())):
        rows = np.flatnonzero(premise & (group.dim == d))
        densities[:, rows] = bergman_densities(
            group.span_stack(rows, d), group.masses[rows], weights[:, rows]
        )
    return max_principle_verdicts(*densities, group.phi, group.psi, group.omega)


def _search_record(group: _SearchGroup, k: int) -> dict:
    """The scenario record of row k, built through the public constructors."""
    measure = build_discrete_measure(group.points[k], group.masses[k])
    if group.monomial[k]:
        span = monomial_span(measure, int(group.dim[k]) - 1)
    else:
        span = tabulated_span(group.span_values(k))
    record = scenario_record(
        f"battery-instance-{group.index[k]}",
        measure,
        span,
        tabulated_weight(group.phi[k]),
        tabulated_weight(group.psi[k]),
        ("maxprinciple",),
    )
    record["omega"] = [int(j) for j in np.flatnonzero(group.omega[k])]
    return record


def max_principle_search(
    n_instances: int = 10_000,
    seed: int = 0,
) -> MaxPrincipleSearchReport:
    """Hunt for a maximum-principle counterexample over random instances.

    The instances are drawn in rounds of SEARCH_ROUND (the last one may be
    shorter), in the order of the seed's stream, by _round_table into one
    flat buffer.  Each round is then derived by _search_groups, one
    group per node count, and each group judged by _judge_group.  Each
    verdict equals max_principle_check's on its instance, and the
    counterexample records come in instance order.  The principle predicts
    the counterexample list stays empty.  n_instances and seed must be
    nonnegative integers.
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
    for group in _search_groups(rng, n_instances):
        verdicts, approach = _judge_group(group)
        for verdict in tally:
            tally[verdict] += int(np.count_nonzero(verdicts == verdict))
        for k in np.flatnonzero(verdicts == MAXPRINCIPLE_COUNTEREXAMPLE):
            found.append((int(group.index[k]), _search_record(group, k)))
        n_candidates = int(np.count_nonzero(~np.isnan(approach)))
        candidates += n_candidates
        if n_candidates:
            k = np.nanargmin(approach)
            closest = min(closest, (float(approach[k]), int(group.index[k])))

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
