"""Comparison principle for densities of states.

For two weights phi, psi on the same span and measure, the density of the
phi-space integrated over the region where psi dips below phi never exceeds
the psi-density integrated over the same region:

    integral_{psi < phi} B_phi dmu  <=  integral_{psi < phi} B_psi dmu.

The same holds with phi replaced by phi + c for any constant shift c, since
B is unchanged by constant shifts of the weight.  When the underlying measure
discretizes a planar domain and the span restricts holomorphic functions, the
inequality is strict unless both sides vanish.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigurationError
from .kernels import bergman_density_from_space, build_space
from .measures import KIND_DISK, QuadratureMeasure
from .spans import KIND_MONOMIALS, FunctionSpan
from .weights import WeightFunction, eval_weight

# Slack granted to the inequality: lhs <= rhs + COMPARISON_TOL * (1 + rhs).
COMPARISON_TOL = 1e-12
# Margin above which the inequality counts as strict.
STRICT_MARGIN = 1e-10
# Tolerance used when checking pointwise density premises.
DENSITY_POINT_TOL = 1e-12

VERDICT_STRICT = "strict"
VERDICT_EQUAL_BOTH_ZERO = "equal-both-zero"
VERDICT_NOT_APPLICABLE = "not-applicable"

MAXPRINCIPLE_PREMISES_FAIL = "premises-fail"
MAXPRINCIPLE_CONCLUSION_HOLDS = "conclusion-holds"
MAXPRINCIPLE_COUNTEREXAMPLE = "counterexample"


@dataclass(frozen=True)
class ComparisonReport:
    shift: float
    lhs: float
    rhs: float
    margin: float
    set_size: int
    set_proper: bool
    strict_expected: bool


@dataclass(frozen=True)
class SandwichReport:
    """Two-link chain through the less-singular reduction.

    lower_ok: integral of B_phi over the set <= integral of B_reduced;
    upper_ok: integral of B_reduced <= integral of B_psi over the same set.
    """

    lower_ok: bool
    upper_ok: bool
    lhs: float
    mid: float
    rhs: float

    @property
    def ok(self) -> bool:
        return self.lower_ok and self.upper_ok

    def __bool__(self) -> bool:
        return self.ok


def sublevel_set(
    phi: WeightFunction, psi: WeightFunction, c: float = 0.0
) -> np.ndarray:
    """Strict sublevel region {psi < phi + c} as a node mask; ties fall outside."""
    return psi.values < phi.values + c


def _densities(span, measure, *weights):
    """Tabulate each weight, build its space, and take its density at the nodes.

    Returns the tabulated weights, the spaces and the densities, each in the
    order the weights were given.
    """
    weights = [eval_weight(weight, measure) for weight in weights]
    spaces = [build_space(span, measure, weight) for weight in weights]
    return weights, spaces, [bergman_density_from_space(space) for space in spaces]


def comparison_integrals(
    phi: WeightFunction,
    psi: WeightFunction,
    span: FunctionSpan,
    measure: QuadratureMeasure,
) -> ComparisonReport:
    """Both sides of the comparison inequality over {psi < phi}.

    The report's margin is rhs - lhs; the principle asserts margin >=
    -COMPARISON_TOL * (1 + rhs).  For a shift c, take
    ``shifted_comparison_sweep(..., (c,))[0]``.
    """
    return shifted_comparison_sweep(phi, psi, span, measure, (0.0,))[0]


def shifted_comparison_sweep(
    phi: WeightFunction,
    psi: WeightFunction,
    span: FunctionSpan,
    measure: QuadratureMeasure,
    c_grid,
) -> list:
    """Comparison reports across a grid of constant shifts.

    The two spaces do not depend on the shift, so they are built once.
    """
    (phi, psi), (_, space_psi), (b_phi, b_psi) = _densities(span, measure, phi, psi)
    w = measure.masses
    reports = []
    for c in c_grid:
        s = sublevel_set(phi, psi, c)
        size = int(np.count_nonzero(s))
        proper = 0 < size < s.size
        lhs = float(np.sum(w[s] * b_phi[s]))
        rhs = float(np.sum(w[s] * b_psi[s]))
        strict_expected = (
            proper
            and span.kind == KIND_MONOMIALS
            and measure.kind == KIND_DISK
            and space_psi.rank >= 1
            and rhs > STRICT_MARGIN
        )
        reports.append(
            ComparisonReport(
                shift=float(c),
                lhs=lhs,
                rhs=rhs,
                margin=rhs - lhs,
                set_size=size,
                set_proper=proper,
                strict_expected=strict_expected,
            )
        )
    return reports


def reduce_less_singular(phi: WeightFunction, psi: WeightFunction) -> WeightFunction:
    """Replace psi by psi0 = phi + min(psi - phi, 0).

    psi0 agrees with psi where psi < phi and with phi elsewhere, so it is the
    largest weight below both.  When one of the inputs already equals psi0 it
    is returned as-is (preserving its closed form); otherwise the result is
    tabulated-only.
    """
    u = psi.values - phi.values
    if np.all(u >= 0.0):
        return phi
    if np.all(u <= 0.0):
        return psi
    return WeightFunction(values=phi.values + np.minimum(u, 0.0), family=None)


def sandwich_check(
    phi: WeightFunction,
    psi: WeightFunction,
    span: FunctionSpan,
    measure: QuadratureMeasure,
) -> SandwichReport:
    """Verify the two-link chain through the less-singular reduction.

    With S = {psi < phi} and psi0 the reduction, both links must hold:
    integral_S B_phi <= integral_S B_psi0 <= integral_S B_psi.  The first is
    the comparison principle for (phi, psi0) (their sublevel set is also S);
    the second holds pointwise on S because psi0 <= psi everywhere and the
    two agree on S.
    """
    phi = eval_weight(phi, measure)
    psi = eval_weight(psi, measure)
    _, _, (b_phi, b_psi, b_mid) = _densities(
        span, measure, phi, psi, reduce_less_singular(phi, psi)
    )
    s = sublevel_set(phi, psi)
    w = measure.masses
    lhs = float(np.sum(w[s] * b_phi[s]))
    mid = float(np.sum(w[s] * b_mid[s]))
    rhs = float(np.sum(w[s] * b_psi[s]))
    return SandwichReport(
        lower_ok=bool(lhs <= mid + COMPARISON_TOL * (1.0 + abs(mid))),
        upper_ok=bool(mid <= rhs + COMPARISON_TOL * (1.0 + abs(rhs))),
        lhs=lhs,
        mid=mid,
        rhs=rhs,
    )


def strictness_check(report: ComparisonReport, kernel_psi_nontrivial: bool) -> str:
    """Classify a comparison outcome.

    equal-both-zero: both integrals vanish (empty set, or the kernel has no
    mass there).  strict: the margin clears STRICT_MARGIN.  not-applicable:
    everything else -- improper sets, trivial kernels, or a sub-threshold
    margin on a measure where strictness carries no guarantee.
    """
    if abs(report.lhs) <= STRICT_MARGIN and abs(report.rhs) <= STRICT_MARGIN:
        return VERDICT_EQUAL_BOTH_ZERO
    if not report.set_proper or not kernel_psi_nontrivial:
        return VERDICT_NOT_APPLICABLE
    if report.margin > STRICT_MARGIN:
        return VERDICT_STRICT
    return VERDICT_NOT_APPLICABLE


def max_principle_check(
    phi: WeightFunction,
    psi: WeightFunction,
    omega_mask,
    span: FunctionSpan,
    measure: QuadratureMeasure,
) -> str:
    """Contrapositive check of the maximum principle on a node set.

    Premises: B_phi >= B_psi at every node of omega (within a pointwise
    tolerance), and phi <= psi off omega.  If the premises hold, the weights
    must satisfy phi <= psi everywhere; a node violating that is a
    counterexample.  omega must be a proper subset of the nodes.
    """
    omega = np.asarray(omega_mask, dtype=bool).reshape(-1)
    if omega.size != measure.n:
        raise InvalidConfigurationError(
            f"omega marks {omega.size} nodes, measure has {measure.n}"
        )
    if not 0 < np.count_nonzero(omega) < omega.size:
        raise InvalidConfigurationError(
            "omega must be a nonempty proper subset of the node set"
        )
    (phi, psi), _, (b_phi, b_psi) = _densities(span, measure, phi, psi)
    premise_density = np.all(
        b_phi[omega] >= b_psi[omega] - DENSITY_POINT_TOL * (1.0 + np.abs(b_psi[omega]))
    )
    premise_boundary = np.all(phi.values[~omega] <= psi.values[~omega])
    if not (premise_density and premise_boundary):
        return MAXPRINCIPLE_PREMISES_FAIL
    if np.all(phi.values <= psi.values):
        return MAXPRINCIPLE_CONCLUSION_HOLDS
    return MAXPRINCIPLE_COUNTEREXAMPLE
