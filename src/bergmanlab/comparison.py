"""Comparison principle for densities of states.

For two weights phi, psi on the same span and measure, the density of the
phi-space integrated over the region where psi dips below phi never exceeds
the psi-density integrated over the same region:

    integral_{psi < phi} B_phi dmu  <=  integral_{psi < phi} B_psi dmu.

The same holds with phi replaced by phi + c for any constant shift c, since
B is unchanged by constant shifts of the weight.  When the underlying measure
discretizes a planar domain and the span restricts holomorphic functions, the
inequality is strict unless both sides vanish.

Each check takes a kernels.Spaces context for the span and the measure,
and the weights to compare; it reads their spaces from the context, so a
space that another check already built is not built again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigurationError
from .kernels import Spaces, bergman_density_from_space
from .measures import KIND_DISK
from .spans import KIND_MONOMIALS
from .weights import WeightFunction

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


def shifted_comparison_sweep(
    spaces: Spaces, phi: WeightFunction, psi: WeightFunction, c_grid
) -> list:
    """Comparison reports across a grid of constant shifts; c = 0 is {psi < phi}.

    Each report's margin is rhs - lhs; the principle asserts margin >=
    -COMPARISON_TOL * (1 + rhs).  The two spaces do not depend on the shift,
    so the grid takes them from the context once.
    """
    space_phi, space_psi = spaces(phi), spaces(psi)
    b_phi = bergman_density_from_space(space_phi)
    b_psi = bergman_density_from_space(space_psi)
    w = spaces.measure.masses
    reports = []
    for c in c_grid:
        s = sublevel_set(space_phi.weight, space_psi.weight, c)
        size = int(np.count_nonzero(s))
        proper = 0 < size < s.size
        lhs = float(np.sum(w[s] * b_phi[s]))
        rhs = float(np.sum(w[s] * b_psi[s]))
        strict_expected = (
            proper
            and spaces.span.kind == KIND_MONOMIALS
            and spaces.measure.kind == KIND_DISK
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
    spaces: Spaces, phi: WeightFunction, psi: WeightFunction
) -> SandwichReport:
    """Verify the two-link chain through the less-singular reduction.

    With S = {psi < phi} and psi0 the reduction, both links must hold:
    integral_S B_phi <= integral_S B_psi0 <= integral_S B_psi.  The first is
    the comparison principle for (phi, psi0) (their sublevel set is also S);
    the second holds pointwise on S because psi0 <= psi everywhere and the
    two agree on S.  The outer integrals are the c = 0 comparison report;
    when psi0 is phi or psi, its space is already built.
    """
    report = shifted_comparison_sweep(spaces, phi, psi, (0.0,))[0]
    phi, psi = spaces(phi).weight, spaces(psi).weight
    b_mid = bergman_density_from_space(spaces(reduce_less_singular(phi, psi)))
    s = sublevel_set(phi, psi)
    mid = float(np.sum(spaces.measure.masses[s] * b_mid[s]))
    return SandwichReport(
        lower_ok=bool(report.lhs <= mid + COMPARISON_TOL * (1.0 + abs(mid))),
        upper_ok=bool(mid <= report.rhs + COMPARISON_TOL * (1.0 + abs(report.rhs))),
        lhs=report.lhs,
        mid=mid,
        rhs=report.rhs,
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
    spaces: Spaces, phi: WeightFunction, psi: WeightFunction, omega_mask
) -> str:
    """Contrapositive check of the maximum principle on a node set.

    Premises: B_phi >= B_psi at every node of omega (within a pointwise
    tolerance), and phi <= psi off omega.  If the premises hold, the weights
    must satisfy phi <= psi everywhere; a node violating that is a
    counterexample.  omega must be a proper subset of the nodes.
    """
    omega = np.asarray(omega_mask, dtype=bool).reshape(-1)
    if omega.size != spaces.measure.n:
        raise InvalidConfigurationError(
            f"omega marks {omega.size} nodes, measure has {spaces.measure.n}"
        )
    validate_region(omega)
    space_phi, space_psi = spaces(phi), spaces(psi)
    return str(
        max_principle_verdicts(
            bergman_density_from_space(space_phi),
            bergman_density_from_space(space_psi),
            space_phi.weight.values,
            space_psi.weight.values,
            omega,
        )
    )


def validate_region(omega: np.ndarray) -> None:
    """Raise unless each row of the node mask omega (..., m) marks a
    nonempty proper subset of its m nodes."""
    marked = np.count_nonzero(omega, axis=-1)
    if not ((0 < marked) & (marked < omega.shape[-1])).all():
        raise InvalidConfigurationError(
            "omega must be a nonempty proper subset of the node set"
        )


def max_principle_verdicts(b_phi, b_psi, phi, psi, omega) -> np.ndarray:
    """Verdicts of the maximum principle on rows (..., m), one per row.

    Each row holds the densities b_phi and b_psi, the tabulated weight
    values phi and psi and the node mask omega of one instance.  The
    premises are b_phi >= b_psi - DENSITY_POINT_TOL * (1 + |b_psi|) at every
    node of omega and phi <= psi off it; the conclusion is phi <= psi at
    every node.
    """
    premise_density = np.all(
        ~omega | (b_phi >= b_psi - DENSITY_POINT_TOL * (1.0 + np.abs(b_psi))),
        axis=-1,
    )
    premise_boundary = np.all(omega | (phi <= psi), axis=-1)
    conclusion = np.where(
        np.all(phi <= psi, axis=-1),
        MAXPRINCIPLE_CONCLUSION_HOLDS,
        MAXPRINCIPLE_COUNTEREXAMPLE,
    )
    return np.where(
        premise_density & premise_boundary, conclusion, MAXPRINCIPLE_PREMISES_FAIL
    )


def max_principle_approach(b_phi, b_psi, phi, psi, omega) -> np.ndarray:
    """How close each row (..., m) of max_principle_verdicts' input came to
    a counterexample: NaN unless the row is a candidate.

    A candidate meets the boundary premise, phi <= psi off omega, and breaks
    the conclusion, phi > psi at some node of omega; it is a counterexample
    once the density premise holds too.  Its approach is the premise's
    deficit, max over omega of (b_psi - b_phi) / b_psi, which the premise
    admits up to about DENSITY_POINT_TOL.
    """
    candidate = np.all(omega | (phi <= psi), axis=-1) & np.any(
        omega & (phi > psi), axis=-1
    )
    deficit = np.max(np.where(omega, (b_psi - b_phi) / b_psi, -np.inf), axis=-1)
    return np.where(candidate, deficit, np.nan)
