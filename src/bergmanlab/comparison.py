"""Comparison principle for densities of states.

For two weights phi, psi on the same span and measure, the density of the
phi-space integrated over the region where psi dips below phi never exceeds
the psi-density integrated over the same region:

    integral_{psi < phi} B_phi dmu  <=  integral_{psi < phi} B_psi dmu.

The same holds with phi replaced by phi + c for any constant shift c, since
B is unchanged by constant shifts of the weight.  When the underlying measure
discretizes a planar domain and the span restricts holomorphic functions, the
inequality is strict unless both sides vanish.  ComparisonReport.verdict
is the one strictness rule.  A rank-0 psi space has K = 0 at every node, so
its rhs is 0.0 exactly and no rule needs to read a space's rank.

Each integral over a node set S sums the space's Bergman measure
P_jj = w_j B(z_j) (WeightedSpace.projector_diagonal) over S; the
maximum-principle verdicts compare the densities B node by node.

Each check takes a kernels.Spaces context for the span and the measure,
and the weights to compare; it reads their spaces from the context, so a
space that another check already built is not built again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigurationError
from .kernels import Spaces
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

    @property
    def verdict(self) -> str:
        """equal-both-zero where both integrals vanish, strict where the set
        is proper and the margin clears STRICT_MARGIN, else not-applicable."""
        if abs(self.lhs) <= STRICT_MARGIN and abs(self.rhs) <= STRICT_MARGIN:
            return VERDICT_EQUAL_BOTH_ZERO
        if self.set_proper and self.margin > STRICT_MARGIN:
            return VERDICT_STRICT
        return VERDICT_NOT_APPLICABLE


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


def sublevel_set(
    phi: WeightFunction, psi: WeightFunction, c: float = 0.0
) -> np.ndarray:
    """Strict sublevel region {psi < phi + c} as a node mask; ties fall outside."""
    # Where phi + c overflows to +-inf, the comparison still gives the right set.
    with np.errstate(over="ignore"):
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
    p_phi, p_psi = space_phi.projector_diagonal, space_psi.projector_diagonal
    reports = []
    for c in c_grid:
        s = sublevel_set(space_phi.weight, space_psi.weight, c)
        size = int(np.count_nonzero(s))
        proper = 0 < size < s.size
        lhs = float(np.sum(p_phi[s]))
        rhs = float(np.sum(p_psi[s]))
        strict_expected = (
            proper
            and spaces.span.kind == KIND_MONOMIALS
            and spaces.measure.kind == KIND_DISK
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
    """psi0 = min(phi, psi), node by node, as a tabulated-only weight.

    psi0 is psi bit for bit where psi < phi and phi elsewhere, so it is the
    largest weight below both.  Where it equals phi or psi, a Spaces context
    returns that weight's space, since it keys spaces by their values.
    """
    return WeightFunction(values=np.minimum(phi.values, psi.values), family=None)


def sandwich_check(
    spaces: Spaces, phi: WeightFunction, psi: WeightFunction
) -> SandwichReport:
    """Verify the two-link chain through the less-singular reduction.

    With S = {psi < phi} and psi0 the reduction, both links must hold:
    integral_S B_phi <= integral_S B_psi0 <= integral_S B_psi.  The first is
    the comparison principle for (phi, psi0) (their sublevel set is also S);
    the second holds pointwise on S because psi0 <= psi everywhere and the
    two agree on S.  The outer integrals equal the c = 0 comparison report's;
    when psi0 equals phi or psi, its space is already built.
    """
    space_phi, space_psi = spaces(phi), spaces(psi)
    phi, psi = space_phi.weight, space_psi.weight
    s = sublevel_set(phi, psi)
    lhs, mid, rhs = (
        float(np.sum(space.projector_diagonal[s]))
        for space in (space_phi, spaces(reduce_less_singular(phi, psi)), space_psi)
    )
    return SandwichReport(
        lower_ok=bool(lhs <= mid + COMPARISON_TOL * (1.0 + abs(mid))),
        upper_ok=bool(mid <= rhs + COMPARISON_TOL * (1.0 + abs(rhs))),
        lhs=lhs,
        mid=mid,
        rhs=rhs,
    )


def max_principle_check(
    spaces: Spaces, phi: WeightFunction, psi: WeightFunction, omega_mask
) -> str:
    """Contrapositive check of the maximum principle on a node set: the
    verdict max_principle_verdicts gives the instance.  omega must be a
    proper subset of the nodes.
    """
    omega = np.asarray(omega_mask, dtype=bool).reshape(-1)
    if omega.size != spaces.measure.n:
        raise InvalidConfigurationError(
            f"omega marks {omega.size} nodes, measure has {spaces.measure.n}"
        )
    validate_region(omega)
    space_phi, space_psi = spaces(phi), spaces(psi)
    verdict, _ = max_principle_verdicts(
        space_phi.density,
        space_psi.density,
        space_phi.weight.values,
        space_psi.weight.values,
        omega,
    )
    return str(verdict)


def validate_region(omega: np.ndarray) -> None:
    """Raise unless each row of the node mask omega (..., m) marks a
    nonempty proper subset of its m nodes."""
    marked = np.count_nonzero(omega, axis=-1)
    if not ((0 < marked) & (marked < omega.shape[-1])).all():
        raise InvalidConfigurationError(
            "omega must be a nonempty proper subset of the node set"
        )


def boundary_premise(phi, psi, omega):
    """The maximum principle's boundary premise on rows (..., m), one flag
    per row: phi <= psi at every node off the node mask omega."""
    return np.all(omega | (phi <= psi), axis=-1)


def max_principle_verdicts(b_phi, b_psi, phi, psi, omega):
    """Verdicts of the maximum principle on rows (..., m), one per row, and
    how close each row came to a counterexample: (verdicts, approach).

    Each row holds the densities b_phi and b_psi, the tabulated weight
    values phi and psi and the node mask omega of one instance.  The
    boundary premise is phi <= psi off omega; the density premise is
    b_phi >= b_psi - DENSITY_POINT_TOL * (1 + |b_psi|) at every node of
    omega, which admits a relative deficit (b_psi - b_phi) / b_psi of up to
    DENSITY_POINT_TOL * (1 + 1 / b_psi) at a node (1.75e-8 where b_psi is
    5.7e-5); the conclusion is phi <= psi at every node.  A row whose
    premises hold is conclusion-holds or a counterexample, and any other
    row is premises-fail, whatever its densities: a row that fails the
    boundary premise may carry NaN densities.

    A candidate meets the boundary premise and breaks the conclusion, so
    only the density premise stands between it and a counterexample.  Its
    approach is the density premise's deficit, max over omega of
    (b_psi - b_phi) / b_psi; every other row's approach is NaN.
    """
    boundary = boundary_premise(phi, psi, omega)
    density = np.all(
        ~omega | (b_phi >= b_psi - DENSITY_POINT_TOL * (1.0 + np.abs(b_psi))),
        axis=-1,
    )
    conclusion = np.all(phi <= psi, axis=-1)
    verdicts = np.where(
        boundary & density,
        np.where(
            conclusion, MAXPRINCIPLE_CONCLUSION_HOLDS, MAXPRINCIPLE_COUNTEREXAMPLE
        ),
        MAXPRINCIPLE_PREMISES_FAIL,
    )
    # Where the span vanishes at a node, b_phi = b_psi = 0 and the ratio is
    # NaN, without a warning; the search's spans vanish at no node.
    with np.errstate(divide="ignore", invalid="ignore"):
        deficit = (b_psi - b_phi) / b_psi
    deficit = np.max(np.where(omega, deficit, -np.inf), axis=-1)
    return verdicts, np.where(boundary & ~conclusion, deficit, np.nan)
