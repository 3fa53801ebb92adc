"""Scaling limit of the density of states under weight amplification.

For a smooth weight phi with positive Laplacian, the density of the space
built from the amplified weight k*phi over polynomials of growing degree
approaches the equilibrium profile

    (1/k) B_{k phi}(z) dmu  ->  Laplacian(phi)(z) / (4 pi) dA,

so the per-node ratio of the two sides tends to 1 as k grows.  This module
computes the limit density, the scaled spaces, and convergence reports on
a ladder of k values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigurationError, UnsupportedWeightError
from .kernels import WeightedSpace, bergman_density_at, build_space
from .measures import KIND_DISK, QuadratureMeasure
from .spans import monomial_span
from .weights import WeightFunction, eval_weight, scaled_weight

# Degree ladder: degree(k) = ceil(DEGREE_FACTOR * k * R^2), capped so the
# quadrature still integrates the span's Gram exactly.
DEGREE_FACTOR = 1.5
DEFAULT_K_LADDER = (10, 20, 40)
# Positivity floor below which a limit-density node is skipped.
DENSITY_SKIP_TOL = 1e-12

# Pass limits for a convergence run: the deviation at the last rung of the
# ladder, and the slack factor allowed when requiring the per-rung maximum
# deviation to be nonincreasing.  The absolute floor keeps the monotonicity
# requirement meaningful once deviations reach quadrature noise.
TCZ_FINAL_DEV_LIMIT = 0.05
TCZ_MONOTONE_SLACK = 1.1
TCZ_DEV_FLOOR = 1e-9


@dataclass(frozen=True, eq=False)
class ScalingReport:
    """Convergence data for one amplification factor k."""

    k: float
    degree: int
    degree_requested: float
    eval_indices: np.ndarray
    ratios: np.ndarray
    max_abs_dev_from_1: float
    mean_abs_dev: float
    n_skipped: int


def ma_density(weight: WeightFunction, measure: QuadratureMeasure) -> np.ndarray:
    """Limit density Laplacian(phi)/(4 pi) at the measure's nodes.

    It uses the closed-form Laplacian of the weight family, so a closed form
    is required: tabulated-only weights on scattered nodes carry no off-node
    information.
    """
    weight = eval_weight(weight, measure)
    if weight.family is None:
        raise UnsupportedWeightError(
            "limit density needs a closed-form weight; tabulated-only values "
            "on scattered nodes are not supported"
        )
    lap = np.asarray(weight.family.laplacian(measure.points), dtype=float)
    return lap / (4.0 * math.pi)


def requested_degree(k: float, measure: QuadratureMeasure) -> float:
    """1.5 k R^2 on a disk measure, before rounding up and capping.

    It stays a float, so a huge k gives inf instead of overflowing an int.
    """
    return DEGREE_FACTOR * k * measure.radius**2


def default_degree_rule(k: float, measure: QuadratureMeasure) -> int:
    """ceil(1.5 k R^2), capped at half the quadrature's exactness degree."""
    if measure.kind != KIND_DISK or measure.radius is None:
        raise InvalidConfigurationError(
            "the default degree rule needs a disk-product measure"
        )
    cap = measure.exactness_degree // 2
    # The cap is taken before rounding up, so a huge k gives the cap
    # instead of overflowing math.ceil.
    return int(math.ceil(min(requested_degree(k, measure), cap)))


def build_scaled_space(
    phi: WeightFunction,
    k: float,
    degree: int,
    measure: QuadratureMeasure,
) -> WeightedSpace:
    """Space of polynomials up to the given degree under the weight k*phi.

    The degree must fit the quadrature's exactness (``monomial_span``).
    """
    span = monomial_span(measure, degree)
    return build_space(span, measure, scaled_weight(phi, k))


def ladder_nodes(
    limit: np.ndarray,
    measure: QuadratureMeasure,
    interior_radius: float | None,
):
    """The mask of the nodes the ladder reads, and how many it skips.

    It reads the nodes within interior_radius (default half the disk
    radius) where the limit density is positive, and skips the others
    within that radius.
    """
    if interior_radius is None:
        interior_radius = 0.5 * measure.radius
    interior = np.abs(measure.points) <= interior_radius
    positive = limit > DENSITY_SKIP_TOL
    return interior & positive, int(np.count_nonzero(interior & ~positive))


def tcz_convergence_report(
    phi: WeightFunction,
    k_list,
    measure: QuadratureMeasure,
    interior_radius: float | None = None,
) -> list:
    """Scaled-density-to-limit ratios on interior nodes for each k.

    Each k gets the degree of ``default_degree_rule``.  For every node z_j
    with |z_j| <= interior_radius (default half the disk radius) and
    positive limit density, the ratio (B_{k phi}(z_j)/k) /
    (Laplacian(phi)(z_j)/(4 pi)) is recorded; nodes where the limit density
    is nonpositive are skipped and counted.
    """
    if measure.kind != KIND_DISK:
        raise InvalidConfigurationError(
            "convergence reports need a disk-product measure"
        )
    limit = ma_density(phi, measure)
    eval_mask, n_skipped = ladder_nodes(limit, measure, interior_radius)
    reports = []
    for k in k_list:
        degree = default_degree_rule(k, measure)
        space = build_scaled_space(phi, k, degree, measure)
        b = bergman_density_at(space, measure.points[eval_mask])
        ratios = (b / k) / limit[eval_mask]
        devs = np.abs(ratios - 1.0)
        reports.append(
            ScalingReport(
                k=float(k),
                degree=degree,
                degree_requested=requested_degree(k, measure),
                eval_indices=np.flatnonzero(eval_mask),
                ratios=ratios,
                max_abs_dev_from_1=float(devs.max()) if devs.size else math.nan,
                mean_abs_dev=float(devs.mean()) if devs.size else math.nan,
                n_skipped=n_skipped,
            )
        )
    return reports
