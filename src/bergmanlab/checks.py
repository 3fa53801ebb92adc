"""The check limits and the values they judge, for the battery and the
scenario runner alike.

Each check's values have one definition here, which the runners call:
structural_values, comparison_deficit, homotopy_values and tcz_values.
They take what the runners already hold (a space, comparison reports, a
homotopy path with its spaces, a ladder's reports), never a span and a
measure to build from.

LIMITS is the one table of pass/fail limits and the one place each judged
tolerance is written: every lookup (limit, failures, the battery's rows,
the reports' tolerances) reads it when called.  Each row names a metric,
its tolerance, and whether the limit bounds the metric from above or below.
Two rows take the constant their layer applies: the sandwich slack and the
strict margin, the threshold of ComparisonReport.verdict.  A row's form
says how the constant reaches the metric:

  absolute  the metric is compared with the constant itself;
  excess    the constant is an allowance on a margin, relative to 1 + |rhs|,
            and the metric is how far the worst margin falls short of it,
            so its limit is 0;
  ratio     the metric is a mismatch divided by its allowance, relative
            to 1 + |reference|, so its limit is 1.

Tolerances applied only inside a layer function stay in its module
(BOUND_FLOOR, DENSITY_POINT_TOL, RANK_TOL, PSD_TOL), and the battery's order
window stays in battery.  tcz_values applies the TCZ monotone slack and
floor, which quantization defines beside the ladder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .comparison import COMPARISON_TOL, STRICT_MARGIN
from .homotopy import (
    BOUND_STEPS,
    BOUND_T,
    difference_quotient_bound_check,
    l2_difference_bound_check,
)
from .kernels import reproducing_residual
from .quantization import TCZ_DEV_FLOOR, TCZ_MONOTONE_SLACK

ABSOLUTE = "absolute"
EXCESS = "excess"
RATIO = "ratio"


@dataclass(frozen=True)
class Limit:
    """One row of the check table.

    key names the constant in a report's tolerances block, label names a
    failure in the battery, and title heads the battery summary line.
    """

    key: str
    metric: str
    label: str
    title: str
    constant: float
    upper: bool = True
    form: str = ABSOLUTE

    def bound(self, reference: float) -> float:
        """The allowance relative to a reference: the constant times 1 + |reference|."""
        return self.constant * (1.0 + abs(reference))

    def limit(self) -> float:
        """The value the metric is compared with."""
        if self.form == EXCESS:
            return 0.0
        if self.form == RATIO:
            return 1.0
        return self.constant

    def holds(self, value: float) -> bool:
        limit = self.limit()
        return value <= limit if self.upper else value >= limit


LIMITS = (
    # key, metric, battery failure label, battery summary title, constant
    Limit("trace", "trace_error", "trace", "trace identity", 1e-9),
    # ||E* D E - I||_2: relative, unchanged by mass scaling and weight shifts.
    Limit("reproducing", "reproducing_residual", "reproducing",
          "reproducing residual", 1e-9),
    Limit("comparison", "comparison_deficit", "comparison", "comparison deficit",
          COMPARISON_TOL, form=EXCESS),
    Limit("three_form", "three_form_dev", "three-form", "three-form deviation",
          1e-10),
    Limit("sign_split_floor", "sign_split", "sign-split", "sign-split floor",
          -1e-12, upper=False),
    Limit("fd_match", "fd_match_ratio", "fd-match", "fd match ratio", 1e-6,
          form=RATIO),
    Limit("monotonicity_step", "monotonicity_drop", "monotonicity",
          "monotonicity drop", 1e-12),
    Limit("endpoint", "endpoint_dev", "endpoint", "endpoint deviation", 1e-12),
    Limit("strict_margin", "margin", "strict", "strict margin", STRICT_MARGIN,
          upper=False),
    Limit("tcz_final_dev", "final_max_abs_dev", "tcz", "tcz final deviation",
          0.05),
)


def limit(metric: str) -> Limit:
    """The row of LIMITS that judges metric."""
    return next(lim for lim in LIMITS if lim.metric == metric)


def failures(values: dict) -> list:
    """Labels of the checks that values break, in the order of values.

    A real value is a metric judged by its row of LIMITS; a bool is a
    verdict with no tolerance, which fails when false.
    """
    failed = []
    for name, value in values.items():
        if isinstance(value, bool):
            if not value:
                failed.append(name)
        elif not limit(name).holds(value):
            failed.append(limit(name).label)
    return failed


def comparison_deficit(reports) -> float:
    """How far the worst comparison margin falls below its allowance; 0 if none."""
    row = limit("comparison_deficit")
    return max([0.0, *(-(r.margin + row.bound(r.rhs)) for r in reports)])


def three_form_dev(der) -> float:
    """Largest pairwise gap of the three G' forms, relative to their size."""
    scale = 1.0 + max(
        abs(der.direct_form), abs(der.symmetric_form), abs(der.sign_split_form)
    )
    return der.max_pairwise_dev / scale


def fd_match_ratio(der) -> float:
    """|fd - sign-split| over its allowance relative to 1 + |sign-split|."""
    row = limit("fd_match_ratio")
    return abs(der.fd_estimate - der.sign_split_form) / row.bound(der.sign_split_form)


def structural_values(space) -> dict:
    """The trace error |integral of B - rank| / max(1, rank) and the residual.
    The integral is masses . B: the sum of P = w B rounds differently."""
    integral = float(np.dot(space.measure.masses, space.density))
    return {
        "trace_error": abs(integral - space.rank) / max(1, space.rank),
        "reproducing_residual": reproducing_residual(space),
    }


def homotopy_values(path, ders, g_values, endpoints) -> dict:
    """The homotopy metrics and the quotient-bound verdict.

    ders are the derivative reports to judge, and g_values is G on a grid
    from 0 to 1, whose ends must meet endpoints, the comparison report at
    c = 0.  The bound verdict holds both kernel quotient bounds at BOUND_T,
    for every step in BOUND_STEPS, on the spaces of the path.
    """
    return {
        "three_form_dev": max([0.0, *map(three_form_dev, ders)]),
        "sign_split": min([math.inf, *(der.sign_split_form for der in ders)]),
        "fd_match_ratio": max([0.0, *map(fd_match_ratio, ders)]),
        "monotonicity_drop": max(
            (a - b for a, b in zip(g_values, g_values[1:])), default=0.0
        ),
        "endpoint_dev": max(
            abs(g_values[0] - endpoints.lhs), abs(g_values[-1] - endpoints.rhs)
        ),
        "bound": all(
            difference_quotient_bound_check(path, BOUND_T, tau)
            and l2_difference_bound_check(path, BOUND_T, tau)
            for tau in BOUND_STEPS
        ),
    }


def tcz_values(reports) -> dict:
    """The deviation at the ladder's largest k, and whether each rung's stays
    within TCZ_MONOTONE_SLACK times the one before plus TCZ_DEV_FLOOR, in
    increasing k whatever the listed order.  The parser guarantees a
    nonempty ladder that reads a node, so every deviation is a number."""
    devs = [rep.max_abs_dev_from_1 for rep in sorted(reports, key=lambda r: r.k)]
    return {
        "final_max_abs_dev": devs[-1],
        "deviations_monotone": all(
            b <= TCZ_MONOTONE_SLACK * a + TCZ_DEV_FLOOR for a, b in zip(devs, devs[1:])
        ),
    }
