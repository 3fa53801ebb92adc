"""The check limits and the values they judge, for the battery and the
scenario runner alike.

Each check's values have one definition here, which both runners call:
structural_values, comparison_deficit and homotopy_values.  They take what
the runners already hold (a space, comparison reports, a homotopy path with
its spaces), never a span and a measure to build from.

LIMITS is the one table of pass/fail limits.  Each row names a metric, its
tolerance constant, and whether the limit bounds the metric from above or
below.  A row's form says how the constant reaches the metric:

  absolute  the metric is compared with the constant itself;
  excess    the constant is an allowance on a margin, relative to 1 + |rhs|,
            and the metric is how far the worst margin falls short of it,
            so its limit is 0;
  ratio     the metric is a mismatch divided by its allowance, relative
            to 1 + |reference|, so its limit is 1.

The strict margin is the threshold of the comparison verdict itself
(``comparison.strictness_check``); it is listed so that reports carry it.
The quotient-bound envelope and the sandwich slack are fixed claims judged
inside their layer functions, and the TCZ monotone slack and the battery's
order window are fixed too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .comparison import COMPARISON_TOL, STRICT_MARGIN
from .homotopy import (
    BOUND_STEPS,
    BOUND_T,
    ENDPOINT_TOL,
    FD_MATCH_TOL,
    SIGN_SPLIT_FLOOR,
    STEP_TOL,
    THREE_FORM_RTOL,
    difference_quotient_bound_check,
    l2_difference_bound_check,
)
from .kernels import (
    REPRODUCING_TOL,
    TRACE_TOL,
    bergman_density_from_space,
    reproducing_residual,
)
from .quantization import TCZ_FINAL_DEV_LIMIT

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
    Limit("trace", "trace_error", "trace", "trace identity", TRACE_TOL),
    Limit("reproducing", "reproducing_residual", "reproducing",
          "reproducing residual", REPRODUCING_TOL),
    Limit("comparison", "comparison_deficit", "comparison", "comparison deficit",
          COMPARISON_TOL, form=EXCESS),
    Limit("three_form", "three_form_dev", "three-form", "three-form deviation",
          THREE_FORM_RTOL),
    Limit("sign_split_floor", "sign_split", "sign-split", "sign-split floor",
          SIGN_SPLIT_FLOOR, upper=False),
    Limit("fd_match", "fd_match_ratio", "fd-match", "fd match ratio",
          FD_MATCH_TOL, form=RATIO),
    Limit("monotonicity_step", "monotonicity_drop", "monotonicity",
          "monotonicity drop", STEP_TOL),
    Limit("endpoint", "endpoint_dev", "endpoint", "endpoint deviation", ENDPOINT_TOL),
    Limit("strict_margin", "margin", "strict", "strict margin", STRICT_MARGIN,
          upper=False),
    Limit("tcz_final_dev", "final_max_abs_dev", "tcz", "tcz final deviation",
          TCZ_FINAL_DEV_LIMIT),
)
LIMIT_BY_METRIC = {limit.metric: limit for limit in LIMITS}


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
        elif not LIMIT_BY_METRIC[name].holds(value):
            failed.append(LIMIT_BY_METRIC[name].label)
    return failed


def comparison_deficit(reports) -> float:
    """How far the worst comparison margin falls below its allowance; 0 if none."""
    limit = LIMIT_BY_METRIC["comparison_deficit"]
    return max([0.0, *(-(r.margin + limit.bound(r.rhs)) for r in reports)])


def three_form_dev(der) -> float:
    """Largest pairwise gap of the three G' forms, relative to their size."""
    scale = 1.0 + max(
        abs(der.direct_form), abs(der.symmetric_form), abs(der.sign_split_form)
    )
    return der.max_pairwise_dev / scale


def fd_match_ratio(der) -> float:
    """|fd - sign-split| over its allowance FD_MATCH_TOL (1 + |sign-split|)."""
    limit = LIMIT_BY_METRIC["fd_match_ratio"]
    return abs(der.fd_estimate - der.sign_split_form) / limit.bound(der.sign_split_form)


def structural_values(space) -> dict:
    """The trace error |integral of B - rank| / max(1, rank) and the residual."""
    integral = float(np.dot(space.measure.masses, bergman_density_from_space(space)))
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
