"""Finite spans of functions tabulated on a node set.

A span is a complex (m, d) matrix: column n holds the values of the n-th
basis function at the m nodes.  Monomial spans remember their degree and can
be re-evaluated at arbitrary points; tabulated spans exist only on their
nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidConfigurationError,
    InvalidMeasureError,
    UnsupportedWeightError,
)
from .measures import QuadratureMeasure

KIND_MONOMIALS = "monomials"
KIND_TABULATED = "tabulated"


@dataclass(frozen=True, eq=False)
class FunctionSpan:
    basis_values: np.ndarray  # (m, d) complex
    kind: str
    degree: int | None = None

    @property
    def n_nodes(self) -> int:
        return self.basis_values.shape[0]

    @property
    def dim(self) -> int:
        return self.basis_values.shape[1]


def monomial_span(measure: QuadratureMeasure, degree: int) -> FunctionSpan:
    """Span of 1, z, ..., z^degree tabulated at the measure's nodes.

    The Gram pairs z^a with z^b, so a rule with an exactness degree must
    integrate total degree 2*degree exactly.
    """
    if degree < 0:
        raise InvalidMeasureError(f"degree must be >= 0, got {degree}")
    if measure.exactness_degree is not None and 2 * degree > measure.exactness_degree:
        raise InvalidConfigurationError(
            f"degree {degree} needs exactness {2 * degree}, measure provides "
            f"{measure.exactness_degree}"
        )
    vals = np.vander(measure.points, N=degree + 1, increasing=True)
    return FunctionSpan(basis_values=vals, kind=KIND_MONOMIALS, degree=int(degree))


def tabulated_span(values) -> FunctionSpan:
    """Span given by explicit node values, one column per basis function."""
    vals = np.asarray(values, dtype=complex)
    if vals.ndim != 2 or vals.shape[1] < 1:
        raise InvalidMeasureError(
            f"span values must be a (nodes, dim) matrix, got shape {vals.shape}"
        )
    return FunctionSpan(basis_values=vals, kind=KIND_TABULATED)


def evaluate_basis(span: FunctionSpan, z) -> np.ndarray:
    """Evaluate the span's basis functions at arbitrary points.

    Only monomial spans carry enough structure for this; tabulated spans
    raise.
    """
    if span.kind != KIND_MONOMIALS:
        raise UnsupportedWeightError(
            "off-node evaluation is only available for monomial spans"
        )
    pts = np.asarray(z, dtype=complex).reshape(-1)
    return np.vander(pts, N=span.degree + 1, increasing=True)
