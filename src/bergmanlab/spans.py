"""Finite spans of functions on a node set.

A span has d basis functions on m nodes; its node values form a complex
(m, d) matrix whose column n holds basis function n.  A monomial span holds
its nodes and degree, tabulates that matrix only when it is first read, and
can be re-evaluated at arbitrary points.  A tabulated span holds the matrix
and exists only on its nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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
    kind: str
    points: np.ndarray | None = None  # (m,) complex nodes of a monomial span
    degree: int | None = None  # top power of a monomial span
    values: np.ndarray | None = None  # (m, d) complex values of a tabulated span

    @cached_property
    def basis_values(self) -> np.ndarray:
        """The (m, d) node values; a monomial span tabulates them once, here."""
        if self.kind == KIND_MONOMIALS:
            return evaluate_basis(self, self.points)
        return self.values

    @property
    def n_nodes(self) -> int:
        return len(self.points if self.kind == KIND_MONOMIALS else self.values)

    @property
    def dim(self) -> int:
        return self.degree + 1 if self.kind == KIND_MONOMIALS else self.values.shape[1]


def monomial_span(measure: QuadratureMeasure, degree: int) -> FunctionSpan:
    """Span of 1, z, ..., z^degree on the measure's nodes.

    The Gram pairs z^a with z^b, so a rule with an exactness degree must
    integrate total degree 2*degree exactly.  On a measure without one the
    span may have at most as many basis functions as there are nodes.
    """
    if degree < 0:
        raise InvalidMeasureError(f"degree must be >= 0, got {degree}")
    if measure.exactness_degree is not None and 2 * degree > measure.exactness_degree:
        raise InvalidConfigurationError(
            f"degree {degree} needs exactness {2 * degree}, measure provides "
            f"{measure.exactness_degree}"
        )
    if measure.exactness_degree is None and degree + 1 > measure.n:
        raise InvalidConfigurationError(
            f"degree {degree} gives {degree + 1} basis functions on "
            f"{measure.n} nodes"
        )
    return FunctionSpan(kind=KIND_MONOMIALS, points=measure.points, degree=int(degree))


def tabulated_span(values) -> FunctionSpan:
    """Span given by explicit node values, one column per basis function."""
    vals = np.asarray(values, dtype=complex)
    if vals.ndim != 2 or vals.shape[1] < 1:
        raise InvalidMeasureError(
            f"span values must be a (nodes, dim) matrix, got shape {vals.shape}"
        )
    return FunctionSpan(kind=KIND_TABULATED, values=vals)


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
    return vandermonde(pts, span.degree + 1)


def vandermonde(points, d: int) -> np.ndarray:
    """np.vander(x, d, increasing=True) for each row x along the last axis of
    points, bit for bit: the same running product of the nodes."""
    v = np.empty((*points.shape, d), dtype=complex)
    v[..., 0] = 1
    v[..., 1:] = points[..., None]
    np.multiply.accumulate(v[..., 1:], axis=-1, out=v[..., 1:])
    return v
