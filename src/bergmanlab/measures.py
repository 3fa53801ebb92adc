"""Finite positive measures on planar node sets.

Every space in this package is built over a measure with finitely many nodes
z_j and strictly positive masses w_j, so that integrals are plain weighted
sums:

    integral f dmu  =  sum_j w_j f(z_j).

Two constructions are provided: an explicit discrete measure (nodes and
masses given directly) and a product quadrature rule for area measure on a
centered disk, Gauss-Legendre in r^2 crossed with uniform angles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import InvalidMeasureError

KIND_DISCRETE = "discrete"
KIND_DISK = "disk-product"
# leggauss(n) takes the radial nodes as the eigenvalues of an n x n
# companion matrix: 8 n^2 bytes and O(n^3) work, 32 MiB and under a second
# at the cap, where n = 10^6 would ask for 7.3 TiB.
MAX_RADIAL_NODES = 2048
# The rule's arrays take 24 bytes a node and a span on it 16 bytes a node
# per basis function: 2^20 nodes is 25 times the 160 x 256 rule the gates
# use.
MAX_DISK_NODES = 2**20


@dataclass(frozen=True, eq=False)
class QuadratureMeasure:
    """Nodes, masses, and bookkeeping for a finite positive measure.

    Attributes
    ----------
    points : complex ndarray, shape (m,)
        Node locations z_j.
    masses : float ndarray, shape (m,)
        Strictly positive masses w_j.
    kind : str
        "discrete" or "disk-product".
    exactness_degree : int or None
        For the disk rule, the largest total degree a+b for which the rule
        integrates z^a conj(z)^b exactly; None for ad-hoc discrete measures.
    radius : float or None
        Disk radius for the disk rule; None otherwise.
    n_angular : int or None
        For the disk rule, the number of equispaced angles per ring: node
        i * n_angular + j is r_i e^{2 pi i j / n_angular}.  None otherwise.
    """

    points: np.ndarray
    masses: np.ndarray
    kind: str
    exactness_degree: int | None = None
    radius: float | None = None
    n_angular: int | None = None

    @property
    def n(self) -> int:
        return self.points.size


def build_discrete_measure(points, masses) -> QuadratureMeasure:
    """Assemble an explicit discrete measure on the complex nodes `points`.

    Duplicate nodes are allowed; masses must all be strictly positive and
    finite.
    """
    pts = np.asarray(points, dtype=complex).reshape(-1)
    w = np.asarray(masses, dtype=float).reshape(-1)
    if pts.size == 0:
        raise InvalidMeasureError("a measure needs at least one node")
    if w.shape != pts.shape:
        raise InvalidMeasureError(
            f"got {pts.size} nodes but {w.size} masses"
        )
    validate_nodes(pts, w)
    return QuadratureMeasure(points=pts, masses=w, kind=KIND_DISCRETE)


def validate_nodes(points: np.ndarray, masses: np.ndarray) -> None:
    """Raise unless the nodes are finite and the masses finite and strictly
    positive; the last axis runs over the nodes of one measure, so a stack
    of measures is checked at once."""
    if not np.isfinite(masses).all() or not np.isfinite(points).all():
        raise InvalidMeasureError("nodes and masses must be finite")
    bad = masses <= 0.0
    if bad.any():
        at = np.unravel_index(np.argmax(bad), bad.shape)
        raise InvalidMeasureError(
            f"masses must be strictly positive; mass[{at[-1]}] = {masses[at]}"
        )


def build_disk_measure(radius: float, n_radial: int, n_angular: int) -> QuadratureMeasure:
    """Product rule for area measure dA on the disk |z| <= radius.

    Radially the rule is Gauss-Legendre in s = r^2 on [0, radius^2] (so dA =
    (1/2) ds dtheta is handled exactly for polynomial integrands in s), and
    angularly it uses n_angular equispaced points.  Monomial moments satisfy

        integral z^a conj(z)^b dA  =  pi * delta_ab * radius^(2a+2) / (a+1)

    exactly (to relative 1e-12) whenever a + b <= exactness_degree with

        exactness_degree = min(2*n_radial - 1, n_angular - 1).
    """
    if not (radius > 0.0 and math.isfinite(radius * radius)):
        raise InvalidMeasureError(
            f"radius must be positive with a finite square, got {radius}"
        )
    if n_radial < 1 or n_angular < 1:
        raise InvalidMeasureError("n_radial and n_angular must be >= 1")
    if n_radial > MAX_RADIAL_NODES or n_radial * n_angular > MAX_DISK_NODES:
        raise InvalidMeasureError(
            f"the rule must have n_radial <= {MAX_RADIAL_NODES} and at most "
            f"{MAX_DISK_NODES} nodes, got {n_radial} x {n_angular}"
        )
    x, gl_w = leggauss(n_radial)
    # Map [-1, 1] -> s in [0, R^2]; the area element contributes ds/2.
    s = 0.5 * (x + 1.0) * radius**2
    s_weights = 0.5 * gl_w * radius**2
    r = np.sqrt(s)
    theta = 2.0 * np.pi * np.arange(n_angular) / n_angular
    z = (r[:, None] * np.exp(1j * theta)[None, :]).reshape(-1)
    masses = np.broadcast_to(
        (s_weights * np.pi / n_angular)[:, None], (n_radial, n_angular)
    ).reshape(-1)
    exactness = min(2 * n_radial - 1, n_angular - 1)
    return QuadratureMeasure(
        points=z,
        masses=np.ascontiguousarray(masses),
        kind=KIND_DISK,
        exactness_degree=exactness,
        radius=float(radius),
        n_angular=int(n_angular),
    )
