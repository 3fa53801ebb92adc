"""Reproducing kernels of weighted spaces over finite measures.

Given a span V (node values of d basis functions), a measure with masses w,
and a weight phi, the space carries the inner product

    <f, g> = sum_j f(z_j) conj(g(z_j)) w_j e^{-phi(z_j)}.

The Gram matrix of the span is orthonormalized through a Hermitian
eigendecomposition with relative rank truncation; the reproducing kernel on
node pairs is K = (V C)(V C)* where C maps the span basis to an orthonormal
one.  The density of states B(z) = K(z, z) e^{-phi(z)} integrates to the
rank of the space.

A large monomial Gram on the disk rule (nodes r_i e^{2 pi i j / N}) is
assembled from one FFT per ring, G[m, n] = sum_i r_i^(m+n) F_i[(n - m) mod N]
with F_i = N ifft(w e^{-phi} on ring i), for any weight.  The ring path
takes a monomial span whose points equal the measure's nodes, so it never
tabulates the span.  Below the work floor RING_GRAM_MIN_WORK, for every
other span and measure, and where r^(m+n) overflows, the Gram is the dense
product V* diag(w e^{-phi}) V.  The floor keeps small disk Grams
bit-identical to that product.  Densities at chosen points
(bergman_density_at) cost only as many basis evaluations as there are
points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigurationError, InvalidMeasureError
from .measures import QuadratureMeasure
from .spans import KIND_MONOMIALS, FunctionSpan, evaluate_basis
from .weights import WeightFunction, eval_weight

# Relative eigenvalue cutoff below which a Gram direction counts as null.
RANK_TOL = 1e-12
# A Gram may dip this far (relative to its largest eigenvalue) below zero
# before it stops being PSD-up-to-roundoff.
PSD_TOL = 1e-13
# Residual allowances for the identities the engine guarantees.
TRACE_TOL = 1e-9
REPRODUCING_TOL = 1e-9
MONOTONICITY_TOL = 1e-12
# Work m * d^2 of the dense Gram product from which a monomial span on the
# disk rule is assembled ring by ring instead.  Below it the dense product
# takes about a millisecond or less, so the ring path would gain nothing;
# and the Grams of small disk scenarios stay bit-identical to the dense
# product, which matters because the homotopy check's finite-difference
# ratio (a step-1e-3 difference divided by 1e-6) turns an ulp change in a
# Gram into a relative change of about 1e-3.
RING_GRAM_MIN_WORK = 2**20


@dataclass(frozen=True, eq=False)
class WeightedSpace:
    """A span, a measure, and a weight, with the orthonormalization baked in.

    ortho_coeffs is the (d, rank) matrix C with C* G C = I on the retained
    spectrum; the functions e_l = sum_n C[n, l] basis_n form an orthonormal
    basis of the non-degenerate part of the span.
    """

    span: FunctionSpan
    measure: QuadratureMeasure
    weight: WeightFunction
    ortho_coeffs: np.ndarray
    rank: int

    @property
    def measure_factor(self) -> np.ndarray:
        """w_j e^{-phi_j}, the discrete measure against which functions pair."""
        return self.measure.masses * np.exp(-self.weight.values)


def assemble_gram(
    span: FunctionSpan, measure: QuadratureMeasure, weight: WeightFunction
) -> np.ndarray:
    """Gram matrix G[m, n] = <basis_n, basis_m>, Hermitian-symmetrized."""
    if span.n_nodes != measure.n:
        raise InvalidMeasureError(
            f"span has {span.n_nodes} nodes, measure has {measure.n}"
        )
    weight = eval_weight(weight, measure)
    # An overflow leaves a non-finite Gram, which orthonormal_basis rejects.
    with np.errstate(over="ignore", invalid="ignore"):
        d = measure.masses * np.exp(-weight.values)
        if (
            measure.n_angular is not None
            and span.n_nodes * span.dim**2 >= RING_GRAM_MIN_WORK
            and span.kind == KIND_MONOMIALS
            and np.array_equal(span.points, measure.points)
        ):
            g = _ring_gram(measure, d, span.dim)
            # r^(m+n) overflows on a wide disk where z^m and d z^n need not.
            if np.isfinite(g).all():
                return g
        v = span.basis_values
        g = v.conj().T @ (d[:, None] * v)
        return 0.5 * (g + g.conj().T)


def _ring_gram(measure: QuadratureMeasure, factor: np.ndarray, dim: int) -> np.ndarray:
    """Gram of 1, z, ..., z^(dim-1) on the disk rule from one FFT per ring.

    The nodes are r_i e^{2 pi i j / N}, so with F_i = N ifft(factor on ring i)
    the Gram is G[m, n] = sum_i r_i^(m+n) F_i[(n - m) mod N]: one small
    product of the radial powers with the needed angular frequencies.
    """
    n_ang = measure.n_angular
    f = n_ang * np.fft.ifft(factor.reshape(-1, n_ang), axis=1)
    # Node 0 of each ring lies on the positive axis, so it is r_i exactly.
    r = measure.points[::n_ang].real
    powers = r[:, None] ** np.arange(2 * dim - 1)
    moments = powers.T @ f[:, np.arange(1 - dim, dim) % n_ang]
    m = np.arange(dim)
    g = moments[m[:, None] + m, m - m[:, None] + dim - 1]
    return 0.5 * (g + g.conj().T)


def equilibration_scales(gram: np.ndarray) -> np.ndarray:
    """Per-direction scales 1/sqrt(G_ii), with null directions left alone.

    Rescaling the basis by these factors gives the Gram a unit diagonal.
    The rescaling does not change the span, so the kernel is unaffected;
    what changes is that the eigenvalue spread then reflects genuine
    angular degeneracy instead of disparate basis normalizations (monomial
    norms under a scaled weight vary over many decades, yet their Gram is
    perfectly behaved once equilibrated).
    """
    diag = np.real(np.diag(gram))
    positive = diag > 0.0
    return np.where(positive, 1.0 / np.sqrt(np.where(positive, diag, 1.0)), 1.0)


def _equilibrated(gram: np.ndarray):
    """The scales and the unit-diagonal rescaling of a Gram, which must be finite.

    It is not when w e^{-phi} or the span values overflow, or when a
    diagonal entry lies so far below the smallest normal float that its
    scale squared overflows; the eigensolver cannot take either.
    """
    scale = equilibration_scales(gram)
    with np.errstate(over="ignore", invalid="ignore"):
        rescaled = gram * np.outer(scale, scale)
    if not np.isfinite(rescaled).all():
        raise InvalidConfigurationError(
            "gram is not finite after equilibration: w e^{-phi} or the span "
            "values overflow, or a diagonal entry underflows"
        )
    return scale, rescaled


def equilibrated_spectrum(gram: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the unit-diagonal rescaling of a Gram."""
    return np.linalg.eigvalsh(_equilibrated(gram)[1])


def retained_spread(gram: np.ndarray) -> float:
    """Spread (max/min) of the retained equilibrated Gram spectrum.

    This is the conditioning the orthonormalization actually faces after
    rank truncation; identity residuals scale with roundoff times this
    number.
    """
    lam = equilibrated_spectrum(gram)
    top = lam[-1] if lam.size else 0.0
    if top <= 0.0:
        return 1.0
    kept = lam[lam > RANK_TOL * top]
    return float(top / kept[0])


def orthonormal_basis(gram: np.ndarray, rank_tol: float = RANK_TOL):
    """Orthonormalize a Gram matrix by Hermitian eigendecomposition.

    Returns (C, rank) with C of shape (d, rank) and C* G C = I on the
    retained spectrum.  The Gram is equilibrated to unit diagonal first;
    eigenvalues of the rescaled matrix at or below rank_tol times its
    largest are truncated.  A Gram with no positive spectrum yields rank 0
    (not an error).
    """
    scale, rescaled = _equilibrated(gram)
    lam, u = np.linalg.eigh(rescaled)
    lam_max = lam[-1] if lam.size else 0.0
    if lam_max <= 0.0:
        return np.zeros((gram.shape[0], 0), dtype=complex), 0
    if lam[0] < -PSD_TOL * lam_max:
        raise InvalidConfigurationError(
            f"gram is not PSD up to tolerance: min eigenvalue {lam[0]:.3e} "
            f"against max {lam_max:.3e} after equilibration"
        )
    keep = lam > rank_tol * lam_max
    c = scale[:, None] * (u[:, keep] / np.sqrt(lam[keep]))
    return c, int(np.count_nonzero(keep))


def build_space(
    span: FunctionSpan,
    measure: QuadratureMeasure,
    weight: WeightFunction,
    rank_tol: float = RANK_TOL,
) -> WeightedSpace:
    """Assemble the Gram and orthonormalize; the returned space is immutable."""
    weight = eval_weight(weight, measure)
    gram = assemble_gram(span, measure, weight)
    coeffs, rank = orthonormal_basis(gram, rank_tol)
    return WeightedSpace(
        span=span,
        measure=measure,
        weight=weight,
        ortho_coeffs=coeffs,
        rank=rank,
    )


def orthonormal_node_values(space: WeightedSpace) -> np.ndarray:
    """Values of the orthonormal basis at the nodes, shape (m, rank)."""
    return space.span.basis_values @ space.ortho_coeffs


def kernel_matrix(space: WeightedSpace) -> np.ndarray:
    """Dense Hermitian kernel on node pairs.  Rank 0 gives the zero kernel."""
    e = orthonormal_node_values(space)
    k = e @ e.conj().T
    return 0.5 * (k + k.conj().T)


def kernel_eval_at(space: WeightedSpace, z, w=None) -> np.ndarray:
    """Kernel K(z_i, w_j) at arbitrary point arrays (monomial spans only).

    With w omitted the second argument equals the first, so the result's
    diagonal holds K(z_i, z_i).
    """
    ez = evaluate_basis(space.span, z) @ space.ortho_coeffs
    if w is None:
        ew = ez
    else:
        ew = evaluate_basis(space.span, w) @ space.ortho_coeffs
    return ez @ ew.conj().T


def bergman_density_from_space(space: WeightedSpace) -> np.ndarray:
    """Density of states at the nodes, without forming the node-pair kernel.

    Row norms of the orthonormal basis give the kernel diagonal directly;
    this is the path to use when the node count is large.
    """
    e = orthonormal_node_values(space)
    diag = np.einsum("ij,ij->i", e, e.conj()).real
    return diag * np.exp(-space.weight.values)


def bergman_density_at(space: WeightedSpace, z) -> np.ndarray:
    """Density of states at arbitrary points (monomial span, closed-form weight)."""
    pts = np.asarray(z, dtype=complex).reshape(-1)
    e = evaluate_basis(space.span, pts) @ space.ortho_coeffs
    diag = np.einsum("ij,ij->i", e, e.conj()).real
    phi = space.weight.evaluate_at(pts)
    return diag * np.exp(-phi)


def reproducing_residual(space: WeightedSpace) -> float:
    """Upper bound on the largest entry of |K D K - K|, D = diag(w e^{-phi}).

    With E the orthonormal node values and A = E* D E - I, K D K - K = E A E*,
    so entry (i, j) is at most ||(E A)_i|| ||E_j||.  The bound, max_i of the
    first factor times max_j of the second, is zero in exact arithmetic and
    costs O(m r^2), so it is computed at every node count.
    """
    if space.rank == 0:
        return 0.0
    e = orthonormal_node_values(space)
    a = e.conj().T @ (space.measure_factor[:, None] * e) - np.eye(space.rank)
    rows = np.linalg.norm(e @ a, axis=1)
    return float(np.max(rows) * np.max(np.linalg.norm(e, axis=1)))


def kernel_monotonicity_check(space_lo: WeightedSpace, space_hi: WeightedSpace) -> bool:
    """Check K_lo(z, z) <= K_hi(z, z) at every node when phi_lo <= phi_hi.

    Raising the weight shrinks every norm, which can only raise the diagonal
    of the kernel.  The precondition phi_lo <= phi_hi is enforced; a failing
    node is reported in the error.
    """
    lo, hi = space_lo.weight.values, space_hi.weight.values
    bad = lo > hi
    if np.any(bad):
        j = int(np.argmax(bad))
        raise InvalidConfigurationError(
            f"weights are not ordered at node {j}: {lo[j]} > {hi[j]}"
        )
    e_lo = orthonormal_node_values(space_lo)
    e_hi = orthonormal_node_values(space_hi)
    k_lo = np.einsum("ij,ij->i", e_lo, e_lo.conj()).real
    k_hi = np.einsum("ij,ij->i", e_hi, e_hi.conj()).real
    return bool(np.all(k_lo <= k_hi + MONOTONICITY_TOL * (1.0 + k_hi)))
