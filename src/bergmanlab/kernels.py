"""Reproducing kernels of weighted spaces over finite measures.

Given a span V (node values of d basis functions), a measure with masses w,
and a weight phi, the space carries the inner product

    <f, g> = sum_j f(z_j) conj(g(z_j)) w_j e^{-phi(z_j)}.

The Gram matrix of the span is orthonormalized through a Hermitian
eigendecomposition with relative rank truncation; the reproducing kernel on
node pairs is K = (V C)(V C)* where C maps the span basis to an orthonormal
one.  The density of states B(z) = K(z, z) e^{-phi(z)} integrates to the
rank of the space, and P_jj = w_j B(z_j), the diagonal of the projector
onto the space, is the Bergman measure of node j.  The Gram assembly and
the orthonormalization (orthonormal_bases) run on stacks, of which a lone
space's one Gram is the case of one, so many small spaces of one shape
take their densities from one stacked pass (bergman_densities) with the
same arithmetic as one build.  Relative eigenvalues at or below RANK_TOL
count as null, read at each call.
Every space is made in a Spaces context of one span and one measure, which
builds each distinct weight's space once; build_space is a context of its
own.  A check names every weight it will read in one call (Spaces.many),
and the context builds the missing spaces as one stack: Gram products of a
few weights each over the span's node values and one orthonormal_bases
call, each space bit-identical to its lone build.

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

Each space forms its kernel diagonal at the nodes once, on the first read
of WeightedSpace.diagonal, and from it the density B (WeightedSpace.density)
and the Bergman measure P = w B (WeightedSpace.projector_diagonal), each on
its first read: the scaling ladder, the trace error, the comparison
integrals and the homotopy checks read those arrays.  Its one reader,
_node_row_norms, takes the Gram's path under the same rule (_ring_path):
with M = C C*,
K(r_i e^{i theta_j}) = N ifft(A_i)[j], where A_i[k] = sum_s r_i^s Q[s, k]
and Q[s, k mod N] sums M[n, m] over n + m = s and n - m = k, in
O(d^2 rank + rings d^2 + rings N log N) work instead of O(m d rank).  Q is
one scatter of M's entries into their cells, one bincount per part; under
monomial_span's exactness rule 2 degree <= N - 1 no two entries share a
cell, and where they would the cell sums them, so the fold is exact.  The
folded sum's error scales with the ring's mean of K, not with K at the
node, so where a ring's smallest value lies far below its mean (a strongly
non-radial weight), or where r^(2d-2) overflows, it reads the blocks below.

The reproducing residual takes the ring Gram under the same rule, so there
it checks C against the Gram the space factored; the trace identity, read
from the ring fold of the diagonal, still checks the Gram's assembly.

Every read of the orthonormal node values E = V C goes through
orthonormal_node_values, which yields them BLOCK_ROWS rows at a time: the
diagonal and the reproducing residual off the ring path, densities and
kernel values at chosen points, and the homotopy checks.  Their memory
does not grow with the node count, and above BLOCK_ROWS rows a monomial span is
evaluated block by block and never tabulated.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BergmanlabError, InvalidConfigurationError, InvalidMeasureError
from .measures import QuadratureMeasure
from .spans import KIND_MONOMIALS, FunctionSpan, evaluate_basis
from .weights import WeightFunction, eval_weight

# Relative eigenvalue cutoff below which a Gram direction counts as null.
RANK_TOL = 1e-12
# A Gram may dip this far (relative to its largest eigenvalue) below zero
# before it stops being PSD-up-to-roundoff.
PSD_TOL = 1e-13
# Work m * d^2 of the dense Gram product from which a monomial span on the
# disk rule is assembled ring by ring instead.  Below it the dense product
# takes about a millisecond or less, so the ring path would gain nothing;
# and the Grams of small disk scenarios stay bit-identical to the dense
# product, which matters because the homotopy check's finite-difference
# ratio (a step-1e-3 difference divided by 1e-6) turns an ulp change in a
# Gram into a relative change of about 1e-3.
RING_GRAM_MIN_WORK = 2**20
# Rows of orthonormal node values formed at a time: 4 MiB of complex values
# at degree 127.  Up to this many rows come in one block, read from the
# span's node values as a whole.
BLOCK_ROWS = 2048
# Bytes of weighted span values that a Spaces build forms at a time for its
# stacked Gram products: the size of one block of BLOCK_ROWS rows.
STACK_BYTES = 2**22


@dataclass(frozen=True, eq=False)
class WeightedSpace:
    """A span, a measure, and a weight, with the orthonormalization baked in.

    ortho_coeffs is the (d, rank) matrix C with C* G C = I on the retained
    spectrum; the functions e_l = sum_n C[n, l] basis_n form an orthonormal
    basis of the non-degenerate part of the span.  spread is the retained
    equilibrated spread: the largest eigenvalue of the unit-diagonal Gram
    over the smallest one kept (1.0 at rank 0), the conditioning that the
    orthonormalization faced; identity residuals scale with roundoff times it.
    """

    span: FunctionSpan
    measure: QuadratureMeasure
    weight: WeightFunction
    ortho_coeffs: np.ndarray
    spread: float

    @property
    def rank(self) -> int:
        """The number of retained directions, the columns of ortho_coeffs."""
        return self.ortho_coeffs.shape[1]

    @cached_property
    def measure_factor(self) -> np.ndarray:
        """w_j e^{-phi_j}, the discrete measure against which functions pair,
        formed on the first read; read-only."""
        return _read_only(measure_factors(self.measure.masses, self.weight.values))

    @cached_property
    def diagonal(self) -> np.ndarray:
        """K(z_j, z_j) at the nodes, formed on the first read; read-only."""
        return _read_only(_node_row_norms(self))

    @cached_property
    def density(self) -> np.ndarray:
        """B_j = K(z_j, z_j) e^{-phi_j}, formed on the first read; read-only."""
        return _read_only(self.diagonal * np.exp(-self.weight.values))

    @cached_property
    def projector_diagonal(self) -> np.ndarray:
        """P_jj = w_j B_j, the Bergman measure of each node, formed on the
        first read; read-only.  It sums to the rank."""
        return _read_only(self.measure.masses * self.density)


def measure_factors(masses: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """w e^{-phi} of masses w and weight values phi, over any leading stack
    axes; an overflow leaves a non-finite factor, for the caller to reject."""
    with np.errstate(over="ignore", invalid="ignore"):
        return masses * np.exp(-weights)


def _read_only(values: np.ndarray) -> np.ndarray:
    values.flags.writeable = False
    return values


def assemble_gram(
    span: FunctionSpan, measure: QuadratureMeasure, weight: WeightFunction
) -> np.ndarray:
    """Gram matrix G[m, n] = <basis_n, basis_m>, Hermitian-symmetrized."""
    return _stacked_grams(span, measure, [eval_weight(weight, measure)])[0]


def _stacked_grams(
    span: FunctionSpan, measure: QuadratureMeasure, weights: list
) -> np.ndarray:
    """The Grams (n, d, d) of one span and measure under tabulated weights.

    On the ring path each comes from its own FFTs, or from the dense product
    where those overflow.  Otherwise each dense product takes as many
    weights as keep its weighted copy of the span values within STACK_BYTES,
    and gives each Gram bit for bit as a product of one.
    """
    if span.n_nodes != measure.n:
        raise InvalidMeasureError(
            f"span has {span.n_nodes} nodes, measure has {measure.n}"
        )
    factors = measure_factors(measure.masses, np.stack([w.values for w in weights]))
    # An overflow leaves a non-finite Gram, which orthonormal_bases rejects.
    with np.errstate(over="ignore", invalid="ignore"):
        if _ring_path(span, measure):
            grams = [_ring_gram(measure, f, span.dim) for f in factors]
            return np.stack(
                [
                    _dense_gram(span.basis_values, f) if g is None else g
                    for g, f in zip(grams, factors)
                ]
            )
        values = span.basis_values
        per = max(1, STACK_BYTES // values.nbytes)
        return np.concatenate(
            [_dense_gram(values, factors[s : s + per]) for s in range(0, len(weights), per)]
        )


def _dense_gram(values: np.ndarray, factor: np.ndarray) -> np.ndarray:
    """V* diag(factor) V, Hermitian-symmetrized, over any leading stack axes."""
    g = values.conj().swapaxes(-1, -2) @ (factor[..., None] * values)
    return 0.5 * (g + g.conj().swapaxes(-1, -2))


def _ring_path(span: FunctionSpan, measure: QuadratureMeasure) -> bool:
    """Whether the span's Gram and kernel diagonals come ring by ring.

    They do for the measure's own monomial span on a disk rule, recognised
    by its points, once the dense work m * d^2 reaches RING_GRAM_MIN_WORK.
    A discrete measure is turned away by one attribute read, since the
    battery asks this of thousands of small spaces a pass (3 795 spaces at
    seed 0, each reading its diagonal).  monomial_span keeps the measure's
    own array of points, so identity settles that span before the
    element-wise comparison, which takes about 0.15 ms on the 40 960-node
    rule.
    """
    return (
        measure.n_angular is not None
        and span.n_nodes * span.dim**2 >= RING_GRAM_MIN_WORK
        and span.kind == KIND_MONOMIALS
        and (
            span.points is measure.points
            or np.array_equal(span.points, measure.points)
        )
    )


def _ring_gram(measure: QuadratureMeasure, factor: np.ndarray, dim: int):
    """Gram of 1, z, ..., z^(dim-1) on the disk rule from one FFT per ring.

    The nodes are r_i e^{2 pi i j / N}, so with F_i = N ifft(factor on ring i)
    the Gram is G[m, n] = sum_i r_i^(m+n) F_i[(n - m) mod N]: one small
    product of the radial powers with the needed angular frequencies.
    Returns None when an entry is not finite: r^(m+n) overflows on a wide
    disk where z^m and factor z^n need not.
    """
    n_ang = measure.n_angular
    # Node 0 of each ring lies on the positive axis, so it is r_i exactly.
    r = measure.points[::n_ang].real
    with np.errstate(over="ignore", invalid="ignore"):
        f = n_ang * np.fft.ifft(factor.reshape(-1, n_ang), axis=1)
        powers = r[:, None] ** np.arange(2 * dim - 1)
        moments = powers.T @ f[:, np.arange(1 - dim, dim) % n_ang]
        m = np.arange(dim)
        g = moments[m[:, None] + m, m - m[:, None] + dim - 1]
        g = 0.5 * (g + g.conj().T)
    return g if np.isfinite(g).all() else None


def _ring_row_norms(measure: QuadratureMeasure, x: np.ndarray):
    """sum_l |sum_n z^n x[n, l]|^2 at the nodes, in node order, ring by ring.

    On ring i, whose nodes are r_i e^{i theta_j} with theta_j = 2 pi j / N,
    the sum is sum_{n,m} r_i^(n+m) M[n, m] e^{i (n-m) theta_j} with M = x x*,
    that is N ifft(A_i)[j] with A_i[k] = sum_s r_i^s Q[s, k].  Q[s, k mod N]
    sums M[n, m] over n + m = s and n - m = k mod N: aliased frequencies
    coincide at the nodes, so the folded sum is exact.

    Its terms cancel, so its absolute error grows with the ring's mean
    rather than with the value at the node: up to 3.7 eps d times the mean
    in float64 on harmonic and Gaussian weights with d <= 128.  Returns None
    when a value is not finite, as when r^(2d-2) overflows on a wide disk,
    or when 4 eps d times some ring's mean exceeds 1e-12 times that ring's
    smallest value.
    """
    n_ang = measure.n_angular
    n = np.arange(x.shape[0])
    q = np.empty((2 * n.size - 1, n_ang), dtype=complex)
    cells = ((n[:, None] + n) * n_ang + (n[:, None] - n) % n_ang).reshape(-1)
    r = measure.points[::n_ang].real
    with np.errstate(over="ignore", invalid="ignore"):
        # One scatter of M's entries into their cells, one bincount per
        # part.  Each cell sums from +0.0 in entry order, so a -0.0 entry
        # leaves +0.0, which a plain assignment would not.
        m = (x @ x.conj().T).reshape(-1)
        q.real = np.bincount(cells, m.real, q.size).reshape(q.shape)
        q.imag = np.bincount(cells, m.imag, q.size).reshape(q.shape)
        a = (r[:, None] ** np.arange(2 * n.size - 1)) @ q
        # A float copy, so that a kept result does not hold the transform.
        norms = (n_ang * np.fft.ifft(a, axis=1)).real.copy()
    if not np.isfinite(norms).all():
        return None
    error = 4 * np.finfo(float).eps * n.size * norms.mean(axis=1)
    if not (error <= 1e-12 * norms.min(axis=1)).all():
        return None
    return norms.reshape(-1)


def equilibration_scales(gram: np.ndarray) -> np.ndarray:
    """Per-direction scales 1/sqrt(G_ii), with null directions left alone.

    Rescaling the basis by these factors gives the Gram a unit diagonal.
    The rescaling does not change the span, so the kernel is unaffected;
    what changes is that the eigenvalue spread then reflects genuine
    angular degeneracy instead of disparate basis normalizations (monomial
    norms under a scaled weight vary over many decades, yet their Gram is
    perfectly behaved once equilibrated).  A stack of Grams (..., d, d)
    gives one row of scales per Gram.
    """
    diag = np.real(np.diagonal(gram, axis1=-2, axis2=-1))
    positive = diag > 0.0
    return np.where(positive, 1.0 / np.sqrt(np.where(positive, diag, 1.0)), 1.0)


def _equilibrated(gram: np.ndarray):
    """The scales and the unit-diagonal rescaling of a Gram, which must be finite.

    It is not when w e^{-phi} or the span values overflow, or when a
    diagonal entry lies so far below the smallest normal float that its
    scale squared overflows; the eigensolver cannot take either.  A stack
    of Grams is rescaled Gram by Gram, and must be finite throughout.
    """
    scale = equilibration_scales(gram)
    with np.errstate(over="ignore", invalid="ignore"):
        rescaled = gram * (scale[..., :, None] * scale[..., None, :])
    if not np.isfinite(rescaled).all():
        raise InvalidConfigurationError(
            "gram is not finite after equilibration: w e^{-phi} or the span "
            "values overflow, or a diagonal entry underflows"
        )
    return scale, rescaled


def orthonormal_bases(grams: np.ndarray) -> list:
    """Orthonormalize a stack of Grams (n, d, d) by Hermitian eigendecomposition.

    Each Gram is equilibrated to unit diagonal first; eigenvalues of the
    rescaled matrix at or below RANK_TOL times its largest are truncated,
    and C = S U Lambda^(-1/2) on the kept ones satisfies C* G C = I on the
    retained spectrum.  A Gram with no positive spectrum has rank 0 (not
    an error); a non-finite Gram, or one that dips below zero by more than
    PSD_TOL of its largest eigenvalue, raises for the whole stack.

    Returns one triple (items, C, spreads) per rank r that occurs, in
    increasing rank: items indexes the Grams of rank r, C has shape
    (len(items), d, r) and spreads holds their retained spreads, the largest
    eigenvalue over the smallest one kept (1.0 at rank 0).
    The stack is grouped by rank rather than padded with zero columns, so
    each C holds exactly the columns that a stack of one keeps, and every
    product with it sums in the same order.
    """
    scale, rescaled = _equilibrated(grams)
    lam, u = np.linalg.eigh(rescaled)
    n, d = lam.shape
    top = lam[:, -1]
    # A Gram dips when its least eigenvalue lies below -PSD_TOL times a
    # positive largest one.  The test without the sign of top comes first:
    # it passes a PSD stack with one array operation fewer.
    if (lam[:, 0] < -PSD_TOL * top).any():
        dips = np.flatnonzero((top > 0.0) & (lam[:, 0] < -PSD_TOL * top))
        if dips.size:
            i = dips[0]
            raise InvalidConfigurationError(
                f"gram is not PSD up to tolerance: min eigenvalue {lam[i, 0]:.3e} "
                f"against max {top[i]:.3e} after equilibration"
            )
    # The eigenvalues ascend, so the kept ones, above RANK_TOL * top, are
    # the last; a Gram with no positive eigenvalue keeps none, since all of
    # its eigenvalues lie at or below top <= RANK_TOL * top.
    ranks = (lam > RANK_TOL * top[:, None]).sum(axis=1)
    occurring = sorted(set(ranks.tolist()))
    bases = []
    for rank in occurring:
        # A stack of one rank, as every lone build makes, is sliced
        # rather than copied by an index array.
        if len(occurring) == 1:
            items, sel = np.arange(n), slice(None)
        else:
            items = sel = np.flatnonzero(ranks == rank)
        kept = slice(d - rank, d)
        c = scale[sel, :, None] * (u[sel, :, kept] / np.sqrt(lam[sel, None, kept]))
        spreads = top[sel] / lam[sel, d - rank] if rank else np.ones(len(items))
        bases.append((items, c, spreads))
    return bases


def build_space(
    span: FunctionSpan, measure: QuadratureMeasure, weight: WeightFunction
) -> WeightedSpace:
    """The space of one weight, built in a context of its own; immutable."""
    return Spaces(span, measure)(weight)


class Spaces:
    """The spaces of one span and one measure, each built once: every space
    of the package is made here.

    spaces(weight) tabulates the weight on the measure and returns its
    space, built on the first request for those weight values and the same
    object after that.  The build is deterministic, so reuse changes no
    number.  A closed-form weight and its tabulation share one space, whose
    weight is the one first requested.

    spaces.many(weights) builds the missing spaces of weights as one stack,
    in request order, each bit-identical to its lone build: a check names
    the weights it will read up front, then reads them one at a time as
    before.  A stack that a lone build would reject (a weight of the wrong
    length, a Gram that is not finite or not PSD) is dropped whole, so each
    of its weights is built alone when first requested, and raises there as
    without the stack.

    Either way a build is one stack (_build): _stacked_grams, then one
    orthonormal_bases call, a lone build being a stack of one.  stacks
    counts them.
    """

    def __init__(self, span: FunctionSpan, measure: QuadratureMeasure):
        self.span = span
        self.measure = measure
        self.stacks = 0
        self._built = {}

    def __call__(self, weight: WeightFunction) -> WeightedSpace:
        weight = eval_weight(weight, self.measure)
        key = weight.values.tobytes()
        if key not in self._built:
            self._build({key: weight})
        return self._built[key]

    def many(self, weights) -> None:
        """Build the missing spaces of weights as one stack; see the class."""
        try:
            missing = {}
            for weight in weights:
                weight = eval_weight(weight, self.measure)
                key = weight.values.tobytes()
                if key not in self._built:
                    missing.setdefault(key, weight)
            if missing:
                self._build(missing)
        except BergmanlabError:
            pass

    def _build(self, missing: dict) -> None:
        """Build the spaces of tabulated weights, keyed by their values, as
        one stack; a rejected stack stores none of them."""
        weights = list(missing.values())
        grams = _stacked_grams(self.span, self.measure, weights)
        spaces = [None] * len(weights)
        for items, c, spreads in orthonormal_bases(grams):
            for i, coeffs, spread in zip(items, c, spreads):
                spaces[i] = WeightedSpace(
                    span=self.span,
                    measure=self.measure,
                    weight=weights[i],
                    ortho_coeffs=coeffs,
                    spread=float(spread),
                )
        self._built.update(zip(missing, spaces))
        self.stacks += 1

    def counts(self) -> dict:
        """The spaces built, the stacks they came in, and the largest
        retained spread among them (None before the first build)."""
        spreads = [space.spread for space in self._built.values()]
        return {
            "built": len(spreads),
            "stacks": self.stacks,
            "max_spread": max(spreads, default=None),
        }


def kernel_eval_at(space: WeightedSpace, z, w) -> np.ndarray:
    """Kernel K(z_i, w_j) at arbitrary point arrays (monomial spans only)."""
    ez, ew = (
        np.concatenate([e for _, e in orthonormal_node_values(space, np.ravel(p))])
        for p in (z, w)
    )
    return ez @ ew.conj().T


def orthonormal_node_values(space: WeightedSpace, points=None):
    """Blocks (rows, E[rows]) of the orthonormal values at the nodes or at points.

    Up to BLOCK_ROWS rows come as one block; at the nodes it is read from the
    span's node values as a whole.  More rows come BLOCK_ROWS at a time: a
    tabulated span is sliced, and a monomial span is evaluated at each
    block's points, so it is never tabulated.
    """
    span, c = space.span, space.ortho_coeffs
    at_nodes = points is None
    n = span.n_nodes if at_nodes else len(points)
    if n <= BLOCK_ROWS:
        v = span.basis_values if at_nodes else evaluate_basis(span, points)
        return ((slice(None), v @ c),)
    blocks = (slice(s, s + BLOCK_ROWS) for s in range(0, n, BLOCK_ROWS))
    if at_nodes and span.kind != KIND_MONOMIALS:
        return ((rows, span.values[rows] @ c) for rows in blocks)
    pts = span.points if at_nodes else points
    return ((rows, evaluate_basis(span, pts[rows]) @ c) for rows in blocks)


def _node_row_norms(space: WeightedSpace) -> np.ndarray:
    """Squared row norms of E at the nodes: on the ring path from V C where
    that keeps its digits, else from E's blocks."""
    if _ring_path(space.span, space.measure):
        norms = _ring_row_norms(space.measure, space.ortho_coeffs)
        if norms is not None:
            return norms
    blocks = orthonormal_node_values(space)
    return np.concatenate([_row_norms(e) for _, e in blocks])


def _row_norms(e: np.ndarray) -> np.ndarray:
    """Squared row norms of node values (..., m, r), over any leading axes."""
    return np.einsum("...ij,...ij->...i", e, e.conj()).real


def bergman_densities(
    values: np.ndarray, masses: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """Densities at the nodes of a stack of n spaces with one shape (m, d).

    values (n, m, d) holds the spans' node values and masses (n, m) the
    measures' masses.  weights (..., n, m) holds tabulated weight values,
    one or more weights for each span and measure, and the densities come
    in its shape: weights (2, n, m) judge phi and psi from one copy of the
    spans.  The stack takes one Gram product, one orthonormal_bases call
    and one product and row-norm pass per rank, instead of one build per
    space.  Each row is bit-identical to build_space(...).density on a
    dense Gram in one block of rows, as on a discrete measure with at most
    BLOCK_ROWS nodes: the arithmetic is the same, item by item.
    """
    n, m, d = values.shape
    with np.errstate(over="ignore", invalid="ignore"):
        grams = _dense_gram(values, measure_factors(masses, weights)).reshape(-1, d, d)
        factors = np.exp(-weights).reshape(-1, m)
    densities = np.empty(factors.shape)
    for items, c, _ in orthonormal_bases(grams):
        densities[items] = _row_norms(values[items % n] @ c) * factors[items]
    return densities.reshape(weights.shape)


def bergman_density_at(space: WeightedSpace, z) -> np.ndarray:
    """Density of states at arbitrary points (monomial span, closed-form weight)."""
    pts = np.asarray(z, dtype=complex).reshape(-1)
    blocks = orthonormal_node_values(space, pts)
    diag = np.concatenate([_row_norms(e) for _, e in blocks])
    return diag * np.exp(-space.weight.evaluate_at(pts))


def reproducing_residual(space: WeightedSpace) -> float:
    """||A||_2, the largest singular value of A = E* D E - I, D = diag(w e^{-phi}).

    E holds the orthonormal node values, so K D K - K = E A E*, and entry
    (i, j) is at most ||E_i|| ||A||_2 ||E_j||: max |K D K - K| is at most
    ||A||_2 max_j K_jj.  ||A||_2 is zero in exact arithmetic and carries no
    units: scaling the masses or shifting the weight by a constant rescales
    C and leaves A alone.  E* D E = C* (V* D V) C, so on the ring path A is
    C* G C - I with G the ring Gram, at O(rings N log N + rings d^2 + d^3)
    cost and no span evaluated; elsewhere, and where G is not finite, it is
    summed over the row blocks of E in one pass, at O(m d r) cost.  Either
    way it is computed at every node count.
    """
    d, c = space.measure_factor, space.ortho_coeffs
    ring = _ring_path(space.span, space.measure)
    gram = _ring_gram(space.measure, d, space.span.dim) if ring else None
    if gram is not None:
        e_de = c.conj().T @ gram @ c
    else:
        blocks = orthonormal_node_values(space)
        e_de = sum(e.conj().T @ (d[rows, None] * e) for rows, e in blocks)
    return float(np.linalg.norm(e_de - np.eye(space.rank), 2))
