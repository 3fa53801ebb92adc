"""Kernel engine: Gram assembly, orthonormalization, densities, identities."""

import bisect
import dataclasses
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergmanlab import (
    InvalidConfigurationError,
    InvalidMeasureError,
    assemble_gram,
    bergman_density_at,
    build_discrete_measure,
    build_disk_measure,
    build_space,
    check_instance,
    constant_weight,
    equilibration_scales,
    eval_weight,
    gauss_weight,
    generate_instance,
    harmonic_weight,
    kernel_eval_at,
    load_scenario_file,
    monomial_span,
    orthonormal_node_values,
    reproducing_residual,
    scaled_weight,
    tabulated_span,
    tabulated_weight,
)
from bergmanlab import checks, kernels
from bergmanlab.spans import evaluate_basis
from oracles import (
    brute_force_kernel,
    disk_moment_exact,
    extremal_diagonal,
    node_pair_residual,
    ring_fold_by_scatter,
    ring_fold_cells,
    ring_row_norms_by_scatter,
)

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")


def node_values(space):
    """The orthonormal node values E as one matrix, from their blocks."""
    return np.concatenate([e for _, e in orthonormal_node_values(space)])


def node_kernel(space):
    """The kernel on node pairs, K = E E* from the orthonormal node values E."""
    e = node_values(space)
    return e @ e.conj().T


def random_instance(seed, m=12, d=4, monomial=False):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.6, 1.4, m) * np.exp(2j * np.pi * rng.uniform(size=m))
    measure = build_discrete_measure(pts, np.exp(rng.uniform(-1.0, 1.0, m)))
    if monomial:
        span = monomial_span(measure, d - 1)
    else:
        vals = rng.standard_normal((m, d)) + 1j * rng.standard_normal((m, d))
        span = tabulated_span(vals)
    phi = eval_weight(tabulated_weight(rng.uniform(-2.0, 2.0, m)), measure)
    return measure, span, phi


def test_gram_matches_direct_sum():
    measure, span, phi = random_instance(0)
    g = assemble_gram(span, measure, phi)
    v = span.basis_values
    d = measure.masses * np.exp(-phi.values)
    direct = np.einsum("jm,j,jn->mn", v.conj(), d, v)
    assert np.allclose(g, direct, rtol=1e-14, atol=1e-14)
    assert np.allclose(g, g.conj().T)


def test_gram_node_count_mismatch():
    measure, span, phi = random_instance(1)
    other = build_discrete_measure([1.0, 2.0], [1.0, 1.0])
    with pytest.raises(InvalidMeasureError):
        assemble_gram(span, other, eval_weight(constant_weight(0.0), other))


def one_basis(gram):
    """(C, rank, spread) of one Gram, from orthonormal_bases on a stack of one."""
    ((_, c, spreads),) = kernels.orthonormal_bases(gram[None])
    return c[0], c.shape[-1], float(spreads[0])


def test_orthonormal_basis_whitens_gram():
    measure, span, phi = random_instance(2)
    g = assemble_gram(span, measure, phi)
    c, rank, _ = one_basis(g)
    assert rank == span.dim
    identity = c.conj().T @ g @ c
    assert np.allclose(identity, np.eye(rank), atol=1e-10)


def test_orthonormal_basis_detects_degenerate_span():
    """A repeated basis column must drop the rank by one."""
    measure, span, phi = random_instance(3, d=3)
    vals = span.basis_values.copy()
    vals[:, 2] = vals[:, 0]
    g = assemble_gram(tabulated_span(vals), measure, phi)
    _, rank, _ = one_basis(g)
    assert rank == 2


def test_orthonormal_basis_zero_gram():
    c, rank, _ = one_basis(np.zeros((3, 3)))
    assert rank == 0
    assert c.shape == (3, 0)


def test_orthonormal_basis_rejects_indefinite():
    g = np.diag([1.0, -0.5])
    with pytest.raises(InvalidConfigurationError):
        one_basis(g)


def test_orthonormal_bases_groups_a_stack_by_rank():
    """Full rank, a repeated column (rank < d) and a zero span in one stack.

    Each item's C, spread and density equal the one-space path bit for bit,
    and a non-PSD item raises the error a stack of one raises.
    """
    measure, span, phi = random_instance(3, d=3)
    full = span.basis_values
    repeated = full.copy()
    repeated[:, 2] = repeated[:, 0]
    spans = [tabulated_span(v) for v in (full, repeated, np.zeros_like(full))]
    grams = np.stack([assemble_gram(s, measure, phi) for s in spans])
    ranks = {}
    for items, c, spreads in kernels.orthonormal_bases(grams):
        for item, coeffs, spread in zip(items, c, spreads):
            ranks[int(item)] = coeffs.shape[1]
            assert np.array_equal(coeffs, one_basis(grams[item])[0])
            assert spread == build_space(spans[item], measure, phi).spread
    assert ranks == {0: 3, 1: 2, 2: 0}

    densities = kernels.bergman_densities(
        np.stack([s.basis_values for s in spans]),
        np.stack([measure.masses] * 3),
        np.stack([phi.values] * 3),
    )
    for s, row in zip(spans, densities):
        space = build_space(s, measure, phi)
        assert np.array_equal(row, space.density)
    assert not densities[2].any()

    indefinite = np.array([[1, 2, 0], [2, 1, 0], [0, 0, 1]], dtype=complex)
    with pytest.raises(InvalidConfigurationError) as alone:
        one_basis(indefinite)
    with pytest.raises(InvalidConfigurationError) as stacked:
        kernels.orthonormal_bases(np.stack([grams[0], indefinite, grams[2]]))
    assert str(stacked.value) == str(alone.value)
    assert "min eigenvalue -1.000e+00 against max 3.000e+00" in str(alone.value)


def _ranks_and_spreads_gram_by_gram(grams, rank_tol=kernels.RANK_TOL):
    """Each Gram's rank and retained spread from its own eigenvalues, one
    Gram at a time: the kept eigenvalues are those above rank_tol times the
    largest, found by bisection in the ascending list."""
    scale = kernels.equilibration_scales(grams)
    lam = np.linalg.eigh(grams * (scale[:, :, None] * scale[:, None, :]))[0]
    ranks, spreads = [], []
    for row in lam.tolist():
        top = row[-1]
        rank = len(row) - bisect.bisect_right(row, rank_tol * top) if top > 0 else 0
        ranks.append(rank)
        spreads.append(top / row[len(row) - rank] if rank else 1.0)
    return ranks, spreads


def test_orthonormal_bases_ranks_and_spreads_equal_a_gram_by_gram_walk():
    """The stack's ranks and spreads, found with array operations, equal
    those of a walk over its Grams, bit for bit, on stacks of every rank
    from 0 to d, near-repeated columns included."""
    rng = np.random.default_rng(11)
    for d in range(1, 6):
        v = rng.standard_normal((40, 9, d)) + 1j * rng.standard_normal((40, 9, d))
        for i in range(40):
            rank = i % (d + 1)
            v[i, :, rank:] = v[i, :, :1] * (1 + 1e-15 * i) if rank else 0.0
        grams = np.einsum("nmi,nmj->nij", v.conj(), v)
        ranks, spreads = _ranks_and_spreads_gram_by_gram(grams)
        seen = np.zeros(len(grams), dtype=bool)
        for items, c, stacked in kernels.orthonormal_bases(grams):
            assert not seen[items].any()
            seen[items] = True
            assert [ranks[i] for i in items] == [c.shape[2]] * len(items)
            assert stacked.tolist() == [spreads[i] for i in items]
        assert seen.all()
        assert set(ranks) == set(range(d + 1))


@pytest.mark.parametrize("rank_tol, rank", [(kernels.RANK_TOL, 2), (1e-6, 1)])
def test_the_rank_cutoff_is_read_at_call_time(rank_tol, rank, monkeypatch):
    """Two columns 1e-4 apart leave an equilibrated eigenvalue near 1e-9 of
    the largest: kept at the shipped cutoff, dropped at 1e-6, by a lone
    build, a Spaces context and the stacked densities alike."""
    rng = np.random.default_rng(3)
    v = rng.standard_normal(6)
    values = np.stack([v, v + 1e-4 * rng.standard_normal(6)], axis=1)
    measure = build_discrete_measure(np.arange(6.0), np.ones(6))
    zero = eval_weight(constant_weight(0.0), measure)
    monkeypatch.setattr(kernels, "RANK_TOL", rank_tol)
    span = tabulated_span(values)
    assert build_space(span, measure, zero).rank == rank
    assert kernels.Spaces(span, measure)(zero).rank == rank
    density = kernels.bergman_densities(
        values[None].astype(complex), measure.masses[None], zero.values[None]
    )
    assert np.sum(measure.masses * density) == pytest.approx(rank)


def test_equilibration_scales_unit_diagonal():
    measure, span, phi = random_instance(4)
    g = assemble_gram(span, measure, phi)
    s = equilibration_scales(g)
    rescaled = g * np.outer(s, s)
    assert np.allclose(np.real(np.diag(rescaled)), 1.0, atol=1e-14)


def test_equilibration_handles_null_directions():
    g = np.diag([2.0, 0.0, 8.0])
    s = equilibration_scales(g)
    assert s[1] == 1.0
    lam = np.linalg.eigvalsh(g * np.outer(s, s))
    assert lam[-1] == pytest.approx(1.0)


def test_space_spread_ignores_scale():
    """A diagonal Gram spanning many decades equilibrates to spread one."""
    scales = 10.0 ** np.arange(-15.0, 5.0, 2.5)
    measure = build_discrete_measure(np.arange(1.0, 9.0), np.ones(8))
    zero = eval_weight(constant_weight(0.0), measure)
    space = build_space(tabulated_span(np.diag(scales)), measure, zero)
    assert np.array_equal(
        assemble_gram(space.span, measure, zero), np.diag(scales**2)
    )
    assert space.spread == pytest.approx(1.0)
    zero_span = tabulated_span(np.zeros((8, 2)))
    assert build_space(zero_span, measure, zero).spread == 1.0


def test_space_spread_matches_eigvalsh_on_battery_spaces():
    """The spread from the factorization's eigenvalues against eigvalsh.

    The oracle takes the equilibrated Gram's spectrum with a second
    eigensolver and keeps what the rank cutoff keeps.
    """
    rng = np.random.default_rng(0)
    for i in range(50):
        inst = generate_instance(rng, i)
        check_instance(inst)
        for space in inst.spaces._built.values():
            gram = assemble_gram(space.span, space.measure, space.weight)
            s = equilibration_scales(gram)
            lam = np.linalg.eigvalsh(gram * np.outer(s, s))
            kept = lam[lam > kernels.RANK_TOL * lam[-1]]
            expected = lam[-1] / kept[0] if lam[-1] > 0.0 else 1.0
            assert space.spread == pytest.approx(expected, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("monomial", [False, True])
@pytest.mark.parametrize("seed", [10, 11, 12])
def test_kernel_matches_brute_force(seed, monomial):
    measure, span, phi = random_instance(seed, monomial=monomial)
    space = build_space(span, measure, phi)
    k = node_kernel(space)
    ref = brute_force_kernel(span.basis_values, measure.masses, phi.values)
    assert np.max(np.abs(k - ref)) <= 1e-9 * (1.0 + np.max(np.abs(ref)))


@pytest.mark.parametrize("seed", [20, 21])
def test_kernel_diagonal_is_extremal_value(seed):
    """K(z, z) equals the maximal |h(z)|^2 over unit-norm h in the span."""
    measure, span, phi = random_instance(seed)
    space = build_space(span, measure, phi)
    diag = np.real(np.diag(node_kernel(space)))
    ref = extremal_diagonal(span.basis_values, measure.masses, phi.values)
    assert np.allclose(diag, ref, rtol=1e-9, atol=1e-12)


def test_kernel_psd_and_hermitian():
    measure, span, phi = random_instance(30)
    k = node_kernel(build_space(span, measure, phi))
    assert np.allclose(k, k.conj().T)
    eigs = np.linalg.eigvalsh(k)
    assert eigs[0] >= -1e-10 * max(eigs[-1], 1.0)


def test_trace_identity_and_reproducing():
    measure, span, phi = random_instance(31)
    space = build_space(span, measure, phi)
    density = space.density
    assert abs(measure.masses @ density - space.rank) <= 1e-9 * space.rank
    assert reproducing_residual(space) <= 1e-9


def assert_residual_bounds_node_pairs(space):
    """The bound ||A||_2 max K_jj against the two node-pair forms it bounds.

    Every entry of E A E* (A = E* D E - I) is at most the bound, up to the
    rounding of the bound itself.  The oracle's |K D K - K| is the same
    matrix formed another way, so it may exceed the bound by its own
    rounding, at most eps * m * max(1, max K_ii)^2.
    """
    kern = node_kernel(space)
    kmax = np.real(np.diag(kern)).max()
    bound = reproducing_residual(space) * kmax
    e = node_values(space)
    a = e.conj().T @ (space.measure_factor[:, None] * e) - np.eye(space.rank)
    direct = float(np.max(np.abs(e @ a @ e.conj().T))) if space.rank else 0.0
    assert direct <= bound * (1.0 + 1e-12)
    oracle = node_pair_residual(kern, space.measure.masses, space.weight.values)
    slack = np.finfo(float).eps * space.measure.n * max(1.0, kmax) ** 2
    assert oracle <= bound + slack


def test_reproducing_bound_covers_node_pairs_on_battery_spaces():
    rng = np.random.default_rng(0)
    for i in range(200):
        inst = generate_instance(rng, i)
        assert_residual_bounds_node_pairs(
            build_space(inst.span, inst.measure, inst.phi)
        )


def test_reproducing_bound_covers_node_pairs_on_disk_strict_pair():
    config = load_scenario_file(os.path.join(SCENARIO_DIR, "disk-strict-pair.json"))
    for weight in (config.phi, config.psi):
        space = build_space(config.span, config.measure, weight)
        assert space.rank == 9
        assert_residual_bounds_node_pairs(space)


def discrete_copies():
    """The spaces of phi and psi of three shipped scenarios, labelled, on a
    discrete measure with the scenario's nodes and a tabulated span, under
    each scale of the masses and each constant shift of both weights."""
    for name in ("two-node-reference", "maxprinciple-example", "disk-strict-pair"):
        config = load_scenario_file(os.path.join(SCENARIO_DIR, f"{name}.json"))
        span = tabulated_span(config.span.basis_values)
        for scale, shift in ((1e-12, 0.0), (1e12, 0.0), (1.0, -300.0),
                             (1.0, 300.0), (1.0, 700.0)):
            measure = build_discrete_measure(
                config.measure.points, config.measure.masses * scale
            )
            for weight in (config.phi, config.psi):
                values = eval_weight(weight, config.measure).values + shift
                space = build_space(span, measure, tabulated_weight(values))
                yield f"{name} x{scale:g} {shift:+g}", space


def assert_coefficients_off_by_1e_8_fail(space, label=None):
    """C (1 + 1e-8) makes A = ((1 + 1e-8)^2 - 1) I, so ||A||_2 reads 2e-8."""
    off = dataclasses.replace(space, ortho_coeffs=space.ortho_coeffs * (1 + 1e-8))
    assert reproducing_residual(off) == pytest.approx(2e-8, rel=1e-6), label
    assert "reproducing" in checks.failures(checks.structural_values(off)), label


def test_the_reproducing_verdict_is_the_same_at_every_scale():
    """||A||_2 carries no units: under mass scales of 1e-12 and 1e12 and
    weight shifts of -300, +300 and +700, every valid space is green with
    a residual at roundoff, and coefficients off by 1e-8 read 2e-8 and fail."""
    for label, space in discrete_copies():
        values = checks.structural_values(space)
        assert checks.failures(values) == [], label
        assert values["reproducing_residual"] <= 1e-13, label
        assert_coefficients_off_by_1e_8_fail(space, label)


def test_the_ring_residual_fails_coefficients_off_by_1e_8():
    """On the ring path the residual reads C against the ring Gram, and it
    rejects disk-fock-scaling's phi coefficients off by 1e-8 as the blocks do."""
    config = load_scenario_file(os.path.join(SCENARIO_DIR, "disk-fock-scaling.json"))
    space = build_space(config.span, config.measure, config.phi)
    assert kernels._ring_path(space.span, space.measure)
    assert reproducing_residual(space) <= 1e-13
    assert_coefficients_off_by_1e_8_fail(space)


def test_density_from_space_matches_kernel_diagonal():
    measure, span, phi = random_instance(32)
    space = build_space(span, measure, phi)
    via_kernel = np.real(np.diag(node_kernel(space))) * np.exp(-phi.values)
    assert np.allclose(space.density, via_kernel)


def test_density_invariant_under_constant_shift():
    measure, span, phi = random_instance(33)
    b0 = build_space(span, measure, phi).density
    shifted = eval_weight(tabulated_weight(phi.values + 1.7), measure)
    b1 = build_space(span, measure, shifted).density
    assert np.allclose(b0, b1, rtol=1e-12, atol=1e-15)


def test_kernel_diagonal_monotone_in_weight():
    """Raising the weight shrinks every norm, which can only raise K(z, z)."""
    measure, span, phi = random_instance(34)
    hi = eval_weight(tabulated_weight(phi.values + np.abs(phi.values) + 0.3), measure)
    assert np.all(phi.values <= hi.values)
    k_lo = build_space(span, measure, phi).diagonal
    k_hi = build_space(span, measure, hi).diagonal
    assert np.all(k_lo <= k_hi + 1e-12 * (1.0 + k_hi))


@pytest.mark.parametrize("c", [-710.0, 740.0])
def test_build_space_rejects_a_gram_out_of_range(c, recwarn):
    """e^{-c} overflows at c = -710; at c = 740 the Gram diagonal is subnormal,
    so its equilibration scales overflow.  Either way the error is the only
    report: numpy warns of nothing."""
    measure = build_disk_measure(1.0, 6, 12)
    span = monomial_span(measure, 2)
    with pytest.raises(InvalidConfigurationError, match="not finite"):
        build_space(span, measure, constant_weight(c))
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_rank_zero_space():
    measure = build_discrete_measure([1.0, 2.0, 3.0], [1.0, 1.0, 1.0])
    span = tabulated_span(np.zeros((3, 2), dtype=complex))
    phi = eval_weight(constant_weight(0.0), measure)
    space = build_space(span, measure, phi)
    assert space.rank == 0
    assert np.all(node_kernel(space) == 0.0)
    density = space.density
    assert np.all(density == 0.0)
    assert measure.masses @ density == 0.0
    assert reproducing_residual(space) == 0.0


def test_rank_zero_space_on_the_ring_path():
    """e^{-800} is 0 in double, so the ring-path Gram vanishes."""
    measure = build_disk_measure(2.0, 160, 256)
    space = build_space(monomial_span(measure, 7), measure, constant_weight(800.0))
    assert kernels._ring_path(space.span, measure)
    assert space.rank == 0
    assert reproducing_residual(space) == 0.0
    assert np.all(space.diagonal == 0.0)


def test_disk_gram_diagonal_matches_moments():
    """Unweighted monomials on the disk have the closed-form diagonal Gram."""
    measure = build_disk_measure(1.3, 16, 32)
    span = monomial_span(measure, 6)
    g = assemble_gram(span, measure, eval_weight(constant_weight(0.0), measure))
    for a in range(7):
        exact = disk_moment_exact(a, a, 1.3)
        assert abs(g[a, a] - exact) <= 1e-12 * abs(exact)
    off = g - np.diag(np.diag(g))
    assert np.max(np.abs(off)) <= 1e-12 * abs(g[0, 0])


def _dense_gram(span, measure, phi):
    v = span.basis_values
    g = v.conj().T @ ((measure.masses * np.exp(-phi.values))[:, None] * v)
    return 0.5 * (g + g.conj().T)


def _equilibrate(g):
    s = equilibration_scales(g)
    return g * np.outer(s, s)


@pytest.mark.parametrize(
    "radius, n_radial, n_angular, degree, weight",
    [
        (1.0, 64, 128, 30, harmonic_weight(1.0)),
        (2.0, 160, 256, 127, scaled_weight(gauss_weight(1.0), 40.0)),
        (1.0, 64, 128, 40, "random"),
    ],
    ids=["harmonic", "gauss-k40", "random-tabulated"],
)
def test_ring_gram_matches_dense_product(radius, n_radial, n_angular, degree, weight):
    """Above the size floor a disk monomial Gram is assembled ring by ring."""
    measure = build_disk_measure(radius, n_radial, n_angular)
    span = monomial_span(measure, degree)
    if weight == "random":
        weight = tabulated_weight(np.random.default_rng(7).uniform(-2, 2, measure.n))
    phi = eval_weight(weight, measure)
    assert span.n_nodes * span.dim**2 >= kernels.RING_GRAM_MIN_WORK
    ring = assemble_gram(span, measure, phi)
    factor = measure.masses * np.exp(-phi.values)
    assert np.array_equal(ring, kernels._ring_gram(measure, factor, span.dim))
    dense = _dense_gram(span, measure, phi)
    assert np.max(np.abs(_equilibrate(ring) - _equilibrate(dense))) <= 1e-13
    assert one_basis(ring)[1] == one_basis(dense)[1]


def test_gram_below_the_ring_floor_is_the_dense_product():
    measure = build_disk_measure(1.0, 24, 48)
    span = monomial_span(measure, 8)
    phi = eval_weight(gauss_weight(1.0), measure)
    assert span.n_nodes * span.dim**2 < kernels.RING_GRAM_MIN_WORK
    assert np.array_equal(
        assemble_gram(span, measure, phi), _dense_gram(span, measure, phi)
    )


def test_ring_gram_falls_back_to_the_dense_product_when_it_overflows():
    """On a radius-40 disk r^200 overflows, but z^100 and e^{-|z|^2} z^100 do not."""
    measure = build_disk_measure(40.0, 128, 256)
    span = monomial_span(measure, 100)
    phi = eval_weight(gauss_weight(1.0), measure)
    factor = measure.masses * np.exp(-phi.values)
    assert kernels._ring_gram(measure, factor, span.dim) is None
    gram = assemble_gram(span, measure, phi)
    assert np.array_equal(gram, _dense_gram(span, measure, phi))
    assert build_space(span, measure, phi).rank == span.dim


def test_ring_path_recognises_the_span_by_its_points():
    """A span on a second rule with equal nodes takes the ring path; on other
    nodes it takes the dense product.  The ring path leaves the span
    untabulated."""
    measure = build_disk_measure(1.0, 64, 128)
    phi = eval_weight(gauss_weight(1.0), measure)
    factor = measure.masses * np.exp(-phi.values)
    twin = monomial_span(build_disk_measure(1.0, 64, 128), 30)
    assert np.array_equal(
        assemble_gram(twin, measure, phi), kernels._ring_gram(measure, factor, 31)
    )
    assert "basis_values" not in vars(twin)
    other = monomial_span(build_disk_measure(1.1, 64, 128), 30)
    assert other.n_nodes * other.dim**2 >= kernels.RING_GRAM_MIN_WORK
    assert np.array_equal(
        assemble_gram(other, measure, phi), _dense_gram(other, measure, phi)
    )


def blocks_only(monkeypatch, space):
    """Turn the ring path off, and return a copy of space with nothing cached,
    whose diagonal and residual therefore come from the node value blocks."""
    monkeypatch.setattr(kernels, "_ring_path", lambda span, measure: False)
    return dataclasses.replace(space)


@pytest.mark.parametrize(
    "radius, n_radial, n_angular, degree, weight",
    [
        (2.0, 160, 256, 127, scaled_weight(gauss_weight(1.0), 40.0)),
        (1.0, 64, 128, 30, harmonic_weight(2.0)),
        (1.0, 64, 128, 40, "random"),
    ],
    ids=["gauss-k40", "harmonic", "random-tabulated"],
)
def test_ring_kernel_diagonal_matches_the_blocks(
    radius, n_radial, n_angular, degree, weight, monkeypatch
):
    """Above the floor the diagonal comes from one FFT per ring.  A harmonic
    weight is not radial, but b Re(z^2) is even under conjugation; a random
    weight has no symmetry, so it also checks the sign of the transform."""
    measure = build_disk_measure(radius, n_radial, n_angular)
    if weight == "random":
        weight = tabulated_weight(np.random.default_rng(7).uniform(-2, 2, measure.n))
    space = build_space(monomial_span(measure, degree), measure, weight)
    assert kernels._ring_path(space.span, measure)
    ring = space.diagonal
    assert np.array_equal(ring, kernels._ring_row_norms(measure, space.ortho_coeffs))
    residual = reproducing_residual(space)
    fresh = blocks_only(monkeypatch, space)
    blocks = kernels._node_row_norms(space)
    assert np.array_equal(fresh.diagonal, blocks)
    assert np.max(np.abs(ring - blocks) / blocks) <= 1e-12
    # The ring residual reads C* G C, the blocks' one E* D E: both at roundoff.
    assert max(residual, reproducing_residual(fresh)) <= 1e-13


@pytest.mark.parametrize("b", [0.25, 0.5, 1.0, 2.0, 2.5])
def test_ring_kernel_diagonal_keeps_twelve_digits_on_non_radial_weights(
    b, monkeypatch
):
    """The folded sum's error scales with K's mean over a ring.  Under
    b Re(z^2) on a radius-2 disk K spans a factor of about e^(8b) around a
    ring, so at b = 2.5 (b R^2 = 10) the ring path would lose four digits at
    its smallest values; there the diagonal is the block one."""
    measure = build_disk_measure(2.0, 64, 128)
    space = build_space(monomial_span(measure, 30), measure, harmonic_weight(b))
    assert kernels._ring_path(space.span, measure)
    ring = space.diagonal
    on_rings = kernels._ring_row_norms(measure, space.ortho_coeffs) is not None
    assert on_rings == (b <= 0.5)
    blocks = blocks_only(monkeypatch, space).diagonal
    assert np.max(np.abs(ring - blocks) / blocks) <= 1e-12
    if not on_rings:
        assert np.array_equal(ring, blocks)


def test_ring_row_norms_are_deterministic():
    measure = build_disk_measure(2.0, 160, 256)
    space = build_space(
        monomial_span(measure, 127), measure, scaled_weight(gauss_weight(1.0), 40.0)
    )
    first = kernels._ring_row_norms(measure, space.ortho_coeffs)
    assert np.array_equal(first, kernels._ring_row_norms(measure, space.ortho_coeffs))


@pytest.mark.parametrize(
    "degree, k", [(20, 1.0), (60, 10.0), (120, 20.0), (127, 40.0)],
    ids=["d21", "d61", "d121", "d128"],
)
def test_ring_fold_equals_the_scatter_on_the_shipped_rungs(degree, k):
    """disk-fock-scaling folds its own span (d = 21) and the tcz rungs
    (d = 61, 121 and 128) on the 160x256 rule.  One bincount per part gives
    the norms of an np.add.at scatter bit for bit."""
    measure = build_disk_measure(2.0, 160, 256)
    weight = scaled_weight(gauss_weight(1.0), k)
    space = build_space(monomial_span(measure, degree), measure, weight)
    assert kernels._ring_path(space.span, measure)
    norms = kernels._ring_row_norms(measure, space.ortho_coeffs)
    expected = ring_row_norms_by_scatter(
        measure.points, measure.n_angular, space.ortho_coeffs
    )
    assert norms is not None and norms.tobytes() == expected.tobytes()


def test_ring_fold_equals_the_scatter_at_the_exactness_edge():
    """On 64x81 at degree 40, 2 degree = N - 1, so n - m takes every residue
    mod N.  Under a weight with no symmetry every column of Q is nonzero,
    and the ring path's norms still equal the scatter's bit for bit."""
    measure = build_disk_measure(1.0, 64, 81)
    weight = tabulated_weight(np.random.default_rng(7).uniform(-2, 2, measure.n))
    space = build_space(monomial_span(measure, 40), measure, weight)
    assert kernels._ring_path(space.span, measure)
    assert (ring_fold_by_scatter(space.ortho_coeffs, 81) != 0).any(axis=0).all()
    norms = kernels._ring_row_norms(measure, space.ortho_coeffs)
    expected = ring_row_norms_by_scatter(measure.points, 81, space.ortho_coeffs)
    assert norms is not None and norms.tobytes() == expected.tobytes()


def test_monomial_span_rule_puts_at_most_one_entry_in_each_ring_cell():
    """monomial_span allows 2 degree <= N - 1 on a disk rule with N angles.
    Up to that degree the cells (n + m, (n - m) mod N) of M's entries are
    distinct, so Q is one scatter of them; at odd N the top degree fills
    every residue class, and one degree more is refused."""
    for n_ang in range(1, 65):
        measure = build_disk_measure(1.0, n_ang, n_ang)
        degree = (n_ang - 1) // 2
        span = monomial_span(measure, degree)
        counts = np.zeros((2 * span.dim - 1, n_ang), dtype=int)
        np.add.at(counts, ring_fold_cells(span.dim, n_ang), 1)
        assert counts.max() == 1
        assert counts.any(axis=0).all() == (n_ang % 2 == 1)
        with pytest.raises(InvalidConfigurationError):
            monomial_span(measure, degree + 1)


def test_ring_kernel_diagonal_falls_back_to_the_blocks_when_it_overflows(
    recwarn, monkeypatch
):
    """On a radius-40 disk r^200 overflows; the densities and the residual are
    then the block values, and no warning is raised."""
    measure = build_disk_measure(40.0, 128, 256)
    space = build_space(monomial_span(measure, 100), measure, gauss_weight(1.0))
    assert kernels._ring_path(space.span, measure)
    assert kernels._ring_row_norms(measure, space.ortho_coeffs) is None
    density = space.density
    residual = reproducing_residual(space)
    fresh = blocks_only(monkeypatch, space)
    assert np.array_equal(space.diagonal, kernels._node_row_norms(space))
    assert np.array_equal(density, fresh.density)
    assert reproducing_residual(fresh) == residual
    assert len(recwarn) == 0


@pytest.mark.parametrize("ring", [False, True], ids=["blocks", "rings"])
def test_kernel_diagonal_is_formed_once_and_read_only(ring):
    """The space keeps one float diagonal, which no reader can write into.
    It holds no complex array alive, not even the ring path's transform."""
    if ring:
        measure = build_disk_measure(1.0, 64, 128)
        space = build_space(monomial_span(measure, 30), measure, gauss_weight(1.0))
        assert kernels._ring_path(space.span, measure)
    else:
        measure, span, phi = random_instance(37)
        space = build_space(span, measure, phi)
    diag = space.diagonal
    assert diag is space.diagonal
    assert diag.dtype == float and (diag.base is None or diag.base.dtype == float)
    with pytest.raises(ValueError):
        diag[0] = 0.0
    density = diag * np.exp(-space.weight.values)
    assert np.array_equal(space.density, density)


def test_monomial_span_values_are_the_vandermonde_matrix():
    measure, span, _ = random_instance(8, d=5, monomial=True)
    assert (span.n_nodes, span.dim) == (12, 5)
    assert "basis_values" not in vars(span)
    expected = np.vander(measure.points, 5, increasing=True)
    assert np.array_equal(span.basis_values, expected)
    assert span.basis_values is span.basis_values


def test_kernel_eval_at_agrees_on_nodes():
    measure, span, phi = random_instance(35, monomial=True)
    space = build_space(span, measure, phi)
    on_nodes = node_kernel(space)
    off = kernel_eval_at(space, measure.points, measure.points)
    assert np.allclose(on_nodes, off, rtol=1e-10, atol=1e-12)


def test_kernel_eval_at_over_blocks_matches_the_unblocked_product():
    measure = build_disk_measure(1.0, 8, 16)
    space = build_space(monomial_span(measure, 5), measure, gauss_weight(1.0))
    rng = np.random.default_rng(58)
    n = kernels.BLOCK_ROWS + 52
    many = rng.uniform(0.0, 0.7, n) * np.exp(2j * np.pi * rng.uniform(size=n))
    few = many[:5] + 0.1
    for z, w in ((many, few), (few, many)):
        ez, ew = (evaluate_basis(space.span, p) @ space.ortho_coeffs for p in (z, w))
        reference = ez @ ew.conj().T
        got = kernel_eval_at(space, z, w)
        assert np.max(np.abs(got - reference)) <= 1e-13 * np.max(np.abs(reference))


def test_bergman_density_at_matches_nodes():
    measure, span, phi = random_instance(36, monomial=True)
    phi = eval_weight(constant_weight(0.25), measure)
    space = build_space(span, measure, phi)
    at_nodes = space.density
    off = bergman_density_at(space, measure.points)
    assert np.allclose(at_nodes, off, rtol=1e-10, atol=1e-12)


def spaces_on_two_blocks():
    """A monomial and a tabulated space on the 48x48 disk rule, whose 2304
    nodes make one full block of node values and a ragged block of 256."""
    measure = build_disk_measure(1.0, 48, 48)
    assert measure.n == kernels.BLOCK_ROWS + 256
    phi = eval_weight(gauss_weight(1.0), measure)
    rng = np.random.default_rng(48)
    vals = rng.standard_normal((measure.n, 4)) + 1j * rng.standard_normal((measure.n, 4))
    spans = (monomial_span(measure, 2), tabulated_span(vals))
    return [build_space(span, measure, phi) for span in spans]


def blocked_node_pair_residual(space, rows=256):
    """max |K D K - K| over node pairs, K = E E* formed a few rows at a time."""
    e = node_values(space)
    d = space.measure_factor
    worst = 0.0
    for start in range(0, space.measure.n, rows):
        k = e[start : start + rows] @ e.conj().T
        worst = max(worst, float(np.max(np.abs(((k * d) @ e) @ e.conj().T - k))))
    return worst


@pytest.mark.parametrize("which", [0, 1], ids=["monomials", "tabulated"])
def test_blocked_densities_and_residual_match_the_full_node_values(which):
    space = spaces_on_two_blocks()[which]
    # The full product E = V C, in one piece, against which the blocks are read.
    e = space.span.basis_values @ space.ortho_coeffs
    reference = np.einsum("ij,ij->i", e, e.conj()).real * np.exp(-space.weight.values)
    assert np.array_equal(space.density, reference)
    if space.span.kind == "monomials":
        at_nodes = bergman_density_at(space, space.measure.points)
        assert np.array_equal(at_nodes, reference)
    residual = reproducing_residual(space)
    assert residual <= checks.limit("reproducing_residual").constant
    kmax = float(np.max(np.einsum("ij,ij->i", e, e.conj()).real))
    slack = np.finfo(float).eps * space.measure.n * max(1.0, kmax) ** 2
    assert blocked_node_pair_residual(space) <= residual * kmax + slack


def test_densities_and_residual_leave_a_large_monomial_span_untabulated():
    """On a span the Gram never read, the blocked calls evaluate the span
    block by block and give the values of the tabulated span."""
    space = spaces_on_two_blocks()[0]
    lazy = dataclasses.replace(space, span=monomial_span(space.measure, 2))
    pts = space.measure.points
    assert np.array_equal(lazy.density, space.density)
    assert np.array_equal(bergman_density_at(lazy, pts), bergman_density_at(space, pts))
    assert reproducing_residual(lazy) == reproducing_residual(space)
    assert "basis_values" not in lazy.span.__dict__


def test_the_residual_makes_one_pass_over_the_node_values(monkeypatch):
    """Above BLOCK_ROWS nodes, with the diagonal already formed, the residual
    reads the blocks of E once."""
    space = spaces_on_two_blocks()[1]
    assert space.span.kind != "monomials" and space.measure.n > kernels.BLOCK_ROWS
    space.diagonal  # formed before the count
    passes = []

    def counted(*args):
        passes.append(args)
        return orthonormal_node_values(*args)

    monkeypatch.setattr(kernels, "orthonormal_node_values", counted)
    reproducing_residual(space)
    assert len(passes) == 1


@settings(deadline=None, max_examples=40)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(2, 14),
    d=st.integers(1, 5),
)
def test_property_trace_identity(seed, m, d):
    """Integral of the density equals the rank on arbitrary tame draws."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.5, 1.5, m) * np.exp(2j * np.pi * rng.uniform(size=m))
    measure = build_discrete_measure(pts, np.exp(rng.uniform(-1.0, 1.0, m)))
    vals = rng.standard_normal((m, d)) + 1j * rng.standard_normal((m, d))
    span = tabulated_span(vals)
    phi = eval_weight(tabulated_weight(rng.uniform(-2.0, 2.0, m)), measure)
    space = build_space(span, measure, phi)
    if space.spread > 1e8:
        return
    density = space.density
    assert (
        abs(measure.masses @ density - space.rank)
        <= 1e-8 * max(1, space.rank)
    )
