"""Kernel engine: Gram assembly, orthonormalization, densities, identities."""

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
    bergman_density_from_space,
    build_discrete_measure,
    build_disk_measure,
    build_space,
    constant_weight,
    equilibration_scales,
    equilibrated_spectrum,
    eval_weight,
    gauss_weight,
    generate_instance,
    harmonic_weight,
    kernel_eval_at,
    kernel_matrix,
    kernel_monotonicity_check,
    load_scenario_file,
    monomial_span,
    orthonormal_basis,
    orthonormal_node_values,
    reproducing_residual,
    retained_spread,
    scaled_weight,
    tabulated_span,
    tabulated_weight,
)
from bergmanlab import kernels
from oracles import (
    brute_force_kernel,
    disk_moment_exact,
    extremal_diagonal,
    node_pair_residual,
)

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")


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


def test_orthonormal_basis_whitens_gram():
    measure, span, phi = random_instance(2)
    g = assemble_gram(span, measure, phi)
    c, rank = orthonormal_basis(g)
    assert rank == span.dim
    identity = c.conj().T @ g @ c
    assert np.allclose(identity, np.eye(rank), atol=1e-10)


def test_orthonormal_basis_detects_degenerate_span():
    """A repeated basis column must drop the rank by one."""
    measure, span, phi = random_instance(3, d=3)
    vals = span.basis_values.copy()
    vals[:, 2] = vals[:, 0]
    g = assemble_gram(tabulated_span(vals), measure, phi)
    _, rank = orthonormal_basis(g)
    assert rank == 2


def test_orthonormal_basis_zero_gram():
    c, rank = orthonormal_basis(np.zeros((3, 3)))
    assert rank == 0
    assert c.shape == (3, 0)


def test_orthonormal_basis_rejects_indefinite():
    g = np.diag([1.0, -0.5])
    with pytest.raises(InvalidConfigurationError):
        orthonormal_basis(g)


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
    lam = equilibrated_spectrum(g)
    assert lam[-1] == pytest.approx(1.0)


def test_retained_spread_ignores_scale():
    """A diagonal Gram spanning many decades equilibrates to spread one."""
    g = np.diag(10.0 ** np.arange(-30.0, 10.0, 5.0))
    assert retained_spread(g) == pytest.approx(1.0)
    assert retained_spread(np.zeros((2, 2))) == 1.0


@pytest.mark.parametrize("monomial", [False, True])
@pytest.mark.parametrize("seed", [10, 11, 12])
def test_kernel_matches_brute_force(seed, monomial):
    measure, span, phi = random_instance(seed, monomial=monomial)
    space = build_space(span, measure, phi)
    k = kernel_matrix(space)
    ref = brute_force_kernel(span.basis_values, measure.masses, phi.values)
    assert np.max(np.abs(k - ref)) <= 1e-9 * (1.0 + np.max(np.abs(ref)))


@pytest.mark.parametrize("seed", [20, 21])
def test_kernel_diagonal_is_extremal_value(seed):
    """K(z, z) equals the maximal |h(z)|^2 over unit-norm h in the span."""
    measure, span, phi = random_instance(seed)
    space = build_space(span, measure, phi)
    diag = np.real(np.diag(kernel_matrix(space)))
    ref = extremal_diagonal(span.basis_values, measure.masses, phi.values)
    assert np.allclose(diag, ref, rtol=1e-9, atol=1e-12)


def test_kernel_psd_and_hermitian():
    measure, span, phi = random_instance(30)
    k = kernel_matrix(build_space(span, measure, phi))
    assert np.allclose(k, k.conj().T)
    eigs = np.linalg.eigvalsh(k)
    assert eigs[0] >= -1e-10 * max(eigs[-1], 1.0)


def test_trace_identity_and_reproducing():
    measure, span, phi = random_instance(31)
    space = build_space(span, measure, phi)
    density = bergman_density_from_space(space)
    assert abs(measure.masses @ density - space.rank) <= 1e-9 * space.rank
    assert reproducing_residual(space) <= 1e-9


def assert_residual_bounds_node_pairs(space):
    """The coefficient-space bound against the two node-pair forms it bounds.

    Every entry of E A E* (A = E* D E - I) is at most the bound, up to the
    rounding of the bound itself.  The oracle's |K D K - K| is the same
    matrix formed another way, so it may exceed the bound by its own
    rounding, at most eps * m * max(1, max K_ii)^2.
    """
    bound = reproducing_residual(space)
    e = orthonormal_node_values(space)
    a = e.conj().T @ (space.measure_factor[:, None] * e) - np.eye(space.rank)
    direct = float(np.max(np.abs(e @ a @ e.conj().T))) if space.rank else 0.0
    assert direct <= bound * (1.0 + 1e-12)
    kern = kernel_matrix(space)
    oracle = node_pair_residual(kern, space.measure.masses, space.weight.values)
    kmax = np.real(np.diag(kern)).max()
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


def test_density_from_space_matches_kernel_diagonal():
    measure, span, phi = random_instance(32)
    space = build_space(span, measure, phi)
    via_kernel = np.real(np.diag(kernel_matrix(space))) * np.exp(-phi.values)
    assert np.allclose(bergman_density_from_space(space), via_kernel)


def test_density_invariant_under_constant_shift():
    measure, span, phi = random_instance(33)
    b0 = bergman_density_from_space(build_space(span, measure, phi))
    shifted = eval_weight(tabulated_weight(phi.values + 1.7), measure)
    b1 = bergman_density_from_space(build_space(span, measure, shifted))
    assert np.allclose(b0, b1, rtol=1e-12, atol=1e-15)


def test_kernel_diagonal_monotone_in_weight():
    measure, span, phi = random_instance(34)
    hi = eval_weight(tabulated_weight(phi.values + np.abs(phi.values) + 0.3), measure)
    lo_space = build_space(span, measure, phi)
    hi_space = build_space(span, measure, hi)
    assert kernel_monotonicity_check(lo_space, hi_space)
    with pytest.raises(InvalidConfigurationError):
        kernel_monotonicity_check(hi_space, lo_space)


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
    assert np.all(kernel_matrix(space) == 0.0)
    density = bergman_density_from_space(space)
    assert np.all(density == 0.0)
    assert measure.masses @ density == 0.0
    assert reproducing_residual(space) == 0.0


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
    assert orthonormal_basis(ring)[1] == orthonormal_basis(dense)[1]


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
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(kernels._ring_gram(measure, factor, span.dim)).all()
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
    on_nodes = kernel_matrix(space)
    off = kernel_eval_at(space, measure.points, measure.points)
    assert np.allclose(on_nodes, off, rtol=1e-10, atol=1e-12)


def test_bergman_density_at_matches_nodes():
    measure, span, phi = random_instance(36, monomial=True)
    phi = eval_weight(constant_weight(0.25), measure)
    space = build_space(span, measure, phi)
    at_nodes = bergman_density_from_space(space)
    off = bergman_density_at(space, measure.points)
    assert np.allclose(at_nodes, off, rtol=1e-10, atol=1e-12)


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
    g = assemble_gram(span, measure, phi)
    if retained_spread(g) > 1e8:
        return
    space = build_space(span, measure, phi)
    density = bergman_density_from_space(space)
    assert (
        abs(measure.masses @ density - space.rank)
        <= 1e-8 * max(1, space.rank)
    )
