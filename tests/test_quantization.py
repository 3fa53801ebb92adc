"""Scaling limit machinery: limit densities, degree rules, amplified spaces."""

import math
import tracemalloc

import numpy as np
import pytest

from bergmanlab import (
    InvalidConfigurationError,
    UnsupportedWeightError,
    build_discrete_measure,
    build_disk_measure,
    build_scaled_space,
    constant_weight,
    default_degree_rule,
    gauss_weight,
    harmonic_weight,
    ma_density,
    radial_poly_weight,
    tabulated_weight,
    tcz_convergence_report,
)
from bergmanlab.kernels import assemble_gram, bergman_density_at
from oracles import fock_density_at_origin, gaussian_monomial_norm_sq, laplacian_5point


def test_ma_density_gauss_is_constant():
    measure = build_disk_measure(1.0, 6, 12)
    d = ma_density(gauss_weight(1.5), measure)
    assert d.shape == (measure.n,)
    assert np.allclose(d, 1.5 / math.pi)


def test_ma_density_harmonic_vanishes():
    measure = build_disk_measure(1.0, 6, 12)
    d = ma_density(harmonic_weight(2.0), measure)
    assert np.allclose(d, 0.0)


def test_ma_density_fd_agrees_with_analytic():
    measure = build_disk_measure(1.0, 8, 16)
    w = radial_poly_weight([0.2, 1.0, -0.3])
    analytic = ma_density(w, measure)
    fd = laplacian_5point(w.family.evaluate, measure.points) / (4.0 * math.pi)
    assert np.max(np.abs(analytic - fd)) <= 1e-6


def test_ma_density_rejects_tabulated():
    measure = build_discrete_measure([1.0, 2.0], [1.0, 1.0])
    with pytest.raises(UnsupportedWeightError):
        ma_density(tabulated_weight([0.0, 0.0]), measure)


def test_default_degree_rule_ladder():
    measure = build_disk_measure(2.0, 160, 256)
    assert measure.exactness_degree == 255
    assert default_degree_rule(10, measure) == 60
    assert default_degree_rule(20, measure) == 120
    assert default_degree_rule(40, measure) == 127
    assert default_degree_rule(1e300, measure) == 127


def test_default_degree_rule_needs_disk():
    measure = build_discrete_measure([1.0], [1.0])
    with pytest.raises(InvalidConfigurationError):
        default_degree_rule(10, measure)


def test_scaled_space_exactness_guard():
    measure = build_disk_measure(1.0, 8, 16)
    with pytest.raises(InvalidConfigurationError):
        build_scaled_space(gauss_weight(1.0), 5.0, 20, measure)


def test_scaled_gram_diagonal_matches_radial_integral():
    """Monomial norms under k|z|^2 equal the incomplete-gamma closed form."""
    measure = build_disk_measure(1.5, 48, 96)
    k = 4.0
    space = build_scaled_space(gauss_weight(1.0), k, 10, measure)
    gram = assemble_gram(space.span, space.measure, space.weight)
    for m in range(11):
        exact = gaussian_monomial_norm_sq(m, k, 1.5)
        assert abs(gram[m, m].real - exact) <= 1e-12 * exact


def test_scaled_space_on_the_ladder_rule_does_not_tabulate_its_span():
    """The k = 40 rung of a 40 960-node ladder: the Vandermonde matrix alone
    would take 84 MB (40 960 x 128 complex)."""
    measure = build_disk_measure(2.0, 160, 256)
    tracemalloc.start()
    try:
        build_scaled_space(gauss_weight(1.0), 40, 127, measure)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


@pytest.mark.parametrize("k", [5.0, 12.0])
def test_density_at_origin_matches_fock_value(k):
    measure = build_disk_measure(2.0, 80, 128)
    degree = default_degree_rule(k, measure)
    space = build_scaled_space(gauss_weight(1.0), k, degree, measure)
    got = bergman_density_at(space, [0.0])[0]
    exact = fock_density_at_origin(k, 2.0)
    assert abs(got - exact) <= 1e-10 * exact


def test_convergence_report_devs_shrink():
    measure = build_disk_measure(1.0, 48, 96)
    reports = tcz_convergence_report(
        gauss_weight(1.0), [8.0, 16.0], measure, interior_radius=0.5
    )
    assert [r.k for r in reports] == [8.0, 16.0]
    assert all(r.n_skipped == 0 for r in reports)
    assert reports[1].max_abs_dev_from_1 < reports[0].max_abs_dev_from_1
    assert reports[1].mean_abs_dev <= reports[1].max_abs_dev_from_1


def test_convergence_report_carries_each_rungs_rank_and_spread():
    measure = build_disk_measure(1.0, 48, 96)
    phi = gauss_weight(1.0)
    reports = tcz_convergence_report(phi, [8.0, 16.0], measure)
    for r in reports:
        space = build_scaled_space(phi, r.k, r.degree, measure)
        assert (r.rank, r.spread) == (space.rank, space.spread)
    assert [r.rank for r in reports] == [r.degree + 1 for r in reports]


def test_convergence_report_reads_an_annulus_of_rings_like_the_blocks():
    """phi = |z|^4 - |z|^2 has a positive limit density only for |z| > 1/2,
    so the ladder reads an annulus: its rings are not a prefix of the rule.
    The ratios from one FFT per ring match densities formed in blocks."""
    measure = build_disk_measure(1.5, 48, 96)
    phi = radial_poly_weight([0.0, -1.0, 1.0])
    reports = tcz_convergence_report(phi, [8.0, 16.0], measure, interior_radius=1.0)
    read = np.zeros(measure.n, dtype=bool)
    read[reports[0].eval_indices] = True
    rings = read.reshape(-1, measure.n_angular).any(axis=1)
    assert not rings[0] and rings.any() and not rings[-1]
    limit = ma_density(phi, measure)[read]
    for rep in reports:
        space = build_scaled_space(phi, rep.k, rep.degree, measure)
        blocks = (bergman_density_at(space, measure.points[read]) / rep.k) / limit
        assert np.max(np.abs(rep.ratios - blocks) / blocks) <= 1e-12


def test_convergence_report_interior_default():
    measure = build_disk_measure(1.0, 32, 64)
    reports = tcz_convergence_report(gauss_weight(1.0), [6.0], measure)
    interior = np.abs(measure.points[reports[0].eval_indices])
    assert np.all(interior <= 0.5)


def test_convergence_report_skips_flat_limit():
    """A harmonic weight has no positive limit density; all nodes skip."""
    measure = build_disk_measure(1.0, 16, 32)
    reports = tcz_convergence_report(harmonic_weight(1.0), [4.0], measure)
    assert reports[0].n_skipped > 0
    assert math.isnan(reports[0].max_abs_dev_from_1)
    assert reports[0].eval_indices.size == 0


def test_convergence_report_needs_disk():
    measure = build_discrete_measure([0.5], [1.0])
    with pytest.raises(InvalidConfigurationError):
        tcz_convergence_report(gauss_weight(1.0), [4.0], measure)


def test_constant_weight_scaling_noop():
    """Amplifying a constant weight rescales nothing that matters: the
    density ratio check still sees the flat limit as degenerate."""
    measure = build_disk_measure(1.0, 16, 32)
    reports = tcz_convergence_report(constant_weight(1.0), [4.0], measure)
    assert math.isnan(reports[0].max_abs_dev_from_1)
