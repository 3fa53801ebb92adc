"""Weight homotopies: G(t), its three derivative forms, and quotient bounds."""

import math

import numpy as np
import pytest

from bergmanlab import (
    build_discrete_measure,
    build_path,
    comparison_integrals,
    difference_quotient_bound_check,
    eval_weight,
    g_derivative_forms,
    g_of_t,
    kernel_derivative_matrix,
    kernel_fd,
    kernel_matrix,
    l2_difference_bound_check,
    monomial_span,
    monotonicity_sweep,
    sublevel_set,
    sup_bound_constant,
    tabulated_span,
    tabulated_weight,
)
from bergmanlab.homotopy import space_at, weight_at
from oracles import (
    fd_order,
    rank_one_kernel_derivative,
    two_node_g,
    two_node_g_prime,
)


def two_node():
    measure = build_discrete_measure([0.0, 1.0], [1.0, 1.0])
    span = monomial_span(measure, 0)
    phi = eval_weight(tabulated_weight([0.0, 0.0]), measure)
    psi = eval_weight(tabulated_weight([-1.0, 1.0]), measure)
    return measure, span, phi, psi


def random_setup(seed, m=12, d=4):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.6, 1.4, m) * np.exp(2j * np.pi * rng.uniform(size=m))
    measure = build_discrete_measure(pts, np.exp(rng.uniform(-1.0, 1.0, m)))
    vals = rng.standard_normal((m, d)) + 1j * rng.standard_normal((m, d))
    span = tabulated_span(vals)
    phi = eval_weight(tabulated_weight(rng.uniform(-2.0, 2.0, m)), measure)
    psi = eval_weight(tabulated_weight(rng.uniform(-2.0, 2.0, m)), measure)
    return measure, span, phi, psi


def test_path_construction():
    measure, span, phi, psi = two_node()
    path = build_path(phi, psi)
    assert np.allclose(path.direction, [-1.0, 1.0])
    assert path.u_sup == 1.0
    assert path.t_grid[0] == 0.0 and path.t_grid[-1] == 1.0
    assert len(path.t_grid) == 11


def test_weight_at_endpoints():
    measure, span, phi, psi = random_setup(0)
    path = build_path(phi, psi)
    assert np.max(np.abs(weight_at(path, 0.0).values - phi.values)) == 0.0
    assert np.max(np.abs(weight_at(path, 1.0).values - psi.values)) <= 1e-12


def test_two_node_g_closed_form():
    measure, span, phi, psi = two_node()
    path = build_path(phi, psi)
    for t in np.linspace(0.0, 1.0, 11):
        assert g_of_t(path, None, float(t), span, measure) == pytest.approx(
            two_node_g(float(t)), abs=1e-13
        )


def test_two_node_derivative_forms_match_closed_form():
    measure, span, phi, psi = two_node()
    path = build_path(phi, psi)
    for t in (0.0, 0.25, 0.5, 1.0):
        der = g_derivative_forms(path, t, span, measure)
        exact = two_node_g_prime(t)
        assert der.direct_form == pytest.approx(exact, abs=1e-12)
        assert der.symmetric_form == pytest.approx(exact, abs=1e-12)
        assert der.sign_split_form == pytest.approx(exact, abs=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_three_forms_agree(seed):
    measure, span, phi, psi = random_setup(seed)
    path = build_path(phi, psi)
    der = g_derivative_forms(path, 0.5, span, measure)
    scale = 1.0 + max(
        abs(der.direct_form), abs(der.symmetric_form), abs(der.sign_split_form)
    )
    assert der.max_pairwise_dev / scale <= 1e-10
    assert der.sign_split_form >= -1e-12


@pytest.mark.parametrize("seed", range(4))
def test_fd_matches_analytic_derivative(seed):
    measure, span, phi, psi = random_setup(seed + 40)
    path = build_path(phi, psi)
    der = g_derivative_forms(path, 0.5, span, measure, fd_step=1e-3)
    assert abs(der.fd_estimate - der.sign_split_form) <= 1e-6 * (
        1.0 + abs(der.sign_split_form)
    )


def test_fd_is_second_order():
    measure, span, phi, psi = random_setup(77)
    path = build_path(phi, psi)
    exact = g_derivative_forms(path, 0.5, span, measure).sign_split_form

    def g(t):
        return g_of_t(path, None, t, span, measure)

    slope = fd_order(g, 0.5, exact, (1e-2, 5e-3, 2e-3, 1e-3))
    assert 1.8 <= slope <= 2.2


def test_rho_variants_agree():
    """None and the sublevel-set indicator array name the same profile."""
    measure, span, phi, psi = random_setup(5)
    path = build_path(phi, psi)
    s = sublevel_set(phi, psi)
    base = g_of_t(path, None, 0.3, span, measure)
    assert g_of_t(path, s.astype(float), 0.3, span, measure) == pytest.approx(
        base, rel=1e-14
    )


def test_rank_one_kernel_derivative_closed_form():
    rng = np.random.default_rng(3)
    m = 10
    pts = rng.uniform(0.6, 1.4, m) * np.exp(2j * np.pi * rng.uniform(size=m))
    measure = build_discrete_measure(pts, np.exp(rng.uniform(-1.0, 1.0, m)))
    h = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    span = tabulated_span(h[:, None])
    phi = eval_weight(tabulated_weight(rng.uniform(-1.0, 1.0, m)), measure)
    psi = eval_weight(tabulated_weight(rng.uniform(-1.0, 1.0, m)), measure)
    path = build_path(phi, psi)
    t = 0.4
    space = space_at(path, t, span, measure)
    got = kernel_derivative_matrix(path, space)
    ref = rank_one_kernel_derivative(
        h, measure.masses, weight_at(path, t).values, path.direction
    )
    assert np.max(np.abs(got - ref)) <= 1e-10 * (1.0 + np.max(np.abs(ref)))


def test_kernel_fd_matches_derivative_matrix():
    measure, span, phi, psi = random_setup(7, m=8, d=3)
    path = build_path(phi, psi)
    space = space_at(path, 0.5, span, measure)
    analytic = kernel_derivative_matrix(path, space)
    fd = kernel_fd(path, 0.5, 1e-4, span, measure)
    scale = 1.0 + np.max(np.abs(analytic))
    assert np.max(np.abs(fd - analytic)) <= 1e-6 * scale


@pytest.mark.parametrize("seed", range(5))
def test_monotonicity_and_endpoints(seed):
    measure, span, phi, psi = random_setup(seed + 90)
    path = build_path(phi, psi)
    sweep = monotonicity_sweep(path, span, measure)
    values = [g for _, g in sweep]
    for a, b in zip(values, values[1:]):
        assert b >= a - 1e-12
    rep = comparison_integrals(phi, psi, span, measure)
    assert abs(values[0] - rep.lhs) <= 1e-12
    assert abs(values[-1] - rep.rhs) <= 1e-12


def test_sup_bound_constant_formula():
    for u in (0.0, 0.3, 1.0, 2.5):
        assert sup_bound_constant(u) == pytest.approx(2.0 * u * math.exp(2.0 * u))
    assert sup_bound_constant(0.0) == 0.0


@pytest.mark.parametrize("tau", [0.5, 0.1, 0.01])
@pytest.mark.parametrize("seed", range(3))
def test_quotient_bounds_hold(seed, tau):
    measure, span, phi, psi = random_setup(seed + 200)
    path = build_path(phi, psi)
    assert difference_quotient_bound_check(path, 0.5, tau, span, measure)
    assert l2_difference_bound_check(path, 0.5, tau, span, measure)


def test_l2_bound_matches_explicit_arithmetic():
    """The stacked-frame row norms equal the brute-force kernel increment."""
    measure, span, phi, psi = random_setup(8, m=10, d=3)
    path = build_path(phi, psi)
    t, tau = 0.4, 0.1
    space_t = space_at(path, t, span, measure)
    k0 = kernel_matrix(space_t)
    k1 = kernel_matrix(space_at(path, t + tau, span, measure))
    diff = k1 - k0
    d = space_t.measure_factor
    explicit = np.einsum("ik,k,ik->i", diff, d, diff.conj()).real
    diag = np.real(np.diag(k0))
    bound = sup_bound_constant(path.u_sup) * tau * diag + 1e-12 * (1.0 + diag.max())
    assert np.all(explicit <= bound)
    assert l2_difference_bound_check(path, t, tau, span, measure)


def test_zero_span_g_vanishes():
    measure = build_discrete_measure([1.0, 2.0, 3.0], [1.0, 1.0, 1.0])
    span = tabulated_span(np.zeros((3, 2), dtype=complex))
    phi = eval_weight(tabulated_weight([0.5, -0.5, 0.0]), measure)
    psi = eval_weight(tabulated_weight([-1.0, 1.0, 0.0]), measure)
    path = build_path(phi, psi)
    for t in (0.0, 0.5, 1.0):
        assert g_of_t(path, None, t, span, measure) == 0.0
        der = g_derivative_forms(path, t, span, measure)
        assert der.sign_split_form == 0.0
        assert der.fd_estimate == 0.0
    assert difference_quotient_bound_check(path, 0.5, 0.1, span, measure)
    assert l2_difference_bound_check(path, 0.5, 0.1, span, measure)
