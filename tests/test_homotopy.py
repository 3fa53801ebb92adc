"""Weight homotopies: G(t), its three derivative forms, and quotient bounds."""

import math
import os
import warnings

import numpy as np
import pytest

from bergmanlab import (
    InvalidConfigurationError,
    Spaces,
    build_discrete_measure,
    build_disk_measure,
    build_path,
    constant_weight,
    eval_weight,
    g_derivative_forms,
    gauss_weight,
    generate_instance,
    g_of_t,
    load_scenario_file,
    monomial_span,
    orthonormal_node_values,
    quotient_bounds_hold,
    shifted_comparison_sweep,
    sup_bound_constant,
    tabulated_span,
    tabulated_weight,
)
from bergmanlab import homotopy, kernels
from bergmanlab.homotopy import (
    BOUND_STEPS,
    BOUND_T,
    FD_STEP,
    T_GRID,
    central_difference,
    weight_at,
)
from oracles import (
    fd_order,
    rank_one_kernel_derivative,
    two_node_g,
    two_node_g_prime,
)

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")


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


def node_kernel(space):
    """The kernel on node pairs, K = E E* from the orthonormal node values E."""
    e = np.concatenate([e for _, e in orthonormal_node_values(space)])
    return e @ e.conj().T


def kernel_derivative_matrix(path, space_t):
    """Matrix of K'_t on node pairs: K diag(u w e^{-phi_t}) K."""
    k = node_kernel(space_t)
    d = path.direction * space_t.measure_factor
    return (k * d[None, :]) @ k


def kernel_fd(path, t, tau):
    """Central finite difference of the node-pair kernel in t."""
    k_plus = node_kernel(path.spaces(weight_at(path, t + tau)))
    k_minus = node_kernel(path.spaces(weight_at(path, t - tau)))
    return (k_plus - k_minus) / (2.0 * tau)


def test_path_construction():
    measure, span, phi, psi = two_node()
    path = build_path(Spaces(span, measure), phi, psi)
    assert np.allclose(path.direction, [-1.0, 1.0])
    assert path.u_sup == 1.0
    assert T_GRID[0] == 0.0 and T_GRID[-1] == 1.0
    assert len(T_GRID) == 11


def test_weight_at_endpoints():
    measure, span, phi, psi = random_setup(0)
    path = build_path(Spaces(span, measure), phi, psi)
    assert np.max(np.abs(weight_at(path, 0.0).values - phi.values)) == 0.0
    assert np.max(np.abs(weight_at(path, 1.0).values - psi.values)) <= 1e-12


def test_two_node_g_closed_form():
    measure, span, phi, psi = two_node()
    path = build_path(Spaces(span, measure), phi, psi)
    for t in np.linspace(0.0, 1.0, 11):
        assert g_of_t(path, float(t)) == pytest.approx(
            two_node_g(float(t)), abs=1e-13
        )


def test_two_node_derivative_forms_match_closed_form():
    measure, span, phi, psi = two_node()
    path = build_path(Spaces(span, measure), phi, psi)
    for t in (0.0, 0.25, 0.5, 1.0):
        der = g_derivative_forms(path, t)
        exact = two_node_g_prime(t)
        assert der.direct_form == pytest.approx(exact, abs=1e-12)
        assert der.symmetric_form == pytest.approx(exact, abs=1e-12)
        assert der.sign_split_form == pytest.approx(exact, abs=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_three_forms_agree(seed):
    measure, span, phi, psi = random_setup(seed)
    path = build_path(Spaces(span, measure), phi, psi)
    der = g_derivative_forms(path, 0.5)
    scale = 1.0 + max(
        abs(der.direct_form), abs(der.symmetric_form), abs(der.sign_split_form)
    )
    assert der.max_pairwise_dev / scale <= 1e-10
    assert der.sign_split_form >= -1e-12


@pytest.mark.parametrize("seed", range(4))
def test_fd_matches_analytic_derivative(seed):
    measure, span, phi, psi = random_setup(seed + 40)
    path = build_path(Spaces(span, measure), phi, psi)
    der = g_derivative_forms(path, 0.5)
    fd = central_difference(path, 0.5, 1e-3)
    assert abs(fd - der.sign_split_form) <= 1e-6 * (1.0 + abs(der.sign_split_form))


@pytest.mark.parametrize("t", [0.3, 0.5])
def test_central_difference_is_the_reports_fd_estimate(t):
    measure, span, phi, psi = random_setup(41)
    path = build_path(Spaces(span, measure), phi, psi)
    der = g_derivative_forms(path, t)
    assert der.fd_step == FD_STEP
    assert central_difference(path, t, FD_STEP) == der.fd_estimate


def test_fd_is_second_order():
    measure, span, phi, psi = random_setup(77)
    path = build_path(Spaces(span, measure), phi, psi)
    exact = g_derivative_forms(path, 0.5).sign_split_form

    def g(t):
        return g_of_t(path, t)

    slope = fd_order(g, 0.5, exact, (1e-2, 5e-3, 2e-3, 1e-3))
    assert 1.8 <= slope <= 2.2


def test_rank_one_kernel_derivative_closed_form():
    rng = np.random.default_rng(3)
    m = 10
    pts = rng.uniform(0.6, 1.4, m) * np.exp(2j * np.pi * rng.uniform(size=m))
    measure = build_discrete_measure(pts, np.exp(rng.uniform(-1.0, 1.0, m)))
    h = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    span = tabulated_span(h[:, None])
    phi = eval_weight(tabulated_weight(rng.uniform(-1.0, 1.0, m)), measure)
    psi = eval_weight(tabulated_weight(rng.uniform(-1.0, 1.0, m)), measure)
    path = build_path(Spaces(span, measure), phi, psi)
    t = 0.4
    space = path.spaces(weight_at(path, t))
    got = kernel_derivative_matrix(path, space)
    ref = rank_one_kernel_derivative(
        h, measure.masses, weight_at(path, t).values, path.direction
    )
    assert np.max(np.abs(got - ref)) <= 1e-10 * (1.0 + np.max(np.abs(ref)))


def test_kernel_fd_matches_derivative_matrix():
    measure, span, phi, psi = random_setup(7, m=8, d=3)
    path = build_path(Spaces(span, measure), phi, psi)
    space = path.spaces(weight_at(path, 0.5))
    analytic = kernel_derivative_matrix(path, space)
    fd = kernel_fd(path, 0.5, 1e-4)
    scale = 1.0 + np.max(np.abs(analytic))
    assert np.max(np.abs(fd - analytic)) <= 1e-6 * scale


@pytest.mark.parametrize("seed", range(5))
def test_monotonicity_and_endpoints(seed):
    measure, span, phi, psi = random_setup(seed + 90)
    path = build_path(Spaces(span, measure), phi, psi)
    values = [g_of_t(path, t) for t in T_GRID]
    for a, b in zip(values, values[1:]):
        assert b >= a - 1e-12
    rep = shifted_comparison_sweep(path.spaces, phi, psi, (0.0,))[0]
    assert abs(values[0] - rep.lhs) <= 1e-12
    assert abs(values[-1] - rep.rhs) <= 1e-12


def test_sup_bound_constant_formula():
    for u in (0.0, 0.3, 1.0, 2.5):
        assert sup_bound_constant(u) == pytest.approx(2.0 * u * math.exp(2.0 * u))
    assert sup_bound_constant(0.0) == 0.0


def test_sup_bound_constant_rejects_an_overflow_without_a_warning():
    """2 u e^(2 u) is finite at u = 351 and overflows at u = 352, which is a
    configuration error naming psi - phi rather than an infinite bound."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isfinite(sup_bound_constant(351.0))
        with pytest.raises(InvalidConfigurationError, match="psi - phi"):
            sup_bound_constant(352.0)


@pytest.mark.parametrize("tau", [0.5, 0.1, 0.01])
@pytest.mark.parametrize("seed", range(3))
def test_quotient_bounds_hold(seed, tau):
    measure, span, phi, psi = random_setup(seed + 200)
    path = build_path(Spaces(span, measure), phi, psi)
    assert quotient_bounds_hold(path, 0.5, tau)


def explicit_bound_shares(path, t, tau):
    """The largest shares of the envelope C_u K_t(z, z) that the sup quotient
    and the weighted L2 row sum (over |tau|) of the kernel increment from t
    to t + tau reach, from the kernels on node pairs."""
    space_t = path.spaces(weight_at(path, t))
    k0 = node_kernel(space_t)
    diff = node_kernel(path.spaces(weight_at(path, t + tau))) - k0
    envelope = sup_bound_constant(path.u_sup) * np.real(np.diag(k0))
    sup = np.abs(np.real(np.diag(diff))) / abs(tau)
    l2 = np.einsum("ik,k,ik->i", diff, space_t.measure_factor, diff.conj()).real
    return float(np.max(sup / envelope)), float(np.max(l2 / (abs(tau) * envelope)))


def scale_envelope(monkeypatch, scale):
    """Multiply the envelope constant that the quotient bounds read by scale."""
    constant = homotopy.sup_bound_constant
    monkeypatch.setattr(homotopy, "sup_bound_constant", lambda u: scale * constant(u))


def test_l2_bound_matches_explicit_arithmetic(monkeypatch):
    """The stacked-frame row norms equal the brute-force kernel increment.
    From t = 0 to 1 the L2 sums reach twice the share of the envelope that
    the sup quotients do, so with the envelope scaled to that share the
    verdict turns where the brute-force L2 sums meet it."""
    measure, span, phi, psi = random_setup(8, m=10, d=3)
    path = build_path(Spaces(span, measure), phi, psi)
    t, tau = 0.0, 1.0
    sup, l2 = explicit_bound_shares(path, t, tau)
    assert sup < l2 < 1.0
    assert quotient_bounds_hold(path, t, tau)
    for scale, holds in ((l2 * (1 + 1e-6), True), (l2 * (1 - 1e-6), False)):
        with monkeypatch.context() as patch:
            scale_envelope(patch, scale)
            assert quotient_bounds_hold(path, t, tau) == holds


@pytest.mark.parametrize("index", [0, 4])
def test_each_quotient_bound_can_decide_the_verdict(index, monkeypatch):
    """On battery seed 0 at t = tau = 0.5 the sup bound binds first on
    instance 0 and the L2 bound on instance 4 (shares of the envelope
    7.4e-5 / 4.2e-5 and 4.9e-3 / 1.06e-2).  With the envelope scaled to
    between the two shares, only the binding bound fails, so the verdict is
    false only if that bound is judged."""
    rng = np.random.default_rng(0)
    for i in range(index + 1):
        inst = generate_instance(rng, i)
    path = build_path(inst.spaces, inst.phi, inst.psi)
    sup, l2 = explicit_bound_shares(path, BOUND_T, 0.5)
    assert (sup > l2) == (index == 0)
    assert quotient_bounds_hold(path, BOUND_T, 0.5)
    scale_envelope(monkeypatch, math.sqrt(sup * l2))
    assert not quotient_bounds_hold(path, BOUND_T, 0.5)


def test_zero_span_g_vanishes():
    measure = build_discrete_measure([1.0, 2.0, 3.0], [1.0, 1.0, 1.0])
    span = tabulated_span(np.zeros((3, 2), dtype=complex))
    phi = eval_weight(tabulated_weight([0.5, -0.5, 0.0]), measure)
    psi = eval_weight(tabulated_weight([-1.0, 1.0, 0.0]), measure)
    path = build_path(Spaces(span, measure), phi, psi)
    for t in (0.0, 0.5, 1.0):
        assert g_of_t(path, t) == 0.0
        der = g_derivative_forms(path, t)
        assert der.sign_split_form == 0.0
        assert der.fd_estimate == 0.0
    assert quotient_bounds_hold(path, 0.5, 0.1)


def forms_and_bound_verdicts(span, measure, phi, psi):
    """The three G' forms at BOUND_T and the quotient-bound verdict at each
    of BOUND_STEPS, on a fresh space context."""
    path = build_path(Spaces(span, measure), phi, psi)
    der = g_derivative_forms(path, BOUND_T)
    forms = np.array([der.direct_form, der.symmetric_form, der.sign_split_form])
    verdicts = [quotient_bounds_hold(path, BOUND_T, tau) for tau in BOUND_STEPS]
    return path, forms, verdicts


def test_homotopy_checks_leave_a_large_monomial_span_untabulated():
    """On 2 560 disk nodes, more than one block, the G' forms and both
    quotient bounds evaluate the monomial span block by block."""
    measure = build_disk_measure(1.0, 40, 64)
    assert measure.n > kernels.BLOCK_ROWS
    span = monomial_span(measure, 20)
    phi = eval_weight(gauss_weight(1.0), measure)
    psi = eval_weight(constant_weight(0.5), measure)
    _, forms, verdicts = forms_and_bound_verdicts(span, measure, phi, psi)
    assert "basis_values" not in span.__dict__
    assert np.ptp(forms) <= 1e-10 * (1.0 + np.max(np.abs(forms)))
    assert forms[2] >= 0.0
    assert all(verdicts)


def homotopy_cases():
    config = load_scenario_file(os.path.join(SCENARIO_DIR, "disk-strict-pair.json"))
    inst = generate_instance(np.random.default_rng(0), 0)
    return {
        "disk-strict-pair": (config.span, config.measure, config.phi, config.psi),
        "battery-0-0": (inst.span, inst.measure, inst.phi, inst.psi),
    }


@pytest.mark.parametrize("case", ["disk-strict-pair", "battery-0-0"])
def test_homotopy_checks_in_small_blocks_match_one_block(case, monkeypatch):
    """With 7-row blocks the forms move only by the summation order: each
    pairs |K|^2 against a profile bounded by u_sup, whose total weight is
    the rank, so u_sup times the rank bounds it and sets the scale.  The
    bound verdicts do not move."""
    args = homotopy_cases()[case]
    path, one_block, verdicts = forms_and_bound_verdicts(*args)
    assert args[1].n > 7
    monkeypatch.setattr(kernels, "BLOCK_ROWS", 7)
    _, blocked, blocked_verdicts = forms_and_bound_verdicts(*args)
    scale = path.u_sup * path.spaces(weight_at(path, BOUND_T)).rank
    eps = np.finfo(float).eps
    assert np.max(np.abs(blocked - one_block)) <= 64 * eps * scale
    assert blocked_verdicts == verdicts
