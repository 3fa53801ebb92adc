"""Acceptance gate: the quantitative claims this laboratory must reproduce.

Each criterion is one test, so a verbose run shows one pass/fail line per
criterion.  Tolerances and runtime budgets are pinned here; loosening them
is a contract change, not a fix.
"""

import math
import time

import numpy as np
import pytest

from bergmanlab import (
    build_discrete_measure,
    build_disk_measure,
    build_scaled_space,
    build_space,
    comparison_integrals,
    constant_weight,
    default_degree_rule,
    eval_weight,
    gauss_weight,
    harmonic_weight,
    kernel_eval_at,
    max_principle_search,
    monomial_span,
    radial_poly_weight,
    run_battery,
    sublevel_set,
    tabulated_weight,
    tcz_convergence_report,
)
from bergmanlab.kernels import bergman_density_at
from oracles import disk_kernel_closed_form, fock_density_at_origin

E = math.e


def _verdict(num, label, ok, detail):
    print(f"criterion {num:02d} {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


@pytest.fixture(scope="module")
def battery():
    """One 200-instance battery shared by criteria 1, 2, 6, 7, and 8."""
    t0 = time.perf_counter()
    report = run_battery(n_instances=200, seed=0)
    elapsed = time.perf_counter() - t0
    return report, elapsed


def test_criterion_01_trace_identity(battery):
    report, elapsed = battery
    ok = report.worst_trace_error <= 1e-9 and elapsed <= 10.0
    assert _verdict(
        1,
        "trace identity",
        ok,
        f"worst {report.worst_trace_error:.3e} over 200 instances, {elapsed:.2f}s",
    )


def test_criterion_02_comparison_principle(battery):
    report, elapsed = battery
    ok = report.worst_comparison_deficit <= 0.0 and elapsed <= 30.0
    assert _verdict(
        2,
        "comparison principle",
        ok,
        f"worst deficit {report.worst_comparison_deficit:.3e} across the "
        f"5-shift sweep, {elapsed:.2f}s",
    )


def test_criterion_03_two_node_reference():
    measure = build_discrete_measure([0.0, 1.0], [1.0, 1.0])
    span = monomial_span(measure, 0)
    phi = eval_weight(tabulated_weight([0.0, 0.0]), measure)
    psi = eval_weight(tabulated_weight([-1.0, 1.0]), measure)
    rep = comparison_integrals(phi, psi, span, measure)
    rhs_exact = E / (E + 1.0 / E)
    devs = (
        abs(rep.lhs - 0.5),
        abs(rep.rhs - rhs_exact),
        abs(rep.margin - (rhs_exact - 0.5)),
    )
    ok = max(devs) <= 1e-12
    assert _verdict(
        3,
        "two-node reference",
        ok,
        f"lhs {rep.lhs:.15f}, rhs {rep.rhs:.15f}, max dev {max(devs):.2e}",
    )


def test_criterion_04_disk_kernel_oracle():
    t0 = time.perf_counter()
    measure = build_disk_measure(1.0, 64, 128)
    span = monomial_span(measure, 30)
    space = build_space(span, measure, eval_weight(constant_weight(0.0), measure))
    rng = np.random.default_rng(4)
    radii = np.concatenate([[0.0, 0.2, 0.4, 0.6], rng.uniform(0.0, 0.6, 28)])
    angles = rng.uniform(0.0, 2.0 * math.pi, radii.size)
    zs = radii * np.exp(1j * angles)
    ws = np.roll(zs, 7)
    got = kernel_eval_at(space, zs, ws)
    ref = disk_kernel_closed_form(zs, ws)
    rel = np.max(np.abs(got - ref) / np.abs(ref))
    elapsed = time.perf_counter() - t0
    ok = rel <= 1e-6 and elapsed <= 5.0
    assert _verdict(
        4,
        "disk kernel oracle",
        ok,
        f"max rel err {rel:.3e} on {zs.size}x{ws.size} pairs, {elapsed:.2f}s",
    )


def test_criterion_05_scaling_limit():
    t0 = time.perf_counter()
    measure = build_disk_measure(2.0, 160, 256)
    phi = gauss_weight(1.0)
    reports = tcz_convergence_report(
        phi, [10.0, 20.0, 40.0], measure, interior_radius=1.0
    )
    devs = [r.max_abs_dev_from_1 for r in reports]
    final_ok = devs[-1] <= 0.05
    monotone_ok = all(b <= 1.1 * a + 1e-9 for a, b in zip(devs, devs[1:]))
    origin_dev = 0.0
    for k in (10.0, 20.0, 40.0):
        space = build_scaled_space(phi, k, default_degree_rule(k, measure), measure)
        got = bergman_density_at(space, [0.0])[0]
        exact = fock_density_at_origin(k, 2.0)
        origin_dev = max(origin_dev, abs(got - exact) / exact)
    elapsed = time.perf_counter() - t0
    ok = final_ok and monotone_ok and origin_dev <= 1e-10 and elapsed <= 20.0
    assert _verdict(
        5,
        "scaling limit",
        ok,
        f"devs {devs[0]:.2e} -> {devs[1]:.2e} -> {devs[2]:.2e}, "
        f"origin dev {origin_dev:.2e}, {elapsed:.2f}s",
    )


def test_criterion_06_derivative_machinery(battery):
    report, elapsed = battery
    lo, hi = 1.8, 2.2
    ok = (
        report.worst_three_form_dev <= 1e-10
        and report.min_sign_split >= -1e-12
        and report.worst_fd_match_ratio <= 1.0
        and lo <= report.order_slope <= hi
        and elapsed <= 60.0
    )
    assert _verdict(
        6,
        "derivative machinery",
        ok,
        f"three-form {report.worst_three_form_dev:.2e}, "
        f"min split {report.min_sign_split:.2e}, "
        f"fd ratio {report.worst_fd_match_ratio:.3f}, "
        f"order {report.order_slope:.4f}, {elapsed:.2f}s",
    )


def test_criterion_07_monotonicity(battery):
    report, _ = battery
    ok = (
        report.worst_monotonicity_drop <= 1e-12
        and report.worst_endpoint_dev <= 1e-12
    )
    assert _verdict(
        7,
        "interpolant monotonicity",
        ok,
        f"worst drop {report.worst_monotonicity_drop:.2e}, "
        f"endpoint dev {report.worst_endpoint_dev:.2e} on the 11-point grid",
    )


def test_criterion_08_quotient_bounds(battery):
    report, _ = battery
    ok = report.bound_violations == 0
    assert _verdict(
        8,
        "difference-quotient bounds",
        ok,
        f"{report.bound_violations} violations at steps 0.5/0.1/0.01 "
        "with envelope 2*u*e^(2u)",
    )


def test_criterion_09_maximum_principle_search():
    t0 = time.perf_counter()
    report = max_principle_search(n_instances=10_000, seed=0)
    elapsed = time.perf_counter() - t0
    ok = not report.found_counterexample and elapsed <= 60.0
    assert _verdict(
        9,
        "maximum principle search",
        ok,
        f"{report.n_instances} instances, premises-fail {report.premises_fail}, "
        f"conclusion-holds {report.conclusion_holds}, "
        f"counterexamples {len(report.counterexamples)}, {elapsed:.2f}s",
    )


def _strictness_pairs():
    """Twenty deterministic disk weight pairs with sign-changing psi - phi."""
    rng = np.random.default_rng(1234)
    pairs = []
    while len(pairs) < 20:
        recipe = len(pairs) % 3
        if recipe == 0:
            a = rng.uniform(0.8, 1.6)
            c = a * rng.uniform(0.25, 0.75)
            pairs.append((gauss_weight(a), constant_weight(c)))
        elif recipe == 1:
            b = rng.uniform(0.5, 1.5)
            pairs.append((constant_weight(0.0), harmonic_weight(b)))
        else:
            a = rng.uniform(1.0, 1.8)
            c1 = rng.uniform(0.0, 0.5)
            c0 = (a - c1) * rng.uniform(0.2, 0.6)
            pairs.append((gauss_weight(a), radial_poly_weight([c0, c1])))
    return pairs


def test_criterion_10_strict_inequality():
    measure = build_disk_measure(1.0, 20, 40)
    span = monomial_span(measure, 8)
    worst_margin = math.inf
    for i, (phi, psi) in enumerate(_strictness_pairs()):
        phi = eval_weight(phi, measure)
        psi = eval_weight(psi, measure)
        s = sublevel_set(phi, psi)
        assert 0 < s.sum() < s.size, f"pair {i}: sublevel set must be proper"
        psi_rank = build_space(span, measure, psi).rank
        assert psi_rank >= 1, f"pair {i}: psi space must have rank >= 1"
        rep = comparison_integrals(phi, psi, span, measure)
        worst_margin = min(worst_margin, rep.margin)
    ok = worst_margin > 1e-10
    assert _verdict(
        10,
        "strict comparison on disks",
        ok,
        f"smallest margin {worst_margin:.3e} over 20 scenarios",
    )
