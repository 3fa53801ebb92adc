"""Comparison principle, sublevel sets, reductions, and the maximum principle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergmanlab import (
    ComparisonReport,
    InvalidConfigurationError,
    Spaces,
    build_discrete_measure,
    eval_weight,
    max_principle_check,
    monomial_span,
    reduce_less_singular,
    sandwich_check,
    shifted_comparison_sweep,
    strictness_check,
    sublevel_set,
    tabulated_span,
    tabulated_weight,
)
from bergmanlab.comparison import (
    MAXPRINCIPLE_CONCLUSION_HOLDS,
    MAXPRINCIPLE_PREMISES_FAIL,
    VERDICT_EQUAL_BOTH_ZERO,
    VERDICT_NOT_APPLICABLE,
    VERDICT_STRICT,
)

E = math.e


def two_node():
    measure = build_discrete_measure([0.0, 1.0], [1.0, 1.0])
    span = monomial_span(measure, 0)
    phi = eval_weight(tabulated_weight([0.0, 0.0]), measure)
    psi = eval_weight(tabulated_weight([-1.0, 1.0]), measure)
    return measure, span, phi, psi


def random_pair(seed, m=14, d=4):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.6, 1.4, m) * np.exp(2j * np.pi * rng.uniform(size=m))
    measure = build_discrete_measure(pts, np.exp(rng.uniform(-1.0, 1.0, m)))
    vals = rng.standard_normal((m, d)) + 1j * rng.standard_normal((m, d))
    span = tabulated_span(vals)
    phi = eval_weight(tabulated_weight(rng.uniform(-2.0, 2.0, m)), measure)
    psi = eval_weight(tabulated_weight(rng.uniform(-2.0, 2.0, m)), measure)
    return measure, span, phi, psi


def test_sublevel_set_is_strict():
    """Ties psi == phi fall outside the sublevel region."""
    measure, span, phi, psi = two_node()
    tied = eval_weight(tabulated_weight([0.0, -0.5]), measure)
    s = sublevel_set(phi, tied)
    assert list(np.flatnonzero(s)) == [1]
    assert np.count_nonzero(s) == 1
    assert 0 < s.sum() < s.size
    assert list(s.astype(float)) == [0.0, 1.0]


def test_sublevel_set_shift_moves_threshold():
    measure, span, phi, psi = two_node()
    assert np.count_nonzero(sublevel_set(phi, psi, c=0.0)) == 1
    assert np.count_nonzero(sublevel_set(phi, psi, c=-1.0)) == 0
    every = sublevel_set(phi, psi, c=1.5)
    assert np.count_nonzero(every) == 2
    assert not 0 < every.sum() < every.size


def test_two_node_closed_form():
    """Hand-computable reference: B values are logistic weights."""
    measure, span, phi, psi = two_node()
    rep = shifted_comparison_sweep(Spaces(span, measure), phi, psi, (0.0,))[0]
    assert rep.set_size == 1
    assert rep.set_proper
    assert abs(rep.lhs - 0.5) <= 1e-12
    assert abs(rep.rhs - E / (E + 1.0 / E)) <= 1e-12
    assert abs(rep.margin - (E / (E + 1.0 / E) - 0.5)) <= 1e-12


@pytest.mark.parametrize("seed", range(8))
def test_comparison_holds_on_random_pairs(seed):
    measure, span, phi, psi = random_pair(seed)
    rep = shifted_comparison_sweep(Spaces(span, measure), phi, psi, (0.0,))[0]
    assert rep.margin >= -1e-12 * (1.0 + abs(rep.rhs))


@pytest.mark.parametrize("seed", range(4))
def test_sweep_nested_and_clean(seed):
    """Shift sweeps keep the inequality and grow the sets monotonically."""
    measure, span, phi, psi = random_pair(seed + 100)
    reports = shifted_comparison_sweep(
        Spaces(span, measure), phi, psi, (-2.0, -1.0, 0.0, 1.0, 2.0)
    )
    sizes = [r.set_size for r in reports]
    assert sizes == sorted(sizes)
    for rep in reports:
        assert rep.margin >= -1e-12 * (1.0 + abs(rep.rhs))


def test_comparison_invariant_under_common_shift():
    """Shifting phi by c equals widening the sublevel threshold by -c."""
    measure, span, phi, psi = random_pair(7)
    shifted_phi = eval_weight(tabulated_weight(phi.values + 0.8), measure)
    spaces = Spaces(span, measure)
    via_c = shifted_comparison_sweep(spaces, phi, psi, (0.8,))[0]
    direct = shifted_comparison_sweep(spaces, shifted_phi, psi, (0.0,))[0]
    assert via_c.set_size == direct.set_size
    assert via_c.lhs == pytest.approx(direct.lhs, rel=1e-12)
    assert via_c.rhs == pytest.approx(direct.rhs, rel=1e-12)


def test_reduce_less_singular_cases():
    measure, span, phi, psi = two_node()
    mixed = reduce_less_singular(phi, psi)
    assert np.allclose(mixed.values, [-1.0, 0.0])
    above = eval_weight(tabulated_weight([0.5, 1.0]), measure)
    assert reduce_less_singular(phi, above) is phi
    below = eval_weight(tabulated_weight([-0.5, -1.0]), measure)
    assert reduce_less_singular(phi, below) is below


def test_reduction_agrees_on_sublevel_set():
    measure, span, phi, psi = random_pair(8)
    psi0 = reduce_less_singular(phi, psi)
    s = sublevel_set(phi, psi)
    assert np.allclose(psi0.values[s], psi.values[s])
    assert np.allclose(psi0.values[~s], phi.values[~s])
    assert np.all(psi0.values <= psi.values + 1e-15)


@pytest.mark.parametrize("seed", range(4))
def test_sandwich_chain(seed):
    measure, span, phi, psi = random_pair(seed + 50)
    rep = sandwich_check(Spaces(span, measure), phi, psi)
    assert rep.lower_ok and rep.upper_ok
    assert bool(rep)
    assert rep.lhs <= rep.mid + 1e-10 * (1.0 + abs(rep.mid))
    assert rep.mid <= rep.rhs + 1e-10 * (1.0 + abs(rep.rhs))


def _report(lhs, rhs, set_size=1, set_proper=True):
    return ComparisonReport(
        shift=0.0,
        lhs=lhs,
        rhs=rhs,
        margin=rhs - lhs,
        set_size=set_size,
        set_proper=set_proper,
        strict_expected=False,
    )


def test_strictness_verdicts():
    assert strictness_check(_report(0.0, 0.0), True) == VERDICT_EQUAL_BOTH_ZERO
    assert strictness_check(_report(0.2, 0.5), True) == VERDICT_STRICT
    near = strictness_check(_report(0.5, 0.5 + 1e-12), True)
    assert near == VERDICT_NOT_APPLICABLE
    improper = strictness_check(_report(0.2, 0.5, set_proper=False), True)
    assert improper == VERDICT_NOT_APPLICABLE
    trivial = strictness_check(_report(0.2, 0.5), False)
    assert trivial == VERDICT_NOT_APPLICABLE


def test_max_principle_premise_branches():
    measure, span, phi, psi = random_pair(9, m=10, d=3)
    omega = np.zeros(10, dtype=bool)
    omega[:4] = True

    # Forcing psi >= phi everywhere makes the conclusion automatic whenever
    # the premises hold; build the lift so the off-region premise holds.
    lift = np.where(omega, 0.0, 1.0)
    psi_ok = eval_weight(tabulated_weight(phi.values + lift), measure)
    verdict = max_principle_check(Spaces(span, measure), phi, psi_ok, omega)
    assert verdict in (MAXPRINCIPLE_PREMISES_FAIL, MAXPRINCIPLE_CONCLUSION_HOLDS)

    # Violating the boundary premise is reported as such.
    psi_bad = eval_weight(tabulated_weight(phi.values - 1.0), measure)
    assert (
        max_principle_check(Spaces(span, measure), phi, psi_bad, omega)
        == MAXPRINCIPLE_PREMISES_FAIL
    )


def test_max_principle_identical_weights_conclude():
    measure, span, phi, _ = random_pair(10, m=8, d=2)
    omega = np.zeros(8, dtype=bool)
    omega[0] = True
    verdict = max_principle_check(Spaces(span, measure), phi, phi, omega)
    assert verdict == MAXPRINCIPLE_CONCLUSION_HOLDS


def test_max_principle_omega_validation():
    measure, span, phi, psi = random_pair(11, m=6, d=2)
    spaces = Spaces(span, measure)
    with pytest.raises(InvalidConfigurationError, match="proper subset"):
        max_principle_check(spaces, phi, psi, np.ones(6, dtype=bool))
    with pytest.raises(InvalidConfigurationError, match="proper subset"):
        max_principle_check(spaces, phi, psi, np.zeros(6, dtype=bool))
    with pytest.raises(InvalidConfigurationError):
        max_principle_check(spaces, phi, psi, np.zeros(5, dtype=bool))


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(3, 12), d=st.integers(1, 4))
def test_property_comparison_inequality(seed, m, d):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.5, 1.5, m) * np.exp(2j * np.pi * rng.uniform(size=m))
    measure = build_discrete_measure(pts, np.exp(rng.uniform(-1.0, 1.0, m)))
    vals = rng.standard_normal((m, d)) + 1j * rng.standard_normal((m, d))
    span = tabulated_span(vals)
    phi = eval_weight(tabulated_weight(rng.uniform(-2.0, 2.0, m)), measure)
    psi = eval_weight(tabulated_weight(rng.uniform(-2.0, 2.0, m)), measure)
    spaces = Spaces(span, measure)
    if max(spaces(w).spread for w in (phi, psi)) > 1e8:
        return
    rep = shifted_comparison_sweep(spaces, phi, psi, (0.0,))[0]
    assert rep.margin >= -1e-10 * (1.0 + abs(rep.rhs))
