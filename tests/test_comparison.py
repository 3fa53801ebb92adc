"""Comparison principle, sublevel sets, reductions, and the maximum principle."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergmanlab import (
    ComparisonReport,
    InvalidConfigurationError,
    Spaces,
    build_discrete_measure,
    build_disk_measure,
    eval_weight,
    gauss_weight,
    kernels,
    max_principle_check,
    monomial_span,
    reduce_less_singular,
    sandwich_check,
    shifted_comparison_sweep,
    sublevel_set,
    tabulated_span,
    tabulated_weight,
)
from bergmanlab.comparison import (
    DENSITY_POINT_TOL,
    MAXPRINCIPLE_CONCLUSION_HOLDS,
    MAXPRINCIPLE_COUNTEREXAMPLE,
    MAXPRINCIPLE_PREMISES_FAIL,
    VERDICT_EQUAL_BOTH_ZERO,
    VERDICT_NOT_APPLICABLE,
    VERDICT_STRICT,
    max_principle_verdicts,
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
    assert np.array_equal(reduce_less_singular(phi, above).values, phi.values)
    below = eval_weight(tabulated_weight([-0.5, -1.0]), measure)
    assert np.array_equal(reduce_less_singular(phi, below).values, below.values)


@pytest.mark.parametrize("side", [1.0, -1.0], ids=["psi-above", "psi-below"])
def test_sandwich_builds_no_third_space_when_psi_is_on_one_side(side, monkeypatch):
    """Where psi >= phi, or psi <= phi, at every node (ties included), psi0
    has the values of phi or of psi, so the context returns its space."""
    measure, span, phi, _ = random_pair(12)
    psi = eval_weight(
        tabulated_weight(phi.values + side * np.linspace(0.0, 1.0, measure.n)),
        measure,
    )
    built = []
    build = kernels.build_space
    monkeypatch.setattr(
        kernels, "build_space", lambda *args: built.append(args) or build(*args)
    )
    assert sandwich_check(Spaces(span, measure), phi, psi).ok
    assert len(built) == 2


def test_reduction_agrees_on_sublevel_set():
    """psi0 is psi bit for bit on S and phi elsewhere.  At (phi, psi) =
    (1.3, -1.1), phi + (psi - phi) would round to -1.1000000000000003."""
    measure, span, phi, psi = random_pair(8)
    phi = eval_weight(tabulated_weight(np.r_[1.3, phi.values[1:]]), measure)
    psi = eval_weight(tabulated_weight(np.r_[-1.1, psi.values[1:]]), measure)
    psi0 = reduce_less_singular(phi, psi)
    s = sublevel_set(phi, psi)
    assert np.array_equal(psi0.values[s], psi.values[s])
    assert np.array_equal(psi0.values[~s], phi.values[~s])
    assert np.array_equal(psi0.values, np.minimum(phi.values, psi.values))
    assert psi0.values[0] == -1.1


@pytest.mark.parametrize("seed", range(4))
def test_sandwich_chain(seed):
    measure, span, phi, psi = random_pair(seed + 50)
    rep = sandwich_check(Spaces(span, measure), phi, psi)
    assert rep.lower_ok and rep.upper_ok
    assert rep.ok
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
    assert _report(0.0, 0.0).verdict == VERDICT_EQUAL_BOTH_ZERO
    assert _report(0.2, 0.5).verdict == VERDICT_STRICT
    assert _report(0.5, 0.5 + 1e-12).verdict == VERDICT_NOT_APPLICABLE
    improper = _report(0.2, 0.5, set_proper=False)
    assert improper.verdict == VERDICT_NOT_APPLICABLE


def test_a_rank_zero_psi_is_never_strict():
    """e^{-800} underflows, so the psi space has rank 0 and K = 0 at every
    node: rhs is 0.0 exactly at every shift, and no verdict is strict, even
    on a proper set with lhs well above the strict margin."""
    measure = build_disk_measure(1.0, 6, 12)
    spaces = Spaces(monomial_span(measure, 3), measure)
    psi = tabulated_weight(np.full(measure.n, 800.0))
    assert spaces(psi).rank == 0
    shifts = (-1.0, 0.0, 799.5, 800.5, 1000.0)
    reports = shifted_comparison_sweep(spaces, gauss_weight(1.0), psi, shifts)
    for rep in reports:
        assert rep.rhs == 0.0
        assert rep.verdict != VERDICT_STRICT
        assert not rep.strict_expected
    # At c = 799.5 the set {|z|^2 > 0.5} is proper and carries phi's mass.
    assert reports[2].set_proper and reports[2].lhs > 1.0
    assert reports[2].verdict == VERDICT_NOT_APPLICABLE


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


def test_max_principle_verdicts_row_by_row():
    """One pass judges hand-built rows (stack axis first): the verdict, and
    for a candidate the largest relative density deficit over omega."""
    n = np.nan
    b_small = 5.7e-5
    # A relative deficit at a node of omega is admitted up to
    # DENSITY_POINT_TOL * (1 + 1 / b_psi), 1.75e-8 here.
    admitted = DENSITY_POINT_TOL * (1.0 + 1.0 / b_small)
    rows = [
        # (omega, b_phi, b_psi, phi, psi, verdict, approach)
        # The density premise fails at node 1 of omega: a candidate.
        ([1, 1, 0], [1.0, 0.5, 1.0], [1.0, 0.6, 1.0], [1, 0, 0], [0, 0, 0],
         MAXPRINCIPLE_PREMISES_FAIL, (0.6 - 0.5) / 0.6),
        # The boundary premise fails at node 1, off omega.
        ([1, 0, 0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [0, 1, 0], [0, 0, 0],
         MAXPRINCIPLE_PREMISES_FAIL, n),
        # The conclusion holds.
        ([1, 0, 0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [0, 0, 0], [1, 1, 1],
         MAXPRINCIPLE_CONCLUSION_HOLDS, n),
        # A counterexample; the deficit off omega does not count.
        ([1, 0, 0], [0.4, 1.0, 1.0], [0.4, 2.0, 2.0], [1, 0, 0], [0, 0, 0],
         MAXPRINCIPLE_COUNTEREXAMPLE, 0.0),
        # Ties phi = psi at node 0 (in omega) and node 1 (off it) count as
        # phi <= psi.
        ([1, 0, 0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [0.5, 0, 0], [0.5, 0, 1],
         MAXPRINCIPLE_CONCLUSION_HOLDS, n),
        # A deficit inside the admitted slack, and one beyond it.
        ([0, 1, 0], [1.0, b_small * (1 - admitted / 2), 1.0],
         [1.0, b_small, 1.0], [0, 1, 0], [0, 0, 0],
         MAXPRINCIPLE_COUNTEREXAMPLE, admitted / 2),
        ([0, 1, 0], [1.0, b_small * (1 - 2 * admitted), 1.0],
         [1.0, b_small, 1.0], [0, 1, 0], [0, 0, 0],
         MAXPRINCIPLE_PREMISES_FAIL, 2 * admitted),
    ]
    omega, b_phi, b_psi, phi, psi, verdicts, approach = map(np.array, zip(*rows))
    omega, phi, psi = omega.astype(bool), phi.astype(float), psi.astype(float)
    got_verdicts, got_approach = max_principle_verdicts(b_phi, b_psi, phi, psi, omega)
    assert got_verdicts.tolist() == verdicts.tolist()
    np.testing.assert_allclose(got_approach, approach, rtol=1e-6, atol=0.0)
    assert got_approach[0] == approach[0]
    # A lone row (no stack axis) gets what its row of the stack gets.
    lone, lone_approach = max_principle_verdicts(
        b_phi[0], b_psi[0], phi[0], psi[0], omega[0]
    )
    assert (str(lone), float(lone_approach)) == (verdicts[0], approach[0])


def test_max_principle_check_where_the_span_vanishes_at_a_node():
    """No span function is nonzero at node 2, so both densities are 0 there:
    phi > psi at that node of omega breaks no premise, and the check says
    counterexample without a floating-point warning."""
    measure = build_discrete_measure([0.0, 1.0, 2.0j], [1.0, 1.0, 1.0])
    span = tabulated_span(np.array([[1, 0], [0, 1], [0, 0]], dtype=complex))
    phi = eval_weight(tabulated_weight([0.0, 0.0, 1.0]), measure)
    psi = eval_weight(tabulated_weight([0.0, 0.0, 0.0]), measure)
    omega = np.array([False, False, True])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        verdict = max_principle_check(Spaces(span, measure), phi, psi, omega)
    assert verdict == MAXPRINCIPLE_COUNTEREXAMPLE


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
