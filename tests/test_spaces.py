"""The Spaces context: one build per distinct space of a span and a measure."""

import glob
import os
import sys

import numpy as np
import pytest

from bergmanlab import (
    InvalidMeasureError,
    Spaces,
    assemble_gram,
    build_discrete_measure,
    build_disk_measure,
    build_path,
    build_space,
    check_instance,
    eval_weight,
    gauss_weight,
    generate_instance,
    kernels,
    g_of_t,
    load_scenario_file,
    monomial_span,
    run_battery,
    run_scenario,
    sandwich_check,
    shifted_comparison_sweep,
    sublevel_set,
    tabulated_span,
    tabulated_weight,
)
from bergmanlab.homotopy import T_GRID, weight_at
from bergmanlab.scenarios import DEFAULT_C_GRID

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")
SCENARIOS = sorted(glob.glob(os.path.join(SCENARIO_DIR, "*.json")))


@pytest.fixture
def calls(monkeypatch):
    """Every build_space and assemble_gram call in the package, by name.

    Each call is kept as (span, measure, weight bytes).  Each module that
    imported either function by name is patched, so a call outside the
    context counts too, and so does the Gram that build_space assembles.
    The spans and measures are kept alive, so their ids are never reused
    within a test.
    """
    counted = {}
    for fn in (build_space, assemble_gram):
        wrapper = _counting(fn, counted.setdefault(fn.__name__, []))
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "bergmanlab" and module is not None:
                if getattr(module, fn.__name__, None) is fn:
                    monkeypatch.setattr(module, fn.__name__, wrapper)
    return counted


def _counting(fn, made):
    def counted(span, measure, weight, *args, **kwargs):
        made.append((span, measure, eval_weight(weight, measure).values.tobytes()))
        return fn(span, measure, weight, *args, **kwargs)

    return counted


def _distinct(calls):
    return {(id(span), id(measure), key) for span, measure, key in calls}


def test_each_distinct_space_of_a_battery_instance_is_built_once(calls):
    """From draw to verdict, each distinct space has one build and one Gram.

    The draw's tame check reads the spread of the spaces the checks use.
    """
    builds, grams = calls["build_space"], calls["assemble_gram"]
    rng = np.random.default_rng(0)
    for i in range(20):
        check_instance(generate_instance(rng, i))
        assert builds, "the patched build_space was never called"
        assert len(builds) == len(_distinct(builds)), f"instance {i}"
        assert len(grams) == len(_distinct(builds)), f"instance {i}"
        builds.clear()
        grams.clear()


@pytest.mark.parametrize("path", SCENARIOS, ids=os.path.basename)
def test_each_distinct_space_of_a_scenario_is_built_once(calls, path):
    builds = calls["build_space"]
    assert run_scenario(load_scenario_file(path)).green
    assert builds
    assert len(builds) == len(_distinct(builds))
    assert len(calls["assemble_gram"]) == len(builds)


@pytest.fixture
def diagonals(monkeypatch):
    """Every space the package builds, and every kernel diagonal it forms.

    A diagonal is the row norms of a space's node values, which
    kernels._node_row_norms forms ring by ring or from the blocks; the
    residual's row norms, of E A, are the calls that pass A.  Returns a
    function that gives, for each space built so far, the number of
    diagonals formed for it.
    """
    built, formed = [], []
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "bergmanlab" and module is not None:
            if getattr(module, "build_space", None) is build_space:
                monkeypatch.setattr(module, "build_space", _keeping(built))
    row_norms = kernels._node_row_norms

    def counted(space, a=None):
        if a is None:
            formed.append(space)
        return row_norms(space, a)

    monkeypatch.setattr(kernels, "_node_row_norms", counted)

    def per_space():
        return [sum(s is space for s in formed) for space in built]

    return per_space


def _keeping(built):
    def kept(*args, **kwargs):
        space = build_space(*args, **kwargs)
        built.append(space)
        return space

    return kept


def test_a_battery_forms_one_kernel_diagonal_per_build(diagonals):
    """Densities, the residual and the homotopy read one diagonal a space."""
    run_battery(20, 0)
    counts = diagonals()
    assert counts, "the patched build_space was never called"
    assert set(counts) == {1}


def test_the_shipped_scenarios_form_one_kernel_diagonal_per_build(diagonals):
    for path in SCENARIOS:
        assert run_scenario(load_scenario_file(path)).green
    counts = diagonals()
    assert (len(counts), set(counts)) == (78, {1})


def _discrete(m=9, d=3, seed=5):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.6, 1.4, m) * np.exp(2j * np.pi * rng.uniform(size=m))
    measure = build_discrete_measure(pts, np.exp(rng.uniform(-1.0, 1.0, m)))
    vals = rng.standard_normal((m, d)) + 1j * rng.standard_normal((m, d))
    phi = tabulated_weight(rng.uniform(-2.0, 2.0, m))
    psi = tabulated_weight(rng.uniform(-2.0, 2.0, m))
    return measure, tabulated_span(vals), phi, psi


def test_a_closed_form_weight_and_its_tabulation_share_one_space():
    measure = build_disk_measure(1.0, 6, 12)
    spaces = Spaces(monomial_span(measure, 4), measure)
    phi = gauss_weight(1.0)
    tabulated = tabulated_weight(eval_weight(phi, measure).values)
    assert spaces(tabulated) is spaces(phi)
    assert spaces(phi) is spaces(phi)


def test_the_path_at_t_zero_reuses_the_space_of_phi():
    measure, span, phi, psi = _discrete()
    spaces = Spaces(span, measure)
    path = build_path(spaces, phi, psi)
    assert path.spaces is spaces
    assert spaces(weight_at(path, 0.0)) is spaces(phi)


def test_a_weight_of_the_wrong_length_is_rejected_before_it_is_keyed():
    measure, span, _, _ = _discrete()
    spaces = Spaces(span, measure)
    with pytest.raises(InvalidMeasureError, match="tabulates 2 nodes, measure has 9"):
        spaces(tabulated_weight([0.0, 1.0]))


def test_a_context_space_has_the_densities_of_its_own_build():
    measure, span, phi, psi = _discrete()
    spaces = Spaces(span, measure)
    for weight in (phi, psi, phi):
        assert np.array_equal(
            spaces(weight).density,
            build_space(span, measure, weight).density,
        )


def _k_e_minus_phi(space):
    """B as K(z, z) e^{-phi}, the formula the comparison sums multiplied out."""
    return space.diagonal * np.exp(-space.weight.values)


def _battery_instances(seed=1, n=4):
    """The first n instances of run_battery(n, seed), from the same stream."""
    rng = np.random.default_rng(seed)
    return [generate_instance(rng, i) for i in range(n)]


def test_each_space_forms_its_density_and_bergman_measure_once(monkeypatch):
    """B = K e^{-phi} and P = w B on every space of the shipped scenarios
    and of battery instances at seed 1, bit for bit, formed on the first
    read and kept read-only."""
    built = []
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "bergmanlab" and module is not None:
            if getattr(module, "build_space", None) is build_space:
                monkeypatch.setattr(module, "build_space", _keeping(built))
    for path in SCENARIOS:
        assert run_scenario(load_scenario_file(path)).green
    for inst in _battery_instances():
        check_instance(inst)
    assert len(built) > 78
    for space in built:
        b = _k_e_minus_phi(space)
        assert np.array_equal(space.density, b)
        assert np.array_equal(space.projector_diagonal, space.measure.masses * b)
        assert space.density is space.density
        assert space.projector_diagonal is space.projector_diagonal
        for values in (space.density, space.projector_diagonal):
            with pytest.raises(ValueError):
                values[0] = 0.0


def _compared_pairs():
    """(spaces, phi, psi, c_grid) of each shipped scenario with a psi and of
    battery instances at seed 1."""
    pairs = []
    for path in SCENARIOS:
        config = load_scenario_file(path)
        if config.psi is not None:
            spaces = Spaces(config.span, config.measure)
            pairs.append((spaces, config.phi, config.psi, config.c_grid))
    for inst in _battery_instances():
        pairs.append((inst.spaces, inst.phi, inst.psi, DEFAULT_C_GRID))
    return pairs


def test_the_judged_sums_of_the_bergman_measure_are_the_mass_density_sums():
    """The comparison integrals, G(t) and the sandwich sum P = w B and give
    the numbers that w and B multiplied at each sum gave, bit for bit."""
    pairs = _compared_pairs()
    assert len(pairs) == 7
    for spaces, phi, psi, c_grid in pairs:
        masses = spaces.measure.masses
        space_phi, space_psi = spaces(phi), spaces(psi)
        b_phi, b_psi = _k_e_minus_phi(space_phi), _k_e_minus_phi(space_psi)
        reports = shifted_comparison_sweep(spaces, phi, psi, c_grid)
        for c, report in zip(c_grid, reports):
            s = sublevel_set(space_phi.weight, space_psi.weight, c)
            assert report.lhs == float(np.sum(masses[s] * b_phi[s]))
            assert report.rhs == float(np.sum(masses[s] * b_psi[s]))
        path = build_path(spaces, phi, psi)
        for t in T_GRID:
            b = _k_e_minus_phi(spaces(weight_at(path, t)))
            assert g_of_t(path, t) == float(np.sum(path.profile * masses * b))
        (at_zero,) = shifted_comparison_sweep(spaces, phi, psi, (0.0,))
        sandwich = sandwich_check(spaces, phi, psi)
        assert (sandwich.lhs, sandwich.rhs) == (at_zero.lhs, at_zero.rhs)
