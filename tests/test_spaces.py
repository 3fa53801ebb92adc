"""The Spaces context: one build per distinct space of a span and a measure."""

import glob
import os
import types

import numpy as np
import pytest

from bergmanlab import (
    InvalidConfigurationError,
    InvalidMeasureError,
    Spaces,
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
    scaled_weight,
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
def made(monkeypatch):
    """Every space the package makes, and every stack of Grams it factors.

    Every space is made by Spaces._build from a stack of Grams, whether
    alone or in a stack, so made.spaces lists each space however it was
    built.  made.stacks holds the number of Grams of each orthonormal_bases
    call.  The spaces keep their spans and measures alive, so their ids are
    never reused within a test.
    """
    record = types.SimpleNamespace(spaces=[], stacks=[])
    build, factor = Spaces._build, kernels.orthonormal_bases

    def made_spaces(self, missing):
        build(self, missing)
        record.spaces.extend(self._built[key] for key in missing)

    def counted(grams):
        record.stacks.append(len(grams))
        return factor(grams)

    monkeypatch.setattr(Spaces, "_build", made_spaces)
    monkeypatch.setattr(kernels, "orthonormal_bases", counted)
    return record


def _distinct(spaces):
    return {
        (id(s.span), id(s.measure), s.weight.values.tobytes()) for s in spaces
    }


def test_each_distinct_space_of_a_battery_instance_is_built_once(made):
    """From draw to verdict, each distinct space is made once from one Gram,
    in two stacks: the draw's tame check builds the three spaces whose
    spread it reads, and check_instance the others.
    """
    rng = np.random.default_rng(0)
    for i in range(20):
        check_instance(generate_instance(rng, i))
        assert made.spaces, "no space was made"
        assert len(made.spaces) == len(_distinct(made.spaces)), f"instance {i}"
        assert sum(made.stacks) == len(made.spaces), f"instance {i}"
        assert len(made.stacks) == 2 and made.stacks[0] == 3, f"instance {i}"
        made.spaces.clear()
        made.stacks.clear()


@pytest.mark.parametrize("path", SCENARIOS, ids=os.path.basename)
def test_each_distinct_space_of_a_scenario_is_built_once(made, path):
    assert run_scenario(load_scenario_file(path)).green
    assert made.spaces
    assert len(made.spaces) == len(_distinct(made.spaces))
    assert sum(made.stacks) == len(made.spaces)


@pytest.fixture
def diagonals(made, monkeypatch):
    """Every space the package builds, and every kernel diagonal it forms.

    A diagonal is the row norms of a space's node values, which
    kernels._node_row_norms forms ring by ring or from the blocks.  Returns
    a function that gives, for each space built so far, the number of
    diagonals formed for it.
    """
    formed = []
    row_norms = kernels._node_row_norms

    def counted(space):
        formed.append(space)
        return row_norms(space)

    monkeypatch.setattr(kernels, "_node_row_norms", counted)

    def per_space():
        return [sum(s is space for s in formed) for space in made.spaces]

    return per_space


def test_a_battery_forms_one_kernel_diagonal_per_build(diagonals, made):
    """Densities and the homotopy read one diagonal a space, and the seed-0
    battery makes the 3 795 spaces in 400 stacks that README states: two
    for each instance, none of which is resampled."""
    run_battery(200, 0)
    counts = diagonals()
    assert (len(counts), set(counts)) == (3795, {1})
    assert (len(made.stacks), sum(made.stacks)) == (400, 3795)


def test_the_shipped_scenarios_form_one_kernel_diagonal_per_build(diagonals):
    for path in SCENARIOS:
        assert run_scenario(load_scenario_file(path)).green
    counts = diagonals()
    assert (len(counts), set(counts)) == (78, {1})


def test_a_scenarios_pass_makes_the_pinned_work_counts(made):
    """The four shipped scenarios factor their 78 Grams in 14 stacks: each
    homotopy check builds its 33 path spaces as one stack, and the other
    spaces (phi, psi, the sandwich's psi0, the ladder's rungs) are built
    alone.  Each scenario's context reports its own share."""
    reports = [run_scenario(load_scenario_file(path)) for path in SCENARIOS]
    assert (len(made.stacks), sum(made.stacks)) == (14, 78)
    assert sorted(made.stacks) == [1] * 12 + [33, 33]
    assert {r.scenario_id: (r.spaces["built"], r.spaces["stacks"]) for r in reports} == {
        "disk-fock-scaling": (1, 1),
        "disk-strict-pair": (36, 4),
        "maxprinciple-example": (2, 2),
        "two-node-reference": (36, 4),
    }


def _assert_lone_builds_equal(spaces):
    for space in spaces:
        lone = build_space(space.span, space.measure, space.weight)
        assert np.array_equal(space.ortho_coeffs, lone.ortho_coeffs)
        assert (space.rank, space.spread) == (lone.rank, lone.spread)
        assert np.array_equal(space.diagonal, lone.diagonal)


def test_a_stacked_space_equals_its_lone_build_bit_for_bit(made):
    """Over the paths of the shipped scenarios and instances 0-19 of battery
    seed 0, every space that Spaces.many stacks has the coefficients, rank,
    spread and kernel diagonal of its own build_space."""
    for path in SCENARIOS:
        run_scenario(load_scenario_file(path))
    rng = np.random.default_rng(0)
    for i in range(20):
        check_instance(generate_instance(rng, i))
    stacked = list(made.spaces)
    assert max(made.stacks) == 33
    _assert_lone_builds_equal(stacked)


def test_a_stack_on_the_ring_path_equals_its_lone_builds():
    """On the disk rule above the ring floor each Gram of a stack is a ring
    Gram, and the stack still factors them as one."""
    measure = build_disk_measure(1.0, 64, 128)
    span = monomial_span(measure, 11)
    assert kernels._ring_path(span, measure)
    spaces = Spaces(span, measure)
    weights = [scaled_weight(gauss_weight(1.0), k) for k in (0.5, 1.0, 2.0)]
    spaces.many(weights)
    assert spaces.counts()["stacks"] == 1
    _assert_lone_builds_equal([spaces(w) for w in weights])


def _stack_weights(m=40, d=5, n=7, seed=3):
    rng = np.random.default_rng(seed)
    measure, span, _, _ = _discrete(m, d, seed)
    weights = [tabulated_weight(rng.uniform(-2.0, 2.0, m)) for _ in range(n)]
    return measure, span, weights


def test_a_chunked_stack_equals_the_stack_left_whole(monkeypatch):
    """With STACK_BYTES at two weights' worth of span values, seven weights
    take four Gram products, and every space is the one a single product
    gives, bit for bit."""
    measure, span, weights = _stack_weights()
    products = []
    dense_gram = kernels._dense_gram

    def counted(values, factor):
        products.append(factor.shape[:-1])
        return dense_gram(values, factor)

    monkeypatch.setattr(kernels, "_dense_gram", counted)
    whole, chunked = Spaces(span, measure), Spaces(span, measure)
    whole.many(weights)
    monkeypatch.setattr(kernels, "STACK_BYTES", 2 * span.basis_values.nbytes)
    chunked.many(weights)
    assert products == [(7,), (2,), (2,), (2,), (1,)]
    for weight in weights:
        a, b = whole(weight), chunked(weight)
        assert np.array_equal(a.ortho_coeffs, b.ortho_coeffs)
        assert (a.rank, a.spread) == (b.rank, b.spread)
        assert np.array_equal(a.diagonal, b.diagonal)


def test_a_rejected_stack_raises_where_the_lone_build_does():
    """A Gram that is not finite, third of four, drops the stack: many
    raises nothing and builds nothing, each good weight is then built
    alone, and the bad one raises the lone build's error when requested."""
    measure, span, weights = _stack_weights(n=4)
    bad = tabulated_weight(np.where(np.arange(measure.n) == 5, -800.0, 0.0))
    weights[2] = bad
    spaces = Spaces(span, measure)
    spaces.many(weights)
    assert spaces.counts() == {"built": 0, "stacks": 0, "max_spread": None}
    _assert_lone_builds_equal([spaces(weights[0]), spaces(weights[3])])
    with pytest.raises(InvalidConfigurationError) as lone:
        build_space(span, measure, bad)
    with pytest.raises(InvalidConfigurationError) as stacked:
        spaces(bad)
    assert str(stacked.value) == str(lone.value)
    assert "gram is not finite" in str(lone.value)
    assert spaces.counts()["stacks"] == 2


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


def test_each_space_forms_its_density_and_bergman_measure_once(made):
    """B = K e^{-phi} and P = w B on every space of the shipped scenarios
    and of battery instances at seed 1, bit for bit, formed on the first
    read and kept read-only."""
    built = made.spaces
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
