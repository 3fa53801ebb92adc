"""Fuzzing of the input contract: a mutated scenario exits 0, 1 or 2.

Each example takes a valid scenario, replaces one or two of its fields (at
any depth) with a value from a fixed pool of hostile values, and runs it
through ``bergmanlab run``.  Whatever the mutation, the command must end
with an exit status (green, red or a configuration error) and never with
an escaping exception.  The pool holds only small integers, so no mutation
can ask for a large quadrature rule.
"""

import copy
import json
import math
import os
import tempfile
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bergmanlab.cli import EXIT_CONFIG, EXIT_GREEN, EXIT_RED, main

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")

SMALL_DISK = {
    "id": "small-disk",
    "measure": {"kind": "disk-product", "radius": 1.0, "n_radial": 6, "n_angular": 12},
    "span": {"kind": "monomials", "degree": 2},
    "phi": {"family": "gauss", "a": 1.0},
    "psi": {"family": "constant", "c": 0.5},
    "omega": [0, 1, 2],
    "checks": ["structural", "comparison", "sweep", "homotopy", "tcz", "maxprinciple"],
    "params": {
        "c_grid": [-0.5, 0.0, 0.5],
        "k_list": [4.0, 6.0],
        "interior_radius": 0.3,
    },
}


def _load(name):
    with open(os.path.join(SCENARIO_DIR, name)) as fh:
        return json.load(fh)


BASES = (
    _load("two-node-reference.json"),
    _load("maxprinciple-example.json"),
    SMALL_DISK,
)

POOL = (
    math.nan,
    math.inf,
    -math.inf,
    -1,
    0,
    2.5,
    1e300,
    -1e300,
    "x",
    [],
    {},
    None,
    True,
    [[1.0, 2.0], [3.0]],
    [[[0.0, 0.0]]],
)


def _paths(node, prefix=()):
    """Every key or index path below node, parents before children."""
    items = ()
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _replace(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


def _run(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scenario.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return main(["run", path, "--out", os.path.join(tmp, "out")])


@pytest.mark.parametrize("doc", BASES, ids=lambda doc: doc["id"])
def test_unmutated_bases_are_green(doc):
    assert _run(doc) == EXIT_GREEN


@st.composite
def mutated_scenarios(draw):
    doc = copy.deepcopy(draw(st.sampled_from(BASES)))
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from(list(_paths(doc))))
        _replace(doc, path, copy.deepcopy(draw(st.sampled_from(POOL))))
    return doc


@settings(
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(doc=mutated_scenarios())
def test_mutated_scenarios_exit_with_a_status(doc):
    assert _run(doc) in (EXIT_GREEN, EXIT_RED, EXIT_CONFIG)


def test_overflowing_homotopy_bound_is_a_configuration_error(capsys):
    """psi - phi = 399 at a node overflows the quotient bounds' constant
    2 u e^(2 u): the scenario exits 2 naming psi - phi, with no warning,
    rather than judging against an infinite bound."""
    doc = copy.deepcopy(BASES[0])
    doc["psi"]["values"] = [0.0, 400.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _run(doc) == EXIT_CONFIG
    assert "psi - phi" in capsys.readouterr().err


@pytest.mark.parametrize(
    "node, weight_path",
    [(0, ("psi", "values", 0)), (1, ("psi", "values", 1)), (0, ("phi", "c"))],
    ids=["psi-node-0", "psi-node-1", "phi"],
)
def test_overflowing_homotopy_direction_is_a_configuration_error(node, weight_path):
    """A mass and a weight of 1e300 make u = psi - phi times w e^{-phi_t}
    overflow on the homotopy path: the scenario exits 2, with no warning,
    rather than ending in a traceback under warnings-as-errors."""
    doc = copy.deepcopy(BASES[0])
    doc["measure"]["masses"][node] = 1e300
    _replace(doc, weight_path, 1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _run(doc) == EXIT_CONFIG
