"""Measure builders: discrete validation and disk-rule exactness."""

import math

import numpy as np
import pytest

from bergmanlab import InvalidMeasureError, build_discrete_measure, build_disk_measure
from oracles import disk_moment_exact


def test_discrete_from_complex_points():
    m = build_discrete_measure([1.0 + 2.0j, -0.5j], [1.0, 2.0])
    assert m.n == 2
    assert m.kind == "discrete"
    assert m.exactness_degree is None
    assert m.total_mass == 3.0
    assert m.points[0] == 1.0 + 2.0j


def test_discrete_from_pairs():
    m = build_discrete_measure([[0.0, 1.0], [2.0, -1.0]], [0.5, 0.5])
    assert np.allclose(m.points, [1.0j, 2.0 - 1.0j])


@pytest.mark.parametrize(
    "points,masses",
    [
        ([], []),
        ([1.0], [1.0, 2.0]),
        ([1.0, 2.0], [1.0]),
    ],
)
def test_discrete_shape_errors(points, masses):
    with pytest.raises(InvalidMeasureError):
        build_discrete_measure(points, masses)


@pytest.mark.parametrize("bad_mass", [0.0, -1.0, math.nan, math.inf])
def test_discrete_mass_errors(bad_mass):
    with pytest.raises(InvalidMeasureError):
        build_discrete_measure([1.0, 2.0], [1.0, bad_mass])


def test_discrete_nonfinite_point():
    with pytest.raises(InvalidMeasureError):
        build_discrete_measure([1.0, complex(math.inf, 0.0)], [1.0, 1.0])


def test_disk_shape_and_metadata():
    m = build_disk_measure(1.5, 8, 16)
    assert m.n == 8 * 16
    assert m.kind == "disk-product"
    assert m.radius == 1.5
    assert m.exactness_degree == min(2 * 8 - 1, 16 - 1)
    assert np.all(m.masses > 0.0)
    assert np.all(np.abs(m.points) <= 1.5)


def test_disk_total_mass_is_area():
    m = build_disk_measure(2.0, 12, 24)
    assert m.total_mass == pytest.approx(math.pi * 4.0, rel=1e-14)


@pytest.mark.parametrize("radius", [0.7, 1.0, 1.9])
def test_disk_moments_match_closed_form(radius):
    """Every moment inside the exactness budget equals the area integral."""
    m = build_disk_measure(radius, 10, 20)
    for a in range(0, 6):
        for b in range(0, 6):
            exact = disk_moment_exact(a, b, radius)
            got = m.moment(a, b)
            scale = max(abs(exact), 1.0)
            assert abs(got - exact) <= 1e-12 * scale, (a, b)


def test_disk_diagonal_moment_high_degree():
    m = build_disk_measure(1.0, 40, 80)
    a = 30
    exact = disk_moment_exact(a, a, 1.0)
    assert abs(m.moment(a, a) - exact) <= 1e-12 * abs(exact)


@pytest.mark.parametrize(
    "radius,n_radial,n_angular",
    [(0.0, 4, 8), (-1.0, 4, 8), (1.0, 0, 8), (1.0, 4, 0)],
)
def test_disk_argument_errors(radius, n_radial, n_angular):
    with pytest.raises(InvalidMeasureError):
        build_disk_measure(radius, n_radial, n_angular)
