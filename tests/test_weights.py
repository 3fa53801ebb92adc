"""Closed-form weights: the constant and Gauss weights are radial polynomials.

A constant c and a Gauss weight a|z|^2 are radial polynomials of degree 0
and 1.  Evaluated by Horner's rule from the top coefficient, they give
exactly the values of the direct formulas, np.full(c) and a (x^2 + y^2),
and exactly the Laplacians 0 and 4a, also after scaling by k (up to the
sign of a zero, which np.array_equal does not compare).
"""

import numpy as np
import pytest

from bergmanlab import (
    build_discrete_measure,
    build_disk_measure,
    constant_weight,
    eval_weight,
    gauss_weight,
    radial_poly_weight,
    scaled_weight,
)

MEASURES = {
    "ladder-160x256": build_disk_measure(2.0, 160, 256),
    "radius-40": build_disk_measure(40.0, 24, 48),
}
PARAMS = (0.0, -0.0, 0.7, -1.3, 1e300, -1e300)
KS = (1.0, 10.0, 40.0)


@pytest.mark.parametrize("name", MEASURES)
@pytest.mark.parametrize("c", PARAMS)
def test_constant_equals_a_full_array(name, c):
    measure = MEASURES[name]
    weight = constant_weight(c)
    assert np.array_equal(eval_weight(weight, measure).values, np.full(measure.n, c))
    zeros = np.zeros(measure.n)
    assert np.array_equal(weight.family.laplacian(measure.points), zeros)
    for k in KS:
        scaled = scaled_weight(weight, k)
        expected = np.full(measure.n, k * c)
        assert np.array_equal(eval_weight(scaled, measure).values, expected)
        tabulated_first = scaled_weight(eval_weight(weight, measure), k)
        assert np.array_equal(tabulated_first.values, expected)
        assert np.array_equal(scaled.family.laplacian(measure.points), zeros)


@pytest.mark.parametrize("name", MEASURES)
@pytest.mark.parametrize("a", PARAMS)
def test_gauss_equals_a_times_abs2(name, a):
    measure = MEASURES[name]
    weight = gauss_weight(a)
    s = measure.points.real**2 + measure.points.imag**2
    assert np.array_equal(eval_weight(weight, measure).values, a * s)
    for k in KS:
        scaled = scaled_weight(weight, k)
        assert np.array_equal(eval_weight(scaled, measure).values, (k * a) * s)
        assert np.array_equal(
            scaled.family.laplacian(measure.points), np.full(measure.n, 4.0 * (k * a))
        )


def test_constant_stays_finite_where_abs2_overflows():
    measure = build_discrete_measure([0.0, 1e200, 1e200j], [1.0, 1.0, 1.0])
    for k in KS:
        weight = scaled_weight(constant_weight(0.5), k)
        values = eval_weight(weight, measure).values
        assert np.array_equal(values, np.full(3, k * 0.5))


def test_empty_coefficients_tabulate_to_zeros():
    measure = MEASURES["radius-40"]
    weight = radial_poly_weight(())
    zeros = np.zeros(measure.n)
    assert np.array_equal(eval_weight(weight, measure).values, zeros)
    assert np.array_equal(weight.family.laplacian(measure.points), zeros)
