"""Weight functions phi entering the measure factor e^{-phi}.

A weight is carried as tabulated values at the nodes of a measure, optionally
together with the closed form it came from.  The families are a fixed
enumeration: radial polynomial in |z|^2 (which includes the constant c and
the Gauss weight a|z|^2 of the scaling limit), harmonic b*Re(z^2), and
tabulated-only.  Both closed forms evaluate at arbitrary points and expose
an analytic Laplacian; tabulated-only weights do neither.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidMeasureError, UnsupportedWeightError
from .measures import QuadratureMeasure


@dataclass(frozen=True)
class RadialPolyWeight:
    """phi(z) = sum_m coeffs[m] |z|^(2m)."""

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))

    def evaluate(self, z):
        # Horner's rule from the top coefficient, so a constant never reads
        # |z|^2 and stays finite where |z|^2 overflows.
        z = np.asarray(z)
        out = np.full(np.shape(z), self.coeffs[-1] if self.coeffs else 0.0)
        if len(self.coeffs) > 1:
            s = z.real**2 + z.imag**2
            for c in reversed(self.coeffs[:-1]):
                out = out * s + c
        return out

    def laplacian(self, z):
        # Laplacian of |z|^(2m) is 4 m^2 |z|^(2m-2).
        z = np.asarray(z)
        s = z.real**2 + z.imag**2
        out = np.zeros(np.shape(z), dtype=float)
        for m in range(1, len(self.coeffs)):
            out = out + 4.0 * m * m * self.coeffs[m] * s ** (m - 1)
        return out

    def scaled(self, k: float) -> "RadialPolyWeight":
        return RadialPolyWeight(tuple(k * c for c in self.coeffs))


@dataclass(frozen=True)
class HarmonicWeight:
    """phi(z) = b Re(z^2); harmonic, so its Laplacian vanishes."""

    b: float

    def evaluate(self, z):
        z = np.asarray(z)
        return self.b * (z.real**2 - z.imag**2)

    def laplacian(self, z):
        return np.zeros(np.shape(z), dtype=float)

    def scaled(self, k: float) -> "HarmonicWeight":
        return HarmonicWeight(self.b * k)


@dataclass(frozen=True, eq=False)
class WeightFunction:
    """Tabulated weight values, with the generating closed form when known.

    values is None for a family that has not been tabulated on a measure yet;
    family is None for tabulated-only data.
    """

    values: np.ndarray | None
    family: object | None = None

    def evaluate_at(self, z) -> np.ndarray:
        if self.family is None:
            raise UnsupportedWeightError(
                "off-node evaluation needs a closed-form weight family"
            )
        return np.asarray(self.family.evaluate(z), dtype=float)


def constant_weight(c: float) -> WeightFunction:
    return radial_poly_weight((c,))


def gauss_weight(a: float) -> WeightFunction:
    """phi(z) = a |z|^2, the model weight of the scaling limit."""
    return radial_poly_weight((0.0, a))


def radial_poly_weight(coeffs) -> WeightFunction:
    return WeightFunction(values=None, family=RadialPolyWeight(tuple(coeffs)))


def harmonic_weight(b: float) -> WeightFunction:
    return WeightFunction(values=None, family=HarmonicWeight(float(b)))


def tabulated_weight(values) -> WeightFunction:
    vals = np.asarray(values, dtype=float).reshape(-1)
    validate_weight_values(vals)
    return WeightFunction(values=vals, family=None)


def validate_weight_values(values: np.ndarray) -> None:
    """Raise unless every tabulated weight value, of one weight or of a
    stack of them, is finite."""
    if not np.isfinite(values).all():
        raise InvalidMeasureError("tabulated weight values must be finite")


def eval_weight(weight: WeightFunction, measure: QuadratureMeasure) -> WeightFunction:
    """Tabulate a weight on a measure's nodes.

    Idempotent: a weight already tabulated with the right node count is
    returned unchanged.  A tabulated-only weight whose length does not match
    the node count is an error, since there is no closed form to re-evaluate.
    """
    if weight.values is not None:
        if weight.values.size != measure.n:
            raise InvalidMeasureError(
                f"weight tabulates {weight.values.size} nodes, measure has {measure.n}"
            )
        return weight
    if weight.family is None:
        raise UnsupportedWeightError("weight has neither values nor a closed form")
    # An overflow leaves values that are not finite, for the caller to reject.
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.asarray(weight.family.evaluate(measure.points), dtype=float)
    return WeightFunction(values=vals, family=weight.family)


def scaled_weight(weight: WeightFunction, k: float) -> WeightFunction:
    """Multiply a weight by a scalar; every closed form scales within its family."""
    family = weight.family.scaled(k) if weight.family is not None else None
    values = None if weight.values is None else weight.values * k
    return WeightFunction(values=values, family=family)
