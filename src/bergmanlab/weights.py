"""Weight functions phi entering the measure factor e^{-phi}.

A weight is carried as tabulated values at the nodes of a measure, optionally
together with the closed form it came from.  The closed-form families are a
fixed enumeration: constant, gauss a|z|^2, radial polynomial in |z|^2,
harmonic b*Re(z^2), and tabulated-only.  All closed forms evaluate at
arbitrary points and expose an analytic Laplacian; tabulated-only weights do
neither.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidMeasureError, UnsupportedWeightError
from .measures import QuadratureMeasure

FAMILY_CONSTANT = "constant"
FAMILY_GAUSS = "gauss"
FAMILY_RADIAL_POLY = "radial-poly"
FAMILY_HARMONIC = "harmonic"


@dataclass(frozen=True)
class ConstantWeight:
    """phi(z) = c."""

    c: float
    label = FAMILY_CONSTANT

    def evaluate(self, z):
        return np.full(np.shape(z), self.c, dtype=float)

    def laplacian(self, z):
        return np.zeros(np.shape(z), dtype=float)

    def scaled(self, k: float) -> "ConstantWeight":
        return ConstantWeight(self.c * k)

    def shifted(self, c: float) -> "ConstantWeight":
        return ConstantWeight(self.c + c)

    def params(self) -> dict:
        return {"c": self.c}


@dataclass(frozen=True)
class GaussWeight:
    """phi(z) = a |z|^2, the model weight of the scaling limit."""

    a: float
    label = FAMILY_GAUSS

    def evaluate(self, z):
        z = np.asarray(z)
        return self.a * (z.real**2 + z.imag**2)

    def laplacian(self, z):
        return np.full(np.shape(z), 4.0 * self.a, dtype=float)

    def scaled(self, k: float) -> "GaussWeight":
        return GaussWeight(self.a * k)

    def shifted(self, c: float) -> "RadialPolyWeight":
        return RadialPolyWeight((c, self.a))

    def params(self) -> dict:
        return {"a": self.a}


@dataclass(frozen=True)
class RadialPolyWeight:
    """phi(z) = sum_m coeffs[m] |z|^(2m)."""

    coeffs: tuple

    label = FAMILY_RADIAL_POLY

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))

    def evaluate(self, z):
        z = np.asarray(z)
        s = z.real**2 + z.imag**2
        out = np.zeros(np.shape(z), dtype=float)
        for m in reversed(range(len(self.coeffs))):
            out = out * s + self.coeffs[m]
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

    def shifted(self, c: float) -> "RadialPolyWeight":
        head = (self.coeffs[0] + c,) if self.coeffs else (c,)
        return RadialPolyWeight(head + self.coeffs[1:])

    def params(self) -> dict:
        return {"coeffs": list(self.coeffs)}


@dataclass(frozen=True)
class HarmonicWeight:
    """phi(z) = b Re(z^2); harmonic, so its Laplacian vanishes."""

    b: float
    label = FAMILY_HARMONIC

    def evaluate(self, z):
        z = np.asarray(z)
        return self.b * (z.real**2 - z.imag**2)

    def laplacian(self, z):
        return np.zeros(np.shape(z), dtype=float)

    def scaled(self, k: float) -> "HarmonicWeight":
        return HarmonicWeight(self.b * k)

    def shifted(self, c: float):
        return None  # leaves the family enumeration

    def params(self) -> dict:
        return {"b": self.b}


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
    return WeightFunction(values=None, family=ConstantWeight(float(c)))


def gauss_weight(a: float) -> WeightFunction:
    return WeightFunction(values=None, family=GaussWeight(float(a)))


def radial_poly_weight(coeffs) -> WeightFunction:
    return WeightFunction(values=None, family=RadialPolyWeight(tuple(coeffs)))


def harmonic_weight(b: float) -> WeightFunction:
    return WeightFunction(values=None, family=HarmonicWeight(float(b)))


def tabulated_weight(values) -> WeightFunction:
    vals = np.asarray(values, dtype=float).reshape(-1)
    if not np.all(np.isfinite(vals)):
        raise InvalidMeasureError("tabulated weight values must be finite")
    return WeightFunction(values=vals, family=None)


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
    vals = np.asarray(weight.family.evaluate(measure.points), dtype=float)
    return WeightFunction(values=vals, family=weight.family)


def shifted_weight(weight: WeightFunction, c: float) -> WeightFunction:
    """Add a constant to a weight; keeps the family when the shifted form is
    still in the enumeration."""
    family = weight.family.shifted(c) if weight.family is not None else None
    values = None if weight.values is None else weight.values + c
    if values is None and family is None:
        raise UnsupportedWeightError(
            "shifting this family leaves the closed-form enumeration; "
            "tabulate it on a measure first"
        )
    return WeightFunction(values=values, family=family)


def scaled_weight(weight: WeightFunction, k: float) -> WeightFunction:
    """Multiply a weight by a scalar; every closed form scales within its family."""
    family = weight.family.scaled(k) if weight.family is not None else None
    values = None if weight.values is None else weight.values * k
    return WeightFunction(values=values, family=family)


def weight_family_from_dict(d: dict) -> WeightFunction:
    """Build a weight from a plain-dict description (scenario files)."""
    kind = d.get("family")
    if kind == FAMILY_CONSTANT:
        return constant_weight(d["c"])
    if kind == FAMILY_GAUSS:
        return gauss_weight(d["a"])
    if kind == FAMILY_RADIAL_POLY:
        return radial_poly_weight(d["coeffs"])
    if kind == FAMILY_HARMONIC:
        return harmonic_weight(d["b"])
    if kind == "tabulated":
        return tabulated_weight(d["values"])
    raise UnsupportedWeightError(f"unknown weight family {kind!r}")
