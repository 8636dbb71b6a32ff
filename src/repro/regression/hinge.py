"""Hinge basis functions for piecewise-linear (MARS) power models.

Equation 2 of the paper writes the piecewise-linear model in terms of basis
functions B+(x, t) = max(x - t, 0) and B-(x, t) = max(t - x, 0); the knots t
partition each feature's range into linear regions.  A ``BasisFunction`` is
a product of such hinges (degree 2 products give the quadratic model of
Eq. 3) and evaluates itself on a raw design matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np


@dataclass(frozen=True)
class Hinge:
    """A single hinge h(x) over one feature.

    ``sign=+1`` gives max(x - knot, 0); ``sign=-1`` gives max(knot - x, 0).
    ``sign=0`` denotes the identity (a plain linear term, used when the
    forward pass decides a feature enters linearly).
    """

    feature: int
    knot: float
    sign: int

    def __post_init__(self) -> None:
        if self.sign not in (-1, 0, +1):
            raise ValueError(f"sign must be -1, 0 or +1, got {self.sign}")
        if self.feature < 0:
            raise ValueError("feature index must be nonnegative")

    def evaluate(self, design: np.ndarray) -> np.ndarray:
        column = design[:, self.feature]
        if self.sign == 0:
            return column.astype(float, copy=True)
        if self.sign > 0:
            return np.maximum(column - self.knot, 0.0)
        return np.maximum(self.knot - column, 0.0)

    def describe(self, feature_names: Optional[Sequence[str]] = None) -> str:
        name = (
            feature_names[self.feature]
            if feature_names is not None
            else f"x{self.feature}"
        )
        if self.sign == 0:
            return name
        if self.sign > 0:
            return f"max({name} - {self.knot:.4g}, 0)"
        return f"max({self.knot:.4g} - {name}, 0)"


@dataclass(frozen=True)
class BasisFunction:
    """A product of hinges; the empty product is the intercept basis."""

    hinges: tuple[Hinge, ...] = ()

    @property
    def degree(self) -> int:
        return len(self.hinges)

    @property
    def features(self) -> frozenset[int]:
        return frozenset(h.feature for h in self.hinges)

    def involves(self, feature: int) -> bool:
        return feature in self.features

    def evaluate(self, design: np.ndarray) -> np.ndarray:
        design = np.asarray(design, dtype=float)
        if design.ndim != 2:
            raise ValueError("design matrix must be 2-D")
        result = np.ones(design.shape[0])
        for hinge in self.hinges:
            result = result * hinge.evaluate(design)
        return result

    def extended(self, hinge: Hinge) -> "BasisFunction":
        """A new basis equal to this one times an extra hinge."""
        if self.involves(hinge.feature):
            raise ValueError(
                f"basis already involves feature {hinge.feature}; MARS bases "
                "use each feature at most once"
            )
        return BasisFunction(hinges=self.hinges + (hinge,))

    def describe(self, feature_names: Optional[Sequence[str]] = None) -> str:
        if not self.hinges:
            return "1"
        return " * ".join(h.describe(feature_names) for h in self.hinges)


INTERCEPT_BASIS = BasisFunction()


def evaluate_bases(
    bases: Sequence[BasisFunction], design: np.ndarray
) -> np.ndarray:
    """Stack basis evaluations into an (n, len(bases)) matrix."""
    design = np.asarray(design, dtype=float)
    if not bases:
        return np.empty((design.shape[0], 0))
    return np.column_stack([basis.evaluate(design) for basis in bases])
