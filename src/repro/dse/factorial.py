"""Fractional-factorial screening: cheap main-effect ranking.

Before spending a genetic-algorithm budget, a campaign can *screen* the
space: evaluate a two-level resolution-III fractional factorial (a few
dozen runs instead of the full grid) and estimate every parameter's main
effect on every objective.  Parameters whose effects are noise can then
be frozen, shrinking the space the GA searches — the DAVOS screening /
search split.

The design is the classical saturated construction: for ``k`` factors
take the smallest full two-level factorial on ``b`` base factors with
``2**b - 1 >= k`` and assign each factor to one interaction column (XOR
of a base-column subset, singletons first).  Columns are orthogonal and
balanced, which is what makes the per-factor effect means independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from numpy.typing import NDArray

from repro.dse.space import DesignSpace, Scalar


def two_level_design(n_factors: int) -> NDArray[np.float64]:
    """(n_runs, n_factors) matrix of ±1 levels, orthogonal and balanced.

    ``n_runs = 2**b`` with the smallest ``b`` such that ``2**b - 1 >=
    n_factors``.  Factor ``j`` is the XOR of base subset ``j`` in the
    deterministic (size, lexicographic) subset order, so the design is a
    pure function of ``n_factors``.
    """
    if n_factors < 1:
        raise ValueError("need at least one factor")
    b = 1
    while (1 << b) - 1 < n_factors:
        b += 1
    n_runs = 1 << b
    # Base columns: bit j of the run index, mapped to ±1.
    base = np.empty((n_runs, b), dtype=np.float64)
    for j in range(b):
        base[:, j] = np.where((np.arange(n_runs) >> j) & 1, 1.0, -1.0)
    subsets: List[Tuple[int, ...]] = []
    for size in range(1, b + 1):
        subsets.extend(combinations(range(b), size))
    design = np.empty((n_runs, n_factors), dtype=np.float64)
    for j in range(n_factors):
        design[:, j] = np.prod(base[:, subsets[j]], axis=1)
    return design


def screening_candidates(
    space: DesignSpace,
    levels: Optional[Dict[str, Tuple[Scalar, Scalar]]] = None,
) -> "tuple[NDArray[np.float64], list[dict]]":
    """The screening design and its candidate genotypes.

    Every parameter becomes one two-level factor; ``levels`` overrides a
    parameter's (low, high) pair (defaults to the domain's
    ``screening_levels``, i.e. first/last choice or lo/hi bound).
    Conditional parameters keep their gene at both levels; inactive
    genes drop out of the evaluated phenotype as usual, which simply
    aliases those runs — acceptable for a screening pass.
    """
    levels = levels or {}
    design = two_level_design(len(space.parameters))
    pairs = []
    for parameter in space.parameters:
        low, high = levels.get(
            parameter.name, parameter.screening_levels()
        )
        for value in (low, high):
            if not parameter.contains(value):
                raise ValueError(
                    f"screening level {value!r} is outside "
                    f"{parameter.name!r}"
                )
        pairs.append((parameter.name, low, high))
    candidates = []
    for row in design:
        candidate = {}
        for (name, low, high), level in zip(pairs, row):
            candidate[name] = high if level > 0 else low
        candidates.append(candidate)
    return design, candidates


def main_effects(
    design: NDArray[np.float64],
    objectives: NDArray[np.float64],
    feasible: Optional[NDArray[np.bool_]] = None,
) -> NDArray[np.float64]:
    """(n_factors, n_objectives) main-effect estimates.

    Effect of factor ``j`` on objective ``o`` = mean(o | level +1) -
    mean(o | level -1), taken over feasible runs only.  A factor with no
    feasible runs at one level gets ``0.0`` (no evidence either way).
    """
    design = np.asarray(design, dtype=float)
    objectives = np.asarray(objectives, dtype=float)
    if design.ndim != 2 or objectives.ndim != 2:
        raise ValueError("design and objectives must be 2-D")
    if design.shape[0] != objectives.shape[0]:
        raise ValueError("design and objectives disagree on run count")
    if feasible is None:
        feasible = np.ones(design.shape[0], dtype=bool)
    feasible = np.asarray(feasible, dtype=bool).ravel()
    effects = np.zeros(
        (design.shape[1], objectives.shape[1]), dtype=np.float64
    )
    for j in range(design.shape[1]):
        high = feasible & (design[:, j] > 0)
        low = feasible & (design[:, j] < 0)
        if not (np.any(high) and np.any(low)):
            continue
        effects[j] = (
            objectives[high].mean(axis=0) - objectives[low].mean(axis=0)
        )
    return effects


@dataclass(frozen=True)
class FactorEffect:
    """One factor's screening verdict."""

    name: str
    #: Per-objective signed effects (same order as the objective names).
    effects: Tuple[float, ...]
    #: max over objectives of |effect| / objective range — the headline
    #: "how much does this knob matter" number in [0, 1].
    strength: float


def rank_factors(
    factor_names: Sequence[str],
    effects: NDArray[np.float64],
    objectives: NDArray[np.float64],
    feasible: Optional[NDArray[np.bool_]] = None,
) -> List[FactorEffect]:
    """Factors ordered by screening strength, strongest first.

    Effects are normalized per objective by the feasible runs' observed
    range, so "strength" compares knobs across objectives with wildly
    different scales.  Ties break by factor-name order for determinism.
    """
    objectives = np.asarray(objectives, dtype=float)
    if feasible is None:
        feasible = np.ones(objectives.shape[0], dtype=bool)
    feasible = np.asarray(feasible, dtype=bool).ravel()
    if np.any(feasible):
        observed = objectives[feasible]
        spans = observed.max(axis=0) - observed.min(axis=0)
    else:
        spans = np.zeros(objectives.shape[1])
    safe = np.where(spans > 0.0, spans, 1.0)
    ranked = []
    for j, name in enumerate(factor_names):
        normalized = np.abs(effects[j]) / safe
        ranked.append(
            FactorEffect(
                name=name,
                effects=tuple(float(e) for e in effects[j]),
                strength=float(normalized.max()) if normalized.size else 0.0,
            )
        )
    ranked.sort(key=lambda fe: (-fe.strength, fe.name))
    return ranked
