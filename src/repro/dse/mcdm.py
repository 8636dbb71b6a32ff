"""Multi-criteria decision making: one scalar score over the frontier.

Pareto dominance orders candidates only partially; picking *the* design
to ship needs a total order.  The campaign engine uses the weighted-sum
model over min-max normalized objectives (DAVOS-style MCDM): every
objective is mapped to [0, 1] across the evaluated set (0 = best seen,
1 = worst seen; constant objectives contribute 0), weights are
normalized to sum to one — so scores are invariant under positive
scaling of the weight vector (up to float rounding), which the property
suite pins — and the score is the weighted sum.  Lower is better,
consistent with the minimized objectives.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np
from numpy.typing import ArrayLike, NDArray

#: Default objective weights: accuracy dominates, the three cost axes
#: share the rest (see docs/dse.md).
DEFAULT_WEIGHTS: Dict[str, float] = {
    "dre": 0.5,
    "overhead": 0.2,
    "fit_cost": 0.15,
    "serving_p99": 0.15,
}


def normalize_weights(
    weights: Dict[str, float], objective_names: Sequence[str]
) -> NDArray[np.float64]:
    """Weight vector in objective order, scaled to sum to one."""
    missing = [name for name in objective_names if name not in weights]
    if missing:
        raise ValueError(f"weights missing objectives {missing}")
    vector = np.asarray(
        [float(weights[name]) for name in objective_names], dtype=float
    )
    if np.any(vector < 0.0) or not np.all(np.isfinite(vector)):
        raise ValueError("weights must be finite and non-negative")
    total = float(vector.sum())
    if total <= 0.0:
        raise ValueError("at least one weight must be positive")
    return vector / total


def minmax_normalize(objectives: ArrayLike) -> NDArray[np.float64]:
    """Column-wise min-max rescale to [0, 1]; constant columns go to 0."""
    matrix = np.asarray(objectives, dtype=float)
    if matrix.ndim != 2:
        raise ValueError("objectives must be a (n_candidates, m) matrix")
    if not np.all(np.isfinite(matrix)):
        raise ValueError("objective values must be finite")
    lo = matrix.min(axis=0)
    span = matrix.max(axis=0) - lo
    safe_span = np.where(span > 0.0, span, 1.0)
    scaled = (matrix - lo) / safe_span
    scaled[:, span <= 0.0] = 0.0
    return scaled


def mcdm_scores(
    objectives: ArrayLike,
    weights: ArrayLike,
) -> NDArray[np.float64]:
    """Weighted-sum score per row (lower is better).

    ``weights`` is one non-negative entry per objective column; it is
    re-normalized to sum to one here, so any positive scaling of the
    vector names the same decision (scores agree to float rounding).
    """
    matrix = minmax_normalize(objectives)
    vector = np.asarray(weights, dtype=float).ravel()
    if vector.size != matrix.shape[1]:
        raise ValueError(
            f"need one weight per objective, got {vector.size} for "
            f"{matrix.shape[1]} objectives"
        )
    if np.any(vector < 0.0) or not np.all(np.isfinite(vector)):
        raise ValueError("weights must be finite and non-negative")
    total = float(vector.sum())
    if total <= 0.0:
        raise ValueError("at least one weight must be positive")
    return matrix @ (vector / total)


def mcdm_ranking(
    objectives: ArrayLike, weights: ArrayLike
) -> List[int]:
    """Row indices from best (lowest score) to worst, ties by index."""
    scores = mcdm_scores(objectives, weights)
    return list(np.argsort(scores, kind="stable"))
