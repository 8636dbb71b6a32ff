"""Pareto dominance over objective matrices (all objectives minimized).

The ranking core the campaign engine shares between the GA's selection
pressure and the final frontier report: strict dominance, the
nondominated frontier, full nondominated sorting (NSGA-II style fronts)
and crowding distance.  Everything operates on a dense ``(n_candidates,
n_objectives)`` float64 matrix so the hot loops stay vectorized.
"""

from __future__ import annotations

from typing import List

import numpy as np
from numpy.typing import ArrayLike, NDArray


def _as_objective_matrix(objectives: ArrayLike) -> NDArray[np.float64]:
    matrix = np.asarray(objectives, dtype=float)
    if matrix.ndim != 2:
        raise ValueError("objectives must be a (n_candidates, m) matrix")
    if not np.all(np.isfinite(matrix)):
        raise ValueError("objective values must be finite")
    return matrix


def dominates(a: ArrayLike, b: ArrayLike) -> bool:
    """Strict Pareto dominance: ``a`` <= ``b`` everywhere, < somewhere."""
    left = np.asarray(a, dtype=float).ravel()
    right = np.asarray(b, dtype=float).ravel()
    if left.shape != right.shape:
        raise ValueError("objective vectors must have the same length")
    return bool(np.all(left <= right) and np.any(left < right))


def pareto_frontier(objectives: ArrayLike) -> List[int]:
    """Indices of the nondominated rows, ascending.

    A row is on the frontier iff no other row strictly dominates it.
    Duplicate rows of a nondominated point are all kept (none dominates
    its copy), so the frontier of a multiset is well-defined.
    """
    matrix = _as_objective_matrix(objectives)
    n = matrix.shape[0]
    frontier = []
    for i in range(n):
        # Vectorized: does any row dominate row i?
        leq = np.all(matrix <= matrix[i], axis=1)
        lt = np.any(matrix < matrix[i], axis=1)
        if not np.any(leq & lt):
            frontier.append(i)
    return frontier


def nondominated_sort(objectives: ArrayLike) -> NDArray[np.int64]:
    """Front index per row: 0 for the frontier, 1 for the frontier of
    the rest, and so on (lower is fitter)."""
    matrix = _as_objective_matrix(objectives)
    n = matrix.shape[0]
    ranks = np.full(n, -1, dtype=np.int64)
    remaining = np.arange(n)
    front = 0
    while remaining.size:
        subset = matrix[remaining]
        local = pareto_frontier(subset)
        ranks[remaining[local]] = front
        keep = np.ones(remaining.size, dtype=bool)
        keep[local] = False
        remaining = remaining[keep]
        front += 1
    return ranks


def crowding_distance(objectives: ArrayLike) -> NDArray[np.float64]:
    """NSGA-II crowding distance within one front (bigger = lonelier).

    Boundary points of every objective get ``inf``; interior points sum
    the normalized gaps to their sorted neighbors.  Computed per front
    by the caller — passing a whole population mixes fronts and is
    meaningless.
    """
    matrix = _as_objective_matrix(objectives)
    n, m = matrix.shape
    distance = np.zeros(n, dtype=np.float64)
    if n <= 2:
        distance[:] = np.inf
        return distance
    for j in range(m):
        order = np.argsort(matrix[:, j], kind="stable")
        column = matrix[order, j]
        span = column[-1] - column[0]
        distance[order[0]] = np.inf
        distance[order[-1]] = np.inf
        if span <= 0.0:
            continue
        gaps = (column[2:] - column[:-2]) / span
        distance[order[1:-1]] += gaps
    return distance


def rank_and_crowd(
    objectives: ArrayLike,
) -> "tuple[NDArray[np.int64], NDArray[np.float64]]":
    """(front rank, within-front crowding distance) for every row."""
    matrix = _as_objective_matrix(objectives)
    ranks = nondominated_sort(matrix)
    crowding = np.zeros(matrix.shape[0], dtype=np.float64)
    for front in np.unique(ranks):
        members = np.flatnonzero(ranks == front)
        crowding[members] = crowding_distance(matrix[members])
    return ranks, crowding
