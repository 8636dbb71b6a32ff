"""Plain cyclic coordinate descent for the lasso, kept as a test reference.

``repro.regression.lasso`` walks the exact lasso path by homotopy.  This
is the coordinate-descent solver it replaced, which visits every
coordinate every sweep; run to a tight tolerance, its supports are the
reference the homotopy's are checked against.
"""

from __future__ import annotations

import numpy as np


def soft_threshold(value: float, threshold: float) -> float:
    """The lasso shrinkage operator sign(v) * max(|v| - t, 0)."""
    if value > threshold:
        return value - threshold
    if value < -threshold:
        return value + threshold
    return 0.0


def plain_coordinate_descent(
    gram: np.ndarray,
    correlations: np.ndarray,
    column_norms: np.ndarray,
    alpha: float,
    beta0: np.ndarray,
    max_iterations: int,
    tolerance: float,
) -> tuple[np.ndarray, int, bool]:
    """Covariance-form cyclic coordinate descent.

    Works on the Gram matrix G = Z'Z/n and correlations c = Z'y/n, so each
    coordinate update costs O(p) regardless of sample count.
    """
    p = correlations.size
    beta = beta0.copy()
    gradient = correlations - gram @ beta  # c - G beta
    converged = False
    iteration = 0
    for iteration in range(1, max_iterations + 1):
        max_delta = 0.0
        for j in range(p):
            norm = column_norms[j]
            if norm == 0.0:
                continue  # constant column: never selected
            old = beta[j]
            rho = gradient[j] + norm * old
            new = soft_threshold(rho, alpha) / norm
            if new != old:
                delta = new - old
                gradient -= gram[:, j] * delta
                beta[j] = new
                max_delta = max(max_delta, abs(delta))
        if max_delta < tolerance:
            converged = True
            break
    return beta, iteration, converged
