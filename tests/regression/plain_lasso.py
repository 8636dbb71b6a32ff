"""The plain cyclic coordinate-descent sweep, kept as a test oracle.

``repro.regression.lasso._coordinate_descent`` visits only the
coordinates a sweep can move.  This is the sweep it replaced, which
visits every coordinate every time; the property tests require the two
to return bit-identical ``(beta, n_iterations, converged)``.
"""

from __future__ import annotations

import numpy as np

from repro.regression.lasso import soft_threshold


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
    coordinate update costs O(p) regardless of sample count — important
    because Algorithm 1 runs hundreds of lasso fits over pooled 1 Hz data.
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
