"""L1-regularized linear regression (lasso) by coordinate descent.

Step 3 of Algorithm 1 uses an L1 penalty to discard irrelevant counters in a
high-dimensional space before stepwise refinement.  We implement the
standard cyclic coordinate-descent solver on standardized predictors, plus a
geometric regularization path with BIC-based selection so callers do not
have to hand-tune the penalty per platform.

Three rules keep the solver to work whose result is used:

* **The path stops at the feature cap.**  With ``max_features`` set,
  :func:`fit_lasso_path` stops after the first entry that selects more
  than ``max_features`` features (glmnet's ``dfmax`` rule).  That entry
  and every later one score BIC = inf, so none of them can be ``best``.
  The entries before it are the full path's entries bit for bit, because
  each warm-starts from the one before.  ``best`` could differ only if a
  later entry came back to ``max_features`` or fewer nonzeros with a
  lower BIC; a lasso path may drop features as alpha falls, but on the
  Algorithm 1 paths of five platforms none came back under the cap.
* **A sweep visits only coordinates that can move.**  A coordinate at
  zero moves only if ``|gradient_j| > alpha`` when the sweep reaches it.
  Each sweep queues the nonzero coordinates and the zero ones already
  over alpha; the rest are idle, and ``slack = alpha - max |gradient|``
  over them bounds how far their gradients may drift before one could
  cross alpha.  An update of ``delta`` at ``j`` moves every other
  gradient entry by at most ``max_k |G_kj| * |delta|`` plus rounding, so
  the slack is drawn down by that bound and a rounding margin; when it
  runs out, the rest of the sweep is queued again from the actual
  gradient.  The updates that do run are the plain sweep's, in the same
  order with the same arithmetic, so ``beta``, the sweep count and the
  convergence flag are bit-identical to a sweep over every coordinate.
* **A sweep that never requeued hands its queue to the next one.**  A
  slack still ``>= 0`` at the end of a sweep proves that every idle
  coordinate is still zero with ``|gradient_j| <= alpha``, so a plain
  sweep would leave it unchanged; the next sweep starts from the same
  queue and the slack left, without scanning the gradient.  A queued
  coordinate that can no longer move is a no-op to visit.  After a
  requeue the queue covers only the coordinates past the update that ran
  the slack out, so the next sweep scans all of them again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.arraysan import contracted

# Rounding margin on the idle slack: each update may move an idle
# gradient entry by a few ulps of (alpha + step) beyond the bound, and a
# subnormal operation by half the smallest subnormal.  Both are far
# inside these margins.
_SLACK_ROUNDING = 1e-14
_SLACK_FLOOR = float(np.finfo(float).tiny)


def soft_threshold(value: float, threshold: float) -> float:
    """The lasso shrinkage operator sign(v) * max(|v| - t, 0)."""
    if value > threshold:
        return value - threshold
    if value < -threshold:
        return value + threshold
    return 0.0


@dataclass(frozen=True)
class LassoFit:
    """A lasso solution on the original (unstandardized) scale."""

    intercept: float
    coefficients: np.ndarray
    alpha: float
    n_iterations: int
    converged: bool

    @property
    def selected(self) -> np.ndarray:
        """Indices of features with nonzero coefficients."""
        return np.flatnonzero(self.coefficients != 0.0)

    def predict(self, design: np.ndarray) -> np.ndarray:
        design = np.asarray(design, dtype=float)
        return self.intercept + design @ self.coefficients


def _require_finite(name: str, values: np.ndarray) -> None:
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{name} contains non-finite values (NaN or inf)")


def _standardize(
    design: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Center/scale columns; constant columns get unit scale (and zero z)."""
    mean = design.mean(axis=0)
    scale = design.std(axis=0)
    scale = np.where(scale > 0, scale, 1.0)
    return (design - mean) / scale, mean, scale


def max_alpha(design: np.ndarray, response: np.ndarray) -> float:
    """Smallest penalty that zeroes every coefficient (path entry point)."""
    design = np.asarray(design, dtype=float)
    y = np.asarray(response, dtype=float).ravel()
    z, _, _ = _standardize(design)
    centered = y - y.mean()
    n = y.size
    return float(np.max(np.abs(z.T @ centered)) / n) if design.size else 0.0


def _movable(
    gradient: np.ndarray,
    beta: np.ndarray,
    live: np.ndarray,
    alpha: float,
    start: int,
) -> tuple[list[int], float]:
    """The coordinates from ``start`` on that a sweep may change, and the
    slack the idle rest have before one of them could cross ``alpha``.

    A NaN lands on the safe side: a NaN gradient at zero is idle (the
    plain sweep leaves it at zero too) and makes the slack NaN, which
    forces a requeue after every update.
    """
    magnitude = np.abs(gradient[start:])
    movable = (beta[start:] != 0.0) | (magnitude > alpha)
    movable &= live[start:]
    idle = live[start:] & ~movable
    queue = (movable.nonzero()[0] + start).tolist()
    return queue, alpha - magnitude.max(where=idle, initial=0.0).item()


def _coordinate_descent(
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
    Each sweep visits only the coordinates that can move (see the module
    docstring); constant columns (zero norm) never move.
    """
    beta = beta0.copy()
    gradient = correlations - gram @ beta  # c - G beta
    alpha = float(alpha)
    norms = column_norms.tolist()
    live = column_norms != 0.0
    # reach[j] = max_k |G_kj|: how far an update at j can move any
    # gradient entry per unit of delta.
    reach = np.abs(gram).max(axis=0, initial=0.0).tolist()
    converged = False
    iteration = 0
    rescan = True
    for iteration in range(1, max_iterations + 1):
        if rescan:
            queue, slack = _movable(gradient, beta, live, alpha, 0)
            rescan = False
        max_delta = 0.0
        position = 0
        while position < len(queue):
            j = queue[position]
            position += 1
            norm = norms[j]
            old = beta.item(j)
            rho = gradient.item(j) + norm * old
            new = soft_threshold(rho, alpha) / norm
            if new != old:
                delta = new - old
                gradient -= gram[:, j] * delta
                beta[j] = new
                size = abs(delta)
                max_delta = max(max_delta, size)
                step = reach[j] * size
                slack -= step + _SLACK_ROUNDING * (alpha + step) + _SLACK_FLOOR
                if not slack >= 0.0:
                    queue, slack = _movable(gradient, beta, live, alpha, j + 1)
                    position = 0
                    # This queue starts past j, so the next sweep scans
                    # again; otherwise it reuses the queue and the slack.
                    rescan = True
        if max_delta < tolerance:
            converged = True
            break
    return beta, iteration, converged


@contracted
def fit_lasso(
    design: np.ndarray,
    response: np.ndarray,
    alpha: float,
    max_iterations: int = 1000,
    tolerance: float = 1e-7,
) -> LassoFit:
    """Solve (1/2n)||y - b0 - Xb||^2 + alpha * ||b||_1 by coordinate descent.

    Predictors are standardized internally; the returned coefficients are on
    the original scale.  NaN or infinite inputs raise ``ValueError``.
    """
    design = np.asarray(design, dtype=float)
    y = np.asarray(response, dtype=float).ravel()
    if design.ndim != 2:
        raise ValueError("design matrix must be 2-D")
    n, p = design.shape
    if y.shape[0] != n:
        raise ValueError("design and response lengths differ")
    if not np.isfinite(alpha):
        raise ValueError("alpha must be finite")
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    _require_finite("design", design)
    _require_finite("response", y)

    z, mean, scale = _standardize(design)
    y_mean = y.mean()
    gram = (z.T @ z) / n
    correlations = (z.T @ (y - y_mean)) / n
    column_norms = np.diag(gram).copy()

    beta, iteration, converged = _coordinate_descent(
        gram=gram,
        correlations=correlations,
        column_norms=column_norms,
        alpha=alpha,
        beta0=np.zeros(p),
        max_iterations=max_iterations,
        tolerance=tolerance,
    )

    coefficients = beta / scale
    intercept = float(y_mean - mean @ coefficients)
    return LassoFit(
        intercept=intercept,
        coefficients=coefficients,
        alpha=float(alpha),
        n_iterations=iteration,
        converged=converged,
    )


@dataclass(frozen=True)
class LassoPathResult:
    """The fit chosen from a regularization path plus the path itself.

    ``alphas``, ``bics`` and ``fits`` have one entry per computed path
    entry; with a feature cap the path may end before ``n_alphas``.
    """

    best: LassoFit
    alphas: np.ndarray
    bics: np.ndarray
    fits: tuple[LassoFit, ...]


def fit_lasso_path(
    design: np.ndarray,
    response: np.ndarray,
    n_alphas: int = 30,
    alpha_min_ratio: float = 1e-3,
    max_features: int | None = None,
) -> LassoPathResult:
    """Fit a geometric alpha path and pick the fit with the lowest BIC.

    ``max_features`` optionally caps model size, which mirrors the paper's
    goal of reducing to "on the order of 10" counters per machine: the
    path stops after the first entry selecting more features, and that
    entry scores BIC = inf.  Without a cap all ``n_alphas`` entries are
    fit.  NaN or infinite inputs raise ``ValueError``.
    """
    design = np.asarray(design, dtype=float)
    y = np.asarray(response, dtype=float).ravel()
    _require_finite("design", design)
    _require_finite("response", y)
    n = y.size
    alpha_top = max_alpha(design, y)
    if alpha_top <= 0:
        fit = fit_lasso(design, y, alpha=0.0)
        return LassoPathResult(
            best=fit,
            alphas=np.array([0.0]),
            bics=np.array([0.0]),
            fits=(fit,),
        )

    alphas = alpha_top * np.geomspace(1.0, alpha_min_ratio, n_alphas)

    # Precompute the covariance-form quantities once and warm-start each
    # path entry from the previous solution.
    z, mean, scale = _standardize(design)
    y_mean = y.mean()
    gram = (z.T @ z) / n
    correlations = (z.T @ (y - y_mean)) / n
    column_norms = np.diag(gram).copy()

    fits = []
    bics = []
    beta = np.zeros(design.shape[1])
    for alpha in alphas:
        beta, n_iterations, converged = _coordinate_descent(
            gram=gram,
            correlations=correlations,
            column_norms=column_norms,
            alpha=float(alpha),
            beta0=beta,
            max_iterations=1000,
            tolerance=1e-7,
        )
        coefficients = beta / scale
        intercept = float(y_mean - mean @ coefficients)
        fit = LassoFit(
            intercept=intercept,
            coefficients=coefficients,
            alpha=float(alpha),
            n_iterations=n_iterations,
            converged=converged,
        )
        residual = y - fit.predict(design)
        rss = float(residual @ residual)
        k = int(np.count_nonzero(fit.coefficients)) + 1
        bic = n * np.log(max(rss, 1e-12) / n) + k * np.log(n)
        over_cap = max_features is not None and k - 1 > max_features
        fits.append(fit)
        bics.append(np.inf if over_cap else bic)
        if over_cap:
            break

    bics = np.asarray(bics)
    best_index = int(np.argmin(bics))
    return LassoPathResult(
        best=fits[best_index],
        alphas=alphas[: len(fits)],
        bics=bics,
        fits=tuple(fits),
    )
