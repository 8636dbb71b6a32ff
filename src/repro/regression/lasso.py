"""L1-regularized linear regression (lasso) by an exact homotopy.

Step 3 of Algorithm 1 uses an L1 penalty to discard irrelevant counters in a
high-dimensional space before stepwise refinement.  The solver works on
standardized predictors in covariance form (the Gram matrix G = Z'Z/n and
the correlations c = Z'y/n) and follows the lasso path exactly: the
LARS-lasso homotopy of Efron et al. (2004).  A geometric regularization
path with BIC-based selection spares callers hand-tuning the penalty per
platform.

**The walk.**  The solution is piecewise linear in alpha.  Between two
breakpoints the active set A and its signs s are fixed; solving
``G_AA [u w] = [c_A s]`` gives ``beta_A(alpha) = u - alpha*w`` and each
inactive gradient ``g_j(alpha) = a_j + alpha*b_j`` with ``a = c_I - G_IA u``
and ``b = G_IA w``.  Starting from ``alpha_top = max |c_j|`` (all
coefficients zero), the next breakpoint is the largest alpha below the
current one at which some ``|g_j|`` reaches alpha (a *join*) or some
``beta_k`` reaches zero (a *drop*).  Every grid alpha at or above it is
read off the current segment; then the event is applied and the walk goes
on.  Each segment is solved afresh from ``c_A`` and ``s``, so rounding does
not accumulate along the path.  Five rules keep the walk on the path in
floating point:

* ties go to the lower column index;
* zero-norm (constant) columns never join;
* a column that just joined cannot drop in the same segment: its
  coefficient is linear there and zero at the join, so a drop is rounding;
* a column that just dropped may not re-cross its old sign's bound in that
  segment, though it may cross the opposite one;
* a column whose Schur complement against ``G_AA`` is at most ``_SPAN``
  of its norm lies in the active span and is not admitted, so of two
  exactly duplicated columns the lower index carries the weight.  A
  near-collinear column held out this way may sit over alpha by up to its
  distance from the span.

``n_iterations`` is the number of breakpoints crossed since the previous
grid entry, so a path's sum is its step count; perfbench's ``cd_sweeps``
counter reads that sum, so it counts homotopy steps.  A step bound
(``max_iterations`` per entry) stops a degenerate tie from looping; an entry
it cuts short is read off the current segment with ``converged=False``.

**The path stops at the feature cap.**  With ``max_features`` set,
:func:`fit_lasso_path` stops after the first entry that selects more than
``max_features`` features (glmnet's ``dfmax`` rule).  That entry and every
later one score BIC = inf, so none of them can be ``best``.  The entries
before it are the full path's entries bit for bit: the walk down from
``alpha_top`` does not depend on where it stops.  ``best`` could differ
only if a later entry came back to ``max_features`` or fewer nonzeros with
a lower BIC; a lasso path may drop features as alpha falls, but on the
Algorithm 1 paths of five platforms none came back under the cap.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

# Relative Schur complement at or below which a column is taken to lie in
# the span of the active columns.
_SPAN = 1e-10


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


def _validated(
    design: np.ndarray, response: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The design as a finite 2-D float matrix and the response as a
    finite vector of the same nonzero length; ``ValueError`` otherwise."""
    design = np.asarray(design, dtype=float)
    y = np.asarray(response, dtype=float).ravel()
    if design.ndim != 2:
        raise ValueError("design matrix must be 2-D")
    if y.shape[0] != design.shape[0]:
        raise ValueError("design and response lengths differ")
    if y.size == 0:
        raise ValueError("design and response have no rows")
    _require_finite("design", design)
    _require_finite("response", y)
    return design, y


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


def _homotopy(
    gram: np.ndarray,
    correlations: np.ndarray,
    alphas: np.ndarray,
    max_steps: int,
) -> Iterator[tuple[np.ndarray, int, bool]]:
    """Walk the lasso path down a non-increasing grid of ``alphas``.

    Yields ``(beta, steps, converged)`` per grid alpha, on the standardized
    scale; see the module docstring for the events and rules.
    """
    p = correlations.size
    norms = np.diag(gram)
    live = norms != 0.0
    active: list[int] = []
    signs: list[float] = []
    alpha = np.inf
    joined = dropped = -1
    dropped_sign = 0.0
    position = steps = 0
    while position < alphas.size:
        if active:
            g_xa = gram[:, active]
            solution = np.linalg.solve(
                gram[np.ix_(active, active)],
                np.column_stack((correlations[active], signs, g_xa.T)),
            )
            u, w = solution[:, 0], solution[:, 1]
            a = correlations - g_xa @ u
            b = g_xa @ w
            schur = norms - np.einsum("ij,ji->i", g_xa, solution[:, 2:])
            free = live & (schur > _SPAN * norms)
            free[active] = False
        else:
            u = w = np.zeros(0)
            a, b, free = correlations, np.zeros(p), live
        # Where each inactive gradient reaches +alpha (upper) or -alpha
        # (lower) as alpha falls; -inf where it moves away from the bound.
        with np.errstate(divide="ignore", invalid="ignore"):
            upper = np.where(b < 1.0, a / (1.0 - b), -np.inf)
            lower = np.where(b > -1.0, -a / (1.0 + b), -np.inf)
            drops = np.where(np.multiply(signs, w) < 0.0, u / w, -np.inf)
        if dropped >= 0:
            (upper if dropped_sign > 0.0 else lower)[dropped] = -np.inf
        events = np.where(free, np.maximum(upper, lower), -np.inf)
        events[active] = drops
        if joined >= 0:
            events[joined] = -np.inf
        events[events < 0.0] = -np.inf
        events = np.minimum(events, alpha)
        at = float(events.max(initial=-np.inf))

        while position < alphas.size and (
            alphas[position] >= at or steps == max_steps
        ):
            beta = np.zeros(p)
            beta[active] = u - alphas[position] * w
            yield beta, steps, bool(alphas[position] >= at)
            position += 1
            steps = 0
        if position == alphas.size:
            return

        j = int(np.argmax(events))  # the first maximum: the lower index
        steps += 1
        alpha = at
        if j in active:
            index = active.index(j)
            dropped, dropped_sign, joined = j, signs[index], -1
            del active[index], signs[index]
        else:
            active.append(j)
            signs.append(1.0 if upper[j] >= lower[j] else -1.0)
            dropped, joined = -1, j


def _fits(
    design: np.ndarray, y: np.ndarray, alphas: np.ndarray, max_steps: int
) -> Iterator[LassoFit]:
    """The fit at each alpha of a non-increasing grid, in grid order."""
    z, mean, scale = _standardize(design)
    y_mean = y.mean()
    n = y.size
    gram = (z.T @ z) / n
    correlations = (z.T @ (y - y_mean)) / n
    path = _homotopy(gram, correlations, alphas, max_steps)
    for alpha, (beta, steps, converged) in zip(alphas, path):
        coefficients = beta / scale
        yield LassoFit(
            intercept=float(y_mean - mean @ coefficients),
            coefficients=coefficients,
            alpha=float(alpha),
            n_iterations=steps,
            converged=converged,
        )


def fit_lasso(
    design: np.ndarray,
    response: np.ndarray,
    alpha: float,
    max_iterations: int = 1000,
) -> LassoFit:
    """Solve (1/2n)||y - b0 - Xb||^2 + alpha * ||b||_1 exactly.

    Predictors are standardized internally; the returned coefficients are on
    the original scale.  The path is walked from the top down to ``alpha``
    in at most ``max_iterations`` steps; a fit the bound cuts short reports
    ``converged=False``.  Bad input (NaN or infinite values, mismatched or
    empty arrays, a negative alpha) raises ``ValueError``.
    """
    design, y = _validated(design, response)
    if not np.isfinite(alpha):
        raise ValueError("alpha must be finite")
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    return next(_fits(design, y, np.array([float(alpha)]), max_iterations))


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
    fit.  Bad input raises ``ValueError``: non-finite, mismatched or empty
    arrays, ``n_alphas < 1``, ``alpha_min_ratio`` outside ``(0, 1]`` and a
    negative ``max_features``.
    """
    design, y = _validated(design, response)
    if n_alphas < 1:
        raise ValueError("n_alphas must be at least 1")
    if not 0.0 < alpha_min_ratio <= 1.0:
        raise ValueError("alpha_min_ratio must be in (0, 1]")
    if max_features is not None and max_features < 0:
        raise ValueError("max_features must be nonnegative")
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
    fits = []
    bics = []
    for fit in _fits(design, y, alphas, 1000):
        residual = y - fit.predict(design)
        rss = float(residual @ residual)
        k = int(np.count_nonzero(fit.coefficients)) + 1
        bic = n * np.log(max(rss, 1e-12) / n) + k * np.log(n)
        over_cap = max_features is not None and k - 1 > max_features
        fits.append(fit)
        bics.append(np.inf if over_cap else bic)
        if over_cap:
            break

    best_index = int(np.argmin(bics))
    return LassoPathResult(
        best=fits[best_index],
        alphas=alphas[: len(fits)],
        bics=np.asarray(bics),
        fits=tuple(fits),
    )
