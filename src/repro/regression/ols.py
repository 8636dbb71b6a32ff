"""Ordinary least squares with inference statistics.

This is the regression workhorse for the linear and switching power models
(Eqs. 1 and 4) and for the stepwise-elimination steps of Algorithm 1, which
need per-coefficient Wald statistics.

OS performance counters span wildly different scales (bytes/second in the
billions next to utilization fractions), so the fit standardizes predictors
internally and solves via a single SVD with one consistent rank cutoff;
directions dropped as numerically unidentifiable yield infinite standard
errors (p-value 1), which is exactly the signal stepwise elimination needs
to discard a redundant counter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.regression.kernels import matvec

_RCOND = 1e-8
"""Relative singular-value cutoff; below this a direction is unidentified."""


def add_intercept(design: np.ndarray) -> np.ndarray:
    """Prepend a column of ones to a design matrix."""
    design = np.asarray(design, dtype=float)
    if design.ndim != 2:
        raise ValueError(f"design matrix must be 2-D, got {design.ndim}-D")
    ones = np.ones((design.shape[0], 1))
    return np.hstack([ones, design])


@dataclass(frozen=True)
class OLSFit:
    """A fitted least-squares model with inference statistics.

    Attributes
    ----------
    coefficients:
        ``(p + 1,)`` vector; index 0 is the intercept.
    standard_errors:
        Wald standard errors (``inf`` where the design was numerically
        rank-deficient and the coefficient is not identified).
    p_values:
        Two-sided Wald/t-test p-values for ``coefficient == 0``.
    residual_variance:
        Unbiased estimate of the noise variance.
    r_squared:
        Coefficient of determination on the training data.
    rank:
        Numerical rank of the centered/scaled predictor matrix plus one
        (the intercept).
    """

    coefficients: np.ndarray
    standard_errors: np.ndarray
    p_values: np.ndarray
    residual_variance: float
    r_squared: float
    rank: int
    n_samples: int

    @property
    def intercept(self) -> float:
        return float(self.coefficients[0])

    @property
    def slopes(self) -> np.ndarray:
        """Coefficients excluding the intercept."""
        return self.coefficients[1:]

    def predict(self, design: np.ndarray) -> np.ndarray:
        """Predict responses for a raw (no-intercept) design matrix."""
        design = np.asarray(design, dtype=float)
        if design.ndim != 2:
            raise ValueError("design matrix must be 2-D")
        if design.shape[1] != self.coefficients.size - 1:
            raise ValueError(
                f"design has {design.shape[1]} features but the model was "
                f"fitted with {self.coefficients.size - 1}"
            )
        # Batch-size-invariant kernel: serving scores the same rows in
        # arbitrary micro-batch groupings and must get identical watts.
        return self.intercept + matvec(design, self.slopes)


def fit_ols(design: np.ndarray, response: np.ndarray) -> OLSFit:
    """Fit ``response ~ 1 + design`` by least squares.

    Parameters
    ----------
    design:
        ``(n, p)`` matrix of predictors *without* an intercept column.
    response:
        ``(n,)`` vector of observed values.
    """
    design = np.asarray(design, dtype=float)
    y = np.asarray(response, dtype=float).ravel()
    if design.ndim != 2:
        raise ValueError("design matrix must be 2-D")
    n, p = design.shape
    if y.shape[0] != n:
        raise ValueError(
            f"design has {n} rows but response has {y.shape[0]} entries"
        )
    if n < p + 1:
        raise ValueError(
            f"need at least {p + 1} samples to fit {p} features "
            f"plus an intercept, got {n}"
        )

    # Standardize: center and scale columns (constant columns get zero z).
    mean = design.mean(axis=0)
    scale = design.std(axis=0)
    scale_safe = np.where(scale > 0, scale, 1.0)
    z = (design - mean) / scale_safe
    y_mean = y.mean()
    y_centered = y - y_mean

    if p > 0:
        u, singular_values, vt = np.linalg.svd(z, full_matrices=False)
        if singular_values.size and singular_values[0] > 0:
            keep = singular_values > _RCOND * singular_values[0]
        else:
            keep = np.zeros_like(singular_values, dtype=bool)
        rank_z = int(keep.sum())
        inv_singular = np.where(keep, 1.0 / np.where(keep, singular_values, 1.0), 0.0)
        slopes_std = vt.T @ (inv_singular * (u.T @ y_centered))
        # Null-space participation per coefficient: how much of the
        # coefficient's direction was dropped as unidentifiable.
        dropped = ~keep
        null_participation = (
            (vt[dropped] ** 2).sum(axis=0) if dropped.any() else np.zeros(p)
        )
        var_std_diag = (vt.T ** 2 @ inv_singular**2)
    else:
        rank_z = 0
        slopes_std = np.zeros(0)
        null_participation = np.zeros(0)
        var_std_diag = np.zeros(0)

    fitted = y_mean + (z @ slopes_std if p else 0.0)
    residuals = y - fitted
    rss = float(residuals @ residuals)
    rank = rank_z + 1  # intercept
    dof = n - rank
    residual_variance = rss / dof if dof > 0 else float("nan")

    slopes = slopes_std / scale_safe
    # Constant columns carry no information: force an exact zero.
    slopes = np.where(scale > 0, slopes, 0.0)
    intercept = float(y_mean - mean @ slopes)

    with np.errstate(invalid="ignore"):
        slope_se_std = np.sqrt(np.maximum(residual_variance, 0.0) * var_std_diag)
    slope_se = slope_se_std / scale_safe
    unidentified = (null_participation > 1e-10) | (scale == 0)
    slope_se = np.where(unidentified, np.inf, slope_se)

    # Intercept variance: with centered predictors, var(b0) decomposes as
    # var(ybar) + m' Cov(slopes) m where m is the (mean/scale) vector.
    m = mean / scale_safe
    if p > 0 and np.isfinite(residual_variance):
        cov_std = (vt.T * inv_singular**2) @ vt * residual_variance
        intercept_var = residual_variance / n + float(m @ cov_std @ m)
    else:
        intercept_var = residual_variance / n if n else float("nan")
    intercept_se = float(np.sqrt(max(intercept_var, 0.0)))

    standard_errors = np.concatenate([[intercept_se], slope_se])
    coefficients = np.concatenate([[intercept], slopes])

    with np.errstate(divide="ignore", invalid="ignore"):
        t_statistics = np.where(
            standard_errors > 0, coefficients / standard_errors, np.inf
        )
    if dof > 0:
        # Imported here, not at module level: the t distribution's
        # package costs ~0.7 s and ~60 MB to load on a 2-vCPU host,
        # and serving, which only scores fitted models, never needs it.
        from scipy import stats

        p_values = 2.0 * stats.t.sf(np.abs(t_statistics), df=dof)
    else:
        p_values = np.ones_like(t_statistics)
    p_values = np.where(np.isinf(standard_errors), 1.0, p_values)
    p_values = np.where(
        (standard_errors == 0) & (coefficients == 0), 1.0, p_values
    )

    total_ss = float(y_centered @ y_centered)
    r_squared = 1.0 - rss / total_ss if total_ss > 0 else 0.0

    return OLSFit(
        coefficients=coefficients,
        standard_errors=standard_errors,
        p_values=np.asarray(p_values, dtype=float),
        residual_variance=float(residual_variance),
        r_squared=float(r_squared),
        rank=int(rank),
        n_samples=int(n),
    )
