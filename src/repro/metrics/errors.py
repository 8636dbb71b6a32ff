"""Error metrics for full-system power models.

The paper's headline metric is the *Dynamic Range Error* (DRE, Eq. 6):

    DRE = rMSE / (P_max - P_idle)

i.e. the root-mean-squared prediction error normalized by the dynamic power
range of the system under the evaluated workload.  Unlike percent error
(rMSE / average power), DRE is not flattered by a large static power
component, so it is comparable across platforms whose idle power differs by
orders of magnitude (Table III).

This module also provides the conventional metrics the paper compares
against: rMSE, percent error, mean/median absolute error and mean/median
relative error.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import ArrayLike, NDArray


def _as_aligned_arrays(
    actual: ArrayLike, predicted: ArrayLike
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Validate and convert inputs to equal-length float arrays."""
    y = np.asarray(actual, dtype=float).ravel()
    yhat = np.asarray(predicted, dtype=float).ravel()
    if y.shape != yhat.shape:
        raise ValueError(
            f"actual and predicted must have the same length, "
            f"got {y.shape[0]} and {yhat.shape[0]}"
        )
    if y.size == 0:
        raise ValueError("cannot compute an error metric on empty arrays")
    if not (np.all(np.isfinite(y)) and np.all(np.isfinite(yhat))):
        raise ValueError("actual and predicted must be finite")
    return y, yhat


def mean_squared_error(actual: ArrayLike, predicted: ArrayLike) -> float:
    """Mean squared prediction error in watts squared."""
    y, yhat = _as_aligned_arrays(actual, predicted)
    return float(np.mean((y - yhat) ** 2))


def root_mean_squared_error(
    actual: ArrayLike, predicted: ArrayLike
) -> float:
    """Root-mean-squared prediction error (rMSE), in watts."""
    return float(np.sqrt(mean_squared_error(actual, predicted)))


def percent_error(actual: ArrayLike, predicted: ArrayLike) -> float:
    """rMSE divided by average measured power (the '% Err' of Table III)."""
    y, yhat = _as_aligned_arrays(actual, predicted)
    mean_power = float(np.mean(y))
    if mean_power <= 0.0:
        raise ValueError("average measured power must be positive")
    return root_mean_squared_error(y, yhat) / mean_power


def mean_absolute_error(actual: ArrayLike, predicted: ArrayLike) -> float:
    """Mean absolute prediction error, in watts."""
    y, yhat = _as_aligned_arrays(actual, predicted)
    return float(np.mean(np.abs(y - yhat)))


def median_absolute_error(
    actual: ArrayLike, predicted: ArrayLike
) -> float:
    """Median absolute prediction error, in watts."""
    y, yhat = _as_aligned_arrays(actual, predicted)
    return float(np.median(np.abs(y - yhat)))


def median_relative_error(
    actual: ArrayLike, predicted: ArrayLike
) -> float:
    """Median of |error| / measured power.

    The paper reports 0.5-2.5% median relative error for its models; this is
    the metric most prior work used.
    """
    y, yhat = _as_aligned_arrays(actual, predicted)
    if np.any(y <= 0.0):
        raise ValueError("measured power must be positive for relative error")
    return float(np.median(np.abs(y - yhat) / y))


def dynamic_range(
    actual: ArrayLike, idle_power: float | None = None
) -> float:
    """Dynamic power range P_max - P_idle of a measured power series.

    If ``idle_power`` is given (e.g. from a platform's calibration), it is
    used as the floor; otherwise the observed minimum stands in for idle, as
    the paper does when evaluating a workload trace.
    """
    y = np.asarray(actual, dtype=float).ravel()
    if y.size == 0:
        raise ValueError("cannot compute the dynamic range of an empty series")
    floor = float(np.min(y)) if idle_power is None else float(idle_power)
    return float(np.max(y)) - floor


def dynamic_range_error(
    actual: ArrayLike,
    predicted: ArrayLike,
    idle_power: float | None = None,
) -> float:
    """Dynamic Range Error (Eq. 6): rMSE / (P_max - P_idle).

    Raises ``ValueError`` when the series has no dynamic range (a constant
    trace cannot be judged on how well its variation is modeled).
    """
    y, yhat = _as_aligned_arrays(actual, predicted)
    span = dynamic_range(y, idle_power=idle_power)
    if span <= 0.0:
        raise ValueError(
            "dynamic range is zero; DRE is undefined for a constant power trace"
        )
    return root_mean_squared_error(y, yhat) / span
