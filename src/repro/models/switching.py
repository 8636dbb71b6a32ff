"""The switching power model (Eq. 4): one linear model per P-state.

CPU frequency acts as the indicator: samples are bucketed by the observed
frequency counter, and each bucket (P-state) gets its own linear model.
Unlike the piecewise model — whose knots partition only one feature's
axis — the switch partitions *all* features at once, which makes the
model more rigid, possibly discontinuous at transitions, and parameter-
hungry (coefficients for every feature at every state).
"""

from __future__ import annotations

import numpy as np

from repro.models.base import PowerModel
from repro.regression.ols import OLSFit, fit_ols

_MIN_BUCKET_ROWS_FACTOR = 10
"""A bucket must hold at least this many rows per coefficient to get its
own model; smaller buckets fall back to the global linear model.  State-
local fits see a narrow slice of each feature's range, so they need a
comfortable margin to stay stable."""

MAX_STATES = 8
"""More distinct frequency levels than this are merged by quantile into
this many P-states."""


class SwitchingPowerModel(PowerModel):
    """Frequency-indexed family of linear models."""

    code = "S"

    def __init__(self, feature_names: list[str], switch_feature: str):
        super().__init__(feature_names)
        if switch_feature not in feature_names:
            raise ValueError(
                f"switch feature {switch_feature!r} must be one of the "
                "model's features"
            )
        if len(feature_names) < 2:
            raise ValueError(
                "the switching model needs at least one feature besides "
                "the frequency indicator"
            )
        self.switch_feature = switch_feature
        self.switch_index = feature_names.index(switch_feature)
        self._state_values: np.ndarray | None = None
        self._state_fits: dict[int, OLSFit] = {}
        self._global_fit: OLSFit | None = None

    # ------------------------------------------------------------------
    def _quantize_states(self, frequencies: np.ndarray) -> np.ndarray:
        """Cluster observed frequency readings into P-state levels.

        Readings carry a little sensor noise, so exact uniqueness over-
        fragments; we round to a resolution coarse enough to merge noise
        but fine enough to separate real states.
        """
        finite = frequencies[np.isfinite(frequencies)]
        if finite.size == 0:
            raise ValueError("switch feature has no finite values")
        span = float(finite.max() - finite.min())
        resolution = max(span / 20.0, 1e-9)
        levels = np.unique(np.round(finite / resolution))
        if levels.size > MAX_STATES:
            # Quantile-based merge down to MAX_STATES levels.
            quantiles = np.linspace(0, 1, MAX_STATES + 1)[1:-1]
            edges = np.quantile(finite, quantiles)
            levels = np.unique(
                np.searchsorted(edges, finite)
            ).astype(float)
            self._edges = edges
            return levels
        self._edges = None
        self._resolution = resolution
        return levels

    def _assign_states(self, frequencies: np.ndarray) -> np.ndarray:
        if self._edges is not None:
            return np.searchsorted(self._edges, frequencies).astype(float)
        return np.round(frequencies / self._resolution)

    def _fit(self, design: np.ndarray, power: np.ndarray) -> None:
        # State-local linear fits extrapolate badly outside the narrow
        # feature slice they saw; clamp prediction inputs to the training
        # envelope, as online deployments do.
        self._feature_low = design.min(axis=0)
        self._feature_high = design.max(axis=0)
        span = float(power.max() - power.min())
        self._power_low = float(power.min()) - 0.3 * span
        self._power_high = float(power.max()) + 0.3 * span
        frequencies = design[:, self.switch_index]
        self._quantize_states(frequencies)
        states = self._assign_states(frequencies)
        other = [i for i in range(self.n_features) if i != self.switch_index]
        self._other_indices = other

        self._global_fit = fit_ols(design, power)
        self._state_fits = {}
        self._state_envelopes = {}
        min_rows = _MIN_BUCKET_ROWS_FACTOR * (len(other) + 1)
        self._state_values = np.unique(states)
        for state in self._state_values:
            mask = states == state
            if int(mask.sum()) < min_rows:
                continue  # fall back to the global model for this state
            bucket = design[mask][:, other]
            self._state_fits[int(state)] = fit_ols(bucket, power[mask])
            # A state-local fit is only trustworthy inside the feature
            # slice it saw; record that slice for prediction-time clamping.
            self._state_envelopes[int(state)] = (
                bucket.min(axis=0),
                bucket.max(axis=0),
            )

    def _predict(self, design: np.ndarray) -> np.ndarray:
        design = np.clip(design, self._feature_low, self._feature_high)
        frequencies = design[:, self.switch_index]
        states = self._assign_states(frequencies)
        prediction = self._global_fit.predict(design)
        for state, fit in self._state_fits.items():
            mask = states == state
            if mask.any():
                low, high = self._state_envelopes[state]
                bucket = np.clip(
                    design[mask][:, self._other_indices], low, high
                )
                prediction[mask] = fit.predict(bucket)
        return np.clip(prediction, self._power_low, self._power_high)

    @property
    def n_states(self) -> int:
        return len(self._state_fits)

    @property
    def n_parameters(self) -> int:
        if self._global_fit is None:
            return 0
        per_state = sum(
            fit.coefficients.size for fit in self._state_fits.values()
        )
        return int(per_state + self._global_fit.coefficients.size)

    def describe(self) -> str:
        if self._global_fit is None:
            return f"switching({self.n_features} features, unfitted)"
        return (
            f"switching on [{self.switch_feature}]: {self.n_states} "
            f"state-specific linear models + global fallback"
        )
