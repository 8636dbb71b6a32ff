"""Online (streaming) power prediction.

CHAOS models are "intended for online deployment" (Section IV): once per
second the agent reads the selected counters and emits a watts estimate.
``OnlinePowerPredictor`` is that agent's core: it consumes one counter
sample at a time, maintains the lag state that lagged features (MHz(t-1))
need, and produces the same numbers the batch path would — verified by
tests against ``PlatformModel.predict_log``.

The serving layer scores many predictors' samples in one vectorized
micro-batch, so the single-sample ``observe`` is split into two halves it
can drive separately: :meth:`prepare_row` (resolve counters, advance lag
state, return the feature row) and :meth:`commit` (record the prediction
into the rolling history).  ``observe`` remains the one-call form.

The model and its feature set are frozen, so the counters to resolve and
each feature's source (this second's value or the lagged one) are worked
out once per predictor; :meth:`prepare_row` only walks that plan.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.arraysan import contracted
from repro.models.composition import PlatformModel

_LAG_SUFFIX = " (t-1)"


class StaleSampleError(RuntimeError):
    """Raised when every recent sample needed patching.

    ``allow_missing`` papers over the occasional dropped counter, but a
    *dead* counter source would otherwise freeze the prediction at the
    last live value forever — silently.  After ``max_consecutive_patches``
    patched samples in a row the predictor refuses to extrapolate further
    until a clean sample arrives.
    """


@dataclass
class OnlinePowerPredictor:
    """Feed 1 Hz counter samples, get 1 Hz power predictions."""

    platform_model: PlatformModel
    history_seconds: int = 300
    allow_missing: bool = False
    """When True, a counter absent (or non-finite) in a sample reuses its
    previous value instead of raising — Perfmon occasionally drops a
    sample under load, and a deployed agent must ride through it."""

    max_consecutive_patches: int | None = None
    """With ``allow_missing``, how many *consecutive* patched samples are
    tolerated before :meth:`prepare_row` raises :class:`StaleSampleError`.
    ``None`` keeps the historical unbounded behavior."""

    _last_sample: dict[str, float] | None = field(default=None, init=False)
    _history: deque = field(init=False)
    _n_observed: int = field(default=0, init=False)
    _n_patched: int = field(default=0, init=False)
    _n_patched_samples: int = field(default=0, init=False)
    _consecutive_patched: int = field(default=0, init=False)
    _required: tuple[str, ...] = field(init=False, repr=False, compare=False)
    _row_plan: tuple[tuple[str, bool], ...] = field(
        init=False, repr=False, compare=False
    )
    """One ``(counter, is_lag)`` per model feature, in feature order."""

    def __post_init__(self):
        if self.history_seconds < 1:
            raise ValueError("history_seconds must be positive")
        if (
            self.max_consecutive_patches is not None
            and self.max_consecutive_patches < 1
        ):
            raise ValueError("max_consecutive_patches must be positive")
        self._history = deque(maxlen=self.history_seconds)
        plan = []
        for name in self.platform_model.feature_set.feature_names:
            if name.endswith(_LAG_SUFFIX):
                plan.append((name[: -len(_LAG_SUFFIX)], True))
            else:
                plan.append((name, False))
        self._row_plan = tuple(plan)
        self._required = tuple(dict.fromkeys(base for base, _ in plan))

    # ------------------------------------------------------------------
    @property
    def required_counters(self) -> list[str]:
        """Counters the caller must supply each second (lags excluded —
        the predictor keeps those itself)."""
        return list(self._required)

    @property
    def n_observed(self) -> int:
        return self._n_observed

    @property
    def n_patched(self) -> int:
        """How many missing/invalid counter values were papered over."""
        return self._n_patched

    @property
    def n_patched_samples(self) -> int:
        """How many samples needed at least one counter patched."""
        return self._n_patched_samples

    @property
    def patched_fraction(self) -> float:
        """Fraction of observed samples that needed patching (0.0 when
        nothing has been observed yet)."""
        if self._n_observed == 0:
            return 0.0
        return self._n_patched_samples / self._n_observed

    @property
    def consecutive_patched(self) -> int:
        """Length of the current run of patched samples (0 after any
        clean sample)."""
        return self._consecutive_patched

    def _resolve(self, counter_sample: dict[str, float], name: str) -> float:
        value = counter_sample.get(name)
        if value is not None and math.isfinite(value):
            return float(value)
        if self.allow_missing and self._last_sample is not None:
            fallback = self._last_sample.get(name)
            if fallback is not None and math.isfinite(fallback):
                self._n_patched += 1
                return float(fallback)
        raise KeyError(f"sample missing counters: [{name!r}]")

    @contracted
    def prepare_row(self, counter_sample: dict[str, float]) -> np.ndarray:
        """Resolve one sample into its model feature row.

        Advances the lag state and the patch bookkeeping, but does not
        predict — the serving batcher stacks rows from many predictors
        and runs one vectorized predict, then hands each prediction back
        through :meth:`commit`.  Rows must be prepared in sample order.
        """
        patched_before = self._n_patched
        resolved = {
            name: self._resolve(counter_sample, name)
            for name in self._required
        }
        sample_was_patched = self._n_patched > patched_before
        if sample_was_patched:
            self._consecutive_patched += 1
            if (
                self.max_consecutive_patches is not None
                and self._consecutive_patched > self.max_consecutive_patches
            ):
                # Refuse to keep extrapolating from a dead source.  The
                # counters stay un-consumed: the next clean sample resets
                # the run and prediction resumes.
                raise StaleSampleError(
                    f"{self._consecutive_patched} consecutive samples "
                    f"needed patching (cap "
                    f"{self.max_consecutive_patches}); counter source "
                    "looks dead"
                )
        else:
            self._consecutive_patched = 0
        if sample_was_patched:
            self._n_patched_samples += 1

        lagged = (
            self._last_sample if self._last_sample is not None else resolved
        )
        row = [
            lagged[base] if is_lag else resolved[base]
            for base, is_lag in self._row_plan
        ]
        self._last_sample = resolved
        return np.asarray(row, dtype=float)

    def commit(self, prediction_w: float) -> float:
        """Record one prediction into the rolling history."""
        prediction_w = float(prediction_w)
        self._history.append(prediction_w)
        self._n_observed += 1
        return prediction_w

    def observe(self, counter_sample: dict[str, float]) -> float:
        """Ingest one second of counters; returns the predicted watts."""
        row = self.prepare_row(counter_sample)
        prediction = float(
            self.platform_model.model.predict(row[None, :])[0]
        )
        return self.commit(prediction)

    # ------------------------------------------------------------------
    def rolling_mean_w(self, window_seconds: int | None = None) -> float:
        """Mean predicted power over the trailing window."""
        if not self._history:
            raise ValueError("no samples observed yet")
        values = list(self._history)
        if window_seconds is not None:
            if window_seconds < 1:
                raise ValueError("window must be positive")
            values = values[-window_seconds:]
        return float(np.mean(values))

    def peak_w(self) -> float:
        """Peak predicted power in the retained history."""
        if not self._history:
            raise ValueError("no samples observed yet")
        return float(np.max(self._history))

    def carry_state_from(self, other: "OnlinePowerPredictor") -> None:
        """Adopt another predictor's lag state, history and counters.

        Hot-swapping a serving session to a new model version must not
        reset the MHz(t-1) lag state or the rolling statistics — the
        stream is continuous even when the model changes under it.
        """
        if other._last_sample is not None:
            self._last_sample = dict(other._last_sample)
        for value in other._history:
            self._history.append(value)
        self._n_observed = other._n_observed
        self._n_patched = other._n_patched
        self._n_patched_samples = other._n_patched_samples
        self._consecutive_patched = other._consecutive_patched

    def reset(self) -> None:
        """Forget lag state and history (e.g. between workload runs)."""
        self._last_sample = None
        self._history.clear()
        self._n_observed = 0
        self._n_patched = 0
        self._n_patched_samples = 0
        self._consecutive_patched = 0
