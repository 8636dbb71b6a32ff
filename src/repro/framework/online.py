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
out once per predictor.  A clean sample (every counter present and
finite) then costs one gather of the counters, one finiteness test of
their sum and one gather of the row; only a sample with a missing or
non-finite counter walks the counters one by one to patch them.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable

import numpy as np

from repro.models.composition import PlatformModel

_LAG_SUFFIX = " (t-1)"


def _tuple_getter(keys) -> Callable:
    """``operator.itemgetter`` that returns a tuple for one key too."""
    if len(keys) == 1:
        key = keys[0]
        return lambda container: (container[key],)
    return itemgetter(*keys)


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

    _last_values: tuple | None = field(default=None, init=False)
    """The last resolved sample's counter values in required-counter
    order: what the next sample's lagged features and patches read."""
    _history: deque = field(init=False)
    _n_observed: int = field(default=0, init=False)
    _n_patched: int = field(default=0, init=False)
    _n_patched_samples: int = field(default=0, init=False)
    _consecutive_patched: int = field(default=0, init=False)
    _required: tuple[str, ...] = field(init=False, repr=False, compare=False)
    _gather: Callable[[dict], tuple] = field(
        init=False, repr=False, compare=False
    )
    """Every required counter's value, in order, in one call."""
    _row_gather: Callable[[tuple], tuple] | None = field(
        init=False, repr=False, compare=False
    )
    """The feature row from (this second's values + the lagged ones);
    None when the row is this second's values as they are."""

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
        self._required = tuple(dict.fromkeys(base for base, _ in plan))
        self._gather = _tuple_getter(self._required)
        if plan == [(name, False) for name in self._required]:
            self._row_gather = None
        else:
            position = {name: i for i, name in enumerate(self._required)}
            lag_offset = len(self._required)
            self._row_gather = _tuple_getter([
                position[base] + (lag_offset if is_lag else 0)
                for base, is_lag in plan
            ])

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

    @property
    def _last_sample(self) -> dict[str, float] | None:
        """The last resolved sample by counter name (None before the
        first)."""
        if self._last_values is None:
            return None
        return dict(zip(self._required, self._last_values))

    def _resolve(
        self,
        counter_sample: dict[str, float],
        name: str,
        last: dict[str, float] | None,
    ) -> float:
        value = counter_sample.get(name)
        if value is not None and math.isfinite(value):
            return float(value)
        if self.allow_missing and last is not None:
            fallback = last.get(name)
            if fallback is not None and math.isfinite(fallback):
                self._n_patched += 1
                return float(fallback)
        raise KeyError(f"sample missing counters: [{name!r}]")

    def prepare_row(
        self,
        counter_sample: dict[str, float],
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Resolve one sample into its model feature row.

        Advances the lag state and the patch bookkeeping, but does not
        predict — the serving batcher writes rows from many predictors
        into one group matrix (``out`` is the sample's row of it) and
        runs one vectorized predict, then hands each prediction back
        through :meth:`commit`.  Rows must be prepared in sample order.
        Returns ``out``, or a new row when ``out`` is None.
        """
        # A finite sum means no value is NaN or infinite; anything else
        # (a missing counter, None, inf - inf, an overflowing sum) takes
        # the exact counter-by-counter walk, which patches or raises.
        try:
            values = self._gather(counter_sample)
            clean = math.isfinite(math.fsum(values))
        except (KeyError, TypeError, ValueError, OverflowError):
            clean = False
        if clean:
            self._consecutive_patched = 0
        else:
            values = self._patched_values(counter_sample)
        if self._row_gather is None:
            row = values
        else:
            last = self._last_values
            row = self._row_gather(values + (values if last is None else last))
        self._last_values = values
        if out is None:
            return np.array(row, dtype=float)
        out[:] = row
        return out

    def _patched_values(self, counter_sample: dict[str, float]) -> tuple:
        """Resolve counter by counter, patching from the last sample."""
        patched_before = self._n_patched
        last = self._last_sample
        values = tuple(
            self._resolve(counter_sample, name, last)
            for name in self._required
        )
        if self._n_patched == patched_before:
            self._consecutive_patched = 0
            return values
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
        self._n_patched_samples += 1
        return values

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
        last = other._last_sample
        if last is not None and all(name in last for name in self._required):
            # A new model reading a counter the old one did not starts
            # its lag state afresh, as the first sample of a stream does.
            self._last_values = self._gather(last)
        for value in other._history:
            self._history.append(value)
        self._n_observed = other._n_observed
        self._n_patched = other._n_patched
        self._n_patched_samples = other._n_patched_samples
        self._consecutive_patched = other._consecutive_patched

    def reset(self) -> None:
        """Forget lag state and history (e.g. between workload runs)."""
        self._last_values = None
        self._history.clear()
        self._n_observed = 0
        self._n_patched = 0
        self._n_patched_samples = 0
        self._consecutive_patched = 0
