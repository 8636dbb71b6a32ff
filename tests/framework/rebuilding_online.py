"""The per-sample feature walk, kept as a test oracle.

``repro.framework.online.OnlinePowerPredictor`` works out its required
counters and each feature's source once, at construction.
``RebuildingPowerPredictor`` is the predictor it replaced, which rebuilds
both from ``feature_set.feature_names`` on every sample and tests each
value with ``np.isfinite``; the parity tests require the two to return
the same rows, keep the same patch bookkeeping and raise at the same
samples.
"""

from __future__ import annotations

import numpy as np

from repro.framework.online import (
    _LAG_SUFFIX,
    OnlinePowerPredictor,
    StaleSampleError,
)


class RebuildingPowerPredictor(OnlinePowerPredictor):
    """The same predictor state, the old per-sample row assembly."""

    # The old lag state: a dict by counter name, rebuilt every sample.
    # (The predictor keeps a tuple and reads it by name through a
    # read-only ``_last_sample`` view, which this attribute shadows.)
    _last_sample: dict[str, float] | None = None

    @property
    def required_counters(self) -> list[str]:
        """Counters the caller must supply each second (lags excluded —
        the predictor keeps those itself)."""
        names = []
        for name in self.platform_model.feature_set.feature_names:
            base = (
                name[: -len(_LAG_SUFFIX)]
                if name.endswith(_LAG_SUFFIX)
                else name
            )
            if base not in names:
                names.append(base)
        return names

    def _resolve(self, counter_sample: dict[str, float], name: str) -> float:
        value = counter_sample.get(name)
        if value is not None and np.isfinite(value):
            return float(value)
        if self.allow_missing and self._last_sample is not None:
            fallback = self._last_sample.get(name)
            if fallback is not None and np.isfinite(fallback):
                self._n_patched += 1
                return float(fallback)
        raise KeyError(f"sample missing counters: [{name!r}]")

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
            for name in self.required_counters
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

        row = []
        for name in self.platform_model.feature_set.feature_names:
            if name.endswith(_LAG_SUFFIX):
                base = name[: -len(_LAG_SUFFIX)]
                source = (
                    self._last_sample
                    if self._last_sample is not None
                    else resolved
                )
                row.append(float(source[base]))
            else:
                row.append(resolved[name])
        self._last_sample = resolved
        return np.asarray(row, dtype=float)
