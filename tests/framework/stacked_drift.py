"""The re-stacking drift window, kept as a test oracle.

``repro.framework.drift.InputDriftDetector`` keeps its trailing window
as a preallocated ring with running counts.  ``StackedDriftDetector``
keeps the window it replaced, a deque of per-sample boolean rows that
every verdict stacks and reduces again; the property tests require the
two to return bit-identical :class:`DriftVerdict` fields.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.framework.drift import DriftVerdict, InputDriftDetector


class StackedDriftDetector(InputDriftDetector):
    """The same envelope and thresholds, the old window arithmetic."""

    def __post_init__(self):
        super().__post_init__()
        self._window = deque(maxlen=self.window_seconds)

    def observe(self, sample: np.ndarray) -> DriftVerdict:
        """Ingest one second of model inputs and reassess drift."""
        if not self.is_fitted:
            raise RuntimeError("detector is not fitted")
        row = np.asarray(sample, dtype=float).ravel()
        if row.shape[0] != len(self.feature_names):
            raise ValueError(
                f"sample has {row.shape[0]} values, expected "
                f"{len(self.feature_names)}"
            )
        outside = (row < self._low) | (row > self._high)
        self._window.append(outside)
        return self.verdict()

    def verdict(self) -> DriftVerdict:
        """Current assessment over the trailing window."""
        if not self._window:
            raise RuntimeError("no samples observed yet")
        matrix = np.vstack(self._window)
        sample_outside = matrix.any(axis=1)
        fraction = float(sample_outside.mean())
        per_feature = matrix.mean(axis=0)
        worst_index = int(np.argmax(per_feature))
        drifting = (
            len(self._window) >= self.min_samples
            and fraction > self.trigger_ratio * self.expected_fraction
        )
        return DriftVerdict(
            drifting=drifting,
            out_of_envelope_fraction=fraction,
            expected_fraction=self.expected_fraction,
            worst_feature=(
                self.feature_names[worst_index]
                if per_feature[worst_index] > 0
                else None
            ),
            worst_feature_fraction=float(per_feature[worst_index]),
        )

    def reset(self) -> None:
        """Clear the observation window (envelope is kept)."""
        self._window.clear()
