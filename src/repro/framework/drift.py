"""Input-drift detection for deployed power models.

The cross-workload experiment shows CHAOS models degrade on workload
types they never trained on — and the paper's answer is regeneration
("the main motivation for the automated model generation framework").
But a deployed agent has no power meter, so it cannot *see* its accuracy
degrade.  What it can see is its inputs: a new workload type drives the
selected counters outside the envelope the model was trained on.

``InputDriftDetector`` watches exactly that.  At training time it records
per-feature quantile envelopes; online, it tracks the fraction of recent
samples falling outside them.  When that fraction exceeds what the
training distribution would produce, the agent should flag the model for
regeneration — turning the cross-workload caveat into an operational
signal instead of silent error.

Serving calls :meth:`InputDriftDetector.observe` once per scored sample,
so the trailing window is a preallocated ring with running counts: each
sample costs O(features), not O(window).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.arraysan import contracted


@dataclass(frozen=True)
class DriftVerdict:
    """The detector's current assessment."""

    drifting: bool
    out_of_envelope_fraction: float
    expected_fraction: float
    worst_feature: str | None
    worst_feature_fraction: float

    def describe(self) -> str:
        status = "DRIFT" if self.drifting else "ok"
        detail = (
            f" (worst: {self.worst_feature}, "
            f"{self.worst_feature_fraction:.0%} outside)"
            if self.worst_feature
            else ""
        )
        return (
            f"[{status}] {self.out_of_envelope_fraction:.1%} of recent "
            f"samples outside the training envelope "
            f"(expected ~{self.expected_fraction:.1%}){detail}"
        )


@dataclass
class InputDriftDetector:
    """Quantile-envelope drift detector over model input counters."""

    feature_names: list[str]
    envelope_quantile: float = 0.995
    """Per-side training quantile defining the envelope; 0.5% of training
    samples fall outside each side by construction."""

    window_seconds: int = 120
    trigger_ratio: float = 8.0
    """Declare drift when the observed out-of-envelope fraction exceeds
    ``trigger_ratio`` times the training-expected fraction."""

    min_samples: int = 30

    _low: np.ndarray | None = field(default=None, init=False)
    _high: np.ndarray | None = field(default=None, init=False)
    # The trailing window: a ring of per-sample "outside" rows with
    # running per-feature and any-feature counts over the slots in use.
    _outside: np.ndarray = field(init=False, repr=False, compare=False)
    _any_outside: np.ndarray = field(init=False, repr=False, compare=False)
    _counts: np.ndarray = field(init=False, repr=False, compare=False)
    _n_any: int = field(default=0, init=False, repr=False, compare=False)
    _head: int = field(default=0, init=False, repr=False, compare=False)
    _fill: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.feature_names:
            raise ValueError("need at least one feature")
        if not 0.5 < self.envelope_quantile < 1.0:
            raise ValueError("envelope_quantile must be in (0.5, 1)")
        if self.window_seconds < 1 or self.min_samples < 1:
            raise ValueError("window and min_samples must be positive")
        self._outside = np.zeros(
            (self.window_seconds, len(self.feature_names)), dtype=bool
        )
        self._any_outside = np.zeros(self.window_seconds, dtype=bool)
        self._counts = np.zeros(len(self.feature_names), dtype=np.int64)

    # ------------------------------------------------------------------
    @property
    def is_fitted(self) -> bool:
        return self._low is not None

    @property
    def has_observations(self) -> bool:
        """Whether the window holds a sample (False after construction
        or :meth:`reset`, when :meth:`verdict` would raise)."""
        return self._fill > 0

    @property
    def expected_fraction(self) -> float:
        """Out-of-envelope rate the training distribution itself produces
        (both tails of any of the features; union-bounded)."""
        per_feature = 2.0 * (1.0 - self.envelope_quantile)
        return min(per_feature * len(self.feature_names), 1.0)

    @property
    def envelope_low(self) -> np.ndarray:
        """Per-feature lower envelope bound (fitted detectors only)."""
        if self._low is None:
            raise RuntimeError("detector is not fitted")
        return self._low

    @property
    def envelope_high(self) -> np.ndarray:
        """Per-feature upper envelope bound (fitted detectors only)."""
        if self._high is None:
            raise RuntimeError("detector is not fitted")
        return self._high

    def fit(self, training_design: np.ndarray) -> "InputDriftDetector":
        """Record the training envelope from the model's design matrix."""
        design = np.asarray(training_design, dtype=float)
        if design.ndim != 2 or design.shape[1] != len(self.feature_names):
            raise ValueError(
                f"training design must be (n, {len(self.feature_names)})"
            )
        if design.shape[0] < self.min_samples:
            raise ValueError("not enough training samples for an envelope")
        self._low = np.quantile(design, 1.0 - self.envelope_quantile, axis=0)
        self._high = np.quantile(design, self.envelope_quantile, axis=0)
        return self

    @classmethod
    def from_envelope(
        cls,
        feature_names: list[str],
        low: np.ndarray,
        high: np.ndarray,
        envelope_quantile: float = 0.995,
        window_seconds: int = 120,
        trigger_ratio: float = 8.0,
        min_samples: int = 30,
    ) -> "InputDriftDetector":
        """Rebuild a fitted detector from stored envelope bounds.

        A serving bundle persists the training-time envelope alongside
        the model parameters; production hosts reconstruct the detector
        without ever seeing the training design matrix.
        """
        detector = cls(
            feature_names=list(feature_names),
            envelope_quantile=envelope_quantile,
            window_seconds=window_seconds,
            trigger_ratio=trigger_ratio,
            min_samples=min_samples,
        )
        low = np.asarray(low, dtype=float).ravel()
        high = np.asarray(high, dtype=float).ravel()
        if low.shape != (len(detector.feature_names),) or low.shape != high.shape:
            raise ValueError(
                f"envelope bounds must be ({len(detector.feature_names)},)"
            )
        if np.any(low > high):
            raise ValueError("envelope low bound exceeds high bound")
        detector._low = low
        detector._high = high
        return detector

    # ------------------------------------------------------------------
    @contracted
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
        any_outside = bool(outside.any())
        slot = self._head
        if self._fill == self.window_seconds:
            self._counts -= self._outside[slot]
            self._n_any -= int(self._any_outside[slot])
        else:
            self._fill += 1
        self._outside[slot] = outside
        self._any_outside[slot] = any_outside
        self._counts += outside
        self._n_any += any_outside
        self._head = (slot + 1) % self.window_seconds
        return self.verdict()

    def verdict(self) -> DriftVerdict:
        """Current assessment over the trailing window."""
        n = self._fill
        if n == 0:
            raise RuntimeError("no samples observed yet")
        # Exact integer counts over n: the same doubles as averaging the
        # window's 0/1 rows, and argmax over counts picks the same first
        # worst feature as argmax over counts / n.
        fraction = self._n_any / n
        worst_index = int(np.argmax(self._counts))
        worst_count = int(self._counts[worst_index])
        expected = self.expected_fraction
        return DriftVerdict(
            drifting=(
                n >= self.min_samples
                and fraction > self.trigger_ratio * expected
            ),
            out_of_envelope_fraction=fraction,
            expected_fraction=expected,
            worst_feature=(
                self.feature_names[worst_index] if worst_count > 0 else None
            ),
            worst_feature_fraction=worst_count / n,
        )

    def reset(self) -> None:
        """Clear the observation window (envelope is kept)."""
        self._outside[:] = False
        self._any_outside[:] = False
        self._counts[:] = 0
        self._n_any = 0
        self._head = 0
        self._fill = 0
