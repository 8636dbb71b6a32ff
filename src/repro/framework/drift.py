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

The trailing windows live in a :class:`DriftBlock`: for every stream
judged against one envelope, a preallocated ring of per-feature
"outside" flags with running counts, one slot per stream.  Serving
gives each session on a bundle a slot in that bundle's block and
updates a whole model group with one :meth:`DriftBlock.observe_rows`
per position in the sessions' ready runs (one per tick in steady
state), a fixed number of numpy calls whatever the group's size.  A
standalone detector is the one-stream view: it owns a block of one
slot, so :meth:`InputDriftDetector.observe` runs the same arithmetic.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np


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
    # The trailing window: one slot of a DriftBlock (a private block of
    # one slot, built on the first observe, or a slot of a shared block
    # handed out by DriftBlock.open_window).
    _block: DriftBlock | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _slot: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.feature_names:
            raise ValueError("need at least one feature")
        if not 0.5 < self.envelope_quantile < 1.0:
            raise ValueError("envelope_quantile must be in (0.5, 1)")
        if self.window_seconds < 1 or self.min_samples < 1:
            raise ValueError("window and min_samples must be positive")

    # ------------------------------------------------------------------
    @property
    def is_fitted(self) -> bool:
        return self._low is not None

    @property
    def has_observations(self) -> bool:
        """Whether the window holds a sample (False after construction
        or :meth:`reset`, when :meth:`verdict` would raise)."""
        return self._block is not None and self._block.fill(self._slot) > 0

    @property
    def block(self) -> DriftBlock | None:
        """The block holding this detector's window (None before the
        first observe of a standalone detector, and after
        :meth:`release`)."""
        return self._block

    @property
    def slot(self) -> int:
        """This detector's slot in :attr:`block`."""
        return self._slot

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
        if self._block is None:
            self._block = DriftBlock(self)
            self._slot = self._block.acquire()
        self._block.observe_rows(np.array([self._slot]), row[None, :])
        return self.verdict()

    def verdict(self) -> DriftVerdict:
        """Current assessment over the trailing window."""
        n = 0 if self._block is None else self._block.fill(self._slot)
        if n == 0:
            raise RuntimeError("no samples observed yet")
        n_any, counts = self._block.counts(self._slot)
        # Exact integer counts over n: the same doubles as averaging the
        # window's 0/1 rows, and argmax over counts picks the same first
        # worst feature as argmax over counts / n.
        fraction = n_any / n
        worst_index = int(np.argmax(counts))
        worst_count = int(counts[worst_index])
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
        if self._block is not None:
            self._block.clear(self._slot)

    def release(self) -> None:
        """Give the window's slot back to its block.

        The window is cleared; a later :meth:`observe` starts a fresh
        private window.  Releasing twice is harmless.
        """
        if self._block is not None:
            self._block.release(self._slot)
            self._block = None


class DriftBlock:
    """The trailing drift windows of many streams judged by one rule.

    The rule is a fitted :class:`InputDriftDetector`: its envelope,
    window length, ``min_samples`` and trigger.  Each stream holds one
    slot; per slot the block keeps a ring of ``window × features``
    outside flags and ``window`` any-outside flags, per-feature counts,
    an any-count, a head and a fill.  A released slot is zeroed, so the
    ring entry a filling window overwrites is always all-False and an
    update can subtract it unconditionally.  Capacity doubles when every
    slot is taken and never shrinks; released slots are reused.
    """

    def __init__(self, rule: InputDriftDetector):
        if not rule.is_fitted:
            raise RuntimeError("detector is not fitted")
        self.rule = rule
        self.window_seconds = rule.window_seconds
        self.n_features = len(rule.feature_names)
        self._outside = np.zeros(
            (0, self.window_seconds, self.n_features), dtype=bool
        )
        self._any_outside = np.zeros((0, self.window_seconds), dtype=bool)
        self._counts = np.zeros((0, self.n_features), dtype=np.int64)
        self._n_any = np.zeros(0, dtype=np.int64)
        self._head = np.zeros(0, dtype=np.int64)
        self._fill = np.zeros(0, dtype=np.int64)
        self._free: list[int] = []

    # -- slots ---------------------------------------------------------
    @property
    def capacity(self) -> int:
        return self._fill.shape[0]

    def live_slots(self) -> frozenset[int]:
        """The slots streams hold now."""
        return frozenset(range(self.capacity)) - frozenset(self._free)

    def acquire(self) -> int:
        """A free slot with an empty window."""
        if not self._free:
            self._grow(max(1, 2 * self.capacity))
        return self._free.pop()

    def release(self, slot: int) -> None:
        self.clear(slot)
        self._free.append(slot)

    def open_window(self) -> InputDriftDetector:
        """A detector with this block's rule and a fresh slot's window."""
        detector = copy.copy(self.rule)
        detector._block = self
        detector._slot = self.acquire()
        return detector

    def _grow(self, capacity: int) -> None:
        old = self.capacity
        for name in (
            "_outside", "_any_outside", "_counts", "_n_any", "_head",
            "_fill",
        ):
            array = getattr(self, name)
            grown = np.zeros((capacity,) + array.shape[1:], array.dtype)
            grown[:old] = array
            setattr(self, name, grown)
        # Popped from the end: the lowest new slot is handed out first.
        self._free.extend(range(capacity - 1, old - 1, -1))

    # -- one slot's window ---------------------------------------------
    def fill(self, slot: int) -> int:
        """How many samples the slot's window holds."""
        return int(self._fill[slot])

    def counts(self, slot: int) -> tuple[int, np.ndarray]:
        """The slot's any-outside count and per-feature outside counts."""
        return int(self._n_any[slot]), self._counts[slot]

    def clear(self, slot: int) -> None:
        self._outside[slot] = False
        self._any_outside[slot] = False
        self._counts[slot] = 0
        self._n_any[slot] = 0
        self._head[slot] = 0
        self._fill[slot] = 0

    # -- the update ----------------------------------------------------
    def observe_rows(self, slots: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Ingest ``rows[i]`` into slot ``slots[i]``; returns each
        sample's ``drifting``.

        The slots must be distinct: a stream with several samples to
        ingest takes one call per sample, in order, so a run longer than
        the window stays exact.  ``drifting`` is the verdict's rule over
        the integer counts (``fill >= min_samples`` and ``n_any / fill``
        above the trigger); the per-feature worst is left to
        :meth:`InputDriftDetector.verdict`.
        """
        rule = self.rule
        outside = (rows < rule._low) | (rows > rule._high)
        any_outside = outside.any(axis=1)
        heads = self._head[slots]
        self._counts[slots] += np.subtract(
            outside, self._outside[slots, heads], dtype=np.int64
        )
        n_any = self._n_any[slots] + np.subtract(
            any_outside, self._any_outside[slots, heads], dtype=np.int64
        )
        self._n_any[slots] = n_any
        self._outside[slots, heads] = outside
        self._any_outside[slots, heads] = any_outside
        fill = np.minimum(self._fill[slots] + 1, self.window_seconds)
        self._fill[slots] = fill
        self._head[slots] = (heads + 1) % self.window_seconds
        threshold = rule.trigger_ratio * rule.expected_fraction
        return (fill >= rule.min_samples) & (n_any / fill > threshold)
