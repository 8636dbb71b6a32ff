"""Serving bundles: everything a production host needs to score power.

A :class:`ServingBundle` wraps a fitted :class:`PlatformModel` with the
two pieces of training-time context the online agent needs but the bare
model payload does not carry:

* the **drift envelope** — per-feature training quantile bounds, so a
  host can rebuild an :class:`InputDriftDetector` without the training
  design matrix (the cross-workload experiment's regeneration signal);
* the **idle power floor** — the watts a silent machine of this platform
  decays to in the Eq. 5 cluster sum.

Bundles serialize to plain JSON (layered on ``models/persistence.py``)
and are content-addressed by the SHA-256 of their canonical JSON, which
is what the registry versions, publishes and rolls back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.engine.hashing import canonical_json, sha256_hex
from repro.framework.drift import DriftBlock, InputDriftDetector
from repro.models.composition import PlatformModel
from repro.models.persistence import (
    platform_model_from_payload,
    platform_model_to_payload,
)

BUNDLE_FORMAT_VERSION = 1

DEFAULT_ENVELOPE_QUANTILE = 0.995


@dataclass(frozen=True)
class ServingBundle:
    """A deployable power model plus its operational context."""

    platform_model: PlatformModel
    envelope_low: np.ndarray
    envelope_high: np.ndarray
    envelope_quantile: float
    idle_power_w: float
    meta: dict[str, Any] = field(default_factory=dict)
    """Free-form provenance (trainer seed, workload suite, ...)."""

    _drift_blocks: dict[int, DriftBlock] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    """The shared drift block per window length (see
    :meth:`open_drift_window`)."""

    def __post_init__(self):
        n_features = self.platform_model.feature_set.n_features
        low = np.asarray(self.envelope_low, dtype=float).ravel()
        high = np.asarray(self.envelope_high, dtype=float).ravel()
        if low.shape != (n_features,) or high.shape != (n_features,):
            raise ValueError(
                f"envelope bounds must have {n_features} entries"
            )
        if np.any(low > high):
            raise ValueError("envelope low bound exceeds high bound")
        if self.idle_power_w < 0:
            raise ValueError("idle_power_w must be non-negative")
        object.__setattr__(self, "envelope_low", low)
        object.__setattr__(self, "envelope_high", high)

    @property
    def platform_key(self) -> str:
        return self.platform_model.platform_key

    def build_drift_detector(
        self, window_seconds: int = 120
    ) -> InputDriftDetector:
        """A fitted drift detector over this bundle's envelope."""
        return InputDriftDetector.from_envelope(
            feature_names=self.platform_model.feature_set.feature_names,
            low=self.envelope_low,
            high=self.envelope_high,
            envelope_quantile=self.envelope_quantile,
            window_seconds=window_seconds,
        )

    def open_drift_window(
        self, window_seconds: int = 120
    ) -> InputDriftDetector:
        """A drift detector whose window is a fresh slot in this
        bundle's block.

        Every session scored by this bundle (at one window length)
        shares the block, so a tick updates all their windows at once.
        A bundle object never leaves the shard worker that loaded it,
        so neither does its block.  Call the detector's ``release``
        when the session ends.
        """
        block = self._drift_blocks.get(window_seconds)
        if block is None:
            block = DriftBlock(self.build_drift_detector(window_seconds))
            self._drift_blocks[window_seconds] = block
        return block.open_window()

    def to_payload(self) -> dict:
        return {
            "format_version": BUNDLE_FORMAT_VERSION,
            "platform_model": platform_model_to_payload(
                self.platform_model
            ),
            "drift_envelope": {
                "low": self.envelope_low.tolist(),
                "high": self.envelope_high.tolist(),
                "quantile": self.envelope_quantile,
            },
            "idle_power_w": self.idle_power_w,
            "meta": dict(self.meta),
        }

    def digest(self) -> str:
        """Content address: SHA-256 of the canonical JSON payload."""
        return sha256_hex(canonical_json(self.to_payload(), strict=False))


def bundle_from_payload(payload: dict) -> ServingBundle:
    version = payload.get("format_version")
    if version != BUNDLE_FORMAT_VERSION:
        raise ValueError(f"unsupported bundle version {version!r}")
    envelope = payload["drift_envelope"]
    return ServingBundle(
        platform_model=platform_model_from_payload(
            payload["platform_model"]
        ),
        envelope_low=np.asarray(envelope["low"], dtype=float),
        envelope_high=np.asarray(envelope["high"], dtype=float),
        envelope_quantile=float(envelope["quantile"]),
        idle_power_w=float(payload["idle_power_w"]),
        meta=dict(payload.get("meta", {})),
    )


def make_bundle(
    platform_model: PlatformModel,
    training_design: np.ndarray,
    idle_power_w: float,
    envelope_quantile: float = DEFAULT_ENVELOPE_QUANTILE,
    meta: dict[str, Any] | None = None,
) -> ServingBundle:
    """Assemble a bundle from a fitted model and its training design.

    The envelope is the same per-feature quantile band
    ``InputDriftDetector.fit`` would record, computed here once at
    training time so serving hosts never need the design matrix.
    """
    design = np.asarray(training_design, dtype=float)
    n_features = platform_model.feature_set.n_features
    if design.ndim != 2 or design.shape[1] != n_features:
        raise ValueError(f"training design must be (n, {n_features})")
    if not 0.5 < envelope_quantile < 1.0:
        raise ValueError("envelope_quantile must be in (0.5, 1)")
    return ServingBundle(
        platform_model=platform_model,
        envelope_low=np.quantile(design, 1.0 - envelope_quantile, axis=0),
        envelope_high=np.quantile(design, envelope_quantile, axis=0),
        envelope_quantile=envelope_quantile,
        idle_power_w=float(idle_power_w),
        meta=dict(meta or {}),
    )


def save_bundle(bundle: ServingBundle, path) -> None:
    """Write a bundle to JSON atomically (crash-safe, like the cache)."""
    from repro.engine.cache import atomic_write_json

    atomic_write_json(path, bundle.to_payload())


def load_bundle(path) -> ServingBundle:
    """Read a bundle written by :func:`save_bundle`."""
    import json

    with open(path) as handle:
        return bundle_from_payload(json.load(handle))
