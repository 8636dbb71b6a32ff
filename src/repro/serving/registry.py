"""Versioned model registry with a shadow-scoring publish gate.

The registry is a directory of content-addressed serving bundles plus a
single atomically-rewritten manifest:

* ``<root>/bundles/<digest>.json`` — immutable bundle payloads, keyed by
  the SHA-256 of their canonical JSON (``engine/hashing.py``), written
  with the same crash-safe temp-file + ``os.replace`` discipline as the
  artifact cache;
* ``<root>/manifest.json`` — per-platform version history and the live
  pointer, with a monotonically increasing ``generation`` the server
  polls to detect hot-swaps cheaply.

Publishing is **gated**: a candidate bundle is shadow-scored against the
currently-live model on a held-out replay window (a recorded
:class:`PerfmonLog` with metered power), and rejected when its DRE
(Eq. 6) regresses past a threshold — the paper's accuracy metric turned
into an operational guardrail.  Rollback just moves the live pointer
back one version; bundles are never deleted by publish or rollback.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field
from typing import Any

from repro.engine.cache import atomic_write_json
from repro.metrics.errors import dynamic_range_error
from repro.serving.bundle import ServingBundle, bundle_from_payload
from repro.telemetry.perfmon import PerfmonLog

MANIFEST_FORMAT_VERSION = 1

DEFAULT_MAX_DRE_REGRESSION = 0.02
"""Default gate: reject a candidate whose replay-window DRE exceeds the
live model's by more than two DRE points."""

ABSOLUTE_DRE_LIMIT = 0.70
"""With no live model to shadow, a candidate must at least beat this
absolute DRE on the replay window (the paper's worst acceptable models
sit far below it; a garbage bundle does not)."""


class RegistryError(RuntimeError):
    """A registry operation that cannot proceed (gate, missing version)."""


@dataclass(frozen=True)
class GateResult:
    """Outcome of shadow-scoring a candidate against the live model."""

    accepted: bool
    candidate_dre: float
    live_dre: float | None
    max_dre_regression: float
    reason: str

    def to_payload(self) -> dict:
        return {
            "accepted": self.accepted,
            "candidate_dre": self.candidate_dre,
            "live_dre": self.live_dre,
            "max_dre_regression": self.max_dre_regression,
            "reason": self.reason,
        }

    def describe(self) -> str:
        live = (
            f"{self.live_dre:.2%}" if self.live_dre is not None else "n/a"
        )
        status = "ACCEPT" if self.accepted else "REJECT"
        return (
            f"[{status}] candidate DRE {self.candidate_dre:.2%} vs live "
            f"{live} (max regression "
            f"{self.max_dre_regression:.2%}): {self.reason}"
        )


def shadow_score(
    candidate: ServingBundle,
    live: ServingBundle | None,
    replay_log: PerfmonLog,
    max_dre_regression: float = DEFAULT_MAX_DRE_REGRESSION,
) -> GateResult:
    """Score candidate (and live) on a held-out replay window.

    Both models predict the window's power from its counters; each gets
    a DRE against the metered series.  The candidate is accepted when it
    does not regress the live DRE by more than ``max_dre_regression``
    (or, with no live model, when it beats
    :data:`ABSOLUTE_DRE_LIMIT`).
    """
    candidate_dre = dynamic_range_error(
        replay_log.power_w,
        candidate.platform_model.predict_log(replay_log),
        idle_power=candidate.idle_power_w,
    )
    if live is None:
        accepted = candidate_dre <= ABSOLUTE_DRE_LIMIT
        reason = (
            "no live model; candidate within the absolute DRE limit"
            if accepted
            else f"no live model and candidate DRE exceeds the absolute "
            f"limit {ABSOLUTE_DRE_LIMIT:.2%}"
        )
        return GateResult(
            accepted=accepted,
            candidate_dre=candidate_dre,
            live_dre=None,
            max_dre_regression=max_dre_regression,
            reason=reason,
        )
    live_dre = dynamic_range_error(
        replay_log.power_w,
        live.platform_model.predict_log(replay_log),
        idle_power=live.idle_power_w,
    )
    regression = candidate_dre - live_dre
    accepted = regression <= max_dre_regression
    reason = (
        f"DRE regression {regression:+.2%} within the gate"
        if accepted
        else f"DRE regression {regression:+.2%} exceeds the gate"
    )
    return GateResult(
        accepted=accepted,
        candidate_dre=candidate_dre,
        live_dre=live_dre,
        max_dre_regression=max_dre_regression,
        reason=reason,
    )


@dataclass(frozen=True)
class VersionInfo:
    """One published version of one platform's model."""

    platform_key: str
    version: int
    digest: str
    generation: int
    """Registry-wide publish sequence number at publish time."""

    gate: dict | None = None

    @property
    def label(self) -> str:
        return f"{self.platform_key}@v{self.version}-{self.digest[:12]}"

    def to_payload(self) -> dict:
        return {
            "version": self.version,
            "digest": self.digest,
            "generation": self.generation,
            "gate": self.gate,
        }


def _version_from_payload(platform_key: str, payload: dict) -> VersionInfo:
    return VersionInfo(
        platform_key=platform_key,
        version=int(payload["version"]),
        digest=str(payload["digest"]),
        generation=int(payload["generation"]),
        gate=payload.get("gate"),
    )


@dataclass
class ModelRegistry:
    """Content-addressed bundle store + per-platform live pointers."""

    root: pathlib.Path

    _bundle_cache: dict[str, ServingBundle] = field(
        default_factory=dict, init=False, repr=False
    )

    def __post_init__(self):
        self.root = pathlib.Path(self.root)
        self._bundles_dir.mkdir(parents=True, exist_ok=True)

    @property
    def _bundles_dir(self) -> pathlib.Path:
        return self.root / "bundles"

    @property
    def _manifest_path(self) -> pathlib.Path:
        return self.root / "manifest.json"

    # -- manifest ------------------------------------------------------
    def _read_manifest(self) -> dict:
        try:
            with open(self._manifest_path) as handle:
                manifest = json.load(handle)
        except FileNotFoundError:
            return {
                "format_version": MANIFEST_FORMAT_VERSION,
                "generation": 0,
                "platforms": {},
            }
        if manifest.get("format_version") != MANIFEST_FORMAT_VERSION:
            raise RegistryError(
                f"unsupported manifest version "
                f"{manifest.get('format_version')!r}"
            )
        return manifest

    def _write_manifest(self, manifest: dict) -> None:
        atomic_write_json(self._manifest_path, manifest)

    @property
    def generation(self) -> int:
        """Monotonic publish/rollback counter (0 for an empty registry).

        Servers poll this between ticks: an unchanged generation means
        no live pointer moved, so no bundle needs reloading.
        """
        return int(self._read_manifest()["generation"])

    def platforms(self) -> list[str]:
        return sorted(self._read_manifest()["platforms"])

    # -- bundles -------------------------------------------------------
    def store_bundle(self, bundle: ServingBundle) -> str:
        """Persist a bundle payload; returns its content digest.

        Storing is idempotent — the digest *is* the identity, so an
        already-present bundle is simply reused.
        """
        digest = bundle.digest()
        path = self._bundles_dir / f"{digest}.json"
        if not path.exists():
            atomic_write_json(path, bundle.to_payload())
        self._bundle_cache[digest] = bundle
        return digest

    def load_bundle(self, digest: str) -> ServingBundle:
        """The immutable bundle for one digest (memoized per registry)."""
        cached = self._bundle_cache.get(digest)
        if cached is not None:
            return cached
        path = self._bundles_dir / f"{digest}.json"
        try:
            with open(path) as handle:
                bundle = bundle_from_payload(json.load(handle))
        except FileNotFoundError:
            raise RegistryError(f"no bundle stored for digest {digest!r}")
        if bundle.digest() != digest:
            raise RegistryError(
                f"bundle at {path} does not match its digest (corrupt?)"
            )
        self._bundle_cache[digest] = bundle
        return bundle

    # -- versions ------------------------------------------------------
    def history(self, platform_key: str) -> list[VersionInfo]:
        """All published versions for a platform, oldest first."""
        manifest = self._read_manifest()
        entry = manifest["platforms"].get(platform_key)
        if entry is None:
            return []
        return [
            _version_from_payload(platform_key, payload)
            for payload in entry["history"]
        ]

    def live_version(self, platform_key: str) -> VersionInfo | None:
        """The live version for a platform, or None before any publish."""
        manifest = self._read_manifest()
        entry = manifest["platforms"].get(platform_key)
        if entry is None or entry["live"] is None:
            return None
        for payload in entry["history"]:
            if payload["version"] == entry["live"]:
                return _version_from_payload(platform_key, payload)
        raise RegistryError(
            f"manifest live pointer v{entry['live']} for "
            f"{platform_key!r} has no history entry"
        )

    def live_bundle(
        self, platform_key: str
    ) -> tuple[VersionInfo, ServingBundle] | None:
        version = self.live_version(platform_key)
        if version is None:
            return None
        return version, self.load_bundle(version.digest)

    def publish(
        self,
        bundle: ServingBundle,
        replay_log: PerfmonLog | None = None,
        max_dre_regression: float = DEFAULT_MAX_DRE_REGRESSION,
        force: bool = False,
    ) -> tuple[VersionInfo, GateResult | None]:
        """Gate, store and make live one new bundle version.

        With a ``replay_log`` the candidate is shadow-scored against the
        live model and a rejected candidate raises :class:`RegistryError`
        (nothing is stored, the live pointer does not move) unless
        ``force`` overrides the gate.  Without a replay window the
        publish is ungated — intended for bootstrap and tests.
        """
        platform_key = bundle.platform_key
        gate: GateResult | None = None
        if replay_log is not None:
            live = self.live_bundle(platform_key)
            gate = shadow_score(
                bundle,
                live[1] if live is not None else None,
                replay_log,
                max_dre_regression=max_dre_regression,
            )
            if not gate.accepted and not force:
                raise RegistryError(
                    f"publish rejected by the shadow gate: "
                    f"{gate.describe()}"
                )
        digest = self.store_bundle(bundle)
        manifest = self._read_manifest()
        entry = manifest["platforms"].setdefault(
            platform_key, {"live": None, "history": []}
        )
        manifest["generation"] = int(manifest["generation"]) + 1
        version = VersionInfo(
            platform_key=platform_key,
            version=len(entry["history"]) + 1,
            digest=digest,
            generation=int(manifest["generation"]),
            gate=gate.to_payload() if gate is not None else None,
        )
        entry["history"].append(version.to_payload())
        entry["live"] = version.version
        self._write_manifest(manifest)
        return version, gate

    def rollback(self, platform_key: str) -> VersionInfo:
        """Move the live pointer back to the previously-live version."""
        manifest = self._read_manifest()
        entry = manifest["platforms"].get(platform_key)
        if entry is None or entry["live"] is None:
            raise RegistryError(
                f"nothing published for platform {platform_key!r}"
            )
        if entry["live"] <= 1:
            raise RegistryError(
                f"{platform_key!r} is at its first version; nothing to "
                "roll back to"
            )
        entry["live"] = entry["live"] - 1
        manifest["generation"] = int(manifest["generation"]) + 1
        self._write_manifest(manifest)
        live = self.live_version(platform_key)
        assert live is not None
        return live

    def snapshot(self) -> dict[str, Any]:
        """JSON-safe summary for telemetry and the CLI."""
        manifest = self._read_manifest()
        return {
            "root": str(self.root),
            "generation": int(manifest["generation"]),
            "platforms": {
                key: {
                    "live": entry["live"],
                    "versions": len(entry["history"]),
                }
                for key, entry in manifest["platforms"].items()
            },
        }
