"""Registry: versioning, the shadow gate, rollback, integrity."""

from __future__ import annotations

import json

import pytest

from repro.serving import ModelRegistry, RegistryError, shadow_score
from repro.serving.registry import ABSOLUTE_DRE_LIMIT

from tests.serving.conftest import degraded_bundle


@pytest.fixture()
def registry(tmp_path):
    return ModelRegistry(tmp_path / "registry")


@pytest.fixture()
def holdout_window(scenario, holdout_log):
    return holdout_log


def test_bootstrap_publish_and_live_pointer(registry, scenario):
    assert registry.generation == 0
    assert registry.platforms() == []
    version, gate = registry.publish(scenario.bundle("Q"))
    assert gate is None
    assert version.version == 1
    assert registry.generation == 1
    live = registry.live_bundle(scenario.platform_key)
    assert live is not None
    live_version, live_bundle = live
    assert live_version.label == version.label
    assert live_bundle.digest() == scenario.bundle("Q").digest()


def test_gated_publish_accepts_genuine_candidate(
    registry, scenario, holdout_window
):
    registry.publish(scenario.bundle("L"))
    version, gate = registry.publish(
        scenario.bundle("Q"), replay_log=holdout_window
    )
    assert gate is not None and gate.accepted
    assert version.version == 2
    assert version.gate["candidate_dre"] == gate.candidate_dre
    live = registry.live_version(scenario.platform_key)
    assert live is not None and live.version == 2


def test_degraded_candidate_rejected_and_nothing_stored(
    registry, scenario, holdout_window
):
    registry.publish(scenario.bundle("Q"))
    generation_before = registry.generation
    bad = degraded_bundle(scenario)
    with pytest.raises(RegistryError, match="shadow gate"):
        registry.publish(bad, replay_log=holdout_window)
    # The rejection left no trace: live pointer, generation and the
    # bundle store are untouched.
    assert registry.generation == generation_before
    live = registry.live_version(scenario.platform_key)
    assert live is not None and live.version == 1
    with pytest.raises(RegistryError, match="no bundle stored"):
        ModelRegistry(registry.root).load_bundle(bad.digest())


def test_bootstrap_absolute_gate_blocks_garbage(
    registry, scenario, holdout_window
):
    bad = degraded_bundle(scenario)
    gate = shadow_score(bad, None, holdout_window)
    assert not gate.accepted
    assert gate.candidate_dre > ABSOLUTE_DRE_LIMIT
    with pytest.raises(RegistryError, match="shadow gate"):
        registry.publish(bad, replay_log=holdout_window)


def test_force_overrides_the_gate(registry, scenario, holdout_window):
    registry.publish(scenario.bundle("Q"))
    bad = degraded_bundle(scenario)
    version, gate = registry.publish(
        bad, replay_log=holdout_window, force=True
    )
    assert gate is not None and not gate.accepted
    assert version.version == 2
    live = registry.live_version(scenario.platform_key)
    assert live is not None and live.version == 2


def test_rollback_moves_live_pointer_back(registry, scenario):
    registry.publish(scenario.bundle("L"))
    registry.publish(scenario.bundle("Q"))
    generation = registry.generation
    restored = registry.rollback(scenario.platform_key)
    assert restored.version == 1
    assert registry.generation == generation + 1
    live = registry.live_bundle(scenario.platform_key)
    assert live is not None
    assert live[1].digest() == scenario.bundle("L").digest()
    # History is never rewritten by a rollback.
    assert len(registry.history(scenario.platform_key)) == 2


def test_rollback_without_predecessor_fails(registry, scenario):
    with pytest.raises(RegistryError, match="nothing published"):
        registry.rollback(scenario.platform_key)
    registry.publish(scenario.bundle("Q"))
    with pytest.raises(RegistryError, match="first version"):
        registry.rollback(scenario.platform_key)


def test_store_is_idempotent_and_digest_verified(registry, scenario):
    bundle = scenario.bundle("Q")
    digest = registry.store_bundle(bundle)
    assert registry.store_bundle(bundle) == digest
    # Corrupt the stored payload on disk: loading must refuse it.
    path = registry.root / "bundles" / f"{digest}.json"
    payload = json.loads(path.read_text())
    payload["idle_power_w"] = payload["idle_power_w"] + 1.0
    path.write_text(json.dumps(payload))
    fresh = ModelRegistry(registry.root)
    with pytest.raises(RegistryError, match="digest"):
        fresh.load_bundle(digest)


def test_snapshot_is_json_safe(registry, scenario):
    registry.publish(scenario.bundle("L"))
    registry.publish(scenario.bundle("Q"))
    snapshot = registry.snapshot()
    json.dumps(snapshot)
    platform = snapshot["platforms"][scenario.platform_key]
    assert platform == {"live": 2, "versions": 2}
