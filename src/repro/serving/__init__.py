"""chaos-serve: the fleet-scale online power-prediction service.

Layers (bottom up):

* ``protocol``  — newline-delimited JSON wire format;
* ``bundle``    — deployable model + drift envelope + idle floor;
* ``registry``  — content-addressed versions, shadow-scored publish gate;
* ``session``   — per-machine ordering, backpressure, drift, online DRE;
* ``batcher``   — micro-batched scoring, one predict per model per tick;
* ``aggregate`` — Eq. 5 cluster sum with staleness decay;
* ``stats``     — JSON telemetry surface;
* ``shard``     — shared-nothing shard workers (inline or process);
* ``router``    — the asyncio TCP server: consistent-hash routing over
  one inline shard by default (or N), plus the hot-swap barrier;
* ``replay``    — recorded-cluster replay at a speed multiple.

See ``docs/serving.md`` for the architecture walkthrough.
"""

from repro.serving.aggregate import (
    ClusterAggregator,
    ClusterEstimate,
    MachineContribution,
)
from repro.serving.batcher import MicroBatchScorer
from repro.serving.bundle import (
    ServingBundle,
    bundle_from_payload,
    load_bundle,
    make_bundle,
    save_bundle,
)
from repro.serving.aggregate import merge_estimates
from repro.serving.protocol import ProtocolError
from repro.serving.registry import (
    GateResult,
    ModelRegistry,
    RegistryError,
    VersionInfo,
    shadow_score,
)
from repro.serving.replay import (
    ReplayMachine,
    ReplayMachineResult,
    ReplayResult,
    load_replay_fixture,
    max_deviation_w,
    offline_reference,
    replay,
    replay_async,
    save_replay_fixture,
)
from repro.serving.router import HashRing, ShardedPowerServer
from repro.serving.session import (
    MachineSession,
    ScoredSample,
    SessionConfig,
)
from repro.serving.shard import (
    InlineShardHost,
    ProcessShardHost,
    ShardError,
    ShardTickResult,
    ShardWorker,
    worker_config,
)
from repro.serving.stats import Histogram, ServingStats, merge_snapshots

__all__ = [
    "ClusterAggregator",
    "ClusterEstimate",
    "GateResult",
    "HashRing",
    "Histogram",
    "InlineShardHost",
    "MachineContribution",
    "MachineSession",
    "MicroBatchScorer",
    "ModelRegistry",
    "ProcessShardHost",
    "ProtocolError",
    "RegistryError",
    "ReplayMachine",
    "ReplayMachineResult",
    "ReplayResult",
    "ScoredSample",
    "ServingBundle",
    "ServingStats",
    "SessionConfig",
    "ShardError",
    "ShardTickResult",
    "ShardWorker",
    "ShardedPowerServer",
    "VersionInfo",
    "bundle_from_payload",
    "load_bundle",
    "load_replay_fixture",
    "make_bundle",
    "max_deviation_w",
    "merge_estimates",
    "merge_snapshots",
    "offline_reference",
    "replay",
    "replay_async",
    "save_bundle",
    "save_replay_fixture",
    "shadow_score",
    "worker_config",
]
