"""Cluster power model composition (Eq. 5).

Cluster power is the sum of per-machine predictions from the pooled
machine-level model.  Because Algorithm 1 and the pooled fit already
absorbed machine-to-machine variation, the same model applies to every
machine of a platform; a heterogeneous cluster simply applies each
platform's model to its own machines (Section V-B).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.runner import ClusterRun
from repro.models.base import PowerModel
from repro.models.featuresets import FeatureSet


@dataclass(frozen=True)
class PlatformModel:
    """A fitted machine model plus the feature set that feeds it."""

    platform_key: str
    model: PowerModel
    feature_set: FeatureSet

    def predict_log(self, log) -> np.ndarray:
        """Predicted power series for one machine's Perfmon log."""
        return self.model.predict(self.feature_set.extract(log))


@dataclass
class ClusterPowerModel:
    """Eq. 5: cluster power = sum of machine model predictions."""

    platform_models: dict[str, PlatformModel]
    machine_platforms: dict[str, str]
    """machine_id -> platform key."""

    def __post_init__(self):
        missing = {
            platform
            for platform in self.machine_platforms.values()
            if platform not in self.platform_models
        }
        if missing:
            raise ValueError(
                f"no platform model for platform(s): {sorted(missing)}"
            )

    def predict_machine(self, run: ClusterRun, machine_id: str) -> np.ndarray:
        """Predicted power series for one machine in a run."""
        try:
            platform = self.machine_platforms[machine_id]
        except KeyError:
            raise KeyError(f"unknown machine {machine_id!r}")
        log = run.logs[machine_id]
        return self.platform_models[platform].predict_log(log)

    def predict_cluster(self, run: ClusterRun) -> np.ndarray:
        """(T,) predicted total cluster power for a run."""
        predictions = [
            self.predict_machine(run, machine_id)
            for machine_id in run.machine_ids
            if machine_id in self.machine_platforms
        ]
        if not predictions:
            raise ValueError("run contains no machines known to this model")
        return np.sum(predictions, axis=0)


def compose_cluster_model(
    platform_models: list[PlatformModel],
    machine_platforms: dict[str, str],
) -> ClusterPowerModel:
    """Assemble a cluster model from per-platform machine models."""
    return ClusterPowerModel(
        platform_models={pm.platform_key: pm for pm in platform_models},
        machine_platforms=dict(machine_platforms),
    )
