"""Cross-workload generalization (Section V-C's caveat).

"We do not claim that these general models are applicable for any and
all workloads that run on this hardware.  This is the main motivation
for the automated model generation framework."

This experiment measures exactly that: for each workload, train the
quadratic cluster model on the OTHER three workloads and evaluate on the
held-out one, against the multi-workload model trained on all four.  The
gap is the price of encountering a workload the model never saw — and
the reason the framework makes regeneration cheap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.data import DataRepository, get_repository
from repro.framework.reports import format_percent, render_table
from repro.metrics.summary import AccuracyReport
from repro.models.featuresets import cluster_set, pool_features
from repro.models.quadratic import QuadraticPowerModel
from repro.workloads.suite import WORKLOAD_NAMES

PLATFORM = "opteron"


@dataclass
class CrossWorkloadResult:
    """Held-out-workload DRE vs multi-workload DRE, per workload."""

    unseen_dre: dict[str, float]
    multiworkload_dre: dict[str, float]

    def gap(self, workload: str) -> float:
        return self.unseen_dre[workload] - self.multiworkload_dre[workload]

    @property
    def mean_gap(self) -> float:
        return float(np.mean([self.gap(w) for w in self.unseen_dre]))

    def render(self) -> str:
        table = render_table(
            ["held-out workload", "trained on other 3", "trained on all 4",
             "gap"],
            [
                [
                    workload,
                    format_percent(self.unseen_dre[workload]),
                    format_percent(self.multiworkload_dre[workload]),
                    format_percent(self.gap(workload), decimals=2),
                ]
                for workload in self.unseen_dre
            ],
            title=(
                "Cross-workload generalization (Opteron, quadratic on "
                "cluster features)"
            ),
        )
        footer = (
            f"mean generalization gap {format_percent(self.mean_gap, 2)}; "
            "regenerating the model with the new workload's data (one "
            "framework run) closes it"
        )
        return table + "\n" + footer


def _evaluate(model, feature_set, runs) -> float:
    dres = []
    for run in runs:
        for machine_id in run.machine_ids:
            log = run.logs[machine_id]
            prediction = model.predict(feature_set.extract(log))
            dres.append(
                AccuracyReport.from_predictions(log.power_w, prediction).dre
            )
    return float(np.mean(dres))


def run_cross_workload(
    repository: DataRepository | None = None,
    platform_key: str = PLATFORM,
) -> CrossWorkloadResult:
    repo = repository if repository is not None else get_repository()
    feature_set = cluster_set(repo.selection(platform_key).selected)
    runs_by_workload = repo.runs_by_workload(platform_key)

    unseen: dict[str, float] = {}
    multi: dict[str, float] = {}
    for held_out in WORKLOAD_NAMES:
        test_runs = runs_by_workload[held_out][-2:]

        other_runs = [
            run
            for name in WORKLOAD_NAMES
            if name != held_out
            for run in runs_by_workload[name][:3]
        ]
        design, power = pool_features(other_runs, feature_set)
        unseen_model = QuadraticPowerModel(
            feature_set.feature_names
        ).fit(design, power)
        unseen[held_out] = _evaluate(unseen_model, feature_set, test_runs)

        all_runs = other_runs + runs_by_workload[held_out][:3]
        design, power = pool_features(all_runs, feature_set)
        multi_model = QuadraticPowerModel(
            feature_set.feature_names
        ).fit(design, power)
        multi[held_out] = _evaluate(multi_model, feature_set, test_runs)

    return CrossWorkloadResult(unseen_dre=unseen, multiworkload_dre=multi)
