"""Cross-validated evaluation of one (technique, feature set) pair.

Reproduces the paper's protocol (Section V): 5-fold cross-validation where
each fold trains on ONE run and tests on the others, with the training
pool subsampled so the training set is roughly ten times smaller than the
test set.  Reports both machine-level DRE (Tables III/IV) and cluster-
level DRE for the composed Eq. 5 model.

Each fold is an independent task for the experiment engine: its RNG is
derived from ``(seed, fold index)`` rather than consumed from a shared
stream, so folds compute bit-identical results whether they run serially,
on a process pool, or come back from the artifact cache.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.dataset import Fold, runwise_folds
from repro.cluster.runner import ClusterRun, runs_content_digest
from repro.engine import (
    TaskSpec,
    resolve_cache,
    resolve_failure_policy,
    resolve_jobs,
    run_graph_report,
)
from repro.metrics.summary import AccuracyReport, ReportCollection
from repro.models.featuresets import FeatureSet, pool_features
from repro.models.registry import build_model
from repro.telemetry.engine_stats import EngineTelemetry

DEFAULT_TRAIN_FRACTION = 0.45
"""Fraction of the training run's rows kept, giving the paper's ~10x
smaller-training-set regime with 5 runs (one run kept partially vs four
full test runs)."""

FOLD_TASK_FN = "repro.framework.crossval:fold_task"


@dataclass
class EvaluationResult:
    """Accuracy of one technique + feature set on one cluster workload."""

    workload_name: str
    model_code: str
    feature_set_name: str
    machine_reports: ReportCollection
    cluster_reports: ReportCollection
    n_models_built: int

    @property
    def label(self) -> str:
        """Table IV-style label, e.g. 'QC' or 'QCP'."""
        return f"{self.model_code}{self.feature_set_name}"

    @property
    def mean_machine_dre(self) -> float:
        return self.machine_reports.mean_dre

    @property
    def mean_cluster_dre(self) -> float:
        return self.cluster_reports.mean_dre


# ----------------------------------------------------------------------
# One fold = one engine task
# ----------------------------------------------------------------------

def evaluate_fold(
    runs: list[ClusterRun],
    model_code: str,
    feature_set: FeatureSet,
    fold: Fold,
    fold_index: int,
    machine_ids: list[str] | None = None,
    train_fraction: float = DEFAULT_TRAIN_FRACTION,
    seed: int = 0,
) -> tuple[list[AccuracyReport], list[AccuracyReport]]:
    """Train on the fold's run(s), test on the rest.

    Returns (per-machine reports, per-test-run cluster reports).  The
    subsampling RNG is keyed by ``(seed, fold_index)`` so the fold is a
    self-contained, order-independent unit of work.
    """
    if not 0.0 < train_fraction <= 1.0:
        raise ValueError("train_fraction must be in (0, 1]")
    rng = np.random.default_rng([seed, 9001, fold_index])
    train_runs = [runs[i] for i in fold.train_runs]
    design, power = pool_features(
        train_runs, feature_set, machine_ids=machine_ids
    )
    if train_fraction < 1.0:
        keep = max(
            int(round(design.shape[0] * train_fraction)),
            4 * (feature_set.n_features + 1),
        )
        keep = min(keep, design.shape[0])
        rows = rng.choice(design.shape[0], size=keep, replace=False)
        rows.sort()
        design, power = design[rows], power[rows]

    model = build_model(model_code, feature_set).fit(design, power)

    machine_reports: list[AccuracyReport] = []
    cluster_reports: list[AccuracyReport] = []
    for run_index in fold.test_runs:
        run = runs[run_index]
        ids = machine_ids if machine_ids is not None else run.machine_ids
        per_machine_predictions = []
        per_machine_power = []
        for machine_id in ids:
            log = run.logs[machine_id]
            prediction = model.predict(feature_set.extract(log))
            machine_reports.append(
                AccuracyReport.from_predictions(log.power_w, prediction)
            )
            per_machine_predictions.append(prediction)
            per_machine_power.append(log.power_w)
        cluster_prediction = np.sum(per_machine_predictions, axis=0)
        cluster_power = np.sum(per_machine_power, axis=0)
        cluster_reports.append(
            AccuracyReport.from_predictions(cluster_power, cluster_prediction)
        )
    return machine_reports, cluster_reports


def fold_task(config: dict, payload) -> dict:
    """Engine task: evaluate one fold; returns a JSON-safe payload.

    ``payload`` carries the runs; everything identifying the work (and
    a content digest of the runs) lives in ``config`` so the artifact
    cache key covers it.  Fold randomness is pinned by
    ``config['seed']`` for bit-reproducibility.
    """
    runs: list[ClusterRun] = payload
    feature_set = FeatureSet(
        name=config["feature_set"]["name"],
        counters=tuple(config["feature_set"]["counters"]),
        lagged_counters=tuple(config["feature_set"]["lagged_counters"]),
    )
    fold = Fold(
        train_runs=tuple(config["fold"]["train_runs"]),
        test_runs=tuple(config["fold"]["test_runs"]),
    )
    machine_ids = config["machine_ids"]
    machine, cluster = evaluate_fold(
        runs,
        model_code=config["model_code"],
        feature_set=feature_set,
        fold=fold,
        fold_index=config["fold"]["index"],
        machine_ids=list(machine_ids) if machine_ids is not None else None,
        train_fraction=config["train_fraction"],
        seed=config["seed"],
    )
    return {
        "machine": [report.to_payload() for report in machine],
        "cluster": [report.to_payload() for report in cluster],
        "n_models_built": 1,
    }


def _feature_set_config(feature_set: FeatureSet) -> dict:
    return {
        "name": feature_set.name,
        "counters": list(feature_set.counters),
        "lagged_counters": list(feature_set.lagged_counters),
    }


def fold_task_specs(
    runs: list[ClusterRun],
    model_code: str,
    feature_set: FeatureSet,
    machine_ids: list[str] | None,
    train_fraction: float,
    seed: int,
    runs_digest: str,
    key_prefix: str,
) -> list[TaskSpec]:
    """One cacheable task per cross-validation fold of one grid cell."""
    specs = []
    for fold_index, fold in enumerate(runwise_folds(len(runs))):
        config = {
            "runs_digest": runs_digest,
            "model_code": model_code,
            "feature_set": _feature_set_config(feature_set),
            "fold": {
                "index": fold_index,
                "train_runs": list(fold.train_runs),
                "test_runs": list(fold.test_runs),
            },
            "machine_ids": (
                list(machine_ids) if machine_ids is not None else None
            ),
            "train_fraction": train_fraction,
            "seed": seed,
        }
        specs.append(
            TaskSpec(
                key=f"{key_prefix}/fold{fold_index}",
                fn=FOLD_TASK_FN,
                config=config,
                payload=runs,
            )
        )
    return specs


def assemble_evaluation(
    workload_name: str,
    model_code: str,
    feature_set_name: str,
    fold_results: list[dict],
) -> EvaluationResult:
    """Fold-task payloads (in fold order) -> one EvaluationResult."""
    machine_reports = ReportCollection()
    cluster_reports = ReportCollection()
    n_models = 0
    for result in fold_results:
        for payload in result["machine"]:
            machine_reports.add(AccuracyReport.from_payload(payload))
        for payload in result["cluster"]:
            cluster_reports.add(AccuracyReport.from_payload(payload))
        n_models += result["n_models_built"]
    return EvaluationResult(
        workload_name=workload_name,
        model_code=model_code,
        feature_set_name=feature_set_name,
        machine_reports=machine_reports,
        cluster_reports=cluster_reports,
        n_models_built=n_models,
    )


# ----------------------------------------------------------------------
# Public entry point
# ----------------------------------------------------------------------

def cross_validate(
    runs: list[ClusterRun],
    model_code: str,
    feature_set: FeatureSet,
    machine_ids: list[str] | None = None,
    train_fraction: float = DEFAULT_TRAIN_FRACTION,
    seed: int = 0,
    jobs: int | None = None,
    cache=None,
    telemetry: EngineTelemetry | None = None,
    failure_policy: str | None = None,
) -> EvaluationResult:
    """Evaluate a technique + feature set with run-wise cross-validation.

    ``jobs``/``cache``/``failure_policy`` default to the process-wide
    engine options (see :mod:`repro.engine.options`); results are
    bit-identical for any worker count, and warm-cache reruns skip
    completed folds.

    Every fold is required to assemble the evaluation, so a failed fold
    always raises :class:`repro.engine.TaskError` — but under
    ``failure_policy="continue"`` the surviving folds finish (and cache)
    first, so a rerun against the warm cache recomputes only the fold
    that failed.
    """
    if not runs:
        raise ValueError("need runs to evaluate")
    if not 0.0 < train_fraction <= 1.0:
        raise ValueError("train_fraction must be in (0, 1]")
    jobs = resolve_jobs(jobs)
    cache = resolve_cache(cache)
    failure_policy = resolve_failure_policy(failure_policy)
    workload_name = runs[0].workload_name
    digest = runs_content_digest(runs) if cache is not None else ""
    specs = fold_task_specs(
        runs,
        model_code=model_code,
        feature_set=feature_set,
        machine_ids=machine_ids,
        train_fraction=train_fraction,
        seed=seed,
        runs_digest=digest,
        key_prefix=f"{workload_name}/{model_code}{feature_set.name}",
    )
    report = run_graph_report(
        specs, jobs=jobs, cache=cache, telemetry=telemetry,
        failure_policy=failure_policy,
    )
    report.raise_if_failed()
    return assemble_evaluation(
        workload_name,
        model_code,
        feature_set.name,
        [report.results[spec.key] for spec in specs],
    )
