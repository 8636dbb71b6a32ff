"""The model-exploration sweep: every technique x feature-set combination.

Section IV: "we build and evaluate over 1200 full-system power models per
cluster using different combinations of predictors and modeling
techniques."  The sweep enumerates the valid grid (quadratic/switching
need multiple features), cross-validates each cell, and reports the winner
per workload — the machinery behind Figures 3-4 and Table IV.

The sweep is embarrassingly parallel, so it compiles to one flat list of
engine tasks, one per (cell, fold), and executes with any worker count —
``repro sweep --jobs N`` — producing bit-identical metrics, with each
task backed by the content-addressed artifact cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.runner import ClusterRun, runs_content_digest
from repro.engine import (
    RunReport,
    resolve_cache,
    resolve_failure_policy,
    resolve_jobs,
    run_graph_report,
)
from repro.framework.crossval import (
    DEFAULT_TRAIN_FRACTION,
    EvaluationResult,
    assemble_evaluation,
    fold_task_specs,
)
from repro.models.featuresets import FeatureSet
from repro.models.registry import MODEL_CODES, supports_feature_set
from repro.telemetry.engine_stats import EngineTelemetry


@dataclass
class SweepResult:
    """All evaluation cells for one cluster-workload."""

    workload_name: str
    evaluations: list[EvaluationResult] = field(default_factory=list)

    incomplete_cells: list[str] = field(default_factory=list)
    """Cell labels dropped because a fold failed (only possible under
    ``failure_policy="continue"``)."""

    report: RunReport | None = None
    """The engine's per-task outcome report for this sweep's tasks."""

    @property
    def n_models_built(self) -> int:
        return sum(e.n_models_built for e in self.evaluations)

    def cell(self, model_code: str, feature_set_name: str) -> EvaluationResult:
        for evaluation in self.evaluations:
            if (
                evaluation.model_code == model_code
                and evaluation.feature_set_name == feature_set_name
            ):
                return evaluation
        raise KeyError(
            f"no evaluation for {model_code}{feature_set_name} on "
            f"{self.workload_name}"
        )

    def best(self) -> EvaluationResult:
        """The cell with the lowest mean machine DRE (Table IV's entry)."""
        if not self.evaluations:
            raise ValueError("sweep has no evaluations")
        return min(self.evaluations, key=lambda e: e.mean_machine_dre)


def sweep_models(
    runs: list[ClusterRun],
    feature_sets: list[FeatureSet],
    model_codes: tuple[str, ...] = MODEL_CODES,
    machine_ids: list[str] | None = None,
    train_fraction: float = DEFAULT_TRAIN_FRACTION,
    seed: int = 0,
    jobs: int | None = None,
    cache=None,
    telemetry: EngineTelemetry | None = None,
    failure_policy: str | None = None,
) -> SweepResult:
    """Cross-validate every valid technique x feature-set combination.

    Compiles the grid to one list of engine tasks — a task per (cell,
    fold) — and runs it with ``jobs`` workers against the artifact ``cache``
    (both default to the process-wide engine options).  Metrics are
    bit-identical for any worker count and for warm-cache reruns.

    With ``failure_policy="continue"`` a failed fold no longer aborts
    the grid: its cell is dropped (recorded in ``incomplete_cells``),
    every other cell still evaluates and caches, and the engine's
    :class:`RunReport` lands on the result for inspection.  The default
    (``fail_fast``) raises :class:`repro.engine.TaskError` on the first
    failure, as before.
    """
    if not runs:
        raise ValueError("need runs to sweep")
    jobs = resolve_jobs(jobs)
    cache = resolve_cache(cache)
    failure_policy = resolve_failure_policy(failure_policy)
    workload_name = runs[0].workload_name
    digest = runs_content_digest(runs) if cache is not None else ""

    cells = [
        (code, feature_set)
        for code in model_codes
        for feature_set in feature_sets
        if supports_feature_set(code, feature_set)
    ]
    tasks = []
    cell_specs = []
    for code, feature_set in cells:
        specs = fold_task_specs(
            runs,
            model_code=code,
            feature_set=feature_set,
            machine_ids=machine_ids,
            train_fraction=train_fraction,
            seed=seed,
            runs_digest=digest,
            key_prefix=f"{workload_name}/{code}{feature_set.name}",
        )
        tasks.extend(specs)
        cell_specs.append((code, feature_set, specs))

    # Under fail_fast the executor raises TaskError on the first failure;
    # under "continue" the report carries the failed tasks.
    report = run_graph_report(
        tasks, jobs=jobs, cache=cache, telemetry=telemetry,
        failure_policy=failure_policy,
    )

    sweep = SweepResult(workload_name=workload_name, report=report)
    results = report.results
    for code, feature_set, specs in cell_specs:
        if any(spec.key not in results for spec in specs):
            sweep.incomplete_cells.append(f"{code}{feature_set.name}")
            continue
        sweep.evaluations.append(
            assemble_evaluation(
                workload_name,
                code,
                feature_set.name,
                [results[spec.key] for spec in specs],
            )
        )
    return sweep
