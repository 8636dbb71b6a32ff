"""Candidate evaluation: the four campaign objectives, as an engine task.

A candidate phenotype names a modeling *configuration* — technique,
feature family, counter budget, training fraction — and this module
turns it into a point in objective space:

``dre``
    Mean machine-level Dynamic Range Error over run-wise
    cross-validation folds (``metrics/errors.py`` via
    ``framework/crossval.py``) — the paper's accuracy metric.
``overhead``
    Per-sample collection + prediction CPU fraction from the analytic
    :func:`repro.framework.overhead.modeled_overhead` cost model.
``fit_cost``
    Modeled training cost: rows x expanded feature width x technique
    complexity (arbitrary units, comparable within a campaign).
``serving_p99``
    Modeled per-sample serving latency: the prediction term of the
    overhead model, which the replay probe's measured p99 tracks.

The ranked objectives are **deterministic by construction** — pure
functions of (phenotype, substrate) — so a campaign's Pareto frontier
and GA search path are bit-stable across hosts, worker counts, and
warm-cache replays.  Real wall-clock numbers (fit seconds, the serving
replay probe's measured batch p99) are still collected and reported in
the candidate's ``measured`` dict; they inform the reader, not the
ranking.

Every candidate evaluation is one cacheable :class:`TaskSpec` running
:func:`candidate_task`; the substrate (runs + ranked counters) travels
as the pickled payload while everything identifying the work sits in
the JSON config, so the artifact cache key covers it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Tuple

import numpy as np

from repro.cluster.cluster import Cluster
from repro.cluster.dataset import runwise_folds
from repro.cluster.runner import (
    ClusterRun,
    execute_runs,
    runs_content_digest,
)
from repro.dse.space import Categorical, DesignSpace, FloatRange, IntRange
from repro.framework.crossval import evaluate_fold
from repro.framework.overhead import MODEL_COMPLEXITY, modeled_overhead
from repro.models.composition import PlatformModel
from repro.models.featuresets import (
    CPU_UTILIZATION_COUNTER,
    FREQUENCY_COUNTER,
    FeatureSet,
    cluster_plus_lagged_frequency,
    cluster_set,
    cpu_only_set,
    pool_features,
)
from repro.models.registry import build_model, supports_feature_set
from repro.platforms.specs import get_platform
from repro.selection.algorithm1 import run_algorithm1
from repro.serving.batcher import MicroBatchScorer
from repro.serving.bundle import make_bundle
from repro.serving.session import MachineSession, SessionConfig
from repro.serving.stats import ServingStats
from repro.workloads.suite import get_workload

#: Objective order: every objective matrix and weight vector in a
#: campaign uses this fixed order, all minimized.
OBJECTIVE_NAMES: Tuple[str, ...] = (
    "dre",
    "overhead",
    "fit_cost",
    "serving_p99",
)

#: Counter-ranking modes for the substrate.
RANKING_MODES = ("catalog", "algorithm1")

DEFAULT_PROBE_SECONDS = 20
MAX_COUNTER_BUDGET = 8


# ----------------------------------------------------------------------
# Substrate: what every candidate evaluation shares
# ----------------------------------------------------------------------

@dataclass
class CampaignSubstrate:
    """The measured context a campaign evaluates candidates against."""

    platform_key: str
    workload_name: str
    n_machines: int
    n_runs: int
    seed: int
    ranking: str
    runs: List[ClusterRun] = field(repr=False)
    ranked_counters: List[str]
    runs_digest: str
    idle_power_w: float

    def provenance(self) -> dict:
        """JSON-safe identity (everything but the bulky runs)."""
        return {
            "platform": self.platform_key,
            "workload": self.workload_name,
            "machines": self.n_machines,
            "runs": self.n_runs,
            "seed": self.seed,
            "ranking": self.ranking,
            "ranked_counters": list(self.ranked_counters),
            "runs_digest": self.runs_digest,
        }


def _catalog_ranking(cluster: Cluster, platform_key: str) -> List[str]:
    """Fast deterministic ranking: utilization and frequency first, then
    the catalog's activity-linked counters in declaration order."""
    catalog = cluster.catalog_for(platform_key)
    ranked = [CPU_UTILIZATION_COUNTER, FREQUENCY_COUNTER]
    for definition in catalog.definitions:
        if len(ranked) >= MAX_COUNTER_BUDGET:
            break
        if definition.informative and definition.name not in ranked:
            ranked.append(definition.name)
    return ranked


def _algorithm1_ranking(
    cluster: Cluster, workload_name: str, runs: List[ClusterRun]
) -> List[str]:
    """Paper-faithful ranking: Algorithm 1's occurrence histogram,
    heaviest first, padded from the catalog if selection ran short."""
    result = run_algorithm1(cluster, {workload_name: runs})
    ranked = sorted(
        result.histogram,
        key=lambda name: (-result.histogram[name], name),
    )
    for name in _catalog_ranking(cluster, cluster.platform_keys[0]):
        if len(ranked) >= MAX_COUNTER_BUDGET:
            break
        if name not in ranked:
            ranked.append(name)
    return ranked[:MAX_COUNTER_BUDGET]


def build_substrate(
    platform: str,
    workload: str,
    n_machines: int = 2,
    n_runs: int = 2,
    seed: int = 0,
    ranking: str = "catalog",
) -> CampaignSubstrate:
    """Collect the runs and counter ranking one campaign shares.

    ``ranking="catalog"`` is the fast deterministic default (CPU
    utilization + frequency + activity-linked catalog counters);
    ``ranking="algorithm1"`` runs the paper's full selection funnel and
    ranks by its occurrence histogram — slower, for real campaigns.
    """
    if ranking not in RANKING_MODES:
        raise ValueError(
            f"unknown ranking {ranking!r} (choose from {RANKING_MODES})"
        )
    if n_runs < 2:
        raise ValueError("campaigns need >= 2 runs for run-wise folds")
    spec = get_platform(platform)
    cluster = Cluster.homogeneous(spec, n_machines=n_machines, seed=seed)
    runs = execute_runs(
        cluster, get_workload(workload), n_runs=n_runs, seed=seed
    )
    if ranking == "algorithm1":
        ranked = _algorithm1_ranking(cluster, workload, runs)
    else:
        ranked = _catalog_ranking(cluster, spec.key)
    return CampaignSubstrate(
        platform_key=spec.key,
        workload_name=workload,
        n_machines=n_machines,
        n_runs=n_runs,
        seed=seed,
        ranking=ranking,
        runs=runs,
        ranked_counters=ranked,
        runs_digest=runs_content_digest(runs),
        idle_power_w=spec.idle_power_w,
    )


# ----------------------------------------------------------------------
# The CHAOS design space
# ----------------------------------------------------------------------

def chaos_space(substrate: CampaignSubstrate) -> DesignSpace:
    """The modeling-configuration space a CHAOS campaign explores.

    ``n_counters`` is conditional: it only exists for the feature
    families that consume the ranked counter list, so a ``U`` candidate
    that mutates its (inactive) counter budget stays one phenotype.
    """
    max_counters = min(len(substrate.ranked_counters), MAX_COUNTER_BUDGET)
    if max_counters < 2:
        raise ValueError("substrate ranked fewer than two counters")
    return DesignSpace([
        Categorical("model", ("L", "P", "Q", "S")),
        Categorical("features", ("U", "C", "CP")),
        IntRange("n_counters", 2, max_counters, when=("features", ("C", "CP"))),
        FloatRange("train_fraction", 0.2, 0.9),
    ])


def candidate_feature_set(
    phenotype: dict, ranked_counters: List[str]
) -> FeatureSet:
    """The feature set a phenotype selects from the ranked counters."""
    family = phenotype["features"]
    if family == "U":
        return cpu_only_set()
    selected = tuple(ranked_counters[: phenotype["n_counters"]])
    if family == "C":
        return cluster_set(selected)
    if family == "CP":
        return cluster_plus_lagged_frequency(selected)
    raise ValueError(f"unknown feature family {family!r}")


def space_constraint(
    substrate: CampaignSubstrate,
) -> Callable[[dict], bool]:
    """Feasibility closure for sampling/repair in the GA.

    Mirrors :func:`repro.models.registry.supports_feature_set`: the
    quadratic and switching techniques need >= 2 features, and switching
    needs the frequency counter among its inputs.  The evaluator
    re-checks independently, so a constraint miss degrades to an
    infeasible verdict, never a crash.
    """
    ranked = list(substrate.ranked_counters)

    def feasible(phenotype: dict) -> bool:
        try:
            feature_set = candidate_feature_set(phenotype, ranked)
        except (KeyError, ValueError, IndexError):
            return False
        return supports_feature_set(phenotype["model"], feature_set)

    return feasible


# ----------------------------------------------------------------------
# Modeled costs
# ----------------------------------------------------------------------

def _expanded_width(model_code: str, n_features: int) -> int:
    return (
        n_features * n_features if model_code == "Q" else n_features
    )


def modeled_fit_cost(
    model_code: str, n_features: int, n_rows: int
) -> float:
    """Training-cost proxy: least-squares on an (n_rows, width) design
    costs ~rows x width^2; scaled by the technique's complexity factor.
    Arbitrary units — comparable within a campaign, not across."""
    width = _expanded_width(model_code, n_features)
    return float(
        n_rows * width * width * MODEL_COMPLEXITY[model_code] * 1e-6
    )


def modeled_serving_p99(model_code: str, n_features: int) -> float:
    """Serving-latency proxy in seconds per scored sample: the
    prediction term of the overhead cost model (collection happens on
    the machine, not the serving host)."""
    report = modeled_overhead(model_code, 0, n_features)
    return report.prediction_seconds_per_sample


# ----------------------------------------------------------------------
# The serving replay probe
# ----------------------------------------------------------------------

def replay_probe(
    platform_model: PlatformModel,
    design: np.ndarray,
    substrate: CampaignSubstrate,
    probe_seconds: int,
) -> dict:
    """Stream a slice of the first run through a real serving stack.

    Builds a bundle, opens one :class:`MachineSession` per machine, and
    drives ``probe_seconds`` of recorded counters through the
    micro-batch scorer — the same layers ``repro serve`` runs behind the
    wire protocol.  Returns measured (wall-clock) telemetry: the scored
    count doubles as a feasibility check, the batch p99 as the measured
    shadow of the ``serving_p99`` objective.
    """
    bundle = make_bundle(
        platform_model,
        design,
        idle_power_w=substrate.idle_power_w,
        meta={"scenario": "dse-probe"},
    )
    stats = ServingStats()
    scorer = MicroBatchScorer(stats=stats)
    run = substrate.runs[0]
    sessions = []
    session_logs = []
    for machine_id in run.machine_ids:
        sessions.append(
            MachineSession(
                machine_id, "dse@probe", bundle, config=SessionConfig()
            )
        )
        session_logs.append(run.logs[machine_id])
    required = sessions[0].predictor.required_counters
    columns = [log.select(list(required)) for log in session_logs]
    n_seconds = min(probe_seconds, run.n_seconds)
    start_s = time.perf_counter()
    for t in range(n_seconds):
        for session, rows in zip(sessions, columns):
            session.submit(
                t,
                {name: rows[t][j] for j, name in enumerate(required)},
            )
        scorer.tick(sessions)
    wall_s = time.perf_counter() - start_s
    snapshot = stats.snapshot(sessions=sessions)
    return {
        "probe_seconds": n_seconds,
        "probe_sessions": len(sessions),
        "probe_scored": snapshot["samples_scored"],
        "probe_dropped": snapshot["dropped_samples"],
        "probe_wall_s": wall_s,
        "probe_batch_p99_s": snapshot["batch_latency_s"]["p99"],
    }


# ----------------------------------------------------------------------
# The engine task
# ----------------------------------------------------------------------

def evaluate_candidate(
    phenotype: dict,
    substrate: CampaignSubstrate,
    eval_seed: int,
    probe_seconds: int = DEFAULT_PROBE_SECONDS,
) -> dict:
    """Score one phenotype; returns the JSON-safe candidate verdict.

    Infeasible configurations (technique/feature-set mismatches) return
    ``{"feasible": False, ...}`` instead of raising, so a campaign with
    a leaky constraint degrades to penalty-ranking, not a crash.
    """
    try:
        feature_set = candidate_feature_set(
            phenotype, substrate.ranked_counters
        )
    except (KeyError, ValueError, IndexError) as error:
        return {"feasible": False, "reason": str(error)}
    model_code = phenotype["model"]
    if not supports_feature_set(model_code, feature_set):
        return {
            "feasible": False,
            "reason": (
                f"model {model_code} does not support feature set "
                f"{feature_set.name} ({feature_set.n_features} features)"
            ),
        }

    # -- dre: run-wise cross-validation --------------------------------
    train_fraction = phenotype["train_fraction"]
    machine_dres = []
    for fold_index, fold in enumerate(runwise_folds(substrate.n_runs)):
        machine_reports, _ = evaluate_fold(
            substrate.runs,
            model_code=model_code,
            feature_set=feature_set,
            fold=fold,
            fold_index=fold_index,
            train_fraction=train_fraction,
            seed=eval_seed,
        )
        machine_dres.extend(report.dre for report in machine_reports)
    dre = float(np.mean(machine_dres))

    # -- modeled cost objectives ---------------------------------------
    n_features = feature_set.n_features
    n_collected = len(feature_set.counters)
    overhead = modeled_overhead(model_code, n_collected, n_features)
    design, power = pool_features(substrate.runs, feature_set)
    n_train_rows = int(round(design.shape[0] * train_fraction))
    fit_cost = modeled_fit_cost(model_code, n_features, n_train_rows)
    serving_p99 = modeled_serving_p99(model_code, n_features)

    # -- measured shadows: fit wall time + the serving replay probe ----
    fit_start = time.perf_counter()
    model = build_model(model_code, feature_set).fit(design, power)
    fit_seconds = time.perf_counter() - fit_start
    platform_model = PlatformModel(
        platform_key=substrate.platform_key,
        model=model,
        feature_set=feature_set,
    )
    probe = replay_probe(platform_model, design, substrate, probe_seconds)
    if probe["probe_scored"] <= 0:
        return {
            "feasible": False,
            "reason": "serving probe scored no samples",
        }

    return {
        "feasible": True,
        "objectives": {
            "dre": dre,
            "overhead": overhead.cpu_fraction,
            "fit_cost": fit_cost,
            "serving_p99": serving_p99,
        },
        "measured": dict(probe, fit_seconds=fit_seconds),
        "detail": {
            "label": f"{model_code}{feature_set.name}",
            "n_features": n_features,
            "feature_names": list(feature_set.feature_names),
            "n_folds": substrate.n_runs,
            "n_train_rows": n_train_rows,
        },
    }


def candidate_task(config: dict, payload) -> dict:
    """Engine task: evaluate one campaign candidate.

    ``payload`` carries the substrate; everything identifying the work —
    the phenotype, the space digest, the runs digest, the evaluation
    seed — lives in ``config`` so the artifact cache key covers it.
    Candidate randomness is pinned by ``config["eval_seed"]`` for
    bit-reproducibility (the fold-task discipline of
    ``framework/crossval.py``).
    """
    substrate: CampaignSubstrate = payload
    return evaluate_candidate(
        dict(config["params"]),
        substrate,
        eval_seed=config["eval_seed"],
        probe_seconds=config["probe_seconds"],
    )
