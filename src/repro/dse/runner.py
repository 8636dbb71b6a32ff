"""Campaign orchestration: screen, search, rank, persist.

A *campaign* is the unit of design-space exploration: one substrate
(platform + workload runs + counter ranking), one space, one seed, and a
budgeted batch of candidate evaluations executed through the fault-
tolerant experiment engine.  The runner owns the glue:

* **screening** — the fractional-factorial pass, evaluated as one
  engine run, reduced to ranked main effects;
* **search** — the seeded GA, whose per-generation evaluate callback
  compiles the generation's new phenotypes into content-addressed
  :class:`TaskSpec`s (key ``dse/<space>/cand/<digest>``) and runs them
  as one engine run.  Candidate configs are generation-independent and
  carry the campaign's one evaluation seed, so a re-encountered
  phenotype — same generation, later generation, or a ``--resume``
  after a crash — is a warm cache hit, never a recomputation;
* **ranking** — Pareto frontier + MCDM weighted scores over the feasible
  candidates;
* **persistence** — one canonical JSON payload (provenance, candidates,
  frontier, history) whose bytes are the campaign's identity: a resumed
  campaign must reproduce them bit-for-bit.  Volatile run telemetry
  (wall seconds, cache hit rate) rides alongside, outside the stable
  payload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.dse.factorial import (
    FactorEffect,
    main_effects,
    rank_factors,
    screening_candidates,
)
from repro.dse.ga import Evaluation, GAConfig, GenerationRecord, run_search
from repro.dse.mcdm import DEFAULT_WEIGHTS, mcdm_scores, normalize_weights
from repro.dse.objectives import (
    DEFAULT_PROBE_SECONDS,
    OBJECTIVE_NAMES,
    CampaignSubstrate,
    build_substrate,
    chaos_space,
    space_constraint,
)
from repro.dse.pareto import pareto_frontier
from repro.dse.space import DesignSpace
from repro.engine import (
    TaskSpec,
    atomic_write_json,
    canonical_json,
    resolve_cache,
    resolve_failure_policy,
    resolve_jobs,
    run_graph_report,
    sha256_hex,
)
from repro.telemetry.engine_stats import EngineTelemetry

CANDIDATE_TASK_FN = "repro.dse.objectives:candidate_task"

CAMPAIGN_FORMAT_VERSION = 1


@dataclass(frozen=True)
class CampaignConfig:
    """Everything identifying one campaign (substrate + search knobs)."""

    platform: str
    workload: str
    machines: int = 2
    runs: int = 2
    seed: int = 0
    ranking: str = "catalog"
    probe_seconds: int = DEFAULT_PROBE_SECONDS
    weights: Dict[str, float] = field(
        default_factory=lambda: dict(DEFAULT_WEIGHTS)
    )
    ga: GAConfig = field(default_factory=GAConfig)

    def to_config(self) -> dict:
        return {
            "platform": self.platform,
            "workload": self.workload,
            "machines": self.machines,
            "runs": self.runs,
            "seed": self.seed,
            "ranking": self.ranking,
            "probe_seconds": self.probe_seconds,
            "weights": dict(self.weights),
            "ga": self.ga.to_config(),
        }


class CampaignEvaluator:
    """Compiles candidate batches into engine tasks and runs them.

    One instance serves a whole campaign, accumulating telemetry across
    generations so the campaign rollup (total tasks, hit rate) reflects
    every batch that ran.
    """

    def __init__(
        self,
        substrate: CampaignSubstrate,
        space: DesignSpace,
        seed: int,
        probe_seconds: int = DEFAULT_PROBE_SECONDS,
        jobs: Optional[int] = None,
        cache=None,
        failure_policy: Optional[str] = None,
    ):
        self.substrate = substrate
        self.space = space
        self.seed = seed
        self.probe_seconds = probe_seconds
        self.jobs = resolve_jobs(jobs)
        self.cache = resolve_cache(cache)
        self.failure_policy = resolve_failure_policy(failure_policy)
        self.space_digest = space.digest()
        self.telemetry = EngineTelemetry()
        #: digest -> full verdict payload for every evaluated candidate.
        self.verdicts: Dict[str, dict] = {}

    def task_spec(self, digest: str, phenotype: dict) -> TaskSpec:
        """The content-addressed evaluation task for one phenotype.

        The key carries the space digest and the *phenotype* digest —
        never a generation or batch index — so the cache serves the
        same artifact wherever the candidate reappears.
        """
        return TaskSpec(
            key=f"dse/{self.space_digest[:12]}/cand/{digest[:16]}",
            fn=CANDIDATE_TASK_FN,
            config={
                "space_digest": self.space_digest,
                "runs_digest": self.substrate.runs_digest,
                "params": dict(phenotype),
                "eval_seed": self.seed,
                "probe_seconds": self.probe_seconds,
            },
            payload=self.substrate,
        )

    def __call__(
        self, digests: Sequence[str], genotypes: Dict[str, dict]
    ) -> Dict[str, Evaluation]:
        """The GA's batch-evaluate callback: one engine run per batch."""
        tasks = []
        spec_keys = {}
        for digest in digests:
            phenotype = self.space.normalize(genotypes[digest])
            spec = self.task_spec(digest, phenotype)
            tasks.append(spec)
            spec_keys[digest] = spec.key
        batch_telemetry = EngineTelemetry()
        report = run_graph_report(
            tasks,
            jobs=self.jobs,
            cache=self.cache,
            telemetry=batch_telemetry,
            failure_policy=self.failure_policy,
        )
        report.raise_if_failed()
        self.telemetry.merge(batch_telemetry)
        evaluations: Dict[str, Evaluation] = {}
        for digest in digests:
            verdict = report.results[spec_keys[digest]]
            self.verdicts[digest] = verdict
            if verdict["feasible"]:
                evaluations[digest] = Evaluation(
                    objectives=tuple(
                        float(verdict["objectives"][name])
                        for name in OBJECTIVE_NAMES
                    ),
                    feasible=True,
                )
            else:
                evaluations[digest] = Evaluation(
                    objectives=(), feasible=False
                )
        return evaluations


# ----------------------------------------------------------------------
# Screening
# ----------------------------------------------------------------------

@dataclass
class ScreenResult:
    """The factorial screening pass, reduced to ranked main effects."""

    config: CampaignConfig
    space_digest: str
    n_runs_evaluated: int
    n_feasible: int
    factors: List[FactorEffect]
    telemetry: EngineTelemetry

    def to_payload(self) -> dict:
        return {
            "kind": "dse-screen",
            "config": self.config.to_config(),
            "space_digest": self.space_digest,
            "runs_evaluated": self.n_runs_evaluated,
            "feasible": self.n_feasible,
            "objectives": list(OBJECTIVE_NAMES),
            "factors": [
                {
                    "name": factor.name,
                    "strength": factor.strength,
                    "effects": list(factor.effects),
                }
                for factor in self.factors
            ],
        }


def screen_campaign(
    config: CampaignConfig,
    substrate: Optional[CampaignSubstrate] = None,
    jobs: Optional[int] = None,
    cache=None,
    failure_policy: Optional[str] = None,
) -> ScreenResult:
    """Run the fractional-factorial screening pass for a campaign."""
    if substrate is None:
        substrate = build_substrate(
            config.platform,
            config.workload,
            n_machines=config.machines,
            n_runs=config.runs,
            seed=config.seed,
            ranking=config.ranking,
        )
    space = chaos_space(substrate)
    evaluator = CampaignEvaluator(
        substrate,
        space,
        seed=config.seed,
        probe_seconds=config.probe_seconds,
        jobs=jobs,
        cache=cache,
        failure_policy=failure_policy,
    )
    design, candidates = screening_candidates(space)
    digests = []
    genotypes = {}
    for candidate in candidates:
        digest = space.candidate_digest(candidate)
        digests.append(digest)
        genotypes.setdefault(digest, candidate)
    evaluations = evaluator(list(dict.fromkeys(digests)), genotypes)

    feasible = np.asarray(
        [evaluations[digest].feasible for digest in digests], dtype=bool
    )
    objectives = np.zeros((len(digests), len(OBJECTIVE_NAMES)))
    for i, digest in enumerate(digests):
        if feasible[i]:
            objectives[i] = evaluations[digest].objectives
    effects = main_effects(design, objectives, feasible)
    factors = rank_factors(space.names, effects, objectives, feasible)
    return ScreenResult(
        config=config,
        space_digest=space.digest(),
        n_runs_evaluated=len(digests),
        n_feasible=int(feasible.sum()),
        factors=factors,
        telemetry=evaluator.telemetry,
    )


# ----------------------------------------------------------------------
# Search
# ----------------------------------------------------------------------

@dataclass
class CampaignResult:
    """One finished search campaign, ready to rank and render."""

    config: CampaignConfig
    substrate_provenance: dict
    space_config: dict
    space_digest: str
    candidates: Dict[str, dict]
    """digest -> {params, feasible, objectives?, measured?, detail?}."""
    frontier: List[str]
    """Digests of the nondominated feasible candidates, sorted."""
    mcdm: List[dict]
    """[{digest, score}] best-first over the feasible candidates."""
    history: List[GenerationRecord]
    exhausted_budget: bool
    telemetry: EngineTelemetry
    provenance: dict = field(default_factory=dict)
    """Stamped by the CLI: git commit, invocation, timestamps."""

    def to_payload(self) -> dict:
        """The canonical campaign payload.

        Everything here is a pure function of (config, substrate, seed)
        — the bit-identity target for crash-resume.  Volatile data is
        deliberately excluded (see :meth:`run_info`): engine telemetry,
        and each candidate's ``measured`` wall-clock shadows, which are
        recorded at compute time and so differ between two cold runs of
        the same campaign.
        """
        ordered = sorted(self.candidates)
        stable = {}
        for digest in ordered:
            verdict = dict(self.candidates[digest])
            verdict.pop("measured", None)
            stable[digest] = verdict
        return {
            "format_version": CAMPAIGN_FORMAT_VERSION,
            "kind": "dse-campaign",
            "config": self.config.to_config(),
            "substrate": dict(self.substrate_provenance),
            "space": dict(self.space_config),
            "space_digest": self.space_digest,
            "objectives": list(OBJECTIVE_NAMES),
            "provenance": dict(self.provenance),
            "candidates": stable,
            "frontier": list(self.frontier),
            "mcdm": [dict(entry) for entry in self.mcdm],
            "history": [
                {
                    "generation": record.generation,
                    "population": list(record.population),
                    "evaluated": list(record.evaluated),
                    "frontier": list(record.frontier),
                    "best": list(record.best),
                }
                for record in self.history
            ],
            "exhausted_budget": self.exhausted_budget,
        }

    def payload_digest(self) -> str:
        """SHA-256 of the canonical payload — the resume identity."""
        return sha256_hex(canonical_json(self.to_payload()))

    def run_info(self) -> dict:
        """Volatile data for this execution, excluded from the stable
        payload: engine wall time and hit rate differ between a cold run
        and its warm resume, and the per-candidate measured shadows (fit
        wall time, serving-probe timings) are whatever the computing run
        observed."""
        return {
            "engine": self.telemetry.to_summary(),
            "measured": {
                digest: verdict["measured"]
                for digest, verdict in sorted(self.candidates.items())
                if "measured" in verdict
            },
        }


def rank_candidates(
    candidates: Dict[str, dict], weights: Dict[str, float]
) -> "tuple[List[str], List[dict]]":
    """(sorted frontier digests, best-first MCDM rows) over the feasible
    candidates; both empty when nothing was feasible."""
    feasible = sorted(
        digest
        for digest, verdict in candidates.items()
        if verdict["feasible"]
    )
    if not feasible:
        return [], []
    matrix = np.asarray(
        [
            [candidates[d]["objectives"][name] for name in OBJECTIVE_NAMES]
            for d in feasible
        ],
        dtype=float,
    )
    frontier = sorted(feasible[i] for i in pareto_frontier(matrix))
    vector = normalize_weights(weights, OBJECTIVE_NAMES)
    scores = mcdm_scores(matrix, vector)
    order = np.argsort(scores, kind="stable")
    mcdm = [
        {"digest": feasible[int(i)], "score": float(scores[int(i)])}
        for i in order
    ]
    return frontier, mcdm


def search_campaign(
    config: CampaignConfig,
    substrate: Optional[CampaignSubstrate] = None,
    jobs: Optional[int] = None,
    cache=None,
    failure_policy: Optional[str] = None,
    on_generation=None,
) -> CampaignResult:
    """Run the GA search campaign end to end."""
    if substrate is None:
        substrate = build_substrate(
            config.platform,
            config.workload,
            n_machines=config.machines,
            n_runs=config.runs,
            seed=config.seed,
            ranking=config.ranking,
        )
    space = chaos_space(substrate)
    evaluator = CampaignEvaluator(
        substrate,
        space,
        seed=config.seed,
        probe_seconds=config.probe_seconds,
        jobs=jobs,
        cache=cache,
        failure_policy=failure_policy,
    )
    result = run_search(
        space,
        evaluator,
        config.ga,
        seed=config.seed,
        constraint=space_constraint(substrate),
        on_generation=on_generation,
    )
    candidates: Dict[str, dict] = {}
    for digest in result.evaluated_order:
        verdict = dict(evaluator.verdicts[digest])
        verdict["params"] = space.normalize(result.genotypes[digest])
        candidates[digest] = verdict
    frontier, mcdm = rank_candidates(candidates, config.weights)
    return CampaignResult(
        config=config,
        substrate_provenance=substrate.provenance(),
        space_config=space.to_config(),
        space_digest=space.digest(),
        candidates=candidates,
        frontier=frontier,
        mcdm=mcdm,
        history=result.history,
        exhausted_budget=result.exhausted_budget,
        telemetry=evaluator.telemetry,
    )


def git_commit(root=None) -> str:
    """The repository HEAD for provenance stamps (``unknown`` outside
    a checkout — a campaign payload never fails over provenance)."""
    import pathlib
    import subprocess

    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root or pathlib.Path(__file__).parent,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def save_campaign(result: CampaignResult, path) -> None:
    """Write the canonical payload (plus volatile run info) atomically."""
    payload = result.to_payload()
    payload["run"] = result.run_info()
    atomic_write_json(path, payload)


def load_campaign(path) -> dict:
    """Read a campaign payload written by :func:`save_campaign`."""
    import json

    with open(path) as handle:
        payload = json.load(handle)
    if payload.get("kind") != "dse-campaign":
        raise ValueError(f"{path} is not a dse campaign payload")
    version = payload.get("format_version")
    if version != CAMPAIGN_FORMAT_VERSION:
        raise ValueError(f"unsupported campaign version {version!r}")
    return payload
