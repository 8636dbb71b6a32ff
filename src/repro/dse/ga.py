"""Seeded genetic search over a design space (NSGA-II-lite).

The search loop is deliberately small: tournament selection on
(nondomination rank, crowding distance), uniform crossover, per-gene
mutation, elitist survivor selection.  What makes it a *campaign* engine
rather than a toy GA:

* **Batch evaluation.**  The GA never evaluates a candidate itself — it
  hands each generation's deduplicated phenotype digests to an
  ``evaluate`` callback, which the runner implements as one
  ``repro.engine`` run (parallel, cached, crash-resumable).
* **Determinism.**  All randomness derives from
  ``default_rng([seed, tag, generation])``; the same seed and space
  produce a bit-identical generation history, which the property suite
  pins and which makes ``--resume`` a pure cache replay.
* **Infeasibility as a penalty.**  Candidates the evaluator rejects are
  ranked strictly behind every feasible candidate instead of crashing
  the loop, so a constrained space degrades gracefully.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.dse.pareto import rank_and_crowd
from repro.dse.space import DesignSpace

#: Seed-derivation tags (arbitrary but fixed; see engine seed discipline).
_TAG_INIT = 7101
_TAG_GEN = 7102


@dataclass(frozen=True)
class GAConfig:
    """Search knobs; defaults suit a few-hundred-candidate campaign."""

    population: int = 24
    generations: int = 8
    tournament: int = 2
    crossover_rate: float = 0.9
    mutation_rate: float = 0.2
    elites: int = 4
    #: Hard cap on distinct candidate evaluations; the search stops
    #: early once the cap would be exceeded.  ``None`` = unlimited.
    budget: Optional[int] = None

    def __post_init__(self) -> None:
        if self.population < 2:
            raise ValueError("population must be at least 2")
        if self.generations < 1:
            raise ValueError("need at least one generation")
        if not 0 <= self.elites < self.population:
            raise ValueError("elites must be in [0, population)")
        if self.tournament < 1:
            raise ValueError("tournament size must be positive")

    def to_config(self) -> dict:
        return {
            "population": self.population,
            "generations": self.generations,
            "tournament": self.tournament,
            "crossover_rate": self.crossover_rate,
            "mutation_rate": self.mutation_rate,
            "elites": self.elites,
            "budget": self.budget,
        }


@dataclass(frozen=True)
class Evaluation:
    """One candidate's verdict from the evaluate callback."""

    objectives: Tuple[float, ...]
    feasible: bool = True


#: evaluate(digests, genotypes) -> {digest: Evaluation}.  Digests are
#: phenotype digests; genotypes carry the full gene dicts for context.
EvaluateFn = Callable[
    [Sequence[str], Dict[str, dict]], Dict[str, "Evaluation"]
]


@dataclass
class GenerationRecord:
    """What happened in one generation (report + determinism witness)."""

    generation: int
    #: Phenotype digests of the population, in population order.
    population: List[str]
    #: Digests evaluated for the first time this generation.
    evaluated: List[str]
    #: Digests of the generation's nondominated feasible candidates.
    frontier: List[str]
    #: Best (lowest) objective value seen so far, per objective.
    best: List[float] = field(default_factory=list)


@dataclass
class SearchResult:
    """Everything the runner needs to rank and report."""

    #: digest -> full genotype (first one seen for that phenotype).
    genotypes: Dict[str, dict]
    #: digest -> Evaluation for every candidate ever evaluated.
    evaluations: Dict[str, Evaluation]
    history: List[GenerationRecord]
    #: Search-order list of every distinct digest evaluated.
    evaluated_order: List[str]
    exhausted_budget: bool = False


def _penalty_key(
    digest: str,
    order: Dict[str, int],
    ranks: Dict[str, int],
    crowding: Dict[str, float],
    worst_rank: int,
) -> Tuple[int, float, int]:
    """Sort key: feasible candidates by (rank, -crowding), infeasible
    ones strictly after, all ties broken by first-seen order."""
    if digest in ranks:
        return (ranks[digest], -crowding[digest], order[digest])
    return (worst_rank + 1, 0.0, order[digest])


def _rank_population(
    digests: Sequence[str],
    evaluations: Dict[str, Evaluation],
    order: Dict[str, int],
) -> "tuple[Dict[str, int], Dict[str, float], int]":
    """Pareto rank + crowding for the feasible members of ``digests``."""
    unique = list(dict.fromkeys(digests))
    feasible = [d for d in unique if evaluations[d].feasible]
    if not feasible:
        return {}, {}, 0
    matrix = np.asarray(
        [evaluations[d].objectives for d in feasible], dtype=float
    )
    ranks, crowding = rank_and_crowd(matrix)
    rank_of = {d: int(r) for d, r in zip(feasible, ranks)}
    crowd_of = {d: float(c) for d, c in zip(feasible, crowding)}
    return rank_of, crowd_of, int(ranks.max())


def _tournament_pick(
    rng: np.random.Generator,
    digests: Sequence[str],
    key: Callable[[str], Tuple[int, float, int]],
    size: int,
) -> str:
    entrants = [
        digests[int(i)]
        for i in rng.integers(len(digests), size=max(1, size))
    ]
    return min(entrants, key=key)


def _crossover(
    rng: np.random.Generator,
    space: DesignSpace,
    mother: dict,
    father: dict,
    config: GAConfig,
) -> dict:
    child = {}
    if rng.random() < config.crossover_rate:
        for name in space.names:
            donor = mother if rng.random() < 0.5 else father
            child[name] = donor[name]
    else:
        child = dict(mother)
    return child


def _mutate(
    rng: np.random.Generator,
    space: DesignSpace,
    child: dict,
    config: GAConfig,
) -> dict:
    mutant = dict(child)
    for parameter in space.parameters:
        if rng.random() < config.mutation_rate:
            mutant[parameter.name] = parameter.sample(rng)
    return mutant


def run_search(
    space: DesignSpace,
    evaluate: EvaluateFn,
    config: GAConfig,
    seed: int,
    constraint: Optional[Callable[[dict], bool]] = None,
    on_generation: Optional[Callable[[GenerationRecord], None]] = None,
) -> SearchResult:
    """Run the genetic search; see the module docstring for semantics."""
    genotypes: Dict[str, dict] = {}
    evaluations: Dict[str, Evaluation] = {}
    evaluated_order: List[str] = []
    first_seen: Dict[str, int] = {}
    history: List[GenerationRecord] = []
    exhausted = False

    def note(digest: str, genotype: dict) -> None:
        if digest not in genotypes:
            genotypes[digest] = dict(genotype)
            first_seen[digest] = len(first_seen)

    def evaluate_new(digests: Sequence[str]) -> "tuple[List[str], bool]":
        """Evaluate not-yet-known digests; returns (fresh, hit_budget)."""
        fresh = [
            d
            for d in dict.fromkeys(digests)
            if d not in evaluations
        ]
        if config.budget is not None:
            headroom = config.budget - len(evaluated_order)
            if len(fresh) > headroom:
                fresh = fresh[: max(0, headroom)]
                hit = True
            else:
                hit = False
        else:
            hit = False
        if fresh:
            verdicts = evaluate(fresh, {d: genotypes[d] for d in fresh})
            missing = [d for d in fresh if d not in verdicts]
            if missing:
                raise RuntimeError(
                    f"evaluate callback dropped candidates {missing[:3]}"
                )
            for digest in fresh:
                evaluations[digest] = verdicts[digest]
                evaluated_order.append(digest)
        return fresh, hit

    # -- generation 0: seeded random population -----------------------
    rng = np.random.default_rng([seed, _TAG_INIT])
    population: List[str] = []
    while len(population) < config.population:
        genotype = space.sample_valid(rng, constraint)
        digest = space.candidate_digest(genotype)
        note(digest, genotype)
        population.append(digest)

    for generation in range(config.generations):
        fresh, hit = evaluate_new(population)
        if hit:
            exhausted = True
        # Drop members the budget prevented us from evaluating.
        population = [d for d in population if d in evaluations]
        if not population:
            break
        ranks, crowding, worst = _rank_population(
            population, evaluations, first_seen
        )
        frontier = sorted(d for d, r in ranks.items() if r == 0)
        feasible_objs = [
            evaluations[d].objectives
            for d in evaluated_order
            if evaluations[d].feasible
        ]
        best = (
            list(np.asarray(feasible_objs, dtype=float).min(axis=0))
            if feasible_objs
            else []
        )
        record = GenerationRecord(
            generation=generation,
            population=list(population),
            evaluated=list(fresh),
            frontier=frontier,
            best=[float(b) for b in best],
        )
        history.append(record)
        if on_generation is not None:
            on_generation(record)
        if exhausted or generation == config.generations - 1:
            break

        # -- breed the next generation ---------------------------------
        rng = np.random.default_rng([seed, _TAG_GEN, generation])
        key = lambda d: _penalty_key(  # noqa: E731
            d, first_seen, ranks, crowding, worst
        )
        survivors = sorted(dict.fromkeys(population), key=key)
        next_population = survivors[: config.elites]
        while len(next_population) < config.population:
            mother = genotypes[
                _tournament_pick(rng, population, key, config.tournament)
            ]
            father = genotypes[
                _tournament_pick(rng, population, key, config.tournament)
            ]
            child = _mutate(
                rng, space, _crossover(rng, space, mother, father, config),
                config,
            )
            if constraint is not None and not constraint(
                space.normalize(child)
            ):
                child = space.sample_valid(rng, constraint)
            digest = space.candidate_digest(child)
            note(digest, child)
            next_population.append(digest)
        population = next_population

    return SearchResult(
        genotypes=genotypes,
        evaluations=evaluations,
        history=history,
        evaluated_order=evaluated_order,
        exhausted_budget=exhausted,
    )
