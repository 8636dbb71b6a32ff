"""Unit tests for the CHAOS campaign substrate and objective stack."""

import numpy as np
import pytest

from repro.dse import (
    OBJECTIVE_NAMES,
    build_substrate,
    candidate_feature_set,
    candidate_task,
    chaos_space,
    evaluate_candidate,
    space_constraint,
)
from repro.dse.objectives import (
    MAX_COUNTER_BUDGET,
    modeled_fit_cost,
    modeled_serving_p99,
)
from repro.models.featuresets import (
    CPU_UTILIZATION_COUNTER,
    FREQUENCY_COUNTER,
)


class TestSubstrate:
    def test_build_substrate_ranks_counters(self, substrate):
        assert substrate.platform_key == "atom"
        assert substrate.workload_name == "sort"
        assert len(substrate.runs) == 2
        ranked = substrate.ranked_counters
        assert 2 <= len(ranked) <= MAX_COUNTER_BUDGET
        assert len(set(ranked)) == len(ranked)
        # The two always-needed channels lead the catalog ranking.
        assert CPU_UTILIZATION_COUNTER in ranked
        assert FREQUENCY_COUNTER in ranked

    def test_substrate_is_deterministic(self, substrate):
        again = build_substrate(
            "atom",
            "sort",
            n_machines=2,
            n_runs=2,
            seed=3,
            ranking="catalog",
        )
        assert again.runs_digest == substrate.runs_digest
        assert again.ranked_counters == substrate.ranked_counters
        assert again.provenance() == substrate.provenance()

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            build_substrate("atom", "sort", n_runs=1)
        with pytest.raises(ValueError):
            build_substrate("atom", "sort", ranking="psychic")


class TestSpace:
    def test_chaos_space_shape(self, space):
        assert space.names == (
            "model",
            "features",
            "n_counters",
            "train_fraction",
        )
        assert space.parameter("n_counters").when == (
            "features",
            ("C", "CP"),
        )

    def test_constraint_matches_model_support(self, substrate, space):
        feasible = space_constraint(substrate)
        # Quadratic on the single-feature U family is unsupported.
        assert not feasible(
            {"model": "Q", "features": "U", "train_fraction": 0.5}
        )
        assert feasible(
            {"model": "L", "features": "U", "train_fraction": 0.5}
        )
        assert feasible(
            {
                "model": "Q",
                "features": "C",
                "n_counters": 3,
                "train_fraction": 0.5,
            }
        )

    def test_candidate_feature_set_budgets(self, substrate):
        phenotype = {
            "model": "L",
            "features": "C",
            "n_counters": 3,
            "train_fraction": 0.5,
        }
        feature_set = candidate_feature_set(
            phenotype, substrate.ranked_counters
        )
        assert set(feature_set.counters) == set(
            substrate.ranked_counters[:3]
        )


class TestModeledCosts:
    def test_fit_cost_scales_with_rows_and_width(self):
        assert modeled_fit_cost("L", 4, 2000) > modeled_fit_cost(
            "L", 4, 1000
        )
        # Quadratic expansion squares the width.
        assert modeled_fit_cost("Q", 4, 1000) > modeled_fit_cost(
            "L", 4, 1000
        )

    def test_serving_p99_grows_with_features(self):
        assert modeled_serving_p99("L", 8) > modeled_serving_p99("L", 2)
        assert modeled_serving_p99("Q", 4) > modeled_serving_p99("L", 4)


class TestEvaluateCandidate:
    def test_feasible_verdict_layout(self, substrate):
        verdict = evaluate_candidate(
            {
                "model": "L",
                "features": "C",
                "n_counters": 2,
                "train_fraction": 0.6,
            },
            substrate,
            eval_seed=3,
            probe_seconds=5,
        )
        assert verdict["feasible"]
        assert set(verdict["objectives"]) == set(OBJECTIVE_NAMES)
        for value in verdict["objectives"].values():
            assert np.isfinite(value)
        assert verdict["objectives"]["dre"] > 0.0
        assert verdict["measured"]["probe_scored"] > 0
        assert verdict["measured"]["fit_seconds"] > 0.0
        assert verdict["detail"]["label"].startswith("L")

    def test_infeasible_is_a_verdict_not_a_crash(self, substrate):
        verdict = evaluate_candidate(
            {"model": "Q", "features": "U", "train_fraction": 0.5},
            substrate,
            eval_seed=3,
        )
        assert not verdict["feasible"]
        assert "reason" in verdict

    def test_objectives_are_deterministic(self, substrate):
        phenotype = {
            "model": "P",
            "features": "C",
            "n_counters": 3,
            "train_fraction": 0.5,
        }
        first = evaluate_candidate(
            phenotype, substrate, eval_seed=3, probe_seconds=5
        )
        second = evaluate_candidate(
            phenotype, substrate, eval_seed=3, probe_seconds=5
        )
        assert first["objectives"] == second["objectives"]
        assert first["detail"] == second["detail"]
        # Probe counts are replay-deterministic too (wall times differ).
        assert (
            first["measured"]["probe_scored"]
            == second["measured"]["probe_scored"]
        )

    def test_candidate_task_matches_direct_call(self, substrate):
        phenotype = {
            "model": "L",
            "features": "U",
            "train_fraction": 0.4,
        }
        config = {
            "params": phenotype,
            "eval_seed": 3,
            "probe_seconds": 5,
            "space_digest": "x",
            "runs_digest": substrate.runs_digest,
        }
        task_verdict = candidate_task(config, substrate)
        direct = evaluate_candidate(
            phenotype, substrate, eval_seed=3, probe_seconds=5
        )
        assert task_verdict["objectives"] == direct["objectives"]
