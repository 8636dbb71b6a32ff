"""Tests for steps 3-4: per-machine L1 + stepwise selection."""

import numpy as np
import pytest

from repro.selection import select_machine_features


@pytest.fixture
def rng():
    return np.random.default_rng(13)


def _synthetic_problem(rng, n=600, p=30, informative=(2, 9, 21)):
    design = rng.normal(size=(n, p))
    beta = np.zeros(p)
    for index, value in zip(informative, (4.0, -3.0, 2.0)):
        beta[index] = value
    power = 100.0 + design @ beta + rng.normal(0, 0.5, n)
    names = [f"counter{i}" for i in range(p)]
    return design, power, names


class TestSelectMachineFeatures:
    def test_recovers_informative_features(self, rng):
        design, power, names = _synthetic_problem(rng)
        selection = select_machine_features(
            design, power, names, machine_id="m0", workload_name="sort"
        )
        # All informative features recovered; the 5% Wald level admits the
        # occasional false positive among the 27 noise features.
        assert {"counter2", "counter9", "counter21"} <= set(
            selection.significant
        )
        assert len(selection.significant) <= 5

    def test_marginal_features_tracked_separately(self, rng):
        design, power, names = _synthetic_problem(rng)
        # Add a weakly-related feature the lasso may pick up but stepwise
        # should reject.
        design = design.copy()
        design[:, 5] = design[:, 2] * 0.5 + rng.normal(0, 1.0, 600)
        selection = select_machine_features(
            design, power, names, machine_id="m0", workload_name="sort"
        )
        assert set(selection.selected) >= {"counter2", "counter9", "counter21"}
        # marginal + significant partition the lasso picks
        assert not set(selection.marginal) & set(selection.significant)

    def test_constant_power_fallback(self, rng):
        design = rng.normal(size=(100, 5))
        power = np.full(100, 42.0)
        names = [f"c{i}" for i in range(5)]
        selection = select_machine_features(
            design, power, names, machine_id="m", workload_name="w"
        )
        # Degenerate case still yields at least one feature.
        assert len(selection.selected) >= 1

    def test_max_features_respected(self, rng):
        design, power, names = _synthetic_problem(rng)
        selection = select_machine_features(
            design, power, names,
            machine_id="m", workload_name="w",
            lasso_max_features=2,
        )
        assert len(selection.selected) <= 2 + 1  # fallback tolerance

    def test_name_count_mismatch_rejected(self, rng):
        design, power, names = _synthetic_problem(rng)
        with pytest.raises(ValueError, match="feature_names"):
            select_machine_features(
                design, power, names[:-1],
                machine_id="m", workload_name="w",
            )

    @pytest.mark.parametrize("where", ["design", "power"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_rejected(self, rng, where, bad):
        """A NaN or inf sample is a ValueError from the lasso, not a
        wrong selection or a LinAlgError from stepwise."""
        design, power, names = _synthetic_problem(rng)
        if where == "design":
            design[10, 2] = bad
        else:
            power[10] = bad
        with pytest.raises(ValueError, match="non-finite"):
            select_machine_features(
                design, power, names, machine_id="m", workload_name="w"
            )
