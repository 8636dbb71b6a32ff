"""Tests for the four power-model families (Eqs. 1-4)."""

import numpy as np
import pytest

from repro.models import (
    LinearPowerModel,
    PiecewiseLinearPowerModel,
    QuadraticPowerModel,
    SwitchingPowerModel,
)


@pytest.fixture
def rng():
    return np.random.default_rng(19)


def _dvfs_like_data(rng, n=1200):
    """Synthetic (util, freq) -> power data with u*f*V(f)^2 shape."""
    util = rng.uniform(0, 1, n)
    states = np.array([1000.0, 1500.0, 2000.0])
    freq = states[
        np.minimum((util * 3.2).astype(int), 2)
    ] * np.where(rng.random(n) < 0.2, 0.75, 1.0)
    freq = np.round(freq / 250) * 250
    voltage = 0.6 + 0.4 * freq / 2000.0
    power = 25.0 + 20.0 * util * (freq / 2000.0) * voltage**2
    power = power + rng.normal(0, 0.2, n)
    design = np.column_stack([util * 100, freq])
    return design, power


NAMES = ["util", "freq"]


class TestLinearModel:
    def test_fit_predict_roundtrip(self, rng):
        design, power = _dvfs_like_data(rng)
        model = LinearPowerModel(NAMES).fit(design, power)
        rmse = np.sqrt(np.mean((model.predict(design) - power) ** 2))
        assert rmse < 3.0  # decent but imperfect: the truth is nonlinear

    def test_unfitted_predict_rejected(self):
        model = LinearPowerModel(NAMES)
        with pytest.raises(RuntimeError, match="not fitted"):
            model.predict(np.zeros((3, 2)))

    def test_wrong_width_rejected(self, rng):
        design, power = _dvfs_like_data(rng)
        model = LinearPowerModel(NAMES).fit(design, power)
        with pytest.raises(ValueError, match="columns"):
            model.predict(np.zeros((3, 3)))

    def test_describe_names_features(self, rng):
        design, power = _dvfs_like_data(rng)
        model = LinearPowerModel(NAMES).fit(design, power)
        assert "util" in model.describe()

    def test_code(self):
        assert LinearPowerModel(NAMES).code == "L"


class TestPiecewiseAndQuadratic:
    def test_nonlinear_models_beat_linear(self, rng):
        design, power = _dvfs_like_data(rng)
        linear = LinearPowerModel(NAMES).fit(design, power)
        quadratic = QuadraticPowerModel(NAMES).fit(design, power)

        def rmse(model):
            return np.sqrt(np.mean((model.predict(design) - power) ** 2))

        assert rmse(quadratic) < rmse(linear)

    def test_quadratic_captures_interaction_better(self, rng):
        design, power = _dvfs_like_data(rng)
        piecewise = PiecewiseLinearPowerModel(NAMES).fit(design, power)
        quadratic = QuadraticPowerModel(NAMES).fit(design, power)
        test_design, test_power = _dvfs_like_data(rng)

        def rmse(model):
            prediction = model.predict(test_design)
            return np.sqrt(np.mean((prediction - test_power) ** 2))

        assert rmse(quadratic) <= rmse(piecewise) * 1.2

    def test_extrapolation_is_clamped(self, rng):
        design, power = _dvfs_like_data(rng)
        model = QuadraticPowerModel(NAMES).fit(design, power)
        wild = np.array([[1e6, 1e6], [-1e6, -1e6]])
        prediction = model.predict(wild)
        assert np.all(prediction >= power.min() - 10)
        assert np.all(prediction <= power.max() + 10)

    def test_codes(self):
        assert PiecewiseLinearPowerModel(NAMES).code == "P"
        assert QuadraticPowerModel(NAMES).code == "Q"


class TestSwitchingModel:
    def test_requires_switch_feature_in_list(self):
        with pytest.raises(ValueError, match="switch feature"):
            SwitchingPowerModel(NAMES, switch_feature="missing")

    def test_requires_multiple_features(self):
        with pytest.raises(ValueError, match="at least one feature besides"):
            SwitchingPowerModel(["freq"], switch_feature="freq")

    def test_builds_per_state_models(self, rng):
        design, power = _dvfs_like_data(rng, n=3000)
        model = SwitchingPowerModel(NAMES, switch_feature="freq")
        model.fit(design, power)
        assert model.n_states >= 2

    def test_accuracy_beats_single_linear(self, rng):
        design, power = _dvfs_like_data(rng, n=3000)
        linear = LinearPowerModel(NAMES).fit(design, power)
        switching = SwitchingPowerModel(NAMES, switch_feature="freq")
        switching.fit(design, power)

        def rmse(model):
            return np.sqrt(np.mean((model.predict(design) - power) ** 2))

        assert rmse(switching) < rmse(linear)

    def test_unseen_state_falls_back_to_global(self, rng):
        design, power = _dvfs_like_data(rng, n=3000)
        model = SwitchingPowerModel(NAMES, switch_feature="freq")
        model.fit(design, power)
        # A frequency far outside training gets clamped + predicted.
        prediction = model.predict(np.array([[50.0, 9999.0]]))
        assert np.isfinite(prediction).all()

    def test_n_parameters_grows_with_states(self, rng):
        design, power = _dvfs_like_data(rng, n=3000)
        switching = SwitchingPowerModel(NAMES, switch_feature="freq")
        switching.fit(design, power)
        linear = LinearPowerModel(NAMES).fit(design, power)
        assert switching.n_parameters > linear.n_parameters


class TestBaseValidation:
    def test_empty_features_rejected(self):
        with pytest.raises(ValueError, match="at least one feature"):
            LinearPowerModel([])

    def test_row_mismatch_rejected(self, rng):
        with pytest.raises(ValueError, match="row counts"):
            LinearPowerModel(NAMES).fit(np.zeros((5, 2)), np.zeros(4))

    @pytest.mark.parametrize(
        "model_class", [PiecewiseLinearPowerModel, QuadraticPowerModel]
    )
    @pytest.mark.parametrize("target", ["design", "power"])
    def test_mars_models_reject_non_finite(self, rng, model_class, target):
        design, power = _dvfs_like_data(rng, n=200)
        if target == "design":
            design[3, 1] = np.nan
        else:
            power[3] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            model_class(NAMES).fit(design, power)
