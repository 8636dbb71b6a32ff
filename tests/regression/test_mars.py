"""Tests for the MARS implementation (piecewise-linear and quadratic)."""

import numpy as np
import pytest

from repro.regression import fit_mars


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def _rmse(y, yhat):
    return float(np.sqrt(np.mean((y - yhat) ** 2)))


class TestForwardBackward:
    def test_recovers_single_hinge(self, rng):
        x = rng.uniform(0, 1, size=(800, 1))
        y = 2.0 + 5.0 * np.maximum(x[:, 0] - 0.4, 0.0) + rng.normal(0, 0.02, 800)
        model = fit_mars(x, y, max_degree=1)
        prediction = model.predict(x)
        assert _rmse(y, prediction) < 0.05
        # The chosen knot should sit near the true breakpoint.
        assert any(abs(k - 0.4) < 0.1 for k in model.knots)

    def test_piecewise_handles_v_shape(self, rng):
        x = rng.uniform(-1, 1, size=(800, 1))
        y = np.abs(x[:, 0]) + rng.normal(0, 0.02, 800)
        model = fit_mars(x, y, max_degree=1)
        assert _rmse(y, model.predict(x)) < 0.06

    def test_linear_function_needs_few_terms(self, rng):
        x = rng.uniform(0, 1, size=(500, 2))
        y = 1.0 + 2.0 * x[:, 0] + rng.normal(0, 0.01, 500)
        model = fit_mars(x, y, max_degree=1)
        assert _rmse(y, model.predict(x)) < 0.03
        assert model.n_terms <= 7

    def test_degree2_captures_interaction_degree1_cannot(self, rng):
        x = rng.uniform(0, 1, size=(1200, 3))
        y = x[:, 0] * x[:, 1] + rng.normal(0, 0.01, 1200)
        additive = fit_mars(x, y, max_degree=1)
        interacting = fit_mars(x, y, max_degree=2)
        assert _rmse(y, interacting.predict(x)) < _rmse(y, additive.predict(x))
        assert any(basis.degree == 2 for basis in interacting.bases)

    def test_irrelevant_features_ignored(self, rng):
        x = rng.uniform(0, 1, size=(600, 5))
        y = 3.0 * np.maximum(x[:, 2] - 0.5, 0) + rng.normal(0, 0.02, 600)
        model = fit_mars(x, y, max_degree=1)
        assert model.features_used <= {2}

    def test_max_terms_respected(self, rng):
        x = rng.uniform(0, 1, size=(500, 4))
        y = np.sin(6 * x[:, 0]) + np.cos(5 * x[:, 1])
        model = fit_mars(x, y, max_degree=1, max_terms=9)
        assert model.n_terms <= 9

    def test_constant_response(self, rng):
        x = rng.uniform(0, 1, size=(100, 2))
        model = fit_mars(x, np.full(100, 4.2))
        assert model.predict(x) == pytest.approx(np.full(100, 4.2), abs=1e-8)
        assert model.n_terms == 1

    def test_constant_feature_never_used(self, rng):
        x = np.hstack([np.full((300, 1), 5.0), rng.uniform(0, 1, (300, 1))])
        y = 2.0 * x[:, 1] + rng.normal(0, 0.01, 300)
        model = fit_mars(x, y)
        assert 0 not in model.features_used


class TestValidation:
    def test_rejects_bad_degree(self, rng):
        x = rng.uniform(size=(50, 1))
        with pytest.raises(ValueError, match="max_degree"):
            fit_mars(x, x[:, 0], max_degree=3)

    def test_rejects_tiny_sample(self, rng):
        x = rng.uniform(size=(4, 1))
        with pytest.raises(ValueError, match="samples"):
            fit_mars(x, x[:, 0])

    def test_rejects_length_mismatch(self, rng):
        with pytest.raises(ValueError, match="lengths"):
            fit_mars(rng.uniform(size=(50, 1)), np.zeros(49))

    @pytest.mark.parametrize("target", ["design", "response"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, rng, target, bad):
        x = rng.uniform(size=(100, 2))
        y = 1.0 + 3.0 * np.maximum(x[:, 0] - 0.5, 0.0) + x[:, 1]
        if target == "design":
            x[10, 0] = bad
        else:
            y[10] = bad
        with pytest.raises(ValueError, match=f"{target} contains non-finite"):
            fit_mars(x, y)


class TestGeneralization:
    def test_out_of_sample_accuracy(self, rng):
        def truth(x):
            return (
                2
                + 3 * np.maximum(x[:, 0] - 0.5, 0)
                - 2 * np.maximum(0.3 - x[:, 1], 0)
            )

        x_train = rng.uniform(0, 1, size=(1000, 2))
        y_train = truth(x_train) + rng.normal(0, 0.05, 1000)
        x_test = rng.uniform(0, 1, size=(500, 2))
        y_test = truth(x_test)

        model = fit_mars(x_train, y_train, max_degree=1)
        assert _rmse(y_test, model.predict(x_test)) < 0.08

    def test_describe_lists_bases(self, rng):
        x = rng.uniform(0, 1, size=(300, 1))
        y = np.maximum(x[:, 0] - 0.5, 0)
        model = fit_mars(x, y)
        text = model.describe(["cpu_util"])
        assert "cpu_util" in text
