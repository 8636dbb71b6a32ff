"""Property-based tests (hypothesis) for the regression toolkit."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.regression import fit_lasso, fit_mars, fit_ols
from tests.regression.plain_lasso import soft_threshold

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestSoftThresholdProperties:
    @given(value=finite_floats, threshold=st.floats(min_value=0, max_value=1e6))
    def test_shrinks_toward_zero(self, value, threshold):
        result = soft_threshold(value, threshold)
        assert abs(result) <= abs(value)
        # Result never overshoots past zero.
        assert result * value >= 0

    @given(value=finite_floats)
    def test_zero_threshold_is_identity(self, value):
        assert soft_threshold(value, 0.0) == value


class TestOLSProperties:
    @given(
        seed=st.integers(0, 1000),
        n=st.integers(20, 60),
        p=st.integers(1, 4),
    )
    @settings(max_examples=25, deadline=None)
    def test_residuals_orthogonal_to_design(self, seed, n, p):
        rng = np.random.default_rng(seed)
        design = rng.normal(size=(n, p))
        response = rng.normal(size=n)
        fit = fit_ols(design, response)
        residual = response - fit.predict(design)
        # Normal equations: X' r = 0 (including the intercept column).
        assert abs(residual.sum()) < 1e-6 * n
        assert np.all(np.abs(design.T @ residual) < 1e-6 * n)

    @given(seed=st.integers(0, 1000), shift=finite_floats)
    @settings(max_examples=25, deadline=None)
    def test_intercept_absorbs_response_shift(self, seed, shift):
        rng = np.random.default_rng(seed)
        design = rng.normal(size=(50, 2))
        response = rng.normal(size=50)
        base = fit_ols(design, response)
        shifted = fit_ols(design, response + shift)
        assert shifted.intercept - base.intercept == np.float64(
            shift
        ) or abs(shifted.intercept - base.intercept - shift) < 1e-6 * (
            1 + abs(shift)
        )
        assert np.allclose(shifted.slopes, base.slopes, atol=1e-6)


class TestLassoProperties:
    @given(seed=st.integers(0, 500), alpha=st.floats(0.001, 10.0))
    @settings(max_examples=20, deadline=None)
    def test_objective_never_worse_than_zero_vector(self, seed, alpha):
        """The solver's objective must beat the all-zeros solution."""
        rng = np.random.default_rng(seed)
        design = rng.normal(size=(60, 5))
        response = rng.normal(size=60)
        fit = fit_lasso(design, response, alpha=alpha)

        def objective(intercept, coefficients):
            residual = response - intercept - design @ coefficients
            n = response.size
            # Standardized-scale penalty: reconstruct from raw coefficients.
            scale = design.std(axis=0)
            return (residual @ residual) / (2 * n) + alpha * np.abs(
                coefficients * scale
            ).sum()

        zero_objective = objective(float(response.mean()), np.zeros(5))
        fit_objective = objective(fit.intercept, fit.coefficients)
        assert fit_objective <= zero_objective + 1e-8


class TestMARSProperties:
    @given(seed=st.integers(0, 200))
    @settings(max_examples=10, deadline=None)
    def test_prediction_is_finite_and_training_rss_bounded(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-2, 2, size=(120, 2))
        y = rng.normal(size=120)
        model = fit_mars(x, y, max_degree=1, max_terms=9)
        prediction = model.predict(x)
        assert np.all(np.isfinite(prediction))
        # MARS with an intercept can never do worse than the mean model.
        mean_rss = float(np.sum((y - y.mean()) ** 2))
        assert model.training_rss <= mean_rss + 1e-6

    @given(seed=st.integers(0, 200), scale=st.floats(0.5, 20.0))
    @settings(max_examples=10, deadline=None)
    def test_equivariance_under_response_scaling(self, seed, scale):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0, 1, size=(150, 1))
        y = np.maximum(x[:, 0] - 0.5, 0) + rng.normal(0, 0.01, 150)
        base = fit_mars(x, y, max_degree=1)
        scaled = fit_mars(x, y * scale, max_degree=1)
        assert np.allclose(
            scaled.predict(x), base.predict(x) * scale, atol=0.05 * scale
        )
