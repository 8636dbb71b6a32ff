"""Tests for the lasso."""

from functools import partial

import numpy as np
import pytest

from repro.regression import fit_lasso, fit_lasso_path, max_alpha
from tests.regression.plain_lasso import soft_threshold


@pytest.fixture
def sparse_problem():
    rng = np.random.default_rng(3)
    design = rng.normal(size=(400, 25))
    beta = np.zeros(25)
    beta[[1, 8, 17]] = [3.0, -2.0, 1.5]
    response = design @ beta + rng.normal(0, 0.1, 400)
    return design, response, beta


@pytest.fixture
def small_problem():
    rng = np.random.default_rng(5)
    design = rng.normal(size=(50, 4))
    response = design @ np.array([1.0, 0.0, -2.0, 0.0]) + rng.normal(0, 0.1, 50)
    return design, response


class TestSoftThreshold:
    @pytest.mark.parametrize(
        "value,threshold,expected",
        [(5.0, 2.0, 3.0), (-5.0, 2.0, -3.0), (1.0, 2.0, 0.0), (-1.5, 2.0, 0.0)],
    )
    def test_cases(self, value, threshold, expected):
        assert soft_threshold(value, threshold) == expected


class TestFitLasso:
    def test_zero_alpha_matches_least_squares(self, sparse_problem):
        design, response, beta = sparse_problem
        fit = fit_lasso(design, response, alpha=0.0)
        assert fit.coefficients == pytest.approx(beta, abs=0.05)

    def test_alpha_above_max_zeroes_everything(self, sparse_problem):
        design, response, _ = sparse_problem
        top = max_alpha(design, response)
        fit = fit_lasso(design, response, alpha=top * 1.01)
        assert np.all(fit.coefficients == 0.0)
        assert fit.intercept == pytest.approx(float(np.mean(response)))

    def test_moderate_alpha_recovers_support(self, sparse_problem):
        design, response, _ = sparse_problem
        fit = fit_lasso(design, response, alpha=0.05)
        assert set(fit.selected.tolist()) == {1, 8, 17}

    def test_shrinkage_is_monotone_in_alpha(self, sparse_problem):
        design, response, _ = sparse_problem
        norms = [
            np.abs(fit_lasso(design, response, alpha=a).coefficients).sum()
            for a in (0.01, 0.1, 0.5)
        ]
        assert norms[0] > norms[1] > norms[2]

    def test_constant_column_never_selected(self):
        rng = np.random.default_rng(0)
        design = np.hstack([rng.normal(size=(100, 2)), np.ones((100, 1))])
        response = design[:, 0] * 2.0
        fit = fit_lasso(design, response, alpha=0.01)
        assert 2 not in fit.selected

    def test_negative_alpha_rejected(self, sparse_problem):
        design, response, _ = sparse_problem
        with pytest.raises(ValueError):
            fit_lasso(design, response, alpha=-1.0)

    def test_converged_flag(self, sparse_problem):
        design, response, _ = sparse_problem
        assert fit_lasso(design, response, alpha=0.05).converged


class TestLassoPath:
    def test_path_selects_true_support(self, sparse_problem):
        """BIC screening must keep the true support; a stray small extra is
        acceptable (stepwise elimination cleans those up in Algorithm 1)."""
        design, response, _ = sparse_problem
        result = fit_lasso_path(design, response)
        selected = set(result.best.selected.tolist())
        assert {1, 8, 17} <= selected
        assert len(selected) <= 6

    def test_max_features_cap_respected(self, sparse_problem):
        design, response, _ = sparse_problem
        result = fit_lasso_path(design, response, max_features=2)
        assert len(result.best.selected) <= 2

    def test_degenerate_constant_response(self):
        design = np.random.default_rng(1).normal(size=(50, 3))
        result = fit_lasso_path(design, np.full(50, 7.0))
        assert np.all(result.best.coefficients == 0.0)
        assert result.best.intercept == pytest.approx(7.0)


class TestPathShape:
    """With a feature cap the path stops after its first entry over the cap."""

    @pytest.mark.parametrize("cap", [0, 1, 2])
    def test_capped_path_ends_at_first_entry_over_cap(
        self, sparse_problem, cap
    ):
        design, response, _ = sparse_problem
        result = fit_lasso_path(design, response, max_features=cap)
        assert len(result.alphas) == len(result.bics) == len(result.fits)
        assert len(result.fits) < 30
        assert np.isinf(result.bics[-1])
        assert np.all(np.isfinite(result.bics[:-1]))
        assert len(result.fits[-1].selected) > cap
        assert all(len(fit.selected) <= cap for fit in result.fits[:-1])
        assert np.array_equal(
            result.alphas, [fit.alpha for fit in result.fits]
        )

    def test_cap_never_reached_keeps_full_path(self, sparse_problem):
        design, response, _ = sparse_problem
        result = fit_lasso_path(design, response, max_features=25)
        assert len(result.fits) == 30
        assert np.all(np.isfinite(result.bics))

    @pytest.mark.parametrize("n_alphas", [30, 7])
    def test_uncapped_path_has_every_entry(self, sparse_problem, n_alphas):
        design, response, _ = sparse_problem
        result = fit_lasso_path(design, response, n_alphas=n_alphas)
        assert len(result.alphas) == len(result.bics) == n_alphas
        assert len(result.fits) == n_alphas
        assert np.all(np.isfinite(result.bics))


class TestNonFiniteInput:
    """NaN or inf input raises instead of leaking into the selection."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_fit_lasso_rejects_design(self, sparse_problem, bad):
        design, response, _ = sparse_problem
        design = design.copy()
        design[7, 4] = bad
        with pytest.raises(ValueError, match="design"):
            fit_lasso(design, response, alpha=0.05)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_fit_lasso_rejects_response(self, sparse_problem, bad):
        design, response, _ = sparse_problem
        response = response.copy()
        response[3] = bad
        with pytest.raises(ValueError, match="response"):
            fit_lasso(design, response, alpha=0.05)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_fit_lasso_rejects_alpha(self, sparse_problem, bad):
        design, response, _ = sparse_problem
        with pytest.raises(ValueError, match="alpha"):
            fit_lasso(design, response, alpha=bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_path_rejects_design(self, sparse_problem, bad):
        """One NaN used to come back as the best fit's NaN coefficient on
        that column, in place of an informative one."""
        design, response, _ = sparse_problem
        design = design.copy()
        design[7, 4] = bad
        with pytest.raises(ValueError, match="design"):
            fit_lasso_path(design, response, max_features=15)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_path_rejects_response(self, sparse_problem, bad):
        """An inf response used to select nothing."""
        design, response, _ = sparse_problem
        response = response.copy()
        response[3] = bad
        with pytest.raises(ValueError, match="response"):
            fit_lasso_path(design, response, max_features=15)


BOTH_FITS = pytest.mark.parametrize(
    "fit",
    [fit_lasso_path, partial(fit_lasso, alpha=0.05)],
    ids=["path", "single"],
)


class TestArgumentValidation:
    """Bad arguments raise ValueError.  Each of these used to return a
    result that selected nothing, a NaN intercept or an over-cap best
    fit, or to fail inside numpy with an unrelated message."""

    @pytest.mark.parametrize("ratio", [np.nan, np.inf, -0.5, 0.0, 5.0])
    def test_path_rejects_alpha_min_ratio(self, small_problem, ratio):
        design, response = small_problem
        with pytest.raises(ValueError, match="alpha_min_ratio"):
            fit_lasso_path(design, response, alpha_min_ratio=ratio)

    def test_flat_grid_is_allowed(self, small_problem):
        design, response = small_problem
        result = fit_lasso_path(
            design, response, n_alphas=3, alpha_min_ratio=1.0
        )
        assert len(set(result.alphas.tolist())) == 1
        assert all(len(fit.selected) == 0 for fit in result.fits)

    @pytest.mark.parametrize("n_alphas", [0, -2])
    def test_path_rejects_n_alphas(self, small_problem, n_alphas):
        design, response = small_problem
        with pytest.raises(ValueError, match="n_alphas"):
            fit_lasso_path(design, response, n_alphas=n_alphas)

    def test_path_rejects_negative_max_features(self, small_problem):
        design, response = small_problem
        with pytest.raises(ValueError, match="max_features"):
            fit_lasso_path(design, response, max_features=-1)

    @BOTH_FITS
    def test_rejects_length_mismatch(self, small_problem, fit):
        design, response = small_problem
        with pytest.raises(ValueError, match="lengths differ"):
            fit(design, response[:-1])

    @BOTH_FITS
    def test_rejects_3d_design(self, small_problem, fit):
        design, response = small_problem
        with pytest.raises(ValueError, match="2-D"):
            fit(design.reshape(50, 2, 2), response)

    @BOTH_FITS
    def test_rejects_zero_rows(self, fit):
        with pytest.raises(ValueError, match="no rows"):
            fit(np.zeros((0, 4)), np.zeros(0))
