"""The lasso homotopy against the lasso's optimality conditions.

``fit_lasso_path`` walks the exact lasso path (see
``repro.regression.lasso``).  On the standardized problem every fit must
satisfy the KKT conditions: an active coefficient's gradient
``g_j = c_j - (G beta)_j`` equals ``alpha * sign(beta_j)``, and an idle
one's ``|g_j|`` is at most ``alpha``.  Where the solution is unique its
support must equal plain coordinate descent's; where columns duplicate
each other it is not, and the homotopy gives the weight to the lower index.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.regression import fit_lasso, fit_lasso_path, max_alpha
from repro.regression.lasso import LassoFit, _standardize
from tests.regression.plain_lasso import plain_coordinate_descent


def _covariance_form(design: np.ndarray, response: np.ndarray):
    """The standardized problem: Gram matrix, correlations, column norms."""
    n = design.shape[0]
    z, _, _ = _standardize(design)
    gram = (z.T @ z) / n
    correlations = (z.T @ (response - response.mean())) / n
    return gram, correlations, np.diag(gram).copy()


def _problem(
    seed: int,
    n: int,
    p: int,
    n_constant: int = 0,
    n_duplicate: int = 0,
    n_collinear: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """A sparse regression problem on columns of very different scales,
    with constant, exactly duplicated and near-collinear columns."""
    rng = np.random.default_rng(seed)
    scales = 10.0 ** rng.uniform(-3, 3, size=p)
    design = rng.normal(size=(n, p)) * scales
    columns = rng.permutation(p)
    special = iter(columns)
    for _ in range(min(n_constant, p)):
        # An integer constant: its column mean is exact, so its norm is 0.
        design[:, next(special)] = float(rng.integers(-5, 6))
    for _ in range(n_duplicate):
        target = next(special, None)
        if target is None:
            break
        design[:, target] = design[:, rng.integers(p)]
    for _ in range(n_collinear):
        target = next(special, None)
        if target is None:
            break
        source = design[:, rng.integers(p)]
        design[:, target] = source * (1.0 + 1e-6 * rng.normal(size=n))
    beta = np.where(rng.random(p) < 0.3, rng.normal(size=p), 0.0)
    response = design @ (beta / scales) + rng.normal(0.0, 0.5, size=n)
    return design, response


@st.composite
def sweep_problems(draw, degenerate: bool = True):
    """Problems of up to 24 columns and 3 to 80 rows; with ``degenerate``
    off they have no duplicated or near-collinear columns."""
    p = draw(st.integers(1, 24))
    special = st.integers(0, 3) if degenerate else st.just(0)
    return _problem(
        seed=draw(st.integers(0, 2**32 - 1)),
        n=draw(st.integers(3, 80)),
        p=p,
        n_constant=draw(st.integers(0, 3)),
        n_duplicate=draw(special),
        n_collinear=draw(special),
    )


def _kkt(
    design: np.ndarray, response: np.ndarray, fit: LassoFit
) -> tuple[float, float]:
    """The worst active ``|g_j - alpha*sign(beta_j)|`` and the largest idle
    ``|g_j|`` of a fit, over idle columns outside the active span.

    Columns within 1e-9 of the span (relative Schur complement) are left
    out: the solver holds out those within 1e-10 and lets them sit over
    alpha by up to their distance from the span, and the margin keeps a
    borderline column from being classified differently here.
    """
    gram, correlations, norms = _covariance_form(design, response)
    _, _, scale = _standardize(design)
    beta = fit.coefficients * scale
    gradient = correlations - gram @ beta
    active = np.flatnonzero(beta)
    idle = np.flatnonzero((beta == 0.0) & (norms > 0.0))
    schur = norms[idle] - np.einsum(
        "ij,ji->i",
        gram[np.ix_(idle, active)],
        np.linalg.solve(
            gram[np.ix_(active, active)], gram[np.ix_(active, idle)]
        ),
    )
    outside = idle[schur > 1e-9 * norms[idle]]
    stationarity = gradient[active] - fit.alpha * np.sign(beta[active])
    return (
        float(np.abs(stationarity).max(initial=0.0)),
        float(np.abs(gradient[outside]).max(initial=0.0)),
    )


class TestKKT:
    @given(problem=sweep_problems())
    @settings(max_examples=200, deadline=None)
    def test_every_path_entry(self, problem):
        """Stationarity holds to rounding of the top alpha (at most
        1.5e-14 of it on 6,000 random problems), and no idle column
        outside the span is over alpha."""
        design, response = problem
        top = max_alpha(design, response)
        for fit in fit_lasso_path(design, response).fits:
            active, idle = _kkt(design, response, fit)
            assert fit.converged
            assert active <= 1e-12 * top
            assert idle <= fit.alpha + 1e-12 * top


class TestSupportMatchesPlainCoordinateDescent:
    @given(problem=sweep_problems(degenerate=False))
    @settings(max_examples=50, deadline=None)
    def test_unique_solutions(self, problem):
        """Without duplicated or near-collinear columns the solution is
        unique, and coordinate descent run to 1e-12 finds its support.
        On ill-conditioned problems it may not get there in 10,000 sweeps;
        such an entry has no reference and is skipped."""
        design, response = problem
        gram, correlations, norms = _covariance_form(design, response)
        beta = np.zeros(design.shape[1])
        for fit in fit_lasso_path(design, response).fits:
            beta, _, converged = plain_coordinate_descent(
                gram, correlations, norms, fit.alpha, beta, 10_000, 1e-12
            )
            if converged:
                assert np.array_equal(np.flatnonzero(beta), fit.selected)


class TestDegenerateColumns:
    def test_constant_columns_stay_zero(self):
        design, response = _problem(seed=1, n=60, p=12, n_constant=3)
        _, _, norms = _covariance_form(design, response)
        constant = norms == 0.0
        assert np.count_nonzero(constant) == 3
        fits = fit_lasso_path(design, response).fits
        assert len(fits[-1].selected) > 0
        for fit in fits:
            assert np.all(fit.coefficients[constant] == 0.0)

    @pytest.mark.parametrize("seed", range(6))
    def test_duplicated_columns_keep_lower_index(self, seed):
        design, response = _problem(seed=seed, n=80, p=12, n_duplicate=3)
        pairs = [
            (i, j)
            for j in range(design.shape[1])
            for i in range(j)
            if np.array_equal(design[:, i], design[:, j])
        ]
        copies = sorted({j for _, j in pairs})
        lowest = {i for i, _ in pairs} - set(copies)
        fits = fit_lasso_path(design, response).fits
        assert lowest & set(fits[-1].selected.tolist())
        for fit in fits:
            assert np.all(fit.coefficients[copies] == 0.0)


class TestCappedPath:
    """The capped path is a prefix of the full path, and its best fit is
    the full path's capped-BIC best."""

    @pytest.mark.parametrize("seed,max_features", [(11, 3), (12, 6), (13, 1)])
    def test_prefix_and_best(self, seed, max_features):
        design, response = _problem(seed=seed, n=200, p=30, n_collinear=3)
        capped = fit_lasso_path(design, response, max_features=max_features)
        full = fit_lasso_path(design, response)

        assert len(capped.fits) < len(full.fits) == 30
        for fit, reference in zip(capped.fits, full.fits):
            assert fit.alpha == reference.alpha
            assert fit.coefficients.tobytes() == (
                reference.coefficients.tobytes()
            )
            assert fit.intercept == reference.intercept
            assert fit.n_iterations == reference.n_iterations
            assert fit.converged == reference.converged
        capped_bics = np.where(
            [len(f.selected) > max_features for f in full.fits],
            np.inf,
            full.bics,
        )
        assert capped.best is capped.fits[int(np.argmin(capped_bics))]


class TestWalk:
    def test_steps_count_breakpoints(self):
        """The top entry is reached in 0 steps, and each feature joins in
        a step of its own."""
        design, response = _problem(seed=5, n=80, p=8)
        fits = fit_lasso_path(design, response).fits
        assert fits[0].n_iterations == 0
        assert len(fits[0].selected) == 0
        steps = np.cumsum([fit.n_iterations for fit in fits])
        assert np.all(steps >= [len(fit.selected) for fit in fits])

    def test_step_bound_leaves_the_fit_unconverged(self):
        design, response = _problem(seed=5, n=80, p=8)
        alpha = 0.01 * max_alpha(design, response)
        cut = fit_lasso(design, response, alpha=alpha, max_iterations=1)
        assert not cut.converged
        assert cut.n_iterations == 1
        assert len(cut.selected) == 1
        full = fit_lasso(design, response, alpha=alpha)
        assert full.converged
        assert full.n_iterations > 1

    def test_zero_alpha_is_least_squares(self):
        design, response = _problem(seed=5, n=80, p=8)
        fit = fit_lasso(design, response, alpha=0.0)
        centered = design - design.mean(axis=0)
        reference, *_ = np.linalg.lstsq(
            centered, response - response.mean(), rcond=None
        )
        assert np.allclose(fit.coefficients, reference, rtol=1e-9, atol=0)

    def test_no_columns(self):
        design = np.zeros((5, 0))
        response = np.arange(5.0)
        fit = fit_lasso(design, response, alpha=0.1)
        path = fit_lasso_path(design, response)
        for result in (fit, path.best):
            assert result.coefficients.size == 0
            assert result.intercept == 2.0
            assert result.converged
