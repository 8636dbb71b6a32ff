"""The lasso's skipping sweep against the plain sweep it replaced.

``_coordinate_descent`` visits only the coordinates a sweep can move.
Skipping a coordinate the plain sweep would leave unchanged changes no
arithmetic, so on every problem both must return bit-identical
``(beta, n_iterations, converged)``: the same bytes, signed zeros
included.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.regression import lasso
from repro.regression.lasso import _coordinate_descent, _standardize
from tests.regression.plain_lasso import plain_coordinate_descent


def _covariance_form(design: np.ndarray, response: np.ndarray):
    """The quantities ``fit_lasso`` hands to the sweep."""
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


def _assert_sweeps_agree(
    gram, correlations, norms, alpha, beta0, max_iterations, tolerance=1e-7
):
    kwargs = dict(
        gram=gram,
        correlations=correlations,
        column_norms=norms,
        alpha=alpha,
        beta0=beta0,
        max_iterations=max_iterations,
        tolerance=tolerance,
    )
    beta, iterations, converged = _coordinate_descent(**kwargs)
    plain_beta, plain_iterations, plain_converged = plain_coordinate_descent(
        **kwargs
    )
    assert beta.tobytes() == plain_beta.tobytes()
    assert iterations == plain_iterations
    assert converged == plain_converged
    return beta, iterations, converged


@st.composite
def sweep_problems(draw):
    p = draw(st.integers(1, 24))
    design, response = _problem(
        seed=draw(st.integers(0, 2**32 - 1)),
        n=draw(st.integers(3, 80)),
        p=p,
        n_constant=draw(st.integers(0, 3)),
        n_duplicate=draw(st.integers(0, 3)),
        n_collinear=draw(st.integers(0, 3)),
    )
    gram, correlations, norms = _covariance_form(design, response)
    top = float(np.max(np.abs(correlations)))
    alpha = draw(
        st.one_of(
            st.just(0.0),
            st.floats(1e-4, 1.2).map(lambda ratio: ratio * top),
        )
    )
    # Warm start from the previous (larger) alpha's solution, as the path does.
    warm_ratio = draw(st.one_of(st.none(), st.floats(1.0, 4.0)))
    beta0 = np.zeros(p)
    if warm_ratio is not None:
        beta0, _, _ = plain_coordinate_descent(
            gram, correlations, norms, alpha * warm_ratio, beta0, 200, 1e-7
        )
    return dict(
        gram=gram,
        correlations=correlations,
        norms=norms,
        alpha=alpha,
        beta0=beta0,
        max_iterations=draw(st.integers(1, 300)),
        tolerance=draw(st.sampled_from([1e-7, 1e-12, 0.0])),
    )


class TestSweepMatchesPlainSweep:
    @given(problem=sweep_problems())
    @settings(max_examples=200, deadline=None)
    def test_bit_identical_on_random_problems(self, problem):
        _assert_sweeps_agree(**problem)

    def test_constant_columns_stay_zero(self):
        design, response = _problem(seed=1, n=60, p=12, n_constant=3)
        gram, correlations, norms = _covariance_form(design, response)
        assert np.count_nonzero(norms == 0.0) == 3
        beta, _, converged = _assert_sweeps_agree(
            gram, correlations, norms, 1e-3, np.zeros(12), 1000
        )
        assert converged
        assert np.all(beta[norms == 0.0] == 0.0)

    @pytest.mark.parametrize("n_duplicate,n_collinear", [(2, 0), (0, 2)])
    def test_duplicated_and_collinear_columns_run_out(
        self, n_duplicate, n_collinear
    ):
        design, response = _problem(
            seed=9, n=50, p=10, n_duplicate=n_duplicate,
            n_collinear=n_collinear,
        )
        gram, correlations, norms = _covariance_form(design, response)
        _, iterations, converged = _assert_sweeps_agree(
            gram, correlations, norms, 1e-6, np.zeros(10), 40,
            tolerance=1e-12,
        )
        assert not converged
        assert iterations == 40

    def test_warm_started_path(self):
        """Every entry of a warm-started alpha path, as fit_lasso_path
        runs it, with the plain sweep's previous solution as the start."""
        design, response = _problem(seed=3, n=120, p=20, n_collinear=2)
        gram, correlations, norms = _covariance_form(design, response)
        top = float(np.max(np.abs(correlations)))
        beta = np.zeros(20)
        for alpha in top * np.geomspace(1.0, 1e-3, 12):
            beta, _, _ = _assert_sweeps_agree(
                gram, correlations, norms, float(alpha), beta, 1000
            )

    def test_queue_carried_between_sweeps(self, monkeypatch):
        """A sweep that ends without a requeue hands its queue and slack
        to the next one: on this input fewer scans run than sweeps."""
        design, response = _problem(seed=5, n=80, p=8)
        gram, correlations, norms = _covariance_form(design, response)
        alpha = 0.3 * float(np.max(np.abs(correlations)))
        scans = []
        movable = lasso._movable

        def counting_movable(*args):
            scans.append(args)
            return movable(*args)

        monkeypatch.setattr(lasso, "_movable", counting_movable)
        _, iterations, converged = _assert_sweeps_agree(
            gram, correlations, norms, alpha, np.zeros(8), 1000
        )
        assert converged
        assert len(scans) < iterations

    def test_zero_alpha(self):
        design, response = _problem(seed=5, n=80, p=8)
        gram, correlations, norms = _covariance_form(design, response)
        beta, _, _ = _assert_sweeps_agree(
            gram, correlations, norms, 0.0, np.zeros(8), 1000
        )
        assert np.count_nonzero(beta) == 8

    def test_no_columns(self):
        empty = np.zeros((0, 0))
        beta, iterations, converged = _assert_sweeps_agree(
            empty, np.zeros(0), np.zeros(0), 0.1, np.zeros(0), 10
        )
        assert beta.size == 0 and iterations == 1 and converged


class TestPathMatchesPlainPath:
    """The capped path is a prefix of the plain sweep's full path, and its
    best fit is the plain path's capped-BIC best."""

    @pytest.mark.parametrize("seed,max_features", [(11, 3), (12, 6), (13, 1)])
    def test_prefix_and_best(self, monkeypatch, seed, max_features):
        design, response = _problem(seed=seed, n=200, p=30, n_collinear=3)
        capped = lasso.fit_lasso_path(
            design, response, max_features=max_features
        )
        monkeypatch.setattr(
            lasso, "_coordinate_descent", plain_coordinate_descent
        )
        full = lasso.fit_lasso_path(design, response)

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
