"""From-scratch regression toolkit: OLS + Wald, lasso, stepwise, MARS."""

from repro.regression.hinge import BasisFunction, Hinge, evaluate_bases
from repro.regression.lasso import (
    LassoFit,
    LassoPathResult,
    fit_lasso,
    fit_lasso_path,
    max_alpha,
)
from repro.regression.mars import MARSModel, fit_mars
from repro.regression.mixed import (
    PoolingSuitability,
    RandomInterceptFit,
    fit_random_intercept,
    pooling_suitability,
)
from repro.regression.ols import OLSFit, add_intercept, fit_ols
from repro.regression.stepwise import StepwiseResult, backward_eliminate

__all__ = [
    "BasisFunction",
    "Hinge",
    "LassoFit",
    "LassoPathResult",
    "MARSModel",
    "OLSFit",
    "PoolingSuitability",
    "RandomInterceptFit",
    "StepwiseResult",
    "add_intercept",
    "backward_eliminate",
    "evaluate_bases",
    "fit_lasso",
    "fit_lasso_path",
    "fit_mars",
    "fit_ols",
    "fit_random_intercept",
    "max_alpha",
    "pooling_suitability",
]
