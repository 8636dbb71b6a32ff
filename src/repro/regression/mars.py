"""Multivariate Adaptive Regression Splines (Friedman, 1991), from scratch.

The paper's piecewise-linear power model (Eq. 2) is MARS restricted to
degree 1 (additive hinges), and its quadratic model (Eq. 3) is MARS with
degree-2 basis interactions.  This implementation follows the classic
two-stage algorithm:

* **Forward pass** — greedily grow a basis set.  Each step considers, for
  every existing (parent) basis, every feature the parent does not already
  use, and a grid of candidate knots; it adds the reflected hinge pair that
  most reduces the training RSS.  Each step factors the current basis
  matrix by a fresh QR, and each (parent, feature) group's candidate
  columns are orthogonalized against it, so a candidate costs O(n·k)
  instead of a full refit.
* **Backward pass** — prune bases one at a time, keeping the subset with the
  lowest Generalized Cross-Validation (GCV) score, which penalizes model
  size and guards against overfitting to a single run's scheduler layout.

Work whose inputs do not change is done once per fit.  A parent's column
never changes once it is in the basis, so each (parent, feature) knot grid
is computed the first time the pair is scored.  An accepted pair appends
its two columns to the basis matrix instead of re-evaluating every basis.
The backward pass evaluates the forward bases once and stacks each trial
subset from those columns, C-ordered as ``evaluate_bases`` stacks them.

Scoring stays per group and the QR per step on purpose.  On discrete-valued
counters and duplicated columns several candidates tie in exact arithmetic,
so the winner is whichever rounds highest; scoring all groups in one batch
or updating the QR by the appended columns rounds differently and can pick
another knot.  Each pruning trial is a least-squares fit rather than a
drop-one downdate for the same reason: a forward basis that chose the same
parent and feature twice is rank-deficient, and its drop candidates tie.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.regression.hinge import (
    INTERCEPT_BASIS,
    BasisFunction,
    Hinge,
    evaluate_bases,
)
from repro.regression.kernels import matvec
from repro.regression.lasso import _require_finite

_EPS = 1e-10


@dataclass(frozen=True)
class MARSModel:
    """A fitted MARS model: a basis expansion plus linear coefficients."""

    bases: tuple[BasisFunction, ...]
    coefficients: np.ndarray
    gcv: float
    training_rss: float
    n_samples: int
    max_degree: int

    @property
    def n_terms(self) -> int:
        """Number of basis functions including the intercept."""
        return len(self.bases)

    @property
    def knots(self) -> tuple[float, ...]:
        """All knot locations used by non-linear hinges."""
        return tuple(
            h.knot for b in self.bases for h in b.hinges if h.sign != 0
        )

    @property
    def features_used(self) -> frozenset[int]:
        used: set[int] = set()
        for basis in self.bases:
            used |= basis.features
        return frozenset(used)

    def predict(self, design: np.ndarray) -> np.ndarray:
        design = np.asarray(design, dtype=float)
        if design.ndim != 2:
            raise ValueError("design matrix must be 2-D")
        matrix = evaluate_bases(self.bases, design)
        # Batch-size-invariant kernel: serving scores the same rows in
        # arbitrary micro-batch groupings and must get identical watts.
        return matvec(matrix, self.coefficients)

    def describe(self, feature_names: Optional[Sequence[str]] = None) -> str:
        parts = []
        for coefficient, basis in zip(self.coefficients, self.bases):
            parts.append(f"{coefficient:+.4g}*{basis.describe(feature_names)}")
        return " ".join(parts)


def _knot_candidates(
    column: np.ndarray, parent_values: np.ndarray, n_candidates: int
) -> np.ndarray:
    """Quantile-spaced candidate knots over points where the parent is live."""
    active = column[parent_values != 0.0]
    if active.size < 4:
        return np.empty(0)
    quantiles = np.linspace(0.05, 0.95, n_candidates)
    knots = np.unique(np.quantile(active, quantiles))
    # A knot at an extreme makes one hinge identically zero; drop those.
    low, high = active.min(), active.max()
    return knots[(knots > low) & (knots < high)]


def _pair_rss_reductions(
    q_matrix: np.ndarray,
    residual: np.ndarray,
    plus_columns: np.ndarray,
    minus_columns: np.ndarray,
) -> np.ndarray:
    """RSS reduction from adding each (plus, minus) column pair.

    Columns are first orthogonalized against the current basis (via its
    orthonormal factor ``q_matrix``); the exact reduction for a pair is then
    b' G^-1 b where G is the pair's 2x2 Gram matrix and b its correlation
    with the residual.
    """
    def orthogonalize(columns: np.ndarray) -> np.ndarray:
        return columns - q_matrix @ (q_matrix.T @ columns)

    u_plus = orthogonalize(plus_columns)
    u_minus = orthogonalize(minus_columns)

    g11 = np.einsum("ij,ij->j", u_plus, u_plus)
    g22 = np.einsum("ij,ij->j", u_minus, u_minus)
    g12 = np.einsum("ij,ij->j", u_plus, u_minus)
    b1 = u_plus.T @ residual
    b2 = u_minus.T @ residual

    determinant = g11 * g22 - g12 * g12
    reductions = np.zeros(plus_columns.shape[1])

    # Non-degenerate pairs: solve the 2x2 normal equations.
    ok = determinant > _EPS * np.maximum(g11 * g22, _EPS)
    with np.errstate(divide="ignore", invalid="ignore"):
        reductions_ok = (
            g22 * b1 * b1 - 2.0 * g12 * b1 * b2 + g11 * b2 * b2
        ) / determinant
    reductions[ok] = reductions_ok[ok]

    # Degenerate pairs (one hinge numerically redundant): best single column.
    single_plus = np.where(g11 > _EPS, b1 * b1 / np.maximum(g11, _EPS), 0.0)
    single_minus = np.where(g22 > _EPS, b2 * b2 / np.maximum(g22, _EPS), 0.0)
    best_single = np.maximum(single_plus, single_minus)
    reductions[~ok] = best_single[~ok]
    return reductions


def _forward_pass(
    design: np.ndarray,
    response: np.ndarray,
    max_degree: int,
    max_terms: int,
    n_knot_candidates: int,
    min_rss_decrease: float,
) -> list[BasisFunction]:
    n_samples = design.shape[0]
    n_features = design.shape[1]
    bases: list[BasisFunction] = [INTERCEPT_BASIS]
    columns = [np.ones(n_samples)]
    q_matrix, _ = np.linalg.qr(np.column_stack(columns))
    residual = response - q_matrix @ (q_matrix.T @ response)
    rss = float(residual @ residual)
    total_ss = max(rss, _EPS)

    feature_columns = [design[:, j] for j in range(n_features)]
    feature_is_constant = [
        bool(np.all(column == column[0])) for column in feature_columns
    ]
    # A parent's column never changes once it is in the basis, so each
    # (parent, feature) knot grid is computed the first time the pair is
    # scored.  Only the knots are kept: keeping the hinge columns too
    # would hold n x knots doubles per pair for the whole fit.
    knot_grids: dict[tuple[int, int], np.ndarray] = {}

    while len(bases) + 2 <= max_terms:
        best = None  # (reduction, parent_index, feature, knot)
        for parent_index, parent in enumerate(bases):
            if parent.degree >= max_degree:
                continue
            parent_values = columns[parent_index]
            for feature in range(n_features):
                if feature_is_constant[feature] or parent.involves(feature):
                    continue
                column = feature_columns[feature]
                knots = knot_grids.get((parent_index, feature))
                if knots is None:
                    knots = _knot_candidates(
                        column, parent_values, n_knot_candidates
                    )
                    knot_grids[parent_index, feature] = knots
                if knots.size == 0:
                    continue
                plus = parent_values[:, None] * np.maximum(
                    column[:, None] - knots[None, :], 0.0
                )
                minus = parent_values[:, None] * np.maximum(
                    knots[None, :] - column[:, None], 0.0
                )
                reductions = _pair_rss_reductions(
                    q_matrix, residual, plus, minus
                )
                local_best = int(np.argmax(reductions))
                reduction = float(reductions[local_best])
                if best is None or reduction > best[0]:
                    best = (
                        reduction,
                        parent_index,
                        feature,
                        float(knots[local_best]),
                    )

        if best is None or best[0] < min_rss_decrease * total_ss:
            break

        _, parent_index, feature, knot = best
        parent = bases[parent_index]
        bases.append(parent.extended(Hinge(feature=feature, knot=knot, sign=+1)))
        bases.append(parent.extended(Hinge(feature=feature, knot=knot, sign=-1)))
        # The products BasisFunction.evaluate forms, in its order, stacked
        # as evaluate_bases stacks them: the same matrix, bit for bit.
        parent_values = columns[parent_index]
        column = feature_columns[feature]
        columns.append(parent_values * np.maximum(column - knot, 0.0))
        columns.append(parent_values * np.maximum(knot - column, 0.0))
        q_matrix, _ = np.linalg.qr(np.column_stack(columns))
        residual = response - q_matrix @ (q_matrix.T @ response)
        new_rss = float(residual @ residual)
        if rss - new_rss < min_rss_decrease * total_ss:
            # The exact refit confirms no useful progress; undo and stop.
            bases = bases[:-2]
            break
        rss = new_rss

    return bases


def _gcv(rss: float, n_samples: int, n_terms: int, penalty: float) -> float:
    effective = n_terms + penalty * max(n_terms - 1, 0) / 2.0
    if effective >= n_samples:
        # More effective parameters than samples: the model is not
        # identifiable and must never win the pruning comparison.  (The
        # squared denominator would otherwise hide this case.)
        return np.inf
    denominator = (1.0 - effective / n_samples) ** 2
    return (rss / n_samples) / denominator


def _backward_pass(
    design: np.ndarray,
    response: np.ndarray,
    bases: list[BasisFunction],
    penalty: float,
) -> tuple[list[BasisFunction], np.ndarray, float, float]:
    """Prune bases to minimize GCV; returns (bases, coefficients, gcv, rss)."""
    n_samples = design.shape[0]
    columns = [basis.evaluate(design) for basis in bases]

    def fit_subset(subset: list[int]) -> tuple[np.ndarray, float]:
        # Stacked as evaluate_bases stacks them, so C-ordered: lstsq and
        # the product below round differently on a Fortran-ordered slice.
        matrix = np.column_stack([columns[index] for index in subset])
        coefficients, _, _, _ = np.linalg.lstsq(matrix, response, rcond=None)
        residual = response - matrix @ coefficients
        rss = float(residual @ residual)
        return coefficients, rss

    current = list(range(len(bases)))
    coefficients, rss = fit_subset(current)
    best_subset = list(current)
    best_coefficients = coefficients
    best_rss = rss
    best_gcv = _gcv(rss, n_samples, len(current), penalty)

    while len(current) > 1:
        trial_best = None  # (gcv, index, coefficients, rss)
        for index in range(1, len(current)):  # never drop the intercept
            subset = current[:index] + current[index + 1:]
            subset_coefficients, subset_rss = fit_subset(subset)
            subset_gcv = _gcv(subset_rss, n_samples, len(subset), penalty)
            if trial_best is None or subset_gcv < trial_best[0]:
                trial_best = (subset_gcv, index, subset_coefficients, subset_rss)
        if trial_best is None:
            break
        gcv_value, index, coefficients, rss = trial_best
        current = current[:index] + current[index + 1:]
        if gcv_value < best_gcv:
            best_gcv = gcv_value
            best_subset = list(current)
            best_coefficients = coefficients
            best_rss = rss

    best_bases = [bases[index] for index in best_subset]
    return best_bases, best_coefficients, best_gcv, best_rss


def fit_mars(
    design: np.ndarray,
    response: np.ndarray,
    max_degree: int = 1,
    max_terms: int = 17,
    n_knot_candidates: int = 12,
    penalty: float = 3.0,
    min_rss_decrease: float = 1e-5,
) -> MARSModel:
    """Fit a MARS model.

    Parameters
    ----------
    design:
        ``(n, p)`` raw feature matrix (no intercept column).
    response:
        ``(n,)`` target vector.
    max_degree:
        1 gives the paper's piecewise-linear model (Eq. 2); 2 the quadratic
        model (Eq. 3).
    max_terms:
        Cap on basis functions (including the intercept) grown by the
        forward pass.
    n_knot_candidates:
        Quantile grid size per (parent, feature) candidate search.
    penalty:
        The GCV per-knot penalty "d" (Friedman recommends 2-4).
    min_rss_decrease:
        Forward pass stops when the best candidate improves training RSS by
        less than this fraction of the total sum of squares.

    NaN or infinite inputs raise ``ValueError``.
    """
    design = np.asarray(design, dtype=float)
    y = np.asarray(response, dtype=float).ravel()
    if design.ndim != 2:
        raise ValueError("design matrix must be 2-D")
    if design.shape[0] != y.shape[0]:
        raise ValueError("design and response lengths differ")
    if design.shape[0] < 8:
        raise ValueError("MARS needs at least 8 samples")
    if max_degree not in (1, 2):
        raise ValueError("max_degree must be 1 or 2")
    if max_terms < 3:
        raise ValueError("max_terms must allow at least one hinge pair")
    _require_finite("design", design)
    _require_finite("response", y)

    bases = _forward_pass(
        design,
        y,
        max_degree=max_degree,
        max_terms=max_terms,
        n_knot_candidates=n_knot_candidates,
        min_rss_decrease=min_rss_decrease,
    )
    pruned_bases, coefficients, gcv, rss = _backward_pass(
        design, y, bases, penalty=penalty
    )
    return MARSModel(
        bases=tuple(pruned_bases),
        coefficients=np.asarray(coefficients, dtype=float),
        gcv=float(gcv),
        training_rss=float(rss),
        n_samples=int(design.shape[0]),
        max_degree=max_degree,
    )
