"""The plain MARS forward and backward passes, kept as a test oracle.

``repro.regression.mars`` computes each (parent, feature) knot grid
once, appends accepted hinge columns to the basis matrix and prunes from
one evaluation of the forward bases.  These are the passes it replaced,
which recompute all three every step; the property tests require
``fit_mars`` to return the same bases, coefficient bytes, ``gcv`` and
``training_rss`` with either pair of passes.
"""

from __future__ import annotations

import numpy as np

from repro.regression.hinge import (
    INTERCEPT_BASIS,
    BasisFunction,
    Hinge,
    evaluate_bases,
)
from repro.regression.mars import (
    _EPS,
    _gcv,
    _knot_candidates,
    _pair_rss_reductions,
)


def plain_forward_pass(
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
    basis_matrix = np.ones((n_samples, 1))
    q_matrix, _ = np.linalg.qr(basis_matrix)
    residual = response - q_matrix @ (q_matrix.T @ response)
    rss = float(residual @ residual)
    total_ss = max(rss, _EPS)

    feature_columns = [design[:, j] for j in range(n_features)]
    feature_is_constant = [
        bool(np.all(column == column[0])) for column in feature_columns
    ]

    while len(bases) + 2 <= max_terms:
        best = None  # (reduction, parent_index, feature, knot)
        for parent_index, parent in enumerate(bases):
            if parent.degree >= max_degree:
                continue
            parent_values = basis_matrix[:, parent_index]
            for feature in range(n_features):
                if feature_is_constant[feature] or parent.involves(feature):
                    continue
                column = feature_columns[feature]
                knots = _knot_candidates(
                    column, parent_values, n_knot_candidates
                )
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
        new_plus = parent.extended(Hinge(feature=feature, knot=knot, sign=+1))
        new_minus = parent.extended(Hinge(feature=feature, knot=knot, sign=-1))
        for new_basis in (new_plus, new_minus):
            bases.append(new_basis)
        basis_matrix = evaluate_bases(bases, design)
        q_matrix, _ = np.linalg.qr(basis_matrix)
        residual = response - q_matrix @ (q_matrix.T @ response)
        new_rss = float(residual @ residual)
        if rss - new_rss < min_rss_decrease * total_ss:
            # The exact refit confirms no useful progress; undo and stop.
            bases = bases[:-2]
            break
        rss = new_rss

    return bases


def plain_backward_pass(
    design: np.ndarray,
    response: np.ndarray,
    bases: list[BasisFunction],
    penalty: float,
) -> tuple[list[BasisFunction], np.ndarray, float, float]:
    """Prune bases to minimize GCV; returns (bases, coefficients, gcv, rss)."""
    n_samples = design.shape[0]

    def fit_subset(
        subset: list[BasisFunction],
    ) -> tuple[np.ndarray, float]:
        matrix = evaluate_bases(subset, design)
        coefficients, _, _, _ = np.linalg.lstsq(matrix, response, rcond=None)
        residual = response - matrix @ coefficients
        rss = float(residual @ residual)
        return coefficients, rss

    current = list(bases)
    coefficients, rss = fit_subset(current)
    best_bases = list(current)
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
            best_bases = list(current)
            best_coefficients = coefficients
            best_rss = rss

    return best_bases, best_coefficients, best_gcv, best_rss
