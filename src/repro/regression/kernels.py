"""Batch-size-invariant numeric kernels for prediction hot paths.

The serving layer scores micro-batches whose composition depends on
arrival timing: one tick may score 3 rows for a machine, the next 40
rows across 12 machines.  ``numpy``'s ``@`` dispatches matrix-vector
products to BLAS ``gemv``, whose reduction order (and therefore the
last-ulp rounding) can change with the number of rows — so the same
sample could predict slightly different watts depending on which other
samples happened to share its batch.

``matvec`` routes the product through ``np.einsum``, which reduces each
output element independently with a fixed-order loop over the feature
axis.  The result is *partition-invariant*: predicting rows one at a
time, in micro-batches, or as one full matrix produces bit-identical
values.  Every model family's predict path uses it, which is what lets
``repro replay`` promise bit-identical online == offline predictions.
"""

from __future__ import annotations

import numpy as np


def matvec(matrix: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """``matrix @ vector`` with a batch-size-invariant reduction.

    Each output element is an independent fixed-order sum over the
    feature axis, so ``matvec(m[i:j], v)`` equals ``matvec(m, v)[i:j]``
    bit-for-bit for any row partition.

    Its entry in ``repro.analysis.signatures.ARRAY_CONTRACTS`` is the
    one declaration of its contract: ``matrix`` is a C-contiguous
    float64 ``(n, k)``, ``vector`` a float64 ``(k,)``; anything else
    either changes rounding (dtype) or forces einsum to stride/copy
    (layout), both of which break the partition-invariance guarantee
    above.  The entry also names it as a site the array sanitizer wraps
    while armed (``repro replay --sanitize``), which checks exactly
    that on every call.
    """
    return np.einsum("ij,j->i", matrix, vector)
