"""MARS's passes against the plain passes they replaced.

``_forward_pass`` computes each (parent, feature) knot grid once and
appends accepted hinge columns; ``_backward_pass`` evaluates the forward
bases once and stacks each trial subset from them.  Every candidate
score, QR and least-squares fit still sees the same inputs in the same
memory layout, so ``fit_mars`` must return the same model with either
pair of passes: equal bases, the same coefficient bytes, and the same
``gcv`` and ``training_rss`` by ``float.hex``.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import runner
from repro.cluster.cluster import Cluster
from repro.models.featuresets import cluster_plus_lagged_frequency, pool_features
from repro.platforms import get_platform
from repro.regression import mars
from repro.workloads.suite import default_suite
from tests.regression.plain_mars import plain_backward_pass, plain_forward_pass

# The 11 counters of the Opteron CP model that ``repro serve`` scores in
# the fleet benchmark; with lagged MHz the served design has 12 columns.
OPTERON_COUNTERS = (
    r"\Processor(_Total)\% Processor Time",
    r"\Processor(_Total)\% Privileged Time",
    r"\Processor(_Total)\% Interrupt Time",
    r"\Processor Performance(0)\Frequency MHz",
    r"\Memory\Page Faults/sec",
    r"\Memory\Cache Faults/sec",
    r"\Memory\Cache Bytes Peak",
    r"\TCPv4\Segments Sent/sec",
    r"\Process(explorer)\% Processor Time",
    r"\Job Object Details(DryadJob/_Total)\Process Count",
    r"\System\Processor Queue Length",
)


def _plain_fit(design: np.ndarray, response: np.ndarray, **kwargs):
    with mock.patch.object(
        mars, "_forward_pass", plain_forward_pass
    ), mock.patch.object(mars, "_backward_pass", plain_backward_pass):
        return mars.fit_mars(design, response, **kwargs)


def _assert_fits_agree(design: np.ndarray, response: np.ndarray, **kwargs):
    model = mars.fit_mars(design, response, **kwargs)
    reference = _plain_fit(design, response, **kwargs)
    assert model.bases == reference.bases
    assert [h.knot.hex() for b in model.bases for h in b.hinges] == [
        h.knot.hex() for b in reference.bases for h in b.hinges
    ]
    assert model.coefficients.shape == reference.coefficients.shape
    assert model.coefficients.tobytes() == reference.coefficients.tobytes()
    assert model.gcv.hex() == reference.gcv.hex()
    assert model.training_rss.hex() == reference.training_rss.hex()
    return model


def _column(rng: np.random.Generator, kind: str, n: int, design: np.ndarray):
    if kind == "discrete":
        # Few distinct small integers: many candidate knots and scores tie.
        values = rng.choice(np.arange(-4.0, 5.0), rng.integers(2, 6), replace=False)
        return rng.choice(values, n)
    if kind == "duplicate" and design.shape[1] > 0:
        return design[:, rng.integers(design.shape[1])].copy()
    if kind == "constant":
        return np.full(n, float(rng.integers(-3, 4)))
    return rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.uniform(-2, 2)


@st.composite
def mars_problems(draw):
    # Drawn uniformly: integers() leans on its bounds, and most problems
    # at n = 8 or max_terms = 3 stop after one step.
    n = draw(st.sampled_from(range(8, 401)))
    p = draw(st.sampled_from(range(1, 7)))
    kinds = st.sampled_from(["continuous", "discrete", "duplicate", "constant"])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    design = np.empty((n, 0))
    for _ in range(p):
        column = _column(rng, draw(kinds), n, design)
        design = np.column_stack([design, column])
    # A few unit-scale hinges and one product of hinges at data points,
    # plus noise; a noiseless integer response also ties exactly in RSS.
    scale = np.maximum(np.ptp(design, axis=0), 1.0)
    response = np.full(n, rng.normal())
    for _ in range(3):
        feature = rng.integers(p)
        column = design[:, feature] / scale[feature]
        hinge = np.maximum(column - column[rng.integers(n)], 0.0)
        response += rng.normal(0.0, 4.0) * hinge
    other = rng.integers(p)
    response += rng.normal(0.0, 4.0) * hinge * design[:, other] / scale[other]
    noise = draw(st.sampled_from([0.0, 1e-3, 0.3]))
    response += noise * rng.normal(size=n)
    if draw(st.booleans()):
        response = np.round(response)
    return design, response, dict(
        max_degree=draw(st.sampled_from([1, 2])),
        max_terms=draw(st.sampled_from(range(3, 18))),
        n_knot_candidates=draw(st.sampled_from(range(2, 13))),
    )


class TestFitMatchesPlainPasses:
    @given(problem=mars_problems())
    @settings(max_examples=150, deadline=None)
    def test_bit_identical_on_random_problems(self, problem):
        design, response, kwargs = problem
        _assert_fits_agree(design, response, **kwargs)

    def test_served_opteron_shape(self):
        """Degree 2 on a simulated Opteron CP design: 12 columns and the
        term cap the P/Q models use at this sample count."""
        cluster = Cluster.homogeneous(
            get_platform("opteron"), n_machines=1, seed=1
        )
        workloads = list(default_suite().values())[:2]
        runs = [
            runner.execute_runs(cluster, workload, n_runs=1, jobs=1)[0]
            for workload in workloads
        ]
        feature_set = cluster_plus_lagged_frequency(OPTERON_COUNTERS)
        design, power = pool_features(runs, feature_set)
        assert design.shape[1] == 12 and design.shape[0] >= 17 * 25
        model = _assert_fits_agree(design, power, max_degree=2, max_terms=17)
        assert any(basis.degree == 2 for basis in model.bases)
