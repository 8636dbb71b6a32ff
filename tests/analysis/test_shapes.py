"""chaos-shape (N7xx) seeded-bug fixtures.

Every rule gets at least one fixture that fires and a corrected twin
that stays silent — the corrected twin is the regression test against
false positives, which for an abstract interpreter are as damaging as
misses (they erode trust in the clean-tree gate).
"""

import textwrap

import pytest

from repro.analysis.shapes import check_shapes_source
from repro.analysis.signatures import ARRAY_CONTRACTS, ArrayContract


@pytest.fixture
def hot(monkeypatch):
    """Declare a function hot the way the tree does: its entry in
    ARRAY_CONTRACTS sets ``hot_path``."""

    def declare(name):
        monkeypatch.setitem(
            ARRAY_CONTRACTS, name, ArrayContract(name, hot_path=True)
        )

    return declare


def _codes(source):
    findings = check_shapes_source(
        textwrap.dedent(source), "fixture.py"
    )
    return sorted({finding.code for finding in findings})


def _findings(source):
    return check_shapes_source(textwrap.dedent(source), "fixture.py")


class TestN701DtypeBoundary:
    def test_float32_row_into_kernel_fires(self):
        assert "N701" in _codes(
            """
            import numpy as np

            def score(design):
                row = np.asarray([1.0, 2.0], dtype=np.float32)
                return matvec(design, row)
            """
        )

    def test_float64_row_is_silent(self):
        assert _codes(
            """
            import numpy as np

            def score(design):
                row = np.asarray([1.0, 2.0], dtype=np.float64)
                return matvec(design, row)
            """
        ) == []

    def test_int_matrix_into_kernel_fires(self):
        assert "N701" in _codes(
            """
            import numpy as np

            def score(vector):
                counts = np.zeros((4, 3), dtype=np.int64)
                return matvec(counts, vector)
            """
        )

    def test_interprocedural_dtype_flows_through_helper(self):
        # The float32 allocation is one function away from the kernel
        # call: only the return-summary pass can see it.
        assert "N701" in _codes(
            """
            import numpy as np

            def _load_row():
                return np.zeros(3, dtype=np.float32)

            def score():
                return matvec(np.zeros((2, 3)), _load_row())
            """
        )

    def test_interprocedural_float64_helper_is_silent(self):
        assert _codes(
            """
            import numpy as np

            def _load_row():
                return np.zeros(3, dtype=np.float64)

            def score():
                return matvec(np.zeros((2, 3)), _load_row())
            """
        ) == []


class TestN702RowLoop:
    def test_python_loop_over_rows_calling_kernel_fires(self):
        assert "N702" in _codes(
            """
            import numpy as np

            def score(design):
                out = []
                for row in np.zeros((10, 4)):
                    out.append(matvec(np.zeros((3, 4)), row))
                return out
            """
        )

    def test_whole_matrix_call_is_silent(self):
        assert _codes(
            """
            import numpy as np

            def score():
                return matvec(np.zeros((10, 4)), np.zeros(4))
            """
        ) == []

    def test_loop_without_kernel_call_is_silent(self):
        assert _codes(
            """
            import numpy as np

            def total():
                acc = 0.0
                for row in np.zeros((10, 4)):
                    acc = acc + float(row.sum())
                return acc
            """
        ) == []

    def test_loop_over_vector_is_silent(self):
        # Iterating a rank-1 array yields scalars; there is no
        # vectorized whole-matrix alternative being missed.
        assert _codes(
            """
            import numpy as np

            def scan(design):
                out = []
                for value in np.zeros(10):
                    out.append(matvec(design, np.zeros(4)))
                return out
            """
        ) == []


class TestN703HiddenCopy:
    def test_concatenate_in_hot_path_fires(self, hot):
        hot("tick")
        assert "N703" in _codes(
            """
            import numpy as np

            def tick(buf, new):
                return np.concatenate([buf, new])
            """
        )

    def test_fancy_indexing_in_hot_path_fires(self, hot):
        hot("gather")
        assert "N703" in _codes(
            """
            import numpy as np

            def gather(values):
                keep = np.zeros((8, 3))
                rows = np.arange(2)
                return keep[rows]
            """
        )

    def test_same_copy_outside_hot_path_is_silent(self):
        assert _codes(
            """
            import numpy as np

            def setup(buf, new):
                return np.concatenate([buf, new])
            """
        ) == []

    def test_in_place_write_in_hot_path_is_silent(self, hot):
        hot("tick")
        assert _codes(
            """
            import numpy as np

            def tick(ring, new, head):
                ring[head] = new
                return ring
            """
        ) == []


class TestN704ShapeContract:
    def test_broadcast_conflict_fires(self):
        assert "N704" in _codes(
            """
            import numpy as np

            def residual():
                actual = np.zeros((4, 3))
                predicted = np.zeros((5, 3))
                return actual - predicted
            """
        )

    def test_compatible_broadcast_is_silent(self):
        assert _codes(
            """
            import numpy as np

            def residual():
                actual = np.zeros((4, 3))
                predicted = np.zeros((4, 3))
                return actual - predicted
            """
        ) == []

    def test_rank_mismatch_against_contract_fires(self):
        # matvec's contract declares a rank-2 matrix; handing it a
        # vector is a rank error even though numpy would not raise
        # until deep inside einsum.
        assert "N704" in _codes(
            """
            import numpy as np

            def score():
                return matvec(np.zeros(4), np.zeros(4))
            """
        )

    def test_symbolic_dim_conflict_fires(self):
        # (n, k=3) against (k=5,): the shared symbol k unifies to two
        # different concrete sizes.
        assert "N704" in _codes(
            """
            import numpy as np

            def score():
                return matvec(np.zeros((4, 3)), np.zeros(5))
            """
        )

    def test_consistent_symbolic_dims_are_silent(self):
        assert _codes(
            """
            import numpy as np

            def score():
                return matvec(np.zeros((4, 3)), np.zeros(3))
            """
        ) == []

    def test_unknown_dims_do_not_fire(self):
        # Unknown shapes must stay silent: flagging "could not prove
        # compatible" would bury real conflicts in noise.
        assert _codes(
            """
            import numpy as np

            def score(design, row):
                return matvec(design, row)
            """
        ) == []


class TestN705HotPathAllocation:
    def test_zeros_in_hot_path_fires(self, hot):
        hot("tick")
        assert "N705" in _codes(
            """
            import numpy as np

            def tick(rows):
                scratch = np.zeros(8)
                return scratch
            """
        )

    def test_allocation_outside_hot_path_is_silent(self):
        assert _codes(
            """
            import numpy as np

            def setup():
                return np.zeros(8)
            """
        ) == []

    def test_hot_path_without_allocation_is_silent(self, hot):
        hot("tick")
        assert _codes(
            """
            import numpy as np

            def tick(scratch, rows):
                scratch[:] = 0.0
                return scratch
            """
        ) == []


class TestN706Contiguity:
    def test_transposed_view_into_kernel_fires(self):
        assert "N706" in _codes(
            """
            import numpy as np

            def score(weights):
                design = np.zeros((3, 4))
                return matvec(design.T, weights)
            """
        )

    def test_step_slice_into_kernel_fires(self):
        assert "N706" in _codes(
            """
            import numpy as np

            def score(weights):
                design = np.zeros((8, 4))
                return matvec(design[::2], weights)
            """
        )

    def test_ascontiguousarray_silences(self):
        assert _codes(
            """
            import numpy as np

            def score(weights):
                design = np.zeros((3, 4))
                design_t = np.ascontiguousarray(design.T)
                return matvec(design_t, weights)
            """
        ) == []

    def test_fresh_allocation_is_silent(self):
        assert _codes(
            """
            import numpy as np

            def score(weights):
                return matvec(np.zeros((3, 4)), weights)
            """
        ) == []


class TestContractSeeding:
    def test_contracted_function_params_are_seeded(self):
        # Inside a function whose name matches a registered contract,
        # the declared specs seed the entry state: matrix arrives
        # contiguous, so transposing it and handing the view to einsum
        # fires N706 with no local allocation in sight.
        assert "N706" in _codes(
            """
            import numpy as np

            def matvec(matrix, vector):
                return np.einsum("ij,j->i", matrix.T, vector)
            """
        )

    def test_matvec_contract_marks_it_hot(self):
        # The table's hot_path flag on matvec is what puts its body
        # under N703/N705; no decorator is involved.
        assert {"N703", "N705"} <= set(_codes(
            """
            import numpy as np

            def matvec(matrix, vector):
                scratch = np.zeros(3)
                both = np.concatenate([vector, scratch])
                return np.einsum("ij,j->i", matrix, both)
            """
        ))

    def test_seeded_symbolic_dims_do_not_conflict(self):
        assert _codes(
            """
            import numpy as np

            def matvec(matrix, vector):
                return np.einsum("ij,j->i", matrix, vector)
            """
        ) == []


class TestFindingShape:
    def test_findings_carry_function_context_and_location(self):
        findings = _findings(
            """
            import numpy as np

            def score(design):
                row = np.asarray([1.0], dtype=np.float32)
                return matvec(design, row)
            """
        )
        assert len(findings) == 1
        finding = findings[0]
        assert finding.code == "N701"
        assert finding.context["function"] == "score"
        assert finding.location.startswith("fixture.py:")

    def test_syntax_error_raises_value_error(self):
        with pytest.raises(ValueError, match="cannot parse"):
            check_shapes_source("def broken(:", "fixture.py")

    def test_duplicate_findings_are_deduplicated(self):
        findings = _findings(
            """
            import numpy as np

            def score(design):
                row = np.asarray([1.0], dtype=np.float32)
                return matvec(design, row)
            """
        )
        keys = [(f.code, f.location) for f in findings]
        assert len(keys) == len(set(keys))
