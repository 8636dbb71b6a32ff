"""Runtime array-contract sanitizer.

The sanitizer arms from the contract table: each ``ArrayContract.site``
is wrapped while armed and restored on disarm.  Observation tests call
through the module attribute (``kernels.matvec``): this test module's
own ``from``-import binding would not be a ``repro`` global, so arming
would not rebind it.
"""

import importlib
import json
import sys
import types
from dataclasses import replace

import numpy as np
import pytest

from repro.analysis.arraysan import (
    ArraySanitizer,
    active_array_sanitizer,
    install_array_sanitizer,
)
from repro.analysis.signatures import ARRAY_CONTRACTS
from repro.framework.drift import InputDriftDetector
from repro.regression import kernels, mars, ols
from repro.regression.ols import fit_ols
from repro.serving import registry, session


@pytest.fixture(autouse=True)
def _no_leaked_sanitizer():
    assert active_array_sanitizer() is None
    yield
    leaked = active_array_sanitizer()
    if leaked is not None:
        leaked.uninstall()
        pytest.fail("test leaked an installed ArraySanitizer")


def _sites():
    """Contract name -> (owner, function) at its site, looked up here."""
    sites = {}
    for name, contract in ARRAY_CONTRACTS.items():
        module_name, _, qualname = contract.site.partition(":")
        owner = importlib.import_module(module_name)
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        sites[name] = (owner, vars(owner)[attr])
    return sites


def _bindings(sites):
    """Every (owner name, namespace, key, contract name) where a loaded
    ``repro`` module or a method site's class holds a site's function."""
    by_id = {id(func): name for name, (_, func) in sites.items()}
    owners = [
        (module_name, vars(module))
        for module_name, module in list(sys.modules.items())
        if module is not None and module_name.split(".")[0] == "repro"
    ]
    owners += [
        (owner.__qualname__, vars(owner))
        for owner, _ in sites.values()
        if isinstance(owner, type)
    ]
    return [
        (owner_name, namespace, key, by_id[id(value)])
        for owner_name, namespace in owners
        for key, value in list(namespace.items())
        if id(value) in by_id
    ]


class TestSites:
    def test_arm_and_disarm_every_site(self):
        sites = _sites()
        assert len(sites) == 22
        originals = {name: func for name, (_, func) in sites.items()}
        bindings = _bindings(sites)
        # The defining module, ``from``-importing modules and classes.
        held = {(owner_name, key) for owner_name, _, key, _ in bindings}
        assert ("repro.regression.kernels", "matvec") in held
        assert ("repro.regression.ols", "matvec") in held
        assert ("repro.regression.mars", "matvec") in held
        assert ("repro.serving.session", "dynamic_range_error") in held
        assert ("repro.serving.registry", "dynamic_range_error") in held
        assert ("DriftBlock", "observe_rows") in held
        assert ("OnlinePowerPredictor", "prepare_row") in held

        design = np.arange(12, dtype=np.float64).reshape(6, 2)
        fit = fit_ols(design, design @ np.array([1.0, 2.0]))
        detector = InputDriftDetector(["a", "b"], min_samples=2)
        detector.fit(design)
        with ArraySanitizer() as sanitizer:
            for _, namespace, key, name in bindings:
                armed = namespace[key]
                assert armed is not originals[name], (key, name)
                assert armed.__wrapped__ is originals[name]
            # ``OLSFit.predict`` reaches ``matvec`` through ols's
            # ``from``-import; ``observe`` reaches the method site.
            fit.predict(design)
            detector.observe(np.zeros(2))
        assert sanitizer.ok, sanitizer.violations
        assert sanitizer.functions["matvec"].n_calls == 1
        assert sanitizer.functions["observe"].n_calls == 1
        assert sanitizer.functions["observe_rows"].n_calls == 1
        for _, namespace, key, name in bindings:
            assert namespace[key] is originals[name], (key, name)
        assert kernels.matvec is ols.matvec is mars.matvec
        assert session.dynamic_range_error is registry.dynamic_range_error

    def test_unresolvable_site_raises_with_nothing_armed(self, monkeypatch):
        # The last contract in the table breaks, so a sanitizer that
        # patched while resolving would have armed the others already.
        last = list(ARRAY_CONTRACTS)[-1]
        original = kernels.matvec
        for site in (
            "repro.no_such_module:main_effects",
            "repro.dse.factorial:no_such_function",
            "repro.dse.factorial:NoSuchClass.main_effects",
            "repro.dse.pareto:pareto_frontier",  # another function
        ):
            monkeypatch.setitem(
                ARRAY_CONTRACTS, last, replace(ARRAY_CONTRACTS[last], site=site)
            )
            with pytest.raises(ValueError, match="site"):
                ArraySanitizer().install()
            assert active_array_sanitizer() is None
            assert kernels.matvec is original
            assert ols.matvec is original

    def test_armed_wrapper_preserves_metadata(self):
        original = kernels.matvec
        with ArraySanitizer():
            armed = kernels.matvec
            assert armed is not original
            assert armed.__name__ == "matvec"
            assert armed.__doc__ == original.__doc__
            assert armed.__wrapped__ is original
        assert kernels.matvec is original

    def test_module_imported_while_armed_is_restored(self, monkeypatch):
        late = types.ModuleType("repro.late_import")
        monkeypatch.setitem(sys.modules, "repro.late_import", late)
        original = kernels.matvec
        with ArraySanitizer():
            # What ``from repro.regression.kernels import matvec``
            # binds in a module first imported while armed.
            late.matvec = kernels.matvec
            assert late.matvec is not original
        assert late.matvec is original

    def test_disarmed_calls_pass_through(self):
        matrix = np.arange(6, dtype=np.float64).reshape(2, 3)
        vector = np.ones(3)
        with ArraySanitizer() as sanitizer:
            pass
        result = kernels.matvec(matrix, vector)
        np.testing.assert_array_equal(result, matrix @ vector)
        assert sanitizer.functions == {}


class TestArming:
    def test_install_uninstall_roundtrip(self):
        original = kernels.matvec
        sanitizer = install_array_sanitizer()
        assert active_array_sanitizer() is sanitizer
        assert kernels.matvec is not original
        sanitizer.uninstall()
        assert active_array_sanitizer() is None
        assert kernels.matvec is original

    def test_double_install_raises(self):
        with ArraySanitizer() as first:
            assert active_array_sanitizer() is first
            armed = kernels.matvec
            with pytest.raises(RuntimeError, match="already installed"):
                ArraySanitizer().install()
            assert kernels.matvec is armed
        assert active_array_sanitizer() is None

    def test_install_is_idempotent_per_instance(self):
        original = kernels.matvec
        sanitizer = ArraySanitizer()
        assert sanitizer.install() is sanitizer
        armed = kernels.matvec
        assert sanitizer.install() is sanitizer
        assert kernels.matvec is armed
        sanitizer.uninstall()
        assert kernels.matvec is original


class TestObservation:
    def test_clean_call_records_stats_without_violations(self):
        matrix = np.zeros((4, 3))
        vector = np.zeros(3)
        with ArraySanitizer() as sanitizer:
            kernels.matvec(matrix, vector)
        assert sanitizer.ok
        stats = sanitizer.functions["matvec"]
        assert stats.n_calls == 1
        assert stats.shapes["matrix:(4, 3)"] == 1
        assert stats.shapes["vector:(3,)"] == 1
        assert stats.dtypes["float64"] == 3  # two args + return

    def test_float32_argument_is_a_dtype_violation(self):
        with ArraySanitizer() as sanitizer:
            kernels.matvec(np.zeros((2, 3), dtype=np.float32), np.zeros(3))
        kinds = {v.kind for v in sanitizer.violations}
        assert "dtype" in kinds
        assert not sanitizer.ok

    def test_rank_mismatch_is_a_rank_violation(self):
        with ArraySanitizer() as sanitizer:
            try:
                kernels.matvec(np.zeros(3), np.zeros(3))
            except Exception:
                pass  # observe-only: the kernel itself may object
        assert "rank" in {v.kind for v in sanitizer.violations}

    def test_shared_dim_conflict_is_a_dim_violation(self):
        # matrix binds k=3, vector claims k=5.
        with ArraySanitizer() as sanitizer:
            try:
                kernels.matvec(np.zeros((4, 3)), np.zeros(5))
            except Exception:
                pass
        assert "dim" in {v.kind for v in sanitizer.violations}

    def test_noncontiguous_matrix_is_a_contiguity_violation(self):
        strided = np.zeros((3, 4)).T
        with ArraySanitizer() as sanitizer:
            kernels.matvec(strided, np.zeros(3))
        assert "contiguity" in {v.kind for v in sanitizer.violations}
        assert sanitizer.functions["matvec"].n_noncontiguous_args == 1

    def test_observe_only_results_stay_bit_identical(self):
        matrix = np.arange(12, dtype=np.float64).reshape(4, 3)
        vector = np.linspace(0.0, 1.0, 3)
        bare = kernels.matvec(matrix, vector)
        with ArraySanitizer():
            sanitized = kernels.matvec(matrix, vector)
        assert sanitized.tobytes() == bare.tobytes()

    def test_repeated_identical_violations_deduplicate(self):
        with ArraySanitizer() as sanitizer:
            for _ in range(5):
                kernels.matvec(
                    np.zeros((2, 3), dtype=np.float32), np.zeros(3)
                )
        dtype_violations = [
            v for v in sanitizer.violations if v.kind == "dtype"
        ]
        assert len(dtype_violations) == 1
        # ...but the report still counts every occurrence.
        assert sanitizer.report()["by_kind"]["dtype"] == 5


class TestReport:
    def test_report_is_json_safe_and_complete(self):
        with ArraySanitizer() as sanitizer:
            kernels.matvec(np.zeros((4, 3)), np.zeros(3))
        report = sanitizer.report()
        json.dumps(report)  # must not raise
        assert report["ok"] is True
        assert report["n_violations"] == 0
        assert report["functions"]["matvec"]["calls"] == 1
