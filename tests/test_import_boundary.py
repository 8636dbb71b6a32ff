"""Import boundaries, each checked in a fresh interpreter.

The analysis package is opt-in tooling: importing any production module
loads none of it.  Array contracts are declared once, in
``repro.analysis.signatures``, and the runtime sanitizer wraps their
sites only when armed, so no module outside ``repro/analysis/`` needs
it at load time.  ``repro lint`` and ``--sanitize`` import it inside
the functions that use it.

The serving path loads no scipy: ``fit_ols`` imports ``scipy.stats``
for its p-values when it is first called, and serving only scores
fitted models, so ``repro serve``, ``repro replay`` and every shard
worker start without it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC_ROOT = Path(repro.__file__).resolve().parents[1]

_PROBE = """
import importlib
import sys

for name in sys.argv[1:]:
    importlib.import_module(name)
print("\\n".join(sorted(
    name for name in sys.modules
    if name == "repro.analysis" or name.startswith("repro.analysis.")
)))
"""


def _production_modules():
    names = []
    for path in sorted((SRC_ROOT / "repro").rglob("*.py")):
        parts = path.relative_to(SRC_ROOT).with_suffix("").parts
        if parts[1:2] == ("analysis",) or parts[-1] == "__main__":
            continue
        if parts[-1] == "__init__":
            parts = parts[:-1]
        names.append(".".join(parts))
    return names


def test_production_modules_do_not_load_the_analysis_package():
    names = _production_modules()
    assert len(names) > 100
    assert "repro.cli" in names and "repro.serving.replay" in names
    env = dict(os.environ, PYTHONPATH=str(SRC_ROOT))
    probe = subprocess.run(
        [sys.executable, "-c", _PROBE, *names],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert probe.stdout.split() == [], probe.stdout


SERVING_MODULES = (
    "repro.cli",
    "repro.serving",
    "repro.serving.shard",
    "repro.serving.replay",
)

_SCIPY_PROBE = """
import importlib
import json
import sys


def scipy_modules():
    return sorted(
        name for name in sys.modules
        if name == "scipy" or name.startswith("scipy.")
    )


for name in sys.argv[1:]:
    importlib.import_module(name)
imported = scipy_modules()

import numpy as np

from repro.regression.ols import fit_ols

rng = np.random.default_rng(5)
design = rng.normal(size=(40, 3))
response = design @ np.array([1.0, -0.3, 0.0]) + rng.normal(size=40)
fit = fit_ols(design, response)
fitted = scipy_modules()

from scipy import stats

t_statistics = fit.coefficients / fit.standard_errors
expected = 2.0 * stats.t.sf(
    np.abs(t_statistics), df=fit.n_samples - fit.rank
)
print(json.dumps({
    "imported": imported,
    "fitted": fitted,
    "p_values": fit.p_values.tolist(),
    "identical": bool(np.array_equal(fit.p_values, expected)),
}))
"""


def test_the_serving_path_loads_no_scipy_until_fit_ols_runs():
    env = dict(os.environ, PYTHONPATH=str(SRC_ROOT))
    probe = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, *SERVING_MODULES],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    report = json.loads(probe.stdout)
    assert report["imported"] == []
    assert "scipy.stats" in report["fitted"]
    assert all(0.0 < p < 1.0 for p in report["p_values"])
    assert report["identical"], report["p_values"]
