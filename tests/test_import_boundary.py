"""The analysis package is opt-in tooling: importing any production
module loads none of it.

Array contracts are declared once, in ``repro.analysis.signatures``,
and the runtime sanitizer wraps their sites only when armed, so no
module outside ``repro/analysis/`` needs it at load time.  ``repro
lint`` and ``--sanitize`` import it inside the functions that use it.
"""

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
