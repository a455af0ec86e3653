"""The library runs on its declared dependencies, numpy and scipy.

Every max-flow goes through scipy (``WavefrontSolver``), so loading any
module of the package must leave networkx out of ``sys.modules``.  A
sweep runs without the artifact store, so it must not load ``sqlite3``
or ``repro.store`` either.  The probes run in a fresh interpreter
because the test process may already hold those modules (hypothesis
and pytest plugins are free to load networkx).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import json, pkgutil, sys
import repro, repro.cli
for info in pkgutil.iter_modules(repro.__path__, "repro."):
    __import__(info.name)
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "networkx")))
"""

SWEEP_PROBE = """
import json, sys
from repro.evaluation.harness import run_grid, smoke_grid
run_grid(smoke_grid(), sys.argv[1], log=lambda m: None)
print(json.dumps(sorted(
    m for m in sys.modules
    if m.split(".")[0] in ("sqlite3", "_sqlite3")
    or m == "repro.store" or m.startswith("repro.store.")
)))
"""


def _loaded_by(probe, *args):
    """The JSON list a probe prints last, run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", probe, *args], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_package_imports_without_networkx():
    assert _loaded_by(PROBE) == []


def test_sweep_loads_no_store_modules(tmp_path):
    assert _loaded_by(SWEEP_PROBE, str(tmp_path / "results")) == []
