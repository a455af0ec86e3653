"""The library runs on its declared dependencies, numpy and scipy.

Every max-flow goes through scipy (``WavefrontSolver``), so loading any
module of the package must leave networkx out of ``sys.modules``.  The
probe runs in a fresh interpreter because the test process may already
hold networkx (hypothesis and pytest plugins are free to load it).
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


def test_package_imports_without_networkx():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []
