"""The library runs on its declared dependency, numpy, and each command
loads only what it computes.

Every max-flow and reachability query runs in ``repro.core.flow``, so
loading any module of the package must leave networkx out of
``sys.modules``, and no runtime path loads scipy: the min-cut cells of
the default grid, every builder's bound, the lines and dominator
queries and the bound server all run with scipy unimportable.  A sweep
runs without the artifact store, so it must not load ``sqlite3`` or
``repro.store`` either, and ``--help`` loads no numpy.  The probes run
in a fresh interpreter because the test process may already hold those
modules (hypothesis and pytest plugins are free to load networkx).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

PACKAGE_PROBE = """
import pkgutil
import repro, repro.cli
for info in pkgutil.iter_modules(repro.__path__, "repro."):
    __import__(info.name)
"""

LIBRARY_PROBE = """
import repro.core, repro.pebbling, repro.pebbling.workloads
"""

SWEEP_PROBE = """
from repro.evaluation.harness import run_grid, smoke_grid
run_grid(smoke_grid(), sys.argv[2], log=lambda m: None)
"""

HELP_PROBE = """
from repro.cli import main
try:
    main(sys.argv[2:])
except SystemExit:
    pass
"""

SERVER_PROBE = """
from repro.service import make_server
server = make_server(sys.argv[2], port=0)
server.server_close()
server.app.close()
"""

#: every min-cut path, with any import of scipy failing
NO_SCIPY_PROBE = """
sys.modules["scipy"] = None
from repro.bounds.lines import find_lines
from repro.core import grid_stencil_cdag, minimal_dominator_size
from repro.evaluation.harness import default_grid, run_grid
from repro.service import make_server
from repro.store.analysis import BUILDERS, fresh_bound

root = sys.argv[2]
cells = [s for s in default_grid() if s.experiment in ("e3", "e7")]
assert len(run_grid(cells, root + "/results", log=lambda m: None).executed) == 2
for builder in BUILDERS:
    fresh_bound(builder, s=4)
cdag = grid_stencil_cdag((4, 4), 2)
assert len(find_lines(cdag)) == 16
assert minimal_dominator_size(cdag, cdag.outputs) == 16
server = make_server(root + "/store.db", port=0)
server.server_close()
server.app.close()
assert sys.modules.pop("scipy") is None
"""

#: appended to every probe: print the loaded modules under the roots
#: given as JSON in argv[1] (a root matches itself and its submodules)
LOADED = """
roots = json.loads(sys.argv[1])
print(json.dumps(sorted(
    m for m in sys.modules
    if any(m == r or m.startswith(r + ".") for r in roots)
)))
"""


def _loaded_by(probe, roots, *args):
    """The modules under ``roots`` that ``probe`` leaves loaded, run in
    a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", "import json, sys\n" + probe + LOADED,
         json.dumps(roots), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_package_imports_without_networkx():
    assert _loaded_by(PACKAGE_PROBE, ["networkx"]) == []


def test_sweep_loads_no_store_modules(tmp_path):
    roots = ["sqlite3", "_sqlite3", "repro.store"]
    assert _loaded_by(SWEEP_PROBE, roots, str(tmp_path / "results")) == []


def test_library_and_pebble_games_load_no_scipy():
    assert _loaded_by(LIBRARY_PROBE, ["scipy"]) == []


@pytest.mark.parametrize(
    "argv", [["--help"], ["cache", "--help"], ["fleet", "status", "--help"]],
    ids=" ".join,
)
def test_help_loads_no_numpy(argv):
    assert _loaded_by(HELP_PROBE, ["numpy"], *argv) == []


def test_sweep_without_min_cut_loads_no_scipy(tmp_path):
    # No smoke cell computes a min-cut or a reachability query.
    assert _loaded_by(SWEEP_PROBE, ["scipy"], str(tmp_path / "results")) == []


def test_bound_server_loads_no_scipy(tmp_path):
    assert _loaded_by(SERVER_PROBE, ["scipy"],
                      str(tmp_path / "store.db")) == []


def test_min_cut_paths_run_without_scipy(tmp_path):
    assert _loaded_by(NO_SCIPY_PROBE, ["scipy"], str(tmp_path)) == []
