"""Crash/resume differential suite for the manifest-driven harness.

The headline invariant: a grid run SIGKILLed at an arbitrary point
(mid-cell or between a cell's rows and its summary commit) and then
resumed with ``--resume`` produces ``summary.json`` and
``metrics.jsonl`` files **byte-identical** to an uninterrupted run of
the same grid.  The kill point is injected deterministically through
the ``REPRO_HARNESS_KILL_AT`` hook (see
:mod:`repro.evaluation.harness`); one of the parametrized points is
drawn from a seeded RNG so the suite keeps sampling the space without
flaking.

Also pinned here: partial directories (no committed ``summary.json``)
are detected and re-run, resume of a complete grid executes zero cells,
and stale-config cells (same label, different manifest hash) are swept
and re-executed.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.evaluation.harness import (
    default_grid,
    make_spec,
    run_grid,
    scan_results_root,
    smoke_grid,
)
from repro.evaluation.manifest import read_manifest, read_summary

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src"

#: files whose bytes must match between interrupted+resumed and
#: uninterrupted runs (manifest/timing carry wall-clock provenance)
COMPARED = ("summary.json", "metrics.jsonl")

# The smoke grid writes 6 metrics rows over 4 cells (2 + 2 + 1 + 1); a
# seeded RNG supplies one extra kill point so the space keeps getting
# sampled deterministically.
_RNG_KILL = f"row:{random.Random(0xC0FFEE).randint(2, 6)}"
KILL_POINTS = ["row:1", "row:4", "summary:1", "summary:3", _RNG_KILL]


def _sweep_env(**extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    ).rstrip(os.pathsep)
    env.update(extra)
    return env


def _sweep_subprocess(out, resume=False, kill_at=None):
    cmd = [
        sys.executable, "-m", "repro.cli",
        "sweep", "--out", str(out), "--grid", "smoke",
    ]
    if resume:
        cmd.append("--resume")
    env = _sweep_env(
        **({"REPRO_HARNESS_KILL_AT": kill_at} if kill_at else {})
    )
    return subprocess.run(
        cmd, env=env, cwd=REPO, capture_output=True, text=True, timeout=120
    )


def _artifact_bytes(root):
    """{relative path: bytes} for every compared artifact under root."""
    root = Path(root)
    return {
        str(p.relative_to(root)): p.read_bytes()
        for name in COMPARED
        for p in sorted(root.glob(f"*/{name}"))
    }


@pytest.fixture(scope="module")
def reference_store(tmp_path_factory):
    """An uninterrupted in-process run of the smoke grid."""
    root = tmp_path_factory.mktemp("reference")
    result = run_grid(smoke_grid(), root, log=lambda _: None)
    assert len(result.executed) == 4
    return root


class TestCrashResumeDifferential:
    @pytest.mark.parametrize("kill_at", KILL_POINTS)
    def test_sigkill_then_resume_matches_uninterrupted(
        self, kill_at, tmp_path, reference_store
    ):
        out = tmp_path / "store"
        killed = _sweep_subprocess(out, kill_at=kill_at)
        # SIGKILL'd, not a clean exit (-9, or 137 through a shell layer)
        assert killed.returncode in (-9, 137), killed.stderr
        # the interrupted store is genuinely incomplete
        states = scan_results_root(out)
        complete = [s for s in states.values() if s.has_summary]
        assert len(complete) < 4

        resumed = _sweep_subprocess(out, resume=True)
        assert resumed.returncode == 0, resumed.stderr
        assert _artifact_bytes(out) == _artifact_bytes(reference_store)

    def test_resume_skips_the_committed_prefix(self, tmp_path):
        out = tmp_path / "store"
        _sweep_subprocess(out, kill_at="summary:3")
        states = scan_results_root(out)
        committed_before = {k for k, s in states.items() if s.has_summary}
        assert len(committed_before) == 2  # cells 1-2 committed, 3 partial

        resumed = _sweep_subprocess(out, resume=True)
        assert resumed.returncode == 0
        for label in committed_before:
            assert f"[skip]    {label}" in resumed.stdout
        assert "[partial]" in resumed.stdout

    def test_resume_of_complete_grid_executes_zero_cells(
        self, tmp_path, reference_store
    ):
        out = tmp_path / "store"
        run_grid(smoke_grid(), out, log=lambda _: None)
        again = run_grid(smoke_grid(), out, resume=True, log=lambda _: None)
        assert again.executed == []
        assert len(again.skipped) == 4
        assert _artifact_bytes(out) == _artifact_bytes(reference_store)

    def test_partial_directory_is_detected_and_rerun(
        self, tmp_path, reference_store
    ):
        out = tmp_path / "store"
        run_grid(smoke_grid(), out, resume=False, log=lambda _: None)
        # Demote one cell to partial: drop its commit marker and corrupt
        # its metrics, as a mid-cell crash would.
        victim = out / "e5"
        (victim / "summary.json").unlink()
        with open(victim / "metrics.jsonl", "a") as fh:
            fh.write('{"torn":')  # torn last line
        result = run_grid(smoke_grid(), out, resume=True, log=lambda _: None)
        assert result.executed == ["e5"]
        assert read_summary(victim) is not None
        assert _artifact_bytes(out) == _artifact_bytes(reference_store)

    def test_unparseable_summary_counts_as_partial(self, tmp_path):
        out = tmp_path / "store"
        run_grid(smoke_grid(), out, log=lambda _: None)
        (out / "e2" / "summary.json").write_text("{not json")
        result = run_grid(smoke_grid(), out, resume=True, log=lambda _: None)
        assert result.executed == ["e2"]


class TestStaleConfig:
    def test_stale_config_cell_is_swept_and_rerun(self, tmp_path):
        out = tmp_path / "store"
        run_grid(smoke_grid(), out, log=lambda _: None)
        # Same labels, but e2 now asks for a different size list: its
        # manifest hash no longer matches the committed summary.
        grid = smoke_grid()
        changed = make_spec("e2", {"sizes": [4, 8, 16], "s": 64})
        grid[0] = changed
        result = run_grid(grid, out, resume=True, log=lambda _: None)
        assert result.executed == ["e2"]
        assert result.plan.stale == ("e2",)
        assert len(result.skipped) == 3
        # the re-run committed the new config
        assert read_summary(out / "e2")["config_hash"] == changed.hash()
        assert read_manifest(out / "e2")["config_hash"] == changed.hash()
        rows = (out / "e2" / "metrics.jsonl").read_text().splitlines()
        assert len(rows) == 3  # one per size

    def test_without_resume_everything_reruns(self, tmp_path):
        out = tmp_path / "store"
        first = run_grid(smoke_grid(), out, log=lambda _: None)
        second = run_grid(smoke_grid(), out, resume=False, log=lambda _: None)
        assert second.executed == first.executed
        assert second.skipped == []


class TestGridValidation:
    def test_duplicate_labels_rejected(self, tmp_path):
        grid = [make_spec("e2"), make_spec("e2")]
        with pytest.raises(ValueError, match="duplicate"):
            run_grid(grid, tmp_path / "store", log=lambda _: None)

    def test_manifest_records_identity_and_provenance(self, tmp_path):
        out = tmp_path / "store"
        run_grid(smoke_grid(seed=3), out, log=lambda _: None)
        manifest = read_manifest(out / "e2")
        assert manifest["seed"] == 3
        assert manifest["experiment"] == "e2"
        assert {"git_sha", "python", "numpy", "created_utc"} <= set(
            manifest["provenance"]
        )
        summary = read_summary(out / "e2")
        assert summary["config_hash"] == manifest["config_hash"]
        assert summary["num_rows"] == len(
            (out / "e2" / "metrics.jsonl").read_text().splitlines()
        )

    def test_git_sha_is_asked_of_git_once_per_process(self, monkeypatch):
        """Every manifest records the checkout's commit, but ``git
        rev-parse HEAD`` runs once per process (the fork point of cell
        processes runs it, so no cell does); ``REPRO_GIT_SHA`` is read
        on every call."""
        from repro.evaluation import manifest

        spawned = []
        real_run = subprocess.run

        def counting_run(*args, **kwargs):
            spawned.append(args[0])
            return real_run(*args, **kwargs)

        monkeypatch.delenv("REPRO_GIT_SHA", raising=False)
        manifest._git_head.cache_clear()
        monkeypatch.setattr(subprocess, "run", counting_run)
        sha = manifest._git_sha()
        assert manifest._git_sha() == sha
        monkeypatch.setenv("REPRO_GIT_SHA", "pinned")
        assert manifest._git_sha() == "pinned"
        monkeypatch.delenv("REPRO_GIT_SHA")
        assert manifest._git_sha() == sha
        assert spawned == [["git", "rev-parse", "HEAD"]]

    def test_default_grid_cells(self):
        """Nine paper experiments plus four spill cells (star under lru,
        whose P-RBW strategy always evicts LRU; chains under lru and
        belady; the seeded forest), all on the default backend."""
        grid = default_grid(seed=2)
        assert len(grid) == 13
        assert [c.label for c in grid[:9]] == [f"e{k}" for k in range(1, 10)]
        assert [c.label for c in grid[9:]] == [
            "spill_star_lru_batched_s2",
            "spill_chains_lru_batched_s2",
            "spill_chains_belady_batched_s2",
            "spill_forest_lru_batched_s2",
        ]
        assert len({c.label for c in grid}) == len(grid)
        assert all(c.seed == 2 for c in grid)

    def test_spill_cells_have_no_workers_axis(self):
        assert "workers" not in make_spec("spill").params
        with pytest.raises(ValueError, match="unknown param 'workers'"):
            make_spec("spill", {"workers": 2})

    def test_kill_env_validation(self):
        from repro.evaluation.harness import _KillHook

        with pytest.raises(ValueError):
            _KillHook("rows:3")
        with pytest.raises(ValueError):
            _KillHook("row:0")
        hook = _KillHook(None)
        hook.after_row()  # inert without the env var
        hook.before_summary()

    def test_summary_is_committed_atomically(self, tmp_path):
        """No summary.json.tmp survives a completed run (the temp file
        is renamed over the real name)."""
        out = tmp_path / "store"
        run_grid(smoke_grid(), out, log=lambda _: None)
        assert not list(out.glob("*/summary.json.tmp"))
        assert json.loads((out / "e2" / "summary.json").read_text())
