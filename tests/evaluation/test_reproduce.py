"""End-to-end tests for ``repro reproduce``.

Runs a tiny E2+E5 grid through the harness, then checks both
directions of the contract: a faithful store regenerates within
tolerance (exit 0), and an injected corruption — one flipped stored
metric, in either ``summary.json`` or ``metrics.jsonl`` — fails with a
nonzero exit that names the corrupted cell.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.evaluation.harness import (
    make_spec,
    reproduce,
    run_grid,
    smoke_grid,
)
from repro.evaluation.manifest import dumps_canonical


def _tiny_grid():
    return [
        make_spec("e2", {"sizes": [4, 8], "s": 64}),
        make_spec("e5", {"dimensions": [2, 3], "n": 50, "timesteps": 50}),
    ]


@pytest.fixture()
def store(tmp_path):
    root = tmp_path / "results"
    result = run_grid(_tiny_grid(), root, log=lambda _: None)
    assert result.executed == ["e2", "e5"]
    return root


class TestReproducePasses:
    def test_faithful_store_reproduces(self, store):
        assert reproduce(store, log=lambda _: None) == []

    def test_cli_exit_zero(self, store, capsys):
        assert main(["reproduce", str(store)]) == 0
        out = capsys.readouterr().out
        assert "[ok]      e2" in out and "[ok]      e5" in out
        assert "2/2" in out

    def test_full_default_cells_reproduce(self, tmp_path):
        """A slightly wider slice: spill cells (incl. the seeded forest
        workload) replay from their manifests too."""
        grid = [
            make_spec("spill", {"workload": "star", "ops": 16}, seed=5,
                      label="star"),
            make_spec(
                "spill",
                {"workload": "forest", "components": 3, "component_size": 8},
                seed=5,
                label="forest",
            ),
        ]
        root = tmp_path / "results"
        run_grid(grid, root, log=lambda _: None)
        assert reproduce(root, log=lambda _: None) == []


class TestReproduceCatchesCorruption:
    def _flip_summary_metric(self, store: Path, label: str) -> str:
        path = store / label / "summary.json"
        summary = json.loads(path.read_text())
        numeric = [
            k for k, m in summary["metrics"].items()
            if m.get("kind") == "numeric"
        ]
        key = numeric[0]
        summary["metrics"][key]["mean"] += 1.0
        path.write_text(dumps_canonical(summary))
        return key

    def test_flipped_summary_metric_fails_naming_the_cell(self, store):
        key = self._flip_summary_metric(store, "e2")
        failures = reproduce(store, log=lambda _: None)
        assert [f.label for f in failures] == ["e2"]
        assert any(f"'{key}'" in p for p in failures[0].problems)

    def test_flipped_summary_metric_nonzero_cli_exit(self, store, capsys):
        self._flip_summary_metric(store, "e5")
        assert main(["reproduce", str(store)]) == 1
        out = capsys.readouterr().out
        assert "reproduce FAILED for cell(s): e5" in out
        assert "[FAIL]    e5" in out
        assert "[ok]      e2" in out

    def test_flipped_metrics_row_fails(self, store):
        path = store / "e2" / "metrics.jsonl"
        lines = path.read_text().splitlines()
        row = json.loads(lines[0])
        row["verified_game_io"] += 1
        lines[0] = dumps_canonical(row, indent=None)
        path.write_text("\n".join(lines) + "\n")
        failures = reproduce(store, log=lambda _: None)
        assert [f.label for f in failures] == ["e2"]
        assert any("verified_game_io" in p for p in failures[0].problems)

    def test_unknown_experiment_in_manifest_fails(self, store):
        path = store / "e2" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["experiment"] = "e99"
        path.write_text(dumps_canonical(manifest))
        failures = reproduce(store, log=lambda _: None)
        assert [f.label for f in failures] == ["e2"]
        assert "unknown experiment" in failures[0].problems[0]

    def test_tampered_manifest_params_fail_the_hash_check(self, store):
        """Editing params without recomputing the hash is detected even
        when the edited config happens to regenerate identical rows."""
        path = store / "e5" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["params"]["n"] = 51
        path.write_text(dumps_canonical(manifest))
        failures = reproduce(store, log=lambda _: None)
        assert [f.label for f in failures] == ["e5"]
        assert any("config_hash" in p for p in failures[0].problems)

    def test_cell_whose_rerun_raises_fails_and_the_rest_are_checked(
        self, tmp_path, capsys
    ):
        """A root swept by an older version can hold spill cells with the
        removed ``backend: "kernel"``: re-running such a cell raises.  It
        is reported by label and every other cell is still checked."""
        root = tmp_path / "results"
        specs = smoke_grid()
        run_grid(specs, root, log=lambda _: None)
        edited = min(s.label for s in specs if s.experiment == "spill")
        path = root / edited / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["params"]["backend"] = "kernel"
        path.write_text(dumps_canonical(manifest))
        assert main(["reproduce", str(root)]) == 1
        out = capsys.readouterr().out
        assert f"reproduce FAILED for cell(s): {edited}" in out
        assert "re-running the cell raised ValueError" in out
        others = [s.label for s in specs if s.label != edited]
        assert max(others) > edited  # a later cell is checked too
        for label in others:
            assert f"[ok]      {label}" in out

    def test_partial_cells_are_reported_not_reproduced(self, store, capsys):
        (store / "e5" / "summary.json").unlink()
        assert reproduce(store, log=print) == []
        assert "[partial] e5" in capsys.readouterr().out

    def test_empty_store_is_a_failure(self, tmp_path):
        failures = reproduce(tmp_path / "nothing", log=lambda _: None)
        assert failures and "no run directories" in failures[0].problems[0]
