"""Tests for the command-line interface."""

import argparse
import re

import pytest

import repro.cli
from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_subcommands(self):
        parser = build_parser()
        for cmd in ("table1", "composite", "cg", "gmres", "jacobi",
                    "matmul", "validate", "distsim", "balance", "spill",
                    "sweep", "reproduce", "bench-view", "serve", "cache",
                    "all"):
            args = parser.parse_args([cmd])
            assert args.command == cmd

    def test_docstring_and_help_list_every_subcommand(self):
        """The module docstring's usage block and --help stay in sync with
        the registered subcommands (no stale or missing entries)."""
        parser = build_parser()
        sub = next(
            a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)
        )
        registered = set(sub.choices)
        documented = set(
            re.findall(r"python -m repro\.cli ([\w-]+)", repro.cli.__doc__)
        )
        assert documented == registered
        help_text = parser.format_help()
        for cmd in registered:
            assert cmd in help_text

    def test_argument_parsing(self):
        parser = build_parser()
        args = parser.parse_args(["gmres", "--m", "3", "7", "--n", "50"])
        assert args.m == [3, 7] and args.n == 50
        args = parser.parse_args(["distsim", "--nodes", "2", "--cache", "16"])
        assert args.nodes == 2 and args.cache == 16
        args = parser.parse_args(
            ["spill", "--workload", "star", "--ops", "64", "--backend", "dict"]
        )
        assert args.workload == "star" and args.backend == "dict"


class TestExecution:
    def test_table1_output(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "IBM BG/Q" in out and "Cray XT5" in out
        assert "0.052" in out

    def test_cg_output(self, capsys):
        assert main(["cg", "--n", "100"]) == 0
        out = capsys.readouterr().out
        assert "vertical_intensity" in out
        assert "0.3" in out

    def test_gmres_custom_m(self, capsys):
        assert main(["gmres", "--m", "10", "--n", "100"]) == 0
        out = capsys.readouterr().out
        assert "0.2" in out  # 6/(10+20)

    def test_jacobi_output(self, capsys):
        assert main(["jacobi", "--dimensions", "2", "3"]) == 0
        out = capsys.readouterr().out
        assert "per_op_requirement" in out

    def test_composite_output(self, capsys):
        assert main(["composite", "--sizes", "4"]) == 0
        out = capsys.readouterr().out
        assert "17" in out  # 4N+1 for N=4

    def test_balance_output(self, capsys):
        assert main(["balance"]) == 0
        out = capsys.readouterr().out
        assert "CG" in out and "Jacobi" in out

    def test_distsim_small(self, capsys):
        assert main(["distsim", "--nodes", "2", "--cache", "32",
                     "--side", "8", "--timesteps", "2"]) == 0
        out = capsys.readouterr().out
        assert "measured_vertical_max" in out

    def test_spill_sequential(self, capsys):
        assert main(["spill", "--workload", "star", "--ops", "16"]) == 0
        out = capsys.readouterr().out
        assert "moves         : 800" in out  # 50 moves/op at degree 8

    def test_spill_dict_backend_matches_counts(self, capsys):
        assert main(["spill", "--workload", "star", "--ops", "16",
                     "--backend", "dict"]) == 0
        out = capsys.readouterr().out
        assert "moves         : 800" in out
        assert "backend       : dict" in out

    @pytest.mark.parametrize("removed", [["--workers", "2"],
                                         ["--backend", "kernel"]])
    def test_spill_rejects_removed_options(self, removed, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["spill", "--workload", "star", "--ops", "16", *removed])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_sweep_smoke_resume_and_reproduce(self, tmp_path, capsys):
        """The harness subcommands end to end: sweep a smoke grid,
        resume it (zero cells), reproduce it, derive a bench view."""
        out = tmp_path / "results"
        assert main(["sweep", "--out", str(out), "--grid", "smoke"]) == 0
        assert "executed 4 cell(s), skipped 0" in capsys.readouterr().out
        assert main(
            ["sweep", "--out", str(out), "--grid", "smoke", "--resume"]
        ) == 0
        assert "executed 0 cell(s), skipped 4" in capsys.readouterr().out
        assert main(["reproduce", str(out)]) == 0
        assert "4/4" in capsys.readouterr().out
        view = tmp_path / "view.json"
        assert main(
            ["bench-view", str(out), "--out", str(view)]
        ) == 0
        import json

        results = json.loads(view.read_text())["results"]
        assert any(k.startswith("harness/") for k in results)

    def test_sweep_experiment_filter(self, tmp_path, capsys):
        out = tmp_path / "results"
        assert main(["sweep", "--out", str(out), "--grid", "smoke",
                     "--experiments", "e2"]) == 0
        assert "executed 1 cell(s)" in capsys.readouterr().out
        assert main(["sweep", "--out", str(out), "--grid", "smoke",
                     "--experiments", "nope"]) == 2

    def test_cache_gc_watch_one_pass_evicts_then_exits(self, tmp_path,
                                                       capsys):
        """``cache gc --watch --passes 1`` runs exactly one eviction
        pass (evicting down to the byte budget) and exits instead of
        looping forever."""
        from repro.store.db import ArtifactStore

        db = tmp_path / "store.db"
        with ArtifactStore(db) as store:
            for i in range(4):
                store.put(f"{i:064x}", b"x" * 1000, kind="bound")
        assert main(["cache", "gc", "--db", str(db),
                     "--max-bytes", "1500", "--watch", "--interval",
                     "0.01", "--passes", "1"]) == 0
        out = capsys.readouterr().out
        assert "gc pass 1:" in out
        assert "gc pass 2:" not in out
        with ArtifactStore(db) as store:
            assert store.stats()["payload_bytes"] <= 1500

    def test_cache_gc_watch_multiple_passes(self, tmp_path, capsys):
        from repro.store.db import ArtifactStore

        db = tmp_path / "store.db"
        ArtifactStore(db).close()
        assert main(["cache", "gc", "--db", str(db), "--watch",
                     "--interval", "0.01", "--passes", "3"]) == 0
        out = capsys.readouterr().out
        assert "gc pass 3:" in out and "gc pass 4:" not in out

    def test_fleet_serve_grid_file_help_and_docstring(self):
        """``fleet serve --grid-file`` exists, its help names the sweep
        loader it shares, and the module docstring documents it."""
        parser = build_parser()
        sub = next(
            a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)
        )
        fleet_sub = next(
            a for a in sub.choices["fleet"]._actions
            if isinstance(a, argparse._SubParsersAction)
        )
        serve_help = fleet_sub.choices["serve"].format_help()
        assert "--grid-file" in serve_help
        assert "sweep --grid-file" in serve_help
        assert "fleet serve --root results --grid-file" in repro.cli.__doc__
        args = parser.parse_args(
            ["fleet", "serve", "--grid-file", "g.json", "--seed", "7"]
        )
        assert args.grid_file == "g.json" and args.seed == 7

    def test_resolve_grid_shared_by_sweep_and_fleet_serve(self, tmp_path):
        """The one grid-resolution helper handles named grids, grid
        files (which win), and the neither-given case."""
        import json

        from repro.cli import _resolve_grid

        grid_file = tmp_path / "grid.json"
        grid_file.write_text(json.dumps([
            {"experiment": "e2", "label": "mine", "params": {}},
        ]))
        specs = _resolve_grid(None, str(grid_file), seed=3)
        assert [s.label for s in specs] == ["mine"]
        assert specs[0].seed == 3
        smoke = _resolve_grid("smoke", None, seed=0)
        assert len(smoke) == 4
        assert _resolve_grid("smoke", str(grid_file), seed=0)[0].label \
            == "mine"  # grid-file wins
        assert _resolve_grid(None, None, seed=0) is None

    def test_spill_help_documents_repro_kernel(self):
        """--help for the spill subcommand (and the module docstring)
        document the REPRO_KERNEL execution-tier switch."""
        parser = build_parser()
        sub = next(
            a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)
        )
        spill_help = sub.choices["spill"].format_help()
        assert "REPRO_KERNEL" in spill_help
        assert "{batched,dict}" in spill_help
        assert "REPRO_KERNEL" in repro.cli.__doc__
