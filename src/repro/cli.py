"""Command-line interface: regenerate the paper's tables from a shell.

Usage::

    python -m repro.cli table1
    python -m repro.cli composite --param sizes=[4,8,16]
    python -m repro.cli cg --param n=1000
    python -m repro.cli gmres --param krylov_dimensions=[5,10,50]
    python -m repro.cli jacobi --param dimensions=[1,2,3,5]
    python -m repro.cli matmul --param sizes=[4,6] --param cache_sizes=[8,16]
    python -m repro.cli validate
    python -m repro.cli distsim --param num_nodes=4 --param cache_words=64
    python -m repro.cli balance
    python -m repro.cli spill --param ops=2000 --param backend='"dict"'
    python -m repro.cli sweep --out results --grid smoke --resume
    python -m repro.cli sweep --out results --jobs 4 --cell-timeout 600
    python -m repro.cli sweep --grid smoke --fleet http://127.0.0.1:8199
    python -m repro.cli fleet serve --root results --port 8199
    python -m repro.cli fleet serve --root results --grid-file grid.json
    python -m repro.cli fleet worker http://127.0.0.1:8199 --root results
    python -m repro.cli fleet status http://127.0.0.1:8199
    python -m repro.cli fleet status http://127.0.0.1:8199 --failures
    python -m repro.cli reproduce results
    python -m repro.cli bench-view results --out BENCH_core.json
    python -m repro.cli serve --db repro-store.db --port 8177
    python -m repro.cli cache stats --db repro-store.db
    python -m repro.cli cache gc --db repro-store.db --max-bytes 100000000
    python -m repro.cli cache gc --db repro-store.db --watch --interval 60
    python -m repro.cli all

Each table subcommand (``table1`` ... ``balance``, listed in
:data:`TABLES`) runs one experiment's cell from the harness registry
(:data:`repro.evaluation.harness.REGISTRY`, which holds every param and
its default) and prints the reproduced table.  ``--param KEY=JSON``
(repeatable) overrides one registry param, exactly as a grid file's
cell would, and goes through the same check.  ``all`` prints the
default grid's E1-E9 cells.  ``spill`` takes ``--param`` over the
spill entry's params too and times that cell's game; its ``backend``
param, ``batched`` or ``dict``, selects the strategy loop (both play
the identical game).  For sequential games the ``REPRO_KERNEL``
environment variable picks the batched planner's tier: ``numpy``
(default) or ``numba`` (jitted planner where numba is installed;
degrades to numpy otherwise).

``sweep`` executes a declarative experiment grid through the
manifest-driven harness (:mod:`repro.evaluation.harness`): one result
directory per cell with ``manifest.json`` / ``metrics.jsonl`` /
``summary.json``, where ``--resume`` skips committed cells whose config
hash matches and sweeps + re-runs stale or partial ones; ``--jobs N``
runs cells in separate worker processes, which buys crash isolation and
a per-cell timeout (``--cell-timeout``; failures leave resumable
partials), not speed.  ``reproduce`` replays every manifest in a
results store and verifies the regenerated rows against the stored
artifacts within per-metric tolerances (nonzero exit naming each failing
cell).  ``bench-view`` derives a ``BENCH_core.json``-style view over a
results store.

``fleet`` runs distributed sweeps (:mod:`repro.fleet`): ``fleet
serve`` starts the controller that owns the cell queue over a shared
results root (``--grid`` submits a named grid at startup;
``--grid-file`` submits a JSON grid file through the same loader
``sweep --grid-file`` uses), ``fleet worker`` attaches a polling worker
(``--slots N`` caps its local cell processes), and ``fleet status``
prints the controller's full queue/lease/worker state as JSON —
``--failures`` instead renders the per-cell failure dashboard
(attempts, last signal, backoff) from the controller's ``GET
/metrics`` event data.  ``sweep --fleet URL`` submits the grid to a
running controller instead of executing locally and polls until the
fleet finishes — always with resume semantics, writing into the
*controller's* results root, byte-identical to a local ``sweep --jobs
1``.  See ``docs/fleet.md`` and ``docs/observability.md``.

``serve`` starts the long-running memoized bound server
(:mod:`repro.service`) over a content-addressed artifact store
(:mod:`repro.store`), and ``cache`` inspects or maintains such a store
(``stats`` / ``gc`` / ``clear``) — see ``docs/service.md`` for the
service contract, cache-key discipline, and operational notes.  ``cache
gc --watch`` turns the one-shot collector into an interval-driven
eviction daemon (``--interval`` seconds between passes, ``--passes N``
to stop after N — handy for tests and cron-like supervision); every
pass reports through the store's gc counters like any other.  Both
HTTP servers expose ``GET /metrics`` (:mod:`repro.obs`) — see
``docs/observability.md``.  The usage block above lists every
registered subcommand — ``tests/evaluation/test_cli.py`` pins it
against the parser.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

__all__ = ["build_parser", "main"]

#: table subcommand -> (experiment key in the harness registry, report
#: title); the params and their defaults live in the registry
TABLES = {
    "table1": ("e1", "Table 1 — machine specifications"),
    "composite": ("e2", "Section 3 — composite example"),
    "cg": ("e3", "Section 5.2.3 — CG analysis"),
    "gmres": ("e4", "Section 5.3.3 — GMRES analysis"),
    "jacobi": ("e5", "Section 5.4.3 — Jacobi analysis"),
    "matmul": ("e6", "Matmul bound sandwich"),
    "validate": ("e7", "Bound-machinery validation"),
    "distsim": ("e8", "Simulated cluster vs parallel bounds"),
    "balance": ("e9", "Balance-condition summary"),
}


def _cell_command(sub, name: str, key: str, **kwargs):
    """A subcommand that runs registry entry ``key``'s cell, its params
    set by repeated ``--param KEY=JSON``."""
    p = sub.add_parser(name, **kwargs)
    p.add_argument(
        "--param", action="append", default=[], metavar="KEY=JSON",
        help=f"set one of {key}'s registry params to a JSON value, as a "
        "grid file's cell would (repeatable)",
    )
    return p


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed separately for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the evaluation of Elango et al., SPAA 2014 "
        "(data movement complexity of CDAGs).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (key, title) in TABLES.items():
        _cell_command(sub, name, key, help=f"{key.upper()}: {title}")
    p = _cell_command(
        sub, "spill", "spill",
        help="spill-strategy pebble game on a synthetic workload",
        description="Play the spill registry cell's game and time it.  "
        "Its workload is star, chains or forest; its backend "
        "{batched,dict} picks the strategy loop (same game either way), "
        "and for sequential games 'batched' honors the REPRO_KERNEL env "
        "var: numpy (default) or numba (jitted planner, falls back to "
        "numpy when numba is absent).",
    )
    p.add_argument("--spill-log", action="store_true",
                   help="record into a disk-spilled move log")

    p = sub.add_parser(
        "sweep",
        help="run a declarative experiment grid into a results store "
        "(manifest.json + metrics.jsonl + summary.json per cell)",
    )
    p.add_argument("--out", default="results",
                   help="results root directory (default: results)")
    p.add_argument("--grid", choices=["default", "smoke"], default="default",
                   help="named grid: 'default' = all nine experiments plus "
                   "the spill axes, 'smoke' = the tiny 4-cell CI grid")
    p.add_argument("--grid-file", default=None,
                   help="JSON grid file (list of cell objects); overrides "
                   "--grid")
    p.add_argument("--experiments", nargs="+", default=None,
                   help="keep only cells of these experiment keys "
                   "(e1..e9, spill)")
    p.add_argument("--seed", type=int, default=0,
                   help="grid seed, recorded in every manifest")
    p.add_argument("--resume", action="store_true",
                   help="skip committed cells whose config hash matches; "
                   "sweep and re-run stale or partial cells")
    p.add_argument("--jobs", type=int, default=1,
                   help="run up to N cells in parallel worker processes "
                   "(1 = sequential, in grid order)")
    p.add_argument("--cell-timeout", type=float, default=None,
                   help="wall-clock limit per cell in seconds (jobs > 1); "
                   "a timed-out cell is terminated, leaving a resumable "
                   "partial directory")
    p.add_argument("--fleet", default=None, metavar="URL",
                   help="submit the grid to a running fleet controller "
                   "instead of executing locally, and poll until done "
                   "(always resume semantics; cells land in the "
                   "controller's results root, so --out/--jobs are "
                   "ignored)")

    p = sub.add_parser(
        "fleet",
        help="distributed sweeps: controller + polling workers over a "
        "shared results root (serve | worker | status)",
    )
    fleet_sub = p.add_subparsers(dest="fleet_command", required=True)
    fp = fleet_sub.add_parser(
        "serve",
        help="run the fleet controller (cell queue, leases, retries)",
    )
    fp.add_argument("--root", default="results",
                    help="shared results root the fleet writes into")
    fp.add_argument("--host", default="127.0.0.1")
    fp.add_argument("--port", type=int, default=8199,
                    help="listen port (0 picks a free one)")
    fp.add_argument("--grid", choices=["default", "smoke"], default=None,
                    help="submit this named grid at startup (resume "
                    "semantics); omit to wait for 'sweep --fleet'")
    fp.add_argument("--grid-file", default=None,
                    help="submit this JSON grid file (list of cell "
                    "objects, same format as 'sweep --grid-file') at "
                    "startup; overrides --grid")
    fp.add_argument("--seed", type=int, default=0,
                    help="grid seed for --grid / --grid-file")
    fp.add_argument("--lease-ttl", type=float, default=30.0,
                    help="lease validity window in seconds; a worker "
                    "that stops heartbeating loses its cells after this")
    fp.add_argument("--max-retries", type=int, default=3,
                    help="re-queues per cell (failure or lease expiry) "
                    "before it is marked permanently failed")
    fp.add_argument("--backoff", type=float, default=1.0,
                    help="base re-queue backoff in seconds (doubles per "
                    "attempt, capped at 60s)")
    fp = fleet_sub.add_parser(
        "worker",
        help="attach a polling worker to a running controller",
    )
    fp.add_argument("url", help="controller base URL")
    fp.add_argument("--root", default="results",
                    help="shared results root (same tree as the "
                    "controller's)")
    fp.add_argument("--name", default=None,
                    help="worker identity (default: <hostname>-<pid>)")
    fp.add_argument("--slots", type=int, default=1,
                    help="local concurrency cap: at most N cell "
                    "processes at once")
    fp.add_argument("--cell-timeout", type=float, default=None,
                    help="wall-clock limit per cell in seconds")
    fp.add_argument("--keep-alive", action="store_true",
                    help="idle and wait for the next grid instead of "
                    "exiting when the current one completes")
    fp = fleet_sub.add_parser(
        "status", help="print a controller's full state as JSON"
    )
    fp.add_argument("url", help="controller base URL")
    fp.add_argument("--failures", action="store_true",
                    help="render the per-cell failure dashboard "
                    "(attempts, last signal, backoff) instead of the "
                    "raw status JSON")

    p = sub.add_parser(
        "reproduce",
        help="replay every manifest in a results store and verify the "
        "regenerated rows within per-metric tolerances",
    )
    p.add_argument("results_dir", nargs="?", default="results",
                   help="results root written by 'sweep'")

    p = sub.add_parser(
        "bench-view",
        help="derive a BENCH_core.json-style view over a results store",
    )
    p.add_argument("results_dir", nargs="?", default="results")
    p.add_argument("--out", default=None,
                   help="merge the derived harness/* entries into this "
                   "JSON file (default: print to stdout)")

    p = sub.add_parser(
        "serve",
        help="run the memoized bound server over an artifact store "
        "(GET /health /stats /metrics; "
        "POST /v1/{compiled,schedule,bound,pebble})",
    )
    p.add_argument("--db", default="repro-store.db",
                   help="artifact-store SQLite path (created if absent)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8177,
                   help="listen port (0 picks a free one)")

    p = sub.add_parser(
        "cache",
        help="inspect or maintain an artifact store "
        "(stats | gc | clear)",
    )
    p.add_argument("action", nargs="?", default="stats",
                   choices=["stats", "gc", "clear"],
                   help="stats: entry counts / hit rates / sizes; "
                   "gc: evict stale + LRU entries; clear: drop everything")
    p.add_argument("--db", default="repro-store.db",
                   help="artifact-store SQLite path")
    p.add_argument("--max-bytes", type=int, default=None,
                   help="gc: evict least-recently-used entries until the "
                   "payload total fits")
    p.add_argument("--max-age-s", type=float, default=None,
                   help="gc: evict entries unused for this many seconds")
    p.add_argument("--keep-stale-code", action="store_true",
                   help="gc: keep entries stamped with old code versions "
                   "(dropped by default)")
    p.add_argument("--vacuum", action="store_true",
                   help="gc: VACUUM the database file afterwards")
    p.add_argument("--watch", action="store_true",
                   help="gc: keep running, one eviction pass per "
                   "--interval (an eviction daemon)")
    p.add_argument("--interval", type=float, default=60.0,
                   help="gc --watch: seconds between passes "
                   "(default: 60)")
    p.add_argument("--passes", type=int, default=None,
                   help="gc --watch: stop after N passes "
                   "(default: run until interrupted)")

    sub.add_parser("all", help="print the default grid's E1-E9 tables")
    return parser


def _run_spill(args: argparse.Namespace) -> str:
    """The ``spill`` subcommand: play the spill cell's game, timed, and
    report its record."""
    from time import perf_counter

    from .evaluation.harness import make_spec
    from .pebbling import run_spill_game
    from .pebbling.workloads import spill_workload

    spec = make_spec("spill", _param_overrides(args.param))
    params = dict(spec.params)
    policy, backend = params.pop("policy"), params.pop("backend")
    cdag, memory, schedule = spill_workload(seed=spec.seed, **params)
    start = perf_counter()
    record = run_spill_game(
        cdag,
        memory,
        schedule=schedule,
        policy=policy,
        backend=backend,
        spill=args.spill_log,
    )
    elapsed = perf_counter() - start
    summary = record.summary()
    lines = [
        f"workload      : {params['workload']} "
        f"({cdag.num_vertices()} vertices, {cdag.num_edges()} edges)",
        f"backend       : {backend}",
        f"moves         : {summary['moves']}",
        f"io (R1+R2)    : {summary['io']}",
        f"vertical_io   : {summary['vertical_io']}",
        f"horizontal_io : {summary['horizontal_io']}",
        f"elapsed       : {elapsed:.2f} s "
        f"({summary['moves'] / max(elapsed, 1e-9) / 1e6:.2f} Mmoves/s)",
    ]
    if record.log.is_spilled:
        lines.append(f"spilled_bytes : {record.log.spilled_bytes}")
        record.log.close()
    return "Spill-strategy game\n" + "\n".join(
        "  " + line for line in lines
    )


def _resolve_grid(grid: Optional[str], grid_file: Optional[str], seed: int):
    """Resolve a ``--grid`` / ``--grid-file`` pair into a list of
    :class:`RunSpec` (``--grid-file`` wins; ``None`` when neither was
    given).  Shared by ``sweep`` and ``fleet serve`` so both accept the
    identical grid vocabulary."""
    from .evaluation.harness import GRIDS, load_grid_file

    if grid_file:
        return load_grid_file(grid_file, seed=seed)
    if grid:
        return GRIDS[grid](seed)
    return None


def _run_sweep(args: argparse.Namespace) -> int:
    """The ``sweep`` subcommand: execute a grid through the harness."""
    from .evaluation.harness import run_grid

    specs = _resolve_grid(args.grid, args.grid_file, args.seed)
    if args.experiments:
        keep = set(args.experiments)
        specs = [s for s in specs if s.experiment in keep]
        if not specs:
            print(f"no grid cells match experiments {sorted(keep)}")
            return 2
    if args.fleet:
        from .fleet import fleet_sweep

        status = fleet_sweep(args.fleet, specs)
        if status["failed"]:
            names = ", ".join(
                f"{label} ({reason})"
                for label, reason in sorted(status["failed"].items())
            )
            print(f"fleet sweep FAILED for cell(s): {names}")
            return 1
        return 0
    result = run_grid(
        specs,
        args.out,
        resume=args.resume,
        jobs=args.jobs,
        cell_timeout=args.cell_timeout,
    )
    if result.failed:
        names = ", ".join(f"{label} ({reason})"
                          for label, reason in result.failed)
        print(f"sweep FAILED for cell(s): {names}")
        return 1
    return 0


def _run_reproduce(args: argparse.Namespace) -> int:
    """The ``reproduce`` subcommand: nonzero exit names failing cells."""
    from .evaluation.harness import reproduce

    failures = reproduce(args.results_dir)
    if failures:
        names = ", ".join(f.label for f in failures)
        print(f"reproduce FAILED for cell(s): {names}")
        return 1
    return 0


def _run_bench_view(args: argparse.Namespace) -> int:
    """The ``bench-view`` subcommand: derived BENCH-style view."""
    from .evaluation.manifest import dumps_canonical
    from .evaluation.harness import bench_view, write_bench_view

    if args.out:
        payload = write_bench_view(args.results_dir, args.out)
        print(
            f"merged {len(payload['results'])} entries into {args.out} "
            f"(derived from {args.results_dir})"
        )
    else:
        print(dumps_canonical(bench_view(args.results_dir)), end="")
    return 0


def _run_fleet(args: argparse.Namespace) -> int:
    """The ``fleet`` subcommand family: serve | worker | status."""
    from .fleet import FleetClient, FleetWorker, serve_fleet

    if args.fleet_command == "serve":
        grid = _resolve_grid(args.grid, args.grid_file, args.seed)
        serve_fleet(
            args.root,
            host=args.host,
            port=args.port,
            grid=grid,
            lease_ttl_s=args.lease_ttl,
            max_retries=args.max_retries,
            backoff_s=args.backoff,
        )
        return 0
    if args.fleet_command == "worker":
        FleetWorker(
            args.url,
            args.root,
            name=args.name,
            slots=args.slots,
            cell_timeout=args.cell_timeout,
            exit_when_done=not args.keep_alive,
        ).run()
        return 0
    client = FleetClient(args.url, retries=1)
    if args.failures:
        from .obs import render_failure_table

        print(render_failure_table(client.metrics().get("failures", [])))
        return 0
    from .evaluation.manifest import dumps_canonical

    print(dumps_canonical(client.status()))
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    """The ``serve`` subcommand: blocking memoized bound server."""
    from .service.server import serve

    serve(args.db, host=args.host, port=args.port)
    return 0


def _run_cache(args: argparse.Namespace) -> int:
    """The ``cache`` subcommand: stats / gc / clear on a store file."""
    from .evaluation.manifest import dumps_canonical
    from .store.db import ArtifactStore

    if args.action != "stats" and not os.path.exists(args.db):
        print(f"no artifact store at {args.db}")
        return 2
    with ArtifactStore(args.db) as store:
        if args.action == "stats":
            print(dumps_canonical(store.stats()), end="")
        elif args.action == "gc":
            import time as _time

            done_passes = 0
            while True:
                report = store.gc(
                    max_bytes=args.max_bytes,
                    max_age_s=args.max_age_s,
                    drop_stale_code=not args.keep_stale_code,
                    vacuum=args.vacuum,
                )
                done_passes += 1
                prefix = (
                    f"gc pass {done_passes}" if args.watch else "gc"
                )
                print(
                    f"{prefix}: removed {report['removed']} entrie(s), "
                    f"{report['removed_bytes']} payload byte(s)"
                )
                if not args.watch:
                    break
                if args.passes is not None and done_passes >= args.passes:
                    break
                try:
                    _time.sleep(args.interval)
                except KeyboardInterrupt:  # pragma: no cover - manual stop
                    break
        else:  # clear
            removed = store.clear()
            print(f"clear: removed {removed} entrie(s)")
    return 0


def _param_overrides(pairs: Sequence[str]) -> dict:
    """The ``--param KEY=JSON`` pairs of a table subcommand as params."""
    import json

    overrides = {}
    for pair in pairs:
        key, sep, text = pair.partition("=")
        if not sep or not key:
            raise ValueError(f"--param must be KEY=JSON, got {pair!r}")
        try:
            overrides[key] = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"--param {key}: {text!r} is not JSON ({exc})"
                             ) from None
    return overrides


def _report(spec, title: str) -> str:
    """One checked cell, run through the registry, as its report."""
    from .evaluation.harness import REGISTRY
    from .evaluation.report import render_report

    rows = REGISTRY[spec.experiment].run(spec.params, spec.seed)
    return render_report(title, rows)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code.

    A ``ValueError`` or ``OSError`` raised by a command is bad input (a
    malformed grid file, an out-of-range argument, a missing path): it
    prints as one ``repro: error: ...`` line on stderr and exits 2, like
    an argparse usage error.  Any other exception is a bug and keeps its
    traceback.
    """
    args = build_parser().parse_args(argv)
    try:
        return _run_command(args)
    except (ValueError, OSError) as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2


def _run_command(args: argparse.Namespace) -> int:
    """Dispatch one parsed command line."""
    if args.command == "sweep":
        return _run_sweep(args)
    if args.command == "reproduce":
        return _run_reproduce(args)
    if args.command == "bench-view":
        return _run_bench_view(args)
    if args.command == "fleet":
        return _run_fleet(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "cache":
        return _run_cache(args)
    if args.command == "spill":
        print(_run_spill(args))
    elif args.command == "all":
        from .evaluation.harness import default_grid

        titles = dict(TABLES.values())
        for spec in default_grid():
            if spec.experiment in titles:
                print(_report(spec, titles[spec.experiment]))
                print()
    else:
        from .evaluation.harness import make_spec

        key, title = TABLES[args.command]
        print(_report(make_spec(key, _param_overrides(args.param)), title))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
