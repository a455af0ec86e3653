"""Core-hot-path benchmarks for the compiled integer-indexed CDAG backend.

Measures, at three sizes each, the ns/op of the operations that dominate
every analysis pipeline in the repo — CDAG construction, topological
ordering, pebble-game replay, the automated wavefront (Lemma 2) bound,
the columnar move log (ns/move through the full rule-checking engines),
and the id-space schedulers (ns/scheduled-vertex) —
and records everything into ``BENCH_core.json`` via the shared conftest
helper.

The whole-pipeline test times ``CDAG.from_edge_list`` construction plus
the automated wavefront bound on the shared
:class:`~repro.core.properties.WavefrontSolver` network, on 1D Jacobi at
n=64.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_compiled_core.py -q

Deselect the heavy whole-pipeline comparison with ``-m "not bench"``, or
set ``BENCH_SMOKE=1`` for the smallest-size smoke run (which still plays
the 10^6-move P-RBW move-log game).
"""

import time as _time
import tracemalloc

import pytest

from repro.bounds.mincut import automated_wavefront_bound
from repro.core import CDAG, grid_stencil_cdag
from repro.core.ordering import dfs_schedule, min_liveset_schedule
import repro.pebbling.redblue as redblue_mod
from repro.pebbling import (
    RedBluePebbleGame,
    parallel_spill_game,
    spill_game_redblue,
)
from repro.pebbling.workloads import (
    chains_spill_setup,
    prbw_pump_game,
    redblue_pump_game,
    star_spill_setup,
    synthesize_redblue_pump_log,
)

from conftest import emit, record_bench, smoke_mode, time_ns_per_op

SMOKE = smoke_mode()

#: grid extents for the 2D construction/topo benches
GRID_SIZES = (16,) if SMOKE else (16, 32, 64)
#: 1D Jacobi widths for the pebble/wavefront benches
JACOBI_SIZES = (16,) if SMOKE else (16, 32, 64)
JACOBI_TIMESTEPS = 16
S_RED = 8
MAX_CANDIDATES = 8
#: move counts for the columnar-log pump benches (the 10^6-move P-RBW
#: game is the acceptance bar and runs in smoke mode too)
MOVELOG_SIZES = (1_000_000,) if SMOKE else (100_000, 1_000_000)
#: grid extents for the scheduler benches
SCHED_SIZES = (16,) if SMOKE else (16, 32, 64)
#: operation counts for the P-RBW star strategy bench (50 moves/op at
#: degree 8 — the largest full-mode size is the 10^7-move game; the
#: smoke size is also measured in full mode so the committed numbers
#: overlap what the CI bench guard re-measures)
STRATEGY_PRBW_OPS = (2_000,) if SMOKE else (2_000, 20_000, 200_000)
#: (chains, length) grids for the sequential strategy bench (~5 moves
#: and ~2 I/Os per op — the largest full-mode size is 10^7 moves)
STRATEGY_SEQ_GRIDS = (
    ((200, 100),)
    if SMOKE
    else ((200, 100), (200, 500), (2_000, 1_000))
)
#: op count above which the dict reference is not timed (it is the
#: point of the comparison at the small size; minutes at the large)
STRATEGY_DICT_BASELINE_MAX_OPS = 100_000
#: move counts for the spilled-log round-trip bench (bulk-synthesized
#: columns -> disk -> full rule-checked engine replay)
SPILL_SIZES = (1_000_001,) if SMOKE else (1_000_001, 100_000_001)
#: move targets for the kernel-validated spilled replay (the 10^8-move
#: fully rule-checked game with flat resident memory; the small size is
#: also measured in full mode so the CI bench guard overlaps)
KERNEL_REPLAY_SIZES = (1_000_001,) if SMOKE else (1_000_001, 100_000_001)


def jacobi_1d(n: int) -> CDAG:
    """3-point 1D Jacobi stencil, ``n`` grid points, T sweeps."""
    return grid_stencil_cdag((n,), JACOBI_TIMESTEPS, name=f"jacobi1d_{n}")


def edge_lists(cdag: CDAG):
    return (
        list(cdag.vertices),
        list(cdag.edges()),
        list(cdag.inputs),
        list(cdag.outputs),
    )


def test_bench_build():
    rows = []
    for n in GRID_SIZES:
        proto = grid_stencil_cdag((n, n), 2)
        verts, edges, inputs, outputs = edge_lists(proto)
        legacy_ns = time_ns_per_op(
            lambda: CDAG(verts, edges, inputs, outputs), repeat=3
        )
        bulk_ns = time_ns_per_op(
            lambda: CDAG.from_edge_list(verts, edges, inputs, outputs),
            repeat=3,
        )
        record_bench(
            f"build/grid2d_{n}",
            ns_per_op=bulk_ns,
            incremental_ns_per_op=legacy_ns,
            num_vertices=proto.num_vertices(),
            num_edges=proto.num_edges(),
        )
        rows.append(
            f"  n={n:3d}  |V|={proto.num_vertices():7d}  "
            f"bulk={bulk_ns/1e6:8.2f} ms  incremental={legacy_ns/1e6:8.2f} ms"
        )
    emit("CDAG construction (2D grid stencil, T=2)\n" + "\n".join(rows))


def test_bench_topological_order():
    rows = []
    for n in GRID_SIZES:
        cdag = grid_stencil_cdag((n, n), 2)

        def topo_fresh():
            cdag._compiled = None
            return cdag.compiled().topological_order_ids()

        ns = time_ns_per_op(topo_fresh, repeat=3)
        record_bench(
            f"topo/grid2d_{n}",
            ns_per_op=ns,
            num_vertices=cdag.num_vertices(),
        )
        rows.append(f"  n={n:3d}  topo+compile={ns/1e6:8.2f} ms")
    emit("Topological order, cold compiled cache\n" + "\n".join(rows))


def test_bench_pebble_replay():
    rows = []
    for n in JACOBI_SIZES:
        cdag = jacobi_1d(n)
        spill_ns = time_ns_per_op(
            lambda: spill_game_redblue(cdag, S_RED), repeat=3
        )
        record = spill_game_redblue(cdag, S_RED)
        game = RedBluePebbleGame(cdag, S_RED, strict=False)
        replay_ns = time_ns_per_op(lambda: game.replay(record.moves), repeat=3)
        record_bench(
            f"pebble/jacobi1d_{n}",
            ns_per_op=spill_ns,
            replay_ns_per_op=replay_ns,
            num_moves=len(record.moves),
            io=record.io_count,
        )
        rows.append(
            f"  n={n:3d}  spill={spill_ns/1e6:8.2f} ms  "
            f"replay={replay_ns/1e6:8.2f} ms  io={record.io_count}"
        )
    emit(
        f"Red-blue spill game + replay (1D Jacobi, S={S_RED})\n"
        + "\n".join(rows)
    )


def test_bench_wavefront_bound():
    rows = []
    for n in JACOBI_SIZES:
        cdag = jacobi_1d(n)

        def bound_fresh():
            cdag._compiled = None  # cold: recompile (and a new solver) each op
            return automated_wavefront_bound(
                cdag, s=S_RED, max_candidates=MAX_CANDIDATES
            )

        ns = time_ns_per_op(bound_fresh, repeat=3)
        b = bound_fresh()
        record_bench(
            f"wavefront/jacobi1d_{n}",
            ns_per_op=ns,
            wavefront=b.wavefront,
            num_vertices=cdag.num_vertices(),
        )
        rows.append(
            f"  n={n:3d}  bound={ns/1e6:8.2f} ms  w={b.wavefront}"
        )
    emit(
        "Automated wavefront bound, cold solver cache "
        f"(1D Jacobi, {MAX_CANDIDATES} candidates)\n" + "\n".join(rows)
    )


def test_bench_move_log():
    """ns/move of the columnar move log through the full rule-checking
    engines — the seed's per-``Move``-object log capped games near 10^5
    moves; the acceptance bar is a complete 10^6-move P-RBW game."""
    rows = []
    for target in MOVELOG_SIZES:
        prbw_ns = time_ns_per_op(
            lambda: prbw_pump_game(target), repeat=2
        ) / target
        game = prbw_pump_game(target)
        assert game.is_complete()
        assert len(game.record.moves) == target
        record_bench(
            f"movelog/prbw_pump_{target}",
            ns_per_op=prbw_ns,
            num_moves=target,
            complete=True,
        )
        rb_ns = time_ns_per_op(
            lambda: redblue_pump_game(target + 1), repeat=2
        ) / (target + 1)
        rb = redblue_pump_game(target + 1)
        assert rb.is_complete()
        assert len(rb.record.moves) == target + 1
        record_bench(
            f"movelog/redblue_pump_{target}",
            ns_per_op=rb_ns,
            num_moves=target + 1,
            complete=True,
        )
        rows.append(
            f"  moves={target:8d}  p-rbw={prbw_ns:7.0f} ns/move  "
            f"red-blue={rb_ns:7.0f} ns/move"
        )
    emit("Columnar move log, complete pump games\n" + "\n".join(rows))


def test_bench_strategy_loops():
    """ns/move of the batched spill-strategy fast paths on real spill
    games — the P-RBW owner-computes walk on the star workload (10^7
    moves at full size) and the I/O-bound sequential LRU game on
    interleaved chains (the kernel planner) — against the dict reference
    at the small sizes (identical games, pinned by the equivalence
    suite).  Every timed run is cold: nothing is memoized across runs."""
    rows = []
    for num_ops in STRATEGY_PRBW_OPS:
        cdag, hierarchy = star_spill_setup(num_ops)
        record = parallel_spill_game(cdag, hierarchy)
        moves = len(record.log)
        repeat = 2 if num_ops <= 20_000 else 1
        ns = time_ns_per_op(
            lambda: parallel_spill_game(cdag, hierarchy), repeat=repeat
        ) / moves
        extra = {}
        if num_ops <= STRATEGY_DICT_BASELINE_MAX_OPS:
            ref = parallel_spill_game(cdag, hierarchy, backend="dict")
            assert ref.summary() == record.summary()
            dict_ns = time_ns_per_op(
                lambda: parallel_spill_game(cdag, hierarchy, backend="dict"),
                repeat=1,
            ) / moves
            extra = {
                "dict_ns_per_op": dict_ns,
                "speedup": round(dict_ns / ns, 2),
            }
        record_bench(
            f"strategy/prbw_star_{moves}",
            ns_per_op=ns,
            num_moves=moves,
            num_ops=num_ops,
            vertical_io=record.total_vertical_io,
            **extra,
        )
        dict_part = (
            f"dict={extra['dict_ns_per_op']:6.0f} ({extra['speedup']:.1f}x)"
            if extra
            else "dict=   (skipped)"
        )
        rows.append(
            f"  p-rbw star   {moves:9d} mv  {ns:6.0f} ns/mv  {dict_part}"
        )
    for chains, length in STRATEGY_SEQ_GRIDS:
        cdag, s = chains_spill_setup(chains, length)
        record = spill_game_redblue(cdag, s)
        moves = len(record.log)
        num_ops = chains * length
        repeat = 2 if moves <= 1_000_000 else 1
        ns = time_ns_per_op(
            lambda: spill_game_redblue(cdag, s), repeat=repeat
        ) / moves
        extra = {}
        if num_ops <= STRATEGY_DICT_BASELINE_MAX_OPS:
            ref = spill_game_redblue(cdag, s, backend="dict")
            assert ref.summary() == record.summary()
            dict_ns = time_ns_per_op(
                lambda: spill_game_redblue(cdag, s, backend="dict"),
                repeat=1,
            ) / moves
            extra = {
                "dict_ns_per_op": dict_ns,
                "speedup": round(dict_ns / ns, 2),
            }
        record_bench(
            f"strategy/seq_lru_chains_{moves}",
            ns_per_op=ns,
            num_moves=moves,
            num_ops=num_ops,
            io=record.io_count,
            **extra,
        )
        dict_part = (
            f"dict={extra['dict_ns_per_op']:6.0f} ({extra['speedup']:.1f}x)"
            if extra
            else "dict=   (skipped)"
        )
        rows.append(
            f"  seq lru      {moves:9d} mv  {ns:6.0f} ns/mv  {dict_part}"
        )
    emit(
        "Spill-strategy fast paths, batched backend vs dict reference\n"
        + "\n".join(rows)
    )


def test_bench_kernel_replay_spill():
    """A complete 10^8-move game, fully rule-checked, with flat resident
    memory: bulk-synthesized spilled columns replayed through the
    red-blue engine, whose bound-log path bulk-validates chunk by chunk
    through the kernel.  The engine's per-move fallback is timed at the
    smallest size for a same-run ratio.
    """
    from repro.core.builders import chain_cdag

    cdag = chain_cdag(2)
    rows = []

    def replay_pass(target):
        log = synthesize_redblue_pump_log(target, cdag=cdag, spill=True)
        engine = RedBluePebbleGame(cdag, num_red=4, spill=True)
        start = _time.perf_counter_ns()
        replayed = engine.replay(log)
        replay_ns = _time.perf_counter_ns() - start
        assert replayed.summary()["moves"] == target
        for the_log in (log, replayed.log):
            assert the_log.is_spilled
            assert not the_log._blocks
        spilled = log.spilled_bytes + replayed.log.spilled_bytes
        log.close()
        replayed.log.close()
        return replay_ns, spilled

    # Peak-heap check on a traced pass at the smallest size (tracemalloc
    # slows the hot path, so it never shares a run with the timings).
    traced_target = min(KERNEL_REPLAY_SIZES)
    tracemalloc.start()
    _, traced_spilled = replay_pass(traced_target)
    _, peak_heap = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak_heap < max(traced_spilled // 5, 64 << 20)

    # Per-move fallback ratio, same run, smallest size only: a bulk
    # validator that rejects every log sends the engine to its fallback.
    bulk = redblue_mod.replay_sequential_kernel
    redblue_mod.replay_sequential_kernel = lambda *_args, **_kw: False
    try:
        permove_ns, _ = replay_pass(traced_target)
    finally:
        redblue_mod.replay_sequential_kernel = bulk

    for target in KERNEL_REPLAY_SIZES:
        replay_ns, spilled = replay_pass(target)
        extra = {}
        if target == traced_target:
            extra = {
                "peak_heap_bytes": peak_heap,
                "permove_ns_per_op": permove_ns / traced_target,
            }
        record_bench(
            f"strategy/kernel_seq_spill_{target}",
            ns_per_op=replay_ns / target,
            num_moves=target,
            spilled_bytes=spilled,
            **extra,
        )
        rows.append(
            f"  moves={target:10d}  replay={replay_ns/target:5.0f} ns/mv  "
            f"disk={spilled/1e6:7.1f} MB"
        )
    emit(
        "Kernel-validated spilled replay (vs "
        f"per-move fallback {permove_ns/traced_target:5.0f} ns/mv at "
        f"{traced_target} moves)\n" + "\n".join(rows)
    )


def test_bench_movelog_spill():
    """Append -> replay round trip of a disk-spilled move log.

    The source log's columns are bulk-synthesized (the red-blue pump
    pattern) into on-disk block files, then replayed through the full
    rule-checking engine — which records into its *own* spilled log — so
    both sides of a 10^8-move game run with flat resident memory: the
    only in-RAM state is one staging block per log; everything else is
    memmap-paged column files.
    """
    from repro.core.builders import chain_cdag

    rows = []
    cdag = chain_cdag(2)

    def round_trip(target):
        start = _time.perf_counter_ns()
        log = synthesize_redblue_pump_log(target, cdag=cdag, spill=True)
        synth_ns = _time.perf_counter_ns() - start
        engine = RedBluePebbleGame(cdag, num_red=4, spill=True)
        start = _time.perf_counter_ns()
        replayed = engine.replay(log)
        replay_ns = _time.perf_counter_ns() - start
        assert replayed.summary()["moves"] == target
        assert replayed.io_count == (target - 5) // 2 + 2
        # Flat-residency invariants: all full blocks live on disk.
        for the_log in (log, replayed.log):
            assert the_log.is_spilled
            assert not the_log._blocks
            assert len(the_log._kinds) < the_log.block_size
        spilled = log.spilled_bytes + replayed.log.spilled_bytes
        log.close()
        replayed.log.close()
        return synth_ns, replay_ns, spilled

    # Peak-heap check on a traced pass at the smallest size (tracemalloc
    # slows the hot path, so it never shares a run with the timings).
    traced_target = min(SPILL_SIZES)
    tracemalloc.start()
    _, _, traced_spilled = round_trip(traced_target)
    _, peak_heap = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    # Two 13-byte/move column sets went to disk; the Python heap must
    # stay well below them (one staging block + memmap views).
    assert peak_heap < max(traced_spilled // 5, 64 << 20)

    for target in SPILL_SIZES:
        synth_ns, replay_ns, spilled = round_trip(target)
        extra = (
            {"peak_heap_bytes": peak_heap} if target == traced_target else {}
        )
        record_bench(
            f"movelog/spill_roundtrip_{target}",
            ns_per_op=(synth_ns + replay_ns) / target,
            replay_ns_per_op=replay_ns / target,
            synth_ns_per_op=synth_ns / target,
            num_moves=target,
            spilled_bytes=spilled,
            **extra,
        )
        rows.append(
            f"  moves={target:10d}  synth={synth_ns/target:5.0f} ns/mv  "
            f"replay={replay_ns/target:5.0f} ns/mv  "
            f"disk={spilled/1e6:7.1f} MB"
        )
    emit("Spilled move log, bulk append -> rule-checked replay\n"
         + "\n".join(rows))


def test_bench_schedulers():
    """ns/scheduled-vertex of the id-space schedulers (their schedules
    are pinned to the test references by the equivalence tests)."""
    rows = []
    for n in SCHED_SIZES:
        cdag = grid_stencil_cdag((n, n), 2)
        cdag.compiled()  # schedule cost, not compile cost
        nv = cdag.num_vertices()
        dfs_ns = time_ns_per_op(lambda: dfs_schedule(cdag), repeat=3) / nv
        record_bench(
            f"sched/dfs_grid2d_{n}",
            ns_per_op=dfs_ns,
            num_vertices=nv,
        )
        ml_ns = time_ns_per_op(
            lambda: min_liveset_schedule(cdag), repeat=3
        ) / nv
        record_bench(
            f"sched/minlive_grid2d_{n}",
            ns_per_op=ml_ns,
            num_vertices=nv,
        )
        rows.append(
            f"  n={n:3d}  dfs={dfs_ns:6.0f} ns/v  minlive={ml_ns:7.0f} ns/v"
        )
    emit("Schedulers, id space (2D grid stencil, T=2)\n" + "\n".join(rows))


@pytest.mark.bench
@pytest.mark.skipif(SMOKE, reason="heavy whole-pipeline bench; not in smoke")
def test_construct_plus_wavefront_pipeline():
    """Construction + automated wavefront bound, 1D Jacobi at n=64."""
    n = 64
    proto = jacobi_1d(n)
    verts, edges, inputs, outputs = edge_lists(proto)

    def compiled_pipeline() -> int:
        cdag = CDAG.from_edge_list(
            verts, edges, inputs, outputs, name="compiled"
        )
        return automated_wavefront_bound(
            cdag, s=0, max_candidates=MAX_CANDIDATES
        ).wavefront

    compiled_ns = time_ns_per_op(compiled_pipeline, repeat=2)
    record_bench(
        "speedup/jacobi1d_64_construct_plus_wavefront",
        ns_per_op=compiled_ns,
        num_vertices=proto.num_vertices(),
    )
    emit(
        f"Construction + wavefront bound (1D Jacobi n={n}, "
        f"{MAX_CANDIDATES} candidates): {compiled_ns/1e6:9.2f} ms"
    )
