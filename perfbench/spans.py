"""In-memory span tracer wrapped around the program's public entry points.

A traced run installs wrappers (from this file, never from the program)
around each layer's public functions, at every ``repro.*`` module
namespace that holds them — a caller that did ``from x import f``
resolves ``f`` from its own module, so that binding is wrapped too.
Every call records a span ``[name, start, end, parent, extra]``; spans
stay in memory until :func:`layer_metrics` folds them into per-layer
self times (a span's duration minus its children's) and counts.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import threading
import time
from typing import Callable, Dict, List, Optional

from common import EXPERIMENTS, median

#: name of the spans the benchmark opens around the code it times
ROOT = "workload"


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self._local = threading.local()
        self._undo: List[Callable[[], None]] = []

    # -- recording -----------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, name: str,
             extra: Optional[Callable] = None) -> Callable:
        spans, stack_of = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            rec = [name, time.perf_counter(), 0.0,
                   stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
                if extra is not None:
                    rec[4] = extra(out)
                return out
            finally:
                rec[2] = time.perf_counter()
                stack.pop()

        return traced

    def root(self):
        """A root span around a block of benchmark code."""
        return _Block(self, ROOT)

    # -- installing wrappers -------------------------------------------
    def patch_function(self, fn: Callable, name: str,
                       extra: Optional[Callable] = None) -> None:
        traced = self.wrap(fn, name, extra)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, traced)
                    self._undo.append(
                        functools.partial(setattr, mod, attr, fn))

    def patch_method(self, cls: type, attr: str, name: str,
                     extra: Optional[Callable] = None) -> None:
        fn = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(fn, name, extra))
        self._undo.append(functools.partial(setattr, cls, attr, fn))

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()


class _Block:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer, self.name = tracer, name

    def __enter__(self):
        stack = self.tracer._stack()
        self.rec = [self.name, time.perf_counter(), 0.0,
                    stack[-1] if stack else -1, None]
        stack.append(len(self.tracer.spans))
        self.tracer.spans.append(self.rec)
        return self

    def __exit__(self, *exc) -> None:
        self.rec[2] = time.perf_counter()
        self.tracer._stack().pop()


def _moves(record) -> int:
    log = getattr(record, "log", None)
    return len(log) if log is not None else 0


def install(tracer: Tracer) -> None:
    """Wrap every layer's public entry points (the program must already
    be imported, so that all namespaces holding them exist)."""
    import repro.algorithms.cg as cg
    import repro.algorithms.linalg as linalg
    import repro.algorithms.reductions as reductions
    import repro.core.builders as builders
    import repro.core.ordering as ordering
    import repro.distsim.cluster as cluster
    import repro.evaluation.harness as harness
    import repro.evaluation.manifest as manifest
    import repro.pebbling.optimal as optimal
    import repro.pebbling.sharded as sharded
    import repro.pebbling.strategies as strategies
    import repro.pebbling.workloads as workloads
    import repro.store.analysis as analysis
    from repro.core.cdag import CDAG
    from repro.pebbling import (
        ParallelRBWPebbleGame, RBWPebbleGame, RedBluePebbleGame,
    )
    from repro.service.server import BoundService
    from repro.store.db import ArtifactStore

    build_fns = [
        getattr(builders, n) for n in (
            "chain_cdag", "independent_chains_cdag", "reduction_tree_cdag",
            "broadcast_tree_cdag", "diamond_cdag", "grid_stencil_cdag",
            "butterfly_cdag", "pyramid_cdag", "outer_product_cdag",
            "dense_layer_cdag")
    ] + [
        cg.cg_iteration_cdag, linalg.matmul_cdag,
        reductions.dot_then_axpy_cdag, workloads.star_spill_cdag,
        workloads.star_spill_setup, workloads.chains_spill_setup,
        workloads.component_forest_cdag,
    ]
    for fn in build_fns:
        tracer.patch_function(fn, "core.build")
    tracer.patch_method(CDAG, "compiled", "core.compile")
    for fn in (ordering.dfs_schedule, ordering.min_liveset_schedule,
               ordering.dfs_schedule_ids, ordering.min_liveset_schedule_ids):
        tracer.patch_function(fn, "core.schedule")
    from repro.bounds.mincut import automated_wavefront_bound
    tracer.patch_function(automated_wavefront_bound, "bounds.wavefront")
    tracer.patch_function(optimal.optimal_rbw_io, "pebbling.optimal",
                          extra=lambda r: r.states_expanded)
    for fn in (sharded.run_spill_game, strategies.spill_game_rbw,
               strategies.spill_game_redblue, strategies.parallel_spill_game):
        tracer.patch_function(fn, "pebbling.play", extra=_moves)
    for cls in (RedBluePebbleGame, RBWPebbleGame, ParallelRBWPebbleGame):
        tracer.patch_method(cls, "replay", "pebbling.replay", extra=_moves)
    for fn in (manifest.write_manifest, manifest.append_metrics_row,
               manifest.write_summary):
        tracer.patch_function(fn, "evaluation.commit")
    registry = harness.REGISTRY
    for key in EXPERIMENTS:
        original = registry[key]
        registry[key] = dataclasses.replace(
            original,
            run=tracer.wrap(original.run, f"evaluation.cell.{key}"))
        tracer._undo.append(
            functools.partial(registry.__setitem__, key, original))
    tracer.patch_method(ArtifactStore, "get_or_compute",
                        "store.get_or_compute")
    tracer.patch_method(BoundService, "handle", "service.handle")
    for fn in (analysis.fresh_compiled_payload, analysis.fresh_schedule,
               analysis.fresh_bound, analysis.fresh_spill):
        tracer.patch_function(fn, "store.fresh")
    for attr in ("run_stencil", "run_cg"):
        tracer.patch_method(cluster.SimulatedCluster, attr, "distsim.run")


def self_times(spans: List[list]) -> Dict[str, float]:
    """Self time per span name: duration minus the children's."""
    child = [0.0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out: Dict[str, float] = {}
    for i, (name, t0, t1, _parent, _extra) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (t1 - t0) - child[i]
    return out


def layer_metrics(spans: List[list]) -> Dict[str, float]:
    """The span-derived per-layer metrics (see README.md)."""
    own = self_times(spans)

    def outermost(i: int, name: str) -> bool:
        parent = spans[i][3]
        while parent >= 0:
            if spans[parent][0] == name:
                return False
            parent = spans[parent][3]
        return True

    counts: Dict[str, int] = {}
    extras: Dict[str, float] = {}
    for i, (name, _t0, _t1, _parent, extra) in enumerate(spans):
        counts[name] = counts.get(name, 0) + 1
        if extra is not None and outermost(i, name):
            extras[name] = extras.get(name, 0) + extra
    play_s = own.get("pebbling.play", 0.0)
    replay_s = own.get("pebbling.replay", 0.0)
    played = extras.get("pebbling.play", 0)
    replayed = extras.get("pebbling.replay", 0)
    out = {
        "core.build_s": own.get("core.build", 0.0),
        "core.compile_s": own.get("core.compile", 0.0),
        "core.schedule_s": own.get("core.schedule", 0.0),
        "bounds.wavefront_s": own.get("bounds.wavefront", 0.0),
        "bounds.wavefront_calls": counts.get("bounds.wavefront", 0),
        "pebbling.optimal_s": own.get("pebbling.optimal", 0.0),
        "pebbling.optimal_states": extras.get("pebbling.optimal", 0),
        "pebbling.play_s": play_s,
        "pebbling.play_ns_per_move": 1e9 * play_s / played if played else 0.0,
        "pebbling.replay_s": replay_s,
        "pebbling.replay_ns_per_move":
            1e9 * replay_s / replayed if replayed else 0.0,
        "pebbling.moves": played,
        "evaluation.commit_s": own.get("evaluation.commit", 0.0),
        "store.get_or_compute_self_s": own.get("store.get_or_compute", 0.0),
        "distsim.run_s": own.get("distsim.run", 0.0),
        "trace.unattributed_s": own.get(ROOT, 0.0),
    }
    for key in EXPERIMENTS:
        out[f"evaluation.cell_s.{key}"] = own.get(f"evaluation.cell.{key}",
                                                  0.0)
    return out


def attributed(spans: List[list]) -> float:
    """Self time summed over every layer span (the root spans' own
    time, benchmark code and unwrapped program code, left out)."""
    return sum(t for name, t in self_times(spans).items()
               if name != ROOT)


def compare(untraced: Callable[[], float],
            traced: Callable[["Tracer"], float], pairs: int = 3):
    """Alternate ``pairs`` untraced and traced runs of one workload.
    ``untraced()`` returns its end-to-end seconds; ``traced(tracer)``
    returns the same measurement taken with the wrappers installed and
    the timed code inside ``tracer.root()``.  Returns the median
    untraced and traced seconds, the per-layer metrics (median over the
    traced runs) and the median attributed seconds."""
    plain, wrapped, layers, covered = [], [], [], []
    for _ in range(pairs):
        plain.append(untraced())
        tracer = Tracer()
        install(tracer)
        try:
            wrapped.append(traced(tracer))
        finally:
            tracer.restore()
        layers.append(layer_metrics(tracer.spans))
        covered.append(attributed(tracer.spans))
    metrics = {name: median([m[name] for m in layers]) for name in layers[0]}
    return median(plain), median(wrapped), metrics, median(covered)
