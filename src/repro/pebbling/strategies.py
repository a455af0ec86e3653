"""Pebbling strategies: schedule-driven players that produce complete games.

A *strategy* turns a CDAG plus machine parameters into a valid complete
pebble game; the I/O cost of that game is an **upper bound** on the
CDAG's I/O complexity.  Together with the lower-bound analyzers in
:mod:`repro.bounds`, strategies bracket the true complexity:

``lower bound  <=  optimal game  <=  strategy game``

Sequential strategies
---------------------
:func:`spill_game_rbw` and :func:`spill_game_redblue` execute a given
schedule with ``S`` red pebbles, loading operands on demand and spilling
(store-then-delete) with an LRU or Belady (furthest-next-use) victim
policy.  This models a compiler/hardware-managed fast memory.

Parallel strategies
-------------------
:func:`parallel_spill_game` executes an owner-computes schedule over a
:class:`~repro.pebbling.hierarchy.MemoryHierarchy`: each vertex is
assigned to a processor, operands are pulled through the hierarchy (remote
get across nodes, move-up within a node) with per-instance LRU eviction,
and the resulting :class:`~repro.pebbling.state.GameRecord` exposes the
measured vertical and horizontal traffic that Theorems 5-7 bound from
below.  :func:`contiguous_block_assignment` provides the default
owner-computes mapping.

Two backends, one semantics
---------------------------
Every strategy exists in two implementations selected by ``backend``:

* ``"batched"`` (the default) is the production fast path.  Sequential
  games run the vectorized kernel planner
  (:mod:`repro.pebbling.kernel`): victims are chosen in a tight loop over
  plain ints, and the resulting moves are spliced and rule-checked a
  chunk of macro-steps at a time.  The P-RBW game runs a flat-array
  loop: per-value recency lives in one id-indexed ``last_use`` array per
  bounded storage instance, victims come out of per-instance
  lazy-deletion min-heaps instead of ``min(..., key=...)`` scans over
  the resident set, and the logical clock advances once per
  *macro-step* (scheduled vertex).  Eviction cost drops from
  O(resident) to O(log resident) amortized, which is what takes 10^7-move
  P-RBW games from minutes to seconds.
* ``"dict"`` is the seed-era reference loop (tuple-keyed ``last_use``
  dictionaries, linear victim scans).  It is kept verbatim as the
  executable specification; randomized equivalence tests pin the batched
  backend to it move-for-move.

Both backends run entirely in the integer-id space of the compiled CDAG
backend (:meth:`CDAG.compiled`): schedules are converted to id arrays
once up front, pebble state and liveness counters are id-indexed lists,
and moves are rule-checked by the engines' ``*_id`` methods (or, on the
sequential fast path, by the kernel's bulk validator), so no vertex name
is hashed inside the spill loops.  Every move lands as a row of plain
integers in the engine's columnar
:class:`~repro.pebbling.state.MoveLog`, so the records returned here stay
cheap at 10^6+ moves and replay column-to-column (engine ``replay``,
``partition_from_game``, ``DistributedExecutor.run_record``) without ever
materializing ``Move`` objects.  Pass ``spill=True`` (or a directory) to
record into a disk-backed log and keep resident memory flat at 10^8-move
scale.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from heapq import heapify, heappop, heappush
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core.cdag import CDAG, Vertex
from ..core.ordering import topological_schedule, validate_schedule
from .hierarchy import MemoryHierarchy
from .kernel import sequential_spill_kernel
from .parallel import ParallelRBWPebbleGame
from .rbw import RBWPebbleGame
from .redblue import RedBluePebbleGame
from .state import GameError, GameRecord

__all__ = [
    "spill_game_rbw",
    "spill_game_redblue",
    "contiguous_block_assignment",
    "parallel_spill_game",
]

_POLICIES = ("lru", "belady")
_BACKENDS = ("batched", "dict")


@contextmanager
def _gc_paused():
    """Pause the cyclic GC around a batched hot loop.

    The spill loops allocate a small shade set / heap entry per move but
    never create reference cycles, so generational collections only
    *scan* the growing game state — at 10^7 moves the gen-2 sweeps more
    than double the per-move cost.  The pause is process-wide; the GC is
    restored to its previous state on exit (including on error).
    """
    was_enabled = gc.isenabled()
    if was_enabled:
        gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


# ======================================================================
# Uniform argument validation (before any schedule/game work begins)
# ======================================================================
def _validate_policy(policy: str) -> None:
    if policy not in _POLICIES:
        raise ValueError("policy must be 'lru' or 'belady'")


def _validate_backend(backend: str) -> None:
    if backend not in _BACKENDS:
        raise ValueError(
            f"backend must be one of {_BACKENDS}, got {backend!r}"
        )


def _validate_num_red(num_red) -> None:
    if isinstance(num_red, bool) or not isinstance(num_red, int):
        raise ValueError(f"num_red must be an int, got {num_red!r}")
    if num_red < 1:
        raise ValueError("the game needs at least one red pebble")


def _check_capacity(num_red: int, op_degrees: List[int], what: str) -> int:
    """The shared "can any vertex fire at all" capacity check."""
    max_need = max(op_degrees, default=1)
    if num_red < max_need:
        raise GameError(
            f"{what}={num_red} {'red pebbles' if what == 'S' else 'registers'}"
            f" cannot fire a vertex with {max_need - 1} operands; "
            f"need at least {max_need}"
        )
    return max_need


# ======================================================================
# Sequential spill-based strategies — dict reference backend
# ======================================================================
def _sequential_spill(
    game,
    cdag: CDAG,
    num_red: int,
    schedule: Optional[Sequence[Vertex]],
    policy: str,
) -> GameRecord:
    """Reference driver for the red-blue and RBW engines (dict backend).

    Walks the operation vertices of ``schedule`` in order.  Before firing a
    vertex its operands are loaded (R1) if absent from fast memory,
    spilling victims chosen by ``policy`` when the red-pebble budget is
    exhausted.  Values whose last use has passed are deleted; outputs are
    stored as soon as they are produced.  Victim selection scans the
    resident set linearly — kept as the executable specification the
    batched backend is pinned against.
    """
    schedule = list(schedule) if schedule is not None else topological_schedule(cdag)
    validate_schedule(cdag, schedule)

    c = cdag.compiled()
    n = c.n
    sched_ids = c.ids_of(schedule)
    pred_lists = c.pred_lists
    succ_lists = c.succ_lists
    is_input = c.is_input_mask.tolist()
    is_output = c.is_output_mask.tolist()

    position = [0] * n
    for k, i in enumerate(sched_ids):
        position[i] = k
    # Remaining uses (successors not yet fired) of every value.
    remaining_uses: List[int] = c.out_degree.tolist()
    # Future use positions for the Belady policy (pop() yields the earliest).
    future_uses: List[List[int]] = [
        sorted((position[s] for s in succ_lists[i]), reverse=True)
        for i in range(n)
    ]

    clock = 0
    # -1 = never used; real entries are clock positions >= 0.
    last_use: List[int] = [-1] * n

    _check_capacity(
        num_red,
        [len(pred_lists[i]) + 1 for i in range(n) if not is_input[i]],
        "S",
    )

    red_ids: Set[int] = game.red_ids
    blue_ids: Set[int] = game.blue_ids

    def next_use(i: int) -> float:
        uses = future_uses[i]
        while uses and uses[-1] < clock:
            uses.pop()
        return uses[-1] if uses else float("inf")

    def pick_victim(pinned: Set[int]) -> int:
        candidates = [u for u in red_ids if u not in pinned]
        if not candidates:
            raise GameError(
                "no evictable red pebble: fast memory too small for this "
                "schedule step"
            )
        # Ties are broken by insertion id so victim choice is reproducible
        # regardless of set iteration order.
        if policy == "belady":
            return max(
                candidates,
                key=lambda u: (next_use(u), -max(last_use[u], 0), -u),
            )
        return min(candidates, key=lambda u: (last_use[u], u))

    def make_room(pinned: Set[int]) -> None:
        while len(red_ids) >= num_red:
            victim = pick_victim(pinned)
            needs_persist = remaining_uses[victim] > 0 or (
                is_output[victim] and victim not in blue_ids
            )
            if needs_persist and victim not in blue_ids:
                game.store_id(victim)
            game.delete_id(victim)

    def ensure_red(i: int, pinned: Set[int]) -> None:
        if i in red_ids:
            last_use[i] = clock
            return
        if i not in blue_ids:
            raise GameError(
                f"value {c.vertex(i)!r} is neither in fast memory nor backed "
                "in slow memory; the spill strategy should have stored it"
            )
        make_room(pinned)
        game.load_id(i)
        last_use[i] = clock

    for i in sched_ids:
        clock = position[i]
        if is_input[i]:
            # Inputs are loaded lazily when first used.
            continue
        preds = pred_lists[i]
        pinned = set(preds)
        pinned.add(i)
        for p in preds:
            ensure_red(p, pinned)
        make_room(pinned)
        game.compute_id(i)
        last_use[i] = clock
        if is_output[i]:
            game.store_id(i)
        # Retire operands whose last use has passed.
        for p in preds:
            remaining_uses[p] -= 1
            if remaining_uses[p] == 0 and p in red_ids:
                if is_output[p] and p not in blue_ids:
                    game.store_id(p)
                game.delete_id(p)
        if remaining_uses[i] == 0 and i in red_ids:
            game.delete_id(i)

    # Outputs that are inputs passed straight through (rare, but legal
    # under flexible tagging) need a blue pebble; inputs already have one.
    game.assert_complete()
    return game.record


def spill_game_rbw(
    cdag: CDAG,
    num_red: int,
    schedule: Optional[Sequence[Vertex]] = None,
    policy: str = "lru",
    backend: str = "batched",
    spill=False,
) -> GameRecord:
    """Play a complete RBW game along ``schedule`` with an LRU/Belady
    spill policy.  Returns the game record (an I/O upper bound).

    ``backend="batched"`` (default) runs the vectorized kernel planner
    (:mod:`repro.pebbling.kernel`; the ``REPRO_KERNEL`` environment
    variable picks its ``numpy`` or ``numba`` tier); ``backend="dict"``
    runs the reference implementation (identical games, pinned by
    equivalence tests).  ``spill`` forwards to the engine's move log
    (disk-backed columns for very long games).
    """
    _validate_policy(policy)
    _validate_backend(backend)
    _validate_num_red(num_red)
    game = RBWPebbleGame(cdag, num_red, spill=spill)
    if backend == "batched":
        return sequential_spill_kernel(
            game, cdag, num_red, schedule, policy, rbw=True
        )
    return _sequential_spill(game, cdag, num_red, schedule, policy)


def spill_game_redblue(
    cdag: CDAG,
    num_red: int,
    schedule: Optional[Sequence[Vertex]] = None,
    policy: str = "lru",
    backend: str = "batched",
    spill=False,
) -> GameRecord:
    """Play a complete Hong-Kung red-blue game along ``schedule``.

    The strategy never recomputes (it spills instead), so its cost is an
    upper bound for both the red-blue and the RBW I/O complexity.  See
    :func:`spill_game_rbw` for ``backend`` and ``spill``.
    """
    _validate_policy(policy)
    _validate_backend(backend)
    _validate_num_red(num_red)
    game = RedBluePebbleGame(cdag, num_red, strict=False, spill=spill)
    if backend == "batched":
        return sequential_spill_kernel(
            game, cdag, num_red, schedule, policy, rbw=False
        )
    return _sequential_spill(game, cdag, num_red, schedule, policy)


# ======================================================================
# Parallel strategy
# ======================================================================
def contiguous_block_assignment(
    cdag: CDAG,
    num_processors: int,
    schedule: Optional[Sequence[Vertex]] = None,
) -> Dict[Vertex, int]:
    """Owner-computes assignment: split a schedule into ``num_processors``
    contiguous blocks of (roughly) equal operation counts.

    Inputs are assigned to the processor of their first consumer so that
    the initial load lands on the node that uses the value.
    """
    schedule = list(schedule) if schedule is not None else topological_schedule(cdag)
    ops = [v for v in schedule if not cdag.is_input(v)]
    assignment: Dict[Vertex, int] = {}
    if not ops:
        return {v: 0 for v in cdag.vertices}
    per = max(1, (len(ops) + num_processors - 1) // num_processors)
    for i, v in enumerate(ops):
        assignment[v] = min(i // per, num_processors - 1)
    for v in cdag.vertices:
        if cdag.is_input(v):
            succs = cdag.successors(v)
            assignment[v] = assignment[succs[0]] if succs else 0
    return assignment


def _parallel_spill_prepare(
    cdag: CDAG,
    hierarchy: MemoryHierarchy,
    assignment: Optional[Dict[Vertex, int]],
    schedule: Optional[Sequence[Vertex]],
):
    """Shared entry work of both parallel backends: validation, default
    schedule/assignment, and the level-1 capacity sanity check."""
    L = hierarchy.num_levels
    if hierarchy.capacity(L) is not None:
        raise GameError(
            "parallel_spill_game requires unbounded level-L memories"
        )
    schedule = list(schedule) if schedule is not None else topological_schedule(cdag)
    validate_schedule(cdag, schedule)
    if assignment is None:
        assignment = contiguous_block_assignment(
            cdag, hierarchy.num_processors, schedule
        )
    unknown = [v for v in cdag.vertices if v not in assignment]
    if unknown:
        raise GameError(f"assignment misses vertices, e.g. {unknown[:3]}")

    c = cdag.compiled()
    n = c.n
    is_input = c.is_input_mask.tolist()
    pred_lists = c.pred_lists
    s1 = hierarchy.capacity(1)
    if s1 is not None:
        _check_capacity(
            s1,
            [len(pred_lists[i]) + 1 for i in range(n) if not is_input[i]],
            "S_1",
        )
    return schedule, assignment, c


def _parallel_spill_dict(
    game: ParallelRBWPebbleGame,
    cdag: CDAG,
    hierarchy: MemoryHierarchy,
    assignment: Dict[Vertex, int],
    schedule: Sequence[Vertex],
    c,
) -> GameRecord:
    """Reference P-RBW owner-computes loop (dict backend, seed semantics)."""
    L = hierarchy.num_levels
    n = c.n
    sched_ids = c.ids_of(schedule)
    pred_lists = c.pred_lists
    is_input = c.is_input_mask.tolist()
    is_output = c.is_output_mask.tolist()
    assign: List[int] = [assignment[c.vertex(i)] for i in range(n)]
    remaining_uses: List[int] = c.out_degree.tolist()
    blue_ids = game.blue_ids
    clock = 0
    last_use: Dict[Tuple[Tuple[int, int], int], int] = {}

    shades = game.shades_ids

    def persist(i: int, inst: Tuple[int, int]) -> None:
        """Guarantee a copy of ``i`` survives eviction from ``inst``."""
        level, index = inst
        if i in blue_ids:
            return
        if any(other != inst for other in shades(i)):
            # Another storage instance still holds the value; for the LRU
            # strategy this is sufficient persistence only if that copy is
            # at an ancestor or another node's memory -- both reachable
            # later via move-up / remote-get.  Copies in sibling register
            # files cannot be read directly, so be conservative and only
            # accept ancestors or level-L copies.
            for (olvl, oidx) in shades(i):
                if (olvl, oidx) == inst:
                    continue
                if olvl > level or olvl == L:
                    return
        if level == L:
            game.store_id(i, index)
            return
        parent = hierarchy.parent_instance(level, index)
        if parent not in shades(i):
            make_room(parent, pinned=set())
            game.move_down_id(i, parent[0], parent[1])

    def make_room(inst: Tuple[int, int], pinned: Set[int]) -> None:
        level, index = inst
        cap = hierarchy.capacity(level)
        if cap is None:
            return
        occupied = game.occupancy_ids.setdefault(inst, set())
        while len(occupied) >= cap:
            candidates = [u for u in occupied if u not in pinned]
            if not candidates:
                raise GameError(
                    f"storage {inst} cannot make room: all {cap} resident "
                    "values are pinned"
                )
            victim = min(
                candidates, key=lambda u: (last_use.get((inst, u), -1), u)
            )
            if remaining_uses[victim] > 0 or (
                is_output[victim] and victim not in blue_ids
            ):
                persist(victim, inst)
            game.delete_id(victim, level, index)

    def bring_to_node(i: int, node: int, pinned: Set[int]) -> None:
        """Ensure ``i`` holds the level-L pebble of ``node``."""
        if (L, node) in shades(i):
            last_use[((L, node), i)] = clock
            return
        holders = [idx for (lvl, idx) in shades(i) if lvl == L]
        if i in blue_ids:
            game.load_id(i, node)
        elif holders:
            game.remote_get_id(i, node, holders[0])
        else:
            # The value lives only in some cache below another node's
            # memory: push it down on its home node first.
            home_shades = sorted(shades(i), key=lambda s: -s[0])
            if not home_shades:
                raise GameError(
                    f"value {c.vertex(i)!r} has been lost (no copy exists)"
                )
            lvl, idx = home_shades[0]
            while lvl < L:
                parent = hierarchy.parent_instance(lvl, idx)
                make_room(parent, pinned)
                game.move_down_id(i, parent[0], parent[1])
                lvl, idx = parent
            if idx == node:
                pass
            else:
                game.remote_get_id(i, node, idx)
        last_use[((L, node), i)] = clock

    def bring_to_registers(i: int, processor: int, pinned: Set[int]) -> None:
        """Ensure ``i`` holds processor ``processor``'s level-1 pebble."""
        reg = (1, processor)
        if reg in shades(i):
            last_use[(reg, i)] = clock
            return
        node = hierarchy.instance_of_processor(L, processor)[1]
        # Find the lowest level on this processor's path that already
        # holds the value; pull from there.
        path = [
            hierarchy.instance_of_processor(lvl, processor)
            for lvl in range(1, L + 1)
        ]
        start_level = None
        for lvl, idx in path:
            if (lvl, idx) in shades(i):
                start_level = lvl
                break
        if start_level is None:
            bring_to_node(i, node, pinned)
            start_level = L
        for lvl in range(start_level - 1, 0, -1):
            inst = path[lvl - 1]
            # bring_to_node may already have placed intermediate copies
            # (e.g. when the only live copy sat in another processor's
            # registers and had to be pushed down through shared levels).
            if inst not in shades(i):
                make_room(inst, pinned)
                game.move_up_id(i, inst[0], inst[1])
            last_use[(inst, i)] = clock

    for i in sched_ids:
        clock += 1
        if is_input[i]:
            continue
        proc = assign[i]
        preds = pred_lists[i]
        pinned = set(preds)
        pinned.add(i)
        for p in preds:
            bring_to_registers(p, proc, pinned)
        make_room((1, proc), pinned)
        game.compute_id(i, proc)
        last_use[((1, proc), i)] = clock
        if is_output[i]:
            node = hierarchy.instance_of_processor(L, proc)[1]
            # Push the result down to the node memory and store it.
            lvl, idx = 1, proc
            while lvl < L:
                parent = hierarchy.parent_instance(lvl, idx)
                if parent not in shades(i):
                    make_room(parent, pinned)
                    game.move_down_id(i, parent[0], parent[1])
                lvl, idx = parent
            game.store_id(i, node)
        for p in preds:
            remaining_uses[p] -= 1
            if remaining_uses[p] == 0:
                for (lvl, idx) in list(shades(p)):
                    if not (is_output[p] and p not in blue_ids):
                        game.delete_id(p, lvl, idx)
        if remaining_uses[i] == 0 and not is_output[i]:
            for (lvl, idx) in list(shades(i)):
                game.delete_id(i, lvl, idx)

    game.assert_complete()
    return game.record


def _parallel_spill_batched(
    game: ParallelRBWPebbleGame,
    cdag: CDAG,
    hierarchy: MemoryHierarchy,
    assignment: Dict[Vertex, int],
    schedule: Sequence[Vertex],
    c,
) -> GameRecord:
    """Batched P-RBW owner-computes loop.

    The ``{((level, index), vertex_id): clock}`` recency dict of the
    reference becomes one flat id-indexed ``last_use`` array per bounded
    storage instance (persisting across evictions, exactly like the
    reference's dict entries), and each such instance evicts through a
    lazy-deletion min-heap of ``(last_use, id)`` keys: stale entries are
    dropped on pop, pinned entries set aside and re-pushed, so evictions
    cost O(log resident) instead of a linear scan of the occupancy set.
    Clock updates are batched per macro-step.  Pinned move-for-move to
    :func:`_parallel_spill_dict` by the randomized equivalence suite.
    """
    L = hierarchy.num_levels
    n = c.n
    sched_ids = c.ids_of(schedule)
    pred_lists = c.pred_lists
    is_input = c.is_input_mask.tolist()
    is_output = c.is_output_mask.tolist()
    assign: List[int] = [assignment[c.vertex(i)] for i in range(n)]
    remaining_uses: List[int] = c.out_degree.tolist()
    blue_ids = game.blue_ids
    pebbles_ids = game.pebbles_ids
    pebbles_get = pebbles_ids.get
    occupancy_ids = game.occupancy_ids
    _EMPTY: frozenset = frozenset()

    # ------------------------------------------------------------------
    # Per-instance eviction state and precomputed hierarchy tables
    # (no MemoryHierarchy method calls and one dict hop on the hot path).
    # Unbounded instances (level L) never evict, so their recency is not
    # tracked — the reference writes those dict entries but never reads
    # them.  ``states[inst] = (cap, occupied, heap, last_use)``: the
    # occupancy sets are pre-created so they are the same objects the
    # engine mutates, ``last_use`` is a flat id-indexed array persisting
    # across evictions (mirroring the reference dict's entries), ``heap``
    # the lazy-deletion eviction heap.
    # ------------------------------------------------------------------
    states: Dict[Tuple[int, int], tuple] = {}
    for level in range(1, L + 1):
        cap = hierarchy.capacity(level)
        if cap is None:
            continue
        for index in range(hierarchy.instances(level)):
            inst = (level, index)
            states[inst] = (
                cap,
                occupancy_ids.setdefault(inst, set()),
                [],
                [-1] * n,
            )
    states_get = states.get
    parent_of = {
        (level, index): hierarchy.parent_instance(level, index)
        for level in range(1, L)
        for index in range(hierarchy.instances(level))
    }
    # Processor -> its instance path [(1, p), (2, ..), ..., (L, node)].
    path_of = [
        [
            hierarchy.instance_of_processor(lvl, p)
            for lvl in range(1, L + 1)
        ]
        for p in range(hierarchy.num_processors)
    ]
    node_of = [path_of[p][L - 1][1] for p in range(hierarchy.num_processors)]
    # Pre-resolved eviction state along each processor's path (None for
    # unbounded levels): saves a dict hop per move-up/touch.
    path_states = [
        [states_get(inst) for inst in path] for path in path_of
    ]

    store_id = game.store_id
    load_id = game.load_id
    delete_id = game.delete_id
    delete_all_id = game.delete_all_id
    compute_id = game.compute_id
    move_up_id = game.move_up_id
    move_down_id = game.move_down_id
    remote_get_id = game.remote_get_id

    clock = 0

    def touch(inst: Tuple[int, int], i: int) -> None:
        """Record a use of ``i`` in ``inst`` at the current macro-step."""
        st = states_get(inst)
        if st is not None:
            st[3][i] = clock
            heappush(st[2], (clock, i))

    def placed(inst: Tuple[int, int], i: int) -> None:
        """Register a placement that is *not* a use (persist/push-down):
        the value joins the instance with its historical recency key."""
        st = states_get(inst)
        if st is not None:
            heappush(st[2], (st[3][i], i))

    def persist(i: int, inst: Tuple[int, int]) -> None:
        level, index = inst
        if i in blue_ids:
            return
        sh = pebbles_get(i, _EMPTY)
        if any(other != inst for other in sh):
            # Same conservative rule as the reference: only an ancestor
            # or a level-L copy persists the value.
            for (olvl, oidx) in sh:
                if (olvl, oidx) == inst:
                    continue
                if olvl > level or olvl == L:
                    return
        if level == L:
            store_id(i, index)
            return
        parent = parent_of[inst]
        if parent not in pebbles_get(i, _EMPTY):
            make_room(parent, _EMPTY)
            move_down_id(i, parent[0], parent[1])
            placed(parent, i)

    def make_room(inst: Tuple[int, int], pinned) -> None:
        st = states_get(inst)
        if st is None:
            return
        cap, occupied, heap, lu = st
        if len(heap) > 64 and len(heap) > 8 * len(occupied):
            # Compact the lazy heap: rebuild from the resident set's
            # current keys (see the sequential driver for rationale).
            heap[:] = [(lu[u], u) for u in occupied]
            heapify(heap)
        while len(occupied) >= cap:
            aside = []
            victim = -1
            while heap:
                entry = heap[0]
                key, u = entry
                if u not in occupied or lu[u] != key:
                    heappop(heap)
                    continue
                if u in pinned:
                    aside.append(heappop(heap))
                    continue
                victim = u
                break
            for entry in aside:
                heappush(heap, entry)
            if victim < 0:
                raise GameError(
                    f"storage {inst} cannot make room: all {cap} resident "
                    "values are pinned"
                )
            if remaining_uses[victim] > 0 or (
                is_output[victim] and victim not in blue_ids
            ):
                persist(victim, inst)
            delete_id(victim, inst[0], inst[1])

    def bring_to_node(i: int, node: int, pinned) -> None:
        sh = pebbles_get(i, _EMPTY)
        if sh and (L, node) in sh:
            return
        if i in blue_ids:
            load_id(i, node)
            return
        holders = [idx for (lvl, idx) in sh if lvl == L]
        if holders:
            remote_get_id(i, node, holders[0])
        else:
            home_shades = sorted(sh, key=lambda s: -s[0])
            if not home_shades:
                raise GameError(
                    f"value {c.vertex(i)!r} has been lost (no copy exists)"
                )
            lvl, idx = home_shades[0]
            while lvl < L:
                parent = parent_of[(lvl, idx)]
                make_room(parent, pinned)
                move_down_id(i, parent[0], parent[1])
                placed(parent, i)
                lvl, idx = parent
            if idx != node:
                remote_get_id(i, node, idx)

    def bring_to_registers(i: int, processor: int, pinned) -> None:
        path = path_of[processor]
        sh = pebbles_get(i, _EMPTY)
        start_level = None
        if sh:
            if path[0] in sh:
                touch(path[0], i)
                return
            for lvl, idx in path:
                if (lvl, idx) in sh:
                    start_level = lvl
                    break
        if start_level is None:
            bring_to_node(i, node_of[processor], pinned)
            start_level = L
        p_states = path_states[processor]
        for lvl in range(start_level - 1, 0, -1):
            inst = path[lvl - 1]
            st = p_states[lvl - 1]
            if inst not in pebbles_get(i, _EMPTY):
                if st is not None and len(st[1]) >= st[0]:
                    make_room(inst, pinned)
                move_up_id(i, inst[0], inst[1])
            if st is not None:
                st[3][i] = clock
                heappush(st[2], (clock, i))

    with _gc_paused():
        for i in sched_ids:
            clock += 1
            if is_input[i]:
                continue
            proc = assign[i]
            preds = pred_lists[i]
            pinned = set(preds)
            pinned.add(i)
            reg = path_of[proc][0]
            reg_state = path_states[proc][0]
            for p in preds:
                sh = pebbles_get(p)
                if sh is not None and reg in sh:
                    # Fast path: operand already in this register file.
                    if reg_state is not None:
                        reg_state[3][p] = clock
                        heappush(reg_state[2], (clock, p))
                else:
                    bring_to_registers(p, proc, pinned)
            if reg_state is not None and len(reg_state[1]) >= reg_state[0]:
                make_room(reg, pinned)
            compute_id(i, proc)
            if reg_state is not None:
                reg_state[3][i] = clock
                heappush(reg_state[2], (clock, i))
            if is_output[i]:
                # Push the result down to the node memory and store it.
                lvl, idx = reg
                while lvl < L:
                    parent = parent_of[(lvl, idx)]
                    if parent not in pebbles_get(i, _EMPTY):
                        make_room(parent, pinned)
                        move_down_id(i, parent[0], parent[1])
                        placed(parent, i)
                    lvl, idx = parent
                store_id(i, node_of[proc])
            for p in preds:
                ru = remaining_uses[p] - 1
                remaining_uses[p] = ru
                if ru == 0 and not (is_output[p] and p not in blue_ids):
                    delete_all_id(p)
            if remaining_uses[i] == 0 and not is_output[i]:
                delete_all_id(i)

    game.assert_complete()
    return game.record


def parallel_spill_game(
    cdag: CDAG,
    hierarchy: MemoryHierarchy,
    assignment: Optional[Dict[Vertex, int]] = None,
    schedule: Optional[Sequence[Vertex]] = None,
    backend: str = "batched",
    spill=False,
) -> GameRecord:
    """Play a complete P-RBW game with an owner-computes strategy.

    Every operation vertex is computed by its assigned processor; operand
    values are pulled toward the processor through the hierarchy (R1 load
    / R3 remote get at the top level, R4 move-up below), with per-instance
    LRU eviction (R5 move-down / R2 store to persist values that are still
    live).  The top (level-L) storage instances must be unbounded — the
    standard P-RBW assumption that node memory is large enough to hold the
    working set; blue pebbles model the initial/final value home.

    ``backend="batched"`` (default) runs the flat-array + lazy-heap hot
    loop; ``backend="dict"`` runs the reference loop (identical games,
    pinned by equivalence tests).  ``spill`` forwards to the engine's
    move log (disk-backed columns for very long games).
    """
    _validate_backend(backend)
    schedule, assignment, c = _parallel_spill_prepare(
        cdag, hierarchy, assignment, schedule
    )
    game = ParallelRBWPebbleGame(cdag, hierarchy, spill=spill)
    driver = (
        _parallel_spill_dict if backend == "dict" else _parallel_spill_batched
    )
    return driver(game, cdag, hierarchy, assignment, schedule, c)
