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

* ``"batched"`` (the default) is the production fast path: the kernel
  planners of :mod:`repro.pebbling.kernel`.  They choose every move over
  plain ints with no engine call, then rule-check the moves a chunk at a
  time with the kernel's bulk validators and append them block-wise.
  Sequential games plan packed outcome words per macro-step and splice
  them into move columns.  The P-RBW game plans over one int shade
  bitmask per vertex, one occupancy count per storage instance, and
  per-instance ``last_use`` arrays with lazy-deletion min-heaps of int
  keys, so an eviction costs O(log resident) instead of a scan of the
  resident set.
* ``"dict"`` is the seed-era reference loop (tuple-keyed ``last_use``
  dictionaries, linear victim scans, one rule-checking engine call per
  move).  It is kept as the executable specification; randomized
  equivalence tests pin the batched backend to it move-for-move.  Where
  the P-RBW reference could pick among several copies of a value it
  takes them in ascending ``(level, index)`` order: a retired value's
  DELETE rows, the level-L holder a remote get reads, and the copy
  pushed down when no level-L copy exists (highest level, then lowest
  index).

Both backends run entirely in the integer-id space of the compiled CDAG
backend (:meth:`CDAG.compiled`): schedules are converted to id arrays
once up front and pebble state and liveness counters are id-indexed, so
no vertex name is hashed inside the spill loops.  Every move lands as a
row of plain integers in the engine's columnar
:class:`~repro.pebbling.state.MoveLog`, so the records returned here stay
cheap at 10^6+ moves and replay column-to-column (engine ``replay``,
``partition_from_game``) without ever materializing ``Move`` objects.
Pass ``spill=True`` (or a directory) to record into a disk-backed log
and keep resident memory flat at 10^8-move scale.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core.cdag import CDAG, Vertex
from ..core.ordering import topological_schedule, validate_schedule
from .hierarchy import MemoryHierarchy
from .kernel import parallel_spill_kernel, sequential_spill_kernel
from .parallel import ParallelRBWPebbleGame
from .rbw import RBWPebbleGame
from .redblue import RedBluePebbleGame
from .state import CapacityError, GameError, GameRecord

__all__ = [
    "spill_game_rbw",
    "spill_game_redblue",
    "contiguous_block_assignment",
    "parallel_spill_game",
]

_POLICIES = ("lru", "belady")
_BACKENDS = ("batched", "dict")


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
        raise CapacityError(
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
    schedule/assignment, the level-1 capacity sanity check, and the
    assignment as an id-indexed list of processors."""
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
    num_procs = hierarchy.num_processors
    assign: List[int] = []
    for v in c.vertices:
        p = assignment[v]
        # The planners use the processor as a list index and a bit
        # position: -1 or True would silently play on another one.
        if isinstance(p, bool) or not isinstance(p, int) or not (
            0 <= p < num_procs
        ):
            raise GameError(
                f"assignment maps {v!r} to {p!r}; processors are ints in "
                f"0..{num_procs - 1}"
            )
        assign.append(p)
    is_input = c.is_input_mask.tolist()
    pred_lists = c.pred_lists
    s1 = hierarchy.capacity(1)
    if s1 is not None:
        _check_capacity(
            s1,
            [len(pred_lists[i]) + 1 for i in range(c.n) if not is_input[i]],
            "S_1",
        )
    return schedule, assign, c


def _parallel_spill_dict(
    game: ParallelRBWPebbleGame,
    hierarchy: MemoryHierarchy,
    assign: List[int],
    schedule: Sequence[Vertex],
    c,
) -> GameRecord:
    """Reference P-RBW owner-computes loop (dict backend, seed semantics).

    Where several copies of a value could serve, it takes them in
    ascending ``(level, index)`` order: a retired value's DELETE rows,
    the level-L holder a remote get reads, and (highest level first)
    the copy pushed down when no level-L copy exists.
    """
    L = hierarchy.num_levels
    sched_ids = c.ids_of(schedule)
    pred_lists = c.pred_lists
    is_input = c.is_input_mask.tolist()
    is_output = c.is_output_mask.tolist()
    remaining_uses: List[int] = c.out_degree.tolist()
    blue_ids = game.blue_ids
    clock = 0
    last_use: Dict[Tuple[Tuple[int, int], int], int] = {}

    shades = game.shades_ids

    def persist(i: int, inst: Tuple[int, int], pinned: Set[int]) -> None:
        """Guarantee a copy of ``i`` survives eviction from ``inst``;
        room made in the parent never evicts a ``pinned`` value."""
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
            make_room(parent, pinned)
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
                persist(victim, inst, pinned)
            game.delete_id(victim, level, index)

    def bring_to_node(i: int, node: int, pinned: Set[int]) -> None:
        """Ensure ``i`` holds the level-L pebble of ``node``."""
        if (L, node) in shades(i):
            last_use[((L, node), i)] = clock
            return
        holders = sorted(idx for (lvl, idx) in shades(i) if lvl == L)
        if i in blue_ids:
            game.load_id(i, node)
        elif holders:
            game.remote_get_id(i, node, holders[0])
        else:
            # The value lives only in some cache below another node's
            # memory: push it down on its home node first.
            home_shades = sorted(shades(i), key=lambda s: (-s[0], s[1]))
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
                for (lvl, idx) in sorted(shades(p)):
                    if not (is_output[p] and p not in blue_ids):
                        game.delete_id(p, lvl, idx)
        if remaining_uses[i] == 0 and not is_output[i]:
            for (lvl, idx) in sorted(shades(i)):
                game.delete_id(i, lvl, idx)

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
    working set; blue pebbles model the initial/final value home.  There
    is no ``policy`` argument: this strategy always evicts LRU.

    ``backend="batched"`` (default) runs the kernel planner
    (:func:`~repro.pebbling.kernel.parallel_spill_kernel`), which plans
    over int shade bitmasks and rule-checks the moves in bulk chunks;
    ``backend="dict"`` runs the reference loop (identical games, pinned
    by equivalence tests).  ``spill`` forwards to the engine's move log
    (disk-backed columns for very long games).
    """
    _validate_backend(backend)
    schedule, assign, c = _parallel_spill_prepare(
        cdag, hierarchy, assignment, schedule
    )
    game = ParallelRBWPebbleGame(cdag, hierarchy, spill=spill)
    driver = (
        _parallel_spill_dict if backend == "dict" else parallel_spill_kernel
    )
    return driver(game, hierarchy, assign, schedule, c)
