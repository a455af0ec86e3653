"""Fused vectorized pebble-rule kernel: the spill strategies' fast path.

``spill_game_rbw``/``spill_game_redblue``/``parallel_spill_game`` with
the default ``backend="batched"`` run here.  A per-move strategy loop
spends its budget on Python-interpreter rule checks: every move is one
engine method call that validates its rule and appends one log row.
This module breaks that floor by splitting each strategy into bulk
phases that run a *chunk* at a time:

1. **Plan** — the *policy decisions* (which victim to evict, where a
   copy comes from) run in a tight loop over plain ints, with no engine
   calls and no log appends.  The sequential planners read a static,
   schedule-derived description of every macro-step (operands, retires,
   output/self-retire flags, precomputed with numpy array passes) and
   emit one packed outcome word per operand touch / compute slot; the
   P-RBW planner (:func:`parallel_spill_kernel`) walks the schedule over
   int shade bitmasks and emits each move's column values directly.
2. **Splice** (sequential) — the outcome words are expanded into the
   exact move columns (opcode + vertex id) with vectorized
   scatter/cumsum passes.
3. **Validate + append** — every pebble rule (R1-R4 and the red-pebble
   capacity; R1-R7, instance capacities and canonical sources for
   P-RBW) is re-checked over the whole chunk with segmented array
   passes (a stable sort by vertex id turns "state before move t" into
   prefix queries), then the columns land in the
   :class:`~repro.pebbling.state.MoveLog` via one ``extend_block``.

The same chunked validators drive the engines' replay fast paths
(:func:`replay_sequential_kernel`, :func:`replay_parallel_kernel`): a
log bound to the engine's compiled CDAG is checked rule-for-rule in bulk
and bulk-appended, falling back to the per-move loop (for its exact
diagnostics) only when a chunk fails.

Capability probe
----------------
``REPRO_KERNEL`` selects the planner tier:

* ``"numpy"`` (default) — the always-available vectorized kernel above;
* ``"numba"`` — additionally JIT-compiles the single-operand LRU planner
  loop (:func:`_lru_arity1_flat`) when numba is importable, degrading
  silently to ``"numpy"`` when it is not.

The planners emit exactly the moves the ``dict`` reference loops emit —
the randomized differential suites pin them move-for-move.
"""

from __future__ import annotations

import os
from heapq import heapify, heappop, heappush
from typing import List, Optional

import numpy as np

from ..core.cdag import gc_paused
from .state import (
    _INST_MASK,
    _INST_SHIFT,
    _NO_INST,
    OP_COMPUTE,
    OP_DELETE,
    OP_LOAD,
    OP_MOVE_DOWN,
    OP_MOVE_UP,
    OP_REMOTE_GET,
    OP_STORE,
    GameError,
)

__all__ = [
    "kernel_mode",
    "numba_available",
    "sequential_spill_kernel",
    "parallel_spill_kernel",
    "replay_sequential_kernel",
    "replay_parallel_kernel",
]

_KERNEL_MODES = ("numpy", "numba")
#: macro-steps per plan/splice/validate chunk (bounds resident memory at
#: 10^8-move scale: one chunk of columns and validator scratch, never the
#: whole game)
_CHUNK_OPS = 16384
#: max rows per replay validation slice — a spilled log's on-disk blocks
#: can be arbitrarily large (bulk synthesis writes 10^6-row blocks), and
#: the chunk validators allocate ~90 B/row of scratch, so replay re-slices
#: oversized chunks to keep the working set a few MB regardless of how
#: the source log was blocked
_REPLAY_SLICE_ROWS = 1 << 17

_NO_VICTIM_MSG = (
    "no evictable red pebble: fast memory too small for this schedule step"
)


def kernel_mode() -> str:
    """Resolve the planner tier from the ``REPRO_KERNEL`` environment
    variable (default ``"numpy"``).  Raises ``ValueError`` for unknown
    tiers."""
    mode = os.environ.get("REPRO_KERNEL", "").strip().lower() or "numpy"
    if mode not in _KERNEL_MODES:
        raise ValueError(
            f"kernel mode must be one of {_KERNEL_MODES}, got {mode!r}"
        )
    return mode


_numba_probe: Optional[bool] = None


def numba_available() -> bool:
    """True when numba is importable (probed once per process)."""
    global _numba_probe
    if _numba_probe is None:
        try:
            import numba  # noqa: F401

            _numba_probe = True
        except Exception:
            _numba_probe = False
    return _numba_probe


def _blue_miss(c, p: int) -> GameError:
    return GameError(
        f"value {c.vertex(p)!r} is neither in fast memory nor backed "
        "in slow memory; the spill strategy should have stored it"
    )


# ======================================================================
# Static sequential plan (schedule-derived, policy-independent)
# ======================================================================
class _SeqPlan:
    """Flat arrays describing every macro-step of a sequential schedule.

    Everything here is independent of the eviction policy and of the red
    pebble budget.  Per macro-step ``k`` (a fired non-input vertex):

    * ``op_vid[k]``/``op_clock[k]`` — vertex id and schedule position;
    * operands in CSR form (``p_indptr``/``op_preds``), with
      ``ret_edge[e]`` marking the operand touch after which the operand
      retires (its globally last use by a fired vertex, and no input
      successor keeps it live);
    * outcome *slots*: one per operand touch plus one compute slot
      (``seg_indptr``/``comp_slot``/``slot_comp``/``slot_vid``) — the
      planner emits exactly one packed outcome word per slot;
    * the *static tail* after the compute move (output store, operand
      retires in operand order, self-retire), prebuilt as move columns
      (``st_kinds``/``st_vids``).
    """

    __slots__ = (
        "nops", "op_vid", "op_clock", "p_indptr", "op_preds", "ret_edge",
        "fl", "seg_indptr", "comp_slot", "slot_comp", "slot_vid",
        "st_indptr", "st_len", "st_kinds", "st_vids", "arity1",
        "max_need", "nslots", "input_ids", "pos",
    )


def _build_seq_plan(c, sched_ids: np.ndarray) -> _SeqPlan:
    n = c.n
    plan = _SeqPlan()
    fired = ~c.is_input_mask[sched_ids]
    op_vid = sched_ids[fired].astype(np.int64)
    nops = len(op_vid)
    plan.nops = nops
    plan.op_vid = op_vid
    plan.op_clock = np.flatnonzero(fired).astype(np.int64)
    plan.input_ids = c.input_ids.tolist()
    pos = np.empty(n, dtype=np.int64)
    pos[sched_ids] = np.arange(len(sched_ids), dtype=np.int64)
    plan.pos = pos

    pred_indptr = c.pred_indptr.astype(np.int64, copy=False)
    p_start = pred_indptr[op_vid]
    p_cnt = pred_indptr[op_vid + 1] - p_start
    E = int(p_cnt.sum())
    p_indptr = np.zeros(nops + 1, dtype=np.int64)
    np.cumsum(p_cnt, out=p_indptr[1:])
    if E:
        offs = np.repeat(p_start - p_indptr[:-1], p_cnt) + np.arange(E)
        op_preds = c.pred_indices[offs].astype(np.int64)
    else:
        op_preds = np.empty(0, dtype=np.int64)
    plan.p_indptr = p_indptr
    plan.op_preds = op_preds
    plan.max_need = int(p_cnt.max()) + 1 if nops else 1
    plan.arity1 = bool(nops) and bool((p_cnt == 1).all())

    # Retire edges: the globally last operand touch of each value, valid
    # only when no input successor pins it live forever (inputs never
    # fire, so their use is never consumed).
    is_input = c.is_input_mask
    out_deg = np.diff(c.succ_indptr.astype(np.int64, copy=False))
    edge_src = np.repeat(np.arange(n, dtype=np.int64), out_deg)
    n_input_succ = np.bincount(
        edge_src[is_input[c.succ_indices]], minlength=n
    )
    last_edge = np.full(n, -1, dtype=np.int64)
    if E:
        last_edge[op_preds] = np.arange(E)
        ar_e = np.arange(E)
        ret_edge = (last_edge[op_preds] == ar_e) & (
            n_input_succ[op_preds] == 0
        )
    else:
        ret_edge = np.empty(0, dtype=bool)
    plan.ret_edge = ret_edge

    oflag = c.is_output_mask[op_vid]
    sret = c.out_degree[op_vid] == 0
    cr = np.zeros(E + 1, dtype=np.int64)
    np.cumsum(ret_edge, out=cr[1:])
    ret_cnt = cr[p_indptr[1:]] - cr[p_indptr[:-1]]
    plan.fl = (
        (ret_cnt > 0).astype(np.int8)
        + 2 * oflag.astype(np.int8)
        + 4 * sret.astype(np.int8)
    )

    # Outcome slots: operand touches then one compute slot per op.
    nslots = E + nops
    plan.nslots = nslots
    seg_indptr = p_indptr + np.arange(nops + 1, dtype=np.int64)
    plan.seg_indptr = seg_indptr
    comp_slot = seg_indptr[1:] - 1
    plan.comp_slot = comp_slot
    slot_comp = np.zeros(nslots, dtype=bool)
    slot_comp[comp_slot] = True
    slot_vid = np.empty(nslots, dtype=np.int32)
    slot_vid[comp_slot] = op_vid
    slot_vid[~slot_comp] = op_preds
    plan.slot_comp = slot_comp
    plan.slot_vid = slot_vid

    # Static tails: [STORE i]? DELETE retired-preds... [DELETE i]?
    st_len = oflag.astype(np.int64) + ret_cnt + sret.astype(np.int64)
    plan.st_len = st_len
    st_indptr = np.zeros(nops + 1, dtype=np.int64)
    np.cumsum(st_len, out=st_indptr[1:])
    plan.st_indptr = st_indptr
    TL = int(st_indptr[-1])
    st_kinds = np.full(TL, OP_DELETE, dtype=np.int8)
    st_vids = np.empty(TL, dtype=np.int32)
    store_pos = st_indptr[:-1][oflag]
    st_kinds[store_pos] = OP_STORE
    st_vids[store_pos] = op_vid[oflag]
    R = int(ret_cnt.sum())
    if R:
        base = st_indptr[:-1] + oflag
        rc_excl = np.zeros(nops, dtype=np.int64)
        np.cumsum(ret_cnt[:-1], out=rc_excl[1:])
        rp = np.repeat(base - rc_excl, ret_cnt) + np.arange(R)
        st_vids[rp] = op_preds[ret_edge]
    st_vids[st_indptr[1:][sret] - 1] = op_vid[sret]
    plan.st_kinds = st_kinds
    plan.st_vids = st_vids
    return plan


# ======================================================================
# Planners: per-slot packed outcome words
# ======================================================================
# Touch slots:   0 = hit, 1 = miss (load, no eviction),
#                (v << 2) | st = evict v then load; st 2 = victim already
#                blue (DELETE v), st 3 = spill (STORE v, DELETE v).
# Compute slots: 0 = no eviction, (v << 2) | st = evict v then compute.


def _plan_lru_arity1(plan, c, num_red):
    """LRU planner for all-single-operand schedules (the hot shape).

    The residency dict doubles as the recency order: values are
    reinserted on every touch, so insertion order is nondecreasing
    ``last_use`` and the first unpinned entry is the LRU victim; a run of
    equal keys is walked for the lowest id, exactly the reference's
    ``min(..., (last_use[u], u))``.
    """
    blue = bytearray(c.n)
    for j in plan.input_ids:
        blue[j] = 1
    red: dict = {}
    S = num_red
    cnt = 0
    nops = plan.nops
    none_pair = (-1, -1)
    for a in range(0, nops, _CHUNK_OPS):
        b = min(a + _CHUNK_OPS, nops)
        out: List[int] = []
        append = out.append
        for clock, i, p, fl in zip(
            plan.op_clock[a:b].tolist(),
            plan.op_vid[a:b].tolist(),
            plan.op_preds[a:b].tolist(),
            plan.fl[a:b].tolist(),
        ):
            if p in red:
                del red[p]
                red[p] = clock
                append(0)
            else:
                if not blue[p]:
                    raise _blue_miss(c, p)
                if cnt >= S:
                    it = iter(red.items())
                    v, lu = next(it, none_pair)
                    while v == p or v == i:
                        v, lu = next(it, none_pair)
                    if v < 0:
                        raise GameError(_NO_VICTIM_MSG)
                    nv = next(it, None)
                    if nv is not None and nv[1] == lu:
                        best = v
                        while nv is not None and nv[1] == lu:
                            v2 = nv[0]
                            if v2 < best and v2 != p and v2 != i:
                                best = v2
                            nv = next(it, None)
                        v = best
                    if blue[v]:
                        st = 2
                    else:
                        st = 3
                        blue[v] = 1
                    del red[v]
                    cnt -= 1
                    append((v << 2) | st)
                else:
                    append(1)
                red[p] = clock
                cnt += 1
            if cnt >= S:
                it = iter(red.items())
                v, lu = next(it, none_pair)
                while v == p or v == i:
                    v, lu = next(it, none_pair)
                if v < 0:
                    raise GameError(_NO_VICTIM_MSG)
                nv = next(it, None)
                if nv is not None and nv[1] == lu:
                    best = v
                    while nv is not None and nv[1] == lu:
                        v2 = nv[0]
                        if v2 < best and v2 != p and v2 != i:
                            best = v2
                        nv = next(it, None)
                    v = best
                if blue[v]:
                    st = 2
                else:
                    st = 3
                    blue[v] = 1
                del red[v]
                cnt -= 1
                append((v << 2) | st)
            else:
                append(0)
            red[i] = clock
            cnt += 1
            if fl:
                if fl & 2:
                    blue[i] = 1
                if fl & 1:
                    del red[p]
                    cnt -= 1
                if fl & 4:
                    del red[i]
                    cnt -= 1
        yield out


def _plan_lru_generic(plan, c, num_red):
    """LRU planner for arbitrary operand arity (same dict-order scan)."""
    blue = bytearray(c.n)
    for j in plan.input_ids:
        blue[j] = 1
    red: dict = {}
    S = num_red
    cnt = 0
    nops = plan.nops
    p_indptr = plan.p_indptr

    def evict(preds, i):
        nonlocal cnt
        it = iter(red.items())
        for v, lu in it:
            if v != i and v not in preds:
                break
        else:
            raise GameError(_NO_VICTIM_MSG)
        nv = next(it, None)
        if nv is not None and nv[1] == lu:
            best = v
            while nv is not None and nv[1] == lu:
                v2 = nv[0]
                if v2 < best and v2 != i and v2 not in preds:
                    best = v2
                nv = next(it, None)
            v = best
        if blue[v]:
            st = 2
        else:
            st = 3
            blue[v] = 1
        del red[v]
        cnt -= 1
        return (v << 2) | st

    for a in range(0, nops, _CHUNK_OPS):
        b = min(a + _CHUNK_OPS, nops)
        e0 = int(p_indptr[a])
        preds_flat = plan.op_preds[e0:int(p_indptr[b])].tolist()
        rets_flat = plan.ret_edge[e0:int(p_indptr[b])].tolist()
        lo_list = (p_indptr[a:b] - e0).tolist()
        hi_list = (p_indptr[a + 1:b + 1] - e0).tolist()
        out: List[int] = []
        append = out.append
        for clock, i, lo, hi, fl in zip(
            plan.op_clock[a:b].tolist(),
            plan.op_vid[a:b].tolist(),
            lo_list,
            hi_list,
            plan.fl[a:b].tolist(),
        ):
            preds = preds_flat[lo:hi]
            for p in preds:
                if p in red:
                    del red[p]
                    red[p] = clock
                    append(0)
                else:
                    if not blue[p]:
                        raise _blue_miss(c, p)
                    if cnt >= S:
                        append(evict(preds, i))
                    else:
                        append(1)
                    red[p] = clock
                    cnt += 1
            if cnt >= S:
                append(evict(preds, i))
            else:
                append(0)
            red[i] = clock
            cnt += 1
            if fl & 2:
                blue[i] = 1
            if fl & 1:
                for t in range(lo, hi):
                    if rets_flat[t]:
                        del red[preds_flat[t]]
                        cnt -= 1
            if fl & 4:
                del red[i]
                cnt -= 1
        yield out


def _plan_belady(plan, c, num_red):
    """Belady (furthest-next-use) planner — a port of the batched
    backend's lazy-heap victim selection, emitting outcome words."""
    n = c.n
    pos = plan.pos
    succ_lists = c.succ_lists
    future_uses = [
        sorted((int(pos[s]) for s in succ_lists[i]), reverse=True)
        for i in range(n)
    ]
    NEVER = n
    blue = bytearray(n)
    for j in plan.input_ids:
        blue[j] = 1
    red_ids: set = set()
    last_use = [-1] * n
    cur_next = [-1] * n
    heap: list = []
    S = num_red
    clock = 0

    def touch(i):
        last_use[i] = clock
        uses = future_uses[i]
        while uses and uses[-1] <= clock:
            uses.pop()
        nxt = uses[-1] if uses else NEVER
        cur_next[i] = nxt
        heappush(heap, (-nxt, clock, i))

    def evict(pinned):
        if len(heap) > 64 and len(heap) > 8 * len(red_ids):
            heap[:] = [(-cur_next[u], last_use[u], u) for u in red_ids]
            heapify(heap)
        aside = []
        victim = -1
        while heap:
            neg_nxt, lu, u = heap[0]
            if (
                u not in red_ids
                or lu != last_use[u]
                or -neg_nxt != cur_next[u]
            ):
                heappop(heap)
                continue
            nxt = -neg_nxt
            if nxt < clock:
                heappop(heap)
                uses = future_uses[u]
                while uses and uses[-1] < clock:
                    uses.pop()
                nxt = uses[-1] if uses else NEVER
                cur_next[u] = nxt
                heappush(heap, (-nxt, lu, u))
                continue
            if u in pinned:
                aside.append(heappop(heap))
                continue
            victim = u
            break
        for entry in aside:
            heappush(heap, entry)
        if victim < 0:
            raise GameError(_NO_VICTIM_MSG)
        if blue[victim]:
            st = 2
        else:
            st = 3
            blue[victim] = 1
        red_ids.discard(victim)
        return (victim << 2) | st

    nops = plan.nops
    p_indptr = plan.p_indptr
    for a in range(0, nops, _CHUNK_OPS):
        b = min(a + _CHUNK_OPS, nops)
        e0 = int(p_indptr[a])
        preds_flat = plan.op_preds[e0:int(p_indptr[b])].tolist()
        rets_flat = plan.ret_edge[e0:int(p_indptr[b])].tolist()
        lo_list = (p_indptr[a:b] - e0).tolist()
        hi_list = (p_indptr[a + 1:b + 1] - e0).tolist()
        out: List[int] = []
        append = out.append
        for clock, i, lo, hi, fl in zip(
            plan.op_clock[a:b].tolist(),
            plan.op_vid[a:b].tolist(),
            lo_list,
            hi_list,
            plan.fl[a:b].tolist(),
        ):
            preds = preds_flat[lo:hi]
            pinned = set(preds)
            pinned.add(i)
            for p in preds:
                if p in red_ids:
                    touch(p)
                    append(0)
                else:
                    if not blue[p]:
                        raise _blue_miss(c, p)
                    if len(red_ids) >= S:
                        append(evict(pinned))
                    else:
                        append(1)
                    red_ids.add(p)
                    touch(p)
            if len(red_ids) >= S:
                append(evict(pinned))
            else:
                append(0)
            red_ids.add(i)
            touch(i)
            if fl & 2:
                blue[i] = 1
            if fl & 1:
                for t in range(lo, hi):
                    if rets_flat[t]:
                        red_ids.discard(preds_flat[t])
            if fl & 4:
                red_ids.discard(i)
        yield out


# ----------------------------------------------------------------------
# Numba tier: the arity-1 LRU planner as a flat array loop.  The recency
# dict becomes an intrusive doubly-linked list (head = least recent,
# O(1) move-to-end) over preallocated index arrays; the function is
# numba-njit-compilable but also runs (and is differentially tested) as
# plain Python.  Rule errors are returned as status codes so the jitted
# body stays exception-free; the driver reruns the Python planner to
# raise the exact diagnostic.
# ----------------------------------------------------------------------
def _lru_arity1_flat(op_clock, op_vid, op_preds, fl, blue,
                     prev, nxt, lu, inred, S, out):
    n = blue.shape[0]
    sent = n
    cnt = 0
    w = 0
    for k in range(op_clock.shape[0]):
        clock = op_clock[k]
        i = op_vid[k]
        p = op_preds[k]
        if inred[p] == 1:
            pv = prev[p]
            nx = nxt[p]
            nxt[pv] = nx
            prev[nx] = pv
            tail = prev[sent]
            nxt[tail] = p
            prev[p] = tail
            nxt[p] = sent
            prev[sent] = p
            lu[p] = clock
            out[w] = 0
            w += 1
        else:
            if blue[p] == 0:
                return 1, k
            if cnt >= S:
                v = nxt[sent]
                while v == p or v == i:
                    v = nxt[v]
                if v == sent:
                    return 2, k
                l0 = lu[v]
                u = nxt[v]
                while u != sent and lu[u] == l0:
                    if u < v and u != p and u != i:
                        v = u
                    u = nxt[u]
                pv = prev[v]
                nx = nxt[v]
                nxt[pv] = nx
                prev[nx] = pv
                inred[v] = 0
                cnt -= 1
                if blue[v] == 1:
                    out[w] = (v << 2) | 2
                else:
                    blue[v] = 1
                    out[w] = (v << 2) | 3
                w += 1
            else:
                out[w] = 1
                w += 1
            tail = prev[sent]
            nxt[tail] = p
            prev[p] = tail
            nxt[p] = sent
            prev[sent] = p
            inred[p] = 1
            lu[p] = clock
            cnt += 1
        if cnt >= S:
            v = nxt[sent]
            while v == p or v == i:
                v = nxt[v]
            if v == sent:
                return 2, k
            l0 = lu[v]
            u = nxt[v]
            while u != sent and lu[u] == l0:
                if u < v and u != p and u != i:
                    v = u
                u = nxt[u]
            pv = prev[v]
            nx = nxt[v]
            nxt[pv] = nx
            prev[nx] = pv
            inred[v] = 0
            cnt -= 1
            if blue[v] == 1:
                out[w] = (v << 2) | 2
            else:
                blue[v] = 1
                out[w] = (v << 2) | 3
            w += 1
        else:
            out[w] = 0
            w += 1
        tail = prev[sent]
        nxt[tail] = i
        prev[i] = tail
        nxt[i] = sent
        prev[sent] = i
        inred[i] = 1
        lu[i] = clock
        cnt += 1
        f = fl[k]
        if f != 0:
            if f & 2:
                blue[i] = 1
            if f & 1:
                pv = prev[p]
                nx = nxt[p]
                nxt[pv] = nx
                prev[nx] = pv
                inred[p] = 0
                cnt -= 1
            if f & 4:
                pv = prev[i]
                nx = nxt[i]
                nxt[pv] = nx
                prev[nx] = pv
                inred[i] = 0
                cnt -= 1
    return 0, 0


_jitted_lru = None


def _get_jitted_lru():
    global _jitted_lru
    if _jitted_lru is None:
        from numba import njit

        _jitted_lru = njit(cache=False, nogil=True)(_lru_arity1_flat)
    return _jitted_lru


def _plan_lru_arity1_numba(plan, c, num_red, use_jit=True):
    """Run the flat LRU loop over the whole plan, then yield the outcome
    array chunk by chunk.  On a nonzero status the Python planner is
    rerun to raise the reference diagnostic."""
    n = c.n
    blue = np.zeros(n, dtype=np.uint8)
    blue[np.asarray(plan.input_ids, dtype=np.int64)] = 1
    prev = np.empty(n + 1, dtype=np.int64)
    nxt = np.empty(n + 1, dtype=np.int64)
    prev[n] = nxt[n] = n
    lu = np.empty(n, dtype=np.int64)
    inred = np.zeros(n, dtype=np.uint8)
    out = np.empty(plan.nslots, dtype=np.int64)
    fn = _get_jitted_lru() if use_jit else _lru_arity1_flat
    status, _ = fn(
        plan.op_clock, plan.op_vid, plan.op_preds,
        plan.fl.astype(np.int64), blue, prev, nxt, lu, inred,
        num_red, out,
    )
    if status != 0:
        for _ in _plan_lru_arity1(plan, c, num_red):
            pass
        raise GameError(
            "kernel planner failed without a diagnosable rule error"
        )  # pragma: no cover - the rerun above raises first
    for a in range(0, plan.nops, _CHUNK_OPS):
        b = min(a + _CHUNK_OPS, plan.nops)
        yield out[plan.seg_indptr[a]:plan.seg_indptr[b]]


# ======================================================================
# Splice: packed outcome words -> move columns
# ======================================================================
def _splice_seq(plan, a, b, outcomes):
    """Expand one chunk of outcome words into (kinds, vids) columns."""
    o = np.asarray(outcomes, dtype=np.int64)
    s0 = int(plan.seg_indptr[a])
    s1 = int(plan.seg_indptr[b])
    comp = plan.slot_comp[s0:s1]
    dl = np.where(o >= 2, 2 + (o & 1), o)
    dl = np.maximum(dl, comp)
    ext = dl.copy()
    cs = plan.comp_slot[a:b] - s0
    stl = plan.st_len[a:b]
    ext[cs] += stl
    total = int(ext.sum())
    starts = np.zeros(len(o), dtype=np.int64)
    np.cumsum(ext[:-1], out=starts[1:])
    kinds = np.empty(total, dtype=np.int8)
    vids = np.empty(total, dtype=np.int32)
    # Final move of each nonempty slot: the LOAD (touch) or COMPUTE.
    fin = comp | (o > 0)
    fp = starts[fin] + dl[fin] - 1
    kinds[fp] = np.where(comp[fin], OP_COMPUTE, OP_LOAD)
    vids[fp] = plan.slot_vid[s0:s1][fin]
    # Evictions: [STORE v]? DELETE v before the slot's final move.
    ev = o >= 2
    if ev.any():
        vv = o[ev] >> 2
        stb = (o[ev] & 1).astype(bool)
        sev = starts[ev]
        dpos = sev + stb
        kinds[dpos] = OP_DELETE
        vids[dpos] = vv
        spos = sev[stb]
        kinds[spos] = OP_STORE
        vids[spos] = vv[stb]
    # Static tails after each compute move.
    t0 = int(plan.st_indptr[a])
    t1 = int(plan.st_indptr[b])
    if t1 > t0:
        dst0 = starts[cs] + dl[cs]
        rel = plan.st_indptr[a:b] - t0
        didx = np.repeat(dst0 - rel, stl) + np.arange(t1 - t0)
        kinds[didx] = plan.st_kinds[t0:t1]
        vids[didx] = plan.st_vids[t0:t1]
    return kinds, vids


# ======================================================================
# Chunked sequential rule validator (strategy assertion + replay path)
# ======================================================================
# Expected red-state-before per opcode (LOAD, STORE, COMPUTE, DELETE);
# COMPUTE is excluded from the table check (recompute is legal in the
# red-blue game) and handled by the R3 block instead.
_EXP_RED = np.array([0, 1, 2, 1], dtype=np.int8)
# Red-count delta per opcode (COMPUTE rows are patched to 1 - red_before
# afterwards, so recomputes in the red-blue game contribute zero).
_DELTA_RED = np.array([1, 0, 1, -1], dtype=np.int8)


class _SeqCarry:
    """Pebble state carried across validated chunks."""

    __slots__ = ("red", "blue", "white", "count", "peak")

    def __init__(self, c, rbw: bool) -> None:
        n = c.n
        self.red = np.zeros(n, dtype=np.uint8)
        blue = np.zeros(n, dtype=np.uint8)
        blue[c.input_ids] = 1
        self.blue = blue
        self.white = np.zeros(n, dtype=np.uint8) if rbw else None
        self.count = 0
        self.peak = 0


def _validate_seq_chunk(c, kinds, vids, carry, num_red) -> bool:
    """Check every rule of one move chunk in bulk; update ``carry``.

    A stable sort by vertex id groups each value's moves in time order,
    so "red/blue/white before move t" become prefix queries within the
    value's segment (falling back to the carried-in state before the
    segment's first event).  R3's operands-are-red check resolves each
    (operand, time) query against the sorted change-event keys with one
    ``searchsorted``.  Returns False on any violation; ``carry`` is only
    updated when the whole chunk is valid.
    """
    m = len(kinds)
    if m == 0:
        return True
    sk_all = np.asarray(kinds)
    if int(sk_all.min()) < OP_LOAD or int(sk_all.max()) > OP_DELETE:
        return False
    v_all = np.asarray(vids, dtype=np.int64)
    if int(v_all.min()) < 0 or int(v_all.max()) >= c.n:
        return False
    order = np.argsort(vids, kind="stable")
    sv = v_all[order]
    sk = sk_all[order]
    is_start = np.empty(m, dtype=bool)
    is_start[0] = True
    np.not_equal(sv[1:], sv[:-1], out=is_start[1:])

    is_load = sk == OP_LOAD
    is_store = sk == OP_STORE
    is_comp = sk == OP_COMPUTE

    # Red state *after* each row, assuming the row is valid (STORE keeps
    # red set; an invalid STORE trips its own red-before check first, so
    # the earliest violated row always sees state derived from a valid
    # prefix).  "Red before row r" is then the previous row's state-after
    # within the vertex segment, or the carried-in state at a segment
    # start — no prefix-scan needed.
    aft = np.where(sk == OP_DELETE, 0, 1).astype(np.int8)
    red_before = np.empty(m, dtype=np.int8)
    red_before[1:] = aft[:-1]
    red_before[0] = 0
    np.copyto(red_before, carry.red[sv], where=is_start)

    # Blue before: any earlier in-segment STORE, else carried-in.
    ar = np.arange(m, dtype=np.int64)
    seg_idx = np.flatnonzero(is_start)
    seg_first = np.repeat(
        seg_idx, np.diff(np.append(seg_idx, m))
    )
    si = np.where(is_store, ar, -1)
    incl_st = np.maximum.accumulate(si)
    ps = np.empty(m, dtype=np.int64)
    ps[0] = -1
    ps[1:] = incl_st[:-1]
    blue_before = (ps >= seg_first) | (carry.blue[sv] != 0)

    # R1/R2/R4: expected red-before per opcode (COMPUTE checked apart).
    bad = red_before != _EXP_RED[sk]
    bad &= ~is_comp
    bad |= is_load & ~blue_before
    ok = not bool(bad.any())

    rbw = carry.white is not None
    if rbw:
        wi = np.where(is_load | is_comp, ar, -1)
        incl_w = np.maximum.accumulate(wi)
        pw = np.empty(m, dtype=np.int64)
        pw[0] = -1
        pw[1:] = incl_w[:-1]
        white_before = (pw >= seg_first) | (carry.white[sv] != 0)

    cv = sv[is_comp]
    if cv.size:
        ok = ok and not bool(np.any(c.is_input_mask[cv]))
        if rbw:
            ok = ok and not bool(np.any(white_before[is_comp]))
        # R3 operands-red: resolve each (operand, compute-time) query
        # against the (vertex, time) keys of all rows — ``order`` is
        # ascending within each segment, so the keys are strictly
        # increasing and one searchsorted finds the last earlier event.
        pred_indptr = c.pred_indptr.astype(np.int64, copy=False)
        p0 = pred_indptr[cv]
        pcnt = pred_indptr[cv + 1] - p0
        Ec = int(pcnt.sum())
        if Ec:
            excl = np.zeros(len(pcnt), dtype=np.int64)
            np.cumsum(pcnt[:-1], out=excl[1:])
            offs = np.repeat(p0 - excl, pcnt) + np.arange(Ec)
            qp = c.pred_indices[offs].astype(np.int64)
            qt = np.repeat(order[is_comp], pcnt)
            ck = sv * m + order
            j = np.searchsorted(ck, qp * m + qt) - 1
            jc = np.maximum(j, 0)
            hit = (j >= 0) & (sv[jc] == qp)
            state = np.where(hit, aft[jc], carry.red[qp])
            ok = ok and bool(np.all(state == 1))

    # Capacity: running red count in original move order.
    delta = _DELTA_RED[sk_all]
    if cv.size:
        delta[order[is_comp]] = 1 - red_before[is_comp]
    run = np.cumsum(delta, dtype=np.int64)
    peak = int(run.max()) + carry.count
    ok = ok and peak <= num_red

    if not ok:
        return False

    # Commit carried state at each value's last event in the chunk.
    is_end = np.empty(m, dtype=bool)
    is_end[:-1] = is_start[1:]
    is_end[-1] = True
    vend = sv[is_end]
    carry.red[vend] = aft[is_end]
    carry.blue[vend] |= incl_st[is_end] >= seg_first[is_end]
    if rbw:
        carry.white[vend] |= incl_w[is_end] >= seg_first[is_end]
    carry.count += int(run[-1])
    if peak > carry.peak:
        carry.peak = peak
    return True


# ======================================================================
# Sequential drivers
# ======================================================================
def sequential_spill_kernel(
    game,
    cdag,
    num_red: int,
    sched_ids: np.ndarray,
    policy: str,
    rbw: bool,
):
    """Fast driver behind ``spill_game_rbw``/``spill_game_redblue``
    (``backend="batched"``): plan -> splice -> validate -> bulk append,
    one chunk of macro-steps at a time.  ``sched_ids`` is the checked
    schedule (:func:`~repro.core.ordering.schedule_ids`).  Move-for-move
    equal to the ``dict`` reference loop."""
    from .strategies import _check_capacity

    mode = kernel_mode()
    c = cdag.compiled()
    plan = _build_seq_plan(c, sched_ids)
    _check_capacity(
        num_red, [plan.max_need] if plan.nops else [], "S"
    )
    if policy == "belady":
        chunks = _plan_belady(plan, c, num_red)
    elif plan.arity1 and mode == "numba" and numba_available():
        chunks = _plan_lru_arity1_numba(plan, c, num_red)
    elif plan.arity1:
        chunks = _plan_lru_arity1(plan, c, num_red)
    else:
        chunks = _plan_lru_generic(plan, c, num_red)

    log = game.record.log
    carry = _SeqCarry(c, rbw)
    a = 0
    with gc_paused():
        for out in chunks:
            b = min(a + _CHUNK_OPS, plan.nops)
            kinds, vids = _splice_seq(plan, a, b, out)
            if not _validate_seq_chunk(c, kinds, vids, carry, num_red):
                raise GameError(
                    "kernel planner produced an invalid move sequence"
                )
            log.extend_block(kinds, vids)
            a = b
    game.red_ids = set(np.flatnonzero(carry.red).tolist())
    game.blue_ids = set(np.flatnonzero(carry.blue).tolist())
    if rbw:
        game.white_ids = set(np.flatnonzero(carry.white).tolist())
    game.record.peak_red = carry.peak
    game.assert_complete()
    return game.record


def replay_sequential_kernel(game, log, rbw: bool) -> bool:
    """Bulk-validate and bulk-append a bound columnar log during engine
    replay.  Returns True on success (the game holds the final state);
    on any invalid chunk the game is reset and False is returned so the
    caller can fall back to the per-move loop for exact diagnostics."""
    c = game._c
    carry = _SeqCarry(c, rbw)
    out_log = game.record.log
    for kinds, vids in log.select_columns("kinds", "vertex_ids"):
        for lo in range(0, len(kinds), _REPLAY_SLICE_ROWS):
            k = kinds[lo:lo + _REPLAY_SLICE_ROWS]
            v = vids[lo:lo + _REPLAY_SLICE_ROWS]
            if not _validate_seq_chunk(c, k, v, carry, game.num_red):
                game.reset()
                return False
            out_log.extend_block(k, v)
    game.red_ids = set(np.flatnonzero(carry.red).tolist())
    game.blue_ids = set(np.flatnonzero(carry.blue).tolist())
    if rbw:
        game.white_ids = set(np.flatnonzero(carry.white).tolist())
    game.record.peak_red = carry.peak
    return True


# ---------------------------------------------------------------------------
# Parallel (P-RBW) half: hierarchy tables, bulk validator, replay
# ---------------------------------------------------------------------------

#: held-state expected *before* each P-RBW opcode within a (vertex,
#: instance) pair: place ops (LOAD/COMPUTE/REMOTE_GET/MOVE_UP/MOVE_DOWN)
#: require the pebble absent, STORE/DELETE require it present.
_EXP_HELD = np.array([0, 1, 0, 1, 0, 0, 0], dtype=np.int8)
#: per-instance occupancy delta of each opcode (STORE leaves it alone)
_DELTA_HELD = np.array([1, 0, 1, -1, 1, 1, 1], dtype=np.int8)

#: "no such row" in the validator's first-occurrence scratch
_UNSET = np.iinfo(np.int64).max

#: refuse the bulk parallel path when the flat (vertex, instance) held
#: matrix would exceed this many bytes — fall back to the per-move loop
_PAR_HELD_GATE = 1 << 26


class _HierTab:
    """Flat id-space tables for one hierarchy *shape*.

    Instances are numbered ``iid = level_base[level] + index`` with the
    level-1 register files first, so a level-1 iid equals its processor
    number.  All parent/child arithmetic of
    :class:`~repro.pebbling.hierarchy.MemoryHierarchy` is baked into
    LUTs so the validator never leaves numpy.
    """

    __slots__ = (
        "L",
        "NI",
        "level_base",
        "cnt_by_level",
        "caps",
        "parent_iid",
        "child0",
        "child_cnt",
        "iid_level",
        "iid_index",
        "num_procs",
    )


def _build_hier_tab(hierarchy) -> _HierTab:
    L = hierarchy.num_levels
    counts = [hierarchy.instances(lvl) for lvl in range(1, L + 1)]
    tab = _HierTab()
    tab.L = L
    tab.num_procs = counts[0]
    level_base = np.zeros(L + 2, dtype=np.int64)
    np.cumsum(counts, out=level_base[2:])
    tab.level_base = level_base
    cnt_by_level = np.zeros(L + 2, dtype=np.int64)
    cnt_by_level[1 : L + 1] = counts
    tab.cnt_by_level = cnt_by_level
    NI = int(level_base[L + 1])
    tab.NI = NI
    caps = np.full(NI, -1, dtype=np.int64)
    for lvl in range(1, L + 1):
        cap = hierarchy.capacity(lvl)
        if cap is not None:
            base = int(level_base[lvl])
            caps[base : base + counts[lvl - 1]] = cap
    tab.caps = caps
    parent_iid = np.full(NI, -1, dtype=np.int64)
    for lvl in range(1, L):
        fan = counts[lvl - 1] // counts[lvl]
        idx = np.arange(counts[lvl - 1], dtype=np.int64)
        parent_iid[level_base[lvl] + idx] = level_base[lvl + 1] + idx // fan
    tab.parent_iid = parent_iid
    child0 = np.full(NI, -1, dtype=np.int64)
    child_cnt = np.zeros(NI, dtype=np.int64)
    for lvl in range(2, L + 1):
        fan = counts[lvl - 2] // counts[lvl - 1]
        idx = np.arange(counts[lvl - 1], dtype=np.int64)
        child0[level_base[lvl] + idx] = level_base[lvl - 1] + idx * fan
        child_cnt[level_base[lvl] + idx] = fan
    tab.child0 = child0
    tab.child_cnt = child_cnt
    tab.iid_level = np.repeat(
        np.arange(1, L + 1, dtype=np.int64), counts
    )
    tab.iid_index = np.concatenate(
        [np.arange(cn, dtype=np.int64) for cn in counts]
    )
    return tab


class _ParCarry:
    """Cross-chunk P-RBW state: the flat held matrix, per-instance
    occupancy, blue/white sets, and the traffic counters."""

    __slots__ = ("held", "occ", "blue", "white", "touched", "h_io", "v_io",
                 "comp", "first")

    def __init__(self, c, tab: _HierTab) -> None:
        self.held = np.zeros(c.n * tab.NI, dtype=np.int8)
        #: per-vertex scratch of the validator's first-occurrence
        #: queries; every entry is ``_UNSET`` between chunks
        self.first = np.full(c.n, _UNSET, dtype=np.int64)
        self.occ = np.zeros(tab.NI, dtype=np.int64)
        self.blue = np.zeros(c.n, dtype=np.uint8)
        self.blue[c.input_ids] = 1
        self.white = np.zeros(c.n, dtype=np.uint8)
        self.touched = np.zeros(tab.NI, dtype=bool)
        self.h_io = np.zeros(int(tab.cnt_by_level[tab.L]), dtype=np.int64)
        self.v_io = np.zeros(tab.NI, dtype=np.int64)
        self.comp = np.zeros(tab.num_procs, dtype=np.int64)


def _validate_par_chunk(c, tab, carry, kinds, vids, locs, srcs) -> bool:
    """Check every P-RBW rule (R1-R7, capacities, canonical sources) over
    one column chunk; commit the carry state only when all rows pass.

    The held state uses the same trick as the sequential validator: a
    stable sort by ``vertex * NI + iid`` makes each (vertex, instance)
    pair's moves contiguous, and the state *after* a valid row depends
    only on its opcode, so "held before row t" is a one-element shift.
    Blue/white need a second sort (by vertex: they are hierarchy-wide),
    occupancy a third (by instance).  Source operands (R3 src, R4
    parent, R5 first-holding child, R6 predecessors) become one combined
    ``searchsorted`` against the held-sorted keys.
    """
    m = len(kinds)
    if m == 0:
        return True
    k = np.asarray(kinds)
    if int(k.min()) < OP_LOAD or int(k.max()) > OP_MOVE_DOWN:
        return False
    v64 = np.asarray(vids, dtype=np.int64)
    if int(v64.min()) < 0 or int(v64.max()) >= c.n:
        return False
    locs64 = np.asarray(locs, dtype=np.int64)
    lvl = locs64 >> _INST_SHIFT
    idx = locs64 & _INST_MASK
    L = tab.L
    if int(lvl.min()) < 1 or int(lvl.max()) > L:
        return False
    if np.any(idx >= tab.cnt_by_level[lvl]):
        return False
    liid = tab.level_base[lvl] + idx

    is_load = k == OP_LOAD
    is_comp = k == OP_COMPUTE
    is_rg = k == OP_REMOTE_GET
    is_mu = k == OP_MOVE_UP
    is_md = k == OP_MOVE_DOWN

    bad = (is_load | (k == OP_STORE) | is_rg) & (lvl != L)
    bad |= is_comp & (lvl != 1)
    bad |= is_mu & (lvl == L)
    bad |= is_md & (lvl == 1)
    if bad.any():
        return False

    srcs64 = np.asarray(srcs, dtype=np.int64)
    need_src = is_rg | is_mu | is_md
    if np.any(srcs64[~need_src] != _NO_INST):
        return False
    slvl = srcs64 >> _INST_SHIFT
    sidx = srcs64 & _INST_MASK
    ns = np.flatnonzero(need_src)
    s_iid = np.zeros(m, dtype=np.int64)
    if ns.size:
        sl = slvl[ns]
        if int(sl.min()) < 1 or int(sl.max()) > L:
            return False
        if np.any(sidx[ns] >= tab.cnt_by_level[sl]):
            return False
        s_iid[ns] = tab.level_base[sl] + sidx[ns]
    if np.any(is_rg & ((slvl != L) | (sidx == idx))):
        return False
    if np.any(is_mu & (s_iid != tab.parent_iid[liid])):
        return False
    md_rows = np.flatnonzero(is_md)
    if md_rows.size:
        c0 = tab.child0[liid[md_rows]]
        if np.any(s_iid[md_rows] < c0) or np.any(
            s_iid[md_rows] >= c0 + tab.child_cnt[liid[md_rows]]
        ):
            return False
    if np.any(c.is_input_mask[v64[is_comp]]):
        return False

    # --- held state: stable sort by (vertex, instance) pair -------------
    NI = tab.NI
    vk = v64 * NI + liid
    order = np.argsort(vk, kind="stable")
    svk = vk[order]
    sk = k[order]
    is_start = np.empty(m, dtype=bool)
    is_start[0] = True
    np.not_equal(svk[1:], svk[:-1], out=is_start[1:])
    aft = np.where(sk == OP_DELETE, 0, 1).astype(np.int8)
    held_before = np.empty(m, dtype=np.int8)
    held_before[0] = 0
    held_before[1:] = aft[:-1]
    np.copyto(held_before, carry.held[svk], where=is_start)
    if np.any(held_before != _EXP_HELD[sk]):
        return False

    # --- blue/white: monotone hierarchy-wide sets -----------------------
    # Blue is only ever *added* (STORE) and white only ever added (LOAD /
    # COMPUTE), so "blue before row t" reduces to "carried in, or some
    # STORE of v strictly earlier in the chunk" — a first-occurrence
    # scatter per vertex instead of a third sort.  The scatter target is
    # the carry's per-vertex scratch, reset to unset right after use, so
    # a chunk costs O(rows) whatever the CDAG size.
    first = carry.first
    st_rows = np.flatnonzero(k == OP_STORE)
    load_rows = np.flatnonzero(is_load)
    if load_rows.size:
        st_v = v64[st_rows]
        first[st_v[::-1]] = st_rows[::-1]
        lv = v64[load_rows]
        ok = np.all((carry.blue[lv] != 0) | (first[lv] < load_rows))
        first[st_v] = _UNSET
        if not ok:
            return False
    comp_rows = np.flatnonzero(is_comp)
    w_rows = np.flatnonzero(is_load | is_comp)
    if comp_rows.size:
        # A COMPUTE must be the *first* white-setting move of its vertex
        # and the vertex must not carry white in (no recomputation).
        w_v = v64[w_rows]
        first[w_v[::-1]] = w_rows[::-1]
        cv = v64[comp_rows]
        ok = not np.any(carry.white[cv] != 0) and np.all(
            first[cv] == comp_rows
        )
        first[w_v] = _UNSET
        if not ok:
            return False

    # --- source operands: one searchsorted over the held-sorted keys ----
    ck = svk * m + order
    qk_parts: List[np.ndarray] = []
    qv_parts: List[np.ndarray] = []
    qe_parts: List[np.ndarray] = []
    rg_mu = np.flatnonzero(is_rg | is_mu)
    if rg_mu.size:
        qv = v64[rg_mu] * NI + s_iid[rg_mu]
        qk_parts.append(qv * m + rg_mu)
        qv_parts.append(qv)
        qe_parts.append(np.ones(rg_mu.size, dtype=np.int8))
    if md_rows.size:
        # Canonical source: the *first* (lowest-iid) held child.  Expand
        # queries over children up to and including the logged source —
        # earlier ones must be absent, the source itself present.
        c0 = tab.child0[liid[md_rows]]
        span = s_iid[md_rows] - c0 + 1
        tot = int(span.sum())
        excl = np.zeros(md_rows.size, dtype=np.int64)
        np.cumsum(span[:-1], out=excl[1:])
        rel = np.arange(tot, dtype=np.int64) - np.repeat(excl, span)
        q_child = np.repeat(c0, span) + rel
        qv = np.repeat(v64[md_rows], span) * NI + q_child
        qk_parts.append(qv * m + np.repeat(md_rows, span))
        qv_parts.append(qv)
        qe_parts.append(
            (q_child == np.repeat(s_iid[md_rows], span)).astype(np.int8)
        )
    if comp_rows.size:
        cv = v64[comp_rows]
        pred_indptr = c.pred_indptr.astype(np.int64, copy=False)
        p0 = pred_indptr[cv]
        pcnt = pred_indptr[cv + 1] - p0
        E = int(pcnt.sum())
        if E:
            excl = np.zeros(comp_rows.size, dtype=np.int64)
            np.cumsum(pcnt[:-1], out=excl[1:])
            offs = np.repeat(p0 - excl, pcnt) + np.arange(E, dtype=np.int64)
            qp = c.pred_indices[offs].astype(np.int64)
            qv = qp * NI + np.repeat(liid[comp_rows], pcnt)
            qk_parts.append(qv * m + np.repeat(comp_rows, pcnt))
            qv_parts.append(qv)
            qe_parts.append(np.ones(E, dtype=np.int8))
    if qk_parts:
        qk = np.concatenate(qk_parts)
        qvk = np.concatenate(qv_parts)
        qe = np.concatenate(qe_parts)
        j = np.searchsorted(ck, qk) - 1
        jc = np.maximum(j, 0)
        hit = (j >= 0) & (svk[jc] == qvk)
        state = np.where(hit, aft[jc], carry.held[qvk])
        if np.any(state != qe):
            return False

    # --- per-instance occupancy: stable sort by instance ----------------
    # (int16 keys when they fit: numpy's stable argsort is a radix sort
    # for <=16-bit integers, an O(m) pass instead of a comparison sort)
    sort_iid = liid.astype(np.int16) if NI <= 32767 else liid
    orderi = np.argsort(sort_iid, kind="stable")
    sl_iid = liid[orderi]
    dl = _DELTA_HELD[k[orderi]].astype(np.int64)
    starti = np.empty(m, dtype=bool)
    starti[0] = True
    np.not_equal(sl_iid[1:], sl_iid[:-1], out=starti[1:])
    run = np.cumsum(dl)
    segi = np.flatnonzero(starti)
    seg_excl = np.repeat((run - dl)[segi], np.diff(np.append(segi, m)))
    occ_run = run - seg_excl + carry.occ[sl_iid]
    caps_r = tab.caps[sl_iid]
    if np.any((caps_r >= 0) & (occ_run > caps_r)):
        return False

    # --- all rows valid: commit carry state and counters ----------------
    is_end = np.empty(m, dtype=bool)
    is_end[:-1] = is_start[1:]
    is_end[-1] = True
    carry.held[svk[is_end]] = aft[is_end]
    carry.blue[v64[st_rows]] = 1
    carry.white[v64[w_rows]] = 1
    endi = np.empty(m, dtype=bool)
    endi[:-1] = starti[1:]
    endi[-1] = True
    carry.occ[sl_iid[endi]] = occ_run[endi]
    carry.touched[liid[_DELTA_HELD[k] == 1]] = True
    hmask = is_load | is_rg
    if hmask.any():
        carry.h_io += np.bincount(idx[hmask], minlength=len(carry.h_io))
    if is_mu.any():
        carry.v_io += np.bincount(s_iid[is_mu], minlength=NI)
    if md_rows.size:
        carry.v_io += np.bincount(liid[md_rows], minlength=NI)
    if comp_rows.size:
        carry.comp += np.bincount(idx[comp_rows], minlength=len(carry.comp))
    return True


def _finalize_parallel(game, tab: _HierTab, carry: _ParCarry) -> None:
    """Rebuild the engine's dict/set state from the carry arrays."""
    c = game._c
    held = carry.held.reshape(c.n, tab.NI)
    vs, iids = np.nonzero(held)
    pebbles: dict = {}
    occupancy: dict = {}
    for t in np.flatnonzero(carry.touched).tolist():
        occupancy[(int(tab.iid_level[t]), int(tab.iid_index[t]))] = set()
    for v, lv, ix in zip(
        vs.tolist(),
        tab.iid_level[iids].tolist(),
        tab.iid_index[iids].tolist(),
    ):
        inst = (lv, ix)
        pebbles.setdefault(v, set()).add(inst)
        occupancy.setdefault(inst, set()).add(v)
    game.pebbles_ids = pebbles
    game.occupancy_ids = occupancy
    game.blue_ids = set(np.flatnonzero(carry.blue).tolist())
    game.white_ids = set(np.flatnonzero(carry.white).tolist())
    record = game.record
    for t in np.flatnonzero(carry.v_io).tolist():
        inst = (int(tab.iid_level[t]), int(tab.iid_index[t]))
        record.vertical_io[inst] = int(carry.v_io[t])
    for nd in np.flatnonzero(carry.h_io).tolist():
        record.horizontal_io[int(nd)] = int(carry.h_io[nd])
    for p in np.flatnonzero(carry.comp).tolist():
        record.compute_per_processor[int(p)] = int(carry.comp[p])


def parallel_spill_kernel(game, hierarchy, assign, sched_ids, c):
    """Fast driver behind ``parallel_spill_game`` (``backend="batched"``).

    Plans the owner-computes moves over flat int state: instances are
    numbered as in :class:`_HierTab` (a level-1 id is its processor),
    each vertex carries one shade bitmask, each instance one occupancy
    count, and each bounded instance an id-indexed ``last_use`` array
    plus a lazy-deletion min-heap of int keys ``(last_use + 1) * n +
    id`` (stale entries are dropped on pop, pinned ones set aside).
    Every move's four column values go to one flat list, one log block
    of rows at a time; :func:`_validate_par_chunk` rule-checks them
    ``_CHUNK_OPS`` rows at a time before one ``extend_block`` appends
    the block, and :func:`_finalize_parallel` sets the engine state and
    counters at the end.  Where the validator's held matrix would pass
    ``_PAR_HELD_GATE``, the rows go through the engine's per-move steps
    instead, so play is rule-checked at every size.

    Move-for-move equal to the ``dict`` reference loop, whose choices
    among several copies take ascending ``(level, index)``: a retired
    value's DELETE rows, the level-L holder a remote get reads, and the
    copy pushed down when no level-L copy exists (highest level, then
    lowest index).  ``assign`` is the id-indexed processor list and
    ``sched_ids`` the checked schedule.
    """
    tab = _build_hier_tab(hierarchy)
    n = c.n
    L = tab.L
    base = tab.level_base.tolist()
    top = base[L]  # iids at or above this are level-L memories
    # -1 = unbounded, so ``occ[t] >= caps[t] >= 0`` reads "t is full"
    caps = tab.caps.tolist()
    parent = tab.parent_iid.tolist()
    child0 = tab.child0.tolist()
    child_mask = [(1 << k) - 1 for k in tab.child_cnt.tolist()]
    levels = tab.iid_level.tolist()
    indices = tab.iid_index.tolist()
    pack = [(lv << _INST_SHIFT) | ix for lv, ix in zip(levels, indices)]
    # A value evicted from t is persisted by another shade at a higher
    # level (or at level L): those are the bits from this shift up.
    above = [base[min(lv + 1, L)] for lv in levels]
    paths = []  # processor -> its iids at levels 1..L
    for p in range(tab.num_procs):
        path = [p]
        while len(path) < L:
            path.append(parent[path[-1]])
        paths.append(path)
    last_use = [[-1] * n if cap >= 0 else None for cap in caps]
    heaps = [[] for _ in caps]

    sh = [0] * n
    occ = [0] * tab.NI
    blue = bytearray(n)
    for j in c.input_ids.tolist():
        blue[j] = 1
    remaining = c.out_degree.tolist()
    is_input = c.is_input_mask.tolist()
    is_output = c.is_output_mask.tolist()
    pred_lists = c.pred_lists
    rows: List[int] = []  # (opcode, vertex, location, source) per move
    emit = rows.extend

    def move_down(u, t):
        """R5: ``u`` into ``t`` from its first holding child; the copy
        joins ``t`` with its historical recency."""
        s = sh[u]
        x = (s >> child0[t]) & child_mask[t]
        src = child0[t] + (x & -x).bit_length() - 1
        sh[u] = s | (1 << t)
        occ[t] += 1
        emit((OP_MOVE_DOWN, u, pack[t], pack[src]))
        lu = last_use[t]
        if lu is not None:
            heappush(heaps[t], (lu[u] + 1) * n + u)

    def persist(u, t, pinned):
        """Keep a copy of ``u`` before it leaves ``t``: only a shade
        above ``t`` (or another level-L one) already does."""
        if blue[u]:
            return
        s = sh[u]
        if (s & ~(1 << t)) >> above[t]:
            return
        if t >= top:
            emit((OP_STORE, u, pack[t], _NO_INST))
            blue[u] = 1
            return
        pt = parent[t]
        if not s >> pt & 1:
            if occ[pt] >= caps[pt] >= 0:
                make_room(pt, pinned)
            move_down(u, pt)

    def make_room(t, pinned):
        """Evict LRU values of bounded instance ``t`` (lowest id among
        equal recencies, never a pinned one) until a slot is free."""
        cap = caps[t]
        heap = heaps[t]
        lu = last_use[t]
        bit = 1 << t
        if len(heap) > 64 and len(heap) > 8 * occ[t]:
            # Compact: keep each resident value's one current key.
            live = set()
            for e in heap:
                u = e % n
                if sh[u] & bit and (lu[u] + 1) * n + u == e:
                    live.add(e)
            heap[:] = live
            heapify(heap)
        while occ[t] >= cap:
            aside = []
            victim = -1
            while heap:
                e = heap[0]
                u = e % n
                if not sh[u] & bit or (lu[u] + 1) * n + u != e:
                    heappop(heap)
                elif u in pinned:
                    aside.append(heappop(heap))
                else:
                    victim = u
                    break
            for e in aside:
                heappush(heap, e)
            if victim < 0:
                raise GameError(
                    f"storage {(levels[t], indices[t])} cannot make room: "
                    f"all {cap} resident values are pinned"
                )
            if remaining[victim] > 0 or (
                is_output[victim] and not blue[victim]
            ):
                persist(victim, t, pinned)
            sh[victim] &= ~bit
            occ[t] -= 1
            emit((OP_DELETE, victim, pack[t], _NO_INST))

    def bring_to_node(u, t, pinned):
        """Give ``u`` the level-L shade ``t``: R1 load, or R3 remote get
        from the lowest level-L holder, or from the home node after
        pushing the highest-level copy down to it."""
        s = sh[u]
        if s >> t & 1:
            return
        if blue[u]:
            emit((OP_LOAD, u, pack[t], _NO_INST))
        else:
            x = s >> top
            if x:
                src = top + (x & -x).bit_length() - 1
            else:
                if not s:
                    raise GameError(
                        f"value {c.vertex(u)!r} has been lost (no copy "
                        "exists)"
                    )
                lb = base[levels[s.bit_length() - 1]]
                y = s >> lb
                src = lb + (y & -y).bit_length() - 1
                while src < top:
                    src = parent[src]
                    if occ[src] >= caps[src] >= 0:
                        make_room(src, pinned)
                    move_down(u, src)
                if src == t:
                    return
            emit((OP_REMOTE_GET, u, pack[t], pack[src]))
        sh[u] |= 1 << t
        occ[t] += 1

    def bring_to_registers(u, path, pinned, clock):
        """Move ``u`` up ``path`` from the lowest level holding it
        (fetching it into the node's memory first when none does)."""
        s = sh[u]
        for k in range(1, L):
            if s >> path[k] & 1:
                break
        else:
            bring_to_node(u, path[L - 1], pinned)
            k = L - 1
        for j in range(k - 1, -1, -1):
            t = path[j]
            if not sh[u] >> t & 1:
                if occ[t] >= caps[t] >= 0:
                    make_room(t, pinned)
                emit((OP_MOVE_UP, u, pack[t], pack[path[j + 1]]))
                sh[u] |= 1 << t
                occ[t] += 1
            lu = last_use[t]
            if lu is not None:
                lu[u] = clock
                heappush(heaps[t], (clock + 1) * n + u)

    def retire(u):
        """R7 on every shade of a dead value, in ascending iid order."""
        s = sh[u]
        sh[u] = 0
        while s:
            low = s & -s
            t = low.bit_length() - 1
            occ[t] -= 1
            emit((OP_DELETE, u, pack[t], _NO_INST))
            s ^= low

    if n * tab.NI > _PAR_HELD_GATE:
        carry = None
        steps = game._replay_steps()
    else:
        carry = _ParCarry(c, tab)
    log = game.record.log

    def flush():
        """Rule-check the staged rows ``_CHUNK_OPS`` at a time and append
        them as one log block (the engine's own block size)."""
        if not rows:
            return
        if carry is None:
            it = iter(rows)
            for code, u, loc, src in zip(it, it, it, it):
                steps[code](u, loc, src)
        else:
            cols = np.array(rows, dtype=np.int32).reshape(-1, 4).T
            kinds = cols[0].astype(np.int8)
            for lo in range(0, len(kinds), _CHUNK_OPS):
                hi = lo + _CHUNK_OPS
                if not _validate_par_chunk(
                    c, tab, carry, kinds[lo:hi], cols[1, lo:hi],
                    cols[2, lo:hi], cols[3, lo:hi],
                ):
                    raise GameError(
                        "kernel planner produced an invalid move sequence"
                    )
            log.extend_block(kinds, cols[1], cols[2], cols[3])
        del rows[:]

    block = 4 * log.block_size
    clock = 0
    with gc_paused():
        for i in sched_ids.tolist():
            clock += 1
            if is_input[i]:
                continue
            reg = assign[i]
            path = paths[reg]
            preds = pred_lists[i]
            pinned = set(preds)
            pinned.add(i)
            rbit = 1 << reg
            rlu = last_use[reg]
            rheap = heaps[reg]
            key = (clock + 1) * n
            for p in preds:
                if not sh[p] & rbit:
                    bring_to_registers(p, path, pinned, clock)
                elif rlu is not None:
                    rlu[p] = clock
                    heappush(rheap, key + p)
            if occ[reg] >= caps[reg] >= 0:
                make_room(reg, pinned)
            emit((OP_COMPUTE, i, pack[reg], _NO_INST))
            sh[i] |= rbit
            occ[reg] += 1
            if rlu is not None:
                rlu[i] = clock
                heappush(rheap, key + i)
            if is_output[i]:
                # Push the result down to the node memory and store it.
                for t in path[1:]:
                    if not sh[i] >> t & 1:
                        if occ[t] >= caps[t] >= 0:
                            make_room(t, pinned)
                        move_down(i, t)
                emit((OP_STORE, i, pack[path[-1]], _NO_INST))
                blue[i] = 1
            for p in preds:
                r = remaining[p] - 1
                remaining[p] = r
                if r == 0 and (blue[p] or not is_output[p]):
                    retire(p)
            if remaining[i] == 0 and not is_output[i]:
                retire(i)
            if len(rows) >= block:
                flush()
        flush()
    if carry is not None:
        _finalize_parallel(game, tab, carry)
    game.assert_complete()
    return game.record


def replay_parallel_kernel(game, log) -> bool:
    """Bulk-validate and bulk-append a bound columnar P-RBW log during
    engine replay.  Returns True on success (the game holds the final
    state); on any invalid chunk the game is reset and False is returned
    so the caller falls back to the per-move loop for exact diagnostics.
    """
    c = game._c
    tab = _build_hier_tab(game.hierarchy)
    if c.n * tab.NI > _PAR_HELD_GATE:
        return False
    carry = _ParCarry(c, tab)
    out_log = game.record.log
    for kinds, vids, lcs, scs in log.iter_chunks():
        for lo in range(0, len(kinds), _REPLAY_SLICE_ROWS):
            hi = lo + _REPLAY_SLICE_ROWS
            k, v = kinds[lo:hi], vids[lo:hi]
            lc, sc = lcs[lo:hi], scs[lo:hi]
            if not _validate_par_chunk(c, tab, carry, k, v, lc, sc):
                game.reset()
                return False
            out_log.extend_block(k, v, lc, sc)
    _finalize_parallel(game, tab, carry)
    return True
