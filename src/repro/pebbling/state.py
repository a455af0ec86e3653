"""Move vocabulary, the columnar move log, and game records shared by the
pebble-game engines.

A pebble game is recorded as a sequence of *moves*.  Each engine
(red-blue, RBW, parallel RBW) validates moves against its own rule set
but shares this vocabulary:

* ``LOAD``     — rule R1: slow memory -> fast memory (red pebble placed on
  a blue-pebbled vertex);
* ``STORE``    — rule R2: fast memory -> slow memory (blue pebble placed on
  a red-pebbled vertex);
* ``COMPUTE``  — rule R3/R6: fire an operation vertex;
* ``DELETE``   — rule R4/R7: remove a red pebble (free fast memory);
* ``REMOTE_GET`` — P-RBW rule R3: copy between two level-L memories across
  the interconnect (horizontal data movement);
* ``MOVE_UP``  — P-RBW rule R4: copy from a level-(l+1) store to one of its
  child level-l stores (vertical movement, toward the processor);
* ``MOVE_DOWN`` — P-RBW rule R5: copy from a level-(l-1) store to its
  parent level-l store (vertical movement, away from the processor).

Columnar storage
----------------
Games at the scales the compiled CDAG backend targets (10^6+ moves) can
no longer afford one :class:`Move` object per transition.  The engines
therefore append into a :class:`MoveLog`: parallel columns of small
integers — ``(opcode, vertex_id, location, source)``, with the row index
serving as the step/timestamp — staged in plain-int Python lists and
flushed to compact numpy blocks every ``block_size`` appends.  A 10^6-move
P-RBW log costs ~13 MB of arrays instead of hundreds of MB of dataclass
instances.

:class:`Move` objects still exist, but only as a *lazy view*: iterating or
indexing a :class:`MoveLog` (or ``GameRecord.moves``, which simply returns
the log) materializes ``Move`` instances on demand, so all seed-era call
sites (``for m in record.moves``, ``len(record.moves)``,
``game.replay(record.moves)``) keep working unchanged, while column-aware
consumers (engine ``replay``, ``partition_from_game``, the distsim
executor) read the integer arrays directly.

Usage example (doctest)::

    >>> from repro.core.builders import chain_cdag
    >>> from repro.pebbling import RBWPebbleGame
    >>> game = RBWPebbleGame(chain_cdag(2), num_red=2)
    >>> game.load(("chain", 0)); game.compute(("chain", 1))
    >>> game.delete(("chain", 0)); game.compute(("chain", 2))
    >>> game.store(("chain", 2))
    >>> record = game.record
    >>> record.io_count, record.compute_count, record.peak_red
    (2, 2, 2)
    >>> [m.kind.name for m in record.moves]
    ['LOAD', 'COMPUTE', 'DELETE', 'COMPUTE', 'STORE']
    >>> record.moves[1].kind, record.moves[1].vertex
    (<MoveKind.COMPUTE: 'compute'>, ('chain', 1))
    >>> record.log.kinds().tolist()  # the raw opcode column
    [0, 2, 3, 2, 1]
    >>> int(record.log.steps[-1])   # step/timestamp == row index
    4
"""

from __future__ import annotations

import enum
import os
import shutil
import tempfile
import weakref
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.cdag import Vertex

__all__ = [
    "MoveKind",
    "Move",
    "MoveLog",
    "GameRecord",
    "GameError",
    "VertexSetView",
    "CompiledEngineMixin",
    "OP_LOAD",
    "OP_STORE",
    "OP_COMPUTE",
    "OP_DELETE",
    "OP_REMOTE_GET",
    "OP_MOVE_UP",
    "OP_MOVE_DOWN",
    "encode_instance",
    "decode_instance",
]


class VertexSetView:
    """Read-only, set-like view of id-based engine state in vertex space.

    The pebble-game engines track pebbles as sets of integer vertex ids
    over a :class:`~repro.core.compiled.CompiledCDAG`; this view lets
    callers keep using vertex names (``v in game.red``,
    ``game.blue == {...}``) without the engines paying tuple hashing on
    the hot path.  It reflects the live engine state — membership checks
    after further moves see the updated pebbles.
    """

    __slots__ = ("_ids", "_c")

    def __init__(self, ids, compiled) -> None:
        self._ids = ids
        self._c = compiled

    def __contains__(self, v) -> bool:
        i = self._c._index.get(v)
        return i is not None and i in self._ids

    def __iter__(self):
        verts = self._c._verts
        return iter([verts[i] for i in self._ids])

    def __len__(self) -> int:
        return len(self._ids)

    def __bool__(self) -> bool:
        return bool(self._ids)

    def __eq__(self, other) -> bool:
        if isinstance(other, VertexSetView):
            return self._c is other._c and self._ids == other._ids
        if isinstance(other, (set, frozenset)):
            return set(self) == other
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VertexSetView({set(self)!r})"


class CompiledEngineMixin:
    """Shared id-space plumbing for the pebble-game engines.

    Engines set ``self.cdag`` and call :meth:`_bind` once during
    construction; :meth:`_rebind_if_stale` (called from ``reset``)
    refreshes every derived cache when the CDAG was mutated or re-tagged
    since the last bind.  Subclasses hook :meth:`_bind_extra` for
    engine-specific caches so the rebind invariant lives in one place.
    """

    def _bind(self) -> None:
        """(Re)derive the id-space caches from the current compiled CDAG."""
        self._c = self.cdag.compiled()
        self._pred_lists = self._c.pred_lists
        self._is_input = self._c.is_input_mask.tolist()
        self._input_ids = self._c.input_ids.tolist()
        self._output_ids = self._c.output_ids.tolist()
        self._bind_extra()

    def _bind_extra(self) -> None:
        """Hook for engine-specific derived caches."""

    def _rebind_if_stale(self) -> None:
        if self.cdag._compiled is not self._c:
            self._bind()

    def _new_record(self) -> "GameRecord":
        """A fresh :class:`GameRecord` whose log is bound to the compiled
        CDAG; also caches the hot bound-method ``self._log_append``.

        Engines that set ``self.log_spill`` (any value accepted by
        :class:`MoveLog`'s ``spill`` parameter) record into a disk-backed
        log, keeping resident memory flat at 10^8-move scale."""
        record = GameRecord(
            log=MoveLog(
                compiled=self._c,
                block_size=getattr(self, "log_block_size", 65536),
                spill=getattr(self, "log_spill", False),
            )
        )
        self._log_append = record.log.append_ids
        return record

    def _id(self, v: Vertex) -> int:
        try:
            return self._c._index[v]
        except KeyError:
            raise GameError(f"unknown vertex {v!r}") from None


class GameError(RuntimeError):
    """Raised when a move violates the rules of the pebble game."""


class MoveKind(enum.Enum):
    """The kinds of transitions a pebble game may record."""

    LOAD = "load"            # R1: blue -> red
    STORE = "store"          # R2: red -> blue
    COMPUTE = "compute"      # R3 (sequential) / R6 (parallel)
    DELETE = "delete"        # R4 (sequential) / R7 (parallel)
    REMOTE_GET = "remote_get"  # P-RBW R3 (horizontal)
    MOVE_UP = "move_up"      # P-RBW R4 (level l+1 -> l)
    MOVE_DOWN = "move_down"  # P-RBW R5 (level l-1 -> l)


#: Integer opcodes of the move-log ``kinds`` column, in a fixed order the
#: engines and benchmarks rely on (sequential rules first).
OP_LOAD = 0
OP_STORE = 1
OP_COMPUTE = 2
OP_DELETE = 3
OP_REMOTE_GET = 4
OP_MOVE_UP = 5
OP_MOVE_DOWN = 6

_KIND_LIST = [
    MoveKind.LOAD,
    MoveKind.STORE,
    MoveKind.COMPUTE,
    MoveKind.DELETE,
    MoveKind.REMOTE_GET,
    MoveKind.MOVE_UP,
    MoveKind.MOVE_DOWN,
]
_CODE_OF_KIND: Dict[MoveKind, int] = {k: i for i, k in enumerate(_KIND_LIST)}
_NUM_OPCODES = len(_KIND_LIST)

#: Storage instances ``(level, index)`` are packed into one int32 column:
#: ``level`` in the high bits, ``index`` in the low 24 bits; ``-1`` means
#: "no instance" (sequential moves).
_INST_SHIFT = 24
_INST_MASK = (1 << _INST_SHIFT) - 1
_NO_INST = -1

#: public column names accepted by :meth:`MoveLog.select_columns`, in
#: block-tuple order, and the dtype of each column
_COLUMN_INDEX = {
    "kinds": 0,
    "vertex_ids": 1,
    "locations": 2,
    "sources": 3,
}
_COLUMN_DTYPES = (np.int8, np.int32, np.int32, np.int32)


def encode_instance(inst: Optional[Tuple[int, int]]) -> int:
    """Pack a ``(level, index)`` storage instance into one int (-1 = None)."""
    if inst is None:
        return _NO_INST
    level, index = inst
    return (level << _INST_SHIFT) | index


def decode_instance(code: int) -> Optional[Tuple[int, int]]:
    """Inverse of :func:`encode_instance`."""
    if code < 0:
        return None
    return (code >> _INST_SHIFT, code & _INST_MASK)


@dataclass(frozen=True)
class Move:
    """One transition of a pebble game.

    ``location`` identifies which memory instance is involved for the
    parallel game: a ``(level, index)`` pair for loads/moves, or the
    processor index for computes.  Sequential games leave it ``None``.

    Engines no longer *store* ``Move`` objects — they fill the columnar
    :class:`MoveLog` — but moves materialize lazily whenever a log is
    iterated or indexed, so ``Move`` remains the unit of the public replay
    and inspection API.
    """

    kind: MoveKind
    vertex: Vertex
    location: Optional[Tuple[int, int]] = None
    source: Optional[Tuple[int, int]] = None

    def is_io(self) -> bool:
        """True for the moves that Hong-Kung count as I/O (R1 and R2)."""
        return self.kind in (MoveKind.LOAD, MoveKind.STORE)


def _release_spill(files: tuple, directory: str) -> None:
    """Close a spill store's column files and remove its directory.

    Module-level so ``weakref.finalize`` can call it without keeping the
    store alive; runs at most once per store (finalize semantics), from
    :meth:`_SpillStore.close`, garbage collection, or interpreter exit —
    whichever comes first — so worker-process teardown never leaks spill
    files.
    """
    for f in files:
        try:
            f.close()
        except OSError:  # pragma: no cover - already closed
            pass
    shutil.rmtree(directory, ignore_errors=True)


class _SpillStore:
    """Append-only on-disk block store for one :class:`MoveLog`.

    Each flushed block is appended to four per-column binary files inside
    a private temporary directory; reads go through ``numpy.memmap``, so
    paging a chunk back costs OS page-ins, not Python-heap allocations.
    The store owns its directory and removes it on :meth:`close` — or,
    failing that, when the ``weakref.finalize`` registered at
    construction fires on collection/interpreter exit (the spill is
    scratch backing storage for a live log, not an archive).
    """

    #: column name -> dtype, in the block tuple order of ``MoveLog._flush``
    _SPEC = (
        ("kinds", np.int8),
        ("vids", np.int32),
        ("locs", np.int32),
        ("srcs", np.int32),
    )

    __slots__ = (
        "directory", "paths", "rows", "_files", "_block_rows",
        "_finalizer", "__weakref__",
    )

    def __init__(self, base) -> None:
        if base is True:
            base = None
        elif base is not None:
            base = os.fspath(base)
            os.makedirs(base, exist_ok=True)
        self.directory = tempfile.mkdtemp(prefix="movelog-", dir=base)
        self.paths = {
            name: os.path.join(self.directory, name + ".bin")
            for name, _ in self._SPEC
        }
        self._files = {
            name: open(path, "wb") for name, path in self.paths.items()
        }
        self.rows = 0
        self._block_rows: List[int] = []
        self._finalizer = weakref.finalize(
            self, _release_spill, tuple(self._files.values()), self.directory
        )

    def append_block(self, kinds, vids, locs, srcs) -> None:
        n = len(kinds)
        if locs is None:
            locs = srcs = np.full(n, _NO_INST, dtype=np.int32)
        for (name, dtype), arr in zip(
            self._SPEC, (kinds, vids, locs, srcs)
        ):
            np.ascontiguousarray(arr, dtype=dtype).tofile(self._files[name])
        self._block_rows.append(n)
        self.rows += n

    def iter_blocks(
        self, columns: Optional[Sequence[int]] = None
    ) -> Iterator[tuple]:
        """Yield the stored blocks as read-only memmap column views.

        ``columns`` selects a subset of column indices (into ``_SPEC``) —
        only those files are memmapped, so a reader that needs just the
        opcode and vertex-id columns pages 5 bytes/move instead of 13.
        """
        if not self.rows:
            return
        if columns is None:
            columns = range(len(self._SPEC))
        maps = []
        for k in columns:
            name, dtype = self._SPEC[k]
            self._files[name].flush()
            maps.append(
                np.memmap(
                    self.paths[name], dtype=dtype, mode="r",
                    shape=(self.rows,),
                )
            )
        start = 0
        for n in self._block_rows:
            yield tuple(m[start:start + n] for m in maps)
            start += n

    @property
    def nbytes(self) -> int:
        """Bytes currently on disk across the four column files."""
        for f in self._files.values():
            f.flush()
        return sum(
            os.path.getsize(p) for p in self.paths.values()
            if os.path.exists(p)
        )

    def close(self) -> None:
        """Release files and directory (idempotent; safe to call twice)."""
        self._finalizer()


class MoveLog:
    """Columnar log of pebble-game moves: parallel numpy-backed columns.

    Four parallel columns — ``kinds`` (int8 opcode), ``vertex_ids``
    (int32), ``locations`` and ``sources`` (int32 packed ``(level,
    index)`` instances, ``-1`` when absent) — plus the implicit ``steps``
    column (the row index; every move advances the logical clock by one).
    Appends go into plain-int staging lists and are flushed to immutable
    numpy blocks every ``block_size`` entries, so a long game costs a few
    bytes per move instead of a ~200-byte ``Move`` dataclass.

    Vertex encoding: when the log is bound to a
    :class:`~repro.core.compiled.CompiledCDAG` (``compiled=...``), vertex
    ids are the compiled ids (>= 0).  Vertices outside the table — or any
    vertex when the log is unbound, as in hand-built
    :class:`GameRecord` objects — are interned into a local side table and
    encoded as negative ids.  Engine-produced logs never contain negative
    ids, which is what the column fast paths check via :meth:`is_bound_to`.

    The log is a lazy sequence of :class:`Move` objects: ``len``,
    iteration, indexing and slicing all work, materializing moves on
    demand only.

    Spilling
    --------
    With ``spill`` set (``True`` for a fresh system temp directory, or a
    directory path to spill under), every flushed block is appended to
    on-disk column files instead of being kept as in-RAM numpy arrays:
    resident memory stays bounded by one ``block_size`` staging block no
    matter how long the game runs (a 10^8-move P-RBW log is ~1.3 GB of
    column files but a few hundred KB of RAM).  Chunk-aware consumers —
    the engines' ``replay``, ``partition_from_game``,
    ``DistributedExecutor.run_record``, :meth:`counts`,
    :meth:`ids_of_kind`, iteration — page the blocks back through
    :meth:`iter_chunks` (``numpy.memmap`` views) and never materialize
    the full columns; :meth:`columns` still works but concatenates
    everything into RAM, so avoid it on spilled logs.  The spill files
    are scratch storage owned by the log, removed on :meth:`close` or
    garbage collection.
    """

    __slots__ = (
        "_compiled",
        "block_size",
        "_blocks",
        "_spill",
        "_kinds",
        "_vids",
        "_locs",
        "_srcs",
        "_kapp",
        "_vapp",
        "_lapp",
        "_sapp",
        "_len",
        "_extra_verts",
        "_extra_index",
        "_cols",
        "_cols_len",
        "_counts",
        "_counts_len",
        "_steps",
    )

    def __init__(
        self, compiled=None, block_size: int = 65536, spill=False
    ) -> None:
        if block_size < 1:
            raise ValueError("block_size must be >= 1")
        self._compiled = compiled
        self.block_size = block_size
        #: flushed blocks: (kinds int8, vids int32, locs int32|None, srcs ...)
        self._blocks: List[tuple] = []
        #: on-disk block store (``None`` = keep flushed blocks in RAM)
        self._spill: Optional[_SpillStore] = (
            _SpillStore(spill) if spill else None
        )
        self._kinds: List[int] = []
        self._vids: List[int] = []
        #: staged location/source columns; ``None`` until a located move
        #: arrives (sequential games never pay for them)
        self._locs: Optional[List[int]] = None
        self._srcs: Optional[List[int]] = None
        # Bound staging ``list.append`` methods: one attribute hop on the
        # per-move hot path instead of two plus a method bind.
        self._kapp = self._kinds.append
        self._vapp = self._vids.append
        self._lapp = None
        self._sapp = None
        self._len = 0
        self._extra_verts: List[Vertex] = []
        self._extra_index: Dict[Vertex, int] = {}
        self._cols = None
        self._cols_len = -1
        self._counts: Optional[Dict[MoveKind, int]] = None
        self._counts_len = -1
        self._steps: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Appending (the engine hot path)
    # ------------------------------------------------------------------
    def append_ids(
        self, code: int, vid: int, loc: int = _NO_INST, src: int = _NO_INST
    ) -> None:
        """Append one move as raw column values.

        ``code`` is an ``OP_*`` opcode, ``vid`` a vertex id of the bound
        compiled CDAG, ``loc``/``src`` packed instances from
        :func:`encode_instance` (default: none).  This is the single hot
        call the engines make per transition.
        """
        self._kapp(code)
        self._vapp(vid)
        lapp = self._lapp
        if lapp is not None:
            lapp(loc)
            self._sapp(src)
        elif loc != _NO_INST or src != _NO_INST:
            pad = len(self._kinds) - 1
            self._locs = [_NO_INST] * pad + [loc]
            self._srcs = [_NO_INST] * pad + [src]
            self._lapp = self._locs.append
            self._sapp = self._srcs.append
        self._len += 1
        if len(self._kinds) >= self.block_size:
            self._flush()

    def append(self, move: Move) -> None:
        """Append a :class:`Move` object (compatibility path)."""
        self.append_ids(
            _CODE_OF_KIND[move.kind],
            self._encode_vertex(move.vertex),
            encode_instance(move.location),
            encode_instance(move.source),
        )

    def _flush(self) -> None:
        """Move the staging lists into an immutable block (RAM or disk)."""
        if not self._kinds:
            return
        kinds = np.asarray(self._kinds, dtype=np.int8)
        vids = np.asarray(self._vids, dtype=np.int32)
        if self._locs is not None:
            locs = np.asarray(self._locs, dtype=np.int32)
            srcs = np.asarray(self._srcs, dtype=np.int32)
            self._locs = []
            self._srcs = []
            self._lapp = self._locs.append
            self._sapp = self._srcs.append
        else:
            locs = srcs = None
        if self._spill is not None:
            self._spill.append_block(kinds, vids, locs, srcs)
        else:
            self._blocks.append((kinds, vids, locs, srcs))
        self._kinds = []
        self._vids = []
        self._kapp = self._kinds.append
        self._vapp = self._vids.append

    def extend_block(self, kinds, vids, locs=None, srcs=None) -> None:
        """Bulk-append one pre-built block of column values.

        ``kinds``/``vids`` are arrays of ``OP_*`` opcodes and vertex ids
        (``locs``/``srcs`` optional packed instances).  The staged tail is
        flushed first so row order is preserved; the block itself goes
        straight to the block store without per-row Python work — this is
        the fast path for synthetic workload generation and log transcoding
        (~ns/move instead of the ~100 ns/move of :meth:`append_ids`).
        """
        n = len(kinds)
        if n == 0:
            return
        if len(vids) != n or (locs is not None and len(locs) != n) or (
            srcs is not None and len(srcs) != n
        ):
            raise ValueError("extend_block columns must have equal length")
        if (locs is None) != (srcs is None):
            raise ValueError("locs and srcs must be given together")
        self._flush()
        kinds = np.ascontiguousarray(kinds, dtype=np.int8)
        vids = np.ascontiguousarray(vids, dtype=np.int32)
        if locs is not None:
            locs = np.ascontiguousarray(locs, dtype=np.int32)
            srcs = np.ascontiguousarray(srcs, dtype=np.int32)
            if self._locs is None:
                # Earlier rows were all unlocated; keep staging consistent.
                self._locs = []
                self._srcs = []
                self._lapp = self._locs.append
                self._sapp = self._srcs.append
        if self._spill is not None:
            self._spill.append_block(kinds, vids, locs, srcs)
        else:
            self._blocks.append((kinds, vids, locs, srcs))
        self._len += n

    # ------------------------------------------------------------------
    # Spill management
    # ------------------------------------------------------------------
    @property
    def is_spilled(self) -> bool:
        """True when flushed blocks live on disk instead of in RAM."""
        return self._spill is not None

    @property
    def spilled_bytes(self) -> int:
        """Bytes of column data currently on disk (0 for in-RAM logs)."""
        return self._spill.nbytes if self._spill is not None else 0

    def close(self) -> None:
        """Release the on-disk spill files (no-op for in-RAM logs).

        Idempotent: a second (or hundredth) call does nothing.  The
        underlying store is additionally registered with
        ``weakref.finalize``, so a log that is garbage-collected — or
        simply alive when a worker process exits — releases its spill
        directory without an explicit ``close()``.  After closing, the
        spilled rows are gone; only close once the log is no longer
        needed.
        """
        if self._spill is not None:
            self._spill.close()
            self._reset_after_spill_release()

    def _reset_after_spill_release(self) -> None:
        self._spill = None
        self._blocks = []
        self._kinds = []
        self._vids = []
        self._locs = None
        self._srcs = None
        self._kapp = self._kinds.append
        self._vapp = self._vids.append
        self._lapp = None
        self._sapp = None
        self._len = 0
        self._cols = None
        self._cols_len = -1

    # ------------------------------------------------------------------
    # Vertex encoding
    # ------------------------------------------------------------------
    def _encode_vertex(self, v: Vertex) -> int:
        if self._compiled is not None:
            i = self._compiled._index.get(v)
            if i is not None:
                return i
        idx = self._extra_index.get(v)
        if idx is None:
            idx = len(self._extra_verts)
            self._extra_verts.append(v)
            self._extra_index[v] = idx
        return -idx - 1

    def vertex_of(self, vid: int) -> Vertex:
        """The vertex named by a (possibly negative) log vertex id."""
        if vid >= 0:
            return self._compiled._verts[vid]
        return self._extra_verts[-vid - 1]

    def is_bound_to(self, compiled) -> bool:
        """True when every vertex id is an id of ``compiled`` — the
        precondition for the zero-conversion column fast paths."""
        return self._compiled is compiled and not self._extra_verts

    # ------------------------------------------------------------------
    # Columns
    # ------------------------------------------------------------------
    def iter_chunks(
        self,
    ) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """Yield ``(kinds, vertex_ids, locations, sources)`` column chunks
        in move order, one flushed block at a time plus the staged tail.

        This is the memory-flat access path: chunks of a spilled log are
        ``numpy.memmap`` views paged in from disk on demand, chunks of an
        in-RAM log are the existing block arrays — either way at most one
        block is materialized at a time.  Treat the arrays as read-only.
        Readers that need fewer than the four columns should use
        :meth:`select_columns` instead — on spilled logs it pages only
        the requested column files.
        """
        return self._iter_selected((0, 1, 2, 3))

    def select_columns(self, *names: str) -> Iterator[tuple]:
        """Yield per-chunk tuples of just the requested columns, in move
        order (column-selective paging).

        ``names`` are drawn from ``"kinds"``, ``"vertex_ids"``,
        ``"locations"``, ``"sources"``; the yielded tuples follow the
        requested order.  On a spilled log only the corresponding column
        files are memmapped, so a sequential replay that reads opcode +
        vertex id pages 5 bytes/move off disk instead of the full
        13-byte row — about half the replay I/O of :meth:`iter_chunks`.
        Chunk boundaries match :meth:`iter_chunks` exactly.

        >>> log = MoveLog()
        >>> log.append_ids(OP_LOAD, 7); log.append_ids(OP_DELETE, 7)
        >>> [(k.tolist(), v.tolist()) for k, v in
        ...  log.select_columns("kinds", "vertex_ids")]
        [([0, 3], [7, 7])]
        """
        try:
            idxs = tuple(_COLUMN_INDEX[name] for name in names)
        except KeyError as exc:
            raise ValueError(
                f"unknown column {exc.args[0]!r}; choose from "
                f"{tuple(_COLUMN_INDEX)}"
            ) from None
        if not idxs:
            raise ValueError("select_columns needs at least one column")
        return self._iter_selected(idxs)

    def _iter_selected(self, idxs: Tuple[int, ...]) -> Iterator[tuple]:
        """Shared chunk walk behind :meth:`iter_chunks` and
        :meth:`select_columns`: flushed blocks (disk or RAM) first, then
        the staged tail, materializing only the selected columns."""
        if self._spill is not None:
            yield from self._spill.iter_blocks(idxs)
        for block in self._blocks:
            yield self._select_from(block, idxs, len(block[0]))
        if self._kinds:
            staged = (self._kinds, self._vids, self._locs, self._srcs)
            n = len(self._kinds)
            yield tuple(
                np.asarray(staged[k], dtype=_COLUMN_DTYPES[k])
                if staged[k] is not None
                else np.full(n, _NO_INST, dtype=np.int32)
                for k in idxs
            )

    @staticmethod
    def _select_from(block: tuple, idxs: Tuple[int, ...], n: int) -> tuple:
        """Pick columns out of an in-RAM block, padding absent
        location/source columns with ``-1`` (sequential games never
        store them)."""
        out = []
        pad = None
        for k in idxs:
            col = block[k]
            if col is None:
                if pad is None:
                    pad = np.full(n, _NO_INST, dtype=np.int32)
                col = pad
            out.append(col)
        return tuple(out)

    def columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The four parallel columns ``(kinds, vertex_ids, locations,
        sources)`` as numpy arrays (concatenated blocks + staging; cached
        until the next append).  Treat them as read-only.

        On a spilled log this concatenates every on-disk block into RAM
        and skips the cache — prefer :meth:`iter_chunks` there.
        """
        if self._cols_len == self._len:
            return self._cols
        parts = [[], [], [], []]
        for chunk in self.iter_chunks():
            for acc, col in zip(parts, chunk):
                acc.append(col)
        if parts[0]:
            cols = (
                np.concatenate(parts[0]),
                np.concatenate(parts[1]),
                np.concatenate(parts[2]),
                np.concatenate(parts[3]),
            )
        else:
            cols = (
                np.empty(0, dtype=np.int8),
                np.empty(0, dtype=np.int32),
                np.empty(0, dtype=np.int32),
                np.empty(0, dtype=np.int32),
            )
        if self._spill is None:
            self._cols = cols
            self._cols_len = self._len
        return cols

    def kinds(self) -> np.ndarray:
        """The opcode column (int8, values ``OP_*``)."""
        return self.columns()[0]

    def vertex_ids(self) -> np.ndarray:
        """The vertex-id column (int32)."""
        return self.columns()[1]

    def locations(self) -> np.ndarray:
        """The packed target-instance column (int32, -1 = none)."""
        return self.columns()[2]

    def sources(self) -> np.ndarray:
        """The packed source-instance column (int32, -1 = none)."""
        return self.columns()[3]

    @property
    def steps(self) -> np.ndarray:
        """The step/timestamp column.  Moves are recorded in game order
        and every move advances the logical clock by one, so the
        timestamp *is* the row index (cached until the next append)."""
        if self._steps is None or len(self._steps) != self._len:
            self._steps = np.arange(self._len, dtype=np.int64)
        return self._steps

    def counts(self) -> Dict[MoveKind, int]:
        """Per-kind move counts, computed vectorized from the opcode
        column (cached until the next append; chunk-at-a-time, so spilled
        logs stay memory-flat).  Only kinds that occur are present,
        matching the seed's incrementally-built dict."""
        if self._counts_len != self._len:
            bins = np.zeros(_NUM_OPCODES, dtype=np.int64)
            for (kinds,) in self._iter_selected((0,)):
                bins += np.bincount(kinds, minlength=_NUM_OPCODES)
            self._counts = {
                _KIND_LIST[code]: int(cnt)
                for code, cnt in enumerate(bins.tolist())
                if cnt
            }
            self._counts_len = self._len
        return dict(self._counts)

    def ids_of_kind(self, kind: MoveKind) -> np.ndarray:
        """Vertex ids of every move of ``kind``, in game order (vectorized
        per-chunk column filter — e.g. the fired-operation schedule for
        COMPUTE; the result is small even when the log is spilled)."""
        code = _CODE_OF_KIND[kind]
        parts = [
            vids[kinds == code]
            for kinds, vids in self._iter_selected((0, 1))
        ]
        if not parts:
            return np.empty(0, dtype=np.int32)
        return np.concatenate(parts)

    # ------------------------------------------------------------------
    # Lazy Move view (sequence protocol)
    # ------------------------------------------------------------------
    def _move_at(self, row: int, cols) -> Move:
        kinds, vids, locs, srcs = cols
        return Move(
            _KIND_LIST[kinds[row]],
            self.vertex_of(int(vids[row])),
            decode_instance(int(locs[row])),
            decode_instance(int(srcs[row])),
        )

    def __len__(self) -> int:
        return self._len

    def __bool__(self) -> bool:
        return self._len > 0

    def __iter__(self) -> Iterator[Move]:
        vertex_of = self.vertex_of
        for kinds, vids, locs, srcs in self.iter_chunks():
            for code, vid, loc, src in zip(
                kinds.tolist(), vids.tolist(), locs.tolist(), srcs.tolist()
            ):
                yield Move(
                    _KIND_LIST[code],
                    vertex_of(vid),
                    decode_instance(loc),
                    decode_instance(src),
                )

    def __getitem__(self, item: Union[int, slice]):
        cols = self.columns()
        if isinstance(item, slice):
            return [
                self._move_at(r, cols) for r in range(*item.indices(self._len))
            ]
        row = item
        if row < 0:
            row += self._len
        if not 0 <= row < self._len:
            raise IndexError("move index out of range")
        return self._move_at(row, cols)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self._spill is not None:
            return (
                f"MoveLog({self._len} moves, "
                f"{self.spilled_bytes} bytes spilled)"
            )
        return f"MoveLog({self._len} moves, {len(self._blocks)} blocks)"


class GameRecord:
    """The result of running a pebble game: the move log and counters.

    ``moves`` is a *lazy* :class:`Move` sequence backed by the columnar
    :class:`MoveLog` in ``log`` — iterate or index it exactly like the
    seed's list of moves, or read ``log``'s integer columns directly in
    performance-sensitive code.
    """

    __slots__ = (
        "log",
        "vertical_io",
        "horizontal_io",
        "compute_per_processor",
        "peak_red",
    )

    def __init__(self, log: Optional[MoveLog] = None) -> None:
        #: the columnar move log
        self.log: MoveLog = log if log is not None else MoveLog()
        #: vertical traffic per (level, instance): number of words moved
        #: into that storage instance from below or above (P-RBW only)
        self.vertical_io: Dict[Tuple[int, int], int] = {}
        #: horizontal traffic per level-L instance: remote gets it issued
        self.horizontal_io: Dict[int, int] = {}
        #: compute operations per processor (P-RBW only)
        self.compute_per_processor: Dict[int, int] = {}
        #: peak number of simultaneously used red pebbles (sequential)
        self.peak_red: int = 0

    @property
    def moves(self) -> MoveLog:
        """The move sequence (lazy ``Move`` view of the columnar log)."""
        return self.log

    @property
    def counts(self) -> Dict[MoveKind, int]:
        """Per-kind move counts (derived from the log's opcode column)."""
        return self.log.counts()

    def append(self, move: Move) -> None:
        """Record a :class:`Move` (compatibility path; engines append
        column values via ``log.append_ids`` instead)."""
        self.log.append(move)

    @property
    def io_count(self) -> int:
        """Total R1 + R2 moves — the Hong-Kung / RBW I/O cost ``q``."""
        counts = self.log.counts()
        return counts.get(MoveKind.LOAD, 0) + counts.get(MoveKind.STORE, 0)

    @property
    def load_count(self) -> int:
        return self.log.counts().get(MoveKind.LOAD, 0)

    @property
    def store_count(self) -> int:
        return self.log.counts().get(MoveKind.STORE, 0)

    @property
    def compute_count(self) -> int:
        return self.log.counts().get(MoveKind.COMPUTE, 0)

    @property
    def total_vertical_io(self) -> int:
        return sum(self.vertical_io.values())

    @property
    def total_horizontal_io(self) -> int:
        return sum(self.horizontal_io.values())

    def max_vertical_io_at_level(self, level: int) -> int:
        """The largest per-instance vertical traffic among level-``level``
        storage instances (the quantity bounded by Theorems 5 and 6)."""
        values = [
            v for (lvl, _idx), v in self.vertical_io.items() if lvl == level
        ]
        return max(values) if values else 0

    def max_horizontal_io(self) -> int:
        """Largest per-node horizontal traffic (bounded by Theorem 7)."""
        return max(self.horizontal_io.values()) if self.horizontal_io else 0

    def summary(self) -> Dict[str, int]:
        """Flat dictionary of headline numbers for reports."""
        return {
            "moves": len(self.log),
            "io": self.io_count,
            "loads": self.load_count,
            "stores": self.store_count,
            "computes": self.compute_count,
            "peak_red": self.peak_red,
            "vertical_io": self.total_vertical_io,
            "horizontal_io": self.total_horizontal_io,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GameRecord({self.summary()!r})"
