"""The content-addressed artifact store (SQLite engine).

One SQLite file holds every cached artifact, keyed by the
:func:`repro.store.keys.artifact_key` content address.  The engine is
tuned for the service workload — many concurrent readers, occasional
writers, sub-millisecond warm hits:

* **WAL journal** — readers never block the writer and vice versa;
  safe for many processes sharing one store file (several ``repro
  serve`` or ``repro cache`` processes, and the multi-client server);
* **``WITHOUT ROWID`` clustered primary key** — rows are stored in the
  key's B-tree directly, so a point lookup is a single tree descent
  with the payload inline;
* **mmap reads + tuned pragmas** — ``mmap_size`` 256 MB lets warm
  lookups come out of the page cache without read syscalls;
  ``synchronous=NORMAL`` is the standard WAL durability/latency trade.

Every row carries the SHA-256 of its payload; reads re-hash and treat
any mismatch (bit rot, torn write, manual tampering) as a **miss** —
the corrupt row is deleted and the caller recomputes.  A stored
artifact can therefore be wrong only if SHA-256 collides.

:meth:`ArtifactStore.get_or_compute` is the one call sites use: point
lookup, then **single-flight** recomputation on miss (per-key in-process
lock, so N concurrent identical requests compute once and N-1 wait),
then an ``INSERT OR REPLACE`` publish, the miss's one write
transaction.  Single flight is per process: two processes that miss
the same key both compute the same bytes (content addressing) and the
last write wins with an identical row — wasted work, not a wrong
answer.  A hit writes nothing: its ``last_used_s`` and ``hits`` wait in
memory and reach the row, with every other hit of the window, in one
transaction at most :data:`HIT_FLUSH_S` later, or sooner when
:meth:`~ArtifactStore.stats`, :meth:`~ArtifactStore.gc` or
:meth:`~ArtifactStore.close` runs.

Doctest::

    >>> import tempfile, os
    >>> from repro.store.db import ArtifactStore
    >>> path = os.path.join(tempfile.mkdtemp(), "store.db")
    >>> store = ArtifactStore(path)
    >>> key = "ab" * 32
    >>> store.get(key) is None     # cold miss
    True
    >>> store.put(key, b"payload-bytes", kind="bound")
    >>> store.get(key)             # warm hit
    b'payload-bytes'
    >>> store.counters["hits"], store.counters["misses"]
    (1, 1)
    >>> store.close()
"""

from __future__ import annotations

import hashlib
import sqlite3
import threading
import time
from pathlib import Path
from typing import Callable, Dict, Mapping, Optional, Tuple

__all__ = ["ArtifactStore", "HIT_FLUSH_S", "STORE_SCHEMA_VERSION"]

STORE_SCHEMA_VERSION = "repro-store/1"
#: Seconds a hit's ``last_used_s`` and ``hits`` update may wait in memory
#: before it is written (with every other hit of that window).
HIT_FLUSH_S = 1.0

_SCHEMA = """
CREATE TABLE IF NOT EXISTS artifacts (
    key          TEXT NOT NULL PRIMARY KEY,
    kind         TEXT NOT NULL,
    builder      TEXT NOT NULL DEFAULT '',
    seed         INTEGER NOT NULL DEFAULT 0,
    spec_json    TEXT NOT NULL DEFAULT '',
    code_version TEXT NOT NULL DEFAULT '',
    sha256       TEXT NOT NULL,
    nbytes       INTEGER NOT NULL,
    payload      BLOB NOT NULL,
    created_s    REAL NOT NULL,
    last_used_s  REAL NOT NULL,
    hits         INTEGER NOT NULL DEFAULT 0
) WITHOUT ROWID;
CREATE INDEX IF NOT EXISTS idx_artifacts_kind ON artifacts(kind);
CREATE INDEX IF NOT EXISTS idx_artifacts_lru ON artifacts(last_used_s);
CREATE TABLE IF NOT EXISTS store_meta (
    k TEXT NOT NULL PRIMARY KEY,
    v TEXT NOT NULL
) WITHOUT ROWID;
"""


class _SingleFlight:
    """Per-key in-process locks: concurrent identical computations are
    collapsed to one leader; followers block, then re-read the store."""

    def __init__(self) -> None:
        self._mu = threading.Lock()
        self._locks: Dict[str, Tuple[threading.Lock, int]] = {}

    def acquire(self, key: str) -> threading.Lock:
        with self._mu:
            lock, refs = self._locks.get(key, (None, 0))
            if lock is None:
                lock = threading.Lock()
            self._locks[key] = (lock, refs + 1)
        lock.acquire()
        return lock

    def release(self, key: str, lock: threading.Lock) -> None:
        lock.release()
        with self._mu:
            held, refs = self._locks[key]
            if refs <= 1:
                del self._locks[key]
            else:
                self._locks[key] = (held, refs - 1)


class _ThreadConnection:
    """One thread's SQLite connection, closed when the thread ends.

    Only the store's ``threading.local`` refers to the holder, so the
    holder is freed, and closes its connection, as soon as its thread
    exits.  A bare connection would linger until a cyclic garbage
    collection, because ``sqlite3.Connection`` refers to itself through
    its statement cache.
    """

    __slots__ = ("conn",)

    def __init__(self, conn: sqlite3.Connection) -> None:
        self.conn = conn

    def __del__(self) -> None:
        try:
            self.conn.close()
        except sqlite3.ProgrammingError:
            # Freed from another thread (the store itself was dropped
            # while this thread lived): the connection closes once the
            # garbage collector frees it.
            pass


class ArtifactStore:
    """A content-addressed artifact cache in one SQLite file.

    Parameters
    ----------
    path:
        The database file (created, along with parent directories, if
        absent).
    busy_timeout_s:
        How long a connection waits on a locked database before
        erroring — the concurrent-writers knob (WAL makes real
        contention rare and short).

    Connections are per-thread (SQLite objects must not cross threads)
    and live as long as their thread; a server's request threads answer
    many requests each, so every write commits or rolls back before it
    returns and no transaction outlives the call that opened it.  The
    instance itself is thread-safe and is shared by all server request
    threads.  A hit's row update is deferred (see :meth:`_note_hit`), so
    warm reads take no write lock.  ``counters`` tracks process-lifetime
    traffic: ``hits`` / ``misses`` / ``puts`` / ``corrupt`` /
    ``flights`` (calls that waited behind an identical in-flight
    computation).

    :meth:`bind_obs` attaches an observability registry and event ring
    (:mod:`repro.obs`): every ``counters`` tick is then mirrored as a
    ``store.<name>`` counter, gc passes are counted
    (``store.gc_passes`` / ``store.gc_removed_bytes``) and emitted as
    ``gc.pass`` events, and corruption recoveries become
    ``store.corrupt_recovered`` events.
    """

    def __init__(self, path, busy_timeout_s: float = 30.0) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.busy_timeout_s = float(busy_timeout_s)
        self._local = threading.local()
        self._counter_mu = threading.Lock()
        self._flight = _SingleFlight()
        self._hits_mu = threading.Lock()
        self._hits: Dict[str, Tuple[float, int]] = {}  # unwritten hits
        self._flush_timer: Optional[threading.Timer] = None
        self.metrics = None
        self.events = None
        self.counters: Dict[str, int] = {
            "hits": 0,
            "misses": 0,
            "puts": 0,
            "corrupt": 0,
            "flights": 0,
        }
        self._conn()  # create the schema eagerly so failures surface here

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------
    def _conn(self) -> sqlite3.Connection:
        held = getattr(self._local, "held", None)
        if held is not None:
            return held.conn
        conn = sqlite3.connect(
            str(self.path), timeout=self.busy_timeout_s
        )
        # Switching a fresh file to WAL can fail with "database is
        # locked" without waiting on the busy handler while another
        # process does the same switch, so retry until the busy timeout.
        deadline = time.monotonic() + self.busy_timeout_s
        while True:
            try:
                conn.execute("PRAGMA journal_mode=WAL")
                break
            except sqlite3.OperationalError as exc:
                if "locked" not in str(exc) or time.monotonic() >= deadline:
                    conn.close()
                    raise
                time.sleep(0.01)
        conn.execute("PRAGMA synchronous=NORMAL")
        conn.execute("PRAGMA mmap_size=268435456")  # 256 MB
        conn.execute("PRAGMA cache_size=-8192")  # 8 MB page cache
        conn.execute("PRAGMA temp_store=MEMORY")
        conn.executescript(_SCHEMA)
        with conn:
            conn.execute(
                "INSERT OR IGNORE INTO store_meta (k, v) VALUES (?, ?)",
                ("schema", STORE_SCHEMA_VERSION),
            )
        # Per thread only: SQLite objects must not cross threads.  A
        # server's request threads outlive their requests
        # (service/http.py), so this connection serves every request its
        # thread answers and closes when the thread ends.  Hence every
        # write here commits or rolls back as one unit (``with conn:``):
        # a transaction left open would carry into the next request.
        self._local.held = _ThreadConnection(conn)
        return conn

    def close(self) -> None:
        """Write the pending hit records, then close the calling
        thread's connection (other threads' connections close when those
        threads end; a server's waiting request threads end at its
        ``server_close()``).  The store stays usable: the next call from
        this thread opens a new connection."""
        self._flush_hits()
        held = getattr(self._local, "held", None)
        if held is not None:
            self._local.held = None
            held.conn.close()

    def __enter__(self) -> "ArtifactStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _count(self, name: str, delta: int = 1) -> None:
        with self._counter_mu:
            self.counters[name] += delta
        if self.metrics is not None:
            self.metrics.counter(f"store.{name}").inc(delta)

    def _emit(self, kind: str, **fields) -> None:
        if self.events is not None:
            self.events.emit(kind, **fields)

    def bind_obs(self, metrics, events=None) -> None:
        """Attach an observability registry (and optionally an event
        ring) — the bound server does this so one ``GET /metrics``
        scrape covers HTTP and store traffic.  The counters accumulated
        so far are carried into the registry, so the mirrored
        ``store.*`` counters stay monotonic and complete.
        """
        with self._counter_mu:
            current = dict(self.counters)
        for name, value in current.items():
            if value:
                metrics.counter(f"store.{name}").inc(value)
        self.metrics = metrics
        if events is not None:
            self.events = events

    # ------------------------------------------------------------------
    # Point reads and writes
    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[bytes]:
        """The payload stored under ``key``, or ``None`` on miss.

        Integrity-checked: the payload is re-hashed and compared against
        the stored SHA-256; a corrupted or truncated row is deleted and
        reported as a miss so the caller recomputes instead of consuming
        bad bytes.
        """
        payload = self._read(key)
        self._count("misses" if payload is None else "hits")
        return payload

    def _read(self, key: str) -> Optional[bytes]:
        """:meth:`get` without the hit/miss count (a corrupt row still
        counts under ``corrupt``); each caller counts its own lookup."""
        conn = self._conn()
        row = conn.execute(
            "SELECT payload, sha256, nbytes FROM artifacts WHERE key = ?",
            (key,),
        ).fetchone()
        if row is None:
            return None
        payload, sha, nbytes = row
        payload = bytes(payload)
        if (
            len(payload) != nbytes
            or hashlib.sha256(payload).hexdigest() != sha
        ):
            self._count("corrupt")
            with conn:
                conn.execute("DELETE FROM artifacts WHERE key = ?", (key,))
            self._emit("store.corrupt_recovered", key=key,
                       nbytes=int(nbytes))
            return None
        self._note_hit(key)
        return payload

    def _note_hit(self, key: str) -> None:
        """Record a hit in memory; the first hit of a window schedules
        :meth:`_flush_hits` :data:`HIT_FLUSH_S` later, so a warm read
        takes no write lock."""
        now = time.time()
        with self._hits_mu:
            hits = self._hits[key][1] if key in self._hits else 0
            self._hits[key] = (now, hits + 1)
            if self._flush_timer is not None:
                return
            timer = self._flush_timer = threading.Timer(HIT_FLUSH_S,
                                                        self._flush_hits)
        timer.daemon = True  # an exiting process does not wait for it
        timer.start()

    def _flush_hits(self) -> None:
        """Write every pending hit record (``last_used_s``, ``hits``) in
        one transaction.  :meth:`stats`, :meth:`gc` and :meth:`close`
        call it first; otherwise it runs :data:`HIT_FLUSH_S` after the
        first unwritten hit."""
        with self._hits_mu:
            pending, self._hits = self._hits, {}
            timer, self._flush_timer = self._flush_timer, None
        if timer is not None:
            timer.cancel()  # a no-op when the timer is what runs this
        if not pending:
            return
        conn = self._conn()
        with conn:
            conn.executemany(
                "UPDATE artifacts SET last_used_s = MAX(last_used_s, ?), "
                "hits = hits + ? WHERE key = ?",
                [(used, hits, key) for key, (used, hits) in pending.items()],
            )

    def put(
        self,
        key: str,
        payload: bytes,
        kind: str,
        builder: str = "",
        seed: int = 0,
        spec_json: str = "",
        code_ver: str = "",
    ) -> None:
        """Publish ``payload`` under ``key`` (last identical write wins)."""
        now = time.time()
        conn = self._conn()
        with conn:
            conn.execute(
                "INSERT OR REPLACE INTO artifacts "
                "(key, kind, builder, seed, spec_json, code_version, sha256, "
                " nbytes, payload, created_s, last_used_s, hits) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, 0)",
                (
                    key,
                    kind,
                    builder,
                    int(seed),
                    spec_json,
                    code_ver,
                    hashlib.sha256(payload).hexdigest(),
                    len(payload),
                    sqlite3.Binary(payload),
                    now,
                    now,
                ),
            )
        self._count("puts")

    def delete(self, key: str) -> bool:
        conn = self._conn()
        with conn:
            cur = conn.execute("DELETE FROM artifacts WHERE key = ?", (key,))
        return cur.rowcount > 0

    def get_or_compute(
        self,
        key: str,
        compute: Callable[[], bytes],
        kind: str,
        describe: Callable[[], Mapping] = dict,
    ) -> Tuple[bytes, bool]:
        """``(payload, was_hit)`` — the memoization entry point.

        Fast path: a point read, and no write.  On miss, the per-key
        single-flight lock elects one in-process leader, which reads
        again, computes and publishes with :meth:`put`: one write
        transaction, whose descriptive columns (``builder``, ``seed``,
        ``spec_json``, ``code_ver``) are the mapping ``describe()``
        returns, so a hit never derives them.  Late in-process arrivals
        block on the lock, then re-read the store and hit — counted
        under ``counters["flights"]``.  Another process missing the same
        key at the same time computes too and writes an identical row
        (content addressing): wasted work, not a wrong answer.

        Each call counts once: a hit if it returns stored bytes (from
        either read), a miss if it computes.
        """
        payload = self._read(key)
        if payload is not None:
            self._count("hits")
            return payload, True
        lock = self._flight.acquire(key)
        try:
            payload = self._read(key)
            if payload is not None:
                self._count("hits")
                self._count("flights")
                return payload, True
            self._count("misses")
            payload = compute()
            self.put(key, payload, kind=kind, **describe())
            return payload, False
        finally:
            self._flight.release(key, lock)

    # ------------------------------------------------------------------
    # Introspection and maintenance
    # ------------------------------------------------------------------
    def stats(self) -> Dict:
        """Entry counts and bytes (total and per kind), database file
        sizes, traffic counters, and the journal mode."""
        self._flush_hits()
        conn = self._conn()
        per_kind = {
            kind: {"entries": int(count), "nbytes": int(nbytes or 0)}
            for kind, count, nbytes in conn.execute(
                "SELECT kind, COUNT(*), SUM(nbytes) FROM artifacts "
                "GROUP BY kind ORDER BY kind"
            )
        }
        total, total_bytes = conn.execute(
            "SELECT COUNT(*), COALESCE(SUM(nbytes), 0) FROM artifacts"
        ).fetchone()
        journal_mode = conn.execute("PRAGMA journal_mode").fetchone()[0]
        db_bytes = self.path.stat().st_size if self.path.exists() else 0
        wal = self.path.with_name(self.path.name + "-wal")
        wal_bytes = wal.stat().st_size if wal.exists() else 0
        with self._counter_mu:
            counters = dict(self.counters)
        lookups = counters["hits"] + counters["misses"]
        return {
            "schema": STORE_SCHEMA_VERSION,
            "path": str(self.path),
            "journal_mode": journal_mode,
            "entries": int(total),
            "payload_bytes": int(total_bytes),
            "db_bytes": int(db_bytes),
            "wal_bytes": int(wal_bytes),
            "kinds": per_kind,
            "counters": counters,
            "hit_rate": (counters["hits"] / lookups) if lookups else None,
        }

    def gc(
        self,
        max_bytes: Optional[int] = None,
        max_age_s: Optional[float] = None,
        drop_stale_code: bool = False,
        current_code_version: Optional[str] = None,
        vacuum: bool = False,
        now: Optional[float] = None,
    ) -> Dict[str, int]:
        """Reclaim space; returns ``{"removed": n, "removed_bytes": b}``.

        Three independent policies compose: ``max_age_s`` drops entries
        not used within the window; ``drop_stale_code`` drops entries
        whose code-version stamp differs from the current one (they can
        never be addressed again); ``max_bytes`` then evicts
        least-recently-used entries until the stored payload bytes fit.
        ``vacuum`` additionally compacts the file and truncates the WAL.
        The pending hit records are written first, so the LRU order is
        this process's latest.
        """
        self._flush_hits()
        conn = self._conn()
        now = time.time() if now is None else now
        removed = removed_bytes = 0

        def _apply(cur) -> None:
            nonlocal removed, removed_bytes
            removed += cur.rowcount if cur.rowcount > 0 else 0

        with conn:  # one transaction for all three policies
            if max_age_s is not None:
                cutoff = now - float(max_age_s)
                removed_bytes += int(
                    conn.execute(
                        "SELECT COALESCE(SUM(nbytes), 0) FROM artifacts "
                        "WHERE last_used_s < ?",
                        (cutoff,),
                    ).fetchone()[0]
                )
                _apply(conn.execute(
                    "DELETE FROM artifacts WHERE last_used_s < ?", (cutoff,)
                ))
            if drop_stale_code:
                if current_code_version is None:
                    from .keys import code_version

                    current_code_version = code_version()
                removed_bytes += int(
                    conn.execute(
                        "SELECT COALESCE(SUM(nbytes), 0) FROM artifacts "
                        "WHERE code_version != ''"
                        " AND code_version != ?",
                        (current_code_version,),
                    ).fetchone()[0]
                )
                _apply(conn.execute(
                    "DELETE FROM artifacts WHERE code_version != ''"
                    " AND code_version != ?",
                    (current_code_version,),
                ))
            if max_bytes is not None:
                while True:
                    total = int(
                        conn.execute(
                            "SELECT COALESCE(SUM(nbytes), 0) FROM artifacts"
                        ).fetchone()[0]
                    )
                    if total <= max_bytes:
                        break
                    victim = conn.execute(
                        "SELECT key, nbytes FROM artifacts "
                        "ORDER BY last_used_s ASC, key ASC LIMIT 1"
                    ).fetchone()
                    if victim is None:  # pragma: no cover - empty table
                        break
                    conn.execute(
                        "DELETE FROM artifacts WHERE key = ?", (victim[0],)
                    )
                    removed += 1
                    removed_bytes += int(victim[1])
        if vacuum:
            conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
            conn.execute("VACUUM")
            conn.commit()
        report = {"removed": int(removed), "removed_bytes": int(removed_bytes)}
        if self.metrics is not None:
            self.metrics.counter("store.gc_passes").inc()
            self.metrics.counter("store.gc_removed").inc(report["removed"])
            self.metrics.counter("store.gc_removed_bytes").inc(
                report["removed_bytes"]
            )
        self._emit("gc.pass", **report)
        return report

    def clear(self) -> int:
        """Drop every artifact; returns how many were removed."""
        conn = self._conn()
        with conn:
            (count,) = conn.execute(
                "SELECT COUNT(*) FROM artifacts"
            ).fetchone()
            conn.execute("DELETE FROM artifacts")
        conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        conn.execute("VACUUM")
        conn.commit()
        return int(count)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ArtifactStore(path={str(self.path)!r})"
