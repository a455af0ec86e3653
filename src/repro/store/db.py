"""The content-addressed artifact store (SQLite engine).

One SQLite file holds every cached artifact, keyed by the
:func:`repro.store.keys.artifact_key` content address.  The engine is
tuned for the service workload — many concurrent readers, occasional
writers, sub-millisecond warm hits:

* **WAL journal** — readers never block the writer and vice versa;
  safe for many processes sharing one store file (the ``sweep --jobs``
  and multi-client server paths);
* **``WITHOUT ROWID`` clustered primary key** — rows are stored in the
  key's B-tree directly, so a point lookup is a single tree descent
  with the payload inline;
* **mmap reads + tuned pragmas** — ``mmap_size`` (default 256 MB) lets
  warm lookups come out of the page cache without read syscalls;
  ``synchronous=NORMAL`` is the standard WAL durability/latency trade.

Every row carries the SHA-256 of its payload; reads re-hash and treat
any mismatch (bit rot, torn write, manual tampering) as a **miss** —
the corrupt row is deleted and the caller recomputes.  A stored
artifact can therefore be wrong only if SHA-256 collides.

:meth:`ArtifactStore.get_or_compute` is the one call sites use: point
lookup, then **single-flight** recomputation on miss (per-key in-process
lock, so N concurrent identical requests compute once and N-1 wait),
then an ``INSERT OR REPLACE`` publish.  Cross-process races are benign:
both processes compute the same bytes (content addressing) and the last
write wins with an identical row.

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
import os
import sqlite3
import threading
import time
import uuid
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

__all__ = ["ArtifactStore", "STORE_SCHEMA_VERSION", "DEFAULT_MMAP_BYTES"]

STORE_SCHEMA_VERSION = "repro-store/1"
DEFAULT_MMAP_BYTES = 256 * 1024 * 1024

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
CREATE TABLE IF NOT EXISTS claims (
    key        TEXT NOT NULL PRIMARY KEY,
    owner      TEXT NOT NULL,
    acquired_s REAL NOT NULL
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
    mmap_bytes:
        ``PRAGMA mmap_size`` for every connection (0 disables mmap).
    busy_timeout_s:
        How long a connection waits on a locked database before
        erroring — the concurrent-writers knob (WAL makes real
        contention rare and short).

    Connections are per-thread (SQLite objects must not cross threads);
    the instance itself is thread-safe and is shared by all server
    worker threads.  ``counters`` tracks process-lifetime traffic:
    ``hits`` / ``misses`` / ``puts`` / ``corrupt`` / ``flights`` (calls
    that waited behind an identical in-flight computation).

    ``metrics`` / ``events`` optionally bind the store to an
    observability registry and event ring (:mod:`repro.obs`): every
    ``counters`` tick is mirrored as a ``store.<name>`` counter, gc
    passes are counted (``store.gc_passes`` /
    ``store.gc_removed_bytes``) and emitted as ``gc.pass`` events, and
    corruption recoveries / claim takeovers become events too.  A host
    server can also attach after construction via :meth:`bind_obs`.
    """

    def __init__(
        self,
        path,
        mmap_bytes: int = DEFAULT_MMAP_BYTES,
        busy_timeout_s: float = 30.0,
        claim_ttl_s: float = 60.0,
        claim_poll_s: float = 0.05,
        metrics=None,
        events=None,
    ) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.mmap_bytes = int(mmap_bytes)
        self.busy_timeout_s = float(busy_timeout_s)
        if claim_ttl_s <= 0 or claim_poll_s <= 0:
            raise ValueError("claim_ttl_s and claim_poll_s must be positive")
        self.claim_ttl_s = float(claim_ttl_s)
        self.claim_poll_s = float(claim_poll_s)
        #: unique per store instance; in-process single-flight already
        #: serializes same-key callers behind one handle
        self._owner = f"{os.getpid()}-{uuid.uuid4().hex[:12]}"
        self._local = threading.local()
        self._counter_mu = threading.Lock()
        self._flight = _SingleFlight()
        self.metrics = metrics
        self.events = events
        self.counters: Dict[str, int] = {
            "hits": 0,
            "misses": 0,
            "puts": 0,
            "corrupt": 0,
            "flights": 0,
            "cross_flights": 0,
            "claim_takeovers": 0,
            "claim_skew_takeovers": 0,
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
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        conn.execute(f"PRAGMA mmap_size={self.mmap_bytes}")
        conn.execute("PRAGMA cache_size=-8192")  # 8 MB page cache
        conn.execute("PRAGMA temp_store=MEMORY")
        conn.executescript(_SCHEMA)
        conn.execute(
            "INSERT OR IGNORE INTO store_meta (k, v) VALUES (?, ?)",
            ("schema", STORE_SCHEMA_VERSION),
        )
        conn.commit()
        # Per thread only: the bound server runs one thread per request,
        # and each request's connection must close when its thread ends.
        self._local.held = _ThreadConnection(conn)
        return conn

    def close(self) -> None:
        """Close the calling thread's connection (other threads'
        connections close when those threads end).  The store stays
        usable: the next call from this thread opens a new connection."""
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
        ring) after construction — the bound server does this so one
        ``GET /metrics`` scrape covers HTTP and store traffic.  The
        counters accumulated so far are carried into the registry, so
        the mirrored ``store.*`` counters stay monotonic and complete.
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
        conn = self._conn()
        row = conn.execute(
            "SELECT payload, sha256, nbytes FROM artifacts WHERE key = ?",
            (key,),
        ).fetchone()
        if row is None:
            self._count("misses")
            return None
        payload, sha, nbytes = row
        payload = bytes(payload)
        if (
            len(payload) != nbytes
            or hashlib.sha256(payload).hexdigest() != sha
        ):
            self._count("corrupt")
            self._count("misses")
            conn.execute("DELETE FROM artifacts WHERE key = ?", (key,))
            conn.commit()
            self._emit("store.corrupt_recovered", key=key,
                       nbytes=int(nbytes))
            return None
        conn.execute(
            "UPDATE artifacts SET last_used_s = ?, hits = hits + 1 "
            "WHERE key = ?",
            (time.time(), key),
        )
        conn.commit()
        self._count("hits")
        return payload

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
        conn.commit()
        self._count("puts")

    def delete(self, key: str) -> bool:
        conn = self._conn()
        cur = conn.execute("DELETE FROM artifacts WHERE key = ?", (key,))
        conn.commit()
        return cur.rowcount > 0

    # ------------------------------------------------------------------
    # Cross-process claim leases
    # ------------------------------------------------------------------
    def _claim_state(self, acquired: float, now: float) -> str:
        """Classify a claim row's age: ``"live"`` within the TTL,
        ``"stale"`` past it, ``"skewed"`` when ``acquired_s`` lies in
        the *future* by more than the TTL.

        Claim timestamps are wall clock (they must compare across
        processes and hosts), so a backwards wall-clock step — NTP
        correction, VM resume — makes live claims look future-dated.
        Small skew (within the TTL) is tolerated as live; a claim
        further in the future than the TTL can only be a clock step
        larger than the lease itself and is treated as abandoned, so it
        cannot immortalize the key.  Without the skew branch such a row
        would block every follower forever (``now - acquired`` stays
        negative, "fresher than fresh").
        """
        age = now - float(acquired)
        if age >= self.claim_ttl_s:
            return "stale"
        if -age > self.claim_ttl_s:
            return "skewed"
        return "live"

    def _try_claim(self, key: str) -> bool:
        """Attempt to become the cross-process leader for ``key``.

        One atomic ``INSERT OR IGNORE`` elects the leader; on conflict a
        compare-and-swap takes over claims older than ``claim_ttl_s``
        (their owner died mid-compute — SIGKILL, OOM — and can never
        publish or release) or future-dated beyond the TTL (a wall-clock
        step; see :meth:`_claim_state`).
        """
        conn = self._conn()
        now = time.time()
        cur = conn.execute(
            "INSERT OR IGNORE INTO claims (key, owner, acquired_s) "
            "VALUES (?, ?, ?)",
            (key, self._owner, now),
        )
        if cur.rowcount == 1:
            conn.commit()
            return True
        row = conn.execute(
            "SELECT owner, acquired_s FROM claims WHERE key = ?", (key,)
        ).fetchone()
        if row is None:
            # Released between the insert and the read; the next loop
            # iteration re-reads the store (the leader just published).
            conn.commit()
            return False
        owner, acquired = row
        state = self._claim_state(acquired, now)
        if state != "live":
            cur = conn.execute(
                "UPDATE claims SET owner = ?, acquired_s = ? "
                "WHERE key = ? AND owner = ? AND acquired_s = ?",
                (self._owner, now, key, owner, acquired),
            )
            conn.commit()
            if cur.rowcount == 1:
                self._count("claim_takeovers")
                if state == "skewed":
                    self._count("claim_skew_takeovers")
                self._emit("store.claim_takeover", key=key,
                           previous_owner=str(owner), state=state)
                return True
            return False
        conn.commit()
        return False

    def _release_claim(self, key: str) -> None:
        conn = self._conn()
        conn.execute(
            "DELETE FROM claims WHERE key = ? AND owner = ?",
            (key, self._owner),
        )
        conn.commit()

    def _claim_blocks(self, key: str) -> bool:
        """True while a live (non-stale, non-skewed) foreign claim
        covers ``key``."""
        row = self._conn().execute(
            "SELECT acquired_s FROM claims WHERE key = ?", (key,)
        ).fetchone()
        if row is None:
            return False
        return self._claim_state(row[0], time.time()) == "live"

    def _artifact_exists(self, key: str) -> bool:
        """Counter-free existence probe (the follower poll loop must not
        inflate the hit/miss traffic counters)."""
        return self._conn().execute(
            "SELECT 1 FROM artifacts WHERE key = ?", (key,)
        ).fetchone() is not None

    def get_or_compute(
        self,
        key: str,
        compute: Callable[[], bytes],
        kind: str,
        builder: str = "",
        seed: int = 0,
        spec_json: str = "",
        code_ver: str = "",
    ) -> Tuple[bytes, bool]:
        """``(payload, was_hit)`` — the memoization entry point.

        Fast path: a point read.  On miss, the per-key single-flight
        lock elects one in-process leader to proceed; late in-process
        arrivals block on the lock, then re-read the store and (almost
        always) hit — counted under ``counters["flights"]``.

        The surviving caller then races for the **cross-process** claim
        row: one process per key wins and computes, every other process
        waits-and-polls for the leader's publish instead of recomputing
        (``counters["cross_flights"]``).  A claim older than
        ``claim_ttl_s`` is treated as abandoned — its owner died
        mid-compute — and is taken over via compare-and-swap
        (``counters["claim_takeovers"]``); a compute outliving the TTL
        can therefore be duplicated across processes, which is benign
        (content addressing: identical bytes, last write wins).
        """
        payload = self.get(key)
        if payload is not None:
            return payload, True
        lock = self._flight.acquire(key)
        try:
            payload = self.get(key)
            if payload is not None:
                self._count("flights")
                return payload, True
            waited = False
            while not self._try_claim(key):
                # A live foreign leader holds the claim: poll until it
                # publishes (usual case) or the claim vanishes/goes
                # stale (crash) and the loop re-races for leadership.
                waited = True
                if self._artifact_exists(key):
                    break
                time.sleep(self.claim_poll_s)
            else:
                waited_payload = self.get(key) if waited else None
                if waited_payload is not None:
                    # Claimed after the leader published and released.
                    self._release_claim(key)
                    self._count("cross_flights")
                    return waited_payload, True
                try:
                    payload = compute()
                    self.put(
                        key,
                        payload,
                        kind=kind,
                        builder=builder,
                        seed=seed,
                        spec_json=spec_json,
                        code_ver=code_ver,
                    )
                finally:
                    self._release_claim(key)
                return payload, False
            # Broke out of the poll loop: the foreign leader published.
            payload = self.get(key)
            if payload is not None:
                self._count("cross_flights")
                return payload, True
            # Published row vanished again (gc/corruption race) —
            # recompute without coordination; correctness is unaffected.
            payload = compute()
            self.put(
                key, payload, kind=kind, builder=builder, seed=seed,
                spec_json=spec_json, code_ver=code_ver,
            )
            return payload, False
        finally:
            self._flight.release(key, lock)

    # ------------------------------------------------------------------
    # Introspection and maintenance
    # ------------------------------------------------------------------
    def stats(self) -> Dict:
        """Entry counts and bytes (total and per kind), database file
        sizes, traffic counters, and the journal mode."""
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
        """
        conn = self._conn()
        now = time.time() if now is None else now
        removed = removed_bytes = 0

        def _apply(cur) -> None:
            nonlocal removed, removed_bytes
            removed += cur.rowcount if cur.rowcount > 0 else 0

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
        conn.commit()
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
        (count,) = conn.execute("SELECT COUNT(*) FROM artifacts").fetchone()
        conn.execute("DELETE FROM artifacts")
        conn.commit()
        conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        conn.execute("VACUUM")
        conn.commit()
        return int(count)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ArtifactStore(path={str(self.path)!r})"
