"""Tests for the content-addressed artifact store engine
(:mod:`repro.store.db`) and the codec/key layers under it."""

import os
import sqlite3
import threading

import numpy as np
import pytest

from repro.store import (
    ArtifactStore,
    artifact_key,
    code_version,
    compiled_from_payload,
    pack_arrays,
    schedule_from_payload,
    serialize_compiled,
    serialize_schedule,
    unpack_arrays,
)
from repro.store.keys import CODE_VERSION_ENV


@pytest.fixture
def store(tmp_path):
    with ArtifactStore(tmp_path / "store.db") as s:
        yield s


KEY = "00" * 32
KEY2 = "11" * 32


class TestRoundtrip:
    def test_miss_then_hit(self, store):
        assert store.get(KEY) is None
        store.put(KEY, b"abc", kind="bound")
        assert store.get(KEY) == b"abc"
        assert store.counters["hits"] == 1
        assert store.counters["misses"] == 1
        assert store.counters["puts"] == 1

    def test_replace_wins(self, store):
        store.put(KEY, b"old", kind="bound")
        store.put(KEY, b"new", kind="bound")
        assert store.get(KEY) == b"new"

    def test_delete(self, store):
        store.put(KEY, b"abc", kind="bound")
        assert store.delete(KEY) is True
        assert store.delete(KEY) is False
        assert store.get(KEY) is None

    def test_persists_across_reopen(self, tmp_path):
        path = tmp_path / "p.db"
        with ArtifactStore(path) as s:
            s.put(KEY, b"durable", kind="compiled")
        with ArtifactStore(path) as s:
            assert s.get(KEY) == b"durable"

    def test_wal_mode(self, store):
        assert store.stats()["journal_mode"] == "wal"

    def test_get_or_compute(self, store):
        calls = []

        def compute():
            calls.append(1)
            return b"computed"

        payload, hit = store.get_or_compute(KEY, compute, kind="bound")
        assert (payload, hit) == (b"computed", False)
        payload, hit = store.get_or_compute(KEY, compute, kind="bound")
        assert (payload, hit) == (b"computed", True)
        assert len(calls) == 1


class TestIntegrity:
    """A corrupted or truncated row must read as a miss, never as bad
    bytes."""

    def _tamper(self, store, sql, args=()):
        conn = sqlite3.connect(str(store.path))
        conn.execute(sql, args)
        conn.commit()
        conn.close()

    def test_corrupted_payload_is_recomputed(self, store):
        store.put(KEY, b"good-bytes", kind="bound")
        self._tamper(
            store,
            "UPDATE artifacts SET payload = ? WHERE key = ?",
            (sqlite3.Binary(b"evil-bytes"), KEY),
        )
        assert store.get(KEY) is None
        assert store.counters["corrupt"] == 1
        payload, hit = store.get_or_compute(
            KEY, lambda: b"good-bytes", kind="bound"
        )
        assert (payload, hit) == (b"good-bytes", False)
        assert store.get(KEY) == b"good-bytes"

    def test_truncated_payload_is_a_miss(self, store):
        store.put(KEY, b"0123456789", kind="bound")
        self._tamper(
            store,
            "UPDATE artifacts SET payload = ? WHERE key = ?",
            (sqlite3.Binary(b"01234"), KEY),
        )
        assert store.get(KEY) is None
        assert store.counters["corrupt"] == 1
        # the corrupt row was deleted, not left to fail forever
        assert store.stats()["entries"] == 0


class TestStatsAndGc:
    def test_stats_shape(self, store):
        store.put(KEY, b"abc", kind="bound")
        store.put(KEY2, b"defg", kind="compiled")
        store.get(KEY)
        stats = store.stats()
        assert stats["entries"] == 2
        assert stats["payload_bytes"] == 7
        assert stats["kinds"]["bound"]["entries"] == 1
        assert stats["kinds"]["compiled"]["nbytes"] == 4
        assert stats["db_bytes"] > 0
        assert 0 < stats["hit_rate"] <= 1

    def test_gc_max_age(self, store):
        store.put(KEY, b"old", kind="bound")
        report = store.gc(max_age_s=0.0, now=1e12)
        assert report == {"removed": 1, "removed_bytes": 3}
        assert store.stats()["entries"] == 0

    def test_gc_max_bytes_evicts_lru(self, store):
        store.put(KEY, b"a" * 100, kind="bound")
        store.put(KEY2, b"b" * 100, kind="bound")
        store.get(KEY)  # KEY freshly used; KEY2 is the LRU victim
        report = store.gc(max_bytes=150)
        assert report["removed"] == 1
        assert store.get(KEY) == b"a" * 100
        assert store.get(KEY2) is None

    def test_gc_drops_stale_code_versions(self, store):
        store.put(KEY, b"stale", kind="bound", code_ver="src-old")
        store.put(KEY2, b"live", kind="bound", code_ver="src-new")
        report = store.gc(
            drop_stale_code=True, current_code_version="src-new"
        )
        assert report["removed"] == 1
        assert store.get(KEY) is None
        assert store.get(KEY2) == b"live"

    def test_clear(self, store):
        store.put(KEY, b"abc", kind="bound")
        store.put(KEY2, b"def", kind="schedule")
        assert store.clear() == 2
        assert store.stats()["entries"] == 0


class TestSingleFlight:
    def test_concurrent_identical_requests_compute_once(self, store):
        gate = threading.Event()
        calls = []

        def compute():
            calls.append(1)
            gate.wait(5.0)
            return b"slow-result"

        results = []

        def worker():
            results.append(
                store.get_or_compute(KEY, compute, kind="bound")[0]
            )

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        gate.set()
        for t in threads:
            t.join(10.0)
        assert results == [b"slow-result"] * 6
        assert len(calls) == 1
        assert store.counters["puts"] == 1
        # every non-leader read the published bytes — via the
        # single-flight wait or (if it arrived after publish) a plain
        # hit; either way nothing recomputed
        assert store.counters["hits"] == 5
        assert store.counters["flights"] <= 5


class TestConnectionLifetime:
    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
    )
    def test_short_lived_threads_do_not_leak_connections(self, store):
        """One thread per request (the bound server's model): each
        thread's connection closes when the thread ends, so open file
        descriptors stay flat while the store lives on."""
        store.put(KEY, b"abc", kind="bound")
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(200):
            thread = threading.Thread(target=store.get, args=(KEY,))
            thread.start()
            thread.join(10.0)
            assert not thread.is_alive()
        assert len(os.listdir("/proc/self/fd")) - before <= 4
        assert store.counters["hits"] == 200

    def test_close_closes_the_callers_connection(self, store):
        conn = store._conn()
        store.close()
        with pytest.raises(sqlite3.ProgrammingError):
            conn.execute("SELECT 1")
        assert store.get(KEY) is None  # reopens on next use


class TestKeys:
    def test_key_is_hex_and_deterministic(self):
        k1 = artifact_key("bound", {"a": 1, "b": [1, 2]})
        k2 = artifact_key("bound", {"b": (1, 2), "a": 1})
        assert k1 == k2
        assert len(k1) == 64 and set(k1) <= set("0123456789abcdef")

    def test_key_varies_with_kind_and_spec(self):
        spec = {"a": 1}
        assert artifact_key("bound", spec) != artifact_key("compiled", spec)
        assert artifact_key("bound", spec) != artifact_key("bound", {"a": 2})

    def test_code_version_env_override(self, monkeypatch):
        monkeypatch.setenv(CODE_VERSION_ENV, "pinned-version")
        assert code_version() == "pinned-version"
        assert artifact_key("bound", {}, "v1") != artifact_key(
            "bound", {}, "v2"
        )

    def test_code_version_default_is_source_stamp(self, monkeypatch):
        monkeypatch.delenv(CODE_VERSION_ENV, raising=False)
        ver = code_version()
        assert ver.startswith("src-") and len(ver) == 20
        assert code_version() == ver  # cached + deterministic


class TestCodec:
    def test_pack_unpack_roundtrip(self):
        arrays = {
            "x": np.arange(5, dtype=np.int64),
            "mask": np.array([True, False, True]),
        }
        payload = pack_arrays(arrays, {"meta": 1})
        out, meta = unpack_arrays(payload)
        assert meta["meta"] == 1
        np.testing.assert_array_equal(out["x"], arrays["x"])
        np.testing.assert_array_equal(out["mask"], arrays["mask"])

    def test_bad_magic_and_truncation_raise(self):
        payload = pack_arrays({"x": np.arange(3)}, {})
        with pytest.raises(ValueError):
            unpack_arrays(b"NOTMAGIC" + payload[8:])
        with pytest.raises(ValueError):
            unpack_arrays(payload[:-2])

    def test_serialization_is_deterministic(self):
        from repro.core.builders import diamond_cdag

        p1 = serialize_compiled(diamond_cdag(4, 4).compiled())
        p2 = serialize_compiled(diamond_cdag(4, 4).compiled())
        assert p1 == p2

    def test_compiled_payload_roundtrip(self):
        from repro.core.builders import grid_stencil_cdag

        cdag = grid_stencil_cdag((4, 4), 2)
        c = cdag.compiled()
        back = compiled_from_payload(serialize_compiled(c))
        assert back.n == c.n and back.m == c.m
        assert back._verts == c._verts
        np.testing.assert_array_equal(back.succ_indptr, c.succ_indptr)
        np.testing.assert_array_equal(back.succ_indices, c.succ_indices)
        np.testing.assert_array_equal(back.is_input_mask, c.is_input_mask)

    def test_schedule_roundtrip(self):
        ids = np.arange(7, dtype=np.int32)[::-1].copy()
        back, meta = schedule_from_payload(serialize_schedule(ids, "dfs"))
        assert meta["kind"] == "dfs"
        np.testing.assert_array_equal(back, ids)
