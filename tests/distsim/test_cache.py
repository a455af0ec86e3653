"""Unit tests for the cache simulator."""

import pytest

from repro.distsim import CacheSimulator, simulate_trace


class TestBasicBehaviour:
    def test_cold_misses(self):
        sim = CacheSimulator(capacity_words=4)
        for a in range(4):
            assert sim.access(a) is False
        assert sim.stats.misses == 4
        assert sim.stats.hits == 0

    def test_hits_on_resident_lines(self):
        sim = CacheSimulator(4)
        sim.access("x")
        assert sim.access("x") is True
        assert sim.stats.hits == 1

    def test_capacity_eviction_lru(self):
        sim = CacheSimulator(2, policy="lru")
        sim.access("a")
        sim.access("b")
        sim.access("c")  # evicts a
        assert sim.access("b") is True
        assert sim.access("a") is False

    def test_lru_order_updated_on_hit(self):
        sim = CacheSimulator(2, policy="lru")
        sim.access("a")
        sim.access("b")
        sim.access("a")  # refresh a
        sim.access("c")  # evicts b, not a
        assert sim.access("a") is True

    def test_writeback_counted_on_dirty_eviction(self):
        sim = CacheSimulator(1)
        sim.access("a", write=True)
        sim.access("b")  # evicts dirty a -> writeback
        assert sim.stats.writebacks == 1
        assert sim.stats.evictions == 1

    def test_clean_eviction_no_writeback(self):
        sim = CacheSimulator(1)
        sim.access("a")
        sim.access("b")
        assert sim.stats.writebacks == 0

    def test_flush_writes_back_dirty_lines(self):
        sim = CacheSimulator(4)
        sim.access("a", write=True)
        sim.access("b")
        sim.flush()
        assert sim.stats.writebacks == 1
        assert sim.resident_lines == 0

    def test_vertical_traffic_is_misses_plus_writebacks(self):
        sim = CacheSimulator(1)
        sim.access("a", write=True)
        sim.access("b", write=True)
        sim.flush()
        assert sim.stats.vertical_traffic == sim.stats.misses + sim.stats.writebacks

    def test_miss_rate(self):
        sim = CacheSimulator(2)
        sim.access("a")
        sim.access("a")
        assert sim.stats.miss_rate == 0.5

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            CacheSimulator(0)
        with pytest.raises(ValueError):
            CacheSimulator(4, policy="fifo")


class TestBelady:
    def test_belady_beats_lru_on_adversarial_trace(self):
        # classic pattern where LRU thrashes but OPT keeps the hot line
        trace = []
        for _ in range(10):
            trace.extend(["hot", "a", "b", "c"])
        lru = simulate_trace(trace, capacity_words=3, policy="lru")
        opt = simulate_trace(trace, capacity_words=3, policy="belady")
        assert opt.misses <= lru.misses

    def test_belady_requires_prepared_trace_for_simulate(self):
        stats = simulate_trace(["a", "b", "a"], 1, policy="belady")
        assert stats.accesses == 3

    def test_belady_never_worse_than_lru_on_sequential_scan(self):
        trace = list(range(20)) * 3
        lru = simulate_trace(trace, capacity_words=8, policy="lru")
        opt = simulate_trace(trace, capacity_words=8, policy="belady")
        assert opt.misses <= lru.misses


class TestWordGranularity:
    def test_adjacent_integer_addresses_are_separate_lines(self):
        sim = CacheSimulator(capacity_words=8)
        sim.access(0)
        assert sim.access(1) is False
        assert sim.access(0) is True
        assert sim.resident_lines == 2

    def test_writeback_counts_one_word_per_dirty_line(self):
        sim = CacheSimulator(capacity_words=4)
        for a in range(4):
            sim.access(a, write=True)
        for a in range(4, 8):
            sim.access(a)  # each evicts one dirty word
        assert sim.stats.writebacks == 4
        assert sim.stats.vertical_traffic == 8 + 4


class TestSimulateTrace:
    def test_accepts_pairs_and_plain_addresses(self):
        stats = simulate_trace([("a", True), "b", ("a", False)], 4)
        assert stats.accesses == 3
        assert stats.hits == 1

    @pytest.mark.parametrize("policy", ["lru", "belady"])
    def test_matches_a_hand_driven_simulator(self, policy):
        """``simulate_trace`` is a fresh cache, primed for Belady, fed
        the trace, then flushed."""
        trace = [(a % 7, a % 3 == 0) for a in range(40)]
        sim = CacheSimulator(3, policy=policy)
        if policy == "belady":
            sim.prepare_trace([a for a, _ in trace])
        for addr, write in trace:
            sim.access(addr, write=write)
        sim.flush()
        assert simulate_trace(trace, 3, policy=policy) == sim.stats

    def test_full_reuse_in_large_cache(self):
        trace = list(range(16)) * 4
        stats = simulate_trace(trace, capacity_words=16)
        assert stats.misses == 16
        assert stats.hits == 48
