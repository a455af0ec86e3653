"""Property-based tests for the cache simulator."""

from hypothesis import given, settings, strategies as st

from repro.distsim import simulate_trace

traces = st.lists(
    st.tuples(st.integers(min_value=0, max_value=30), st.booleans()),
    min_size=1,
    max_size=200,
)


@given(traces, st.integers(min_value=1, max_value=16))
@settings(max_examples=60, deadline=None)
def test_cache_accounting_invariants(trace, capacity):
    stats = simulate_trace(trace, capacity_words=capacity, policy="lru")
    assert stats.hits + stats.misses == stats.accesses == len(trace)
    distinct = len({a for a, _ in trace})
    assert stats.misses >= min(distinct, 1)
    # cold misses: at least one per distinct address
    assert stats.misses >= distinct if capacity >= distinct else True
    writes = sum(1 for _, w in trace if w)
    assert stats.writebacks <= writes


@given(traces, st.integers(min_value=1, max_value=16))
@settings(max_examples=60, deadline=None)
def test_belady_is_optimal_relative_to_lru(trace, capacity):
    lru = simulate_trace(trace, capacity_words=capacity, policy="lru")
    opt = simulate_trace(trace, capacity_words=capacity, policy="belady")
    assert opt.misses <= lru.misses


@given(traces, st.integers(min_value=1, max_value=8))
@settings(max_examples=40, deadline=None)
def test_bigger_cache_never_increases_lru_misses(trace, capacity):
    small = simulate_trace(trace, capacity_words=capacity, policy="lru")
    # LRU is a stack algorithm: inclusion property guarantees monotonicity
    big = simulate_trace(trace, capacity_words=capacity * 2, policy="lru")
    assert big.misses <= small.misses
