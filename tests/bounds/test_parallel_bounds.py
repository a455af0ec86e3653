"""Unit tests for the parallel vertical/horizontal bounds (Theorems 5-7)."""

import pytest

from repro.bounds import (
    horizontal_bound_from_U,
    horizontal_bound_theorem7,
    vertical_bound_from_U,
    vertical_bound_from_sequential,
    vertical_bound_theorem5,
    vertical_bound_theorem6,
)
from repro.pebbling import (
    MemoryHierarchy,
    ParallelRBWPebbleGame,
    optimal_rbw_io,
    parallel_spill_game,
)


@pytest.fixture
def cluster():
    return MemoryHierarchy.cluster(
        nodes=4, cores_per_node=4, registers_per_core=32, cache_size=1024
    )


class TestRawFormulas:
    def test_theorem5_divides_sequential_bound(self):
        assert vertical_bound_from_sequential(1000.0, 4) == 250.0

    def test_theorem5_guards(self):
        with pytest.raises(ValueError):
            vertical_bound_from_sequential(10.0, 0)
        with pytest.raises(ValueError):
            vertical_bound_from_sequential(-1.0, 2)

    def test_theorem6_formula(self):
        # [|V| / (U * N_l) - N_{l-1}/N_l] * S_{l-1}
        val = vertical_bound_from_U(
            num_operations=1_000_000, u_2s=100, n_l=4, n_l_minus_1=4, s_l_minus_1=50
        )
        assert val == pytest.approx((1_000_000 / (100 * 4) - 1) * 50)

    def test_theorem6_floor_at_zero(self):
        assert vertical_bound_from_U(10, 100, 4, 4, 50) == 0.0

    def test_theorem6_guards(self):
        with pytest.raises(ValueError):
            vertical_bound_from_U(10, 0, 4, 4, 50)

    def test_theorem7_formula(self):
        val = horizontal_bound_from_U(
            num_operations=1_000_000, u_2s_top=1000, processors_per_node=8, s_top=500
        )
        assert val == pytest.approx((1_000_000 / (1000 * 8) - 1) * 500)

    def test_theorem7_floor_and_guards(self):
        assert horizontal_bound_from_U(10, 1000, 8, 500) == 0.0
        with pytest.raises(ValueError):
            horizontal_bound_from_U(10, 1000, 0, 500)


class TestHierarchyWrappers:
    def test_theorem5_with_numeric_bound(self, cluster):
        b = vertical_bound_theorem5(cluster, level=2, sequential_io_bound=4000.0)
        assert b.value == 1000.0
        assert b.kind == "vertical" and b.level == 2

    def test_theorem5_with_callable_bound(self, cluster):
        # callable receives the aggregate child capacity (16 procs x 32 regs)
        seen = {}

        def io1(capacity):
            seen["cap"] = capacity
            return 8000.0

        b = vertical_bound_theorem5(cluster, level=2, sequential_io_bound=io1)
        assert seen["cap"] == 16 * 32
        assert b.value == 2000.0

    def test_theorem5_above_level2_counts_every_level_below(self, random_dag):
        # Regression: the level-3 link's fast memory is registers plus
        # caches, because R7 lets a register copy outlive its cache
        # copy.  Evaluating IO_1 at the caches alone (S_2 = 3) gave 6.0,
        # above the 4 words this legal owner-computes game moves.
        cdag = random_dag(4, 12)
        h = MemoryHierarchy.cluster(1, 1, 3, 3)
        seen = []

        def io1(capacity):
            seen.append(capacity)
            return optimal_rbw_io(cdag, capacity).io

        bound = vertical_bound_theorem5(h, 3, io1)
        assert seen == [3 + 3]
        assert bound.value == 4.0
        for backend in ("batched", "dict"):
            game = parallel_spill_game(cdag, h, backend=backend)
            ParallelRBWPebbleGame(cdag, h).replay(game)
            assert game.max_vertical_io_at_level(3) == 4
            assert bound.value <= game.max_vertical_io_at_level(3)

    def test_theorem5_level_validation(self, cluster):
        with pytest.raises(ValueError):
            vertical_bound_theorem5(cluster, level=1, sequential_io_bound=10)

    def test_theorem5_callable_needs_bounded_children(self):
        # a hierarchy whose middle level is unbounded: the callable form
        # cannot be evaluated for the level above it
        from repro.pebbling import LevelSpec

        h = MemoryHierarchy(
            [LevelSpec(4, 8), LevelSpec(4, None), LevelSpec(1, None)]
        )
        with pytest.raises(ValueError):
            vertical_bound_theorem5(h, level=3, sequential_io_bound=lambda c: c)

    def test_theorem6_with_callable_u(self, cluster):
        b = vertical_bound_theorem6(
            cluster, level=2, num_operations=1e6, u_2s=lambda two_s: 4 * two_s
        )
        s1 = 32
        expected = max(0.0, (1e6 / (4 * 2 * s1 * 4) - 16 / 4) * s1)
        assert b.value == pytest.approx(expected)

    def test_theorem6_requires_bounded_child(self, cluster):
        from repro.pebbling import LevelSpec

        unbounded_mid = MemoryHierarchy(
            [LevelSpec(4, 8), LevelSpec(4, None), LevelSpec(1, None)]
        )
        with pytest.raises(ValueError):
            vertical_bound_theorem6(
                unbounded_mid, level=3, num_operations=1e6, u_2s=10
            )
        # in the regular cluster, level 3's children (the caches) are
        # bounded, so the level-3 bound evaluates fine
        b = vertical_bound_theorem6(cluster, level=3, num_operations=1e6, u_2s=10)
        assert b.value >= 0

    def test_theorem7_needs_top_capacity(self, cluster):
        with pytest.raises(ValueError):
            horizontal_bound_theorem7(cluster, num_operations=1e6, u_2s_top=100)
        b = horizontal_bound_theorem7(
            cluster, num_operations=1e6, u_2s_top=100, s_top=1e4
        )
        assert b.kind == "horizontal"
        assert b.value >= 0

    def test_theorem7_with_bounded_top_level(self):
        h = MemoryHierarchy.cluster(
            nodes=2, cores_per_node=2, registers_per_core=8,
            cache_size=64, memory_size=4096,
        )
        b = horizontal_bound_theorem7(h, num_operations=1e6, u_2s_top=500)
        expected = (1e6 / (500 * 2) - 1) * 4096
        assert b.value == pytest.approx(expected)


class TestMonotonicity:
    """Sanity properties the bounds must satisfy."""

    def test_theorem6_decreases_with_more_nodes(self):
        small = vertical_bound_from_U(1e6, 100, 2, 2, 50)
        large = vertical_bound_from_U(1e6, 100, 8, 8, 50)
        assert large <= small

    def test_theorem7_decreases_with_larger_memory(self):
        lo = horizontal_bound_from_U(1e6, 100, 4, 100)
        hi = horizontal_bound_from_U(1e6, 1000, 4, 1000)
        assert hi <= lo

    def test_theorem5_scales_linearly_with_sequential_bound(self):
        double = vertical_bound_from_sequential(200, 4)
        assert double == 2 * vertical_bound_from_sequential(100, 4)
