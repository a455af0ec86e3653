"""Unit tests for the parallel RBW pebble game engine (rules R1-R7)."""

import numpy as np
import pytest

from repro.core import CDAG, chain_cdag, diamond_cdag
from repro.pebbling import (
    GameError,
    MemoryHierarchy,
    Move,
    MoveKind,
    MoveLog,
    ParallelRBWPebbleGame,
    parallel_spill_game,
)
from repro.pebbling.state import (
    OP_COMPUTE,
    OP_LOAD,
    OP_MOVE_DOWN,
    OP_MOVE_UP,
    OP_REMOTE_GET,
    decode_instance,
    encode_instance,
)


@pytest.fixture
def cluster():
    return MemoryHierarchy.cluster(
        nodes=2, cores_per_node=2, registers_per_core=4, cache_size=8
    )


@pytest.fixture
def tiny_cdag():
    return chain_cdag(2)


class TestR1R2:
    def test_load_places_top_level_pebble_and_white(self, cluster, tiny_cdag):
        game = ParallelRBWPebbleGame(tiny_cdag, cluster)
        game.load(("chain", 0), node=0)
        assert (3, 0) in game.pebbles[("chain", 0)]
        assert ("chain", 0) in game.white
        assert game.record.load_count == 1

    def test_load_requires_blue(self, cluster, tiny_cdag):
        game = ParallelRBWPebbleGame(tiny_cdag, cluster)
        with pytest.raises(GameError):
            game.load(("chain", 1), node=0)

    def test_store_requires_matching_node_pebble(self, cluster, tiny_cdag):
        game = ParallelRBWPebbleGame(tiny_cdag, cluster)
        game.load(("chain", 0), node=0)
        with pytest.raises(GameError):
            game.store(("chain", 0), node=1)
        game.store(("chain", 0), node=0)
        assert ("chain", 0) in game.blue


class TestR3RemoteGet:
    def test_remote_get_copies_between_nodes(self, cluster, tiny_cdag):
        game = ParallelRBWPebbleGame(tiny_cdag, cluster)
        game.load(("chain", 0), node=0)
        game.remote_get(("chain", 0), dst_node=1, src_node=0)
        assert (3, 1) in game.pebbles[("chain", 0)]
        assert game.record.horizontal_io[1] == 1

    def test_remote_get_requires_source_pebble(self, cluster, tiny_cdag):
        game = ParallelRBWPebbleGame(tiny_cdag, cluster)
        with pytest.raises(GameError):
            game.remote_get(("chain", 0), dst_node=1, src_node=0)

    def test_remote_get_same_node_rejected(self, cluster, tiny_cdag):
        game = ParallelRBWPebbleGame(tiny_cdag, cluster)
        game.load(("chain", 0), node=0)
        with pytest.raises(GameError):
            game.remote_get(("chain", 0), dst_node=0, src_node=0)


class TestR4R5VerticalMoves:
    def test_move_up_follows_parent_links(self, cluster, tiny_cdag):
        game = ParallelRBWPebbleGame(tiny_cdag, cluster)
        game.load(("chain", 0), node=0)
        game.move_up(("chain", 0), level=2, index=0)
        game.move_up(("chain", 0), level=1, index=0)
        assert (1, 0) in game.pebbles[("chain", 0)]
        # traffic accounted to the parent instance of each move
        assert game.record.vertical_io[(3, 0)] == 1
        assert game.record.vertical_io[(2, 0)] == 1

    def test_move_up_wrong_subtree_rejected(self, cluster, tiny_cdag):
        game = ParallelRBWPebbleGame(tiny_cdag, cluster)
        game.load(("chain", 0), node=0)
        # cache (2, 1) belongs to node 1, not node 0
        with pytest.raises(GameError):
            game.move_up(("chain", 0), level=2, index=1)

    def test_move_up_level_range(self, cluster, tiny_cdag):
        game = ParallelRBWPebbleGame(tiny_cdag, cluster)
        game.load(("chain", 0), node=0)
        with pytest.raises(GameError):
            game.move_up(("chain", 0), level=3, index=0)

    def test_move_down_requires_child_pebble(self, cluster, tiny_cdag):
        game = ParallelRBWPebbleGame(tiny_cdag, cluster)
        with pytest.raises(GameError):
            game.move_down(("chain", 0), level=2, index=0)

    def test_move_down_counts_traffic_at_target(self, cluster, tiny_cdag):
        game = ParallelRBWPebbleGame(tiny_cdag, cluster)
        game.load(("chain", 0), node=0)
        game.move_up(("chain", 0), level=2, index=0)
        game.move_up(("chain", 0), level=1, index=0)
        game.delete(("chain", 0), 2, 0)
        game.move_down(("chain", 0), level=2, index=0)
        assert game.record.vertical_io[(2, 0)] == 2  # one up + one down

    def test_capacity_enforced_per_instance(self, tiny_cdag):
        h = MemoryHierarchy.cluster(
            nodes=1, cores_per_node=1, registers_per_core=1, cache_size=8
        )
        c = CDAG(edges=[("a", "c"), ("b", "c")], inputs=["a", "b"], outputs=["c"])
        game = ParallelRBWPebbleGame(c, h)
        game.load("a", node=0)
        game.load("b", node=0)
        game.move_up("a", level=2, index=0)
        game.move_up("a", level=1, index=0)
        game.move_up("b", level=2, index=0)
        with pytest.raises(GameError):
            game.move_up("b", level=1, index=0)  # register file full (S_1=1)


class TestR6Compute:
    def test_compute_requires_level1_pebbles_of_same_processor(
        self, cluster, tiny_cdag
    ):
        game = ParallelRBWPebbleGame(tiny_cdag, cluster)
        game.load(("chain", 0), node=0)
        game.move_up(("chain", 0), level=2, index=0)
        game.move_up(("chain", 0), level=1, index=0)  # processor 0's registers
        with pytest.raises(GameError):
            game.compute(("chain", 1), processor=1)
        game.compute(("chain", 1), processor=0)
        assert game.record.compute_per_processor[0] == 1

    def test_compute_rejects_recomputation(self, cluster, tiny_cdag):
        game = ParallelRBWPebbleGame(tiny_cdag, cluster)
        game.load(("chain", 0), node=0)
        game.move_up(("chain", 0), level=2, index=0)
        game.move_up(("chain", 0), level=1, index=0)
        game.compute(("chain", 1), processor=0)
        game.delete(("chain", 1), 1, 0)
        with pytest.raises(GameError):
            game.compute(("chain", 1), processor=0)

    def test_compute_rejects_input_vertex(self, cluster, tiny_cdag):
        game = ParallelRBWPebbleGame(tiny_cdag, cluster)
        with pytest.raises(GameError):
            game.compute(("chain", 0), processor=0)

    def test_unknown_processor_rejected(self, cluster, tiny_cdag):
        game = ParallelRBWPebbleGame(tiny_cdag, cluster)
        with pytest.raises(GameError):
            game.compute(("chain", 1), processor=99)


class TestR7DeleteAndCompletion:
    def test_delete_specific_shade(self, cluster, tiny_cdag):
        game = ParallelRBWPebbleGame(tiny_cdag, cluster)
        game.load(("chain", 0), node=0)
        game.move_up(("chain", 0), level=2, index=0)
        game.delete(("chain", 0), 3, 0)
        assert (3, 0) not in game.pebbles[("chain", 0)]
        assert (2, 0) in game.pebbles[("chain", 0)]

    def test_delete_missing_shade_rejected(self, cluster, tiny_cdag):
        game = ParallelRBWPebbleGame(tiny_cdag, cluster)
        with pytest.raises(GameError):
            game.delete(("chain", 0), 1, 0)

    def test_manual_complete_game(self, cluster):
        c = chain_cdag(1)
        game = ParallelRBWPebbleGame(c, cluster)
        game.load(("chain", 0), node=0)
        game.move_up(("chain", 0), level=2, index=0)
        game.move_up(("chain", 0), level=1, index=0)
        game.compute(("chain", 1), processor=0)
        game.move_down(("chain", 1), level=2, index=0)
        game.move_down(("chain", 1), level=3, index=0)
        game.store(("chain", 1), node=0)
        game.assert_complete()
        assert game.record.io_count == 2
        assert game.record.total_vertical_io == 4

    def test_incomplete_game_detected(self, cluster, tiny_cdag):
        game = ParallelRBWPebbleGame(tiny_cdag, cluster)
        assert not game.is_complete()
        with pytest.raises(GameError):
            game.assert_complete()


class TestReplayKeepsLoggedInstances:
    """Replay must reproduce a log, not repair it: a row whose logged
    location or source differs from the one the rules derive is refused,
    even though the move the rules would make instead is legal."""

    #: opcode, tampered column, and the rewrite of that row's instance
    #: (the first row of the opcode; for MOVE_DOWN, the first one into a
    #: level-2 cache, which has two children)
    TAMPERS = {
        "remote_get_source_at_level_2": (
            OP_REMOTE_GET, "sources", lambda lvl, idx: (2, idx)
        ),
        "move_up_source_not_the_parent": (
            OP_MOVE_UP, "sources", lambda lvl, idx: (lvl, idx ^ 1)
        ),
        "move_down_source_another_child": (
            OP_MOVE_DOWN, "sources", lambda lvl, idx: (lvl, idx ^ 1)
        ),
        "load_location_at_level_2": (
            OP_LOAD, "locations", lambda lvl, idx: (2, idx)
        ),
        "compute_location_at_level_2": (
            OP_COMPUTE, "locations", lambda lvl, idx: (2, idx)
        ),
    }

    @pytest.mark.parametrize("tamper", sorted(TAMPERS))
    def test_tampered_instance_is_rejected(self, cluster, tamper):
        op, column, rewrite = self.TAMPERS[tamper]
        cdag = diamond_cdag(6, 6)
        record = parallel_spill_game(cdag, cluster)
        cols = dict(zip(
            ("kinds", "vertex_ids", "locations", "sources"),
            (c.copy() for c in record.log.columns()),
        ))
        row = next(
            int(r) for r in np.flatnonzero(cols["kinds"] == op)
            if op != OP_MOVE_DOWN or decode_instance(cols["locations"][r])[0] == 2
        )
        old = decode_instance(int(cols[column][row]))
        cols[column][row] = encode_instance(rewrite(*old))
        bad = MoveLog(compiled=cdag.compiled())
        bad.extend_block(*cols.values())
        with pytest.raises(GameError, match=f"move {row} is logged at"):
            ParallelRBWPebbleGame(cdag, cluster).replay(bad)

    def test_unspecified_source_matches_any(self, cluster):
        """A hand-built list may leave MOVE_UP/MOVE_DOWN sources out;
        replay fills in the ones the rules derive."""
        a, b = ("chain", 0), ("chain", 1)
        moves = [
            Move(MoveKind.LOAD, a, (3, 0)),
            Move(MoveKind.MOVE_UP, a, (2, 0)),
            Move(MoveKind.MOVE_UP, a, (1, 0)),
            Move(MoveKind.COMPUTE, b, (1, 0)),
            Move(MoveKind.MOVE_DOWN, b, (2, 0)),
            Move(MoveKind.MOVE_DOWN, b, (3, 0)),
            Move(MoveKind.STORE, b, (3, 0)),
        ]
        record = ParallelRBWPebbleGame(chain_cdag(1), cluster).replay(moves)
        assert record.moves[1].source == (3, 0)
        assert record.moves[4].source == (1, 0)
