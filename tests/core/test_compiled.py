"""Randomized equivalence suite: the compiled snapshot vs dict references.

The compiled integer-indexed snapshot (:mod:`repro.core.compiled`)
answers every order and traversal query of a CDAG, so it must agree with
the dict-of-names reference implementations (``reference_graph.py``) and
with the CDAG's own adjacency; and the id-space pebble-game engines must
produce the same games as a reference player written directly against
the dict API.  This suite checks that on the structured families used
throughout the paper (chains, grids, butterflies) plus seeded random
DAGs.
"""

import random

import pytest

from repro.core import (
    CDAG,
    butterfly_cdag,
    chain_cdag,
    diamond_cdag,
    grid_stencil_cdag,
    independent_chains_cdag,
    min_wavefront,
    partition_from_schedule,
    reduction_tree_cdag,
)
from repro.core.properties import in_set, out_set
from repro.pebbling import spill_game_rbw, spill_game_redblue
from repro.pebbling.state import MoveKind

import reference_graph
from reference_maxflow import min_wavefront as reference_min_wavefront


def random_dag(seed: int, n: int = 24, p: float = 0.15) -> CDAG:
    """A seeded random DAG with Hong-Kung tagging (sources in, sinks out)."""
    rng = random.Random(seed)
    verts = [("r", i) for i in range(n)]
    edges = [
        (("r", i), ("r", j))
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    cdag = CDAG(verts, edges, name=f"rand{seed}")
    for v in cdag.sources():
        cdag.tag_input(v)
    for v in cdag.sinks():
        cdag.tag_output(v)
    return cdag


def sample_cdags():
    return [
        chain_cdag(8),
        independent_chains_cdag(3, 4),
        diamond_cdag(5, 4),
        grid_stencil_cdag((4, 4), 2),
        butterfly_cdag(3),
        reduction_tree_cdag(16),
        random_dag(1),
        random_dag(2, n=30, p=0.1),
        random_dag(3, n=18, p=0.25),
    ]


@pytest.fixture(params=range(len(sample_cdags())))
def cdag(request):
    return sample_cdags()[request.param]


class TestStructuralEquivalence:
    def test_id_vertex_roundtrip(self, cdag):
        c = cdag.compiled()
        assert c.n == cdag.num_vertices()
        assert c.m == cdag.num_edges()
        for v in cdag.vertices:
            assert c.vertex(c.id(v)) == v

    def test_adjacency_matches(self, cdag):
        c = cdag.compiled()
        for v in cdag.vertices:
            i = c.id(v)
            assert c.vertices_of(c.successors_ids(i)) == cdag.successors(v)
            assert c.vertices_of(c.predecessors_ids(i)) == cdag.predecessors(v)
            assert c.in_degree[i] == cdag.in_degree(v)
            assert c.out_degree[i] == cdag.out_degree(v)

    def test_topological_order_matches(self, cdag):
        assert cdag.compiled().topological_order() == (
            reference_graph.topological_order(cdag)
        )

    def test_stats_match(self, cdag):
        assert cdag.compiled().stats() == reference_graph.stats(cdag)

    def test_tags_match(self, cdag):
        c = cdag.compiled()
        assert set(c.vertices_of(c.input_ids)) == set(cdag.inputs)
        assert set(c.vertices_of(c.output_ids)) == set(cdag.outputs)

    def test_reachability_matches(self, cdag):
        c = cdag.compiled()
        for v in list(cdag.vertices)[::3]:
            i = c.id(v)
            assert set(c.vertices_of(c.ancestors_ids(i))) == (
                reference_graph.ancestors(cdag, v)
            )
            assert set(c.vertices_of(c.descendants_ids(i))) == (
                reference_graph.descendants(cdag, v)
            )

    def test_validate_sorts_without_list_mirrors(self, cdag):
        """The cycle check walks the flat CSR arrays, so validating a
        CDAG builds no per-vertex successor lists."""
        cdag.validate()
        c = cdag.compiled()
        assert c._succ_lists is None
        assert c.topological_order() == cdag.topological_order()

    def test_cache_invalidation_on_mutation(self):
        cdag = chain_cdag(3)
        c1 = cdag.compiled()
        assert cdag.compiled() is c1  # cached between mutations
        cdag.add_edge(("chain", 0), ("chain", 2))
        c2 = cdag.compiled()
        assert c2 is not c1
        assert c2.m == c1.m + 1
        cdag.untag_output(("chain", 3))
        c3 = cdag.compiled()
        assert c3 is not c2
        assert len(c3.output_ids) == len(c2.output_ids) - 1


class TestWavefrontEquivalence:
    def test_solver_matches_rebuild(self, cdag):
        """The cached scipy network answers like an independent max-flow
        rebuilt from scratch per query (``reference_maxflow.py``)."""
        for v in list(cdag.vertices)[::2]:
            assert min_wavefront(cdag, v) == reference_min_wavefront(cdag, v)


class TestPartitionEquivalence:
    @staticmethod
    def reference_partition(cdag, schedule, s):
        """The seed's O(|V| * |V_i| * deg) greedy cut, recomputing In/Out."""
        ops = [v for v in schedule if not cdag.is_input(v)]
        limit = 2 * s
        subsets, current = [], set()
        for v in ops:
            candidate = current | {v}
            if current and (
                len(in_set(cdag, candidate)) > limit
                or len(out_set(cdag, candidate)) > limit
            ):
                subsets.append(current)
                current = {v}
            else:
                current = candidate
        if current:
            subsets.append(current)
        return subsets

    @pytest.mark.parametrize("s", [1, 2, 4])
    def test_incremental_matches_reference(self, cdag, s):
        schedule = cdag.topological_order()
        got = partition_from_schedule(cdag, schedule, s)
        want = self.reference_partition(cdag, schedule, s)
        assert got.subsets == want


# ----------------------------------------------------------------------
# Pebble-game equivalence: a reference spill player on the dict backend
# ----------------------------------------------------------------------
class DictBackendSpillPlayer:
    """The seed's sequential spill strategy, written against the dict API.

    Tracks red/blue pebbles as sets of vertex *names*, uses
    ``cdag.predecessors`` / ``cdag.is_input`` directly, and breaks victim
    ties by vertex insertion order — the same deterministic rule the
    id-space production player uses, so move-for-move equality holds.
    """

    def __init__(self, cdag, num_red, policy="lru"):
        self.cdag = cdag
        self.num_red = num_red
        self.policy = policy
        self.order = {v: i for i, v in enumerate(cdag.vertices)}

    def run(self, schedule):
        cdag = self.cdag
        red, blue = set(), set(cdag.inputs)
        counts = {k: 0 for k in ("load", "store", "compute", "delete")}
        peak_red = 0
        position = {v: i for i, v in enumerate(schedule)}
        remaining = {v: cdag.out_degree(v) for v in cdag.vertices}
        future = {
            v: sorted((position[s] for s in cdag.successors(v)), reverse=True)
            for v in cdag.vertices
        }
        last_use = {}
        clock = 0

        def next_use(v):
            uses = future[v]
            while uses and uses[-1] < clock:
                uses.pop()
            return uses[-1] if uses else float("inf")

        def acquire(v):
            nonlocal peak_red
            assert len(red) < self.num_red, "red pebble budget exceeded"
            red.add(v)
            peak_red = max(peak_red, len(red))

        def pick_victim(pinned):
            candidates = [u for u in red if u not in pinned]
            assert candidates, "nothing evictable"
            if self.policy == "belady":
                return max(
                    candidates,
                    key=lambda u: (
                        next_use(u),
                        -max(last_use.get(u, -1), 0),
                        -self.order[u],
                    ),
                )
            return min(
                candidates,
                key=lambda u: (last_use.get(u, -1), self.order[u]),
            )

        def make_room(pinned):
            while len(red) >= self.num_red:
                victim = pick_victim(pinned)
                persist = remaining[victim] > 0 or (
                    self.cdag.is_output(victim) and victim not in blue
                )
                if persist and victim not in blue:
                    blue.add(victim)
                    counts["store"] += 1
                red.remove(victim)
                counts["delete"] += 1

        def ensure_red(v, pinned):
            if v in red:
                last_use[v] = clock
                return
            assert v in blue, f"{v!r} lost (never stored)"
            make_room(pinned)
            acquire(v)
            counts["load"] += 1
            last_use[v] = clock

        for v in schedule:
            clock = position[v]
            if cdag.is_input(v):
                continue
            preds = cdag.predecessors(v)
            pinned = set(preds) | {v}
            for p in preds:
                ensure_red(p, pinned)
            make_room(pinned)
            assert all(p in red for p in preds), "R3 precondition broken"
            if v not in red:
                acquire(v)
            counts["compute"] += 1
            last_use[v] = clock
            if cdag.is_output(v):
                blue.add(v)
                counts["store"] += 1
            for p in preds:
                remaining[p] -= 1
                if remaining[p] == 0 and p in red:
                    if cdag.is_output(p) and p not in blue:
                        blue.add(p)
                        counts["store"] += 1
                    red.remove(p)
                    counts["delete"] += 1
            if remaining[v] == 0 and v in red:
                red.remove(v)
                counts["delete"] += 1

        assert all(v in blue for v in cdag.outputs), "outputs not stored"
        return counts, peak_red


def reasonable_s(cdag):
    need = max(
        (cdag.in_degree(v) + 1 for v in cdag.vertices if not cdag.is_input(v)),
        default=1,
    )
    return need + 1


class TestPebbleGameEquivalence:
    @pytest.mark.parametrize("policy", ["lru", "belady"])
    def test_io_counts_match_dict_backend(self, cdag, policy):
        s = reasonable_s(cdag)
        schedule = cdag.topological_order()
        record = spill_game_redblue(cdag, s, schedule, policy=policy)
        ref_counts, ref_peak = DictBackendSpillPlayer(cdag, s, policy).run(
            schedule
        )
        assert record.load_count == ref_counts["load"]
        assert record.store_count == ref_counts["store"]
        assert record.compute_count == ref_counts["compute"]
        assert record.counts.get(MoveKind.DELETE, 0) == ref_counts["delete"]
        assert record.peak_red == ref_peak

    def test_rbw_and_redblue_agree_without_recompute(self, cdag):
        s = reasonable_s(cdag)
        schedule = cdag.topological_order()
        rb = spill_game_redblue(cdag, s, schedule)
        rbw = spill_game_rbw(cdag, s, schedule)
        assert rb.io_count == rbw.io_count
        assert rb.peak_red == rbw.peak_red

    def test_move_log_replays_on_fresh_engine(self, cdag):
        from repro.pebbling import RedBluePebbleGame

        s = reasonable_s(cdag)
        record = spill_game_redblue(cdag, s)
        fresh = RedBluePebbleGame(cdag, s, strict=False)
        replayed = fresh.replay(record.moves)
        assert replayed.io_count == record.io_count
        assert replayed.peak_red == record.peak_red
