"""The id-space CDAG: the bulk id constructor, compiled snapshots that
outlive later mutations, derived CDAGs, and schedule checks that name
the offending vertex.

Derived CDAGs (``copy``, ``retagged``, ``induced_subgraph``) and
``from_edge_list(dedup=True)`` are pinned to a name-keyed oracle of the
incremental constructor: every edge added in order, a repeated edge
ignored, so each adjacency list keeps first-insertion order.
"""

import random
import re

import numpy as np
import pytest

from repro.core import (
    CDAG,
    CDAGError,
    CycleError,
    chain_cdag,
    diamond_cdag,
    validate_schedule,
)


def name_keyed(vertices, edges):
    """Successor and predecessor lists by name, edges added in order and
    repeats ignored (what ``CDAG(vertices, edges)`` builds)."""
    succ, pred, seen = {}, {}, set()
    for v in vertices:
        succ.setdefault(v, [])
        pred.setdefault(v, [])
    for u, v in edges:
        for w in (u, v):
            succ.setdefault(w, [])
            pred.setdefault(w, [])
        if (u, v) not in seen:
            seen.add((u, v))
            succ[u].append(v)
            pred[v].append(u)
    return succ, pred


def assert_matches(cdag, vertices, edges, inputs, outputs, name):
    succ, pred = name_keyed(vertices, edges)
    assert cdag.name == name
    assert cdag.vertices == list(succ)
    assert cdag.inputs == frozenset(inputs)
    assert cdag.outputs == frozenset(outputs)
    for v in succ:
        assert cdag.successors(v) == succ[v], v
        assert cdag.predecessors(v) == pred[v], v


def shuffled_dag(seed, n=14, p=0.3, repeats=4):
    """A random DAG inserted in shuffled vertex and edge order, with some
    edges repeated, so predecessor order differs from source order."""
    rng = random.Random(seed)
    rank = list(range(n))
    rng.shuffle(rank)
    verts = [("v", i) for i in range(n)]
    edges = [
        (("v", rank[i]), ("v", rank[j]))
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    rng.shuffle(edges)
    edges += rng.sample(edges, min(repeats, len(edges)))
    rng.shuffle(verts)
    inputs = [v for v in verts if rng.random() < 0.3]
    outputs = [v for v in verts if rng.random() < 0.3]
    return verts, edges, inputs, outputs


class TestFromIds:
    def test_matches_from_edge_list(self):
        for seed in range(20):
            verts, edges, inputs, outputs = shuffled_dag(seed, repeats=0)
            index = {v: i for i, v in enumerate(verts)}
            got = CDAG.from_ids(
                verts,
                np.array([index[u] for u, _ in edges], dtype=np.int64),
                [index[v] for _, v in edges],
                [index[v] for v in inputs],
                np.array([index[v] for v in outputs], dtype=np.int32),
                name="ids",
            )
            assert_matches(got, verts, edges, inputs, outputs, "ids")
            want = CDAG.from_edge_list(verts, edges, inputs, outputs,
                                       name="ids")
            assert got.compiled().topological_order() == (
                want.compiled().topological_order()
            )

    def test_edgeless_and_empty(self):
        c = CDAG.from_ids(["a", "b"], [], [], input_ids=[1])
        assert c.num_edges() == 0 and c.inputs == frozenset({"b"})
        assert CDAG.from_ids([], [], []).num_vertices() == 0
        for derived in (c.copy(), c.retagged(add_outputs=["a"]),
                        c.induced_subgraph(["b"]),
                        CDAG.from_edge_list(["a"], [], dedup=True)):
            assert derived.num_edges() == 0

    @pytest.mark.parametrize("src, dst, inputs, outputs, message", [
        ([0, 3], [1, 2], [], [], "edge id 3 is out of range for 3 vertices"),
        ([0], [-1], [], [], "edge id -1 is out of range for 3 vertices"),
        ([0], [1], [5], [], "input id 5 is out of range for 3 vertices"),
        ([0], [1], [], [3], "output id 3 is out of range for 3 vertices"),
        ([0, 1], [1], [], [], "2 edge sources but 1 edge targets"),
    ])
    def test_refuses_bad_ids(self, src, dst, inputs, outputs, message):
        with pytest.raises(CDAGError, match=re.escape(message)):
            CDAG.from_ids(["a", "b", "c"], src, dst, inputs, outputs)

    def test_refuses_a_self_loop(self):
        with pytest.raises(CycleError, match="self loop on vertex 'b'"):
            CDAG.from_ids(["a", "b", "c"], [0, 1], [1, 1])

    def test_refuses_a_duplicate_name(self):
        with pytest.raises(CDAGError, match="duplicate vertex 'b'"):
            CDAG.from_ids(["a", "b", "c", "b"], [0], [1])

    def test_cycles_are_left_to_validate(self):
        c = CDAG.from_ids(["a", "b"], [0, 1], [1, 0])
        with pytest.raises(CycleError):
            c.validate()

    def test_incremental_edits_after_bulk_construction(self):
        c = CDAG.from_ids(["a", "b"], [0], [1])
        c.add_edge("a", "b")  # a repeat: ignored
        c.add_edge("b", "z")
        assert c.num_edges() == 2 and c.successors("b") == ["z"]


class TestSnapshots:
    @pytest.mark.parametrize("mutate", [
        lambda c: c.add_vertex(("new", 0)),
        lambda c: c.add_edge(("dmd", 0, 0), ("dmd", 2, 3)),
        lambda c: c.add_edge(("dmd", 2, 3), ("new", 1)),
        lambda c: c.tag_input(("dmd", 1, 1)),
        lambda c: c.untag_output(("dmd", 2, 0)),
    ], ids=["add_vertex", "add_edge", "add_edge_new_vertex", "tag_input",
            "untag_output"])
    def test_snapshot_outlives_a_mutation(self, mutate):
        cdag = diamond_cdag(4, 3)
        c = cdag.compiled()
        before = (
            c.n, c.m, c.vertices, [c.id(v) for v in c.vertices],
            c.succ_indptr.copy(), c.succ_indices.copy(),
            c.pred_indptr.copy(), c.pred_indices.copy(),
            [list(s) for s in c.succ_lists], [list(p) for p in c.pred_lists],
            c.input_ids.copy(), c.output_ids.copy(),
        )
        mutate(cdag)
        after = (
            c.n, c.m, c.vertices, [c.id(v) for v in before[2]],
            c.succ_indptr, c.succ_indices, c.pred_indptr, c.pred_indices,
            c.succ_lists, c.pred_lists, c.input_ids, c.output_ids,
        )
        for old, new in zip(before, after):
            if isinstance(old, np.ndarray):
                assert np.array_equal(old, new)
            else:
                assert old == new
        assert [c.vertex(i) for i in range(c.n)] == before[2]
        assert not c.has_vertex(("new", 0)) and not c.has_vertex(("new", 1))
        fresh = cdag.compiled()
        assert fresh is not c
        assert fresh.vertices == cdag.vertices
        assert fresh.m == cdag.num_edges()

    def test_mutating_a_copy_leaves_the_original(self):
        cdag = chain_cdag(3)
        c = cdag.compiled()
        other = cdag.copy()
        other.add_edge(("chain", 0), ("chain", 3))
        assert cdag.num_edges() == 3 and c.m == 3


class TestDerivedCDAGs:
    """Each derived CDAG equals ``CDAG(vertices, edges, ...)`` on its
    name-keyed edge list, the construction that defined them."""

    @pytest.mark.parametrize("seed", range(12))
    def test_copy(self, seed):
        verts, edges, inputs, outputs = shuffled_dag(seed)
        cdag = CDAG.from_edge_list(verts, edges, inputs, outputs, name="g")
        assert_matches(cdag.copy(), verts, list(cdag.edges()), inputs,
                       outputs, "g")
        assert_matches(cdag.copy("h"), verts, list(cdag.edges()), inputs,
                       outputs, "h")

    @pytest.mark.parametrize("seed", range(12))
    def test_retagged(self, seed):
        verts, edges, inputs, outputs = shuffled_dag(seed)
        cdag = CDAG.from_edge_list(verts, edges, inputs, outputs, name="g")
        rng = random.Random(seed)
        add_in, add_out, rm_in, rm_out = (
            rng.sample(verts, 3) for _ in range(4))
        got = cdag.retagged(add_in, add_out, rm_in, rm_out)
        assert_matches(
            got, verts, list(cdag.edges()),
            (set(inputs) | set(add_in)) - set(rm_in),
            (set(outputs) | set(add_out)) - set(rm_out), "g:retagged",
        )

    def test_retagged_refuses_an_unknown_vertex_it_adds(self):
        cdag = chain_cdag(2)
        with pytest.raises(CDAGError, match="cannot tag unknown vertex"):
            cdag.retagged(add_inputs=["nope"])
        # removing an unknown vertex, or adding and removing it, is a no-op
        assert cdag.retagged(add_outputs=["nope"], remove_outputs=["nope"],
                             remove_inputs=["gone"]).inputs == cdag.inputs

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("keep_tags", [True, False])
    def test_induced_subgraph(self, seed, keep_tags):
        verts, edges, inputs, outputs = shuffled_dag(seed)
        cdag = CDAG.from_edge_list(verts, edges, inputs, outputs, name="g")
        keep = set(random.Random(seed).sample(verts, 9))
        got = cdag.induced_subgraph(keep, keep_tags=keep_tags)
        assert_matches(
            got, [v for v in verts if v in keep],
            [(u, v) for u, v in cdag.edges() if u in keep and v in keep],
            set(inputs) & keep if keep_tags else (),
            set(outputs) & keep if keep_tags else (), "g[9]",
        )

    @pytest.mark.parametrize("seed", range(12))
    def test_from_edge_list_dedup(self, seed):
        verts, edges, inputs, outputs = shuffled_dag(seed, repeats=6)
        got = CDAG.from_edge_list(verts, edges, inputs, outputs, name="g",
                                  dedup=True)
        assert_matches(got, verts, edges, inputs, outputs, "g")

    def test_from_edge_list_adds_endpoints_in_edge_order(self):
        got = CDAG.from_edge_list(["b"], [("x", "b"), ("b", "y"),
                                          ("x", "y")])
        assert got.vertices == ["b", "x", "y"]
        assert got.predecessors("y") == ["b", "x"]

    def test_from_edge_list_refusals(self):
        with pytest.raises(CycleError, match="self loop on vertex 'a'"):
            CDAG.from_edge_list(["a"], [("a", "b"), ("a", "a")],
                                inputs=["zzz"])
        with pytest.raises(CDAGError,
                           match="cannot tag unknown vertex 'zzz' as output"):
            CDAG.from_edge_list(["a"], [], outputs=["zzz"])


class TestScheduleChecksNameTheVertex:
    @pytest.mark.parametrize("schedule, message", [
        ([("chain", 0), ("chain", 1), ("nope", 9)],
         "schedule contains unknown vertex ('nope', 9)"),
        ([("chain", 0), ("chain", 1), ("chain", 1), ("chain", 2)],
         "schedule contains duplicate vertices, e.g. ('chain', 1)"),
        ([("chain", 0), ("chain", 2)],
         "schedule must contain every vertex exactly once; "
         "('chain', 1) is missing"),
        ([("chain", 0), ("chain", 2), ("chain", 1)],
         "schedule violates dependence ('chain', 1) -> ('chain', 2)"),
    ], ids=["unknown", "duplicate", "missing", "out-of-order"])
    def test_message(self, schedule, message):
        with pytest.raises(CDAGError, match=re.escape(message)):
            validate_schedule(chain_cdag(2), schedule)
