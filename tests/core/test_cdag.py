"""Unit tests for the CDAG data structure."""

import pytest

from repro.core import CDAG, CDAGError, CycleError, chain_cdag


class TestConstruction:
    def test_empty_cdag(self):
        c = CDAG()
        assert c.num_vertices() == 0
        assert c.num_edges() == 0
        assert len(c) == 0

    def test_add_vertices_and_edges(self):
        c = CDAG(vertices=["a", "b"], edges=[("a", "b")])
        assert c.has_vertex("a")
        assert c.has_edge("a", "b")
        assert not c.has_edge("b", "a")
        assert c.num_edges() == 1

    def test_edges_create_missing_vertices(self):
        c = CDAG(edges=[("x", "y"), ("y", "z")])
        assert set(c.vertices) == {"x", "y", "z"}

    def test_duplicate_edge_ignored(self):
        c = CDAG(edges=[("a", "b"), ("a", "b")])
        assert c.num_edges() == 1

    def test_self_loop_rejected(self):
        with pytest.raises(CycleError):
            CDAG(edges=[("a", "a")])

    def test_cycle_detected_on_validate(self):
        with pytest.raises(CycleError):
            CDAG(edges=[("a", "b"), ("b", "c"), ("c", "a")])

    def test_tag_unknown_vertex_fails(self):
        c = CDAG(vertices=["a"])
        with pytest.raises(CDAGError):
            c.tag_input("zzz")
        with pytest.raises(CDAGError):
            c.tag_output("zzz")

    def test_insertion_order_preserved(self):
        c = CDAG(vertices=["c", "a", "b"])
        assert c.vertices == ["c", "a", "b"]


class TestQueries:
    def test_inputs_outputs_operations(self):
        c = chain_cdag(3)
        assert c.inputs == frozenset({("chain", 0)})
        assert c.outputs == frozenset({("chain", 3)})
        assert len(c.operations) == 3

    def test_degrees(self):
        c = CDAG(edges=[("a", "c"), ("b", "c"), ("c", "d")])
        assert c.in_degree("c") == 2
        assert c.out_degree("c") == 1
        assert c.in_degree("a") == 0

    def test_sources_and_sinks(self):
        c = CDAG(edges=[("a", "c"), ("b", "c"), ("c", "d"), ("c", "e")])
        assert set(c.sources()) == {"a", "b"}
        assert set(c.sinks()) == {"d", "e"}

    def test_successors_predecessors(self):
        c = CDAG(edges=[("a", "b"), ("a", "c")])
        assert set(c.successors("a")) == {"b", "c"}
        assert c.predecessors("b") == ["a"]

    def test_ancestors_descendants(self):
        c = chain_cdag(4)
        assert c.ancestors(("chain", 2)) == {("chain", 0), ("chain", 1)}
        assert c.descendants(("chain", 2)) == {("chain", 3), ("chain", 4)}

    def test_depth(self):
        assert chain_cdag(4).depth() == 5
        assert CDAG(vertices=["a", "b"]).depth() == 1

    def test_stats(self):
        s = chain_cdag(3).stats()
        assert s.num_vertices == 4
        assert s.num_edges == 3
        assert s.num_inputs == 1
        assert s.num_outputs == 1
        assert s.depth == 4

    def test_contains_and_iter(self):
        c = chain_cdag(2)
        assert ("chain", 1) in c
        assert list(iter(c)) == c.vertices


class TestTopologicalOrder:
    def test_topological_order_respects_edges(self):
        c = CDAG(edges=[("a", "b"), ("b", "c"), ("a", "c")])
        order = c.topological_order()
        pos = {v: i for i, v in enumerate(order)}
        assert pos["a"] < pos["b"] < pos["c"]

    def test_topological_order_cached_and_invalidated(self):
        c = CDAG(edges=[("a", "b")])
        first = c.topological_order()
        c.add_edge("b", "c")
        second = c.topological_order()
        assert len(second) == 3 and len(first) == 2

    def test_is_acyclic(self):
        assert chain_cdag(2).is_acyclic()


class TestValidation:
    def test_hong_kung_validation_requires_source_inputs(self):
        c = CDAG(edges=[("a", "b")], outputs=["b"])
        with pytest.raises(CDAGError):
            c.validate(hong_kung=True)

    def test_hong_kung_validation_requires_sink_outputs(self):
        c = CDAG(edges=[("a", "b")], inputs=["a"])
        with pytest.raises(CDAGError):
            c.validate(hong_kung=True)

    def test_hong_kung_validation_passes_for_builders(self):
        chain_cdag(3).validate(hong_kung=True)


class TestDerivedCDAGs:
    def test_copy_is_independent(self):
        c = chain_cdag(3)
        c2 = c.copy()
        c2.add_edge(("chain", 3), "extra")
        assert not c.has_vertex("extra")

    def test_induced_subgraph_restricts_tags_and_edges(self):
        c = chain_cdag(4)
        sub = c.induced_subgraph([("chain", 0), ("chain", 1), ("chain", 2)])
        assert sub.num_vertices() == 3
        assert sub.num_edges() == 2
        assert sub.inputs == frozenset({("chain", 0)})
        assert sub.outputs == frozenset()

    def test_induced_subgraph_unknown_vertex(self):
        with pytest.raises(CDAGError):
            chain_cdag(2).induced_subgraph(["nope"])

    def test_retagged_changes_only_tags(self):
        c = chain_cdag(3)
        r = c.retagged(add_inputs=[("chain", 1)], add_outputs=[("chain", 2)])
        assert r.num_edges() == c.num_edges()
        assert ("chain", 1) in r.inputs
        assert ("chain", 2) in r.outputs
        # original untouched
        assert ("chain", 1) not in c.inputs

    def test_retagged_remove(self):
        c = chain_cdag(3)
        r = c.retagged(remove_outputs=[("chain", 3)])
        assert r.outputs == frozenset()

    def test_without_io_vertices(self):
        c = chain_cdag(3)
        core = c.without_io_vertices()
        # chain_cdag(3) = input + 3 operations, the last being the output;
        # dropping the input and output vertices leaves the 2 middle ops.
        assert core.num_vertices() == 2
        assert core.inputs == frozenset()
        assert core.outputs == frozenset()
