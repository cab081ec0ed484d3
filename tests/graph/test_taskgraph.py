"""Unit tests for the TaskGraph container."""

import pytest

from repro.exceptions import CycleError, GraphError, UnknownTaskError
from repro.graph import TaskGraph
from repro.speedup import AmdahlModel


def _model():
    return AmdahlModel(4.0, 1.0)


class TestConstruction:
    def test_add_task_returns_record(self):
        g = TaskGraph()
        task = g.add_task("a", _model(), tag="kernel")
        assert task.id == "a"
        assert task.tag == "kernel"

    def test_duplicate_task_rejected(self):
        g = TaskGraph()
        g.add_task("a", _model())
        with pytest.raises(GraphError, match="duplicate"):
            g.add_task("a", _model())

    def test_non_model_rejected(self):
        g = TaskGraph()
        with pytest.raises(GraphError, match="SpeedupModel"):
            g.add_task("a", lambda p: 1.0)

    def test_edge_to_unknown_task(self):
        g = TaskGraph()
        g.add_task("a", _model())
        with pytest.raises(UnknownTaskError):
            g.add_edge("a", "ghost")

    def test_self_loop_rejected(self):
        g = TaskGraph()
        g.add_task("a", _model())
        with pytest.raises(CycleError):
            g.add_edge("a", "a")

    def test_self_loop_on_nan_id_rejected(self):
        # nan != nan, but a dict finds the same object as the same key.
        nan = float("nan")
        g = TaskGraph()
        g.add_task(nan, _model())
        with pytest.raises(CycleError, match="self-loop"):
            g.add_edge(nan, nan)
        assert g.num_edges() == 0 and g.topological_order() == [nan]

    def test_cycle_rejected_and_graph_unchanged(self):
        g = TaskGraph()
        for t in "abc":
            g.add_task(t, _model())
        g.add_edge("a", "b")
        g.add_edge("b", "c")
        with pytest.raises(CycleError):
            g.add_edge("c", "a")
        assert g.num_edges() == 2  # the bad edge was not half-applied

    def test_duplicate_edge_idempotent(self):
        g = TaskGraph()
        g.add_task("a", _model())
        g.add_task("b", _model())
        g.add_edge("a", "b")
        g.add_edge("a", "b")
        assert g.num_edges() == 1

    def test_add_edges_bulk(self):
        g = TaskGraph()
        for t in "abc":
            g.add_task(t, _model())
        g.add_edges([("a", "b"), ("b", "c")])
        assert g.num_edges() == 2


class TestQueries:
    def test_len_contains_iter(self, small_graph):
        assert len(small_graph) == 4
        assert "a" in small_graph and "z" not in small_graph
        assert list(small_graph) == ["a", "b", "c", "d"]

    def test_task_lookup(self, small_graph):
        assert small_graph.task("a").id == "a"
        with pytest.raises(UnknownTaskError):
            small_graph.task("z")

    def test_successors_predecessors(self, small_graph):
        assert small_graph.successors("a") == ["b", "c"]
        assert small_graph.predecessors("d") == ["b", "c"]
        assert small_graph.predecessors("a") == []

    def test_adjacency_snapshots(self, small_graph):
        preds = small_graph.predecessor_map()
        succs = small_graph.successor_map()
        assert list(preds) == list(succs) == list(small_graph)
        assert preds == {t: tuple(small_graph.predecessors(t)) for t in small_graph}
        assert succs == {t: tuple(small_graph.successors(t)) for t in small_graph}
        small_graph.add_task("e", _model())
        small_graph.add_edge("d", "e")
        assert "e" not in preds and succs["d"] == ()

    def test_degrees(self, small_graph):
        assert small_graph.in_degree("d") == 2
        assert small_graph.out_degree("a") == 2

    def test_sources_sinks(self, small_graph):
        assert small_graph.sources() == ["a"]
        assert small_graph.sinks() == ["d"]

    def test_edges_listing(self, small_graph):
        assert set(small_graph.edges()) == {
            ("a", "b"),
            ("a", "c"),
            ("b", "d"),
            ("c", "d"),
        }

    def test_ancestors(self, small_graph):
        assert small_graph.ancestors("d") == {"a", "b", "c"}
        assert small_graph.ancestors("a") == set()


class TestTopology:
    def test_topological_order_respects_edges(self, small_graph):
        order = small_graph.topological_order()
        pos = {t: i for i, t in enumerate(order)}
        for u, v in small_graph.edges():
            assert pos[u] < pos[v]

    def test_topological_order_is_insertion_stable(self):
        g = TaskGraph()
        for t in ("x", "y", "z"):
            g.add_task(t, _model())
        assert g.topological_order() == ["x", "y", "z"]

    def test_longest_path_length_diamond(self, small_graph):
        assert small_graph.longest_path_length() == 3

    def test_longest_path_length_empty(self):
        assert TaskGraph().longest_path_length() == 0

    def test_longest_path_length_independent(self):
        g = TaskGraph()
        for i in range(5):
            g.add_task(i, _model())
        assert g.longest_path_length() == 1
