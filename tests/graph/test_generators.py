"""Unit tests for the synthetic DAG generators."""

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.graph.generators import (
    chain,
    erdos_renyi_dag,
    fork_join,
    in_tree,
    independent_tasks,
    layered_random,
    out_tree,
)
from repro.graph.taskgraph import TaskGraph
from repro.speedup import AmdahlModel


def factory():
    return AmdahlModel(4.0, 1.0)


class TestChain:
    def test_structure(self):
        g = chain(5, factory)
        assert len(g) == 5
        assert g.num_edges() == 4
        assert g.longest_path_length() == 5
        assert g.sources() == [0] and g.sinks() == [4]

    def test_single_task(self):
        g = chain(1, factory)
        assert len(g) == 1 and g.num_edges() == 0

    def test_rejects_zero(self):
        with pytest.raises(InvalidParameterError):
            chain(0, factory)


class TestIndependent:
    def test_no_edges(self):
        g = independent_tasks(7, factory)
        assert len(g) == 7 and g.num_edges() == 0
        assert g.longest_path_length() == 1


class TestForkJoin:
    def test_single_stage(self):
        g = fork_join(4, factory)
        assert len(g) == 6  # src + 4 + sink
        assert g.num_edges() == 8
        assert len(g.sources()) == 1 and len(g.sinks()) == 1
        assert g.longest_path_length() == 3

    def test_multi_stage_chains_sinks(self):
        g = fork_join(3, factory, stages=2)
        assert len(g) == 1 + 2 * (3 + 1)
        assert g.longest_path_length() == 5


class TestTrees:
    def test_out_tree_counts(self):
        g = out_tree(3, 2, factory)
        assert len(g) == 7  # 1 + 2 + 4
        assert g.longest_path_length() == 3
        assert len(g.sources()) == 1
        assert len(g.sinks()) == 4

    def test_in_tree_is_reversed(self):
        g = in_tree(3, 2, factory)
        assert len(g) == 7
        assert len(g.sources()) == 4
        assert len(g.sinks()) == 1

    def test_depth_one_is_single_node(self):
        assert len(out_tree(1, 5, factory)) == 1


class TestLayeredRandom:
    def test_layer_count_and_depth(self):
        g = layered_random(4, 3, factory, seed=0)
        assert len(g) == 12
        assert g.longest_path_length() == 4

    def test_every_later_task_has_predecessor(self):
        g = layered_random(5, 4, factory, edge_probability=0.0, seed=0)
        # Even with p=0, the generator guarantees connectivity.
        for t in range(4, 20):
            assert g.in_degree(t) >= 1

    def test_deterministic_given_seed(self):
        a = layered_random(4, 4, factory, seed=42)
        b = layered_random(4, 4, factory, seed=42)
        assert a.edges() == b.edges()

    def test_rejects_bad_probability(self):
        with pytest.raises(InvalidParameterError):
            layered_random(2, 2, factory, edge_probability=1.5)


class TestErdosRenyi:
    def test_is_acyclic_by_construction(self):
        g = erdos_renyi_dag(30, factory, edge_probability=0.3, seed=1)
        order = g.topological_order()  # raises if cyclic
        assert len(order) == 30

    def test_edges_follow_vertex_order(self):
        g = erdos_renyi_dag(20, factory, edge_probability=0.5, seed=2)
        assert all(u < v for u, v in g.edges())

    def test_probability_zero_gives_no_edges(self):
        assert erdos_renyi_dag(10, factory, edge_probability=0.0).num_edges() == 0

    def test_probability_one_gives_complete_dag(self):
        g = erdos_renyi_dag(6, factory, edge_probability=1.0)
        assert g.num_edges() == 15

    def test_deterministic_given_seed(self):
        a = erdos_renyi_dag(15, factory, edge_probability=0.2, seed=9)
        b = erdos_renyi_dag(15, factory, edge_probability=0.2, seed=9)
        assert a.edges() == b.edges()


# ----------------------------------------------------------------------
# Stream pinning: the vectorized draws must reproduce the per-edge loops
# ----------------------------------------------------------------------
def _scalar_layered_random(
    n_layers, layer_width, model_factory, *, edge_probability, gen, fallback_layers=None
):
    """The per-edge ``gen.random()`` loop the block draws replace.

    Layers that draw a ``gen.integers`` fallback are added to
    ``fallback_layers`` when a set is given.
    """
    g = TaskGraph()
    layers = []
    next_id = 0
    for _ in range(n_layers):
        layer = []
        for _ in range(layer_width):
            g.add_task(next_id, model_factory())
            layer.append(next_id)
            next_id += 1
        layers.append(layer)
    for i in range(1, n_layers):
        for v in layers[i]:
            preds = [u for u in layers[i - 1] if gen.random() < edge_probability]
            if not preds:
                preds = [layers[i - 1][int(gen.integers(len(layers[i - 1])))]]
                if fallback_layers is not None:
                    fallback_layers.add(i)
            for u in preds:
                g.add_edge(u, v)
    return g


def _scalar_erdos_renyi_dag(n, model_factory, *, edge_probability, gen):
    """The O(n^2) Python pair loop the triangle nonzeros replace."""
    g = TaskGraph()
    for i in range(n):
        g.add_task(i, model_factory())
    if n > 1:
        mask = gen.random((n, n)) < edge_probability
        for i in range(n):
            for j in range(i + 1, n):
                if mask[i, j]:
                    g.add_edge(i, j)
    return g


def _assert_same_graph(a, b):
    assert [t.id for t in a.tasks()] == [t.id for t in b.tasks()]
    assert a.edges() == b.edges()
    # edges() groups by source; predecessor lists keep the insertion order.
    assert [a.predecessors(t) for t in a] == [b.predecessors(t) for t in b]
    assert all(type(u) is int and type(v) is int for u, v in a.edges())


SEEDS = (0, 1, 7, 2024)
PROBABILITIES = (0.0, 0.3, 1.0)


class TestStreamPinning:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("width", (1, 7, 32))
    @pytest.mark.parametrize("p", PROBABILITIES)
    def test_layered_random_matches_scalar_draws(self, seed, width, p):
        # p=0 empties every row, so each target task also draws the
        # gen.integers fallback between rows.
        gen_new = np.random.default_rng(seed)
        gen_ref = np.random.default_rng(seed)
        new = layered_random(5, width, factory, edge_probability=p, seed=gen_new)
        ref = _scalar_layered_random(5, width, factory, edge_probability=p, gen=gen_ref)
        _assert_same_graph(new, ref)
        # Both leave a shared generator at the same stream position.
        assert gen_new.random() == gen_ref.random()

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("bit_generator", (np.random.PCG64, np.random.MT19937))
    def test_layered_random_mixes_block_and_fallback_layers(self, seed, bit_generator):
        # At width 7 and p=0.3 a row is empty with probability 0.7**7, so
        # about half of the 15 target layers take the rewind-and-redraw
        # path and the others keep their block draw.  MT19937 pins the
        # state restore for a second bit generator.
        gen_new = np.random.Generator(bit_generator(seed))
        gen_ref = np.random.Generator(bit_generator(seed))
        fallback_layers = set()
        new = layered_random(16, 7, factory, edge_probability=0.3, seed=gen_new)
        ref = _scalar_layered_random(
            16, 7, factory, edge_probability=0.3, gen=gen_ref, fallback_layers=fallback_layers
        )
        assert 0 < len(fallback_layers) < 15
        _assert_same_graph(new, ref)
        assert gen_new.random() == gen_ref.random()

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n", (1, 7, 32))
    @pytest.mark.parametrize("p", PROBABILITIES)
    def test_erdos_renyi_matches_pair_loop(self, seed, n, p):
        gen_new = np.random.default_rng(seed)
        gen_ref = np.random.default_rng(seed)
        new = erdos_renyi_dag(n, factory, edge_probability=p, seed=gen_new)
        ref = _scalar_erdos_renyi_dag(n, factory, edge_probability=p, gen=gen_ref)
        _assert_same_graph(new, ref)
        assert gen_new.random() == gen_ref.random()
