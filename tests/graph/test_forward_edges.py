"""Differential test of ``TaskGraph.add_edge`` against an always-probe graph.

``TaskGraph`` skips the cycle probe for forward edges (earlier-inserted
task to later one) while the graph holds no backward edge.  The reference
below probes every edge, as ``add_edge`` did before that fast path; both
must accept and reject the same edges with the same exception types and
end in the same graph.
"""

from __future__ import annotations

import random
from collections import deque

import pytest

from repro.exceptions import CycleError, UnknownTaskError
from repro.graph import TaskGraph
from repro.speedup import AmdahlModel


class _ProbeAlwaysGraph:
    """Dict-of-lists DAG whose ``add_edge`` runs a reachability probe on every edge."""

    def __init__(self):
        self.succ = {}
        self.pred = {}
        self.num_edges = 0

    def add_task(self, task_id):
        self.succ[task_id] = []
        self.pred[task_id] = []

    def add_edge(self, src, dst):
        for t in (src, dst):
            if t not in self.succ:
                raise UnknownTaskError(t)
        if src == dst:
            raise CycleError("self-loop")
        if dst in self.succ[src]:
            return
        if self._reaches(dst, src):
            raise CycleError("cycle")
        self.succ[src].append(dst)
        self.pred[dst].append(src)
        self.num_edges += 1

    def _reaches(self, start, goal):
        stack, seen = [start], {start}
        while stack:
            for v in self.succ[stack.pop()]:
                if v == goal:
                    return True
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return False

    def edges(self):
        return [(u, v) for u, vs in self.succ.items() for v in vs]

    def topological_order(self):
        indeg = {t: len(p) for t, p in self.pred.items()}
        ready = deque(t for t in self.succ if indeg[t] == 0)
        order = []
        while ready:
            u = ready.popleft()
            order.append(u)
            for v in self.succ[u]:
                indeg[v] -= 1
                if indeg[v] == 0:
                    ready.append(v)
        return order


def _model():
    return AmdahlModel(4.0, 1.0)


def _pair(ids):
    new, ref = TaskGraph(), _ProbeAlwaysGraph()
    for t in ids:
        new.add_task(t, _model())
        ref.add_task(t)
    return new, ref


def _apply(graph, src, dst):
    try:
        graph.add_edge(src, dst)
    except (CycleError, UnknownTaskError) as exc:
        return type(exc)
    return None


def _assert_same(new, ref):
    assert new.edges() == ref.edges()
    assert new.num_edges() == ref.num_edges
    assert new.topological_order() == ref.topological_order()


def test_backward_edge_then_forward_edge_closing_a_cycle():
    new, ref = _pair(["a", "b", "c"])
    for src, dst in [("a", "b"), ("c", "a"), ("b", "c"), ("a", "c")]:
        assert _apply(new, src, dst) is _apply(ref, src, dst)
    # c -> a is backward; b -> c and a -> c are forward but close cycles.
    _assert_same(new, ref)
    assert new.edges() == [("a", "b"), ("c", "a")]


def test_rejected_backward_edge_keeps_the_graph_forward():
    new, ref = _pair(["a", "b", "c"])
    for src, dst in [("a", "b"), ("b", "c"), ("c", "a"), ("a", "c")]:
        assert _apply(new, src, dst) is _apply(ref, src, dst)
    _assert_same(new, ref)
    assert new.edges() == [("a", "b"), ("a", "c"), ("b", "c")]


def _random_ops(rng, ids, order, n_ops):
    """Mostly forward edges, with backward, duplicate, self-loop and unknown ones."""
    position = {t: i for i, t in enumerate(order)}
    done = []
    for _ in range(n_ops):
        kind = rng.random()
        if kind < 0.55:
            u, v = sorted(rng.sample(ids, 2), key=position.__getitem__)
        elif kind < 0.75:
            v, u = sorted(rng.sample(ids, 2), key=position.__getitem__)
        elif kind < 0.85 and done:
            u, v = rng.choice(done)
        elif kind < 0.92:
            u = v = rng.choice(ids)
        else:
            u, v = rng.choice(ids), ("ghost", rng.randrange(3))
            if rng.random() < 0.5:
                u, v = v, u
        done.append((u, v))
        yield u, v


@pytest.mark.parametrize("seed", range(40))
def test_add_edge_matches_always_probe_reference(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 14)
    ids = [("t", k) if k % 2 else f"t{k}" for k in range(n)]
    order = ids[:]
    rng.shuffle(order)
    new, ref = _pair(order)
    # Forward-only prefixes are the fast path; keep one in every other graph.
    forward_only = rng.randrange(0, 30) if seed % 2 else 0
    position = {t: i for i, t in enumerate(order)}
    for k in range(forward_only):
        u, v = sorted(rng.sample(ids, 2), key=position.__getitem__)
        assert _apply(new, u, v) is _apply(ref, u, v) is None, k
    for u, v in _random_ops(rng, ids, order, rng.randrange(5, 60)):
        assert _apply(new, u, v) is _apply(ref, u, v), (u, v)
    _assert_same(new, ref)
