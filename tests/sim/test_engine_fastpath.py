"""Engine fast-path observability: EngineStats, scan skipping, priorities.

Performance counters are pure observability — these tests pin down their
semantics (what counts as a scan, a skip, a step) and the fast path's
user-visible guarantees (priority ordering via sorted insertion, stats on
resilient runs, ``profile_engine`` aggregation).
"""

from __future__ import annotations

from contextlib import nullcontext

import pytest

from repro.adversary.arbitrary import AdaptiveChainSource, chain_forest_platform
from repro.baselines.online import AvailableProcessorsAllocator, MaxUsefulAllocator
from repro.core.allocator import LpaAllocator
from repro.core.constants import MU_STAR
from repro.core.scheduler import OnlineScheduler
from repro.graph.generators import chain, independent_tasks, layered_random
from repro.graph.taskgraph import TaskGraph
from repro.obs.events import AllocationDecided, CollectingTracer
from repro.resilience.faults import FaultTrace
from repro.resilience.retry import RetryPolicy
from repro.sim.allocation import Allocator
from repro.sim.engine import EngineStats, ListScheduler, profile_engine
from repro.sim.sources import ReleasedTaskSource, StaticGraphSource
from repro.speedup import (
    CallableModel,
    CommunicationModel,
    PowerLawModel,
    RandomModelFactory,
    RooflineModel,
)


def comm():
    return CommunicationModel(w=50.0, c=0.5)


class TestEngineStats:
    def test_counters_on_plain_run(self):
        graph = independent_tasks(40, comm)
        result = OnlineScheduler.for_family("communication", 16).run(graph)
        stats = result.stats
        assert stats is not None
        assert stats.tasks_started == 40
        assert stats.events > 0
        assert stats.allocator_calls == 40
        # Identical kernels: one miss, the rest cache hits.
        assert stats.alloc_cache_misses == 1
        assert stats.alloc_cache_hits == 39
        assert stats.alloc_cache_hit_rate() == pytest.approx(39 / 40)

    def test_scan_steps_near_linear_on_wide_set(self):
        """The min-demand bound keeps total scan work ~n, not ~n^2."""
        n = 400
        graph = independent_tasks(n, comm)
        result = OnlineScheduler.for_family("communication", 16).run(graph)
        assert result.stats.scan_steps <= 3 * n

    def test_hit_rate_zero_when_no_calls(self):
        assert EngineStats().alloc_cache_hit_rate() == 0.0

    def test_merge_and_as_dict(self):
        a = EngineStats(events=2, tasks_started=3, alloc_cache_hits=5)
        b = EngineStats(events=1, queue_scans=4, alloc_cache_misses=5)
        a.merge(b)
        d = a.as_dict()
        assert d["events"] == 3 and d["queue_scans"] == 4
        assert d["alloc_cache_hit_rate"] == 0.5
        assert "5 cache hits" in a.summary()


class TestScanSkipping:
    def test_releases_into_full_platform_are_skipped_scans(self):
        """Tasks arriving while nothing can fit must not walk the queue."""
        model = RooflineModel(w=100.0, max_parallelism=4)  # 4 procs, 25s
        releases = [(0.0, model), (1.0, model), (2.0, model), (3.0, model)]
        source = ReleasedTaskSource(releases)
        result = ListScheduler(4, MaxUsefulAllocator()).run(source)
        stats = result.stats
        assert stats.tasks_started == 4
        # Releases at t=1,2,3 land on a saturated platform: the min-demand
        # bound proves those passes useless without touching the queue.
        assert stats.scans_skipped == 3
        # Started tasks are each examined exactly once over the whole run.
        assert stats.scan_steps == 4

    def test_chain_never_scans_blocked_tail(self):
        graph = chain(50, comm)
        result = OnlineScheduler.for_family("communication", 8).run(graph)
        # One task revealed per completion: every scan examines one entry.
        assert result.stats.scan_steps == 50
        assert result.stats.queue_scans == 50


class TestPriorityOrdering:
    def test_priority_orders_simultaneous_tasks(self):
        """On P=1, equal-demand tasks must execute in priority order."""
        g = TaskGraph()
        works = [30.0, 10.0, 50.0, 20.0, 40.0]
        for i, w in enumerate(works):
            g.add_task(f"t{i}", CommunicationModel(w=w, c=0.5))
        scheduler = ListScheduler(
            1,
            LpaAllocator(MU_STAR["communication"]),
            priority=lambda task, alloc: task.model.w,  # smallest work first
        )
        result = scheduler.run(g)
        order = sorted(result.schedule.entries, key=lambda e: e.start)
        assert [e.task_id for e in order] == ["t1", "t3", "t0", "t4", "t2"]

    def test_priority_ties_keep_admission_order(self):
        g = TaskGraph()
        for i in range(6):
            g.add_task(f"t{i}", comm())
        scheduler = ListScheduler(
            1, LpaAllocator(MU_STAR["communication"]), priority=lambda t, a: 0
        )
        result = scheduler.run(g)
        order = sorted(result.schedule.entries, key=lambda e: e.start)
        assert [e.task_id for e in order] == [f"t{i}" for i in range(6)]


class TestResilientStats:
    def test_stats_attached_and_count_reallocations(self):
        graph = chain(6, comm)
        trace = FaultTrace([(10.0, "fail", 0), (40.0, "recover", 0)])
        scheduler = OnlineScheduler.for_family("communication", 4)
        result = scheduler.run(graph, faults=trace, retry=RetryPolicy(max_attempts=5))
        stats = result.stats
        assert stats is not None
        assert stats.tasks_started >= 6
        # Capacity changes force re-allocations beyond one call per task.
        assert stats.allocator_calls >= 6
        assert stats.queue_scans > 0


class TestProfileEngine:
    def test_sink_accumulates_across_runs(self):
        graph = independent_tasks(10, comm)
        scheduler = OnlineScheduler.for_family("communication", 8)
        with profile_engine() as sink:
            scheduler.run(graph)
            scheduler.run(independent_tasks(5, comm))
            assert sink.tasks_started == 15
        # Outside the block new runs no longer accumulate.
        scheduler.run(independent_tasks(3, comm))
        assert sink.tasks_started == 15

    def test_nested_profiling_restores_outer_sink(self):
        graph = independent_tasks(4, comm)
        scheduler = OnlineScheduler.for_family("communication", 8)
        with profile_engine() as outer:
            with profile_engine() as inner:
                scheduler.run(graph)
            assert inner.tasks_started == 4
            scheduler.run(graph)
        assert outer.tasks_started == 4  # only the run outside `inner`


# ----------------------------------------------------------------------
# Static allocation prefetch: identical to the per-task path
# ----------------------------------------------------------------------
MU = MU_STAR["general"]


def _layered(seed=5, family="general"):
    return layered_random(6, 8, RandomModelFactory(family, seed=seed), seed=seed)


def _count_scalar(allocator):
    """Count the allocator's scalar ``allocate`` calls (instance-level spy)."""
    calls = [0]
    scalar = allocator.allocate

    def counting(model, P, *, free=None):
        calls[0] += 1
        return scalar(model, P, free=free)

    allocator.allocate = counting
    return calls


def _no_prefetch(self, models, P):
    return nullcontext(0)


def _run_pair(monkeypatch, make_allocator, make_source, P, *, runs=1, tracer=False):
    """Run with the prefetch and with it disabled; return both sides.

    Each side is ``(results, allocator, scalar_calls, events)`` after
    ``runs`` consecutive runs on one allocator (later runs see a warm cache).
    """
    sides = []
    for disabled in (False, True):
        with monkeypatch.context() as m:
            if disabled:
                m.setattr(Allocator, "prefetch", _no_prefetch)
            allocator = make_allocator()
            calls = _count_scalar(allocator)
            collected = CollectingTracer() if tracer else None
            results = [
                ListScheduler(P, allocator).run(make_source(), tracer=collected)
                for _ in range(runs)
            ]
            sides.append((results, allocator, calls[0], collected))
    return sides


def _assert_same(with_prefetch, per_task):
    results_a, alloc_a, _, events_a = with_prefetch
    results_b, alloc_b, _, events_b = per_task
    for a, b in zip(results_a, results_b, strict=True):
        assert list(a.schedule) == list(b.schedule)
        assert a.allocations == b.allocations
        assert a.stats == b.stats
    assert alloc_a.cache_info() == alloc_b.cache_info()
    if events_a is not None:
        assert events_a.events == events_b.events


class TestStaticPrefetch:
    def test_lpa_resolves_misses_without_scalar_calls(self, monkeypatch):
        graph = _layered()
        fast, slow = _run_pair(monkeypatch, lambda: LpaAllocator(MU), lambda: graph, 64)
        _assert_same(fast, slow)
        misses = fast[0][0].stats.alloc_cache_misses
        assert misses == len({t.model.cache_key() for t in graph.tasks()})
        assert fast[2] == 0  # every miss came from the batch table
        assert slow[2] == misses

    def test_traced_cache_statuses_unchanged(self, monkeypatch):
        graph = _layered(seed=6, family="amdahl")
        fast, slow = _run_pair(
            monkeypatch, lambda: LpaAllocator(MU), lambda: graph, 16, tracer=True
        )
        _assert_same(fast, slow)
        statuses = [e.cache for e in fast[3].of_type(AllocationDecided)]
        assert statuses == [e.cache for e in slow[3].of_type(AllocationDecided)]
        assert set(statuses) == {"miss"}

    def test_warm_cache_gives_zero_misses(self, monkeypatch):
        graph = _layered(seed=7)
        fast, slow = _run_pair(
            monkeypatch, lambda: LpaAllocator(MU), lambda: graph, 64, runs=2
        )
        _assert_same(fast, slow)
        warm = fast[0][1].stats
        assert warm.alloc_cache_misses == 0
        assert warm.alloc_cache_hits == len(graph)

    def test_eviction_order_unchanged(self, monkeypatch):
        # 12 distinct keys cycled three times through a 5-entry LRU: keys
        # are evicted and missed again, each miss served by the table.
        models = [CommunicationModel(w=10.0 + k, c=0.5) for k in range(12)]
        graph = TaskGraph()
        for i in range(36):
            graph.add_task(i, models[i % 12])
            if i >= 12:
                graph.add_edge(i - 12, i)

        def make():
            allocator = LpaAllocator(MU_STAR["communication"])
            allocator.configure_cache(5)
            return allocator

        fast, slow = _run_pair(monkeypatch, make, lambda: graph, 8)
        _assert_same(fast, slow)
        info = fast[1].cache_info()
        assert info.misses > 12 and info.currsize == 5
        assert fast[2] == 0

    def test_disabled_cache(self, monkeypatch):
        def make():
            allocator = LpaAllocator(MU)
            allocator.configure_cache(0)
            return allocator

        graph = _layered(seed=8)
        fast, slow = _run_pair(monkeypatch, make, lambda: graph, 64)
        _assert_same(fast, slow)
        assert fast[2] == slow[2] == len(graph)  # all bypasses, all scalar

    def test_uses_free_allocator(self, monkeypatch):
        graph = _layered(seed=9)
        fast, slow = _run_pair(monkeypatch, AvailableProcessorsAllocator, lambda: graph, 32)
        _assert_same(fast, slow)
        assert fast[2] == len(graph)

    def test_task_aware_allocator(self, monkeypatch):
        class TaskAwareLpa(LpaAllocator):
            def allocate_task(self, task, P, *, free=None):
                return self.allocate_cached(task.model, P, free=free)

        graph = _layered(seed=10)
        fast, slow = _run_pair(monkeypatch, lambda: TaskAwareLpa(MU), lambda: graph, 64)
        _assert_same(fast, slow)
        # The engine leaves task-aware allocators alone: scalar misses.
        assert fast[2] == fast[0][0].stats.alloc_cache_misses > 0

    def test_overridden_allocate(self, monkeypatch):
        class Shifted(LpaAllocator):
            def allocate(self, model, P, *, free=None):
                alloc = super().allocate(model, P, free=free)
                return type(alloc)(initial=alloc.initial, final=max(1, alloc.final // 2))

        graph = _layered(seed=11)
        fast, slow = _run_pair(monkeypatch, lambda: Shifted(MU), lambda: graph, 64)
        _assert_same(fast, slow)
        assert fast[2] == fast[0][0].stats.alloc_cache_misses > 0

    def test_models_without_usable_keys(self, monkeypatch):
        class ListKeyModel(CommunicationModel):
            def cache_key(self):
                return ["communication", self.w, self.c]

        graph = TaskGraph()
        models = [
            CallableModel(lambda p: 10.0 / p + 0.1 * p),
            ListKeyModel(w=50.0, c=0.5),
            CommunicationModel(w=40.0, c=0.5),
            PowerLawModel(60.0),
        ]
        for i in range(12):
            graph.add_task(i, models[i % 4])
        fast, slow = _run_pair(monkeypatch, lambda: LpaAllocator(MU), lambda: graph, 16)
        _assert_same(fast, slow)
        info = fast[1].cache_info()
        assert info.bypasses == 6 and info.misses == 2 and info.hits == 4
        # The bypasses, plus the batch's scalar lane for the power-law
        # model (outside Eq. 1); the communication model is vectorized.
        assert fast[2] == 7 and slow[2] == 8

    def test_released_task_source(self, monkeypatch):
        releases = [(float(i), CommunicationModel(w=20.0 + i, c=0.3)) for i in range(10)]
        fast, slow = _run_pair(
            monkeypatch,
            lambda: LpaAllocator(MU),
            lambda: ReleasedTaskSource(releases),
            8,
        )
        _assert_same(fast, slow)
        assert fast[2] == 10  # not a static graph: no prefetch

    def test_adaptive_chain_source(self, monkeypatch):
        P = chain_forest_platform(2)[2]
        fast, slow = _run_pair(
            monkeypatch, lambda: LpaAllocator(MU), lambda: AdaptiveChainSource(2), P
        )
        _assert_same(fast, slow)

    def test_table_cleared_after_exception(self):
        class Failing(StaticGraphSource):
            def on_complete(self, task_id):
                raise RuntimeError("source failed")

        allocator = LpaAllocator(MU)
        with pytest.raises(RuntimeError, match="source failed"):
            ListScheduler(64, allocator).run(Failing(_layered(seed=12)))
        assert allocator._prefetched is None
