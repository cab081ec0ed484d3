"""Unit tests for the list-scheduling engine (the loop of Algorithm 1)."""

import pytest

from repro.baselines.online import MaxUsefulAllocator, SingleProcessorAllocator
from repro.core.allocator import Allocation, Allocator
from repro.exceptions import SimulationError
from repro.graph import TaskGraph
from repro.graph.generators import chain, fork_join, independent_tasks
from repro.sim import ListScheduler
from repro.speedup import AmdahlModel, RooflineModel


def amdahl():
    return AmdahlModel(8.0, 1.0)


class TestBasicExecution:
    def test_single_task(self):
        g = TaskGraph()
        g.add_task("a", RooflineModel(12.0, 4))
        result = ListScheduler(8, MaxUsefulAllocator()).run(g)
        assert result.makespan == pytest.approx(3.0)  # t(4)
        assert result.schedule["a"].procs == 4

    def test_chain_is_sequential(self):
        g = chain(3, amdahl)
        result = ListScheduler(4, MaxUsefulAllocator()).run(g)
        t = AmdahlModel(8.0, 1.0).time(4)
        assert result.makespan == pytest.approx(3 * t)
        for i in range(1, 3):
            assert result.schedule[i].start == pytest.approx(result.schedule[i - 1].end)

    def test_independent_tasks_run_in_parallel(self):
        g = independent_tasks(4, amdahl)
        result = ListScheduler(4, SingleProcessorAllocator()).run(g)
        assert result.makespan == pytest.approx(9.0)  # all at once, t(1) = 9
        assert all(e.start == 0.0 for e in result.schedule)

    def test_queue_when_not_enough_processors(self):
        g = independent_tasks(3, amdahl)
        result = ListScheduler(2, SingleProcessorAllocator()).run(g)
        starts = sorted(e.start for e in result.schedule)
        assert starts[0] == starts[1] == 0.0
        assert starts[2] == pytest.approx(9.0)

    def test_fork_join_feasible(self):
        g = fork_join(6, amdahl, stages=3)
        result = ListScheduler(8, MaxUsefulAllocator()).run(g)
        result.schedule.validate(g)

    def test_empty_graph(self):
        result = ListScheduler(4, MaxUsefulAllocator()).run(TaskGraph())
        assert result.makespan == 0.0
        assert len(result.schedule) == 0

    def test_result_graph_is_input(self, small_graph):
        result = ListScheduler(4, MaxUsefulAllocator()).run(small_graph)
        assert result.graph is small_graph


class TestListSchedulingSemantics:
    def test_later_small_task_fills_gap(self):
        """List scheduling scans the whole queue, not just its head."""
        g = TaskGraph()
        g.add_task("big", RooflineModel(40.0, 4))  # wants 4 procs
        g.add_task("small", RooflineModel(10.0, 1))  # wants 1 proc
        g.add_task("blocker", RooflineModel(40.0, 2))
        # At t=0 with P=5: big(4) + blocker... queue order: big, small, blocker
        result = ListScheduler(5, MaxUsefulAllocator()).run(g)
        assert result.schedule["big"].start == 0.0
        assert result.schedule["small"].start == 0.0  # fits alongside big
        assert result.schedule["blocker"].start > 0.0

    def test_fifo_order_among_equal_tasks(self):
        g = independent_tasks(4, lambda: RooflineModel(8.0, 2))
        result = ListScheduler(2, MaxUsefulAllocator()).run(g)
        starts = [result.schedule[i].start for i in range(4)]
        assert starts == sorted(starts)

    def test_priority_rule_reorders_queue(self):
        g = independent_tasks(3, lambda: RooflineModel(8.0, 2))
        # Reverse priority: task 2 first.
        sched = ListScheduler(
            2, MaxUsefulAllocator(), priority=lambda task, alloc: -task.id
        )
        result = sched.run(g)
        assert result.schedule[2].start == 0.0
        assert result.schedule[0].start == pytest.approx(8.0)


class TestAllocatorContract:
    def test_infeasible_allocation_rejected(self):
        class BadAllocator(Allocator):
            def allocate(self, model, P, *, free=None):
                return Allocation(initial=P + 1, final=P + 1)

        g = independent_tasks(1, amdahl)
        with pytest.raises(SimulationError, match="infeasible"):
            ListScheduler(4, BadAllocator()).run(g)

    def test_free_processors_passed_to_allocator(self):
        seen = []

        class SpyAllocator(Allocator):
            # Observes the instantaneous free count, so it must opt out of
            # the engine's allocation memoization like any free-dependent
            # allocator (otherwise the second call is served from cache).
            uses_free = True

            def allocate(self, model, P, *, free=None):
                seen.append(free)
                return Allocation(initial=1, final=1)

        g = chain(2, amdahl)
        ListScheduler(4, SpyAllocator()).run(g)
        assert seen[0] == 4  # all free at t=0
        assert seen[1] == 4  # freed again when the first task completed

    def test_allocations_recorded(self, small_graph):
        result = ListScheduler(8, MaxUsefulAllocator()).run(small_graph)
        assert set(result.allocations) == {"a", "b", "c", "d"}
        assert all(a.final >= 1 for a in result.allocations.values())


class TestSimultaneousEvents:
    def test_simultaneous_completions_release_together(self):
        """Two equal tasks end at the same instant; a 4-proc task needs both."""
        g = TaskGraph()
        g.add_task("x", RooflineModel(8.0, 2))
        g.add_task("y", RooflineModel(8.0, 2))
        g.add_task("z", RooflineModel(4.0, 4))
        g.add_edge("x", "z")
        g.add_edge("y", "z")
        result = ListScheduler(4, MaxUsefulAllocator()).run(g)
        assert result.schedule["z"].start == pytest.approx(4.0)
        assert result.schedule["z"].procs == 4

    def test_simultaneous_reveals_follow_insertion_order(self):
        """Successors revealed at one instant queue in graph insertion
        order, not in the order the edges were added."""
        g = TaskGraph()
        model = RooflineModel(8.0, 2)
        for i in range(6):
            g.add_task(("src", i), model)
        for j in range(6):
            g.add_task(("dst", j), model)
        for i in range(6):
            for j in range(6):
                g.add_edge(("src", i), ("dst", 5 - j))
        result = ListScheduler(6, MaxUsefulAllocator()).run(g)
        dst = [("dst", j) for j in range(6)]
        assert all(result.revealed_at[t] == pytest.approx(8.0) for t in dst)
        starts = [result.schedule[t].start for t in dst]
        assert starts == pytest.approx([8.0, 8.0, 8.0, 12.0, 12.0, 12.0])

    def test_validates_on_all_workloads(self, small_graph):
        for P in (1, 2, 5, 32):
            result = ListScheduler(P, MaxUsefulAllocator()).run(small_graph)
            result.schedule.validate(small_graph)


class TestRevealTimes:
    def test_sources_revealed_at_zero(self, small_graph):
        result = ListScheduler(8, MaxUsefulAllocator()).run(small_graph)
        assert result.revealed_at["a"] == 0.0

    def test_successors_revealed_at_predecessor_completion(self, small_graph):
        result = ListScheduler(8, MaxUsefulAllocator()).run(small_graph)
        assert result.revealed_at["b"] == pytest.approx(result.schedule["a"].end)

    def test_waiting_time_zero_when_started_immediately(self):
        g = independent_tasks(2, lambda: RooflineModel(8.0, 4))
        result = ListScheduler(8, MaxUsefulAllocator()).run(g)
        assert all(w == pytest.approx(0.0) for w in result.waiting_times().values())

    def test_waiting_time_positive_when_queued(self):
        g = independent_tasks(3, lambda: RooflineModel(8.0, 2))
        result = ListScheduler(2, MaxUsefulAllocator()).run(g)
        waits = result.waiting_times()
        assert waits[0] == 0.0
        assert waits[2] == pytest.approx(8.0)
