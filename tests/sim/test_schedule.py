"""Unit tests for Schedule recording and feasibility validation."""

import numpy as np
import pytest

from repro.exceptions import (
    CapacityExceededError,
    PrecedenceViolationError,
    ScheduleError,
)
from repro.sim import Schedule


class TestRecording:
    def test_add_and_lookup(self):
        s = Schedule(4)
        s.add("a", 0.0, 2.0, 2)
        assert s["a"].duration == 2.0
        assert s["a"].area == 4.0
        assert "a" in s and len(s) == 1

    def test_duplicate_rejected(self):
        s = Schedule(4)
        s.add("a", 0.0, 1.0, 1)
        with pytest.raises(ScheduleError, match="twice"):
            s.add("a", 1.0, 2.0, 1)

    def test_over_allocation_rejected(self):
        s = Schedule(4)
        with pytest.raises(CapacityExceededError):
            s.add("a", 0.0, 1.0, 5)

    def test_negative_duration_rejected(self):
        s = Schedule(4)
        with pytest.raises(ScheduleError):
            s.add("a", 2.0, 1.0, 1)

    def test_zero_procs_rejected(self):
        s = Schedule(4)
        with pytest.raises(ScheduleError):
            s.add("a", 0.0, 1.0, 0)

    def test_initial_alloc_defaults_to_procs(self):
        s = Schedule(4)
        entry = s.add("a", 0.0, 1.0, 3)
        assert entry.initial_alloc == 3

    def test_initial_alloc_kept_when_given(self):
        s = Schedule(8)
        entry = s.add("a", 0.0, 1.0, 3, initial_alloc=7)
        assert entry.initial_alloc == 7

    def test_missing_task_lookup(self):
        with pytest.raises(ScheduleError):
            Schedule(2)["ghost"]


class TestMetrics:
    def test_makespan(self):
        s = Schedule(4)
        s.add("a", 0.0, 2.0, 1)
        s.add("b", 1.0, 5.0, 1)
        assert s.makespan() == 5.0

    def test_empty_makespan(self):
        assert Schedule(4).makespan() == 0.0

    def test_total_area(self):
        s = Schedule(4)
        s.add("a", 0.0, 2.0, 3)
        s.add("b", 2.0, 3.0, 2)
        assert s.total_area() == pytest.approx(8.0)

    def test_average_utilization(self):
        s = Schedule(4)
        s.add("a", 0.0, 2.0, 4)
        s.add("b", 2.0, 4.0, 2)
        assert s.average_utilization() == pytest.approx((8 + 4) / (4 * 4))

    def test_peak_utilization(self):
        s = Schedule(8)
        s.add("a", 0.0, 2.0, 3)
        s.add("b", 1.0, 3.0, 4)
        assert s.peak_utilization() == 7


class TestUtilizationProfile:
    def test_breakpoints_and_usage(self):
        s = Schedule(8)
        s.add("a", 0.0, 2.0, 3)
        s.add("b", 1.0, 3.0, 4)
        bps, usage = s.utilization_profile()
        assert bps.tolist() == [0.0, 1.0, 2.0, 3.0]
        assert usage.tolist() == [3, 7, 4]

    def test_idle_gap_shows_as_zero(self):
        s = Schedule(8)
        s.add("a", 0.0, 1.0, 2)
        s.add("b", 2.0, 3.0, 2)
        _, usage = s.utilization_profile()
        assert usage.tolist() == [2, 0, 2]

    def test_empty_schedule(self):
        bps, usage = Schedule(2).utilization_profile()
        assert usage.size == 0

    @staticmethod
    def _reference_profile(s):
        """The per-entry slice-add loop the difference array replaced."""
        points = sorted({e.start for e in s} | {e.end for e in s})
        breakpoints = np.asarray(points, dtype=float)
        usage = np.zeros(len(points) - 1, dtype=np.int64)
        for e in s:
            i0 = int(np.searchsorted(breakpoints, e.start))
            i1 = int(np.searchsorted(breakpoints, e.end))
            usage[i0:i1] += e.procs
        return breakpoints, usage

    def _assert_matches_reference(self, s):
        bps, usage = s.utilization_profile()
        ref_bps, ref_usage = self._reference_profile(s)
        assert bps.dtype == ref_bps.dtype and usage.dtype == ref_usage.dtype
        assert bps.tolist() == ref_bps.tolist()
        assert usage.tolist() == ref_usage.tolist()

    def test_single_entry(self):
        s = Schedule(4)
        s.add("a", 1.5, 4.0, 3)
        self._assert_matches_reference(s)
        assert s.utilization_profile()[1].tolist() == [3]

    def test_zero_duration_entries_contribute_nothing(self):
        s = Schedule(8)
        s.add("a", 0.0, 2.0, 3)
        s.add("z0", 1.0, 1.0, 8)
        s.add("z1", 2.0, 2.0, 5)
        s.add("z2", 5.0, 5.0, 1)
        self._assert_matches_reference(s)
        bps, usage = s.utilization_profile()
        assert bps.tolist() == [0.0, 1.0, 2.0, 5.0]
        assert usage.tolist() == [3, 3, 0]

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_per_entry_loop_on_random_schedules(self, seed):
        rng = np.random.default_rng(seed)
        P = int(rng.integers(1, 64))
        s = Schedule(P)
        # A small grid of times forces shared breakpoints and, with equal
        # start/end draws, zero-duration entries.
        grid = np.round(rng.uniform(0.0, 10.0, size=8), 3)
        for i in range(int(rng.integers(1, 200))):
            a, b = sorted(rng.choice(grid, size=2))
            s.add(i, float(a), float(b), int(rng.integers(1, P + 1)))
        self._assert_matches_reference(s)


class TestValidation:
    def test_capacity_violation_detected(self):
        s = Schedule(4)
        s.add("a", 0.0, 2.0, 3)
        s.add("b", 0.0, 2.0, 3)
        with pytest.raises(CapacityExceededError):
            s.validate()

    def test_ulp_sliver_overlap_tolerated(self):
        s = Schedule(2)
        t0 = 0.1 + 0.2  # 0.30000000000000004
        s.add("a", 0.0, t0, 2)
        s.add("b", 0.3, 0.6, 2)  # overlaps by ~5e-17
        s.validate()  # must not raise

    def test_precedence_violation_detected(self, small_graph):
        s = Schedule(16)
        t = {x.id: x.model.time(4) for x in small_graph.tasks()}
        s.add("a", 0.0, t["a"], 4)
        s.add("b", 0.0, t["b"], 4)  # starts before 'a' ends
        s.add("c", t["a"], t["a"] + t["c"], 4)
        s.add("d", 100.0, 100.0 + t["d"], 4)
        with pytest.raises(PrecedenceViolationError):
            s.validate(small_graph)

    def test_missing_task_detected(self, small_graph):
        s = Schedule(16)
        s.add("a", 0.0, 1.0, 1)
        with pytest.raises(ScheduleError, match="never scheduled"):
            s.validate(small_graph)

    def test_extra_task_detected(self, small_graph):
        s = Schedule(16)
        now = 0.0
        for task in small_graph.tasks():
            d = task.model.time(1)
            s.add(task.id, now, now + d, 1)
            now += d
        s.add("intruder", now, now + 1.0, 1)
        with pytest.raises(ScheduleError, match="not in graph"):
            s.validate(small_graph)

    def test_wrong_duration_detected(self, small_graph):
        s = Schedule(16)
        now = 0.0
        for task in small_graph.tasks():
            s.add(task.id, now, now + 1.0, 2)  # wrong durations
            now += 1.0
        with pytest.raises(ScheduleError, match="duration"):
            s.validate(small_graph)

    def test_duration_check_can_be_disabled(self, small_graph):
        s = Schedule(16)
        now = 0.0
        for task in small_graph.tasks():
            s.add(task.id, now, now + 1.0, 2)
            now += 1.0
        s.validate(small_graph, check_durations=False)

    def test_valid_sequential_schedule_passes(self, small_graph):
        s = Schedule(16)
        now = 0.0
        for task in small_graph.tasks():
            d = task.model.time(2)
            s.add(task.id, now, now + d, 2)
            now += d
        s.validate(small_graph)
