"""Seed tests of the benchmark's workloads, on tiny inputs.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

from __future__ import annotations

import pytest

from repro.core import OnlineScheduler
from repro.graph import layered_random
from repro.resilience import ExponentialFaultModel, RetryPolicy
from repro.speedup import RandomModelFactory

import run
from spans import Tracer
from workloads import (
    AdversarialTable1,
    DistinctLayered,
    FaultsCholesky,
    Outcome,
    ServiceTwoTenants,
)


class TinyLayered(DistinctLayered):
    LAYERS, WIDTH, cycle = 3, 4, 8


class TinyFaults(FaultsCholesky):
    TILES, cycle = 3, 8


class TinyAdversarial(AdversarialTable1):
    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.sizes = {"roofline": 20, "communication": 12, "amdahl": 8, "general": 8}


class TinyService(ServiceTwoTenants):
    TASKS, RECOVERIES, cycle = 8, 1, 2


TINY = (TinyLayered, TinyFaults, TinyAdversarial, TinyService)


def one_cycle(cls, seed: int) -> tuple[list[float], dict[str, float], int]:
    """Ratios, counters and failures of one traced cycle of ``cls``."""
    workload = cls(seed)
    out = Outcome()
    tracer = Tracer()
    try:
        workload.setup()
        for index in range(workload.cycle):
            with tracer.unit():
                workload.run(index, tracer, out)
    finally:
        workload.close()
    return out.ratios, out.counters, len(out.failures)


@pytest.mark.parametrize("cls", TINY, ids=lambda cls: cls.name)
def test_same_seed_gives_identical_ratios_and_counters(cls):
    ratios, counters, failures = one_cycle(cls, 7)
    again, counters_again, failures_again = one_cycle(cls, 7)
    assert failures == failures_again == 0
    assert ratios and ratios == again
    assert counters == counters_again
    assert run.statistics.fmean(ratios) == run.statistics.fmean(again)


def test_different_seeds_give_different_inputs():
    assert DistinctLayered(1).instances != DistinctLayered(2).instances
    assert FaultsCholesky(1).instances != FaultsCholesky(2).instances
    assert AdversarialTable1(1).sizes != AdversarialTable1(2).sizes
    first, second = TinyService(1), TinyService(2)
    first.setup()
    second.setup()
    assert [t.trace for t in first.traces] != [t.trace for t in second.traces]


def test_seed_zero_runs_the_workload_sizes():
    assert AdversarialTable1(0).sizes == AdversarialTable1.SIZES


@pytest.mark.parametrize("faulty", [False, True])
def test_allocator_prepass_leaves_the_schedule_unchanged(faulty):
    P = 16
    graph = layered_random(4, 6, RandomModelFactory("amdahl", seed=3), seed=4)
    run_kw = {}
    if faulty:
        faults = ExponentialFaultModel(40.0, mttr=2.0, horizon=500.0, seed=5).trace(P)
        run_kw = {"faults": faults, "retry": RetryPolicy()}
    cold = OnlineScheduler.for_family("amdahl", P).run(graph, **run_kw)
    warm_scheduler = OnlineScheduler.for_family("amdahl", P)
    for task in graph.tasks():
        warm_scheduler.allocator.allocate_cached(task.model, P)
    warm = warm_scheduler.run(graph, **run_kw)
    assert list(warm.schedule) == list(cold.schedule)
    assert warm.allocations == cold.allocations
    assert warm.attempt_log == cold.attempt_log
    assert warm.stats.alloc_cache_misses == 0 or faulty


def test_self_times_close_on_the_traced_wall():
    tracer = Tracer()
    with tracer.unit():
        with tracer.span("a"):
            with tracer.span("b"):
                sum(range(10_000))
        with tracer.span("c", shadow=True):
            sum(range(10_000))
    self_s = tracer.self_times()
    layers = self_s["a"] + self_s["b"]
    assert layers + self_s["unit"] == pytest.approx(tracer.wall())
    assert self_s["b"] <= tracer.spans[1].duration


def test_tail_percentiles_need_ten_samples_beyond():
    assert run.percentile([1.0, 2.0, 3.0], 50) == 2.0
    with pytest.raises(run.TooFewSamples):
        run.percentile([float(i) for i in range(99)], 90)
    assert run.percentile([float(i) for i in range(100)], 90) == pytest.approx(89.1)


def test_timings_scale_with_the_host_speed_around_each_unit():
    workload = TinyLayered(1)
    outs = []
    for _ in range(2 * workload.cycle):
        out = Outcome(tasks=10, decisions=10, sched_s=0.01, ratios=[1.5])
        outs.append((0.02, out))
    quiet = [1.0] * len(outs)
    # A busy host doubles the unit's wall time and halves its scale.
    busy = [(2 * wall, out) for wall, out in outs]
    half = [0.5] * len(outs)
    metrics, _ = run.end_to_end(workload, outs, quiet, 1.0)
    again, _ = run.end_to_end(workload, busy, half, 1.0)
    assert metrics["tasks_per_s"][0] == pytest.approx(10 / 0.02)
    assert again["tasks_per_s"][0] == pytest.approx(metrics["tasks_per_s"][0])
    assert again["latency_ms_p50"][0] == pytest.approx(20.0)


def test_probe_leaves_the_collector_as_it_found_it():
    import gc

    from hostspeed import probe

    assert gc.isenabled()
    assert probe() > 0
    assert gc.isenabled()
