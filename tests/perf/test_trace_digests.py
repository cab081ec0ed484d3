"""The reference engine's traced event stream is pinned.

Deterministic scenarios live in ``golden_trace_digests.json``, one
:func:`repro.obs.export.trace_digest` per scenario over the canonical
JSONL serialization of every event the run emits.  A digest match means
the engine emitted the same events, with the same payloads, in the same
order — reveal order for simultaneous completions included.  Twenty
scenarios run fault-free; the ``faults_*`` ones inject processor faults
and pin the resilient loop's kills, retries, re-caps and capacity moves.
Regenerate with ``PYTHONPATH=src python tests/perf/test_trace_digests.py``
only for a deliberate change to the event stream, and say why.
"""

import json
from pathlib import Path

import pytest

from repro.baselines.online import AvailableProcessorsAllocator
from repro.core.allocator import LpaAllocator
from repro.core.priorities import largest_work_first
from repro.graph import TaskGraph
from repro.graph.generators import (
    chain,
    erdos_renyi_dag,
    fork_join,
    independent_tasks,
    layered_random,
)
from repro.obs.events import CollectingTracer
from repro.obs.export import trace_digest
from repro.resilience.faults import BurstFaultModel, ExponentialFaultModel, FaultTrace
from repro.resilience.retry import RetryPolicy
from repro.sim import ListScheduler, ReleasedTaskSource, StaticGraphSource
from repro.speedup import (
    AmdahlModel,
    CallableModel,
    LogParallelismModel,
    PowerLawModel,
    RooflineModel,
    TabulatedModel,
)
from repro.speedup.random import MixedModelFactory, RandomModelFactory

GOLDEN_PATH = Path(__file__).parent / "golden_trace_digests.json"

MU = 0.324


def _single_task():
    g = TaskGraph()
    g.add_task("only", AmdahlModel(10.0, 1.0))
    return [(g, 4)]


def _scalar_lane_models():
    # Model families outside the vectorized eq1 group: each resolves
    # through the scalar allocation lane.
    g = TaskGraph()
    g.add_task("pow", PowerLawModel(40.0, exponent=0.6))
    g.add_task("tab", TabulatedModel((20.0, 11.0, 8.0, 6.5, 6.0)))
    g.add_task("logp", LogParallelismModel(30.0))
    g.add_edge("pow", "tab")
    g.add_edge("pow", "logp")
    return [(g, 8)]


def _shared_model_groups():
    # Many tasks sharing few cache keys: the first-revealed member of a
    # group carries the miss, every later member must trace as a hit.
    g = TaskGraph()
    a = AmdahlModel(12.0, 0.5)
    r = RooflineModel(9.0, max_parallelism=6)
    for i in range(8):
        g.add_task(("a", i), a)
        g.add_task(("r", i), r)
    for i in range(7):
        g.add_edge(("a", i), ("a", i + 1))
    return [(g, 10)]


def _keyless_bypass():
    # cache_key() -> None models bypass the allocation cache; every
    # AllocationDecided must carry cache="bypass", never "hit".
    g = TaskGraph()
    for i in range(5):
        g.add_task(i, CallableModel(lambda p, i=i: (14.0 + i) / min(p, 3)))
    g.add_edge(0, 3)
    g.add_edge(1, 4)
    return [(g, 6)]


def _warm_cache_replay():
    # Two runs of one graph through one allocator: run 1 traces misses,
    # run 2 must trace the warm cache (all hits).
    factory = RandomModelFactory(family="amdahl", seed=31)
    g = layered_random(3, 4, factory, seed=31)
    return [(g, 8), (g, 8)]


def _platform_sweep():
    # One graph across platform sizes: allocations differ per P while
    # the allocator cache warms across runs.
    factory = RandomModelFactory(family="general", seed=13)
    g = layered_random(3, 5, factory, seed=13)
    return [(g, P) for P in (2, 5, 17, 64)]


def _family(family, seed, shape, P):
    factory = RandomModelFactory(family=family, seed=seed)
    if shape == "layered":
        return [(layered_random(3, 5, factory, edge_probability=0.4, seed=seed), P)]
    if shape == "chain":
        return [(chain(16, factory), P)]
    if shape == "fork_join":
        return [(fork_join(6, factory, stages=3), P)]
    raise ValueError(shape)


#: The 20 golden scenarios: name -> zero-arg items builder.  Every run in
#: a scenario is traced in order through ONE allocator, so cache state
#: flows across runs.
SCENARIOS = {
    "single_task": _single_task,
    "chain_short": lambda: [(chain(6, RandomModelFactory(family="communication", seed=11)), 3)],
    "chain_serial_P1": lambda: [(chain(10, RandomModelFactory(family="amdahl", seed=7)), 1)],
    "independent_wide": lambda: [
        (independent_tasks(64, RandomModelFactory(family="roofline", seed=5)), 24)
    ],
    "independent_starved": lambda: [
        (independent_tasks(20, RandomModelFactory(family="general", seed=9)), 2)
    ],
    "fork_join_deep": lambda: [(fork_join(5, RandomModelFactory(family="amdahl", seed=2), stages=4), 9)],
    "layered_small": lambda: _family("communication", 17, "layered", 7),
    "layered_wide": lambda: [
        (layered_random(2, 12, RandomModelFactory(family="roofline", seed=23), seed=23), 40)
    ],
    "erdos_sparse": lambda: [
        (erdos_renyi_dag(24, RandomModelFactory(family="general", seed=3), edge_probability=0.08, seed=3), 12)
    ],
    "erdos_dense": lambda: [
        (erdos_renyi_dag(18, RandomModelFactory(family="amdahl", seed=19), edge_probability=0.35, seed=19), 15)
    ],
    "amdahl_chain": lambda: _family("amdahl", 41, "chain", 6),
    "roofline_forkjoin": lambda: _family("roofline", 43, "fork_join", 11),
    "communication_layered": lambda: _family("communication", 47, "layered", 13),
    "general_layered": lambda: _family("general", 53, "layered", 21),
    "mixed_models": lambda: [(layered_random(4, 4, MixedModelFactory(seed=61), seed=61), 14)],
    "scalar_lane_models": _scalar_lane_models,
    "shared_model_groups": _shared_model_groups,
    "keyless_bypass": _keyless_bypass,
    "warm_cache_replay": _warm_cache_replay,
    "platform_sweep": _platform_sweep,
}


def _faulty_layered(family, seed, P, faults, retry):
    factory = RandomModelFactory(family=family, seed=seed)
    graph = layered_random(4, 6, factory, edge_probability=0.35, seed=seed)
    return [(graph, P, faults, retry)]


def _faults_timed_release():
    factory = RandomModelFactory(family="roofline", seed=71)
    releases = [(0.7 * i, f"r{i}", factory()) for i in range(14)]
    trace = FaultTrace(
        [(1.5, "fail", 0), (2.5, "fail", 5), (4.0, "recover", 0), (9.0, "recover", 5)]
    )
    return [(ReleasedTaskSource(releases), 8, trace, RetryPolicy(backoff_base=0.3))]


#: Fault-injected scenarios: items are ``(graph or source, P, faults,
#: retry)``.  Together they cover backoff, checkpointed retries, a
#: priority queue, faults at t = 0, a total blackout, timed releases and
#: an allocator whose decisions depend on the free count.
FAULT_SCENARIOS = {
    "faults_backoff": lambda: _faulty_layered(
        "communication", 81, 12,
        ExponentialFaultModel(6.0, mttr=2.0, horizon=60.0, seed=81),
        RetryPolicy(backoff_base=0.25, backoff_factor=3.0, backoff_cap=2.0),
    ),
    "faults_checkpoint": lambda: _faulty_layered(
        "amdahl", 83, 10,
        ExponentialFaultModel(5.0, mttr=1.5, horizon=60.0, seed=83),
        RetryPolicy(checkpoint=True),
    ),
    "faults_priority": lambda: _faulty_layered(
        "general", 85, 9,
        ExponentialFaultModel(7.0, mttr=3.0, horizon=60.0, seed=85),
        RetryPolicy(max_attempts=50, backoff_base=0.1),
    ),
    "faults_at_time_zero": lambda: _faulty_layered(
        "roofline", 87, 8,
        FaultTrace(
            [(0.0, "fail", 1), (0.0, "fail", 4), (0.0, "fail", 6), (1.0, "fail", 0),
             (3.0, "recover", 4), (5.0, "recover", 0), (7.0, "recover", 1)]
        ),
        None,
    ),
    "faults_blackout": lambda: _faulty_layered(
        "communication", 89, 6,
        BurstFaultModel([2.0, 12.0], fraction=1.0, downtime=4.0),
        RetryPolicy(backoff_base=0.5),
    ),
    "faults_timed_release": _faults_timed_release,
    "faults_grab_free": lambda: _faulty_layered(
        "general", 91, 10,
        ExponentialFaultModel(4.0, mttr=2.0, horizon=60.0, seed=91),
        RetryPolicy(),
    ),
}
SCENARIOS.update(FAULT_SCENARIOS)

#: Scheduler options of the scenarios that do not run the defaults.
SCENARIO_OPTIONS = {
    "faults_priority": {"priority": largest_work_first()},
    "faults_grab_free": {"allocator": AvailableProcessorsAllocator()},
}


def reference_events(items, mu=MU, *, allocator=None, priority=None):
    """Trace every run on the reference engine through one allocator.

    An item is ``(graph, P)`` or ``(graph or source, P, faults, retry)``.
    """
    tracer = CollectingTracer()
    if allocator is None:
        allocator = LpaAllocator(mu)
    for graph, P, *resilience in items:
        faults, retry = resilience or (None, None)
        source = StaticGraphSource(graph) if isinstance(graph, TaskGraph) else graph
        ListScheduler(P, allocator, priority=priority).run(
            source, faults=faults, retry=retry, tracer=tracer
        )
    return tracer.events


def scenario_events(name):
    return reference_events(SCENARIOS[name](), **SCENARIO_OPTIONS.get(name, {}))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


class TestGoldenDigests:
    def test_every_scenario_is_pinned(self, golden):
        assert sorted(golden) == sorted(SCENARIOS)
        assert len(SCENARIOS) == 20 + len(FAULT_SCENARIOS)

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_reference_matches_golden(self, name, golden):
        digest = trace_digest(scenario_events(name))
        assert digest == golden[name], f"reference trace drifted for {name!r}"

    @pytest.mark.parametrize("name", sorted(FAULT_SCENARIOS))
    def test_fault_scenario_kills_and_retries(self, name):
        events = scenario_events(name)
        kinds = [type(e).__name__ for e in events]
        assert "FaultInjected" in kinds and "RetryScheduled" in kinds, name


def _regenerate() -> None:
    digests = {name: trace_digest(scenario_events(name)) for name in sorted(SCENARIOS)}
    GOLDEN_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN_PATH}")


if __name__ == "__main__":
    _regenerate()
