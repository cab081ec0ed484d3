"""Backend selection, fallback gating, and the engine's decline paths."""

import numpy as np
import pytest

from repro.batch import BatchEngine, compile_batch, simulate
from repro.batch.adapter import BatchBackend
from repro.core.allocator import LpaAllocator
from repro.exceptions import (
    BatchUnsupportedError,
    InvalidParameterError,
    SimulationError,
)
from repro.graph import TaskGraph
from repro.graph.generators import fork_join, layered_random
from repro.sim import ListScheduler, StaticGraphSource
from repro.sim.backend import (
    active_backend,
    active_backend_name,
    get_backend,
    use_backend,
)
from repro.speedup import AmdahlModel
from repro.speedup.random import RandomModelFactory


def small_graph(seed=5):
    return layered_random(
        3, 4, RandomModelFactory(family="communication", seed=seed), seed=seed
    )


class TestSelection:
    def test_default_is_reference(self):
        assert active_backend() is None
        assert active_backend_name() == "reference"

    def test_use_backend_scopes_selection(self):
        with use_backend("batch"):
            assert active_backend_name() == "batch"
            assert active_backend() is not None
        assert active_backend() is None

    def test_reference_pin_inside_batch(self):
        with use_backend("batch"), use_backend("reference"):
            assert active_backend() is None

    def test_unknown_backend_rejected(self):
        with pytest.raises(InvalidParameterError, match="unknown engine backend"):
            get_backend("vectorized")

    def test_batch_resolves_lazily(self):
        backend = get_backend("batch")
        assert backend is not None
        assert backend.name == "batch"


class TestFallback:
    def test_priority_rule_falls_back_to_reference(self):
        graph = small_graph()
        prio = lambda task, alloc: -alloc.final  # noqa: E731
        plain = ListScheduler(8, LpaAllocator(0.324), priority=prio).run(
            StaticGraphSource(graph)
        )
        with use_backend("batch"):
            under_batch = ListScheduler(8, LpaAllocator(0.324), priority=prio).run(
                StaticGraphSource(graph)
            )
        assert list(plain.schedule) == list(under_batch.schedule)

    def test_uses_free_allocator_falls_back(self):
        from repro.baselines.online import AvailableProcessorsAllocator

        graph = small_graph()
        plain = ListScheduler(8, AvailableProcessorsAllocator()).run(
            StaticGraphSource(graph)
        )
        with use_backend("batch"):
            under_batch = ListScheduler(8, AvailableProcessorsAllocator()).run(
                StaticGraphSource(graph)
            )
        assert list(plain.schedule) == list(under_batch.schedule)

    def test_adaptive_source_falls_back(self):
        from repro.adversary.arbitrary import AdaptiveChainSource

        source = AdaptiveChainSource(ell=2)
        with use_backend("batch"):
            result = ListScheduler(source.P, LpaAllocator(0.324)).run(source)
        assert result.makespan > 0

    def test_released_source_falls_back(self):
        from repro.sim import ReleasedTaskSource

        releases = [(0.0, AmdahlModel(5.0, 1.0)), (2.0, AmdahlModel(5.0, 1.0))]
        with use_backend("batch"):
            result = ListScheduler(4, LpaAllocator(0.324)).run(
                ReleasedTaskSource(releases)
            )
        assert result.makespan > 0

    def test_invariant_checked_run_stays_on_reference(self, monkeypatch):
        graph = small_graph()
        monkeypatch.setattr(
            BatchBackend,
            "simulate",
            lambda self, scheduler, source: pytest.fail(
                "backend must not see invariant-checked runs"
            ),
        )
        with use_backend("batch"):
            ListScheduler(8, LpaAllocator(0.324)).run(
                StaticGraphSource(graph), check_invariants=True
            )

    def test_traced_run_stays_on_batch(self, monkeypatch):
        from repro.obs.events import CollectingTracer

        graph = small_graph()
        seen = {}
        original = BatchBackend.simulate

        def spy(self, scheduler, source, emit=None):
            seen["emit"] = emit
            return original(self, scheduler, source, emit=emit)

        monkeypatch.setattr(BatchBackend, "simulate", spy)
        tracer = CollectingTracer()
        with use_backend("batch"):
            result = ListScheduler(8, LpaAllocator(0.324)).run(
                StaticGraphSource(graph), tracer=tracer
            )
        # Tracing no longer forces the reference loop: the backend gets
        # the emitter and reconstructs the event stream post-hoc.
        assert seen["emit"] is not None
        assert tracer.events
        assert result.makespan > 0

    def test_faulty_run_stays_on_reference(self):
        from repro.resilience.faults import FaultTrace

        graph = small_graph()
        trace = FaultTrace([(1.0, "fail", 0), (3.0, "recover", 0)])
        with use_backend("batch"):
            result = ListScheduler(8, LpaAllocator(0.324)).run(
                StaticGraphSource(graph), faults=trace
            )
        assert result.makespan > 0


class TestDeclineDetails:
    def test_consumed_source_declined(self):
        graph = small_graph()
        source = StaticGraphSource(graph)
        source.initial_tasks()  # partially consume
        backend = BatchBackend()
        with pytest.raises(BatchUnsupportedError) as err:
            backend.simulate(ListScheduler(8, LpaAllocator(0.324)), source)
        assert err.value.feature == "consumed-source"

    def test_source_exhausted_after_backend_run(self):
        graph = small_graph()
        source = StaticGraphSource(graph)
        BatchBackend().simulate(ListScheduler(8, LpaAllocator(0.324)), source)
        assert source.is_exhausted()
        with pytest.raises(SimulationError, match="completed twice"):
            source.on_complete(next(iter(graph)))

    def test_unsupported_error_is_simulation_error(self):
        assert issubclass(BatchUnsupportedError, SimulationError)
        err = BatchUnsupportedError("nope", feature="x")
        assert err.feature == "x"


class TestEngineDiagnostics:
    def test_deadlock_message_matches_reference_format(self):
        graph = fork_join(3, RandomModelFactory(family="amdahl", seed=1), stages=1)
        compiled = compile_batch([(graph, 4)], LpaAllocator(0.324))
        # Tamper a demand beyond the platform: the entry can never start.
        compiled.demand[0, 0] = 9
        with pytest.raises(SimulationError, match=r"deadlock: tasks \[.*\] can never start"):
            BatchEngine(compiled).run()

    def test_run_is_single_shot(self):
        graph = small_graph()
        compiled = compile_batch([(graph, 8)], LpaAllocator(0.324))
        engine = BatchEngine(compiled).run()
        with pytest.raises(SimulationError, match="only be called once"):
            engine.run()


class TestDropInSimulate:
    def test_simulate_matches_reference(self):
        graph = small_graph(seed=12)
        reference = ListScheduler(16, LpaAllocator(0.324)).run(
            StaticGraphSource(graph)
        )
        batched = simulate(graph, 16, LpaAllocator(0.324))
        assert list(reference.schedule) == list(batched.schedule)
        assert reference.makespan == batched.makespan

    def test_stats_report_engine_counters(self):
        graph = small_graph(seed=12)
        batched = simulate(graph, 16, LpaAllocator(0.324))
        assert batched.stats is not None
        assert batched.stats.tasks_started == len(graph)
        assert batched.stats.events > 0
        # One consultation per cache-key group; the vectorized decisions
        # land in the allocator's cache as misses, like the reference run.
        reference = ListScheduler(16, LpaAllocator(0.324)).run(graph)
        groups = len({task.model.cache_key() for task in graph.tasks()})
        assert batched.stats.allocator_calls == groups
        assert batched.stats.alloc_cache_misses == reference.stats.alloc_cache_misses

    def test_metrics_registry_sees_batch_counters(self):
        from repro.obs.metrics import MetricsRegistry, collect_metrics

        graph = small_graph(seed=12)
        registry = MetricsRegistry()
        with collect_metrics(registry):
            simulate(graph, 16, LpaAllocator(0.324))
        payload = registry.as_dict()
        assert payload["batch.runs"]["value"] == 1
        assert payload["batch.tasks"]["value"] == len(graph)
