"""The benchmark's four workloads, driven through the library's public API.

Each workload turns ``--seed`` into its inputs, runs one *unit* of work at
a time (an instance, a Table-1 set, or one service iteration), checks
every output, and fills an :class:`Outcome`.  Units repeat in a fixed
cycle, so any whole cycle holds the same inputs whatever the run length:
``ratio_mean`` over the first cycle is a function of the seed alone.

With an enabled :class:`~spans.Tracer`, each call into a layer is wrapped
in a span, and the calls that mix two layers are split from outside:

* allocation: the scheduler's own ``allocator.allocate_cached`` runs over
  the graph's tasks before ``run``, which then finds every decision in
  the cache;
* invariant checking: a shadow ``run(..., check_invariants=False)`` of the
  same fault trace; the checked run minus the shadow is the checker;
* service layers: a shadow in-process replay of the same requests through
  ``encode_line``/``decode_line``/``parse_request``, ``ServiceCore.submit``
  and ``tick``, and a fresh ``JournalWriter.append``; the live socket
  loop minus that replay is the transport.

See ``LAYERS.md`` for which end-to-end metric each layer should move.
"""

from __future__ import annotations

import asyncio
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.adversary import instance_for_family
from repro.bounds import makespan_lower_bound
from repro.core import OnlineScheduler, upper_bound
from repro.exceptions import ReproError
from repro.experiments.table1 import DEFAULT_SIZES
from repro.graph import TaskGraph, layered_random
from repro.graph.io import model_from_dict
from repro.resilience import ExponentialFaultModel, RetryPolicy
from repro.service import (
    JournalWriter,
    LoadSpec,
    SchedulerServer,
    ServiceClient,
    ServiceCore,
    generate_trace,
    read_journal,
    replay_trace,
)
from repro.service.protocol import decode_line, encode_line, parse_request
from repro.sim import validate_result
from repro.speedup import RandomModelFactory
from repro.workflows import cholesky

from spans import Tracer, clock

__all__ = ["WORKLOADS", "CheckFailed", "Outcome"]

FAMILIES = ("roofline", "communication", "amdahl", "general")

#: Table-1 competitive ratio of Algorithm 2 per family (Theorems 1-4).
RATIO = {family: upper_bound(family) for family in FAMILIES}

#: Relative slack for float comparisons against closed forms and bounds.
RTOL = 1e-9


class CheckFailed(Exception):
    """An output of the library is wrong."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Outcome:
    """What one unit did, and what its checks found."""

    tasks: int = 0
    #: Scheduling decisions: engine task starts, or service pool decisions.
    decisions: int = 0
    #: Wall seconds spent inside the scheduler (``run``, or the live loop).
    sched_s: float = 0.0
    ratios: list[float] = field(default_factory=list)
    checks: int = 0
    failures: list[str] = field(default_factory=list)
    #: Service submit-to-ack time (ms) per (tenant, task).
    requests_ms: dict[tuple[str, str], float] = field(default_factory=dict)
    #: Per-session samples (service hello to graph-done, ms).
    sessions_ms: list[float] = field(default_factory=list)
    #: Per-recovery samples (journal records replayed per second).
    recovery_rates: list[float] = field(default_factory=list)
    #: Layer counters, filled only when tracing.
    counters: dict[str, float] = field(default_factory=dict)

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    def guarded(self, label: str, body: Callable[[], None]) -> None:
        """Run one checked step; a library error or a failed check is a failure."""
        self.checks += 1
        try:
            body()
        except (CheckFailed, ReproError, ConnectionError, TimeoutError) as exc:
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")


def _seeds(seed: int, n: int) -> list[int]:
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31 - 1, size=n)]


def _check_bounds(family: str, makespan: float, lb: float, *, upper: bool) -> None:
    check(lb <= makespan * (1 + RTOL), f"makespan {makespan:.6g} below Lemma-2 bound {lb:.6g}")
    if upper:
        check(
            makespan <= RATIO[family] * lb * (1 + RTOL),
            f"makespan {makespan:.6g} above {RATIO[family]:.4f} x Lemma-2 bound {lb:.6g}",
        )


def _schedule(
    tr: Tracer,
    out: Outcome,
    scheduler: OnlineScheduler,
    graph: TaskGraph,
    **run_kw: Any,
):
    """Algorithm 1 on ``graph``; traced runs take allocation out first."""
    P = scheduler.P
    if tr.enabled:
        allocator = scheduler.allocator
        before = allocator.cache_info()
        with tr.span("alloc"):
            for task in graph.tasks():
                allocator.allocate_cached(task.model, P)
        after = allocator.cache_info()
        out.count("alloc.calls", len(graph))
        out.count("alloc.misses", after.misses - before.misses)
        out.count("alloc.hits", after.hits - before.hits)
    t0 = clock()
    with tr.span("engine"):
        result = scheduler.run(graph, **run_kw)
    out.sched_s += clock() - t0
    stats = result.stats
    out.decisions += stats.tasks_started
    if tr.enabled:
        out.count("engine.events", stats.events)
        out.count("engine.scan_steps", stats.scan_steps)
        out.count("engine.scans_skipped", stats.scans_skipped)
        out.count("engine.starts", stats.tasks_started)
    return result


def _count_graph(tr: Tracer, out: Outcome, graph: TaskGraph) -> None:
    if tr.enabled:
        out.count("graph.tasks", len(graph))
        out.count("graph.edges", graph.num_edges())


class Workload:
    """Shape shared by the workloads; ``run`` does one unit of work."""

    name = ""
    #: Units in one cycle of inputs.
    cycle = 1
    #: Instances in one unit (per-layer figures are per instance).
    instances_per_unit = 1

    def setup(self) -> None:
        """Input generation users do once; the engine workloads have none."""

    def warm_up(self, out: Outcome) -> None:
        self.run(0, Tracer(enabled=False), out)

    def run(self, index: int, tr: Tracer, out: Outcome) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Release what the workload holds; called once, when the run ends."""


def _grid(seed: int, cycle: int, platforms: tuple[int, ...]) -> list[tuple[str, int, int, int]]:
    """(family, P, seed, seed) per position: families fastest, then platforms."""
    seeds = _seeds(seed, 2 * cycle)
    return [
        (
            FAMILIES[i % len(FAMILIES)],
            platforms[(i // len(FAMILIES)) % len(platforms)],
            seeds[2 * i],
            seeds[2 * i + 1],
        )
        for i in range(cycle)
    ]


# ----------------------------------------------------------------------
# Engine workloads
# ----------------------------------------------------------------------
class DistinctLayered(Workload):
    """Fresh ``layered_random`` graphs, every task an allocator-cache miss."""

    name = "distinct_layered"
    LAYERS, WIDTH, EDGE_P = 16, 32, 0.3
    PLATFORMS = (64, 1024)
    cycle = 16

    def __init__(self, seed: int) -> None:
        self.instances = _grid(seed, self.cycle, self.PLATFORMS)

    def run(self, index: int, tr: Tracer, out: Outcome) -> None:
        family, P, model_seed, graph_seed = self.instances[index % self.cycle]
        out.guarded(
            f"{self.name}[{index}]",
            lambda: self._instance(tr, out, family, P, model_seed, graph_seed),
        )

    def _instance(
        self, tr: Tracer, out: Outcome, family: str, P: int, model_seed: int, graph_seed: int
    ) -> None:
        with tr.span("graph"):
            graph = layered_random(
                self.LAYERS,
                self.WIDTH,
                RandomModelFactory(family, seed=model_seed),
                edge_probability=self.EDGE_P,
                seed=graph_seed,
            )
        _count_graph(tr, out, graph)
        result = _schedule(tr, out, OnlineScheduler.for_family(family, P), graph)
        with tr.span("validate"):
            result.schedule.validate(graph)
        with tr.span("bound"):
            lb = makespan_lower_bound(graph, P).value
        _check_bounds(family, result.makespan, lb, upper=True)
        out.ratios.append(result.makespan / lb)
        out.tasks += len(graph)


class AdversarialTable1(Workload):
    """Theorem 5-8 instances: allocation is bypassed by the cache."""

    name = "adversarial_table1"
    #: ``table1.DEFAULT_SIZES`` with the communication instance at P = 100
    #: instead of 300.  At 300 it holds 30k of a set's 37k tasks, and its
    #: working set made the set's best time swing by 1.5x with the host's
    #: load, against 1.3x for the other workloads; at 100 it has 3.4k.
    SIZES = {**DEFAULT_SIZES, "communication": 100}
    #: Relative half-width of the size band for seeds other than 0.  The
    #: communication instance grows with the square of its size, so the
    #: band stays narrow to keep the work per set comparable across seeds.
    BAND = 0.02
    instances_per_unit = len(FAMILIES)

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.sizes = {
            family: (
                size
                if seed == 0
                else int(round(size * rng.uniform(1 - self.BAND, 1 + self.BAND)))
            )
            for family, size in self.SIZES.items()
        }

    def warm_up(self, out: Outcome) -> None:
        """One instance, not a whole set."""
        tr = Tracer(enabled=False)
        out.guarded("warm-up", lambda: self._instance(tr, out, "amdahl"))

    def run(self, index: int, tr: Tracer, out: Outcome) -> None:
        for family in FAMILIES:
            out.guarded(
                f"{self.name}[{index}].{family}", lambda f=family: self._instance(tr, out, f)
            )

    def _instance(self, tr: Tracer, out: Outcome, family: str) -> None:
        with tr.span("graph"):
            instance = instance_for_family(family, self.sizes[family])
        graph = instance.graph
        _count_graph(tr, out, graph)
        result = _schedule(tr, out, instance.scheduler(), graph)
        with tr.span("validate"):
            result.schedule.validate(graph)
        with tr.span("bound"):
            lb = makespan_lower_bound(graph, instance.P).value
            alternative = instance.alternative.makespan()
        makespan = result.makespan
        _check_bounds(family, makespan, lb, upper=True)
        predicted = instance.predicted_makespan
        check(predicted is not None, "instance carries no predicted makespan")
        check(
            abs(makespan - predicted) <= RTOL * predicted,
            f"makespan {makespan!r} differs from the proof's {predicted!r}",
        )
        out.ratios.append(makespan / alternative)
        out.tasks += len(graph)


class FaultsCholesky(Workload):
    """Tiled Cholesky under exponential processor faults, invariants checked."""

    name = "faults_cholesky"
    TILES = 10
    PLATFORMS = (64, 256)
    #: Expected failures over the platform during one Lemma-2 bound.
    FAILURES_PER_BOUND = 4.0
    #: Mean repair time and trace horizon, in Lemma-2 bounds.
    MTTR, HORIZON = 0.1, 20.0
    cycle = 32

    def __init__(self, seed: int) -> None:
        self.instances = _grid(seed, self.cycle, self.PLATFORMS)

    def run(self, index: int, tr: Tracer, out: Outcome) -> None:
        family, P, model_seed, fault_seed = self.instances[index % self.cycle]
        out.guarded(
            f"{self.name}[{index}]",
            lambda: self._instance(tr, out, index, family, P, model_seed, fault_seed),
        )

    def _instance(
        self,
        tr: Tracer,
        out: Outcome,
        index: int,
        family: str,
        P: int,
        model_seed: int,
        fault_seed: int,
    ) -> None:
        with tr.span("graph"):
            graph = cholesky(self.TILES, RandomModelFactory(family, seed=model_seed))
        _count_graph(tr, out, graph)
        with tr.span("bound"):
            lb = makespan_lower_bound(graph, P).value
        with tr.span("faults"):
            faults = ExponentialFaultModel(
                P * lb / self.FAILURES_PER_BOUND,
                mttr=self.MTTR * lb,
                horizon=self.HORIZON * lb,
                seed=fault_seed,
            ).trace(P)
        unchecked = None
        # The shadow run goes first on every other instance, so that
        # running second (warmer) favours neither side of the difference.
        if tr.enabled and index % 2:
            unchecked = self._unchecked(tr, graph, family, P, faults)
        scheduler = OnlineScheduler.for_family(family, P)
        result = _schedule(tr, out, scheduler, graph, faults=faults, retry=RetryPolicy())
        if tr.enabled:
            if unchecked is None:
                unchecked = self._unchecked(tr, graph, family, P, faults)
            # Counting is the benchmark's own work, so it is kept out of
            # the traced wall time like the shadow run.
            with tr.span("counters", shadow=True):
                check(
                    unchecked.makespan == result.makespan,
                    "invariant checking changed the schedule",
                )
                wasted = result.wasted_work()
                out.count("faults.killed_attempts", result.killed_attempts())
                out.count("faults.wasted_area", wasted)
                out.count("faults.area", result.schedule.total_area() + wasted)
        with tr.span("validate"):
            validate_result(result, graph)
        _check_bounds(family, result.makespan, lb, upper=False)
        out.ratios.append(result.makespan / lb)
        out.tasks += len(graph)

    @staticmethod
    def _unchecked(tr: Tracer, graph: TaskGraph, family: str, P: int, faults: Any):
        """Shadow of the pipeline's run without the invariant checker."""
        shadow = OnlineScheduler.for_family(family, P)
        with tr.span("alloc.unchecked", shadow=True):
            for task in graph.tasks():
                shadow.allocator.allocate_cached(task.model, P)
        with tr.span("engine.unchecked", shadow=True):
            return shadow.run(graph, faults=faults, retry=RetryPolicy(), check_invariants=False)


# ----------------------------------------------------------------------
# Service workload
# ----------------------------------------------------------------------
#: Journal record fields that are not part of the mutation payload.
_RECORD_KEYS = ("kind", "seq", "op")


@dataclass
class _Tenant:
    name: str
    #: (task id, wire payload, model, deps) in topological order.
    ops: list[tuple[str, dict[str, Any], Any, tuple[str, ...]]]
    lb: float


@dataclass
class _Trace:
    spec: LoadSpec
    trace: dict[str, Any]
    tenants: list[_Tenant]


class ServiceTwoTenants(Workload):
    """Closed loop: two tenants stream DAGs into a journaled in-process server."""

    name = "service_two_tenants"
    P, TENANTS, TASKS, EDGE_P = 32, 2, 100, 0.05
    #: Recoveries per iteration; a run makes hundreds, because single
    #: replays swing by about 20%.
    RECOVERIES = 1
    #: Submissions rejected with ``retry_after`` this often fail the run.
    MAX_RETRIES = 200
    cycle = 16

    #: Journals live in a temporary directory under this one, inside the
    #: checkout, and are deleted when the run ends.
    workdir = Path(__file__).resolve().parent.parent / ".perfbench" / "tmp"

    def __init__(self, seed: int) -> None:
        self.seeds = _seeds(seed, self.cycle)
        self.traces: list[_Trace] = []
        self.loop: asyncio.AbstractEventLoop | None = None
        self.tmp: Path | None = None
        self._journals = 0

    def setup(self) -> None:
        """Generate the service traces (users record these once) and their bounds."""
        self.traces = []
        for i, seed in enumerate(self.seeds):
            spec = LoadSpec(
                seed=seed,
                P=self.P,
                family=FAMILIES[i % len(FAMILIES)],
                tenants=self.TENANTS,
                tasks_per_tenant=self.TASKS,
                edge_probability=self.EDGE_P,
            )
            trace = generate_trace(spec)
            tenants = []
            for entry in trace["tenants"]:
                graph = TaskGraph()
                ops = []
                for op in entry["ops"]:
                    model = model_from_dict(op["model"])
                    graph.add_task(op["task"], model)
                    for dep in op["deps"]:
                        graph.add_edge(dep, op["task"])
                    ops.append((op["task"], op, model, tuple(op["deps"])))
                lb = makespan_lower_bound(graph, self.P).value
                tenants.append(_Tenant(entry["tenant"], ops, lb))
            self.traces.append(_Trace(spec, trace, tenants))

    def open(self) -> None:
        if self.loop is None:
            self.workdir.mkdir(parents=True, exist_ok=True)
            self.tmp = Path(tempfile.mkdtemp(prefix="journals-", dir=self.workdir))
            self.loop = asyncio.new_event_loop()

    def close(self) -> None:
        if self.loop is not None:
            self.loop.close()
            self.loop = None
        if self.tmp is not None:
            shutil.rmtree(self.tmp, ignore_errors=True)
            self.tmp = None

    def _journal(self) -> Path:
        assert self.tmp is not None
        self._journals += 1
        return self.tmp / f"journal-{self._journals}.jsonl"

    def warm_up(self, out: Outcome) -> None:
        """One replay of the first trace through the library's own ``replay_trace``."""
        self.open()
        assert self.loop is not None
        trace = self.traces[0]
        journal = self._journal()

        async def replay() -> None:
            server = SchedulerServer(trace.spec.config(), journal_path=str(journal))
            host, port = await server.start()
            try:
                result = await replay_trace(trace.trace, host, port)
            finally:
                await server.kill()
            check(
                result.graphs_done == self.TENANTS,
                f"warm-up: {result.graphs_done} of {self.TENANTS} graphs done",
            )

        out.guarded("warm-up", lambda: self.loop.run_until_complete(replay()))
        journal.unlink(missing_ok=True)

    def run(self, index: int, tr: Tracer, out: Outcome) -> None:
        self.open()
        assert self.loop is not None
        trace = self.traces[index % self.cycle]
        journal = self._journal()
        try:
            out.guarded(
                f"{self.name}[{index}]",
                lambda: self.loop.run_until_complete(self._iteration(tr, out, trace, journal)),
            )
        finally:
            for path in journal.parent.glob(journal.name + "*"):
                path.unlink()

    async def _iteration(self, tr: Tracer, out: Outcome, trace: _Trace, journal: Path) -> None:
        config = trace.spec.config()
        with tr.span("transport"):
            server = SchedulerServer(config, journal_path=str(journal))
            host, port = await server.start()
        try:
            t0 = clock()
            with tr.span("service.live"):
                makespans = await asyncio.gather(
                    *(self._tenant(host, port, tenant, out) for tenant in trace.tenants)
                )
            live_s = clock() - t0
        finally:
            with tr.span("transport"):
                await server.kill()
        decisions = server.core.pool.stats.decisions
        records = server.core.journal.next_seq if server.core.journal is not None else 0
        with tr.span("core.digest"):
            live = server.core.state_digest()
        for tenant, makespan in zip(trace.tenants, makespans, strict=True):
            check(
                makespan >= tenant.lb * (1 - RTOL),
                f"{tenant.name}: makespan {makespan:.6g} below Lemma-2 bound {tenant.lb:.6g}",
            )
            out.ratios.append(makespan / tenant.lb)
        for _ in range(self.RECOVERIES):
            t0 = clock()
            with tr.span("recovery"):
                recovered = ServiceCore.recover(journal, reopen=False)
            out.recovery_rates.append(records / (clock() - t0))
            with tr.span("core.digest"):
                digest = recovered.state_digest()
            check(digest == live, "recovered state digest differs from the live one")
        out.tasks += sum(len(t.ops) for t in trace.tenants)
        out.decisions += decisions
        out.sched_s += live_s
        if tr.enabled:
            self._shadow(tr, out, config, trace, journal)
            out.count("journal.records", records)
            out.count("journal.bytes", journal.stat().st_size)
            out.count("pool.decisions", decisions)
            out.count("service.ops", sum(len(t.ops) + 3 for t in trace.tenants))

    async def _tenant(self, host: str, port: int, tenant: _Tenant, out: Outcome) -> float:
        """One closed-loop session: submit, await the ack, submit the next."""
        t_session = clock()
        client = await ServiceClient.connect(host, port)
        try:
            await client.hello(tenant.name)
            for task, _payload, model, deps in tenant.ops:
                t0 = clock()
                for _ in range(self.MAX_RETRIES):
                    reply = await client.submit(task, model, deps)
                    if reply.get("ok"):
                        break
                    retry_after = reply.get("retry_after")
                    check(retry_after is not None, f"{tenant.name}/{task}: {reply}")
                    out.count("core.retries", 1)
                    await asyncio.sleep(float(retry_after))
                else:
                    raise CheckFailed(f"{tenant.name}/{task}: backpressure never cleared")
                out.requests_ms[tenant.name, task] = (clock() - t0) * 1e3
            await client.close_graph()
            terminal, prior = await client.wait_graph_done(timeout=60.0)
            check(terminal.get("event") == "graph-done", f"{tenant.name}: {terminal}")
            done = sum(1 for note in prior if note.get("event") == "task-done")
            check(
                done == len(tenant.ops),
                f"{tenant.name}: {done} of {len(tenant.ops)} tasks done",
            )
            await client.bye()
        finally:
            await client.close()
        out.sessions_ms.append((clock() - t_session) * 1e3)
        return float(terminal["makespan"])

    def _shadow(
        self, tr: Tracer, out: Outcome, config: Any, trace: _Trace, journal: Path
    ) -> None:
        """Replay the iteration in-process to split the live loop by layer."""
        with tr.span("journal.read", shadow=True):
            _header, mutations = read_journal(journal)
        with tr.span("inproc", shadow=True):
            writer = JournalWriter(journal.with_name(journal.name + ".copy"), config)
            try:
                with tr.span("journal.append"):
                    for record in mutations:
                        payload = {k: v for k, v in record.items() if k not in _RECORD_KEYS}
                        writer.append(record["op"], payload)
            finally:
                writer.close()
            self._inproc(tr, out, config, trace)

    def _inproc(self, tr: Tracer, out: Outcome, config: Any, trace: _Trace) -> None:
        """The live loop's requests, in round-robin order, without sockets."""
        requests: list[tuple[str, dict[str, Any]]] = []
        for tenant in trace.tenants:
            requests.append((tenant.name, {"op": "hello", "tenant": tenant.name}))
        for k in range(max(len(t.ops) for t in trace.tenants)):
            for tenant in trace.tenants:
                if k < len(tenant.ops):
                    task, payload, _model, deps = tenant.ops[k]
                    request = {"op": "submit", "task": task, "model": payload["model"]}
                    if deps:
                        request["deps"] = list(deps)
                    requests.append((tenant.name, request))
        for tenant in trace.tenants:
            requests.append((tenant.name, {"op": "close"}))
        wire = 0
        with tr.span("protocol"):
            parsed = []
            for tenant_name, request in requests:
                line = encode_line(request)
                wire += len(line)
                parsed.append((tenant_name, parse_request(decode_line(line))))

        core = ServiceCore(config)
        responses = []
        tenants = len(trace.tenants)
        for i, (tenant_name, request) in enumerate(parsed):
            op = requests[i][1]["op"]
            with tr.span("core.submit"):
                if op == "hello":
                    info = core.hello(request)
                elif op == "submit":
                    info, _notes = core.submit(tenant_name, request)
                else:
                    info, _notes = core.close(tenant_name)
            responses.append({"ok": True, "op": op, "info": info})
            if op == "submit" and (i + 1) % tenants == 0:
                with tr.span("pool.tick"):
                    core.tick()
        while core.pool.has_pending_events():
            with tr.span("pool.tick"):
                core.tick()
        check(
            all(run.status == "finished" for run in core.pool.tenants.values()),
            "in-process replay left a tenant unfinished",
        )
        with tr.span("protocol"):
            for response in responses:
                line = encode_line(response)
                wire += len(line)
                decode_line(line)
        out.count("protocol.bytes", wire)


WORKLOADS = {
    cls.name: cls for cls in (DistinctLayered, AdversarialTable1, FaultsCholesky, ServiceTwoTenants)
}
