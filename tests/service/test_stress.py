"""Combined stress: fault bursts + retry/backoff + re-cap, under tracing.

Long-horizon resilience of the shared pool with everything turned on at
once — four tenants, repeated random fault bursts and partial recoveries,
exponential retry backoff, allocation re-capping as capacity moves — while
a :class:`CollectingTracer` records every transition.  The assertions are
the conservation laws:

* processor conservation (``free + owned + down = P``, disjoint) after
  every disturbance (:meth:`SharedPool.check_conservation`);
* event-stream balance per task: one reveal however often it is
  retried, exactly one completing attempt, and ``starts == kills + 1``
  with one ``RetryScheduled`` per kill;
* no capacity deadlock: once every processor recovers, the pool drains
  fully — even after a total blackout with work still queued;
* determinism: the same stress script replayed bit-exactly, and its
  pool state pinned by literal digests so a change to any scheduling
  decision cannot pass unnoticed.
"""

from collections import Counter

import numpy as np

from repro.graph.generators import erdos_renyi_dag
from repro.obs.events import (
    CollectingTracer,
    FaultInjected,
    RetryScheduled,
    TaskCompleted,
    TaskRevealed,
    TaskStarted,
)
from repro.runtime.serialization import content_digest
from repro.service.config import ServiceConfig, TenantQuota
from repro.service.pool import SharedPool
from repro.speedup.random import RandomModelFactory

P = 12
TENANTS = ("alice", "bob", "carol", "dave")
TASKS_PER_TENANT = 18

#: Digests of the stress script's pool state: ``state_dict()`` of seed
#: 2022 after the full drain, and the ``state_dict()`` after each of seed
#: 99's 15 fault bursts (queued entries and pending retries included).
DRAINED_2022_DIGEST = "68bd26c84e60f6f14f8ca7981190d3cbda767a8f518814163ea3596e4564024b"
MIDRUN_99_DIGEST = "851d85573e4655b63cab2bb010bc30f5c1a573f88ee5866430ec0c042d759a0e"


def build_pool(tracer):
    """Four tenants, mixed priorities, one proc-quota, 72 tasks total."""
    config = ServiceConfig(
        P=P, family="amdahl", fault_max_attempts=1000, fault_backoff=0.05
    )
    pool = SharedPool(config, emit=tracer.emit)
    for i, tenant in enumerate(TENANTS):
        quota = TenantQuota(max_running_procs=6) if i == 0 else None
        pool.admit_tenant(tenant, priority=i % 2, quota=quota)
        factory = RandomModelFactory("amdahl", seed=40 + i)
        graph = erdos_renyi_dag(
            TASKS_PER_TENANT, factory, edge_probability=0.2, seed=7 + i
        )
        for task_id in graph.task_map():
            pool.submit(
                tenant,
                str(task_id),
                graph.task(task_id).model,
                tuple(str(p) for p in graph.predecessors(task_id)),
            )
        pool.close_tenant(tenant)
    return pool


def run_stress(pool, seed, rounds=40, states=None):
    """Interleave fault bursts, partial recoveries, and ticks; return #faults.

    Conservation is checked after every single disturbance, not just at
    the end — a transient leak between events must not go unnoticed.
    ``states``, when given, collects ``pool.state_dict()`` after every
    fault burst.
    """
    rng = np.random.default_rng(seed)
    faults = 0
    for _ in range(rounds):
        up = sorted(set(range(P)) - pool.machine.down)
        burst = min(int(rng.integers(1, 5)), max(len(up) - 2, 0))
        for proc in rng.choice(up, size=burst, replace=False):
            pool.fault("fail", int(proc))
            faults += 1
            pool.check_conservation()
        if states is not None:
            states.append(pool.state_dict())
        for _ in range(int(rng.integers(1, 6))):
            pool.tick(int(rng.integers(1, 9)))
            pool.check_conservation()
        downs = sorted(pool.machine.down)
        back = int(rng.integers(0, len(downs) + 1))
        for proc in rng.choice(downs, size=back, replace=False):
            pool.fault("recover", int(proc))
            faults += 1
            pool.check_conservation()
        pool.tick(int(rng.integers(1, 9)))
        pool.check_conservation()
    for proc in sorted(pool.machine.down):
        pool.fault("recover", proc)
        faults += 1
    pool.check_conservation()
    return faults


def drain(pool, max_ticks=50_000):
    for _ in range(max_ticks):
        if pool.idle():
            return
        pool.tick(64)
    raise AssertionError("pool failed to drain: capacity deadlock")


class TestCombinedStress:
    def test_long_horizon_stress_conserves_and_drains(self):
        tracer = CollectingTracer()
        pool = build_pool(tracer)
        injected = run_stress(pool, seed=2022)
        drain(pool)
        pool.check_conservation()

        # Platform fully restored, nothing stranded.
        assert pool.machine.capacity == P
        assert pool.machine.free == set(range(P))
        assert pool.machine.owner == {}
        assert pool.machine.down == set()
        assert pool.queue == [] and not pool.has_pending_events()
        for tenant in TENANTS:
            run = pool.tenants[tenant]
            assert run.status == "finished", f"{tenant}: {run.status}"
            assert len(run.tasks) == TASKS_PER_TENANT
        # The online checker agrees the run is over: nothing running,
        # zero processors marked busy.
        pool.machine.checker.on_end(pool.now)

        # Event-stream balance, per composite task key.
        starts = Counter(e.task_id for e in tracer.of_type(TaskStarted))
        completions = tracer.of_type(TaskCompleted)
        dones = Counter(e.task_id for e in completions if e.completed)
        kills = Counter(e.task_id for e in completions if not e.completed)
        retries = Counter(e.task_id for e in tracer.of_type(RetryScheduled))
        reveals = Counter(e.task_id for e in tracer.of_type(TaskRevealed))
        keys = {f"{t}/{i}" for t in TENANTS for i in range(TASKS_PER_TENANT)}
        assert set(dones) == keys
        for key in keys:
            assert dones[key] == 1, f"{key} completed {dones[key]} times"
            assert reveals[key] == 1, f"{key} revealed {reveals[key]} times"
            assert retries[key] == kills[key], f"{key}: retry per kill"
            assert starts[key] == kills[key] + 1, f"{key}: start balance"
        assert len(tracer.of_type(FaultInjected)) == injected
        # The scenario must actually have exercised the retry machinery.
        assert pool.stats.killed > 0
        assert sum(kills.values()) == pool.stats.killed
        assert content_digest(pool.state_dict()) == DRAINED_2022_DIGEST

    def test_total_blackout_is_not_a_deadlock(self):
        tracer = CollectingTracer()
        pool = build_pool(tracer)
        pool.tick(8)  # get some work running
        for proc in range(P):
            if proc not in pool.machine.down:
                pool.fault("fail", proc)
        pool.check_conservation()
        assert pool.machine.capacity == 0
        # Every running attempt was killed; queued work waits.  Ticking a
        # dead platform is a safe no-op, not an error or a busy loop.
        assert pool.machine.owner == {}
        for _ in range(20):
            pool.tick(16)
        pool.check_conservation()
        assert all(t.state != "running" for r in pool.tenants.values() for t in r.tasks.values())
        for proc in range(P):
            pool.fault("recover", proc)
        drain(pool)
        assert all(r.status == "finished" for r in pool.tenants.values())

    def test_stress_run_is_deterministic(self):
        digests = []
        for _ in range(2):
            pool = build_pool(CollectingTracer())
            states = []
            run_stress(pool, seed=99, rounds=15, states=states)
            assert any(s["queue"] for s in states)
            assert any(e[2] == "retry" for s in states for e in s["events"])
            assert content_digest(states) == MIDRUN_99_DIGEST
            drain(pool)
            digests.append(pool.state_dict())
        assert digests[0] == digests[1]
