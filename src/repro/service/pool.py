"""The shared processor pool: a multi-tenant, virtual-time list scheduler.

This is the engine room of the scheduler service.  It keeps the exact
semantics of the paper's list-scheduling loop
(:class:`~repro.sim.engine.ListScheduler`) — reveal-time allocation via
Algorithm 2, FIFO queue passes, simultaneous completions draining
together — but runs them *incrementally*: instead of consuming a closed
DAG to exhaustion, the pool is mutated one operation at a time (submit /
tick / fault / cancel) by :class:`~repro.service.core.ServiceCore` in
journal order.  Given the same mutation sequence the pool is a pure
function: replaying a journal reconstructs bit-identical state, which is
what makes crash recovery digest-verifiable.

Multi-tenancy adds two policies on top of the engine semantics, both
deterministic:

* **Fair share.**  Each queue pass examines waiting tasks ordered by
  ``(tenant's currently running processors, arrival seq)`` — tenants
  occupying less of the pool go first, and within a tenant the order is
  FIFO.  With a single tenant this reduces *exactly* to the engine's
  FIFO pass (pinned by the engine-equivalence tests).
* **Processor quotas.**  A task whose start would push its tenant past
  ``max_running_procs`` stays queued without blocking tasks of other
  tenants behind it.

Faults run on the :class:`~repro.sim.machine.StepMachine` the resilient
engine drives: processors have identities, a failure kills the victim
attempt and shrinks the live capacity, retries back off in virtual time
under a :class:`~repro.resilience.retry.RetryPolicy` built from the
config (an exhausted budget evicts the tenant), and queued allocations
are re-capped when the live capacity changes.  Within one instant the
pool re-admits due retries before it reveals successors.  An embedded
:class:`~repro.sim.invariants.InvariantChecker` cross-checks every
transition, and :meth:`SharedPool.check_conservation` verifies processor
conservation (free + down + owned = P, pairwise disjoint) after every
mutation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro.core.allocator import LpaAllocator
from repro.exceptions import ServiceError, SimulationError
from repro.obs.events import SimEvent
from repro.resilience.retry import RetryPolicy
from repro.service.config import ServiceConfig, TenantQuota
from repro.sim.allocation import Allocation, Allocator
from repro.sim.invariants import InvariantChecker
from repro.sim.machine import Attempt, StepMachine
from repro.speedup.base import SpeedupModel

__all__ = ["SharedPool", "PoolTask", "TenantRun", "Notification", "PoolStats"]

#: Emission hook type (``None`` when tracing is off), engine idiom.
_Emit = Callable[[SimEvent], None]


@dataclass
class PoolStats:
    """Service-level throughput counters (observability only)."""

    submitted: int = 0
    decisions: int = 0
    started: int = 0
    completed: int = 0
    killed: int = 0
    cancelled: int = 0
    ticks: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "submitted": self.submitted,
            "decisions": self.decisions,
            "started": self.started,
            "completed": self.completed,
            "killed": self.killed,
            "cancelled": self.cancelled,
            "ticks": self.ticks,
        }


@dataclass
class PoolTask:
    """One tenant task tracked by the pool across its whole lifecycle."""

    tenant: str
    task_id: str
    model: SpeedupModel
    #: ``blocked`` (predecessors unfinished) -> ``queued`` -> ``running``
    #: -> ``done``; ``cancelled`` is terminal from any live state.
    state: str = "blocked"
    waiting_on: set[str] = field(default_factory=set)
    successors: list[str] = field(default_factory=list)
    attempt: int = 1
    start: float = -1.0
    end: float = -1.0
    procs: int = 0


@dataclass
class TenantRun:
    """Per-tenant pool-side state (quota usage, DAG bookkeeping, results)."""

    tenant: str
    priority: int
    quota: TenantQuota
    #: Virtual instant the session was admitted (makespans are relative to it).
    t0: float
    #: Virtual-time deadline for the whole session (``None`` = none).
    deadline: float | None = None
    #: ``open`` -> ``closed`` (DAG declared complete) -> ``finished``;
    #: ``cancelled`` is terminal from ``open``/``closed``.
    status: str = "open"
    #: Terminal reason for cancelled tenants (error code).
    reason: str = ""
    tasks: dict[str, PoolTask] = field(default_factory=dict)
    inflight: int = 0
    completed: int = 0

    @property
    def active(self) -> bool:
        return self.status in ("open", "closed")

    def is_drained(self) -> bool:
        """Closed and every submitted task completed."""
        return self.status == "closed" and self.inflight == 0


@dataclass(frozen=True)
class _QueueEntry:
    """A revealed task waiting for processors."""

    tenant: str
    task_id: str
    allocation: Allocation
    seq: int
    attempt: int = 1
    cap_at_alloc: int = -1


#: (tenant, response-shaped payload) routed to sessions by the server.
Notification = tuple[str, dict[str, object]]


class SharedPool:
    """Deterministic multi-tenant list scheduler over ``P`` processors."""

    def __init__(
        self,
        config: ServiceConfig,
        *,
        allocator: Allocator | None = None,
        emit: _Emit | None = None,
    ) -> None:
        self.config = config
        self.P = config.P
        self.allocator: Allocator = (
            allocator if allocator is not None else LpaAllocator(config.effective_mu)
        )
        retry = RetryPolicy(
            max_attempts=config.fault_max_attempts, backoff_base=config.fault_backoff
        )
        #: Processors, attempts and the event heap, keyed (tenant, task_id).
        self.machine: StepMachine[tuple[str, str]] = StepMachine(
            config.P, retry, checker=InvariantChecker(config.P), emit=emit,
            reject=ServiceError,
        )
        self.tenants: dict[str, TenantRun] = {}
        self.queue: list[_QueueEntry] = []
        self.stats = PoolStats()

    @property
    def now(self) -> float:
        """The virtual clock."""
        return self.machine.now

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _key(self, tenant: str, task_id: str) -> str:
        """Composite id used in obs events and the invariant checker."""
        return f"{tenant}/{task_id}"

    def _allocate(self, model: SpeedupModel, cap: int) -> Allocation:
        allocate = getattr(self.allocator, "allocate_cached", None)
        if not callable(allocate):
            allocate = self.allocator.allocate
        alloc = allocate(model, cap, free=self.machine.n_free)
        if not 1 <= alloc.final <= cap:
            raise SimulationError(
                f"allocator returned infeasible allocation {alloc} on P_t={cap}"
            )
        self.stats.decisions += 1
        return alloc

    def _reveal(self, run: TenantRun, task: PoolTask) -> None:
        """Allocate a ready task (first reveal or due retry) and enqueue it.

        Capping the *allocation* at the tenant's processor quota, not just
        the start decision, is what makes quotas deadlock-free.
        """
        cap = self.machine.ceiling(run.quota.max_running_procs)
        alloc = self._allocate(task.model, cap)
        task.state = "queued"
        entry = _QueueEntry(
            run.tenant, task.task_id, alloc, self.machine.next_seq(),
            attempt=task.attempt, cap_at_alloc=cap,
        )
        self.queue.append(entry)
        if task.attempt == 1:
            self.machine.reveal(self._key(run.tenant, task.task_id))

    # ------------------------------------------------------------------
    # Mutations (called by ServiceCore in journal order)
    # ------------------------------------------------------------------
    def admit_tenant(
        self,
        tenant: str,
        *,
        priority: int = 0,
        quota: TenantQuota | None = None,
        deadline: float | None = None,
    ) -> TenantRun:
        """Register a tenant (admission checks happen in the core)."""
        if tenant in self.tenants and self.tenants[tenant].active:
            raise ServiceError(f"tenant {tenant!r} already active")
        run = TenantRun(
            tenant=tenant,
            priority=priority,
            quota=quota if quota is not None else self.config.quota,
            t0=self.now,
            deadline=None if deadline is None else self.now + deadline,
        )
        self.tenants[tenant] = run
        return run

    def submit(
        self, tenant: str, task_id: str, model: SpeedupModel, deps: tuple[str, ...]
    ) -> None:
        """Add one task to ``tenant``'s DAG; reveal it if already ready.

        Validation (unknown tenant, duplicate task, unknown predecessors,
        quota) is the core's job; the pool still hard-fails on states that
        should be unreachable so bugs surface as exceptions, not silent
        corruption.
        """
        run = self.tenants[tenant]
        if not run.active or run.status != "open":
            raise ServiceError(f"tenant {tenant!r} is not accepting submissions")
        if task_id in run.tasks:
            raise ServiceError(f"task {task_id!r} submitted twice by {tenant!r}")
        task = PoolTask(tenant=tenant, task_id=task_id, model=model)
        for dep in deps:
            pred = run.tasks.get(dep)
            if pred is None:
                raise ServiceError(
                    f"task {task_id!r} depends on unknown task {dep!r}"
                )
            if pred.state != "done":
                task.waiting_on.add(dep)
                pred.successors.append(task_id)
        run.tasks[task_id] = task
        run.inflight += 1
        self.stats.submitted += 1
        if not task.waiting_on:
            self._reveal(run, task)
            self._scan()
        self.machine.sample(len(self.queue))

    def close_tenant(self, tenant: str) -> list[Notification]:
        """Mark the DAG complete.

        If every submitted task already finished (the whole graph drained
        while the session was still open), the terminal ``graph-done``
        notification is synthesized here — otherwise the final
        completion's :meth:`tick` emits it.
        """
        run = self.tenants[tenant]
        if run.status != "open":
            raise ServiceError(f"tenant {tenant!r} is not open")
        run.status = "closed"
        if run.is_drained():
            run.status = "finished"
            return [(tenant, self._graph_done_payload(run))]
        return []

    def _graph_done_payload(self, run: TenantRun) -> dict[str, object]:
        makespan = (
            max(
                (t.end for t in run.tasks.values() if t.state == "done"),
                default=run.t0,
            )
            - run.t0
        )
        return {"event": "graph-done", "makespan": makespan, "tasks": run.completed}

    def cancel_tenant(self, tenant: str, reason: str) -> None:
        """Terminate a tenant: kill running attempts, drop queued work.

        Every processor the tenant occupied returns to the free set — the
        capacity-conservation guarantee cancellation tests pin.
        """
        run = self.tenants[tenant]
        if not run.active:
            return
        self.queue = [e for e in self.queue if e.tenant != tenant]
        for task in run.tasks.values():
            if task.state == "running":
                self.machine.kill((tenant, task.task_id))
            if task.state != "done":
                task.state = "cancelled"
        run.status = "cancelled"
        run.reason = reason
        run.inflight = 0
        self.stats.cancelled += 1
        self._scan()  # released capacity may start other tenants' work
        self.machine.sample(len(self.queue))

    def fault(self, kind: str, proc: int) -> list[Notification]:
        """Apply one processor fault event (``fail`` / ``recover``).

        A fault that cannot apply raises :class:`ServiceError`, emitting nothing.
        """
        notes: list[Notification] = []
        victim = self.machine.apply_fault(kind, proc)
        if victim is not None:
            notes.extend(self._killed(victim))
        self.machine.note_capacity()
        self._scan()
        self.machine.sample(len(self.queue))
        self.check_conservation()
        return notes

    def tick(self, max_events: int) -> list[Notification]:
        """Advance virtual time through up to ``max_events`` event instants.

        Processes whole instants (simultaneous completions drain
        together, exactly like the engine), reveals successors in
        completion order, runs one fair-share queue pass per instant, and
        enforces virtual-time session deadlines.  Returns notifications
        (task/graph completions, evictions) for the server to route.
        """
        notes: list[Notification] = []
        self.stats.ticks += 1
        processed = 0
        machine = self.machine
        while machine.events and processed < max_events:
            # A stale completion at the head is an instant too: it scans,
            # checks deadlines and counts against ``max_events``.
            now = machine.now = machine.events[0][0]
            popped, live = machine.pop_due(now)
            processed += popped
            revealed: list[tuple[TenantRun, PoolTask]] = []
            retries: list[tuple[TenantRun, PoolTask]] = []
            for _, _, kind, key, attempt, _ in live:
                tenant, task_id = key
                run = self.tenants[tenant]
                task = run.tasks.get(task_id)
                if task is None or not run.active:
                    continue  # tenant cancelled after the event was queued
                if kind == "retry":
                    if task.state == "killed" and task.attempt == attempt:
                        retries.append((run, task))
                    continue
                notes.extend(self._complete(run, task, revealed))
            for run, task in retries:
                self._reveal(run, task)
            for run, task in revealed:
                self._reveal(run, task)
            self._scan()
            notes.extend(self._check_deadlines())
            self.machine.sample(len(self.queue))
        self.check_conservation()
        return notes

    # ------------------------------------------------------------------
    # Internal transitions
    # ------------------------------------------------------------------
    def _complete(
        self,
        run: TenantRun,
        task: PoolTask,
        revealed: list[tuple[TenantRun, PoolTask]],
    ) -> list[Notification]:
        notes: list[Notification] = []
        self.machine.complete((run.tenant, task.task_id))
        task.state = "done"
        task.end = self.now
        run.inflight -= 1
        run.completed += 1
        self.stats.completed += 1
        notes.append(
            (
                run.tenant,
                {
                    "event": "task-done",
                    "task": task.task_id,
                    "start": task.start,
                    "end": task.end,
                    "procs": task.procs,
                },
            )
        )
        for succ_id in task.successors:
            succ = run.tasks[succ_id]
            if succ.state != "blocked":
                continue
            succ.waiting_on.discard(task.task_id)
            if not succ.waiting_on:
                revealed.append((run, succ))
        if run.is_drained():
            run.status = "finished"
            notes.append((run.tenant, self._graph_done_payload(run)))
        return notes

    def _killed(self, rec: Attempt[tuple[str, str]]) -> list[Notification]:
        """A fault killed a running attempt: queue its retry or evict."""
        tenant, task_id = rec.key
        run = self.tenants[tenant]
        task = run.tasks[task_id]
        self.stats.killed += 1
        notes: list[Notification] = [
            (tenant, {"event": "task-killed", "task": task_id, "attempt": task.attempt})
        ]
        task.state = "killed"  # before any evict: the attempt is fully released
        task.procs = 0
        delay = self.machine.schedule_retry(rec)
        if delay is None:
            notes.extend(
                self._evict(
                    run,
                    "RETRY_EXHAUSTED",
                    f"task {task_id!r} killed {rec.attempt} times "
                    f"(fault_max_attempts={self.config.fault_max_attempts})",
                )
            )
            return notes
        task.attempt = rec.attempt + 1
        if delay == 0.0:
            self._reveal(run, task)
        return notes

    def _evict(self, run: TenantRun, reason: str, message: str) -> list[Notification]:
        self.cancel_tenant(run.tenant, reason)
        return [
            (run.tenant, {"event": "evicted", "reason": reason, "message": message})
        ]

    def _check_deadlines(self) -> list[Notification]:
        notes: list[Notification] = []
        for tenant in sorted(self.tenants):
            run = self.tenants[tenant]
            if run.active and run.deadline is not None and self.now >= run.deadline:
                notes.extend(
                    self._evict(
                        run,
                        "DEADLINE_EXCEEDED",
                        f"session deadline {run.deadline - run.t0:.6g} overran "
                        f"at t={self.now:.6g}",
                    )
                )
        return notes

    def _scan(self) -> None:
        """One fair-share queue pass: start everything that fits.

        Entries are visited ordered by ``(tenant running procs at pass
        start, seq)``; quota-blocked entries are skipped without blocking
        later entries; allocations computed for another ceiling are
        re-capped first.
        """
        machine = self.machine
        if not self.queue or machine.capacity < 1:
            return
        usage = self._usage()
        order = sorted(self.queue, key=lambda e: (usage[e.tenant], e.seq))
        started: set[int] = set()
        replaced: dict[int, _QueueEntry] = {}
        for entry in order:
            run = self.tenants[entry.tenant]
            task = run.tasks[entry.task_id]
            limit = run.quota.max_running_procs
            cap = machine.recap(entry.cap_at_alloc, limit)
            if cap is not None:
                alloc = self._allocate(task.model, cap)
                entry = _QueueEntry(
                    entry.tenant, entry.task_id, alloc, entry.seq,
                    attempt=entry.attempt, cap_at_alloc=cap,
                )
                replaced[entry.seq] = entry
            procs = entry.allocation.final
            if not machine.fits(entry.task_id, procs):
                continue
            if limit is not None and usage[entry.tenant] + procs > limit:
                continue  # quota-blocked: stays queued, others overtake
            self._start(run, task, entry)
            usage[entry.tenant] += procs
            started.add(entry.seq)
        if started or replaced:
            self.queue = [
                replaced.get(e.seq, e) for e in self.queue if e.seq not in started
            ]

    def _start(self, run: TenantRun, task: PoolTask, entry: _QueueEntry) -> None:
        procs = entry.allocation.final
        key = (run.tenant, task.task_id)
        rec = self.machine.start(key, self._key(*key), procs, task.model.time(procs), task.attempt)
        task.state = "running"
        task.start = rec.start
        task.end = rec.end
        task.procs = procs
        self.stats.started += 1

    # ------------------------------------------------------------------
    # Introspection & invariants
    # ------------------------------------------------------------------
    def queue_depth(self) -> int:
        return len(self.queue)

    def has_pending_events(self) -> bool:
        return bool(self.machine.events)

    def idle(self) -> bool:
        """No queued work and no future events: ticking is a no-op."""
        return not self.machine.events and not self.queue

    def active_tenants(self) -> int:
        return sum(1 for run in self.tenants.values() if run.active)

    def _usage(self) -> dict[str, int]:
        """Processors each tenant's running attempts hold."""
        usage = dict.fromkeys(self.tenants, 0)
        for (tenant, _task), rec in self.machine.running.items():
            usage[tenant] += rec.procs
        return usage

    def check_conservation(self) -> None:
        """Processor conservation, then each tenant's usage against its
        quota; raises :class:`~repro.exceptions.SimulationError` on any
        leak."""
        self.machine.check_conservation()
        for tenant, procs in self._usage().items():
            limit = self.tenants[tenant].quota.max_running_procs
            if limit is not None and procs > limit:
                raise SimulationError(
                    f"tenant {tenant!r} occupies {procs} procs over quota {limit}"
                )

    def state_dict(self) -> dict[str, object]:
        """Canonical semantic state (the digest input; JSON-safe).

        Covers everything that affects future behaviour: virtual clock,
        processor sets, queue, event heap, and per-tenant task states.
        Observability counters are excluded (they are not semantics).
        """
        tenants = {}
        for tenant in sorted(self.tenants):
            run = self.tenants[tenant]
            tenants[tenant] = {
                "priority": run.priority,
                "quota": run.quota.as_dict(),
                "t0": run.t0,
                "deadline": run.deadline,
                "status": run.status,
                "reason": run.reason,
                "inflight": run.inflight,
                "completed": run.completed,
                "tasks": {
                    tid: {
                        "state": t.state,
                        "attempt": t.attempt,
                        "start": t.start,
                        "end": t.end,
                        "procs": t.procs,
                        "waiting_on": sorted(t.waiting_on),
                    }
                    for tid, t in sorted(run.tasks.items())
                },
            }
        machine = self.machine
        return {
            "now": machine.now,
            "capacity": machine.capacity,
            "free": sorted(machine.free),
            "down": sorted(machine.down),
            "owner": {str(q): list(v) for q, v in sorted(machine.owner.items())},
            "queue": [
                [e.tenant, e.task_id, e.allocation.final, e.seq, e.attempt]
                for e in self.queue
            ],
            "events": sorted(
                [t, s, kind, *key, attempt]
                for t, s, kind, key, attempt, _ in machine.events
            ),
            "tenants": tenants,
        }

    def snapshot(self) -> Mapping[str, object]:
        """Status-endpoint payload: coarse state + throughput counters."""
        usage = self._usage()
        return {
            "now": self.now,
            "P": self.P,
            "capacity": self.machine.capacity,
            "free": self.machine.n_free,
            "down": len(self.machine.down),
            "queue_depth": len(self.queue),
            "pending_events": len(self.machine.events),
            "tenants": {
                t: {
                    "status": run.status,
                    "inflight": run.inflight,
                    "running_procs": usage[t],
                    "completed": run.completed,
                }
                for t, run in sorted(self.tenants.items())
            },
            "stats": self.stats.as_dict(),
        }
