"""The fault-aware step machine under both fault-aware list schedulers.

The resilient path of :class:`~repro.sim.engine.ListScheduler` and the
service's :class:`~repro.service.pool.SharedPool` drive one
:class:`StepMachine`.  It owns processor identities (``free`` / ``down``
/ ``owner``, the live capacity, lowest-index packing), the running
attempts with their processor ids, the completion/retry heap with its
seq counter and stale-completion filtering, fault application with the
kill of the victim attempt, the retry decision of a
:class:`~repro.resilience.retry.RetryPolicy`, the re-cap test and
processor conservation.  Its callers keep the waiting queue and its order,
allocation, what an exhausted retry budget means, and the order in
which they process one instant's events; they also set :attr:`now`.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Generic, Hashable, TypeVar

from repro.exceptions import ReproError, SimulationError
from repro.obs.events import (
    CapacityChanged,
    FaultInjected,
    QueueSampled,
    RetryScheduled,
    SimEvent,
    TaskCompleted,
    TaskRevealed,
    TaskStarted,
)
from repro.types import TaskId, Time

if TYPE_CHECKING:  # layering: sim only duck-types resilience at runtime
    from repro.resilience.retry import RetryPolicy
    from repro.sim.invariants import InvariantChecker

__all__ = ["StepMachine", "Attempt"]

_Emit = Callable[[SimEvent], None]

#: The caller's task key (a task id, or ``(tenant, task_id)``).
K = TypeVar("K", bound=Hashable)

#: Heap entry ``(time, seq, kind, key, attempt, payload)``: ``kind`` is
#: ``"complete"`` or ``"retry"``, ``payload`` the caller's retry data.
Event = tuple[Time, int, str, K, int, object]


@dataclass
class Attempt(Generic[K]):
    """An attempt on the platform; ``name`` is its id in events."""

    key: K
    name: TaskId
    attempt: int
    procs: int
    proc_ids: tuple[int, ...]
    start: Time
    end: Time
    payload: object


class StepMachine(Generic[K]):
    """Processor identities, attempts, faults and retries on ``P`` processors."""

    def __init__(
        self,
        P: int,
        retry: RetryPolicy,
        *,
        checker: InvariantChecker | None = None,
        emit: _Emit | None = None,
        reject: type[ReproError] = SimulationError,
    ) -> None:
        self.P = P
        self.retry = retry
        self.checker = checker
        self.emit = emit
        #: What :meth:`apply_fault` raises for a fault that cannot apply.
        self.reject = reject
        self.now: Time = 0.0
        self.capacity = P
        self.free: set[int] = set(range(P))
        self.down: set[int] = set()
        self.owner: dict[int, K] = {}
        self.running: dict[K, Attempt[K]] = {}
        self.events: list[Event[K]] = []
        self._seq = itertools.count()

    def next_seq(self) -> int:
        """Draw from the seq counter that orders the event heap."""
        return next(self._seq)

    @property
    def n_free(self) -> int:
        return len(self.free)

    def ceiling(self, limit: int | None = None) -> int:
        """The live capacity capped at ``limit``, floored at 1 (a task
        revealed during a total blackout gets a provisional allocation)."""
        cap = self.capacity if limit is None or limit >= self.capacity else limit
        return max(cap, 1)

    def recap(self, cap_at_alloc: int, limit: int | None = None) -> int | None:
        """The ceiling to re-allocate at if it moved since ``cap_at_alloc``
        (the :math:`\\lceil\\mu P_t\\rceil` cap must track :math:`P_t`)."""
        cap = self.ceiling(limit)
        return None if cap == cap_at_alloc else cap

    def fits(self, name: TaskId, procs: int) -> bool:
        """Whether ``procs`` processors are free (never more than ``P_t``)."""
        if procs > self.capacity:
            raise SimulationError(
                f"task {name!r}: allocation {procs} exceeds live capacity "
                f"P_t={self.capacity} at start time t={self.now:.6g}"
            )
        return procs <= len(self.free)

    # -- attempts --------------------------------------------------------
    def start(
        self, key: K, name: TaskId, procs: int, duration: Time, attempt: int,
        payload: object = None,
    ) -> Attempt[K]:
        """Start an attempt on the ``procs`` lowest free processors."""
        ids = tuple(heapq.nsmallest(procs, self.free))
        self.free.difference_update(ids)
        for q in ids:
            self.owner[q] = key
        now = self.now
        end = now + duration
        rec = Attempt(key, name, attempt, procs, ids, now, end, payload)
        self.running[key] = rec
        if self.checker is not None:
            self.checker.on_start(now, name, procs)
        if self.emit is not None:
            self.emit(TaskStarted(now, name, procs, end, attempt))
        heapq.heappush(self.events, (end, next(self._seq), "complete", key, attempt, None))
        return rec

    def complete(self, key: K) -> Attempt[K]:
        """The attempt of ``key`` finished: free its processors."""
        return self._release(key, True)

    def kill(self, key: K) -> Attempt[K]:
        """End the attempt of ``key`` early; its completion turns stale."""
        return self._release(key, False)

    def _release(self, key: K, completed: bool) -> Attempt[K]:
        rec = self.running.pop(key)
        owner = self.owner
        for q in rec.proc_ids:
            del owner[q]
        self.free.update(rec.proc_ids)
        if not completed:
            self.free.difference_update(self.down)  # the failed processor stays out
        if self.checker is not None:
            (self.checker.on_complete if completed else self.checker.on_kill)(self.now, rec.name)
        if self.emit is not None:
            self.emit(
                TaskCompleted(self.now, rec.name, rec.procs, rec.start, rec.attempt, completed)
            )
        return rec

    # -- faults and retries ---------------------------------------------
    def fault_error(self, kind: str, proc: int) -> str | None:
        """Why fault ``(kind, proc)`` cannot apply now, or ``None``."""
        if kind not in ("fail", "recover"):
            return f"unknown fault kind {kind!r}"
        if not 0 <= proc < self.P:
            return f"processor index {proc} outside [0, {self.P})"
        if (kind == "fail") == (proc in self.down):
            state = "down" if kind == "fail" else "up"
            return f"processor {proc} cannot {kind} while {state} (t={self.now:.6g})"
        return None

    def apply_fault(self, kind: str, proc: int) -> Attempt[K] | None:
        """Validate, emit, then apply a fault; returns the attempt it killed."""
        problem = self.fault_error(kind, proc)
        if problem is not None:
            raise self.reject(problem)
        if self.emit is not None:
            self.emit(FaultInjected(self.now, proc, kind))
        if kind == "recover":
            self.down.discard(proc)
            self.capacity += 1
            self.free.add(proc)
            return None
        self.down.add(proc)
        self.capacity -= 1
        if proc in self.free:
            self.free.discard(proc)
            return None
        return self.kill(self.owner[proc])

    def schedule_retry(self, rec: Attempt[K], payload: object = None) -> Time | None:
        """Apply the retry policy to the killed attempt ``rec``.

        Returns ``None`` when the budget is exhausted, else the backoff:
        a positive delay queues a ``retry`` event carrying ``payload``,
        zero leaves the immediate re-admission to the caller.
        """
        next_attempt = rec.attempt + 1
        if not self.retry.allows(next_attempt):
            return None
        delay = self.retry.backoff_delay(rec.attempt)
        if self.emit is not None:
            self.emit(RetryScheduled(self.now, rec.name, next_attempt, delay))
        if delay > 0:
            entry = (self.now + delay, next(self._seq), "retry", rec.key, next_attempt, payload)
            heapq.heappush(self.events, entry)
        return delay

    # -- the event heap --------------------------------------------------
    def _live(self, event: Event[K]) -> bool:
        """A completion is stale once its attempt was killed."""
        if event[2] != "complete":
            return True
        rec = self.running.get(event[3])
        return rec is not None and rec.attempt == event[4]

    def next_time(self) -> Time:
        """Earliest live event time, dropping stale completions at the head."""
        events = self.events
        while events:
            if self._live(events[0]):
                return events[0][0]
            heapq.heappop(events)
        return math.inf

    def pop_due(self, now: Time) -> tuple[int, list[Event[K]]]:
        """Pop every event at ``now``: (events popped, live ones in order)."""
        events = self.events
        before = len(events)
        live: list[Event[K]] = []
        while events and events[0][0] == now:
            event = heapq.heappop(events)
            if self._live(event):
                live.append(event)
        return before - len(events), live

    # -- observation and checks -----------------------------------------
    def reveal(self, name: TaskId) -> None:
        """A task's first attempt became known to the scheduler."""
        if self.checker is not None:
            self.checker.on_reveal(self.now, name)
        if self.emit is not None:
            self.emit(TaskRevealed(self.now, name))

    def note_capacity(self) -> None:
        """Report the live capacity after one or more faults."""
        if self.checker is not None:
            self.checker.on_capacity(self.now, self.capacity)
        if self.emit is not None:
            self.emit(CapacityChanged(self.now, self.capacity))

    def sample(self, queue_depth: int) -> None:
        if self.emit is not None:
            self.emit(QueueSampled(self.now, queue_depth, len(self.free)))

    def check_conservation(self) -> None:
        """free + owned + down partition the ``P`` processors, the capacity
        is ``P - down``, and ``owner`` is what the running attempts hold.
        """
        free, owned, down = self.free, set(self.owner), self.down
        if len(free) + len(owned) + len(down) != self.P or len(free | owned | down) != self.P:
            raise SimulationError(
                f"processor leak: free={sorted(free)} owned={sorted(owned)} "
                f"down={sorted(down)} on P={self.P}"
            )
        if self.capacity != self.P - len(down):
            raise SimulationError(f"capacity {self.capacity} != P - down on P={self.P}")
        held = {q: rec.key for rec in self.running.values() for q in rec.proc_ids}
        if held != self.owner:
            raise SimulationError("processor owners disagree with the running attempts")
