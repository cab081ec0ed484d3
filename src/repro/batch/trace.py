# repro-lint: disable-file=RL008 -- trace reconstruction is inherently
# per-event: it converts result arrays back into the reference engine's
# one-object-per-step stream, off the schedule-computing fast path.
"""Post-hoc event-stream reconstruction for traced batch runs.

The batch kernel never emits events — that is what makes it fast.  But
its result arrays (``reveal_seq``/``reveal_t``/``start_seq``/
``start_t``/``end_t``) pin down *exactly* the interleaving the reference
engine's loop would have walked, because both engines are bit-identical
on those arrays (the golden-digest suite proves it).  This module replays
that interleaving after the fact:

* instant ``0``: every source task's ``TaskRevealed`` +
  ``AllocationDecided`` pair in reveal order, the initial queue pass's
  ``TaskStarted`` events in start order, one ``QueueSampled``;
* each later instant (one per distinct completion time, ascending):
  ``TaskCompleted`` in start order (the heap pops equal-time completions
  by their start-time sequence number), the newly revealed tasks' pairs
  in reveal order, new ``TaskStarted`` events in start order, one
  ``QueueSampled``.

Allocation α/β and cache statuses come from the capture pass of
:func:`repro.batch.layout.compile_run` (``capture_trace=True``): statuses
are recorded per cache-key group, and broadcast here in reveal order —
the group's first-revealed task carries the recorded outcome, later
members are cache hits, exactly as the reference engine's per-task
windows would classify them.

The resulting stream is digest-identical to a traced reference run
(``tests/batch/test_trace_equivalence.py``), which is what lets
``--trace`` ride the batch fast path instead of forcing the slow loop.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.exceptions import BatchUnsupportedError
from repro.obs.events import (
    AllocationDecided,
    QueueSampled,
    SimEvent,
    TaskCompleted,
    TaskRevealed,
    TaskStarted,
)

if TYPE_CHECKING:
    from repro.batch.engine import BatchEngine
    from repro.batch.layout import CompiledRun

__all__ = ["check_traceable", "emit_run_trace"]

Emit = Callable[[SimEvent], None]


def check_traceable(run: "CompiledRun") -> None:
    """Reject compiled runs whose traces cannot be reconstructed.

    Zero-duration tasks complete at the instant they start, which folds
    two reference-loop iterations onto one timestamp and makes the
    array-based replay ambiguous; such runs (pathological — every speedup
    model yields positive times) fall back to the reference loop.
    """
    if run.structure.n and bool(np.any(run.duration <= 0.0)):
        raise BatchUnsupportedError(
            "cannot reconstruct a trace for runs with non-positive task "
            "durations (completion instants would not be distinct)",
            feature="trace-nonpositive-duration",
        )
    if run.trace_cache is None:
        raise BatchUnsupportedError(
            "run was compiled without capture_trace=True",
            feature="trace-capture-missing",
        )


def _per_task_explanations(
    run: "CompiledRun", reveal_order: np.ndarray
) -> tuple[list[str], list[float | None], list[float | None]]:
    """Broadcast per-group capture data to per-task values, reveal order.

    Returns column-indexed lists.  The reference engine consults its
    allocation cache once per task in reveal order, so within a cache-key
    group the first-revealed task carries the compile-time outcome
    ("miss" on a cold cache, "hit" on a warm one) and every later member
    is a "hit"; "bypass"/"unknown" groups repeat their outcome verbatim
    (no cache entry was created to hit).
    """
    n = run.structure.n
    assert run.trace_cache is not None
    assert run.trace_alpha is not None and run.trace_beta is not None
    cache: list[str] = [""] * n
    alpha: list[float | None] = [None] * n
    beta: list[float | None] = [None] * n
    if run.trace_exact:
        for c in range(n):
            cache[c] = run.trace_cache[c]
            alpha[c] = run.trace_alpha[c]
            beta[c] = run.trace_beta[c]
        return cache, alpha, beta
    group = run.structure.group
    seen: set[int] = set()
    for c in reveal_order.tolist():
        g = int(group[c])
        status = run.trace_cache[g]
        if g in seen:
            cache[c] = "hit" if status in ("hit", "miss") else status
        else:
            seen.add(g)
            cache[c] = status
        alpha[c] = run.trace_alpha[g]
        beta[c] = run.trace_beta[g]
    return cache, alpha, beta


def emit_run_trace(engine: "BatchEngine", b: int, emit: Emit) -> None:
    """Emit run ``b``'s full event stream through ``emit``.

    Call only on a finished engine whose compiled runs carry trace
    capture data (:func:`check_traceable` validated, drain check passed:
    every task revealed, started, and completed).
    """
    compiled = engine.compiled
    run = compiled.runs[b]
    s = run.structure
    n = s.n
    ids = s.ids
    P = run.P
    free = P
    revealed = 0
    started = 0

    if n == 0:
        # An empty graph still makes the reference loop sample its
        # (empty) queue once after the initial admission.
        emit(QueueSampled(0.0, 0, free))
        return

    demand = compiled.demand[b]
    initial = compiled.initial[b]
    start_t = engine.start_t[b]
    end_t = engine.end_t[b]
    reveal_t = engine.reveal_t[b]
    start_seq = engine.start_seq.reshape(engine.B, engine.N)[b]

    reveal_order = np.argsort(engine.reveal_seq[b, :n], kind="stable")
    start_order = np.argsort(start_seq[:n], kind="stable")
    cache, alpha, beta = _per_task_explanations(run, reveal_order)

    # Bucket columns by instant once (dict keys are exact float64
    # values, the same bits the kernel computed and the reference
    # engine's heap would carry).
    rev_at: dict[float, list[int]] = {}
    for c in reveal_order.tolist():
        rev_at.setdefault(float(reveal_t[c]), []).append(c)
    st_at: dict[float, list[int]] = {}
    comp_at: dict[float, list[int]] = {}
    for c in start_order.tolist():
        st_at.setdefault(float(start_t[c]), []).append(c)
        comp_at.setdefault(float(end_t[c]), []).append(c)

    def reveal_block(cols: list[int], now: float) -> None:
        nonlocal revealed
        for c in cols:
            tid = ids[c]
            emit(TaskRevealed(now, tid))
            ini = int(initial[c])
            fin = int(demand[c])
            emit(
                AllocationDecided(
                    now, tid, ini, fin, P, fin < ini, cache[c], alpha[c], beta[c], 1
                )
            )
            revealed += 1

    def start_block(cols: list[int], now: float) -> None:
        nonlocal free, started
        for c in cols:
            procs = int(demand[c])
            emit(TaskStarted(now, ids[c], procs, float(end_t[c])))
            free -= procs
            started += 1

    # --- instant 0: initial admission + first queue pass ---------------
    reveal_block(rev_at.get(0.0, []), 0.0)
    start_block(st_at.get(0.0, []), 0.0)
    emit(QueueSampled(0.0, revealed - started, free))

    # --- one block per distinct completion instant, ascending ----------
    instants = np.unique(end_t[:n])
    for t in instants.tolist():
        for c in comp_at.get(t, []):
            procs = int(demand[c])
            emit(TaskCompleted(t, ids[c], procs, float(start_t[c])))
            free += procs
        reveal_block(rev_at.get(t, []), t)
        start_block(st_at.get(t, []), t)
        emit(QueueSampled(t, revealed - started, free))
