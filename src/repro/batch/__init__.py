"""Batched structure-of-arrays engine backend.

A vectorized NumPy implementation of the fault-free engine loop that
simulates whole batches of independent runs in one pass, bit-identical to
the reference engine on its supported subset (see
:mod:`repro.batch.adapter` for the exact boundary).  Select it ambiently::

    from repro.sim.backend import use_backend

    with use_backend("batch"):
        result = ListScheduler(P, allocator).run(StaticGraphSource(graph))

or drive batches directly::

    from repro.batch import run_batch

    outcome = run_batch([(graph, P) for P in (8, 16, 32)], allocator)

Importing this package registers the ``"batch"`` backend.
"""

from repro.batch.adapter import (
    BatchBackend,
    BatchOutcome,
    materialize_result,
    run_batch,
    simulate,
)
from repro.batch.engine import BatchEngine
from repro.batch.layout import (
    BatchCompiler,
    CompiledBatch,
    CompiledRun,
    CompiledStructure,
    compile_batch,
    compile_run,
    compile_structure,
)

__all__ = [
    "BatchBackend",
    "BatchCompiler",
    "BatchEngine",
    "BatchOutcome",
    "CompiledBatch",
    "CompiledRun",
    "CompiledStructure",
    "compile_batch",
    "compile_run",
    "compile_structure",
    "materialize_result",
    "run_batch",
    "simulate",
]
