"""Cross-backend equivalence harness: batch vs. reference, bit for bit.

The batch engine's contract is *bit-identity* on its supported subset —
not "close", not "statistically equal".  This module checks the contract
three ways:

* :func:`verify_registry` replays every registered experiment twice, once
  per backend, and compares the
  :meth:`~repro.experiments.registry.ExperimentReport.digest` values.
  Experiments outside the batch subset (resilient runs, adaptive
  adversaries) exercise the silent-fallback path and must *still* match —
  a backend selection is never allowed to change results.
* :func:`verify_golden` additionally pins the batch-backend digests to
  the seed engine's recorded ``golden_digests.json``.
* :func:`verify_random` sweeps randomized DAGs x speedup models x
  platform sizes and compares the full result objects (schedule entries,
  allocation and reveal dicts including their order, makespans).
* :func:`verify_allocation` pins the vectorized LPA α/β decisions
  (:meth:`~repro.core.allocator.LpaAllocator.allocate_batch`) to the
  scalar ``allocate_cached`` oracle across every speedup-model family —
  Equation (1) lanes and scalar-fallback lanes alike.

Run it as a module (CI's perf-smoke job does)::

    python -m repro.batch.verify --trials 25 [--golden tests/perf/golden_digests.json]

Exit status 0 means every comparison matched.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from repro.sim.backend import use_backend

__all__ = [
    "Mismatch",
    "verify_registry",
    "verify_golden",
    "verify_random",
    "verify_allocation",
    "main",
]


@dataclass(frozen=True)
class Mismatch:
    """One failed equivalence comparison."""

    check: str
    subject: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.check}] {self.subject}: {self.detail}"


def verify_registry(names: Iterable[str] | None = None) -> list[Mismatch]:
    """Replay registry experiments under both backends; compare digests."""
    from repro.experiments.registry import REGISTRY, run_experiment

    if names is None:
        names = sorted(REGISTRY)
    mismatches: list[Mismatch] = []
    for name in names:
        reference = run_experiment(name).digest()
        with use_backend("batch"):
            batched = run_experiment(name).digest()
        if reference != batched:
            mismatches.append(
                Mismatch(
                    "registry",
                    name,
                    f"reference digest {reference} != batch digest {batched}",
                )
            )
    return mismatches


def verify_golden(golden_path: Path) -> list[Mismatch]:
    """Pin batch-backend digests to the recorded golden digests."""
    from repro.experiments.registry import REGISTRY, run_experiment

    golden = json.loads(Path(golden_path).read_text())
    mismatches: list[Mismatch] = []
    for name in sorted(REGISTRY):
        if name not in golden:
            mismatches.append(
                Mismatch("golden", name, "no golden digest recorded")
            )
            continue
        with use_backend("batch"):
            batched = run_experiment(name).digest()
        if batched != golden[name]:
            mismatches.append(
                Mismatch(
                    "golden",
                    name,
                    f"batch digest {batched} != golden {golden[name]}",
                )
            )
    return mismatches


def _random_model(rng: np.random.Generator):
    from repro.speedup import (
        AmdahlModel,
        CommunicationModel,
        GeneralModel,
        RooflineModel,
    )

    kind = int(rng.integers(4))
    w = float(rng.uniform(1.0, 100.0))
    if kind == 0:
        return RooflineModel(w, max_parallelism=int(rng.integers(1, 48)))
    if kind == 1:
        return CommunicationModel(w, float(rng.uniform(0.01, 2.0)))
    if kind == 2:
        return AmdahlModel(w, float(rng.uniform(0.0, 5.0)))
    return GeneralModel(
        w,
        float(rng.uniform(0.0, 3.0)),
        float(rng.uniform(0.0, 1.0)),
        max_parallelism=int(rng.integers(1, 64)),
    )


def _random_graph(rng: np.random.Generator):
    from repro.graph import generators as gen

    seed = int(rng.integers(2**31))
    factory = lambda: _random_model(rng)  # noqa: E731
    kind = int(rng.integers(5))
    if kind == 0:
        return gen.chain(int(rng.integers(1, 25)), factory)
    if kind == 1:
        return gen.independent_tasks(int(rng.integers(1, 60)), factory)
    if kind == 2:
        return gen.fork_join(int(rng.integers(1, 9)), factory, stages=int(rng.integers(1, 5)))
    if kind == 3:
        return gen.layered_random(
            int(rng.integers(2, 7)),
            int(rng.integers(1, 9)),
            factory,
            edge_probability=float(rng.uniform(0.1, 0.7)),
            seed=seed,
        )
    return gen.erdos_renyi_dag(
        int(rng.integers(2, 60)),
        factory,
        edge_probability=float(rng.uniform(0.05, 0.3)),
        seed=seed,
    )


def verify_random(trials: int = 25, seed: int = 0) -> list[Mismatch]:
    """Compare full results on randomized DAGs x models x platform sizes."""
    from repro.core.allocator import LpaAllocator
    from repro.sim.engine import ListScheduler
    from repro.sim.sources import StaticGraphSource

    rng = np.random.default_rng(seed)
    mismatches: list[Mismatch] = []
    for trial in range(trials):
        graph = _random_graph(rng)
        P = int(rng.integers(1, 96))
        mu = float(rng.choice([0.211, 0.271, 0.324, 0.38]))
        subject = f"trial {trial} (n={len(graph)}, P={P}, mu={mu})"

        reference = ListScheduler(P, LpaAllocator(mu)).run(StaticGraphSource(graph))
        with use_backend("batch"):
            batched = ListScheduler(P, LpaAllocator(mu)).run(StaticGraphSource(graph))

        # repro-lint: disable=RL003 -- bit-identity is the whole contract
        if reference.makespan != batched.makespan:
            mismatches.append(
                Mismatch(
                    "random",
                    subject,
                    f"makespan {reference.makespan!r} != {batched.makespan!r}",
                )
            )
            continue
        if list(reference.schedule) != list(batched.schedule):
            mismatches.append(Mismatch("random", subject, "schedule entries differ"))
            continue
        if reference.allocations != batched.allocations or list(
            reference.allocations
        ) != list(batched.allocations):
            mismatches.append(
                Mismatch("random", subject, "allocations differ (value or order)")
            )
            continue
        if reference.revealed_at != batched.revealed_at or list(
            reference.revealed_at
        ) != list(batched.revealed_at):
            mismatches.append(
                Mismatch("random", subject, "reveal times differ (value or order)")
            )
    return mismatches


def verify_allocation(trials: int = 60, seed: int = 0) -> list[Mismatch]:
    """Pin vectorized LPA decisions to the ``allocate_cached`` oracle.

    Sweeps every speedup-model family — the vectorizable Equation (1)
    models *and* models that must take the scalar-fallback lane
    (power-law, tabulated, log-parallelism) — across platform sizes and
    µ values, comparing ``initial``/``final``.
    """
    from repro.core.allocator import LpaAllocator
    from repro.speedup.arbitrary import LogParallelismModel, TabulatedModel
    from repro.speedup.power import PowerLawModel

    rng = np.random.default_rng(seed)
    mismatches: list[Mismatch] = []
    for trial in range(trials):
        models = [_random_model(rng) for _ in range(24)]
        models.append(PowerLawModel(float(rng.uniform(1.0, 50.0)), float(rng.uniform(0.2, 0.95))))
        models.append(LogParallelismModel(float(rng.uniform(1.0, 50.0))))
        times = np.maximum.accumulate(rng.uniform(0.5, 40.0, size=6)[::-1])[::-1]
        models.append(TabulatedModel(tuple(float(t) for t in times)))
        P = int(rng.integers(1, 128))
        mu = float(rng.choice([0.211, 0.271, 0.324, 0.38]))
        subject = f"allocation trial {trial} (P={P}, mu={mu})"

        batch = LpaAllocator(mu).allocate_batch(models, P)
        if batch is None:
            mismatches.append(Mismatch("allocation", subject, "allocate_batch declined"))
            continue
        oracle = LpaAllocator(mu)
        for i, model in enumerate(models):
            alloc = oracle.allocate_cached(model, P, free=None)
            if alloc.initial != int(batch.initial[i]) or alloc.final != int(batch.final[i]):
                mismatches.append(
                    Mismatch(
                        "allocation",
                        subject,
                        f"model {model!r}: oracle ({alloc.initial}, {alloc.final}) "
                        f"!= batch ({int(batch.initial[i])}, {int(batch.final[i])})",
                    )
                )
                break
    return mismatches


def _trial_count(text: str) -> int:
    """argparse ``type``: a non-negative trial count."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.batch.verify",
        description="Verify batch-backend equivalence with the reference engine.",
    )
    parser.add_argument(
        "--golden",
        type=Path,
        default=None,
        help="also pin batch digests to this golden_digests.json",
    )
    parser.add_argument(
        "--trials",
        type=_trial_count,
        default=25,
        help="randomized sweep size (default 25)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="randomized sweep seed (default 0)"
    )
    parser.add_argument(
        "--alloc-trials",
        type=_trial_count,
        default=60,
        help="allocation-parity sweep size (default 60; 0 skips)",
    )
    args = parser.parse_args(argv)

    mismatches = verify_registry()
    print(f"registry replay: {len(mismatches)} mismatches")
    if args.golden is not None:
        before = len(mismatches)
        mismatches += verify_golden(args.golden)
        print(f"golden pinning: {len(mismatches) - before} mismatches")
    before = len(mismatches)
    mismatches += verify_random(trials=args.trials, seed=args.seed)
    print(
        f"randomized sweep ({args.trials} trials): "
        f"{len(mismatches) - before} mismatches"
    )
    if args.alloc_trials > 0:
        before = len(mismatches)
        mismatches += verify_allocation(trials=args.alloc_trials, seed=args.seed)
        print(
            f"allocation parity ({args.alloc_trials} trials): "
            f"{len(mismatches) - before} mismatches"
        )

    for mismatch in mismatches:
        print(f"MISMATCH {mismatch}", file=sys.stderr)
    if mismatches:
        print(f"FAILED: {len(mismatches)} mismatches", file=sys.stderr)
        return 1
    print("OK: batch backend is bit-identical on every check")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
