"""Layer-attributed benchmark of the scheduling pipeline and the service.

Run from the root of a checkout::

    python3 perfbench/run.py --workload distinct_layered --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` wraps spans around every call into a layer and reports the
per-layer metrics, the share of wall time no layer explains, and the
tracing overhead.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
print every metric with its unit and sample count, the host fingerprint,
and where the full report went.  The exit code is 1 when any output of
the library was wrong, 2 when there is no library to run.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any  # noqa: E402

from hostspeed import NOMINAL_S, probe  # noqa: E402
from spans import NULL_TRACER, Tracer, clock  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Reports and temporary service journals; listed in ``.gitignore``.
OUT = ROOT / ".perfbench"

#: Set-up (input generation + one warm-up) repeats; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Imports are timed this many times, the first in this process and the
#: others in fresh interpreters; ``setup_s`` counts their median.
IMPORT_REPEATS = 3
#: A traced run fails when more than this share of wall time is in no layer.
CLOSURE_PCT = 5.0
#: Units whose spans are written in full to the report.
SPAN_UNITS_WRITTEN = 5

#: Metric names and units, as declared in ``BENCHMARK.json``.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


class TooFewSamples(Exception):
    """A percentile was asked of fewer samples than it needs."""


def percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile; a tail (``q > 50``) needs ten samples beyond it."""
    beyond = len(values) * (100 - q) / 100
    if q > 50 and beyond < 10:
        raise TooFewSamples(f"p{q} needs 10 samples beyond it, {len(values)} give {beyond:g}")
    if q == 50:
        return float(statistics.median(values))
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1])


def _import_s(workload: str) -> float:
    """Import time of the benchmark and the library in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--imports-only"],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(done.stdout.strip().splitlines()[-1])


def host_fingerprint(seed: int) -> dict[str, Any]:
    import numpy

    from repro.runtime.manifest import current_commit

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        src.update(str(path.relative_to(SRC)).encode())
        src.update(path.read_bytes())
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        # A checkout without .git has no commit; asking git would search
        # the directories above it.
        "commit": current_commit(cwd=ROOT) if (ROOT / ".git").exists() else "unknown",
        "src_sha256": src.hexdigest()[:16],
        "seed": seed,
    }


def _measure(workload: Any, seconds: float, tracer: Tracer, untraced: Tracer | None = None):
    """Run units for ``seconds``, and at least one whole cycle.

    Returns the ``(wall seconds, Outcome)`` of every unit run with
    ``tracer``.  When ``untraced`` is given, also those of the same units
    run again with it (first on every other unit), for the tracing
    overhead.  Otherwise also the host-speed scale of every unit: the probe
    runs between every two units, and a unit's scale is
    ``hostspeed.NOMINAL_S`` over the mean of the probes on either side of it.
    """
    from workloads import Outcome

    units: list[tuple[float, Any]] = []
    plain: list[tuple[float, Any]] = []
    scales: list[float] = []
    before = probe() if untraced is None else 0.0
    deadline = clock() + seconds
    index = 0
    while index < workload.cycle or clock() < deadline:
        order = (False, True) if index % 2 == 0 else (True, False)
        for traced in order if untraced is not None else (True,):
            out = Outcome()
            if traced:
                t0 = clock()
                with tracer.unit():
                    workload.run(index, tracer, out)
                units.append((clock() - t0, out))
            else:
                t0 = clock()
                workload.run(index, untraced, out)
                plain.append((clock() - t0, out))
        if untraced is None:
            after = probe()
            scales.append(NOMINAL_S / ((before + after) / 2))
            before = after
        index += 1
    return units, plain, scales


def end_to_end(workload: Any, units: list[tuple[float, Any]], scales: list[float], setup_s: float):
    """The end-to-end metrics (value, samples) and the workload's extras.

    Every timing is first scaled to the host speed measured around its
    unit (see ``hostspeed``).  Every position of the cycle holds the same
    input in every cycle, so a run times each input several times, and
    the timings take each input's median scaled time.  Throughputs divide
    one cycle's work by the sum of its positions' median times;
    ``latency_ms_p50`` is the median, over inputs, of their median times.
    The tails in the extras use every scaled sample.
    """
    cycle = workload.cycle
    whole = units[: len(units) // cycle * cycle]
    cycles = len(whole) // cycle
    service = workload.name == "service_two_tenants"

    def typical(samples) -> list[float]:
        """The median time of every input, from ``(input key, seconds)`` pairs."""
        by_input: dict[Any, list[float]] = {}
        for key, seconds in samples:
            by_input.setdefault(key, []).append(seconds)
        return [statistics.median(v) for v in by_input.values()]

    positions = [
        (i % cycle, wall * scale, out, scale)
        for i, ((wall, out), scale) in enumerate(zip(whole, scales[: len(whole)], strict=True))
    ]
    tasks = sum(out.tasks for _, out in whole) / cycles
    decisions = sum(out.decisions for _, out in whole) / cycles
    cycle_s = sum(typical((pos, wall) for pos, wall, _, _ in positions))
    sched_s = sum(typical((pos, out.sched_s * scale) for pos, _, out, scale in positions))
    scaled = list(zip(units, scales, strict=True))
    if service:
        latency = typical(
            ((pos, request), ms * scale) for pos, _, out, scale in positions
            for request, ms in out.requests_ms.items()
        )
        every = [ms * scale for (_, out), scale in scaled for ms in out.requests_ms.values()]
    else:
        latency = [s * 1e3 for s in typical((pos, wall) for pos, wall, _, _ in positions)]
        every = [wall * scale * 1e3 for (wall, _), scale in scaled]
    first = [r for _, out in whole[:cycle] for r in out.ratios]
    metrics = {
        "setup_s": (setup_s, SETUP_REPEATS),
        "tasks_per_s": (tasks / cycle_s, len(whole)),
        "latency_ms_p50": (percentile(latency, 50), len(every)),
        "ratio_mean": (statistics.fmean(first), len(first)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }
    # Where the scheduler's part of a unit ends depends on where a full
    # garbage collection lands, so this split is printed but not gated.
    extras: dict[str, tuple[float | str, str, int]] = {
        "decisions_per_s": (decisions / sched_s, "1/s", len(whole)),
        "host_scale_p50": (statistics.median(scales), "ratio", len(scales)),
    }

    def tail(name: str, values: list[float], q: float, unit: str) -> None:
        try:
            extras[name] = (percentile(values, q), unit, len(values))
        except TooFewSamples as exc:
            extras[name] = (f"error: {exc}", unit, len(values))

    if service:
        tail("submit_ms_p99", every, 99, "ms")
        sessions = [ms * scale for (_, out), scale in scaled for ms in out.sessions_ms]
        tail("session_ms_p50", sessions, 50, "ms")
        tail("session_ms_p90", sessions, 90, "ms")
        rates = [r / scale for (_, out), scale in scaled for r in out.recovery_rates]
        extras["recovery_records_per_s"] = (statistics.median(rates), "1/s", len(rates))
    elif workload.instances_per_unit == 1:
        tail("instance_ms_p90", every, 90, "ms")
    return metrics, extras


def per_layer(workload: Any, tracer: Any, units, plain) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of a traced run, and the accounting failures.

    Layer seconds are reported per instance (per service iteration), and
    the journal read and recovery apply per recovery.  Three layers are
    split by difference: invariant checking (checked run minus the shadow
    unchecked run), transport (live loop minus the in-process replay of
    its requests), and recovery apply (recovery minus the journal read).
    """
    counters: dict[str, float] = {}
    for _, out in units:
        for name, value in out.counters.items():
            counters[name] = counters.get(name, 0.0) + value
    c = lambda name: counters.get(name, 0.0)  # noqa: E731
    self_s = tracer.self_times()
    s = lambda name: self_s.get(name, 0.0)  # noqa: E731
    recovery_rates = [r for _, out in units for r in out.recovery_rates]
    submits = [ms for _, out in units for ms in out.requests_ms.values()]

    engine = self_s.get("engine.unchecked", s("engine"))
    inproc = s("protocol") + s("core.submit") + s("pool.tick") + s("journal.append")
    read = s("journal.read") * len(recovery_rates) / max(len(units), 1)
    seconds = {
        "graph.build_s": s("graph"),
        "alloc.s": s("alloc"),
        "engine.s": engine,
        "invariants.s": s("engine") - engine,
        "faults.trace_s": s("faults"),
        "validate.s": s("validate"),
        "bound.s": s("bound"),
        "protocol.s": s("protocol"),
        "core.submit_s": s("core.submit"),
        "core.digest_s": s("core.digest"),
        "pool.tick_s": s("pool.tick"),
        "journal.append_s": s("journal.append"),
        "journal.read_s": read,
        "recovery.apply_s": s("recovery") - read,
        "transport": s("service.live") - inproc + s("transport"),
    }
    instances = len(units) * workload.instances_per_unit
    m = dict.fromkeys(PER_LAYER, 0.0)
    for name, value in seconds.items():
        if name in m:
            per_recovery = name in ("journal.read_s", "recovery.apply_s")
            m[name] = value / (len(recovery_rates) if per_recovery and value else instances)
    for name in ("graph.tasks", "graph.edges", "alloc.calls", "alloc.misses",
                 "engine.events", "engine.scan_steps", "engine.scans_skipped",
                 "faults.killed_attempts", "core.retries", "journal.records",
                 "journal.bytes", "pool.decisions", "protocol.bytes"):
        m[name] = c(name) / instances
    if c("alloc.calls"):
        m["alloc.hit_rate"] = c("alloc.hits") / c("alloc.calls")
        m["alloc.us_per_call"] = seconds["alloc.s"] / c("alloc.calls") * 1e6
    if c("alloc.misses"):
        m["alloc.us_per_miss"] = seconds["alloc.s"] / c("alloc.misses") * 1e6
    if c("engine.scan_steps"):
        m["engine.starts_per_scan_step"] = c("engine.starts") / c("engine.scan_steps")
    if c("faults.area"):
        m["faults.wasted_area_fraction"] = c("faults.wasted_area") / c("faults.area")
    if c("service.ops"):
        m["transport.ms_per_op"] = seconds["transport"] / c("service.ops") * 1e3
    if recovery_rates:
        m["recovery.records_per_s"] = statistics.median(recovery_rates)
    if submits:
        m["service.submit_ms_p99"] = percentile(submits, 99)

    wall = tracer.wall()
    m["trace.unattributed_pct"] = (wall - sum(seconds.values())) / wall * 100
    m["trace.overhead_pct"] = (wall / sum(w for w, _ in plain) - 1) * 100
    problems = []
    if abs(m["trace.unattributed_pct"]) > CLOSURE_PCT:
        problems.append(
            f"layer accounting does not close: {m['trace.unattributed_pct']:.2f}% of "
            f"{wall:.3f} s traced wall time is in no layer (bound {CLOSURE_PCT}%)"
        )
    return m, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Print the import time and exit; used to time the imports again.
    parser.add_argument("--imports-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library at {SRC / 'repro'}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, Outcome

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    import_s = clock() - _T0
    if args.imports_only:
        print(import_s)
        return 0
    imports = [import_s] + [_import_s(args.workload) for _ in range(IMPORT_REPEATS - 1)]

    workload = WORKLOADS[args.workload](args.seed)
    warm = Outcome()
    samples = []
    probes = [probe()]
    try:
        for _ in range(SETUP_REPEATS):
            t0 = clock()
            workload.setup()
            workload.warm_up(warm)
            samples.append(clock() - t0)
            probes.append(probe())
        # Each set-up repeat is scaled to the host speed like the units (see
        # hostspeed).  The imports are not: they mostly load numpy's and
        # scipy's shared libraries, whose time hardly moved on a busy host
        # while the probe took twice as long.
        scale = [NOMINAL_S / ((a + b) / 2) for a, b in zip(probes[:-1], probes[1:], strict=True)]
        setup_s = statistics.median(imports) + statistics.median(
            s * k for s, k in zip(samples, scale, strict=True)
        )
        if args.trace:
            tracer = Tracer()
            units, plain, scales = _measure(workload, args.seconds, tracer, NULL_TRACER)
        else:
            tracer = NULL_TRACER
            units, plain, scales = _measure(workload, args.seconds, tracer)
    finally:
        workload.close()

    outcomes = [warm] + [out for _, out in units + plain]
    attempted = sum(out.checks for out in outcomes)
    failures = [msg for out in outcomes for msg in out.failures]
    problems: list[str] = []
    try:
        if args.trace:
            values, problems = per_layer(workload, tracer, units, plain)
            metrics = {name: (values[name], len(units)) for name in PER_LAYER}
            units_of = PER_LAYER
            extras = {}
        else:
            metrics, extras = end_to_end(workload, units, scales, setup_s)
            units_of = END_TO_END
    except TooFewSamples as exc:
        problems.append(str(exc))
        metrics, extras, units_of = {}, {}, {}
    if metrics and set(metrics) != set(units_of):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {set(metrics) ^ set(units_of)}")
    failed = len(failures) + len(problems)
    attempted += len(problems)

    host = host_fingerprint(args.seed)
    journals = getattr(workload, "workdir", None)
    report = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host,
        "metrics": {
            k: {"value": v, "unit": units_of[k], "samples": n} for k, (v, n) in metrics.items()
        },
        "extras": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in extras.items()},
        "attempted": attempted,
        "failures": failures + problems,
        "journals": None if journals is None else str(journals.relative_to(ROOT)),
    }
    if args.trace:
        report["spans"] = [s for s in tracer.records() if s["unit"] < SPAN_UNITS_WRITTEN]
        report["spans_total"] = len(tracer.spans)
    report_path = OUT / "reports" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.parent.mkdir(parents=True, exist_ok=True)
    report_path.write_text(json.dumps(report, indent=1) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("host: " + " ".join(f"{k}={v}" for k, v in host.items()))
    print(f"report: {report_path.relative_to(ROOT)}  journals: {report['journals']}")
    print(f"{'metric':32} {'value':>14} {'unit':>6} {'samples':>8}")
    for name, (value, n) in metrics.items():
        print(f"{name:32} {value:14.6g} {units_of[name]:>6} {n:8d}")
    for name, (value, unit, n) in extras.items():
        shown = f"{value:14.6g}" if isinstance(value, float) else value
        print(f"{name:32} {shown:>14} {unit:>6} {n:8d}")
    print(f"{'failed_fraction':32} {failed / max(attempted, 1):14.6g} {'ratio':>6} "
          f"{attempted:8d}")
    for message in (failures + problems)[:10]:
        print(f"FAILED {message}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units_of[k]} for k, (v, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
