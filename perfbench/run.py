#!/usr/bin/env python3
"""Benchmark of the rodvec CLI, run in process by one closed-loop client.

    python3 perfbench/run.py --workload integrate-log --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from its
``src/``.  Each operation is one ``rodvec.cli.main(argv)`` call with
stdout captured, started as soon as the previous one has been checked.
``--trace 0`` prints the end-to-end metrics of a timed run; ``--trace 1``
repeats one round of operations with per-layer spans and prints the layer
metrics.  The last line of stdout is the result as one JSON object.
Generated inputs, result files and trace files go to ``.perfbench_work/``.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from reference import REFERENCE_NS, reference_ns

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: Fresh interpreters whose ``import rodvec.cli`` time gives ``setup_s``.
SETUP_SAMPLES = 9

IMPORT_TIMER = """\
import sys, time
sys.pycache_prefix = {prefix!r}
sys.path.insert(0, {src!r})
t = time.perf_counter_ns()
import rodvec.cli
t = time.perf_counter_ns() - t
sys.path.insert(0, {bench!r})
from reference import reference_ns
print(t, sorted(reference_ns() for _ in range(5))[2])
"""


def measure_setup() -> tuple[float, float]:
    """Median seconds of ``import rodvec.cli`` in fresh interpreters, scaled
    to the reference speed and raw.

    Each interpreter runs the reference after the import, so the import
    finds no module of the benchmark loaded.  One discarded interpreter
    first fills the bytecode cache.
    """
    code = IMPORT_TIMER.format(prefix=str(WORK / "pycache"), src=str(SRC), bench=str(Path(__file__).resolve().parent))
    scaled, raw = [], []
    for i in range(SETUP_SAMPLES + 1):
        proc = subprocess.run(
            [sys.executable, "-E", "-s", "-c", code], capture_output=True, text=True, timeout=60, check=True
        )
        if i:
            ns, ref = (int(v) for v in proc.stdout.split())
            raw.append(ns / 1e9)
            scaled.append(ns / 1e9 * REFERENCE_NS / ref)
    return statistics.median(scaled), statistics.median(raw)


class Client:
    """Runs operations through ``rodvec.cli.main`` and checks their output.

    An output byte-identical to one already checked for the same operation
    gets that check's verdict without parsing it again.
    """

    def __init__(self) -> None:
        import rodvec.cli

        self.cli = rodvec.cli
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []  # failures other than the known fault
        self.out_bytes = 0

    def invoke(self, op) -> tuple[int | None, str, int]:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            start = time.perf_counter_ns()
            try:
                code = self.cli.main(op.argv)  # looked up per call, so a tracer sees it
            except Exception as exc:  # a crash is a failed operation, not a crashed benchmark
                code = None
                err.write(f"{type(exc).__name__}: {exc}")
            elapsed = time.perf_counter_ns() - start
        text = out.getvalue()
        self.out_bytes += len(text.encode())
        if code is None:
            text = text + "\n" + err.getvalue()
        return code, text, elapsed

    def verify(self, op, code, text, count: bool) -> str | None:
        if code == 0 and op.checked is not None and op.checked[0] == text:
            problem = op.checked[1]
        else:
            problem = op.check(code, text) if code is not None else f"raised: {text.strip()}"
            op.checked = (text, problem)
        if count:
            self.attempted += 1
            self.failed += problem is not None
        if problem is not None and not op.known_fault:
            self.wrong.append(f"{' '.join(op.argv)[:80]}...: {problem}")
        return problem

    def run_round(self, ops, count: bool, timings: Timings | None = None) -> int:
        """Run and check one round; returns the work units it completed."""
        units = 0
        for op in ops:
            code, text, ns = self.invoke(op)
            if timings is not None:
                timings.add(ns)
            self.verify(op, code, text, count)
            units += op.units
        return units


class Timings:
    """Operation times, raw and scaled to the reference speed.

    The reference runs before the first operation and after every one;
    each time is scaled by REFERENCE_NS over the slower of the two
    reference times around it.  Interference only ever adds time, so of
    the two estimates the smaller one, from the slower reference, is the
    nearer; it also keeps an invocation during which the machine sped up
    out of the tail.
    """

    def __init__(self) -> None:
        self.raw_ns: list[int] = []
        self.scaled_ns: list[float] = []
        self._before = reference_ns()

    def add(self, ns: int) -> None:
        after = reference_ns()
        self.raw_ns.append(ns)
        self.scaled_ns.append(ns * REFERENCE_NS / max(self._before, after))
        self._before = after


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed_run(client: Client, rounds, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics and raw timings: a warm-up round, a tracemalloc
    round, then whole rounds until ``seconds`` have passed."""
    client.run_round(rounds.next_round(), count=False)

    peaks = []
    for op in rounds.next_round():
        tracemalloc.start()
        code, text, _ = client.invoke(op)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        client.verify(op, code, text, count=False)

    timings = Timings()
    units = 0
    gc.collect()
    start = time.perf_counter()
    while True:
        units += client.run_round(rounds.next_round(), count=True, timings=timings)
        if time.perf_counter() - start >= seconds:
            break
    ms = sorted(ns / 1e6 for ns in timings.scaled_ns)
    raw = sorted(ns / 1e6 for ns in timings.raw_ns)
    metrics = {
        "ops_per_s": metric(units / (sum(timings.scaled_ns) / 1e9), "1/s"),
        "latency_p50_ms": metric(statistics.median(ms), "ms"),
        "latency_p95_ms": metric(statistics.quantiles(ms, n=20)[-1], "ms"),
        "peak_mem_mb": metric(statistics.median(peaks) / 1e6, "MB"),
    }
    info = {
        "operations": len(ms),
        "raw_ops_per_s": units / (sum(timings.raw_ns) / 1e9),
        "raw_latency_p50_ms": statistics.median(raw),
        "raw_latency_p95_ms": statistics.quantiles(raw, n=20)[-1],
    }
    return metrics, info


def traced_run(client: Client, rounds, seconds: float, trace_file: Path) -> dict:
    """Per-layer metrics, per operation: traced passes over one round, each
    after an untraced pass of the same round, until ``seconds`` have passed."""
    from tracer import LAYERS, TYPED_LAYERS, Tracer

    ops = rounds.next_round()
    client.run_round(ops, count=False)  # warm-up
    tracer = Tracer()
    plain, traced = Timings(), Timings()
    out_bytes = 0
    passes = 0
    start = time.perf_counter()
    while True:
        client.run_round(ops, count=True, timings=plain)
        before = client.out_bytes
        tracer.install()
        try:
            for i, op in enumerate(ops):
                tracer.op = i
                tracer.record = passes == 0 and i == 0
                snaps = tracer.counts["cayley.halfturn_snaps"]
                code, text, ns = client.invoke(op)
                traced.add(ns)
                snaps = tracer.counts["cayley.halfturn_snaps"] - snaps
                if client.verify(op, code, text, count=True) is not None and not snaps:
                    client.wrong.append(f"operation {i} failed without a half-turn snap")
        finally:
            tracer.uninstall()
            tracer.record = False
        out_bytes += client.out_bytes - before
        passes += 1
        if time.perf_counter() - start >= seconds:
            break

    n = passes * len(ops)
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = metric(tracer.self_ns[layer] / 1e6 / n, "ms")
        out[f"{layer}.calls"] = metric(tracer.calls[layer] / n, "count")
    out["cli.out_kb"] = metric(out_bytes / 1024 / n, "KiB")
    for name in ("core.validations", "core.so3_checks", "composition.halfturn_results",
                 "composition.matrix_route", "cayley.halfturn_snaps"):
        out[name] = metric(tracer.counts[name] / n, "count")
    kernel_ns = tracer.self_ns["kernels"]
    out["kernels.ns_per_call"] = metric(kernel_ns / max(tracer.calls["kernels"], 1), "ns")
    typed_ns = sum(tracer.self_ns[layer] for layer in TYPED_LAYERS)
    out["kernels.wrapper_ratio"] = metric(typed_ns / kernel_ns if kernel_ns else 0.0, "ratio")
    out["trace.overhead_ratio"] = metric(sum(traced.scaled_ns) / sum(plain.scaled_ns), "ratio")

    trace_file.write_text(
        json.dumps(
            {
                "layers": {k: v["value"] for k, v in out.items()},
                "span_fields": ["id", "parent", "op", "layer", "name", "start_ns", "end_ns"],
                "spans_of_operation_0": tracer.spans,
            }
        )
        + "\n"
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rodvec" / "cli.py").is_file():
        print(f"error: no rodvec sources at {SRC}; run from the root of a rodvec checkout", file=sys.stderr)
        return 2
    sys.pycache_prefix = str(WORK / "pycache")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}", file=sys.stderr)
        return 2

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    inputs = WORK / f"inputs-{args.workload}-{args.seed}-{os.getpid()}"
    inputs.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        setup_s, raw_setup_s = (None, None) if args.trace else measure_setup()
        rounds = workloads.rounds(args.workload, args.seed, inputs)
        client = Client()
        import rodvec

        info = {
            "workload": args.workload,
            "seed": args.seed,
            "backend": rodvec.backend_name(),
            "python": platform.python_version(),
        }
        if args.trace:
            metrics = traced_run(client, rounds, args.seconds, results / f"{stem}-spans.json")
        else:
            metrics, raw = timed_run(client, rounds, args.seconds)
            metrics["setup_s"] = metric(setup_s, "s")
            info.update(raw, raw_setup_s=raw_setup_s)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    for problem in client.wrong[:10]:
        print(f"wrong output: {problem}", file=sys.stderr)
    result = {
        "correct": not client.wrong,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": metrics,
    }
    (results / f"{stem}.json").write_text(json.dumps({**info, **result}, indent=1) + "\n")
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
