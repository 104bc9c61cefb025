#!/usr/bin/env python3
"""Benchmark entry point: one workload, one client, a closed loop.

    python3 bench/run.py --workload {bulk-cipher,key-search,report-sweep}
                         [--seed N] [--seconds S] [--trace 0|1]

--seconds may only restate ``run_seconds`` of BENCHMARK.json: every run of
every commit measures for the same time.

Set-up runs SETUP_REPEATS times; each time a fresh interpreter imports the
program and generates the inputs into a scratch directory inside the
checkout, and this process loads them and the goldens.  One set-up's time is
the import and generation time that interpreter reports plus the load time;
``setup_s`` is the median.  Then ops run back to back, in whole cycles of the
run's inputs, for at most ``run_seconds``, each checked against goldens.json.

With --trace 0 the last stdout line carries the end-to-end metrics.  The
latency and throughput metrics rest on each input's best time: the fastest
of its repetitions in the run.  The host's speed drifts in phases of seconds
to minutes, and the best time is the figure those phases move least.  With
--trace 1 every op runs twice, untraced and then traced; both outputs must
match the golden, and the per-layer metrics come from the traced runs.  Per
op work counts repeat exactly for a seed.  The line before the result holds
run metadata.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import workloads
from tracer import Tracer

SETUP_REPEATS = 7


def run_setup(workload, seed: int, items: list, workdir: str) -> tuple[list[float], dict]:
    """Set up SETUP_REPEATS times; returns the set-up times and the goldens."""
    times = []
    for _ in range(SETUP_REPEATS):
        prepare = subprocess.run(
            [sys.executable, workloads.__file__, "prepare", workload.name, str(seed), workdir],
            check=True,
            stdout=subprocess.PIPE,
            text=True,
        )
        start = time.perf_counter()
        workload.load(items, Path(workdir))
        goldens = workloads.load_goldens()[workload.name]
        times.append(float(prepare.stdout) + time.perf_counter() - start)
    return times, goldens


class Loop:
    """Counts attempted and failed ops; a failure is an unexpected
    exception or an output that differs from its golden."""

    def __init__(self, workload, goldens: dict):
        self.workload = workload
        self.goldens = goldens
        self.attempted = 0
        self.failed = 0

    def timed_call(self, item):
        """Run one op; returns (seconds, observed output or None)."""
        start = time.perf_counter()
        try:
            raw = self.workload.call(item)
        except Exception:
            elapsed = time.perf_counter() - start
            traceback.print_exc(file=sys.stderr)
            return elapsed, None
        elapsed = time.perf_counter() - start
        return elapsed, self.workload.observe(item, raw)

    def record(self, item, elapsed, *outputs) -> None:
        self.attempted += 1
        expected = self.goldens[self.workload.key(item)]
        if any(out != expected for out in outputs):
            self.failed += 1
            print(f"mismatch on {self.workload.key(item)}", file=sys.stderr)


def cycles(items: list, seconds: float):
    """Yield the run's inputs in whole cycles until the next cycle, if it
    took as long as the last one, would end past ``seconds``."""
    start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        yield from enumerate(items)
        now = time.perf_counter()
        if now - start + (now - cycle_start) > seconds:
            return


def untraced_run(loop: Loop, items: list, seconds: float) -> dict:
    best = [float("inf")] * len(items)
    for i, item in cycles(items, seconds):
        elapsed, out = loop.timed_call(item)
        loop.record(item, elapsed, out)
        best[i] = min(best[i], elapsed)
    ms = sorted(s * 1000.0 for s in best)
    return {
        "best_latency_ms.p50": statistics.median(ms),
        "best_latency_ms.p90": statistics.quantiles(ms, n=10, method="inclusive")[8],
        "best_throughput_ops_s": len(ms) / sum(ms) * 1000.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_run(loop: Loop, items: list, seconds: float) -> dict:
    tracer = Tracer()
    untraced_s = traced_s = 0.0
    for _, item in cycles(items, seconds):
        plain_s, plain_out = loop.timed_call(item)
        with tracer:
            elapsed, traced_out = loop.timed_call(item)
        tracer.finish_op()
        loop.record(item, elapsed, plain_out, traced_out)
        untraced_s += plain_s
        traced_s += elapsed
    return layer_metrics(tracer, traced_s, untraced_s)


def layer_metrics(tracer: Tracer, traced_s: float, untraced_s: float) -> dict:
    """Per-op values of every per-layer metric the tracer can name."""
    ops = tracer.ops
    values = {}
    for name in tracer.names:
        values[f"{name}.ms"] = tracer.self_ns[name] / 1e6 / ops
        values[f"{name}.calls"] = tracer.calls[name] / ops
    for module in {n.split(".", 1)[0] for n in tracer.names}:
        values[f"{module}.self_ms"] = tracer.layer_self_ns[module] / 1e6 / ops
    values["cli.main.self_ms"] = values.pop("cli.self_ms")
    values["imagekit.gen.ms"] = sum(v for k, v in values.items() if k.startswith("imagekit.gen_") and k.endswith(".ms"))
    for count in ("imagekit.pgm_bytes", "ecchc.blocks", "dwc.blocks", "metrics.pixels",
                  "attacks.brute_force_hill.candidates_tested", "attacks.hill_verifications",
                  "attacks.kpa_samples", "attacks.dwc_keys_scored"):
        values[count] = tracer.counts[count] / ops
    verifications = tracer.counts["attacks.hill_verifications"]
    values["attacks.hill_verify_hit_ratio"] = (
        tracer.counts["attacks.hill_keys_matched"] / verifications if verifications else 0.0
    )
    values["trace.overhead_ratio"] = traced_s / untraced_s
    values["trace.unattributed_ms"] = (traced_s * 1e9 - tracer.top_level_ns) / 1e6 / ops
    return values


def metadata(args, loop: Loop, items: list) -> dict:
    """Run metadata printed with the results."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    src_lines = sum(
        len(p.read_text().splitlines()) for p in (workloads.SRC / "cipher_autopsy").glob("*.py")
    )
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": loop.attempted,
        "items_per_cycle": len(items),
        "first_items": [loop.workload.key(i) for i in items[:6]],
        "setup_repeats": SETUP_REPEATS,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": workloads.np.__version__,
        "src_lines": src_lines,
    }


def main(argv=None) -> int:
    benchmark = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds != benchmark["run_seconds"]:
        parser.error(f"--seconds must equal run_seconds of BENCHMARK.json ({benchmark['run_seconds']})")

    os.environ.pop(workloads.FIXTURES_ENV, None)
    workload = workloads.WORKLOADS[args.workload]()
    items = workload.items_for(args.seed)
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=workloads.ROOT) as workdir:
        setup_times, goldens = run_setup(workload, args.seed, items, workdir)
        loop = Loop(workload, goldens)
        if args.trace:
            values = traced_run(loop, items, args.seconds)
            wanted = benchmark["per_layer"]
        else:
            values = untraced_run(loop, items, args.seconds)
            values["setup_s"] = statistics.median(setup_times)
            wanted = benchmark["end_to_end"]

    metrics = {}
    for metric in wanted:
        if metric["name"] not in values:
            print(f"{metric['name']}: not measurable in this program, reported as 0", file=sys.stderr)
        metrics[metric["name"]] = {"value": values.get(metric["name"], 0.0), "unit": metric["unit"]}
    meta = metadata(args, loop, items)
    if not args.trace:
        # Printed but not an end-to-end metric: too few inputs sit in the
        # tail for it to hold a bound through the host's slow phases.
        meta["best_latency_ms.p90"] = values["best_latency_ms.p90"]
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
