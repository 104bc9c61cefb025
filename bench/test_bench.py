"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q bench
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from run import Loop  # noqa: E402
from tracer import Tracer  # noqa: E402


def all_bindings() -> dict:
    return {
        (module.__name__, attr): obj
        for module in Tracer().modules
        for attr, obj in vars(module).items()
    }


def test_tracer_restores_every_binding_even_when_the_op_raises():
    before = all_bindings()
    tracer = Tracer()
    with pytest.raises(workloads.attacks.KeyNotFoundError):
        with tracer:
            during = all_bindings()
            img = workloads.imagekit.gen_constant(7, 8, 8)
            noise = workloads.imagekit.gen_noise(1, 8, 8)
            workloads.attacks.brute_force_hill(img, noise, workloads.attacks.KeyMask.parse("000000??"))
    tracer.finish_op()
    # Imported copies are wrapped too, by the same wrapper as the original.
    assert during[("cipher_autopsy.attacks", "expand_key")] is not before[("cipher_autopsy.ecchc", "expand_key")]
    assert during[("cipher_autopsy.attacks", "expand_key")] is during[("cipher_autopsy.ecchc", "expand_key")]
    assert during[("cipher_autopsy.imagekit", "load_pgm")] is not before[("cipher_autopsy.imagekit", "load_pgm")]
    after = all_bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
    assert tracer.counts["attacks.hill_verifications"] == 256
    assert tracer.counts["attacks.brute_force_hill.candidates_tested"] == 256


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_op_gives_the_untraced_output_and_nonnegative_self_times(name, tmp_path):
    workload = workloads.WORKLOADS[name]()
    item = workload.items_for(0)[0]
    workload.prepare([item], tmp_path)
    workload.load([item], tmp_path)
    plain = workload.observe(item, workload.call(item))
    tracer = Tracer()
    with tracer:
        traced = workload.observe(item, workload.call(item))
    spans = tracer.span_self_ns()
    tracer.finish_op()

    assert traced == plain == workloads.load_goldens()[name][workload.key(item)]
    assert len(spans) > 1
    assert all(ns >= 0 for _, ns in spans)
    # Self times partition the top-level spans: nothing counted twice.
    assert sum(tracer.self_ns.values()) == tracer.top_level_ns


class BrokenReport(workloads.ReportSweep):
    def call(self, item):
        raise RuntimeError("op failed")


def test_mismatch_and_exception_count_as_failed_ops():
    goldens = workloads.load_goldens()["report-sweep"]
    good, usage_error = (0, "csv"), ("not-a-seed", "csv")
    loop = Loop(workloads.ReportSweep(), {**goldens, "snot-a-seed/csv": goldens["s0/csv"]})
    loop.record(good, *loop.timed_call(good))
    assert (loop.attempted, loop.failed) == (1, 0)
    loop.record(usage_error, *loop.timed_call(usage_error))
    assert (loop.attempted, loop.failed) == (2, 1)

    broken = Loop(BrokenReport(), goldens)
    broken.record(good, *broken.timed_call(good))
    assert (broken.attempted, broken.failed) == (1, 1)


def test_refuses_to_run_without_the_program(tmp_path):
    root = workloads.ROOT
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    shutil.copytree(root / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    result = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "report-sweep"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode != 0
    assert '"correct"' not in result.stdout
