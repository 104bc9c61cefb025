#!/usr/bin/env python3
"""Record goldens.json: the expected output of every pool item of every
workload, as the program in this checkout produces it.

    python3 bench/record_goldens.py

Run it only at a commit whose outputs are known good: the benchmark counts
every later difference as a failed op.  Before writing, each output is
checked against what the attack or round trip must give (the true key, an
identical decryption, a zero exit code).
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

import workloads


def check_bulk(item, out, workload):
    assert out["exit_codes"] == [0, 0, 0], out
    assert out["roundtrip_identical"], item


def check_key_search(g, out, workload):
    gallery = workload.galleries[g]
    for name in ("hill_2^16", "hill_2^24", "kpa"):
        assert out[name]["recovered_key"] == gallery.key_hex, (g, name, out[name])
    assert out["hill_checkerboard"]["status"] == "ambiguous", (g, out)
    assert out["hill_no_match"] == {"error": "KeyNotFoundError", "candidates_tested": 256}, (g, out)
    assert out["brute_dwc_top_key"] == gallery.dwc_key, (g, out)


def check_report(item, out, workload):
    assert out["exit_code"] == 0, (item, out)


CHECKS = {"bulk-cipher": check_bulk, "key-search": check_key_search, "report-sweep": check_report}
# Items prepared at once; bounds the memory of one batch.
BATCH = {"bulk-cipher": 6, "key-search": 32, "report-sweep": 128}


def record(name: str) -> dict:
    workload = workloads.WORKLOADS[name]()
    items = workload.all_items()
    goldens = {}
    for start in range(0, len(items), BATCH[name]):
        batch = items[start : start + BATCH[name]]
        with tempfile.TemporaryDirectory(prefix=".bench-", dir=workloads.ROOT) as workdir:
            workload.prepare(batch, Path(workdir))
            workload.load(batch, Path(workdir))
            for item in batch:
                out = workload.observe(item, workload.call(item))
                CHECKS[name](item, out, workload)
                goldens[workload.key(item)] = out
        print(f"{name}: {len(goldens)}/{len(items)}", file=sys.stderr)
    return goldens


def main() -> int:
    os.environ.pop(workloads.FIXTURES_ENV, None)
    goldens = {name: record(name) for name in sorted(workloads.WORKLOADS)}
    workloads.GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
