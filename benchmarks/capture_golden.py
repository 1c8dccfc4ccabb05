#!/usr/bin/env python3
"""Capture golden references for every pool item of every workload.

    python3 benchmarks/capture_golden.py [--out benchmarks/golden.json]

Run it only on a commit whose outputs are trusted (the references in the
repository were captured at the seed commit).  It takes about four minutes
on a 2-core machine: each of the six threshold brackets alone makes ten
200-time-unit probes.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from run import BENCH_DIR, SRC, WORK


def capture(workload, items) -> dict:
    from workloads import item_key

    refs = {}
    for item in items:
        t0 = time.perf_counter()
        (result,) = workload.run_pass([item], WORK)
        if isinstance(result, Exception):
            raise result
        rec = workload.record(result)
        refs[item_key(item)] = {k: v for k, v in rec.items() if not k.startswith("_")}
        print(f"{workload.name} {item_key(item)}: {time.perf_counter() - t0:.2f} s", flush=True)
    return refs


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", type=Path, default=BENCH_DIR / "golden.json")
    args = p.parse_args()
    sys.path.insert(0, str(SRC))
    import workloads

    WORK.mkdir(exist_ok=True)
    workloads.warm_up()
    golden = {}
    for name, workload in workloads.WORKLOADS.items():
        items = {workloads.item_key(i): i for i in workload.pool() + workloads.GOLDEN_EXTRA.get(name, [])}
        golden[name] = capture(workload, list(items.values()))
    args.out.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
