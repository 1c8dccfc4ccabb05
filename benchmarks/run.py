#!/usr/bin/env python3
"""Run one fishbone benchmark workload, check its outputs, print its metrics.

    python3 benchmarks/run.py --workload threshold --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; fishbone is imported from ``src/``.
The load model is a closed loop in one process and one thread: passes of the
workload run back to back, each after the previous one returned.

``--trace 0`` times passes with nothing wrapped and reports the end-to-end
metrics: ``wall_s`` (median pass time), ``setup_s`` (median time for a fresh
interpreter to import fishbone and make the warm-up call), both in seconds
at a fixed reference host speed (see ``HostSpeed``), and ``peak_rss_mb``
(peak RSS of this fresh process after its first pass).
``--trace 1`` alternates untraced and traced passes of the same inputs,
then runs the layer ablations, and reports the per-layer metrics.  Every pass's outputs
are compared with ``golden.json``; the last line of standard output is one
JSON object, and the exit code is 1 when any item failed or mismatched.
Details (machine facts, every pass, and in traced runs the spans) are
written under ``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

#: Fresh interpreters started per run to time set-up; the median is reported.
SETUP_PROBES = 5

#: Seconds between host-speed samples inside a timed pass.
SPEED_INTERVAL = 0.05
#: Iterations of the host-speed sample loop (about 0.3 ms, 0.6% of a pass).
SPEED_ITERATIONS = 1500
#: Seconds of one host-speed sample at the reference speed: the fast level
#: of a 2-vCPU Xeon VM under Python 3.11.  ``wall_s`` is given at that speed.
REFERENCE_SAMPLE_S = 3.0e-4

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER_UNITS = {
    "model.accel.ns_per_call": "ns",
    "model.rhs_m.calls": "count",
    "model.rhs_m.us_per_call": "us",
    "model.energy.calls": "count",
    "model.energy.self_s": "s",
    "integrator.fixed1m.ns_per_step": "ns",
    "integrator.fixedm.us_per_step": "us",
    "integrator.record.s": "s",
    "integrator.samples.recorded": "count",
    "integrator.samples.used_ratio": "ratio",
    "integrator.simulate.calls": "count",
    "integrator.simulate.self_s": "s",
    "integrator.fixed.steps": "count",
    "integrator.simulate.peak_alloc_mb": "MB",
    "integrator.adaptive.advance_calls": "count",
    "integrator.adaptive.steps": "count",
    "integrator.adaptive.rhs_evals": "count",
    "integrator.adaptive.rhs_per_step": "ratio",
    "integrator.adaptive.self_s": "s",
    "integrator.csv.write_s": "s",
    "integrator.csv.bytes": "bytes",
    "hill.classify.calls": "count",
    "hill.classify.s_per_call": "s",
    "hill.monodromy.s_per_call": "s",
    "hill.forced.calls": "count",
    "hill.forced.s_per_call": "s",
    "hill.forced.periods": "count",
    "hill.forced.incl_share": "ratio",
    "hill.period.us_per_call": "us",
    "threshold.probes": "count",
    "threshold.probe_s": "s",
    "threshold.self_s": "s",
    "cli.main.calls": "count",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_s": "s",
    "share.model": "ratio",
    "share.integrator": "ratio",
    "share.hill": "ratio",
    "share.threshold": "ratio",
    "share.cli": "ratio",
    "share.unattributed": "ratio",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def machine_facts() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def _speed_step(x: float, y: float) -> tuple[float, float]:
    return y, (x * 1.0000001 + y * 0.5) % 1.3


def speed_sample() -> float:
    """Seconds of a fixed pure-Python loop that calls no fishbone code.

    The host's speed changes by up to 2x over stretches of seconds to
    minutes; the loop slows down with it, and a change to fishbone does not
    touch it, so times divided by it are steady where raw times are not.
    """
    t0 = time.perf_counter()
    x, y = 0.1, 0.2
    for _ in range(SPEED_ITERATIONS):
        x, y = _speed_step(x, y)
    return time.perf_counter() - t0


class HostSpeed:
    """Takes a ``speed_sample`` every SPEED_INTERVAL seconds from SIGALRM
    while the block runs (at least one, after it), in the same thread."""

    def __enter__(self):
        self.samples: list[float] = []
        signal.signal(signal.SIGALRM, lambda *_: self.samples.append(speed_sample()))
        signal.setitimer(signal.ITIMER_REAL, SPEED_INTERVAL, SPEED_INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.samples:
            self.samples.append(speed_sample())

    def reference_seconds(self, seconds: float) -> float:
        """seconds, net of the samples taken in them, at the reference speed."""
        net = seconds - sum(self.samples)
        return net / statistics.mean(self.samples) * REFERENCE_SAMPLE_S


def setup_seconds() -> float:
    """Fresh interpreter to fishbone imported plus the warm-up call."""
    code = (
        f"import sys; sys.path[:0] = {[str(SRC), str(BENCH_DIR)]!r}; "
        "import workloads; workloads.warm_up()"
    )
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, stdin=subprocess.DEVNULL)
    return time.perf_counter() - t0


class Run:
    """Passes of one workload, each checked against its golden references."""

    def __init__(self, workload, golden: dict, seed: int, nproc: int):
        self.workload = workload
        self.golden = golden.get(workload.name, {})
        self.items_of = workload.draw(seed)
        self.nproc = nproc
        self.passes: list[dict] = []
        self.attempted = 0
        self.failed = 0
        WORK.mkdir(exist_ok=True)

    def run_pass(self, p: int, tracer=None, speed: HostSpeed | None = None) -> tuple[float, list]:
        from workloads import item_key

        items = self.items_of(p)
        load_before = os.getloadavg()[0]
        around = tracer.span("bench.pass") if tracer is not None else speed or contextlib.nullcontext()
        t0 = time.perf_counter()
        with around:
            results = self.workload.run_pass(items, WORK)
        seconds = time.perf_counter() - t0
        load_after = os.getloadavg()[0]
        records = []
        for item, result in zip(items, results):
            key = item_key(item)
            self.attempted += 1
            if isinstance(result, Exception):
                self.failed += 1
                print(f"FAIL {key}: raised", file=sys.stderr)
                traceback.print_exception(result, file=sys.stderr)
                continue
            rec = self.workload.record(result)
            records.append(rec)
            ref = self.golden.get(key)
            if ref is None or not self.workload.same(rec, ref):
                self.failed += 1
                print(f"FAIL {key}: output {rec!r} != golden {ref!r}", file=sys.stderr)
        loaded = max(load_before, load_after) > self.nproc
        self.passes.append({
            "pass": p, "traced": tracer is not None, "seconds": seconds, "items": [item_key(i) for i in items],
            "loadavg_before": load_before, "loadavg_after": load_after, "loaded": loaded,
        })
        note = ""
        if speed is not None:
            ref = speed.reference_seconds(seconds)
            self.passes[-1].update(speed_samples=len(speed.samples),
                                   speed_sample_s=statistics.mean(speed.samples), reference_s=ref)
            note = f" ({ref:.4f} s at reference speed, {len(speed.samples)} speed samples)"
        print(f"# pass {p}{' traced' if tracer else ''}: {seconds:.4f} s{note}, {len(items)} items, "
              f"load {load_before:.2f} -> {load_after:.2f}{'  LOADED (load > nproc)' if loaded else ''}")
        return seconds, records


def timed_run(run: Run, seconds: float) -> dict[str, float]:
    """Set-up probes, then passes back to back while the next one still
    fits in ``seconds``, counted from the first probe."""
    start = time.perf_counter()
    setups, setups_ref = [], []
    for _ in range(SETUP_PROBES):
        before = statistics.median(speed_sample() for _ in range(3))
        setups.append(setup_seconds())
        after = statistics.median(speed_sample() for _ in range(3))
        setups_ref.append(setups[-1] / ((before + after) / 2) * REFERENCE_SAMPLE_S)
    print(f"# set-up: median {statistics.median(setups):.4f} s, "
          f"at reference speed {statistics.median(setups_ref):.4f} s")
    import workloads

    workloads.warm_up()
    speed = HostSpeed()
    times, reference = [], []
    while True:
        dt, _ = run.run_pass(len(times), speed=speed)
        if not times:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        times.append(dt)
        reference.append(run.passes[-1]["reference_s"])
        if time.perf_counter() - start + statistics.median(times) > seconds:
            break
    print(f"# {len(times)} passes: fastest {min(times):.4f} s, median {statistics.median(times):.4f} s, "
          f"median at reference speed {statistics.median(reference):.4f} s")
    return {
        "wall_s": statistics.median(reference),
        "setup_s": statistics.median(setups_ref),
        "peak_rss_mb": peak_rss_mb,
    }


def peak_alloc_mb(workload, item: dict) -> float:
    """tracemalloc peak over one short item; tracemalloc slows the scalar
    kernels about twentyfold, so the workload's own items are too long."""
    tracemalloc.start()
    try:
        (result,) = workload.run_pass([item], WORK)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    if isinstance(result, Exception):
        raise result
    workload.record(result)  # deletes the CSV of a cli item
    return peak / 2**20


def traced_run(run: Run, seconds: float, spans_path: Path) -> dict[str, float]:
    """The tracemalloc peak of one short item and the ablations, then
    untraced and traced passes of the same inputs, alternating while the
    next pair still fits in ``seconds``, counted from the start (at least
    one pair).

    The layer metrics come from the fastest traced pass, and the overhead
    compares the fastest pass of each kind: both kinds run at the host's
    speed of the moment, and the fastest passes are the least slowed.
    """
    import ablations
    import tracing
    import workloads

    workloads.warm_up()
    start = time.perf_counter()
    metrics = {"integrator.simulate.peak_alloc_mb": peak_alloc_mb(
        run.workload, run.workload.short(run.items_of(0)[0]))}
    metrics.update(ablations.all_ablations())
    untraced, traced = [], []
    while True:
        untraced.append(run.run_pass(0)[0])
        tracer = tracing.Tracer(pass_id=len(traced))
        tracer.install()
        try:
            traced_s, records = run.run_pass(0, tracer)
        finally:
            tracer.uninstall()
        traced.append((traced_s, tracer, records))
        if time.perf_counter() - start + untraced[-1] + traced_s > seconds:
            break
    traced_s, tracer, records = min(traced, key=lambda t: t[0])
    metrics.update(tracing.layer_metrics(tracer, "bench.pass", traced_s, min(untraced)))
    metrics["integrator.csv.bytes"] = sum(r.get("_bytes", 0) for r in records)
    with open(spans_path, "w") as fh:
        for _, t, _ in traced:
            t.write_spans(fh)
    print(f"# spans of {len(traced)} traced passes written to {spans_path.relative_to(ROOT)}")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fishbone" / "__init__.py").is_file():
        print(f"error: fishbone sources not found under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import fishbone

    if Path(fishbone.__file__).resolve().parent != (SRC / "fishbone").resolve():
        print(f"error: imported fishbone from {fishbone.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    golden = json.loads((BENCH_DIR / "golden.json").read_text())
    facts = machine_facts()
    print(f"# machine: nproc={facts['nproc']} cpu={facts['cpu']!r} python={facts['python']} "
          f"numpy={facts['numpy']}")
    run = Run(workloads.WORKLOADS[args.workload], golden, args.seed, facts["nproc"])
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        values = traced_run(run, args.seconds, WORK / f"spans-{stem}.jsonl")
        units = PER_LAYER_UNITS
    else:
        values = timed_run(run, args.seconds)
        units = END_TO_END_UNITS
    error_rate = run.failed / run.attempted
    for name, unit in units.items():
        value = values[name]
        print(f"{name} = {value if isinstance(value, int) else format(value, '.6g')} {unit}")
    print(f"error_rate = {error_rate:.6g} ({run.failed} failed of {run.attempted} attempted)")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "machine": facts,
              "passes": run.passes, "error_rate": error_rate, "metrics": metrics}
    (WORK / f"result-{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
