#!/usr/bin/env python3
"""Self-test of the benchmark, on tiny inputs; about a minute on 2 cores.

    python3 benchmarks/selftest.py

It shows that:

1. the golden check fires: a corrupted reference makes ``error_rate`` > 0,
   both on tiny passes of all four workloads and through the full command
   run in a copy of the tree whose ``golden.json`` is corrupted, which then
   exits non-zero;
2. every metric named in ``BENCHMARK.json`` is printed with its unit, in the
   timed and in the traced mode;
3. the deterministic counts of a traced pass repeat exactly;
4. in a directory holding only ``BENCHMARK.json`` and the benchmark's own
   files the command fails without printing a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys

from capture_golden import capture
from run import BENCH_DIR, ROOT, SRC, WORK, PER_LAYER_UNITS, Run

sys.path.insert(0, str(SRC))

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

TINY = wl.make_workloads(
    threshold_strata=((wl.threshold_item(1.5, 3.5, tol=0.5, t_end=10.0),),),
    hill_strata=tuple((wl.hill_item(e, periods=10),) for e in (1.0, 5.0, 8.0)),
    cli_strata=tuple(
        (wl.cli_item(["simulate", *flags, "--t-end", "2"]),)
        for flags in ([], ["--variant", "cross", "--delta", "0.01"],
                      ["--variant", "crosszero", "--delta", "0.01"])
    ),
    mmode_strata=((wl.mmode_item(1.47, t_end=0.05),),),
)

COUNT_METRICS = [name for name, unit in PER_LAYER_UNITS.items() if unit in ("count", "bytes")]

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def traced_counts(workload, golden) -> tuple[dict, int]:
    run = Run(workload, golden, seed=0, nproc=1)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        seconds, records = run.run_pass(0, tracer)
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer, "bench.pass", seconds, seconds)
    metrics["integrator.csv.bytes"] = sum(r.get("_bytes", 0) for r in records)
    return {k: metrics[k] for k in COUNT_METRICS}, run.failed


def corrupt(refs: dict) -> dict:
    """Change one field of every reference."""
    bad = copy.deepcopy(refs)
    for ref in (ref for per_item in bad.values() for ref in per_item.values()):
        field = sorted(ref)[0]
        value = ref[field]
        if isinstance(value, bool):
            ref[field] = not value
        elif isinstance(value, (int, float)):
            ref[field] = value * (1 + 1e-3) + 1e-3
        else:
            ref[field] = repr(value) + "x"
    return bad


def command(*args: str, cwd=ROOT) -> tuple[int, str]:
    proc = subprocess.run([sys.executable, "benchmarks/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout


def copy_tree(dest, with_sources: bool):
    """A fresh tree at dest with BENCHMARK.json, the benchmark, and the sources if asked."""
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    skip = shutil.ignore_patterns("__pycache__")
    shutil.copytree(BENCH_DIR, dest / "benchmarks", ignore=skip)
    if with_sources:
        shutil.copytree(SRC, dest / "src", ignore=skip)
    return dest


def last_json(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def main() -> int:
    WORK.mkdir(exist_ok=True)
    wl.warm_up()
    golden = {name: capture(w, w.pool()) for name, w in TINY.items()}

    for name, w in TINY.items():
        first, failed = traced_counts(w, golden)
        second, failed_again = traced_counts(w, golden)
        expect(failed == failed_again == 0, f"{name}: tiny pass matches its references")
        expect(first == second, f"{name}: traced counts repeat exactly {first}")
        run = Run(w, corrupt(golden), seed=0, nproc=1)
        run.run_pass(0)
        expect(run.failed > 0, f"{name}: corrupted references give error_rate "
                               f"{run.failed}/{run.attempted} > 0")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    tree = copy_tree(WORK / "corrupted", with_sources=True)
    golden_path = tree / "benchmarks" / "golden.json"
    golden_path.write_text(json.dumps(corrupt(json.loads(golden_path.read_text()))))
    code, out = command("--workload", "mmode", "--seed", "1", "--seconds", "1", "--trace", "0",
                        cwd=tree)
    shutil.rmtree(tree)
    result = last_json(out)
    expect(code != 0 and result is not None and result["failed"] > 0 and not result["correct"],
           f"command with corrupted references exits {code} and reports failures")

    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        code, out = command("--workload", "mmode", "--seed", "1", "--seconds", "1",
                            "--trace", str(trace))
        result = last_json(out)
        printed = {} if result is None else {k: v["unit"] for k, v in result["metrics"].items()}
        wanted = {m["name"]: m["unit"] for m in bench[key]}
        expect(code == 0 and printed == wanted,
               f"--trace {trace} prints every {key} metric of BENCHMARK.json with its unit")
        lines = out.splitlines()
        expect(all(any(ln.startswith(f"{name} = ") and ln.endswith(f" {unit}") for ln in lines)
                   for name, unit in wanted.items()),
               f"--trace {trace} prints a readable line per metric")

    bare = copy_tree(WORK / "bare", with_sources=False)
    code, out = command("--workload", "mmode", "--seed", "1", "--seconds", "1", "--trace", "0",
                        cwd=bare)
    shutil.rmtree(bare)
    expect(code != 0 and last_json(out) is None, "without the sources the command fails, no result")

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
