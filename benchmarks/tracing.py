"""Span recorder for the traced run, fed by wrappers around public names.

Spans are recorded from the benchmark's own code: each wrapped function is
replaced at the module attribute where its caller looks the name up (for
example ``fishbone.threshold.simulate``, the name ``_probe`` calls), so the
program itself is not edited.  A span is (name, start, end, parent, pass id)
and all spans stay in memory until ``write_spans`` runs at the end.

Functions called tens of thousands of times per pass (``energy``,
``rhs_m_mode``, ``period_for_amplitude``, the adaptive driver's right-hand
side) are not given a span each: their calls and time are added to the
enclosing span instead.  A right-hand side defined in ``hill`` is timed
as ``hill.rhs``, so the driver's self time is its own.
``one_mode_accelerations`` (about 800k calls per threshold probe) is not
wrapped at all; the ablation in ``ablations.py`` prices it.

A span name starts with the module (layer) it belongs to; time a span spends
outside its children and leaf calls is that layer's self time.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from collections import Counter
from contextlib import contextmanager
from typing import TextIO

import fishbone.cli
import fishbone.hill
import fishbone.integrator
import fishbone.threshold
from fishbone.integrator import AdaptiveDriver, Scheme

LAYERS = ("model", "integrator", "hill", "threshold", "cli")


class Tracer:
    def __init__(self, pass_id: int = 0) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, pass_id]
        self.leaf: dict[tuple[int, str], list] = {}  # (span id, name) -> [calls, s]
        self.counts: Counter = Counter()
        self.stack: list[int] = []
        self.pass_id = pass_id
        self._restore: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        rec = [name, time.perf_counter(), math.nan, self.stack[-1] if self.stack else None, self.pass_id]
        self.spans.append(rec)
        self.stack.append(sid)
        try:
            yield sid
        finally:
            self.stack.pop()
            rec[2] = time.perf_counter()

    # -- wrappers ----------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _spanned(self, owner, attr: str, name: str, on_result=None) -> None:
        fn = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        self._patch(owner, attr, wrapper)

    def _timed(self, fn, name: str):
        """fn, with its calls and time added to the enclosing span's leaf ``name``."""
        clock, leaf, stack = time.perf_counter, self.leaf, self.stack

        def wrapper(*args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            dt = clock() - t0
            acc = leaf.get((stack[-1], name))
            if acc is None:
                leaf[(stack[-1], name)] = [1, dt]
            else:
                acc[0] += 1
                acc[1] += dt
            return result

        return wrapper

    def _leaf(self, owner, attr: str, name: str) -> None:
        self._patch(owner, attr, self._timed(getattr(owner, attr), name))

    def install(self) -> None:
        """Wrap every traced name; ``uninstall`` puts the originals back."""
        counts = self.counts

        def simulated(args, kwargs, traj) -> None:
            config = args[2] if len(args) > 2 else kwargs["config"]
            counts["integrator.samples.recorded"] += len(traj.samples)
            if config.scheme is Scheme.FIXED_RK4:
                t_stop = config.t_end if traj.terminated_early is None else traj.terminated_early[0]
                counts["integrator.fixed.steps"] += math.ceil(t_stop / config.h - 1e-9)

        def written(args, kwargs, _) -> None:
            counts["integrator.samples.used"] += len(args[0].samples)

        def forced(args, kwargs, check) -> None:
            counts["hill.forced.periods"] += check.periods_completed

        for module in (fishbone.threshold, fishbone.cli, fishbone.integrator):
            self._spanned(module, "simulate", "integrator.simulate", simulated)
        self._spanned(fishbone.cli, "write_trajectory_csv", "integrator.csv", written)
        self._spanned(fishbone.cli, "main", "cli.main")
        self._spanned(fishbone.threshold, "find_threshold", "threshold.find_threshold")
        self._spanned(fishbone.hill, "stability_chart", "hill.chart")
        self._spanned(fishbone.hill, "classify", "hill.classify")
        self._spanned(fishbone.hill, "monodromy_matrix", "hill.monodromy")
        self._spanned(fishbone.hill, "forced_check", "hill.forced", forced)
        self._leaf(fishbone.integrator, "energy", "model.energy")
        self._leaf(fishbone.integrator, "rhs_m_mode", "model.rhs_m")
        self._leaf(fishbone.hill, "period_for_amplitude", "hill.period")

        init, advance = AdaptiveDriver.__init__, AdaptiveDriver.advance

        def traced_init(driver, f, *args, **kwargs):
            # a right-hand side made by hill is hill time, not driver time;
            # the integrator's own ones stay driver time, and the model
            # calls inside them are leaves already
            layer = getattr(f, "__module__", "").rsplit(".", 1)[-1]
            timed_f = self._timed(f, f"{layer}.rhs") if layer in LAYERS and layer != "integrator" else f

            def counted_f(t, u):
                counts["integrator.adaptive.rhs_evals"] += 1
                return timed_f(t, u)

            init(driver, counted_f, *args, **kwargs)

        def traced_advance(driver, t_target, on_step=None):
            def counted_step(t, u):
                counts["integrator.adaptive.steps"] += 1
                if on_step is not None:
                    on_step(t, u)

            with self.span("integrator.adaptive"):
                return advance(driver, t_target, on_step=counted_step)

        self._patch(AdaptiveDriver, "__init__", traced_init)
        self._patch(AdaptiveDriver, "advance", traced_advance)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def self_times(self) -> dict[str, float]:
        """Self time per span name (and per leaf name), summed over spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: Counter = Counter()
        for (sid, name), (_, seconds) in self.leaf.items():
            child[sid] += seconds
            out[name] += seconds
        for sid, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[sid]
        return dict(out)

    def leaf_calls(self, name: str) -> int:
        return sum(calls for (_, n), (calls, _) in self.leaf.items() if n == name)

    def write_spans(self, out: TextIO) -> None:
        """One JSON object per line: spans, then leaf totals per span."""
        for sid, (name, start, end, parent, pass_id) in enumerate(self.spans):
            out.write(json.dumps({"pass": pass_id, "id": sid, "name": name, "start": start,
                                  "end": end, "parent": parent}) + "\n")
        for (sid, name), (calls, seconds) in sorted(self.leaf.items()):
            out.write(json.dumps({"pass": self.pass_id, "leaf": name, "parent": sid,
                                  "calls": calls, "seconds": seconds}) + "\n")


def layer_metrics(tracer: Tracer, root: str, traced_s: float, untraced_s: float) -> dict[str, float]:
    """Per-layer counts, self times and shares from one traced pass."""
    st = tracer.self_times()
    counts = tracer.counts
    by_layer = Counter()
    for name, seconds in st.items():
        by_layer[name.split(".", 1)[0]] += seconds
    total = sum(st.values())
    forced = tracer.durations("hill.forced")
    probes = [
        end - start
        for name, start, end, parent, _ in tracer.spans
        if name == "integrator.simulate"
        and parent is not None
        and tracer.spans[parent][0] == "threshold.find_threshold"
    ]
    recorded = counts["integrator.samples.recorded"]
    steps = counts["integrator.adaptive.steps"]
    metrics = {
        "model.rhs_m.calls": tracer.leaf_calls("model.rhs_m"),
        "model.energy.calls": tracer.leaf_calls("model.energy"),
        "model.energy.self_s": st.get("model.energy", 0.0),
        "integrator.samples.recorded": recorded,
        "integrator.samples.used_ratio": counts["integrator.samples.used"] / recorded if recorded else 0.0,
        "integrator.simulate.calls": len(tracer.durations("integrator.simulate")),
        "integrator.simulate.self_s": st.get("integrator.simulate", 0.0),
        "integrator.fixed.steps": counts["integrator.fixed.steps"],
        "integrator.adaptive.advance_calls": len(tracer.durations("integrator.adaptive")),
        "integrator.adaptive.steps": steps,
        "integrator.adaptive.rhs_evals": counts["integrator.adaptive.rhs_evals"],
        "integrator.adaptive.rhs_per_step": counts["integrator.adaptive.rhs_evals"] / steps if steps else 0.0,
        "integrator.adaptive.self_s": st.get("integrator.adaptive", 0.0),
        "integrator.csv.write_s": sum(tracer.durations("integrator.csv"), 0.0),
        "hill.classify.calls": len(tracer.durations("hill.classify")),
        "hill.forced.calls": len(forced),
        "hill.forced.s_per_call": sum(forced) / len(forced) if forced else 0.0,
        "hill.forced.periods": counts["hill.forced.periods"],
        "hill.forced.incl_share": sum(forced) / total if total else 0.0,
        "threshold.probes": len(probes),
        "threshold.probe_s": statistics.median(probes) if probes else 0.0,
        "threshold.self_s": st.get("threshold.find_threshold", 0.0),
        "cli.main.calls": len(tracer.durations("cli.main")),
        "cli.self_s": st.get("cli.main", 0.0),
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
        "trace.unattributed_s": st.get(root, 0.0),
    }
    for layer in LAYERS:
        metrics[f"share.{layer}"] = by_layer[layer] / total if total else 0.0
    metrics["share.unattributed"] = st.get(root, 0.0) / total if total else 0.0
    return metrics
