"""Layer costs priced by ablation, through fishbone's public API only.

Each figure times a public call in isolation, or the difference between two
public calls that differ in one setting.  They do not depend on the
workload, so the traced run of every workload reports them.  Private names
(``_rk4_step_1m``, ``_flat_rhs_m``) are deliberately not used, so that a
refactor of the integrator's internals cannot break the benchmark.
"""

from __future__ import annotations

import math
import time

from fishbone.hill import classify, mode_from_energy, monodromy_matrix, period_for_amplitude
from fishbone.integrator import IntegratorConfig, make_initial, simulate
from fishbone.model import ModelSpec, SystemState, Variant, one_mode_accelerations, rhs_m_mode

#: Standard 1-mode run: isolated, sigma=1.47, h=1e-3, t=200 (200 000 steps).
STANDARD_T_END = 200.0
#: Energy of the hill ablations: the first unstable point of the prop2 grid.
HILL_ENERGY = 5.0


def _min_time(fn, repeats: int) -> float:
    """Fastest of ``repeats`` calls of fn(), the one least slowed by the host."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def accel_ns_per_call(calls: int = 100_000, repeats: int = 5) -> float:
    """One 1-mode acceleration evaluation, loop overhead included."""
    args = (1.47, 1.47e-4, 0.1, 0.01, 0.0, 0.0, 0.0, 0.0)

    def loop():
        for _ in range(calls):
            one_mode_accelerations(*args)

    return _min_time(loop, repeats) / calls * 1e9


def fixed_1m_and_record(pairs: int = 3) -> tuple[float, float]:
    """(ns per RK4 step without recording, recording seconds per standard run).

    The same standard run is made with one sample at t_end and with the
    default 0.01 sampling, alternately; the difference of their fastest
    times is the cost of recording 20 001 samples with their energies.
    """
    spec = ModelSpec(Variant.ISOLATED)
    initial = make_initial(1.47)
    bare_cfg = IntegratorConfig(t_end=STANDARD_T_END, sample_every=STANDARD_T_END)
    full_cfg = IntegratorConfig(t_end=STANDARD_T_END)
    bare = full = math.inf
    for _ in range(pairs):
        bare = min(bare, _min_time(lambda: simulate(spec, initial, bare_cfg), 1))
        full = min(full, _min_time(lambda: simulate(spec, initial, full_cfg), 1))
    return bare / (STANDARD_T_END / bare_cfg.h) * 1e9, full - bare


def fixed_m_us_per_step(m: int = 4, t_end: float = 0.5, repeats: int = 3) -> float:
    spec = ModelSpec(Variant.ISOLATED, m=m)
    initial = make_initial(1.47, m)
    config = IntegratorConfig(t_end=t_end, sample_every=t_end)
    return _min_time(lambda: simulate(spec, initial, config), repeats) / (t_end / config.h) * 1e6


def rhs_m_us_per_call(m: int = 4, calls: int = 2000, repeats: int = 3) -> float:
    spec = ModelSpec(Variant.ISOLATED, m=m)
    state = SystemState(0.0, (1.47, 0.1, 0.01, 0.001), (1e-4, 0.0, 0.0, 0.0), (0.0,) * m, (0.0,) * m)

    def loop():
        for _ in range(calls):
            rhs_m_mode(spec, state)

    return _min_time(loop, repeats) / calls * 1e6


def hill_seconds(repeats: int = 3) -> tuple[float, float]:
    """(classify, monodromy_matrix) seconds per call at HILL_ENERGY."""
    mode = mode_from_energy(HILL_ENERGY)
    return (
        _min_time(lambda: classify(mode), repeats),
        _min_time(lambda: monodromy_matrix(mode), repeats),
    )


def period_us_per_call(calls: int = 2000, repeats: int = 3) -> float:
    def loop():
        for _ in range(calls):
            period_for_amplitude(1.2)

    return _min_time(loop, repeats) / calls * 1e6


def all_ablations() -> dict[str, float]:
    ns_step, record_s = fixed_1m_and_record()
    classify_s, monodromy_s = hill_seconds()
    return {
        "model.accel.ns_per_call": accel_ns_per_call(),
        "model.rhs_m.us_per_call": rhs_m_us_per_call(),
        "integrator.fixed1m.ns_per_step": ns_step,
        "integrator.record.s": record_s,
        "integrator.fixedm.us_per_step": fixed_m_us_per_step(),
        "hill.classify.s_per_call": classify_s,
        "hill.monodromy.s_per_call": monodromy_s,
        "hill.period.us_per_call": period_us_per_call(),
    }
