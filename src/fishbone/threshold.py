"""Instability threshold location by bisection, and (delta, sigma) sweeps.

The operational threshold is the initial amplitude sigma at which a full
nonlinear run first shows a torsional onset event within the configured
horizon.  Bisection certifies a bracket: no onset at sigma_lo, onset at
sigma_hi, under a fingerprinted integrator configuration.  Because the
integrator is bit-deterministic, re-running either endpoint reproduces the
certifying result exactly.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from .integrator import IntegratorConfig, OnsetEvent, Scheme, make_initial, simulate
from .model import ModelSpec, SystemState, Variant, energy

__all__ = [
    "InvalidBracketError",
    "ThresholdResult",
    "SweepRow",
    "config_fingerprint",
    "find_threshold",
    "sweep",
]


class InvalidBracketError(ValueError):
    """Bracket endpoints do not show the required stable/onset pattern."""


@dataclass(frozen=True)
class ThresholdResult:
    """Certified threshold bracket with the configuration that produced it."""

    sigma_lo: float
    sigma_hi: float
    sigma_star: float
    energy_star: float
    onset_at_hi: OnsetEvent
    config_fingerprint: dict[str, str]


@dataclass(frozen=True)
class SweepRow:
    """Outcome of one (delta, sigma) run."""

    delta: float
    sigma: float
    t_onset: Optional[float]
    max_torsion: float
    energy_initial: float
    energy_final: float
    terminated_early: Optional[tuple[float, str]] = None


def config_fingerprint(config: IntegratorConfig, onset_gain: float) -> dict[str, str]:
    """Flat key=value record pinning every setting a re-run needs."""
    return {
        "scheme": config.scheme.value,
        "h": format(config.h, ".17g"),
        "rel_tol": format(config.rel_tol, ".17g"),
        "abs_tol": format(config.abs_tol, ".17g"),
        "t_end": format(config.t_end, ".17g"),
        "sample_every": format(config.sample_every, ".17g"),
        "onset_gain": format(onset_gain, ".17g"),
    }


def _probe(
    spec: ModelSpec, sigma: float, config: IntegratorConfig, onset_gain: float
) -> Optional[OnsetEvent]:
    # a probe reads only the onset, so it stops at the onset step: nothing
    # after it can change the verdict.  Onset is detected on every fixed step
    # whatever the sampling, so there it records only its endpoints;
    # adaptive steps land on the sample times, so those keep theirs
    if config.scheme is Scheme.FIXED_RK4:
        config = replace(config, sample_every=max(config.t_end, config.sample_every))
    initial = make_initial(sigma, spec.m)
    return simulate(spec, initial, config, onset_gain, stop_at_onset=True).onset


def find_threshold(
    spec: ModelSpec,
    bracket: tuple[float, float],
    tol: float,
    config: IntegratorConfig,
    onset_gain: float = 100.0,
) -> ThresholdResult:
    """Bisect the onset/no-onset boundary in initial amplitude sigma.

    Both endpoints are validated first (no onset at the low end, onset at
    the high end) and InvalidBracketError is raised otherwise.  Each probe
    lies in the current [lo, hi] and becomes its new lo (quiet) or hi
    (onset), so every quiet probe so far is <= lo and every onset >= hi: no
    probe can fire below a quiet one or stay quiet above an onset, and the
    bisection cannot see a non-monotone boundary.  The returned endpoints
    are certified by their own runs.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    # checked before tol: the ulp of an infinite endpoint is infinite
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"bracket endpoints must be finite, got {lo:g}:{hi:g}")
    if not lo < hi:
        raise ValueError("bracket must satisfy lo < hi")
    # below two ulps the midpoint of adjacent floats is an endpoint, and the
    # bisection would never end
    min_tol = 2.0 * math.ulp(max(abs(lo), abs(hi)))
    if not min_tol <= tol < math.inf:
        raise ValueError(f"tol must be finite and at least {min_tol:.3g}")

    onset_lo = _probe(spec, lo, config, onset_gain)
    if onset_lo is not None:
        raise InvalidBracketError(
            f"onset already present at sigma_lo={lo:g} (t={onset_lo.t_onset:g})"
        )
    onset_hi = _probe(spec, hi, config, onset_gain)
    if onset_hi is None:
        raise InvalidBracketError(f"no onset detected at sigma_hi={hi:g}")

    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        onset_mid = _probe(spec, mid, config, onset_gain)
        if onset_mid is not None:
            hi, onset_hi = mid, onset_mid
        else:
            lo = mid

    sigma_star = 0.5 * (lo + hi)
    # no energy function is defined for m > 1
    e_star = energy(spec, make_initial(sigma_star)).total if spec.m == 1 else math.nan
    return ThresholdResult(
        sigma_lo=lo,
        sigma_hi=hi,
        sigma_star=sigma_star,
        energy_star=e_star,
        onset_at_hi=onset_hi,
        config_fingerprint=config_fingerprint(config, onset_gain),
    )


def _sweep_task(
    args: tuple[float, float, ModelSpec, SystemState, IntegratorConfig, float]
) -> SweepRow:
    delta, sigma, spec, initial, config, onset_gain = args
    traj = simulate(spec, initial, config, onset_gain)
    e0 = traj.initial_energy()
    ef = traj.final_energy()
    return SweepRow(
        delta=delta,
        sigma=sigma,
        t_onset=None if traj.onset is None else traj.onset.t_onset,
        max_torsion=traj.max_torsion,
        energy_initial=float("nan") if e0 is None else e0,
        energy_final=float("nan") if ef is None else ef,
        terminated_early=traj.terminated_early,
    )


def sweep(
    variant: Variant,
    deltas: Sequence[float],
    sigmas: Sequence[float],
    config: IntegratorConfig,
    onset_gain: float = 100.0,
    m: int = 1,
    jobs: int = 1,
) -> list[SweepRow]:
    """One run per (delta, sigma) pair, rows in input (delta-major) order.

    Every delta and sigma is checked before the first run, and neither list
    may be empty.  Early termination of a run is recorded in its row and
    never aborts the rest of the sweep.  Probes are independent, so jobs > 1
    fans them out to worker processes, no more than there are runs or CPUs,
    without changing the results.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if not deltas or not sigmas:
        raise ValueError("deltas and sigmas must not be empty")
    # building every run checks every delta and sigma; a row keeps the
    # caller's delta, which ModelSpec zeroes for the isolated variant
    tasks = [
        (d, s, ModelSpec(variant, m=m, delta=d), make_initial(s, m), config, onset_gain)
        for d, s in itertools.product(map(float, deltas), map(float, sigmas))
    ]
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_sweep_task, tasks))
    return [_sweep_task(t) for t in tasks]
