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
from dataclasses import dataclass, replace
from typing import Iterable, Optional

from ._fork import _child, _fan_out, _fork_context
from .integrator import (IntegratorConfig, OnsetEvent, Scheme, _check_run, make_initial,
                         simulate)
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
    # after it can change the verdict
    initial = make_initial(sigma, spec.m)
    return simulate(spec, initial, config, onset_gain, stop_at_onset=True).onset


def _bisection(lo: float, hi: float, tol: float):
    """The serial search as a generator of probes.

    It yields each sigma to probe, takes that probe's onset (or None) by
    ``send``, and returns (lo, hi, onset at hi) once hi - lo <= tol.
    """
    onset_lo = yield lo
    if onset_lo is not None:
        raise InvalidBracketError(
            f"onset already present at sigma_lo={lo:g} (t={onset_lo.t_onset:g})"
        )
    onset_hi = yield hi
    if onset_hi is None:
        raise InvalidBracketError(f"no onset detected at sigma_hi={hi:g}")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        onset_mid = yield mid
        if onset_mid is not None:
            hi, onset_hi = mid, onset_mid
        else:
            lo = mid
    return lo, hi, onset_hi


def _run_ahead(search, spec, config, onset_gain, writer) -> None:
    """Child: go on with the parent's search as if its probe came out quiet,
    and send each (sigma, onset) to ``writer`` as soon as that probe
    finishes.  It stops once its probes have run t_end of model time, as
    far as the parent's quiet probe runs, so how many it runs depends on
    their onsets alone and not on how fast either process is."""
    onset, spent = None, 0.0
    try:
        while spent < config.t_end:
            sigma = search.send(onset)
            onset = _probe(spec, sigma, config, onset_gain)
            writer.send((sigma, onset))
            spent += config.t_end if onset is None else onset.t_onset
    except Exception:
        # the search ended (StopIteration, InvalidBracketError), the parent
        # is gone (BrokenPipeError at a send), or a probe raised; the parent
        # runs that probe again itself if the serial search reaches it
        pass


def _probe_ahead(ctx, search, spec, sigma, config, onset_gain):
    """Probe sigma here while a forked child (``_child``) runs the serial
    search ahead.

    Returns [(sigma, onset)] and, if sigma is quiet, every (sigma, onset)
    pair the child sent after it, in serial order.
    """
    with _child(ctx, _run_ahead, (search, spec, config, onset_gain)) as forked:
        onset = _probe(spec, sigma, config, onset_gain)
        probes = [(sigma, onset)]
        if onset is None and forked is not None:
            try:
                while True:
                    probes.append(forked[1].recv())
            except EOFError:  # the child stopped, its search ended, or a probe raised
                pass
        return probes


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

    Look-ahead: while this process probes a sigma, a forked child goes on
    with the same search as if that probe came out quiet (in the first
    round, it probes sigma_hi while sigma_lo runs here), until its probes
    have run t_end of model time between them, as long as a quiet probe
    runs here.  If the probe here fires, the child is killed; if it is
    quiet, every verdict the child sent is taken in order.  A child runs a
    copy of this search's own state, so each probe whose verdict is taken
    is the one the serial search runs next, at the same sigma, and the
    bit-deterministic integrator gives it the same onset: the result is
    that of the serial search to the last digit.  Which probes run here
    and which in a child depends on the onsets alone, never on timing.  A
    probe that raised in the child is run again here if the serial search
    reaches it, so only such a probe's exception is raised.  The
    look-ahead is off, and the loop serial, unless the process may run on
    at least 2 CPUs, has no other thread and is not daemonic (see
    ``_fork._fork_context``).
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
    # onset is detected on every fixed step whatever the sampling, so there
    # a probe records only its endpoints; adaptive steps land on the sample
    # times, so those keep theirs
    probe_config = config
    if config.scheme is Scheme.FIXED_RK4:
        probe_config = replace(config, sample_every=max(config.t_end, config.sample_every))
    _check_run(spec, probe_config, onset_gain)

    ctx = _fork_context()
    search = _bisection(lo, hi, tol)
    sigma = next(search)
    try:
        while True:
            # the probe here, then the verdicts a child ran ahead, in serial order
            for ran, onset in _probe_ahead(ctx, search, spec, sigma, probe_config, onset_gain):
                assert ran == sigma
                sigma = search.send(onset)
    except StopIteration as done:
        lo, hi, onset_hi = done.value

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


def sweep(
    variant: Variant,
    deltas: Iterable[float],
    sigmas: Iterable[float],
    config: IntegratorConfig,
    onset_gain: float = 100.0,
    m: int = 1,
) -> list[SweepRow]:
    """One run per (delta, sigma) pair, rows in input (delta-major) order.

    Every delta and sigma and the run itself (``_check_run``: the onset
    gain, the sample memory, the fixed step) are checked before the first
    run and before any fork; neither list may be empty.  Early
    termination of a run is recorded in its row and never aborts the sweep.
    The runs fan out (``_fork._fan_out``) to no more processes than the one-run
    sample budget holds runs at once, with the same rows.
    """
    # building every run checks every delta and sigma; a row keeps the
    # caller's delta, which ModelSpec zeroes for the isolated variant
    tasks = [
        (d, s, ModelSpec(variant, m=m, delta=d), make_initial(s, m))
        for d, s in itertools.product(map(float, deltas), map(float, sigmas))
    ]
    if not tasks:  # also an empty iterator, which is truthy
        raise ValueError("deltas and sigmas must not be empty")

    def run(task: tuple[float, float, ModelSpec, SystemState]) -> SweepRow:
        delta, sigma, spec, initial = task
        traj = simulate(spec, initial, config, onset_gain)
        e0, ef = traj.initial_energy(), traj.final_energy()
        return SweepRow(
            delta=delta,
            sigma=sigma,
            t_onset=None if traj.onset is None else traj.onset.t_onset,
            max_torsion=traj.max_torsion,
            energy_initial=float("nan") if e0 is None else e0,
            energy_final=float("nan") if ef is None else ef,
            terminated_early=traj.terminated_early,
        )

    return _fan_out(run, tasks, _check_run(tasks[0][2], config, onset_gain))
