"""Time integration, trajectory recording, and onset/blow-up detection.

Two schemes are provided: a fixed-step classical RK4 (the workhorse for the
long experiment runs) and an adaptive embedded Dormand-Prince 5(4) pair used
for oracle duty and for the Hill-equation integrations.  Both are written in
plain Python floats so that results are bit-deterministic across runs.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, TextIO

import numpy as np

from .model import (
    EnergyBreakdown,
    ModelSpec,
    SystemState,
    _cross_coefficients,
    energy,
    one_mode_accelerations,
    rhs_m_mode,
)

__all__ = [
    "Scheme",
    "IntegratorConfig",
    "OnsetEvent",
    "Trajectory",
    "BlowUpError",
    "StepSizeCollapseError",
    "AdaptiveDriver",
    "check_onset_gain",
    "make_initial",
    "simulate",
    "write_trajectory_csv",
    "BLOWUP_LIMIT",
]

#: Magnitude guard: a state component at or beyond this is a blow-up.
BLOWUP_LIMIT = 1e8

#: Hard floor on adaptive step size, relative to the current time scale.
_MIN_STEP_FACTOR = 1e-14

#: Residual gap to a target time treated as already reached (roundoff).
_TIME_SNAP = 1e-13


class Scheme(enum.Enum):
    FIXED_RK4 = "fixed_rk4"
    ADAPTIVE_EMBEDDED = "adaptive_embedded"


@dataclass(frozen=True)
class IntegratorConfig:
    """Scheme selection, step/tolerance settings, horizon, and sampling."""

    scheme: Scheme = Scheme.FIXED_RK4
    h: float = 1e-3
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    t_end: float = 200.0
    sample_every: float = 0.01

    def __post_init__(self) -> None:
        for name in ("h", "rel_tol", "abs_tol", "t_end", "sample_every"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.h <= 0.0:
            raise ValueError("h must be positive")
        if self.t_end <= 0.0:
            raise ValueError("t_end must be positive")
        if self.sample_every <= 0.0:
            raise ValueError("sample_every must be positive")
        if self.h > self.sample_every:
            raise ValueError("h must not exceed sample_every")
        if self.rel_tol <= 0.0 or self.abs_tol <= 0.0:
            raise ValueError("tolerances must be positive")


@dataclass(frozen=True)
class OnsetEvent:
    """First time the torsional amplitude exceeds its gain threshold."""

    t_onset: float
    gain: float


@dataclass
class Trajectory:
    """Sampled run of one model: states, energies, onset, early termination.

    ``samples`` holds (state, energy) pairs; the energy entry is None for
    m > 1, where no energy function is defined.  ``max_torsion`` is the
    running maximum of |z1| over every accepted step, not just samples.
    """

    spec: ModelSpec
    samples: list[tuple[SystemState, Optional[EnergyBreakdown]]]
    onset: Optional[OnsetEvent] = None
    terminated_early: Optional[tuple[float, str]] = None
    max_torsion: float = 0.0

    def times(self) -> list[float]:
        return [s.t for s, _ in self.samples]

    def final_state(self) -> SystemState:
        return self.samples[-1][0]

    def final_energy(self) -> Optional[float]:
        e = self.samples[-1][1]
        return None if e is None else e.total

    def initial_energy(self) -> Optional[float]:
        e = self.samples[0][1]
        return None if e is None else e.total


class BlowUpError(RuntimeError):
    """A state component exceeded BLOWUP_LIMIT or became non-finite."""

    def __init__(self, t: float):
        self.t = t
        super().__init__(f"state magnitude exceeded {BLOWUP_LIMIT:g} at t={t:.6g}")


class StepSizeCollapseError(RuntimeError):
    """The adaptive controller could not find an acceptable step size."""

    def __init__(self, t: float):
        self.t = t
        super().__init__(f"adaptive step size collapsed at t={t:.6g}")


def make_initial(sigma: float, m: int = 1) -> SystemState:
    """Standard experiment initial data: y1 = sigma, z1 = sigma * 1e-4.

    All velocities and all higher-mode coefficients start at zero; the tiny
    torsional seed is what the onset detector measures gain against.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if not math.isfinite(sigma):
        raise ValueError(f"sigma must be finite, got {sigma}")
    y = (float(sigma),) + (0.0,) * (m - 1)
    z = (float(sigma) * 1e-4,) + (0.0,) * (m - 1)
    zeros = (0.0,) * m
    return SystemState(t=0.0, y=y, z=z, ydot=zeros, zdot=zeros)


def _state_ok_1m(u: tuple[float, float, float, float]) -> bool:
    # NaN fails every comparison, so this also catches non-finite values.
    y, z, yd, zd = u
    return (
        abs(y) < BLOWUP_LIMIT
        and abs(z) < BLOWUP_LIMIT
        and abs(yd) < BLOWUP_LIMIT
        and abs(zd) < BLOWUP_LIMIT
    )


def _state_ok_m(u: np.ndarray) -> bool:
    return bool(np.all(np.abs(u) < BLOWUP_LIMIT))


def _rk4_1m(spec: ModelSpec) -> Callable[[tuple, float], tuple]:
    """Classical RK4 step of the 1-mode system on the flat 4-tuple."""
    c1, c2, c3, c4 = _cross_coefficients(spec)

    def step(u: tuple[float, float, float, float], h: float):
        y, z, yd, zd = u
        h2 = 0.5 * h
        h6 = h / 6.0
        ay1, az1 = one_mode_accelerations(y, z, yd, zd, c1, c2, c3, c4)
        y2 = y + h2 * yd
        z2 = z + h2 * zd
        yd2 = yd + h2 * ay1
        zd2 = zd + h2 * az1
        ay2, az2 = one_mode_accelerations(y2, z2, yd2, zd2, c1, c2, c3, c4)
        y3 = y + h2 * yd2
        z3 = z + h2 * zd2
        yd3 = yd + h2 * ay2
        zd3 = zd + h2 * az2
        ay3, az3 = one_mode_accelerations(y3, z3, yd3, zd3, c1, c2, c3, c4)
        y4 = y + h * yd3
        z4 = z + h * zd3
        yd4 = yd + h * ay3
        zd4 = zd + h * az3
        ay4, az4 = one_mode_accelerations(y4, z4, yd4, zd4, c1, c2, c3, c4)
        return (
            y + h6 * (yd + 2.0 * (yd2 + yd3) + yd4),
            z + h6 * (zd + 2.0 * (zd2 + zd3) + zd4),
            yd + h6 * (ay1 + 2.0 * (ay2 + ay3) + ay4),
            zd + h6 * (az1 + 2.0 * (az2 + az3) + az4),
        )

    return step


def _flat_rhs_m(spec: ModelSpec) -> Callable[[np.ndarray], np.ndarray]:
    m = spec.m

    def f(u: np.ndarray) -> np.ndarray:
        state = SystemState(
            t=0.0, y=u[:m], z=u[m : 2 * m], ydot=u[2 * m : 3 * m], zdot=u[3 * m :]
        )
        ydd, zdd = rhs_m_mode(spec, state)
        return np.concatenate([u[2 * m : 3 * m], u[3 * m :], ydd, zdd])

    return f


def _rk4_m(spec: ModelSpec) -> Callable[[np.ndarray, float], np.ndarray]:
    """Classical RK4 step of the m-mode system on the flat state array."""
    f = _flat_rhs_m(spec)

    def step(u: np.ndarray, h: float) -> np.ndarray:
        k1 = f(u)
        k2 = f(u + 0.5 * h * k1)
        k3 = f(u + 0.5 * h * k2)
        k4 = f(u + h * k3)
        return u + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)

    return step


# ---------------------------------------------------------------------------
# Dormand-Prince 5(4) embedded pair


_DP_C = (0.0, 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0, 1.0, 1.0)

_DP_A = (
    (),
    (1.0 / 5.0,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0),
    (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0),
)

# 5th-order solution minus 4th-order estimate.
_DP_E = (
    71.0 / 57600.0,
    0.0,
    -71.0 / 16695.0,
    71.0 / 1920.0,
    -17253.0 / 339200.0,
    22.0 / 525.0,
    -1.0 / 40.0,
)


class AdaptiveDriver:
    """Embedded Dormand-Prince 5(4) integrator over tuple-of-float states.

    The right-hand side ``f(t, u)`` takes and returns a sequence of floats.
    The driver owns (t, u, h) and advances to requested target times; the
    first-same-as-last property is used to save one evaluation per step.

    ``on_step(t, u)`` callbacks fire after every accepted step, which is how
    callers track onset events, running maxima, or dense output.
    """

    def __init__(
        self,
        f: Callable[[float, Sequence[float]], Sequence[float]],
        t0: float,
        u0: Sequence[float],
        rel_tol: float = 1e-10,
        abs_tol: float = 1e-12,
        h0: float = 1e-3,
        magnitude_limit: Optional[float] = None,
    ):
        self.f = f
        self.t = float(t0)
        self.u = tuple(float(v) for v in u0)
        self.rel_tol = rel_tol
        self.abs_tol = abs_tol
        self.h = float(h0)
        self.magnitude_limit = magnitude_limit
        self._k1: Optional[tuple[float, ...]] = None

    def advance(
        self,
        t_target: float,
        on_step: Optional[Callable[[float, tuple[float, ...]], None]] = None,
    ) -> tuple[float, tuple[float, ...]]:
        """Integrate forward until t_target, stepping exactly onto it."""
        if t_target < self.t:
            raise ValueError("targets must be nondecreasing")
        n = len(self.u)
        while self.t < t_target:
            # a sub-roundoff residual gap would shrink h below the collapse
            # floor; snap onto the target instead
            if t_target - self.t <= _TIME_SNAP * max(1.0, abs(self.t)):
                self.t = t_target
                break
            if self._k1 is None:
                self._k1 = tuple(self.f(self.t, self.u))
            h = min(self.h, t_target - self.t)
            capped = h < self.h
            while True:
                if h < _MIN_STEP_FACTOR * max(1.0, abs(self.t)):
                    raise StepSizeCollapseError(self.t)
                ks = [self._k1]
                for s in range(1, 7):
                    a = _DP_A[s]
                    us = tuple(
                        self.u[i] + h * sum(a[j] * ks[j][i] for j in range(s))
                        for i in range(n)
                    )
                    ks.append(tuple(self.f(self.t + _DP_C[s] * h, us)))
                # stage 7 state equals the 5th-order solution (FSAL)
                unew = tuple(
                    self.u[i] + h * sum(_DP_A[6][j] * ks[j][i] for j in range(6))
                    for i in range(n)
                )
                err = 0.0
                for i in range(n):
                    e = h * sum(_DP_E[j] * ks[j][i] for j in range(7))
                    sc = self.abs_tol + self.rel_tol * max(
                        abs(self.u[i]), abs(unew[i])
                    )
                    r = e / sc
                    err += r * r
                err = math.sqrt(err / n)
                if err <= 1.0 and all(math.isfinite(v) for v in unew):
                    break
                shrink = 0.9 * err**-0.2 if (err > 0.0 and math.isfinite(err)) else 0.1
                h *= max(0.1, min(0.9, shrink))
            # accept
            tnew = self.t + h
            factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err**-0.2))
            if not capped or h * factor < self.h:
                self.h = h * factor
            self.t = tnew
            self.u = unew
            self._k1 = ks[6]
            if self.magnitude_limit is not None and any(
                not (abs(v) < self.magnitude_limit) for v in unew
            ):
                raise BlowUpError(tnew)
            if on_step is not None:
                on_step(tnew, unew)
        return self.t, self.u


# ---------------------------------------------------------------------------
# Simulation


def _tuple_rhs(spec: ModelSpec):
    if spec.m == 1:
        c1, c2, c3, c4 = _cross_coefficients(spec)

        def f1(t: float, u: Sequence[float]):
            y, z, yd, zd = u
            ay, az = one_mode_accelerations(y, z, yd, zd, c1, c2, c3, c4)
            return (yd, zd, ay, az)

        return f1
    fm = _flat_rhs_m(spec)

    def f(t: float, u: Sequence[float]):
        return tuple(fm(np.asarray(u)))

    return f


def _split_horizon(t_end: float, h: float) -> tuple[int, float]:
    """Number of full steps plus a final short step landing on t_end."""
    n = round(t_end / h)
    if abs(n * h - t_end) <= 1e-9 * max(1.0, t_end):
        return n, 0.0
    n = math.floor(t_end / h)
    return n, t_end - n * h


_BLOWUP_REASON = f"blow-up: state magnitude reached {BLOWUP_LIMIT:g}"


class _Observer:
    """Onset, running max |z1|, early termination and samples of one run.

    Every driver hands it the flat state (y..., z..., ydot..., zdot...), so
    z1 is ``u[m]``: ``watch`` sees every accepted step, ``record`` every
    sample.
    """

    def __init__(self, spec: ModelSpec, t0: float, u0, onset_gain: float):
        self.spec = spec
        self.m = spec.m
        self.z_seed = abs(u0[self.m])
        self.threshold = onset_gain * self.z_seed if self.z_seed > 0.0 else math.inf
        self.max_torsion = self.z_seed
        self.onset: Optional[OnsetEvent] = None
        self.terminated: Optional[tuple[float, str]] = None
        self.samples: list[tuple[SystemState, Optional[EnergyBreakdown]]] = []
        self.record(t0, u0)

    def watch(self, t: float, u) -> None:
        az = abs(u[self.m])
        if az > self.max_torsion:
            self.max_torsion = az
        if self.onset is None and az >= self.threshold:
            self.onset = OnsetEvent(t_onset=t, gain=az / self.z_seed)

    def record(self, t: float, u) -> None:
        m = self.m
        st = SystemState(t, u[:m], u[m : 2 * m], u[2 * m : 3 * m], u[3 * m :])
        self.samples.append((st, energy(self.spec, st) if m == 1 else None))

    def trajectory(self) -> Trajectory:
        return Trajectory(
            spec=self.spec,
            samples=self.samples,
            onset=self.onset,
            terminated_early=self.terminated,
            max_torsion=self.max_torsion,
        )


def check_onset_gain(onset_gain: float) -> None:
    """Reject an onset gain that is not finite or does not exceed 1."""
    if not 1.0 < onset_gain < math.inf:
        raise ValueError("onset_gain must be finite and exceed 1")


def simulate(
    spec: ModelSpec,
    initial: SystemState,
    config: IntegratorConfig,
    onset_gain: float = 100.0,
) -> Trajectory:
    """Integrate to t_end, recording samples, energy, onset, and blow-up.

    The onset event is the first accepted step at which |z1| reaches
    onset_gain times |z1(0)|; detection is disabled when the torsional seed
    is exactly zero.  Blow-up or step-size collapse stops the run early and
    is reported in ``terminated_early``; samples up to that point are kept.
    """
    check_onset_gain(onset_gain)
    if initial.m != spec.m:
        raise ValueError(f"initial state has m={initial.m}, spec has m={spec.m}")
    t0, u0 = initial.t, initial.flat()
    if config.scheme is Scheme.ADAPTIVE_EMBEDDED:
        obs = _Observer(spec, t0, u0, onset_gain)
        _run_adaptive(obs, t0, u0, config)
    else:
        if spec.m == 1:
            step, ok = _rk4_1m(spec), _state_ok_1m
        else:
            step, ok, u0 = _rk4_m(spec), _state_ok_m, np.asarray(u0)
        obs = _Observer(spec, t0, u0, onset_gain)
        _run_fixed(obs, step, ok, t0, u0, config)
    return obs.trajectory()


def _run_fixed(obs: _Observer, step, ok, t0: float, u, config: IntegratorConfig) -> None:
    """Fixed-step loop: n full steps of h, then a short step onto t_end."""
    h = config.h
    n_sub = max(1, round(config.sample_every / h))
    n_steps, h_tail = _split_horizon(config.t_end, h)
    watch, record = obs.watch, obs.record
    for i in range(1, n_steps + 1):
        u = step(u, h)
        t = t0 + i * h
        if not ok(u):
            obs.terminated = (t, _BLOWUP_REASON)
            return
        watch(t, u)
        if i % n_sub == 0:
            record(t, u)
    if h_tail > 0.0:
        u = step(u, h_tail)
        t = t0 + config.t_end
        if not ok(u):
            obs.terminated = (t, _BLOWUP_REASON)
            return
        watch(t, u)
        record(t, u)
    elif obs.samples[-1][0].t < t0 + n_steps * h:
        record(t0 + n_steps * h, u)


def _run_adaptive(obs: _Observer, t0: float, u0, config: IntegratorConfig) -> None:
    """Dormand-Prince onto each sample time; the driver's guard stops blow-up."""
    driver = AdaptiveDriver(
        _tuple_rhs(obs.spec),
        t0,
        u0,
        rel_tol=config.rel_tol,
        abs_tol=config.abs_tol,
        h0=config.h,
        magnitude_limit=BLOWUP_LIMIT,
    )
    n_samples = math.ceil(config.t_end / config.sample_every - 1e-9)
    try:
        for k in range(1, n_samples + 1):
            target = t0 + min(k * config.sample_every, config.t_end)
            obs.record(*driver.advance(target, on_step=obs.watch))
    except BlowUpError as exc:
        obs.terminated = (exc.t, _BLOWUP_REASON)
    except StepSizeCollapseError as exc:
        obs.terminated = (exc.t, "step-size collapse: no acceptable step found")


# ---------------------------------------------------------------------------
# Serialization


def _fmt(x: float) -> str:
    return format(x, ".17g")


def write_trajectory_csv(
    trajectory: Trajectory,
    out: TextIO,
    header_fields: Optional[dict[str, str]] = None,
) -> None:
    """Write the sampled trajectory as CSV with 17 significant digits.

    Optional ``header_fields`` are emitted first as '# key=value' comment
    lines, which is how experiment configs are fingerprinted into outputs.
    Energy columns are left empty for m > 1.
    """
    m = trajectory.spec.m
    if header_fields:
        for key, value in header_fields.items():
            out.write(f"# {key}={value}\n")
    ys = ",".join(f"y{j}" for j in range(1, m + 1))
    zs = ",".join(f"z{j}" for j in range(1, m + 1))
    out.write(
        f"t,{ys},{zs},E_total,E_kin_y,E_kin_z,E_quad,E_coupling,E_quartic,E_aero\n"
    )
    for state, e in trajectory.samples:
        cols = [_fmt(state.t)]
        cols.extend(_fmt(v) for v in state.y)
        cols.extend(_fmt(v) for v in state.z)
        if e is None:
            cols.extend([""] * 7)
        else:
            cols.extend(
                _fmt(v)
                for v in (
                    e.total,
                    e.kinetic_y,
                    e.kinetic_z,
                    e.quadratic,
                    e.coupling,
                    e.quartic,
                    e.aero_cross,
                )
            )
        out.write(",".join(cols) + "\n")
