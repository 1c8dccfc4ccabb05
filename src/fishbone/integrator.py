"""Time integration, trajectory recording, and onset/blow-up detection.

Two schemes are provided: a fixed-step classical RK4 (the workhorse for the
long experiment runs) and an adaptive embedded Dormand-Prince 5(4) pair used
for oracle duty and for the Hill-equation integrations.  Both are written in
plain Python floats so that results are bit-deterministic across runs: every
driver carries the state as one flat tuple of floats (y..., z..., ydot...,
zdot...), whatever the mode count.

The fixed-step kernel, chosen by ``_kernel``, runs a whole run in one
Python frame: it checks the blow-up guard, the running max of |z1| and the
onset level on each step, records each sample, and returns only at the
end, at a blow-up or at the onset step.  Every 1-mode kernel is compiled
from one source, once per coupling shape (which aerodynamic coefficients
are nonzero), without the products whose coefficient is zero.  The
Dormand-Prince driver writes each stage out as one left-to-right sum, so
its results are also the same on every Python version.

A run keeps its samples as one flat array of doubles, 4m + 1 a sample;
``Trajectory.samples`` reads them as (state, energy) pairs, built only for
the entries read.  Inside ``_streaming`` a run also hands its samples on,
a block at a time, while it records them.
"""

from __future__ import annotations

import enum
import functools
import math
import operator
import sys
from array import array
from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, NoReturn, Optional

from .model import (
    EnergyBreakdown,
    ModelSpec,
    SystemState,
    _cross_coefficients,
    _m_mode_accelerations,
    energy,
    one_mode_accelerations,
    rhs_m_mode,  # not called here: benchmarks/tracing.py patches it on this module
)

__all__ = [
    "Scheme",
    "IntegratorConfig",
    "OnsetEvent",
    "Trajectory",
    "StepSizeCollapseError",
    "AdaptiveDriver",
    "check_onset_gain",
    "make_initial",
    "simulate",
    "BLOWUP_LIMIT",
    "MAX_SAMPLES",
    "MAX_STEPS",
]

#: Magnitude guard: a state component at or beyond this is a blow-up.
BLOWUP_LIMIT = 1e8

#: Largest step count t_end / h of one run: at 2-3 us per 1-mode RK4 step,
#: most of an hour.
MAX_STEPS = 10**9

#: Largest sample count of a one-mode run, as ``_sample_count`` counts it.
#: Samples are kept in memory, 8(4m + 1) bytes each: 40 for m = 1, so 400 MB
#: at the cap.  A run of m modes may hold as many doubles as this many
#: one-mode samples (``_check_sample_memory``).
MAX_SAMPLES = 10**7

#: |sigma| from here up overflows the quartic term of the m = 1 initial energy.
_SIGMA_LIMIT = sys.float_info.max**0.25

#: Hard floor on adaptive step size, relative to the current time scale.
_MIN_STEP_FACTOR = 1e-14

#: Residual gap to a target time treated as already reached (roundoff).
_TIME_SNAP = 1e-13

#: Sample rows in each block a run hands on inside ``_streaming``, and in
#: each write of the trajectory CSV writer.
_CSV_CHUNK_ROWS = 1024


class Scheme(enum.Enum):
    FIXED_RK4 = "fixed_rk4"
    ADAPTIVE_EMBEDDED = "adaptive_embedded"


@dataclass(frozen=True)
class IntegratorConfig:
    """Scheme selection, step/tolerance settings, horizon, and sampling.

    A run takes at most MAX_STEPS steps t_end / h and MAX_SAMPLES samples,
    t_end / sample_every under the adaptive scheme and t_end / (h * stride)
    under fixed RK4, which records every ``_sample_stride`` steps.  An
    adaptive sample interval must exceed the driver's time snap.
    """

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
        for name in ("h", "t_end", "sample_every"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if self.h > self.sample_every:
            raise ValueError("h must not exceed sample_every")
        # the drivers count steps and samples as ints; an infinite ratio
        # has no int value
        for name in ("t_end", "sample_every"):
            if not math.isfinite(getattr(self, name) / self.h):
                raise ValueError(f"{name} / h must be finite")
        if self.t_end / self.h > MAX_STEPS:
            raise ValueError(f"t_end / h must be at most {MAX_STEPS} steps")
        if (samples := _sample_count(self)) > MAX_SAMPLES:
            raise ValueError(f"{samples:.6g} samples; at most {MAX_SAMPLES} samples a run")
        # AdaptiveDriver takes a gap that short as reached, without a step
        snap = _TIME_SNAP * max(1.0, self.t_end)
        if self.scheme is Scheme.ADAPTIVE_EMBEDDED and min(self.sample_every, self.t_end) <= snap:
            raise ValueError(f"adaptive sample interval must exceed the time snap {snap:g}")
        if self.rel_tol <= 0.0 or self.abs_tol <= 0.0:
            raise ValueError("tolerances must be positive")


def _sample_stride(config: IntegratorConfig) -> int:
    """Steps of h between two samples of the fixed-step scheme."""
    return max(1, round(config.sample_every / config.h))


def _sample_count(config: IntegratorConfig) -> float:
    """Samples a run records after its seed: the count both caps bound."""
    if config.scheme is Scheme.ADAPTIVE_EMBEDDED:
        return config.t_end / config.sample_every
    return config.t_end / (config.h * _sample_stride(config))


@dataclass(frozen=True)
class OnsetEvent:
    """First time the torsional amplitude exceeds its gain threshold."""

    t_onset: float
    gain: float


class _Samples(Sequence):
    """Read-only view of one run's samples as (state, energy) pairs.

    The samples are rows (t, y..., z..., ydot..., zdot...) of 4m + 1
    doubles, one after another in one flat array.  A pair is built only
    for an entry that is read, its energy through ``energy``; the energy
    entry is None for m > 1, where no energy function is defined.  A slice
    is a list of pairs, and a view equals a list or a view of equal pairs.
    """

    __slots__ = ("_spec", "_buf", "_stride")

    def __init__(self, spec: ModelSpec, buf: array):
        self._spec = spec
        self._buf = buf
        self._stride = 4 * spec.m + 1

    def __len__(self) -> int:
        return len(self._buf) // self._stride

    def __getitem__(self, index):
        n = len(self)
        if isinstance(index, slice):
            return [self._pair(k) for k in range(*index.indices(n))]
        k = operator.index(index)
        if k < 0:
            k += n
        if not 0 <= k < n:
            raise IndexError("sample index out of range")
        return self._pair(k)

    def __iter__(self) -> Iterator[tuple[SystemState, Optional[EnergyBreakdown]]]:
        return map(self._pair, range(len(self)))

    def __eq__(self, other) -> bool:
        if isinstance(other, (_Samples, list)):
            return list(self) == list(other)
        return NotImplemented

    def _pair(self, k: int) -> tuple[SystemState, Optional[EnergyBreakdown]]:
        m = self._spec.m
        start = k * self._stride
        row = self._buf[start : start + self._stride].tolist()
        state = SystemState(
            row[0], row[1 : m + 1], row[m + 1 : 2 * m + 1],
            row[2 * m + 1 : 3 * m + 1], row[3 * m + 1 :],
        )
        return state, energy(self._spec, state) if m == 1 else None

    def rows(self) -> Iterator[tuple[float, ...]]:
        """Every sample as its flat row (t, y..., z..., ydot..., zdot...)."""
        return zip(*[iter(self._buf)] * self._stride)


@dataclass
class Trajectory:
    """Sampled run of one model: states, energies, onset, early termination.

    ``samples`` is a sequence of (state, energy) pairs; the energy entry is
    None for m > 1, where no energy function is defined.  ``simulate``
    fills it with a read-only view over the run's flat sample array, whose
    ``rows()`` the trajectory CSV writer reads.  ``max_torsion`` is the
    running maximum of |z1| over every accepted step, not just samples.
    """

    spec: ModelSpec
    samples: Sequence[tuple[SystemState, Optional[EnergyBreakdown]]]
    onset: Optional[OnsetEvent] = None
    terminated_early: Optional[tuple[float, str]] = None
    max_torsion: float = 0.0

    def final_state(self) -> SystemState:
        return self.samples[-1][0]

    def final_energy(self) -> Optional[float]:
        e = self.samples[-1][1]
        return None if e is None else e.total

    def initial_energy(self) -> Optional[float]:
        e = self.samples[0][1]
        return None if e is None else e.total


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
    if not abs(sigma) < (_SIGMA_LIMIT if m == 1 else math.inf):
        raise ValueError(
            f"sigma must be finite (and below {_SIGMA_LIMIT:.6g} at m = 1), got {sigma}"
        )
    y = (float(sigma),) + (0.0,) * (m - 1)
    z = (float(sigma) * 1e-4,) + (0.0,) * (m - 1)
    zeros = (0.0,) * m
    return SystemState(t=0.0, y=y, z=z, ydot=zeros, zdot=zeros)


#: ``advance(u, h, i, n, every, t0, peak, level, record) -> (u, i, peak,
#: fired)``: the fixed-step kernel.  It runs the RK4 steps of h after step
#: i up to step n from the flat state u in one frame, carrying ``peak``, the
#: running max of |z1|, and calls ``record(t0 + i * h, u)`` after each step
#: i that is a multiple of ``every``.  It returns after step i: at n, after
#: the first step whose |z1| reaches ``level`` (fired, before that step is
#: recorded), or with u None after the step that took a component to
#: BLOWUP_LIMIT in magnitude or to NaN.  Every earlier step stayed below
#: level, and level = gain |z1(0)| >= |z1(0)|, so a step can first reach it
#: only where it also reaches the running max: the kernels test level only
#: there.  ``>=`` rather than ``>`` keeps this exact even where level
#: rounds to the max.
_Advance = Callable[[tuple, float, int, int, int, float, float, float, Callable], tuple]

#: Source of the 1-mode kernel of every coupling shape: ``_one_mode_kernel``
#: fills in the accelerations ``{ay1}`` to ``{az4}`` of the four stages.
_ONE_MODE_KERNEL = """
def bind(c1, c2, c3, c4):
    def advance(u, h, i, n, every, t0, peak, level, record):
        y, z, yd, zd = u
        h2 = 0.5 * h
        h6 = h / 6.0
        lim = BLOWUP_LIMIT
        nlim = -lim
        sample = i - i % every + every
        while i < n:
            for i in range(i + 1, (sample if sample < n else n) + 1):
                ay1 = {ay1}
                az1 = {az1}
                y2 = y + h2 * yd
                z2 = z + h2 * zd
                yd2 = yd + h2 * ay1
                zd2 = zd + h2 * az1
                ay2 = {ay2}
                az2 = {az2}
                y3 = y + h2 * yd2
                z3 = z + h2 * zd2
                yd3 = yd + h2 * ay2
                zd3 = zd + h2 * az2
                ay3 = {ay3}
                az3 = {az3}
                y4 = y + h * yd3
                z4 = z + h * zd3
                yd4 = yd + h * ay3
                zd4 = zd + h * az3
                ay4 = {ay4}
                az4 = {az4}
                y = y + h6 * (yd + 2.0 * (yd2 + yd3) + yd4)
                z = z + h6 * (zd + 2.0 * (zd2 + zd3) + zd4)
                yd = yd + h6 * (ay1 + 2.0 * (ay2 + ay3) + ay4)
                zd = zd + h6 * (az1 + 2.0 * (az2 + az3) + az4)
                # NaN fails every comparison, so this also catches non-finite values
                if not (
                    nlim < y < lim and nlim < z < lim and nlim < yd < lim and nlim < zd < lim
                ):
                    return None, i, peak, False
                az = abs(z)
                if az >= peak:
                    peak = az
                    if az >= level:
                        return (y, z, yd, zd), i, peak, True
            if i == sample:
                record(t0 + i * h, (y, z, yd, zd))
                sample += every
        return (y, z, yd, zd), i, peak, False

    return advance
"""


@functools.lru_cache(maxsize=None)
def _one_mode_kernel(shape: tuple[bool, bool, bool, bool]) -> Callable[..., _Advance]:
    """``bind(c1, c2, c3, c4) -> advance``: the 1-mode kernel compiled for
    one coupling shape, which of the four ``_cross_coefficients`` are
    nonzero: isolated (or delta = 0), cross or crosszero.  The coefficients
    are bound per call, so a shape has one code object whatever its delta.

    Each acceleration is written as ``-3.0 * y - 1.5 * y * y * y - 4.5 * y
    * z * z - c1 * zd - c2 * z`` without the products whose coefficient is
    0.0, where ``one_mode_accelerations`` negates the sum ``3.0 * y + ...``
    of all of them.  Rounding is symmetric and adding a zero product
    changes no nonzero sum, so the two forms agree bit for bit except in
    the sign of a zero sum, and sums and products carry such a sign only
    into other zeros: the states of the two are always equal under ``==``.
    A sum is zero where all its products are: on the invariant subspaces
    seeded with a pair of -0.0, such as (y, ydot) = (-0.0, -0.0) (with
    couplings, which feed each equation from the other, only at rest), or
    where the coupling products cancel the others exactly.
    ``make_initial(sigma)`` starts off those subspaces.  A left-out 0.0 *
    inf would be NaN, but a stage with an infinite value is non-finite in
    either form, and both end the step outside the guard.
    """
    on1, on2, on3, on4 = shape
    ay = "-3.0 * {y} - 1.5 * {y} * {y} * {y} - 4.5 * {y} * {z} * {z}"
    az = "-7.0 * {z} - 4.5 * {z} * {z} * {z} - 13.5 * {z} * {y} * {y}"
    ay += (" - c1 * {zd}" if on1 else "") + (" - c2 * {z}" if on2 else "")
    az += (" - c3 * {yd}" if on3 else "") + (" - c4 * {y}" if on4 else "")
    stages = {}
    for k, suffix in enumerate(("", "2", "3", "4"), 1):
        names = {v: v + suffix for v in ("y", "z", "yd", "zd")}
        stages[f"ay{k}"] = ay.format(**names)
        stages[f"az{k}"] = az.format(**names)
    namespace = {"BLOWUP_LIMIT": BLOWUP_LIMIT}
    code = compile(_ONE_MODE_KERNEL.format(**stages), f"<1-mode RK4 kernel {shape}>", "exec")
    exec(code, namespace)
    return namespace["bind"]


def _kernel(spec: ModelSpec) -> _Advance:
    """The fixed-step RK4 ``advance`` of one model, the one place it is chosen.

    At m = 1 it is ``_one_mode_kernel`` of the model's coupling shape,
    bound to its coefficients.  The m-mode kernel calls ``_rhs(spec)`` at
    t = 0 (the model is autonomous) and forms u + (h/6) (k1 + 2 (k2 + k3) +
    k4) after the stages u + (h/2) k and u + h k3, in the order the pinned
    runs check.
    """
    m = spec.m
    if m == 1:
        c = _cross_coefficients(spec)
        return _one_mode_kernel(tuple(v != 0.0 for v in c))(*c)
    f = _rhs(spec)

    def advance_m(u, h, i, n, every, t0, peak, level, record):
        h2 = 0.5 * h
        h6 = h / 6.0
        sample = i - i % every + every
        while i < n:
            for i in range(i + 1, (sample if sample < n else n) + 1):
                k1 = f(0.0, u)
                k2 = f(0.0, tuple([a + h2 * b for a, b in zip(u, k1)]))
                k3 = f(0.0, tuple([a + h2 * b for a, b in zip(u, k2)]))
                k4 = f(0.0, tuple([a + h * b for a, b in zip(u, k3)]))
                u = tuple([
                    a + h6 * (b1 + 2.0 * (b2 + b3) + b4)
                    for a, b1, b2, b3, b4 in zip(u, k1, k2, k3, k4)
                ])
                if not _within_guard(u):
                    return None, i, peak, False
                az = abs(u[m])
                if az >= peak:
                    peak = az
                    if az >= level:
                        return u, i, peak, True
            if i == sample:
                record(t0 + i * h, u)
                sample += every
        return u, i, peak, False

    return advance_m


def _rhs(spec: ModelSpec) -> Callable[[float, tuple], tuple]:
    """The right-hand side ``f(t, u)`` of the model on the flat state tuple:
    ``one_mode_accelerations`` at m = 1, else the m-mode core that
    ``rhs_m_mode`` calls.  ``AdaptiveDriver`` and the m-mode kernel take it.
    """
    m = spec.m
    if m == 1:
        c1, c2, c3, c4 = _cross_coefficients(spec)

        def f1(t, u):
            y, z, yd, zd = u
            ay, az = one_mode_accelerations(y, z, yd, zd, c1, c2, c3, c4)
            return (yd, zd, ay, az)

        return f1

    accelerations = _m_mode_accelerations(m)

    def fm(t, u):
        ydd, zdd = accelerations(u)
        return u[2 * m :] + tuple(ydd.tolist() + zdd.tolist())

    return fm


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

# the tableau unpacked once for the written-out stages of AdaptiveDriver.advance
_, _C1, _C2, _C3, _C4, _, _ = _DP_C
(
    _,
    (_A10,),
    (_A20, _A21),
    (_A30, _A31, _A32),
    (_A40, _A41, _A42, _A43),
    (_A50, _A51, _A52, _A53, _A54),
    (_A60, _A61, _A62, _A63, _A64, _A65),
) = _DP_A
_E0, _E1, _E2, _E3, _E4, _E5, _E6 = _DP_E


class AdaptiveDriver:
    """Embedded Dormand-Prince 5(4) integrator over tuple-of-float states.

    The right-hand side ``f(t, u)`` takes a tuple of floats and returns a
    sequence of floats.  The driver owns (t, u, h) and advances to requested
    target times; the first-same-as-last property is used to save one
    evaluation per step.

    ``on_step(t, u)`` callbacks fire after every accepted step, which is how
    callers track onset events, running maxima, or dense output.

    ``t0`` and every component of ``u0`` must be finite, ``u0`` non-empty,
    and ``h0`` and both tolerances finite and positive; a ValueError says
    which is not.  Only a step with every component finite is accepted;
    how large a state may grow is the caller's rule, which ``simulate``
    applies to each accepted step through ``on_step``.
    """

    def __init__(
        self,
        f: Callable[[float, Sequence[float]], Sequence[float]],
        t0: float,
        u0: Sequence[float],
        rel_tol: float = 1e-10,
        abs_tol: float = 1e-12,
        h0: float = 1e-3,
    ):
        self.f = f
        self.t = float(t0)
        self.u = tuple(float(v) for v in u0)
        self.rel_tol = rel_tol
        self.abs_tol = abs_tol
        self.h = float(h0)
        self._k1: Optional[tuple[float, ...]] = None
        if not math.isfinite(self.t):
            raise ValueError("t0 must be finite")
        if not self.u:
            raise ValueError("u0 must not be empty")
        if not all(math.isfinite(v) for v in self.u):
            raise ValueError("u0 must be finite")
        # NaN fails these comparisons too
        for name, v in (("h0", self.h), ("rel_tol", rel_tol), ("abs_tol", abs_tol)):
            if not 0.0 < v < math.inf:
                raise ValueError(f"{name} must be finite and positive")

    def advance(
        self,
        t_target: float,
        on_step: Optional[Callable[[float, tuple[float, ...]], None]] = None,
    ) -> tuple[float, tuple[float, ...]]:
        """Integrate forward until t_target, stepping exactly onto it.

        t_target must be finite and not before the current time.
        """
        if not self.t <= t_target < math.inf:
            raise ValueError("targets must be finite and nondecreasing")
        f = self.f
        rtol = self.rel_tol
        atol = self.abs_tol
        while self.t < t_target:
            t = self.t
            # a sub-roundoff residual gap would shrink h below the collapse
            # floor; snap onto the target instead
            if t_target - t <= _TIME_SNAP * max(1.0, abs(t)):
                self.t = t_target
                break
            u = self.u
            if self._k1 is None:
                self._k1 = tuple(f(t, u))
            k0 = self._k1
            h = min(self.h, t_target - t)
            capped = h < self.h
            while True:
                if h < _MIN_STEP_FACTOR * max(1.0, abs(t)):
                    raise StepSizeCollapseError(t)
                # Each stage state is ui + h * sum(a_j * k_j[i]) written out
                # as a left-to-right sum from the int 0, the float operations
                # of sum() up to Python 3.11 (3.12 compensates sum(), which
                # would tie the bits to the Python version).  The 0 turns a
                # -0.0 first term into 0.0, and the zero coefficients stay
                # because 0.0 * k carries a NaN or inf in k and the sign of a
                # zero.  Stage states stay tuples, which f may slice and
                # concatenate.  c = 1 for the last two stages.
                us = tuple([ui + h * (0 + _A10 * a) for ui, a in zip(u, k0)])
                k1 = tuple(f(t + _C1 * h, us))
                us = tuple([
                    ui + h * (0 + _A20 * a + _A21 * b)
                    for ui, a, b in zip(u, k0, k1)
                ])
                k2 = tuple(f(t + _C2 * h, us))
                us = tuple([
                    ui + h * (0 + _A30 * a + _A31 * b + _A32 * c)
                    for ui, a, b, c in zip(u, k0, k1, k2)
                ])
                k3 = tuple(f(t + _C3 * h, us))
                us = tuple([
                    ui + h * (0 + _A40 * a + _A41 * b + _A42 * c + _A43 * d)
                    for ui, a, b, c, d in zip(u, k0, k1, k2, k3)
                ])
                k4 = tuple(f(t + _C4 * h, us))
                us = tuple([
                    ui + h * (0 + _A50 * a + _A51 * b + _A52 * c + _A53 * d + _A54 * e)
                    for ui, a, b, c, d, e in zip(u, k0, k1, k2, k3, k4)
                ])
                k5 = tuple(f(t + h, us))
                # the last stage state is the 5th-order solution (FSAL)
                unew = tuple([
                    ui + h * (
                        0 + _A60 * a + _A61 * b + _A62 * c + _A63 * d + _A64 * e
                        + _A65 * g
                    )
                    for ui, a, b, c, d, e, g in zip(u, k0, k1, k2, k3, k4, k5)
                ])
                k6 = tuple(f(t + h, unew))
                err = 0.0
                for ui, vi, a, b, c, d, e, g, q in zip(
                    u, unew, k0, k1, k2, k3, k4, k5, k6
                ):
                    r = h * (
                        0 + _E0 * a + _E1 * b + _E2 * c + _E3 * d + _E4 * e
                        + _E5 * g + _E6 * q
                    ) / (atol + rtol * max(abs(ui), abs(vi)))
                    err += r * r
                err = math.sqrt(err / len(u))
                if err <= 1.0 and all(math.isfinite(v) for v in unew):
                    break
                shrink = 0.9 * err**-0.2 if (err > 0.0 and math.isfinite(err)) else 0.1
                h *= max(0.1, min(0.9, shrink))
            # accept
            tnew = t + h
            factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err**-0.2))
            if not capped or h * factor < self.h:
                self.h = h * factor
            self.t = tnew
            self.u = unew
            self._k1 = k6
            if on_step is not None:
                on_step(tnew, unew)
        return self.t, self.u


# ---------------------------------------------------------------------------
# Simulation


def _split_horizon(t_end: float, h: float) -> tuple[int, float]:
    """Number of full steps plus a final short step landing on t_end."""
    n = round(t_end / h)
    if abs(n * h - t_end) <= 1e-9 * max(1.0, t_end):
        return n, 0.0
    n = math.floor(t_end / h)
    return n, t_end - n * h


_BLOWUP_REASON = f"blow-up: state magnitude reached {BLOWUP_LIMIT:g}"

_ONSET_REASON = "stopped at onset"


def _within_guard(u: Sequence[float]) -> bool:
    """Whether every component lies strictly inside +-BLOWUP_LIMIT.

    NaN fails the comparison, so a non-finite state is outside.
    """
    return all(-BLOWUP_LIMIT < v < BLOWUP_LIMIT for v in u)


class _Stopped(Exception):
    """Ends a run early; ``_Observer.stop`` has recorded why and when."""


#: Takes the sample blocks of each run, set only inside ``_streaming``.
_consumer: Optional[Callable[[array], None]] = None


@contextmanager
def _streaming(consume: Optional[Callable[[array], None]]):
    """Within this block, each ``simulate`` run that returns has handed
    ``consume`` all its samples in order, as flat arrays of the rows
    (t, y..., z..., ydot..., zdot...): one block of ``_CSV_CHUNK_ROWS`` rows
    as soon as it is recorded, and the rows left when the run ends, at
    t_end, at a blow-up, at the onset stop or at a step-size collapse.
    An exception ``consume`` raises ends the run.  None hands nothing on."""
    global _consumer
    before, _consumer = _consumer, consume
    try:
        yield
    finally:
        _consumer = before


class _Observer:
    """Fills the Trajectory of one run: onset, running max |z1|, samples.

    Every driver hands it the flat state (y..., z..., ydot..., zdot...) as
    a tuple of floats, so z1 is ``u[m]``.  ``level`` is the |z1| at which
    the onset fires, and inf once it has fired or when the seed is zero.
    The fixed-step kernel tracks the guard, the running max and the level
    and records its samples, and ``settle`` takes each kernel call's
    result; ``watch`` checks all three for every accepted step of the
    adaptive driver.  ``record`` appends every sample to the flat array
    behind ``traj.samples`` and hands each completed block on to the
    ``_streaming`` consumer, and ``hand_on`` the rows left once the run
    has ended.
    Every early end of a run, a blow-up, a step-size collapse or the onset
    step under ``stop_at_onset`` (recorded as the last sample), goes
    through ``stop``, which writes ``traj.terminated_early`` and raises
    _Stopped for ``simulate`` to catch.
    """

    def __init__(
        self, spec: ModelSpec, t0: float, u0, onset_gain: float, stop_at_onset: bool
    ):
        self.m = spec.m
        self.z_seed = abs(u0[self.m])
        self.level = onset_gain * self.z_seed if self.z_seed > 0.0 else math.inf
        self.stop_at_onset = stop_at_onset
        self.buf = array("d")
        self.traj = Trajectory(spec, _Samples(spec, self.buf), max_torsion=self.z_seed)
        self.consume = _consumer
        self.block = _CSV_CHUNK_ROWS * (4 * self.m + 1)
        # doubles of buf handed on so far, and the length that completes a block
        self.handed = 0
        self.block_end = sys.maxsize if self.consume is None else self.block
        self.record(t0, u0)

    def watch(self, t: float, u: tuple[float, ...]) -> None:
        if not _within_guard(u):
            self.stop(t, _BLOWUP_REASON)
        az = abs(u[self.m])
        if az > self.traj.max_torsion:
            self.traj.max_torsion = az
        if az >= self.level:
            self.fire(t, u)

    def settle(self, t: float, u, peak: float, fired: bool) -> None:
        """Take the result of one fixed-step kernel call ending at t."""
        self.traj.max_torsion = peak
        if u is None:
            self.stop(t, _BLOWUP_REASON)
        if fired:
            self.fire(t, u)

    def fire(self, t: float, u: tuple[float, ...]) -> None:
        self.level = math.inf
        self.traj.onset = OnsetEvent(t_onset=t, gain=abs(u[self.m]) / self.z_seed)
        if self.stop_at_onset:
            self.record(t, u)
            self.stop(t, _ONSET_REASON)

    def stop(self, t: float, reason: str) -> NoReturn:
        self.traj.terminated_early = (t, reason)
        raise _Stopped

    def record(self, t: float, u: tuple[float, ...]) -> None:
        buf = self.buf
        # one resize a row, where extend grows the array value by value
        buf.fromlist([t, *u])
        if len(buf) >= self.block_end:
            self.hand_on()

    def hand_on(self) -> None:
        """Hand the consumer the rows recorded since its last block."""
        end = len(self.buf)
        if self.consume is not None and end > self.handed:
            self.consume(self.buf[self.handed : end])
            self.handed = end
            self.block_end = end + self.block


def check_onset_gain(onset_gain: float) -> None:
    """Reject an onset gain that is not finite or does not exceed 1."""
    if not 1.0 < onset_gain < math.inf:
        raise ValueError("onset_gain must be finite and exceed 1")


def _check_sample_memory(spec: ModelSpec, config: IntegratorConfig) -> int:
    """Reject a run whose samples would hold more doubles than MAX_SAMPLES
    one-mode samples of 5 doubles (400 MB); else return how many such runs
    that budget holds at once.

    A sample is 4m + 1 doubles, so at m = 1 this is the check that
    ``IntegratorConfig`` makes, on the same ``_sample_count``, and at
    m = 1000 it admits about 12 500 samples.
    """
    doubles = _sample_count(config) * (4 * spec.m + 1)
    if doubles > 5 * MAX_SAMPLES:
        raise ValueError(
            f"samples would hold {doubles:.3g} doubles (the sample count "
            f"times 4m + 1); at most {5 * MAX_SAMPLES:.0e} (400 MB)"
        )
    return int(5 * MAX_SAMPLES // doubles)


def _check_fixed_step(spec: ModelSpec, config: IntegratorConfig) -> None:
    """Reject a fixed RK4 step past h * sqrt(m^4 + 2) < 2 sqrt(2): RK4's reach
    on the imaginary axis over the stiffest vertical frequency."""
    if config.scheme is Scheme.FIXED_RK4 and config.h**2 * (spec.m**4 + 2) >= 8.0:
        raise ValueError(f"fixed RK4 step h={config.h:g} at m={spec.m} breaks h * sqrt(m^4 + 2)"
                         " < 2 sqrt(2), its stability bound (necessary, not sufficient)")


def simulate(
    spec: ModelSpec,
    initial: SystemState,
    config: IntegratorConfig,
    onset_gain: float = 100.0,
    *,
    stop_at_onset: bool = False,
) -> Trajectory:
    """Integrate to t_end, recording samples, energy, onset, and blow-up.

    The onset event is the first accepted step at which |z1| reaches
    onset_gain times |z1(0)|; detection is disabled when the torsional seed
    is exactly zero.  Blow-up or step-size collapse stops the run early and
    is reported in ``terminated_early``; samples up to that point are kept.
    A blow-up is a state component at or beyond BLOWUP_LIMIT in magnitude,
    or NaN.  The run checks it on the initial state, where it stops the run
    at t0 with the seed as the only sample, and on every step of either
    scheme.  With ``stop_at_onset`` the run also ends at the onset step,
    which becomes the last sample, and ``terminated_early`` is
    ``(t_onset, "stopped at onset")``.
    """
    check_onset_gain(onset_gain)
    _check_sample_memory(spec, config)
    _check_fixed_step(spec, config)
    if initial.m != spec.m:
        raise ValueError(f"initial state has m={initial.m}, spec has m={spec.m}")
    t0, u0 = initial.t, initial.flat()
    obs = _Observer(spec, t0, u0, onset_gain, stop_at_onset)
    try:
        if not _within_guard(u0):
            obs.stop(t0, _BLOWUP_REASON)
        if config.scheme is Scheme.ADAPTIVE_EMBEDDED:
            _run_adaptive(obs, t0, u0, config)
        else:
            _run_fixed(obs, _kernel(spec), t0, u0, config)
    except _Stopped:
        pass
    obs.hand_on()
    return obs.traj


def _run_fixed(
    obs: _Observer, advance: _Advance, t0: float, u, config: IntegratorConfig
) -> None:
    """Fixed-step loop: n full steps of h, then a short step onto t_end.

    One kernel call runs the n steps and records every ``_sample_stride``-th
    step; it returns early only at a blow-up or at the onset step, which
    ``obs.settle`` takes before the run goes on with one more call.  The
    short step onto t_end is one more call, and its sample is recorded at
    t_end here.
    """
    h = config.h
    every = _sample_stride(config)
    n_steps, h_tail = _split_horizon(config.t_end, h)
    peak = obs.traj.max_torsion
    i, fired = 0, True
    while fired:
        u, i, peak, fired = advance(u, h, i, n_steps, every, t0, peak, obs.level, obs.record)
        obs.settle(t0 + i * h, u, peak, fired)
        if fired and i % every == 0:
            obs.record(t0 + i * h, u)
    if h_tail > 0.0:
        # a stride of 2 records nothing within the one step
        u, _, peak, fired = advance(u, h_tail, 0, 1, 2, t0, peak, obs.level, obs.record)
        obs.settle(t0 + config.t_end, u, peak, fired)
        obs.record(t0 + config.t_end, u)
    elif n_steps % every:
        obs.record(t0 + n_steps * h, u)


def _run_adaptive(obs: _Observer, t0: float, u0, config: IntegratorConfig) -> None:
    """Dormand-Prince onto each sample time; ``obs.watch`` guards each step."""
    driver = AdaptiveDriver(
        _rhs(obs.traj.spec),
        t0,
        u0,
        rel_tol=config.rel_tol,
        abs_tol=config.abs_tol,
        h0=config.h,
    )
    # a sample interval longer than the horizon still ends on t_end
    n_samples = max(1, math.ceil(config.t_end / config.sample_every - 1e-9))
    try:
        for k in range(1, n_samples + 1):
            target = t0 + min(k * config.sample_every, config.t_end)
            obs.record(*driver.advance(target, on_step=obs.watch))
    except StepSizeCollapseError as exc:
        obs.stop(exc.t, "step-size collapse: no acceptable step found")
