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
end, at a blow-up or at the onset step.  Every kernel is compiled from one
source, once per mode count: up to 8 modes once per coupling shape (which
aerodynamic coefficients are nonzero) with each state component in a local
of its own, at m = 1 without the products whose coefficient is zero, at
m > 1 over the m-mode accelerations written out on floats with numpy's
bits; above 8 modes over tuples and ``_rhs``, with the same float
operations.  The Dormand-Prince driver controls its step size in one plain loop and writes
each stage out as one left-to-right sum, so its results are also the same
on every Python version.  Each sum starts from 0.0 rather than sum()'s int
0: Python adds an int to a float as that int converted, so both give the
same bits (-0.0 + 0.0 is 0.0), and the float start skips the slower
mixed-type add.  Its stages are compiled from one source once per state
size, with the same float operations at every size: up to 8 components
each stage result is unpacked straight into locals, above they stay
tuples.  The error norm of the stages and the step control take their
minima and maxima by comparisons, with the values of the builtin calls
they replace.

A run keeps its samples as one flat array of doubles, 4m + 1 a sample;
``Trajectory.samples`` reads them as (state, energy) pairs, built only for
the entries read.  Given ``on_block``, a run also hands its samples on,
a block at a time, while it records them.
"""

from __future__ import annotations

import enum
import functools
import math
import operator
import sys
from array import array
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from typing import Callable, NoReturn, Optional

from .model import (
    EnergyBreakdown,
    ModelSpec,
    SystemState,
    _cross_coefficients,
    _m_mode_accelerations,
    _quiet_floats,
    _scalar_accelerations,
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
#: one-mode samples (``_check_run``).
MAX_SAMPLES = 10**7

#: |sigma| from here up overflows the quartic term of the m = 1 initial energy.
_SIGMA_LIMIT = sys.float_info.max**0.25

#: Hard floor on adaptive step size, relative to the current time scale.
_MIN_STEP_FACTOR = 1e-14

#: Residual gap to a target time treated as already reached (roundoff).
_TIME_SNAP = 1e-13

#: Sample rows in each block a run hands to its ``on_block``, and in each
#: write of the trajectory CSV writer.
_CSV_CHUNK_ROWS = 1024


class Scheme(enum.Enum):
    FIXED_RK4 = "fixed_rk4"
    ADAPTIVE_EMBEDDED = "adaptive_embedded"


@dataclass(frozen=True)
class IntegratorConfig:
    """Scheme selection, step/tolerance settings, horizon, and sampling.

    A run takes at most MAX_STEPS steps t_end / h.  An adaptive sample
    interval must exceed the driver's time snap.  The sample memory and the
    fixed-step bound depend on the model too, so ``_check_run`` checks them
    when a run starts.
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
    """Samples a run records after its seed: t_end / sample_every under the
    adaptive scheme, t_end / (h * stride) under fixed RK4, which records
    every ``_sample_stride`` steps."""
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

#: Largest mode count whose fixed RK4 steps ``_kernel`` and whose
#: right-hand side ``_rhs`` write out on scalar locals, through
#: ``_scalar_accelerations``; above it both stay on tuples and on numpy's
#: ``_m_mode_accelerations``.  Against the tuple layout's step, the scalar
#: one is 2.0-2.3 times as fast at m = 2 and 3, 1.6-1.8 at m = 4 and 1.2-1.4 at
#: m = 8 (34 against 55 us a step at m = 4), but within 15% either way at
#: m = 9 and 10 and slower from m = 11 on, while its compile time grows.
_SCALAR_MAX_MODES = 8

#: Frame of every RK4 kernel: ``_rk4_kernel`` fills in the parameters
#: ``{bound}`` of bind, the state names ``{state}``, the blow-up guard
#: ``{guard}`` and the statements of one step ``{step}``, which set z1, in
#: the 16-space indent of the inner loop.
_RK4_KERNEL = """
def bind({bound}):
    def advance(u, h, i, n, every, t0, peak, level, record):
        {state} = u
        h2 = 0.5 * h
        h6 = h / 6.0
        lim = BLOWUP_LIMIT
        nlim = -lim
        sample = i - i % every + every
        while i < n:
            for i in range(i + 1, (sample if sample < n else n) + 1):
{step}
                # NaN fails every comparison, so this also catches non-finite values
                if not ({guard}):
                    return None, i, peak, False
                # abs(z1) of a finite z1: 0.0 - z1 turns -0.0 into 0.0
                az = z1 if z1 > 0.0 else 0.0 - z1
                if az >= peak:
                    peak = az
                    if az >= level:
                        return ({state}), i, peak, True
            if i == sample:
                record(t0 + i * h, ({state}))
                sample += every
        return ({state}), i, peak, False

    return advance
"""


@functools.lru_cache(maxsize=None)
def _rk4_kernel(m: int, shape: tuple[bool, ...], scalar: bool) -> Callable[..., _Advance]:
    """``bind(...) -> advance``: the RK4 kernel of m modes in the layout
    that ``_kernel`` chooses.  Both layouts form each stage state u + (h/2)
    k (then u + h k3) and the step u + (h/6) (k1 + 2 (k2 + k3) + k4)
    component by component from the same two expressions, so they do the
    same float operations.  The tuple layout, ``bind(f)``, keeps the state
    and the stage derivatives in tuples and calls ``f(0.0, u)`` of ``_rhs``
    each stage (the model is autonomous); the shape plays no part in it,
    and its source does not grow with m.

    The scalar layout, ``bind(c1, c2, c3, c4)``, has every state component
    in a local of its own and is compiled for one coupling shape, which of
    the four ``_cross_coefficients`` are nonzero: isolated (or delta = 0),
    cross or crosszero at m = 1, isolated at m > 1.  The coefficients are
    bound per call, so a shape has one code object whatever its delta.  At
    m > 1 each stage unpacks one call of ``_scalar_accelerations(m)`` into
    its accelerations, which gives the bits of ``_rhs``'s numpy core.  At
    m = 1 each acceleration is written as ``-3.0 * y - 1.5 * y * y * y -
    4.5 * y * z * z - c1 * zd - c2 * z`` without the products whose
    coefficient is 0.0, where ``one_mode_accelerations`` negates the sum
    ``3.0 * y + ...`` of all of them.  Rounding is symmetric and adding a
    zero product changes no nonzero sum, so the two forms agree bit for bit
    except in the sign of a zero sum, and sums and products carry such a
    sign only into other zeros: the states of the two are always equal
    under ``==``.  A sum is zero where all its products are: on the
    invariant subspaces seeded with a pair of -0.0, such as (y, ydot) =
    (-0.0, -0.0) (with couplings, which feed each equation from the other,
    only at rest), or where the coupling products cancel the others
    exactly.  ``make_initial(sigma)`` starts off those subspaces.  A
    left-out 0.0 * inf would be NaN, but a stage with an infinite value is
    non-finite in either form, and both end the step outside the guard.
    The source grows with m: about 1 ms of compile at m = 1, 2 ms at m = 4
    and 3 ms at m = 8, besides the accelerations'.
    """
    modes = range(1, m + 1)
    components = [(v, j) for v in ("y", "z", "yd", "zd") for j in modes]

    def name(v: str, j: int, k: int = 1) -> str:
        # the component v_j of stage k's state; stage 1's is u's
        return f"{v}{j}" if k == 1 else f"{v}{j}_{k}"

    def slope(v: str, j: int, k: int) -> str:
        # its derivative at stage k: a velocity, or an acceleration
        return name(v + "d", j, k) if v in ("y", "z") else f"a{v[0]}{j}_{k}"

    def stage(x: str, k: int, dx: str) -> str:
        # a component of stage k's state, from x along stage k - 1's slope dx
        return f"{x} + {'h' if k == 4 else 'h2'} * {dx}"

    def update(x: str, k1: str, k2: str, k3: str, k4: str) -> str:
        return f"{x} + h6 * ({k1} + 2.0 * ({k2} + {k3}) + {k4})"

    on1, on2, on3, on4 = shape
    step = []
    for k in range(1, 5):
        if not scalar:
            # a and b are components of u and of the stage derivatives k1-k4
            at = "u" if k == 1 else f"tuple([{stage('a', k, 'b')} for a, b in zip(u, k{k - 1})])"
            step.append(f"k{k} = f(0.0, {at})")
            continue
        if k > 1:
            step += [f"{name(v, j, k)} = {stage(name(v, j), k, slope(v, j, k - 1))}"
                     for v, j in components]
        if m == 1:
            y, z, yd, zd = (name(v, 1, k) for v in ("y", "z", "yd", "zd"))
            ay = f"-3.0 * {y} - 1.5 * {y} * {y} * {y} - 4.5 * {y} * {z} * {z}"
            az = f"-7.0 * {z} - 4.5 * {z} * {z} * {z} - 13.5 * {z} * {y} * {y}"
            ay += (f" - c1 * {zd}" if on1 else "") + (f" - c2 * {z}" if on2 else "")
            az += (f" - c3 * {yd}" if on3 else "") + (f" - c4 * {y}" if on4 else "")
            step += [f"ay1_{k} = {ay}", f"az1_{k} = {az}"]
        else:
            accelerations = ", ".join(slope(v, j, k) for v, j in components[2 * m :])
            positions = ", ".join(name(v, j, k) for v, j in components[: 2 * m])
            step.append(f"{accelerations} = acc({positions})")
    namespace = {"BLOWUP_LIMIT": BLOWUP_LIMIT}
    if scalar:
        step += [f"{name(v, j)} = {update(name(v, j), *(slope(v, j, k) for k in range(1, 5)))}"
                 for v, j in components]
        state = [name(v, j) for v, j in components]
        bound, guard = "c1, c2, c3, c4", " and ".join(f"nlim < {v} < lim" for v in state)
        if m > 1:
            namespace["acc"] = _scalar_accelerations(m)
    else:
        step += [f"u = tuple([{update('a', 'b1', 'b2', 'b3', 'b4')}"
                 " for a, b1, b2, b3, b4 in zip(u, k1, k2, k3, k4)])", f"z1 = u[{m}]"]
        state, bound, guard = ["u"], "f", "all([nlim < v < lim for v in u])"
    source = _RK4_KERNEL.format(bound=bound, state=", ".join(state), guard=guard,
                                step="\n".join(" " * 16 + x for x in step))
    exec(compile(source, f"<{m}-mode RK4 kernel {shape if scalar else 'on tuples'}>", "exec"),
         namespace)
    return namespace["bind"]


def _kernel(spec: ModelSpec) -> _Advance:
    """The fixed-step RK4 ``advance`` of one model, the one place its layout
    is chosen: up to ``_SCALAR_MAX_MODES`` modes ``_rk4_kernel``'s scalar
    layout of the model's coupling shape, bound to its coefficients, and
    above them its tuple layout, bound to ``_rhs(spec)``.  Both take the
    stages in the order the pinned runs check.
    """
    c = _cross_coefficients(spec)
    shape = tuple(v != 0.0 for v in c)
    if spec.m <= _SCALAR_MAX_MODES:
        return _rk4_kernel(spec.m, shape, True)(*c)
    return _rk4_kernel(spec.m, shape, False)(_rhs(spec))


def _rhs(spec: ModelSpec) -> Callable[[float, tuple], tuple]:
    """The right-hand side ``f(t, u)`` of the model on the flat state tuple:
    ``one_mode_accelerations`` at m = 1, up to ``_SCALAR_MAX_MODES`` modes
    ``_scalar_accelerations``, and above them the numpy core that
    ``rhs_m_mode`` calls, which gives the same bits.  ``AdaptiveDriver``
    and the tuple layout of the RK4 kernel take it.
    """
    m = spec.m
    if m == 1:
        c1, c2, c3, c4 = _cross_coefficients(spec)

        def f1(t, u):
            y, z, yd, zd = u
            ay, az = one_mode_accelerations(y, z, yd, zd, c1, c2, c3, c4)
            return (yd, zd, ay, az)

        return f1

    if m <= _SCALAR_MAX_MODES:
        scalar = _scalar_accelerations(m)

        def fs(t, u):
            return u[2 * m :] + scalar(*u[: 2 * m])

        return fs

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

#: ``stages(f, t, u, k0, h, rtol, atol) -> (unew, k6, err, finite)``: one
#: tried Dormand-Prince step of h from (t, u), whose derivative there is k0:
#: the 5th-order solution, its derivative (FSAL), the error norm and whether
#: every component of the solution is finite.
_Stages = Callable[..., tuple[tuple[float, ...], tuple[float, ...], float, bool]]


class AdaptiveDriver:
    """Embedded Dormand-Prince 5(4) integrator over tuple-of-float states.

    The right-hand side ``f(t, u)`` takes a tuple of floats and returns an
    iterable of floats, a generator too.  The driver owns (t, u, h) and
    advances to requested target times; the first-same-as-last property is
    used to save one evaluation per step.

    ``on_step(t, u)`` callbacks fire after every accepted step, which is how
    callers track onset events, running maxima, or dense output.

    ``controlled``, if given, is how many leading components of the state
    enter the error norm (all by default).  The rest ride along on the steps
    those choose, with no error control of their own: where the first
    ``controlled`` components of ``f`` do not read them, those components
    take the steps, and the bits, of a driver over them alone.  The finite
    test still covers every component.

    ``t0`` and every component of ``u0`` must be finite, ``u0`` non-empty,
    and ``h0`` and both tolerances finite and positive; a ValueError says
    which is not, and ``advance`` raises one when ``f`` returns another
    number of values than the state has.  Only a step with every component
    finite is accepted; how large a state may grow is the caller's rule,
    which ``simulate`` applies to each accepted step through ``on_step``.

    ``advance`` controls the step size; each tried step is one call of the
    stage function ``_dp_stages``.  A state of at most ``_DP_SCALAR_MAX`` =
    8 components (every Hill system, adaptive ``simulate`` at m <= 2) takes
    its scalar layout, with each component in a local of its own, where the
    driver's own work costs more than ``f``.  A larger state takes its
    tuple layout, with the same floats: there the m-mode right-hand side
    costs most of a step, 5-8 us a call even where ``_rhs`` writes it out
    on floats (m <= 8, as the fixed-step kernels), while the scalar
    source, and its compile time, grow with n (0.2 s and 30 MB at n = 400).
    """

    def __init__(
        self,
        f: Callable[[float, tuple[float, ...]], Iterable[float]],
        t0: float,
        u0: Sequence[float],
        rel_tol: float = 1e-10,
        abs_tol: float = 1e-12,
        h0: float = 1e-3,
        *,
        controlled: Optional[int] = None,
    ):
        self.f = f
        self.t = float(t0)
        self.u = tuple(float(v) for v in u0)
        self.controlled = len(self.u) if controlled is None else controlled
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
        if not (isinstance(self.controlled, int) and 1 <= self.controlled <= len(self.u)):
            raise ValueError(f"controlled must be an int from 1 to {len(self.u)}")

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
        n = len(self.u)
        stages = _dp_stages(n, n <= _DP_SCALAR_MAX, self.controlled)
        while self.t < t_target:
            t = self.t
            # max(1.0, abs(t)), the time scale of the snap and the floor
            scale = t if t > 1.0 else -t if t < -1.0 else 1.0
            # a sub-roundoff residual gap would shrink h below the collapse
            # floor; snap onto the target instead
            gap = t_target - t
            if gap <= _TIME_SNAP * scale:
                self.t = t_target
                break
            u = self.u
            if self._k1 is None:
                self._k1 = _rhs_values(f(t, u), n)
            k0 = self._k1
            # min(self.h, gap)
            h = self.h
            capped = gap < h
            if capped:
                h = gap
            floor = _MIN_STEP_FACTOR * scale
            while True:
                if h < floor:
                    raise StepSizeCollapseError(t)
                unew, k6, err, finite = stages(f, t, u, k0, h, rtol, atol)
                if err <= 1.0 and finite:
                    break
                # max(0.1, min(0.9, 0.9 err^-0.2)) for a finite err > 0, else 0.1
                if 0.0 < err < math.inf:
                    shrink = 0.9 * err**-0.2
                    h *= 0.9 if shrink > 0.9 else shrink if shrink > 0.1 else 0.1
                else:
                    h *= 0.1
            # accept; err lies in [0, 1], where 0.9 err^-0.2 >= 0.9, so of
            # min(5.0, max(0.2, 0.9 err^-0.2)) only the cap of 5 can bind
            tnew = t + h
            factor = 0.9 * err**-0.2 if err > 0.0 else 5.0
            if factor > 5.0:
                factor = 5.0
            if not capped or h * factor < self.h:
                self.h = h * factor
            self.t = tnew
            self.u = unew
            self._k1 = k6
            if on_step is not None:
                on_step(tnew, unew)
        return self.t, self.u


def _length_error(got: int, n: int) -> ValueError:
    return ValueError(f"right-hand side returned {got} values for a state of {n}")


def _rhs_values(k: Sequence[float], n: int) -> tuple[float, ...]:
    """``tuple(k)``, refused unless it holds one value per state component
    (``zip`` would drop the rest, or the components past its end)."""
    k = tuple(k)
    if len(k) != n:
        raise _length_error(len(k), n)
    return k


def _unpacking_failed(k: Sequence[float], n: int) -> NoReturn:
    """Raise, in the handler of the ValueError that unpacking the stage
    result k into n locals raised, ``_length_error`` for a result of
    another length, else that ValueError again: an iterator's length is
    lost once it is consumed, and a result of n values raised it itself."""
    if hasattr(k, "__len__") and len(k) != n:
        raise _length_error(len(k), n) from None
    raise


#: Largest state size whose steps ``AdaptiveDriver.advance`` takes through
#: the scalar layout of ``_dp_stages``: every Hill system (2, 6 and 8) and
#: adaptive ``simulate`` at m <= 2.
_DP_SCALAR_MAX = 8


@functools.lru_cache(maxsize=None)
def _dp_stages(n: int, scalar: bool, k: int) -> _Stages:
    """The stage function of ``AdaptiveDriver.advance`` for states of n
    components, in the layout that ``advance`` chooses, whose error norm
    is the root mean square over the first k of them; the finite verdict
    covers all n.

    Each stage state is ui + h * sum(a_j * k_j[i]), written out as a
    left-to-right sum from 0.0: the float operations of sum() up to Python
    3.11 (3.12 compensates sum(), which would tie the bits to the Python
    version).  The 0.0 start gives the bits of sum()'s int 0, as Python
    adds an int to a float as that int converted, and turns a -0.0 first
    term into 0.0; the zero coefficients stay because 0.0 * k carries a NaN
    or inf in k and the sign of a zero.  The scale max(abs(ui), abs(vi)) of
    the error norm is taken by comparisons, with max()'s value for a finite
    ui and any vi.  Both layouts write these sums and error terms from the
    same expressions, in the same order, so they agree bit for bit.

    The scalar layout has each stage state, stage derivative and error term
    in a local of its own.  Each stage result is unpacked straight into its
    locals, a generator's too, and the FSAL derivative is built from them;
    a component v of the solution is finite where v - v == 0.0.  Its source
    grows with n, and so does its compile time: about 4 ms at n = 8, the
    largest ``advance`` compiles it for, but 0.2 s and 30 MB at n = 400.
    The tuple layout keeps them in tuples, which f may slice and
    concatenate, and its source does not grow with n.
    """
    stage_names = "abcdegq"

    def combination(coefficients, i: str) -> str:
        return "0.0" + "".join(f" + {c!r} * {stage_names[j]}{i}" for j, c in enumerate(coefficients))

    def stage(s: int, i: str) -> str:
        return f"u{i} + h * ({combination(_DP_A[s], i)})"

    def error(i: str) -> list[str]:
        # max(abs(ui), abs(vi)) by comparisons: w is abs(ui) (0.0 - ui turns
        # -0.0 into 0.0), and vi or -vi replaces it only where larger, as in
        # max(), so a NaN vi leaves w
        scale = f"(v{i} if v{i} > w else -v{i} if -v{i} > w else w)"
        return [f"w = u{i} if u{i} > 0.0 else 0.0 - u{i}",
                f"r{i} = h * ({combination(_DP_E, i)}) / (atol + rtol * {scale})"]

    def seq(p: str) -> str:
        return ", ".join(f"{p}{i}" for i in range(n)) + ("," if n == 1 else "")

    lines = [f"{seq('u')} = u", f"{seq('a')} = k0"] if scalar else []
    for s in range(1, 7):
        node = "t + h" if _DP_C[s] == 1.0 else f"t + {_DP_C[s]!r} * h"
        if not scalar:
            # ui, ai, bi, ... are the components of u and of k0, k1, ...
            state = "unew" if s == 6 else "us"
            each = ", ".join(f"{x}i" for x in stage_names[:s])
            ks = ", ".join(f"k{j}" for j in range(s))
            lines += [f"{state} = tuple([{stage(s, 'i')} for ui, {each} in zip(u, {ks})])",
                      f"k{s} = _rhs_values(f({node}, {state}), {n})"]
            continue
        state = "v" if s == 6 else "s"
        lines += [f"{state}{i} = {stage(s, str(i))}" for i in range(n)]
        if s < 6:
            lines.append(f"ks = f({node}, ({seq('s')}))")
        else:
            lines += [f"unew = ({seq('v')})", f"ks = f({node}, unew)"]
        lines += [
            "try:",
            f"    {seq(stage_names[s])} = ks",
            "except ValueError:",
            f"    _unpacking_failed(ks, {n})",
        ]
    if scalar:
        lines += [x for i in range(k) for x in error(str(i))]
        lines.append(f"err = sqrt((0.0{''.join(f' + r{i} * r{i}' for i in range(k))}) / {k})")
        finite = " and ".join(f"v{i} - v{i} == 0.0" for i in range(n))
        lines.append(f"return unew, ({seq('q')}), err, {finite}")
    else:
        # zip stops at the end of the controlled prefix of u
        prefix = "u" if k == n else f"u[:{k}]"
        lines += ["err = 0.0",
                  f"for ui, vi, ai, bi, ci, di, ei, gi, qi in zip({prefix}, unew, k0, k1, k2, k3, k4, k5, k6):",
                  *(f"    {x}" for x in error("i") + ["err += ri * ri"]),
                  f"return unew, k6, sqrt(err / {k}), all(map(isfinite, unew))"]
    source = "def stages(f, t, u, k0, h, rtol, atol):\n" + "".join(f"    {x}\n" for x in lines)
    namespace = {"_rhs_values": _rhs_values, "_unpacking_failed": _unpacking_failed,
                 "isfinite": math.isfinite, "sqrt": math.sqrt}
    name = f"n={n}{'' if k == n else f', {k} controlled'}{'' if scalar else ' on tuples'}"
    exec(compile(source, f"<Dormand-Prince stages {name}>", "exec"), namespace)
    return namespace["stages"]


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


class _Observer:
    """Fills the Trajectory of one run: onset, running max |z1|, samples.

    Every driver hands it the flat state (y..., z..., ydot..., zdot...) as
    a tuple of floats, so z1 is ``u[m]``.  ``level`` is the |z1| at which
    the onset fires, and inf once it has fired or when the seed is zero.
    The fixed-step kernel tracks the guard, the running max and the level
    and records its samples, and ``settle`` takes each kernel call's
    result; ``watch`` checks all three for every accepted step of the
    adaptive driver.  ``record`` appends every sample to the flat array
    behind ``traj.samples`` and hands each completed block on to
    ``on_block``, if given, and ``hand_on`` the rows left once the run has
    ended.
    Every early end of a run, a blow-up, a step-size collapse or the onset
    step under ``stop_at_onset`` (recorded as the last sample), goes
    through ``stop``, which writes ``traj.terminated_early`` and raises
    _Stopped for ``simulate`` to catch.
    """

    def __init__(self, spec: ModelSpec, t0: float, u0, onset_gain: float,
                 stop_at_onset: bool, on_block: Optional[Callable[[array], None]]):
        self.m = spec.m
        self.z_seed = abs(u0[self.m])
        self.level = onset_gain * self.z_seed if self.z_seed > 0.0 else math.inf
        self.stop_at_onset = stop_at_onset
        self.buf = array("d")
        self.traj = Trajectory(spec, _Samples(spec, self.buf), max_torsion=self.z_seed)
        self.on_block = on_block
        self.block = _CSV_CHUNK_ROWS * (4 * self.m + 1)
        # the length of buf that completes the block being filled; never
        # reached without on_block, so hand_on then hands nothing on
        self.block_end = sys.maxsize if on_block is None else self.block
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
        """Hand ``on_block`` the rows recorded since its last block."""
        start = self.block_end - self.block
        if start < len(self.buf):
            self.on_block(self.buf[start:])
            self.block_end += self.block


def _check_run(spec: ModelSpec, config: IntegratorConfig, onset_gain: float) -> int:
    """Refuse a run that may not start; else return how many such runs the
    sample budget holds at once.

    In this order: an onset gain that is not finite or does not exceed 1;
    samples that would hold more doubles than MAX_SAMPLES one-mode samples
    of 5 doubles (400 MB); and a fixed RK4 step past h * sqrt(m^4 + 2)
    < 2 sqrt(2), RK4's reach on the imaginary axis over the stiffest
    vertical frequency.  A sample is 4m + 1 doubles, so at m = 1000 the
    budget admits about 12 500 samples.  It counts at least one sample, as
    a run always records its seed: a horizon far below the sample interval
    (t_end = 1e-320) would otherwise leave a subnormal count and an infinite
    budget.
    """
    if not 1.0 < onset_gain < math.inf:
        raise ValueError("onset_gain must be finite and exceed 1")
    doubles = max(1.0, _sample_count(config)) * (4 * spec.m + 1)
    if doubles > 5 * MAX_SAMPLES:
        raise ValueError(
            f"samples would hold {doubles:.3g} doubles (the sample count "
            f"times 4m + 1); at most {5 * MAX_SAMPLES:.0e} (400 MB)"
        )
    if config.scheme is Scheme.FIXED_RK4 and config.h**2 * (spec.m**4 + 2) >= 8.0:
        raise ValueError(f"fixed RK4 step h={config.h:g} at m={spec.m} breaks h * sqrt(m^4 + 2)"
                         " < 2 sqrt(2), its stability bound (necessary, not sufficient)")
    return int(5 * MAX_SAMPLES // doubles)


def simulate(
    spec: ModelSpec,
    initial: SystemState,
    config: IntegratorConfig,
    onset_gain: float = 100.0,
    *,
    stop_at_onset: bool = False,
    on_block: Optional[Callable[[array], None]] = None,
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

    ``on_block``, if given, is handed all the run's samples in order, as
    flat arrays of the rows (t, y..., z..., ydot..., zdot...): one block of
    ``_CSV_CHUNK_ROWS`` rows as soon as it is recorded, and the rows left
    when the run ends, at t_end, at a blow-up, at the onset stop or at a
    step-size collapse.  An exception it raises ends the run.
    """
    _check_run(spec, config, onset_gain)
    if initial.m != spec.m:
        raise ValueError(f"initial state has m={initial.m}, spec has m={spec.m}")
    t0, u0 = initial.t, initial.flat()
    obs = _Observer(spec, t0, u0, onset_gain, stop_at_onset, on_block)
    try:
        if not _within_guard(u0):
            obs.stop(t0, _BLOWUP_REASON)
        with _quiet_floats():
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
