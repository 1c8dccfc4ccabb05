"""Pure vertical mode, Hill-equation stability, and forced boundedness.

With the torsional coordinate at rest the vertical mode decouples and obeys
the hardening oscillator

    y'' + 3 y + (3/2) y^3 = 0,

whose solution ybar is periodic for any nonzero initial data.  Small
torsional perturbations around (ybar, 0) obey the Hill equation

    xi'' + a(t) xi = 0,    a(t) = 7 + (27/2) ybar(t)^2,

and aerodynamic cross-derivative coupling turns this into the forced form
xi'' + a(t) xi = -delta * ybar'(t).  The restoring force is odd, so every
orbit has ybar(t + T/2) = -ybar(t): a(t) has period T/2 and the forcing
changes sign over each half period, whatever the phase of the orbit.

Stability of the unforced equation is decided by the trace of the
monodromy matrix over one period T, which is the square of the
fundamental matrix after T/2.  Boundedness of the forced equation is
judged from the growth trend of the solution over a horizon of many
periods, obtained from half of one: the state at the start of half period
j follows the affine map x_{j+1} = M_h x_j + (-1)^j b_h, and each half
period's max |xi| is rebuilt from the half-period table of the fundamental
and particular solutions.  The two verdicts are expected to agree away
from the stability boundary.  The first boundary itself, the energy where
the trace leaves 2 upward, is located from a quarter period
(:func:`boundary_energy`).

A classical sufficient condition guarantees stability for amplitudes up to
sqrt(10/21), i.e. energies up to 235/294 (the "zhukovskii" flag).
"""

from __future__ import annotations

import cmath
import enum
import math
from array import array
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional, Sequence

import numpy as np

from ._fork import _fan_out
from .integrator import AdaptiveDriver
from .model import vertical_mode_energy

__all__ = [
    "Stability",
    "PureVerticalMode",
    "HillStabilityReport",
    "ForcedHillCheck",
    "HARMONIC_PERIOD",
    "ZHUKOVSKII_AMPLITUDE",
    "ZHUKOVSKII_ENERGY",
    "amplitude_for_energy",
    "boundary_energy",
    "period_for_amplitude",
    "pure_mode",
    "mode_from_energy",
    "classify",
    "monodromy_matrix",
    "forced_check",
    "stability_chart",
]

#: Period of the pure mode in the small-amplitude (harmonic) limit.
HARMONIC_PERIOD = 2.0 * math.pi / math.sqrt(3.0)

#: Largest amplitude certified stable by the sufficient criterion.
ZHUKOVSKII_AMPLITUDE = math.sqrt(10.0 / 21.0)

#: Energy equivalent of ZHUKOVSKII_AMPLITUDE.
ZHUKOVSKII_ENERGY = 235.0 / 294.0

#: |trace| within this distance of 2 is reported Marginal, never guessed.
TRACE_MARGIN = 1e-9

#: A period in which the forced xi or xi' reaches this magnitude is the last.
FORCED_MAGNITUDE_LIMIT = 1e12

#: Fewest forcing periods a forced check may cover.
MIN_HORIZON_PERIODS = 10
#: Most forcing periods a forced check may cover: it keeps one float per period.
MAX_HORIZON_PERIODS = 100_000
#: Most values of xi a forced check holds at once, per array of a block.
_BLOCK_VALUES = 1 << 14

#: Largest energy of a pure mode.  The monodromy trace reads its large-E
#: limit 4.6263252734 from E = 1e25 to 1e40, drifts from 1e42 (4.707 at
#: 1e44), and at 1e46 the adaptive step collapses.
_MAX_ENERGY = 1e30

_EVAL_RTOL = 1e-12
_EVAL_ATOL = 1e-14
_MONODROMY_RTOL = 1e-11
_MONODROMY_ATOL = 1e-13
_FORCED_RTOL = 1e-10
_FORCED_ATOL = 1e-12


def _left_sum(terms: Iterable[float]) -> float:
    # left to right from the int 0, the float operations of sum() up to
    # Python 3.11; 3.12 compensates sum(), which would tie the fitted growth
    # rate's last bits to the Python version
    acc = 0
    for x in terms:
        acc = acc + x
    return acc


def _duffing_rhs(t: float, u: Sequence[float]):
    y, yd = u
    return (yd, -(3.0 * y + 1.5 * y * y * y))


def amplitude_for_energy(e: float) -> float:
    """Turning-point amplitude A with (3/2) A^2 + (3/8) A^4 = e."""
    if not 0.0 <= e <= _MAX_ENERGY:
        raise ValueError(f"energy must be between 0 and {_MAX_ENERGY:g}, got {e}")
    if e == 0.0:
        return 0.0
    return math.sqrt((math.sqrt(2.25 + 1.5 * e) - 1.5) / 0.75)


@lru_cache(maxsize=1)
def _gauss_legendre_64() -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(64)


def period_for_amplitude(a: float) -> float:
    """Period of the pure mode at amplitude a.

    Energy conservation reduces the quarter period to the smooth integral

        T/4 = integral_0^{pi/2} dphi / sqrt(3 + (3/4) a^2 (1 + sin^2 phi))

    after substituting y = a sin(phi), which removes the turning-point
    singularity; 64-point Gauss-Legendre then gives near machine accuracy.
    The a -> 0 limit is the harmonic period 2 pi / sqrt(3).
    """
    if not 0.0 <= a < math.inf:
        raise ValueError(f"amplitude must be finite and nonnegative, got {a}")
    nodes, weights = _gauss_legendre_64()
    phi = 0.25 * math.pi * (nodes + 1.0)
    s = np.sin(phi)
    integrand = 1.0 / np.sqrt(3.0 + 0.75 * a * a * (1.0 + s * s))
    return float(4.0 * 0.25 * math.pi * np.dot(weights, integrand))


@dataclass(frozen=True)
class PureVerticalMode:
    """Periodic solution ybar of y'' + 3y + (3/2)y^3 = 0.

    ``amplitude`` is the turning point (where ybar' = 0), ``energy`` the
    conserved value, ``period`` the orbit time.  ``sample_period`` gives
    dense output over one period.

    The degenerate energy-zero mode (ybar identically 0) is allowed as the
    constant-coefficient reference case; its period is the harmonic limit.
    """

    eta0: float
    eta1: float
    amplitude: float
    energy: float
    period: float

    def sample_period(self, n: int) -> list[tuple[float, float, float]]:
        """(t, ybar, ybar') at n+1 equispaced times covering one period."""
        if n < 1:
            raise ValueError("n must be >= 1")
        if self.energy == 0.0:
            return [(k * self.period / n, 0.0, 0.0) for k in range(n + 1)]
        out = [(0.0, self.eta0, self.eta1)]
        driver = AdaptiveDriver(
            _duffing_rhs, 0.0, (self.eta0, self.eta1), _EVAL_RTOL, _EVAL_ATOL
        )
        for k in range(1, n + 1):
            t, u = driver.advance(k * self.period / n)
            out.append((t, u[0], u[1]))
        return out


def pure_mode(eta0: float, eta1: float) -> PureVerticalMode:
    """Pure vertical mode through the initial data (eta0, eta1).

    Rejects (0, 0): the rest state has no period.  Use
    :func:`mode_from_energy` with energy 0 for the constant-coefficient
    reference mode.
    """
    if not (math.isfinite(eta0) and math.isfinite(eta1)):
        raise ValueError(f"initial data must be finite, got ({eta0}, {eta1})")
    if eta0 == 0.0 and eta1 == 0.0:
        raise ValueError("the rest state (0, 0) has no period")
    e = vertical_mode_energy(eta0, eta1)
    a = amplitude_for_energy(e)
    return PureVerticalMode(
        eta0=float(eta0),
        eta1=float(eta1),
        amplitude=a,
        energy=e,
        period=period_for_amplitude(a),
    )


def mode_from_energy(e: float) -> PureVerticalMode:
    """Canonical mode at energy e, started from its turning point.

    e = 0 yields the degenerate rest mode, accepted by :func:`classify` as
    the constant-coefficient Hill equation with a = 7.
    """
    a = amplitude_for_energy(e)
    return PureVerticalMode(
        eta0=a,
        eta1=0.0,
        amplitude=a,
        energy=float(e),
        period=period_for_amplitude(a),
    )


class Stability(enum.Enum):
    STABLE = "stable"
    UNSTABLE = "unstable"
    MARGINAL = "marginal"


@dataclass(frozen=True)
class HillStabilityReport:
    """Monodromy data of the unforced Hill equation over one period.

    ``multipliers`` are the eigenvalues of the monodromy matrix; when the
    classification is Stable they lie on the unit circle, exp(+-i beta T),
    and ``exponents`` holds the pair (beta, -beta) as complex numbers.
    ``zhukovskii_sufficient`` reports the a-priori sufficient condition
    amplitude <= sqrt(10/21); it can only be true for Stable modes.
    """

    trace: float
    det: float
    multipliers: tuple[complex, complex]
    exponents: Optional[tuple[complex, complex]]
    classification: Stability
    zhukovskii_sufficient: bool


def _fundamental_matrix(
    mode: PureVerticalMode, t_end: float
) -> tuple[tuple[float, float], tuple[float, float]]:
    # the two fundamental solutions (xi(0), xi'(0)) = (1, 0) and (0, 1)
    # integrated together with ybar itself as one coupled system, so no
    # interpolation of a(t) enters the result
    def f(t: float, u: Sequence[float]):
        y, yd, x1, x1d, x2, x2d = u
        a = 7.0 + 13.5 * y * y
        return (yd, -(3.0 * y + 1.5 * y * y * y), x1d, -a * x1, x2d, -a * x2)

    driver = AdaptiveDriver(
        f,
        0.0,
        (mode.eta0, mode.eta1, 1.0, 0.0, 0.0, 1.0),
        _MONODROMY_RTOL,
        _MONODROMY_ATOL,
    )
    _, u = driver.advance(t_end)
    _, _, x1, x1d, x2, x2d = u
    return ((x1, x2), (x1d, x2d))


def monodromy_matrix(
    mode: PureVerticalMode,
) -> tuple[tuple[float, float], tuple[float, float]]:
    """Fundamental solution matrix of xi'' + a(t) xi = 0 after one period.

    a(t) has period T/2 on every orbit, so the matrix after T is the square
    of the one after T/2, which a single integration of ybar and both
    fundamental solutions gives.
    """
    (a, b), (c, d) = _fundamental_matrix(mode, 0.5 * mode.period)
    return ((a * a + b * c, a * b + b * d), (c * a + d * c, c * b + d * d))


def boundary_energy(lo: float, hi: float, tol: float) -> float:
    """Energy in [lo, hi] where x2(T/4) of ``mode_from_energy`` changes sign.

    From a turning point a(t) is even with period T/2, so the discriminant
    over T/2 is D = 2 + 4 x1'(T/4) x2(T/4) and the trace over T is D^2 - 2.
    Where x2(T/4) changes sign, D crosses 2 and the odd solution x2 has
    period T/2: an edge of an instability interval.  The first one, where
    the trace leaves 2 upward, lies near E = 4.936.  Bisection on that sign
    returns the midpoint of a bracket at most tol wide; x2(T/4) must have
    opposite signs at lo and hi.
    """
    if not 0.0 <= lo < hi <= _MAX_ENERGY:
        raise ValueError(f"need 0 <= lo < hi <= {_MAX_ENERGY:g}, got [{lo}, {hi}]")
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be finite and positive")

    def x2_quarter(e: float) -> float:
        mode = mode_from_energy(e)
        (_, x2), _ = _fundamental_matrix(mode, 0.25 * mode.period)
        return x2

    lo_negative = x2_quarter(lo) < 0.0
    if lo_negative == (x2_quarter(hi) < 0.0):
        raise ValueError(f"x2(T/4) has the same sign at {lo} and {hi}")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if (x2_quarter(mid) < 0.0) == lo_negative:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def classify(mode: PureVerticalMode) -> HillStabilityReport:
    """Floquet classification of the torsional Hill equation around ybar.

    |trace| < 2 means both multipliers sit on the unit circle (Stable),
    |trace| > 2 means one multiplier grows exponentially (Unstable); traces
    within TRACE_MARGIN of 2 are reported Marginal rather than guessed.
    """
    (m11, m12), (m21, m22) = monodromy_matrix(mode)
    trace = m11 + m22
    det = m11 * m22 - m12 * m21
    disc = cmath.sqrt(complex(trace * trace - 4.0 * det))
    multipliers = ((trace + disc) / 2.0, (trace - disc) / 2.0)
    if abs(trace) < 2.0 - TRACE_MARGIN:
        classification = Stability.STABLE
        beta = math.acos(max(-1.0, min(1.0, trace / 2.0))) / mode.period
        exponents: Optional[tuple[complex, complex]] = (
            complex(beta),
            complex(-beta),
        )
    elif abs(trace) > 2.0 + TRACE_MARGIN:
        classification = Stability.UNSTABLE
        exponents = None
    else:
        classification = Stability.MARGINAL
        exponents = None
    zhukovskii = mode.energy <= ZHUKOVSKII_ENERGY * (1.0 + 1e-12)
    return HillStabilityReport(
        trace=trace,
        det=det,
        multipliers=multipliers,
        exponents=exponents,
        classification=classification,
        zhukovskii_sufficient=zhukovskii,
    )


@dataclass(frozen=True)
class ForcedHillCheck:
    """Boundedness verdict for xi'' + a(t) xi = -delta ybar' from rest.

    The solution over the horizon comes from iterating the half-period map;
    ``sup_norm`` is the largest per-period max |xi|, each taken over the
    accepted steps of the half-period integration, once for each half.
    ``growth_rate`` is the least-squares slope of log(per-period max |xi|)
    against the period midpoints (k + 1/2) T; the solution is called
    bounded when the fitted rate would produce less than one decade of
    growth over the whole requested horizon.  ``periods_completed`` is
    smaller than ``horizon_periods`` only if xi or xi' reached
    FORCED_MAGNITUDE_LIMIT; that period is the last one counted.
    """

    delta: float
    horizon_periods: int
    sup_norm: float
    growth_rate: float
    bounded_verdict: bool
    periods_completed: int


def _check_delta(delta: float) -> None:
    if not 0.0 <= delta < math.inf:
        raise ValueError("delta must be finite and nonnegative")


def _check_horizon(horizon_periods: int) -> None:
    if not MIN_HORIZON_PERIODS <= horizon_periods <= MAX_HORIZON_PERIODS:
        raise ValueError(
            f"horizon_periods must be between {MIN_HORIZON_PERIODS} and "
            f"{MAX_HORIZON_PERIODS}"
        )


def _period_maxima(table: np.ndarray, horizon_periods: int) -> array:
    # Per-period max |xi| from rest, up to the period that trips the guard.
    # table holds (x1, x1', x2, x2', p, p') at the accepted steps of half a
    # period; half period j starts from the state (xi_j, xi'_j) and gives
    # xi = x1 xi_j + x2 xi'_j + (-1)^j p.  The states follow in scalar
    # arithmetic, the values in numpy, a bounded block of periods at a time.
    x1, x1d, x2, x2d, p, pd = table.T
    m11, m21, m12, m22, b1, b2 = table[-1].tolist()
    per_block = max(1, _BLOCK_VALUES // (2 * len(table)))
    maxima = array("d")
    xi, xid = 0.0, 0.0
    while len(maxima) < horizon_periods:
        starts = []
        for _ in range(min(per_block, horizon_periods - len(maxima))):
            starts.append((xi, xid, 1.0))
            xi, xid = m11 * xi + m12 * xid + b1, m21 * xi + m22 * xid + b2
            starts.append((xi, xid, -1.0))
            xi, xid = m11 * xi + m12 * xid - b1, m21 * xi + m22 * xid - b2
            # the same float operations as the table's last row below, so
            # this period trips the guard there; no later state can overflow
            if not (abs(xi) < FORCED_MAGNITUDE_LIMIT and abs(xid) < FORCED_MAGNITUDE_LIMIT):
                break
        s = np.array(starts)
        xs = s[:, :1] * x1 + s[:, 1:2] * x2 + s[:, 2:] * p
        xds = s[:, :1] * x1d + s[:, 1:2] * x2d + s[:, 2:] * pd
        half_peaks = np.abs(xs).max(axis=1)
        half_ok = (half_peaks < FORCED_MAGNITUDE_LIMIT) & (
            np.abs(xds).max(axis=1) < FORCED_MAGNITUDE_LIMIT
        )
        peaks = np.maximum(half_peaks[0::2], half_peaks[1::2])
        ok = half_ok[0::2] & half_ok[1::2]
        if not ok.all():
            # the period that trips the guard still counts
            maxima.extend(peaks[: int(np.argmin(ok)) + 1].tolist())
            break
        maxima.extend(peaks.tolist())
    return maxima


def forced_check(
    mode: PureVerticalMode, delta: float, horizon_periods: int
) -> ForcedHillCheck:
    """Judge boundedness of the forced Hill equation from half a period.

    The response starts from xi(0) = xi'(0) = 0, so it is entirely due to
    the forcing.  One integration over half a period carries ybar, the two
    fundamental solutions x1, x2 and the particular solution p from rest,
    and tabulates (x1, x1', x2, x2', p, p') at every accepted step.  a(t)
    has period T/2 and the forcing -delta ybar' changes sign over each half
    period, so the state at the start of half period j follows the map
    x_{j+1} = M_h x_j + (-1)^j b_h, with M_h the fundamental matrix after
    T/2 and b_h = (p(T/2), p'(T/2)); within half period j the solution is
    xi(jT/2 + s) = x1(s) xi_j + x2(s) xi'_j + (-1)^j p(s).  Each period's
    max |xi| is the larger of its two half-period maxima.  Bounded
    solutions beat quasi-periodically with zero trend; unstable ones grow
    at the dominant Floquet rate, which the fitted slope recovers.
    """
    _check_delta(delta)
    _check_horizon(horizon_periods)
    t_period = mode.period

    def f(t: float, u: Sequence[float]):
        y, yd, x1, x1d, x2, x2d, p, pd = u
        a = 7.0 + 13.5 * y * y
        return (
            yd,
            -(3.0 * y + 1.5 * y * y * y),
            x1d,
            -a * x1,
            x2d,
            -a * x2,
            pd,
            -a * p - delta * yd,
        )

    rows: list[tuple[float, ...]] = []
    driver = AdaptiveDriver(
        f,
        0.0,
        (mode.eta0, mode.eta1, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0),
        _FORCED_RTOL,
        _FORCED_ATOL,
    )
    driver.advance(0.5 * t_period, on_step=lambda t, u: rows.append(u[2:]))
    period_maxima = _period_maxima(np.array(rows), horizon_periods)

    completed = len(period_maxima)
    sup_norm = max(period_maxima, default=0.0)

    # the fit's points are (midpoint, log max) of the periods with a nonzero
    # max, made afresh for each of its passes
    def midpoints():
        return ((k + 0.5) * t_period for k, v in enumerate(period_maxima) if v > 0.0)

    def logs():
        return (math.log(v) for v in period_maxima if v > 0.0)

    n = sum(1 for v in period_maxima if v > 0.0)
    if n >= 2:
        mean_t = _left_sum(midpoints()) / n
        mean_l = _left_sum(logs()) / n
        var = _left_sum((t - mean_t) ** 2 for t in midpoints())
        cov = _left_sum((t - mean_t) * (l - mean_l) for t, l in zip(midpoints(), logs()))
        growth_rate = cov / var
    else:
        growth_rate = 0.0

    cutoff = math.log(10.0) / (horizon_periods * t_period)
    return ForcedHillCheck(
        delta=float(delta),
        horizon_periods=horizon_periods,
        sup_norm=sup_norm,
        growth_rate=growth_rate,
        bounded_verdict=growth_rate < cutoff,
        periods_completed=completed,
    )


# ---------------------------------------------------------------------------
# Stability chart


@dataclass(frozen=True)
class ChartRow:
    energy: float
    amplitude: float
    period: float
    trace: float
    classification: Stability
    zhukovskii: bool
    forced: Optional[ForcedHillCheck] = None


def stability_chart(
    energies: Sequence[float],
    forced_delta: Optional[float] = None,
    horizon_periods: int = 200,
) -> list[ChartRow]:
    """Classify each energy; optionally add the forced boundedness verdict.

    Every energy, the horizon and the forcing are checked before the first
    is classified; the horizon is checked with or without forcing.  The
    energies are independent, so they fan out over the usable CPUs
    (``_fork._fan_out``), with the same rows.
    """
    if not all(0.0 < e <= _MAX_ENERGY for e in energies):
        raise ValueError(f"chart energies must be positive and at most {_MAX_ENERGY:g}")
    _check_horizon(horizon_periods)
    if forced_delta is not None:
        _check_delta(forced_delta)

    def row(e: float) -> ChartRow:
        mode = mode_from_energy(e)
        report = classify(mode)
        forced = None
        if forced_delta is not None:
            forced = forced_check(mode, forced_delta, horizon_periods)
        return ChartRow(
            energy=float(e),
            amplitude=mode.amplitude,
            period=mode.period,
            trace=report.trace,
            classification=report.classification,
            zhukovskii=report.zhukovskii_sufficient,
            forced=forced,
        )

    return _fan_out(row, list(energies), len(energies))
