"""Pure vertical mode, Hill-equation stability, and forced boundedness.

With the torsional coordinate at rest the vertical mode decouples and obeys
the hardening oscillator

    y'' + 3 y + (3/2) y^3 = 0,

whose solution ybar is periodic for any nonzero initial data.  Small
torsional perturbations around (ybar, 0) obey the Hill equation

    xi'' + a(t) xi = 0,    a(t) = 7 + (27/2) ybar(t)^2,

and aerodynamic cross-derivative coupling turns this into the forced form
xi'' + a(t) xi = -delta * ybar'(t).  Stability of the unforced equation is
decided by the trace of the monodromy matrix over one period.  Boundedness
of the forced equation is judged from the growth trend of the solution
over a horizon of many periods, obtained from one period: the forcing
shares the period of a(t), so the state at the start of each period
follows the affine stroboscopic map x_{k+1} = M x_k + b, and each period's
max |xi| is rebuilt from the one-period table of the fundamental and
particular solutions.  The two verdicts are expected to agree away from
the stability boundary.

A classical sufficient condition guarantees stability for amplitudes up to
sqrt(10/21), i.e. energies up to 235/294 (the "zhukovskii" flag).
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence, TextIO

import numpy as np

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
    "period_for_amplitude",
    "pure_mode",
    "mode_from_energy",
    "classify",
    "monodromy_matrix",
    "forced_check",
    "stability_chart",
    "write_chart_csv",
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

_EVAL_RTOL = 1e-12
_EVAL_ATOL = 1e-14
_MONODROMY_RTOL = 1e-11
_MONODROMY_ATOL = 1e-13
_FORCED_RTOL = 1e-10
_FORCED_ATOL = 1e-12


def _duffing_rhs(t: float, u: Sequence[float]):
    y, yd = u
    return (yd, -(3.0 * y + 1.5 * y * y * y))


def amplitude_for_energy(e: float) -> float:
    """Turning-point amplitude A with (3/2) A^2 + (3/8) A^4 = e."""
    if e < 0.0:
        raise ValueError("energy must be nonnegative")
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
    if a < 0.0:
        raise ValueError("amplitude must be nonnegative")
    nodes, weights = _gauss_legendre_64()
    phi = 0.25 * math.pi * (nodes + 1.0)
    s = np.sin(phi)
    integrand = 1.0 / np.sqrt(3.0 + 0.75 * a * a * (1.0 + s * s))
    return float(4.0 * 0.25 * math.pi * np.dot(weights, integrand))


@dataclass(frozen=True)
class PureVerticalMode:
    """Periodic solution ybar of y'' + 3y + (3/2)y^3 = 0.

    ``amplitude`` is the turning point (where ybar' = 0), ``energy`` the
    conserved value, ``period`` the orbit time.  ``evaluate`` integrates the
    oscillator from the stored initial data, so its cost grows with t; use
    ``sample_period`` for dense output over one period.

    The degenerate energy-zero mode (ybar identically 0) is allowed as the
    constant-coefficient reference case; its period is the harmonic limit.
    """

    eta0: float
    eta1: float
    amplitude: float
    energy: float
    period: float

    def evaluate(self, t: float) -> tuple[float, float]:
        """(ybar(t), ybar'(t)) for t >= 0."""
        if t < 0.0:
            raise ValueError("t must be nonnegative")
        if self.energy == 0.0:
            return (0.0, 0.0)
        if t == 0.0:
            return (self.eta0, self.eta1)
        driver = AdaptiveDriver(
            _duffing_rhs, 0.0, (self.eta0, self.eta1), _EVAL_RTOL, _EVAL_ATOL
        )
        _, u = driver.advance(t)
        return (u[0], u[1])

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
    if e < 0.0:
        raise ValueError("energy must be nonnegative")
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


def monodromy_matrix(
    mode: PureVerticalMode,
    n_periods: int = 1,
    rel_tol: float = _MONODROMY_RTOL,
    abs_tol: float = _MONODROMY_ATOL,
) -> tuple[tuple[float, float], tuple[float, float]]:
    """Fundamental solution matrix of xi'' + a(t) xi = 0 after n periods.

    The two fundamental solutions (xi(0), xi'(0)) = (1, 0) and (0, 1) are
    integrated together with ybar itself as one coupled system, so no
    interpolation of a(t) enters the result.
    """

    def f(t: float, u: Sequence[float]):
        y, yd, x1, x1d, x2, x2d = u
        a = 7.0 + 13.5 * y * y
        return (yd, -(3.0 * y + 1.5 * y * y * y), x1d, -a * x1, x2d, -a * x2)

    driver = AdaptiveDriver(
        f,
        0.0,
        (mode.eta0, mode.eta1, 1.0, 0.0, 0.0, 1.0),
        rel_tol,
        abs_tol,
    )
    _, u = driver.advance(n_periods * mode.period)
    _, _, x1, x1d, x2, x2d = u
    return ((x1, x2), (x1d, x2d))


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

    The solution over the horizon comes from iterating the one-period
    stroboscopic map; ``sup_norm`` is the largest per-period max |xi|, each
    taken over the accepted steps of the one-period integration.
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


def forced_check(
    mode: PureVerticalMode, delta: float, horizon_periods: int
) -> ForcedHillCheck:
    """Judge boundedness of the forced Hill equation from one period.

    The response starts from xi(0) = xi'(0) = 0, so it is entirely due to
    the forcing.  One integration over a single period carries ybar, the
    two fundamental solutions x1, x2 and the particular solution p from
    rest, and tabulates (x1, x1', x2, x2', p, p') at every accepted step.
    The forcing has the period of a(t), so the state at the start of each
    period follows the stroboscopic map x_{k+1} = M x_k + b, with M the
    monodromy matrix and b = (p(T), p'(T)); within period k the solution is
    xi(kT + s) = x1(s) xi_k + x2(s) xi'_k + p(s), which gives that period's
    max |xi| from the table.  Bounded solutions beat quasi-periodically
    with zero trend; unstable ones grow at the dominant Floquet rate, which
    the fitted slope recovers.
    """
    if not 0.0 <= delta < math.inf:
        raise ValueError("delta must be finite and nonnegative")
    if horizon_periods < 10:
        raise ValueError("horizon_periods must be at least 10")
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
    driver.advance(t_period, on_step=lambda t, u: rows.append(u[2:]))
    x1, x1d, x2, x2d, p, pd = np.array(rows).T

    period_maxima: list[float] = []
    xi, xid = 0.0, 0.0
    for _ in range(horizon_periods):
        xs = x1 * xi + x2 * xid + p
        xds = x1d * xi + x2d * xid + pd
        peak = float(np.abs(xs).max())
        period_maxima.append(peak)
        # the period that trips the guard still counts; NaN trips it too
        if not (
            peak < FORCED_MAGNITUDE_LIMIT
            and np.abs(xds).max() < FORCED_MAGNITUDE_LIMIT
        ):
            break
        xi, xid = float(xs[-1]), float(xds[-1])

    completed = len(period_maxima)
    sup_norm = max(period_maxima, default=0.0)

    ts = [(k + 0.5) * t_period for k in range(completed)]
    pts = [(t, math.log(v)) for t, v in zip(ts, period_maxima) if v > 0.0]
    if len(pts) >= 2:
        n = len(pts)
        mean_t = sum(t for t, _ in pts) / n
        mean_l = sum(l for _, l in pts) / n
        var = sum((t - mean_t) ** 2 for t, _ in pts)
        cov = sum((t - mean_t) * (l - mean_l) for t, l in pts)
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
    """Classify each energy; optionally add the forced boundedness verdict."""
    rows = []
    for e in energies:
        if e <= 0.0:
            raise ValueError("chart energies must be positive")
        mode = mode_from_energy(e)
        report = classify(mode)
        forced = (
            forced_check(mode, forced_delta, horizon_periods)
            if forced_delta is not None
            else None
        )
        rows.append(
            ChartRow(
                energy=float(e),
                amplitude=mode.amplitude,
                period=mode.period,
                trace=report.trace,
                classification=report.classification,
                zhukovskii=report.zhukovskii_sufficient,
                forced=forced,
            )
        )
    return rows


def write_chart_csv(rows: Sequence[ChartRow], out: TextIO) -> None:
    """Stability chart CSV; forced columns appear when any row has them."""
    with_forced = any(r.forced is not None for r in rows)
    header = "E,amplitude,period,trace,classification,zhukovskii"
    if with_forced:
        header += ",forced_bounded,growth_rate"
    out.write(header + "\n")
    for r in rows:
        cols = [
            format(r.energy, ".17g"),
            format(r.amplitude, ".17g"),
            format(r.period, ".17g"),
            format(r.trace, ".17g"),
            r.classification.value,
            "true" if r.zhukovskii else "false",
        ]
        if with_forced:
            if r.forced is None:
                cols.extend(["", ""])
            else:
                cols.extend(
                    [
                        "true" if r.forced.bounded_verdict else "false",
                        format(r.forced.growth_rate, ".17g"),
                    ]
                )
        out.write(",".join(cols) + "\n")
