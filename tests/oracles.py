"""Independent oracles: deliberately avoid the code paths they check.

The period oracle locates the orbit time by event detection on an adaptive
integration, never touching the quadrature formula it validates.  The
m-mode oracle evaluates the Galerkin projection integrals by brute-force
trapezoid quadrature on a dense grid instead of the exact sine-grid rule.
The forced-Hill oracle integrates the forced equation over the whole
horizon, period after period, instead of iterating the one-period map.
"""

from __future__ import annotations

import math

import numpy as np

from fishbone.hill import FORCED_MAGNITUDE_LIMIT, ForcedHillCheck
from fishbone.integrator import AdaptiveDriver, BlowUpError


def _duffing(t, u):
    y, yd = u
    return (yd, -(3.0 * y + 1.5 * y * y * y))


def duffing_period_by_event_detection(amplitude: float, rel_tol: float = 1e-13) -> float:
    """Orbit time from the turning point, via sign changes of the velocity.

    Starting at (A, 0) the velocity is negative for half a cycle, positive
    for the other half; the second sign change marks the full period.  Each
    change is bracketed by accepted integration steps and refined by
    bisection with fresh short integrations.
    """
    steps = [(0.0, (amplitude, 0.0))]
    driver = AdaptiveDriver(
        _duffing, 0.0, (amplitude, 0.0), rel_tol, 1e-15, h0=1e-3
    )
    # 5 time units comfortably covers one period at any amplitude
    driver.advance(5.0, on_step=lambda t, u: steps.append((t, u)))

    crossings = 0
    for (ta, ua), (tb, ub) in zip(steps, steps[1:]):
        if ua[1] == 0.0 and ta > 0.0:
            return ta
        if ua[1] * ub[1] < 0.0:
            crossings += 1
            if crossings == 2:
                return _refine_zero(ta, ua, tb, rel_tol)
    raise AssertionError("no period found within the search window")


def _refine_zero(t0, u0, t1, rel_tol):
    def ydot_at(t):
        if t == t0:
            return u0[1]
        d = AdaptiveDriver(_duffing, t0, u0, rel_tol, 1e-15, h0=(t - t0))
        _, u = d.advance(t)
        return u[1]

    lo, hi = t0, t1
    f_lo = ydot_at(lo)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        f_mid = ydot_at(mid)
        if f_mid == 0.0:
            return mid
        if f_lo * f_mid < 0.0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


def m_mode_rhs_trapezoid(y, z, n_nodes: int = 10000):
    """Galerkin accelerations via dense trapezoid quadrature on (0, pi)."""
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    m = len(y)
    x = np.linspace(0.0, np.pi, n_nodes + 1)
    sines = np.sin(np.outer(x, np.arange(1, m + 1)))
    yx = sines @ y
    zx = sines @ z
    gy = yx * (1.0 + yx**2 + 3.0 * zx**2)
    gz = zx * (1.0 + 3.0 * yx**2 + zx**2)
    j = np.arange(1, m + 1, dtype=float)
    ydd = np.empty(m)
    zdd = np.empty(m)
    for i in range(m):
        ydd[i] = -(j[i] ** 4) * y[i] - (4.0 / np.pi) * np.trapezoid(gy * sines[:, i], x)
        zdd[i] = -(j[i] ** 2) * z[i] - (12.0 / np.pi) * np.trapezoid(gz * sines[:, i], x)
    return ydd, zdd


def forced_check_by_long_integration(mode, delta: float, horizon_periods: int) -> ForcedHillCheck:
    """Forced Hill boundedness by integrating every period of the horizon.

    xi'' + a(t) xi = -delta ybar' runs from rest together with ybar at the
    tolerances of the forced check; the running max |xi| over the accepted
    steps of each period is that period's maximum.  The driver's magnitude
    guard (on every component) ends the run inside the period that reaches
    FORCED_MAGNITUDE_LIMIT, which still counts as completed.  The verdict
    rule and the growth-rate fit are those of ``forced_check``.
    """
    t_period = mode.period

    def f(t, u):
        y, yd, xi, xid = u
        return (
            yd,
            -(3.0 * y + 1.5 * y * y * y),
            xid,
            -(7.0 + 13.5 * y * y) * xi - delta * yd,
        )

    driver = AdaptiveDriver(
        f, 0.0, (mode.eta0, mode.eta1, 0.0, 0.0), 1e-10, 1e-12,
        magnitude_limit=FORCED_MAGNITUDE_LIMIT,
    )
    peak = 0.0

    def track(t, u):
        nonlocal peak
        peak = max(peak, abs(u[2]))

    period_maxima = []
    try:
        for k in range(horizon_periods):
            peak = 0.0
            driver.advance((k + 1) * t_period, on_step=track)
            period_maxima.append(peak)
    except BlowUpError:
        period_maxima.append(peak)

    pts = [((k + 0.5) * t_period, math.log(v)) for k, v in enumerate(period_maxima) if v > 0.0]
    if len(pts) >= 2:
        ts, ls = np.array(pts).T
        growth_rate = float(np.polyfit(ts, ls, 1)[0])
    else:
        growth_rate = 0.0
    cutoff = math.log(10.0) / (horizon_periods * t_period)
    return ForcedHillCheck(
        delta=float(delta),
        horizon_periods=horizon_periods,
        sup_norm=max(period_maxima, default=0.0),
        growth_rate=growth_rate,
        bounded_verdict=growth_rate < cutoff,
        periods_completed=len(period_maxima),
    )
