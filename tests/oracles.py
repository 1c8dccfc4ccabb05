"""Independent oracles: deliberately avoid the code paths they check.

The period oracle locates the orbit time by event detection on an adaptive
integration, never touching the quadrature formula it validates.  The
m-mode oracle evaluates the Galerkin projection integrals by brute-force
trapezoid quadrature on a dense grid instead of the exact sine-grid rule.
The forced-Hill oracle integrates the forced equation over the whole
horizon, period after period, instead of iterating the half-period map;
the full-period reference iterates the map over whole periods, one numpy
pass per period, as ``forced_check`` did before it used the half-period
symmetry.
The RK4 reference step takes its accelerations from the public
``rhs_one_mode`` (m = 1) or ``rhs_m_mode`` (m > 1) once per stage, where the
integrator inlines them or writes them out on floats.  The
pure-mode state at time t comes from one tight integration of the
oscillator from its initial data, and the Hill fundamental matrix over any
time from one integration per fundamental solution, not from the coupled
system of ``monodromy_matrix``.  The Dormand-Prince reference step loops
over its own copy of the tableau, where the driver writes every stage out.
"""

from __future__ import annotations

import math

import numpy as np

from fishbone.hill import FORCED_MAGNITUDE_LIMIT, ForcedHillCheck
from fishbone.integrator import AdaptiveDriver
from fishbone.model import ModelSpec, SystemState, rhs_m_mode, rhs_one_mode


# Dormand-Prince 5(4): nodes, stage weights, 5th- minus 4th-order weights
_DP_NODES = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_WEIGHTS = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_ERROR = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)


def _left_sum(terms):
    # left to right from the int 0, as sum() added floats before Python 3.12
    acc = 0
    for x in terms:
        acc = acc + x
    return acc


def dormand_prince_step(f, t, u, h, rel_tol, abs_tol):
    """One Dormand-Prince 5(4) step of h from (t, u): (new state, error norm).

    The error norm is the RMS over the components of the error estimate
    divided by abs_tol + rel_tol max(|u|, |new u|).
    """
    n = len(u)
    ks = [tuple(f(t, u))]
    for s in range(1, 7):
        us = tuple(
            u[i] + h * _left_sum(_DP_WEIGHTS[s][j] * ks[j][i] for j in range(s))
            for i in range(n)
        )
        ks.append(tuple(f(t + _DP_NODES[s] * h, us)))
    err = 0.0
    for i in range(n):
        e = h * _left_sum(_DP_ERROR[j] * ks[j][i] for j in range(7))
        r = e / (abs_tol + rel_tol * max(abs(u[i]), abs(us[i])))
        err += r * r
    return us, math.sqrt(err / n)


def _duffing(t, u):
    y, yd = u
    return (yd, -(3.0 * y + 1.5 * y * y * y))


def duffing_state(y0: float, yd0: float, t: float) -> tuple[float, float]:
    """(y(t), y'(t)) of y'' + 3y + (3/2)y^3 = 0 from (y0, yd0) at t=0."""
    driver = AdaptiveDriver(_duffing, 0.0, (y0, yd0), 1e-12, 1e-14)
    _, u = driver.advance(t)
    return u


def hill_fundamental_matrix(mode, t: float) -> np.ndarray:
    """Fundamental matrix of xi'' + (7 + 27/2 ybar^2) xi = 0 at time t.

    Each column is one fundamental solution, (1, 0) or (0, 1) at t=0,
    integrated with its own copy of ybar at the monodromy tolerances.
    """

    def f(t, u):
        y, yd, x, xd = u
        return (yd, -(3.0 * y + 1.5 * y * y * y), xd, -(7.0 + 13.5 * y * y) * x)

    columns = []
    for x0, xd0 in ((1.0, 0.0), (0.0, 1.0)):
        driver = AdaptiveDriver(f, 0.0, (mode.eta0, mode.eta1, x0, xd0), 1e-11, 1e-13)
        _, u = driver.advance(t)
        columns.append(u[2:])
    return np.array(columns).T


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


def rk4_reference(spec: ModelSpec, u, h: float) -> tuple[float, ...]:
    """One classical RK4 step of the m-mode system on the flat state
    (y..., z..., ydot..., zdot...).

    The stage arithmetic is the integrator's, in the same order, so the
    result must agree bit for bit with its kernels.
    """
    m = spec.m

    def f(u):
        if m == 1:
            acc = rhs_one_mode(spec, SystemState.single(0.0, *u))
        else:
            state = SystemState(0.0, u[:m], u[m : 2 * m], u[2 * m : 3 * m], u[3 * m :])
            ydd, zdd = rhs_m_mode(spec, state)
            acc = ydd.tolist() + zdd.tolist()
        return (*u[2 * m :], *acc)

    h2 = 0.5 * h
    h6 = h / 6.0
    k1 = f(u)
    k2 = f([a + h2 * b for a, b in zip(u, k1)])
    k3 = f([a + h2 * b for a, b in zip(u, k2)])
    k4 = f([a + h * b for a, b in zip(u, k3)])
    return tuple(
        a + h6 * (b1 + 2.0 * (b2 + b3) + b4) for a, b1, b2, b3, b4 in zip(u, k1, k2, k3, k4)
    )


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
    steps of each period is that period's maximum.  A magnitude guard on
    every component, checked on each accepted step before the running max,
    ends the run inside the period that reaches FORCED_MAGNITUDE_LIMIT,
    which still counts as completed.  The verdict rule and the growth-rate
    fit are those of ``forced_check``.
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

    driver = AdaptiveDriver(f, 0.0, (mode.eta0, mode.eta1, 0.0, 0.0), 1e-10, 1e-12)
    peak = 0.0

    class BlowUp(Exception):
        pass

    def track(t, u):
        nonlocal peak
        if not all(abs(v) < FORCED_MAGNITUDE_LIMIT for v in u):
            raise BlowUp
        peak = max(peak, abs(u[2]))

    period_maxima = []
    try:
        for k in range(horizon_periods):
            peak = 0.0
            driver.advance((k + 1) * t_period, on_step=track)
            period_maxima.append(peak)
    except BlowUp:
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


def forced_check_full_period(mode, delta: float, horizon_periods: int) -> ForcedHillCheck:
    """Forced Hill boundedness from the stroboscopic map over whole periods.

    One integration over a whole period T tabulates the fundamental
    solutions x1, x2 and the particular solution p from rest at every
    accepted step, at the tolerances of the forced check; the state at the
    start of period k+1 is M x_k + b, and period k's max |xi| comes from the
    table.  The period in which xi or xi' reaches FORCED_MAGNITUDE_LIMIT is
    the last one counted.  The verdict rule and the growth-rate fit are
    those of ``forced_check``.
    """
    t_period = mode.period

    def f(t, u):
        y, yd, x1, x1d, x2, x2d, p, pd = u
        a = 7.0 + 13.5 * y * y
        return (yd, -(3.0 * y + 1.5 * y * y * y), x1d, -a * x1, x2d, -a * x2,
                pd, -a * p - delta * yd)

    rows = []
    driver = AdaptiveDriver(
        f, 0.0, (mode.eta0, mode.eta1, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0), 1e-10, 1e-12
    )
    driver.advance(t_period, on_step=lambda t, u: rows.append(u[2:]))
    x1, x1d, x2, x2d, p, pd = np.array(rows).T

    period_maxima = []
    xi, xid = 0.0, 0.0
    for _ in range(horizon_periods):
        xs = x1 * xi + x2 * xid + p
        xds = x1d * xi + x2d * xid + pd
        peak = float(np.abs(xs).max())
        period_maxima.append(peak)
        if not (peak < FORCED_MAGNITUDE_LIMIT and np.abs(xds).max() < FORCED_MAGNITUDE_LIMIT):
            break
        xi, xid = float(xs[-1]), float(xds[-1])

    pts = [((k + 0.5) * t_period, math.log(v)) for k, v in enumerate(period_maxima) if v > 0.0]
    if len(pts) >= 2:
        n = len(pts)
        mean_t = _left_sum(t for t, _ in pts) / n
        mean_l = _left_sum(l for _, l in pts) / n
        var = _left_sum((t - mean_t) ** 2 for t, _ in pts)
        cov = _left_sum((t - mean_t) * (l - mean_l) for t, l in pts)
        growth_rate = cov / var
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
