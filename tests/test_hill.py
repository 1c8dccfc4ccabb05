import cmath
import io
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import fishbone._fork
import fishbone.hill
from fishbone.cli import HILL_PRESETS, _parse_grid, write_chart_csv
from fishbone.hill import (
    HARMONIC_PERIOD,
    MAX_HORIZON_PERIODS,
    ZHUKOVSKII_AMPLITUDE,
    ZHUKOVSKII_ENERGY,
    Stability,
    amplitude_for_energy,
    classify,
    forced_check,
    mode_from_energy,
    monodromy_matrix,
    period_for_amplitude,
    pure_mode,
    stability_chart,
)
from fishbone.model import vertical_mode_energy
from oracles import (
    duffing_period_by_event_detection,
    duffing_state,
    forced_check_by_long_integration,
    forced_check_full_period,
    hill_fundamental_matrix,
)


class TestPureMode:
    def test_rejects_rest_data(self):
        with pytest.raises(ValueError):
            pure_mode(0.0, 0.0)
        # non-finite data would give a mode that classify calls marginal
        for eta0, eta1 in ((math.nan, 0.0), (math.inf, 0.0), (0.5, -math.inf)):
            with pytest.raises(ValueError, match="finite"):
                pure_mode(eta0, eta1)

    # 1e46 and 1e55 lie past the energy cap: there the adaptive step
    # collapses, or the period is below the driver's time snap
    @pytest.mark.parametrize("v", [-1.0, math.nan, math.inf, 1e46, 1e55])
    def test_rejects_bad_energy_or_amplitude(self, v):
        with pytest.raises(ValueError, match="energy"):
            amplitude_for_energy(v)
        with pytest.raises(ValueError, match="energy"):
            mode_from_energy(v)
        if not 0.0 < v < math.inf:
            with pytest.raises(ValueError, match="amplitude"):
                period_for_amplitude(v)

    def test_energy_and_amplitude_consistency(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            eta0, eta1 = rng.uniform(-2.0, 2.0, 2)
            if eta0 == 0.0 and eta1 == 0.0:
                continue
            mode = pure_mode(eta0, eta1)
            a = mode.amplitude
            assert mode.energy == pytest.approx(1.5 * a * a + 0.375 * a**4, rel=1e-12)
            assert mode.energy == pytest.approx(vertical_mode_energy(eta0, eta1), rel=1e-14)

    def test_sufficient_boundary_energy(self):
        mode = pure_mode(math.sqrt(10.0 / 21.0), 0.0)
        assert mode.energy == pytest.approx(235.0 / 294.0, abs=1e-15)
        assert mode.amplitude == pytest.approx(ZHUKOVSKII_AMPLITUDE, rel=1e-14)

    def test_evaluator_starts_at_initial_data(self):
        mode = pure_mode(0.7, -0.4)
        assert mode.sample_period(1)[0] == (0.0, 0.7, -0.4)

    def test_evaluator_is_periodic(self):
        mode = pure_mode(1.1, 0.3)
        for t in (0.4, 1.3):
            y0, yd0 = duffing_state(mode.eta0, mode.eta1, t)
            y1, yd1 = duffing_state(mode.eta0, mode.eta1, t + mode.period)
            assert y1 == pytest.approx(y0, abs=1e-8)
            assert yd1 == pytest.approx(yd0, abs=1e-8)

    def test_velocity_bound(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            eta0 = rng.uniform(-1.5, 1.5)
            eta1 = rng.uniform(-2.0, 2.0)
            if abs(eta0) < 1e-3 and abs(eta1) < 1e-3:
                continue
            mode = pure_mode(eta0, eta1)
            bound = math.sqrt(2.0 * mode.energy)
            peak = max(abs(yd) for _, _, yd in mode.sample_period(512))
            assert peak <= bound * (1.0 + 1e-9)
            assert peak >= bound * (1.0 - 1e-2)


class TestPeriod:
    def test_harmonic_limit(self):
        assert period_for_amplitude(0.0) == pytest.approx(HARMONIC_PERIOD, rel=1e-14)
        assert period_for_amplitude(1e-6) == pytest.approx(HARMONIC_PERIOD, rel=1e-9)

    @pytest.mark.parametrize("amplitude", [0.1, 0.5, 1.0, 1.5, 2.0])
    def test_quadrature_matches_event_detection(self, amplitude):
        t_quad = period_for_amplitude(amplitude)
        t_event = duffing_period_by_event_detection(amplitude)
        assert abs(t_quad - t_event) < 1e-9

    def test_hardening_monotonicity(self):
        periods = [period_for_amplitude(a) for a in (0.1, 0.5, 1.0, 1.5, 2.0)]
        assert all(b < a for a, b in zip(periods, periods[1:]))

    def test_event_oracle_agrees_with_integrated_orbit(self):
        # cross-check the oracle itself against the integrated orbit
        mode = mode_from_energy(2.0)
        t_event = duffing_period_by_event_detection(mode.amplitude)
        y, yd = duffing_state(mode.eta0, mode.eta1, t_event)
        assert y == pytest.approx(mode.amplitude, abs=1e-9)
        assert yd == pytest.approx(0.0, abs=1e-8)


class TestHillCoefficient:
    def test_minimum_over_period_is_seven(self):
        # any nonzero orbit crosses y = 0, where a(t) attains 7
        mode = pure_mode(0.9, 0.5)
        samples = mode.sample_period(4096)
        a_min = min(7.0 + 13.5 * y * y for _, y, _ in samples)
        assert 7.0 - 1e-12 <= a_min < 7.0 + 1e-4


class TestClassify:
    def test_constant_coefficient_reference(self):
        zero = mode_from_energy(0.0)
        report = classify(zero)
        expected = 2.0 * math.cos(math.sqrt(7.0) * zero.period)
        assert report.trace == pytest.approx(expected, abs=1e-9)
        assert report.classification is Stability.STABLE
        assert abs(report.det - 1.0) < 1e-8

    def test_just_inside_sufficient_region(self):
        report = classify(pure_mode(0.69, 0.0))
        assert report.classification is Stability.STABLE
        assert report.zhukovskii_sufficient

    def test_stable_above_sufficient_region(self):
        report = classify(mode_from_energy(0.9))
        assert report.classification is Stability.STABLE
        assert not report.zhukovskii_sufficient

    def test_wronskian_det_one_random_energies(self):
        rng = np.random.default_rng(17)
        for e in rng.uniform(0.05, 10.0, 20):
            report = classify(mode_from_energy(e))
            assert abs(report.det - 1.0) < 1e-8

    def test_trace_is_phase_invariant(self):
        # monodromy from any point of the same orbit is conjugate
        e = 2.7
        canonical = classify(mode_from_energy(e))
        shifted = classify(pure_mode(0.0, -math.sqrt(2.0 * e)))
        assert shifted.trace == pytest.approx(canonical.trace, abs=1e-8)

    def test_multipliers_and_exponents(self):
        mode = mode_from_energy(2.0)
        report = classify(mode)
        l1, l2 = report.multipliers
        assert l1 * l2 == pytest.approx(report.det, abs=1e-9)
        assert l1 + l2 == pytest.approx(report.trace, abs=1e-12)
        b1, b2 = report.exponents
        assert b2 == -b1
        assert cmath.exp(1j * b1 * mode.period) == pytest.approx(l1, abs=1e-9)

    def test_unstable_mode_has_real_growing_multiplier(self):
        report = classify(mode_from_energy(6.0))
        assert report.classification is Stability.UNSTABLE
        assert report.exponents is None
        assert max(abs(l) for l in report.multipliers) > 1.0

    def test_semigroup_over_two_periods(self):
        for e in (2.5, 6.0):
            mode = mode_from_energy(e)
            m1 = np.array(monodromy_matrix(mode))
            m2 = hill_fundamental_matrix(mode, 2.0 * mode.period)
            err = np.abs(m2 - m1 @ m1).max()
            assert err < 1e-7 * max(1.0, np.abs(m1 @ m1).max())

    def test_sufficient_region_is_stable(self):
        energies = [0.05 * k for k in range(1, 16)] + [0.799, ZHUKOVSKII_ENERGY]
        for e in energies:
            report = classify(mode_from_energy(e))
            assert report.classification is Stability.STABLE
            assert report.zhukovskii_sufficient
            # sufficiency: the flag may never accompany an unstable verdict
            assert report.classification is not Stability.UNSTABLE


class TestForcedCheck:
    def test_zero_forcing_stays_at_rest(self):
        check = forced_check(mode_from_energy(0.5), 0.0, 20)
        assert check.sup_norm == 0.0
        assert check.growth_rate == 0.0
        assert check.bounded_verdict

    def test_preconditions(self):
        mode = mode_from_energy(0.5)
        with pytest.raises(ValueError):
            forced_check(mode, -0.01, 20)
        with pytest.raises(ValueError):
            forced_check(mode, math.nan, 20)
        with pytest.raises(ValueError):
            forced_check(mode, 0.01, 9)
        with pytest.raises(ValueError):
            forced_check(mode, 0.01, 100_001)

    def test_stable_mode_is_bounded(self):
        check = forced_check(mode_from_energy(0.5), 0.01, 200)
        assert check.bounded_verdict
        assert check.periods_completed == 200
        assert 0.0 < check.sup_norm < 0.1

    def test_unstable_growth_matches_floquet_rate(self):
        mode = mode_from_energy(6.0)
        report = classify(mode)
        lam = max(abs(l) for l in report.multipliers)
        nu = math.log(lam) / mode.period
        check = forced_check(mode, 0.01, 200)
        assert not check.bounded_verdict
        assert check.growth_rate == pytest.approx(nu, rel=0.2)

    @pytest.mark.parametrize("energy,delta,why", [
        (6.0, 1e12, "within the first period"),
        (0.5, 1e307, "step size collapsed"),
        (0.5, 1e308, "step size collapsed"),
        (6.0, 1e308, "step size collapsed"),
    ])
    def test_forcing_with_no_rate_to_fit_is_refused(self, energy, delta, why):
        # the response trips the magnitude guard within one period, or the
        # half-period integration collapses: no growth rate can be fitted
        with pytest.raises(ValueError, match=why):
            forced_check(mode_from_energy(energy), delta, 200)

    def test_strong_forcing_still_fits_two_periods(self):
        # a decade weaker: the guard trips in period 6, and the fit has points
        check = forced_check(mode_from_energy(6.0), 1e11, 200)
        assert 2 <= check.periods_completed < 200
        assert not check.bounded_verdict and check.growth_rate > 0.0

    def test_forced_magnitude_guard_truncates(self):
        check = forced_check(mode_from_energy(6.0), 0.01, 200)
        assert check.periods_completed < 200
        assert check.sup_norm > 1e9


class TestVerdictPins:
    """Bit-exact values of one stable, one unstable and one early blow-up mode.

    ``test_prop2_grid_pinned`` hashes the chart without the growth rate;
    this pins the monodromy trace and det and every number ``forced_check``
    returns (delta 0.01, 200 periods), as hex floats.
    """

    PINS = {
        1.0: ("-0x1.1b2f080e304f8p-1", "0x1.ffffffffca6a5p-1",
              "-0x1.b101184bab76dp-20", "0x1.16c2ded9f0feep-8", 200),
        5.0: ("0x1.0269ac88f689ep+1", "0x1.ffffffffd0c74p-1",
              "0x1.9ac15eef94eb5p-5", "0x1.ec5f6421c737ep+29", 200),
        # the forced magnitude guard ends the horizon early
        9.5: ("0x1.6bcd36de3bb0cp+1", "0x1.ffffffffd0e20p-1",
              "0x1.77ece96697269p-2", "0x1.32744e52ccee2p+38", 37),
    }

    @pytest.mark.parametrize("energy", list(PINS))
    def test_bit_identical(self, energy):
        mode = mode_from_energy(energy)
        report = classify(mode)
        check = forced_check(mode, 0.01, 200)
        assert (
            report.trace.hex(), report.det.hex(), check.growth_rate.hex(),
            check.sup_norm.hex(), check.periods_completed,
        ) == self.PINS[energy]


class TestForcedOracle:
    @pytest.mark.parametrize("energy", [1.0, 5.0, 9.0])
    def test_one_period_map_matches_long_integration(self, energy):
        mode = mode_from_energy(energy)
        check = forced_check(mode, 0.01, 200)
        oracle = forced_check_by_long_integration(mode, 0.01, 200)
        assert oracle.bounded_verdict == (energy < 5.0)
        assert check.bounded_verdict == oracle.bounded_verdict
        assert check.periods_completed == oracle.periods_completed
        if not oracle.bounded_verdict:
            assert check.growth_rate == pytest.approx(oracle.growth_rate, rel=1e-3)


class TestEquivalence:
    def test_forced_verdict_matches_classification(self):
        # boundedness of the forced equation and Floquet stability of the
        # unforced one must agree away from the stability transition
        energies = [0.2 * k for k in range(1, 51)]
        classes = [classify(mode_from_energy(e)).classification for e in energies]
        verdicts = [
            forced_check(mode_from_energy(e), 0.01, 60).bounded_verdict
            for e in energies
        ]
        excluded = set()
        for i in range(len(energies) - 1):
            if classes[i] != classes[i + 1]:
                excluded.update((i, i + 1))
        for i, e in enumerate(energies):
            if i in excluded or classes[i] is Stability.MARGINAL:
                continue
            assert verdicts[i] == (classes[i] is Stability.STABLE), (
                f"disagreement at E={e}: {classes[i]} vs bounded={verdicts[i]}"
            )


PROP2_ENERGIES = [0.5 * k for k in range(1, 21)]

# turning-point modes across the energy range, plus four other phases
ORACLE_MODES = (
    [("E", e) for e in [0.0, *PROP2_ENERGIES, 1e3, 1e10, 1e25, 1e30]]
    + [("phase", d) for d in ((0.0, -2.0), (0.7, -0.4), (1.1, 0.3), (-0.5, 1.7))]
)


class TestHalfPeriod:
    """The half-period paths against full-period integrations."""

    @pytest.mark.parametrize("kind,value", ORACLE_MODES, ids=str)
    def test_monodromy_matches_full_period_oracle(self, kind, value):
        # measured worst case 9.1e-12 (E = 5.0), relative to max(1, |M|)
        mode = mode_from_energy(value) if kind == "E" else pure_mode(*value)
        got = np.array(monodromy_matrix(mode))
        want = hill_fundamental_matrix(mode, mode.period)
        assert np.abs(got - want).max() < 3e-11 * max(1.0, np.abs(want).max())

    @pytest.mark.parametrize("delta", [0.0, 0.01, 0.05])
    def test_forced_matches_full_period_map(self, delta):
        # same verdicts and truncations; the per-period maxima are taken on
        # other step grids (measured worst sup_norm deviation 8.7e-5)
        for e in PROP2_ENERGIES:
            mode = mode_from_energy(e)
            got = forced_check(mode, delta, 200)
            want = forced_check_full_period(mode, delta, 200)
            assert got.bounded_verdict == want.bounded_verdict, e
            assert got.periods_completed == want.periods_completed, e
            assert got.sup_norm == pytest.approx(want.sup_norm, rel=2e-4, abs=0.0), e

    def test_longest_horizon_memory(self):
        # the per-period maxima are one array of doubles (0.8 MB at 100000
        # periods) and the fit streams over them; the values of xi come a
        # bounded block at a time, where a table of the whole horizon would
        # take some 280 MB.  Measured peak 1.53 MB, bound with 1 MB to spare
        mode = mode_from_energy(1.0)
        tracemalloc.start()
        try:
            check = forced_check(mode, 0.01, MAX_HORIZON_PERIODS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert check.periods_completed == MAX_HORIZON_PERIODS
        assert peak < 2.5e6


class TestBoundaryEnergy:
    @pytest.mark.parametrize("energy", [0.5, 2.0, 4.9, 4.936208213, 6.0, 9.5, 1e3])
    def test_quarter_period_discriminant_gives_trace(self, energy):
        # D = 2 + 4 x1'(T/4) x2(T/4), the discriminant over T/2 of an even
        # coefficient, gives the trace over T as D^2 - 2
        mode = mode_from_energy(energy)
        (_, x2), (x1d, _) = fishbone.hill._fundamental_matrix(mode, 0.25 * mode.period)
        d = 2.0 + 4.0 * x1d * x2
        assert abs(d * d - 2.0 - classify(mode).trace) < 1e-9

    def test_matches_bisection_over_classify(self):
        lo, hi = 4.5, 5.5
        while hi - lo > 1e-10:
            mid = 0.5 * (lo + hi)
            if classify(mode_from_energy(mid)).trace > 2.0:
                hi = mid
            else:
                lo = mid
        e_c = fishbone.hill.boundary_energy(4.5, 5.5, 1e-10)
        assert abs(e_c - 0.5 * (lo + hi)) < 1e-8
        assert e_c == pytest.approx(4.936208213, abs=1e-8)
        assert amplitude_for_energy(e_c) == pytest.approx(1.463848320, abs=1e-8)

    def test_rejects_a_bracket_without_a_sign_change(self):
        with pytest.raises(ValueError, match="same sign"):
            fishbone.hill.boundary_energy(1.0, 2.0, 1e-6)
        for lo, hi, tol in ((5.5, 4.5, 1e-6), (-1.0, 5.0, 1e-6), (4.5, math.nan, 1e-6),
                            (4.5, 1e31, 1e-6), (4.5, 5.5, 0.0), (4.5, 5.5, math.nan)):
            with pytest.raises(ValueError):
                fishbone.hill.boundary_energy(lo, hi, tol)


class TestChart:
    def test_rejects_nonpositive_energy(self, charted_energies):
        for energies in ([0.0], [math.nan], [math.inf], [1.0, -1.0], [1.0, math.nan],
                         [1.0, 1e46]):
            with pytest.raises(ValueError, match="energies"):
                stability_chart(energies)
        # every energy is checked before the first is classified
        assert charted_energies == []

    def test_rejects_bad_forcing_before_first_energy(self, charted_energies):
        for delta, horizon, match in ((-0.01, 200, "delta"), (math.nan, 200, "delta"),
                                      (0.01, 5, "horizon"), (None, 5, "horizon")):
            with pytest.raises(ValueError, match=match):
                stability_chart([1.0, 2.0], forced_delta=delta, horizon_periods=horizon)
        assert charted_energies == []

    def test_energies_from_an_iterator(self):
        # the energies are read once, for the check and the rows alike
        rows = stability_chart(iter([1.0, 2.0]))
        assert repr(rows) == repr(stability_chart([1.0, 2.0]))

    @pytest.mark.parametrize("delta", [None, 0.01])
    @pytest.mark.parametrize("horizon", [10.5, 200.0, "200"])
    def test_rejects_a_horizon_that_is_not_an_int(self, charted_energies, delta, horizon):
        # a float horizon would reach range() in the forced check, or be
        # taken without forcing
        with pytest.raises(ValueError, match="horizon_periods must be an int"):
            stability_chart([1.0], forced_delta=delta, horizon_periods=horizon)
        with pytest.raises(ValueError, match="horizon_periods must be an int"):
            forced_check(mode_from_energy(1.0), 0.01, horizon)
        assert charted_energies == []

    @pytest.mark.parametrize("delta,energies", [
        (0.0, PROP2_ENERGIES), (0.01, PROP2_ENERGIES), (0.05, PROP2_ENERGIES), (1e11, [6.0]),
    ])
    def test_forced_rows_keep_the_bits_of_classify(self, cpus, monkeypatch, delta, energies):
        # a forced row takes its report from the forced check's integration;
        # trace, det, multipliers and classification are classify's
        cpus(1)
        reports = {}
        real = fishbone.hill._report

        def kept(mode, monodromy):
            reports[mode.energy] = real(mode, monodromy)
            return reports[mode.energy]

        monkeypatch.setattr(fishbone.hill, "_report", kept)
        rows = stability_chart(energies, forced_delta=delta)
        charted = dict(reports)
        assert sorted(charted) == energies

        def bits(report):
            return (report.trace.hex(), report.det.hex(),
                    [(z.real.hex(), z.imag.hex()) for z in report.multipliers],
                    report.classification)

        for row in rows:
            want = classify(mode_from_energy(row.energy))
            assert bits(charted[row.energy]) == bits(want), row.energy
            assert (row.trace.hex(), row.classification) == (want.trace.hex(),
                                                              want.classification)

    def test_csv_format(self):
        rows = stability_chart([0.799, 5.0])
        buf = io.StringIO()
        write_chart_csv(rows, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "E,amplitude,period,trace,classification,zhukovskii"
        first = lines[1].split(",")
        assert float(first[0]) == 0.799
        assert first[4] == "stable" and first[5] == "true"
        second = lines[2].split(",")
        assert second[4] == "unstable" and second[5] == "false"

    def test_csv_with_forced_columns(self):
        rows = stability_chart([0.5], forced_delta=0.01, horizon_periods=20)
        buf = io.StringIO()
        write_chart_csv(rows, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0].endswith(",forced_bounded,growth_rate")
        assert lines[1].split(",")[6] == "true"


# the energies of the prop2-grid preset
PROP2_GRID = HILL_PRESETS["prop2-grid"]["grid"]


def charted_where(monkeypatch, log, fail_at=None):
    """Logs the pid of each energy a chart row takes to ``log``; at
    ``fail_at`` it raises, naming its pid."""
    real = fishbone.hill.mode_from_energy
    log.write_text("")

    def logging(e):
        with open(log, "a") as fh:
            fh.write(f"{e!r} {os.getpid()}\n")
        if e == fail_at:
            raise RuntimeError(f"row failed in {os.getpid()}")
        return real(e)

    monkeypatch.setattr(fishbone.hill, "mode_from_energy", logging)
    return lambda: {float(e): int(pid) for e, pid in
                    (line.split() for line in log.read_text().splitlines())}


class TestChartFanOut:
    def test_same_rows_on_one_and_two_cpus(self, cpus):
        energies = _parse_grid(PROP2_GRID)
        assert len(energies) == 20
        rows = []
        for n in (1, 2):
            cpus(n)
            rows.append(stability_chart(energies, forced_delta=0.01))
            assert multiprocessing.active_children() == []
        # repr tells every float apart
        assert repr(rows[0]) == repr(rows[1])

    def test_energies_shared_with_a_child(self, cpus, monkeypatch, tmp_path):
        cpus(2)
        energies = [0.5, 1.0, 1.5, 2.0, 2.5]
        where = charted_where(monkeypatch, tmp_path / "log")
        rows = stability_chart(energies)
        assert [r.energy for r in rows] == energies
        # this process runs the first energy, one child the second, and
        # each of the two the next one left
        pids = where()
        assert sorted(pids) == energies
        assert pids[0.5] == os.getpid() != pids[1.0]
        assert set(pids.values()) == {os.getpid(), pids[1.0]}
        assert multiprocessing.active_children() == []

    def test_a_slowed_process_runs_fewer(self, cpus, monkeypatch, tmp_path):
        # the energies after the first two go to whichever process is free
        cpus(2)
        energies = [0.5 * k for k in range(1, 9)]
        real = fishbone.hill.classify
        here = os.getpid()

        def slow_here(mode):
            if os.getpid() == here:
                time.sleep(0.5)
            return real(mode)

        monkeypatch.setattr(fishbone.hill, "classify", slow_here)
        where = charted_where(monkeypatch, tmp_path / "log")
        rows = stability_chart(energies)
        assert [r.energy for r in rows] == energies
        pids = where()
        assert sorted(pids) == energies
        assert sum(pid == here for pid in pids.values()) < len(energies) // 2
        assert multiprocessing.active_children() == []

    def test_one_energy_forks_nothing(self, cpus, monkeypatch, tmp_path):
        cpus(2)

        def refuse(self):
            raise AssertionError("forked a child")

        monkeypatch.setattr(multiprocessing.get_context("fork").Process, "start", refuse)
        where = charted_where(monkeypatch, tmp_path / "log")
        stability_chart([1.0], forced_delta=0.01, horizon_periods=20)
        assert where() == {1.0: os.getpid()}
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cause", ["one-cpu", "daemonic", "threaded"])
    def test_serial_without_a_free_cpu_or_a_safe_fork(self, cpus, monkeypatch, tmp_path,
                                                        cause):
        # the rule of the threshold look-ahead and the sweep, _fork_context
        cpus(2)
        if cause == "one-cpu":
            cpus(1)
        elif cause == "daemonic":
            monkeypatch.setattr(multiprocessing.current_process(), "daemon", True)
        else:
            monkeypatch.setattr(fishbone._fork.threading, "active_count", lambda: 2)
        where = charted_where(monkeypatch, tmp_path / "log")
        stability_chart([1.0, 2.0, 3.0])
        assert where() == {1.0: os.getpid(), 2.0: os.getpid(), 3.0: os.getpid()}
        assert multiprocessing.active_children() == []

    def test_energy_of_a_failed_fork_runs_here(self, cpus, monkeypatch, tmp_path,
                                               refused_forks):
        # no process to spare: this process runs the failed child's energy
        # too, and closes the pipe made for that child
        cpus(1)
        expected = repr(stability_chart([1.0, 2.0, 3.0]))
        cpus(2)
        where = charted_where(monkeypatch, tmp_path / "log")
        assert repr(stability_chart([1.0, 2.0, 3.0])) == expected
        assert where() == {1.0: os.getpid(), 2.0: os.getpid(), 3.0: os.getpid()}
        assert refused_forks and all(conn.closed for conn in refused_forks)
        assert multiprocessing.active_children() == []

    def test_ctrl_c(self, ctrl_c, tmp_path):
        # Ctrl-C while a child classifies: only this process reports it
        code, err = ctrl_c("fishbone.hill.classify", "hill", "--grid", "1,2,3",
                           "--out", str(tmp_path / "chart.csv"))
        assert code == -signal.SIGINT
        assert err.count("Traceback") == 1 and err.endswith("KeyboardInterrupt\n"), err

    @pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="reads /proc")
    def test_orphaned_child_exits_quietly(self, tmp_path):
        # the parent hangs in its first energy and is killed while the child
        # classifies its own: the child's send then finds no reader, and it
        # must end there, classify no other energy, and print nothing
        log = tmp_path / "child-energies"
        script = f"""
import os, sys, time
sys.path.insert(0, {str(Path(fishbone.hill.__file__).parents[1])!r})
import fishbone.hill as hill
parent, real = os.getpid(), hill.classify
def classify(mode):
    if os.getpid() == parent:
        time.sleep(60)
    with open({str(log)!r}, "a") as fh:
        fh.write(f"{{os.getpid()}} {{mode.energy!r}}\\n")
    time.sleep(1.0)
    return real(mode)
hill.classify = classify
os.sched_getaffinity = lambda pid: {{0, 1}}
hill.stability_chart([1.0, 2.0])
"""
        err = tmp_path / "stderr"
        with open(err, "w") as fh:
            parent = subprocess.Popen([sys.executable, "-c", script], stderr=fh)
        try:
            deadline = time.monotonic() + 30
            while not (log.exists() and log.read_text()) and time.monotonic() < deadline:
                time.sleep(0.05)
            child = int(log.read_text().split()[0])
        finally:
            parent.kill()
            parent.wait()

        def running():
            try:
                stat = Path(f"/proc/{child}/stat").read_text()
            except FileNotFoundError:
                return False
            return stat.rsplit(")", 1)[1].split()[0] != "Z"

        deadline = time.monotonic() + 30
        while running() and time.monotonic() < deadline:
            time.sleep(0.05)
        if running():
            os.kill(child, signal.SIGKILL)
            pytest.fail("the orphaned child kept running")
        assert log.read_text().split()[1:] == ["2.0"]
        assert err.read_text() == ""

    def test_child_exception_reaches_the_caller(self, cpus, monkeypatch, tmp_path):
        cpus(2)
        where = charted_where(monkeypatch, tmp_path / "log", fail_at=2.0)
        with pytest.raises(RuntimeError, match="row failed in") as err:
            stability_chart([1.0, 2.0])
        child = where()[2.0]
        assert child != os.getpid()
        assert str(err.value) == f"row failed in {child}"
        assert multiprocessing.active_children() == []

    def test_own_failure_raised_first(self, cpus, monkeypatch):
        # energy 2.0 fails in the child and 3.0 here: this process's own
        # exception is raised, and the child is reaped all the same
        cpus(2)
        real = fishbone.hill.classify

        def failing(mode):
            if mode.energy in (2.0, 3.0):
                raise RuntimeError(f"classify failed at {mode.energy!r}")
            return real(mode)

        monkeypatch.setattr(fishbone.hill, "classify", failing)
        with pytest.raises(RuntimeError, match="failed at 3.0"):
            stability_chart([1.0, 2.0, 3.0])
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("where", ["task", "ticket-lock"])
    def test_dead_child_raises(self, tmp_path, where):
        # a child killed outright, in a task or holding the lock on the task
        # counter, raises here instead of leaving its rows out or hanging;
        # run in a child process group, so a hang is killed with it
        script = tmp_path / "dead_child.py"
        script.write_text(
            "import fcntl, multiprocessing, os, signal\n"
            "import fishbone.hill as hill\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "here, real, lockf = os.getpid(), hill.classify, fcntl.lockf\n"
            "def dying(mode):\n"
            "    if os.getpid() != here:\n"
            "        os.kill(os.getpid(), signal.SIGKILL)\n"
            "    return real(mode)\n"
            "def dying_locked(fd, cmd):\n"
            "    lockf(fd, cmd)\n"
            "    if cmd == fcntl.LOCK_EX and os.getpid() != here:\n"
            "        os.kill(os.getpid(), signal.SIGKILL)\n"
            f"if {where!r} == 'task':\n"
            "    hill.classify = dying\n"
            "else:\n"
            "    fcntl.lockf = dying_locked\n"
            "try:\n"
            "    rows = hill.stability_chart([1.0, 2.0, 3.0])\n"
            "except Exception as e:\n"
            "    print(type(e).__name__, multiprocessing.active_children())\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(fishbone.hill.__file__).parents[1]))
        proc = subprocess.Popen([sys.executable, str(script)], stdout=subprocess.PIPE,
                                text=True, env=env, start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail("the chart still waited on its dead child after 60 s")
        assert proc.returncode == 0
        assert out == "ChildProcessError []\n"
