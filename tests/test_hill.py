import cmath
import io
import math

import numpy as np
import pytest

from fishbone.hill import (
    HARMONIC_PERIOD,
    ZHUKOVSKII_AMPLITUDE,
    ZHUKOVSKII_ENERGY,
    Stability,
    classify,
    forced_check,
    mode_from_energy,
    monodromy_matrix,
    period_for_amplitude,
    pure_mode,
    stability_chart,
    write_chart_csv,
)
from fishbone.model import vertical_mode_energy
from oracles import duffing_period_by_event_detection, forced_check_by_long_integration


class TestPureMode:
    def test_rejects_rest_data(self):
        with pytest.raises(ValueError):
            pure_mode(0.0, 0.0)

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
        assert mode.evaluate(0.0) == (0.7, -0.4)

    def test_evaluator_is_periodic(self):
        mode = pure_mode(1.1, 0.3)
        for t in (0.4, 1.3):
            y0, yd0 = mode.evaluate(t)
            y1, yd1 = mode.evaluate(t + mode.period)
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
        # cross-check the oracle itself against the evaluator's periodicity
        mode = mode_from_energy(2.0)
        t_event = duffing_period_by_event_detection(mode.amplitude)
        y, yd = mode.evaluate(t_event)
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
            m1 = np.array(monodromy_matrix(mode, 1))
            m2 = np.array(monodromy_matrix(mode, 2))
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

    def test_forced_magnitude_guard_truncates(self):
        check = forced_check(mode_from_energy(6.0), 0.01, 200)
        assert check.periods_completed < 200
        assert check.sup_norm > 1e9


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


class TestChart:
    def test_rejects_nonpositive_energy(self):
        with pytest.raises(ValueError):
            stability_chart([0.0])

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
