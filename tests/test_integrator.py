import functools
import hashlib
import importlib.util
import io
import itertools
import math
import signal
import sys
import tracemalloc
from array import array
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from oracles import dormand_prince_step, duffing_state, rk4_reference

import fishbone.integrator
from fishbone.cli import write_trajectory_csv
from fishbone.hill import period_for_amplitude
from fishbone.integrator import (
    _CSV_CHUNK_ROWS,
    _SCALAR_MAX_MODES,
    BLOWUP_LIMIT,
    MAX_SAMPLES,
    MAX_STEPS,
    AdaptiveDriver,
    IntegratorConfig,
    Scheme,
    StepSizeCollapseError,
    Trajectory,
    make_initial,
    simulate,
    _check_run,
    _dp_stages,
    _Observer,
    _kernel,
)
from fishbone.model import (
    MAX_MODES,
    ModelSpec,
    SystemState,
    Variant,
    _aero_delta,
    _cross_coefficients,
    _energy_terms,
    energy,
    rhs_one_mode,
)

ISO = ModelSpec(Variant.ISOLATED)


def cfg(**kw):
    return IntegratorConfig(**kw)


class TestMakeInitial:
    def test_standard_seed(self):
        st = make_initial(1.47)
        assert st.y == (1.47,)
        assert st.z[0] == pytest.approx(1.47e-4, rel=1e-15)
        assert st.ydot == (0.0,) and st.zdot == (0.0,)

    def test_zero_sigma_is_rest(self):
        assert make_initial(0.0).flat() == (0.0, 0.0, 0.0, 0.0)

    def test_higher_modes_start_at_zero(self):
        st = make_initial(1.5, m=3)
        assert st.y == (1.5, 0.0, 0.0)
        assert st.z[0] == pytest.approx(1.5e-4, rel=1e-15)
        assert st.z[1:] == (0.0, 0.0)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf])
    def test_non_finite_sigma_rejected(self, sigma):
        with pytest.raises(ValueError):
            make_initial(sigma)

    def test_sigma_bounded_where_the_quartic_energy_overflows(self):
        # from float max ** 1/4 up, y**4 in the initial energy raises
        # OverflowError; the next float below it is accepted
        limit = sys.float_info.max**0.25
        below = math.nextafter(limit, 0.0)
        for sigma in (below, -below):
            st = make_initial(sigma)
            assert st.y == (sigma,)
            assert math.isfinite(energy(ISO, st).total)
        for sigma in (limit, -limit, 1e200):
            with pytest.raises(ValueError, match="sigma"):
                make_initial(sigma)

    def test_sigma_unbounded_without_an_energy(self):
        # m > 1 has no energy function, so only a non-finite sigma is refused
        assert make_initial(1e200, 2).y == (1e200, 0.0)
        for sigma in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="sigma"):
                make_initial(sigma, 2)


class TestConfigValidation:
    def test_step_cannot_exceed_sampling(self):
        with pytest.raises(ValueError):
            cfg(h=0.02, sample_every=0.01)

    def test_positive_horizon(self):
        with pytest.raises(ValueError):
            cfg(t_end=-1.0)

    def test_positive_tolerances(self):
        with pytest.raises(ValueError):
            cfg(rel_tol=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["h", "rel_tol", "abs_tol", "t_end", "sample_every"])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError):
            cfg(**{field: value})

    # the step and sample counts are ints: an infinite one has no value
    @pytest.mark.parametrize("kw", [
        dict(t_end=1e308),
        dict(h=1e-320),
        dict(sample_every=1e308, t_end=1.0),
    ])
    def test_overflowing_step_count_rejected(self, kw):
        with pytest.raises(ValueError, match="/ h must be finite"):
            cfg(**kw)

    # a finite count may still be too large to run (the config refuses it)
    # or to keep (the run refuses it)
    @pytest.mark.parametrize("kw,what", [
        (dict(t_end=1e300), "steps"),
        (dict(h=1.0, sample_every=1e9 + 1, t_end=1e9 + 1), "steps"),
        (dict(h=1.0, sample_every=1.0, t_end=1e7 + 1), "samples"),
        # fixed RK4 samples every round(1.4) = 1 step: 1.4e7 samples
        (dict(h=1.0, sample_every=1.4, t_end=1.4e7), "samples"),
    ])
    def test_step_or_sample_count_above_cap_rejected(self, kw, what):
        with pytest.raises(ValueError, match=f"at most .* {what}|{what} would hold"):
            _check_run(ISO, cfg(**kw), 100.0)

    def test_adaptive_interval_within_time_snap_rejected(self):
        # the adaptive driver takes a gap within 1e-13 max(1, |t|) as
        # reached, so such a run would end on t_end without a step
        ad = Scheme.ADAPTIVE_EMBEDDED
        for kw in (dict(h=5e-14, sample_every=5e-14, t_end=5e-14),
                   dict(h=5e-14, sample_every=1.0, t_end=5e-14)):
            with pytest.raises(ValueError, match="time snap"):
                cfg(scheme=ad, **kw)
            assert simulate(ISO, make_initial(1.47), cfg(**kw)).final_state().ydot[0] < 0.0
        kw = dict(h=2e-13, sample_every=2e-13, t_end=2e-13)
        assert simulate(ISO, make_initial(1.47), cfg(scheme=ad, **kw)).final_state().ydot[0] < 0.0

    def test_counts_at_cap_accepted(self):
        cfg(h=1.0, sample_every=float(MAX_STEPS), t_end=float(MAX_STEPS))
        _check_run(ISO, cfg(h=1.0, sample_every=1.0, t_end=float(MAX_SAMPLES)), 100.0)
        # the cap counts the samples each scheme records
        ad = Scheme.ADAPTIVE_EMBEDDED
        _check_run(ISO, cfg(scheme=ad, h=1.0, sample_every=1.4, t_end=1.4e7), 100.0)
        _check_run(ISO, cfg(h=1.0, sample_every=1.6, t_end=2e7), 100.0)

    @pytest.mark.parametrize("scheme,recorded", [
        (Scheme.FIXED_RK4, 1491), (Scheme.ADAPTIVE_EMBEDDED, 1001),
    ])
    def test_samples_recorded_as_counted(self, scheme, recorded):
        # fixed RK4 records every round(1.49) = 1 step, not every 1.49e-3
        config = cfg(scheme=scheme, h=1e-3, sample_every=1.49e-3, t_end=1.49)
        traj = simulate(ISO, make_initial(1.0), config)
        assert len(traj.samples) == recorded
        # the memory budget counts the same samples after the seed
        assert _check_run(ISO, config, 100.0) == 5 * MAX_SAMPLES // (5 * (recorded - 1))

    def test_sample_memory_capped_at_one_mode_budget(self):
        # a sample holds 4m + 1 doubles; the cap on their total is the
        # m = 1 budget, so MAX_SAMPLES samples pass at m = 1 and no more
        at_cap = cfg(h=1.0, sample_every=1.0, t_end=float(MAX_SAMPLES))
        _check_run(ISO, at_cap, 100.0)
        with pytest.raises(ValueError, match="400 MB"):
            _check_run(ModelSpec(Variant.ISOLATED, m=2), at_cap, 100.0)
        # m = 1000: 4001 doubles a sample, so 12 496 samples and no more;
        # adaptive, as fixed RK4 at h = 1 is unstable there
        spec = ModelSpec(Variant.ISOLATED, m=MAX_MODES)
        ad = Scheme.ADAPTIVE_EMBEDDED
        _check_run(spec, cfg(scheme=ad, h=1.0, sample_every=1.0, t_end=12496.0), 100.0)
        with pytest.raises(ValueError, match="400 MB"):
            _check_run(spec, cfg(scheme=ad, h=1.0, sample_every=1.0, t_end=12497.0), 100.0)

    def test_sample_memory_says_how_many_runs_fit(self):
        # what a sweep's pool may hold at once: the default 20 000 samples of
        # 5 doubles fit 500 times, 10 000 samples of 2001 doubles twice
        assert _check_run(ISO, cfg(), 100.0) == 500
        spec = ModelSpec(Variant.ISOLATED, m=500)
        ad = Scheme.ADAPTIVE_EMBEDDED
        assert _check_run(spec, cfg(scheme=ad, t_end=100.0), 100.0) == 2
        assert _check_run(spec, cfg(scheme=ad, t_end=125.0), 100.0) == 1

    @pytest.mark.parametrize("m,sigma,gain,t_end,match", [
        (1, 1.0, 1.0, 1.0, "onset_gain"),
        # 20 001 samples of 4001 doubles: 640 MB at the default sampling
        (MAX_MODES, 1.0, 100.0, 200.0, "400 MB"),
        (54, 0.01, 100.0, 1.0, "necessary"),
    ], ids=["gain", "memory", "step"])
    def test_simulate_refuses_before_running(self, monkeypatch, m, sigma, gain, t_end, match):
        spec = ModelSpec(Variant.ISOLATED, m=m)
        monkeypatch.setattr(fishbone.integrator, "_Observer", None)
        with pytest.raises(ValueError, match=match):
            simulate(spec, make_initial(sigma, m), cfg(t_end=t_end), gain)

    def test_fixed_step_bound(self):
        # h * sqrt(m^4 + 2) < 2 sqrt(2), RK4's reach on the imaginary axis:
        # 2.809 at m = 53 and 2.916 at m = 54 for h = 1e-3
        m53, m54 = ModelSpec(Variant.ISOLATED, m=53), ModelSpec(Variant.ISOLATED, m=54)
        _check_run(m53, cfg(), 100.0)
        with pytest.raises(ValueError, match="necessary, not sufficient"):
            _check_run(m54, cfg(), 100.0)
        _check_run(m54, cfg(h=5e-4), 100.0)
        _check_run(m54, cfg(scheme=Scheme.ADAPTIVE_EMBEDDED), 100.0)
        # m = 1: sqrt(3) h, so h = 1.6 passes and 1.7 does not
        _check_run(ISO, cfg(h=1.6, sample_every=1.6), 100.0)
        with pytest.raises(ValueError, match="h=1.7 at m=1"):
            _check_run(ISO, cfg(h=1.7, sample_every=1.7), 100.0)


class TestSimulateBasics:
    def test_rest_stays_at_rest(self):
        traj = simulate(ISO, make_initial(0.0), cfg(t_end=1.0))
        assert all(s.flat() == (0.0, 0.0, 0.0, 0.0) for s, _ in traj.samples)
        assert traj.onset is None and traj.max_torsion == 0.0

    def test_sample_times(self):
        traj = simulate(ISO, make_initial(1.0), cfg(t_end=1.0))
        times = [s.t for s, _ in traj.samples]
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(1.0, abs=1e-12)
        assert len(times) == 101
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_adaptive_sample_interval_beyond_horizon(self):
        traj = simulate(
            ISO, make_initial(1.47),
            cfg(scheme=Scheme.ADAPTIVE_EMBEDDED, t_end=1e-4, sample_every=1e6),
        )
        assert [s.t for s, _ in traj.samples] == [0.0, 1e-4]
        assert traj.terminated_early is None

    def test_period_return(self):
        # after one orbit of the pure vertical mode the state must return
        t_period = period_for_amplitude(1.0)
        initial = SystemState.single(0.0, 1.0, 0.0, 0.0, 0.0)
        traj = simulate(ISO, initial, cfg(t_end=t_period))
        final = traj.final_state()
        assert final.t == pytest.approx(t_period, abs=1e-12)
        assert final.y[0] == pytest.approx(1.0, abs=1e-8)
        assert final.ydot[0] == pytest.approx(0.0, abs=1e-8)

    def test_fourth_order_convergence(self):
        # Richardson self-convergence against the adaptive oracle at t=10
        oracle = simulate(
            ISO,
            make_initial(1.3),
            cfg(scheme=Scheme.ADAPTIVE_EMBEDDED, rel_tol=1e-13, abs_tol=1e-15,
                t_end=10.0),
        ).final_state()

        def err(h):
            final = simulate(ISO, make_initial(1.3), cfg(h=h, t_end=10.0)).final_state()
            return max(abs(a - b) for a, b in zip(final.flat(), oracle.flat()))

        e4, e2, e1 = err(4e-3), err(2e-3), err(1e-3)
        assert 10.0 < e4 / e2 < 23.0
        assert 10.0 < e2 / e1 < 23.0

    def test_reversibility(self):
        fwd = simulate(ISO, make_initial(1.3), cfg(t_end=10.0)).final_state()
        flipped = SystemState(
            t=0.0, y=fwd.y, z=fwd.z,
            ydot=tuple(-v for v in fwd.ydot), zdot=tuple(-v for v in fwd.zdot),
        )
        back = simulate(ISO, flipped, cfg(t_end=10.0)).final_state()
        assert back.y[0] == pytest.approx(1.3, abs=1e-6)
        assert back.z[0] == pytest.approx(1.3e-4, abs=1e-6)

    def test_determinism_bit_identical(self):
        runs = [simulate(ISO, make_initial(1.47), cfg(t_end=20.0)) for _ in range(2)]
        a, b = runs
        assert a.onset == b.onset and a.max_torsion == b.max_torsion
        for (sa, ea), (sb, eb) in zip(a.samples, b.samples):
            assert sa.flat() == sb.flat() and sa.t == sb.t
            assert ea.total == eb.total

    def test_adaptive_determinism(self):
        c = cfg(scheme=Scheme.ADAPTIVE_EMBEDDED, t_end=5.0)
        a = simulate(ISO, make_initial(1.47), c)
        b = simulate(ISO, make_initial(1.47), c)
        for (sa, _), (sb, _) in zip(a.samples, b.samples):
            assert sa.flat() == sb.flat()

    def test_adaptive_agrees_with_fixed(self):
        fixed = simulate(ISO, make_initial(1.2), cfg(t_end=10.0)).final_state()
        adaptive = simulate(
            ISO, make_initial(1.2), cfg(scheme=Scheme.ADAPTIVE_EMBEDDED, t_end=10.0)
        ).final_state()
        for a, b in zip(fixed.flat(), adaptive.flat()):
            assert a == pytest.approx(b, abs=1e-6)

    def test_onset_gain_must_exceed_one(self):
        with pytest.raises(ValueError):
            simulate(ISO, make_initial(1.0), cfg(t_end=1.0), onset_gain=1.0)

    @pytest.mark.parametrize("gain", [math.nan, math.inf])
    def test_onset_gain_must_be_finite(self, gain):
        with pytest.raises(ValueError):
            simulate(ISO, make_initial(1.0), cfg(t_end=1.0), onset_gain=gain)


class TestEnergyConservation:
    @pytest.mark.parametrize("sigma", [0.5, 1.0, 1.45, 2.0])
    def test_isolated_drift_below_1e6(self, sigma):
        traj = simulate(ISO, make_initial(sigma), cfg(t_end=200.0))
        e0 = traj.initial_energy()
        worst = max(abs(e.total - e0) for _, e in traj.samples)
        assert worst / e0 < 1e-6


class TestOnsetDetection:
    def test_onset_fires_on_instability(self, run_standard):
        traj = run_standard(Variant.ISOLATED, 0.0, 1.47)
        assert traj.onset is not None
        # the detector fires on the first step at or past the threshold, so
        # the recorded gain can only overshoot 100 by one step's growth
        assert 100.0 <= traj.onset.gain < 105.0
        assert 0.0 < traj.onset.t_onset < 200.0
        assert traj.max_torsion >= traj.onset.gain * 1.47e-4

    def test_no_onset_when_seed_is_zero(self):
        initial = SystemState.single(0.0, 1.7, 0.0, 0.0, 0.0)
        traj = simulate(ISO, initial, cfg(t_end=50.0))
        assert traj.onset is None
        assert traj.max_torsion == 0.0

    def test_invariant_subspace_is_exact(self):
        # zero torsional data stays exactly zero: the vertical motion then
        # solves the decoupled hardening oscillator
        initial = SystemState.single(0.0, 1.0, 0.0, 0.0, 0.0)
        traj = simulate(ISO, initial, cfg(t_end=20.0))
        assert all(s.z[0] == 0.0 and s.zdot[0] == 0.0 for s, _ in traj.samples)
        # and the vertical coordinate matches the decoupled oscillator,
        # integrated by the independent adaptive path
        y_ref, yd_ref = duffing_state(1.0, 0.0, 20.0)
        final = traj.final_state()
        assert final.y[0] == pytest.approx(y_ref, abs=1e-7)
        assert final.ydot[0] == pytest.approx(yd_ref, abs=1e-7)


class TestEnergyPlateau:
    def test_energy_transfer_is_localized(self, run_standard):
        # the tracked energy stays nearly constant except while the transfer
        # happens: the quiet opening window is at least 10x flatter than the
        # transfer peak, and the overall span stays below 1%.  (The window is
        # anchored to the data, not to the onset event: at sigma=1.47 the
        # gain detector fires ~60 time units before the transfer peak.)
        traj = run_standard(Variant.CROSS_DERIV, 0.01, 1.47)
        energies = [e.total for _, e in traj.samples]
        times = [s.t for s, _ in traj.samples]
        e0 = energies[0]
        span = (max(energies) - min(energies)) / e0
        assert span < 0.01, span
        rates = [
            abs(b - a) / (tb - ta)
            for (a, b, ta, tb) in zip(energies, energies[1:], times, times[1:])
        ]
        quiet = max(r for r, t in zip(rates, times) if t <= 40.0)
        peak = max(rates)
        assert quiet * 10.0 <= peak, (quiet, peak)


class TestBlowUp:
    def test_terminates_early_and_keeps_samples(self):
        traj = simulate(ISO, make_initial(1e9), cfg(t_end=1.0))
        assert traj.terminated_early is not None
        t_term, reason = traj.terminated_early
        assert reason.startswith("blow-up")
        assert t_term <= 1.0
        assert traj.samples[-1][0].t < t_term or traj.samples[-1][0].t == 0.0

    def test_adaptive_blow_up_reported(self):
        traj = simulate(
            ISO, make_initial(1e9), cfg(scheme=Scheme.ADAPTIVE_EMBEDDED, t_end=1.0)
        )
        assert traj.terminated_early is not None

    def test_blow_up_on_the_short_step_onto_t_end(self):
        # t_end is half a step, so the one step is the short one onto t_end
        initial = make_initial(1e4)
        traj = simulate(ISO, initial, cfg(t_end=5e-4))
        assert traj.terminated_early == (5e-4, "blow-up: state magnitude reached 1e+08")
        assert len(traj.samples) == 1
        assert traj.max_torsion == initial.z[0]

    def test_adaptive_step_size_collapse_recorded(self):
        # at t = 1e9 the step floor 1e-14 t = 1e-5 is above every step of 1e-6
        traj = simulate(
            ISO,
            SystemState.single(1e9, 1.47, 1.47e-4, 0.0, 0.0),
            cfg(scheme=Scheme.ADAPTIVE_EMBEDDED, h=1e-6, t_end=1.0),
        )
        assert traj.terminated_early == (1e9, "step-size collapse: no acceptable step found")

    @pytest.mark.parametrize("scheme", list(Scheme))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, BLOWUP_LIMIT, 1e12, -1e12])
    def test_non_finite_seed_is_a_blow_up(self, scheme, bad):
        # SystemState does not check its values; a seed that is NaN, inf or
        # at or beyond the guard stops either scheme at t0, before any step
        traj = simulate(
            ISO,
            SystemState.single(0.0, bad, 0.01, 0.0, 0.0),
            cfg(scheme=scheme, t_end=1.0),
        )
        assert traj.terminated_early == (0.0, "blow-up: state magnitude reached 1e+08")
        assert len(traj.samples) == 1
        assert traj.max_torsion == 0.01


class TestSymmetries:
    def variants(self):
        return [
            ModelSpec(Variant.ISOLATED),
            ModelSpec(Variant.CROSS_DERIV, delta=0.02),
            ModelSpec(Variant.CROSS_DERIV_ZERO, delta=0.02),
        ]

    def test_sign_flip_symmetry_exact(self):
        rng = np.random.default_rng(11)
        for i in range(6):
            spec = self.variants()[i % 3]
            vals = rng.uniform(-1.5, 1.5, 4)
            a = simulate(spec, SystemState.single(0.0, *vals), cfg(t_end=10.0))
            b = simulate(spec, SystemState.single(0.0, *(-vals)), cfg(t_end=10.0))
            for (sa, _), (sb, _) in zip(a.samples, b.samples):
                assert sb.y[0] == -sa.y[0] and sb.z[0] == -sa.z[0]
                assert sb.ydot[0] == -sa.ydot[0] and sb.zdot[0] == -sa.zdot[0]

    def test_torsional_reflection_isolated_exact(self):
        rng = np.random.default_rng(12)
        for _ in range(3):
            y0, z0, yd0, zd0 = rng.uniform(-1.5, 1.5, 4)
            a = simulate(ISO, SystemState.single(0.0, y0, z0, yd0, zd0), cfg(t_end=10.0))
            b = simulate(ISO, SystemState.single(0.0, y0, -z0, yd0, -zd0), cfg(t_end=10.0))
            for (sa, _), (sb, _) in zip(a.samples, b.samples):
                assert sb.y[0] == sa.y[0] and sb.ydot[0] == sa.ydot[0]
                assert sb.z[0] == -sa.z[0] and sb.zdot[0] == -sa.zdot[0]


class TestTrajectoryCsv:
    def test_round_trip_and_header(self):
        traj = simulate(ISO, make_initial(1.2), cfg(t_end=0.5))
        buf = io.StringIO()
        write_trajectory_csv(traj, buf, header_fields={"sigma": "1.2"})
        lines = buf.getvalue().splitlines()
        assert lines[0] == "# sigma=1.2"
        assert lines[1] == (
            "t,y1,z1,E_total,E_kin_y,E_kin_z,E_quad,E_coupling,E_quartic,E_aero"
        )
        assert len(lines) == 2 + len(traj.samples)
        first = lines[2].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == 1.2
        # 17 significant digits round-trip exactly
        last_state = traj.final_state()
        last = lines[-1].split(",")
        assert float(last[1]) == last_state.y[0]

    @pytest.mark.parametrize("spec", [
        ModelSpec(Variant.CROSS_DERIV_ZERO, delta=0.03), ModelSpec(Variant.ISOLATED, m=3),
    ], ids=["crosszero", "isolated-m3"])
    def test_samples_as_a_list(self, spec):
        # a slice of the samples is a list of (state, energy) pairs: a
        # trajectory holding a list copy writes the original's bytes, and
        # one holding a slice the original's first rows
        traj = simulate(spec, make_initial(1.47, spec.m), cfg(t_end=2.0))

        def csv(trajectory):
            buf = io.StringIO()
            write_trajectory_csv(trajectory, buf, header_fields={"sigma": "1.47"})
            return buf.getvalue()

        whole = csv(traj)
        assert csv(Trajectory(spec, list(traj.samples))) == whole
        head = csv(Trajectory(spec, traj.samples[:100]))
        assert head.splitlines() == whole.splitlines()[:102]
        assert len(whole.splitlines()) > 102

    def test_multimode_energy_columns_empty(self):
        spec = ModelSpec(Variant.ISOLATED, m=2)
        traj = simulate(spec, make_initial(1.0, m=2), cfg(t_end=0.1))
        buf = io.StringIO()
        write_trajectory_csv(traj, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0].startswith("t,y1,y2,z1,z2,")
        assert lines[1].endswith(",,,,,,")


class TestMultimode:
    def test_higher_mode_energy_is_none(self):
        spec = ModelSpec(Variant.ISOLATED, m=3)
        traj = simulate(spec, make_initial(1.0, m=3), cfg(t_end=0.2))
        assert all(e is None for _, e in traj.samples)

    def test_cubic_coupling_excites_mode_three(self):
        spec = ModelSpec(Variant.ISOLATED, m=3)
        traj = simulate(spec, make_initial(1.0, m=3), cfg(t_end=2.0))
        final = traj.final_state()
        assert final.y[2] != 0.0
        # even modes stay dark: the cubic of odd modes projects only on odd ones
        assert final.y[1] == pytest.approx(0.0, abs=1e-14)

    def test_multimode_determinism(self):
        spec = ModelSpec(Variant.ISOLATED, m=2)
        a = simulate(spec, make_initial(1.2, m=2), cfg(t_end=1.0))
        b = simulate(spec, make_initial(1.2, m=2), cfg(t_end=1.0))
        for (sa, _), (sb, _) in zip(a.samples, b.samples):
            assert sa.flat() == sb.flat()

    def test_multimode_adaptive_agrees_with_fixed(self):
        spec = ModelSpec(Variant.ISOLATED, m=2)
        fixed = simulate(spec, make_initial(1.2, m=2), cfg(t_end=1.0)).final_state()
        adaptive = simulate(
            spec, make_initial(1.2, m=2),
            cfg(scheme=Scheme.ADAPTIVE_EMBEDDED, t_end=1.0),
        ).final_state()
        for a, b in zip(fixed.flat(), adaptive.flat()):
            assert a == pytest.approx(b, abs=1e-8)


AD = Scheme.ADAPTIVE_EMBEDDED
BLOWUP = "blow-up: state magnitude reached 1e+08"


@pytest.mark.parametrize("scheme", list(Scheme))
@pytest.mark.parametrize("m", [1, 3])
def test_observer_sees_float_tuples(monkeypatch, scheme, m):
    """Every driver hands the observer the state as a tuple of Python floats.

    The fixed-step loop passes states only to ``fire`` and ``record``; the
    adaptive driver also passes every accepted step to ``watch``.
    """
    seen = {}
    for name in ("watch", "fire", "record"):
        real = getattr(_Observer, name)

        def spy(self, t, u, real=real, name=name):
            seen.setdefault(name, []).append(u)
            real(self, t, u)

        monkeypatch.setattr(_Observer, name, spy)
    # z1 starts moving at once, so gain 2 fires within the run
    initial = make_initial(1.47, m=m)
    initial = replace(initial, zdot=(0.01,) + initial.zdot[1:])
    traj = simulate(ModelSpec(Variant.ISOLATED, m=m), initial,
                    cfg(scheme=scheme, t_end=0.05), onset_gain=2.0)
    assert traj.onset is not None
    expected = {"fire", "record"} | ({"watch"} if scheme is AD else set())
    assert set(seen) == expected
    assert len(seen["record"]) == 6 and len(seen["fire"]) == 1
    states = [u for us in seen.values() for u in us]
    assert all(type(u) is tuple and {type(v) for v in u} == {float} for u in states)


def _oscillators(t, u):
    # uncoupled harmonic oscillators: positions u[:n], velocities u[n:]
    n = len(u) // 2
    return u[n:] + tuple([-v for v in u[:n]])


@pytest.fixture
def time_limit():
    """Fail a test that runs for 5 s instead of letting it hang the suite."""

    def expired(signum, frame):
        pytest.fail("no result within 5 s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, 5.0)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.usefixtures("time_limit")
class TestAdaptiveDriverInputs:
    @pytest.mark.parametrize("kw, name", [
        # a NaN step size never passes the error test, so it would loop
        (dict(h0=math.nan), "h0"),
        (dict(h0=math.inf), "h0"),
        (dict(h0=0.0), "h0"),
        (dict(h0=-1e-3), "h0"),
        # zero tolerances would divide by zero in the error norm
        (dict(rel_tol=0.0, abs_tol=0.0), "rel_tol"),
        (dict(rel_tol=math.nan), "rel_tol"),
        (dict(abs_tol=math.inf), "abs_tol"),
        (dict(abs_tol=-1e-12), "abs_tol"),
        (dict(t0=math.nan), "t0"),
        (dict(t0=-math.inf), "t0"),
        # so would an empty state
        (dict(u0=()), "u0"),
        (dict(u0=(1.0, math.nan)), "u0"),
        (dict(u0=(math.inf, 0.0)), "u0"),
        # an error norm over no component, or over more than the state has
        (dict(controlled=0), "controlled"),
        (dict(controlled=3), "controlled"),
        (dict(controlled=1.0), "controlled"),
    ])
    def test_constructor_rejects(self, kw, name):
        args = dict(f=_oscillators, t0=0.0, u0=(1.0, 0.0)) | kw
        with pytest.raises(ValueError, match=name):
            AdaptiveDriver(**args)

    # a NaN target would return at once without integrating
    @pytest.mark.parametrize("target", [math.nan, math.inf, -math.inf, 0.5])
    def test_advance_rejects_target(self, target):
        driver = AdaptiveDriver(_oscillators, 1.0, (1.0, 0.0))
        with pytest.raises(ValueError, match="finite and nondecreasing"):
            driver.advance(target)
        assert (driver.t, driver.u) == (1.0, (1.0, 0.0))
        assert driver.advance(1.0) == (1.0, (1.0, 0.0))


@pytest.mark.parametrize("n", [2, 6, 8])
def test_adaptive_driver_passes_float_tuples(n):
    """f and on_step get every state as a tuple of Python floats."""
    seen = []

    def f(t, u):
        seen.append(u)
        return _oscillators(t, u)

    steps = []
    driver = AdaptiveDriver(f, 0.0, np.linspace(0.5, 1.0, n))
    driver.advance(2.0, on_step=lambda t, u: steps.append(u))
    assert len(seen) >= 1 + 6 * len(steps) > 7
    for u in seen + steps:
        assert type(u) is tuple and len(u) == n
        assert {type(v) for v in u} == {float}


def _coupled(t, u):
    # a ring of cubic oscillators with a time-dependent drive
    n = len(u)
    return tuple([0.1 * math.sin(t) + u[(i + 1) % n] - 0.5 * u[i] * u[i] * u[i] for i in range(n)])


def _isolated_rhs(t, u):
    return (u[2], u[3], *rhs_one_mode(ISO, SystemState.single(t, *u)))


def _logged(f, log):
    """f that appends (t, u) of every call to log, as hex floats."""

    def g(t, u):
        log.append([t.hex()] + [v.hex() for v in u])
        return f(t, u)

    return g


_SIGNED = (0.0, -0.0, 0.5, -0.5)

# a handful of 9-component states, which take the tuple stages, with zeros
# of both signs
_NINE = [tuple(_SIGNED[(i + shift) % 4] for i in range(9)) for shift in range(4)] + [
    (0.0,) * 9, (-0.0,) * 9, (-0.5,) * 9, (0.5,) * 8 + (-0.0,)]


# _coupled makes every zero derivative +0.0 at t = 0; _oscillators keeps
# the signs of zeros, which the int start of the stage sums turns to +0.0
@pytest.mark.parametrize("f, states", [
    (_oscillators, list(itertools.product(_SIGNED, repeat=2))),
    (_isolated_rhs, list(itertools.product(_SIGNED, repeat=4))),
    (_oscillators, _NINE),
    (_coupled, _NINE),
], ids=["oscillators", "isolated", "tuples-oscillators", "tuples-coupled"])
def test_adaptive_step_matches_tableau_loop(f, states):
    # the written-out stages against a loop over the tableau, bit for bit:
    # one accepted step of 1/64 from each state, every state of
    # {0, -0, +-0.5}^n for the generated stages.  The stage states are
    # compared too, because a stage's sign of zero (the int start of the
    # sums turns -0.0 into 0.0) rarely reaches the result.
    h = 2.0**-6
    for u0 in states:
        stages, ref_stages = [], []
        driver = AdaptiveDriver(_logged(f, stages), 0.0, u0, 1e-3, 1e-6, h0=h)
        driver.advance(h)
        u, err = dormand_prince_step(_logged(f, ref_stages), 0.0, u0, h, 1e-3, 1e-6)
        assert err <= 1.0
        factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err**-0.2))
        assert stages == ref_stages, u0
        assert [v.hex() for v in driver.u] == [v.hex() for v in u], u0
        assert driver.h.hex() == (h * factor).hex(), u0


class _Halt(Exception):
    """Raised by the test right-hand sides and step callbacks below."""


def _turns(value, after):
    """_coupled, whose first component is ``value`` past t = ``after``."""

    def f(t, u):
        k = _coupled(t, u)
        return k if t <= after else (value,) + k[1:]

    return f


def _raises_at_call(calls):
    """_coupled, which raises at its ``calls``-th evaluation."""
    count = itertools.count(1)

    def f(t, u):
        if next(count) == calls:
            raise _Halt
        return _coupled(t, u)

    return f


def _run_path(advance, f, n, targets, watch=True, halt_at_step=None, **kw):
    """Hex log of one driver run by ``advance(driver, target, on_step)``:
    every right-hand side call, and t, u, h and the FSAL derivative of the
    driver at every on_step call (if ``watch``), after each target and
    after the exception that ends the run, if one does."""
    log = []

    def hexes(values):
        return None if values is None else [v.hex() for v in values]

    def state():
        return [driver.t.hex(), hexes(driver.u), driver.h.hex(), hexes(driver._k1)]

    def logged(t, u):
        log.append(("f", t.hex(), hexes(u)))
        return f(t, u)

    def on_step(t, u):
        log.append(("step", t.hex(), hexes(u), state()))
        if sum(entry[0] == "step" for entry in log) == halt_at_step:
            raise _Halt

    u0 = tuple(0.3 + 0.1 * i * (-1) ** i for i in range(n))
    driver = AdaptiveDriver(logged, 0.0, u0, **kw)
    for target in targets:
        try:
            returned = advance(driver, target, on_step if watch else None)
        except (StepSizeCollapseError, _Halt) as exc:
            log.append(("raised", type(exc).__name__))
            returned = None
        log.append(("state", state(), returned == (driver.t, driver.u)))
        if returned is None:
            break
    return log


def _steps(log):
    return [entry for entry in log if entry[0] == "step"]


def _advance(driver, target, on_step):
    return driver.advance(target, on_step)


# (right-hand side maker, targets, keywords): runs of the generated stages
# that must equal those of the tuple stages, bit for bit
GENERATED_CASES = {
    # targets closer than the step: FSAL across calls and capped growth
    "consecutive": (lambda: _coupled, [0.05 * k for k in range(1, 41)], {}),
    # a target within the time snap, a target equal to t, then a step on
    "snap": (lambda: _coupled, [1.0, 1.0 + 5e-14, 1.0 + 5e-14, 1.5], {}),
    # a first step far too long for the tolerances: rejections
    "rejected": (lambda: _coupled, [3.0], dict(h0=1.0, rel_tol=1e-12, abs_tol=1e-14)),
    # non-finite stage derivatives past t = 0.5: rejections down to the
    # collapse, with the driver left at the last accepted step
    "inf-collapse": (lambda: _turns(math.inf, 0.5), [1.0], {}),
    "nan-collapse": (lambda: _turns(math.nan, 0.5), [1.0], {}),
    # finite derivatives whose stage sums overflow: the error norm is 0
    # and only the finite test of the new state rejects the step
    "overflow-collapse": (lambda: _turns(1.7e308, 0.5), [1.0], {}),
    # an exception of the right-hand side, in a stage of the first step
    # and in one of a later call
    "rhs-raises-first": (lambda: _raises_at_call(3), [0.5], {}),
    "rhs-raises-later": (lambda: _raises_at_call(100), [0.5, 1.0, 2.0], {}),
}


class TestGeneratedAdvance:
    """``AdaptiveDriver.advance`` on the scalar layout of ``_dp_stages(n)``
    against the same driver on its tuple layout."""

    @pytest.mark.parametrize("watch", [True, False], ids=["on_step", "no-on_step"])
    @pytest.mark.parametrize("case", list(GENERATED_CASES))
    @pytest.mark.parametrize("n", range(1, 9))
    def test_bit_identical_to_tuple_loop(self, n, case, watch, monkeypatch):
        make_f, targets, kw = GENERATED_CASES[case]
        run = functools.partial(_run_path, _advance, n=n, targets=targets, watch=watch, **kw)
        generated = run(make_f())
        # every size takes the tuple layout
        monkeypatch.setattr(fishbone.integrator, "_DP_SCALAR_MAX", 0)
        tuples = run(make_f())
        assert generated == tuples
        if watch and case != "rhs-raises-first":
            steps = len(_steps(tuples))
            assert steps > 0
            if case == "rejected" or case.endswith("collapse"):
                # one call at the start and six a tried step
                assert sum(entry[0] == "f" for entry in tuples) > 1 + 6 * steps
        if case.endswith("collapse"):
            assert tuples[-2] == ("raised", "StepSizeCollapseError")
            if watch:
                # the driver stays at its last accepted step
                assert tuples[-1][1] == _steps(tuples)[-1][3]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_on_step_raising_leaves_the_step(self, n, monkeypatch):
        # simulate's _Stopped ends a run from on_step: the driver is at the
        # step on_step was given, with the FSAL derivative of that step
        run = functools.partial(_run_path, _advance, _coupled, n, [1.0, 2.0], halt_at_step=7)
        generated = run()
        # every size takes the tuple layout
        monkeypatch.setattr(fishbone.integrator, "_DP_SCALAR_MAX", 0)
        tuples = run()
        assert generated == tuples
        assert tuples[-2] == ("raised", "_Halt")
        _, t, u, at_step = tuples[-3]
        assert tuples[-1][1] == at_step
        assert at_step[:2] == [t, u]
        # the derivative there is the step's last call (FSAL)
        assert at_step[3] == [v.hex() for v in _coupled(
            float.fromhex(t), tuple(map(float.fromhex, u)))]

    def test_advance_takes_generated_steps_up_to_eight(self, monkeypatch):
        taken = []
        real = fishbone.integrator._dp_stages

        def spy(*args):
            taken.append(args)
            return real(*args)

        monkeypatch.setattr(fishbone.integrator, "_dp_stages", spy)
        for n, controlled in ((1, None), (8, None), (8, 6), (9, None)):
            AdaptiveDriver(_coupled, 0.0, (0.5,) * n, controlled=controlled).advance(0.1)
        assert taken == [(1, True, 1), (8, True, 8), (8, True, 6), (9, False, 9)]

    @pytest.mark.parametrize("layout", ["generated", "tuples"])
    @pytest.mark.parametrize("case", list(GENERATED_CASES))
    @pytest.mark.parametrize("n,k", [(2, 1), (8, 6), (9, 6), (12, 8)])
    def test_controlled_prefix_takes_the_prefix_steps(self, n, k, case, layout, monkeypatch):
        # the first k of n components, which read nothing of the rest,
        # control the steps: they take the steps and bits of a driver over
        # them alone, and so do its rejections, collapses and exceptions
        if layout == "tuples":
            monkeypatch.setattr(fishbone.integrator, "_DP_SCALAR_MAX", 0)
        make_f, targets, kw = GENERATED_CASES[case]
        u0 = tuple(0.3 + 0.1 * i * (-1) ** i for i in range(n))

        def run(size, controlled=None):
            f = make_f()
            if size > k:
                # the rest follow the prefix, and stay finite where it does
                g = lambda t, u: tuple(f(t, u[:k])) + tuple(
                    [math.atan(u[i % k]) - u[i] for i in range(k, size)])
            else:
                g = f
            log = []
            driver = AdaptiveDriver(g, 0.0, u0[:size], controlled=controlled, **kw)

            def on_step(t, u):
                log.append((t.hex(), [v.hex() for v in u[:k]]))

            for target in targets:
                try:
                    driver.advance(target, on_step)
                except (StepSizeCollapseError, _Halt) as exc:
                    log.append(type(exc).__name__)
                    break
                log.append((driver.t.hex(), driver.h.hex(), [v.hex() for v in driver.u[:k]]))
            return log

        prefix = run(n, k)
        assert prefix == run(k)
        # every run but the one raising in its first step takes steps
        assert (len(prefix) > len(targets)) == (case != "rhs-raises-first")


class TestRhsLength:
    @pytest.mark.parametrize("n", [2, 10], ids=["generated", "tuples"])
    @pytest.mark.parametrize("extra", [-1, 1])
    @pytest.mark.parametrize("at_call", [1, 4, 7], ids=["first", "stage", "fsal"])
    def test_rejects_a_result_of_another_length(self, n, extra, at_call):
        # zip would drop the values past the shorter of state and result
        count = itertools.count(1)

        def f(t, u):
            k = _oscillators(t, u)
            if next(count) == at_call:
                return k[:-1] if extra < 0 else k + (0.0,)
            return k

        driver = AdaptiveDriver(f, 0.0, (1.0,) * n)
        with pytest.raises(ValueError, match=f"returned {n + extra} values for a state of {n}"):
            driver.advance(1.0)


@pytest.mark.parametrize("n", [2, 10], ids=["generated", "tuples"])
def test_iterator_rhs_takes_the_same_steps(n):
    # f may return any iterable of floats, a generator too
    def iterating(t, u):
        return (v for v in _coupled(t, u))

    run = functools.partial(_run_path, _advance, n=n, targets=[0.5, 1.0, 2.0])
    assert run(iterating) == run(_coupled)
    # an iterator of another length in a stage is refused too
    count = itertools.count(1)

    def short_at_stage(t, u):
        k = _coupled(t, u)
        return iter(k[:-1] if next(count) == 4 else k)

    with pytest.raises(ValueError, match="values"):
        AdaptiveDriver(short_at_stage, 0.0, (0.5,) * n).advance(1.0)


def _rotated(t, u):
    # (u1, ..., u_{n-1}, -u0): for any n, keeps the signs of zeros
    return u[1:] + (-u[0],)


def _signs(t, u):
    # +-0.25 by the sign of each component, of a zero too: the sign of a
    # zero in a stage state shows in the step
    return tuple([math.copysign(0.25, v) for v in u])


def _first(value):
    """_rotated with ``value`` as its first component."""
    return lambda t, u: (value,) + _rotated(t, u)[1:]


class TestStageFunctions:
    """One tried step of the scalar layout of ``_dp_stages(n)`` against one
    of its tuple layout: the new state, its derivative (FSAL), the error
    norm and the finite verdict, bit for bit, with a NaN error norm equal to
    a NaN one."""

    @staticmethod
    def _bits(step):
        unew, k6, err, finite = step
        assert finite is all(map(math.isfinite, unew))
        return array("d", unew + k6).tobytes(), "nan" if err != err else err.hex(), finite

    # the derivative at u is _rotated's, with zeros of both signs; the
    # right-hand sides past _signs make the step non-finite (inf, NaN) or
    # overflow its stage sums from finite derivatives (1.7e308), each with
    # both signs where a sign exists
    @pytest.mark.parametrize("f", [
        _rotated, _signs, _first(math.inf), _first(-math.inf), _first(math.nan),
        _first(1.7e308), _first(-1.7e308),
    ], ids=["rotated", "signs", "inf", "-inf", "nan", "huge", "-huge"])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_same_step_as_tuple_stages(self, n, f):
        # states of {0, -0, +-0.5}^n: all of them up to n = 6, and every
        # (4^(n-6) + 1)-th above, about 4000, an odd stride that meets every
        # value in every component.  A step of 1/4 moves the state far
        # enough that |new u| exceeds |u| in either sign.
        grid = itertools.product(_SIGNED, repeat=n)
        scalar, tuples = _dp_stages(n, True, n), _dp_stages(n, False, n)
        h = 0.25
        for u in itertools.islice(grid, 0, None, 1 if n <= 6 else 4 ** (n - 6) + 1):
            k0 = _rotated(0.0, u)
            generated = self._bits(scalar(f, 0.0, u, k0, h, 1e-3, 1e-6))
            assert generated == self._bits(tuples(f, 0.0, u, k0, h, 1e-3, 1e-6)), u

    @pytest.mark.parametrize("f", [
        _rotated, _signs, _first(math.inf), _first(-math.inf), _first(math.nan),
        _first(1.7e308), _first(-1.7e308),
    ], ids=["rotated", "signs", "inf", "-inf", "nan", "huge", "-huge"])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_controlled_prefix_same_step_as_tuple_stages(self, n, f):
        # an error norm over the first k < n components: the two layouts
        # agree, on every state of {0, -0, +-0.5}^n up to n = 4 and on every
        # (4^(n-4) + 1)-th above; the finite verdict covers all n
        for k in sorted({1, n - 1}):
            scalar, tuples = _dp_stages(n, True, k), _dp_stages(n, False, k)
            grid = itertools.product(_SIGNED, repeat=n)
            for u in itertools.islice(grid, 0, None, 1 if n <= 4 else 4 ** (n - 4) + 1):
                k0 = _rotated(0.0, u)
                generated = self._bits(scalar(f, 0.0, u, k0, 0.25, 1e-3, 1e-6))
                assert generated == self._bits(tuples(f, 0.0, u, k0, 0.25, 1e-3, 1e-6)), (k, u)

    @pytest.mark.parametrize("scalar", [True, False], ids=["generated", "tuples"])
    def test_controlled_prefix_norm(self, scalar):
        # the norm is the root mean square of the first k error terms: a
        # third component, which the first two do not read, changes neither
        # it nor their new values, but a non-finite one fails the step
        def rotate(t, v):
            return (v[1], -v[0])

        full = _dp_stages(2, scalar, 2)(rotate, 0.0, (0.5, -0.5), (-0.5, -0.5), 0.25, 1e-3, 1e-6)
        for other, finite in ((0.0, True), (-7.0, True), (1e300, False)):
            def f(t, v):
                return rotate(t, v) + (other * v[2],)

            unew, _, err, ok = _dp_stages(3, scalar, 2)(f, 0.0, (0.5, -0.5, 1.0),
                                                        (-0.5, -0.5, other), 0.25, 1e-3, 1e-6)
            assert unew[:2] == full[0] and err == full[2] and ok is finite


class TestPinnedPaths:
    """Bit-exact fingerprints of runs the benchmark goldens do not reach.

    Each case pins the SHA-256 of the header-less trajectory CSV, the onset
    event, the early-termination record and max |z1|, as hex floats.
    """

    CASES = {
        "adaptive-m1": (
            ModelSpec(Variant.CROSS_DERIV, delta=0.02), make_initial(1.5),
            dict(scheme=AD, t_end=30.0),
            "c48966439b1a51d06687e5d97aebd4774b91176def6d2d348752f90e9c480a7d",
            ("0x1.769e9fd6068d0p+3", "0x1.904b12bb0a8d9p+6"), None,
            "0x1.ee6cb91f31f78p-5",
        ),
        "adaptive-m2": (
            ModelSpec(Variant.ISOLATED, m=2), make_initial(1.2, m=2),
            dict(scheme=AD, t_end=1.0),
            "c0df72b45c3e4a0e12e6edf216db3c743e0a73865244e55b0cc2a4ac8ee4293f",
            None, None, "0x1.88eb707fe3df6p-13",
        ),
        "adaptive-m3": (
            ModelSpec(Variant.ISOLATED, m=3), make_initial(1.47, m=3),
            dict(scheme=AD, t_end=0.2),
            "b28fd29d51072612686957e650f01c0f705ef15486a49f2ea08e5ace3c2866ec",
            None, None, "0x1.344806290eed0p-13",
        ),
        # the mmode benchmark workload's item
        "fixed-m4": (
            ModelSpec(Variant.ISOLATED, m=4), make_initial(1.47, m=4),
            dict(t_end=2.0),
            "bc6e29e16cefefec1cb4e450afdebc5449884e1272998b5cb5ca9fa3dad7261b",
            None, None, "0x1.e2fb750848c6dp-13",
        ),
        # 333 steps of 0.003, then a short step of 0.0014 onto t_end
        "tail-step": (
            ISO, make_initial(1.47), dict(h=0.003, t_end=1.0004),
            "eebcf84ec15f56eec42b1b9ca7d76630d8eaf74234a35b616abc135cb3f13f3d",
            None, None, "0x1.005b96cf3b73dp-12",
        ),
        # RK4 at h=1e-3 is unstable at this amplitude: onset, then blow-up
        # after three samples
        "blowup-fixed-m1": (
            ISO, make_initial(1100.0), dict(t_end=1.0),
            "9371f4a2b3e4411d38202882d0960f30b521e71cdc2d53866b2e76919685f614",
            ("0x1.a9fbe76c8b43ap-7", "0x1.674ee84849215p+7"),
            ("0x1.26e978d4fdf3cp-5", BLOWUP), "0x1.0c738021583cfp+8",
        ),
        "blowup-fixed-m2": (
            ModelSpec(Variant.ISOLATED, m=2), make_initial(1100.0, m=2),
            dict(t_end=1.0),
            "4caca254d2ef610ea6c443bc4e587094059c9ed202a92f4f84acbc2c738c694f",
            ("0x1.a9fbe76c8b43ap-7", "0x1.674ee84849245p+7"),
            ("0x1.26e978d4fdf3cp-5", BLOWUP), "0x1.0c73802158414p+8",
        ),
        # the vertical velocity passes the guard within a quarter period
        "blowup-adaptive": (
            ISO, make_initial(12000.0), dict(scheme=AD, t_end=1.0),
            "6444316acd058ee71be1a98f2085654257183003945f2551cfccc4a315237674",
            None, ("0x1.98c0a912441c2p-15", BLOWUP), "0x1.3333333333333p+0",
        ),
        # fixed-step runs with an onset (at a sample step for isolated)
        "fixed-onset-isolated": (
            ISO, make_initial(2.0), dict(t_end=15.0),
            "74a9cc755ebdf518cef58d33738534f82cc6db7b69968d6688c0f9caa40ddaec",
            ("0x1.6000000000000p+3", "0x1.909cedc18c639p+6"), None,
            "0x1.07258bf03cc69p-3",
        ),
        "fixed-onset-cross": (
            ModelSpec(Variant.CROSS_DERIV, delta=0.02), make_initial(1.5),
            dict(t_end=15.0),
            "f44bf174133bd5c0c45e6ffa0684623c3dc4b67979582f9d1fed03802a0fd28c",
            ("0x1.76978d4fdf3b6p+3", "0x1.9019d286c9eb3p+6"), None,
            "0x1.28db34af866dbp-6",
        ),
        "zero-seed": (
            ModelSpec(Variant.CROSS_DERIV, delta=0.01),
            SystemState.single(0.0, 1.5, 0.0, 0.0, 0.0), dict(t_end=5.0),
            "52bb9071e327c0d149f16dcbfcaa13b85484ac26dd11249ac4a139890cdab81a",
            None, None, "0x1.733003babd23ap-8",
        ),
        "fixed-m2": (
            ModelSpec(Variant.ISOLATED, m=2), make_initial(1.47, m=2),
            dict(t_end=2.0),
            "08860aca15eb4b3f3fef67af709a96eb64d5977c1c0ba091de0b127365c48f2c",
            None, None, "0x1.005bbdd12d1aap-12",
        ),
        # every y_j and z_j nonzero, so every column of both sine
        # projections carries a value
        "fixed-m8": (
            ModelSpec(Variant.ISOLATED, m=8),
            SystemState(
                0.0,
                tuple(0.9 / j * (-1) ** j for j in range(1, 9)),
                tuple(0.6 / (j + 1) for j in range(1, 9)),
                tuple(0.1 * (-1) ** j for j in range(1, 9)),
                tuple(-0.05 * j for j in range(1, 9)),
            ),
            dict(t_end=0.5),
            "653f938676e349d99b6b4b657df2ff3d4bc1fa5951ac5415870a4366c88fb190",
            None, None, "0x1.3333333333333p-2",
        ),
        "blowup-fixed-m3": (
            ModelSpec(Variant.ISOLATED, m=3), make_initial(1100.0, m=3),
            dict(t_end=1.0),
            "59608fa677205268cbb80c70acb661a0491e0ff848d813e701c5c2a582f9998b",
            ("0x1.89374bc6a7efap-8", "0x1.f947cb6d5e875p+10"),
            ("0x1.ba5e353f7ced9p-6", BLOWUP), "0x1.4146133278da0p+9",
        ),
        # above the caps of the scalar kernels and stages: nine modes under
        # fixed RK4 and 36 components under Dormand-Prince
        "fixed-m9": (
            ModelSpec(Variant.ISOLATED, m=9), make_initial(1.47, m=9),
            dict(t_end=0.2),
            "85437d7ef3085c11712f743ecc3e535cac8f336beecdafe3ad6640d9ee7bac6c",
            None, None, "0x1.344806290eed0p-13",
        ),
        "adaptive-m9": (
            ModelSpec(Variant.ISOLATED, m=9), make_initial(1.47, m=9),
            dict(scheme=AD, t_end=0.05),
            "d15a3d95f75bf5f8ed7c50ddefc1e7cd727b9d323698df31fba7c2f09578a9a8",
            None, None, "0x1.344806290eed0p-13",
        ),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_bit_identical(self, name):
        spec, initial, kw, csv_sha, onset, terminated, max_torsion = self.CASES[name]
        traj = simulate(spec, initial, cfg(**kw))
        buf = io.StringIO()
        write_trajectory_csv(traj, buf)
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == csv_sha
        got_onset = traj.onset and (traj.onset.t_onset.hex(), traj.onset.gain.hex())
        got_term = traj.terminated_early and (
            traj.terminated_early[0].hex(), traj.terminated_early[1]
        )
        assert (got_onset, got_term, traj.max_torsion.hex()) == (
            onset, terminated, max_torsion
        )


def adaptive_step_states(spec, initial, config):
    """{t: flat state} of every accepted step of a 1-mode adaptive run.

    The driver is set up and advanced onto the sample times as ``simulate``
    does it, through the public API, so the steps are those of the run.
    """

    def f(t, u):
        return (u[2], u[3], *rhs_one_mode(spec, SystemState.single(t, *u)))

    driver = AdaptiveDriver(
        f, initial.t, initial.flat(), config.rel_tol, config.abs_tol, h0=config.h
    )
    states = {}
    n_samples = math.ceil(config.t_end / config.sample_every - 1e-9)
    for k in range(1, n_samples + 1):
        target = min(k * config.sample_every, config.t_end)
        driver.advance(target, on_step=lambda t, u: states.__setitem__(t, u))
    return states


class TestStopAtOnset:
    # every case fires at gain 100 before its t_end
    FIRING = {
        "fixed-isolated": (ISO, make_initial(2.0), dict(t_end=15.0)),
        "fixed-cross": (
            ModelSpec(Variant.CROSS_DERIV, delta=0.02), make_initial(1.5),
            dict(t_end=15.0),
        ),
        "fixed-crosszero": (
            ModelSpec(Variant.CROSS_DERIV_ZERO, delta=0.02), make_initial(1.5),
            dict(t_end=15.0),
        ),
        "fixed-m2": (
            ModelSpec(Variant.ISOLATED, m=2), make_initial(10.0, m=2), dict(t_end=2.5),
        ),
        "adaptive-m1": (
            ModelSpec(Variant.CROSS_DERIV, delta=0.02), make_initial(1.5),
            dict(scheme=AD, t_end=15.0),
        ),
        # the onset step is the one that lands on the sample time t=11
        "adaptive-on-sample": (ISO, make_initial(2.0), dict(scheme=AD, t_end=15.0)),
    }

    @pytest.mark.parametrize("name", list(FIRING))
    def test_run_ends_at_the_onset_step(self, name):
        spec, initial, kw = self.FIRING[name]
        config = cfg(**kw)
        full = simulate(spec, initial, config)
        stopped = simulate(spec, initial, config, stop_at_onset=True)
        onset = full.onset
        assert onset is not None
        assert (stopped.onset.t_onset.hex(), stopped.onset.gain.hex()) == (
            onset.t_onset.hex(), onset.gain.hex()
        )
        assert stopped.terminated_early == (onset.t_onset, "stopped at onset")
        assert stopped.samples[-1][0].t == onset.t_onset
        # the samples before the onset are the full run's, and the onset
        # state is the running max
        n = len(stopped.samples) - 1
        assert stopped.samples[:n] == full.samples[:n]
        assert full.samples[n][0].t >= onset.t_onset
        final = stopped.final_state()
        assert stopped.max_torsion == abs(final.z[0])
        # the last sample is the full run's state at the onset step
        if config.scheme is AD:
            at_onset = adaptive_step_states(spec, initial, config)[onset.t_onset]
        else:
            dense = simulate(spec, initial, cfg(**kw, sample_every=config.h))
            at_onset = next(
                s.flat() for s, _ in dense.samples if s.t == onset.t_onset
            )
        assert [v.hex() for v in final.flat()] == [float(v).hex() for v in at_onset]

    @pytest.mark.parametrize("spec,initial,kw", [
        (ISO, make_initial(1.0), dict(t_end=5.0)),
        (ModelSpec(Variant.ISOLATED, m=2), make_initial(1.0, m=2), dict(t_end=0.5)),
        (ISO, make_initial(1.0), dict(scheme=AD, t_end=5.0)),
        # blow-up before any onset
        (ISO, make_initial(12000.0), dict(scheme=AD, t_end=1.0)),
    ], ids=["fixed-m1", "fixed-m2", "adaptive-m1", "adaptive-blowup"])
    def test_quiet_run_unchanged(self, spec, initial, kw):
        full = simulate(spec, initial, cfg(**kw))
        stopped = simulate(spec, initial, cfg(**kw), stop_at_onset=True)
        assert full.onset is None
        assert stopped == full


def sample_times(traj):
    return [s.t for s, _ in traj.samples]


class TestChunkBoundaries:
    """Where onset, sampling, the tail step and blow-up meet in the fixed loop."""

    # isolated sigma=2: the onset step 11000 is a sample step (every 10th);
    # cross: the onset step 11706 is one with sample_every=0.002
    ON_SAMPLE = {
        "isolated": (ISO, make_initial(2.0), dict(t_end=15.0)),
        "cross": (
            ModelSpec(Variant.CROSS_DERIV, delta=0.02), make_initial(1.5),
            dict(t_end=15.0, sample_every=0.002),
        ),
    }

    @pytest.mark.parametrize("stop", [False, True], ids=["full", "stop"])
    @pytest.mark.parametrize("name", list(ON_SAMPLE))
    def test_onset_on_a_sample_step_recorded_once(self, name, stop):
        spec, initial, kw = self.ON_SAMPLE[name]
        config = cfg(**kw)
        traj = simulate(spec, initial, config, stop_at_onset=stop)
        t_onset = traj.onset.t_onset
        i = round(t_onset / config.h)
        n_sub = round(config.sample_every / config.h)
        assert i % n_sub == 0
        times = sample_times(traj)
        assert times.count(t_onset) == 1
        assert all(b > a for a, b in zip(times, times[1:]))
        assert len(times) == (i if stop else 15000) // n_sub + 1
        if stop:
            assert times[-1] == t_onset

    def test_sampling_every_step(self):
        # chunks of one step: every tenth sample is the default run's sample
        spec, initial = ModelSpec(Variant.CROSS_DERIV, delta=0.02), make_initial(1.5)
        sparse = simulate(spec, initial, cfg(t_end=15.0))
        dense = simulate(spec, initial, cfg(t_end=15.0, sample_every=1e-3))
        assert len(dense.samples) == 15001
        assert dense.samples[::10] == sparse.samples
        assert (dense.onset, dense.max_torsion) == (sparse.onset, sparse.max_torsion)

    @pytest.mark.parametrize("stop", [False, True], ids=["full", "stop"])
    def test_onset_on_the_tail_step(self, stop):
        # 10999 steps of 1e-3 stay below gain 100; the short step of 9e-4
        # onto t_end reaches it
        config = cfg(t_end=10.9999)
        traj = simulate(ISO, make_initial(2.0), config, stop_at_onset=stop)
        assert traj.onset.t_onset == 10.9999
        assert traj.max_torsion == abs(traj.final_state().z[0])
        assert sample_times(traj).count(10.9999) == 1
        assert sample_times(traj)[-2] == 10.99
        expected = (10.9999, "stopped at onset") if stop else None
        assert traj.terminated_early == expected
        short = simulate(ISO, make_initial(2.0), cfg(t_end=10.999))
        assert short.onset is None

    @pytest.mark.parametrize("t_end, stop, calls", [
        (10.0, False, 1),  # quiet: one call for the whole run
        (15.0, True, 1),  # the run ends at the onset step
        (15.0, False, 2),  # the run goes on after the onset
        (15.0005, False, 3),  # and ends with a short step onto t_end
    ])
    def test_kernel_calls_per_run(self, monkeypatch, t_end, stop, calls):
        made = []
        real = fishbone.integrator._kernel

        def counting(spec):
            advance = real(spec)

            def counted(*args):
                made.append(args)
                return advance(*args)

            return counted

        monkeypatch.setattr(fishbone.integrator, "_kernel", counting)
        traj = simulate(ISO, make_initial(2.0), cfg(t_end=t_end), stop_at_onset=stop)
        onset = None if traj.onset is None else traj.onset.t_onset
        assert onset == (11.0 if t_end > 10.0 else None)
        assert len(made) == calls

    def test_blow_up_in_mid_chunk(self):
        # onset at step 13, blow-up at step 36: neither is a sample step
        initial = make_initial(1100.0)
        sparse = simulate(ISO, initial, cfg(t_end=1.0))
        dense = simulate(ISO, initial, cfg(t_end=1.0, sample_every=1e-3))
        assert sparse.terminated_early == dense.terminated_early
        assert round(sparse.terminated_early[0] / 1e-3) == 36
        assert sample_times(sparse) == [0.0, 0.01, 0.02, 0.03]
        assert len(dense.samples) == 36
        assert dense.samples[::10] == sparse.samples
        assert (dense.onset, dense.max_torsion) == (sparse.onset, sparse.max_torsion)
        assert dense.max_torsion == max(abs(s.z[0]) for s, _ in dense.samples)


SHAPES = {
    "isolated": ISO,
    "cross": ModelSpec(Variant.CROSS_DERIV, delta=0.01),
    "crosszero": ModelSpec(Variant.CROSS_DERIV_ZERO, delta=0.02),
    "cross-delta0": ModelSpec(Variant.CROSS_DERIV, delta=0.0),
}


def reference_run(spec, u, steps, h=1e-3):
    for _ in range(steps):
        u = rk4_reference(spec, u, h)
    return u


def hexes(u):
    return [v.hex() for v in u]


class TestKernelOracle:
    # the inlined accelerations of the fixed RK4 step against one RK4 step
    # per call of the public 1-mode right-hand side: 2000 steps of 1e-3
    @pytest.mark.parametrize("spec", list(SHAPES.values()), ids=list(SHAPES))
    def test_final_state_bit_identical(self, spec):
        initial = SystemState.single(0.0, 1.5, 1.1, 0.7, -0.6)
        config = cfg(t_end=2.0, sample_every=2.0)
        final = simulate(spec, initial, config).final_state()
        assert final.t == 2.0
        assert hexes(final.flat()) == hexes(reference_run(spec, initial.flat(), 2000))

    @staticmethod
    def signed_zero_pair(spec, state):
        # a kernel sum can differ in the sign of a zero only where all its
        # products are zero: on the subspaces seeded with a pair of -0.0
        # that the model leaves invariant, and with couplings, which feed
        # each equation from the other, only at rest
        neg_y, neg_z, neg_yd, neg_zd = (v == 0.0 and math.copysign(1.0, v) < 0.0 for v in state)
        if not any(_cross_coefficients(spec)):
            return (neg_y and neg_yd) or (neg_z and neg_zd)
        return neg_y + neg_z + neg_yd + neg_zd >= 2 and not any(state)

    def test_signed_zeros(self):
        # The kernels drop the zero aerodynamic terms, so their sums can
        # differ from the coefficient form only in the sign of a zero, on
        # the states of signed_zero_pair; elsewhere the two agree bit for bit
        config = cfg(t_end=0.01, sample_every=0.01)
        values = (0.0, -0.0, 0.5, -0.5)
        differ = dict.fromkeys(SHAPES, 0)
        for name, spec in SHAPES.items():
            for state in itertools.product(values, repeat=4):
                final = simulate(spec, SystemState.single(0.0, *state), config).final_state()
                u = reference_run(spec, state, 10)
                assert final.flat() == u, (name, state)
                if hexes(final.flat()) != hexes(u):
                    assert self.signed_zero_pair(spec, state), (name, state)
                    differ[name] += 1
        assert differ == {"isolated": 22, "cross": 7, "crosszero": 9, "cross-delta0": 22}

    @pytest.mark.parametrize("sigma", [0.0, -0.0, 1.47, -1.47])
    @pytest.mark.parametrize("spec", list(SHAPES.values()), ids=list(SHAPES))
    def test_standard_seed_off_the_signed_zero_subspaces(self, spec, sigma):
        initial = make_initial(sigma)
        final = simulate(spec, initial, cfg(t_end=0.01, sample_every=0.01)).final_state()
        assert hexes(final.flat()) == hexes(reference_run(spec, initial.flat(), 10))

    def test_one_code_object_per_coupling_shape(self):
        kernels = {name: _kernel(spec) for name, spec in SHAPES.items()}
        cross_d5 = _kernel(ModelSpec(Variant.CROSS_DERIV, delta=0.05))
        assert cross_d5 is not kernels["cross"]
        assert cross_d5.__code__ is kernels["cross"].__code__
        assert kernels["cross-delta0"].__code__ is kernels["isolated"].__code__
        assert len({k.__code__ for k in kernels.values()}) == 3

    @pytest.mark.parametrize("m", [2, 4, 9])
    def test_m_mode_kernels(self, m):
        # the kernels over the generated accelerations (m <= 8) and over
        # tuples (m = 9) against one RK4 step per stage call of the public
        # rhs_m_mode: 300 steps of 1e-3
        spec = ModelSpec(Variant.ISOLATED, m=m)
        initial = _every_mode_state(m)
        final = simulate(spec, initial, cfg(t_end=0.3, sample_every=0.3)).final_state()
        assert final.t == 0.3
        assert hexes(final.flat()) == hexes(reference_run(spec, initial.flat(), 300))


def _every_mode_state(m):
    # every y_j and z_j nonzero, so every column of both sine projections
    # carries a value
    return SystemState(
        0.0,
        tuple(0.9 / j * (-1) ** j for j in range(1, m + 1)),
        tuple(0.6 / (j + 1) for j in range(1, m + 1)),
        tuple(0.1 * (-1) ** j for j in range(1, m + 1)),
        tuple(-0.05 * j for j in range(1, m + 1)),
    )


class TestScalarModes:
    """Runs of m = 2 up to ``_SCALAR_MAX_MODES`` on the scalar layout of the
    kernels and right-hand sides against their tuple layout over numpy's
    m-mode core, which runs above that cap: every sample, the onset, the
    early end and max |z1| bit for bit."""

    CASES = {
        "every-mode": (_every_mode_state, 0.2, 100.0),
        # z1 moves at once, so gain 2 fires early and the run goes on
        "onset": (
            lambda m: replace(make_initial(1.47, m), zdot=(0.01,) + (0.0,) * (m - 1)),
            0.3, 2.0,
        ),
        # onset, then a blow-up; fixed RK4 only, as the adaptive driver
        # takes thousands of steps to the onset
        "blow-up": (lambda m: make_initial(1100.0, m), 0.04, 100.0),
    }

    @staticmethod
    def record(traj):
        return (
            [hexes(row) for row in traj.samples.rows()],
            traj.onset and (traj.onset.t_onset.hex(), traj.onset.gain.hex()),
            traj.terminated_early and (traj.terminated_early[0].hex(), traj.terminated_early[1]),
            traj.max_torsion.hex(),
        )

    @pytest.mark.parametrize("case, scheme", [
        (case, scheme) for case in CASES for scheme in Scheme
        if case != "blow-up" or scheme is Scheme.FIXED_RK4
    ])
    @pytest.mark.parametrize("m", range(2, _SCALAR_MAX_MODES + 1))
    def test_bit_identical_to_tuple_closure(self, m, case, scheme, monkeypatch):
        make, t_end, gain = self.CASES[case]
        spec = ModelSpec(Variant.ISOLATED, m=m)
        config = cfg(scheme=scheme, t_end=t_end)

        def run():
            return self.record(simulate(spec, make(m), config, onset_gain=gain))

        assert not _kernel(spec).__code__.co_filename.endswith("on tuples>")
        generated = run()
        monkeypatch.setattr(fishbone.integrator, "_SCALAR_MAX_MODES", 1)
        assert _kernel(spec).__code__.co_filename == f"<{m}-mode RK4 kernel on tuples>"
        assert generated == run()
        if case != "every-mode":
            assert generated[1] is not None
        if case == "blow-up":
            assert generated[2][1] == BLOWUP


class TestColumnarSamples:
    """``Trajectory.samples`` as a read-only view over the flat sample array."""

    @pytest.fixture
    def energy_calls(self, monkeypatch):
        calls = []
        real = fishbone.integrator.energy

        def counting(spec, state):
            calls.append(state)
            return real(spec, state)

        monkeypatch.setattr(fishbone.integrator, "energy", counting)
        return calls

    def test_pairs_are_built_only_when_read(self, energy_calls):
        traj = simulate(ISO, make_initial(1.2), cfg(t_end=1.0))
        assert len(traj.samples) == 101
        assert energy_calls == []
        state, e = traj.samples[-1]
        assert energy_calls == [state]
        assert e == energy(ISO, state)
        assert state.t == 1.0

    def test_sequence_semantics(self):
        traj = simulate(ISO, make_initial(1.2), cfg(t_end=0.5))
        samples = traj.samples
        pairs = list(samples)
        assert not hasattr(samples, "append")
        assert samples == pairs and pairs == samples
        assert samples == simulate(ISO, make_initial(1.2), cfg(t_end=0.5)).samples
        assert samples != pairs[:-1] and pairs[1:] != samples
        assert samples[-1] == pairs[-1] and samples[0] == pairs[0]
        assert samples[len(pairs) - 1] == pairs[-1]
        for sl in (slice(None), slice(3, 9), slice(-5, None), slice(None, None, 10),
                   slice(None, None, -7), slice(40, 2, -3), slice(90, 200)):
            assert samples[sl] == pairs[sl], sl
        for bad in (len(pairs), -len(pairs) - 1):
            with pytest.raises(IndexError):
                samples[bad]
        with pytest.raises(TypeError):
            samples[1.0]

    def test_multimode_pairs(self):
        spec = ModelSpec(Variant.ISOLATED, m=3)
        traj = simulate(spec, make_initial(1.2, m=3), cfg(t_end=0.1))
        state, e = traj.samples[-1]
        assert e is None and state.m == 3 and state.t == 0.1
        assert traj.final_state() == state and traj.final_energy() is None

    def test_memory_per_sample(self):
        # 2001 samples of m = 1: five doubles each, not a state and an
        # energy object each
        tracemalloc.start()
        try:
            traj = simulate(ISO, make_initial(1.2), cfg(t_end=20.0))
            current, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(traj.samples) == 2001
        assert current / len(traj.samples) < 100.0


def _oracle_csv(traj, header_fields):
    """The trajectory CSV built from the (state, energy) pairs, field by field."""
    m = traj.spec.m
    lines = [f"# {k}={v}" for k, v in header_fields.items()]
    lines.append(",".join(
        ["t"] + [f"y{j}" for j in range(1, m + 1)] + [f"z{j}" for j in range(1, m + 1)]
        + ["E_total", "E_kin_y", "E_kin_z", "E_quad", "E_coupling", "E_quartic",
           "E_aero"]
    ))
    for state, e in traj.samples:
        cols = [format(v, ".17g") for v in (state.t, *state.y, *state.z)]
        if e is None:
            cols += [""] * 7
        else:
            cols += [format(v, ".17g") for v in (
                e.total, e.kinetic_y, e.kinetic_z, e.quadratic, e.coupling,
                e.quartic, e.aero_cross,
            )]
        lines.append(",".join(cols))
    return "\n".join(lines) + "\n"


class TestTrajectoryCsvOracle:
    """The writer's one-format rows against the CSV built from the pairs."""

    NAN_SEED = SystemState.single(0.0, math.nan, 0.01, 0.0, 0.0)
    CASES = {
        "isolated": (ISO, make_initial(1.47), dict(t_end=2.0), {}),
        "cross": (ModelSpec(Variant.CROSS_DERIV, delta=0.01), make_initial(1.47),
                  dict(t_end=2.0), {}),
        "crosszero": (ModelSpec(Variant.CROSS_DERIV_ZERO, delta=0.01),
                      make_initial(1.47), dict(t_end=2.0), {}),
        "m2": (ModelSpec(Variant.ISOLATED, m=2), make_initial(1.2, m=2),
               dict(t_end=0.5), {}),
        "adaptive": (ModelSpec(Variant.CROSS_DERIV_ZERO, delta=0.02),
                     make_initial(1.5), dict(scheme=AD, t_end=5.0), {}),
        "blowup-fixed": (ISO, make_initial(1e9), dict(t_end=1.0), {}),
        "blowup-adaptive": (ISO, make_initial(1e9), dict(scheme=AD, t_end=1.0), {}),
        "inf-seed-fixed": (ISO, SystemState.single(0.0, math.inf, 0.01, 0.0, 0.0),
                           dict(t_end=1.0), {}),
        "nan-seed-adaptive": (ISO, NAN_SEED, dict(scheme=AD, t_end=1.0), {}),
        "stop-at-onset": (ModelSpec(Variant.CROSS_DERIV, delta=0.02),
                          make_initial(1.5), dict(t_end=15.0),
                          dict(stop_at_onset=True)),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_matches_pairs(self, name):
        spec, initial, kw, sim_kw = self.CASES[name]
        traj = simulate(spec, initial, cfg(**kw), **sim_kw)
        header = {"case": name, "sigma": "1.47"}
        buf = io.StringIO()
        write_trajectory_csv(traj, buf, header_fields=header)
        assert buf.getvalue() == _oracle_csv(traj, header)
        if name == "nan-seed-adaptive":
            assert len(traj.samples) == 1
            assert buf.getvalue().splitlines()[-1].startswith("0,nan,0.01,nan,")

    def test_more_rows_than_one_chunk(self):
        traj = simulate(ISO, make_initial(1.47), cfg(t_end=30.0))
        assert len(traj.samples) > 2 * 1024
        buf = io.StringIO()
        write_trajectory_csv(traj, buf)
        assert buf.getvalue() == _oracle_csv(traj, {})

    @pytest.mark.parametrize("spec", [
        ISO,
        ModelSpec(Variant.CROSS_DERIV, delta=0.01),
        ModelSpec(Variant.CROSS_DERIV_ZERO, delta=0.02),
    ], ids=["isolated", "cross", "crosszero"])
    def test_energy_terms_match_energy(self, spec):
        values = (0.0, -0.0, 0.5, -1.5)
        for y, z, yd, zd in itertools.product(values, repeat=4):
            e = energy(spec, SystemState.single(0.0, y, z, yd, zd))
            want = (e.total, e.kinetic_y, e.kinetic_z, e.quadratic, e.coupling,
                    e.quartic, e.aero_cross)
            got = _energy_terms(y, z, yd, zd, _aero_delta(spec))
            assert [v.hex() for v in got] == [v.hex() for v in want], (y, z, yd, zd)


class TestStreaming:
    """Given ``on_block``, a run hands on all its samples in order, in
    blocks of ``_CSV_CHUNK_ROWS`` rows and the rows left at the end,
    however the run ends; its own samples stay whole."""

    ENDS = {
        "t_end": (ISO, make_initial(1.47), dict(t_end=25.0), {}),
        "t_end-adaptive": (ISO, make_initial(1.47), dict(scheme=AD, t_end=12.0), {}),
        "t_end-m3": (ModelSpec(Variant.ISOLATED, m=3), make_initial(1.47, 3),
                     dict(t_end=1.5, sample_every=0.001), {}),
        # 1795 samples up to the blow-up at t=0.00359
        "blow-up": (ISO, make_initial(1e4), dict(t_end=0.1, h=2e-6, sample_every=2e-6), {}),
        "onset-stop": (ISO, make_initial(2.0), dict(t_end=15.0), dict(stop_at_onset=True)),
        "step-collapse": (ISO, SystemState.single(1e9, 1.47, 1.47e-4, 0.0, 0.0),
                          dict(scheme=AD, h=1e-6, t_end=1.0), {}),
    }

    @pytest.mark.parametrize("name", list(ENDS))
    def test_blocks_are_the_samples(self, name):
        spec, initial, kw, flags = self.ENDS[name]
        blocks = []
        traj = simulate(spec, initial, cfg(**kw), **flags, on_block=blocks.append)
        assert traj.terminated_early == simulate(spec, initial, cfg(**kw), **flags).terminated_early
        stride = 4 * spec.m + 1
        rows = [len(b) // stride for b in blocks]
        assert all(n == _CSV_CHUNK_ROWS for n in rows[:-1]) and 0 < rows[-1] <= _CSV_CHUNK_ROWS
        assert array("d", itertools.chain(*blocks)) == traj.samples._buf
        assert sum(rows) == len(traj.samples)

    @pytest.mark.parametrize("t_end,sizes", [(10.23, [1024]), (10.24, [1024, 1])])
    def test_block_boundaries(self, t_end, sizes):
        # the seed and 1023 samples fill exactly one block, so the last
        # hand-on has nothing left; one sample more is a block of one row
        blocks = []
        traj = simulate(ISO, make_initial(1.47), cfg(t_end=t_end), on_block=blocks.append)
        assert [len(b) // 5 for b in blocks] == sizes
        assert array("d", itertools.chain(*blocks)) == traj.samples._buf

    def test_nothing_handed_on_outside(self):
        blocks = []
        simulate(ISO, make_initial(1.47), cfg(t_end=1.0), on_block=blocks.append)
        simulate(ISO, make_initial(1.47), cfg(t_end=1.0))
        simulate(ISO, make_initial(1.47), cfg(t_end=1.0), on_block=None)
        assert [len(b) // 5 for b in blocks] == [101]

    def test_inner_run_hands_nothing_to_the_outer(self):
        # a run made by a consumer, without on_block of its own, hands its
        # samples to no one: only the outer run's blocks reach the outer
        blocks, inner = [], []

        def consume(block):
            blocks.append(block)
            inner.append(simulate(ISO, make_initial(1.2), cfg(t_end=25.0)))

        traj = simulate(ISO, make_initial(1.47), cfg(t_end=25.0), on_block=consume)
        assert [len(b) // 5 for b in blocks] == [1024, 1024, 453]
        assert array("d", itertools.chain(*blocks)) == traj.samples._buf
        assert len(inner) == 3 and all(len(t.samples) == 2501 for t in inner)

    def test_consumer_error_ends_the_run(self):
        def full(block):
            raise OSError(28, "No space left on device")

        with pytest.raises(OSError, match="No space"):
            simulate(ISO, make_initial(1.47), cfg(t_end=25.0), on_block=full)


def test_tracing_harness_finds_every_name_it_patches():
    # benchmarks/tracing.py wraps names where their callers look them up,
    # such as ``fishbone.integrator.rhs_m_mode``: install fails on a name
    # that is gone, and uninstall puts every original back
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
    spec = importlib.util.spec_from_file_location("tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    advance = AdaptiveDriver.advance
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert fishbone.integrator.rhs_m_mode is not fishbone.model.rhs_m_mode
    finally:
        tracer.uninstall()
    assert fishbone.integrator.rhs_m_mode is fishbone.model.rhs_m_mode
    assert fishbone.integrator.energy is fishbone.model.energy
    assert AdaptiveDriver.advance is advance
