import io
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import fishbone._fork
import fishbone.threshold
from fishbone.cli import format_threshold_report, write_sweep_csv
from fishbone.integrator import IntegratorConfig, Scheme, make_initial, simulate
from fishbone.model import ModelSpec, Variant, energy
from fishbone.threshold import InvalidBracketError, find_threshold, sweep

ISO = ModelSpec(Variant.ISOLATED)


@pytest.fixture
def widths(monkeypatch):
    """The width of each sweep fan-out that forks: this process and the
    children it starts."""
    ctx = multiprocessing.get_context("fork")
    real_fan_out, real_start = fishbone.threshold._fan_out, ctx.Process.start
    started, recorded = [], []

    def start(self):
        started.append(self)
        real_start(self)

    def fan_out(fn, tasks, width):
        started.clear()
        try:
            return real_fan_out(fn, tasks, width)
        finally:
            if started:
                recorded.append(1 + len(started))

    monkeypatch.setattr(ctx.Process, "start", start)
    monkeypatch.setattr(fishbone.threshold, "_fan_out", fan_out)
    return recorded


@pytest.fixture
def forks(monkeypatch):
    """The target of each child asked of ``_fork._child``, by the threshold
    look-ahead or by a sweep's fan-out."""
    real, asked = fishbone._fork._child, []

    def spy(ctx, target, args, down=0):
        asked.append(target)
        return real(ctx, target, args, down)

    monkeypatch.setattr(fishbone._fork, "_child", spy)
    monkeypatch.setattr(fishbone.threshold, "_child", spy)
    return asked


class TestFindThreshold:
    def test_bracket_with_both_endpoints_stable(self):
        config = IntegratorConfig(t_end=50.0)
        with pytest.raises(InvalidBracketError, match="no onset"):
            find_threshold(ISO, (0.1, 0.2), 1e-3, config)

    def test_bracket_with_low_endpoint_firing(self):
        # strong coupling drives the torsion past the gain threshold at any
        # amplitude, so the low endpoint is not quiet and the bracket fails
        spec = ModelSpec(Variant.CROSS_DERIV, delta=0.05)
        config = IntegratorConfig(t_end=50.0)
        with pytest.raises(InvalidBracketError, match="already present"):
            find_threshold(spec, (1.40, 1.60), 1e-3, config)

    def test_bad_arguments(self):
        config = IntegratorConfig(t_end=10.0)
        with pytest.raises(ValueError):
            find_threshold(ISO, (1.5, 1.4), 1e-3, config)
        with pytest.raises(ValueError):
            find_threshold(ISO, (1.4, 1.5), 0.0, config)
        with pytest.raises(ValueError):
            find_threshold(ISO, (1.5, 3.5), math.nan, config)
        # an infinite tol returned the unrefined bracket; one below two ulps
        # of the endpoints never ended the bisection
        with pytest.raises(ValueError):
            find_threshold(ISO, (1.5, 3.5), math.inf, config)
        with pytest.raises(ValueError):
            find_threshold(ISO, (1.5, 3.5), 1e-300, config)
        # an infinite endpoint has an infinite ulp, which the tol rule
        # reported as a bad tol
        for bracket in ((1.4, math.inf), (-math.inf, 1.5)):
            with pytest.raises(ValueError, match="bracket"):
                find_threshold(ISO, bracket, 1e-3, config)

    def test_multimode_energy_star_is_nan(self):
        # tol covers the bracket, so only the endpoints run: sigma=1.5 stays
        # quiet and 3.5 fires; no energy function is defined for m > 1
        spec = ModelSpec(Variant.ISOLATED, m=2)
        result = find_threshold(spec, (1.5, 3.5), 2.0, IntegratorConfig(t_end=10.0))
        assert (result.sigma_lo, result.sigma_hi) == (1.5, 3.5)
        assert math.isnan(result.energy_star)

    def test_probes_record_only_endpoints(self, monkeypatch, cpus):
        # the spy sees only the probes of this process
        cpus(1)
        probes = []
        real = fishbone.threshold.simulate

        def counting(*args, **kw):
            traj = real(*args, **kw)
            probes.append(traj)
            return traj

        monkeypatch.setattr(fishbone.threshold, "simulate", counting)
        config = IntegratorConfig(t_end=10.0)
        result = find_threshold(ISO, (1.5, 3.5), 0.5, config)
        assert len(probes) > 2 and max(len(p.samples) for p in probes) <= 2
        # a probe that fires stops at its onset step, which is its last sample
        fired = [p for p in probes if p.onset is not None]
        assert fired
        for p in fired:
            assert p.terminated_early == (p.onset.t_onset, "stopped at onset")
            assert p.samples[-1][0].t == p.onset.t_onset < config.t_end
        # the onset and the fingerprint are those of the caller's config
        assert result.onset_at_hi == real(ISO, make_initial(result.sigma_hi), config).onset
        assert result.config_fingerprint["sample_every"] == "0.01"

    def test_certified_bracket_at_full_horizon(self):
        config = IntegratorConfig(t_end=200.0)
        result = find_threshold(ISO, (1.45, 1.47), 1e-3, config, onset_gain=100.0)
        assert result.sigma_hi - result.sigma_lo <= 1e-3
        assert 1.45 < result.sigma_star < 1.47
        assert result.sigma_lo < result.sigma_star < result.sigma_hi
        # certification: deterministic re-runs reproduce the endpoint verdicts
        lo_run = simulate(ISO, make_initial(result.sigma_lo), config, 100.0)
        hi_run = simulate(ISO, make_initial(result.sigma_hi), config, 100.0)
        assert lo_run.onset is None
        assert hi_run.onset is not None
        assert hi_run.onset == result.onset_at_hi
        # energy_star is the tracked energy of the midpoint initial state
        e = energy(ISO, make_initial(result.sigma_star)).total
        assert result.energy_star == e
        assert result.config_fingerprint["onset_gain"] == "100"
        assert result.config_fingerprint["t_end"] == "200"

    def test_report_format(self):
        # gain 300 sits above the delta=0.01 forced-response level, so the
        # detector fires on instability only and the bracket is valid
        config = IntegratorConfig(t_end=50.0)
        spec = ModelSpec(Variant.CROSS_DERIV, delta=0.01)
        result = find_threshold(spec, (1.40, 1.60), 5e-2, config, onset_gain=300.0)
        text = format_threshold_report(result)
        lines = dict(l.split("=", 1) for l in text.strip().splitlines())
        assert float(lines["sigma_star"]) == result.sigma_star
        assert float(lines["energy_star"]) == result.energy_star
        assert lines["config.scheme"] == "fixed_rk4"


# (spec, bracket, tol, config, onset gain): a search the look-ahead must
# not change
LOOKAHEAD_CASES = {
    "isolated-t200": (ISO, (1.40, 1.60), 1e-3, IntegratorConfig(t_end=200.0), 100.0),
    # the forced response crosses gain 300 near t=1 at every amplitude
    "crosszero-gain300": (
        ModelSpec(Variant.CROSS_DERIV_ZERO, delta=0.05), (0.5, 2.0), 1e-3,
        IntegratorConfig(t_end=1.0), 300.0,
    ),
    "m2": (ModelSpec(Variant.ISOLATED, m=2), (4.0, 16.0), 1.0, IntegratorConfig(t_end=2.0), 100.0),
    "adaptive": (
        ISO, (1.5, 3.5), 0.25,
        IntegratorConfig(scheme=Scheme.ADAPTIVE_EMBEDDED, t_end=10.0), 100.0,
    ),
    "tol-covers-bracket": (ISO, (1.5, 3.5), 2.0, IntegratorConfig(t_end=10.0), 100.0),
}
SHORT = (ISO, (1.5, 3.5), 0.25, IntegratorConfig(t_end=10.0))
# a longer search in which this process also runs a probe that fires, so
# the child it killed has run ahead where the serial search never goes
BRANCHING = (ISO, (1.5, 3.5), 0.05, IntegratorConfig(t_end=10.0))


def serial_path(monkeypatch, cpus, search=SHORT):
    """(sigma, fired) of every probe of the serial search, in order."""
    path = []
    real = fishbone.threshold._probe

    def spy(spec, sigma, config, onset_gain):
        onset = real(spec, sigma, config, onset_gain)
        path.append((sigma, onset is not None))
        return onset

    cpus(1)
    with monkeypatch.context() as m:
        m.setattr(fishbone.threshold, "_probe", spy)
        find_threshold(*search)
    return path


def probes_here(monkeypatch, log, search, delay_here=0.0, delay_child=0.0):
    """The sigmas probed in this process, in order, with the look-ahead on;
    each probe here or in a child is slowed by the given delay."""
    real = fishbone.threshold._probe
    here = os.getpid()

    def logging(spec, sigma, config, onset_gain):
        time.sleep(delay_here if os.getpid() == here else delay_child)
        onset = real(spec, sigma, config, onset_gain)
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {sigma!r}\n")
        return onset

    log.write_text("")
    with monkeypatch.context() as m:
        m.setattr(fishbone.threshold, "_probe", logging)
        find_threshold(*search)
    lines = [line.split() for line in log.read_text().splitlines()]
    return [float(sigma) for pid, sigma in lines if int(pid) == here], len(lines)


class TestLookAhead:
    @pytest.mark.parametrize("case", list(LOOKAHEAD_CASES))
    def test_same_result_on_and_off(self, cpus, case):
        spec, bracket, tol, config, gain = LOOKAHEAD_CASES[case]
        results = []
        for n in (1, 2):
            cpus(n)
            results.append(find_threshold(spec, bracket, tol, config, onset_gain=gain))
            assert multiprocessing.active_children() == []
        # repr tells every float apart, and a nan energy_star (m=2) from no other
        assert repr(results[0]) == repr(results[1])
        assert format_threshold_report(results[0]) == format_threshold_report(results[1])

    @pytest.mark.parametrize("spec,bracket", [
        (ModelSpec(Variant.CROSS_DERIV, delta=0.05), (1.40, 1.60)),
        (ISO, (0.1, 0.2)),
    ], ids=["onset-at-lo", "quiet-at-hi"])
    def test_invalid_bracket_same_message(self, cpus, spec, bracket):
        messages = []
        for n in (1, 2):
            cpus(n)
            with pytest.raises(InvalidBracketError) as err:
                find_threshold(spec, bracket, 1e-3, IntegratorConfig(t_end=50.0))
            messages.append(str(err.value))
            assert multiprocessing.active_children() == []
        assert messages[0] == messages[1]

    def test_probes_run_in_a_child(self, cpus, monkeypatch, tmp_path):
        cpus(2)
        here, total = probes_here(monkeypatch, tmp_path / "probes", SHORT)
        assert 0 < len(here) < total

    def test_probes_here_do_not_depend_on_timing(self, cpus, monkeypatch, tmp_path):
        # a child runs ahead by model time, not by wall time, so slowing
        # either process moves no probe between them: a traced search
        # counts the same probes in every run
        cpus(2)
        log = tmp_path / "probes"
        here = [probes_here(monkeypatch, log, BRANCHING, *delays)[0]
                for delays in ((0.0, 0.0), (0.05, 0.0), (0.0, 0.05))]
        assert here[0] == here[1] == here[2]
        path = [sigma for sigma, _ in serial_path(monkeypatch, cpus, BRANCHING)]
        assert 0 < len(here[0]) < len(path)
        assert here[0] == [sigma for sigma in path if sigma in here[0]]

    @pytest.mark.parametrize("failure", ["pipe", "fork"])
    def test_no_child_to_spare(self, cpus, monkeypatch, refused_forks, failure):
        # without a pipe or a process for the child, each probe runs alone
        cpus(1)
        expected = repr(find_threshold(*SHORT))
        cpus(2)
        ctx = fishbone._fork._fork_context()

        def refuse(*args, **kwargs):
            raise OSError(24, "Too many open files")

        if failure == "pipe":
            monkeypatch.setattr(ctx, "Pipe", refuse)
        else:
            monkeypatch.setattr(ctx.Process, "start", refuse)
        assert repr(find_threshold(*SHORT)) == expected
        # a refused pipe makes no end; a refused fork closes those it made
        assert bool(refused_forks) == (failure == "fork")
        assert all(conn.closed for conn in refused_forks)
        assert multiprocessing.active_children() == []

    def test_bad_gain_refused_before_any_fork(self, cpus, forks):
        cpus(2)
        with pytest.raises(ValueError, match="onset_gain"):
            find_threshold(ISO, (1.5, 3.5), 0.25, IntegratorConfig(t_end=10.0), onset_gain=1.0)
        assert forks == []

    def test_ctrl_c(self, ctrl_c, tmp_path):
        # Ctrl-C while the child probes ahead: only this process reports it
        code, err = ctrl_c("fishbone.threshold._probe", "threshold", "--bracket", "1.40:1.55",
                           "--tol", "0.02", "--t-end", "50", "--out", str(tmp_path / "thr"))
        assert code == -signal.SIGINT
        assert err.count("Traceback") == 1 and err.endswith("KeyboardInterrupt\n"), err

    @pytest.mark.parametrize("cause", ["one-cpu", "daemonic", "threaded"])
    def test_off(self, cpus, monkeypatch, cause):
        cpus(2)
        assert fishbone._fork._fork_context() is not None
        if cause == "one-cpu":
            cpus(1)
        elif cause == "daemonic":
            monkeypatch.setattr(multiprocessing.current_process(), "daemon", True)
        else:
            monkeypatch.setattr(fishbone._fork.threading, "active_count", lambda: 2)
        assert fishbone._fork._fork_context() is None

    @pytest.mark.parametrize("failure", ["raise", "hang"])
    def test_failure_off_the_serial_path_changes_nothing(self, cpus, monkeypatch, tmp_path,
                                                         capfd, failure):
        path = serial_path(monkeypatch, cpus, BRANCHING)
        expected = repr(find_threshold(*BRANCHING))
        # a probe here that fires, past the endpoints: its child went on as
        # if it were quiet, to the midpoint of it and the current hi, where
        # the serial search never goes
        cpus(2)
        here, _ = probes_here(monkeypatch, tmp_path / "probes", BRANCHING)
        k, fired_at = next((k, sigma) for k, (sigma, fired) in enumerate(path)
                           if k >= 2 and fired and sigma in here)
        hi = min(sigma for sigma, fired in path[:k] if fired)
        unreached = 0.5 * (fired_at + hi)
        assert unreached not in [sigma for sigma, _ in path]
        log = tmp_path / "reached"
        real = fishbone.threshold._probe

        def failing(spec, sigma, config, onset_gain):
            if sigma == unreached:
                log.write_text("reached")
                if failure == "hang":
                    time.sleep(60)  # unless the child is killed
                raise RuntimeError("probe failed")
            if sigma == fired_at:
                time.sleep(0.3)  # so that the child reaches unreached
            return real(spec, sigma, config, onset_gain)

        monkeypatch.setattr(fishbone.threshold, "_probe", failing)
        start = time.monotonic()
        assert repr(find_threshold(*BRANCHING)) == expected
        assert time.monotonic() - start < 30
        assert log.exists()
        assert "Traceback" not in capfd.readouterr().err
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("index", range(5))
    def test_failure_on_the_serial_path_raises(self, cpus, monkeypatch, index):
        path = serial_path(monkeypatch, cpus)
        assert len(path) == 5
        target = path[index][0]
        real = fishbone.threshold._probe

        def failing(spec, sigma, config, onset_gain):
            if sigma == target:
                raise RuntimeError(f"probe failed at {sigma!r}")
            return real(spec, sigma, config, onset_gain)

        monkeypatch.setattr(fishbone.threshold, "_probe", failing)
        for n in (1, 2):
            cpus(n)
            with pytest.raises(RuntimeError, match=f"probe failed at {target!r}"):
                find_threshold(*SHORT)
            assert multiprocessing.active_children() == []

    @pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="reads /proc")
    def test_orphaned_child_exits_quietly(self, tmp_path):
        # the parent hangs in its first probe and is killed while the child
        # runs its own: the child must end at that probe's send, start no
        # other, and print nothing
        log = tmp_path / "child-probes"
        script = f"""
import os, sys, time
sys.path.insert(0, {str(Path(fishbone.threshold.__file__).parents[1])!r})
import fishbone.threshold as th
from fishbone.integrator import IntegratorConfig
from fishbone.model import ModelSpec, Variant
parent, real = os.getpid(), th._probe
def probe(spec, sigma, config, onset_gain):
    if os.getpid() == parent:
        time.sleep(60)
    with open({str(log)!r}, "a") as fh:
        fh.write(f"{{os.getpid()}} {{sigma!r}}\\n")
    time.sleep(1.0)
    return real(spec, sigma, config, onset_gain)
th._probe = probe
os.sched_getaffinity = lambda pid: {{0, 1}}
th.find_threshold(ModelSpec(Variant.ISOLATED), (1.5, 3.5), 0.25, IntegratorConfig(t_end=10.0))
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
        assert len(log.read_text().splitlines()) == 1
        assert err.read_text() == ""


# (variant, deltas, sigmas, config, modes): sweeps the fan-out must not change
SWEEP_CASES = {
    "cross": (Variant.CROSS_DERIV, [0.01, 0.02], [1.4, 1.6], IntegratorConfig(t_end=5.0), 1),
    "m2": (Variant.ISOLATED, [0.0], [1.47, 16.0], IntegratorConfig(t_end=2.0), 2),
    "blow-up": (Variant.ISOLATED, [0.0], [1e9, 1.0], IntegratorConfig(t_end=1.0), 1),
}


class TestSweep:
    def test_rows_in_input_order_with_onset_trends(self):
        config = IntegratorConfig(t_end=60.0)
        rows = sweep(Variant.CROSS_DERIV, [0.01], [1.5, 1.6], config)
        assert [(r.delta, r.sigma) for r in rows] == [(0.01, 1.5), (0.01, 1.6)]
        assert all(r.t_onset is not None for r in rows)
        assert rows[1].t_onset < rows[0].t_onset
        assert rows[1].max_torsion > rows[0].max_torsion
        for r in rows:
            assert r.max_torsion >= r.sigma * 1e-4
            assert r.energy_initial == pytest.approx(
                energy(ISO, make_initial(r.sigma)).total, rel=1e-12
            )

    def test_onset_anticipated_not_amplified_across_couplings(self):
        # increasing the aerodynamic strength moves the detected onset
        # earlier without widening the torsional peak; gain 300 keeps the
        # detector above the forced-response plateau, which gain 100 crosses
        # at t < 1 for delta >= 0.03
        config = IntegratorConfig(t_end=200.0)
        rows = sweep(Variant.CROSS_DERIV, [0.01, 0.02, 0.03, 0.05], [1.47], config,
                     onset_gain=300.0)
        onsets = [r.t_onset for r in rows]
        assert all(t is not None for t in onsets)
        assert all(t > 10.0 for t in onsets), onsets
        assert all(b < a for a, b in zip(onsets, onsets[1:])), onsets
        peaks = [r.max_torsion for r in rows]
        assert max(peaks) / min(peaks) < 2.0

    def test_zero_order_variant_fires_before_cross_derivative(self):
        config = IntegratorConfig(t_end=100.0)
        cross = sweep(Variant.CROSS_DERIV, [0.01], [1.47], config)[0]
        zero = sweep(Variant.CROSS_DERIV_ZERO, [0.01], [1.47], config)[0]
        assert zero.t_onset is not None and cross.t_onset is not None
        assert zero.t_onset < cross.t_onset

    def test_energy_rises_without_instability_for_zero_order_variant(self):
        # below the instability threshold the zero-order couplings still pump
        # energy in; the torsion stays at forced-response scale throughout
        config = IntegratorConfig(t_end=50.0)
        row = sweep(Variant.CROSS_DERIV_ZERO, [0.01], [1.40], config,
                    onset_gain=300.0)[0]
        assert row.t_onset is None
        assert row.max_torsion < 0.05
        assert row.energy_final > row.energy_initial

    def test_blow_up_recorded_not_raised(self):
        config = IntegratorConfig(t_end=1.0)
        rows = sweep(Variant.ISOLATED, [0.0], [1e9, 1.0], config)
        assert rows[0].terminated_early is not None
        assert rows[0].terminated_early[1].startswith("blow-up")
        assert rows[1].terminated_early is None

    def test_parallel_jobs_match_serial(self, cpus, monkeypatch, tmp_path):
        # runs are shared by this process and a forked child with 2 usable
        # CPUs and stay here with 1
        log = tmp_path / "runs"
        real = fishbone.threshold.simulate

        def spy(*args, **kw):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return real(*args, **kw)

        monkeypatch.setattr(fishbone.threshold, "simulate", spy)
        for variant, deltas, sigmas, config, m in SWEEP_CASES.values():
            rows, pids = [], []
            for n in (1, 2):
                cpus(n)
                log.write_text("")
                rows.append(sweep(variant, deltas, sigmas, config, m=m))
                pids.append({int(pid) for pid in log.read_text().split()})
                assert multiprocessing.active_children() == []
            # repr tells every float apart, and a nan energy (m=2) from no other
            assert repr(rows[0]) == repr(rows[1])
            assert pids[0] == {os.getpid()}
            assert os.getpid() in pids[1] and len(pids[1]) == 2

    @pytest.mark.parametrize("deltas,sigmas", [
        ([0.01, -1.0], [1.0]),
        ([0.01], [1.0, math.nan]),
        ([], [1.0]),
        ([0.01], []),
    ], ids=["delta", "sigma", "no-deltas", "no-sigmas"])
    def test_inputs_checked_before_first_run(self, monkeypatch, deltas, sigmas):
        calls = []
        real = fishbone.threshold.simulate

        def counting(*args, **kw):
            calls.append(args)
            return real(*args, **kw)

        monkeypatch.setattr(fishbone.threshold, "simulate", counting)
        with pytest.raises(ValueError):
            sweep(Variant.CROSS_DERIV, deltas, sigmas, IntegratorConfig(t_end=0.1))
        assert calls == []

    @pytest.mark.parametrize("deltas,sigmas", [
        (iter([]), [1.0]),
        ([0.01], (s for s in [])),
    ], ids=["empty-delta-iterator", "empty-sigma-generator"])
    def test_empty_iterator_refused(self, deltas, sigmas):
        # an empty iterator is truthy; the runs built from it are none
        with pytest.raises(ValueError, match="must not be empty"):
            sweep(Variant.CROSS_DERIV, deltas, sigmas, IntegratorConfig(t_end=1.0))

    def test_rows_keep_caller_delta(self):
        # the isolated spec zeroes delta; the row reports what was asked
        rows = sweep(Variant.ISOLATED, [0.02], [1.0], IntegratorConfig(t_end=0.1))
        assert (rows[0].delta, rows[0].sigma) == (0.02, 1.0)

    def test_worker_count_capped(self, cpus, widths, monkeypatch):
        # each process of a fan-out holds one run's samples at a time, so
        # there are no more than runs, usable CPUs, or runs whose samples
        # one run's memory budget holds, and one run forks none
        config = IntegratorConfig(t_end=0.01)
        cpus(4)
        rows = sweep(Variant.CROSS_DERIV, [0.01, 0.02], [1.0, 1.1, 1.2], config)
        assert len(rows) == 6
        sweep(Variant.CROSS_DERIV, [0.01], [1.0, 1.1], config)
        sweep(Variant.CROSS_DERIV, [0.01], [1.0], config)
        assert widths == [4, 2]
        for in_budget in (3, 1):
            monkeypatch.setattr(fishbone.threshold, "_check_run",
                                lambda spec, config, onset_gain: in_budget)
            sweep(Variant.CROSS_DERIV, [0.01, 0.02], [1.0, 1.1, 1.2], config)
        assert widths == [4, 2, 3]

    def test_sample_memory_checked_before_first_run(self, monkeypatch):
        # 20 001 samples of 4001 doubles are more than one run may hold
        calls = []
        monkeypatch.setattr(fishbone.threshold, "simulate", lambda *a, **kw: calls.append(a))
        with pytest.raises(ValueError, match="400 MB"):
            sweep(Variant.ISOLATED, [0.0], [1.0, 1.1], IntegratorConfig(), m=1000)
        assert calls == []

    def test_unstable_fixed_step_checked_before_first_run(self, monkeypatch):
        # h * sqrt(m^4 + 2) = 2.916 at m = 54, past RK4's 2 sqrt(2)
        calls = []
        monkeypatch.setattr(fishbone.threshold, "simulate", lambda *a, **kw: calls.append(a))
        with pytest.raises(ValueError, match="necessary"):
            sweep(Variant.ISOLATED, [0.0], [0.01, 0.02], IntegratorConfig(t_end=1.0), m=54)
        with pytest.raises(ValueError, match="necessary"):
            find_threshold(ModelSpec(Variant.ISOLATED, m=54), (0.01, 0.02), 1e-3,
                           IntegratorConfig(t_end=1.0))
        assert calls == []

    def test_bad_gain_refused_before_any_fork(self, cpus, forks):
        cpus(2)
        with pytest.raises(ValueError, match="onset_gain"):
            sweep(Variant.CROSS_DERIV, [0.01], [1.0, 1.1], IntegratorConfig(t_end=0.01),
                  onset_gain=1.0)
        assert forks == []

    @pytest.mark.parametrize("cause", ["one-cpu", "daemonic", "threaded"])
    def test_serial_without_a_free_cpu_or_a_safe_fork(self, cpus, widths, monkeypatch, cause):
        # the rule of the threshold look-ahead, _fork_context
        cpus(2)
        if cause == "one-cpu":
            cpus(1)
        elif cause == "daemonic":
            monkeypatch.setattr(multiprocessing.current_process(), "daemon", True)
        else:
            monkeypatch.setattr(fishbone._fork.threading, "active_count", lambda: 2)
        rows = sweep(Variant.CROSS_DERIV, [0.01], [1.0, 1.1], IntegratorConfig(t_end=0.01))
        assert len(rows) == 2 and widths == []
        assert multiprocessing.active_children() == []

    def test_two_runs_fork_one_child(self, cpus, widths, monkeypatch, tmp_path):
        # this process runs the first row, one forked child the second
        cpus(2)
        log = tmp_path / "runs"
        log.write_text("")
        real = fishbone.threshold.simulate

        def spy(spec, initial, *args, **kw):
            with open(log, "a") as fh:
                fh.write(f"{initial.y[0]!r} {os.getpid()}\n")
            return real(spec, initial, *args, **kw)

        monkeypatch.setattr(fishbone.threshold, "simulate", spy)
        rows = sweep(Variant.CROSS_DERIV, [0.01], [1.0, 1.1], IntegratorConfig(t_end=0.1))
        assert [r.sigma for r in rows] == [1.0, 1.1]
        runs = [line.split() for line in log.read_text().splitlines()]
        assert sorted(sigma for sigma, _ in runs) == ["1.0", "1.1"]
        where = {sigma: int(pid) for sigma, pid in runs}
        assert where["1.0"] == os.getpid() != where["1.1"]
        assert widths == [2]
        assert multiprocessing.active_children() == []

    def test_row_of_a_failed_fork_runs_here(self, cpus, refused_forks):
        # no process to spare: this process runs the failed child's row too,
        # and closes the pipe made for that child
        args = (Variant.CROSS_DERIV, [0.01], [1.2, 1.47], IntegratorConfig(t_end=1.0))
        cpus(1)
        expected = repr(sweep(*args))
        cpus(2)
        assert repr(sweep(*args)) == expected
        assert refused_forks and all(conn.closed for conn in refused_forks)
        assert multiprocessing.active_children() == []

    def test_no_worker_outlives_the_sweep(self, cpus, monkeypatch):
        cpus(2)
        config = IntegratorConfig(t_end=0.1)
        sweep(Variant.CROSS_DERIV, [0.01], [1.0, 1.1, 1.2], config)
        assert multiprocessing.active_children() == []
        real = fishbone.threshold.simulate

        def failing(spec, initial, *args, **kw):
            if initial.y[0] == 1.1:
                raise RuntimeError(f"run failed in {os.getpid()}")
            return real(spec, initial, *args, **kw)

        monkeypatch.setattr(fishbone.threshold, "simulate", failing)
        with pytest.raises(RuntimeError, match="run failed in") as err:
            sweep(Variant.CROSS_DERIV, [0.01], [1.0, 1.1, 1.2], config)
        assert str(err.value) != f"run failed in {os.getpid()}"
        assert multiprocessing.active_children() == []

    def test_dead_worker_raises(self, tmp_path):
        # a worker killed outright (by the OOM killer, say) raises here,
        # where a multiprocessing.Pool would wait for its task for ever; run
        # in a child process group, so a hang is killed with its workers
        script = tmp_path / "dead_worker.py"
        script.write_text(
            "import multiprocessing, os, signal\n"
            "import fishbone.threshold as th\n"
            "from fishbone.integrator import IntegratorConfig\n"
            "from fishbone.model import Variant\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "here, real = os.getpid(), th.simulate\n"
            "def dying(spec, initial, *args, **kw):\n"
            "    if initial.y[0] == 1.1 and os.getpid() != here:\n"
            "        os.kill(os.getpid(), signal.SIGKILL)\n"
            "    return real(spec, initial, *args, **kw)\n"
            "th.simulate = dying\n"
            "try:\n"
            "    th.sweep(Variant.CROSS_DERIV, [0.01], [1.0, 1.1, 1.2], IntegratorConfig(t_end=0.1))\n"
            "except Exception as e:\n"
            "    print(type(e).__name__, multiprocessing.active_children())\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(fishbone.threshold.__file__).parents[1]))
        proc = subprocess.Popen([sys.executable, str(script)], stdout=subprocess.PIPE,
                                text=True, env=env, start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail("the sweep still waited on its dead worker after 60 s")
        assert proc.returncode == 0
        assert out == "ChildProcessError []\n"

    def test_csv_with_empty_onset_field(self):
        config = IntegratorConfig(t_end=5.0)
        rows = sweep(Variant.CROSS_DERIV, [0.01], [0.5], config)
        buf = io.StringIO()
        write_sweep_csv(rows, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "delta,sigma,t_onset,max_torsion,E0,Ef"
        fields = lines[1].split(",")
        assert fields[2] == ""
        assert float(fields[0]) == 0.01 and float(fields[1]) == 0.5
        assert float(fields[4]) > 0.0
