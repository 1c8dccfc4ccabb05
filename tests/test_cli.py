import argparse
import hashlib
import importlib
import inspect
import os
import signal
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

import fishbone.cli
from fishbone.cli import build_parser, main
from fishbone.model import MAX_MODES

CMD = [sys.executable, "-m", "fishbone"]
SRC = str(Path(__file__).resolve().parents[1] / "src")
# the package runs from the checkout's src/, installed or not
ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p),
}


def run_cli(*args, **kw):
    return subprocess.run(
        CMD + list(args), capture_output=True, text=True, timeout=300, env=ENV, **kw
    )


class TestPresets:
    def test_lists_all_presets(self):
        res = run_cli("presets")
        assert res.returncode == 0
        lines = res.stdout.strip().splitlines()
        assert len(lines) == 16
        names = {l.split(":")[0] for l in lines}
        assert {"fig1-147", "fig2-d001", "fig6-147", "prop1-check", "prop2-grid"} <= names

    def test_preset_resolved_config_in_header(self, tmp_path):
        out = tmp_path / "fig6.csv"
        res = run_cli(
            "simulate", "--preset", "fig6-147", "--out", str(out)
        )
        assert res.returncode == 0
        header = out.read_text().splitlines()[:12]
        assert "# preset=fig6-147" in header
        assert "# variant=crosszero" in header
        assert "# sigma=1.47" in header
        assert "# delta=0.01" in header

    def test_preset_forbids_overrides(self):
        res = run_cli("simulate", "--preset", "fig1-147", "--sigma", "2.0")
        assert res.returncode == 2

    def test_preset_rerun_byte_reproduces(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli("simulate", "--preset", "fig1-145", "--out", str(a)).returncode == 0
        assert run_cli("simulate", "--preset", "fig1-145", "--out", str(b)).returncode == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_preset(self):
        res = run_cli("simulate", "--preset", "fig9-000")
        assert res.returncode == 2


class TestSimulate:
    def test_summary_and_exit_zero(self, tmp_path):
        out = tmp_path / "t.csv"
        res = run_cli(
            "simulate", "--variant", "cross", "--delta", "0.01",
            "--sigma", "1.5", "--t-end", "2", "--out", str(out),
        )
        assert res.returncode == 0
        assert res.stdout.startswith("onset=none final_energy=")
        lines = out.read_text().splitlines()
        header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        assert lines[header_idx] == (
            "t,y1,z1,E_total,E_kin_y,E_kin_z,E_quad,E_coupling,E_quartic,E_aero"
        )
        assert len(lines) == header_idx + 1 + 201

    def test_byte_reproducible(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["simulate", "--variant", "isolated", "--sigma", "1.3", "--t-end", "2"]
        assert run_cli(*args, "--out", str(a)).returncode == 0
        assert run_cli(*args, "--out", str(b)).returncode == 0
        assert a.read_bytes() == b.read_bytes()

    def test_config_file_equivalent_to_flags(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# comment line\n"
            "variant=cross\n"
            "delta=0.02\n"
            "sigma=1.5\n"
            "t_end=2\n"
        )
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        r1 = run_cli("simulate", "--config", str(cfg), "--out", str(a))
        r2 = run_cli(
            "simulate", "--variant", "cross", "--delta", "0.02",
            "--sigma", "1.5", "--t-end", "2", "--out", str(b),
        )
        assert r1.returncode == 0 and r2.returncode == 0
        assert a.read_text().replace("# preset=\n", "") == b.read_text().replace(
            "# preset=\n", ""
        )

    def test_flag_overrides_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sigma=1.5\nt_end=1\n")
        res = run_cli("simulate", "--config", str(cfg), "--sigma", "0.5", "--out", "-")
        assert res.returncode == 0
        assert "# sigma=0.5" in res.stdout

    # the file's and the flags' values resolve into one record, checked once:
    # a step above the default sample interval of 0.01 is admitted by the
    # sample interval set beside it
    STEP_RUN = ["--sample-every", "0.1", "--t-end", "1"]

    def test_step_and_sample_interval_checked_together(self, tmp_path):
        out = tmp_path / "a.csv"
        res = run_cli("simulate", "--step", "0.05", *self.STEP_RUN, "--out", str(out))
        assert res.returncode == 0, res.stderr
        assert "# h=0.050000000000000003" in out.read_text().splitlines()

    def test_config_step_checked_with_flag_sample_interval(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("step=0.05\n")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        r1 = run_cli("simulate", "--step", "0.05", *self.STEP_RUN, "--out", str(a))
        r2 = run_cli("simulate", "--config", str(cfg), *self.STEP_RUN, "--out", str(b))
        assert r1.returncode == 0 and r2.returncode == 0, r2.stderr
        assert a.read_text().replace("# preset=\n", "") == b.read_text().replace(
            "# preset=\n", ""
        )

    def test_bad_config_value_refused_under_a_flag(self, tmp_path):
        # the file's values are converted before the flags override them
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sigma=abc\n")
        res = run_cli("simulate", "--config", str(cfg), "--sigma", "1.5", "--out", "-")
        assert res.returncode == 2
        assert "bad value for sigma" in res.stderr

    def test_malformed_config_file(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("sigma 1.5\n")
        assert run_cli("simulate", "--config", str(cfg)).returncode == 2
        cfg.write_text("no_such_key=1\n")
        assert run_cli("simulate", "--config", str(cfg)).returncode == 2

    def test_missing_config_file(self, tmp_path):
        res = run_cli("simulate", "--config", str(tmp_path / "missing.cfg"))
        assert res.returncode == 2, res.stderr
        assert "cannot read config file" in res.stderr

    def test_rejected_onset_gain_leaves_no_file(self, tmp_path):
        out = tmp_path / "x.csv"
        res = run_cli(
            "simulate", "--onset-gain", "0.5", "--t-end", "1", "--out", str(out)
        )
        assert res.returncode == 2, res.stderr
        assert not out.exists()

    def test_unwritable_output_is_io_error(self):
        res = run_cli(
            "simulate", "--sigma", "1.0", "--t-end", "1",
            "--out", "/nonexistent-dir/x.csv",
        )
        assert res.returncode == 3

    @pytest.mark.parametrize("flag,value", [
        ("--t-end", "inf"),
        ("--sigma", "nan"),
        ("--delta", "nan"),
        ("--sample-every", "inf"),
        ("--onset-gain", "nan"),
    ])
    def test_non_finite_flag_is_config_error(self, flag, value):
        res = run_cli(
            "simulate", "--variant", "cross", "--t-end", "1", flag, value, "--out", "-"
        )
        assert res.returncode == 2, res.stderr

    # flags are converted by the same table as config files
    @pytest.mark.parametrize("flag,value", [
        ("--modes", "2.5"),
        ("--sigma", "abc"),
        ("--step", ""),
    ])
    def test_bad_flag_value_is_config_error(self, flag, value):
        res = run_cli("simulate", "--t-end", "1", flag, value, "--out", "-")
        assert res.returncode == 2, res.stderr
        assert "error:" in res.stderr

    # t_end / h or sample_every / h overflows to inf: no step count exists
    @pytest.mark.parametrize("flags", [
        ["--t-end", "1e308"],
        ["--step", "1e-320"],
        ["--sample-every", "1e308", "--t-end", "1"],
    ])
    def test_overflowing_step_count_leaves_no_file(self, tmp_path, flags):
        out = tmp_path / "x.csv"
        res = run_cli("simulate", *flags, "--out", str(out))
        assert res.returncode == 2, res.stderr
        assert "must be finite" in res.stderr
        assert not out.exists()

    # t_end / (h * stride) is subnormal: the sample memory budget counts the
    # seed, so it stays finite, and each command runs on the seed alone
    @pytest.mark.parametrize("args,code,line", [
        (["simulate"], 0, "onset=none"),
        (["sweep", "--deltas", "0", "--sigmas", "1.5"], 0, "rows=1"),
        (["threshold", "--bracket", "1.4:1.6"], 5, "no onset detected at sigma_hi"),
    ], ids=["simulate", "sweep", "threshold"])
    def test_subnormal_horizon_runs(self, args, code, line):
        res = run_cli(*args, "--t-end", "1e-320", "--out", "-")
        assert res.returncode == code, res.stderr
        assert line in res.stderr and "Traceback" not in res.stderr
        if args[0] == "sweep":
            assert len(res.stdout.splitlines()) == 2

    # a finite count above the cap would run for days or exhaust memory
    @pytest.mark.parametrize("flags,what", [
        (["--t-end", "1e300"], "steps"),
        (["--t-end", "2e6", "--sample-every", "1"], "steps"),
        (["--t-end", "2e5"], "samples"),
    ])
    def test_step_or_sample_count_above_cap_leaves_no_file(self, tmp_path, flags, what):
        out = tmp_path / "x.csv"
        res = run_cli("simulate", *flags, "--out", str(out))
        assert res.returncode == 2, res.stderr
        assert "at most" in res.stderr and what in res.stderr
        assert not out.exists()

    def test_adaptive_interval_within_time_snap_leaves_no_file(self, tmp_path):
        out = tmp_path / "x.csv"
        res = run_cli(
            "simulate", "--scheme", "adaptive_embedded", "--t-end", "5e-14",
            "--step", "5e-14", "--sample-every", "5e-14", "--out", str(out),
        )
        assert res.returncode == 2, res.stderr
        assert "time snap" in res.stderr and "Traceback" not in res.stderr
        assert not out.exists()

    def test_mode_count_above_cap_leaves_no_file(self, tmp_path):
        out = tmp_path / "x.csv"
        res = run_cli(
            "simulate", "--modes", str(MAX_MODES + 1), "--t-end", "0.001",
            "--out", str(out),
        )
        assert res.returncode == 2, res.stderr
        assert "mode count" in res.stderr
        assert not out.exists()

    def test_sample_memory_above_cap_leaves_no_file(self, tmp_path):
        # 20 001 samples of 4m + 1 = 4001 doubles is 640 MB, over the 400 MB
        # that MAX_SAMPLES allows at m = 1
        out = tmp_path / "x.csv"
        res = run_cli("simulate", "--modes", str(MAX_MODES), "--out", str(out))
        assert res.returncode == 2, res.stderr
        assert "400 MB" in res.stderr
        assert not out.exists()

    def test_unstable_fixed_step_leaves_no_file(self, tmp_path):
        # h * sqrt(m^4 + 2) is 2.916 at m = 54, past RK4's 2 sqrt(2) = 2.828
        # on the imaginary axis: the run would blow up on rounding error
        out = tmp_path / "x.csv"
        res = run_cli("simulate", "--modes", "54", "--sigma", "0.01", "--t-end", "1",
                      "--out", str(out))
        assert res.returncode == 2, res.stderr
        assert "necessary, not sufficient" in res.stderr and "Traceback" not in res.stderr
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ("--modes", "53", "--t-end", "1"),
        ("--modes", "54", "--step", "5e-4", "--t-end", "1"),
        ("--modes", "54", "--scheme", "adaptive_embedded", "--t-end", "0.1"),
    ], ids=["m53", "m54-half-step", "m54-adaptive"])
    def test_stable_step_runs(self, tmp_path, flags):
        # 2.809 at m = 53 and 1.458 at h = 5e-4, past the t=0.288 at which
        # m = 54 at h = 1e-3 blew up; the adaptive scheme has no fixed step
        out = tmp_path / "x.csv"
        res = run_cli("simulate", *flags, "--sigma", "0.01", "--out", str(out))
        assert res.returncode == 0, res.stderr
        assert out.exists()

    @pytest.mark.parametrize("scheme", ["fixed_rk4", "adaptive_embedded"])
    def test_sigma_past_the_energy_range_leaves_no_file(self, tmp_path, scheme):
        # y**4 of its initial energy overflows a double
        out = tmp_path / "x.csv"
        res = run_cli("simulate", "--scheme", scheme, "--sigma", "1e200", "--out", str(out))
        assert res.returncode == 2, res.stderr
        assert "sigma" in res.stderr and "Traceback" not in res.stderr
        assert not out.exists()

    def test_blow_up_exit_code_with_partial_csv(self, tmp_path):
        out = tmp_path / "blow.csv"
        res = run_cli(
            "simulate", "--sigma", "1e9", "--t-end", "1", "--out", str(out)
        )
        assert res.returncode == 4
        assert "terminated_early" in res.stderr
        assert out.exists()
        assert len(out.read_text().splitlines()) >= 2

    def test_seed_beyond_guard_is_a_blow_up_under_adaptive(self):
        # the same exit as fixed RK4, not a quiet step-size collapse
        res = run_cli(
            "simulate", "--scheme", "adaptive_embedded", "--sigma", "1e12",
            "--t-end", "1", "--out", "-",
        )
        assert res.returncode == 4, res.stderr
        assert "blow-up" in res.stderr

    # the m-mode accelerations overflow to inf and NaN in the tried steps
    # of the adaptive runs, on scalar locals at m = 2 and on numpy at m = 9;
    # standard error carries the summary and the early end, no RuntimeWarning
    @pytest.mark.parametrize("scheme", ["fixed_rk4", "adaptive_embedded"])
    @pytest.mark.parametrize("modes", ["2", "9"])
    def test_m_mode_overflow_writes_only_the_summary(self, modes, scheme):
        res = run_cli(
            "simulate", "--modes", modes, "--sigma", "5e7", "--t-end", "0.01",
            "--scheme", scheme, "--out", "-",
        )
        assert res.returncode in (0, 4), res.stderr
        summary, end = res.stderr.splitlines()
        assert summary.startswith("onset=none final_energy=n/a max_torsion=")
        assert end.startswith("terminated_early at t=")


class TestHill:
    def test_single_energy(self):
        res = run_cli("hill", "--grid", "0.799", "--out", "-")
        assert res.returncode == 0
        lines = [l for l in res.stdout.splitlines() if "," in l]
        assert lines[0] == "E,amplitude,period,trace,classification,zhukovskii"
        fields = lines[1].split(",")
        assert fields[4] == "stable" and fields[5] == "true"

    def test_malformed_grid(self):
        assert run_cli("hill", "--grid", "0.1:xyz:0.1").returncode == 2
        assert run_cli("hill", "--grid", "1:0.5:0.1").returncode == 2
        assert run_cli("hill", "--grid", "1:2").returncode == 2
        assert run_cli("hill", "--grid", ",").returncode == 2
        assert run_cli("hill").returncode == 2

    def test_nonpositive_energy_rejected(self):
        assert run_cli("hill", "--grid", "-1.0").returncode == 2
        assert run_cli("hill", "--grid", "1,-1").returncode == 2
        # past the energy cap the step collapses (1e46) or nothing is
        # integrated (1e55): a config error naming the cap, not a verdict
        for grid in ("1e46", "1e55"):
            res = run_cli("hill", "--grid", grid, "--out", "-")
            assert res.returncode == 2, res.stderr
            assert "at most 1e+30" in res.stderr and "Traceback" not in res.stderr

    def test_non_finite_forcing_delta_rejected(self):
        res = run_cli("hill", "--grid", "1", "--delta", "nan", "--horizon-periods", "10")
        assert res.returncode == 2, res.stderr

    # a non-finite START or STOP would never end the grid loop
    @pytest.mark.parametrize("grid", ["nan:1:0.1", "0.1:inf:0.1", "0.5:1:inf", "nan", "inf"])
    def test_non_finite_grid_rejected(self, grid):
        res = run_cli("hill", "--grid", grid, "--out", "-")
        assert res.returncode == 2, res.stderr

    # the point count is checked before any point is built
    @pytest.mark.parametrize("grid", ["0:1e9:1e-9", "1:1:1e-300"])
    def test_oversized_grid_rejected(self, grid):
        res = run_cli("hill", "--grid", grid, "--out", "-")
        assert res.returncode == 2, res.stderr
        assert "more than 100000 points" in res.stderr

    def test_prop2_grid_pinned(self, tmp_path):
        # SHA-256 of columns 1-7 (all but growth_rate): pins the monodromy
        # trace bit for bit and all 20 classifications and forced verdicts
        out = tmp_path / "prop2.csv"
        res = run_cli("hill", "--preset", "prop2-grid", "--out", str(out))
        assert res.returncode == 0, res.stderr
        cols = "".join(
            ",".join(line.split(",")[:7]) + "\n"
            for line in out.read_text().splitlines()
        )
        assert hashlib.sha256(cols.encode()).hexdigest() == (
            "0d0b7090b803708636b213de4e9ae591c6cbcf343f44d62b58b40fcd5a536059"
        )

    def test_first_unstable_energy_above_sufficient_bound(self, tmp_path):
        # scanning upward in energy, instability first appears well past the
        # sufficient region, and the forced check (see prop2 tests) agrees
        out = tmp_path / "chart.csv"
        res = run_cli("hill", "--grid", "0.1:10:0.1", "--out", str(out))
        assert res.returncode == 0
        rows = [l.split(",") for l in out.read_text().splitlines()[1:]]
        classes = [(float(r[0]), r[4]) for r in rows]
        first_unstable = next(e for e, c in classes if c == "unstable")
        assert first_unstable >= 0.799
        assert all(c == "stable" for e, c in classes if e < first_unstable)

    def test_prop1_preset_all_stable(self, tmp_path):
        out = tmp_path / "prop1.csv"
        res = run_cli("hill", "--preset", "prop1-check", "--out", str(out))
        assert res.returncode == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 16  # 0.05..0.75 plus the 0.799 boundary
        assert all(r.split(",")[4] == "stable" for r in rows)
        assert all(r.split(",")[5] == "true" for r in rows)

    def test_forced_columns_discriminate(self, tmp_path):
        out = tmp_path / "forced.csv"
        res = run_cli(
            "hill", "--grid", "0.5,6.0", "--delta", "0.01",
            "--horizon-periods", "20", "--out", str(out),
        )
        assert res.returncode == 0
        lines = out.read_text().splitlines()
        assert lines[0].endswith(",forced_bounded,growth_rate")
        stable_row = lines[1].split(",")
        unstable_row = lines[2].split(",")
        assert stable_row[4] == "stable" and stable_row[6] == "true"
        assert unstable_row[4] == "unstable" and unstable_row[6] == "false"

    # forced_check keeps one float per period
    def test_horizon_above_cap_rejected(self):
        res = run_cli(
            "hill", "--grid", "1", "--delta", "0.01", "--horizon-periods", "100001",
            "--out", "-",
        )
        assert res.returncode == 2, res.stderr
        assert "100000" in res.stderr

    def test_horizon_below_minimum_rejected_without_forcing(self):
        res = run_cli("hill", "--grid", "1", "--horizon-periods", "-3", "--out", "-")
        assert res.returncode == 2, res.stderr

    def test_horizon_below_minimum_rejected_before_first_energy(self, charted_energies):
        code = main(["hill", "--grid", "1,2", "--delta", "0.01",
                     "--horizon-periods", "5", "--out", "-"])
        assert code == 2
        assert charted_energies == []

    @pytest.mark.parametrize("delta", ["-0.01", "nan"])
    def test_bad_delta_rejected_before_first_energy(self, charted_energies, delta):
        code = main(["hill", "--grid", "1,2,3", "--delta", delta, "--out", "-"])
        assert code == 2
        assert charted_energies == []

    @pytest.mark.parametrize("grid,delta", [("6", "1e12"), ("0.5", "1e307"), ("0.5,6", "1e308")])
    @pytest.mark.parametrize("n", [1, 2])
    def test_forcing_with_no_rate_to_fit_exits_2(self, grid, delta, n, cpus, capsys):
        # one error line, no traceback, serially and through the fan-out
        cpus(n)
        code = main(["hill", "--grid", grid, "--delta", delta, "--out", "-"])
        out, err = capsys.readouterr()
        assert code == 2
        assert err.startswith("error: forced response at E=") and err.count("\n") == 1, err
        assert out == ""

    def test_horizon_refused_without_forcing(self, charted_energies, capsys):
        # an unforced chart has no forced check whose horizon the flag sets
        code = main(["hill", "--grid", "1,2", "--horizon-periods", "50", "--out", "-"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: --horizon-periods is the forced check's horizon: it needs --delta\n")
        assert charted_energies == []

    def test_preset_forbids_horizon_override(self):
        res = run_cli("hill", "--preset", "prop1-check", "--horizon-periods", "50")
        assert res.returncode == 2


class TestThreshold:
    def test_invalid_bracket_exit_code(self):
        res = run_cli("threshold", "--bracket", "0.1:0.2", "--t-end", "50")
        assert res.returncode == 5

    def test_report_written(self, tmp_path):
        out = tmp_path / "thr.txt"
        res = run_cli(
            "threshold", "--bracket", "1.40:1.55", "--tol", "0.02",
            "--t-end", "50", "--out", str(out),
        )
        assert res.returncode == 0
        report = dict(
            l.split("=", 1) for l in out.read_text().strip().splitlines()
        )
        assert 1.40 < float(report["sigma_star"]) < 1.55
        assert report["config.t_end"] == "50"

    def test_malformed_bracket(self):
        assert run_cli("threshold", "--bracket", "1.4").returncode == 2
        assert run_cli("threshold", "--bracket", "a:b").returncode == 2

    @pytest.mark.parametrize("bracket", ["1.4:inf", "-inf:1.5"])
    def test_non_finite_bracket_named(self, bracket):
        res = run_cli("threshold", f"--bracket={bracket}", "--t-end", "1")
        assert res.returncode == 2, res.stderr
        assert "error: bracket endpoints must be finite" in res.stderr


class TestSweep:
    def test_rows_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        res = run_cli(
            "sweep", "--deltas", "0.01,0.02", "--sigmas", "1.0",
            "--t-end", "5", "--out", str(out),
        )
        assert res.returncode == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "delta,sigma,t_onset,max_torsion,E0,Ef"
        assert len(lines) == 3

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no affinity mask")
    def test_parallel_jobs_reproduce_serial_output(self, tmp_path):
        # bound to one CPU, a sweep runs serially; with more, in a pool
        a, b = tmp_path / "serial.csv", tmp_path / "par.csv"
        args = ["sweep", "--deltas", "0.01,0.02", "--sigmas", "1.4,1.6,1100",
                "--t-end", "5"]
        one_cpu = {min(os.sched_getaffinity(0))}
        res = run_cli(*args, "--out", str(a), preexec_fn=lambda: os.sched_setaffinity(0, one_cpu))
        assert res.returncode == 0, res.stderr
        assert run_cli(*args, "--out", str(b)).returncode == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_lists(self):
        assert run_cli("sweep", "--deltas", "a", "--sigmas", "1").returncode == 2

    def test_empty_list_rejected(self):
        res = run_cli("sweep", "--deltas", "", "--sigmas", "1", "--out", "-")
        assert res.returncode == 2, res.stderr
        assert "rows=" not in res.stdout + res.stderr

    def test_sigma_past_the_energy_range_leaves_no_file(self, tmp_path):
        out = tmp_path / "x.csv"
        res = run_cli("sweep", "--deltas", "0.01", "--sigmas", "1e200", "--out", str(out))
        assert res.returncode == 2, res.stderr
        assert "sigma" in res.stderr and "Traceback" not in res.stderr
        assert not out.exists()

    def test_pool_library_imported_only_for_a_pool(self):
        code = "import sys, fishbone.cli; print('concurrent.futures' in sys.modules)"
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             timeout=60, env=ENV)
        assert res.stdout == "False\n", res.stderr

    def test_sigma_past_the_energy_range_at_two_modes_blows_up(self):
        # the bound is where the m = 1 energy overflows; m = 2 has no energy
        res = run_cli("sweep", "--variant", "isolated", "--modes", "2", "--deltas", "0",
                      "--sigmas", "1e100", "--t-end", "1", "--out", "-")
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines()[1] == "0,1e+100,,1e+96,nan,nan"


class TestIsolatedDelta:
    """The isolated variant runs at delta 0 whatever it is given, so a
    nonzero delta for it is refused before any output file or run: the
    output would name a delta the run did not use."""

    class Started(Exception):
        pass

    @pytest.fixture
    def runs(self, monkeypatch):
        # each run the command starts, ended there by Started
        started = []

        def start(name):
            started.append(name)
            raise self.Started(name)

        for name in ("simulate", "find_threshold", "sweep"):
            monkeypatch.setattr(f"fishbone.cli.{name}", lambda *a, name=name, **kw: start(name))
        return started

    @pytest.mark.parametrize("argv,config", [
        (["simulate", "--variant", "isolated", "--delta", "0.05"], None),
        (["simulate", "--delta", "0.05"], None),  # isolated is the default
        (["simulate"], "variant=isolated\ndelta=0.05\n"),
        (["simulate", "--variant", "isolated"], "variant=cross\ndelta=0.05\n"),
        (["threshold", "--bracket", "1.4:1.6", "--variant", "isolated", "--delta", "0.05"],
         None),
        (["sweep", "--variant", "isolated", "--deltas", "0,0.05", "--sigmas", "1.47"], None),
    ], ids=["simulate", "simulate-default", "simulate-config", "simulate-config-and-flag",
            "threshold", "sweep"])
    def test_nonzero_delta_refused(self, argv, config, runs, tmp_path, capsys):
        if config is not None:
            (tmp_path / "run.cfg").write_text(config)
            argv = [*argv, "--config", str(tmp_path / "run.cfg")]
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr() == (
            "", "error: the isolated variant has no aerodynamic terms; delta must be 0, "
            "got 0.05\n")
        assert runs == [] and not out.exists()

    @pytest.mark.parametrize("argv,run", [
        (["simulate", "--variant", "isolated", "--delta", "-0.0"], "simulate"),
        (["threshold", "--bracket", "1.4:1.6", "--delta", "0"], "find_threshold"),
        (["sweep", "--variant", "isolated", "--deltas", "0,-0.0", "--sigmas", "1.47"], "sweep"),
    ], ids=["simulate", "threshold", "sweep"])
    def test_zero_delta_runs(self, argv, run, runs, tmp_path):
        with pytest.raises(self.Started):
            main([*argv, "--out", str(tmp_path / "out")])
        assert runs == [run]


class TestDeadChild:
    # a fan-out child killed outright (the OOM killer, a signal) raises
    # ChildProcessError, an OSError: exit 3 with one line on stderr, no
    # traceback and no output file
    @pytest.mark.parametrize("fan_out,command", [
        ("stability_chart", ["hill", "--grid", "1,2,3"]),
        ("sweep", ["sweep", "--deltas", "0.01", "--sigmas", "1.0,1.2", "--t-end", "1"]),
    ], ids=["hill", "sweep"])
    def test_broken_pool_exits_3(self, fan_out, command, monkeypatch, capsys, tmp_path):
        def broken(*args, **kwargs):
            raise ChildProcessError("a child died before sending its results")

        monkeypatch.setattr(f"fishbone.cli.{fan_out}", broken)
        out = tmp_path / "out.csv"
        assert main([*command, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err == "i/o error: a child died before sending its results\n"
        assert not out.exists()

    def test_other_runtime_errors_still_raise(self, monkeypatch):
        def failing(*args, **kwargs):
            raise RuntimeError("not a dead child")

        monkeypatch.setattr("fishbone.cli.stability_chart", failing)
        with pytest.raises(RuntimeError, match="not a dead child"):
            main(["hill", "--grid", "1,2", "--out", "-"])

    def test_killed_chart_child_exits_3(self, tmp_path):
        # the child is killed inside classify; run in its own process group,
        # so a hang is killed with it
        script = tmp_path / "dead_child.py"
        script.write_text(
            "import os, signal, sys\n"
            "import fishbone.cli, fishbone.hill as hill\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "here, real = os.getpid(), hill.classify\n"
            "def dying(mode):\n"
            "    if os.getpid() != here:\n"
            "        os.kill(os.getpid(), signal.SIGKILL)\n"
            "    return real(mode)\n"
            "hill.classify = dying\n"
            "sys.exit(fishbone.cli.main(sys.argv[1:]))\n"
        )
        out = tmp_path / "chart.csv"
        proc = subprocess.Popen(
            [sys.executable, str(script), "hill", "--grid", "1,2,3", "--out", str(out)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=ENV,
            start_new_session=True,
        )
        try:
            _, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail("the chart still waited on its dead child after 60 s")
        assert proc.returncode == 3, err
        assert err == "i/o error: a child process died before it reported (exit code -9)\n"
        assert not out.exists()


class TestWriterChild:
    """``simulate`` writes its CSV from a forked child while the run
    integrates, wherever ``_fork_context`` allows and the output has a file
    descriptor, and in-process after the run elsewhere: the same bytes and
    the same exit codes either way."""

    RUNS = {
        "isolated": ["--t-end", "12"],
        "cross": ["--variant", "cross", "--delta", "0.01", "--t-end", "12"],
        "crosszero": ["--variant", "crosszero", "--delta", "0.01", "--t-end", "12"],
        "modes3": ["--modes", "3", "--t-end", "1.5", "--sample-every", "0.001"],
        "adaptive": ["--scheme", "adaptive_embedded", "--t-end", "12"],
        # 1795 rows up to the blow-up at t=0.00359: exit 4, partial CSV
        "blow-up": ["--sigma", "1e4", "--t-end", "0.1", "--step", "2e-6",
                    "--sample-every", "2e-6"],
        # 1333 steps of 0.003, each sampled, then a short step of 0.0014
        # onto t_end
        "tail-step": ["--step", "0.003", "--t-end", "4.0004", "--sample-every", "0.003"],
    }

    @staticmethod
    def _run(argv, forked, monkeypatch, cpus):
        """main(argv) with the writer forked or not; returns its exit code."""
        cpus(2)
        if not forked:
            monkeypatch.setattr("fishbone.cli._fork_context", lambda: None)
        started = []
        real = fishbone.cli._child

        @contextmanager
        def start(*args, **kwargs):
            with real(*args, **kwargs) as forked:
                started.append(forked)
                yield forked

        monkeypatch.setattr("fishbone.cli._child", start)
        code = main(argv)
        assert [w is not None for w in started] == [forked]
        return code

    @pytest.mark.parametrize("name", list(RUNS))
    def test_same_bytes_on_both_paths(self, name, tmp_path, monkeypatch, cpus):
        outs = {}
        for forked in (True, False):
            out = tmp_path / f"{forked}.csv"
            argv = ["simulate", *self.RUNS[name], "--out", str(out)]
            code = self._run(argv, forked, monkeypatch, cpus)
            outs[forked] = code, out.read_bytes()
            monkeypatch.undo()
        assert outs[True] == outs[False]
        code, data = outs[True]
        assert code == (4 if name == "blow-up" else 0)
        assert data.count(b"\n") > 1100  # more than one block of rows

    def test_in_process_stdout(self, tmp_path, monkeypatch, cpus, capsys):
        # capsys's stdout has no file descriptor, so no child writes it
        argv = ["simulate", "--t-end", "12"]
        assert self._run(argv + ["--out", "-"], False, monkeypatch, cpus) == 0
        printed = capsys.readouterr().out
        monkeypatch.undo()
        out = tmp_path / "forked.csv"
        assert self._run(argv + ["--out", str(out)], True, monkeypatch, cpus) == 0
        assert printed.encode() == out.read_bytes()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("forked", [True, False], ids=["forked", "in-process"])
    def test_full_disk_exits_3(self, forked, monkeypatch, cpus, capsys):
        argv = ["simulate", "--t-end", "1", "--out", "/dev/full"]
        assert self._run(argv, forked, monkeypatch, cpus) == 3
        assert capsys.readouterr() == ("", "i/o error: [Errno 28] No space left on device\n")

    def test_run_interrupted_kills_the_writer(self, tmp_path, monkeypatch, cpus):
        # Ctrl-C during the run: the writer child is gone before the
        # KeyboardInterrupt leaves main (the no_child_left fixture checks)
        real = fishbone.cli.simulate

        def interrupted(*args, **kwargs):
            real(*args, **kwargs)
            raise KeyboardInterrupt

        monkeypatch.setattr("fishbone.cli.simulate", interrupted)
        out = tmp_path / "out.csv"
        with pytest.raises(KeyboardInterrupt):
            self._run(["simulate", "--t-end", "1", "--out", str(out)], True, monkeypatch, cpus)

    @pytest.mark.parametrize("name", ["isolated", "blow-up"])
    def test_no_child_to_spare(self, name, tmp_path, cpus, refused_forks):
        # no process for the writer: the CSV is written here after the run,
        # and the pipes made for the child are closed
        outs = []
        for n in (1, 2):
            cpus(n)
            out = tmp_path / f"{n}.csv"
            outs.append((main(["simulate", *self.RUNS[name], "--out", str(out)]),
                         out.read_bytes()))
        assert outs[0] == outs[1]
        assert outs[0][0] == (4 if name == "blow-up" else 0)
        assert refused_forks and all(conn.closed for conn in refused_forks)

    def test_ctrl_c(self, ctrl_c, tmp_path):
        # Ctrl-C during the run, the writer child up: only this process reports it
        code, err = ctrl_c("fishbone.cli.simulate", "simulate", "--t-end", "1",
                           "--out", str(tmp_path / "out.csv"))
        assert code == -signal.SIGINT
        assert err.count("Traceback") == 1 and err.endswith("KeyboardInterrupt\n"), err

    def test_killed_writer_exits_3(self, tmp_path):
        # the writer kills itself on its second block, once it has written
        # the first; run in its own process group, so a hang is killed with it
        script = tmp_path / "dead_writer.py"
        script.write_text(
            "import os, signal, sys\n"
            "import fishbone.cli as cli\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "here, real, calls = os.getpid(), cli._write_trajectory_rows, []\n"
            "def dying(spec, rows, out):\n"
            "    calls.append(spec)\n"
            "    if len(calls) == 2 and os.getpid() != here:\n"
            "        os.kill(os.getpid(), signal.SIGKILL)\n"
            "    real(spec, rows, out)\n"
            "cli._write_trajectory_rows = dying\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        out = tmp_path / "out.csv"
        proc = subprocess.Popen(
            [sys.executable, str(script), "simulate", "--t-end", "20", "--out", str(out)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=ENV,
            start_new_session=True,
        )
        try:
            stdout, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail("simulate still waited on its dead writer after 60 s")
        assert proc.returncode == 3, err
        assert err == "i/o error: a child process died before it reported (exit code -9)\n"
        assert stdout == ""


class TestOutputPins:
    # SHA-256 of every byte a writer emits: the '# key=value' headers, the
    # threshold report, a sweep with an empty t_onset, empty m > 1 energy
    # columns, and charts with and without the forced columns
    CASES = {
        "simulate-crosszero": (
            ["simulate", "--variant", "crosszero", "--delta", "0.01", "--t-end", "2"],
            "412a4819ce7f3b99b0b5d5db7c6e317db60e27928d47ad11678b989606919ee5",
        ),
        "simulate-m2": (
            ["simulate", "--modes", "2", "--t-end", "0.5"],
            "ca4a77e1a73e8bc530605833d9ac927c71189a4fcacf6f1c99c7e111bffcb0e6",
        ),
        "threshold-report": (
            ["threshold", "--bracket", "1.40:1.55", "--tol", "0.02", "--t-end", "50"],
            "af8d0f97f7e329a943a6d7d8b0f621e17e52a66f4d3245052c32ba10f7404012",
        ),
        "sweep-2x2": (
            ["sweep", "--deltas", "0.01,0.05", "--sigmas", "1.0,1.6", "--t-end", "20"],
            "5b640e66d486023141e90899db6ddcba4771c1382f32cd763cd8b3f67431fb1d",
        ),
        "hill-forced": (
            ["hill", "--grid", "0.5,6", "--delta", "0.01", "--horizon-periods", "20"],
            "4b623aadbe56a5868ae79edd3a3e6eb7ff49080b8409ca9f0080128449660b45",
        ),
        "hill-plain": (
            ["hill", "--grid", "1,2"],
            "c65af7833c5fba44335c748d636a3220060a245a5b23ac14ac10b2d470b74626",
        ),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_bytes_pinned(self, tmp_path, name):
        args, sha = self.CASES[name]
        out = tmp_path / "out"
        res = run_cli(*args, "--out", str(out))
        assert res.returncode == 0, res.stderr
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha


class TestRunFlags:
    # zero is a value, not a missing flag: it must reach validation
    @pytest.mark.parametrize("flag", ["--step", "--onset-gain", "--t-end", "--modes"])
    @pytest.mark.parametrize("command", [
        ["threshold", "--bracket", "0.1:0.2"],
        ["sweep", "--deltas", "0.01", "--sigmas", "1.0"],
    ], ids=["threshold", "sweep"])
    def test_zero_is_config_error(self, command, flag):
        t_end = [] if flag == "--t-end" else ["--t-end", "1"]
        res = run_cli(*command, *t_end, flag, "0", "--out", "-")
        assert res.returncode == 2, res.stderr

    @pytest.mark.parametrize("command", [
        ["threshold", "--bracket", "1.4:1.6"],
        ["sweep", "--deltas", "0.01", "--sigmas", "1.0"],
    ], ids=["threshold", "sweep"])
    def test_overflowing_step_count_is_config_error(self, command):
        res = run_cli(*command, "--t-end", "1e308", "--out", "-")
        assert res.returncode == 2, res.stderr
        assert "t_end / h must be finite" in res.stderr

    # a threshold probe records only its endpoints, so only the step count
    # caps its horizon
    @pytest.mark.parametrize("command,t_end", [
        (["threshold", "--bracket", "1.4:1.6"], "1e300"),
        (["sweep", "--deltas", "0.01", "--sigmas", "1.0"], "1e300"),
        (["sweep", "--deltas", "0.01", "--sigmas", "1.0"], "2e5"),
    ], ids=["threshold-1e300", "sweep-1e300", "sweep-2e5"])
    def test_step_or_sample_count_above_cap_is_config_error(self, command, t_end):
        res = run_cli(*command, "--t-end", t_end, "--out", "-")
        assert res.returncode == 2, res.stderr
        assert "at most" in res.stderr

    def test_threshold_horizon_past_the_sample_cap_runs(self):
        # 1.00001e7 samples of the caller's sampling, which no probe records:
        # the search runs, and sigma_lo = 5 fires at once
        res = run_cli("threshold", "--bracket", "5:6", "--t-end", "100001", "--out", "-")
        assert res.returncode == 5, res.stderr
        assert "onset already present at sigma_lo=5" in res.stderr


class TestSurface:
    # (option, default, choices) of every subcommand: a flag added or
    # dropped is a surface change, made here on purpose
    SURFACE = {
        "hill": [
            ("--delta", None, None),
            ("--grid", None, None),
            ("--horizon-periods", None, None),
            ("--out", None, None),
            ("--preset", None, ("prop1-check", "prop2-grid")),
        ],
        "presets": [],
        "simulate": [
            ("--config", None, None),
            ("--delta", None, None),
            ("--modes", None, None),
            ("--onset-gain", None, None),
            ("--out", None, None),
            ("--preset", None, None),
            ("--sample-every", None, None),
            ("--scheme", None, ("fixed_rk4", "adaptive_embedded")),
            ("--sigma", None, None),
            ("--step", None, None),
            ("--t-end", None, None),
            ("--variant", None, ("cross", "crosszero", "isolated")),
        ],
        "sweep": [
            ("--deltas", None, None),
            ("--modes", None, None),
            ("--onset-gain", None, None),
            ("--out", None, None),
            ("--sigmas", None, None),
            ("--step", None, None),
            ("--t-end", None, None),
            ("--variant", None, ("cross", "crosszero", "isolated")),
        ],
        "threshold": [
            ("--bracket", None, None),
            ("--delta", None, None),
            ("--modes", None, None),
            ("--onset-gain", None, None),
            ("--out", None, None),
            ("--step", None, None),
            ("--t-end", None, None),
            ("--tol", 0.001, None),
            ("--variant", None, ("cross", "crosszero", "isolated")),
        ],
    }

    def test_options_defaults_and_choices_pinned(self):
        parser = build_parser()
        sub = next(
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        )
        surface = {
            name: sorted(
                (a.option_strings[-1], a.default,
                 None if a.choices is None else tuple(a.choices))
                for a in p._actions
                if not isinstance(a, argparse._HelpAction)
            )
            for name, p in sub.choices.items()
        }
        assert surface == self.SURFACE


def _parameters(fn) -> str:
    sig = inspect.signature(fn)
    params = [p.replace(annotation=p.empty) for p in sig.parameters.values()]
    return str(sig.replace(parameters=params, return_annotation=sig.empty))


class TestLibrarySurface:
    """Every public name of the library and the parameters of each entry.

    ``ALL`` pins each module's ``__all__``; ``SIGNATURES`` the parameters and
    defaults (not the annotations) of every public function, public method
    and constructor a module exports, so that an entry point or a parameter
    no program code calls cannot come back unnoticed.
    """

    ALL = {
        "fishbone": [
            "EnergyBreakdown", "ForcedHillCheck", "HillStabilityReport",
            "IntegratorConfig", "InvalidBracketError", "ModelSpec", "OnsetEvent",
            "PureVerticalMode", "Scheme", "Stability", "SweepRow", "SystemState",
            "ThresholdResult", "Trajectory", "Variant", "classify", "energy",
            "find_threshold", "forced_check", "make_initial", "mode_from_energy",
            "pure_mode", "rhs_m_mode", "rhs_one_mode", "simulate", "sweep",
            "vertical_mode_energy",
        ],
        "fishbone.model": [
            "EnergyBreakdown", "MAX_MODES", "ModelSpec", "SystemState", "Variant",
            "energy", "one_mode_accelerations", "rhs_m_mode", "rhs_one_mode",
            "vertical_mode_energy",
        ],
        "fishbone.integrator": [
            "AdaptiveDriver", "BLOWUP_LIMIT", "IntegratorConfig", "MAX_SAMPLES",
            "MAX_STEPS", "OnsetEvent", "Scheme", "StepSizeCollapseError",
            "Trajectory", "make_initial", "simulate",
        ],
        "fishbone.hill": [
            "ForcedHillCheck", "HARMONIC_PERIOD", "HillStabilityReport",
            "PureVerticalMode", "Stability", "ZHUKOVSKII_AMPLITUDE",
            "ZHUKOVSKII_ENERGY", "amplitude_for_energy", "boundary_energy",
            "classify", "forced_check", "mode_from_energy", "monodromy_matrix",
            "period_for_amplitude", "pure_mode", "stability_chart",
        ],
        "fishbone.threshold": [
            "InvalidBracketError", "SweepRow", "ThresholdResult",
            "config_fingerprint", "find_threshold", "sweep",
        ],
    }
    SIGNATURES = {
        "fishbone.model": {
            "EnergyBreakdown.__init__": (
                "(self, kinetic_y, kinetic_z, quadratic, coupling, quartic, "
                "aero_cross, total)"
            ),
            "ModelSpec.__init__": "(self, variant, m=1, delta=0.0)",
            "SystemState.__init__": "(self, t, y, z, ydot, zdot)",
            "SystemState.flat": "(self)",
            "SystemState.m": "property",
            "SystemState.single": "(t, y1, z1, ydot1, zdot1)",
            "energy": "(spec, state)",
            "one_mode_accelerations": (
                "(y, z, ydot, zdot, c_v_zdot, c_v_z, c_t_ydot, c_t_y)"
            ),
            "rhs_m_mode": "(spec, state)",
            "rhs_one_mode": "(spec, state)",
            "vertical_mode_energy": "(eta0, eta1)",
        },
        "fishbone.integrator": {
            "AdaptiveDriver.__init__": (
                "(self, f, t0, u0, rel_tol=1e-10, abs_tol=1e-12, h0=0.001, *, controlled=None)"
            ),
            "AdaptiveDriver.advance": "(self, t_target, on_step=None)",
            "IntegratorConfig.__init__": (
                "(self, scheme=<Scheme.FIXED_RK4: 'fixed_rk4'>, h=0.001, "
                "rel_tol=1e-10, abs_tol=1e-12, t_end=200.0, sample_every=0.01)"
            ),
            "OnsetEvent.__init__": "(self, t_onset, gain)",
            "StepSizeCollapseError.__init__": "(self, t)",
            "Trajectory.__init__": (
                "(self, spec, samples, onset=None, terminated_early=None, "
                "max_torsion=0.0)"
            ),
            "Trajectory.final_energy": "(self)",
            "Trajectory.final_state": "(self)",
            "Trajectory.initial_energy": "(self)",
            "make_initial": "(sigma, m=1)",
            "simulate": (
                "(spec, initial, config, onset_gain=100.0, *, "
                "stop_at_onset=False, on_block=None)"
            ),
        },
        "fishbone.hill": {
            "ForcedHillCheck.__init__": (
                "(self, delta, horizon_periods, sup_norm, growth_rate, "
                "bounded_verdict, periods_completed)"
            ),
            "HillStabilityReport.__init__": (
                "(self, trace, det, multipliers, exponents, classification, "
                "zhukovskii_sufficient)"
            ),
            "PureVerticalMode.__init__": "(self, eta0, eta1, amplitude, energy, period)",
            "PureVerticalMode.sample_period": "(self, n)",
            "amplitude_for_energy": "(e)",
            "boundary_energy": "(lo, hi, tol)",
            "classify": "(mode)",
            "forced_check": "(mode, delta, horizon_periods)",
            "mode_from_energy": "(e)",
            "monodromy_matrix": "(mode)",
            "period_for_amplitude": "(a)",
            "pure_mode": "(eta0, eta1)",
            "stability_chart": "(energies, forced_delta=None, horizon_periods=200)",
        },
        "fishbone.threshold": {
            "SweepRow.__init__": (
                "(self, delta, sigma, t_onset, max_torsion, energy_initial, "
                "energy_final, terminated_early=None)"
            ),
            "ThresholdResult.__init__": (
                "(self, sigma_lo, sigma_hi, sigma_star, energy_star, "
                "onset_at_hi, config_fingerprint)"
            ),
            "config_fingerprint": "(config, onset_gain)",
            "find_threshold": "(spec, bracket, tol, config, onset_gain=100.0)",
            "sweep": "(variant, deltas, sigmas, config, onset_gain=100.0, m=1)",
        },
    }

    def test_all_pinned(self):
        got = {name: sorted(importlib.import_module(name).__all__) for name in self.ALL}
        assert got == self.ALL

    @pytest.mark.parametrize("name", list(SIGNATURES))
    def test_signatures_pinned(self, name):
        module = importlib.import_module(name)
        got = {}
        for export in module.__all__:
            obj = getattr(module, export)
            if inspect.isfunction(obj):
                got[export] = _parameters(obj)
            elif inspect.isclass(obj):
                for attr, raw in vars(obj).items():
                    if attr.startswith("_") and attr != "__init__":
                        continue
                    if isinstance(raw, property):
                        got[f"{export}.{attr}"] = "property"
                    elif callable(getattr(obj, attr)):
                        got[f"{export}.{attr}"] = _parameters(getattr(obj, attr))
        assert got == self.SIGNATURES[name]
