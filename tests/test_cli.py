import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

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

    def test_malformed_config_file(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("sigma 1.5\n")
        assert run_cli("simulate", "--config", str(cfg)).returncode == 2
        cfg.write_text("no_such_key=1\n")
        assert run_cli("simulate", "--config", str(cfg)).returncode == 2

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

    def test_blow_up_exit_code_with_partial_csv(self, tmp_path):
        out = tmp_path / "blow.csv"
        res = run_cli(
            "simulate", "--sigma", "1e9", "--t-end", "1", "--out", str(out)
        )
        assert res.returncode == 4
        assert "terminated_early" in res.stderr
        assert out.exists()
        assert len(out.read_text().splitlines()) >= 2


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
        assert run_cli("hill").returncode == 2

    def test_nonpositive_energy_rejected(self):
        assert run_cli("hill", "--grid", "-1.0").returncode == 2

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
            "a41551bb20cdc373f0d03cdb631c830f18a97d75c3acf6efaf9f56ea9f413b7b"
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

    def test_parallel_jobs_reproduce_serial_output(self, tmp_path):
        a, b = tmp_path / "serial.csv", tmp_path / "par.csv"
        args = ["sweep", "--deltas", "0.01,0.02", "--sigmas", "1.4,1.6",
                "--t-end", "5"]
        assert run_cli(*args, "--out", str(a)).returncode == 0
        assert run_cli(*args, "--jobs", "2", "--out", str(b)).returncode == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_lists(self):
        assert run_cli("sweep", "--deltas", "a", "--sigmas", "1").returncode == 2


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
