"""Command-line front end: experiment presets, generic runs, CSV output.

Exit codes: 0 success, 2 configuration/parse error, 3 I/O or system error
(a forked child of a sweep or chart, or the CSV writer child of a simulate
run, died), 4 run terminated by blow-up (partial CSV is still written),
5 invalid threshold bracket.
"""

from __future__ import annotations

import argparse
import math
import sys
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, replace
from itertools import islice
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence, TextIO

from ._fork import _child, _fork_context
from .hill import ChartRow, stability_chart
from .integrator import (
    _CSV_CHUNK_ROWS,
    IntegratorConfig,
    Scheme,
    Trajectory,
    _check_run,
    _Samples,
    make_initial,
    simulate,
)
from .model import ModelSpec, Variant, _aero_delta, _energy_terms
from .threshold import (
    InvalidBracketError,
    SweepRow,
    ThresholdResult,
    config_fingerprint,
    find_threshold,
    sweep,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_BLOWUP = 4
EXIT_BRACKET = 5

#: Most energies a START:STOP:STEP hill grid may hold.
MAX_GRID_POINTS = 100_000


class ConfigError(ValueError):
    """A flag, config file or preset that cannot be used (exit 2)."""


@dataclass(frozen=True)
class ExperimentConfig(IntegratorConfig):
    """Fully resolved run settings: the integrator's, which it checks when
    built, and the model, seed and onset gain of the run."""

    variant: Variant = Variant.ISOLATED
    modes: int = 1
    delta: float = 0.0
    sigma: float = 1.47
    onset_gain: float = 100.0
    preset: Optional[str] = None

    def spec(self) -> ModelSpec:
        return ModelSpec(self.variant, m=self.modes, delta=self.delta)

    def fingerprint(self) -> dict[str, str]:
        fields = {
            "preset": self.preset or "",
            "variant": self.variant.value,
            "modes": str(self.modes),
            "delta": _fmt(self.delta),
            "sigma": _fmt(self.sigma),
        }
        fields.update(config_fingerprint(self, self.onset_gain))
        return fields


# Figure-panel presets: one per plotted run.  Panel numbers follow the
# experiment families: fig1 isolated amplitude scan, fig2/fig3 aerodynamic
# strength scan at sigma=1.47, fig4/fig5 amplitude scan at delta=0.01,
# fig6 the variant with zero-order cross terms.
_BASE = ExperimentConfig()
_CROSS, _CROSS0 = Variant.CROSS_DERIV, Variant.CROSS_DERIV_ZERO
PRESETS: dict[str, ExperimentConfig] = {
    name: replace(_BASE, preset=name, **overrides)
    for name, overrides in {
        "fig1-145": dict(sigma=1.45),
        "fig1-147": dict(sigma=1.47),
        "fig1-150": dict(sigma=1.5),
        "fig1-170": dict(sigma=1.7),
        "fig2-d001": dict(variant=_CROSS, delta=0.01),
        "fig2-d002": dict(variant=_CROSS, delta=0.02),
        "fig3-d003": dict(variant=_CROSS, delta=0.03),
        "fig3-d005": dict(variant=_CROSS, delta=0.05),
        "fig4-150": dict(variant=_CROSS, delta=0.01, sigma=1.5, t_end=170.0),
        "fig4-160": dict(variant=_CROSS, delta=0.01, sigma=1.6, t_end=170.0),
        "fig5-180": dict(variant=_CROSS, delta=0.01, sigma=1.8, t_end=170.0),
        "fig5-300": dict(variant=_CROSS, delta=0.01, sigma=3.0, t_end=170.0),
        "fig6-147": dict(variant=_CROSS0, delta=0.01),
        "fig6-150": dict(variant=_CROSS0, delta=0.01, sigma=1.5),
    }.items()
}

# Hill-chart presets: the sufficient-condition scan and the equivalence grid.
HILL_PRESETS: dict[str, dict] = {
    "prop1-check": {
        "grid": "0.05:0.799:0.05",
        "extra": [0.799],
        "forced_delta": None,
        "description": "sufficient-region scan: all rows must be stable",
    },
    "prop2-grid": {
        "grid": "0.5:10:0.5",
        "extra": [],
        "forced_delta": 0.01,
        "description": "classification vs forced boundedness, delta=0.01",
    },
}

# Every run setting a config file or a flag may set, with its converter;
# "step" is the flag's name for h.  Flags are declared in this order.
_SETTINGS: dict[str, Callable[[str], object]] = {
    "variant": Variant,
    "modes": int,
    "delta": float,
    "sigma": float,
    "t_end": float,
    "step": float,
    "h": float,
    "scheme": Scheme,
    "sample_every": float,
    "onset_gain": float,
    "rel_tol": float,
    "abs_tol": float,
}
_FLAG_OPTIONS = {
    "variant": {"choices": sorted(v.value for v in Variant)},
    "scheme": {"choices": [s.value for s in Scheme]},
    "step": {"help": "fixed step size h"},
}

# run flags shared by threshold and sweep; simulate takes these and more
_RUN_FLAGS = ("variant", "modes", "t_end", "step", "onset_gain")
_SIM_FLAGS = _RUN_FLAGS + ("delta", "sigma", "scheme", "sample_every")


def _parse_kv_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def _apply_kv(cfg: ExperimentConfig, *sources: dict[str, str]) -> ExperimentConfig:
    """``cfg`` with the settings of each source, a later source's overriding
    an earlier's.  Every value of a source is converted before the next
    source's, and all before the one ``replace`` that checks the result."""
    settings = {}
    for values in sources:
        for key, raw in values.items():
            if key not in _SETTINGS:
                raise ConfigError(f"unknown config key: {key}")
            try:
                settings["h" if key == "step" else key] = _SETTINGS[key](raw)
            except ValueError as exc:
                raise ConfigError(f"bad value for {key}: {raw!r}") from exc
    return replace(cfg, **settings)


def _preset(table: dict, args: argparse.Namespace, flags: Sequence[str]):
    """The entry of ``table`` named by ``--preset``, or None when none is named.

    A preset fully determines its run, so none of ``flags`` may be set too.
    """
    if args.preset is None:
        return None
    if any(getattr(args, f) is not None for f in flags):
        raise ConfigError(
            "a preset fully determines the run; overrides are not allowed"
        )
    try:
        return table[args.preset]
    except KeyError:
        raise ConfigError(f"unknown preset: {args.preset}") from None


def _set_flags(args: argparse.Namespace, flags: Sequence[str]) -> dict[str, str]:
    """The raw value of each of ``flags`` that was set."""
    return {f: getattr(args, f) for f in flags if getattr(args, f) is not None}


def _add_flags(parser: argparse.ArgumentParser, names: Sequence[str]) -> None:
    for name in _SETTINGS:
        if name in names:
            parser.add_argument(
                "--" + name.replace("_", "-"), dest=name, **_FLAG_OPTIONS.get(name, {})
            )


@contextmanager
def _open_out(path: Optional[str]):
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", newline="") as fh:
            yield fh


def _summary(out_path: Optional[str], text: str) -> None:
    # keep stdout clean when it carries the CSV itself
    stream = sys.stderr if out_path in (None, "-") else sys.stdout
    print(text, file=stream)


def _parse_grid(text: str) -> list[float]:
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"grid must be START:STOP:STEP, got {text!r}")
        try:
            start, stop, step = (float(p) for p in parts)
        except ValueError:
            raise ConfigError(f"non-numeric grid bound in {text!r}") from None
        if not all(math.isfinite(v) for v in (start, stop, step)):
            raise ConfigError(f"grid bounds must be finite, got {text!r}")
        if step <= 0.0 or stop < start:
            raise ConfigError(f"empty grid: {text!r}")
        limit = stop + 1e-12
        # count the points before building them: a tiny STEP would ask for
        # more floats than memory holds
        span = (limit - start) / step
        if not span < MAX_GRID_POINTS:
            raise ConfigError(
                f"grid {text!r} has more than {MAX_GRID_POINTS} points"
            )
        out = []
        for k in range(int(span) + 2):
            v = start + k * step
            if v > limit:
                break
            out.append(v)
        return out
    return _parse_floats(text)


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v]
    except ValueError:
        raise ConfigError(f"expected comma-separated numbers, got {text!r}") from None


# ---------------------------------------------------------------------------
# Output formats: every file the commands write


def _fmt(x: float) -> str:
    """17 significant digits: every float reads back bit for bit."""
    return format(x, ".17g")


def _flag(value: bool) -> str:
    return "true" if value else "false"


def _write_csv(
    out: TextIO, header: Sequence[str], rows: Iterable[Sequence[str]]
) -> None:
    out.write(",".join(header) + "\n")
    for cols in rows:
        out.write(",".join(cols) + "\n")


#: Trajectory energy columns, in the order of ``model._energy_terms``.
_ENERGY_COLUMNS = (
    "E_total", "E_kin_y", "E_kin_z", "E_quad", "E_coupling", "E_quartic", "E_aero",
)


def _write_trajectory_header(spec: ModelSpec, out: TextIO,
                             header_fields: Optional[dict[str, str]]) -> None:
    """One '# key=value' line per ``header_fields`` item, then the column names."""
    for key, value in (header_fields or {}).items():
        out.write(f"# {key}={value}\n")
    modes = range(1, spec.m + 1)
    header = ["t", *(f"y{j}" for j in modes), *(f"z{j}" for j in modes),
              *_ENERGY_COLUMNS]
    out.write(",".join(header) + "\n")


def _write_trajectory_rows(spec: ModelSpec, rows: Iterable[tuple], out: TextIO) -> None:
    """The CSV line of every flat sample row (t, y..., z..., ydot..., zdot...),
    written in chunks of ``_CSV_CHUNK_ROWS`` lines.

    Each line is one %-format of 17 significant digits per field, which
    formats every float (signed zeros, inf and nan too) as ``_fmt`` does.
    """
    m = spec.m
    if m > 1:
        n = 2 * m + 1
        line = ",".join(["%.17g"] * n) + "," * len(_ENERGY_COLUMNS) + "\n"
        lines = (line % row[:n] for row in rows)
    else:
        line = ",".join(["%.17g"] * (3 + len(_ENERGY_COLUMNS))) + "\n"
        d = _aero_delta(spec)
        lines = (
            line % (t, y, z, *_energy_terms(y, z, yd, zd, d)) for t, y, z, yd, zd in rows
        )
    while chunk := "".join(islice(lines, _CSV_CHUNK_ROWS)):
        out.write(chunk)


def write_trajectory_csv(
    trajectory: Trajectory,
    out: TextIO,
    header_fields: Optional[dict[str, str]] = None,
) -> None:
    """Trajectory CSV, led by one '# key=value' line per ``header_fields`` item.

    The header lines fingerprint the run's config into its output.  Energy
    columns are left empty for m > 1.  The rows are written in chunks of
    ``_CSV_CHUNK_ROWS``, so the whole file is never held as one string.
    """
    _write_trajectory_header(trajectory.spec, out, header_fields)
    _write_trajectory_rows(trajectory.spec, trajectory.samples.rows(), out)


def write_chart_csv(rows: Sequence[ChartRow], out: TextIO) -> None:
    """Stability chart CSV; forced columns appear when any row has them."""
    with_forced = any(r.forced is not None for r in rows)
    header = ["E", "amplitude", "period", "trace", "classification", "zhukovskii"]
    if with_forced:
        header += ["forced_bounded", "growth_rate"]

    def row(r: ChartRow) -> list[str]:
        cols = [_fmt(r.energy), _fmt(r.amplitude), _fmt(r.period), _fmt(r.trace),
                r.classification.value, _flag(r.zhukovskii)]
        if r.forced is not None:
            cols += [_flag(r.forced.bounded_verdict), _fmt(r.forced.growth_rate)]
        return cols

    _write_csv(out, header, map(row, rows))


def write_sweep_csv(rows: Sequence[SweepRow], out: TextIO) -> None:
    """Sweep CSV; the t_onset field is empty when no onset was detected."""

    def row(r: SweepRow) -> list[str]:
        t_onset = "" if r.t_onset is None else _fmt(r.t_onset)
        return [_fmt(r.delta), _fmt(r.sigma), t_onset, _fmt(r.max_torsion),
                _fmt(r.energy_initial), _fmt(r.energy_final)]

    _write_csv(out, ["delta", "sigma", "t_onset", "max_torsion", "E0", "Ef"],
               map(row, rows))


def format_threshold_report(result: ThresholdResult) -> str:
    """One key=value line per bracket value, then the config fingerprint."""
    fields = {
        "sigma_lo": _fmt(result.sigma_lo),
        "sigma_hi": _fmt(result.sigma_hi),
        "sigma_star": _fmt(result.sigma_star),
        "energy_star": _fmt(result.energy_star),
        "onset_at_hi.t": _fmt(result.onset_at_hi.t_onset),
        "onset_at_hi.gain": _fmt(result.onset_at_hi.gain),
    }
    fields.update(
        (f"config.{key}", value) for key, value in result.config_fingerprint.items()
    )
    return "".join(f"{key}={value}\n" for key, value in fields.items())


# ---------------------------------------------------------------------------
# The trajectory CSV written by a forked child while the run integrates


def _write_arriving(spec, fh, header_fields, rows_in, result_out):
    """Writer child: the trajectory CSV header, then the rows of each block
    arriving on ``rows_in`` as it arrives, to ``fh``, flushed; then None or
    the exception it raised sent on ``result_out``."""
    try:
        _write_trajectory_header(spec, fh, header_fields)
        while True:
            try:
                block = array("d", rows_in.recv_bytes())
            except EOFError:  # the parent closed its end: the run has ended
                break
            _write_trajectory_rows(spec, _Samples(spec, block).rows(), fh)
        fh.flush()
        error = None
    except Exception as exc:
        error = exc
    try:
        result_out.send(error)
    except OSError:  # the parent is gone
        pass


@contextmanager
def _writer_beside(spec: ModelSpec, fh: TextIO, header_fields: dict[str, str]):
    """Yield the ``on_block`` of the run made inside this block, whose
    sample blocks a forked ``_write_arriving`` child (``_child``) writes to
    ``fh`` as the trajectory CSV, or None where no child can: no child may
    run beside this process (``_fork_context``), ``fh`` has no file
    descriptor that a child shares, or no descriptor or process is left
    to spare.  The caller then writes the CSV itself.  After the block
    this takes the child's report and raises the exception the child
    sent, or OSError if it died."""
    ctx = _fork_context()
    try:
        fh.fileno()
    except (OSError, ValueError):  # an in-memory stream
        ctx = None
    fh.flush()  # nothing this process holds may reach fh after the child's rows
    with _child(ctx, _write_arriving, (spec, fh, header_fields), down=1) as forked:
        if forked is None:
            yield None
            return
        child, rows_out, result_in = forked
        try:
            yield rows_out.send_bytes
            rows_out.close()  # the end of the rows
        except BrokenPipeError:  # the child stopped reading; its report says why
            pass
        try:
            error = result_in.recv()
        except EOFError:  # no report: the child died
            child.join()
            error = OSError(f"the CSV writer process died (exit code {child.exitcode})")
        if error is not None:
            raise error


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _preset(PRESETS, args, _SIM_FLAGS + ("config",))
    if cfg is None:
        file_values = {} if args.config is None else _parse_kv_file(args.config)
        cfg = _apply_kv(ExperimentConfig(), file_values, _set_flags(args, _SIM_FLAGS))
    spec, initial = cfg.spec(), make_initial(cfg.sigma, cfg.modes)
    _check_run(spec, cfg, cfg.onset_gain)
    header = cfg.fingerprint()
    # open the output before the (possibly long) run so a bad path fails fast
    with _open_out(args.out) as fh, _writer_beside(spec, fh, header) as consume:
        traj = simulate(spec, initial, cfg, cfg.onset_gain, on_block=consume)
        if consume is None:
            write_trajectory_csv(traj, fh, header_fields=header)
    onset = "none" if traj.onset is None else format(traj.onset.t_onset, ".6g")
    final_e = traj.final_energy()
    final = "n/a" if final_e is None else format(final_e, ".12g")
    _summary(
        args.out,
        f"onset={onset} final_energy={final} max_torsion={traj.max_torsion:.6g}",
    )
    if traj.terminated_early is not None:
        t, reason = traj.terminated_early
        print(f"terminated_early at t={t:.6g}: {reason}", file=sys.stderr)
        if reason.startswith("blow-up"):
            return EXIT_BLOWUP
    return EXIT_OK


def cmd_hill(args: argparse.Namespace) -> int:
    p = _preset(HILL_PRESETS, args, ("grid", "delta", "horizon_periods"))
    if p is not None:
        energies = _parse_grid(p["grid"]) + list(p["extra"])
        forced_delta = p["forced_delta"]
    elif args.grid is None:
        raise ConfigError("hill requires --grid or --preset")
    else:
        energies = _parse_grid(args.grid)
        forced_delta = args.delta
    if not energies:
        raise ConfigError("energy grid is empty")
    horizon = {} if args.horizon_periods is None else {"horizon_periods": args.horizon_periods}
    rows = stability_chart(energies, forced_delta=forced_delta, **horizon)
    with _open_out(args.out) as fh:
        write_chart_csv(rows, fh)
    n_stable = sum(r.classification.value == "stable" for r in rows)
    _summary(args.out, f"rows={len(rows)} stable={n_stable}")
    return EXIT_OK


def cmd_threshold(args: argparse.Namespace) -> int:
    parts = args.bracket.split(":")
    if len(parts) != 2:
        raise ConfigError(f"bracket must be LO:HI, got {args.bracket!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise ConfigError(f"non-numeric bracket in {args.bracket!r}") from None
    cfg = _apply_kv(ExperimentConfig(), _set_flags(args, _RUN_FLAGS + ("delta",)))
    result = find_threshold(cfg.spec(), (lo, hi), args.tol, cfg, onset_gain=cfg.onset_gain)
    report = format_threshold_report(result)
    with _open_out(args.out) as fh:
        fh.write(report)
    if args.out not in (None, "-"):
        print(f"sigma_star={result.sigma_star:.9g} energy_star={result.energy_star:.9g}")
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    deltas, sigmas = _parse_floats(args.deltas), _parse_floats(args.sigmas)
    base = ExperimentConfig(variant=Variant.CROSS_DERIV)
    cfg = _apply_kv(base, _set_flags(args, _RUN_FLAGS))
    rows = sweep(cfg.variant, deltas, sigmas, cfg, onset_gain=cfg.onset_gain, m=cfg.modes)
    with _open_out(args.out) as fh:
        write_sweep_csv(rows, fh)
    _summary(args.out, f"rows={len(rows)}")
    return EXIT_OK


def cmd_presets(args: argparse.Namespace) -> int:
    for name, cfg in PRESETS.items():
        print(
            f"{name}: simulate variant={cfg.variant.value} delta={cfg.delta:g} "
            f"sigma={cfg.sigma:g} t_end={cfg.t_end:g}"
        )
    for name, p in HILL_PRESETS.items():
        print(f"{name}: hill grid={p['grid']} ({p['description']})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fishbone",
        description="Simulate the fish-bone bridge model and analyze torsional stability.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one model and write a trajectory CSV")
    sim.add_argument("--preset", help="named figure preset (see 'presets')")
    sim.add_argument("--config", help="key=value config file")
    _add_flags(sim, _SIM_FLAGS)
    sim.add_argument("--out", help="output CSV path ('-' for stdout)")
    sim.set_defaults(func=cmd_simulate)

    hill_p = sub.add_parser("hill", help="stability chart over an energy grid")
    hill_p.add_argument("--grid", help="START:STOP:STEP or comma list of energies")
    hill_p.add_argument("--preset", choices=sorted(HILL_PRESETS))
    hill_p.add_argument("--delta", type=float,
                        help="add forced-boundedness columns at this delta")
    hill_p.add_argument("--horizon-periods", dest="horizon_periods", type=int)
    hill_p.add_argument("--out")
    hill_p.set_defaults(func=cmd_hill)

    thr = sub.add_parser("threshold", help="bisect the instability threshold")
    thr.add_argument("--bracket", required=True, help="LO:HI initial amplitudes")
    thr.add_argument("--tol", type=float, default=1e-3)
    _add_flags(thr, _RUN_FLAGS + ("delta",))
    thr.add_argument("--out")
    thr.set_defaults(func=cmd_threshold)

    sw = sub.add_parser("sweep", help="grid of (delta, sigma) runs")
    sw.add_argument("--deltas", required=True, help="comma list")
    sw.add_argument("--sigmas", required=True, help="comma list")
    _add_flags(sw, _RUN_FLAGS)
    sw.add_argument("--out")
    sw.set_defaults(func=cmd_sweep)

    pr = sub.add_parser("presets", help="list experiment presets")
    pr.set_defaults(func=cmd_presets)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvalidBracketError as exc:
        print(f"invalid bracket: {exc}", file=sys.stderr)
        return EXIT_BRACKET
    except ValueError as exc:
        # ConfigError, and domain validation from the library (bad step,
        # bracket, modes, ...)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        # also ChildProcessError, a fan-out child that died
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
