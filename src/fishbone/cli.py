"""Command-line front end: experiment presets, generic runs, CSV output.

Exit codes: 0 success, 2 configuration/parse error, 3 I/O error, 4 run
terminated by blow-up (partial CSV is still written), 5 invalid threshold
bracket.
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

from .hill import stability_chart, write_chart_csv
from .integrator import IntegratorConfig, Scheme, make_initial, simulate, write_trajectory_csv
from .model import ModelSpec, Variant
from .threshold import (
    InvalidBracketError,
    config_fingerprint,
    find_threshold,
    format_threshold_report,
    sweep,
    write_sweep_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_BLOWUP = 4
EXIT_BRACKET = 5

_VARIANTS = {v.value: v for v in Variant}


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved simulate-run settings."""

    variant: Variant = Variant.ISOLATED
    modes: int = 1
    delta: float = 0.0
    sigma: float = 1.47
    scheme: Scheme = Scheme.FIXED_RK4
    h: float = 1e-3
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    t_end: float = 200.0
    sample_every: float = 0.01
    onset_gain: float = 100.0
    preset: Optional[str] = None

    def spec(self) -> ModelSpec:
        return ModelSpec(self.variant, m=self.modes, delta=self.delta)

    def integrator(self) -> IntegratorConfig:
        return IntegratorConfig(
            scheme=self.scheme,
            h=self.h,
            rel_tol=self.rel_tol,
            abs_tol=self.abs_tol,
            t_end=self.t_end,
            sample_every=self.sample_every,
        )

    def fingerprint(self) -> dict[str, str]:
        fields = {
            "preset": self.preset or "",
            "variant": self.variant.value,
            "modes": str(self.modes),
            "delta": format(self.delta, ".17g"),
            "sigma": format(self.sigma, ".17g"),
        }
        fields.update(config_fingerprint(self.integrator(), self.onset_gain))
        return fields


# Figure-panel presets: one per plotted run.  Panel numbers follow the
# experiment families: fig1 isolated amplitude scan, fig2/fig3 aerodynamic
# strength scan at sigma=1.47, fig4/fig5 amplitude scan at delta=0.01,
# fig6 the variant with zero-order cross terms.
_BASE = ExperimentConfig()
PRESETS: dict[str, ExperimentConfig] = {
    "fig1-145": replace(_BASE, preset="fig1-145", sigma=1.45),
    "fig1-147": replace(_BASE, preset="fig1-147", sigma=1.47),
    "fig1-150": replace(_BASE, preset="fig1-150", sigma=1.5),
    "fig1-170": replace(_BASE, preset="fig1-170", sigma=1.7),
    "fig2-d001": replace(
        _BASE, preset="fig2-d001", variant=Variant.CROSS_DERIV, delta=0.01
    ),
    "fig2-d002": replace(
        _BASE, preset="fig2-d002", variant=Variant.CROSS_DERIV, delta=0.02
    ),
    "fig3-d003": replace(
        _BASE, preset="fig3-d003", variant=Variant.CROSS_DERIV, delta=0.03
    ),
    "fig3-d005": replace(
        _BASE, preset="fig3-d005", variant=Variant.CROSS_DERIV, delta=0.05
    ),
    "fig4-150": replace(
        _BASE, preset="fig4-150", variant=Variant.CROSS_DERIV, delta=0.01,
        sigma=1.5, t_end=170.0,
    ),
    "fig4-160": replace(
        _BASE, preset="fig4-160", variant=Variant.CROSS_DERIV, delta=0.01,
        sigma=1.6, t_end=170.0,
    ),
    "fig5-180": replace(
        _BASE, preset="fig5-180", variant=Variant.CROSS_DERIV, delta=0.01,
        sigma=1.8, t_end=170.0,
    ),
    "fig5-300": replace(
        _BASE, preset="fig5-300", variant=Variant.CROSS_DERIV, delta=0.01,
        sigma=3.0, t_end=170.0,
    ),
    "fig6-147": replace(
        _BASE, preset="fig6-147", variant=Variant.CROSS_DERIV_ZERO, delta=0.01
    ),
    "fig6-150": replace(
        _BASE, preset="fig6-150", variant=Variant.CROSS_DERIV_ZERO, delta=0.01,
        sigma=1.5,
    ),
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


def _apply_kv(cfg: ExperimentConfig, values: dict[str, str]) -> ExperimentConfig:
    converters = {
        "variant": lambda s: _VARIANTS[s],
        "modes": int,
        "delta": float,
        "sigma": float,
        "scheme": lambda s: Scheme(s),
        "h": float,
        "step": float,
        "rel_tol": float,
        "abs_tol": float,
        "t_end": float,
        "sample_every": float,
        "onset_gain": float,
    }
    for key, raw in values.items():
        if key not in converters:
            raise ConfigError(f"unknown config key: {key}")
        try:
            value = converters[key](raw)
        except (ValueError, KeyError) as exc:
            raise ConfigError(f"bad value for {key}: {raw!r}") from exc
        field = "h" if key == "step" else key
        cfg = replace(cfg, **{field: value})
    return cfg


def _resolve_sim_config(args: argparse.Namespace) -> ExperimentConfig:
    if args.preset is not None:
        if any(getattr(args, f) is not None for f in _SIM_FLAGS + ("config",)):
            raise ConfigError(
                "a preset fully determines the run; overrides are not allowed"
            )
        try:
            return PRESETS[args.preset]
        except KeyError:
            raise ConfigError(f"unknown preset: {args.preset}") from None
    cfg = ExperimentConfig()
    if args.config is not None:
        cfg = _apply_kv(cfg, _parse_kv_file(args.config))
    return _apply_flags(cfg, args, _SIM_FLAGS)


def _apply_flags(
    cfg: ExperimentConfig, args: argparse.Namespace, flags: Sequence[str]
) -> ExperimentConfig:
    """Override ``cfg`` with the given flags that were set, then validate it."""
    values = {f: getattr(args, f) for f in flags if getattr(args, f) is not None}
    if values:
        cfg = _apply_kv(cfg, values)
    try:
        cfg.spec()
        cfg.integrator()
        make_initial(cfg.sigma, cfg.modes)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


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
        out = []
        k = 0
        while True:
            v = start + k * step
            if v > stop + 1e-12:
                break
            out.append(v)
            k += 1
        return out
    try:
        return [float(v) for v in text.split(",") if v]
    except ValueError:
        raise ConfigError(f"non-numeric grid value in {text!r}") from None


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v]
    except ValueError:
        raise ConfigError(f"expected comma-separated numbers, got {text!r}") from None


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _resolve_sim_config(args)
    spec = cfg.spec()
    # open the output before the (possibly long) run so a bad path fails fast
    with _open_out(args.out) as fh:
        traj = simulate(spec, make_initial(cfg.sigma, cfg.modes), cfg.integrator(),
                        cfg.onset_gain)
        write_trajectory_csv(traj, fh, header_fields=cfg.fingerprint())
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
    forced_delta = args.delta
    horizon = args.horizon_periods if args.horizon_periods is not None else 200
    if args.preset is not None:
        if args.grid is not None or args.delta is not None \
                or args.horizon_periods is not None:
            raise ConfigError(
                "a preset fully determines the run; overrides are not allowed"
            )
        horizon = 200
        try:
            p = HILL_PRESETS[args.preset]
        except KeyError:
            raise ConfigError(f"unknown hill preset: {args.preset}") from None
        energies = _parse_grid(p["grid"]) + list(p["extra"])
        forced_delta = p["forced_delta"]
    else:
        if args.grid is None:
            raise ConfigError("hill requires --grid or --preset")
        energies = _parse_grid(args.grid)
    if not energies:
        raise ConfigError("energy grid is empty")
    if not all(0.0 < e < math.inf for e in energies):
        raise ConfigError("energies must be positive and finite")
    rows = stability_chart(energies, forced_delta=forced_delta,
                           horizon_periods=horizon)
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
    cfg = _apply_flags(ExperimentConfig(), args, _RUN_FLAGS + ("delta",))
    result = find_threshold(
        cfg.spec(), (lo, hi), args.tol, cfg.integrator(), onset_gain=cfg.onset_gain
    )
    report = format_threshold_report(result)
    with _open_out(args.out) as fh:
        fh.write(report)
    if args.out not in (None, "-"):
        print(f"sigma_star={result.sigma_star:.9g} energy_star={result.energy_star:.9g}")
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _apply_flags(ExperimentConfig(variant=Variant.CROSS_DERIV), args, _RUN_FLAGS)
    rows = sweep(
        cfg.variant,
        _parse_floats(args.deltas),
        _parse_floats(args.sigmas),
        cfg.integrator(),
        onset_gain=cfg.onset_gain,
        m=cfg.modes,
        jobs=args.jobs,
    )
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
    sim.add_argument("--variant", choices=sorted(_VARIANTS))
    sim.add_argument("--modes", type=int)
    sim.add_argument("--delta", type=float)
    sim.add_argument("--sigma", type=float)
    sim.add_argument("--t-end", dest="t_end", type=float)
    sim.add_argument("--step", type=float, help="fixed step size h")
    sim.add_argument("--scheme", choices=[s.value for s in Scheme])
    sim.add_argument("--sample-every", dest="sample_every", type=float)
    sim.add_argument("--onset-gain", dest="onset_gain", type=float)
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
    thr.add_argument("--variant", choices=sorted(_VARIANTS))
    thr.add_argument("--modes", type=int)
    thr.add_argument("--delta", type=float)
    thr.add_argument("--t-end", dest="t_end", type=float)
    thr.add_argument("--step", type=float)
    thr.add_argument("--onset-gain", dest="onset_gain", type=float)
    thr.add_argument("--out")
    thr.set_defaults(func=cmd_threshold)

    sw = sub.add_parser("sweep", help="grid of (delta, sigma) runs")
    sw.add_argument("--deltas", required=True, help="comma list")
    sw.add_argument("--sigmas", required=True, help="comma list")
    sw.add_argument("--variant", choices=sorted(_VARIANTS))
    sw.add_argument("--modes", type=int)
    sw.add_argument("--t-end", dest="t_end", type=float)
    sw.add_argument("--step", type=float)
    sw.add_argument("--onset-gain", dest="onset_gain", type=float)
    sw.add_argument("--jobs", type=int, default=1)
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
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InvalidBracketError as exc:
        print(f"invalid bracket: {exc}", file=sys.stderr)
        return EXIT_BRACKET
    except ValueError as exc:
        # domain validation from the library (bad step, bracket, modes, ...)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
