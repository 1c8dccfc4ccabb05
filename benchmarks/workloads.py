"""Workload pools, seeded pass drawing, and golden-reference checks.

Each workload is a pool of items grouped in strata.  A pass takes one item
from every stratum, so every pass of a workload does about the same amount
of work whatever the seed; the seed only decides which members of each
stratum are used and in which order.  Strata group items of
similar cost (measured at the seed commit), which keeps the per-pass wall
time comparable across seeds.

Every item is run through fishbone's public API only, and its output is
reduced to a small record that is compared with the golden reference
captured at the seed commit (``golden.json``, see ``capture_golden.py``).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import fishbone.cli
import fishbone.hill
import fishbone.integrator
import fishbone.threshold
from fishbone.integrator import IntegratorConfig, make_initial
from fishbone.model import ModelSpec, Variant

#: Hill-chart settings of the ``prop2-grid`` preset.
HILL_DELTA = 0.01
HILL_PERIODS = 200

#: Golden tolerances for the hill chart.  The monodromy trace comes from an
#: adaptive integration at rel_tol 1e-11, so a refactor that changes the step
#: sequence moves it far below 1e-6; the period is a fixed 64-point quadrature.
TRACE_TOL = 1e-6
PERIOD_REL_TOL = 1e-12


def _hex(x: float) -> str:
    return float(x).hex()


# ---------------------------------------------------------------------------
# Items and their output records


def threshold_item(lo: float, hi: float, tol: float = 1e-3, t_end: float = 200.0) -> dict:
    return {"lo": lo, "hi": hi, "tol": tol, "t_end": t_end, "gain": 100.0}


def run_threshold(item: dict, workdir: Path):
    return fishbone.threshold.find_threshold(
        ModelSpec(Variant.ISOLATED),
        (item["lo"], item["hi"]),
        item["tol"],
        IntegratorConfig(t_end=item["t_end"]),
        onset_gain=item["gain"],
    )


def record_threshold(result) -> dict:
    # fields of the ThresholdResult object, not the report text
    return {
        "sigma_lo": format(result.sigma_lo, ".17g"),
        "sigma_hi": format(result.sigma_hi, ".17g"),
        "sigma_star": format(result.sigma_star, ".17g"),
        "energy_star": format(result.energy_star, ".17g"),
        "onset_at_hi.t_onset": format(result.onset_at_hi.t_onset, ".17g"),
        "onset_at_hi.gain": format(result.onset_at_hi.gain, ".17g"),
        "config_fingerprint": dict(result.config_fingerprint),
    }


def hill_item(energy: float, delta: float = HILL_DELTA, periods: int = HILL_PERIODS) -> dict:
    return {"energy": energy, "delta": delta, "periods": periods}


def record_hill(row) -> dict:
    return {
        "classification": row.classification.value,
        "forced_bounded": row.forced.bounded_verdict,
        "trace": row.trace,
        "period": row.period,
    }


def same_hill(out: dict, ref: dict) -> bool:
    return (
        out["classification"] == ref["classification"]
        and out["forced_bounded"] == ref["forced_bounded"]
        and abs(out["trace"] - ref["trace"]) <= TRACE_TOL * max(1.0, abs(ref["trace"]))
        and abs(out["period"] - ref["period"]) <= PERIOD_REL_TOL * abs(ref["period"])
    )


def cli_item(argv: list[str]) -> dict:
    return {"argv": list(argv)}


def run_cli(item: dict, workdir: Path):
    out = workdir / (hashlib.sha256(repr(item).encode()).hexdigest()[:16] + ".csv")
    code = fishbone.cli.main(item["argv"] + ["--out", str(out)])
    return code, out


def record_cli(result) -> dict:
    """Exit code and digest of the CSV; the CSV is deleted once hashed."""
    code, path = result
    digest = hashlib.sha256()
    n_bytes = path.stat().st_size
    with open(path, "rb") as fh:
        for line in fh:
            # '# key=value' metadata headers may grow without changing results
            if not line.startswith(b"#"):
                digest.update(line)
    path.unlink()
    return {"exit": code, "sha256": digest.hexdigest(), "_bytes": n_bytes}


def mmode_item(sigma: float, m: int = 4, t_end: float = 2.0) -> dict:
    return {"sigma": sigma, "m": m, "t_end": t_end}


def run_mmode(item: dict, workdir: Path):
    m = item["m"]
    return fishbone.integrator.simulate(
        ModelSpec(Variant.ISOLATED, m=m),
        make_initial(item["sigma"], m),
        IntegratorConfig(t_end=item["t_end"]),
    )


def record_mmode(traj) -> dict:
    s = traj.final_state()
    return {
        "final_state": [_hex(v) for v in (s.t,) + s.flat()],
        "onset": None if traj.onset is None else [_hex(traj.onset.t_onset), _hex(traj.onset.gain)],
        "max_torsion": _hex(traj.max_torsion),
        "terminated_early": None
        if traj.terminated_early is None
        else [_hex(traj.terminated_early[0]), traj.terminated_early[1]],
    }


def same_exact(out: dict, ref: dict) -> bool:
    return {k: v for k, v in out.items() if not k.startswith("_")} == ref


# ---------------------------------------------------------------------------
# Workloads


@dataclass(frozen=True)
class Workload:
    """A named pool of items in strata, and how to run and check one pass.

    A pass takes one item of each stratum.  ``run_pass`` maps the pass's
    items to per-item results or raised exceptions; ``record`` reduces a
    result to its golden record and ``same`` compares a record with its
    reference.  ``short`` maps an item to a short one on the same code
    path, cheap enough to run under tracemalloc; it has no reference.
    """

    name: str
    strata: tuple[tuple[dict, ...], ...]
    run_pass: Callable[[list[dict], Path], list]
    record: Callable[[object], dict]
    same: Callable[[dict, dict], bool]
    short: Callable[[dict], dict]

    def pool(self) -> list[dict]:
        return [item for items in self.strata for item in items]

    def draw(self, seed: int) -> Callable[[int], list[dict]]:
        """Seeded order of every stratum; returns the items of pass p."""
        rng = random.Random(f"{self.name}:{seed}")
        perms = [rng.sample(items, len(items)) for items in self.strata]

        def items_of_pass(p: int) -> list[dict]:
            chosen = [perm[p % len(perm)] for perm in perms]
            random.Random(f"{self.name}:{seed}:{p}").shuffle(chosen)
            return chosen

        return items_of_pass


def _each(run_item):
    """Run items one by one; an item that raises is reported, not fatal."""

    def run_pass(items: list[dict], workdir: Path) -> list:
        results = []
        for item in items:
            try:
                results.append(run_item(item, workdir))
            except Exception as exc:  # a failed item is counted, the pass goes on
                results.append(exc)
        return results

    return run_pass


def _hill_pass(items: list[dict], workdir: Path) -> list:
    # one stability_chart call over the pass's energies, as `fishbone hill`
    # does; the items of a pool share delta and horizon
    try:
        rows = fishbone.hill.stability_chart(
            [it["energy"] for it in items],
            forced_delta=items[0]["delta"],
            horizon_periods=items[0]["periods"],
        )
    except Exception as exc:  # every item of the failed chart counts as failed
        return [exc] * len(items)
    return rows


def short_threshold(item: dict) -> dict:
    # a bracket of this pool does not fire before t=200; this one does by t=10
    return threshold_item(1.5, 3.5, tol=0.5, t_end=10.0)


def short_cli(item: dict) -> dict:
    # presets allow no overrides, so a preset is spelled out with its flags
    argv = item["argv"]
    if "--preset" not in argv:
        return item
    cfg = fishbone.cli.PRESETS[argv[argv.index("--preset") + 1]]
    return cli_item(["simulate", "--variant", cfg.variant.value, "--delta", repr(cfg.delta),
                     "--sigma", repr(cfg.sigma), "--t-end", "10"])


def item_key(item: dict) -> str:
    return ",".join(f"{k}={v}" for k, v in item.items())


def make_workloads(
    threshold_strata, hill_strata, cli_strata, mmode_strata
) -> dict[str, Workload]:
    return {
        w.name: w
        for w in (
            Workload(
                "threshold",
                threshold_strata,
                _each(run_threshold),
                record_threshold,
                same_exact,
                short_threshold,
            ),
            Workload(
                "hill-chart",
                hill_strata,
                _hill_pass,
                record_hill,
                same_hill,
                lambda item: {**item, "periods": 10},
            ),
            Workload(
                "presets-csv",
                cli_strata,
                _each(run_cli),
                record_cli,
                same_exact,
                short_cli,
            ),
            Workload(
                "mmode",
                mmode_strata,
                _each(run_mmode),
                record_mmode,
                same_exact,
                lambda item: {**item, "t_end": 0.05},
            ),
        )
    }


#: The benchmark's workloads.  Passes are kept short, so a run holds many
#: of them and ``run.py`` reports their median; strata hold items of equal
#: cost, so every pass of a workload does the same work.  Costs at the seed commit
#: on a 2-core Xeon: a width-0.2 bracket makes 10 probes of 0.8-1.1 s; the
#: stable hill energies 1 and 1.5 cost 2.1-2.7 s and the early-blow-up
#: energies 9-10 cost 0.7-0.9 s, each within 2% of its stratum's median in
#: 160 passes (0.5 runs 6% faster and 2 runs 7% slower, so they are left
#: out, and E=5, unstable over the whole horizon, takes 4 s); presets cost
#: 1.1-1.3 s at t_end 200 and 0.8-1.0 s at t_end 170; an m-mode item 0.25 s.
WORKLOADS = make_workloads(
    threshold_strata=(
        tuple(threshold_item(lo, round(lo + 0.2, 2)) for lo in (1.34, 1.36, 1.38, 1.40, 1.42, 1.44)),
    ),
    hill_strata=(
        tuple(hill_item(e) for e in (1.0, 1.5)),
        tuple(hill_item(e) for e in (9.0, 9.5, 10.0)),
    ),
    cli_strata=(
        tuple(cli_item(["simulate", "--preset", p]) for p in (
            "fig1-145", "fig1-147", "fig1-150", "fig1-170", "fig2-d001", "fig2-d002",
            "fig3-d003", "fig3-d005", "fig6-147", "fig6-150")),
        tuple(cli_item(["simulate", "--preset", p]) for p in (
            "fig4-150", "fig4-160", "fig5-180", "fig5-300")),
    ),
    mmode_strata=(tuple(mmode_item(s) for s in (1.2, 1.3, 1.4, 1.47, 1.5, 1.6, 1.7, 1.8)),),
)

#: Extra items with golden references that no pass draws: the rest of the
#: prop2-grid energies, so the strata can be changed without recapturing.
GOLDEN_EXTRA = {
    "hill-chart": [hill_item(0.5 * k) for k in range(1, 21)],
}


def warm_up() -> None:
    """Fill the lazy caches every workload relies on (Gauss-Legendre nodes,
    Galerkin tables) with calls too short to matter."""
    fishbone.hill.period_for_amplitude(1.0)
    spec4 = ModelSpec(Variant.ISOLATED, m=4)
    fishbone.integrator.simulate(spec4, make_initial(1.0, 4), IntegratorConfig(t_end=0.01))
    fishbone.integrator.simulate(
        ModelSpec(Variant.ISOLATED), make_initial(1.0), IntegratorConfig(t_end=0.01)
    )
