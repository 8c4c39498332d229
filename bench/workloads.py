"""Seeded generation of the benchmark's workloads.

A workload is a sequence of rounds.  Every round of a workload runs the
same fixed deck of op shapes (subcommand, quantity group, sweep
parameter, grid count or event count) in a seed-shuffled order, each op
on a freshly generated configuration.  Fixing the shapes keeps the mix of
cheap and expensive ops identical for every seed, so latency percentiles
and throughput compare across seeds and commits; the seed still decides
every physical parameter, every sweep range, every per-op RNG seed and the
order of the ops.

Configurations are written as ``key = value`` files into a work directory
of the caller's choosing; nothing under ``configs/`` is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("sweep", "montecarlo", "montecarlo_fluct")

TWO_PI = 2.0 * math.pi

QUANTITY_GROUPS = {
    "marginals": ("P_D1", "P_D2", "P_S1", "P_S2"),
    "joint": ("P_D1S1", "P_D1S2", "P_D2S1", "P_D2S2"),
    "conditionals": (
        "P_D1_given_S1", "P_D2_given_S1", "P_D1_given_S2", "P_D2_given_S2",
        "P_S1_given_D1", "P_S2_given_D1", "P_S1_given_D2", "P_S2_given_D2",
    ),
    "measurement": ("alpha_D1", "alpha_D2", "cond_avg_S1", "cond_avg_S2"),
    "scalars": ("concurrence", "eta"),
    "noise": ("S_D1S1", "S_D1S2", "S_D2S1", "S_D2S2"),
}
SCAN_PARAMETERS = ("gamma", "phi_d", "phi_s", "delta_s1")
# Grid counts: a log-spaced ladder from 11 to 1001 points.  Six rungs
# rather than three leave no wide gap in the latency distribution, so
# its percentiles do not jump between clusters of op sizes.
GRID_COUNTS = (11, 27, 67, 165, 406, 1001)

# Monte Carlo event counts: a log-spaced ladder of 50 counts per round.
MC_OPS_PER_ROUND = 50
MC_MIN_EVENTS = 1_000
MC_MAX_EVENTS = 200_000
# Fluctuation half-widths of montecarlo_fluct: ten levels spread evenly
# over (0, pi], each paired with every tenth event count of the ladder.
SIGMA_LEVELS = 10


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what the oracle needs to check it."""

    kind: str  # scan, erasure, povm, interaction-phase, montecarlo
    argv: tuple[str, ...]
    items: int  # grid points (scan, erasure) or events (montecarlo); 0 otherwise
    config: dict[str, float]
    sweep: tuple[str, float, float, int] | None = None
    quantities: tuple[str, ...] = ()
    seed: int | None = None
    group: str = ""


def _fmt(value: float) -> str:
    return repr(float(value))


def write_config(path: Path, config: dict[str, float]) -> None:
    lines = [f"{key} = {_fmt(value)}" for key, value in config.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _interferometers(rng: np.random.Generator) -> dict[str, float]:
    """Random QPCs and tuning phases for both interferometers."""
    config: dict[str, float] = {}
    for side in ("detector", "system"):
        config[f"{side}.qpc1.T"] = rng.uniform(0.05, 0.95)
        config[f"{side}.qpc2.T"] = rng.uniform(0.05, 0.95)
        config[f"{side}.qpc2.chi"] = rng.uniform(0.0, TWO_PI)
        config[f"{side}.qpc2.xi"] = rng.uniform(0.0, TWO_PI)
        config[f"{side}.phi"] = rng.uniform(0.0, TWO_PI)
    config["coupling.gamma"] = rng.uniform(0.2, TWO_PI - 0.2)
    return config


def _bias(rng: np.random.Generator) -> dict[str, float]:
    """A bias point inside E_F >> eV >> k_B T (each ratio at least 10)."""
    charge, boltzmann = 1.602176634e-19, 1.380649e-23
    voltage = math.exp(rng.uniform(math.log(50e-6), math.log(200e-6)))
    fermi = rng.uniform(5e-3, 20e-3)
    temperature = rng.uniform(0.01, 0.05)
    ev, ef, kt = charge * voltage, charge * fermi, boltzmann * temperature
    if not (kt < ev / 10.0 and ev < ef / 10.0):
        raise AssertionError("generated bias point left the low-bias regime")
    return {"bias.voltage": voltage, "bias.fermi_energy": fermi, "bias.temperature": temperature}


def _geometry(rng: np.random.Generator, gamma: float) -> dict[str, float]:
    return {
        "geometry.interaction_length": rng.uniform(1e-6, 1e-5),
        "geometry.channel_separation": rng.uniform(20e-9, 100e-9),
        "geometry.screening_length": rng.uniform(50e-9, 200e-9),
        "geometry.speed": rng.uniform(5e4, 2e5),
        "geometry.target_gamma": gamma,
    }


def _sweep_config(rng: np.random.Generator) -> dict[str, float]:
    config = _interferometers(rng)
    config["coupling.sigma"] = 0.0
    config.update(_bias(rng))
    config.update(_geometry(rng, config["coupling.gamma"]))
    return config


def _sweep_range(rng: np.random.Generator, parameter: str) -> tuple[float, float]:
    """Sweep bounds; domain-limited parameters sometimes hit their edges."""
    if parameter == "gamma":
        lo = 0.0 if rng.random() < 1 / 3 else rng.uniform(0.0, math.pi)
        hi = TWO_PI if rng.random() < 1 / 3 else rng.uniform(math.pi, TWO_PI)
    elif parameter == "sigma":
        lo = 0.0 if rng.random() < 1 / 3 else rng.uniform(0.0, math.pi / 4)
        hi = math.pi if rng.random() < 1 / 3 else rng.uniform(3 * math.pi / 4, math.pi)
    elif parameter == "delta_s1":
        lo = -1.0 if rng.random() < 1 / 3 else rng.uniform(-1.0, -0.2)
        hi = 1.0 if rng.random() < 1 / 3 else rng.uniform(0.2, 1.0)
    else:
        lo = rng.uniform(-math.pi, math.pi)
        hi = lo + rng.uniform(math.pi / 4, TWO_PI)
    return lo, hi


def _sweep_shapes() -> list[tuple[str, str, str, int]]:
    """(kind, group, parameter, count) for one round of ``sweep``."""
    shapes = []
    for count in GRID_COUNTS:
        for group in QUANTITY_GROUPS:
            for parameter in SCAN_PARAMETERS:
                shapes.append(("scan", group, parameter, count))
        shapes.append(("scan", "eta", "sigma", count))
        shapes += [("erasure", "", "phi_s", count)] * 2
        shapes.append(("povm", "", "", 0))
        shapes.append(("interaction-phase", "", "", 0))
    return shapes


def _sweep_round(rng: np.random.Generator, workdir: Path, tag: str) -> list[Op]:
    shapes = _sweep_shapes()
    ops = []
    for i in rng.permutation(len(shapes)):
        kind, group, parameter, count = shapes[i]
        config = _sweep_config(rng)
        path = workdir / f"{tag}-{len(ops):03d}.conf"
        write_config(path, config)
        if kind == "scan":
            names = ("eta",) if group == "eta" else tuple(rng.permutation(QUANTITY_GROUPS[group]))
            lo, hi = _sweep_range(rng, parameter)
            sweep = (parameter, lo, hi, count)
            argv = ("scan", "--config", str(path),
                    "--sweep", f"{parameter}:{_fmt(lo)}:{_fmt(hi)}:{count}",
                    "--quantities", ",".join(names))
            ops.append(Op(kind, argv, count, config, sweep, names, group=group))
        elif kind == "erasure":
            lo, hi = _sweep_range(rng, "phi_s")
            sweep = ("phi_s", lo, hi, count)
            argv = ("erasure", "--config", str(path),
                    "--sweep", f"phi_s:{_fmt(lo)}:{_fmt(hi)}:{count}")
            ops.append(Op(kind, argv, count, config, sweep))
        else:
            ops.append(Op(kind, (kind, "--config", str(path)), 0, config))
    return ops


def event_ladder() -> list[int]:
    """Event counts of one Monte Carlo round, smallest first."""
    span = math.log(MC_MAX_EVENTS / MC_MIN_EVENTS)
    return [
        int(round(MC_MIN_EVENTS * math.exp(span * (i + 0.5) / MC_OPS_PER_ROUND)))
        for i in range(MC_OPS_PER_ROUND)
    ]


def _mc_round(rng: np.random.Generator, workdir: Path, tag: str, fluctuating: bool) -> list[Op]:
    ladder = event_ladder()
    ops = []
    for i in rng.permutation(len(ladder)):
        n = ladder[i]
        config = _interferometers(rng)
        if fluctuating:
            level = i % SIGMA_LEVELS
            config["coupling.sigma"] = math.pi * (level + 0.5) / SIGMA_LEVELS
            config["coupling.pair_probability"] = rng.uniform(0.5, 0.99)
        else:
            config["coupling.sigma"] = 0.0
            config["coupling.pair_probability"] = 1.0
        if rng.random() < 0.5:
            config["budget.path_length"] = rng.uniform(1e-6, 1e-4)
            config["budget.fermi_velocity"] = rng.uniform(5e4, 2e5)
            config["budget.target_rms"] = rng.uniform(0.01, 0.2)
        seed = int(rng.integers(0, 2**63))
        path = workdir / f"{tag}-{len(ops):03d}.conf"
        write_config(path, config)
        argv = ("montecarlo", "--config", str(path), "--n", str(n), "--seed", str(seed))
        ops.append(Op("montecarlo", argv, n, config, seed=seed))
    return ops


def make_round(workload: str, seed: int, round_index: int, workdir: Path) -> list[Op]:
    """Ops of one round; a pure function of ``(workload, seed, round_index)``
    apart from the directory the config files are written to."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload), round_index])
    tag = f"r{round_index:03d}"
    if workload == "sweep":
        return _sweep_round(rng, workdir, tag)
    return _mc_round(rng, workdir, tag, fluctuating=workload == "montecarlo_fluct")
