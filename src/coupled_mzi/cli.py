"""Command-line interface: scans, Monte Carlo runs, and CSV emission.

Subcommands
-----------
``scan``              one-parameter sweep, one CSV row per grid point
``montecarlo``        seeded drain-event sampling and estimator report
``povm``              measurement-layer summary for one configuration
``erasure``           conditional system fringes along a phi_s sweep
``interaction-phase`` geometry-derived coupling and dynamical phases
``validate-config``   parse and validate a configuration file

Exit codes: 0 success, 2 configuration error, 3 ambiguous measurement
(divergent contextual values), 4 impossible post-selection.

All numeric output uses 17 significant digits so doubles round-trip
exactly; reruns with identical inputs produce byte-identical files.
Divergent contextual values appear as the literal token
``inf-ambiguous``, never as floating infinities.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from dataclasses import replace

import numpy as np

from .conditioning import conditional_table, conditioned_average
from .config import ExperimentConfig, ScanSpec, evaluate_number, load_config
from .errors import (
    AmbiguousMeasurementError,
    ConfigError,
    CoupledMziError,
    PostSelectionImpossibleError,
)
from .interaction import coupling_phase, dynamical_phase
from .measurement import contextual_values, measurement_operators, povm_pair
from .params import (
    DetectorDrain,
    InterferometerConfig,
    SystemDrain,
    detector_params,
    qpc_from_transmission,
)
from .scattering import (
    ELEMENTARY_CHARGE,
    cross_noise_power,
    joint_amplitudes,
    joint_statistics,
)
from .scattering import concurrence as concurrence_scalar
from .stochastic import (
    averaged_detector_params,
    contextual_estimate,
    damping_eta,
    observation_time,
    sample_events,
    sample_events_fluctuating,
)

AMBIGUOUS_TOKEN = "inf-ambiguous"

_JOINT = {"P_D1S1": (0, 0), "P_D1S2": (0, 1), "P_D2S1": (1, 0), "P_D2S2": (1, 1)}
_COND_D_GIVEN_S = {
    "P_D1_given_S1": (0, 0), "P_D2_given_S1": (1, 0),
    "P_D1_given_S2": (0, 1), "P_D2_given_S2": (1, 1),
}
_COND_S_GIVEN_D = {
    "P_S1_given_D1": (0, 0), "P_S2_given_D1": (0, 1),
    "P_S1_given_D2": (1, 0), "P_S2_given_D2": (1, 1),
}
_NOISE = {"S_D1S1": (0, 0), "S_D1S2": (0, 1), "S_D2S1": (1, 0), "S_D2S2": (1, 1)}

QUANTITIES = (
    "P_D1", "P_D2", "P_S1", "P_S2",
    *(_JOINT), *(_COND_D_GIVEN_S), *(_COND_S_GIVEN_D),
    "alpha_D1", "alpha_D2", "cond_avg_S1", "cond_avg_S2",
    "concurrence", "eta", *(_NOISE),
)


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _evaluate_quantities(config: ExperimentConfig, names: tuple[str, ...]) -> dict[str, str]:
    """One row of requested quantities for a fixed configuration.

    Probability, conditional, noise, and conditioned-average columns are
    evaluated through the exact pipeline at the mean coupling phase; the
    ``alpha`` columns apply the fluctuation damping of the coupling model,
    and ``eta`` reports the damping factor itself.
    """
    det, system, coupling = config.detector, config.system, config.coupling
    gamma = coupling.gamma
    out: dict[str, str] = {}
    need = set(names)

    needs_stats = need & ({"P_D1", "P_D2", "P_S1", "P_S2"} | set(_JOINT) | set(_NOISE)
                          | set(_COND_D_GIVEN_S) | set(_COND_S_GIVEN_D))
    stats = joint_statistics(joint_amplitudes(det, system, gamma)) if needs_stats else None

    if stats is not None:
        for name, drain in (("P_D1", DetectorDrain.D1), ("P_D2", DetectorDrain.D2)):
            if name in need:
                out[name] = _fmt(stats.p_detector(drain))
        for name, drain in (("P_S1", SystemDrain.S1), ("P_S2", SystemDrain.S2)):
            if name in need:
                out[name] = _fmt(stats.p_system(drain))
        for name, (i, j) in _JOINT.items():
            if name in need:
                out[name] = _fmt(stats.joint[i, j])
        if need & (set(_COND_D_GIVEN_S) | set(_COND_S_GIVEN_D)):
            table = conditional_table(stats)
            for name, (i, j) in _COND_D_GIVEN_S.items():
                if name in need:
                    out[name] = _fmt(table.p_detector_given_system[i, j])
            for name, (i, j) in _COND_S_GIVEN_D.items():
                if name in need:
                    out[name] = _fmt(table.p_system_given_detector[i, j])
        if need & set(_NOISE):
            if config.bias is None:
                raise ConfigError("noise quantities need a bias section in the config")
            for name, (i, j) in _NOISE.items():
                if name in need:
                    value = cross_noise_power(
                        stats, DetectorDrain(i), SystemDrain(j), config.bias
                    )
                    out[name] = _fmt(value)

    if need & {"alpha_D1", "alpha_D2"}:
        damped = averaged_detector_params(detector_params(det, gamma), coupling)
        try:
            cv = contextual_values(config.observable, damped)
            alpha = {"alpha_D1": _fmt(cv.alpha_d1), "alpha_D2": _fmt(cv.alpha_d2)}
        except AmbiguousMeasurementError:
            alpha = {"alpha_D1": AMBIGUOUS_TOKEN, "alpha_D2": AMBIGUOUS_TOKEN}
        for name in ("alpha_D1", "alpha_D2"):
            if name in need:
                out[name] = alpha[name]

    for name, drain in (("cond_avg_S1", SystemDrain.S1), ("cond_avg_S2", SystemDrain.S2)):
        if name in need:
            try:
                avg = conditioned_average(det, system, gamma, drain, config.observable)
                out[name] = _fmt(avg.value)
            except AmbiguousMeasurementError:
                out[name] = AMBIGUOUS_TOKEN

    if "concurrence" in need:
        out["concurrence"] = _fmt(concurrence_scalar(det.qpc1, system.qpc1, gamma))
    if "eta" in need:
        out["eta"] = _fmt(damping_eta(coupling.sigma))
    return out


def _apply_sweep(config: ExperimentConfig, parameter: str, value: float) -> ExperimentConfig:
    if parameter == "gamma":
        return replace(config, coupling=replace(config.coupling, gamma=value))
    if parameter == "sigma":
        return replace(config, coupling=replace(config.coupling, sigma=value))
    if parameter == "phi_d":
        return replace(config, detector=replace(config.detector, tuning_phase=value))
    if parameter == "phi_s":
        return replace(config, system=replace(config.system, tuning_phase=value))
    if parameter == "delta_s1":
        qpc1 = config.system.qpc1
        swapped = qpc_from_transmission((1.0 + value) / 2.0, chi=qpc1.chi, xi=qpc1.xi)
        return replace(config, system=replace(config.system, qpc1=swapped))
    raise ConfigError(f"unknown sweep parameter {parameter!r}")


def _validate_grid(spec: ScanSpec) -> None:
    bounds = {"gamma": (0.0, 2.0 * np.pi), "sigma": (0.0, np.pi), "delta_s1": (-1.0, 1.0)}
    if spec.parameter in bounds:
        lo, hi = bounds[spec.parameter]
        if spec.minimum < lo - 1e-12 or spec.maximum > hi + 1e-12:
            raise ConfigError(
                f"sweep range [{spec.minimum}, {spec.maximum}] outside the valid "
                f"domain [{lo}, {hi}] of {spec.parameter}"
            )


def run_scan(spec: ScanSpec) -> str:
    """CSV document for a one-parameter scan; rows follow grid order."""
    for name in spec.quantities:
        if name not in QUANTITIES:
            raise ConfigError(
                f"unknown quantity {name!r}; choose from {', '.join(QUANTITIES)}"
            )
    _validate_grid(spec)
    grid = np.linspace(spec.minimum, spec.maximum, spec.count)
    # clamp endpoint rounding so domain-validated values stay in range
    grid[0], grid[-1] = spec.minimum, spec.maximum
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow([spec.parameter, *spec.quantities])
    for value in grid:
        point = _apply_sweep(spec.config, spec.parameter, float(value))
        row = _evaluate_quantities(point, spec.quantities)
        writer.writerow([_fmt(value), *(row[name] for name in spec.quantities)])
    return buffer.getvalue()


def run_montecarlo(config: ExperimentConfig, n: int, seed: int) -> str:
    """CSV report of one seeded estimator run.

    Events are sampled from the exact joint distribution; with a
    fluctuating coupling (``sigma > 0`` or ``pair_probability < 1``) the
    sampler draws a coupling phase per event and the contextual values
    apply the damping compensation.  When the config carries a budget
    section the report includes the observation-time bound.
    """
    det, system, coupling = config.detector, config.system, config.coupling
    fluctuating = coupling.sigma > 0.0 or coupling.pair_probability < 1.0
    damped = averaged_detector_params(detector_params(det, coupling.gamma), coupling)
    cv = contextual_values(config.observable, damped)
    if fluctuating:
        events = sample_events_fluctuating(det, system, coupling, n, seed)
        probabilities = None
    else:
        stats = joint_statistics(joint_amplitudes(det, system, coupling.gamma))
        events = sample_events(stats, n, seed)
        probabilities = (
            stats.p_detector(DetectorDrain.D1),
            stats.p_detector(DetectorDrain.D2),
        )
    report = contextual_estimate(events, cv, probabilities=probabilities, seed=seed)
    header = ["seed", "n", "estimate", "empirical_variance", "predicted_mse",
              "mse_upper_bound", "rng_algorithm"]
    row = [str(report.seed), str(report.n), _fmt(report.estimate),
           _fmt(report.empirical_variance), _fmt(report.predicted_mse),
           _fmt(report.mse_upper_bound), report.rng_algorithm]
    if config.budget is not None:
        header += ["observation_time_s", "required_events"]
        row += [
            _fmt(observation_time(cv, config.budget)),
            _fmt((cv.alpha_d1**2 + cv.alpha_d2**2) / config.budget.target_rms**2),
        ]
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerow(row)
    return buffer.getvalue()


def run_povm(config: ExperimentConfig) -> str:
    """Name,value CSV of the measurement layer for one configuration."""
    det, coupling = config.detector, config.coupling
    raw = detector_params(det, coupling.gamma)
    damped = averaged_detector_params(raw, coupling)
    povm = povm_pair(measurement_operators(det, coupling.gamma))
    rows: list[tuple[str, str]] = [
        ("beta_plus", _fmt(raw.beta_plus)),
        ("beta_minus", _fmt(raw.beta_minus)),
        ("visibility", _fmt(raw.visibility)),
        ("Gamma", _fmt(raw.Gamma)),
        ("Delta", _fmt(raw.Delta)),
        ("eta", _fmt(damping_eta(coupling.sigma))),
        ("eta_prime", _fmt(coupling.pair_probability * damping_eta(coupling.sigma))),
        ("Gamma_damped", _fmt(damped.Gamma)),
        ("E_D1_LL", _fmt(povm.e_d1[0, 0].real)),
        ("E_D1_UU", _fmt(povm.e_d1[1, 1].real)),
        ("E_D2_LL", _fmt(povm.e_d2[0, 0].real)),
        ("E_D2_UU", _fmt(povm.e_d2[1, 1].real)),
    ]
    try:
        cv = contextual_values(config.observable, damped)
        rows += [("alpha_D1", _fmt(cv.alpha_d1)), ("alpha_D2", _fmt(cv.alpha_d2))]
    except AmbiguousMeasurementError:
        rows += [("alpha_D1", AMBIGUOUS_TOKEN), ("alpha_D2", AMBIGUOUS_TOKEN)]
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["quantity", "value"])
    writer.writerows(rows)
    return buffer.getvalue()


def run_erasure(config: ExperimentConfig, minimum: float, maximum: float, count: int) -> str:
    """CSV of unconditioned and conditional system fringes over phi_s."""
    det, system, coupling = config.detector, config.system, config.coupling
    grid = np.linspace(minimum, maximum, count)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["phi_s", "P_S1", "P_S1_given_D1", "P_S1_given_D2"])
    for phi_s in grid:
        swept = InterferometerConfig(system.qpc1, system.qpc2, float(phi_s))
        stats = joint_statistics(joint_amplitudes(det, swept, coupling.gamma))
        table = conditional_table(stats)
        writer.writerow([
            _fmt(phi_s),
            _fmt(stats.p_system(SystemDrain.S1)),
            _fmt(table.p_system_given_detector[0, 0]),
            _fmt(table.p_system_given_detector[1, 0]),
        ])
    return buffer.getvalue()


def run_interaction_phase(config: ExperimentConfig) -> str:
    """CSV of geometry-derived phases for the config's geometry section."""
    if config.geometry is None:
        raise ConfigError("interaction-phase needs a geometry section in the config")
    geom = config.geometry
    rows = [
        ("coupling_phase", _fmt(coupling_phase(geom))),
        ("coulomb_constant", _fmt(geom.coulomb_constant)),
    ]
    if config.bias is not None:
        fermi_j = ELEMENTARY_CHARGE * config.bias.fermi_energy
        single = dynamical_phase(fermi_j, geom.copropagation_length, geom.propagation_speed)
        rows += [
            ("dynamical_phase_single", _fmt(single)),
            ("dynamical_phase_pair", _fmt(2.0 * single)),
        ]
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["quantity", "value"])
    writer.writerows(rows)
    return buffer.getvalue()


def _parse_sweep_flag(text: str) -> tuple[str, float, float, int]:
    parts = text.split(":")
    if len(parts) != 4:
        raise ConfigError("--sweep expects NAME:MIN:MAX:COUNT")
    name, lo_text, hi_text, count_text = parts
    try:
        count = int(count_text)
    except ValueError:
        raise ConfigError(f"sweep count {count_text!r} is not an integer") from None
    return name, evaluate_number(lo_text), evaluate_number(hi_text), count


def _write_output(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coupled-mzi",
        description="Coupled electronic Mach-Zehnder interferometer simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_seed=False):
        p.add_argument("--config", required=True, help="configuration file path")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        if needs_seed:
            p.add_argument("--seed", type=int, default=0, help="64-bit RNG seed")
            p.add_argument("--n", type=int, default=10000, help="number of events")

    p_scan = sub.add_parser("scan", help="one-parameter sweep to CSV")
    add_common(p_scan)
    p_scan.add_argument("--sweep", required=True, help="NAME:MIN:MAX:COUNT")
    p_scan.add_argument("--quantities", required=True,
                        help=f"comma-separated subset of: {', '.join(QUANTITIES)}")

    p_mc = sub.add_parser("montecarlo", help="seeded estimator run to CSV")
    add_common(p_mc, needs_seed=True)

    p_povm = sub.add_parser("povm", help="measurement-layer summary to CSV")
    add_common(p_povm)

    p_er = sub.add_parser("erasure", help="conditional fringe sweep to CSV")
    add_common(p_er)
    p_er.add_argument("--sweep", default="phi_s:0:2*pi:101", help="phi_s:MIN:MAX:COUNT")

    p_ip = sub.add_parser("interaction-phase", help="geometry-derived phases to CSV")
    add_common(p_ip)

    p_val = sub.add_parser("validate-config", help="parse and validate a config file")
    p_val.add_argument("--config", required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if args.command == "validate-config":
            print(f"ok: {args.config}")
            return 0
        if args.command == "scan":
            name, lo, hi, count = _parse_sweep_flag(args.sweep)
            quantities = tuple(q.strip() for q in args.quantities.split(",") if q.strip())
            if not quantities:
                raise ConfigError("--quantities must name at least one quantity")
            spec = ScanSpec(parameter=name, minimum=lo, maximum=hi, count=count,
                            config=config, quantities=quantities)
            _write_output(run_scan(spec), args.out)
        elif args.command == "montecarlo":
            if args.n < 1:
                raise ConfigError("--n must be at least 1")
            if not 0 <= args.seed < 2**64:
                raise ConfigError("--seed must be a 64-bit unsigned integer in [0, 2**64)")
            _write_output(run_montecarlo(config, args.n, args.seed), args.out)
        elif args.command == "povm":
            _write_output(run_povm(config), args.out)
        elif args.command == "erasure":
            name, lo, hi, count = _parse_sweep_flag(args.sweep)
            if name != "phi_s":
                raise ConfigError("erasure sweeps phi_s only")
            if count < 2:
                raise ConfigError("sweep needs at least 2 grid points")
            _write_output(run_erasure(config, lo, hi, count), args.out)
        elif args.command == "interaction-phase":
            _write_output(run_interaction_phase(config), args.out)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except AmbiguousMeasurementError as exc:
        print(f"ambiguous measurement: {exc}", file=sys.stderr)
        return 3
    except PostSelectionImpossibleError as exc:
        print(f"post-selection impossible: {exc}", file=sys.stderr)
        return 4
    except CoupledMziError as exc:  # other semantic failures map to config error
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
