"""Experiment configuration: flat key-value files with pi-literal numbers.

Grammar
-------
One ``key = value`` pair per line; ``#`` starts a comment; blank lines are
ignored.  Keys are dotted section paths (``detector.qpc1.T``).  Values are
arithmetic expressions over numeric literals and the constant ``pi`` using
``+ - * / ()`` (e.g. ``pi/2``, ``3*pi/4``, ``10e-6``), evaluated at parse
time.

Sections and keys
-----------------
``detector`` / ``system``: ``qpc1`` and ``qpc2`` each take exactly one of
``T`` or ``theta`` plus optional phases ``chi`` and ``xi`` (default 0);
``phi`` is the interferometer's composite tuning phase (required).

``coupling``: ``gamma`` (required), ``sigma`` (default 0),
``pair_probability`` (default 1).

``observable``: ``a0`` (default 0), ``a3`` (default 1).

``bias`` (optional section): ``voltage`` (V), ``fermi_energy`` (eV),
``temperature`` (K), all required when the section appears.

``geometry`` (optional): ``interaction_length``, ``channel_separation``,
``screening_length``, ``speed``, and exactly one of ``coulomb_constant``
or ``target_gamma``.

``budget`` (optional): ``path_length``, ``fermi_velocity``,
``target_rms``, optional ``tau_m``.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass

from .errors import ConfigError
from .interaction import InteractionGeometry, geometry_for_phase
from .params import (
    CouplingModel,
    InterferometerConfig,
    ObservableCoefficients,
    QpcSetting,
    qpc_from_angle,
    qpc_from_transmission,
)
from .scattering import PhysicalBias
from .stochastic import ObservationBudget

SWEEPABLE_PARAMETERS = ("gamma", "phi_d", "phi_s", "delta_s1", "sigma")


def evaluate_number(text: str) -> float:
    """Evaluate a pi-literal arithmetic expression to a finite float."""
    try:
        tree = ast.parse(text.strip(), mode="eval")
    except SyntaxError as exc:
        raise ConfigError(f"cannot parse number {text!r}: {exc.msg}") from None
    value = _eval_node(tree.body, text)
    if not math.isfinite(value):
        raise ConfigError(f"number {text!r} is not finite")
    return value


def _eval_node(node: ast.AST, text: str) -> float:
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        return float(node.value)
    if isinstance(node, ast.Name) and node.id == "pi":
        return math.pi
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        value = _eval_node(node.operand, text)
        return -value if isinstance(node.op, ast.USub) else value
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div)):
        left = _eval_node(node.left, text)
        right = _eval_node(node.right, text)
        if isinstance(node.op, ast.Add):
            return left + right
        if isinstance(node.op, ast.Sub):
            return left - right
        if isinstance(node.op, ast.Mult):
            return left * right
        if right == 0.0:
            raise ConfigError(f"division by zero in {text!r}")
        return left / right
    raise ConfigError(f"unsupported expression in {text!r} (allowed: numbers, pi, + - * /)")


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully validated two-interferometer experiment description."""

    detector: InterferometerConfig
    system: InterferometerConfig
    coupling: CouplingModel
    observable: ObservableCoefficients
    bias: PhysicalBias | None = None
    geometry: InteractionGeometry | None = None
    budget: ObservationBudget | None = None


@dataclass(frozen=True)
class ScanSpec:
    """One-parameter scan request over a validated base configuration."""

    parameter: str
    minimum: float
    maximum: float
    count: int
    config: ExperimentConfig
    quantities: tuple[str, ...]

    def __post_init__(self):
        if self.parameter not in SWEEPABLE_PARAMETERS:
            raise ConfigError(
                f"unknown sweep parameter {self.parameter!r}; "
                f"choose from {', '.join(SWEEPABLE_PARAMETERS)}"
            )
        if self.count < 2:
            raise ConfigError("sweep needs at least 2 grid points")
        if not self.minimum < self.maximum:
            raise ConfigError("sweep minimum must be below maximum")


def _parse_pairs(text: str) -> dict[str, tuple[float, int]]:
    """Key -> (value, line number) with duplicate and syntax checks."""
    pairs: dict[str, tuple[float, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in pairs:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            pairs[key] = (evaluate_number(value), lineno)
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
    return pairs


class _Section:
    """Typed accessor over one dotted-key section; tracks consumed keys."""

    def __init__(self, pairs: dict[str, tuple[float, int]], prefix: str):
        self.pairs = pairs
        self.prefix = prefix
        self.used: set[str] = set()

    def get(self, name: str) -> float | None:
        key = f"{self.prefix}.{name}"
        self.used.add(key)
        entry = self.pairs.get(key)
        return None if entry is None else entry[0]

    def require(self, name: str) -> float:
        value = self.get(name)
        if value is None:
            raise ConfigError(f"missing required key {self.prefix}.{name}")
        return value

    def present(self) -> bool:
        return any(k.startswith(self.prefix + ".") for k in self.pairs)


def _build_qpc(section: _Section, name: str) -> QpcSetting:
    sub = _Section(section.pairs, f"{section.prefix}.{name}")
    transmission = sub.get("T")
    theta = sub.get("theta")
    chi = sub.get("chi")
    xi = sub.get("xi")
    chi = 0.0 if chi is None else chi
    xi = 0.0 if xi is None else xi
    section.used |= sub.used
    path = sub.prefix
    if (transmission is None) == (theta is None):
        raise ConfigError(f"{path}: specify exactly one of T or theta")
    try:
        if transmission is not None:
            return qpc_from_transmission(transmission, chi=chi, xi=xi)
        return qpc_from_angle(theta, chi=chi, xi=xi)
    except ValueError as exc:
        field = "T" if transmission is not None else "theta"
        raise ConfigError(f"{path}.{field}: {exc}") from None


def _build_interferometer(pairs, prefix: str) -> tuple[InterferometerConfig, set[str]]:
    section = _Section(pairs, prefix)
    qpc1 = _build_qpc(section, "qpc1")
    qpc2 = _build_qpc(section, "qpc2")
    phi = section.require("phi")
    return InterferometerConfig(qpc1=qpc1, qpc2=qpc2, tuning_phase=phi), section.used


def load_config_text(text: str) -> ExperimentConfig:
    """Parse and validate a configuration from its text content."""
    pairs = _parse_pairs(text)
    used: set[str] = set()

    detector, u = _build_interferometer(pairs, "detector")
    used |= u
    system, u = _build_interferometer(pairs, "system")
    used |= u

    def _default(value: float | None, fallback: float) -> float:
        return fallback if value is None else value

    coupling_sec = _Section(pairs, "coupling")
    try:
        coupling = CouplingModel(
            gamma=coupling_sec.require("gamma"),
            sigma=_default(coupling_sec.get("sigma"), 0.0),
            pair_probability=_default(coupling_sec.get("pair_probability"), 1.0),
        )
    except ValueError as exc:
        raise ConfigError(f"coupling: {exc}") from None
    used |= coupling_sec.used

    obs_sec = _Section(pairs, "observable")
    observable = ObservableCoefficients(
        a0=_default(obs_sec.get("a0"), 0.0),
        a3=_default(obs_sec.get("a3"), 1.0),
    )
    used |= obs_sec.used

    bias = None
    bias_sec = _Section(pairs, "bias")
    if bias_sec.present():
        try:
            bias = PhysicalBias(
                bias_voltage=bias_sec.require("voltage"),
                fermi_energy=bias_sec.require("fermi_energy"),
                temperature=bias_sec.require("temperature"),
            )
        except ValueError as exc:
            raise ConfigError(f"bias: {exc}") from None
    used |= bias_sec.used

    geometry = None
    geom_sec = _Section(pairs, "geometry")
    if geom_sec.present():
        alpha = geom_sec.get("coulomb_constant")
        target = geom_sec.get("target_gamma")
        if (alpha is None) == (target is None):
            raise ConfigError("geometry: specify exactly one of coulomb_constant or target_gamma")
        try:
            if alpha is not None:
                geometry = InteractionGeometry(
                    copropagation_length=geom_sec.require("interaction_length"),
                    channel_separation=geom_sec.require("channel_separation"),
                    screening_length=geom_sec.require("screening_length"),
                    propagation_speed=geom_sec.require("speed"),
                    coulomb_constant=alpha,
                )
            else:
                geometry = geometry_for_phase(
                    target_gamma=target,
                    copropagation_length=geom_sec.require("interaction_length"),
                    channel_separation=geom_sec.require("channel_separation"),
                    screening_length=geom_sec.require("screening_length"),
                    propagation_speed=geom_sec.require("speed"),
                )
        except ValueError as exc:
            raise ConfigError(f"geometry: {exc}") from None
    used |= geom_sec.used

    budget = None
    budget_sec = _Section(pairs, "budget")
    if budget_sec.present():
        try:
            budget = ObservationBudget(
                path_length=budget_sec.require("path_length"),
                fermi_velocity=budget_sec.require("fermi_velocity"),
                target_rms=budget_sec.require("target_rms"),
                tau_m=budget_sec.get("tau_m"),
            )
        except ValueError as exc:
            raise ConfigError(f"budget: {exc}") from None
    used |= budget_sec.used

    unknown = sorted(set(pairs) - used)
    if unknown:
        lineno = pairs[unknown[0]][1]
        raise ConfigError(f"line {lineno}: unknown key {unknown[0]!r}")
    return ExperimentConfig(
        detector=detector,
        system=system,
        coupling=coupling,
        observable=observable,
        bias=bias,
        geometry=geometry,
        budget=budget,
    )


def load_config(path: str) -> ExperimentConfig:
    """Load and validate a configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return load_config_text(text)
