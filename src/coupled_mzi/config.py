"""Experiment configuration: flat key-value files with pi-literal numbers.

Grammar
-------
One ``key = value`` pair per line; ``#`` starts a comment; blank lines are
ignored.  Keys are dotted section paths (``detector.qpc1.T``).  Values are
arithmetic expressions over integer and decimal literals and the constant
``pi`` using unary ``+ -``, binary ``+ - * /`` and parentheses (e.g.
``pi/2``, ``3*pi/4``, ``10e-6``), evaluated at parse time to a finite
float; a plain decimal literal is read by ``float``, which gives the
double the parser gives.  Nothing else is a number: ``True``, ``None``,
names and calls are rejected, as are division by zero, results outside the
float range and expressions nested too deeply for the parser.

Sections and keys
-----------------
:func:`load_config_text` builds each section with one call of its
constructor, in the order detector, system, coupling, observable, bias,
geometry, budget, and reports the first fault it meets; README.md
explains each key.  A QPC takes exactly one of ``T``/``theta``, and only
a second QPC reads ``chi``/``xi``; ``geometry`` takes exactly one of
``coulomb_constant``/``target_gamma``; the optional bias, geometry and
budget are built only when a key under their prefix appears.  A key that
no section asked for is unknown.  The constructors check the domains.
"""

from __future__ import annotations

import ast
import math
import operator
import re
from dataclasses import dataclass, replace

from .conditioning import AveragedExperiment
from .errors import ConfigError
from .interaction import InteractionGeometry, geometry_for_phase
from .params import (
    MAX_TUNING_PHASE,
    CouplingModel,
    InterferometerConfig,
    ObservableCoefficients,
    QpcSetting,
    qpc_from_angle,
    qpc_from_transmission,
)
from .scattering import PhysicalBias
from .stochastic import ObservationBudget

# sweep name -> (exact domain, as the constructors enforce it; config section and
# field it sets; the field's value at sweep value x, if not x)
SWEEPS = {
    "gamma": ((0.0, 2.0 * math.pi), "coupling", "gamma", None),
    "phi_d": ((-MAX_TUNING_PHASE, MAX_TUNING_PHASE), "detector", "tuning_phase", None),
    "phi_s": ((-MAX_TUNING_PHASE, MAX_TUNING_PHASE), "system", "tuning_phase", None),
    "delta_s1": ((-1.0, 1.0), "system", "qpc1", lambda x: qpc_from_transmission((1.0 + x) / 2.0)),
    "sigma": ((0.0, math.pi), "coupling", "sigma", None),
}

# A signed decimal literal that the parser reads as one number, which
# ``float`` reads to the same double: ASCII digits only (``float`` also takes
# other scripts' digits), no ``_``, and no leading zero on an integer.  Longer
# texts take the parser, whose integer literals stop at
# ``sys.get_int_max_str_digits()`` digits, never fewer than 640.
_LITERAL = re.compile(r"[+-]?(?:0+|[1-9][0-9]*|[0-9]+[eE][+-]?[0-9]+"
                      r"|(?:[0-9]+\.[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)")
_LITERAL_CHARS = 100

_OPERATORS = {ast.UAdd: operator.pos, ast.USub: operator.neg, ast.Add: operator.add,
              ast.Sub: operator.sub, ast.Mult: operator.mul, ast.Div: operator.truediv}


def evaluate_number(text: str) -> float:
    """Evaluate a pi-literal arithmetic expression to a finite float."""
    source = text.strip()
    try:
        if len(source) <= _LITERAL_CHARS and _LITERAL.fullmatch(source):
            value = float(source)  # the correctly rounded double the parser makes too
        else:
            value = _eval_node(ast.parse(source, mode="eval").body, text)
    except SyntaxError as exc:
        raise ConfigError(f"cannot parse number {text!r}: {exc.msg}") from None
    except ZeroDivisionError:
        raise ConfigError(f"division by zero in {text!r}") from None
    except OverflowError:  # an integer literal beyond the float range
        value = math.inf
    except (RecursionError, MemoryError):  # the parser's and the evaluator's depth limits
        raise ConfigError(f"expression {text!r} is nested too deeply") from None
    if not math.isfinite(value):
        raise ConfigError(f"number {text!r} is not finite")
    return value


def _eval_node(node: ast.AST, text: str) -> float:
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return float(node.value)
    if isinstance(node, ast.Name) and node.id == "pi":
        return math.pi
    if isinstance(node, ast.UnaryOp) and type(node.op) in _OPERATORS:
        return _OPERATORS[type(node.op)](_eval_node(node.operand, text))
    if isinstance(node, ast.BinOp) and type(node.op) in _OPERATORS:
        left = _eval_node(node.left, text)
        return _OPERATORS[type(node.op)](left, _eval_node(node.right, text))
    raise ConfigError(f"unsupported expression in {text!r} (allowed: numbers, pi, + - * /)")


@dataclass(frozen=True)
class ExperimentConfig(AveragedExperiment):
    """Fully validated two-interferometer experiment description: the
    :class:`AveragedExperiment` of its first four fields, with its optional sections."""

    bias: PhysicalBias | None = None
    geometry: InteractionGeometry | None = None
    budget: ObservationBudget | None = None


def check_sweep_domain(parameter: str, minimum: float, maximum: float) -> None:
    """Raise ``ConfigError`` unless ``[minimum, maximum]`` lies in the
    domain of the sweepable ``parameter``."""
    lo, hi = SWEEPS[parameter][0]
    if minimum < lo or maximum > hi:
        raise ConfigError(f"sweep range [{minimum}, {maximum}] outside the valid "
                          f"domain [{lo}, {hi}] of {parameter}")


def swept(config: ExperimentConfig, parameter: str, values) -> ExperimentConfig:
    """``config`` with the field that ``parameter`` sweeps at ``values``, a point or an array."""
    _, section, name, value_at = SWEEPS[parameter]
    part = getattr(config, section)
    value = values if value_at is None else value_at(values)
    return replace(config, **{section: replace(part, **{name: value})})


_REQUIRED = object()


class _Reader:
    """The parsed pairs as the sections read them; remembers every key asked
    for, so that the keys never asked for are the unknown ones."""

    def __init__(self, pairs: dict[str, tuple[float, int]]):
        self.pairs, self.asked = pairs, set()

    def __call__(self, key: str, default=_REQUIRED):
        """The value of ``key``, or ``default`` when it is absent."""
        self.asked.add(key)
        if key in self.pairs:
            return self.pairs[key][0]
        if default is _REQUIRED:
            raise ConfigError(f"missing required key {key}")
        return default

    def one_of(self, path: str, *names: str) -> tuple[str, float]:
        """The one of ``names`` under ``path`` that is given, and its value."""
        given = {name: value for name in names if (value := self(f"{path}.{name}", None)) is not None}
        if len(given) != 1:
            raise ConfigError(f"{path}: specify exactly one of {' or '.join(names)}")
        return given.popitem()


def _built(blame: str, make, *args):
    """``make(*args)``, with a ``ValueError`` reported under ``blame``."""
    try:
        return make(*args)
    except ValueError as exc:
        raise ConfigError(f"{blame}: {exc}") from None


def _qpc(read: _Reader, path: str, *phases: str) -> QpcSetting:
    name, value = read.one_of(path, "T", "theta")
    make = qpc_from_transmission if name == "T" else qpc_from_angle
    return _built(f"{path}.{name}", make, value, *(read(f"{path}.{phase}", 0.0) for phase in phases))


def _interferometer(read: _Reader, path: str) -> InterferometerConfig:
    # a first QPC's scattering phases enter only through phi, so it reads none
    qpc1, qpc2 = _qpc(read, f"{path}.qpc1"), _qpc(read, f"{path}.qpc2", "chi", "xi")
    return _built(path, InterferometerConfig, qpc1, qpc2, read(f"{path}.phi"))


def _geometry(read: _Reader) -> InteractionGeometry:
    name, value = read.one_of("geometry", "coulomb_constant", "target_gamma")
    lengths = [read(f"geometry.{key}") for key in
               ("interaction_length", "channel_separation", "screening_length", "speed")]
    if name == "target_gamma":
        return _built("geometry", geometry_for_phase, value, *lengths)
    return _built("geometry", InteractionGeometry, *lengths, value)


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


def load_config_text(text: str) -> ExperimentConfig:
    """Parse and validate a configuration from its text content."""
    pairs = _parse_pairs(text)
    read = _Reader(pairs)
    present = {key.partition(".")[0] for key in pairs if "." in key}
    config = ExperimentConfig(
        _interferometer(read, "detector"),
        _interferometer(read, "system"),
        _built("coupling", CouplingModel, read("coupling.gamma"), read("coupling.sigma", 0.0),
               read("coupling.pair_probability", 1.0)),
        ObservableCoefficients(read("observable.a0", 0.0), read("observable.a3", 1.0)),
        _built("bias", PhysicalBias, read("bias.voltage"), read("bias.fermi_energy"),
               read("bias.temperature")) if "bias" in present else None,
        _geometry(read) if "geometry" in present else None,
        _built("budget", ObservationBudget, read("budget.path_length"), read("budget.fermi_velocity"),
               read("budget.target_rms"), read("budget.tau_m", None)) if "budget" in present else None,
    )
    unknown = sorted(set(pairs) - read.asked)
    if unknown:
        raise ConfigError(f"line {pairs[unknown[0]][1]}: unknown key {unknown[0]!r}")
    return config


def load_config(path: str) -> ExperimentConfig:
    """Load and validate a configuration file."""
    try:
        with open(path, "rb") as handle:
            text = handle.read().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return load_config_text(text)
