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
The table ``_SECTIONS`` lists every section with its constructor, every
key with its default (or ``_REQUIRED``) and each exactly-one-of group
(``T``/``theta``, ``coulomb_constant``/``target_gamma``); README.md
explains each key.  The table becomes one build plan per section at
import; the loader builds the sections in the table's order and reports
the first fault it meets; the constructors check the domains.
"""

from __future__ import annotations

import ast
import math
import operator
import re
from collections.abc import Callable
from dataclasses import dataclass, replace

from .errors import ConfigError
from .interaction import InteractionGeometry, geometry_for_phase
from .params import (
    MAX_TUNING_PHASE,
    CouplingModel,
    InterferometerConfig,
    ObservableCoefficients,
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
class ExperimentConfig:
    """Fully validated two-interferometer experiment description."""

    detector: InterferometerConfig
    system: InterferometerConfig
    coupling: CouplingModel
    observable: ObservableCoefficients
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

# config key -> constructor argument, where the two differ
_ARGUMENTS = {"T": "transmission", "phi": "tuning_phase", "voltage": "bias_voltage",
              "interaction_length": "copropagation_length", "speed": "propagation_speed"}


@dataclass(frozen=True)
class _Entry:
    """How the keys under one dotted prefix build one object.

    ``keys`` maps each key to its default: a value, ``_REQUIRED``, or the
    entry that builds the argument from the key's own prefix.  ``build`` is
    the constructor or, for a group of keys of which exactly one must
    appear, maps each key of the group to the constructor it selects.  A
    value the constructor rejects is reported under ``blame``; an
    ``optional`` section is built only when a key under its prefix appears.
    """

    build: Callable | dict[str, Callable]
    keys: dict[str, object]
    blame: str = "{path}"
    optional: bool = False


_QPC = _Entry({"T": qpc_from_transmission, "theta": qpc_from_angle}, {"chi": 0.0, "xi": 0.0},
              blame="{path}.{choice}")
# a first QPC's scattering phases enter only through phi, so it takes none
_INTERFEROMETER = _Entry(InterferometerConfig, {"qpc1": replace(_QPC, keys={}), "qpc2": _QPC, "phi": _REQUIRED})
_SECTIONS = {
    "detector": _INTERFEROMETER,
    "system": _INTERFEROMETER,
    "coupling": _Entry(CouplingModel, {"gamma": _REQUIRED, "sigma": 0.0, "pair_probability": 1.0}),
    "observable": _Entry(ObservableCoefficients, {"a0": 0.0, "a3": 1.0}),
    "bias": _Entry(
        PhysicalBias,
        dict.fromkeys(["voltage", "fermi_energy", "temperature"], _REQUIRED),
        optional=True,
    ),
    "geometry": _Entry(
        {"coulomb_constant": InteractionGeometry, "target_gamma": geometry_for_phase},
        dict.fromkeys(["interaction_length", "channel_separation", "screening_length", "speed"],
                      _REQUIRED),
        optional=True,
    ),
    "budget": _Entry(
        ObservationBudget,
        dict.fromkeys(["path_length", "fermi_velocity", "target_rms"], _REQUIRED) | {"tau_m": None},
        optional=True,
    ),
}


def _plan(path: str, entry: _Entry) -> tuple[Callable[[dict], object], frozenset[str]]:
    """``entry`` at ``path`` as a function of the parsed pairs that builds its
    object and reports the first fault in the table's order, and the keys it
    reads.  Names, nested entries and messages are resolved here, once."""
    one_of = entry.build if isinstance(entry.build, dict) else {}
    choices = [(f"{path}.{key}", _ARGUMENTS.get(key, key), build, entry.blame.format(path=path, choice=key))
               for key, build in one_of.items()]
    fault = f"{path}: specify exactly one of {' or '.join(one_of)}"
    blame = entry.blame.format(path=path, choice=None)
    fields, keys = [], {name for name, *_ in choices}
    for key, default in entry.keys.items():
        name, nested = f"{path}.{key}", None
        if isinstance(default, _Entry):
            nested, nested_keys = _plan(name, default)
            keys |= nested_keys
        else:
            keys.add(name)
        fields.append((name, _ARGUMENTS.get(key, key), default, nested))

    def build(pairs: dict[str, tuple[float, int]]):
        make, why, kwargs = entry.build, blame, {}
        if choices:
            given = [choice for choice in choices if choice[0] in pairs]
            if len(given) != 1:
                raise ConfigError(fault)
            name, argument, make, why = given[0]
            kwargs[argument] = pairs[name][0]
        for name, argument, default, nested in fields:
            if nested is not None:
                kwargs[argument] = nested(pairs)
            elif name in pairs:
                kwargs[argument] = pairs[name][0]
            elif default is _REQUIRED:
                raise ConfigError(f"missing required key {name}")
            else:
                kwargs[argument] = default
        try:
            return make(**kwargs)
        except ValueError as exc:
            raise ConfigError(f"{why}: {exc}") from None

    return build, frozenset(keys)


_PLANS = {name: _plan(name, entry) for name, entry in _SECTIONS.items()}
_KNOWN = frozenset().union(*(keys for _, keys in _PLANS.values()))


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
    present = {key.partition(".")[0] for key in pairs if "." in key}
    sections = {name: build(pairs) for name, (build, _) in _PLANS.items()
                if not _SECTIONS[name].optional or name in present}
    unknown = sorted(set(pairs) - _KNOWN)
    if unknown:
        raise ConfigError(f"line {pairs[unknown[0]][1]}: unknown key {unknown[0]!r}")
    return ExperimentConfig(**sections)


def load_config(path: str) -> ExperimentConfig:
    """Load and validate a configuration file."""
    try:
        with open(path, "rb") as handle:
            text = handle.read().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return load_config_text(text)
