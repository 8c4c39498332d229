import ast
import math
import operator
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coupled_mzi import ConfigError, coupling_phase, evaluate_number, load_config, load_config_text

ROOT = Path(__file__).resolve().parents[1]
SEED_TEXTS = [
    path.read_text(encoding="utf-8")
    for path in [*sorted((ROOT / "configs").glob("*.conf")), ROOT / "tests/golden/unbalanced.conf"]
]
GOLDEN = SEED_TEXTS[-1]
README_BLOCK = re.search(
    r"## Configuration format.*?```ini\n(.*?)```", (ROOT / "README.md").read_text(encoding="utf-8"),
    re.DOTALL,
).group(1)

# every key the loader reads; a first QPC takes no phases, so
# detector.qpc1.chi and the like are unknown keys
KEYS = (
    "detector.qpc1.T", "detector.qpc1.theta", "detector.qpc2.T", "detector.qpc2.theta",
    "detector.qpc2.chi", "detector.qpc2.xi", "detector.phi",
    "system.qpc1.T", "system.qpc1.theta", "system.qpc2.T", "system.qpc2.theta",
    "system.qpc2.chi", "system.qpc2.xi", "system.phi",
    "coupling.gamma", "coupling.sigma", "coupling.pair_probability",
    "observable.a0", "observable.a3",
    "bias.voltage", "bias.fermi_energy", "bias.temperature",
    "geometry.coulomb_constant", "geometry.target_gamma", "geometry.interaction_length",
    "geometry.channel_separation", "geometry.screening_length", "geometry.speed",
    "budget.path_length", "budget.fermi_velocity", "budget.target_rms", "budget.tau_m",
)
# a value inside the domain for each key's last name
SAMPLE_VALUES = {
    "T": "0.6", "theta": "pi/5", "chi": "0.1", "xi": "-0.2", "phi": "0.3", "gamma": "pi/2",
    "sigma": "0.4", "pair_probability": "0.9", "a0": "0.25", "a3": "1.5", "voltage": "100e-6",
    "fermi_energy": "10e-3", "temperature": "0.02", "coulomb_constant": "1e-3", "target_gamma": "2.2",
    "interaction_length": "5e-6", "channel_separation": "50e-9", "screening_length": "100e-9",
    "speed": "1e5", "path_length": "1e-5", "fermi_velocity": "1e5", "target_rms": "0.1", "tau_m": "1e-10",
}

MINIMAL = """
# minimal symmetric configuration
detector.qpc1.T = 0.5
detector.qpc2.T = 0.5
detector.phi = 0
system.qpc1.T = 0.5
system.qpc2.T = 0.5
system.phi = 0
coupling.gamma = pi
"""


class TestNumberEvaluation:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("0.5", 0.5),
            ("pi", math.pi),
            ("pi/2", math.pi / 2),
            ("3*pi/4", 3 * math.pi / 4),
            ("-pi", -math.pi),
            ("2*pi", 2 * math.pi),
            ("10e-6", 1e-5),
            ("(1+3)/8", 0.5),
        ],
    )
    def test_expressions(self, text, value):
        assert evaluate_number(text) == pytest.approx(value, rel=1e-15)

    @pytest.mark.parametrize(
        "bad", ["two", "pi**2", "__import__('os')", "1/0", "sin(1)", "1e999", "1e999 - 1e999",
                pytest.param("9" * 400, id="400-digit-integer"),
                pytest.param("9" * 400 + "/3", id="400-digit-integer-divided"),
                pytest.param("-" * 3000 + "1", id="3000-unary-minus"),
                pytest.param("+".join(["1"] * 3000), id="3000-term-sum"),
                "True", "False"]
    )
    def test_rejected_expressions(self, bad):
        with pytest.raises(ConfigError):
            evaluate_number(bad)


_OPERATORS = {ast.UAdd: operator.pos, ast.USub: operator.neg, ast.Add: operator.add,
              ast.Sub: operator.sub, ast.Mult: operator.mul, ast.Div: operator.truediv}


def parser_evaluate_number(text):
    """Oracle: ``evaluate_number`` as it was before plain literals skipped
    the parser, every text through ``ast``."""
    def node_value(node):
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            return float(node.value)
        if isinstance(node, ast.Name) and node.id == "pi":
            return math.pi
        if isinstance(node, ast.UnaryOp) and type(node.op) in _OPERATORS:
            return _OPERATORS[type(node.op)](node_value(node.operand))
        if isinstance(node, ast.BinOp) and type(node.op) in _OPERATORS:
            left = node_value(node.left)
            return _OPERATORS[type(node.op)](left, node_value(node.right))
        raise ConfigError(f"unsupported expression in {text!r} (allowed: numbers, pi, + - * /)")

    try:
        value = node_value(ast.parse(text.strip(), mode="eval").body)
    except SyntaxError as exc:
        raise ConfigError(f"cannot parse number {text!r}: {exc.msg}") from None
    except ZeroDivisionError:
        raise ConfigError(f"division by zero in {text!r}") from None
    except OverflowError:
        value = math.inf
    except (RecursionError, MemoryError):
        raise ConfigError(f"expression {text!r} is nested too deeply") from None
    if not math.isfinite(value):
        raise ConfigError(f"number {text!r} is not finite")
    return value


def outcome(evaluate, text):
    """The double's bits (``-0.0`` apart from ``0.0``) or the error text."""
    try:
        return "value", evaluate(text).hex()
    except ConfigError as exc:
        return "error", str(exc)


DIGITS = st.text("0123456789", max_size=25)
near_literals = st.builds(
    "".join,
    st.tuples(
        st.sampled_from(["", " ", "\t", "\u00a0", "\n "]),
        st.sampled_from(["", "+", "-", "--", "+-", "- "]),
        st.one_of(DIGITS, st.sampled_from(["007", "00", "1_0", "\u0663", "\uff11", "9" * 400, "1" * 5000])),
        st.sampled_from(["", ".", "._"]),
        DIGITS,
        st.one_of(st.just(""), st.builds("".join, st.tuples(
            st.sampled_from("eE"), st.sampled_from(["", "+", "-", "_"]), DIGITS))),
        st.sampled_from(["", " ", "\u3000", "j", "x", "*2"]),
    ),
)


@settings(max_examples=600, deadline=None)
@given(text=st.one_of(near_literals, st.floats().map(repr), st.integers().map(str),
                      st.text("0123456789.eE+-_ \u0663\uff11", max_size=12)))
@example(text="007")  # the parser rejects it, float() reads 7
@example(text="007.5")
@example(text="007e1")
@example(text="00")
@example(text="1_0")
@example(text="\u0663")  # re's \d matches both digits, float() reads them
@example(text="\uff11")
@example(text="+.5")
@example(text="-0")
@example(text="--1")
@example(text="1e-400")
@example(text="-1e-400")
@example(text="1e400")
@example(text="9" * 400)
@example(text="1" * 5000)  # beyond the parser's integer digits
@example(text=" \t0.5 \n")
@example(text="\u00a0-1.25E+3\u3000")
def test_plain_literals_read_as_the_parser_reads_them(text):
    assert outcome(evaluate_number, text) == outcome(parser_evaluate_number, text)


class TestLoadConfig:
    def test_minimal(self):
        config = load_config_text(MINIMAL)
        assert config.coupling.gamma == pytest.approx(math.pi)
        assert config.coupling.sigma == 0.0
        assert config.coupling.pair_probability == 1.0
        assert config.observable.a0 == 0.0 and config.observable.a3 == 1.0
        assert config.bias is None and config.geometry is None and config.budget is None

    def test_out_of_range_transmission_names_field(self):
        text = MINIMAL.replace("detector.qpc1.T = 0.5", "detector.qpc1.T = 1.2")
        with pytest.raises(ConfigError, match="detector.qpc1.T"):
            load_config_text(text)

    def test_theta_specification(self):
        text = MINIMAL.replace("system.qpc1.T = 0.5", "system.qpc1.theta = pi/4")
        config = load_config_text(text)
        assert config.system.qpc1.transmission == pytest.approx(0.5, abs=1e-12)

    def test_both_t_and_theta_rejected(self):
        text = MINIMAL + "system.qpc1.theta = pi/4\n"
        with pytest.raises(ConfigError, match="exactly one of T or theta"):
            load_config_text(text)

    def test_neither_t_nor_theta_rejected(self):
        text = MINIMAL.replace("detector.qpc2.T = 0.5\n", "")
        with pytest.raises(ConfigError, match="detector.qpc2"):
            load_config_text(text)

    def test_missing_phi(self):
        text = MINIMAL.replace("system.phi = 0\n", "")
        with pytest.raises(ConfigError, match="system.phi"):
            load_config_text(text)

    def test_unknown_key_reports_line(self):
        text = MINIMAL + "detector.qpc1.color = 3\n"
        with pytest.raises(ConfigError, match=r"line 10.*detector.qpc1.color"):
            load_config_text(text)

    def test_duplicate_key(self):
        text = MINIMAL + "coupling.gamma = 1\n"
        with pytest.raises(ConfigError, match="duplicate"):
            load_config_text(text)

    def test_parse_error_reports_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            load_config_text("detector.qpc1.T = 0.5\nnot a pair\n")

    def test_non_finite_value_reports_line(self):
        text = MINIMAL.replace("system.phi = 0", "system.phi = 1e999 - 1e999")
        with pytest.raises(ConfigError, match="line 8.*not finite"):
            load_config_text(text)

    def test_qpc_phases(self):
        text = MINIMAL + "detector.qpc2.chi = pi/8\ndetector.qpc2.xi = -pi/8\n"
        config = load_config_text(text)
        assert config.detector.qpc2.chi == pytest.approx(math.pi / 8)
        assert config.detector.qpc2.xi == pytest.approx(-math.pi / 8)

    def test_first_qpcs_take_no_phases(self):
        # they enter only through phi; the second QPCs keep theirs
        known = set(KEYS)
        assert len(known) == 32
        assert not {f"{side}.qpc1.{phase}" for side in ("detector", "system") for phase in ("chi", "xi")} & known
        assert {"detector.qpc2.chi", "detector.qpc2.xi", "system.qpc2.chi", "system.qpc2.xi"} <= known

    @pytest.mark.parametrize("key", KEYS)
    def test_every_key_loads(self, key):
        """``key`` added to a config with every section, and with neither
        ``key`` nor the other key of its one-of group, loads, and its value
        reaches the config."""
        head, _, last = key.rpartition(".")
        skip = {key, f"{head}.{PARTNERS.get(last)}"}
        text = "".join(f"{k} = {SAMPLE_VALUES[k.rpartition('.')[2]]}\n" for k in KEYS
                       if k.rpartition(".")[2] not in ("theta", "coulomb_constant") and k not in skip)
        first, second = (load_config_text(text + f"{key} = {scale} * {SAMPLE_VALUES[last]}\n")
                         for scale in ("1", "0.9"))
        assert first.bias is not None and first.geometry is not None and first.budget is not None
        assert first != second

    @pytest.mark.parametrize("key", ["detector.qpc1.chi", "system.qpc1.xi"])
    def test_first_qpc_phase_is_unknown(self, key):
        with pytest.raises(ConfigError, match=rf"^line 10: unknown key '{re.escape(key)}'$"):
            load_config_text(MINIMAL + f"{key} = 0.1\n")

    def test_coupling_range_checked(self):
        text = MINIMAL.replace("coupling.gamma = pi", "coupling.gamma = 7")
        with pytest.raises(ConfigError, match="coupling"):
            load_config_text(text)

    def test_bias_section(self):
        text = MINIMAL + "bias.voltage = 10e-6\nbias.fermi_energy = 10e-3\nbias.temperature = 0.02\n"
        config = load_config_text(text)
        assert config.bias.bias_voltage == pytest.approx(1e-5)

    def test_partial_bias_rejected(self):
        text = MINIMAL + "bias.voltage = 10e-6\n"
        with pytest.raises(ConfigError, match="bias"):
            load_config_text(text)

    def test_geometry_with_target_gamma(self):
        text = MINIMAL + (
            "geometry.interaction_length = 5e-6\n"
            "geometry.channel_separation = 50e-9\n"
            "geometry.screening_length = 100e-9\n"
            "geometry.speed = 1e5\n"
            "geometry.target_gamma = pi\n"
        )
        config = load_config_text(text)
        from coupled_mzi import coupling_phase

        assert coupling_phase(config.geometry) == pytest.approx(math.pi, rel=1e-12)

    def test_geometry_requires_one_constant(self):
        text = MINIMAL + (
            "geometry.interaction_length = 5e-6\n"
            "geometry.channel_separation = 50e-9\n"
            "geometry.screening_length = 100e-9\n"
            "geometry.speed = 1e5\n"
        )
        with pytest.raises(ConfigError, match="coulomb_constant or target_gamma"):
            load_config_text(text)

    def test_budget_section(self):
        text = MINIMAL + (
            "budget.path_length = 1e-5\n"
            "budget.fermi_velocity = 1e5\n"
            "budget.target_rms = 0.1\n"
        )
        config = load_config_text(text)
        assert config.budget.mean_absorption_time == pytest.approx(1e-10)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(str(tmp_path / "absent.conf"))

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "exp.conf"
        path.write_text(MINIMAL, encoding="utf-8")
        config = load_config(str(path))
        assert config.detector.qpc1.transmission == 0.5


FIRST_FAULTS = {
    "detector-before-coupling": (
        [("detector.qpc2.T = 0.65", "detector.qpc2.T = 1.5"), ("coupling.gamma = 2.2", "coupling.gamma = 7")],
        "detector.qpc2.T: transmission 1.5 and reflection -0.5 are not probabilities in [0, 1] with T + R = 1"),
    "qpc1-before-qpc2": (
        [("system.qpc1.T = 0.72", "system.qpc1.T = -0.1"), ("system.qpc2.T = 0.4", "system.qpc2.theta = 2")],
        "system.qpc1.T: transmission -0.1 and reflection 1.1 are not probabilities in [0, 1] with T + R = 1"),
    "qpc2-before-missing-phi": (
        [("system.qpc2.T = 0.4", "system.qpc2.theta = 2"), ("system.phi = -1.3\n", "")],
        "system.qpc2.theta: balance angle 2.0 outside [0, pi/2]"),
    "T-and-theta": (
        [("detector.qpc2.T = 0.65", "detector.qpc2.T = 0.65\ndetector.qpc2.theta = 0.3"),
         ("detector.phi = 0.9\n", "")],
        "detector.qpc2: specify exactly one of T or theta"),
    "geometry-one-of-before-length": (
        [("geometry.target_gamma = 2.2", "geometry.target_gamma = 2.2\ngeometry.coulomb_constant = 1"),
         ("geometry.interaction_length = 5e-6\n", "")],
        "geometry: specify exactly one of coulomb_constant or target_gamma"),
    "partial-bias-before-budget": (
        [("bias.temperature = 0.02\n", ""),
         ("geometry.target_gamma = 2.2", "geometry.target_gamma = 2.2\nbudget.path_length = -1")],
        "missing required key bias.temperature"),
    "missing-before-unknown": (
        [("coupling.gamma = 2.2\n", ""), ("detector.phi = 0.9", "detector.phi = 0.9\ndetector.qpc1.chi = 1")],
        "missing required key coupling.gamma"),
    "optional-range-before-unknown": (
        [("bias.voltage = 100e-6", "bias.voltage = -1\nbias.current = 1")],
        "bias: bias voltage must be positive"),
}


@pytest.mark.parametrize("edits, message", FIRST_FAULTS.values(), ids=FIRST_FAULTS)
def test_first_fault_is_reported(edits, message):
    """The golden config with two faults reports the one the loader meets
    first: sections in order, fields in order, unknown keys last."""
    text = GOLDEN
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    with pytest.raises(ConfigError) as caught:
        load_config_text(text)
    assert str(caught.value) == message


class TestReadmeExample:
    def test_loads(self):
        config = load_config_text(README_BLOCK)
        assert config.bias is not None and config.geometry is not None and config.budget is not None

    def test_names_every_key(self):
        for key in sorted(KEYS):
            # system.* has the shape of detector.*, which the block spells out
            key = key.replace("system.", "detector.")
            assert key in README_BLOCK


PARTNERS = {"T": "theta", "theta": "T", "coulomb_constant": "target_gamma",
            "target_gamma": "coulomb_constant"}
dotted_names = st.lists(
    st.sampled_from(["detector", "system", "qpc1", "bias", "geometry", "T", "phi", "x", ""]),
    min_size=1, max_size=4,
).map(".".join)
value_texts = st.one_of(
    st.floats(allow_nan=False).map(repr),
    st.integers(1, 400).map(lambda digits: "9" * digits),
    st.integers(-(10**400), 10**400).map(str),
    st.builds(lambda sign, depth: sign * depth + "1", st.sampled_from("-+"), st.integers(1, 3000)),
    st.builds(lambda op, terms: op.join("1" * terms), st.sampled_from("+-*/"), st.integers(1, 3000)),
    st.sampled_from(["True", "False", "None", "pi/0", "1e999", "2*pi", "-0.0", "1j", "sin(1)",
                     "1e-300", "5e-324", "1e300"]),
    st.text(max_size=12),
)


@st.composite
def mutated_configs(draw):
    """A shipped or golden config with up to four lines dropped, duplicated,
    renamed, swapped to the other key of a one-of group or given a new value."""
    lines = draw(st.sampled_from(SEED_TEXTS)).splitlines()
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(lines) - 1))
        key, _, value = lines[i].partition("=")
        head, _, last = key.strip().rpartition(".")
        mutation = draw(st.sampled_from(["drop", "duplicate", "rename", "swap", "value"]))
        if mutation == "drop":
            del lines[i]
        elif mutation == "duplicate":
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
        elif mutation == "rename":
            lines[i] = f"{draw(st.one_of(st.sampled_from(sorted(KEYS)), dotted_names))} ={value}"
        elif mutation == "swap" and last in PARTNERS:
            lines[i] = f"{head}.{PARTNERS[last]} ={value}"
        elif mutation == "value":
            lines[i] = f"{key}= {draw(value_texts)}"
    return "\n".join(lines)


@settings(max_examples=150, deadline=None)
@given(text=mutated_configs())
@example(text=GOLDEN.replace("detector.phi = 0.9", "detector.phi = " + "9" * 400))
@example(text=GOLDEN.replace("coupling.gamma = 2.2", "coupling.gamma = " + "9" * 400 + "/3"))
@example(text=GOLDEN.replace("system.phi = -1.3", "system.phi = " + "-" * 3000 + "1"))
@example(text=GOLDEN.replace("observable.a0 = 0.25", "observable.a0 = " + "+".join(["1"] * 3000)))
@example(text=GOLDEN.replace("coupling.sigma = 0.5", "coupling.sigma = True"))
@example(text=GOLDEN.replace("screening_length = 100e-9", "screening_length = 0.04e-9"))
@example(text=GOLDEN.replace("screening_length = 100e-9", "screening_length = 0"))
@example(text=GOLDEN.replace("separation = 50e-9", "separation = 1e300")
         .replace("screening_length = 100e-9", "screening_length = 1e-300"))
@example(text=GOLDEN.replace("separation = 50e-9", "separation = 1e-300")
         .replace("target_gamma = 2.2", "coulomb_constant = 1e300"))
@example(text=GOLDEN.replace("interaction_length = 5e-6", "interaction_length = 1e-300"))  # e^2 * 2 L underflows
@example(text=GOLDEN.replace("fermi_energy = 10e-3", "fermi_energy = -10e-3"))
@example(text=GOLDEN.replace("temperature = 0.02", "temperature = -0.02"))
def test_config_text_loads_or_raises_config_error(text):
    try:
        config = load_config_text(text)
    except ConfigError:
        return
    if config.bias is not None:
        assert config.bias.fermi_energy > 0.0 and config.bias.temperature >= 0.0
    if config.geometry is not None:
        assert math.isfinite(coupling_phase(config.geometry))
