import math

import pytest

from coupled_mzi import ConfigError, evaluate_number, load_config, load_config_text

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
        "bad", ["two", "pi**2", "__import__('os')", "1/0", "sin(1)", "1e999", "1e999 - 1e999"]
    )
    def test_rejected_expressions(self, bad):
        with pytest.raises(ConfigError):
            evaluate_number(bad)


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
