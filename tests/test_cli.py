import contextlib
import csv
import io
import math
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from test_config import GOLDEN, mutated_configs

from coupled_mzi import cli, conditioning, measurement, params, scattering, stochastic
from coupled_mzi.cli import main
from coupled_mzi.config import SWEEPS, load_config, swept
from coupled_mzi.errors import ConfigError

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
GOLDEN_CONFIG = Path(__file__).resolve().parent / "golden" / "unbalanced.conf"

MINIMAL = """
detector.qpc1.T = 0.5
detector.qpc2.T = 0.5
detector.phi = pi/2
system.qpc1.T = 0.5
system.qpc2.T = 0.5
system.phi = 0
coupling.gamma = pi
"""

WEAK_VALUE_CONFIG = """
detector.qpc1.T = 0.5
detector.qpc2.T = 0.5
detector.phi = pi/2
system.qpc1.T = 0.8
system.qpc2.T = 0.5
system.phi = 0
coupling.gamma = pi/2
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "exp.conf"
    path.write_text(MINIMAL, encoding="utf-8")
    return str(path)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def edited_golden(tmp_path, edits):
    """Path of a copy of the golden config with each ``old -> new`` edit applied."""
    text = GOLDEN_CONFIG.read_text(encoding="utf-8")
    for old, new in edits.items():
        assert old in text
        text = text.replace(old, new)
    path = tmp_path / "edited.conf"
    path.write_text(text, encoding="utf-8")
    return str(path)


def read_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class TestValidateConfig:
    def test_valid(self, config_path, capsys):
        code, out, _ = run_cli(["validate-config", "--config", config_path], capsys)
        assert code == 0
        assert out.startswith("ok")

    @pytest.mark.parametrize("command", [
        ["validate-config"],
        ["scan", "--sweep", "gamma:0:pi:3", "--quantities", "P_D1"],
    ])
    def test_non_finite_number_is_config_error(self, tmp_path, capsys, command):
        path = tmp_path / "nan.conf"
        path.write_text(MINIMAL.replace("system.phi = 0", "system.phi = 1e999 - 1e999"),
                        encoding="utf-8")
        code, _, err = run_cli([*command, "--config", str(path)], capsys)
        assert code == 2
        assert "not finite" in err

    def test_invalid(self, tmp_path, capsys):
        path = tmp_path / "bad.conf"
        path.write_text(MINIMAL + "detector.qpc1.theta = 0.1\n", encoding="utf-8")
        code, _, err = run_cli(["validate-config", "--config", str(path)], capsys)
        assert code == 2
        assert "exactly one of T or theta" in err

    @pytest.mark.parametrize("key", ["detector.qpc1.chi", "detector.qpc1.xi", "system.qpc1.chi",
                                     "system.qpc1.xi"])
    def test_first_qpc_phase_is_unknown_key(self, tmp_path, capsys, key):
        # a first QPC's scattering phases enter only through phi
        path = tmp_path / "phase.conf"
        path.write_text(MINIMAL + f"{key} = 0.3\n", encoding="utf-8")
        code, out, err = run_cli(["validate-config", "--config", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err == f"config error: line 9: unknown key '{key}'\n"

    def test_missing_file(self, tmp_path, capsys):
        code, _, err = run_cli(["validate-config", "--config", str(tmp_path / "nope.conf")], capsys)
        assert code == 2


class TestScan:
    def test_grid_builds_the_detector_bundle_once(self, monkeypatch, capsys):
        argv = ["scan", "--config", str(CONFIGS / "strong_measurement.conf"),
                "--sweep", "gamma:0.1:3:11",
                "--quantities", "alpha_D1,alpha_D2,cond_avg_S1,cond_avg_S2"]
        expected = run_cli(argv, capsys)
        calls, original = [], conditioning.detector_params
        monkeypatch.setattr(conditioning, "detector_params", lambda *a: calls.append(a) or original(*a))
        assert run_cli(argv, capsys) == expected
        assert expected[0] == 0 and len(calls) == 1

    def test_gamma_sweep_contextual_values(self, config_path, capsys):
        code, out, _ = run_cli(
            [
                "scan", "--config", config_path,
                "--sweep", "gamma:0:2*pi:9",
                "--quantities", "alpha_D1,alpha_D2",
            ],
            capsys,
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["gamma", "alpha_D1", "alpha_D2"]
        assert len(rows) == 9
        by_gamma = {float(row[0]): row for row in rows}
        quarter = by_gamma[min(by_gamma, key=lambda g: abs(g - math.pi / 2))]
        assert float(quarter[1]) == pytest.approx(-1.0, abs=1e-12)
        assert float(quarter[2]) == pytest.approx(3.0, abs=1e-12)
        # at gamma = 0 and gamma = pi (with phi_d = pi/2) the measurement
        # is completely ambiguous: the sentinel token appears
        assert by_gamma[0.0][1] == "inf-ambiguous"
        mid = by_gamma[min(by_gamma, key=lambda g: abs(g - math.pi))]
        assert mid[1] == "inf-ambiguous"

    def test_zero_visibility_is_ambiguous(self, tmp_path, capsys):
        # a closed detector QPC leaves no interference: V = 0 at every point
        path = tmp_path / "closed.conf"
        path.write_text(MINIMAL.replace("detector.qpc1.T = 0.5", "detector.qpc1.T = 1"),
                        encoding="utf-8")
        code, out, _ = run_cli(
            ["scan", "--config", str(path), "--sweep", "gamma:0:pi:5",
             "--quantities", "alpha_D1,cond_avg_S2"],
            capsys,
        )
        assert code == 0
        _, rows = read_csv(out)
        assert {cell for row in rows for cell in row[1:]} == {"inf-ambiguous"}

    def test_erasure_quantities_via_scan(self, config_path, capsys):
        code, out, _ = run_cli(
            [
                "scan", "--config", config_path,
                "--sweep", "phi_s:0:2*pi:33",
                "--quantities", "P_S1,P_S1_given_D1",
            ],
            capsys,
        )
        assert code == 0
        _, rows = read_csv(out)
        p_s1 = np.array([float(r[1]) for r in rows])
        p_cond = np.array([float(r[2]) for r in rows])
        assert p_s1.max() - p_s1.min() < 1e-12  # unconditioned fringe destroyed
        assert p_cond.max() == pytest.approx(1.0, abs=1e-12)
        assert p_cond.min() == pytest.approx(0.0, abs=1e-12)

    def test_sigma_sweep_eta(self, config_path, capsys):
        code, out, _ = run_cli(
            [
                "scan", "--config", config_path,
                "--sweep", "sigma:0:pi:7",
                "--quantities", "eta",
            ],
            capsys,
        )
        assert code == 0
        _, rows = read_csv(out)
        etas = [float(r[1]) for r in rows]
        assert etas[0] == 1.0
        assert etas[-1] == 0.5
        assert all(a > b for a, b in zip(etas, etas[1:]))

    def test_delta_sweep_probabilities(self, config_path, capsys):
        code, out, _ = run_cli(
            [
                "scan", "--config", config_path,
                "--sweep", "delta_s1:-1:1:5",
                "--quantities", "P_D1,P_D2,concurrence",
            ],
            capsys,
        )
        assert code == 0
        _, rows = read_csv(out)
        for row in rows:
            assert float(row[1]) + float(row[2]) == pytest.approx(1.0, abs=1e-12)
        # concurrence peaks for the balanced system QPC (delta_s1 = 0)
        conc = [float(r[3]) for r in rows]
        assert conc[2] == max(conc)

    def test_unknown_quantity(self, config_path, capsys):
        code, _, err = run_cli(
            ["scan", "--config", config_path, "--sweep", "gamma:0:pi:3",
             "--quantities", "P_D7"],
            capsys,
        )
        assert code == 2
        assert "unknown quantity" in err

    def test_unknown_sweep_parameter(self, config_path, capsys):
        code, _, err = run_cli(
            ["scan", "--config", config_path, "--sweep", "voltage:0:1:3",
             "--quantities", "P_D1"],
            capsys,
        )
        assert code == 2

    @pytest.mark.parametrize("sweep", [
        "gamma:-1:1:3",
        # just outside the exact domains that the coupling model and the QPCs enforce
        "gamma:-1e-13:1:3",
        "delta_s1:-1.0000000000001:0:3",
        "sigma:0:3.1415926535898:3",
    ])
    def test_sweep_domain_checked(self, config_path, capsys, sweep):
        code, _, err = run_cli(
            ["scan", "--config", config_path, "--sweep", sweep, "--quantities", "P_D1"],
            capsys,
        )
        assert code == 2
        assert "domain" in err

    def test_sweep_bound_beyond_float_range(self, config_path, capsys):
        code, out, err = run_cli(
            ["scan", "--config", config_path, "--sweep", f"phi_d:0:{'9' * 400}:3",
             "--quantities", "P_D1"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert "not finite" in err

    def test_post_selection_impossible_exit_code(self, tmp_path, capsys):
        # deterministic lower system path with an unambiguous strong
        # detector: D1 is perfectly dark, conditioning on it is impossible
        text = MINIMAL.replace("detector.phi = pi/2", "detector.phi = 0")
        text = text.replace("system.qpc1.T = 0.5", "system.qpc1.T = 1.0")
        path = tmp_path / "dark.conf"
        path.write_text(text, encoding="utf-8")
        code, _, err = run_cli(
            ["scan", "--config", str(path), "--sweep", "phi_s:0:pi:3",
             "--quantities", "P_S1_given_D1"],
            capsys,
        )
        assert code == 4
        assert "D1" in err

    @pytest.mark.parametrize("command, code", [
        (["erasure", "--sweep", "phi_s:0:pi:3"], 0),
        (["scan", "--sweep", "phi_s:0:pi:3", "--quantities", "P_S1_given_D1"], 0),
        (["scan", "--sweep", "phi_s:0:pi:3", "--quantities", "P_D1_given_S1"], 4),
    ])
    def test_conditions_only_on_the_divisor_marginal(self, tmp_path, capsys, command, code):
        # without coupling, P_S1 = 0 at phi_s = 0 while both detector drains stay lit
        path = tmp_path / "uncoupled.conf"
        text = (CONFIGS / "erasure.conf").read_text(encoding="utf-8")
        path.write_text(text.replace("coupling.gamma = pi", "coupling.gamma = 0"), encoding="utf-8")
        exit_code, out, err = run_cli([*command, "--config", str(path)], capsys)
        assert exit_code == code
        if code == 4:
            assert "S1" in err and out == ""
        else:
            assert len(read_csv(out)[1]) == 3

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.conf")), ids=lambda p: p.name)
    def test_shipped_configs_inside_low_bias_regime(self, path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, _ = run_cli(
                ["scan", "--config", str(path), "--sweep", "gamma:0:pi:3",
                 "--quantities", "S_D1S1"],
                capsys,
            )
        assert code == 0

    def test_byte_identical_reruns(self, config_path, tmp_path, capsys):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        args = ["scan", "--config", config_path, "--sweep", "gamma:0:2*pi:17",
                "--quantities", "P_D1,P_S1,cond_avg_S1,alpha_D1"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


@st.composite
def fluctuating_decks(draw):
    """Config text of a random experiment with a fluctuating coupling:
    ``sigma`` in (0, pi], ``pair_probability`` in (0, 1], and a drawn observable."""
    fraction, angle = st.floats(0.01, 0.99), st.floats(-math.pi, math.pi)
    lines = []
    for mzi in ("detector", "system"):
        lines += [f"{mzi}.qpc1.T = {draw(fraction)!r}", f"{mzi}.qpc2.T = {draw(fraction)!r}",
                  f"{mzi}.qpc2.chi = {draw(angle)!r}", f"{mzi}.qpc2.xi = {draw(angle)!r}",
                  f"{mzi}.phi = {draw(angle)!r}"]
    lines += [f"coupling.gamma = {draw(st.floats(0.0, 2 * math.pi))!r}",
              f"coupling.sigma = {draw(st.floats(0.0, math.pi, exclude_min=True))!r}",
              f"coupling.pair_probability = {draw(st.floats(0.0, 1.0, exclude_min=True))!r}",
              f"observable.a0 = {draw(st.floats(-10.0, 10.0))!r}",
              f"observable.a3 = {draw(st.floats(-10.0, 10.0))!r}"]
    return "\n".join(lines) + "\n"


IDENTITY_SWEEPS = ("gamma:0:2*pi:9", "phi_d:-pi:pi:9", "phi_s:0:2*pi:9", "delta_s1:-1:1:9", "sigma:0:pi:9")


@settings(max_examples=100, deadline=None)
@given(text=fluctuating_decks(), sweep=st.sampled_from(IDENTITY_SWEEPS))
@example(text=GOLDEN_CONFIG.read_text(encoding="utf-8"), sweep="sigma:0:3:5")
def test_drain_data_give_the_which_path_average(text, sweep):
    """``alpha_D1 P_D1 + alpha_D2 P_D2 = a0 + a3 delta_1^s`` in every
    informative row of one scan, and so does the average of the conditioned
    averages over the system drains: all columns are one experiment."""
    names = "alpha_D1,alpha_D2,P_D1,P_D2,P_S1,P_S2,cond_avg_S1,cond_avg_S2"
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "drawn.conf"
        path.write_text(text, encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["scan", "--config", str(path), "--sweep", sweep, "--quantities", names])
        config = load_config(str(path))
    assume(code != 4)  # a vanishing post-selection has no conditioned average
    assert code == 0
    parameter = sweep.split(":")[0]
    _, rows = read_csv(out.getvalue())
    for row in rows:
        assert (row[1] == "inf-ambiguous") == (row[7] == "inf-ambiguous") == (row[8] == "inf-ambiguous")
        if row[1] == "inf-ambiguous":
            continue
        a1, a2, p_d1, p_d2, p_s1, p_s2, c1, c2 = map(float, row[1:])
        point = swept(config, parameter, float(row[0]))
        expected = point.observable.a0 + point.observable.a3 * point.system.qpc1.delta
        tolerance = 1e-12 * max(1.0, abs(a1), abs(a2))
        assert a1 * p_d1 + a2 * p_d2 == pytest.approx(expected, abs=tolerance), row
        assert p_s1 * c1 + p_s2 * c2 == pytest.approx(expected, abs=tolerance), row


class TestMontecarlo:
    @staticmethod
    def counted_calls(config: Path, capsys, subcommand=("montecarlo", "--n", "1000", "--seed", "3")) -> dict:
        """How often one run of ``subcommand`` on ``config`` calls the bundle,
        the damping factor and the table; counting leaves its output as it was."""
        argv = [subcommand[0], "--config", str(config), *subcommand[1:]]
        expected = run_cli(argv, capsys)
        calls = dict.fromkeys(("detector_params", "damping_eta", "joint_probability_table"), 0)
        with pytest.MonkeyPatch.context() as monkeypatch:
            for name in calls:
                original = getattr(scattering if name == "joint_probability_table" else params, name)

                def counted(*args, name=name, original=original):
                    calls[name] += 1
                    return original(*args)

                for module in (cli, conditioning, measurement, scattering, stochastic):
                    if getattr(module, name, None) is original:
                        monkeypatch.setattr(module, name, counted)
            assert run_cli(argv, capsys) == expected
        assert expected[0] == 0
        return calls

    def test_run_builds_the_averaged_bundles_once(self, capsys):
        # the averaged detector bundle, and the mixture of the tables at gamma, pi and 0,
        # which read one damping factor
        assert self.counted_calls(GOLDEN_CONFIG, capsys) == {
            "detector_params": 1, "damping_eta": 1, "joint_probability_table": 3}
        # povm prints the damping factor and reads the averaged bundle: one eta for both
        assert self.counted_calls(GOLDEN_CONFIG, capsys, ("povm",)) == {
            "detector_params": 1, "damping_eta": 1, "joint_probability_table": 0}
        # no fluctuations: the table at gamma alone
        assert self.counted_calls(CONFIGS / "strong_measurement.conf", capsys) == {
            "detector_params": 1, "damping_eta": 1, "joint_probability_table": 1}

    def test_runs_read_the_loaded_config_as_the_experiment(self):
        config = load_config(str(GOLDEN_CONFIG))
        assert isinstance(config, conditioning.AveragedExperiment)
        cli.run_montecarlo(config, 100, 1)
        cli.run_povm(config)
        # the parts each run read were built on the config itself, once for both runs
        assert {"stats", "bundle", "eta", "fringes", "alphas"} <= vars(config).keys()
        # and they take no part in equality
        assert config == load_config(str(GOLDEN_CONFIG))

    def test_event_cap_runs_in_constant_time(self, capsys):
        # the tally draws four counts, so 2**53 events cost what 1000 do; 2 s leaves a wide margin
        argv = ["montecarlo", "--config", str(CONFIGS / "strong_measurement.conf"), "--seed", "7"]
        start = time.perf_counter()
        code, out, err = run_cli([*argv, "--n", str(2**53)], capsys)
        assert time.perf_counter() - start < 2.0
        assert (code, err) == (0, "")
        header, rows = read_csv(out)
        assert rows[0][header.index("n")] == str(2**53)
        assert all(math.isfinite(float(rows[0][header.index(name)]))
                   for name in ("estimate", "empirical_variance", "predicted_mse", "mse_upper_bound"))
        code, out, err = run_cli([*argv, "--n", str(2**53 + 1)], capsys)
        assert (code, out) == (2, "")
        assert err == f"config error: the request does not fit in memory: {2**53 + 1} events\n"

    def test_count_beyond_a_c_long_is_config_error(self, capsys, monkeypatch):
        # the legacy binomial takes a C long; where that is 32 bits (Windows), 2**31 events
        # would end in numpy's OverflowError, so the bound is set to that platform's here
        monkeypatch.setattr(cli, "_MAX_BINOMIAL", 2**31 - 1)
        argv = ["montecarlo", "--config", str(CONFIGS / "strong_measurement.conf"), "--seed", "7"]
        code, out, err = run_cli([*argv, "--n", str(2**31 - 1)], capsys)
        assert (code, err) == (0, "")
        header, rows = read_csv(out)
        assert rows[0][header.index("n")] == str(2**31 - 1)
        assert run_cli([*argv, "--n", str(2**31)], capsys) == (
            2, "", f"config error: --n must be at most {2**31 - 1}, numpy's C long on this platform\n")

    def test_single_event_is_one_contextual_value(self, tmp_path, capsys):
        path = tmp_path / "exp.conf"
        path.write_text(MINIMAL.replace("coupling.gamma = pi", "coupling.gamma = pi/2"),
                        encoding="utf-8")
        code, out, _ = run_cli(
            ["montecarlo", "--config", str(path), "--n", "1", "--seed", "3"],
            capsys,
        )
        assert code == 0
        header, rows = read_csv(out)
        estimate = float(rows[0][header.index("estimate")])
        assert estimate in (pytest.approx(-1.0), pytest.approx(3.0))

    def test_budget_reports_observation_bound(self, tmp_path, capsys):
        text = MINIMAL.replace("detector.phi = pi/2", "detector.phi = 0") + (
            "budget.path_length = 1e-5\n"
            "budget.fermi_velocity = 1e5\n"
            "budget.target_rms = 0.1\n"
        )
        path = tmp_path / "budget.conf"
        path.write_text(text, encoding="utf-8")
        code, out, _ = run_cli(
            ["montecarlo", "--config", str(path), "--n", "100", "--seed", "1"],
            capsys,
        )
        assert code == 0
        header, rows = read_csv(out)
        required = float(rows[0][header.index("required_events")])
        assert required == pytest.approx(200.0, rel=1e-12)
        time_s = float(rows[0][header.index("observation_time_s")])
        assert time_s == pytest.approx(200.0 * 1e-10, rel=1e-12)

    @pytest.mark.parametrize("edits", [
        pytest.param({"target_rms = 0.1": "target_rms = 1e-300"}, id="rms-squared-underflows"),
        pytest.param({"path_length = 1e-5": "path_length = 1e300",
                      "fermi_velocity = 1e5": "fermi_velocity = 1e-300"}, id="infinite-tau"),
        pytest.param({"target_rms = 0.1": "target_rms = 1e-100\nobservable.a3 = 1e100"},
                     id="alpha-squared-overflows-time"),
    ])
    def test_non_finite_observation_time_is_config_error(self, tmp_path, capsys, edits):
        text = (CONFIGS / "strong_measurement.conf").read_text(encoding="utf-8")
        for old, new in edits.items():
            assert old in text
            text = text.replace(old, new)
        path = tmp_path / "budget.conf"
        path.write_text(text, encoding="utf-8")
        code, out, err = run_cli(
            ["montecarlo", "--config", str(path), "--n", "10", "--seed", "1"], capsys
        )
        assert code == 2
        assert out == ""
        assert "config error: budget:" in err

    def test_deterministic_given_seed(self, tmp_path, capsys):
        path = tmp_path / "exp.conf"
        path.write_text(MINIMAL.replace("coupling.gamma = pi", "coupling.gamma = pi/2"),
                        encoding="utf-8")
        out1 = tmp_path / "r1.csv"
        out2 = tmp_path / "r2.csv"
        args = ["montecarlo", "--config", str(path), "--n", "500", "--seed", "11"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_ambiguous_config_exit_code(self, tmp_path, capsys):
        path = tmp_path / "ambiguous.conf"
        path.write_text(MINIMAL.replace("coupling.gamma = pi", "coupling.gamma = 0"),
                        encoding="utf-8")
        code, _, err = run_cli(
            ["montecarlo", "--config", str(path), "--n", "10", "--seed", "1"],
            capsys,
        )
        assert code == 3
        assert "ambiguous" in err.lower()

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    def test_seed_outside_64_bits_is_config_error(self, config_path, capsys, seed):
        code, out, err = run_cli(
            ["montecarlo", "--config", config_path, "--n", "10", f"--seed={seed}"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert "--seed" in err

    def test_fluctuating_coupling_runs(self, tmp_path, capsys):
        text = WEAK_VALUE_CONFIG + "coupling.sigma = pi/4\n"
        path = tmp_path / "fluct.conf"
        path.write_text(text, encoding="utf-8")
        code, out, _ = run_cli(
            ["montecarlo", "--config", str(path), "--n", "2000", "--seed", "5"],
            capsys,
        )
        assert code == 0
        header, rows = read_csv(out)
        assert rows[0][header.index("rng_algorithm")] == "philox4x64"


    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("edits", [
        pytest.param({"coupling.sigma": "0.5"}, id="sigma-0.5"),
        pytest.param({"coupling.sigma": "2"}, id="sigma-2"),
        pytest.param({"coupling.sigma": "2", "coupling.pair_probability": "0.7"},
                     id="sigma-2-p-0.7"),
        pytest.param({"detector.phi": "0.7", "coupling.sigma": "1.5",
                      "coupling.pair_probability": "0.8"}, id="phi_d-0.7-sigma-1.5-p-0.8"),
    ])
    def test_fluctuating_estimate_is_unbiased(self, tmp_path, capsys, edits, seed):
        # the ambiguous config at delta_s1 = 0.6; predicted_mse is the exact
        # MSE of the averaged drain probabilities
        edits = {"system.qpc1.T": "0.8", **edits}
        lines = [line for line in (CONFIGS / "ambiguous_measurement.conf").read_text(
            encoding="utf-8").splitlines() if line.split(" = ")[0] not in edits]
        path = tmp_path / "fluct.conf"
        path.write_text("\n".join(lines + [f"{k} = {v}" for k, v in edits.items()]) + "\n",
                        encoding="utf-8")
        code, out, _ = run_cli(
            ["montecarlo", "--config", str(path), "--n", "400000", "--seed", str(seed)], capsys
        )
        assert code == 0
        header, rows = read_csv(out)
        row = {name: float(value) for name, value in zip(header, rows[0])
               if name in ("estimate", "empirical_variance", "predicted_mse")}
        assert abs(row["estimate"] - 0.6) <= 5.0 * math.sqrt(row["predicted_mse"])
        assert row["empirical_variance"] == pytest.approx(row["predicted_mse"], rel=0.05)

    @pytest.mark.parametrize("budget", [True, False], ids=["with-budget", "without-budget"])
    def test_non_finite_report_is_config_error(self, tmp_path, capsys, budget):
        # alpha = +-1e200: the squares overflow to inf instead of raising
        text = (CONFIGS / "strong_measurement.conf").read_text(encoding="utf-8")
        if not budget:
            text = "\n".join(line for line in text.splitlines() if not line.startswith("budget."))
        path = tmp_path / "huge.conf"
        path.write_text(text + "\nobservable.a3 = 1e200\n", encoding="utf-8")
        code, out, err = run_cli(
            ["montecarlo", "--config", str(path), "--n", "100", "--seed", "1"], capsys
        )
        assert code == 2
        assert out == ""
        assert "config error: observable: the estimator report is not a finite number" in err


def parsed(parse, argv):
    """stdout, stderr and the exit code or the parsed namespace of ``parse(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(argv))
        except SystemExit as exc:
            result = exc.code
    return out.getvalue(), err.getvalue(), result


PARSER_VALUES = st.sampled_from(["x.conf", "7", "0", "-1", "1_0", " 7", "", "ten", "2**64", "-", "--",
                                 "18446744073709551616", "gamma:0:1:3", "P_D1", "-h"]) | st.text(max_size=3)


@st.composite
def parser_argvs(draw):
    """A subcommand and words drawn around its options: exact flags, their
    abbreviations, other commands' flags, ``--flag=value``, repeats, stray
    words and missing required options, with values that argparse reads
    differently from a plain word."""
    command = draw(st.sampled_from(sorted(cli._parsers()[1])))
    own = sorted(cli._parsers()[1][command])
    flag = st.sampled_from([*own, *(f[:k] for f in own for k in range(3, len(f))), "--seed", "--quantities"])
    word = st.one_of(
        st.tuples(flag, PARSER_VALUES).map(list),
        st.tuples(flag, PARSER_VALUES).map(lambda pair: ["=".join(pair)]),
        st.one_of(flag, PARSER_VALUES).map(lambda w: [w]),
    )
    pairs = [[f, draw(PARSER_VALUES)] for f in own]
    chosen = draw(st.permutations(pairs) | st.lists(st.sampled_from(pairs), max_size=len(pairs) + 1))
    extra = draw(st.just([]) | st.lists(word, min_size=1, max_size=2))
    words = [w for group in draw(st.permutations(chosen + extra)) for w in group]
    return [command, *words]


class TestParser:
    def test_built_once(self):
        assert cli._parsers() is cli._parsers()

    @pytest.mark.parametrize("argv", [
        [],
        ["bogus", "--config", "x.conf"],
        ["-h"],
        ["montecarlo", "--config", "x.conf", "--n", "ten"],
        ["montecarlo", "--config", "x.conf", "--seed=-1"],
        ["montecarlo", "--config", "x.conf", "stray"],
        ["validate-config", "--config", "x.conf", "--out", "y.csv"],
        ["scan", "--sweep", "gamma:0:1:3", "--quantities", "P_D1"],
        ["montecarlo", "--conf", "x.conf"],
        ["montecarlo", "-h"],
        ["povm", "--config", "x.conf", "--", "stray"],
        ["--", "povm", "--config", "x.conf"],
        ["erasure", "--config", "x.conf"],
    ], ids=["empty", "unknown-subcommand", "top-help", "non-integer-n", "negative-seed",
            "stray-word", "unknown-option", "missing-config", "abbreviated-option",
            "subcommand-help", "stray-after-dashes", "dashes-first", "defaults"])
    def test_subcommand_parser_gives_the_top_level_bytes(self, argv):
        oracle = parsed(cli._parsers()[0].parse_args, argv)
        assert parsed(cli._parse_args, argv) == oracle

    @settings(max_examples=300, deadline=None)
    @given(argv=parser_argvs())
    @example(argv=["montecarlo", "--config", "x.conf", "--seed", "7", "--n", "1_0"])
    @example(argv=["montecarlo", "--out", "", "--config", "x.conf", "--n", " 7"])
    @example(argv=["montecarlo", "--config", "x.conf", "--n", "-1"])
    @example(argv=["montecarlo", "--config", "x.conf", "--config", "y.conf"])
    @example(argv=["scan", "--config", "x.conf", "--sweep", "gamma:0:1:3"])
    @example(argv=["erasure", "--config=x.conf"])
    def test_plain_argv_path_gives_the_argparse_result(self, argv):
        oracle = parsed(cli._parsers()[0].parse_args, argv)
        assert parsed(cli._parse_args, argv) == oracle

    def test_exact_pairs_skip_argparse(self):
        args = cli._plain_args("montecarlo", ["--n", " 7", "--config", "x.conf"])
        assert vars(args) == {"command": "montecarlo", "config": "x.conf", "out": None, "seed": 0, "n": 7}
        assert vars(args) == vars(cli._parsers()[0].parse_args(["montecarlo", "--n", " 7", "--config", "x.conf"]))
        for words in (["--config", "x.conf", "--n"], ["--config", "-x.conf"], ["--conf", "x.conf"],
                      ["--config=x.conf"], ["--config", "x", "--config", "y"], ["--n", "7"],
                      ["--config", "x.conf", "--n", "ten"]):
            assert cli._plain_args("montecarlo", words) is None, words

    def test_usage_error_then_valid_call(self, config_path, capsys):
        for _ in range(2):
            with pytest.raises(SystemExit) as exit_info:
                main(["montecarlo", "--config", config_path, "--n", "ten"])
            assert exit_info.value.code == 2
            assert "invalid int value: 'ten'" in capsys.readouterr().err
            code, out, _ = run_cli(["validate-config", "--config", config_path], capsys)
            assert code == 0
            assert out.startswith("ok")


class TestPovm:
    def test_summary_rows(self, config_path, capsys):
        code, out, _ = run_cli(["povm", "--config", config_path], capsys)
        assert code == 0
        rows = dict((r[0], r[1]) for r in list(csv.reader(io.StringIO(out)))[1:])
        assert float(rows["visibility"]) == pytest.approx(1.0)
        # phi_d = pi/2 at gamma = pi: completely ambiguous
        assert rows["alpha_D1"] == "inf-ambiguous"
        assert float(rows["E_D1_LL"]) + float(rows["E_D2_LL"]) == pytest.approx(1.0, abs=1e-12)

    def test_finite_values(self, tmp_path, capsys):
        path = tmp_path / "exp.conf"
        path.write_text(MINIMAL.replace("detector.phi = pi/2", "detector.phi = 0"),
                        encoding="utf-8")
        code, out, _ = run_cli(["povm", "--config", str(path)], capsys)
        rows = dict((r[0], r[1]) for r in list(csv.reader(io.StringIO(out)))[1:])
        assert float(rows["alpha_D1"]) == pytest.approx(-1.0)
        assert float(rows["alpha_D2"]) == pytest.approx(1.0)


class TestErasure:
    def test_fringe_columns(self, config_path, capsys):
        code, out, _ = run_cli(
            ["erasure", "--config", config_path, "--sweep", "phi_s:0:2*pi:65"],
            capsys,
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["phi_s", "P_S1", "P_S1_given_D1", "P_S1_given_D2"]
        p_s1 = np.array([float(r[1]) for r in rows])
        cond = np.array([float(r[2]) for r in rows])
        anti = np.array([float(r[3]) for r in rows])
        assert p_s1.max() - p_s1.min() < 1e-12
        # complementary fringes: the two conditionals average back to flat
        assert np.max(np.abs((cond + anti) / 2.0 - p_s1)) < 1e-12

    def test_rejects_other_parameters(self, config_path, capsys):
        code, _, err = run_cli(
            ["erasure", "--config", config_path, "--sweep", "gamma:0:1:5"],
            capsys,
        )
        assert code == 2


class TestInteractionPhase:
    def test_reports_target_phase(self, tmp_path, capsys):
        text = MINIMAL + (
            "geometry.interaction_length = 5e-6\n"
            "geometry.channel_separation = 50e-9\n"
            "geometry.screening_length = 100e-9\n"
            "geometry.speed = 1e5\n"
            "geometry.target_gamma = pi\n"
            "bias.voltage = 10e-6\n"
            "bias.fermi_energy = 10e-3\n"
            "bias.temperature = 0.02\n"
        )
        path = tmp_path / "geom.conf"
        path.write_text(text, encoding="utf-8")
        code, out, _ = run_cli(["interaction-phase", "--config", str(path)], capsys)
        assert code == 0
        rows = dict((r[0], r[1]) for r in list(csv.reader(io.StringIO(out)))[1:])
        assert float(rows["coupling_phase"]) == pytest.approx(math.pi, rel=1e-12)
        assert float(rows["dynamical_phase_pair"]) == pytest.approx(
            2.0 * float(rows["dynamical_phase_single"]), rel=1e-12
        )

    def test_unrealized_target_phase_is_config_error(self, tmp_path, capsys):
        # the solved constant underflows: the geometry would give coupling phase 0
        text = MINIMAL + (
            "geometry.interaction_length = 1e300\n"
            "geometry.channel_separation = 50e-9\n"
            "geometry.screening_length = 100e-9\n"
            "geometry.speed = 1e5\n"
            "geometry.target_gamma = 2.2\n"
        )
        path = tmp_path / "geom.conf"
        path.write_text(text, encoding="utf-8")
        code, out, err = run_cli(["interaction-phase", "--config", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert "config error: geometry:" in err

    def test_requires_geometry(self, config_path, capsys):
        code, _, err = run_cli(["interaction-phase", "--config", config_path], capsys)
        assert code == 2
        assert "geometry" in err

    @pytest.mark.parametrize("section, edits", [
        pytest.param("geometry", {"screening_length = 100e-9": "screening_length = 0.04e-9"},
                     id="exp-overflow"),
        pytest.param("geometry", {"separation = 50e-9": "separation = 1e300",
                                  "screening_length = 100e-9": "screening_length = 1e-300"},
                     id="infinite-constant"),
        pytest.param("geometry", {"separation = 50e-9": "separation = 1e-300",
                                  "target_gamma = 2.2": "coulomb_constant = 1e300"},
                     id="zero-denominator"),
        pytest.param("bias", {"fermi_energy = 10e-3": "fermi_energy = -10e-3"},
                     id="negative-fermi-energy"),
        pytest.param("bias", {"temperature = 0.02": "temperature = -0.02"},
                     id="negative-temperature"),
    ])
    @pytest.mark.parametrize("command", ["validate-config", "interaction-phase"])
    def test_out_of_domain_is_config_error(self, tmp_path, capsys, section, edits, command):
        path = edited_golden(tmp_path, edits)
        code, out, err = run_cli([command, "--config", path], capsys)
        assert code == 2
        assert out == ""
        assert f"config error: {section}:" in err

    @pytest.mark.parametrize("edits", [
        pytest.param({"speed = 1e5": "speed = 1e-300"}, id="zero-denominator"),
        pytest.param({"interaction_length = 5e-6": "interaction_length = 1e300"}, id="overflow"),
    ])
    def test_non_finite_dynamical_phase_is_config_error(self, tmp_path, capsys, edits):
        # a vanishing coulomb constant keeps the coupling phase finite
        path = edited_golden(tmp_path, {"target_gamma = 2.2": "coulomb_constant = 1e-300", **edits})
        assert run_cli(["validate-config", "--config", path], capsys)[0] == 0
        code, out, err = run_cli(["interaction-phase", "--config", path], capsys)
        assert code == 2
        assert out == ""
        assert "dynamical phase" in err

    def test_overflowing_dynamical_phase_keeps_its_message(self, tmp_path, capsys):
        path = tmp_path / "erasure.conf"
        text = (CONFIGS / "erasure.conf").read_text(encoding="utf-8")
        path.write_text(text.replace("bias.fermi_energy = 10e-3", "bias.fermi_energy = 1e308"), encoding="utf-8")
        assert run_cli(["interaction-phase", "--config", str(path)], capsys) == (
            2, "", "config error: bias and geometry: the dynamical phase is not a finite number\n")

    def test_finite_single_phase_whose_pair_overflows_is_config_error(self, tmp_path, capsys):
        # 1e303 eV gives a single-particle phase of 1.5e308 rad, finite, and a pair phase that is not
        path = tmp_path / "erasure.conf"
        text = (CONFIGS / "erasure.conf").read_text(encoding="utf-8")
        path.write_text(text.replace("bias.fermi_energy = 10e-3", "bias.fermi_energy = 1e303"), encoding="utf-8")
        assert run_cli(["interaction-phase", "--config", str(path)], capsys) == (
            2, "", "config error: bias and geometry: the dynamical phase is not a finite number\n")

    def test_fermi_energy_whose_joules_underflow_is_config_error(self, tmp_path, capsys):
        # e * 1e-310 eV is zero joules: the dynamical phase names its rule, not a traceback
        path = tmp_path / "erasure.conf"
        text = (CONFIGS / "erasure.conf").read_text(encoding="utf-8")
        path.write_text(text.replace("bias.fermi_energy = 10e-3", "bias.fermi_energy = 1e-310"), encoding="utf-8")
        assert run_cli(["interaction-phase", "--config", str(path)], capsys) == (
            2, "", "config error: bias and geometry: energy and velocity must be positive\n")


@pytest.mark.parametrize("command, line", [
    (["scan", "--sweep", "voltage:0:1:3", "--quantities", "P_D1"],
     "unknown sweep parameter 'voltage'; choose from gamma, phi_d, phi_s, delta_s1, sigma"),
    (["scan", "--sweep", "gamma:0:1:1", "--quantities", "P_D1"], "sweep needs at least 2 grid points"),
    (["erasure", "--sweep", "phi_s:0:1:1"], "sweep needs at least 2 grid points"),
    (["scan", "--sweep", "gamma:1:1:3", "--quantities", "P_D1"], "sweep minimum must be below maximum"),
    (["scan", "--sweep", "gamma:0:1", "--quantities", "P_D1"], "--sweep expects NAME:MIN:MAX:COUNT"),
    (["scan", "--sweep", "gamma:0:1:2.5", "--quantities", "P_D1"], "sweep count '2.5' is not an integer"),
    (["scan", "--sweep", "gamma:0:1:3", "--quantities", ","], "--quantities must name at least one quantity"),
    (["scan", "--sweep", "gamma:0:1:3", "--quantities", "P_D1,P_D7"],
     f"unknown quantity 'P_D7'; choose from {', '.join(cli.QUANTITIES)}"),
    (["erasure", "--sweep", "gamma:0:1:5"], "erasure sweeps phi_s only"),
    (["montecarlo", "--n", "0"], "--n must be at least 1"),
    (["montecarlo", "--seed", "18446744073709551616"],
     "--seed must be a 64-bit unsigned integer in [0, 2**64)"),
], ids=["unknown-parameter", "scan-count-1", "erasure-count-1", "empty-range", "malformed-sweep",
        "count-not-integer", "no-quantities", "unknown-quantity", "erasure-other-parameter", "n-0",
        "seed-65-bits"])
def test_request_error_is_one_config_error_line(config_path, capsys, command, line):
    code, out, err = run_cli([*command, "--config", config_path], capsys)
    assert (code, out, err) == (2, "", f"config error: {line}\n")


UNALLOCATABLE = str(10**18)  # fails inside malloc at once; no count that really allocates


@pytest.mark.parametrize("command", [
    ["scan", "--sweep", f"gamma:0:1:{UNALLOCATABLE}", "--quantities", "P_D1"],
    ["erasure", "--sweep", f"phi_s:0:1:{UNALLOCATABLE}"],
    ["montecarlo", "--n", UNALLOCATABLE],
    # counts past what numpy can index or count exactly in doubles
    ["scan", "--sweep", f"gamma:0:1:{2**63 - 1}", "--quantities", "P_D1"],
    ["scan", "--sweep", f"gamma:0:1:{'9' * 20}", "--quantities", "P_D1"],
    ["erasure", "--sweep", f"phi_s:0:1:{'9' * 20}"],
    ["montecarlo", "--n", str(2**63)],
    ["montecarlo", "--n", str(2**63 - 1)],
], ids=["scan", "erasure", "montecarlo", "scan-int64-max", "scan-20-digits", "erasure-20-digits",
        "montecarlo-2**63", "montecarlo-int64-max"])
def test_unallocatable_size_is_config_error(capsys, command):
    code, out, err = run_cli([*command, "--config", str(CONFIGS / "strong_measurement.conf")], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("config error: the request does not fit in memory: ") and err.count("\n") == 1


@pytest.mark.parametrize("call, message", [
    (lambda c: cli.run_scan(c, "voltage", 0.0, 1.0, 3, ("P_D1",)),
     "unknown sweep parameter 'voltage'; choose from gamma, phi_d, phi_s, delta_s1, sigma"),
    (lambda c: cli.run_scan(c, "gamma", 1.0, 0.0, 3, ("P_D1",)), "sweep minimum must be below maximum"),
    (lambda c: cli.run_scan(c, "gamma", 0.0, 1.0, 3, ("P_D7",)),
     f"unknown quantity 'P_D7'; choose from {', '.join(cli.QUANTITIES)}"),
    (lambda c: cli.run_erasure(c, 0.0, 1.0, 0), "sweep needs at least 2 grid points"),
    (lambda c: cli.run_erasure(c, 0.0, 1.0, 2**63),
     "the request does not fit in memory: 9223372036854775808 grid points"),
    (lambda c: cli.run_montecarlo(c, 0, 7), "--n must be at least 1"),
    (lambda c: cli.run_montecarlo(c, 10, 2**64), "--seed must be a 64-bit unsigned integer in [0, 2**64)"),
    (lambda c: cli.run_montecarlo(c, 2**63, 7), "the request does not fit in memory: 9223372036854775808 events"),
    # a float count or seed is no integer, even a whole one
    (lambda c: cli.run_scan(c, "gamma", 0.1, 1.0, 10.0, ("P_D1",)), "sweep count must be an integer, got 10.0"),
    (lambda c: cli.run_erasure(c, 0.0, 1.0, 10.0), "sweep count must be an integer, got 10.0"),
    (lambda c: cli.run_montecarlo(c, 10.0, 7), "--n must be an integer, got 10.0"),
    (lambda c: cli.run_montecarlo(c, 10, 7.0), "--seed must be an integer, got 7.0"),
    # min, max and < let a NaN bound through to the domain check or the grid
    (lambda c: cli.run_scan(c, "gamma", math.nan, 1.0, 5, ("P_D1",)), "sweep minimum nan is not a finite number"),
    (lambda c: cli.run_scan(c, "gamma", 0.0, math.nan, 5, ("P_D1",)), "sweep maximum nan is not a finite number"),
    (lambda c: cli.run_erasure(c, 0.0, math.nan, 5), "sweep maximum nan is not a finite number"),
    (lambda c: cli.run_erasure(c, math.nan, 1.0, 5), "sweep minimum nan is not a finite number"),
    (lambda c: cli.run_erasure(c, -math.inf, 1.0, 5), "sweep minimum -inf is not a finite number"),
], ids=["scan-parameter", "scan-range", "scan-quantity", "erasure-count", "erasure-size", "montecarlo-n",
        "montecarlo-seed", "montecarlo-size", "scan-float-count", "erasure-float-count", "montecarlo-float-n",
        "montecarlo-float-seed", "scan-nan-minimum", "scan-nan-maximum", "erasure-nan-maximum",
        "erasure-nan-minimum", "erasure-infinite-minimum"])
def test_run_function_checks_its_request(call, message):
    """A library call of a ``run_*`` function gets the CLI's check and message."""
    with pytest.raises(ConfigError) as raised:
        call(load_config(str(GOLDEN_CONFIG)))
    assert str(raised.value) == message


@pytest.mark.parametrize("command", [
    ["scan", "--sweep", "phi_d:-1e308:1e308:3", "--quantities", "P_D1"],
    ["scan", "--sweep", "phi_s:-1e308:1e308:3", "--quantities", "P_D1"],
    ["erasure", "--sweep", "phi_s:1e308:-1e308:3"],
], ids=["scan-phi_d", "scan-phi_s", "erasure"])
def test_overflowing_sweep_span_is_config_error(config_path, capsys, command):
    code, out, err = run_cli([*command, "--config", config_path], capsys)
    assert code == 2
    assert out == ""
    name, *bounds = command[2].split(":")[:3]
    lo, hi = sorted(map(float, bounds))
    assert err == (f"config error: sweep range [{lo}, {hi}] outside the valid domain "
                   f"[{-2.0**30}, {2.0**30}] of {name}\n")


@pytest.mark.parametrize("command, target", [
    (["scan", "--sweep", "gamma:0:1:3", "--quantities", "P_D1"], "missing/x.csv"),
    (["povm"], "."),
], ids=["missing-directory", "directory"])
def test_unwritable_output_is_config_error(tmp_path, capsys, command, target):
    out_path = tmp_path / target
    code, out, err = run_cli(
        [*command, "--config", str(CONFIGS / "erasure.conf"), "--out", str(out_path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"config error: cannot write output {out_path}: ")
    assert not (tmp_path / "missing").exists()


def test_config_that_is_not_utf8_is_config_error(tmp_path, capsys):
    path = tmp_path / "bad.conf"
    path.write_bytes(b"detector.qpc1.T = 0.5\xff\n")
    code, out, err = run_cli(["validate-config", "--config", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"config error: cannot read config {path}: 'utf-8' codec can't decode")


def test_config_that_is_a_directory_is_config_error(tmp_path, capsys):
    # the whole line: a reader that drops the OSError's file name changes it
    path = tmp_path / "configs"
    path.mkdir()
    code, out, err = run_cli(["validate-config", "--config", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err == f"config error: cannot read config {path}: [Errno 21] Is a directory: {str(path)!r}\n"


STRONG = (CONFIGS / "strong_measurement.conf").read_text(encoding="utf-8")
HUGE_PHASE = STRONG.replace("detector.phi = 0", "detector.phi = 5.916551538170299e+16")
# |V Gamma| = 0.06, far above the divergence threshold: the contextual values overflow
OVERFLOW = STRONG.replace("coupling.gamma = pi", "coupling.gamma = 0.5") + "\nobservable.a3 = 1e308\n"
# contextual values of the largest double, whose conditioned average can round past it
FLOAT_MAX = (STRONG.replace("coupling.gamma = pi", "coupling.gamma = 0.5")
             + "\nobservable.a0 = 1.7976931348623157e308\nobservable.a3 = 1e-300\n")


@pytest.mark.parametrize("text, argv", [
    (OVERFLOW, ["montecarlo", "--n", "10", "--seed", "0"]),
    (OVERFLOW, ["povm"]),
    (OVERFLOW, ["scan", "--sweep", "gamma:0.1:1:3", "--quantities", "alpha_D1,cond_avg_S1"]),
    (OVERFLOW, ["scan", "--sweep", "gamma:0.1:1:3", "--quantities", "cond_avg_S2"]),
    (FLOAT_MAX, ["scan", "--sweep", "phi_s:0:6:200", "--quantities", "cond_avg_S1"]),
], ids=["montecarlo", "povm", "scan", "scan-cond-avg", "scan-average-rounds-past-max"])
def test_contextual_value_beyond_float_range_is_config_error(tmp_path, capsys, text, argv):
    path = tmp_path / "overflow.conf"
    path.write_text(text, encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning either
        code, out, err = run_cli([argv[0], "--config", str(path), *argv[1:]], capsys)
    assert (code, out) == (2, "")
    assert err == "config error: observable: a contextual value is not a finite number\n"


@pytest.mark.parametrize("text, command", [
    (HUGE_PHASE, ["povm"]),
    (STRONG, ["scan", "--sweep", "phi_d:5.9e16:5.92e16:5", "--quantities", "alpha_D1"]),
    (STRONG, ["erasure", "--sweep", "phi_s:5.92e16:5.9e16:5"]),
], ids=["config-phi", "scan-phi_d", "erasure-phi_s"])
def test_tuning_phase_beyond_its_domain_is_config_error(tmp_path, capsys, text, command):
    # beyond 2**30 rad the rounding of gamma/2 + phi pushes |Delta| past 1
    path = tmp_path / "phase.conf"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli([*command, "--config", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("config error:") and "outside" in err
bound_texts = st.one_of(
    st.floats(-7.0, 7.0).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["0", "pi", "2*pi", "-pi", "1e308", "-1e308"]),
)


@st.composite
def invocations(draw):
    """A subcommand and its flags, without ``--config``."""
    command = draw(st.sampled_from(
        ["scan", "erasure", "montecarlo", "povm", "interaction-phase", "validate-config"]))
    if command in ("scan", "erasure"):
        name = "phi_s" if command == "erasure" else draw(st.sampled_from(sorted(SWEEPS)))
        sweep = f"{name}:{draw(bound_texts)}:{draw(bound_texts)}:{draw(st.integers(2, 64))}"
        argv = [command, "--sweep", sweep]
        if command == "scan":
            names = st.lists(st.sampled_from(cli.QUANTITIES), min_size=1, max_size=6, unique=True)
            argv += ["--quantities", ",".join(draw(names))]
        return argv
    if command == "montecarlo":
        return [command, "--n", str(draw(st.integers(1, 2000))),
                "--seed", str(draw(st.integers(0, 2**64 - 1)))]
    return [command]


@settings(max_examples=150, deadline=None)
@given(text=mutated_configs(), argv=invocations())
@example(text=GOLDEN, argv=["scan", "--sweep", f"gamma:0:1:{UNALLOCATABLE}", "--quantities", "P_D1"])
@example(text=GOLDEN, argv=["erasure", "--sweep", f"phi_s:0:1:{UNALLOCATABLE}"])
@example(text=GOLDEN, argv=["montecarlo", "--n", UNALLOCATABLE, "--seed", "0"])
@example(text=GOLDEN, argv=["scan", "--sweep", "phi_d:-1e308:1e308:3", "--quantities", "P_D1"])
@example(text=GOLDEN, argv=["scan", "--sweep", "phi_s:-1e308:1e308:3", "--quantities", "P_D1"])
@example(text=GOLDEN, argv=["erasure", "--sweep", "phi_s:1e308:-1e308:3"])
@example(text=STRONG.replace("target_rms = 0.1", "target_rms = 1e-300"),
         argv=["montecarlo", "--n", "100", "--seed", "1"])
@example(text=STRONG.replace("path_length = 1e-5", "path_length = 1e300")
         .replace("fermi_velocity = 1e5", "fermi_velocity = 1e-300"),
         argv=["montecarlo", "--n", "100", "--seed", "1"])
@example(text=GOLDEN.replace("interaction_length = 5e-6", "interaction_length = 1e300"),
         argv=["interaction-phase"])
@example(text=STRONG + "\nobservable.a3 = 1e200\n", argv=["montecarlo", "--n", "100", "--seed", "1"])
@example(text=HUGE_PHASE, argv=["povm"])
@example(text=OVERFLOW, argv=["povm"])
@example(text=OVERFLOW, argv=["scan", "--sweep", "gamma:0.1:1:3", "--quantities", "alpha_D1,cond_avg_S1"])
def test_every_input_ends_in_a_documented_exit_code(text, argv):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "drawn.conf"
        path.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([argv[0], "--config", str(path), *argv[1:]])
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
    if code == 0 and argv[0] != "validate-config":
        header, *rows = csv.reader(io.StringIO(out.getvalue()))
        for row in rows:
            for column, cell in zip(header, row):
                if column not in ("quantity", "rng_algorithm"):
                    assert cell == "inf-ambiguous" or math.isfinite(float(cell)), (column, cell)
