import cmath
import math

import numpy as np
import pytest

from coupled_mzi import (
    AveragedExperiment,
    CouplingModel,
    InterferometerConfig,
    JointStatistics,
    PhysicalBias,
    average_current,
    concurrence,
    cross_noise_power,
    detector_drain_amplitudes,
    joint_amplitudes,
    joint_probability_table,
    measurement_operators,
    qpc_from_transmission,
)
from coupled_mzi.params import DetectorDrain, SystemDrain
from helpers import amplitude_concurrence, balanced_mzi, random_mzi, squared_moduli
from reference import closed_form_table, qpc_unitary


def explicit_drain_amplitudes(det, sysm, gamma):
    """Oracle: the four bracketed four-term amplitude sums, written out."""
    t1d, r1d = math.sqrt(det.qpc1.transmission), 1j * math.sqrt(det.qpc1.reflection)
    t2d, r2d = math.sqrt(det.qpc2.transmission), 1j * math.sqrt(det.qpc2.reflection)
    t1s, r1s = math.sqrt(sysm.qpc1.transmission), 1j * math.sqrt(sysm.qpc1.reflection)
    t2s, r2s = math.sqrt(sysm.qpc2.transmission), 1j * math.sqrt(sysm.qpc2.reflection)
    pd, ps = det.tuning_phase, sysm.tuning_phase
    eg = cmath.exp(1j * (pd + gamma))
    ed = cmath.exp(1j * pd)
    es = cmath.exp(1j * ps)
    eds = cmath.exp(1j * (pd + ps))
    chi2d, xi2d = cmath.exp(1j * det.qpc2.chi), cmath.exp(1j * det.qpc2.xi)
    chi2s, xi2s = cmath.exp(1j * sysm.qpc2.chi), cmath.exp(1j * sysm.qpc2.xi)
    c11 = chi2d * chi2s * (r1d * r2d * r1s * r2s + t1d * t2d * r1s * r2s * eg
                           + r1d * r2d * t1s * t2s * es + t1d * t2d * t1s * t2s * eds)
    c12 = chi2d * xi2s * (r1d * r2d * r1s * t2s + t1d * t2d * r1s * t2s * eg
                          + r1d * r2d * t1s * r2s * es + t1d * t2d * t1s * r2s * eds)
    c21 = xi2d * chi2s * (r1d * t2d * r1s * r2s + t1d * r2d * r1s * r2s * eg
                          + r1d * t2d * t1s * t2s * es + t1d * r2d * t1s * t2s * eds)
    c22 = xi2d * xi2s * (r1d * t2d * r1s * t2s + t1d * r2d * r1s * t2s * eg
                         + r1d * t2d * t1s * r2s * es + t1d * r2d * t1s * r2s * eds)
    return np.array([[c11, c12], [c21, c22]])


class TestQpcUnitary:
    def test_identity_for_full_transmission(self):
        u = qpc_unitary(1.0, 0.0, 0.0)
        assert np.allclose(u, np.eye(2), atol=1e-15)

    def test_balanced_splitter(self):
        u = qpc_unitary(0.5, 0.0, 0.0)
        expected = np.array([[1.0, 1.0j], [1.0j, 1.0]]) / math.sqrt(2)
        assert np.allclose(u, expected, atol=1e-15)

    def test_unitarity_random(self, rng):
        for _ in range(200):
            u = qpc_unitary(rng.uniform(0, 1), rng.uniform(0, 7), rng.uniform(0, 7))
            assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-12


class TestConcurrence:
    @pytest.mark.parametrize("gamma", [math.inf, math.nan, np.array([0.5, math.inf]), 10**400],
                             ids=["inf", "nan", "stack-inf", "huge-int"])
    def test_non_finite_coupling_names_gamma(self, gamma):
        q = qpc_from_transmission(0.5)
        with pytest.raises(ValueError, match="^gamma .* is not a finite number$"):
            concurrence(q, q, gamma)

    def test_vanishes_without_coupling(self, rng):
        det, sysm = random_mzi(rng), random_mzi(rng)
        assert concurrence(det.qpc1, sysm.qpc1, 0.0) == 0.0

    def test_maximal_for_balanced_strong(self):
        q = qpc_from_transmission(0.5)
        assert concurrence(q, q, math.pi) == 1.0

    def test_partial_value(self):
        q_d = qpc_from_transmission(0.5)  # epsilon 1
        q_s = qpc_from_transmission(0.8)  # epsilon 0.8
        value = concurrence(q_d, q_s, math.pi / 2)
        assert value == pytest.approx(0.8 * math.sin(math.pi / 4), abs=1e-12)
        assert value == pytest.approx(0.565685, abs=1e-6)

    def test_matches_spin_flip_oracle(self, rng):
        for _ in range(300):
            det, sysm = random_mzi(rng), random_mzi(rng)
            gamma = rng.uniform(0, 2 * math.pi)
            closed = concurrence(det.qpc1, sysm.qpc1, gamma)
            brute = amplitude_concurrence(joint_amplitudes(det, sysm, gamma))
            assert closed == pytest.approx(brute, abs=1e-10)


class TestJointAmplitudes:
    def test_matches_explicit_four_term_sums(self, rng):
        for _ in range(300):
            det, sysm = random_mzi(rng), random_mzi(rng)
            gamma = rng.uniform(0, 2 * math.pi)
            c = joint_amplitudes(det, sysm, gamma)
            oracle = explicit_drain_amplitudes(det, sysm, gamma)
            assert np.max(np.abs(c - oracle)) < 1e-12

    def test_deterministic_system_path_kills_two_terms(self, rng):
        q_open = qpc_from_transmission(1.0)
        sysm = InterferometerConfig(q_open, qpc_from_transmission(0.3), 0.7)
        det = random_mzi(rng)
        gamma = 1.1
        c = joint_amplitudes(det, sysm, gamma)
        # the excitation is pinned to Ls: S1 couples through t2s, S2 through r2s
        t2s = math.sqrt(sysm.qpc2.transmission)
        r2s = math.sqrt(sysm.qpc2.reflection)
        ratio = np.abs(c[:, 1]) / np.abs(c[:, 0])
        assert np.allclose(ratio, r2s / t2s, atol=1e-12)

    def test_zero_coupling_factorizes(self, rng):
        for _ in range(50):
            det, sysm = random_mzi(rng), random_mzi(rng)
            c = joint_amplitudes(det, sysm, 0.0)
            # rank-1 table: determinant of the 2x2 amplitude matrix vanishes
            assert abs(c[0, 0] * c[1, 1] - c[0, 1] * c[1, 0]) < 1e-12

    def test_normalization(self, rng):
        for _ in range(200):
            amps = joint_amplitudes(random_mzi(rng), random_mzi(rng), rng.uniform(0, 2 * math.pi))
            assert squared_moduli(amps).sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("gamma", [0.4, np.array([0.3, 0.4, 0.5])], ids=["point", "stack"])
    def test_a_read_only_complex_array(self, gamma):
        c = joint_amplitudes(balanced_mzi(0.3), balanced_mzi(1.1), gamma)
        assert type(c) is np.ndarray and c.dtype == complex and c.shape == np.shape(gamma) + (2, 2)
        with pytest.raises(ValueError, match="read-only"):
            c[..., 0, 0] = 0.0


AMPLITUDE_CORE_CALLS = {
    "joint_probability_table": lambda det, gamma: joint_probability_table(det, det, gamma),
    "joint_amplitudes": lambda det, gamma: joint_amplitudes(det, det, gamma),
    "detector_drain_amplitudes": detector_drain_amplitudes,
    "measurement_operators": measurement_operators,
}
"""Every public function that reaches the amplitude core, as a call on one
detector (the system too, where it takes one) and ``gamma``."""


@pytest.mark.parametrize("gamma", [math.inf, -math.inf, math.nan, np.array([0.5, math.inf]),
                                   np.array([0.5, math.nan]), 10**400],
                         ids=["inf", "-inf", "nan", "stack-inf", "stack-nan", "huge-int"])
@pytest.mark.parametrize("name", sorted(AMPLITUDE_CORE_CALLS))
def test_amplitude_core_names_a_non_finite_gamma(name, gamma):
    with pytest.raises(ValueError, match="^gamma .* is not a finite number$"):
        AMPLITUDE_CORE_CALLS[name](balanced_mzi(0.3), gamma)


class TestJointStatistics:
    def test_explicit_strong_point_matches_closed_form(self):
        det = balanced_mzi(0.0)
        sysm = balanced_mzi(0.0)
        stats = JointStatistics(joint_probability_table(det, sysm, math.pi))
        closed = JointStatistics(closed_form_table(det, sysm, math.pi))
        assert np.max(np.abs(stats.joint - closed.joint)) < 1e-12

    def test_dark_port(self):
        # balanced detector, zero tunings, zero coupling: P_D1 = 0
        stats = JointStatistics(joint_probability_table(balanced_mzi(0.0), balanced_mzi(0.3), 0.0))
        assert stats.p_detector(DetectorDrain.D1) == pytest.approx(0.0, abs=1e-15)

    def test_quarter_config_detector_marginals(self):
        det = balanced_mzi(math.pi / 2)
        sysm = balanced_mzi(0.4)  # delta_s1 = 0
        stats = JointStatistics(joint_probability_table(det, sysm, math.pi / 2))
        assert stats.p_detector(DetectorDrain.D1) == pytest.approx(0.75, abs=1e-12)
        assert stats.p_detector(DetectorDrain.D2) == pytest.approx(0.25, abs=1e-12)

    def test_completeness_and_marginals(self, rng):
        for _ in range(300):
            det, sysm = random_mzi(rng), random_mzi(rng)
            stats = JointStatistics(joint_probability_table(det, sysm, rng.uniform(0, 2 * math.pi)))
            assert stats.joint.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.allclose(stats.joint.sum(axis=1), stats.detector_marginals, atol=1e-12)
            assert np.allclose(stats.joint.sum(axis=0), stats.system_marginals, atol=1e-12)

    def test_closed_form_match_random(self, rng):
        for _ in range(500):
            det, sysm = random_mzi(rng), random_mzi(rng)
            gamma = rng.uniform(0, 2 * math.pi)
            stats = JointStatistics(joint_probability_table(det, sysm, gamma))
            closed = JointStatistics(closed_form_table(det, sysm, gamma))
            assert np.max(np.abs(stats.joint - closed.joint)) < 1e-12
            assert np.max(np.abs(stats.detector_marginals - closed.detector_marginals)) < 1e-12
            assert np.max(np.abs(stats.system_marginals - closed.system_marginals)) < 1e-12

    def test_marginals_are_summed_once_and_read_only(self, rng):
        tables = rng.dirichlet(np.ones(4), size=(5, 3)).reshape(5, 3, 2, 2)
        tables[0, 0] = [[-0.0, 0.5], [-0.0, 0.5]]
        for stats in (JointStatistics(tables), JointStatistics(tables[0, 0]), JointStatistics(tables[2, 1])):
            assert stats.detector_marginals is stats.detector_marginals
            assert stats.system_marginals is stats.system_marginals
            assert not stats.detector_marginals.flags.writeable
            assert not stats.system_marginals.flags.writeable
            # the bits of the per-drain sums (numpy sums -0.0 + -0.0 to 0.0); one table gives floats
            for d in DetectorDrain:
                old = stats.joint[..., d.value, :].sum(axis=-1)
                assert np.asarray(stats.p_detector(d)).tobytes() == old.tobytes()
                assert isinstance(stats.p_detector(d), float) == (old.ndim == 0)
            for s in SystemDrain:
                old = stats.joint[..., s.value].sum(axis=-1)
                assert np.asarray(stats.p_system(s)).tobytes() == old.tobytes()

    @pytest.mark.parametrize("table, error", [
        ([[math.nan, 0.25], [0.25, 0.5]], "outside [0, 1]"),
        ([[0.25, 0.25], [0.5, math.nan]], "outside [0, 1]"),
        ([[math.inf, 0.25], [0.25, 0.5]], "outside [0, 1]"),
        ([[0.25, -math.inf], [0.25, 0.5]], "outside [0, 1]"),
        ([[-2e-12, 0.25 + 2e-12], [0.25, 0.5]], "outside [0, 1]"),
        ([[1.0 + 2e-12, 0.0], [0.0, 0.0]], "outside [0, 1]"),
        ([[0.25, 0.25], [0.25, 0.25 + 2e-12]], "do not sum to 1"),
        ([[0.25, 0.25], [0.25, 0.25 - 2e-12]], "do not sum to 1"),
        ([[-1e-12, 0.25 + 1e-12], [0.25, 0.5]], None),
        ([[0.25, 0.25], [0.25, 0.25 - 1e-12]], None),
        # off by 1e-12 less an ulp when added in order, as numpy adds them, and by more in pairs
        ([[0.19211347190124137, 0.031062451939331732], [0.14293189027803635, 0.6338921858803905]], None),
    ])
    def test_one_table_and_a_stack_of_it_give_one_verdict(self, table, error):
        def verdict(joint):
            try:
                JointStatistics(joint)
            except ValueError as exc:
                return str(exc)
            return None

        one = verdict(np.array(table))
        assert one == verdict(np.array([table]))
        assert one == (None if error is None else f"joint probabilities {error}")

    def test_second_qpc_phases_cancel(self, rng):
        for _ in range(100):
            det, sysm = random_mzi(rng), random_mzi(rng)
            gamma = rng.uniform(0, 2 * math.pi)
            p = squared_moduli(joint_amplitudes(det, sysm, gamma))
            det2 = InterferometerConfig(
                det.qpc1,
                qpc_from_transmission(det.qpc2.transmission, chi=0.0, xi=0.0),
                det.tuning_phase,
            )
            sys2 = InterferometerConfig(
                sysm.qpc1,
                qpc_from_transmission(sysm.qpc2.transmission, chi=0.0, xi=0.0),
                sysm.tuning_phase,
            )
            stripped = squared_moduli(joint_amplitudes(det2, sys2, gamma))
            assert np.max(np.abs(p - stripped)) < 1e-12

    def test_global_phase_immunity(self, rng):
        # adding a common phase to both rows of a second QPC shifts chi and xi together
        for _ in range(100):
            det, sysm = random_mzi(rng), random_mzi(rng)
            gamma = rng.uniform(0, 2 * math.pi)
            theta = rng.uniform(0, 2 * math.pi)
            p = squared_moduli(joint_amplitudes(det, sysm, gamma))
            shifted_qpc = qpc_from_transmission(
                det.qpc2.transmission, chi=det.qpc2.chi + theta, xi=det.qpc2.xi + theta
            )
            shifted = InterferometerConfig(det.qpc1, shifted_qpc, det.tuning_phase)
            p2 = squared_moduli(joint_amplitudes(shifted, sysm, gamma))
            assert np.max(np.abs(p - p2)) < 1e-12


class TestJointProbabilityTable:
    @pytest.mark.parametrize("gamma", [0.4, np.array([0.3, 0.4])], ids=["point", "stack"])
    def test_rejects_non_finite_and_unnormalized_cells(self, gamma):
        det = balanced_mzi(0.3)
        with pytest.raises(ValueError, match="^gamma .*nan.* is not a finite number$"):
            joint_probability_table(det, det, gamma * math.nan)
        leaky = qpc_from_transmission(0.5)
        object.__setattr__(leaky, "reflection", 0.6)  # past the constructor's check
        with pytest.raises(ValueError, match=r"not normalized: sum \|c\|\^2 = 1\.1"):
            joint_probability_table(InterferometerConfig(leaky, det.qpc2, 0.3), det, gamma)


BIAS = PhysicalBias(bias_voltage=10e-6, fermi_energy=10e-3, temperature=0.01)


class TestHarmonicForm:
    """``P(g) = A + B cos g + C sin g``, with ``A``, ``B`` and ``C`` read from
    the tables at ``g = 0, pi/2, pi``: ``P(0) = A + B``, ``P(pi) = A - B``
    and ``P(pi/2) = A + C``."""

    POINTS = np.array([0.0, math.pi / 2, math.pi])

    @staticmethod
    def harmonics(p0, p_half, p_pi):
        a = (p0 + p_pi) / 2
        return a, (p0 - p_pi) / 2, p_half - a

    def test_tables_from_three_amplitude_points(self, rng):
        for _ in range(200):
            det, sysm = random_mzi(rng), random_mzi(rng)
            a, b, c = self.harmonics(*closed_form_table(det, sysm, self.POINTS))
            expected = self.harmonics(*np.abs(joint_amplitudes(det, sysm, self.POINTS)) ** 2)
            for closed, amplitude in zip((a, b, c), expected):
                assert np.max(np.abs(closed - amplitude)) <= 1e-12
            assert (a.sum(), b.sum(), c.sum()) == (
                pytest.approx(1.0, abs=1e-12), pytest.approx(0.0, abs=1e-12),
                pytest.approx(0.0, abs=1e-12))

    def test_closed_form_is_the_harmonic_form(self, rng):
        for _ in range(200):
            det, sysm = random_mzi(rng), random_mzi(rng)
            gammas = rng.uniform(-2 * math.pi, 4 * math.pi, 64)
            a, b, c = self.harmonics(*closed_form_table(det, sysm, self.POINTS))
            cos, sin = np.cos(gammas)[:, None, None], np.sin(gammas)[:, None, None]
            closed = closed_form_table(det, sysm, gammas)
            assert closed.shape == (64, 2, 2)
            assert np.max(np.abs(closed - (a + b * cos + c * sin))) <= 1e-12
            amplitudes = np.abs(joint_amplitudes(det, sysm, gammas)) ** 2
            assert np.max(np.abs(closed - amplitudes)) <= 1e-12
            assert closed_form_table(det, sysm, gammas[0]).shape == (2, 2)


class TestCurrentsAndNoise:
    def test_zero_probability_zero_current(self):
        assert average_current(0.0, BIAS) == 0.0

    def test_conductance_quantum_scale(self):
        # e^2/h = 3.874045865e-5 S at 10 uV
        assert average_current(1.0, BIAS) == pytest.approx(3.874045865e-10, rel=1e-9)

    def test_linearity(self):
        assert average_current(0.5, BIAS) == pytest.approx(average_current(1.0, BIAS) / 2, rel=1e-15)

    def test_probability_range(self):
        # past the range of a JointStatistics marginal, [-2e-12, 1 + 3e-12], and NaN
        for probability in (1.5, math.nextafter(1.0 + 3e-12, 2.0), math.nextafter(-2e-12, -1.0), math.nan):
            with pytest.raises(ValueError):
                average_current(probability, BIAS)
        with pytest.raises(ValueError):
            average_current(np.array([0.5, math.nan]), BIAS)

    def test_probability_too_long_for_str_shows_its_digit_count(self):
        # formatting the int itself would raise Python's int-to-str digit limit error
        with pytest.raises(ValueError, match=r"^probability <integer of 5001 digits> outside \[0, 1\]$"):
            average_current(10**5000, BIAS)
        with pytest.raises(ValueError, match=r"^probability 1\.5 outside \[0, 1\]$"):
            average_current(1.5, BIAS)

    def test_marginal_rounded_past_one_accepted(self):
        # the averaged table's detector marginal rounds two ulps past 1
        det = InterferometerConfig(qpc_from_transmission(0.0), qpc_from_transmission(0.0), 0.0)
        sysm = InterferometerConfig(qpc_from_transmission(0.75), qpc_from_transmission(0.0), 0.0)
        p_d1 = AveragedExperiment(det, sysm, CouplingModel(0.0, 1.0, 1e-9)).stats.p_detector(DetectorDrain.D1)
        assert p_d1 == 1.0000000000000002
        assert average_current(p_d1, BIAS) == average_current(1.0, BIAS) * p_d1

    def test_array_probability_broadcasts(self):
        probabilities = np.array([0.2, 0.5])
        currents = average_current(probabilities, BIAS)
        assert currents.shape == (2,)
        assert currents.tolist() == [average_current(0.2, BIAS), average_current(0.5, BIAS)]

    @pytest.mark.parametrize("fermi_energy, temperature", [(0.0, 0.01), (-10e-3, 0.01), (10e-3, -0.02)])
    def test_bias_domain(self, fermi_energy, temperature):
        with pytest.raises(ValueError):
            PhysicalBias(bias_voltage=10e-6, fermi_energy=fermi_energy, temperature=temperature)
        PhysicalBias(bias_voltage=10e-6, fermi_energy=10e-3, temperature=0.0)

    @pytest.mark.parametrize("fields, message", [
        ((math.nan, 10e-3, 0.01), "bias voltage must be positive"),
        ((10e-6, math.nan, 0.01), "Fermi energy must be positive"),
        ((10e-6, 10e-3, math.nan), "temperature must be non-negative"),
    ], ids=["voltage", "fermi-energy", "temperature"])
    def test_nan_bias_rejected(self, fields, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            PhysicalBias(*fields)

    def test_regime_warning(self):
        hot = PhysicalBias(bias_voltage=10e-6, fermi_energy=10e-3, temperature=4.0)
        with pytest.warns(UserWarning, match="low-bias"):
            average_current(0.5, hot)

    def test_product_state_has_no_cross_noise(self, rng):
        det, sysm = random_mzi(rng), random_mzi(rng)
        stats = JointStatistics(joint_probability_table(det, sysm, 0.0))
        for d in DetectorDrain:
            for s in SystemDrain:
                assert cross_noise_power(stats, d, s, BIAS) == pytest.approx(0.0, abs=1e-40)

    def test_deterministic_marginals_have_no_cross_noise(self):
        q_open = qpc_from_transmission(1.0)
        sysm = InterferometerConfig(q_open, q_open, 0.0)  # excitation always reaches S1
        det = balanced_mzi(0.0)
        stats = JointStatistics(joint_probability_table(det, sysm, math.pi))
        for d in DetectorDrain:
            for s in SystemDrain:
                assert cross_noise_power(stats, d, s, BIAS) == pytest.approx(0.0, abs=1e-40)

    def test_correlated_table_antisymmetry(self, rng):
        det = balanced_mzi(0.0)
        sysm = balanced_mzi(0.9)
        stats = JointStatistics(joint_probability_table(det, sysm, math.pi))
        cov = np.array([
            [cross_noise_power(stats, d, s, BIAS) for s in SystemDrain] for d in DetectorDrain
        ])
        assert np.abs(cov.sum(axis=0)).max() < 1e-37
        assert np.abs(cov.sum(axis=1)).max() < 1e-37
        # the 2x2 covariance table is (c, -c; -c, c)
        assert cov[0, 0] == pytest.approx(cov[1, 1], abs=1e-37)
        assert cov[0, 1] == pytest.approx(-cov[0, 0], abs=1e-37)
