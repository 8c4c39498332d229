import math

import numpy as np
import pytest

from coupled_mzi import (
    AmbiguousMeasurementError,
    ContextualValues,
    FringeParams,
    InterferometerConfig,
    JointStatistics,
    MeasurementOperators,
    ObservableCoefficients,
    ObservableRangeError,
    contextual_estimate,
    contextual_values,
    detector_params,
    efficient_factorization,
    joint_probability_table,
    limit_contextual_values,
    measurement_operators,
    povm_expectation,
    povm_pair,
    qpc_from_transmission,
    reconstruct_average,
    reduced_system_state,
)
from coupled_mzi.params import DetectorDrain, SystemDrain
from helpers import (
    PAULI_BASIS,
    SIGMA_0,
    SIGMA_3,
    balanced_mzi,
    decompose_observable,
    detector_drain_probabilities,
    random_mzi,
    system_drain_probabilities,
)
from reference import fringe


def solve_contextual_values_linear_system(povm, obs):
    """Oracle: solve alpha_1 E_1 + alpha_2 E_2 = a0 I + a3 sigma_z directly."""
    a = np.array([
        [povm.e_d1[0, 0].real, povm.e_d2[0, 0].real],
        [povm.e_d1[1, 1].real, povm.e_d2[1, 1].real],
    ])
    b = np.array([obs.a0 + obs.a3, obs.a0 - obs.a3])
    return np.linalg.solve(a, b)


class TestBasis:
    def test_orthonormal_under_hilbert_schmidt(self):
        for i, si in enumerate(PAULI_BASIS):
            for j, sj in enumerate(PAULI_BASIS):
                inner = np.trace(si.conj().T @ sj).real / 2.0
                assert inner == pytest.approx(1.0 if i == j else 0.0, abs=1e-15)


class TestReducedState:
    def test_components_and_norm(self, rng):
        for _ in range(50):
            sysm = random_mzi(rng)
            psi = reduced_system_state(sysm)
            assert abs(psi[0]) == pytest.approx(math.sqrt(sysm.qpc1.transmission), abs=1e-12)
            assert abs(psi[1]) == pytest.approx(math.sqrt(sysm.qpc1.reflection), abs=1e-12)
            assert np.vdot(psi, psi).real == pytest.approx(1.0, abs=1e-12)


class TestMeasurementOperators:
    def test_zero_coupling_proportional_to_identity(self, rng):
        det = random_mzi(rng)
        m = measurement_operators(det, 0.0)
        for op in (m.m_d1, m.m_d2):
            assert op[0, 0] == pytest.approx(op[1, 1], abs=1e-12)

    def test_open_first_qpc_gives_trivial_povm(self):
        det = InterferometerConfig(qpc_from_transmission(1.0), qpc_from_transmission(0.3), 0.8)
        m = measurement_operators(det, 2.1)
        povm = povm_pair(m)
        assert abs(m.m_d1[0, 0]) == pytest.approx(abs(m.m_d1[1, 1]), abs=1e-12)
        assert povm.e_d1[0, 0] == pytest.approx(povm.e_d1[1, 1], abs=1e-12)
        assert povm.e_d1[0, 0].real == pytest.approx(0.3, abs=1e-12)

    def test_projector_at_strong_unambiguous_point(self):
        povm = povm_pair(measurement_operators(balanced_mzi(0.0), math.pi))
        assert np.allclose(povm.e_d1, np.diag([0.0, 1.0]), atol=1e-12)
        assert np.allclose(povm.e_d2, np.diag([1.0, 0.0]), atol=1e-12)


class TestPovm:
    def test_completeness_positivity_random(self, rng):
        for _ in range(300):
            det = random_mzi(rng, t_lo=0.0, t_hi=1.0)
            povm = povm_pair(measurement_operators(det, rng.uniform(0, 2 * math.pi)))
            total = povm.e_d1 + povm.e_d2
            assert np.max(np.abs(total - SIGMA_0)) < 1e-12
            assert povm.e_d1[0, 0].real >= -1e-12
            assert povm.e_d1[1, 1].real >= -1e-12

    def test_weak_coupling_form(self):
        gamma = 1e-3
        povm = povm_pair(measurement_operators(balanced_mzi(math.pi / 2), gamma))
        approx = 0.5 * SIGMA_0 + (gamma / 2.0) * np.diag([0.0, 1.0])
        assert np.max(np.abs(povm.e_d1 - approx)) < 1e-6  # first-order form, O(gamma^2) error

    def test_strong_coupling_form(self):
        for phi in (0.0, math.pi / 4, 3 * math.pi / 4, math.pi):
            povm = povm_pair(measurement_operators(balanced_mzi(phi), math.pi))
            assert np.max(np.abs(povm.e_d1 - 0.5 * (SIGMA_0 - SIGMA_3 * math.cos(phi)))) < 1e-12

    def test_squares_as_products(self):
        """Each modulus is squared as ``re * re + im * im``, the joint table's
        rule; C pow, which Python's ``**`` calls, differs here."""
        x = 0.42672114373024106
        povm = povm_pair(MeasurementOperators((x, 1.0), (math.sqrt(1.0 - x * x), 0.0)))
        assert povm.diag_d1[0] == x * x != x**2

    def test_subspace_restriction(self, rng):
        for _ in range(200):
            det = random_mzi(rng)
            povm = povm_pair(measurement_operators(det, rng.uniform(0, 2 * math.pi)))
            for element in (povm.e_d1, povm.e_d2):
                comps = decompose_observable(element)
                assert abs(comps[1]) < 1e-12 and abs(comps[2]) < 1e-12


class TestDecomposeObservable:
    def test_sigma_z(self):
        assert np.allclose(decompose_observable(SIGMA_3), [0, 0, 0, 1], atol=1e-15)

    def test_identity(self):
        assert np.allclose(decompose_observable(SIGMA_0), [1, 0, 0, 0], atol=1e-15)

    def test_povm_components_match_parameter_bundle(self, rng):
        for _ in range(200):
            det = random_mzi(rng)
            gamma = rng.uniform(0, 2 * math.pi)
            p = detector_params(det, gamma)
            povm = povm_pair(measurement_operators(det, gamma))
            comps = decompose_observable(povm.e_d1)
            assert comps[0] == pytest.approx(0.5 * (p.beta_plus - p.visibility * p.Delta), abs=1e-12)
            assert comps[3] == pytest.approx(-0.5 * p.visibility * p.Gamma, abs=1e-12)

    def test_reconstruction(self, rng):
        a = np.diag(rng.uniform(-2, 2, size=2)).astype(complex)
        comps = decompose_observable(a)
        rebuilt = sum(c * s for c, s in zip(comps, PAULI_BASIS))
        assert np.max(np.abs(rebuilt - a)) < 1e-12

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            decompose_observable(np.array([[0.0, 1.0], [0.0, 0.0]]))


OBS = ObservableCoefficients()


class TestContextualValues:
    def test_strong_unambiguous_point_is_eigenvalues(self):
        cv = contextual_values(OBS, detector_params(balanced_mzi(0.0), math.pi))
        assert (cv.alpha_d1, cv.alpha_d2) == (-1.0, 1.0)

    def test_quarter_point(self):
        cv = contextual_values(OBS, detector_params(balanced_mzi(math.pi / 2), math.pi / 2))
        assert cv.alpha_d1 == pytest.approx(-1.0, abs=1e-12)
        assert cv.alpha_d2 == pytest.approx(3.0, abs=1e-12)

    def test_identity_observable(self, rng):
        obs = ObservableCoefficients(a0=0.7, a3=0.0)
        cv = contextual_values(obs, detector_params(random_mzi(rng), 1.0))
        assert cv.alpha_d1 == pytest.approx(0.7, abs=1e-12)
        assert cv.alpha_d2 == pytest.approx(0.7, abs=1e-12)

    def test_matches_linear_system_oracle(self, rng):
        checked = 0
        while checked < 200:
            det = random_mzi(rng)
            gamma = rng.uniform(0.1, 2 * math.pi - 0.1)
            p = detector_params(det, gamma)
            if abs(p.visibility * p.Gamma) < 1e-3:
                continue
            obs = ObservableCoefficients(a0=rng.uniform(-1, 1), a3=rng.uniform(-2, 2))
            cv = contextual_values(obs, p)
            povm = povm_pair(measurement_operators(det, gamma))
            expected = solve_contextual_values_linear_system(povm, obs)
            assert cv.alpha_d1 == pytest.approx(expected[0], rel=1e-10, abs=1e-10)
            assert cv.alpha_d2 == pytest.approx(expected[1], rel=1e-10, abs=1e-10)
            checked += 1

    def test_operator_identity(self, rng):
        checked = 0
        while checked < 200:
            det = random_mzi(rng)
            gamma = rng.uniform(0, 2 * math.pi)
            p = detector_params(det, gamma)
            if abs(p.visibility * p.Gamma) < 1e-6:
                continue
            cv = contextual_values(OBS, p)
            povm = povm_pair(measurement_operators(det, gamma))
            lhs = cv.alpha_d1 * povm.e_d1 + cv.alpha_d2 * povm.e_d2
            scale = max(abs(cv.alpha_d1), abs(cv.alpha_d2))
            assert np.max(np.abs(lhs - SIGMA_3)) < 1e-10 * max(1.0, scale)
            checked += 1

    def test_divergence_raises_with_payload(self):
        with pytest.raises(AmbiguousMeasurementError) as excinfo:
            contextual_values(OBS, detector_params(balanced_mzi(0.3), 0.0))
        assert excinfo.value.correlation == 0.0
        # zero visibility hides the correlation entirely
        det = InterferometerConfig(qpc_from_transmission(1.0), qpc_from_transmission(0.5), 0.0)
        with pytest.raises(AmbiguousMeasurementError) as excinfo:
            contextual_values(OBS, detector_params(det, math.pi))
        assert excinfo.value.visibility == 0.0


    def test_stack_matches_points_and_reports_its_first_ambiguous_point(self):
        gammas = np.array([math.pi, math.pi / 2, 1.0])
        stack = contextual_values(OBS, detector_params(balanced_mzi(0.3), gammas))
        for i, gamma in enumerate(gammas.tolist()):
            point = contextual_values(OBS, detector_params(balanced_mzi(0.3), gamma))
            assert (stack.alpha_d1[i], stack.alpha_d2[i]) == (point.alpha_d1, point.alpha_d2)
        with pytest.raises(AmbiguousMeasurementError) as excinfo:
            contextual_values(OBS, detector_params(balanced_mzi(0.3), np.array([math.pi, 0.0, 0.0])))
        assert (excinfo.value.visibility, excinfo.value.correlation) == (1.0, 0.0)

    def test_value_beyond_the_float_range_raises(self):
        # |V Gamma| = 0.061 is informative, but a3 / Gamma overflows
        p = detector_params(balanced_mzi(0.0), 0.5)
        assert abs(p.visibility * p.Gamma) > 0.06
        with pytest.raises(ObservableRangeError, match="^observable: a contextual value is not a finite number$"):
            contextual_values(ObservableCoefficients(a3=1e308), p)
        # a0 - inf + inf: NaN is no finite number either
        with pytest.raises(ObservableRangeError):
            contextual_values(ObservableCoefficients(a0=1.7976931348623157e308, a3=1e308), p)

    def test_stack_beyond_the_float_range_raises_without_a_warning(self):
        # the suite turns numpy's overflow warning into an error, which would come first
        p = detector_params(balanced_mzi(0.0), np.array([0.5, 1.0]))
        with pytest.raises(ObservableRangeError, match="^observable: a contextual value is not a finite number$"):
            contextual_values(ObservableCoefficients(a3=1e308), p)


class TestReconstructAverage:
    def test_strong_point(self):
        cv = contextual_values(OBS, detector_params(balanced_mzi(0.0), math.pi))
        assert reconstruct_average(cv, 0.75, 0.25) == pytest.approx(-0.5, abs=1e-12)

    def test_quarter_point_recovers_path_bias(self):
        cv = contextual_values(OBS, detector_params(balanced_mzi(math.pi / 2), math.pi / 2))
        assert reconstruct_average(cv, 0.75, 0.25) == pytest.approx(0.0, abs=1e-12)

    def test_identity_observable(self):
        cv = contextual_values(ObservableCoefficients(a0=0.4, a3=0.0),
                               detector_params(balanced_mzi(0.6), 1.0))
        assert reconstruct_average(cv, 0.2, 0.8) == pytest.approx(0.4, abs=1e-12)

    def test_probability_sum_checked(self):
        cv = contextual_values(OBS, detector_params(balanced_mzi(0.0), math.pi))
        with pytest.raises(ValueError):
            reconstruct_average(cv, 0.7, 0.7)

    @pytest.mark.parametrize("p_d1, p_d2", [
        (1.5, -0.5), (-0.5, 1.5), (1.0 + 2e-12, -2e-12), (math.nan, 0.5),
        (np.array([0.5, 1.5]), np.array([0.5, -0.5])),
    ], ids=["above-one", "below-zero", "just-past-the-tolerance", "nan", "stack"])
    def test_probability_range_checked(self, p_d1, p_d2):
        # (1.5, -0.5) sums to 1, so only the range check rejects it
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            reconstruct_average(ContextualValues(-1.0, 1.0), p_d1, p_d2)

    def test_probability_rounded_past_the_range_accepted(self):
        # the 1e-12 that a joint table's cells may lie outside [0, 1]
        assert reconstruct_average(ContextualValues(-1.0, 1.0), 1.0 + 5e-13, -5e-13) == -1.0 - 1e-12

    def test_recovers_path_bias_random(self, rng):
        checked = 0
        while checked < 200:
            det, sysm = random_mzi(rng), random_mzi(rng)
            gamma = rng.uniform(0, 2 * math.pi)
            p = detector_params(det, gamma)
            if abs(p.visibility * p.Gamma) < 1e-6:
                continue
            obs = ObservableCoefficients(a0=rng.uniform(-1, 1), a3=rng.uniform(-2, 2))
            cv = contextual_values(obs, p)
            p1, p2 = detector_drain_probabilities(p, sysm.qpc1.delta)
            value = reconstruct_average(cv, p1, p2)
            expected = obs.a0 + obs.a3 * sysm.qpc1.delta
            scale = max(abs(cv.alpha_d1), abs(cv.alpha_d2), 1.0)
            assert value == pytest.approx(expected, abs=1e-10 * scale)
            checked += 1


class TestDualPipeline:
    def test_detector_probability_equality(self, rng):
        for _ in range(300):
            det, sysm = random_mzi(rng), random_mzi(rng)
            gamma = rng.uniform(0, 2 * math.pi)
            stats = JointStatistics(joint_probability_table(det, sysm, gamma))
            povm = povm_pair(measurement_operators(det, gamma))
            p1, p2 = povm_expectation(povm, reduced_system_state(sysm))
            assert stats.p_detector(DetectorDrain.D1) == pytest.approx(p1, abs=1e-12)
            assert stats.p_detector(DetectorDrain.D2) == pytest.approx(p2, abs=1e-12)

    def test_closed_form_drain_probabilities(self, rng):
        for _ in range(300):
            det, sysm = random_mzi(rng), random_mzi(rng)
            gamma = rng.uniform(0, 2 * math.pi)
            stats = JointStatistics(joint_probability_table(det, sysm, gamma))
            pd = detector_drain_probabilities(detector_params(det, gamma), sysm.qpc1.delta)
            sp = FringeParams(*fringe(sysm, gamma, -sysm.tuning_phase))
            ps = system_drain_probabilities(sp, det.qpc1.delta)
            assert stats.p_detector(DetectorDrain.D1) == pytest.approx(pd[0], abs=1e-12)
            assert stats.p_detector(DetectorDrain.D2) == pytest.approx(pd[1], abs=1e-12)
            assert stats.p_system(SystemDrain.S1) == pytest.approx(ps[0], abs=1e-12)
            assert stats.p_system(SystemDrain.S2) == pytest.approx(ps[1], abs=1e-12)

    def test_strong_efficient_measurement_removes_system_interference(self, rng):
        for _ in range(50):
            sysm = random_mzi(rng)
            stats = JointStatistics(joint_probability_table(balanced_mzi(0.8), sysm, math.pi))
            beta_plus, beta_minus, *_ = fringe(sysm, math.pi, -sysm.tuning_phase)
            assert stats.p_system(SystemDrain.S1) == pytest.approx(beta_plus / 2, abs=1e-12)
            assert stats.p_system(SystemDrain.S2) == pytest.approx(beta_minus / 2, abs=1e-12)


class TestEfficientFactorization:
    @pytest.mark.parametrize("gamma", [math.inf, math.nan], ids=["inf", "nan"])
    def test_non_finite_coupling_names_gamma(self, gamma):
        with pytest.raises(ValueError, match="^gamma .* is not a finite number$"):
            efficient_factorization(balanced_mzi(0.7), gamma)

    def test_identity_disturbance_at_zero_coupling(self):
        fact = efficient_factorization(balanced_mzi(0.7), 0.0)
        assert np.allclose(fact.disturbance_unitary, np.eye(2), atol=1e-15)

    def test_bright_dark_roots(self):
        fact = efficient_factorization(balanced_mzi(0.0), math.pi)
        assert np.allclose(fact.root_d1, np.diag([0.0, 1.0]), atol=1e-12)
        assert np.allclose(fact.root_d2, np.diag([1.0, 0.0]), atol=1e-12)

    def test_reconstruction_random(self, rng):
        for _ in range(300):
            q1 = qpc_from_transmission(0.5, chi=rng.uniform(0, 7), xi=rng.uniform(0, 7))
            q2 = qpc_from_transmission(0.5, chi=rng.uniform(0, 7), xi=rng.uniform(0, 7))
            det = InterferometerConfig(q1, q2, rng.uniform(-7, 7))
            gamma = rng.uniform(0, 2 * math.pi)
            fact = efficient_factorization(det, gamma)
            m = measurement_operators(det, gamma)
            m1, m2 = fact.reconstruct()
            assert np.max(np.abs(m1 - m.m_d1)) < 1e-12
            assert np.max(np.abs(m2 - m.m_d2)) < 1e-12
            # roots square to the POVM elements
            povm = povm_pair(m)
            assert np.max(np.abs(fact.root_d1 @ fact.root_d1 - povm.e_d1)) < 1e-12
            assert np.max(np.abs(fact.root_d2 @ fact.root_d2 - povm.e_d2)) < 1e-12

    def test_requires_efficient_detection(self):
        det = InterferometerConfig(qpc_from_transmission(0.6), qpc_from_transmission(0.5), 0.0)
        with pytest.raises(ValueError, match="visibility"):
            efficient_factorization(det, 1.0)

    def test_one_configuration(self):
        with pytest.raises(ValueError, match="one configuration"):
            efficient_factorization(balanced_mzi(0.0), np.array([1.0, 2.0]))


class TestLimitForms:
    def test_strong_values(self):
        cv, povm = limit_contextual_values("strong", math.pi, 3 * math.pi / 4)
        assert cv.alpha_d1 == pytest.approx(math.sqrt(2), abs=1e-12)
        assert cv.alpha_d2 == pytest.approx(-math.sqrt(2), abs=1e-12)
        exact = contextual_values(OBS, detector_params(balanced_mzi(3 * math.pi / 4), math.pi))
        assert cv.alpha_d1 == pytest.approx(exact.alpha_d1, abs=1e-12)
        assert np.max(np.abs(
            povm.e_d1 - povm_pair(measurement_operators(balanced_mzi(3 * math.pi / 4), math.pi)).e_d1
        )) < 1e-12

    def test_strong_requires_pi_coupling(self):
        with pytest.raises(ValueError, match="gamma"):
            limit_contextual_values("strong", 3.0, 0.0)

    def test_strong_completely_ambiguous_tuning(self):
        with pytest.raises(AmbiguousMeasurementError):
            limit_contextual_values("strong", math.pi, math.pi / 2)

    def test_weak_values(self):
        cv, _ = limit_contextual_values("weak", 0.01, math.pi / 2)
        assert cv.alpha_d1 == pytest.approx(1.0 - 200.0, abs=1e-9)
        assert cv.alpha_d2 == pytest.approx(1.0 + 200.0, abs=1e-9)

    def test_weak_rejects_critical_tuning(self):
        with pytest.raises(ValueError, match="phi_d"):
            limit_contextual_values("weak", 0.01, 0.0)

    def test_weak_convergence_is_first_order(self):
        gammas = np.array([0.1, 0.05, 0.025])
        errors = []
        for gamma in gammas:
            exact = contextual_values(OBS, detector_params(balanced_mzi(math.pi / 2), gamma))
            approx, _ = limit_contextual_values("weak", gamma, math.pi / 2)
            errors.append(abs(exact.alpha_d1 - approx.alpha_d1))
        slope = np.polyfit(np.log(gammas), np.log(errors), 1)[0]
        assert slope >= 0.9

    def test_semiweak_eigenvalue_drain(self):
        gamma = 0.02
        cv, _ = limit_contextual_values("semiweak", gamma, 0.0, n=0)
        assert cv.alpha_d2 == pytest.approx(1.0, abs=1e-12)
        assert cv.alpha_d1 == pytest.approx(1.0 - 2.0 / math.sin(gamma / 2) ** 2, rel=1e-12)
        exact = contextual_values(OBS, detector_params(balanced_mzi(0.0), gamma))
        assert cv.alpha_d1 == pytest.approx(exact.alpha_d1, rel=1e-10)
        assert cv.alpha_d2 == pytest.approx(exact.alpha_d2, rel=1e-10)

    def test_semiweak_quadratic_divergence(self):
        gamma = 0.01
        exact = contextual_values(OBS, detector_params(balanced_mzi(0.0), gamma))
        assert exact.alpha_d1 * math.sin(gamma / 2) ** 2 == pytest.approx(-2.0, abs=1e-3)

    def test_semiweak_needs_matching_tuning(self):
        with pytest.raises(ValueError, match="n"):
            limit_contextual_values("semiweak", 0.01, math.pi / 2)
        with pytest.raises(ValueError):
            limit_contextual_values("semiweak", 0.01, math.pi, n=2)

    def test_semiweak_povm_matches_exact(self):
        gamma = 0.05
        _, povm = limit_contextual_values("semiweak", gamma, math.pi, n=1)
        exact = povm_pair(measurement_operators(balanced_mzi(math.pi), gamma))
        assert np.max(np.abs(povm.e_d1 - exact.e_d1)) < 1e-12

    @pytest.mark.parametrize("regime, gamma, phi_d", [("strong", math.pi, 0.3), ("weak", 0.1, 0.3)])
    def test_n_only_in_the_semiweak_regime(self, regime, gamma, phi_d):
        with pytest.raises(ValueError, match="^n is only meaningful for the semiweak regime$"):
            limit_contextual_values(regime, gamma, phi_d, n=5)

    @pytest.mark.parametrize("regime, gamma, phi_d, n", [
        ("weak", -0.1, 0.3, None), ("weak", math.nan, 0.3, None),
        ("semiweak", -0.1, 0.0, 0), ("semiweak", math.nan, 0.0, 0),
    ])
    def test_weak_forms_require_positive_gamma(self, regime, gamma, phi_d, n):
        with pytest.raises(ValueError, match="require gamma > 0"):
            limit_contextual_values(regime, gamma, phi_d, n=n)

    @pytest.mark.parametrize("n", [0.5, 1.0])
    def test_semiweak_requires_an_integer_n(self, n):
        # n = 0.5 would put a semiweak tuning at phi_d = pi/2
        with pytest.raises(ValueError, match="integer n"):
            limit_contextual_values("semiweak", 0.1, n * math.pi, n=n)

    def test_unknown_regime(self):
        with pytest.raises(ValueError, match="regime"):
            limit_contextual_values("medium", 1.0, 1.0)

    @pytest.mark.parametrize("gamma, phi_d", [(np.array([0.1, 0.2]), 0.3), (0.1, np.array([0.3, 0.4]))])
    def test_one_configuration(self, gamma, phi_d):
        with pytest.raises(ValueError, match="one configuration"):
            limit_contextual_values("weak", gamma, phi_d)


NAN, INF = math.nan, math.inf
CV = ContextualValues(-2.0, 2.0)
COUNTS = np.bincount([0, 2, 3], minlength=4)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: contextual_estimate(COUNTS, CV, probabilities=(NAN, NAN)), id="estimate-nan"),
    pytest.param(lambda: contextual_estimate(COUNTS, CV, probabilities=(INF, -INF)),
                 id="estimate-opposite-infs"),
    pytest.param(lambda: reconstruct_average(CV, NAN, NAN), id="reconstruct-nan"),
    pytest.param(lambda: limit_contextual_values("strong", NAN, 0.3), id="strong-nan-gamma"),
    pytest.param(lambda: limit_contextual_values("semiweak", 0.1, NAN, n=0), id="semiweak-nan-phi"),
    pytest.param(lambda: decompose_observable(np.array([[1.0, NAN], [NAN, 0.0]])), id="observable-nan"),
])
def test_guards_reject_nan(call):
    """Every tolerance guard is written ``not abs(...) <= tol``: NaN fails it."""
    with pytest.raises(ValueError):
        call()
