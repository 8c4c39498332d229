import io
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from coupled_mzi import (
    AmbiguousMeasurementError,
    AveragedExperiment,
    ContextualValues,
    CouplingModel,
    ExperimentConfig,
    InterferometerConfig,
    JointStatistics,
    ObservableRangeError,
    PhysicalBias,
    PostSelectionImpossibleError,
    average_current,
    contextual_estimate,
    contextual_values,
    post_selected_average,
    detector_params,
    reconstruct_average,
    joint_probability_table,
    qpc_from_transmission,
    require_post_selection,
    semiweak_value,
    weak_value,
    xi_joint_interference,
)
from coupled_mzi.cli import run_erasure, run_scan
from coupled_mzi.config import swept
from coupled_mzi.params import DetectorDrain, ObservableCoefficients, SystemDrain
from helpers import balanced_mzi, random_mzi, steady
from reference import coupling, fringe

OBS = ObservableCoefficients()


def make_system(t1: float, t2: float, phi: float) -> InterferometerConfig:
    return InterferometerConfig(qpc_from_transmission(t1), qpc_from_transmission(t2), phi)


# delta1_s = 0.6, delta2_s = 0, V_s = 0.8: the anomalous-weak-value workhorse
SYSTEM_06 = make_system(0.8, 0.5, 0.0)


def scan_columns(det, sysm, gamma, sweep, quantities):
    """The ``scan`` table of ``quantities`` over ``sweep = (parameter, lo, hi,
    count)``, one column per quantity after the swept one."""
    config = ExperimentConfig(det, sysm, CouplingModel(gamma), OBS)
    return read_table(run_scan(config, *sweep, tuple(quantities)))


def read_table(text):
    return np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)


P_D_GIVEN_S = tuple(f"P_{d.name}_given_{s.name}" for s in SystemDrain for d in DetectorDrain)
P_S_GIVEN_D = tuple(f"P_{s.name}_given_{d.name}" for d in DetectorDrain for s in SystemDrain)


class TestConditionalTable:
    """The conditional tables as the ``P_*_given_*`` scan columns."""

    PHI_S_SWEEP = ("phi_s", 0.0, 2 * math.pi, 9)

    def test_product_state_independence(self, rng):
        for _ in range(50):
            det, sysm = random_mzi(rng, t_lo=0.2, t_hi=0.8), random_mzi(rng, t_lo=0.2, t_hi=0.8)
            table = scan_columns(det, sysm, 0.0, self.PHI_S_SWEEP, ("P_D1", "P_D1_given_S1", "P_D1_given_S2"))
            for column in (2, 3):
                assert table[:, column] == pytest.approx(table[:, 1], abs=1e-12)

    def test_dark_port_correlation(self):
        # deterministic upper system path: the dark port clicks with certainty,
        # so P(D1|S) = 1 for both system drains while D2 never fires at all
        sysm = make_system(0.0, 0.5, 0.0)
        table = scan_columns(balanced_mzi(0.0), sysm, math.pi, self.PHI_S_SWEEP, ("P_D1_given_S1", "P_D1_given_S2"))
        assert table[:, 1:] == pytest.approx(1.0, abs=1e-12)
        # the full table is undefined in the other direction: D2 is dark
        with pytest.raises(PostSelectionImpossibleError) as excinfo:
            scan_columns(balanced_mzi(0.0), sysm, math.pi, self.PHI_S_SWEEP, P_D_GIVEN_S + P_S_GIVEN_D)
        assert excinfo.value.drain == "D2"

    def test_columns_normalized_random(self, rng):
        marginals = ("P_D1", "P_D2", "P_S1", "P_S2")
        for _ in range(40):
            det, sysm = random_mzi(rng, t_lo=0.15, t_hi=0.85), random_mzi(rng, t_lo=0.15, t_hi=0.85)
            sweep = ("gamma", 0.3, 2 * math.pi - 0.3, 5)
            table = scan_columns(det, sysm, 1.0, sweep, marginals + P_D_GIVEN_S + P_S_GIVEN_D)
            table = table[table[:, 1:5].min(axis=1) >= 1e-6]
            # P(D1|S) + P(D2|S) per system drain; P(S1|D) + P(S2|D) per detector drain
            for first in (5, 7, 9, 11):
                assert table[:, first] + table[:, first + 1] == pytest.approx(1.0, abs=1e-12)

    def test_zero_marginal_raises(self):
        # balanced detector at zero tuning and coupling: D1 is a perfect dark port
        with pytest.raises(PostSelectionImpossibleError) as excinfo:
            scan_columns(balanced_mzi(0.0), balanced_mzi(0.7), 0.0, self.PHI_S_SWEEP, P_D_GIVEN_S + P_S_GIVEN_D)
        assert excinfo.value.drain == "D1"


class TestErasure:
    """Erasure fringes as the ``erasure`` command computes them."""

    PHI_GRID = np.linspace(0.0, 2 * math.pi, 64, endpoint=False)

    @classmethod
    def erasure(cls, det, sysm=balanced_mzi(0.0)):
        """Columns ``phi_s, P_S1, P_S1_given_D1, P_S1_given_D2`` on ``PHI_GRID``."""
        config = ExperimentConfig(det, sysm, CouplingModel(math.pi), OBS)
        table = read_table(run_erasure(config, 0.0, cls.PHI_GRID[-1], len(cls.PHI_GRID)))
        assert table[:, 0] == pytest.approx(cls.PHI_GRID, abs=1e-15)
        return table.T

    def test_two_points_are_the_bounds(self):
        # the fewest points a sweep takes, in the order the bounds come
        config = ExperimentConfig(balanced_mzi(0.3), balanced_mzi(0.0), CouplingModel(math.pi), OBS)
        for bounds in ((0.5, 2.5), (2.5, 0.5)):
            assert read_table(run_erasure(config, *bounds, 2))[:, 0].tolist() == list(bounds)

    @staticmethod
    def fringe_fit(values):
        """Exact first-harmonic projection on a uniform full-period grid."""
        phis = TestErasure.PHI_GRID
        mean = values.mean()
        cos_amp = 2.0 * np.mean(values * np.cos(phis))
        sin_amp = 2.0 * np.mean(values * np.sin(phis))
        return mean, cos_amp, sin_amp

    def test_unambiguous_measurement_gives_flat_conditionals(self):
        _, _, _, values = self.erasure(balanced_mzi(0.0))
        assert values.max() - values.min() < 1e-12

    def test_maximally_ambiguous_measurement_recovers_full_fringe(self):
        _, _, values, _ = self.erasure(balanced_mzi(math.pi / 2))
        mean, cos_amp, sin_amp = self.fringe_fit(values)
        visibility = math.hypot(cos_amp, sin_amp) / mean
        assert visibility == pytest.approx(1.0, abs=1e-12)

    def test_visibility_tracks_detector_tuning_with_quarter_shift(self):
        for phi_d in np.linspace(0.1, math.pi - 0.1, 7):
            _, _, values, _ = self.erasure(balanced_mzi(phi_d))
            mean, cos_amp, sin_amp = self.fringe_fit(values)
            assert math.hypot(cos_amp, sin_amp) / mean == pytest.approx(abs(math.sin(phi_d)), abs=1e-12)
            # the fringe rides on sin(phi_s): pure quarter-period shift
            assert abs(cos_amp) < 1e-12

    def test_unconditioned_interference_destroyed_at_strong_coupling(self):
        _, probs, _, _ = self.erasure(balanced_mzi(math.pi / 2))
        assert probs.max() - probs.min() < 1e-12

    def test_complementary_fringes_cancel_unconditioned(self):
        names = ("P_S1_given_D1", "P_D1", "P_S1_given_D2", "P_D2", "P_S1")
        table = scan_columns(balanced_mzi(1.1), balanced_mzi(0.0), math.pi, ("phi_s", 0.0, 2 * math.pi, 17), names)
        _, s1_given_d1, p_d1, s1_given_d2, p_d2, p_s1 = table.T
        assert s1_given_d1 * p_d1 + s1_given_d2 * p_d2 == pytest.approx(p_s1, abs=1e-12)


class TestXiJointInterference:
    def test_matches_pipeline_identity(self, rng):
        """Closed form reproduces sum_D alpha_D P(D|S) for generic detectors."""
        checked = 0
        while checked < 300:
            det = random_mzi(rng, t_lo=0.1, t_hi=0.9)
            sysm = random_mzi(rng, t_lo=0.1, t_hi=0.9)
            gamma = rng.uniform(0.2, 2 * math.pi - 0.2)
            dp = detector_params(det, gamma)
            if abs(dp.visibility * dp.Gamma) < 1e-3:
                continue
            stats = JointStatistics(joint_probability_table(det, sysm, gamma))
            if stats.system_marginals.min() < 1e-6:
                continue
            cv = contextual_values(OBS, dp)
            v_s = fringe(sysm, gamma, -sysm.tuning_phase)[2]
            xi_ratio = xi_joint_interference(det, sysm, gamma) / dp.Gamma
            d1s, d2s = sysm.qpc1.delta, sysm.qpc2.delta
            for s, sign in ((SystemDrain.S1, 1.0), (SystemDrain.S2, -1.0)):
                pipeline = (
                    cv.alpha_d1 * stats.joint[0, s.value] + cv.alpha_d2 * stats.joint[1, s.value]
                ) / stats.p_system(s)
                numerator = d1s + sign * d2s - sign * v_s * xi_ratio
                closed = numerator / (2.0 * stats.p_system(s))
                scale = max(1.0, abs(pipeline))
                assert closed == pytest.approx(pipeline, abs=1e-10 * scale)
            checked += 1

    def test_efficient_detector_cotangent_form(self, rng):
        checked = 0
        while checked < 200:
            phi_d = rng.uniform(-3, 3)
            phi_s = rng.uniform(-3, 3)
            gamma = rng.uniform(0.2, 2 * math.pi - 0.2)
            if abs(math.sin(gamma / 2 + phi_d)) < 1e-2:
                continue
            det = balanced_mzi(phi_d)
            sysm = random_mzi(rng)
            sysm = InterferometerConfig(sysm.qpc1, sysm.qpc2, phi_s)
            xi = xi_joint_interference(det, sysm, gamma)
            gd = math.sin(gamma / 2) * math.sin(gamma / 2 + phi_d)
            form = gd * math.sin(gamma / 2) / math.tan(gamma / 2 + phi_d) * math.cos(gamma / 2 - phi_s)
            assert xi == pytest.approx(form, abs=1e-12)
            checked += 1

    def test_balanced_detector_reduces_to_interference_difference(self, rng):
        # both detector deltas zero: the correction term drops out
        det = balanced_mzi(0.9)
        sysm = random_mzi(rng)
        gamma = 1.7
        phi_d, phi_s = det.tuning_phase, sysm.tuning_phase
        delta_d = fringe(det, gamma, phi_d)[4]
        delta_s = fringe(sysm, gamma, -phi_s)[4]
        delta_ds = coupling(gamma, phi_d - phi_s, math.cos(phi_d) * math.cos(phi_s))[1]
        assert xi_joint_interference(det, sysm, gamma) == pytest.approx(
            delta_ds - delta_d * delta_s, abs=1e-15
        )

    def test_vanishes_at_zero_coupling(self, rng):
        for _ in range(50):
            det, sysm = random_mzi(rng, t_lo=0.1, t_hi=0.9), random_mzi(rng)
            assert xi_joint_interference(det, sysm, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_zero_visibility_detector_rejected(self):
        det = InterferometerConfig(qpc_from_transmission(1.0), qpc_from_transmission(0.5), 0.0)
        with pytest.raises(AmbiguousMeasurementError):
            xi_joint_interference(det, balanced_mzi(0.0), 1.0)

    @pytest.mark.parametrize("gamma", [math.inf, math.nan], ids=["inf", "nan"])
    def test_non_finite_coupling_names_gamma(self, gamma):
        with pytest.raises(ValueError, match="^gamma .* is not a finite number$"):
            xi_joint_interference(balanced_mzi(0.9), balanced_mzi(0.2), gamma)


class TestConditionedAverage:
    def test_deterministic_path_pins_value(self):
        lower = make_system(1.0, 0.6, 0.9)
        upper = make_system(0.0, 0.6, 0.9)
        for gamma in (0.3, 1.0, math.pi):
            det = balanced_mzi(0.4)
            for s in SystemDrain:
                assert steady(det, lower, gamma).conditioned_average(s) == pytest.approx(1.0, abs=1e-10)
                assert steady(det, upper, gamma).conditioned_average(s) == pytest.approx(-1.0, abs=1e-10)

    def test_strong_unambiguous_detector_independent(self, rng):
        for _ in range(50):
            sysm = random_mzi(rng, t_lo=0.15, t_hi=0.85)
            det = balanced_mzi(0.0)
            d1, d2 = sysm.qpc1.delta, sysm.qpc2.delta
            avg1 = steady(det, sysm, math.pi).conditioned_average(SystemDrain.S1)
            avg2 = steady(det, sysm, math.pi).conditioned_average(SystemDrain.S2)
            assert avg1 == pytest.approx((d1 + d2) / (1 + d1 * d2), abs=1e-10)
            assert avg2 == pytest.approx((d1 - d2) / (1 - d1 * d2), abs=1e-10)
            assert -1.0 - 1e-12 <= avg1 <= 1.0 + 1e-12

    def test_strong_coupling_closed_form_with_erasure_term(self, rng):
        for _ in range(50):
            phi_d = rng.uniform(0.2, math.pi / 2 - 0.2)
            phi_s = rng.uniform(-3, 3)
            sysm = InterferometerConfig(
                qpc_from_transmission(rng.uniform(0.2, 0.8)),
                qpc_from_transmission(rng.uniform(0.2, 0.8)),
                phi_s,
            )
            beta_plus, _, v_s, *_ = fringe(sysm, math.pi, -phi_s)
            d1, d2 = sysm.qpc1.delta, sysm.qpc2.delta
            avg = steady(balanced_mzi(phi_d), sysm, math.pi).conditioned_average(SystemDrain.S1)
            expected = (d1 + d2) / beta_plus + (v_s / beta_plus) * math.tan(phi_d) * math.sin(phi_s)
            assert avg == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("gamma", [math.inf, math.nan], ids=["inf", "nan"])
    def test_non_finite_coupling_names_gamma(self, gamma):
        # gamma is named by its role, the coupling phase, and by its value
        with pytest.raises(ValueError, match=rf"^coupling phase {gamma!r}, .* not all inside \[0, 2\*pi\]"):
            steady(balanced_mzi(0.9), balanced_mzi(0.2), gamma).conditioned_average(SystemDrain.S1)

    @pytest.mark.parametrize("gamma", [-1e-300, -0.1, 2.0 * math.pi + 1e-15, 7.0, 2.0**31],
                             ids=["below-0", "-0.1", "above-2pi", "7", "2**31"])
    def test_coupling_outside_0_to_2pi_names_the_coupling_phase(self, gamma):
        # gamma enters through a steady CouplingModel: the domain is [0, 2 pi],
        # narrower than the [-2**31, 2**31] that detector_params takes
        with pytest.raises(ValueError, match=r"^coupling phase .* not all inside \[0, 2\*pi\]"):
            steady(balanced_mzi(0.9), balanced_mzi(0.2), gamma).conditioned_average(SystemDrain.S1)

    @pytest.mark.parametrize("gamma", [0.0, 2.0 * math.pi], ids=["0", "2pi"])
    def test_coupling_domain_edges_are_inside(self, gamma):
        # both edges pass the domain check and reach the ambiguity rule: no net coupling
        with pytest.raises(AmbiguousMeasurementError):
            steady(balanced_mzi(0.9), balanced_mzi(0.2), gamma).conditioned_average(SystemDrain.S1)

    def test_near_ambiguous_erasure_divergence(self):
        det = balanced_mzi(math.pi / 2 - 0.01)
        sysm = balanced_mzi(math.pi / 2)
        avg = steady(det, sysm, math.pi).conditioned_average(SystemDrain.S1)
        assert abs(avg) > 50.0
        cv = contextual_values(OBS, detector_params(det, math.pi))
        assert abs(avg) <= max(abs(cv.alpha_d1), abs(cv.alpha_d2)) + 1e-9

    def test_consistency_relation(self, rng):
        checked = 0
        while checked < 200:
            det = random_mzi(rng, t_lo=0.1, t_hi=0.9)
            sysm = random_mzi(rng, t_lo=0.1, t_hi=0.9)
            gamma = rng.uniform(0.2, 2 * math.pi - 0.2)
            dp = detector_params(det, gamma)
            if abs(dp.visibility * dp.Gamma) < 1e-3:
                continue
            stats = JointStatistics(joint_probability_table(det, sysm, gamma))
            if stats.system_marginals.min() < 1e-6:
                continue
            total = sum(
                steady(det, sysm, gamma).conditioned_average(s) * stats.p_system(s)
                for s in SystemDrain
            )
            cv = contextual_values(OBS, dp)
            scale = max(1.0, abs(cv.alpha_d1), abs(cv.alpha_d2))
            assert total == pytest.approx(sysm.qpc1.delta, abs=1e-10 * scale)
            checked += 1

    def test_bounded_by_contextual_values(self, rng):
        checked = 0
        while checked < 200:
            det = random_mzi(rng, t_lo=0.1, t_hi=0.9)
            sysm = random_mzi(rng, t_lo=0.1, t_hi=0.9)
            gamma = rng.uniform(0.2, 2 * math.pi - 0.2)
            dp = detector_params(det, gamma)
            if abs(dp.visibility * dp.Gamma) < 1e-3:
                continue
            stats = JointStatistics(joint_probability_table(det, sysm, gamma))
            if stats.system_marginals.min() < 1e-6:
                continue
            cv = contextual_values(OBS, dp)
            lo, hi = sorted((cv.alpha_d1, cv.alpha_d2))
            for s in SystemDrain:
                value = steady(det, sysm, gamma).conditioned_average(s)
                assert lo - 1e-9 <= value <= hi + 1e-9
            checked += 1

    def test_observable_offset_is_affine(self):
        det = balanced_mzi(0.7)
        sysm = SYSTEM_06
        base = steady(det, sysm, 1.3).conditioned_average(SystemDrain.S1)
        shifted = steady(det, sysm, 1.3, ObservableCoefficients(a0=0.5, a3=2.0)).conditioned_average(SystemDrain.S1)
        assert shifted == pytest.approx(0.5 + 2.0 * base, abs=1e-10)

    def test_impossible_post_selection(self):
        det = balanced_mzi(0.4)
        # balanced system, zero tuning, zero coupling: S1 never clicks, but
        # gamma = 0 also collapses the contextual values, so use a detector
        # with finite Gamma and a dark system port instead
        sysm = InterferometerConfig(qpc_from_transmission(1.0), qpc_from_transmission(1.0), 0.0)
        stats = JointStatistics(joint_probability_table(det, sysm, 2.0))
        assert stats.p_system(SystemDrain.S2) == pytest.approx(0.0, abs=1e-15)
        with pytest.raises(PostSelectionImpossibleError) as excinfo:
            steady(det, sysm, 2.0).conditioned_average(SystemDrain.S2)
        assert excinfo.value.drain == "S2"

    def test_contextual_value_beyond_the_float_range_raises(self):
        det = balanced_mzi(0.0)
        with pytest.raises(ObservableRangeError, match="^observable: a contextual value is not a finite number$"):
            steady(det, det, 0.5, ObservableCoefficients(a3=1e308)).conditioned_average(SystemDrain.S1)

    def test_stacked_average_beyond_the_float_range_raises_without_a_warning(self):
        # the system of configs/strong_measurement.conf over phi_s; the drain sum overflows
        sysm = InterferometerConfig(qpc_from_transmission(0.8), qpc_from_transmission(0.5), np.linspace(0, 6, 200))
        with pytest.raises(ObservableRangeError, match="^observable: a contextual value is not a finite number$"):
            steady(balanced_mzi(0.0), sysm, 0.5, ObservableCoefficients(1.7976931348623157e308, 1e-300)).conditioned_average(SystemDrain.S1)

    def test_infinite_average_raises_and_nan_passes(self):
        # finite values overflow where a cell of -1e-12 makes P(D | S1) = (-1, 2)
        edge = JointStatistics(np.array([[-1e-12, 0.5], [2e-12, 0.5 - 1e-12]]))
        with pytest.raises(ObservableRangeError):
            post_selected_average(ContextualValues(1e308, 1e308), edge, SystemDrain.S1)
        stats = JointStatistics(joint_probability_table(balanced_mzi(0.3), SYSTEM_06, 1.0))
        assert math.isnan(post_selected_average(ContextualValues(math.nan, 0.0), stats, SystemDrain.S1))

    @pytest.mark.parametrize("coupling", [CouplingModel(1.0), CouplingModel(1.0, 0.5, 0.9)],
                             ids=["steady", "fluctuating"])
    def test_ambiguity_is_checked_before_the_post_selection(self, coupling):
        # a detector with V = 0 carries no which-path information, and a system
        # whose QPCs both transmit fully never reaches S2, at any coupling
        blind = InterferometerConfig(qpc_from_transmission(1.0), qpc_from_transmission(0.5), 0.4)
        # a stack whose first point fails only the post-selection and whose second fails both
        stack = InterferometerConfig(qpc_from_transmission(np.array([0.5, 1.0])), qpc_from_transmission(0.5), 0.4)
        dark_s2 = make_system(1.0, 1.0, 0.0)
        for det, error in ((blind, AmbiguousMeasurementError), (balanced_mzi(0.4), PostSelectionImpossibleError),
                           (stack, AmbiguousMeasurementError)):
            with pytest.raises(error):
                AveragedExperiment(det, dark_s2, coupling).conditioned_average(SystemDrain.S2)

    def test_fluctuating_deck_gives_the_scan_cells_bits(self):
        config = ExperimentConfig(balanced_mzi(1.0), SYSTEM_06, CouplingModel(math.pi / 2, 0.5, 0.9), OBS)
        table = read_table(run_scan(config, "phi_s", 0.0, 6.0, 7, ("cond_avg_S1", "cond_avg_S2")))
        for column, s in enumerate(SystemDrain, start=1):
            assert np.array_equal(swept(config, "phi_s", table[:, 0]).conditioned_average(s), table[:, column])
            for phi_s, cell in table[:, [0, column]]:
                point = replace(config, system=replace(SYSTEM_06, tuning_phase=float(phi_s)))
                assert point.conditioned_average(s) == cell, (s, phi_s)

    def test_ambiguous_measurement_propagates(self):
        with pytest.raises(AmbiguousMeasurementError):
            steady(balanced_mzi(0.4), SYSTEM_06, 0.0).conditioned_average(SystemDrain.S1)


class TestWeakValue:
    def test_anomalous_amplification(self):
        wv = weak_value(SYSTEM_06, SystemDrain.S1)
        assert wv.real == pytest.approx(3.0, abs=1e-12)
        assert wv.imag == pytest.approx(0.0, abs=1e-12)

    def test_complementary_drain(self):
        wv = weak_value(SYSTEM_06, SystemDrain.S2)
        assert wv.real == pytest.approx(0.6 / 1.8, abs=1e-12)

    def test_symmetric_state_gives_zero(self):
        wv = weak_value(make_system(0.5, 0.5, 0.9), SystemDrain.S1)
        assert wv.real == pytest.approx(0.0, abs=1e-12)
        wv = weak_value(make_system(0.5, 0.5, 0.9), SystemDrain.S2)
        assert wv.real == pytest.approx(0.0, abs=1e-12)

    def test_matches_bra_ket_oracle(self, rng):
        sz = np.diag([1.0, -1.0]).astype(complex)
        for _ in range(200):
            sysm = random_mzi(rng, t_lo=0.1, t_hi=0.9)
            psi = np.array([
                np.exp(1j * sysm.tuning_phase) * math.sqrt(sysm.qpc1.transmission),
                1j * math.sqrt(sysm.qpc1.reflection),
            ])
            t2 = math.sqrt(sysm.qpc2.transmission)
            r2 = 1j * math.sqrt(sysm.qpc2.reflection)
            rows = {SystemDrain.S1: np.array([t2, r2]), SystemDrain.S2: np.array([r2, t2])}
            for drain, row in rows.items():
                overlap = row @ psi
                if abs(overlap) < 0.05:
                    continue
                oracle = (row @ (sz @ psi)) / overlap
                wv = weak_value(sysm, drain)
                assert wv.real == pytest.approx(oracle.real, abs=1e-10)
                assert wv.imag == pytest.approx(oracle.imag, abs=1e-10)

    def test_weak_coupling_oracle(self):
        avg = steady(balanced_mzi(math.pi / 2), SYSTEM_06, 1e-4).conditioned_average(SystemDrain.S1)
        assert avg == pytest.approx(3.0, abs=1e-2)
        # a balanced detector away from phi_d = pi/2 has the weak value as its limit too
        for phi_d, sysm in ((math.pi / 2, SYSTEM_06), (1.0, make_system(0.7, 0.4, 1.1))):
            for s in SystemDrain:
                avg = steady(balanced_mzi(phi_d), sysm, 1e-4).conditioned_average(s)
                assert avg == pytest.approx(weak_value(sysm, s).real, abs=1e-2)

    def test_vanishing_overlap_rejected(self):
        with pytest.raises(PostSelectionImpossibleError):
            weak_value(balanced_mzi(0.0), SystemDrain.S1)

    def test_post_selection_threshold_is_the_pipelines(self):
        # P_S1 = (1 - cos(phi_s)) / 2 = 8.0e-13, at or below the 1e-12 every
        # conditioned quantity requires of its post-selection marginal
        sysm = balanced_mzi(1.79e-6)
        for call in (lambda: weak_value(sysm, SystemDrain.S1), lambda: semiweak_value(sysm, 0, SystemDrain.S1)):
            with pytest.raises(PostSelectionImpossibleError) as excinfo:
                call()
            assert excinfo.value.drain == "S1"
            assert excinfo.value.probability == pytest.approx(8.0e-13, rel=2e-2)

    @pytest.mark.parametrize("marginals", [
        {SystemDrain.S1: math.nan},
        {SystemDrain.S1: np.array([0.5, math.nan])},
        {DetectorDrain.D1: np.array([0.5, 1.0]), SystemDrain.S2: np.array([0.5, math.nan])},
    ], ids=["point", "stack", "beside-unchecked"])
    def test_nan_marginal_names_its_drain(self, marginals):
        # every comparison with NaN is false, so `nan <= 1e-12` alone let it pass
        drain = list(marginals)[-1].name
        with pytest.raises(ValueError, match=f"^the marginal of drain {drain} is not a number$"):
            require_post_selection(marginals)


    @pytest.mark.parametrize("marginal, shown", [
        (10**400, str(10**400)), (math.inf, "inf"), (2.0, "2.0"), (1.0 + 4e-12, str(1.0 + 4e-12)),
        (-(10**400), str(-(10**400))), (-math.inf, "-inf"), (-1.0, "-1.0"), (-3e-12, "-3e-12"),
        (np.array([[0.5, 2.0], [0.0, 0.5]]), "2.0"),
    ], ids=["beyond", "inf", "2", "above-1", "-beyond", "-inf", "-1", "below-0", "stack"])
    def test_marginal_outside_the_probability_range_names_its_drain(self, marginal, shown):
        # not a probability: neither passed nor reported as a vanishing post-selection,
        # also where a later point of the stack has one
        with pytest.raises(ValueError, match=rf"^the marginal of drain S1 is {re.escape(shown)}, outside \[0, 1\]$"):
            require_post_selection({SystemDrain.S1: marginal})

    @pytest.mark.parametrize("d2s1", [1e-12, 2e-12], ids=["two-cell", "normalization"])
    def test_marginals_of_an_accepted_table_are_marginals(self, d2s1):
        # cells up to 1e-12 outside [0, 1] and a total within 1e-12 of 1 put P_S1 at
        # 1.0000000000020002 or 1.000000000003 and P_S2 at -2e-12
        stats = JointStatistics(np.array([[1.0 + 1e-12, -1e-12], [d2s1, -1e-12]]))
        require_post_selection({SystemDrain.S1: stats.p_system(SystemDrain.S1)})
        cv = ContextualValues(-1.0, 1.0)
        assert post_selected_average(cv, stats, SystemDrain.S1) == pytest.approx(-1.0, abs=1e-11)
        with pytest.raises(PostSelectionImpossibleError) as excinfo:
            require_post_selection({SystemDrain.S2: stats.p_system(SystemDrain.S2)})
        assert excinfo.value.probability == -2e-12
        # the transposed table puts the same edges on the detector marginals, which
        # average_current, reconstruct_average and contextual_estimate take
        detector = JointStatistics(stats.joint.T)
        p_d = (detector.p_detector(DetectorDrain.D1), detector.p_detector(DetectorDrain.D2))
        assert p_d == (stats.p_system(SystemDrain.S1), -2e-12)
        assert average_current(p_d[0], PhysicalBias(100e-6, 10e-3, 0.02)) > 0.0
        assert average_current(p_d[1], PhysicalBias(100e-6, 10e-3, 0.02)) < 0.0
        assert reconstruct_average(cv, *p_d) == pytest.approx(-1.0, abs=1e-11)
        assert contextual_estimate([3, 1, 0, 0], cv, p_d).estimate == -1.0


class TestSemiWeakValue:
    def test_interference_in_numerator(self):
        assert semiweak_value(SYSTEM_06, 0, SystemDrain.S1) == pytest.approx(-1.0, abs=1e-12)

    def test_reduces_to_weak_value_without_interference(self):
        sysm = make_system(1.0, 0.7, 0.4)  # V_s = 0
        for s in SystemDrain:
            assert semiweak_value(sysm, 0, s) == pytest.approx(weak_value(sysm, s).real, abs=1e-12)

    def test_parity_flips_interference_sign(self):
        even = semiweak_value(SYSTEM_06, 0, SystemDrain.S1)
        odd = semiweak_value(SYSTEM_06, 1, SystemDrain.S1)
        assert even == pytest.approx((0.6 - 0.8) / 0.2, abs=1e-12)
        assert odd == pytest.approx((0.6 + 0.8) / 0.2, abs=1e-12)

    @pytest.mark.parametrize("n", [0.5, 1.0, np.array([0.0, 1.0]), np.array([True])])
    def test_requires_an_integer_n(self, n):
        with pytest.raises(ValueError, match="integer n"):
            semiweak_value(SYSTEM_06, n, SystemDrain.S1)

    def test_weak_coupling_oracle_even_parity(self):
        avg = steady(balanced_mzi(0.0), SYSTEM_06, 1e-4).conditioned_average(SystemDrain.S1)
        assert avg == pytest.approx(-1.0, abs=1e-2)
        avg = steady(balanced_mzi(0.0), SYSTEM_06, 1e-4).conditioned_average(SystemDrain.S2)
        assert avg == pytest.approx(semiweak_value(SYSTEM_06, 0, SystemDrain.S2), abs=1e-2)


class TestWeakLimitCompetition:
    # generic tuning exposes the first-order approach to the weak value;
    # the second-order semi-weak approach needs the interference extremum
    # sin(phi_s) = 0, where the leading corrections cancel (keep the
    # post-selection denominator well away from zero there)
    SYSTEM_GENERIC = make_system(0.65, 0.4, 0.7)
    SYSTEM_EXTREMUM = make_system(0.9, 0.5, 0.0)

    def test_weak_branch_first_order(self):
        wv = weak_value(self.SYSTEM_GENERIC, SystemDrain.S1).real
        gammas = np.array([0.1, 0.05, 0.025])
        errors = [
            abs(steady(balanced_mzi(math.pi / 2), self.SYSTEM_GENERIC, g).conditioned_average(SystemDrain.S1) - wv)
            for g in gammas
        ]
        slope = np.polyfit(np.log(gammas), np.log(errors), 1)[0]
        assert 0.9 <= slope <= 1.2

    def test_semiweak_branch_second_order(self):
        sw = semiweak_value(self.SYSTEM_EXTREMUM, 0, SystemDrain.S1)
        gammas = np.array([0.1, 0.05, 0.025])
        errors = [
            abs(steady(balanced_mzi(0.0), self.SYSTEM_EXTREMUM, g).conditioned_average(SystemDrain.S1) - sw)
            for g in gammas
        ]
        slope = np.polyfit(np.log(gammas), np.log(errors), 1)[0]
        assert slope >= 1.8

    def test_limits_differ_for_generic_system(self):
        for sysm in (self.SYSTEM_GENERIC, self.SYSTEM_EXTREMUM):
            wv = weak_value(sysm, SystemDrain.S1).real
            sw = semiweak_value(sysm, 0, SystemDrain.S1)
            assert abs(wv - sw) > 0.1
