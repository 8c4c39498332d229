import gc
import hashlib
import math
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import accumulate
from pathlib import Path
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st
from numpy.random import Generator, Philox
from scipy.integrate import quad
from scipy.stats import chi2

from coupled_mzi import (
    AmbiguousMeasurementError,
    AveragedExperiment,
    ContextualValues,
    CouplingModel,
    EstimateReport,
    InterferometerConfig,
    JointStatistics,
    ObservableCoefficients,
    ObservableRangeError,
    ObservationBudget,
    contextual_estimate,
    contextual_values,
    damping_eta,
    detector_params,
    joint_probability_table,
    load_config,
    measurement_operators,
    observation_time,
    povm_pair,
    qpc_from_transmission,
    sample_events,
    sample_events_tally,
)
from coupled_mzi import cli, stochastic
from coupled_mzi.params import DetectorDrain
from helpers import (balanced_mzi, detector_drain_probabilities, random_mzi, random_stack,
                      stacked_experiment)
from reference import closed_form_table, raised_cosine_pdf

OBS = ObservableCoefficients()
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


class TestRaisedCosine:
    GAMMA, SIGMA = math.pi / 2, math.pi / 4

    def test_peak_value(self):
        assert raised_cosine_pdf(self.GAMMA, self.GAMMA, self.SIGMA) == pytest.approx(
            1.0 / self.SIGMA, abs=1e-15
        )

    def test_support_edges(self):
        assert raised_cosine_pdf(self.GAMMA - self.SIGMA, self.GAMMA, self.SIGMA) == 0.0
        assert raised_cosine_pdf(self.GAMMA + self.SIGMA, self.GAMMA, self.SIGMA) == 0.0
        assert raised_cosine_pdf(self.GAMMA + 2.0, self.GAMMA, self.SIGMA) == 0.0

    def test_normalization_quadrature(self):
        total, _ = quad(
            lambda g: raised_cosine_pdf(g, self.GAMMA, self.SIGMA),
            self.GAMMA - self.SIGMA,
            self.GAMMA + self.SIGMA,
            limit=200,
        )
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_degenerate_width_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            raised_cosine_pdf(1.0, 1.0, 0.0)
        with pytest.raises(ValueError, match="degenerate"):
            raised_cosine_pdf(1.0, 1.0, np.array([0.5, 0.0]))

    @pytest.mark.parametrize("model", [
        (1.0, 0.5),
        (np.array([0.4, 1.0, 1.5, 6.0]), 0.5),
        (1.0, np.array([0.1, 0.5, 1.0, math.pi])),
    ])
    def test_stack_matches_scalar_calls(self, model):
        gamma_prime = np.array([1.0, 1.2, 2.0, 0.6])
        density = raised_cosine_pdf(gamma_prime, *model)
        points = [raised_cosine_pdf(g, *(np.broadcast_to(x, 4)[i].item() for x in model))
                  for i, g in enumerate(gamma_prime.tolist())]
        assert all(type(x) is float for x in points)
        assert density.shape == (4,) and np.array_equal(density, points)
        assert 0.0 in points and min(points) >= 0.0

# damping_eta(s) = (pi^2 / ((pi - s)(pi + s))) (sin(s) / s).  With u = 2**-53,
# to first order and relative to eta: math.pi**2 is within 1.7u of pi^2
# (math.pi is 0.35u below pi, and the square rounds); pi - s is fl(math.pi - s)
# (u, exact from pi/2 on) plus _PI_LOW (within 0.22u of the least pi - s,
# 5.7e-16), rounded: 2.3u; pi + s is within 1.35u; the product and the
# quotient add u each, sin(s) one ulp (2u), and sin(s) / s and the last
# product u each: 11.35u.  12u leaves room for the second-order terms.
ETA_BOUND = 12 * 2.0**-53


def exact_eta(sigma: float) -> mpmath.mpf:
    """``pi^2 sin(s) / (s (pi^2 - s^2))`` at the double ``sigma``, to 50 digits."""
    with mpmath.workdps(50):
        s = mpmath.mpf(sigma)
        return mpmath.pi**2 * mpmath.sin(s) / (s * (mpmath.pi**2 - s * s))


class TestDampingEta:
    def test_limits(self):
        assert damping_eta(0.0) == 1.0
        assert damping_eta(math.pi) == 0.5
        assert damping_eta(1e-9) == pytest.approx(1.0, abs=1e-12)
        assert damping_eta(math.pi - 1e-9) == pytest.approx(0.5, abs=1e-6)

    def test_half_pi_value(self):
        assert damping_eta(math.pi / 2) == pytest.approx(8.0 / (3.0 * math.pi), abs=1e-12)

    def test_near_pi_against_quadrature(self):
        sigma = math.pi - 1e-6
        expected, _ = quad(
            lambda g: raised_cosine_pdf(g, math.pi, sigma) * math.cos(g - math.pi),
            math.pi - sigma,
            math.pi + sigma,
            limit=400,
        )
        assert damping_eta(sigma) == pytest.approx(expected, abs=1e-8)

    @pytest.mark.parametrize("gap", [2.0**-51, 1e-12, 1e-9, 1e-6, 1e-3])
    def test_near_pi_to_full_precision(self, gap):
        # eta = E[cos(g' - gamma)], here with gamma = 0
        sigma = math.pi - gap
        expected = fluctuation_average(math.cos, CouplingModel(gamma=0.0, sigma=sigma))
        assert damping_eta(sigma) == pytest.approx(expected, abs=1e-15)

    @settings(max_examples=300, deadline=None)
    @given(sigma=st.floats(0.0, math.pi, exclude_min=True, exclude_max=True))
    @example(sigma=3.125967652589793)  # lost 96u to pi^2 - s^2 taken as a plain difference
    @example(sigma=3.1253464504519144)
    @example(sigma=math.pi - 2.0**-6)
    @example(sigma=float(np.nextafter(math.pi, 0.0)))
    @example(sigma=1e-12)
    @example(sigma=5e-324)
    def test_within_its_rounding_bound_of_the_exact_value(self, sigma):
        exact = exact_eta(sigma)
        assert abs(damping_eta(sigma) - exact) <= ETA_BOUND * exact

    def test_domain(self):
        with pytest.raises(ValueError):
            damping_eta(-0.1)
        with pytest.raises(ValueError):
            damping_eta(math.pi + 0.1)

    def test_monotone_decreasing(self):
        grid = np.linspace(0.0, math.pi, 50)
        values = [damping_eta(s) for s in grid]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_interference_damping_quadrature_random(self, rng):
        """eta is exactly the raised-cosine damping of the coupling-sensitive
        interference component cos(gamma' + phi_d) inside Gamma."""
        checked = 0
        while checked < 20:
            gamma = rng.uniform(0.0, 2 * math.pi)
            phi_d = rng.uniform(-3, 3)
            sigma = rng.uniform(0.1, math.pi - 0.05)
            if abs(math.cos(gamma + phi_d)) < 0.1:
                continue
            averaged, _ = quad(
                lambda g: raised_cosine_pdf(g, gamma, sigma) * math.cos(g + phi_d),
                gamma - sigma,
                gamma + sigma,
                limit=400,
            )
            assert averaged / math.cos(gamma + phi_d) == pytest.approx(
                damping_eta(sigma), abs=1e-8
            )
            checked += 1


class TestAveragedDetectorParams:
    def test_identity_when_deterministic(self):
        p = detector_params(balanced_mzi(0.7), 1.1)
        averaged = AveragedExperiment(balanced_mzi(0.7), balanced_mzi(0.3), CouplingModel(gamma=1.1)).bundle
        assert averaged == p

    def test_bundle_alphas_and_eta_read_no_system_field(self):
        det, model = balanced_mzi(0.7), CouplingModel(gamma=1.1, sigma=0.5, pair_probability=0.9)
        blind, full = AveragedExperiment(det, None, model), AveragedExperiment(det, balanced_mzi(0.3), model)
        assert (blind.eta, blind.bundle, blind.alphas) == (full.eta, full.bundle, full.alphas)

    def test_pair_probability_scales_gamma(self):
        # unpaired emissions see no coupling: Gamma(0) = 0, Delta(0) = cos(phi_d)
        det = balanced_mzi(0.7)
        model = CouplingModel(gamma=1.1, pair_probability=0.5)
        p = detector_params(det, 1.1)
        averaged = AveragedExperiment(det, balanced_mzi(0.3), model).bundle
        assert averaged.Gamma == pytest.approx(
            fluctuation_average(lambda g: detector_params(det, g).Gamma, model), abs=1e-15)
        assert averaged.Gamma == pytest.approx(0.5 * p.Gamma, abs=1e-15)
        assert averaged.Delta == pytest.approx(
            fluctuation_average(lambda g: detector_params(det, g).Delta, model), abs=1e-15)
        assert averaged.visibility == p.visibility

    def test_width_damps_gamma_with_quadrature_oracle(self):
        # at phi_d = pi/2 the coupling-free part of Gamma vanishes, so the
        # full Gamma damps by exactly eta(sigma)
        gamma, sigma = 1.3, math.pi / 2
        det = balanced_mzi(math.pi / 2)
        p = detector_params(det, gamma)
        averaged = AveragedExperiment(det, balanced_mzi(0.3), CouplingModel(gamma=gamma, sigma=sigma)).bundle
        assert averaged.Gamma == pytest.approx(8.0 / (3.0 * math.pi) * p.Gamma, abs=1e-12)
        expected, _ = quad(
            lambda g: raised_cosine_pdf(g, gamma, sigma)
            * math.sin(g / 2) * math.sin(g / 2 + det.tuning_phase),
            gamma - sigma,
            gamma + sigma,
            limit=400,
        )
        assert averaged.Gamma == pytest.approx(expected, abs=1e-10)

    def test_amplifies_contextual_values(self):
        # the averaged POVM is diag(0, 1/2) at D1 and diag(1, 1/2) at D2, so
        # sigma_z = alpha_D1 E_D1 + alpha_D2 E_D2 needs (-3, 1)
        det = balanced_mzi(0.0)
        model = CouplingModel(gamma=math.pi, pair_probability=0.5)
        damped = AveragedExperiment(det, balanced_mzi(0.3), model).bundle
        cv = contextual_values(OBS, damped)
        expected = povm_oracle_weights(det, model, OBS)
        assert cv.alpha_d1 == pytest.approx(expected[0], abs=1e-12)
        assert cv.alpha_d2 == pytest.approx(expected[1], abs=1e-12)
        assert expected == (pytest.approx(-3.0, abs=1e-12), pytest.approx(1.0, abs=1e-12))


def fluctuation_average(f, model: CouplingModel) -> float:
    """Oracle: ``E[f(g')]`` over the coupling model by quadrature.  Paired
    emissions draw ``g' = gamma + sigma t`` from the raised cosine, with
    ``t`` of density ``(1 + cos pi t) / 2`` on ``[-1, 1]`` (a point mass at
    ``gamma`` when ``sigma = 0``), unpaired ones have ``g' = 0``.  In ``t``
    the support stays resolved in doubles however small ``sigma`` is."""
    if model.sigma > 0.0:
        paired, _ = quad(lambda t: (1.0 + math.cos(math.pi * t)) / 2.0
                         * f(model.gamma + model.sigma * t),
                         -1.0, 1.0, limit=200, epsabs=1e-15, epsrel=1e-13)
    else:
        paired = f(model.gamma)
    return model.pair_probability * paired + (1.0 - model.pair_probability) * f(0.0)


def povm_oracle_weights(det, model: CouplingModel, obs: ObservableCoefficients):
    """Oracle: drain weights solving ``alpha_1 E_D1 + alpha_2 E_D2 = a0 + a3
    sigma_z`` on the POVM diagonals averaged by quadrature."""
    diagonals = [[fluctuation_average(
        lambda g, d=d, k=k: getattr(povm_pair(measurement_operators(det, g)), d)[k], model)
        for d in ("diag_d1", "diag_d2")] for k in (0, 1)]
    a1, a2 = np.linalg.solve(diagonals, [obs.a0 + obs.a3, obs.a0 - obs.a3])
    return float(a1), float(a2)


def averaged_table_oracle(det, sysm, model: CouplingModel) -> np.ndarray:
    """Oracle: the amplitude pipeline's joint table averaged by quadrature."""
    return np.array([[fluctuation_average(
        lambda g, d=d, s=s: JointStatistics(joint_probability_table(det, sysm, g)).joint[d, s], model)
        for s in (0, 1)] for d in (0, 1)])


PHASES = st.floats(-2 * math.pi, 2 * math.pi)
QPCS = st.builds(qpc_from_transmission, st.floats(0.0, 1.0), PHASES, PHASES)
MZIS = st.builds(InterferometerConfig, QPCS, QPCS, PHASES)


# generic tunings, widths and pair probabilities, the edges sigma = pi and p = 0 included
ORACLE_MODELS = [
    CouplingModel(gamma=1.1, sigma=2.0, pair_probability=0.7),
    CouplingModel(gamma=2.2, sigma=0.5, pair_probability=0.9),
    CouplingModel(gamma=0.3, sigma=math.pi, pair_probability=0.6),
    CouplingModel(gamma=4.0, sigma=1.3, pair_probability=0.0),
    CouplingModel(gamma=5.9, sigma=math.pi, pair_probability=1.0),
    CouplingModel(gamma=3.5, sigma=0.0, pair_probability=0.35),
]


# The mixture and the closed form at the averaged coupling terms are, in
# exact arithmetic, one average X(eta) of the exact tables at T and 1 - T;
# each side rounds its own operations and takes its own eta.  With u = 2**-53,
# to first order, the strategies' phases within 2 pi of 0, gamma in [0, 2 pi],
# R = fl(1 - T) within u/2 of 1 - T, and sine and cosine within one ulp (2u):
# - eta: both damping_etas take (pi - s)(pi + s), in their own order, and
#   each is within 11.35u (ETA_BOUND's count; reference.damping_eta's differs
#   only in order).  dX/deta = p (P(gamma) - (P(pi) + P(0)) / 2) lies in
#   [-1, 1], so the two etas part the sides by at most 23u.
# - the mixture: per table, with sqrt(T) within u, sqrt(R) within 1.5u and
#   the rounded phi_d + g (|.| <= 4 pi) within 12.6u, the detector rows A and
#   B are within 10.2u on the system's lower arm and 22.8u on its upper arm;
#   the system's factors t_s T_2 e^{i phi_s} and t_s R_2 e^{i phi_s} are
#   within 9.2u of their moduli w, r_s R_2 and r_s T_2 within 4u of theirs,
#   rho.  A cell X_L w - X_U rho, with its complex product
#   (sqrt(5) u), real products and sums, is within 27.8u (w + rho) + u <= 29u,
#   since w + rho <= 1.  re*re + im*im adds 2u p: |dp| <= 58u |c| + 2u p; with
#   sum |c| <= 2 the total is within 121u, and the division gives E = 182u.
#   P(math.pi) is within 2 |pi - math.pi| = 2.2u of P(pi), at a weight <= 1/2;
#   the weights' errors sum to 3u, and the three products and two sums add
#   3u: 190u.
# - the closed form: d = T - R within 1.5u and epsilon = 2 sqrt(T R) within 2u
#   give beta 6u, V 5u and d1 +- d2 5u.  The arguments g/2 + phi (|.| <= 3 pi)
#   add 9.5u, g/2 + (phi_d - phi_s) 28.4u with the rounded difference, so
#   Gamma is within 14.5u (the joint term's 33.4u) and Gamma_bar, after five
#   roundings, 19.5u (38.4u).  In Delta_bar Gamma's error cancels: 27.5u
#   (49.4u, with cos phi_d cos phi_s).  V_d V_s Delta_ds is within 73.4u, each
#   term Delta_bar beta + Gamma_bar (d1 +- d2) (<= 6) within 123u, and the
#   cell's sum, whose partial sums reach 4, 6, 12 and 18, within 455.4u / 4 <= 114u.
MIXTURE_BOUND = (23 + 190 + 114) * 2.0**-53


class TestAveragedJointTable:
    @pytest.mark.parametrize("model", ORACLE_MODELS)
    def test_matches_quadrature(self, model, rng):
        for _ in range(3):
            det, sysm = random_mzi(rng), random_mzi(rng)
            table = AveragedExperiment(det, sysm, model).stats.joint
            assert table.shape == (2, 2)
            assert np.max(np.abs(table - averaged_table_oracle(det, sysm, model))) <= 1e-12

    @pytest.mark.parametrize("model", ORACLE_MODELS)
    def test_bundle_matches_quadrature(self, model, rng):
        for _ in range(3):
            det, sysm = random_mzi(rng), random_mzi(rng)
            experiment = AveragedExperiment(det, sysm, model)
            averaged = experiment.bundle
            for field in ("Gamma", "Delta"):
                expected = fluctuation_average(
                    lambda g: getattr(detector_params(det, g), field), model)
                assert getattr(averaged, field) == pytest.approx(expected, abs=1e-12)
            # the bundle's drain probabilities are the averaged table's marginals
            marginals = experiment.stats.detector_marginals
            assert detector_drain_probabilities(averaged, sysm.qpc1.delta) == (
                pytest.approx(marginals[0], abs=1e-12), pytest.approx(marginals[1], abs=1e-12))

    @pytest.mark.parametrize("model", ORACLE_MODELS)
    def test_weights_invert_the_averaged_povm(self, model, rng):
        obs = ObservableCoefficients(a0=0.25, a3=1.5)
        for _ in range(3):
            det = random_mzi(rng)
            averaged = AveragedExperiment(det, det, model).bundle  # the bundle reads no system field
            if model.pair_probability == 0.0:  # no pair, no which-path information
                assert abs(averaged.Gamma) <= 1e-15
                with pytest.raises(AmbiguousMeasurementError):
                    contextual_values(obs, averaged)
                continue
            cv = contextual_values(obs, averaged)
            # the weights carry a relative rounding error ~ eps / |V Gamma_bar|
            scale = max(1.0, abs(cv.alpha_d1), abs(cv.alpha_d2))
            scale /= min(1.0, abs(averaged.visibility * averaged.Gamma))
            expected = povm_oracle_weights(det, model, obs)
            assert cv.alpha_d1 == pytest.approx(expected[0], abs=1e-12 * scale)
            assert cv.alpha_d2 == pytest.approx(expected[1], abs=1e-12 * scale)

    @settings(max_examples=200, deadline=None)
    @given(det=MZIS, sysm=MZIS, gamma=st.floats(0.0, 2 * math.pi))
    def test_is_the_pipeline_table_without_fluctuations(self, det, sysm, gamma):
        # one configuration at sigma = 0, p = 1: the one table montecarlo samples
        stats = AveragedExperiment(det, sysm, CouplingModel(gamma=gamma)).stats
        assert np.array_equal(stats.joint, joint_probability_table(det, sysm, gamma))

    def test_is_the_pipeline_stack_without_fluctuations(self):
        det, sysm, gamma = stacked_experiment(random_stack(np.random.default_rng(29), 200, 0.0, 1.0))
        table = AveragedExperiment(det, sysm, CouplingModel(gamma=gamma)).stats.joint
        assert table.shape == (200, 2, 2)
        assert np.array_equal(table, joint_probability_table(det, sysm, gamma))

    def test_checks_a_config_stack_once_under_a_scalar_model(self, monkeypatch):
        # a sweep of phi_d at one steady coupling phase: one stack of 100
        # tables, checked once, with the bits of the table's stack
        det, sysm = balanced_mzi(np.linspace(-math.pi, math.pi, 100)), balanced_mzi(0.3)
        expected = joint_probability_table(det, sysm, 1.0)
        check, checked = JointStatistics.__post_init__, []
        monkeypatch.setattr(JointStatistics, "__post_init__", lambda stats: checked.append(check(stats)))
        table = AveragedExperiment(det, sysm, CouplingModel(gamma=1.0)).stats.joint
        assert len(checked) == 1
        assert table.shape == (100, 2, 2) and np.array_equal(table, expected)

    @settings(max_examples=200, deadline=None)
    @given(det=MZIS, sysm=MZIS, gamma=st.floats(0.0, 2 * math.pi),
           sigma=st.floats(0.0, math.pi), p=st.floats(0.0, 1.0))
    @example(det=balanced_mzi(0.7), sysm=balanced_mzi(-0.4), gamma=2.0, sigma=math.pi, p=0.8)
    # sigma just below pi - 2**-6, where damping_eta's plain pi^2 - s^2 lost 96u: 2.1e-15 apart
    @example(det=balanced_mzi(-math.pi), sysm=balanced_mzi(-math.pi), gamma=math.pi,
             sigma=3.125967652589793, p=1.0)
    def test_matches_the_closed_form_at_the_averaged_bundles(self, det, sysm, gamma, sigma, p):
        # the amplitude mixture and the closed form at the averaged coupling terms are one average
        model = CouplingModel(gamma=gamma, sigma=sigma, pair_probability=p)
        closed = closed_form_table(det, sysm, gamma, sigma, p)
        assert np.max(np.abs(AveragedExperiment(det, sysm, model).stats.joint - closed)) <= MIXTURE_BOUND

    def test_dark_drain_stays_dark(self):
        # D1 is dark at zero coupling, the one coupling phase of an unpaired
        # emission; no sampled event falls there
        model = CouplingModel(gamma=math.pi, sigma=1.0, pair_probability=0.0)
        stats = AveragedExperiment(balanced_mzi(0.0), balanced_mzi(0.3), model).stats
        assert np.max(np.abs(stats.joint[0])) <= 1e-15
        codes = sample_events(stats, 50_000, seed=13)
        assert np.all(codes >= 2)

    @settings(max_examples=100, deadline=None)
    @given(det=MZIS, sysm=MZIS, gamma=st.floats(0.0, 2 * math.pi),
           sigma=st.floats(0.0, math.pi), p=st.floats(0.0, 1.0))
    @example(det=balanced_mzi(0.7), sysm=balanced_mzi(-0.4), gamma=2.0, sigma=math.pi, p=0.8)
    @example(det=balanced_mzi(0.7), sysm=balanced_mzi(-0.4), gamma=2.0, sigma=1.0, p=0.0)
    def test_matches_the_averaged_closed_form(self, det, sysm, gamma, sigma, p):
        model = CouplingModel(gamma=gamma, sigma=sigma, pair_probability=p)
        expected = [[fluctuation_average(
            lambda g, d=d, s=s: closed_form_table(det, sysm, g)[d, s], model)
            for s in (0, 1)] for d in (0, 1)]
        assert np.max(np.abs(AveragedExperiment(det, sysm, model).stats.joint - expected)) <= 1e-12


def quarter_stats():
    det = balanced_mzi(math.pi / 2)
    sysm = balanced_mzi(0.4)
    return det, sysm, JointStatistics(joint_probability_table(det, sysm, math.pi / 2))


def digest(codes):
    return hashlib.sha256(codes.tobytes()).hexdigest()


def categories(u, probs):
    """The sampler's category pass over ``u`` with the edges of one flat table."""
    edges = list(accumulate(stochastic._cells(probs)[:-1]))
    return stochastic._categories(u, edges, np.empty(u.shape, np.uint8), np.empty(u.shape, np.bool_))


class TestCategoryRule:
    ROWS = np.array([
        [0.0, 0.5, 0.5, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.25, 0.0, 0.75, 0.0],
        [0.7, 0.2, 0.1, 0.0],  # cumulative sum ends at 1 - 2**-53
        [0.1, 0.2, 0.3, 0.4],
    ])

    def planted(self, probs):
        edges = np.cumsum(probs)
        below = np.nextafter(edges, 0.0)
        return np.unique(np.clip(np.concatenate([[0.0, 1.0 - 2.0**-53], edges, below]), 0.0, 1.0 - 2.0**-53))

    def test_never_returns_zero_probability(self):
        assert np.cumsum(self.ROWS[4])[-1] == 1.0 - 2.0**-53
        for probs, last in zip(self.ROWS, [2, 3, 0, 2, 2, 3]):
            u = self.planted(probs)
            codes = categories(u, probs)
            assert codes.dtype == np.uint8
            assert np.all(probs[codes] > 0.0)
            # the largest uniform goes to the last category of nonzero probability
            assert codes[u == 1.0 - 2.0**-53].tolist() == [last]

    def test_negative_cell_is_never_returned(self):
        # a closed-form table whose (D2,S1) cell rounds below zero; u is the edge after it
        det = InterferometerConfig(qpc_from_transmission(0.0), qpc_from_transmission(0.6638420095629117), math.pi)
        sysm = InterferometerConfig(qpc_from_transmission(0.5), qpc_from_transmission(0.5), 0.0)
        probs = closed_form_table(det, sysm, 5.0148511216585865).ravel()
        assert probs.tolist() == [0.0, 0.33615799043708827, -5.551115123125783e-17, 0.6638420095629118]
        JointStatistics(probs.reshape(2, 2))  # the table check accepts it
        u = 0.3361579904370882
        u = np.array([np.nextafter(u, 0.0), u, np.nextafter(u, 1.0)])
        codes = categories(u, probs)
        assert codes.tolist() == [1, 1, 3]

    def test_right_side_rule(self):
        probs = self.ROWS[5]
        edges = np.cumsum(probs)
        u = np.concatenate([[0.0], edges[:3], np.nextafter(edges[:3], 0.0)])
        got = categories(u, probs)
        assert got.tolist() == [0, 1, 2, 3, 0, 1, 2]


def clamped_categories(u, probs):
    """The category rule the sampler had before it compared only the edges
    below the last positive category: edges of ``max(p, 0)`` over the first
    three cells, then a clamp to the last category of positive probability."""
    codes = np.zeros(u.shape, np.uint8)
    edge = 0.0
    for p in probs[:3].tolist():
        edge = edge + max(p, 0.0)
        codes += edge <= u
    return np.minimum(codes, 3 - int(np.argmax(probs[::-1] > 0.0)))


CELLS = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e-12, 0.0, exclude_max=True), st.floats(1e-300, 1.0))


@st.composite
def category_tables(draw):
    """A flat table whose positive cells sum to about 1, with zero cells and
    cells in ``[-1e-12, 0)`` at any position, the last included."""
    cells = draw(st.lists(CELLS, min_size=4, max_size=4).filter(lambda c: max(c) > 0.0))
    total = sum(p for p in cells if p > 0.0)
    return np.array([p / total if p > 0.0 else p for p in cells])


@settings(max_examples=300, deadline=None)
@given(probs=category_tables(), extra=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=8))
@example(probs=np.array([0.0, 0.33615799043708827, -5.551115123125783e-17, 0.6638420095629118]), extra=[])
@example(probs=np.array([0.5, 0.5, 0.0, -1e-13]), extra=[])
@example(probs=np.array([0.7, 0.2, 0.1, 0.0]), extra=[])
def test_category_rule_matches_the_clamped_rule(probs, extra):
    edges, edge = [], 0.0
    for p in probs.tolist():
        edge = edge + max(p, 0.0)
        edges.append(edge)
    planted = [[np.nextafter(e, -1.0), e, np.nextafter(e, 2.0)] for e in [0.0, *edges]]
    u = np.clip(np.array([*np.ravel(planted), *extra]), 0.0, 1.0 - 2.0**-53)
    codes = categories(u, probs)
    assert codes.dtype == np.uint8
    assert np.array_equal(codes, clamped_categories(u, probs))
    assert np.all(probs[codes] > 0.0)


class TestSampleEvents:
    def test_deterministic_distribution(self):
        q_open_stats = JointStatistics(joint_probability_table(balanced_mzi(0.0), balanced_mzi(0.0), 0.0))
        # D1 is dark here; all mass sits on D2 rows
        codes = sample_events(q_open_stats, 500, seed=7)
        assert np.all(codes >= 2)

    def test_seed_reproducibility(self):
        _, _, stats = quarter_stats()
        a = sample_events(stats, 1000, seed=123)
        b = sample_events(stats, 1000, seed=123)
        assert np.array_equal(a, b)
        c = sample_events(stats, 1000, seed=124)
        assert not np.array_equal(a, c)

    def test_sequence_indices(self):
        # event i is element i of one code array
        _, _, stats = quarter_stats()
        codes = sample_events(stats, 50, seed=5)
        assert codes.shape == (50,)
        assert codes.dtype == np.uint8
        assert codes.max() <= 3

    def test_uniform_frequencies_within_binomial_bounds(self):
        stats = JointStatistics(joint_probability_table(balanced_mzi(0.0), balanced_mzi(0.0), math.pi))
        assert np.allclose(stats.joint, 0.25, atol=1e-12)
        n = 1_000_000
        codes = sample_events(stats, n, seed=20240817)
        counts = np.bincount(codes, minlength=4).reshape(2, 2)
        sigma = math.sqrt(n * 0.25 * 0.75)
        assert np.max(np.abs(counts - n * 0.25)) < 5 * sigma

    def test_matches_single_block_stream_layout(self):
        # event i is decided by uniform double i of the seed's Philox stream
        _, _, stats = quarter_stats()
        uniforms = Generator(Philox(key=99)).random(10_001)
        expected = categories(uniforms, stats.joint.ravel())
        codes = sample_events(stats, 10_001, seed=99)
        assert np.array_equal(codes, expected)
        # codes drawn before the array-native sampler, over the same inputs
        assert digest(codes) == "1255a1d0a41a04873477c9f647a338d4331ec1651c127170453086e6fa5c1cd5"

    @pytest.mark.parametrize("seed", [0, 1, 99, 2**32, 2**63, 2**64 - 1])
    def test_key_sequence_gives_the_keyed_generator(self, seed):
        keyed = Philox(key=seed)
        assert repr(Philox(stochastic._PhiloxKey(seed)).state) == repr(keyed.state)
        assert np.array_equal(Generator(Philox(stochastic._PhiloxKey(seed))).random(9),
                              Generator(keyed).random(9))

    @pytest.mark.parametrize("table, expected", [
        ([[0.3, 0.2], [0.5, 0.0]], "9af59853eb10b12762bd5e02daf87e9986d50ebf3a6caa95ce02a1783287796b"),
        ([[0.6, 0.4], [0.0, 0.0]], "8bf36cd6fb75f615483a5a0e3b3e8775cc0fb677c01830947cd3eb41a9c91a41"),
    ], ids=["P_D2S2-zero", "D2-row-zero"])
    def test_tables_with_a_zero_last_cell_across_chunks(self, table, expected):
        # the tables on which the category pass clamps, over several chunks;
        # the length is fixed, so the digests do not follow the chunk size
        table = np.array(table)
        codes = sample_events(JointStatistics(table), 2 * 65536 + 3, seed=2026)
        assert np.all(table.ravel()[codes] > 0.0)
        # codes drawn while the clamp ran for every table, over the same inputs
        assert digest(codes) == expected

    @pytest.mark.parametrize("chunk", [1, 3, 4, 5, 4096])
    def test_chunk_size_invariance(self, chunk, monkeypatch):
        _, _, stats = quarter_stats()
        canonical = sample_events(stats, 10_001, seed=99)
        monkeypatch.setattr(stochastic, "_CHUNK", chunk)
        assert np.array_equal(sample_events(stats, 10_001, seed=99), canonical)

    def test_stack_of_tables_rejected(self):
        with pytest.raises(ValueError, match=r"one joint table, got a stack of shape \(3, 2, 2\)"):
            sample_events(JointStatistics(np.full((3, 2, 2), 0.25)), 10, seed=1)

    def test_seed_validation(self):
        _, _, stats = quarter_stats()
        with pytest.raises(ValueError):
            sample_events(stats, 10, seed=-1)
        with pytest.raises(ValueError):
            sample_events(stats, 10, seed=2**64)
        with pytest.raises(ValueError):
            sample_events(stats, 0, seed=1)

    def test_n_is_an_integer(self):
        _, _, stats = quarter_stats()
        for n in (10.0, 2.5, "7", np.float64(7.0), None):
            with pytest.raises(ValueError, match="n must be an integer of at least 1"):
                sample_events(stats, n, seed=7)
        codes = sample_events(stats, 10, seed=7)
        assert np.array_equal(sample_events(stats, np.int64(10), seed=7), codes)
        assert np.array_equal(sample_events(stats, np.array(10), seed=7), codes)

    def test_tally_checks_its_request(self):
        # the two samplers share their checks and messages: whatever sample_events rejects, so does the tally
        _, _, stats = quarter_stats()
        stack = JointStatistics(np.full((3, 2, 2), 0.25))
        rejected = [(stack, 10, 1), *((stats, n, 1) for n in (0, -3, 10.0, 2.5, "7", np.float64(7.0), None)),
                    *((stats, 10, seed) for seed in (-1, 2**64, 1.9, "7", np.float64(7.0), np.array(7.5)))]
        for args in rejected:
            with pytest.raises(ValueError) as codes_error:
                sample_events(*args)
            with pytest.raises(ValueError) as tally_error:
                sample_events_tally(*args)
            assert str(tally_error.value) == str(codes_error.value)
        for args, message in [((stack, 10, 1), "one joint table"),
                              ((stats, 0, 1), "n must be an integer of at least 1"),
                              ((stats, 10.0, 1), "n must be an integer of at least 1"),
                              ((stats, 10, -1), "seed must be a 64-bit unsigned integer"),
                              ((stats, 10, 2**64), "seed must be a 64-bit unsigned integer"),
                              ((stats, 10, 1.9), "seed must be a 64-bit unsigned integer")]:
            with pytest.raises(ValueError, match=message):
                sample_events_tally(*args)

    def test_seed_is_an_integer(self):
        _, _, stats = quarter_stats()
        for seed in (1.9, "7", np.float64(7.0), np.array(7.5)):
            with pytest.raises(ValueError, match="seed must be a 64-bit unsigned integer"):
                sample_events(stats, 10, seed=seed)
        codes = sample_events(stats, 1000, seed=7)
        assert np.array_equal(sample_events(stats, 1000, seed=np.uint64(7)), codes)
        assert np.array_equal(sample_events(stats, 1000, seed=np.array(7)), codes)


def multinomial_pmf(counts, cells):
    """The exact multinomial probability of ``counts`` over cell probabilities ``cells``."""
    ways = Fraction(math.factorial(sum(counts)))
    for c, p in zip(counts, cells):
        ways *= Fraction(p) ** c / math.factorial(c)
    return float(ways)


def compositions(n, parts=4):
    """Every vector of ``parts`` non-negative integers that sums to ``n``."""
    if parts == 1:
        return [(n,)]
    return [(k, *rest) for k in range(n + 1) for rest in compositions(n - k, parts - 1)]


class TestSampleEventsTally:
    # Each chi-square test rejects at chi2's upper 1e-6 quantile for its degrees of freedom, a level
    # fixed before any statistic was read: a correct sampler fails it on one seed block in a million.
    FALSE_ALARM = 1e-6
    SEEDS = range(10_000)  # the expected count of the rarest vector below is 16

    @settings(max_examples=200, deadline=None)
    @given(probs=category_tables(), n=st.integers(1, 2**53), seed=st.integers(0, 2**64 - 1))
    @example(probs=np.array([0.6, 0.4, 0.0, 0.0]), n=2**53, seed=0)
    @example(probs=np.array([0.0, 0.33615799043708827, -5.551115123125783e-17, 0.6638420095629118]),
             n=1000, seed=2**64 - 1)
    @example(probs=np.array([0.5, 0.5, 0.0, -1e-13]), n=1, seed=7)
    def test_counts_part_n_over_the_positive_cells(self, probs, n, seed):
        try:
            stats = JointStatistics(probs.reshape(2, 2))
        except ValueError:  # the cells do not sum to 1 within the table check's 1e-12
            reject()
        counts = sample_events_tally(stats, n, seed)
        assert counts.shape == (4,) and counts.dtype.kind == "i"
        assert counts.min() >= 0 and sum(counts.tolist()) == n
        assert not np.any(counts[probs <= 0.0])  # the last cell included

    @pytest.mark.parametrize("position", range(4))
    @pytest.mark.parametrize("n", [1, 12_345, 2**53])
    def test_one_positive_cell_takes_every_event(self, position, n):
        cells = np.array([0.0, -1e-13, -0.0, 0.0])
        cells[position] = 1.0
        for seed in (0, 2**64 - 1):
            counts = sample_events_tally(JointStatistics(cells.reshape(2, 2)), n, seed)
            assert counts.tolist() == [n * (k == position) for k in range(4)]

    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
    def test_counts_at_the_event_cap(self, seed):
        # one draw at 2**53 events lies within six standard deviations of n p per cell
        _, _, stats = quarter_stats()
        n, cells = 2**53, stats.joint.ravel()
        counts = sample_events_tally(stats, n, seed)
        assert np.all(np.abs(counts - n * cells) <= 6.0 * np.sqrt(n * cells * (1.0 - cells)))

    @pytest.mark.parametrize("table", [[[0.2, 0.3], [0.25, 0.25]], [[0.5, 0.0], [0.3, 0.2]],
                                       [[0.25, 0.0], [0.75, -1e-13]]], ids=["four-cells", "zero-cell", "zero-last"])
    def test_law_of_four_events(self, table):
        # the count vectors of n = 4 events over 10,000 seeds against the exact multinomial pmf,
        # for the tally and, as the control, for the codes' bincount; then the two against each other
        stats, n = JointStatistics(np.array(table)), 4
        cells = [max(p, 0.0) for p in np.ravel(table).tolist()]
        support = [c for c in compositions(n) if multinomial_pmf(c, cells) > 0.0]
        expected = np.array([multinomial_pmf(c, cells) for c in support]) * len(self.SEEDS)
        threshold = chi2.isf(self.FALSE_ALARM, len(support) - 1)
        seen = {}
        for name, draw in (("tally", sample_events_tally),
                           ("codes", lambda *args: np.bincount(sample_events(*args), minlength=4))):
            vectors = Counter(tuple(draw(stats, n, seed).tolist()) for seed in self.SEEDS)
            assert set(vectors) <= set(support), name
            seen[name] = np.array([vectors[c] for c in support])
            statistic = float(np.sum((seen[name] - expected) ** 2 / expected))
            assert statistic < threshold, f"{name}: chi-square {statistic:.1f} against {threshold:.1f}"
        both = seen["tally"] + seen["codes"]
        pooled = both > 0
        statistic = float(np.sum((seen["tally"] - seen["codes"])[pooled] ** 2 / both[pooled]))
        assert statistic < chi2.isf(self.FALSE_ALARM, np.count_nonzero(pooled) - 1)


class TestContextualEstimate:
    def test_single_drain_events(self):
        cv = ContextualValues(-1.0, 1.0)
        report = contextual_estimate([0, 0, 8, 0], cv, probabilities=(0.0, 1.0))
        assert report.estimate == 1.0
        assert report.empirical_variance == 0.0

    @settings(max_examples=200, deadline=None)
    @given(
        codes=st.lists(st.integers(0, 3), min_size=1, max_size=3000),
        a1=st.floats(-1e3, 1e3),
        a2=st.floats(-1e3, 1e3),
    )
    @example(codes=[0, 2], a1=0.0, a2=9.480051124763486e-158)  # a variance below the normal range
    @example(codes=[0, 2, 2], a1=0.0, a2=9.480051124763486e-158)  # and n (n - 1) != n / (n - 1)
    def test_counts_match_per_event_values(self, codes, a1, a2):
        # the oracle is the per-event sample variance in exact rationals,
        # rounded once: numpy's two-pass variance loses relative precision when
        # the two values nearly coincide or the variance is below the normal range
        scale = max(abs(a1), abs(a2), 1e-300)
        codes = np.array(codes, dtype=np.uint8)
        n = codes.size
        values = np.where(codes >= 2, a2, a1)
        report = contextual_estimate(np.bincount(codes, minlength=4), ContextualValues(a1, a2),
                                     probabilities=(0.5, 0.5))
        assert report.n == n
        assert abs(report.estimate - values.mean()) <= 1e-12 * scale
        if n == 1:
            assert report.empirical_variance == 0.0
        else:
            exact = [Fraction(v) for v in values.tolist()]
            mean = sum(exact) / n
            expected = float(sum((v - mean) ** 2 for v in exact) / ((n - 1) * n))
            assert report.empirical_variance == pytest.approx(expected, rel=1e-12, abs=1e-24 * scale**2)

    def test_estimate_converges_to_path_bias(self):
        det, sysm, stats = quarter_stats()
        cv = contextual_values(OBS, detector_params(det, math.pi / 2))
        assert (cv.alpha_d1, cv.alpha_d2) == (pytest.approx(-1.0), pytest.approx(3.0))
        n = 100_000
        counts = sample_events_tally(stats, n, seed=4242)
        report = contextual_estimate(
            counts,
            cv,
            probabilities=(stats.p_detector(DetectorDrain.D1), stats.p_detector(DetectorDrain.D2)),
        )
        # ground truth <sigma_z> = delta1_s = 0; predicted MSE = 3/n
        assert report.predicted_mse == pytest.approx(3.0 / n, abs=1e-12)
        assert abs(report.estimate) < 5.0 * math.sqrt(report.predicted_mse)

    def test_predicted_vs_empirical_over_runs(self):
        det, sysm, stats = quarter_stats()
        cv = contextual_values(OBS, detector_params(det, math.pi / 2))
        probs = (stats.p_detector(DetectorDrain.D1), stats.p_detector(DetectorDrain.D2))
        n = 10_000
        estimates = []
        predicted = None
        for seed in range(100):
            counts = sample_events_tally(stats, n, seed=seed)
            report = contextual_estimate(counts, cv, probabilities=probs)
            estimates.append(report.estimate)
            predicted = report.predicted_mse
        empirical = float(np.var(estimates, ddof=1))
        assert predicted == pytest.approx(empirical, rel=0.2)

    def test_empirical_variance_tracks_prediction(self):
        det, sysm, stats = quarter_stats()
        cv = contextual_values(OBS, detector_params(det, math.pi / 2))
        probs = (stats.p_detector(DetectorDrain.D1), stats.p_detector(DetectorDrain.D2))
        counts = sample_events_tally(stats, 50_000, seed=8)
        report = contextual_estimate(counts, cv, probabilities=probs)
        assert report.empirical_variance == pytest.approx(report.predicted_mse, rel=0.05)
        assert report.predicted_mse <= report.mse_upper_bound

    # ContextualValues rejects an infinity itself, so a duck-typed pair carries one here
    @pytest.mark.parametrize("cv", [SimpleNamespace(alpha_d1=-math.inf, alpha_d2=math.inf),
                                    ContextualValues(math.nan, 1.0)])
    def test_values_beyond_the_float_range_rejected(self, cv):
        with pytest.raises(ValueError, match="contextual values must be finite numbers"):
            contextual_estimate([1, 0, 1, 0], cv, probabilities=(0.5, 0.5))

    def test_report_beyond_the_float_range_raises(self):
        # finite values whose squares overflow
        with pytest.raises(ObservableRangeError,
                           match="^observable: the estimator report is not a finite number$"):
            contextual_estimate([1, 0, 1, 0], ContextualValues(-1e200, 1e200), probabilities=(0.5, 0.5))

    def test_upper_bound_dominates_random(self, rng):
        for _ in range(100):
            p1 = rng.uniform(0, 1)
            a1, a2 = rng.uniform(-5, 5, size=2)
            cv = ContextualValues(a1, a2)
            report = contextual_estimate([1, 0, 0, 0], cv, probabilities=(p1, 1 - p1))
            assert report.predicted_mse <= report.mse_upper_bound + 1e-15

    def test_empty_events_rejected(self):
        for counts in ([0, 0, 0, 0], np.zeros(4, dtype=np.uint8)):
            with pytest.raises(ValueError, match="^counts must be four non-negative integers with a positive total$"):
                contextual_estimate(counts, ContextualValues(-1.0, 1.0), (0.5, 0.5))

    @pytest.mark.parametrize("counts", [
        [1, 0, 2], [1, 0, 2, 0, 0], np.array([[1, 0], [2, 0]]), 3, None,
        [1, -1, 2, 0], np.array([3, 0, -2, 1]),
        [1.0, 0, 2, 0], np.array([1.0, 0.0, 2.0, 0.0]), [0.5, 0, 2.5, 0], [1, 0, "2", 0],
        np.array([True, False, True, False]),
    ], ids=["three", "five", "table", "scalar", "none", "negative", "negative-array", "whole-float",
            "whole-float-array", "fractions", "string", "bools"])
    def test_non_counts_rejected(self, counts):
        with pytest.raises(ValueError, match="^counts must be four non-negative integers with a positive total$"):
            contextual_estimate(counts, ContextualValues(-1.0, 1.0), (0.5, 0.5))

    @pytest.mark.parametrize("counts", [[10**400, 0, 0, 0], [2**53, 0, 1, 0], np.full(4, 2**62, np.uint64)],
                             ids=["beyond-double", "2**53+1", "uint64"])
    def test_counts_beyond_2_53_rejected(self, counts):
        # a double holds every count only up to 2**53, which the run_* functions cap too
        with pytest.raises(ValueError, match=r"^counts total more than 2\*\*53 events$"):
            contextual_estimate(counts, ContextualValues(-1.0, 1.0), (0.5, 0.5))
        report = contextual_estimate([2**53 - 1, 0, 1, 0], ContextualValues(-1.0, 1.0), (0.5, 0.5))
        assert report.n == 2**53

    def test_other_integer_types_read(self):
        counts, cv = np.array([1, 1, 1, 2]), ContextualValues(-1.0, 1.0)
        expected = contextual_estimate(counts, cv, (0.5, 0.5))
        for other in (counts.astype(np.int8), counts.astype(np.uint64), counts.tolist(), (1, 1, 1, 2)):
            assert contextual_estimate(other, cv, (0.5, 0.5)) == expected

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400], ids=["nan", "inf", "-inf", "beyond"])
    @pytest.mark.parametrize("field", ["estimate", "empirical_variance", "predicted_mse", "mse_upper_bound"])
    def test_report_fields_are_finite(self, field, value):
        # a variance of -inf meets the sign rule first
        fields = {"estimate": 0.0, "n": 1, "empirical_variance": 0.0, "predicted_mse": 0.0,
                  "mse_upper_bound": 0.0, field: value}
        signed = field in ("empirical_variance", "predicted_mse") and value < 0
        message = "^variances must be non-negative$" if signed else f"^{field} .+ is not a finite number$"
        with pytest.raises(ValueError, match=message):
            EstimateReport(**fields)

    def test_probability_outside_the_range_rejected(self):
        # (1.5, -0.5) sums to 1: the average would read -2 and predicted_mse clamp -3/n to 0
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            contextual_estimate([1, 0, 1, 0], ContextualValues(-1.0, 1.0), (1.5, -0.5))

    C = stochastic._CHUNK  # the samplers' chunk
    # zero cells inside a table, and trailing ones that leave two, one and no edges
    TABLES = [[[0.1, 0.2], [0.3, 0.4]], [[0.0, 0.7], [0.0, 0.3]], [[0.3, 0.2], [0.5, 0.0]],
              [[0.6, 0.4], [0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]

    @pytest.mark.parametrize("n", [1, C - 1, C, C + 1, 3 * C + 5, 8 * C - 1, 8 * C, 8 * C + 1, 24 * C + 5,
                                   200_000])
    def test_d2_count_across_chunks(self, n):
        # the estimate at alpha = (0, n), n n2 / n, is the D2 count n2 exactly: of the tally, which
        # parts n with no event in a cell of zero probability, and of the codes, across their chunks
        for table in [*self.TABLES, quarter_stats()[2].joint]:
            stats = JointStatistics(np.array(table))
            for seed in (0, 7, 2**64 - 1):
                codes, counts = sample_events(stats, n, seed), sample_events_tally(stats, n, seed)
                assert counts.sum() == n and counts.min() >= 0
                assert not np.any(counts[np.ravel(table) <= 0.0])
                for tally, d2 in ((counts, counts[2] + counts[3]),
                                  (np.bincount(codes, minlength=4), np.count_nonzero(codes >= 2))):
                    report = contextual_estimate(tally, ContextualValues(0.0, float(n)), (0.5, 0.5))
                    assert report.estimate == d2

    def test_unbiasedness_over_seeded_runs(self):
        det, sysm, stats = quarter_stats()
        cv = contextual_values(OBS, detector_params(det, math.pi / 2))
        probs = (stats.p_detector(DetectorDrain.D1), stats.p_detector(DetectorDrain.D2))
        truth = cv.alpha_d1 * probs[0] + cv.alpha_d2 * probs[1]
        n, runs = 10_000, 100
        grand = []
        predicted = None
        for seed in range(runs):
            counts = sample_events_tally(stats, n, seed=1000 + seed)
            report = contextual_estimate(counts, cv, probabilities=probs)
            grand.append(report.estimate)
            predicted = report.predicted_mse
        standard_error = math.sqrt(predicted / runs)
        assert abs(np.mean(grand) - truth) < 4.0 * standard_error


class TestPeakMemory:
    def test_montecarlo_peak_does_not_grow_with_n(self):
        # no montecarlo path holds an n-element array: ten times the events, the same peak
        config = load_config(str(CONFIGS / "strong_measurement.conf"))
        cli.run_montecarlo(config, 10, 1)  # first-call allocations stay out of the peaks
        peaks = []
        for n in (2_000_000, 20_000_000):
            gc.collect()
            tracemalloc.start()
            try:
                cli.run_montecarlo(config, n, 3)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 0.1e6


class TestObservationTime:
    BUDGET = ObservationBudget(path_length=1e-5, fermi_velocity=1e5, target_rms=0.1)

    def test_strong_measurement_bound(self):
        cv = ContextualValues(-1.0, 1.0)
        tau = self.BUDGET.mean_absorption_time
        assert tau == pytest.approx(1e-10, rel=1e-12)
        assert observation_time(cv, self.BUDGET) == pytest.approx(200.0 * tau, rel=1e-12)

    def test_ambiguous_measurement_costs_more(self):
        cv = ContextualValues(-1.0, 3.0)
        tau = self.BUDGET.mean_absorption_time
        assert observation_time(cv, self.BUDGET) == pytest.approx(1000.0 * tau, rel=1e-12)

    def test_rms_scaling(self):
        cv = ContextualValues(-1.0, 1.0)
        loose = ObservationBudget(path_length=1e-5, fermi_velocity=1e5, target_rms=0.2)
        assert observation_time(cv, loose) == pytest.approx(
            observation_time(cv, self.BUDGET) / 4.0, rel=1e-12
        )

    @pytest.mark.parametrize("name", ["alpha_d1", "alpha_d2"])
    def test_nan_weight_is_named(self, name):
        # NaN is the ambiguity marker of contextual_values_or_nan, not a weight to budget with
        cv = ContextualValues(**{"alpha_d1": 1.0, "alpha_d2": 1.0, name: math.nan})
        with pytest.raises(ValueError, match=f"^{name} nan is not a finite number$"):
            observation_time(cv, self.BUDGET)

    def test_explicit_tau_override(self):
        budget = ObservationBudget(path_length=1e-5, fermi_velocity=1e5, target_rms=0.1, tau_m=2e-9)
        assert budget.mean_absorption_time == 2e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            ObservationBudget(path_length=0.0, fermi_velocity=1e5, target_rms=0.1)
        with pytest.raises(ValueError):
            ObservationBudget(path_length=1e-5, fermi_velocity=1e5, target_rms=-0.1)


class TestRmsScaling:
    def test_log_log_slope(self):
        det, sysm, stats = quarter_stats()
        cv = contextual_values(OBS, detector_params(det, math.pi / 2))
        probs = (stats.p_detector(DetectorDrain.D1), stats.p_detector(DetectorDrain.D2))
        truth = cv.alpha_d1 * probs[0] + cv.alpha_d2 * probs[1]
        sizes = [1_000, 10_000, 100_000]
        rms = []
        for k, n in enumerate(sizes):
            errors = []
            for run in range(40):
                counts = sample_events_tally(stats, n, seed=5_000 + 100 * k + run)
                report = contextual_estimate(counts, cv, probabilities=probs)
                errors.append((report.estimate - truth) ** 2)
            rms.append(math.sqrt(np.mean(errors)))
        slope = np.polyfit(np.log(sizes), np.log(rms), 1)[0]
        assert -0.55 <= slope <= -0.45


class TestLegacyStream:
    """Seeded counts pinned as literals, apart from ``tests/golden/identity.txt``.

    Both samplers draw from ``RandomState(Philox(key))``.  numpy's RNG policy,
    NEP 19 (https://numpy.org/neps/nep-0019-rng-policy.html), freezes the
    legacy ``RandomState`` streams across numpy versions, while a
    ``Generator`` method's stream may change; so these counts, made with numpy
    2.4.6, hold on any numpy that the package accepts.  They also equal the
    counts of ``Generator(Philox(key))`` on 2.4.6, which drew them before.
    """

    TABLES = {"quarters": [[0.25, 0.25], [0.25, 0.25]], "skewed": [[0.5, 0.3], [0.15, 0.05]],
              "zero-last": [[0.3, 0.2], [0.5, 0.0]]}

    @pytest.mark.parametrize("table, n, seed, counts", [
        ("quarters", 1000, 0, [244, 242, 268, 246]),
        ("quarters", 2**53, 7, [2251799827349101, 2251799821943599, 2251799759491888, 2251799845956404]),
        ("quarters", 12345, 2**64 - 1, [3045, 3084, 3083, 3133]),
        ("skewed", 1000, 0, [493, 312, 152, 43]),
        ("skewed", 2**53, 7, [4503599643148153, 2702159756083540, 1351079915311256, 450359940198043]),
        ("skewed", 12345, 2**64 - 1, [6125, 3745, 1868, 607]),
        ("zero-last", 1000, 0, [294, 193, 513, 0]),
        ("zero-last", 2**53, 7, [2702159790882761, 1801439858679142, 4503599605179089, 0]),
        ("zero-last", 12345, 2**64 - 1, [3659, 2467, 6219, 0]),
    ])
    def test_counts_are_the_frozen_streams(self, table, n, seed, counts):
        stats = JointStatistics(np.array(self.TABLES[table]))
        assert sample_events_tally(stats, n, seed).tolist() == counts

    def test_samplers_build_the_legacy_generator(self):
        _, _, rng = stochastic._sampler(JointStatistics(np.array(self.TABLES["quarters"])), 10, 99)
        assert type(rng) is np.random.RandomState
        assert np.array_equal(rng.random_sample(9), Generator(Philox(key=99)).random(9))
