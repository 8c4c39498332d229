"""Tests that pin what a mutation of the core showed unpinned: the weak
limit forms at tunings other than ``pi/2``, where ``cos phi_d = 0`` hides a
swapped ``*``/``/`` or ``+``/``-``; ``semiweak_value`` away from ``V_s = 1``
and ``cos phi_s = +-1``; and the exact edges of tolerance checks, where a
``<=`` flipped to ``<`` (or ``>=`` to ``>``) passes every interior value.
``tests/mutants.py`` finds such sites."""

import math
import warnings

import numpy as np
import pytest

from coupled_mzi import (
    AmbiguousMeasurementError,
    ContextualValues,
    FringeParams,
    InterferometerConfig,
    JointStatistics,
    ObservableCoefficients,
    ObservableRangeError,
    ObservationBudget,
    PhysicalBias,
    PostSelectionImpossibleError,
    PovmPair,
    average_current,
    contextual_values,
    contextual_values_or_nan,
    detector_params,
    measurement_operators,
    povm_pair,
    qpc_from_transmission,
    reconstruct_average,
    require_post_selection,
    semiweak_value,
    weak_contextual_values,
    xi_joint_interference,
)
from coupled_mzi.measurement import DIVERGENCE_THRESHOLD
from coupled_mzi.params import IDENTITY_TOL, MAX_TUNING_PHASE, SystemDrain
from coupled_mzi.scattering import BOLTZMANN_CONSTANT, ELEMENTARY_CHARGE
from helpers import balanced_mzi


@pytest.mark.parametrize("phi_d", [1.0, 2.3, -0.7])
@pytest.mark.parametrize("gamma", [1e-2, 1e-3, 1e-4])
def test_weak_forms_away_from_a_quarter_turn(phi_d, gamma):
    """The weak forms are first order in ``gamma``: a contextual value's
    relative error is at most ``gamma`` (0.32-0.60 ``gamma`` at these
    tunings), and a POVM diagonal's error, ``|cos phi_d| gamma^2 / 8`` to
    leading order, at most ``gamma^2 / 4``."""
    cv, povm = weak_contextual_values(gamma, phi_d)
    exact = contextual_values(ObservableCoefficients(), detector_params(balanced_mzi(phi_d), gamma))
    for limit, value in ((cv.alpha_d1, exact.alpha_d1), (cv.alpha_d2, exact.alpha_d2)):
        assert abs(limit - value) <= gamma * abs(value)
    exact_povm = povm_pair(measurement_operators(balanced_mzi(phi_d), gamma))
    got = np.array([*povm.diag_d1, *povm.diag_d2])
    want = np.array([*exact_povm.diag_d1, *exact_povm.diag_d2])
    assert np.max(np.abs(got - want)) <= gamma * gamma / 4.0


@pytest.mark.parametrize("phase", [MAX_TUNING_PHASE, -MAX_TUNING_PHASE])
def test_tuning_phase_bound_is_inclusive(phase):
    q = qpc_from_transmission(0.5)
    assert InterferometerConfig(q, q, phase).tuning_phase == phase
    with pytest.raises(ValueError, match="tuning phase"):
        InterferometerConfig(q, q, math.nextafter(phase, 2 * phase))


@pytest.mark.parametrize("beta_plus", [-IDENTITY_TOL, 2.0 + IDENTITY_TOL])
def test_beta_plus_range_is_inclusive(beta_plus):
    # beta_minus = 2 - beta_plus keeps the mean at 1 within the tolerance
    assert FringeParams(beta_plus, 2.0 - beta_plus, 0.5, 0.1, 0.2).beta_plus == beta_plus
    with pytest.raises(ValueError, match="beta_plus"):
        FringeParams(math.nextafter(beta_plus, 2 * beta_plus - 1), 2.0 - beta_plus, 0.5, 0.1, 0.2)


@pytest.mark.parametrize("field, edge", [
    ("visibility", -IDENTITY_TOL), ("visibility", 1.0 + IDENTITY_TOL), ("Gamma", 1.0 + IDENTITY_TOL),
    ("Gamma", -1.0 - IDENTITY_TOL), ("Delta", 1.0 + IDENTITY_TOL), ("Delta", -1.0 - IDENTITY_TOL),
])
def test_fringe_ranges_are_inclusive(field, edge):
    fields = {"beta_plus": 1.0, "beta_minus": 1.0, "visibility": 0.5, "Gamma": 0.1, "Delta": 0.2, field: edge}
    assert getattr(FringeParams(**fields), field) == edge
    with pytest.raises(ValueError, match=f"^{field} .* outside"):
        FringeParams(**{**fields, field: math.nextafter(edge, 2 * edge)})


@pytest.mark.parametrize("gamma", [2.0 * MAX_TUNING_PHASE, -2.0 * MAX_TUNING_PHASE])
def test_detector_params_gamma_bound_is_inclusive(gamma):
    det = balanced_mzi(0.3)
    assert math.isfinite(detector_params(det, gamma).Gamma)
    with pytest.raises(ValueError, match="gamma"):
        detector_params(det, math.nextafter(gamma, 2 * gamma))


def test_weak_tuning_tolerance_is_exclusive():
    # sin(1e-9) rounds to 1e-9, the tolerance: the weak form still holds there
    cv, _ = weak_contextual_values(0.01, 1e-9)
    assert math.isfinite(cv.alpha_d1)
    with pytest.raises(ValueError, match="weak regime requires phi_d away from multiples of pi"):
        weak_contextual_values(0.01, math.nextafter(1e-9, 0.0))


# eV = 1e-4 eV: k_B T equals eV / 10 exactly at this temperature, and
# eV equals E_F / 10 exactly at E_F = 1e-3 eV (both checked in doubles below)
EDGE_VOLTAGE, EDGE_TEMPERATURE, EDGE_FERMI = 1e-4, 0.11604518121550082, 1e-3


@pytest.mark.parametrize("bias", [PhysicalBias(EDGE_VOLTAGE, 1.0, EDGE_TEMPERATURE),
                                  PhysicalBias(EDGE_VOLTAGE, EDGE_FERMI, 0.0)], ids=["k_B T", "E_F"])
def test_low_bias_warning_includes_its_edge(bias):
    ev = ELEMENTARY_CHARGE * bias.bias_voltage
    assert BOLTZMANN_CONSTANT * bias.temperature == ev / 10.0 or ev == ELEMENTARY_CHARGE * bias.fermi_energy / 10.0
    with pytest.warns(UserWarning, match="low-bias regime"):
        average_current(0.5, bias)


@pytest.mark.parametrize("probability", [-1e-12, 1.0 + 1e-12])
def test_average_current_range_is_inclusive(probability):
    bias = PhysicalBias(1e-4, 1e-2, 0.02)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isfinite(average_current(probability, bias))
    with pytest.raises(ValueError, match="outside \\[0, 1\\]"):
        average_current(math.nextafter(probability, 2 * probability - 0.5), bias)


def test_bias_voltage_of_zero_is_not_positive():
    with pytest.raises(ValueError, match="^bias voltage must be positive$"):
        PhysicalBias(0.0, 1e-2, 0.02)


LOW, HIGH = -1e-12, 1.0 + 1e-12  # the tolerance edges of a probability


@pytest.mark.parametrize("stacked", [False, True], ids=["table", "stack"])
def test_joint_table_range_is_inclusive(stacked):
    # a cell at each edge, and cells that still sum to 1 within 1e-12
    edges = np.array([[HIGH, LOW], [0.0, 0.0]])
    shape = (2, 2, 2) if stacked else (2, 2)
    assert np.array_equal(JointStatistics(np.broadcast_to(edges, shape)).joint, np.broadcast_to(edges, shape))
    for beyond in ([[math.nextafter(HIGH, 2.0), LOW], [0.0, 0.0]], [[HIGH, math.nextafter(LOW, -1.0)], [0.0, 0.0]]):
        with pytest.raises(ValueError, match="outside \\[0, 1\\]"):
            JointStatistics(np.broadcast_to(beyond, shape))


def test_povm_positivity_tolerance_is_inclusive():
    assert PovmPair((LOW, 0.5), (HIGH, 0.5)).diag_d1 == (LOW, 0.5)
    with pytest.raises(ValueError, match="not positive semidefinite"):
        PovmPair((math.nextafter(LOW, -1.0), 0.5), (HIGH, 0.5))


@pytest.mark.parametrize("p_d1, p_d2", [(LOW, HIGH), (HIGH, LOW)])
def test_drain_probability_range_is_inclusive(p_d1, p_d2):
    cv = ContextualValues(1.0, 2.0)
    assert reconstruct_average(cv, p_d1, p_d2) == p_d1 + 2.0 * p_d2
    for beyond in ((math.nextafter(p_d1, 2 * p_d1 - 0.5), p_d2), (p_d1, math.nextafter(p_d2, 2 * p_d2 - 0.5))):
        with pytest.raises(ValueError, match="outside \\[0, 1\\]"):
            reconstruct_average(cv, *beyond)


@pytest.mark.parametrize("delta", [0.9, -0.9], ids=["alpha_D1", "alpha_D2"])
def test_one_contextual_value_beyond_the_float_range_raises(delta):
    # a3 / Gamma = 1e308 is finite: only 1 + Delta (alpha_D1) or 1 - Delta (alpha_D2) overflows
    p = FringeParams(1.0, 1.0, 1.0, 1.0, delta)
    for build in (contextual_values, contextual_values_or_nan):
        with pytest.raises(ObservableRangeError):
            build(ObservableCoefficients(0.0, 1e308), p)


def test_post_selection_threshold_is_exclusive():
    # a marginal of exactly 1e-12 counts as vanishing; the next double up does not
    with pytest.raises(PostSelectionImpossibleError):
        require_post_selection({SystemDrain.S1: 1e-12})
    require_post_selection({SystemDrain.S1: math.nextafter(1e-12, 1.0)})


def test_post_selection_range_edges_are_inclusive():
    # -2e-12 is a vanishing post-selection and 1 + 3e-12 a marginal; the doubles beyond are neither
    with pytest.raises(PostSelectionImpossibleError) as excinfo:
        require_post_selection({SystemDrain.S1: -2e-12})
    assert excinfo.value.probability == -2e-12
    require_post_selection({SystemDrain.S1: 1.0 + 3e-12})
    for beyond in (math.nextafter(-2e-12, -1.0), math.nextafter(1.0 + 3e-12, 2.0)):
        with pytest.raises(ValueError, match="^the marginal of drain S1 is .*, outside"):
            require_post_selection({SystemDrain.S1: beyond})


def test_joint_interference_darkness_threshold_is_inclusive():
    # epsilon of T = 2.5e-19 is 1e-9 exactly, and a balanced second QPC's is 1
    dark = InterferometerConfig(qpc_from_transmission(2.5e-19), qpc_from_transmission(0.5), 0.3)
    assert detector_params(dark, 1.0).visibility == DIVERGENCE_THRESHOLD
    with pytest.raises(AmbiguousMeasurementError):
        xi_joint_interference(dark, balanced_mzi(0.2), 1.0)


@pytest.mark.parametrize("fields", [(0.0, 1e5, 0.1), (1e-5, 0.0, 0.1), (1e-5, 1e5, 0.0)],
                         ids=["path_length", "fermi_velocity", "target_rms"])
def test_budget_parameters_of_zero_are_not_positive(fields):
    with pytest.raises(ValueError, match="^budget parameters must be positive$"):
        ObservationBudget(*fields)


@pytest.mark.parametrize("fields", [(1e-5, 1e5, 1e-200), (1e-5, 1e5, 1e200), (1e305, 1e5, 1e-5)],
                         ids=["rms-squared-underflows", "rms-squared-overflows", "quotient-overflows"])
def test_budget_time_per_unit_alpha_squared_is_finite(fields):
    with pytest.raises(ValueError, match="observation time per unit alpha\\^2"):
        ObservationBudget(*fields)


def test_budget_tau_m_of_zero_is_not_positive():
    with pytest.raises(ValueError, match="^tau_m must be positive when given$"):
        ObservationBudget(1e-5, 1e5, 0.1, tau_m=0.0)


@pytest.mark.parametrize("n", [0, 1, -3])
@pytest.mark.parametrize("condition", list(SystemDrain))
def test_semiweak_value_is_its_stated_formula(n, condition):
    # an unbalanced system at a generic phi_s, where V_s != 1 and cos(phi_s) != +-1:
    # (delta1 + t delta2 - t (-1)^n V cos(phi_s)) / (1 + t delta1 delta2 - t V cos(phi_s)), t = +1 for S1
    sysm = InterferometerConfig(qpc_from_transmission(0.8), qpc_from_transmission(0.3), 0.7)
    d1, d2, v = 0.6, -0.4, 2.0 * math.sqrt(0.16) * 2.0 * math.sqrt(0.21)
    t, c = (1.0 if condition is SystemDrain.S1 else -1.0), math.cos(0.7)
    expected = (d1 + t * d2 - t * (-1) ** n * v * c) / (1.0 + t * d1 * d2 - t * v * c)
    assert semiweak_value(sysm, n, condition) == pytest.approx(expected, rel=1e-13)
