"""Property tests of the amplitude pipeline against the independent closed form,
and of the CLI grid writer against its per-cell rule."""

import math
import struct
import sys
import warnings
from dataclasses import astuple, is_dataclass, replace
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from coupled_mzi import (
    AmbiguousMeasurementError,
    AveragedExperiment,
    ContextualValues,
    CouplingModel,
    InteractionGeometry,
    InterferometerConfig,
    JointStatistics,
    ObservableCoefficients,
    ObservableRangeError,
    ObservationBudget,
    PhysicalBias,
    PostSelectionImpossibleError,
    average_current,
    concurrence,
    contextual_estimate,
    contextual_values,
    contextual_values_or_nan,
    cross_noise_power,
    damping_eta,
    detector_drain_amplitudes,
    detector_params,
    dynamical_phase,
    joint_amplitudes,
    joint_probability_table,
    load_config,
    measurement_operators,
    position_phase,
    post_selected_average,
    povm_expectation,
    povm_pair,
    qpc_from_angle,
    qpc_from_transmission,
    reconstruct_average,
    reduced_system_state,
    require_post_selection,
    semiweak_value,
    sequential_phase,
    wavenumber_shift,
    weak_value,
    xi_joint_interference,
)
from coupled_mzi import cli
from coupled_mzi.cli import _MAX_EXPONENT, _VECTOR_CELLS, _table_csv, _vector_rows
from coupled_mzi.config import swept
from coupled_mzi.interaction import HBAR
from coupled_mzi.measurement import DIVERGENCE_THRESHOLD
from coupled_mzi.params import DetectorDrain, SystemDrain
from coupled_mzi.scattering import ELEMENTARY_CHARGE, PLANCK_CONSTANT
from helpers import SIGMA_0, SIGMA_3, mzi, steady
from reference import closed_form_table, detector_transfer, fringe, joint_interference, unitary_table

GOLDEN_CONFIG = Path(__file__).resolve().parent / "golden" / "unbalanced.conf"
TWO_PI = 2.0 * math.pi
transmissions = st.floats(0.0, 1.0)
angles = st.floats(-TWO_PI, TWO_PI)
couplings = st.floats(0.0, TWO_PI)
observables = st.builds(ObservableCoefficients, st.floats(-10.0, 10.0), st.floats(-10.0, 10.0))


@st.composite
def interferometers(draw):
    q1 = qpc_from_transmission(draw(transmissions), chi=draw(angles), xi=draw(angles))
    q2 = qpc_from_transmission(draw(transmissions), chi=draw(angles), xi=draw(angles))
    return InterferometerConfig(q1, q2, draw(angles))


@st.composite
def sweep_points(draw):
    """1 to 8 points of (gamma, phi_d, phi_s, T of the system's first QPC)."""
    n = draw(st.integers(1, 8))
    return [tuple(draw(s) for s in (couplings, angles, angles, transmissions)) for _ in range(n)]


@settings(max_examples=200, deadline=None)
@given(det=interferometers(), sysm=interferometers(), gamma=couplings)
def test_scalar_amplitude_table_matches_closed_form(det, sysm, gamma):
    c = joint_amplitudes(det, sysm, gamma)
    assert c.shape == (2, 2)
    assert np.array_equal(c, joint_amplitudes(det, sysm, gamma))
    assert np.max(np.abs(np.abs(c) ** 2 - closed_form_table(det, sysm, gamma))) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(det=interferometers(), sysm=interferometers(), points=sweep_points())
def test_array_amplitude_table_matches_closed_form(det, sysm, points):
    gamma, phi_d, phi_s, t_s1 = (np.array(column) for column in zip(*points))
    q1 = sysm.qpc1
    array_det = InterferometerConfig(det.qpc1, det.qpc2, phi_d)
    array_sys = InterferometerConfig(qpc_from_transmission(t_s1, q1.chi, q1.xi), sysm.qpc2, phi_s)
    c = joint_amplitudes(array_det, array_sys, gamma)
    assert c.shape == (len(points), 2, 2)
    for i, (g, pd, ps, t) in enumerate(points):
        q1 = sysm.qpc1
        point_sys = InterferometerConfig(qpc_from_transmission(t, q1.chi, q1.xi), sysm.qpc2, ps)
        point_det = InterferometerConfig(det.qpc1, det.qpc2, pd)
        closed = closed_form_table(point_det, point_sys, g)
        assert np.max(np.abs(np.abs(c[i]) ** 2 - closed)) <= 1e-12


# detector_drain_amplitudes and reference.detector_transfer take the same
# doubles: T and R = fl(1 - T) under sqrt, and the phase phi_d or fl(phi_d +
# gamma).  With u = 2**-53, to first order, sqrt within u, cosine and sine
# within one ulp (2u), and every row's products bounded by t1 t2 + r1 r2 <= 1
# (D1) or t1 r2 + r1 t2 <= 1 (D2):
# - the package: t1 t2 and r1 r2 are within 3u and t1 t2 cos(phi) within 6u,
#   so the row's real part t1 t2 cos(phi) - r1 r2 is within 7u t1 t2 + 4u r1 r2
#   <= 7u and its imaginary part within 6u: 9.2u in modulus.  The turn by
#   e^{i chi} (or i e^{i xi}) adds 2u for its cosine and sine, u for its
#   products and u for its sum: 13.2u per part, 18.7u in modulus.
# - the reference: t1 e^{i phi}, e^{i chi} t2 and i e^{i chi} r2 are within 4u
#   per part and i r1 within u.  Of M[0, D1] = t1 e^{i phi} e^{i chi} t2 +
#   i r1 i e^{i chi} r2, a part of the first product is within 9u t1 t2 and of
#   the second within 6u r1 r2, and two sums of parts at most 1 add 2u: 11u
#   per part, 15.6u in modulus, and D2 alike.
DETECTOR_ROW_BOUND = 35 * 2.0**-53


@settings(max_examples=200, deadline=None)
@given(det=interferometers(), gamma=couplings)
def test_detector_rows_are_the_product_of_unitaries(det, gamma):
    """Each detector row is row 0 of ``U1 diag(e^{i phi}, 1) U2``, built from
    the QPC unitaries outside the package, on both arms of the system."""
    c = detector_drain_amplitudes(det, gamma)
    for arm in (0, 1):
        assert np.max(np.abs(c[:, arm] - detector_transfer(det, gamma, arm)[0])) <= DETECTOR_ROW_BOUND


# joint_probability_table and reference.unitary_table take the same doubles,
# as the detector rows do.  To first order, in modulus, with every product of
# moduli at most 1, since t_s T_2 + r_s R_2 <= 1 (S1) and t_s R_2 + r_s T_2 <= 1
# (S2), and with the rows' bounds above:
# - the package's cell c[D, S1] = X_L t_s T_2 e^{i phi_s} - X_U r_s R_2 (S2
#   alike): the rows X within 9.2u, t_s T_2 and r_s R_2 within 3u, and t_s T_2
#   e^{i phi_s} within 6u; the complex product adds 2.8u, the real one u and
#   the last difference u: 19.1u.
# - the reference's: psi = (t_s e^{i phi_s}, i r_s) within 4u and u, the rows
#   M_a[0, D] within 15.6u and U2 within 4u; two complex products add 5.7u and
#   the sum u: 30.3u.
# - |c|^2 then differs by 2 |c| (19.1u + 30.3u) <= 98.8u, and each route's
#   squares add 2u.  The package divides by the sum of its four squares, which
#   is within 2 (19.1u) sum |c| + 5u <= 81.4u of 1 (sum |c| <= 2), and the
#   division adds u: 82.4u.
JOINT_TABLE_BOUND = 186 * 2.0**-53


@settings(max_examples=200, deadline=None)
@given(det=interferometers(), sysm=interferometers(), gamma=couplings)
def test_joint_table_is_the_product_of_unitaries(det, sysm, gamma):
    """The joint table is ``|c|^2`` of ``c[D, S] = sum_a psi[a] M_a[0, D]
    U2[a, S]``, built from the QPC unitaries outside the package."""
    table = joint_probability_table(det, sysm, gamma)
    assert np.max(np.abs(table - unitary_table(det, sysm, gamma))) <= JOINT_TABLE_BOUND


NEAR_DARK = InterferometerConfig(qpc_from_transmission(0.5), qpc_from_transmission(0.5), 1e-9)


@settings(max_examples=300, deadline=None)
@given(det=interferometers(), sysm=interferometers(), gamma=couplings)
@example(det=NEAR_DARK, sysm=NEAR_DARK, gamma=0.0)  # P(D1, S) near 1e-19
@example(det=NEAR_DARK, sysm=NEAR_DARK, gamma=math.pi)
def test_one_configuration_table_matches_the_one_point_stack(det, sysm, gamma):
    table = joint_probability_table(det, sysm, gamma)
    stack = joint_probability_table(det, sysm, np.array([gamma]))
    assert table.shape == (2, 2) and stack.shape == (1, 2, 2)
    assert np.array_equal(table, stack[0])


@settings(max_examples=200, deadline=None)
@given(det=interferometers(), sysm=interferometers(), gamma=couplings, chi=angles, xi=angles,
       on_detector=st.booleans())
def test_table_leaves_out_the_second_qpc_phases(det, sysm, gamma, chi, xi, on_detector):
    """New ``chi``/``xi`` on either second QPC turn each amplitude by a unit
    phase, ``e^{i chi}`` on drain 1 and ``e^{i xi}`` on drain 2, and leave
    every bit of the table."""
    side = det if on_detector else sysm
    moved = replace(side, qpc2=replace(side.qpc2, chi=chi, xi=xi))
    det2, sys2 = (moved, sysm) if on_detector else (det, moved)
    assert np.array_equal(joint_probability_table(det2, sys2, gamma), joint_probability_table(det, sysm, gamma))
    turn = np.exp(1j * (np.array([chi, xi]) - [side.qpc2.chi, side.qpc2.xi]))
    turn = turn[:, np.newaxis] if on_detector else turn[np.newaxis, :]
    c, c2 = joint_amplitudes(det, sysm, gamma), joint_amplitudes(det2, sys2, gamma)
    assert np.max(np.abs(c2 - c * turn)) <= 1e-12


# one experiment: both QPCs of both interferometers as (T, chi, xi), the tuning
# phases, and gamma, sigma and the pair probability of the coupling model
experiment_fields = st.tuples(*2 * [transmissions, angles, angles, transmissions, angles, angles, angles],
                              couplings, st.floats(0.0, math.pi), st.floats(0.0, 1.0))


def _experiment(fields):
    """Detector, system and coupling model of a point or, with array fields, a stack."""
    return mzi(*fields[:7]), mzi(*fields[7:14]), CouplingModel(*fields[14:])


def _values(det, sysm, model) -> dict:
    amps = joint_amplitudes(det, sysm, model.gamma)
    m = measurement_operators(det, model.gamma)
    povm = povm_pair(m)
    return {
        "joint_amplitudes": amps,
        "measurement_operators": np.moveaxis([m.diag_d1, m.diag_d2], (0, 1), (-2, -1)),
        "povm_pair": np.moveaxis([povm.diag_d1, povm.diag_d2], (0, 1), (-2, -1)),
        "povm_expectation": np.moveaxis(povm_expectation(povm, reduced_system_state(sysm)), 0, -1),
        "joint_probability_table": joint_probability_table(det, sysm, model.gamma),
        "AveragedExperiment.stats": AveragedExperiment(det, sysm, model).stats.joint,
    }


def _two_axes(count: int) -> tuple:
    """A stack shape of two axes for ``count`` points: two rows where ``count``
    is even, else one column."""
    return (2, count // 2) if count % 2 == 0 else (count, 1)


@settings(max_examples=100, deadline=None)
@given(points=st.lists(experiment_fields, min_size=1, max_size=8))
# a POVM modulus whose multiplied square and C pow square differ in the last bit
@example(points=[(0.0, 0.0, 0.0, 3.282977360150768e-123, 0.0, 1.0593358918616982, 0.0) + (0.0,) * 10])
def test_stacked_experiment_matches_scalar_points_bit_for_bit(points):
    """Every field an array: one stacked evaluation, on one axis and on two,
    gives point for point (in C order) the bits of the scalar calls and of
    one-point stacks."""
    shape = _two_axes(len(points))
    stacked = _values(*_experiment([np.array(column) for column in zip(*points)]))
    two_axes = _values(*_experiment([np.reshape(column, shape) for column in zip(*points)]))
    for i, fields in enumerate(points):
        one_point = _values(*_experiment([np.array([x]) for x in fields]))
        for name, value in _values(*_experiment(fields)).items():
            assert stacked[name].shape == (len(points), *value.shape), name
            assert two_axes[name].shape == (*shape, *value.shape), name
            assert np.array_equal(stacked[name][i], value), (name, fields)
            assert np.array_equal(two_axes[name].reshape(stacked[name].shape)[i], value), (name, fields)
            assert np.array_equal(one_point[name][0], value), (name, fields)


def _conditioning_calls(det, sysm, model, condition, n) -> dict:
    """Every broadcasting conditioning function, as a call that returns a
    list of its values and the Python type of one configuration's values."""
    return {
        "AveragedExperiment.conditioned_average":
            (lambda: [AveragedExperiment(det, sysm, model).conditioned_average(condition)], float),
        "xi_joint_interference": (lambda: [xi_joint_interference(det, sysm, model.gamma)], float),
        "weak_value": (lambda: [weak_value(sysm, condition)], complex),
        "semiweak_value": (lambda: [semiweak_value(sysm, n, condition)], float),
    }


def _conditioning_stack(points, name, condition, shape):
    """The values of the conditioning function ``name`` on a stack of
    ``(fields, n)``, of the given shape, each flattened to one axis."""
    fields, n = zip(*points)
    det, sysm, model = _experiment([np.reshape(column, shape) for column in zip(*fields)])
    values = _conditioning_calls(det, sysm, model, condition, np.reshape(n, shape))[name][0]()
    assert {np.shape(x) for x in values} == {shape}, name
    return [np.ravel(x) for x in values]


# a balanced detector at gamma = 1 and a system whose QPCs both transmit fully, so
# that no electron reaches the system drain S2
BLOCKED_S2 = (0.5, 0.0, 0.0, 0.5, 0.0, 0.0, 0.3, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 1.0)


@settings(max_examples=100, deadline=None)
@given(points=st.lists(st.tuples(experiment_fields, st.integers(-3, 3)), min_size=1, max_size=8),
       condition=st.sampled_from(SystemDrain))
# a detector epsilon whose C pow square and multiplied square differ in the last bit
@example(points=[((0.6655874415571335, 0.0, 0.0, 0.3, 0.0, 0.0, 1.0, 0.6, 0.0, 0.0, 0.4, 0.0, 0.0, 0.5,
                   2.0, 0.0, 1.0), 0)], condition=SystemDrain.S1)
# a post-selection that fails only at the last point, on the second row of two
@example(points=[(BLOCKED_S2[:7] + (0.7, 0.0, 0.0, 0.4, 0.0, 0.0, 1.1) + BLOCKED_S2[14:], n) for n in range(3)]
         + [(BLOCKED_S2, 3)], condition=SystemDrain.S2)
def test_stacked_conditioning_matches_scalar_points_bit_for_bit(points, condition):
    """A stack of the points where a conditioning function is defined, on one
    axis and on two, gives point for point (in C order) the bits of the
    scalar calls, which return Python numbers; a stack that holds a point
    where the function raises raises one of the errors of its points."""
    kept, errors = {}, {}
    for fields, n in points:
        det, sysm, model = _experiment(fields)
        for name, (call, kind) in _conditioning_calls(det, sysm, model, condition, n).items():
            try:
                values = call()
            except (AmbiguousMeasurementError, PostSelectionImpossibleError) as exc:
                errors.setdefault(name, set()).add(type(exc))
                continue
            assert {type(x) for x in values} == {kind}, name
            kept.setdefault(name, []).append(((fields, n), values))
    for name, raised in errors.items():
        for shape in ((len(points),), _two_axes(len(points))):
            with pytest.raises(tuple(raised)):
                _conditioning_stack(points, name, condition, shape)
    for name, rows in kept.items():
        for shape in ((len(rows),), _two_axes(len(rows))):
            stacked = _conditioning_stack([point for point, _ in rows], name, condition, shape)
            for i, (point, values) in enumerate(rows):
                for got, want in zip(stacked, values, strict=True):
                    assert np.array_equal(got[i], want), (name, point, shape)


# xi_joint_interference and reference.joint_interference take the same
# doubles into every sine and cosine and form delta_d, epsilon1_d, V_d,
# Delta_d, Gamma_s, Delta_s and Delta_ds with the same operations, so those
# agree bit for bit.  They differ only in X = delta2_d epsilon1_d^2 / V_d,
# where the package squares epsilon1_d first.  With u = 2**-53, to first
# order: each route's X is within 3u |X| (two products and a division), so
# the two are within 6u |X|; each sum A + X, with A = delta1_d Delta_d, adds
# u |A + X|; each product with Gamma_s adds u |Gamma_s (A + X)|; and each last
# sum adds u |Xi|.  In all 6u |Gamma_s X| + 4u |Gamma_s (A + X)| + 2u |Xi|,
# at most 10u (|Gamma_s| (|A| + |X|) + |Xi|); 12u leaves room for the
# second-order terms.
XI_BOUND = 12 * 2.0**-53


def _xi_scale(det, sysm, gamma):
    """``|Gamma_s| (|A| + |X|) + |Xi|`` of the bound above, from the reference's terms."""
    *_, v_d, _, delta_d = fringe(det, gamma, det.tuning_phase)
    gamma_s = fringe(sysm, gamma, -sysm.tuning_phase)[3]
    d1, d2, e1 = det.qpc1.delta, det.qpc2.delta, det.qpc1.epsilon
    x = d2 * e1 * e1 / v_d
    return np.abs(gamma_s) * (np.abs(d1 * delta_d) + np.abs(x)) + np.abs(joint_interference(det, sysm, gamma))


@settings(max_examples=60, deadline=None)
@given(points=st.lists(experiment_fields, min_size=1, max_size=8))
def test_xi_joint_interference_matches_the_reference(points):
    """``Xi = Delta_ds - Delta_d Delta_s + Gamma_s (delta1_d Delta_d + delta2_d
    epsilon1_d^2 / V_d)``, built from ``tests/reference.py``'s fringe
    bundles, on each point where the detector carries interference and on
    the stack of those points."""
    kept = []
    for fields in points:
        det = mzi(*fields[:7])
        if det.qpc1.epsilon * det.qpc2.epsilon > DIVERGENCE_THRESHOLD:
            kept.append(fields)
    assume(kept)
    for det, sysm, model in [_experiment(fields) for fields in kept] + [
            _experiment([np.array(column) for column in zip(*kept)])]:
        gamma = model.gamma
        gap = np.abs(xi_joint_interference(det, sysm, gamma) - joint_interference(det, sysm, gamma))
        assert np.all(gap <= XI_BOUND * _xi_scale(det, sysm, gamma)), (det, sysm, gamma)


BIAS = PhysicalBias(1e-4, 1e-2, 0.02)  # the shipped configs' bias point, inside the low-bias regime


def _qpc_numbers(q) -> list:
    return [*astuple(q), q.theta]


def _one_configuration_calls(det, sysm, model, condition, n) -> dict:
    """Every function that README lists as broadcasting, as a call that
    returns a list of what it gives for one configuration, and the type of
    those values: a Python number, or an ndarray where the value is a table
    or a state.  ``require_post_selection`` returns nothing and is left out."""
    gamma, q, obs = model.gamma, det.qpc1, ObservableCoefficients()
    raw = detector_params(det, gamma)
    experiment = AveragedExperiment(det, sysm, model, obs)
    stats = experiment.stats
    m = measurement_operators(det, gamma)
    povm = povm_pair(m)
    cv = contextual_values_or_nan(obs, raw)
    p_d1, p_d2 = map(stats.p_detector, DetectorDrain)
    return {
        "qpc_from_transmission": (lambda: _qpc_numbers(qpc_from_transmission(q.transmission, q.chi, q.xi)),
                                  float),
        "qpc_from_angle": (lambda: _qpc_numbers(qpc_from_angle(q.theta, q.chi, q.xi)), float),
        "detector_params": (lambda: list(astuple(raw)), float),
        "AveragedExperiment.bundle": (lambda: list(astuple(experiment.bundle)), float),
        "AveragedExperiment.eta": (lambda: [experiment.eta], float),
        "AveragedExperiment.alphas": (lambda: list(astuple(experiment.alphas)), float),
        "damping_eta": (lambda: [damping_eta(model.sigma)], float),
        "concurrence": (lambda: [concurrence(det.qpc1, sysm.qpc1, gamma)], float),
        "reduced_system_state": (lambda: [reduced_system_state(sysm)], np.ndarray),
        "detector_drain_amplitudes": (lambda: [detector_drain_amplitudes(det, gamma)], np.ndarray),
        "joint_amplitudes": (lambda: [joint_amplitudes(det, sysm, gamma)], np.ndarray),
        "cross_noise_power": (lambda: [cross_noise_power(stats, d, s, BIAS)
                                       for d in DetectorDrain for s in SystemDrain], float),
        "joint_probability_table": (lambda: [joint_probability_table(det, sysm, gamma)], np.ndarray),
        "AveragedExperiment.stats": (lambda: [stats.joint], np.ndarray),
        "measurement_operators": (lambda: [*m.diag_d1, *m.diag_d2], complex),
        "povm_pair": (lambda: [*povm.diag_d1, *povm.diag_d2], float),
        "povm_expectation": (lambda: list(povm_expectation(povm, reduced_system_state(sysm))), float),
        "contextual_values": (lambda: list(astuple(contextual_values(obs, raw))), float),
        "contextual_values_or_nan": (lambda: list(astuple(cv)), float),
        "reconstruct_average": (lambda: [reconstruct_average(cv, p_d1, p_d2)], float),
        "average_current": (lambda: [average_current(p_d1, BIAS)], float),
        "post_selected_average": (lambda: [post_selected_average(cv, stats, condition)], float),
        **_conditioning_calls(det, sysm, model, condition, n),
    }


@settings(max_examples=100, deadline=None)
@given(fields=experiment_fields, n=st.integers(-3, 3), condition=st.sampled_from(SystemDrain))
def test_one_configuration_gives_python_numbers(fields, n, condition):
    """Scalar inputs give Python numbers from every broadcasting function;
    only a table or a state is an array."""
    det, sysm, model = _experiment(fields)
    for name, (call, kind) in _one_configuration_calls(det, sysm, model, condition, n).items():
        try:
            values = call()
        except (AmbiguousMeasurementError, PostSelectionImpossibleError, ObservableRangeError):
            continue
        assert {type(x) for x in values} == {kind}, name


@settings(max_examples=100, deadline=None)
@given(det=interferometers(), sysm=interferometers(), gamma=couplings,
       t_d1=st.lists(transmissions, min_size=1, max_size=8))
def test_array_detector_first_qpc_matches_scalar_points(det, sysm, gamma, t_d1):
    q1 = det.qpc1
    array_det = replace(det, qpc1=qpc_from_transmission(np.array(t_d1), q1.chi, q1.xi))
    c = joint_amplitudes(array_det, sysm, gamma)
    assert c.shape == (len(t_d1), 2, 2)
    for i, t in enumerate(t_d1):
        point_det = replace(det, qpc1=qpc_from_transmission(t, q1.chi, q1.xi))
        assert np.max(np.abs(c[i] - joint_amplitudes(point_det, sysm, gamma))) <= 1e-15


@settings(max_examples=200, deadline=None)
@given(thetas=st.lists(st.floats(0.0, math.pi / 2), min_size=1, max_size=8))
def test_angle_path_matches_transmission_path(thetas):
    fields = ("transmission", "reflection", "delta", "epsilon", "theta")
    array = qpc_from_angle(np.array(thetas))
    for i, theta in enumerate(thetas):
        a = qpc_from_angle(theta)
        assert [getattr(a, f) for f in fields] == [getattr(array, f)[i] for f in fields]
        if theta >= 1e-150:
            assert abs(a.theta - theta) <= math.ulp(theta)
        t = qpc_from_transmission(math.cos(theta) ** 2)
        assert abs(a.delta - t.delta) <= 1e-15
        # below pi/4 the transmission path takes R = 1 - T from a T already
        # rounded by ~1e-16, which moves epsilon = 2 sqrt(T R) by ~1e-16 / epsilon
        gap = abs(a.epsilon - t.epsilon)
        assert gap <= 1e-15 or (theta < math.pi / 4 and gap * a.epsilon <= 1e-15 and gap <= 3e-8)


@settings(max_examples=200, deadline=None)
@given(det=interferometers(), sysm=interferometers(), gamma=couplings,
       condition=st.sampled_from(SystemDrain))
def test_conditioned_average_between_contextual_values(det, sysm, gamma, condition):
    try:
        cv = contextual_values(ObservableCoefficients(), detector_params(det, gamma))
        value = steady(det, sysm, gamma).conditioned_average(condition)
    except (AmbiguousMeasurementError, PostSelectionImpossibleError):
        assume(False)
    low, high = sorted((cv.alpha_d1, cv.alpha_d2))
    slack = 1e-12 * max(abs(low), abs(high))
    assert low - slack <= value <= high + slack


def test_gamma_array_broadcasts_against_config_phases():
    det = InterferometerConfig(qpc_from_transmission(0.3), qpc_from_transmission(0.6), 0.4)
    sysm = InterferometerConfig(qpc_from_transmission(0.8), qpc_from_transmission(0.45), -1.1)
    gammas = np.linspace(0.0, TWO_PI, 7)
    c = joint_amplitudes(det, sysm, gammas)
    assert c.shape == (7, 2, 2)
    expected = closed_form_table(det, sysm, gammas)
    assert np.abs(c) ** 2 == pytest.approx(expected, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(det=interferometers(), gamma=couplings)
def test_povm_complete_and_positive(det, gamma):
    povm = povm_pair(measurement_operators(det, gamma))
    assert np.max(np.abs(povm.e_d1 + povm.e_d2 - SIGMA_0)) <= 1e-12
    for element in (povm.e_d1, povm.e_d2):
        assert np.min(np.diag(element).real) >= -1e-12


@settings(max_examples=200, deadline=None)
@given(det=interferometers(), gamma=couplings, obs=observables)
def test_contextual_values_reconstruct_observable(det, gamma, obs):
    try:
        cv = contextual_values(obs, detector_params(det, gamma))
    except AmbiguousMeasurementError:
        assume(False)
    povm = povm_pair(measurement_operators(det, gamma))
    residual = cv.alpha_d1 * povm.e_d1 + cv.alpha_d2 * povm.e_d2 - (obs.a0 * SIGMA_0 + obs.a3 * SIGMA_3)
    scale = max(1.0, abs(cv.alpha_d1), abs(cv.alpha_d2))
    assert np.max(np.abs(residual)) <= 1e-10 * scale


huge = st.one_of(st.floats(-10.0, 10.0), st.floats(-1e308, 1e308), st.sampled_from([1e308, -1.7976931348623157e308]))


@settings(max_examples=200, deadline=None)
@given(det=interferometers(), obs=st.builds(ObservableCoefficients, huge, huge),
       # gamma = 0 and 2 pi leave Gamma (about) 0: ambiguous points on every grid that holds them
       gammas=st.lists(st.one_of(couplings, st.sampled_from([0.0, TWO_PI])), min_size=1, max_size=8))
@example(det=mzi(0.5, 0, 0, 0.5, 0, 0, 0.0), obs=ObservableCoefficients(0.0, 1e308), gammas=[0.0, 0.5])
@example(det=mzi(0.5, 0, 0, 0.5, 0, 0, 0.0), obs=ObservableCoefficients(0.0, 1e308), gammas=[0.0, 1e-6])
# |V Gamma| is the threshold itself at the first point: ambiguous
@example(det=mzi(0.5, 0, 0, 0.5, 0, 0, 0.0), obs=ObservableCoefficients(), gammas=[6.324555321390852e-05, 1.0])
def test_grid_contextual_values_follow_the_pointwise_rule(det, obs, gammas):
    points = []  # per point: the two values, None where ambiguous, or the range error
    for gamma in gammas:
        try:
            cv = contextual_values(obs, detector_params(det, gamma))
            points.append((cv.alpha_d1, cv.alpha_d2))
        except AmbiguousMeasurementError:
            points.append(None)
        except ObservableRangeError:
            points.append(ObservableRangeError)
    p = detector_params(det, np.array(gammas))
    assert [x is None for x in points] == (abs(p.visibility * p.Gamma) <= DIVERGENCE_THRESHOLD).tolist()
    if ObservableRangeError in points:
        with pytest.raises(ObservableRangeError):
            contextual_values_or_nan(obs, p)
        return
    grid = contextual_values_or_nan(obs, p)
    for k, x in enumerate(points):
        got = (grid.alpha_d1[k], grid.alpha_d2[k])
        assert all(map(math.isnan, got)) if x is None else got == x
    if None not in points:  # a stack without ambiguous points gives the grid's values
        stack = contextual_values(obs, p)
        assert np.array_equal(stack.alpha_d1, grid.alpha_d1) and np.array_equal(stack.alpha_d2, grid.alpha_d2)


@settings(max_examples=200, deadline=None)
@given(det=interferometers(), sysm=interferometers(), gamma=couplings)
def test_povm_expectation_matches_amplitude_marginals(det, sysm, gamma):
    povm = povm_pair(measurement_operators(det, gamma))
    expected = JointStatistics(joint_probability_table(det, sysm, gamma)).detector_marginals
    got = povm_expectation(povm, reduced_system_state(sysm))
    assert np.max(np.abs(np.array(got) - expected)) <= 1e-12


# the input contract's draws: finite doubles (st.floats() includes subnormals,
# both infinities and NaN, and the list pins each), small Python ints, and
# Python ints beyond the double range, which no float array can hold, so an
# array holds one drawn double among finite ones; most have more digits than
# str() of an int gives (4300), which an error message must still show
beyond_double = st.integers(2**1024, 10**5000) | st.integers(-(10**5000), -(2**1024))
contract_doubles = st.floats() | st.sampled_from([math.inf, -math.inf, math.nan, 5e-324, -2.2250738585072e-308])
contract_inputs = (contract_doubles | st.integers(-10, 10) | beyond_double
                   | st.builds(lambda x, i: np.insert([0.4, 1.1], i, x), contract_doubles, st.integers(0, 2)))


def _finite(x) -> bool:
    try:
        return bool(np.isfinite(np.asarray(x, dtype=float)).all())
    except OverflowError:
        return False


def _amplitude_layer_calls(det, sysm, gamma, sigma) -> dict:
    """Every public function that reaches the amplitude core, as a call that
    returns a list of what it gives; ``AveragedExperiment.stats`` takes
    ``gamma`` through ``CouplingModel``, which calls it the coupling phase."""
    def operators():
        m = measurement_operators(det, gamma)
        return [*m.diag_d1, *m.diag_d2]
    return {
        "joint_probability_table": lambda: [joint_probability_table(det, sysm, gamma)],
        "joint_amplitudes": lambda: [joint_amplitudes(det, sysm, gamma)],
        "detector_drain_amplitudes": lambda: [detector_drain_amplitudes(det, gamma)],
        "measurement_operators": operators,
        "AveragedExperiment.stats": lambda: [AveragedExperiment(det, sysm, CouplingModel(gamma, sigma)).stats.joint],
    }


@settings(max_examples=150, deadline=None)
@given(gamma=contract_inputs, chi=contract_inputs, xi=contract_inputs, on_detector=st.booleans(),
       sigma=st.sampled_from([0.0, 0.5]))
@example(gamma=10**400, chi=0.0, xi=0.0, on_detector=True, sigma=0.0)
@example(gamma=1.0, chi=math.nan, xi=0.0, on_detector=False, sigma=0.5)
def test_amplitude_layer_gives_finite_values_or_names_the_bad_input(gamma, chi, xi, on_detector, sigma):
    """With warnings as errors, a second QPC's ``chi``/``xi`` and ``gamma``
    give finite values, or a ``ValueError`` whose message names an input
    that is not a finite number (or, for ``CouplingModel``, outside [0, 2 pi])."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            q2 = qpc_from_transmission(0.6, chi=chi, xi=xi)
        except ValueError as error:
            assert any(str(error).startswith(f"{name} ") and not _finite(value)
                       for name, value in (("chi", chi), ("xi", xi))), error
            return
        assert _finite(chi) and _finite(xi)
        ifm = InterferometerConfig(qpc_from_transmission(0.3), q2, 0.4)
        other = InterferometerConfig(qpc_from_transmission(0.8), qpc_from_transmission(0.45), -1.1)
        det, sysm = (ifm, other) if on_detector else (other, ifm)
        bad = {"gamma": not _finite(gamma)}
        bad["coupling phase"] = bad["gamma"] or not 0.0 <= np.min(gamma) <= np.max(gamma) <= TWO_PI
        for name, call in _amplitude_layer_calls(det, sysm, gamma, sigma).items():
            coupling = "coupling phase" if name == "AveragedExperiment.stats" else "gamma"
            try:
                values = call()
            except ValueError as error:
                assert str(error).startswith(f"{coupling} ") and bad[coupling], (name, error)
                continue
            assert all(np.isfinite(v).all() for v in values), name


def _inside(x, lo: float, hi: float) -> bool:
    return _finite(x) and lo <= np.min(x) and np.max(x) <= hi


@settings(max_examples=150, deadline=None)
@given(gamma=contract_inputs, sigma=contract_inputs, p=contract_inputs, phi=contract_inputs)
@example(gamma=10**5000, sigma=0.5, p=1.0, phi=0.4)
@example(gamma=1.0, sigma=-(10**5000), p=1.0, phi=-(10**5000))
@example(gamma=1.0, sigma=0.5, p=10**5000, phi=0.4)
def test_fringe_layer_gives_finite_values_or_names_the_bad_input(gamma, sigma, p, phi):
    """With warnings as errors, the detector's tuning phase, ``gamma``,
    ``sigma`` and the pair probability give finite values from the fringe
    bundle and the coupling model, or a ``ValueError`` whose message names
    an input that is not a finite number or lies outside its domain."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            det = InterferometerConfig(qpc_from_transmission(0.3), qpc_from_transmission(0.6), phi)
        except ValueError as error:
            assert str(error).startswith("tuning phase ") and not _inside(phi, -(2.0**30), 2.0**30), error
            return
        bad = {"gamma": not _inside(gamma, -(2.0**31), 2.0**31), "sigma": not _inside(sigma, 0.0, math.pi)}
        bad["coupling phase"] = not (_inside(gamma, 0.0, TWO_PI) and _inside(sigma, 0.0, math.pi)
                                     and _inside(p, 0.0, 1.0))
        def averaged():  # the bundle and eta read no field of the system
            experiment = AveragedExperiment(det, None, CouplingModel(gamma, sigma, p))
            return [*astuple(experiment.bundle), experiment.eta]

        calls = {  # each call, and the inputs its errors may name
            "detector_params": (("gamma",), lambda: astuple(detector_params(det, gamma))),
            "concurrence": (("gamma",), lambda: [concurrence(det.qpc1, det.qpc2, gamma)]),
            "damping_eta": (("sigma",), lambda: [damping_eta(sigma)]),
            "CouplingModel": (("coupling phase",), lambda: astuple(CouplingModel(gamma, sigma, p))),
            "AveragedExperiment": (("coupling phase",), averaged),
        }
        for name, (inputs, call) in calls.items():
            try:
                values = call()
            except ValueError as error:
                assert any(str(error).startswith(f"{x} ") and bad[x] for x in inputs), (name, error)
                continue
            assert all(np.isfinite(v).all() for v in values), name


GEOMETRY = InteractionGeometry(5e-6, 50e-9, 100e-9, 1e5, 8.9875e9)
POVM = povm_pair(measurement_operators(
    InterferometerConfig(qpc_from_transmission(0.3), qpc_from_transmission(0.6), 0.4), 1.0))
HUGE = sys.float_info.max
# the Coulomb rate at the channel separation, which position_phase(x, x) multiplies by 2x
RATE = wavenumber_shift(GEOMETRY.channel_separation, GEOMETRY) * GEOMETRY.propagation_speed


def _input_calls(x) -> dict:
    """Each constructor or function that takes ``x`` in one argument at a
    time, with finite values elsewhere: the inputs its errors may name,
    whether it has a sign rule, a call that returns its values or the
    dataclasses it builds, and whether a finite ``x`` is, within 0.1 %, far
    enough out that a result, or a product on the way to it, leaves the
    double range."""
    a = abs(x) if _finite(x) else math.inf
    return {
        "ContextualValues": (("alpha_d1", "alpha_d2"), False,
                             lambda: [ContextualValues(x, 1.0), ContextualValues(1.0, x)], False),
        "PhysicalBias": (("bias_voltage", "fermi_energy", "temperature"), True,
                         lambda: [PhysicalBias(x, 1e-2, 0.02), PhysicalBias(1e-4, x, 0.02), PhysicalBias(1e-4, 1e-2, x)],
                         False),
        "ObservationBudget": (("path_length", "fermi_velocity", "target_rms", "tau_m"), True,
                              lambda: [ObservationBudget(x, 1e5, 0.1), ObservationBudget(1e-6, x, 0.1),
                                       ObservationBudget(1e-6, 1e5, x), ObservationBudget(1e-6, 1e5, 0.1, x)], False),
        "position_phase": (("x1", "x2"), False,
                           lambda: [position_phase(x, 0.0, GEOMETRY), position_phase(0.0, x, GEOMETRY),
                                    position_phase(x, x, GEOMETRY)], a > 0.999 * HUGE / (2.0 * RATE)),
        "wavenumber_shift": (("separation",), True, lambda: [wavenumber_shift(x, GEOMETRY)], False),
        "sequential_phase": (("energy", "t1", "t2"), True,
                             lambda: [sequential_phase(x, 0.0, 1.0), sequential_phase(1.0, 0.0, x),
                                      sequential_phase(1.0, -x, 0.0)], a > 0.999 * HUGE * HBAR),
        "dynamical_phase": (("fermi_energy", "length", "fermi_velocity"), True,
                            lambda: [dynamical_phase(x, 1.0, 1.0), dynamical_phase(1.0, x, 1.0),
                                     dynamical_phase(1.0, 1.0, x)],
                            not 1.001 * 2.0 / (HBAR * HUGE) <= a <= 0.999 * HUGE * HBAR / 2.0),
        "povm_expectation": (("state",), False,
                             lambda: [*povm_expectation(POVM, [x, 0.0]), *povm_expectation(POVM, [0.0, x])],
                             a > 0.999 * math.sqrt(HUGE)),
        "require_post_selection": (("the marginal",), True, lambda: [_post_selection(x)], False),
        "contextual_estimate": (("counts",), True,
                                lambda: [contextual_estimate([x, 0, 1, 0], ContextualValues(-1.0, 1.0), (0.5, 0.5))],
                                False),
    }


def _post_selection(x):
    """``x`` where ``require_post_selection`` takes it as a marginal, or the
    probability of the vanishing post-selection that it reports."""
    try:
        require_post_selection({SystemDrain.S1: x})
    except PostSelectionImpossibleError as error:
        return error.probability
    return x


@settings(max_examples=150, deadline=None)
@given(x=contract_doubles | st.integers(-10, 10) | beyond_double)
@example(x=10**400)
@example(x=math.inf)
@example(x=math.nan)
@example(x=1e308)
@example(x=-1e300)
@example(x=1e-320)
def test_constructors_take_finite_numbers_or_name_the_bad_input(x):
    """With warnings as errors, ``ContextualValues``, ``PhysicalBias``,
    ``ObservationBudget``, ``position_phase``, ``wavenumber_shift``,
    ``sequential_phase``, ``dynamical_phase``, ``povm_expectation``,
    ``require_post_selection`` (of a marginal) and ``contextual_estimate``
    (of a count) give finite numbers or raise ``ValueError``: an infinity or an int beyond the
    double range that passes every sign rule is named by its argument, not
    met by ``OverflowError`` or kept, and a finite input whose result leaves
    the double range gets an error that names the result.
    ``ContextualValues``, ``position_phase`` and ``povm_expectation`` have no
    sign rule and take every other finite number; ``ContextualValues`` keeps
    NaN, the ambiguity marker of ``contextual_values_or_nan``, and the others
    name it."""
    finite = _finite(x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, (fields, signed, call, beyond) in _input_calls(x).items():
            keeps_nan = name == "ContextualValues"
            try:
                built = call()
            except ValueError as error:
                if not finite and (x == x or not keeps_nan) and (x > 0 or not signed):
                    assert any(str(error).startswith(f"{field} ") for field in fields), (name, error)
                else:
                    assert signed or (beyond and str(error).endswith(" is not a finite number")), (name, error)
                continue
            assert finite or (keeps_nan and x != x), name
            values = [v for b in built for v in (astuple(b) if is_dataclass(b) else [b])]
            assert all(v is None or _finite(v) or (keeps_nan and v != v) for v in values), name


SWEEP_RANGES = {"gamma": (0.0, TWO_PI), "phi_d": (-math.pi, math.pi), "phi_s": (0.0, TWO_PI),
                "delta_s1": (-1.0, 1.0), "sigma": (0.0, math.pi)}


def _public_values(det, sysm, coupling, bias) -> dict:
    """Every public function of the contract, as a list of arrays or scalars;
    noise powers in units of ``2 e^3 V / h``."""
    raw = detector_params(det, coupling.gamma)
    amps = joint_amplitudes(det, sysm, coupling.gamma)
    stats = JointStatistics(joint_probability_table(det, sysm, coupling.gamma))
    noise_unit = 2.0 * ELEMENTARY_CHARGE**3 * bias.bias_voltage / PLANCK_CONSTANT
    return {
        "joint_amplitudes": [amps],
        "JointStatistics": [stats.joint, *map(stats.p_detector, DetectorDrain),
                            *map(stats.p_system, SystemDrain)],
        "cross_noise_power": [cross_noise_power(stats, d, s, bias) / noise_unit
                              for d in DetectorDrain for s in SystemDrain],
        "detector_params": astuple(raw),
        "AveragedExperiment.bundle": astuple(AveragedExperiment(det, sysm, coupling).bundle),
        "concurrence": [concurrence(det.qpc1, sysm.qpc1, coupling.gamma)],
        "damping_eta": [damping_eta(coupling.sigma)],
    }


@pytest.mark.parametrize("parameter", sorted(SWEEP_RANGES))
def test_array_experiment_matches_scalar_points(parameter):
    """A sweep is the config with the swept field an array: every public
    function gives, point for point, what the scalar experiment gives.  The
    coupling phase and width are broadcast to the grid, so that every value
    has the grid's axis first."""
    config = load_config(str(GOLDEN_CONFIG))
    grid = np.linspace(*SWEEP_RANGES[parameter], 13)
    at = swept(config, parameter, grid)
    coupling = replace(at.coupling, gamma=np.broadcast_to(at.coupling.gamma, grid.shape),
                       sigma=np.broadcast_to(at.coupling.sigma, grid.shape))
    arrays = _public_values(at.detector, at.system, coupling, config.bias)
    for i, value in enumerate(grid.tolist()):
        point = swept(config, parameter, value)
        scalar_values = _public_values(point.detector, point.system, point.coupling, point.bias)
        for name, scalars in scalar_values.items():
            for array, scalar in zip(arrays[name], scalars, strict=True):
                got = array[i] if np.ndim(array) else array  # a scalar holds at every point
                assert np.max(np.abs(got - scalar)) <= 1e-15, (name, value)


# the least grid count whose table, a column per quantity and the grid's, takes the vector writer
VECTOR_COUNT = _VECTOR_CELLS // (len(cli.QUANTITIES) + 1) + 1


@pytest.mark.parametrize("count", [3, VECTOR_COUNT])
@pytest.mark.parametrize("fluctuating", [False, True], ids=["steady", "fluctuating"])
@pytest.mark.parametrize("parameter", sorted(SWEEP_RANGES))
def test_scan_row_is_the_two_point_scan_at_its_point(parameter, fluctuating, count):
    """Every row of a scan of every quantity has the bytes of the row for the
    same point in the 2-point scan that starts there (for the last row, that
    ends there): each column reads its own point, whatever shape it is
    computed at, and the two writers agree.  The golden config fluctuates
    (``sigma > 0``, ``p < 1``); the steady one keeps only its ``gamma``."""
    config = load_config(str(GOLDEN_CONFIG))
    if not fluctuating:
        config = replace(config, coupling=CouplingModel(config.coupling.gamma))

    def rows(lo, hi, n):
        return cli.run_scan(config, parameter, lo, hi, n, cli.QUANTITIES).splitlines()[1:]

    grid = cli._grid(*SWEEP_RANGES[parameter], count).tolist()
    for i, row in enumerate(rows(grid[0], grid[-1], count)):
        start = min(i, count - 2)
        assert row == rows(grid[start], grid[start + 1], 2)[i - start], (parameter, i)


def _conditioned_average_before(det, sysm, gamma, condition, obs):
    """The checked conditioned average as it was before
    :class:`AveragedExperiment` held it: the raw detector bundle's contextual
    values and the amplitude table."""
    cv = contextual_values(obs, detector_params(det, gamma))
    stats = JointStatistics(joint_probability_table(det, sysm, gamma))
    require_post_selection({condition: stats.p_system(condition)})
    return post_selected_average(cv, stats, condition)


def _outcome(call):
    try:
        return call()
    except (AmbiguousMeasurementError, PostSelectionImpossibleError) as error:
        return type(error)


@settings(max_examples=100, deadline=None)
@given(fields=experiment_fields, obs=observables)
@example(fields=(0.7, 0.0, 0.0, 0.4, 0.0, 0.0, 1.0, 0.6, 0.0, 0.0, 0.5, 0.3, -0.2, 1.1, 0.8, 0.5, 0.7),
         obs=ObservableCoefficients())
@example(fields=(0.5, 0.0, 0.0, 0.5, 0.0, 0.0, 0.0, 0.8, 0.0, 0.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0),
         obs=ObservableCoefficients())  # no coupling: ambiguous
@example(fields=BLOCKED_S2, obs=ObservableCoefficients())  # no post-selection on S2
@example(fields=BLOCKED_S2[:15] + (0.5, 0.9), obs=ObservableCoefficients())  # the same, fluctuating
def test_experiment_gives_the_scan_row_and_conditioned_average_its_bits(fields, obs):
    """At a random point, fluctuating or not, ``AveragedExperiment``'s
    checked conditioned average raises ``AmbiguousMeasurementError`` where
    its contextual values are NaN, else ``PostSelectionImpossibleError``
    where ``P_S <= 1e-12``, else gives a float; it has the bits of ``scan``'s
    ``cond_avg_*`` cell at that point, and raises the ambiguity error where
    the cell is ``inf-ambiguous``.  At the point's steady coupling it gives
    the bits, or the error, of its route before the object held it."""
    det, sysm, model = _experiment(fields)
    experiment = AveragedExperiment(det, sysm, model, obs)
    config = replace(load_config(str(GOLDEN_CONFIG)), detector=det, system=sysm, coupling=model, observable=obs)
    phi_s = sysm.tuning_phase  # the first row of a scan from phi_s is the point itself
    for condition in SystemDrain:
        got = _outcome(lambda: experiment.conditioned_average(condition))
        if math.isnan(experiment.alphas.alpha_d1):
            assert got is AmbiguousMeasurementError, (condition, got)
        elif experiment.stats.p_system(condition) <= 1e-12:
            assert got is PostSelectionImpossibleError, (condition, got)
        else:
            assert type(got) is float, (condition, got)
        # at the point's steady coupling
        new = _outcome(lambda: steady(det, sysm, model.gamma, obs).conditioned_average(condition))
        old = _outcome(lambda: _conditioned_average_before(det, sysm, model.gamma, condition, obs))
        assert new == old and type(new) is type(old), (condition, new, old)
        column = f"cond_avg_{condition.name}"
        try:
            row = cli.run_scan(config, "phi_s", phi_s, phi_s + 1.0, 2, (column,)).splitlines()[1].split(",")
        except PostSelectionImpossibleError:
            continue  # at this point, or at the scan's second one
        assert float(row[0]) == phi_s
        if row[1] == "inf-ambiguous":
            assert got is AmbiguousMeasurementError, (condition, got)
        else:
            assert got == float(row[1]), (condition, got, row[1])


def _bits(word: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", word))[0]


EDGE_CELLS = [
    math.nan, -math.nan, _bits(0x7FF8000000000001), _bits(0xFFF800000000BEEF),
    _bits(0x7FF0000000000001), _bits(0xFFF4000000000000),  # NaN payloads, quiet and signalling
    math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
    -2.225073858507201e-308, sys.float_info.min, sys.float_info.max, -sys.float_info.max,
]
grid_tables = hnp.arrays(
    # up to twice the crossover, so both writers of _table_csv are drawn
    np.float64, st.tuples(st.integers(1, 2 * _VECTOR_CELLS // 12), st.integers(1, 12)),
    elements=st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(EDGE_CELLS),
)


def _edge_table(cells: int, columns: int = 1) -> np.ndarray:
    """``cells`` cells cycling through the edge cases and a few plain values."""
    values = EDGE_CELLS + [0.1, -2.5e-5, 123.456, 1e17, 9.999999999999999e98]
    return np.resize(values, (cells // columns, columns))


def _per_cell_csv(header: list[str], table: np.ndarray) -> str:
    cells = [["inf-ambiguous" if math.isnan(x) else format(x, ".17g") for x in row]
             for row in table.tolist()]
    return "\n".join(",".join(row) for row in [header, *cells]) + "\n"


@settings(max_examples=300, deadline=None)
@given(table=grid_tables)
@example(table=np.array([EDGE_CELLS]))
@example(table=np.array(EDGE_CELLS)[:, None])
@example(table=np.tile(EDGE_CELLS + [0.1, -2.5e-5, 123.456, 1e17, 9.999999999999999e98], (16, 1)))
@example(table=_edge_table(_VECTOR_CELLS - 1))  # the row template's largest table
@example(table=_edge_table(_VECTOR_CELLS))  # the vector writer's smallest
@example(table=_edge_table(_VECTOR_CELLS, _VECTOR_CELLS))
def test_grid_writer_matches_per_cell_rule(table):
    """Both grid writers, on either side of ``_VECTOR_CELLS``, give the
    bytes of the per-cell rule: ``inf-ambiguous`` for a NaN of any sign or
    payload, else ``.17g``."""
    header = [f"c{i}" for i in range(table.shape[1])]
    assert _table_csv(header, table) == _per_cell_csv(header, table)


def _per_cell_rows(table: np.ndarray) -> str:
    return "".join(",".join("inf-ambiguous" if x != x else "%.17g" % x for x in row) + "\n"
                   for row in table.tolist())


# values spread over the decades of the vector writer, either sign
decades = st.builds(lambda m, k: m * 10.0**k,
                    st.floats(-10.0, 10.0), st.integers(-_MAX_EXPONENT, _MAX_EXPONENT))


@settings(max_examples=200, deadline=None)
@given(table=hnp.arrays(
    np.float64, st.tuples(st.integers(1, 20), st.integers(1, 8)),
    elements=st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(EDGE_CELLS) | decades,
))
@example(table=np.array([EDGE_CELLS]))
# the per-cell "%" fallback: NaN of either sign in a row's last column and in another
@example(table=np.array([[math.nan, -math.nan], [-math.nan, math.nan], [0.5, math.nan]]))
# zeros, and the decades 1 <= k <= 16 from their ends: 10, 99999999999999.98 and 17-digit integers
@example(table=np.array([[0.0, -0.0, 10.0, 99999999999999.98, 1e16, 12345678901234568.0, -10.0, -1e16]]))
@example(table=np.array([[1e-14, -1e98, 0.25]]))  # roundings that carry, beside a cell the words write
@example(table=np.array([[12.5, math.inf, 0.0], [math.nan, -1e16, 1e300]]))  # every cell per-cell
def test_vector_writer_matches_per_cell_rule(table):
    """The vector writer, called at any table size, gives ``"%.17g" % x``,
    and ``inf-ambiguous`` for a NaN."""
    assert _vector_rows(table) == _per_cell_rows(table)


def _powers_of_ten() -> list[float]:
    """``10.0**k``, the double nearest to ``10**k``, and the neighbours of both,
    for every exponent of the vector writer."""
    cells = set()
    for k in range(-_MAX_EXPONENT, _MAX_EXPONENT + 1):
        for x in (10.0**k, float(f"1e{k}")):
            cells.update((x, math.nextafter(x, 0.0), math.nextafter(x, math.inf)))
    return sorted(cells)


def _ties() -> list[float]:
    """Doubles whose exact decimal has 18 significant digits, the last a 5:
    odd multiples of ``2**(k - 17)`` in the decade ``[10**k, 10**(k+1))``."""
    cells = []
    for k in range(-8, 16):
        lowest = math.ceil(Fraction(10) ** k * 2 ** (17 - k))
        highest = math.ceil(Fraction(10) ** (k + 1) * 2 ** (17 - k)) - 1
        for m in {lowest, lowest + 1, lowest + 2, lowest + 3, (lowest + highest) // 2,
                  (lowest + highest) // 2 + 1, highest - 1, highest}:
            if m % 2 and lowest <= m <= highest and m < 2**53:
                cells.append(math.ldexp(m, k - 17))
    return cells


# each is the double nearest to 10**k, below it and within half a unit of the
# 17th digit, so its 17 digits round up to the next decade
CARRIES = [1e-79, 1e-78, 1e-73, 1e-70, 1e-14, 1e98]


def test_vector_writer_at_powers_of_ten_ties_and_carries():
    """Cells next to a decade boundary, exact ties and roundings that carry
    into the next decade print as the per-cell rule does."""
    ties = _ties()
    assert {math.floor(math.log10(x)) for x in ties} == set(range(-8, 16))
    for x in ties:
        digits = Decimal(x).as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5, x
    for x in CARRIES:
        assert Fraction(x) < Fraction(10) ** round(math.log10(x)) and "%.17g" % x == f"{x:g}"
    table = _boundary_table(_powers_of_ten() + ties + CARRIES)
    assert table.size >= _VECTOR_CELLS
    assert _vector_rows(table) == _per_cell_rows(table)
    assert _table_csv(["c"] * 8, table).split("\n", 1)[1] == _per_cell_rows(table)


def _boundary_table(cells: list[float]) -> np.ndarray:
    cells = np.concatenate([cells, np.negative(cells)])
    return np.resize(cells, (-(-cells.size // 8), 8))


def _near_powers_of_ten() -> list[float]:
    """The double nearest to ``10**k`` and its neighbours up to two ulps away,
    for ``k`` in ``[-98, 97]``, of both signs."""
    cells = []
    for k in range(1 - _MAX_EXPONENT, _MAX_EXPONENT - 1):
        below = above = float(f"1e{k}")
        cells.append(below)
        for _ in range(2):
            below, above = math.nextafter(below, 0.0), math.nextafter(above, math.inf)
            cells += [below, above]
    return cells + [-x for x in cells]


def _just_below(x: float) -> bool:
    """Whether ``|x|`` is within the writer's exponents and below the power
    of ten nearest to it."""
    return abs(x) >= _bits(cli._TINY) and Fraction(abs(x)) < Fraction(10) ** round(math.log10(abs(x)))


def _exact_decade(a: float) -> int:
    """``k`` with ``10**k <= a < 10**(k + 1)``, in exact arithmetic."""
    k = math.floor(math.log10(a))
    k -= Fraction(a) < Fraction(10) ** k
    return k + (Fraction(a) >= Fraction(10) ** (k + 1))


def _tie_distance(x: float) -> tuple[int, Fraction]:
    """The 17 digits ``D`` of ``x``, rounded half to even, and how far the
    exact ``|x| 10**(16 - k)`` is from the nearest tie of that rounding."""
    scaled = Fraction(abs(x)) * Fraction(10) ** (16 - _exact_decade(abs(x)))
    return round(scaled), abs(scaled - math.floor(scaled) - Fraction(1, 2))


def _takes_the_per_cell_rule(x: float) -> bool:
    """The writer's per-cell set: NaN, inf, zero, a magnitude beyond 1e+-98,
    a point among the digits (decades 1 to 16), a rounding that carries into
    the next decade and one within ``_TIE_MARGIN`` of a tie."""
    if not _bits(cli._TINY) <= abs(x) <= _bits(cli._HUGE):
        return True
    digits, distance = _tie_distance(x)
    return 1 <= _exact_decade(abs(x)) <= 16 or digits == 10**17 or distance <= cli._TIE_MARGIN


def test_vector_writer_takes_each_cell_in_its_exact_decade(monkeypatch):
    """Next to every power of ten, where ``log10`` rounds up to the decade
    above, the decade the writer scales a cell by is the cell's exact one,
    and the cells that take the per-cell rule are exactly its set: marked
    by a ``_CELL`` that ends in ``~``, no other cell carries the mark."""
    cells = _near_powers_of_ten()
    # log10 gives k for some cells below 10**k: the case the comparison table corrects
    assert any(math.floor(math.log10(abs(x))) == round(math.log10(abs(x))) for x in cells if _just_below(x))
    cells += EDGE_CELLS + _ties() + CARRIES + [1.5 * 10.0**k for k in range(-99, 100)]
    scaled, decades = cli._scaled, []

    def recording_scaled(a, e, scale):
        decades.extend(zip(a.tolist(), (e - cli._BIAS).tolist()))
        return scaled(a, e, scale)

    monkeypatch.setattr(cli, "_scaled", recording_scaled)
    monkeypatch.setattr(cli, "_CELL", "%-30.17g~")
    table = _boundary_table(cells)
    assert table.size >= _VECTOR_CELLS
    text = _table_csv(["c"] * 8, table).split("\n", 1)[1]
    assert text.replace("~", "") == _per_cell_rows(table)
    for a, k in decades:
        assert Fraction(10) ** k <= Fraction(a) < Fraction(10) ** (k + 1), (a, k)
    values = table.ravel().tolist()
    # the writer's fraction is within 2**-47 of the exact one, so no cell may sit that near the margin
    finite = [x for x in values if _bits(cli._TINY) <= abs(x) <= _bits(cli._HUGE)]
    assert all(abs(_tie_distance(x)[1] - cli._TIE_MARGIN) > 2.0**-46 for x in finite)
    marked = [cell.endswith("~") for cell in text.replace("\n", ",").split(",")[:-1]]
    assert marked == [_takes_the_per_cell_rule(x) for x in values]
    below = [x for x in finite if _just_below(x) and not 1 <= _exact_decade(abs(x)) <= 16]
    assert 0 < sum(map(_takes_the_per_cell_rule, below)) < len(below) // 10
    assert 0 < sum(marked) < len(values) // 2


def test_comparison_table_holds_the_least_double_at_each_power_of_ten():
    """``lower[k + _BIAS]`` is the least double ``>= 10**k``."""
    lower = cli._writer_tables()[1]
    exponents = range(-cli._BIAS, cli._BIAS + 1)
    assert lower.shape == (len(exponents),)
    for k, x in zip(exponents, lower.tolist()):
        power = Fraction(10) ** k
        assert Fraction(x) >= power > Fraction(math.nextafter(x, 0.0)), k


@pytest.mark.parametrize("block", [1, 7, 64])
def test_vector_writer_joins_blocks_of_rows(block, monkeypatch):
    """A table of many blocks, one narrower than a row included, gives the
    bytes of one block."""
    table = _boundary_table(_powers_of_ten()[::10] + [math.nan, 0.0, 1e300])
    monkeypatch.setattr(cli, "_VECTOR_BLOCK", block)
    assert _vector_rows(table) == _per_cell_rows(table)


@pytest.mark.parametrize("block", [1, 5, 7, 10])
def test_ambiguous_cells_at_block_and_row_joins(block, monkeypatch):
    """NaN cells on the first and last cell of every row, and so of every
    block of rows, print ``inf-ambiguous`` in the vector writer's CSV."""
    columns = 5
    table = _boundary_table(_powers_of_ten()[:2 * _VECTOR_CELLS])[:, :columns].copy()
    table[::2, 0], table[1::2, 0] = math.nan, -math.nan
    table[::2, -1], table[1::2, -1] = -math.nan, _bits(0x7FF8000000000001)
    assert table.size >= _VECTOR_CELLS
    monkeypatch.setattr(cli, "_VECTOR_BLOCK", block)
    header = [f"c{i}" for i in range(columns)]
    assert _table_csv(header, table) == _per_cell_csv(header, table)


def test_writer_tables_are_read_only():
    """The vector writer's tables, shared by every call, cannot be written."""
    for table in cli._writer_tables():
        with pytest.raises(ValueError, match="read-only"):
            table.flat[0] = 0
