"""Property tests of the amplitude pipeline against the independent closed form,
and of the CLI grid writer against its per-cell rule."""

import math
import struct
import sys
from dataclasses import astuple, replace
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
    CouplingModel,
    InterferometerConfig,
    ObservableCoefficients,
    ObservableRangeError,
    PostSelectionImpossibleError,
    averaged_detector_params,
    averaged_joint_table,
    concurrence,
    conditioned_average,
    contextual_values,
    contextual_values_or_nan,
    cross_noise_power,
    damping_eta,
    detector_params,
    joint_amplitudes,
    joint_interference_params,
    joint_probability_table,
    joint_statistics,
    load_config,
    measurement_operators,
    povm_expectation,
    povm_pair,
    qpc_from_angle,
    qpc_from_transmission,
    reduced_system_state,
    semiweak_value,
    weak_value,
    xi_joint_interference,
)
from coupled_mzi import cli
from coupled_mzi.cli import _MAX_EXPONENT, _VECTOR_CELLS, _Grid, _table_csv, _vector_rows
from coupled_mzi.config import swept
from coupled_mzi.measurement import DIVERGENCE_THRESHOLD
from coupled_mzi.params import DetectorDrain, SystemDrain
from coupled_mzi.scattering import ELEMENTARY_CHARGE, PLANCK_CONSTANT
from conftest import SIGMA_0, SIGMA_3, mzi

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
    c = joint_amplitudes(det, sysm, gamma).c
    assert c.shape == (2, 2)
    assert np.array_equal(c, joint_amplitudes(det, sysm, gamma).c)
    assert np.max(np.abs(np.abs(c) ** 2 - joint_probability_table(det, sysm, gamma))) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(det=interferometers(), sysm=interferometers(), points=sweep_points())
def test_array_amplitude_table_matches_closed_form(det, sysm, points):
    gamma, phi_d, phi_s, t_s1 = (np.array(column) for column in zip(*points))
    q1 = sysm.qpc1
    array_det = InterferometerConfig(det.qpc1, det.qpc2, phi_d)
    array_sys = InterferometerConfig(qpc_from_transmission(t_s1, q1.chi, q1.xi), sysm.qpc2, phi_s)
    c = joint_amplitudes(array_det, array_sys, gamma).c
    assert c.shape == (len(points), 2, 2)
    for i, (g, pd, ps, t) in enumerate(points):
        q1 = sysm.qpc1
        point_sys = InterferometerConfig(qpc_from_transmission(t, q1.chi, q1.xi), sysm.qpc2, ps)
        point_det = InterferometerConfig(det.qpc1, det.qpc2, pd)
        closed = joint_probability_table(point_det, point_sys, g)
        assert np.max(np.abs(np.abs(c[i]) ** 2 - closed)) <= 1e-12


# one experiment: both QPCs of both interferometers as (T, chi, xi), the tuning
# phases, and gamma, sigma and the pair probability of the coupling model
experiment_fields = st.tuples(*2 * [transmissions, angles, angles, transmissions, angles, angles, angles],
                              couplings, st.floats(0.0, math.pi), st.floats(0.0, 1.0))


def _experiment(fields):
    """Detector, system and coupling model of a point or, with array fields, a stack."""
    return mzi(*fields[:7]), mzi(*fields[7:14]), CouplingModel(*fields[14:])


def _stack_values(det, sysm, model) -> dict:
    amps = joint_amplitudes(det, sysm, model.gamma)
    m = measurement_operators(det, model.gamma)
    povm = povm_pair(m)
    return {
        "joint_amplitudes": amps.c,
        "joint_statistics": joint_statistics(amps).joint,
        "measurement_operators": np.moveaxis([m.diag_d1, m.diag_d2], (0, 1), (-2, -1)),
        "povm_pair": np.moveaxis([povm.diag_d1, povm.diag_d2], (0, 1), (-2, -1)),
        "povm_expectation": np.moveaxis(povm_expectation(povm, reduced_system_state(sysm)), 0, -1),
        "joint_probability_table": joint_probability_table(det, sysm, model.gamma),
        "averaged_joint_table": averaged_joint_table(det, sysm, model),
    }


@settings(max_examples=100, deadline=None)
@given(points=st.lists(experiment_fields, min_size=1, max_size=8))
# a POVM modulus whose C pow square and multiplied square differ in the last bit
@example(points=[(0.0, 0.0, 0.0, 3.282977360150768e-123, 0.0, 1.0593358918616982, 0.0) + (0.0,) * 10])
def test_stacked_experiment_matches_scalar_points_bit_for_bit(points):
    """Every field an array: one stacked evaluation gives, point for point,
    the bits of the scalar calls."""
    stacked = _stack_values(*_experiment([np.array(column) for column in zip(*points)]))
    for i, fields in enumerate(points):
        for name, value in _stack_values(*_experiment(fields)).items():
            assert stacked[name].shape == (len(points), *value.shape), name
            assert np.array_equal(stacked[name][i], value), (name, fields)


def _conditioning_calls(det, sysm, gamma, condition, n) -> dict:
    """Every broadcasting conditioning function, as a call that returns a
    list of its values and the Python type of one configuration's values."""
    return {
        "conditioned_average": (lambda: [conditioned_average(det, sysm, gamma, condition)], float),
        "xi_joint_interference": (lambda: [xi_joint_interference(det, sysm, gamma)], float),
        "weak_value": (lambda: [weak_value(sysm, condition)], complex),
        "semiweak_value": (lambda: [semiweak_value(sysm, n, condition)], float),
        "joint_interference_params": (lambda: list(astuple(joint_interference_params(
            det.tuning_phase, sysm.tuning_phase, gamma))), float),
    }


def _conditioning_stack(points, name, condition):
    """The values of the conditioning function ``name`` on a stack of ``(fields, n)``."""
    fields, n = zip(*points)
    det, sysm, model = _experiment([np.array(column) for column in zip(*fields)])
    return _conditioning_calls(det, sysm, model.gamma, condition, np.array(n))[name][0]()


@settings(max_examples=100, deadline=None)
@given(points=st.lists(st.tuples(experiment_fields, st.integers(-3, 3)), min_size=1, max_size=8),
       condition=st.sampled_from(SystemDrain))
# a detector epsilon whose C pow square and multiplied square differ in the last bit
@example(points=[((0.6655874415571335, 0.0, 0.0, 0.3, 0.0, 0.0, 1.0, 0.6, 0.0, 0.0, 0.4, 0.0, 0.0, 0.5,
                   2.0, 0.0, 1.0), 0)], condition=SystemDrain.S1)
def test_stacked_conditioning_matches_scalar_points_bit_for_bit(points, condition):
    """A stack of the points where a conditioning function is defined gives,
    point for point, the bits of the scalar calls, which return Python
    numbers; a stack that holds a point where the function raises raises."""
    kept, errors = {}, {}
    for fields, n in points:
        det, sysm, model = _experiment(fields)
        for name, (call, kind) in _conditioning_calls(det, sysm, model.gamma, condition, n).items():
            try:
                values = call()
            except (AmbiguousMeasurementError, PostSelectionImpossibleError) as exc:
                errors.setdefault(name, set()).add(type(exc))
                continue
            assert {type(x) for x in values} == {kind}, name
            kept.setdefault(name, []).append(((fields, n), values))
    for name, raised in errors.items():
        with pytest.raises(tuple(raised)):
            _conditioning_stack(points, name, condition)
    for name, rows in kept.items():
        stacked = _conditioning_stack([point for point, _ in rows], name, condition)
        for i, (point, values) in enumerate(rows):
            for got, want in zip(stacked, values, strict=True):
                assert got.shape == (len(rows),), name
                assert np.array_equal(got[i], want), (name, point)


@settings(max_examples=100, deadline=None)
@given(det=interferometers(), sysm=interferometers(), gamma=couplings,
       t_d1=st.lists(transmissions, min_size=1, max_size=8))
def test_array_detector_first_qpc_matches_scalar_points(det, sysm, gamma, t_d1):
    q1 = det.qpc1
    array_det = replace(det, qpc1=qpc_from_transmission(np.array(t_d1), q1.chi, q1.xi))
    c = joint_amplitudes(array_det, sysm, gamma).c
    assert c.shape == (len(t_d1), 2, 2)
    for i, t in enumerate(t_d1):
        point_det = replace(det, qpc1=qpc_from_transmission(t, q1.chi, q1.xi))
        assert np.max(np.abs(c[i] - joint_amplitudes(point_det, sysm, gamma).c)) <= 1e-15


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
        value = conditioned_average(det, sysm, gamma, condition)
    except (AmbiguousMeasurementError, PostSelectionImpossibleError):
        assume(False)
    low, high = sorted((cv.alpha_d1, cv.alpha_d2))
    slack = 1e-12 * max(abs(low), abs(high))
    assert low - slack <= value <= high + slack


def test_gamma_array_broadcasts_against_config_phases():
    det = InterferometerConfig(qpc_from_transmission(0.3), qpc_from_transmission(0.6), 0.4)
    sysm = InterferometerConfig(qpc_from_transmission(0.8), qpc_from_transmission(0.45), -1.1)
    gammas = np.linspace(0.0, TWO_PI, 7)
    c = joint_amplitudes(det, sysm, gammas).c
    assert c.shape == (7, 2, 2)
    expected = joint_probability_table(det, sysm, gammas)
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
    expected = joint_statistics(joint_amplitudes(det, sysm, gamma)).detector_marginals
    got = povm_expectation(povm, reduced_system_state(sysm))
    assert np.max(np.abs(np.array(got) - expected)) <= 1e-12


SWEEP_RANGES = {"gamma": (0.0, TWO_PI), "phi_d": (-math.pi, math.pi), "phi_s": (0.0, TWO_PI),
                "delta_s1": (-1.0, 1.0), "sigma": (0.0, math.pi)}


def _public_values(det, sysm, coupling, bias) -> dict:
    """Every public function of the contract, as a list of arrays or scalars;
    noise powers in units of ``2 e^3 V / h``."""
    raw = detector_params(det, coupling.gamma)
    amps = joint_amplitudes(det, sysm, coupling.gamma)
    stats = joint_statistics(amps)
    noise_unit = 2.0 * ELEMENTARY_CHARGE**3 * bias.bias_voltage / PLANCK_CONSTANT
    return {
        "joint_amplitudes": [amps.c],
        "joint_statistics": [stats.joint, *map(stats.p_detector, DetectorDrain),
                             *map(stats.p_system, SystemDrain)],
        "cross_noise_power": [cross_noise_power(stats, d, s, bias) / noise_unit
                              for d in DetectorDrain for s in SystemDrain],
        "detector_params": astuple(raw),
        "averaged_detector_params": astuple(averaged_detector_params(raw, coupling)),
        "concurrence": [concurrence(det.qpc1, sysm.qpc1, coupling.gamma)],
        "damping_eta": [damping_eta(coupling.sigma)],
    }


@pytest.mark.parametrize("parameter", sorted(SWEEP_RANGES))
def test_array_experiment_matches_scalar_points(parameter):
    """A sweep is the config with the swept field an array: every public
    function gives, point for point, what the scalar experiment gives."""
    config = load_config(str(GOLDEN_CONFIG))
    grid = np.linspace(*SWEEP_RANGES[parameter], 13)
    g = _Grid(config, parameter, grid)
    arrays = _public_values(g.det, g.sys, g.coupling, config.bias)
    for i, value in enumerate(grid.tolist()):
        point = swept(config, parameter, value)
        scalar_values = _public_values(point.detector, point.system, point.coupling, point.bias)
        for name, scalars in scalar_values.items():
            for array, scalar in zip(arrays[name], scalars, strict=True):
                got = array[i] if np.ndim(array) else array  # a scalar holds at every point
                assert np.max(np.abs(got - scalar)) <= 1e-15, (name, value)


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
    return "".join(",".join("%.17g" % x for x in row) + "\n" for row in table.tolist())


# values spread over the decades of the vector writer, either sign
decades = st.builds(lambda m, k: m * 10.0**k,
                    st.floats(-10.0, 10.0), st.integers(-_MAX_EXPONENT, _MAX_EXPONENT))


@settings(max_examples=200, deadline=None)
@given(table=hnp.arrays(
    np.float64, st.tuples(st.integers(1, 20), st.integers(1, 8)),
    elements=st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(EDGE_CELLS) | decades,
))
@example(table=np.array([EDGE_CELLS]))
def test_vector_writer_matches_per_cell_rule(table):
    """The vector writer, called at any table size, gives ``"%.17g" % x``."""
    assert _vector_rows(table, "nan") == _per_cell_rows(table)


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


def test_vector_writer_at_powers_of_ten_ties_and_carries():
    """Cells next to a decade boundary, exact ties and roundings that carry
    into the next decade print as the per-cell rule does."""
    ties = _ties()
    assert {math.floor(math.log10(x)) for x in ties} == set(range(-8, 16))
    for x in ties:
        digits = Decimal(x).as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5, x
    # each is the double nearest to 10**k, below it and within half a unit
    # of the 17th digit, so its 17 digits round up to the next decade
    carries = [1e-79, 1e-78, 1e-73, 1e-70, 1e-14, 1e98]
    for x in carries:
        assert Fraction(x) < Fraction(10) ** round(math.log10(x)) and "%.17g" % x == f"{x:g}"
    table = _boundary_table(_powers_of_ten() + ties + carries)
    assert table.size >= _VECTOR_CELLS
    assert _vector_rows(table, "nan") == _per_cell_rows(table)
    assert _table_csv(["c"] * 8, table).split("\n", 1)[1] == _per_cell_rows(table)


def _boundary_table(cells: list[float]) -> np.ndarray:
    cells = np.concatenate([cells, np.negative(cells)])
    return np.resize(cells, (-(-cells.size // 8), 8))


@pytest.mark.parametrize("block", [1, 7, 64])
def test_vector_writer_joins_blocks_of_rows(block, monkeypatch):
    """A table of many blocks, one narrower than a row included, gives the
    bytes of one block."""
    table = _boundary_table(_powers_of_ten()[::10] + [math.nan, 0.0, 1e300])
    monkeypatch.setattr(cli, "_VECTOR_BLOCK", block)
    assert _vector_rows(table, "nan") == _per_cell_rows(table)


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
    for table in (*cli._writer_tables(), cli._POW10):
        with pytest.raises(ValueError, match="read-only"):
            table.flat[0] = 0
