"""Exact two-excitation scattering: amplitudes, probabilities, currents, noise.

Basis convention (fixed; tests match terms against it): ``JointAmplitudes``
and ``JointStatistics`` hold 2x2 tables indexed ``[..., detector drain,
system drain]`` with drain order ``(D1, D2)`` x ``(S1, S2)``; leading axes,
if any, are sweep axes.

All amplitudes come from one single-interferometer pair: the state
``(t1 e^{i phi}, r1)`` after a first QPC, scattered as ``state @
qpc_unitary(qpc2)``.  The joint table is ``c = C_d(gamma) diag(psi_s) U_s``:
the detector drain amplitudes per system arm, the system's first-QPC state
(:func:`detector_drain_amplitudes`, :func:`reduced_system_state`) and its
second QPC.  A sweep is one experiment with array-valued fields: ``gamma``
and every field of both interferometers, second QPCs included, broadcast
together through every function here.  :func:`joint_probability_table`
gives the probability table at a coupling phase; one configuration of
Python floats takes the same products in Python ``complex`` arithmetic,
which agrees with the one-point stack within a few ulps.  The closed form
of the same statistics, through the fringe bundles of
:mod:`~coupled_mzi.params`, is kept outside the package, as the tests'
independent oracle.

The first-QPC scattering phases enter only through the composite tuning
phases, so the amplitudes below carry bare ``t1``/``r1`` moduli; the
second-QPC phases ``chi2``/``xi2`` are kept explicitly (they cancel in
every probability).  The global phase of the joint state is dropped
throughout; it is provably unobservable.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .params import DetectorDrain, InterferometerConfig, QpcSetting, SystemDrain, _plain

# Exact SI values (2019 redefinition).
ELEMENTARY_CHARGE = 1.602176634e-19  # C
PLANCK_CONSTANT = 6.62607015e-34  # J s
BOLTZMANN_CONSTANT = 1.380649e-23  # J / K

_NORMALIZATION_GATE = 1e-9
_COUPLED_ARM = np.array([0.0, 1.0])  # coupling phase per system arm (L, U), in units of gamma


def qpc_unitary(q: QpcSetting) -> np.ndarray:
    """Unitary scattering matrix of one QPC, shape ``broadcast + (2, 2)``.

    Rows are input arms, columns output arms, entries ``[[e^{i chi} t, e^{i xi} r],
    [e^{i chi} r, e^{i xi} t]]`` with ``t = sqrt(T)`` and ``r = i sqrt(R)``.  Every
    field of ``q`` may be an array; one contact is built unstacked, to stay cheap.
    """
    t, r = np.sqrt(q.transmission), 1j * np.sqrt(q.reflection)
    ec, ex = np.exp(1j * q.chi), np.exp(1j * q.xi)
    u = ((ec * t, ex * r), (ec * r, ex * t))
    if isinstance(u[0][0], complex) and isinstance(u[0][1], complex):  # numpy scalars, not arrays
        return np.array(u)
    entries = np.broadcast_arrays(*u[0], *u[1])
    return np.stack(entries, axis=-1).reshape(entries[0].shape + (2, 2))


def _scatter(states: np.ndarray, q: QpcSetting) -> np.ndarray:
    """``states @ qpc_unitary(q)`` for a stack of row states.

    One contact scatters the whole stack as one ``(n, 2) @ (2, 2)`` BLAS
    call; only a stacked contact takes the stacked product ``states @ u``,
    which gives, point for point, the one-contact call's bits.  For 1001
    tables the stacked product took 449 µs against 35 µs for the one BLAS
    call; an elementwise product took 68 µs, and neither had its bits.
    """
    u = qpc_unitary(q)
    if u.ndim == 2:
        return (states.reshape(-1, 2) @ u).reshape(states.shape)
    return states @ u


def _first_qpc_state(transmission, reflection, phase) -> np.ndarray:
    """State ``(t1 e^{i phase}, r1)`` on ``(L, U)``, shape ``broadcast + (2,)``;
    ``reflection`` has the shape of ``transmission``."""
    t = np.sqrt(transmission) * np.exp(1j * phase)
    state = np.empty(t.shape + (2,), dtype=complex)
    state[..., 0] = t
    state[..., 1] = 1j * np.sqrt(reflection)
    return state


def reduced_system_state(sys: InterferometerConfig) -> np.ndarray:
    """System state after its first QPC, absent any coupling.

    Returns the normalized vector ``(e^{i phi_s} t1, r1)`` on ``(L^s, U^s)``.
    """
    return _first_qpc_state(sys.qpc1.transmission, sys.qpc1.reflection, sys.tuning_phase)


def detector_drain_amplitudes(det: InterferometerConfig, gamma) -> np.ndarray:
    """Detector scattering amplitudes ``C[..., drain, system arm]``.

    ``C[D, U^s]`` differs from ``C[D, L^s]`` only by the extra coupling
    phase ``gamma`` on the transmitted detector path.  Every input may be an
    array; all but the second QPC get a trailing system-arm axis.
    """
    arm, q1 = (..., np.newaxis), det.qpc1
    phases = np.asarray(det.tuning_phase)[arm] + np.asarray(gamma)[arm] * _COUPLED_ARM
    states = _first_qpc_state(np.asarray(q1.transmission)[arm], np.asarray(q1.reflection)[arm], phases)
    return _scatter(states, det.qpc2).swapaxes(-1, -2)


def concurrence(det_qpc1: QpcSetting, sys_qpc1: QpcSetting, gamma):
    """Entanglement of the joint two-path state.

    Closed form ``epsilon1_d * epsilon1_s * |sin(gamma/2)|``: maximal for
    balanced first QPCs at ``gamma = pi``, vanishing as ``gamma -> 0``.
    ``gamma`` and the contacts' fields may be arrays.
    """
    return det_qpc1.epsilon * sys_qpc1.epsilon * np.abs(np.sin(gamma / 2.0))


@dataclass(frozen=True)
class JointAmplitudes:
    """Drain-basis amplitude tables ``c[..., detector drain, system drain]``:
    one 2x2 table, or a stack of them with the sweep axes in front."""

    c: np.ndarray

    def __post_init__(self):
        c = np.array(self.c, dtype=complex)
        if c.shape[-2:] != (2, 2) or not np.isfinite(c).all():
            raise ValueError("joint amplitudes need finite 2x2 complex tables")
        c.setflags(write=False)
        object.__setattr__(self, "c", c)

    @property
    def norm_squared(self):
        return _plain(np.sum(np.abs(self.c) ** 2, axis=(-2, -1)))


def joint_amplitudes(det: InterferometerConfig, sys: InterferometerConfig, gamma) -> JointAmplitudes:
    """Joint drain amplitudes ``c[..., detector drain, system drain]``.

    ``c = C_d(gamma) diag(psi_s) U_s``: :func:`detector_drain_amplitudes`
    weighted by :func:`reduced_system_state` and scattered by the system's
    second QPC.  ``gamma`` and every field of both interferometers may be
    arrays and broadcast together.
    """
    rows = detector_drain_amplitudes(det, gamma) * reduced_system_state(sys)[..., np.newaxis, :]
    return JointAmplitudes(_scatter(rows, sys.qpc2))


@dataclass(frozen=True)
class JointStatistics:
    """Joint drain probabilities ``joint[..., detector drain, system drain]``,
    one table or a stack; the detector and system marginals sum over the
    last and the second-to-last axis, once per table, and are read-only.
    Every table lies in [0, 1] and sums to 1 within 1e-12."""

    joint: np.ndarray

    def __post_init__(self):
        joint = np.array(self.joint, dtype=float)
        if joint.shape[-2:] != (2, 2):
            raise ValueError("joint probabilities need 2x2 tables")
        if joint.ndim == 2:  # one table: four Python floats cost less than numpy's reductions
            cells = joint.ravel().tolist()
            in_range = all([-1e-12 <= p <= 1.0 + 1e-12 for p in cells])  # a chained comparison fails on NaN
            off = abs(sum(cells) - 1.0) if in_range else None  # added in order, as numpy adds them
        else:  # extrema, not elementwise masks: NaN fails them too
            in_range = joint.min() >= -1e-12 and joint.max() <= 1.0 + 1e-12
            off = abs(joint.sum(axis=(-2, -1)) - 1.0).max() if in_range else None
        if not in_range:
            raise ValueError("joint probabilities outside [0, 1]")
        if not off <= 1e-12:
            raise ValueError("joint probabilities do not sum to 1")
        joint.setflags(write=False)
        object.__setattr__(self, "joint", joint)

    @cached_property
    def detector_marginals(self) -> np.ndarray:
        return _read_only(self.joint.sum(axis=-1))

    @cached_property
    def system_marginals(self) -> np.ndarray:
        return _read_only(self.joint.sum(axis=-2))

    def p_detector(self, d: DetectorDrain):
        return _plain(self.detector_marginals[..., d.value])

    def p_system(self, s: SystemDrain):
        return _plain(self.system_marginals[..., s.value])


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def joint_statistics(amps: JointAmplitudes) -> JointStatistics:
    """Probabilities ``|c|^2`` of each amplitude table.

    Raises ``ValueError`` if any table's normalization is off by more than
    1e-9 (the production pipeline keeps it at the 1e-12 level); the tables
    are then divided by their sums so identities hold at 1e-12.
    """
    joint = np.abs(amps.c) ** 2
    total = joint.sum(axis=(-2, -1), keepdims=True)
    residual = np.abs(total - 1.0)
    if not residual.max() <= _NORMALIZATION_GATE:
        worst = float(total[~(residual <= _NORMALIZATION_GATE)][0])
        raise ValueError(f"joint amplitudes not normalized: sum |c|^2 = {worst!r}")
    joint /= total
    return JointStatistics(joint)


def _unitary(q: QpcSetting) -> tuple[tuple[complex, complex], tuple[complex, complex]]:
    """:func:`qpc_unitary` of one contact, in Python ``complex`` arithmetic."""
    t, r = math.sqrt(q.transmission), 1j * math.sqrt(q.reflection)
    ec, ex = cmath.exp(1j * q.chi), cmath.exp(1j * q.xi)
    return (ec * t, ex * r), (ec * r, ex * t)


def one_configuration(det: InterferometerConfig, sys: InterferometerConfig, gamma) -> bool:
    """Whether ``gamma`` and each field the joint table reads are Python floats."""
    q1d, q2d, q1s, q2s = det.qpc1, det.qpc2, sys.qpc1, sys.qpc2
    return all([isinstance(x, float) for x in (
        gamma, det.tuning_phase, sys.tuning_phase, q1d.transmission, q1d.reflection, q1s.transmission, q1s.reflection,
        q2d.transmission, q2d.reflection, q2d.chi, q2d.xi, q2s.transmission, q2s.reflection, q2s.chi, q2s.xi)])


def joint_probability_table(det: InterferometerConfig, sys: InterferometerConfig, gamma) -> np.ndarray:
    """Joint drain table ``broadcast + (2, 2)`` of the amplitude pipeline at
    coupling phase ``gamma``: ``joint_statistics(joint_amplitudes(det, sys,
    gamma)).joint``.  ``gamma`` and every config field may be arrays.

    One configuration (:func:`one_configuration`) takes the same products
    in Python ``complex`` arithmetic, with the same checks: finite
    amplitudes, the normalization gate and the division by the sum.  On
    ``tests/golden/unbalanced.conf`` it took 54-64 µs after a
    ``gc.collect()`` against numpy's 169-242 µs (medians of 300, 2 vCPUs).
    It agrees with the one-point stack within a few ulps, not bit for bit,
    since BLAS orders the complex products its own way.
    """
    q1d, q2d, phi_d = det.qpc1, det.qpc2, det.tuning_phase
    q1s, q2s, phi_s = sys.qpc1, sys.qpc2, sys.tuning_phase
    if not one_configuration(det, sys, gamma):
        return joint_statistics(joint_amplitudes(det, sys, gamma)).joint
    (u11, u12), (u21, u22) = _unitary(q2d)
    (v11, v12), (v21, v22) = _unitary(q2s)
    t, r = math.sqrt(q1d.transmission), 1j * math.sqrt(q1d.reflection)
    lower, upper = t * cmath.exp(1j * phi_d), t * cmath.exp(1j * (phi_d + gamma))  # gamma on the system's U arm
    psi_l, psi_u = math.sqrt(q1s.transmission) * cmath.exp(1j * phi_s), 1j * math.sqrt(q1s.reflection)
    d1l, d1u = (lower * u11 + r * u21) * psi_l, (upper * u11 + r * u21) * psi_u
    d2l, d2u = (lower * u12 + r * u22) * psi_l, (upper * u12 + r * u22) * psi_u
    c = (d1l * v11 + d1u * v21, d1l * v12 + d1u * v22, d2l * v11 + d2u * v21, d2l * v12 + d2u * v22)
    if not all(map(cmath.isfinite, c)):
        raise ValueError("joint amplitudes need finite 2x2 complex tables")
    p11, p12, p21, p22 = (a * a for a in map(abs, c))
    total = p11 + p12 + p21 + p22
    if not abs(total - 1.0) <= _NORMALIZATION_GATE:
        raise ValueError(f"joint amplitudes not normalized: sum |c|^2 = {total!r}")
    return np.array([[p11 / total, p12 / total], [p21 / total, p22 / total]])


@dataclass(frozen=True)
class PhysicalBias:
    """Source bias point; temperature and Fermi energy are recorded for
    regime validation only (the low-bias current formula needs just V).
    Voltage and Fermi energy must be positive, temperature non-negative."""

    bias_voltage: float  # volts
    fermi_energy: float  # electronvolts
    temperature: float  # kelvin

    def __post_init__(self):
        if self.bias_voltage <= 0.0:
            raise ValueError("bias voltage must be positive")
        if self.fermi_energy <= 0.0:
            raise ValueError("Fermi energy must be positive")
        if self.temperature < 0.0:
            raise ValueError("temperature must be non-negative")


def _check_low_bias_regime(bias: PhysicalBias) -> None:
    ev = ELEMENTARY_CHARGE * bias.bias_voltage
    ef = ELEMENTARY_CHARGE * bias.fermi_energy
    kt = BOLTZMANN_CONSTANT * bias.temperature
    if kt >= ev / 10.0 or ev >= ef / 10.0:
        warnings.warn(
            "bias point leaves the low-bias regime (need E_F >> eV >> k_B T); "
            "formulas remain evaluable but lose physical validity",
            stacklevel=3,
        )


def average_current(probability, bias: PhysicalBias):
    """Low-bias average drain current ``(e^2 V / h) * P`` in amperes;
    ``probability`` may be an array."""
    if not np.all((0.0 <= probability) & (probability <= 1.0)):
        raise ValueError(f"probability {probability} outside [0, 1]")
    _check_low_bias_regime(bias)
    return ELEMENTARY_CHARGE**2 * bias.bias_voltage / PLANCK_CONSTANT * probability


def cross_noise_power(stats: JointStatistics, d: DetectorDrain, s: SystemDrain, bias: PhysicalBias):
    """Zero-frequency cross-correlation noise power between two drains, per table.

    ``S_{D,S} = 2 (e^3 V / h) (P_{D,S} - P_D P_S)``; vanishes for product
    statistics and for deterministic marginals.
    """
    _check_low_bias_regime(bias)
    covariance = stats.joint[..., d.value, s.value] - stats.p_detector(d) * stats.p_system(s)
    return _plain(2.0 * ELEMENTARY_CHARGE**3 * bias.bias_voltage / PLANCK_CONSTANT * covariance)

