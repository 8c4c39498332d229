"""Exact two-excitation scattering: amplitudes, probabilities, currents, noise.

Basis convention (fixed; tests match terms against it): the joint
amplitudes and ``JointStatistics`` are 2x2 tables indexed ``[..., detector
drain, system drain]`` with drain order ``(D1, D2)`` x ``(S1, S2)``; leading
axes, if any, are sweep axes.

Every amplitude comes from one core written once in real arithmetic
(:func:`_cells`): a complex number is an ``(re, im)`` pair, and the only
operations are ``+ - * /``, ``sqrt``, ``cos`` and ``sin``, from ``math``
for a number and numpy for an array.  Float operations never fuse, and
numpy's float64 ``sqrt``, ``cos`` and ``sin`` give ``math``'s bits, so a
point, its one-point stack and its place in any stack give the same bits.
A sweep is one experiment with array-valued fields: ``gamma`` and every
field of both interferometers broadcast together through every function
here, each checked once where it enters: ``gamma`` in :func:`_rows`, every
config field by its constructor.  The closed form of the same statistics is
kept outside the package, as the tests' independent oracle.

The first-QPC scattering phases enter only through the composite tuning
phases, so the amplitudes carry bare ``t1``/``r1`` moduli.  The second-QPC
phases ``chi2``/``xi2`` turn each amplitude by a unit phase: the amplitudes
carry them, and the probability table leaves them out, since they cancel
in every probability.  The global phase of the joint state is dropped
throughout; it is provably unobservable.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .params import (DetectorDrain, InterferometerConfig, QpcSetting, SystemDrain, _all, _plain, _require,
                     _require_finite)

# Exact SI values (2019 redefinition).
ELEMENTARY_CHARGE = 1.602176634e-19  # C
PLANCK_CONSTANT = 6.62607015e-34  # J s
BOLTZMANN_CONSTANT = 1.380649e-23  # J / K

_NORMALIZATION_GATE = 1e-9


def _roots(q: QpcSetting) -> tuple:
    """``(sqrt(T), sqrt(R))`` of one contact: ``math`` for numbers, numpy for arrays."""
    f = np if isinstance(q.transmission, np.ndarray) or isinstance(q.reflection, np.ndarray) else math
    return f.sqrt(q.transmission), f.sqrt(q.reflection)


def _unit(phase) -> tuple:
    """``e^{i phase}`` as ``(cos, sin)``: ``math`` for a number, numpy for an array."""
    f = np if isinstance(phase, np.ndarray) else math
    return f.cos(phase), f.sin(phase)


def _times(z: tuple, w: tuple) -> tuple:
    """The product of two ``(re, im)`` pairs, four products and two sums."""
    return z[0] * w[0] - z[1] * w[1], z[0] * w[1] + z[1] * w[0]


def _complex(pairs: list) -> np.ndarray:
    """One complex array ``broadcast + (len(pairs),)`` of ``(re, im)`` pairs."""
    parts = np.broadcast_arrays(*(x for pair in pairs for x in pair))
    z = np.empty(parts[0].shape + (len(pairs),), dtype=complex)
    z.real, z.imag = np.stack(parts[::2], axis=-1), np.stack(parts[1::2], axis=-1)
    return z


def _drain_phases(q: QpcSetting) -> tuple:
    """``e^{i chi}`` and ``i e^{i xi}``, a second QPC's phases of its two output rows."""
    (cc, sc), (cx, sx) = _unit(q.chi), _unit(q.xi)
    return (cc, sc), (-sx, cx)


def _rows(det: InterferometerConfig, gamma) -> tuple:
    """The detector rows without its second QPC's phases, ``(A_L, A_U)`` for
    D1 and ``(B_L, B_U)`` for D2, each an ``(re, im)`` pair.

    ``A = t1 t2 e^{i phi} - r1 r2`` and ``B = t1 r2 e^{i phi} + r1 t2``, with
    ``phi = phi_d`` where the system is on its lower arm and ``phi_d + gamma``
    where it is on its upper arm.  A ``gamma`` that is not a finite number at
    every point raises ``ValueError`` naming it.
    """
    _require_finite(gamma=gamma)
    (t1, r1), (t2, r2) = _roots(det.qpc1), _roots(det.qpc2)
    tt, rr, tr, rt = t1 * t2, r1 * r2, t1 * r2, r1 * t2
    (cl, sl), (cu, su) = _unit(det.tuning_phase), _unit(det.tuning_phase + gamma)
    return ((tt * cl - rr, tt * sl), (tt * cu - rr, tt * su)), ((tr * cl + rt, tr * sl), (tr * cu + rt, tr * su))


def _cells(det: InterferometerConfig, sys: InterferometerConfig, gamma) -> list:
    """The joint amplitudes ``c[D, S]`` without the second QPCs' unit phases,
    as ``(re, im)`` pairs in row-major order ``(D1 S1, D1 S2, D2 S1, D2 S2)``.

    With ``X`` the detector row of drain ``D`` (:func:`_rows`), ``c[D, S1] =
    X_L t_s T_2 e^{i phi_s} - X_U r_s R_2`` and ``c[D, S2] = X_L t_s R_2
    e^{i phi_s} + X_U r_s T_2``, where ``t_s``, ``r_s`` and ``T_2``, ``R_2``
    are the square roots of the system's first and second QPC.
    """
    (t, r), (t2, r2), (c, s) = _roots(sys.qpc1), _roots(sys.qpc2), _unit(sys.tuning_phase)
    tt, tr, rr, rt = t * t2, t * r2, r * r2, r * t2
    w1, w2, v1, v2 = tt * c, tt * s, tr * c, tr * s  # t_s T_2 e^{i phi_s} and t_s R_2 e^{i phi_s}
    cells = []
    for (lr, li), (ur, ui) in _rows(det, gamma):
        cells += [(lr * w1 - li * w2 - ur * rr, lr * w2 + li * w1 - ui * rr),
                  (lr * v1 - li * v2 + ur * rt, lr * v2 + li * v1 + ui * rt)]
    return cells


def reduced_system_state(sys: InterferometerConfig) -> np.ndarray:
    """System state after its first QPC, absent any coupling.

    Returns the normalized vector ``(e^{i phi_s} t1, r1)`` on ``(L^s, U^s)``.
    """
    (t, r), (c, s) = _roots(sys.qpc1), _unit(sys.tuning_phase)
    return _complex([(t * c, t * s), (0.0, r)])


def detector_drain_amplitudes(det: InterferometerConfig, gamma) -> np.ndarray:
    """Detector scattering amplitudes ``C[..., drain, system arm]``.

    ``C[D, U^s]`` differs from ``C[D, L^s]`` only by the extra coupling
    phase ``gamma`` on the transmitted detector path: the rows of
    :func:`_rows` times the second QPC's phases.  Every input may be an array.
    """
    rows, phases = _rows(det, gamma), _drain_phases(det.qpc2)
    c = _complex([_times(x, phase) for row, phase in zip(rows, phases) for x in row])
    return c.reshape(c.shape[:-1] + (2, 2))


def concurrence(det_qpc1: QpcSetting, sys_qpc1: QpcSetting, gamma):
    """Entanglement of the joint two-path state.

    Closed form ``epsilon1_d * epsilon1_s * |sin(gamma/2)|``: maximal for
    balanced first QPCs at ``gamma = pi``, vanishing as ``gamma -> 0``.
    ``gamma`` and the contacts' fields may be arrays; a non-finite ``gamma``
    raises ``ValueError``.
    """
    _require_finite(gamma=gamma)
    return _plain(det_qpc1.epsilon * sys_qpc1.epsilon * np.abs(np.sin(gamma / 2.0)))


def joint_amplitudes(det: InterferometerConfig, sys: InterferometerConfig, gamma) -> np.ndarray:
    """Read-only joint drain amplitudes ``c[..., detector drain, system drain]``.

    The cells of :func:`_cells` times the phases of both second QPCs,
    ``e^{i chi}`` on D1 and S1 and ``i e^{i xi}`` on D2 and S2.  ``gamma``
    and every field of both interferometers may be arrays and broadcast
    together.
    """
    (d1, d2), (s1, s2) = _drain_phases(det.qpc2), _drain_phases(sys.qpc2)
    phases = [_times(d, s) for d in (d1, d2) for s in (s1, s2)]
    c = _complex([_times(cell, phase) for cell, phase in zip(_cells(det, sys, gamma), phases)])
    return _read_only(c.reshape(c.shape[:-1] + (2, 2)))


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


def joint_probability_table(det: InterferometerConfig, sys: InterferometerConfig, gamma) -> np.ndarray:
    """Joint drain table ``broadcast + (2, 2)`` at coupling phase ``gamma``:
    ``|c|^2`` of the cells of :func:`_cells` over their sum, without the
    second QPCs' unit phases.  ``gamma`` and every config field may be
    arrays.  Raises ``ValueError`` if any table's normalization is off by
    more than 1e-9.
    """
    (a, b), (c, d), (e, f), (g, h) = _cells(det, sys, gamma)
    p11, p12, p21, p22 = a * a + b * b, c * c + d * d, e * e + f * f, g * g + h * h
    total = p11 + p12 + p21 + p22
    ok = abs(total - 1.0) <= _NORMALIZATION_GATE  # false for NaN and inf
    if not _all(ok):
        worst = float(np.ravel(total)[~np.ravel(ok)][0])
        raise ValueError(f"joint amplitudes not normalized: sum |c|^2 = {worst!r}")
    joint = np.array([[p11 / total, p12 / total], [p21 / total, p22 / total]])
    return joint.transpose(*range(2, joint.ndim), 0, 1)  # sweep axes before the table's


@dataclass(frozen=True)
class PhysicalBias:
    """Source bias point; temperature and Fermi energy are recorded for
    regime validation only (the low-bias current formula needs just V).
    Each is a finite number: voltage and Fermi energy positive, temperature non-negative."""

    bias_voltage: float  # volts
    fermi_energy: float  # electronvolts
    temperature: float  # kelvin

    def __post_init__(self):  # every comparison with NaN is false, so NaN fails
        if not self.bias_voltage > 0.0:
            raise ValueError("bias voltage must be positive")
        if not self.fermi_energy > 0.0:
            raise ValueError("Fermi energy must be positive")
        if not self.temperature >= 0.0:
            raise ValueError("temperature must be non-negative")
        _require_finite(bias_voltage=self.bias_voltage, fermi_energy=self.fermi_energy,
                        temperature=self.temperature)


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
    ``probability`` may be an array, and may lie up to 1e-12 outside [0, 1]
    as the cells of a :class:`JointStatistics` may."""
    _require((-1e-12 <= probability) & (probability <= 1.0 + 1e-12),  # NaN fails
             "probability {} outside [0, 1]", probability)
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

