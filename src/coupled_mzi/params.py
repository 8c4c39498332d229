"""Scalar parameterizations of QPCs, interferometers, and coupling.

All angles are radians; there is no degree support anywhere in the package.
Every type here is an immutable value and every operation is a pure
function, so unrestricted concurrent use is safe.

Conventions
-----------
A quantum point contact (QPC) with transmission ``T`` and reflection
``R = 1 - T`` carries the complementary balance parameters

    delta = T - R           (particle-like path bias, in [-1, 1])
    epsilon = 2 sqrt(T R)   (wave-like interference weight, in [0, 1])

related through a balance angle ``theta`` in [0, pi/2] by ``T = cos^2
theta`` and ``R = sin^2 theta``.  An interferometer is two QPCs plus a
single composite tuning phase ``phi``; the Aharonov-Bohm, kinetic, and
first-QPC scattering-phase contributions only ever enter through their
sum, so the constituents are not tracked separately.
"""

from __future__ import annotations

import enum
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

IDENTITY_TOL = 1e-12
"""Absolute tolerance for closed-form identities evaluated in doubles."""


class DetectorDrain(enum.Enum):
    """Ohmic drains of the detector interferometer; values index arrays."""

    D1 = 0
    D2 = 1


class SystemDrain(enum.Enum):
    """Ohmic drains of the system interferometer; values index arrays."""

    S1 = 0
    S2 = 1


@dataclass(frozen=True)
class QpcSetting:
    """One quantum point contact: probabilities, balance parameters, phases.

    ``chi`` and ``xi`` are the scattering phases of the two outgoing rows;
    for the first QPC of an interferometer their difference is part of the
    composite tuning phase and they are carried here for bookkeeping only.
    """

    transmission: float
    reflection: float
    delta: float
    epsilon: float
    theta: float
    chi: float = 0.0
    xi: float = 0.0

    def __post_init__(self):
        T, R = self.transmission, self.reflection
        if not (0.0 <= T <= 1.0):
            raise ValueError(f"transmission {T} outside [0, 1]")
        if abs(T + R - 1.0) > IDENTITY_TOL:
            raise ValueError(f"T + R = {T + R} != 1")
        if abs(self.delta - (T - R)) > IDENTITY_TOL:
            raise ValueError("delta inconsistent with T - R")
        if abs(self.epsilon - 2.0 * math.sqrt(max(T * R, 0.0))) > IDENTITY_TOL:
            raise ValueError("epsilon inconsistent with 2 sqrt(T R)")
        if abs(self.delta**2 + self.epsilon**2 - 1.0) > IDENTITY_TOL:
            raise ValueError("delta^2 + epsilon^2 != 1")
        if not (0.0 <= self.theta <= math.pi / 2 + IDENTITY_TOL):
            raise ValueError(f"balance angle {self.theta} outside [0, pi/2]")
        if abs(math.cos(self.theta) ** 2 - T) > IDENTITY_TOL:
            raise ValueError("theta inconsistent with transmission")


def _epsilon(transmission, reflection):
    """Wave-like interference weight ``2 sqrt(T R)``; arrays broadcast."""
    return 2.0 * np.sqrt(transmission * reflection)


def qpc_from_transmission(transmission: float, chi: float = 0.0, xi: float = 0.0) -> QpcSetting:
    """Build a QPC setting from its transmission probability.

    Parameters
    ----------
    transmission : float
        Probability in [0, 1] for an excitation to pass the contact.
    chi, xi : float
        Scattering phases of the two output rows, radians.

    Returns
    -------
    QpcSetting with all derived balance parameters populated; ``epsilon``
    uses the non-negative root.
    """
    if not (0.0 <= transmission <= 1.0):
        raise ValueError(f"transmission {transmission} outside [0, 1]")
    reflection = 1.0 - transmission
    return QpcSetting(
        transmission=transmission,
        reflection=reflection,
        delta=transmission - reflection,
        epsilon=float(_epsilon(transmission, reflection)),
        theta=math.acos(math.sqrt(transmission)),
        chi=chi,
        xi=xi,
    )


def qpc_from_angle(theta: float, chi: float = 0.0, xi: float = 0.0) -> QpcSetting:
    """Build a QPC setting from its balance angle in [0, pi/2]."""
    if not (0.0 <= theta <= math.pi / 2):
        raise ValueError(f"balance angle {theta} outside [0, pi/2]")
    c = math.cos(theta)
    s = math.sin(theta)
    return QpcSetting(
        transmission=c * c,
        reflection=s * s,
        delta=c * c - s * s,
        epsilon=abs(2.0 * s * c),
        theta=theta,
        chi=chi,
        xi=xi,
    )


@dataclass(frozen=True)
class InterferometerConfig:
    """Two QPCs plus the composite tuning phase of one interferometer."""

    qpc1: QpcSetting
    qpc2: QpcSetting
    tuning_phase: float


@dataclass(frozen=True)
class CouplingModel:
    """Inter-channel coupling phase and its fluctuation model.

    ``gamma`` is the mean coupling phase; ``sigma`` the raised-cosine
    half-width (0 means deterministic coupling); ``pair_probability`` the
    likelihood that the source emits a proper excitation pair (unpaired
    emission behaves like a zero coupling phase).
    """

    gamma: float
    sigma: float = 0.0
    pair_probability: float = 1.0

    def __post_init__(self):
        if not (0.0 <= self.gamma <= 2.0 * math.pi):
            raise ValueError(f"coupling phase {self.gamma} outside [0, 2*pi]")
        if not (0.0 <= self.sigma <= math.pi):
            raise ValueError(f"fluctuation half-width {self.sigma} outside [0, pi]")
        if not (0.0 <= self.pair_probability <= 1.0):
            raise ValueError(f"pair probability {self.pair_probability} outside [0, 1]")


@dataclass(frozen=True)
class FringeParams:
    """Closed-form single-interferometer parameter bundle.

    ``beta_plus``/``beta_minus`` are the particle-like background weights
    of the two drains, ``visibility`` the wave-like fringe visibility,
    ``Gamma`` the coupling-induced part of the interference (the
    correlation strength with the partner channel), and ``Delta`` the
    remaining coupling-independent interference.  ``Delta + Gamma =
    cos(phi)``, also for a bundle averaged over coupling fluctuations: the
    averaging moves interference from ``Gamma`` into ``Delta``.
    """

    beta_plus: float
    beta_minus: float
    visibility: float
    Gamma: float
    Delta: float

    def __post_init__(self):
        if abs((self.beta_plus + self.beta_minus) / 2.0 - 1.0) > IDENTITY_TOL:
            raise ValueError("(beta_plus + beta_minus)/2 != 1")
        if not (-IDENTITY_TOL <= self.beta_plus <= 2.0 + IDENTITY_TOL):
            raise ValueError(f"beta_plus {self.beta_plus} outside [0, 2]")
        if not (-IDENTITY_TOL <= self.visibility <= 1.0 + IDENTITY_TOL):
            raise ValueError(f"visibility {self.visibility} outside [0, 1]")
        if abs(self.Gamma) > 1.0 + IDENTITY_TOL:
            raise ValueError(f"Gamma {self.Gamma} outside [-1, 1]")
        if abs(self.Delta) > 1.0 + IDENTITY_TOL:
            raise ValueError(f"Delta {self.Delta} outside [-1, 1]")


class DetectorParams(FringeParams):
    """Detector-side parameter bundle (sign convention ``gamma/2 + phi``)."""


class SystemParams(FringeParams):
    """System-side parameter bundle (sign convention ``gamma/2 - phi``)."""


@dataclass(frozen=True)
class JointInterferenceParams:
    """Joint two-interferometer interference parameters.

    ``Delta_ds + Gamma_ds = cos(phi_d) cos(phi_s)`` by construction.
    """

    Delta_ds: float
    Gamma_ds: float
    phi_ds: float

    def __post_init__(self):
        if abs(self.Gamma_ds) > 1.0 + IDENTITY_TOL:
            raise ValueError(f"Gamma_ds {self.Gamma_ds} outside [-1, 1]")
        if abs(self.Delta_ds) > 1.0 + IDENTITY_TOL:
            raise ValueError(f"Delta_ds {self.Delta_ds} outside [-1, 1]")


@dataclass(frozen=True)
class ObservableCoefficients:
    """Compatible observable ``a0 * identity + a3 * sigma_z``.

    ``a0`` sets the reference point of the average and ``a3`` its scale;
    the defaults target the bare which-path operator.
    """

    a0: float = 0.0
    a3: float = 1.0


def _coupling_term(gamma, phase):
    """``sin(gamma/2) sin(gamma/2 + phase)``; arrays broadcast."""
    half = gamma / 2.0
    return np.sin(half) * np.sin(half + phase)


# The fields of FringeParams, unvalidated and possibly arrays over a grid.
_FringeTerms = namedtuple("_FringeTerms", "beta_plus beta_minus visibility Gamma Delta")


def _fringe_terms(qpc1: QpcSetting, qpc2: QpcSetting, phi, gamma, sign: float) -> _FringeTerms:
    """Fringe bundle with ``Gamma = sin(gamma/2) sin(gamma/2 + sign*phi)``:
    ``sign`` is +1 for a detector and -1 for a system; arrays broadcast."""
    big_gamma = _coupling_term(gamma, sign * phi)
    background = qpc1.delta * qpc2.delta
    visibility = qpc1.epsilon * qpc2.epsilon
    return _FringeTerms(1.0 + background, 1.0 - background, visibility, big_gamma,
                        np.cos(phi) - big_gamma)


def _fringe_params(cls, ifm: InterferometerConfig, gamma: float, sign: float):
    return cls(*map(float, _fringe_terms(ifm.qpc1, ifm.qpc2, ifm.tuning_phase, gamma, sign)))


def detector_params(det: InterferometerConfig, gamma: float) -> DetectorParams:
    """Closed-form detector parameter bundle for coupling phase ``gamma``.

    Returns
    -------
    DetectorParams with ``beta_(+/-) = 1 +/- delta1*delta2``,
    ``visibility = epsilon1*epsilon2``,
    ``Gamma = sin(gamma/2) sin(gamma/2 + phi)`` and
    ``Delta = cos(phi) - Gamma``.
    """
    return _fringe_params(DetectorParams, det, gamma, 1.0)


def system_params(sys: InterferometerConfig, gamma: float) -> SystemParams:
    """Closed-form system parameter bundle; note the flipped phase sign
    ``Gamma = sin(gamma/2) sin(gamma/2 - phi)``."""
    return _fringe_params(SystemParams, sys, gamma, -1.0)


def joint_interference_params(phi_d: float, phi_s: float, gamma: float) -> JointInterferenceParams:
    """Joint interference bundle for tuning phases ``phi_d``, ``phi_s``.

    ``Gamma_ds = sin(gamma/2) sin(gamma/2 + phi_d - phi_s)`` is the
    coupling-dependent part; at ``gamma = 0`` the joint interference
    reduces to the decoupled product ``cos(phi_d) cos(phi_s)`` and at
    ``gamma = pi`` it is maximally coupled,
    ``Delta_ds = -sin(phi_d) sin(phi_s)``.
    """
    phi_ds = phi_d - phi_s
    big_gamma = float(_coupling_term(gamma, phi_ds))
    return JointInterferenceParams(
        Delta_ds=math.cos(phi_d) * math.cos(phi_s) - big_gamma,
        Gamma_ds=big_gamma,
        phi_ds=phi_ds,
    )
