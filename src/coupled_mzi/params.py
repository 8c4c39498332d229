"""Parameterizations of QPCs, interferometers, and coupling.

All angles are radians; there is no degree support anywhere in the package.
Every type here is an immutable value and every operation is a pure
function, so unrestricted concurrent use is safe.  A field that may be an
array holds one value per sweep point: the functions broadcast, every check
holds at every point, and scalar inputs give Python floats.

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
from dataclasses import dataclass

import numpy as np

IDENTITY_TOL = 1e-12
"""Absolute tolerance for closed-form identities evaluated in doubles."""

_TWO_PI = 2.0 * math.pi


def _require(ok, message: str, value=None) -> None:
    """Raise ``ValueError(message.format(value))`` unless ``ok`` holds at
    every point; every comparison with NaN is false, so NaN fails.

    A scalar ``True`` (Python's and numpy's are singletons) returns at once:
    ``np.all`` of a scalar costs more than a whole scalar constructor.
    """
    if ok is not True and ok is not np.True_ and not np.all(ok):
        raise ValueError(message.format(value))


def _plain(x):
    """A numpy result made a Python float when it is a scalar; arrays pass."""
    return x if x.ndim else float(x)


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
    Every field may be an array (one contact per sweep point).
    """

    transmission: float
    reflection: float
    delta: float
    epsilon: float
    theta: float
    chi: float = 0.0
    xi: float = 0.0

    def __post_init__(self):
        T, R, theta = self.transmission, self.reflection, self.theta
        _require((0.0 <= T) & (T <= 1.0), "transmission {} outside [0, 1]", T)
        _require(abs(T + R - 1.0) <= IDENTITY_TOL, "T + R = {} != 1", T + R)
        _require(abs(self.delta - (T - R)) <= IDENTITY_TOL, "delta inconsistent with T - R")
        product = T * R
        product = product * (product > 0.0)  # a rounding-negative product counts as 0
        _require(abs(self.epsilon - 2.0 * product**0.5) <= IDENTITY_TOL,
                 "epsilon inconsistent with 2 sqrt(T R)")
        _require(abs(self.delta**2 + self.epsilon**2 - 1.0) <= IDENTITY_TOL,
                 "delta^2 + epsilon^2 != 1")
        _require((0.0 <= theta) & (theta <= math.pi / 2 + IDENTITY_TOL),
                 "balance angle {} outside [0, pi/2]", theta)
        _require(abs(np.cos(theta) ** 2 - T) <= IDENTITY_TOL, "theta inconsistent with transmission")


def qpc_from_transmission(transmission, chi: float = 0.0, xi: float = 0.0) -> QpcSetting:
    """Build a QPC setting from its transmission probability.

    Parameters
    ----------
    transmission : float or ndarray
        Probability in [0, 1] for an excitation to pass the contact.
    chi, xi : float
        Scattering phases of the two output rows, radians.

    Returns
    -------
    QpcSetting with all derived balance parameters populated; ``epsilon``
    uses the non-negative root.
    """
    _require((0.0 <= transmission) & (transmission <= 1.0),
             "transmission {} outside [0, 1]", transmission)
    reflection = 1.0 - transmission
    # epsilon keeps np.sqrt's bits; no output reads theta's last bit, and
    # ``** 0.5`` spares a float a ufunc call (an array still gets np.sqrt)
    return QpcSetting(transmission, reflection, transmission - reflection,
                      _plain(2.0 * np.sqrt(transmission * reflection)),
                      _plain(np.arccos(transmission**0.5)), chi, xi)


def qpc_from_angle(theta: float, chi: float = 0.0, xi: float = 0.0) -> QpcSetting:
    """Build a QPC setting from its balance angle in [0, pi/2]."""
    _require((0.0 <= theta) & (theta <= math.pi / 2), "balance angle {} outside [0, pi/2]", theta)
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
    emission behaves like a zero coupling phase).  ``gamma`` and ``sigma``
    may be arrays.
    """

    gamma: float
    sigma: float = 0.0
    pair_probability: float = 1.0

    def __post_init__(self):
        g, s, p = self.gamma, self.sigma, self.pair_probability
        # one check for all three: each helper call costs a fifth of the constructor
        _require((0.0 <= g) & (g <= _TWO_PI) & (0.0 <= s) & (s <= math.pi) & (0.0 <= p) & (p <= 1.0),
                 "coupling phase {0.gamma}, fluctuation half-width {0.sigma} and pair probability "
                 "{0.pair_probability} not all inside [0, 2*pi], [0, pi] and [0, 1]", self)


def damping_eta(sigma):
    """Fluctuation damping factor ``(pi^2 / (pi^2 - sigma^2)) sin(sigma)/sigma``.

    Defined by continuity at the removable singularities: 1 at
    ``sigma = 0`` and 1/2 at ``sigma = pi``.  Domain is [0, pi]; ``sigma``
    may be an array.  At the singularities the closed form is evaluated at
    a stand-in 1 and replaced by the limits; masks are multiplied in, not
    selected, so a float stays a plain scalar computation.
    """
    _require((0.0 <= sigma) & (sigma <= math.pi), "sigma {} outside [0, pi]", sigma)
    inside = (sigma > 0.0) & (sigma < math.pi)
    s = sigma * inside + (1.0 - inside)
    eta = (math.pi**2 / (math.pi**2 - s * s)) * (np.sin(s) / s)
    return _plain(eta * inside + (sigma == 0.0) + 0.5 * (sigma == math.pi))


@dataclass(frozen=True)
class FringeParams:
    """Closed-form single-interferometer parameter bundle.

    ``beta_plus``/``beta_minus`` are the particle-like background weights
    of the two drains, ``visibility`` the wave-like fringe visibility,
    ``Gamma`` the coupling-induced part of the interference (the
    correlation strength with the partner channel), and ``Delta`` the
    remaining coupling-independent interference.  ``Delta + Gamma =
    cos(phi)``, also for a bundle averaged over coupling fluctuations: the
    averaging moves interference from ``Gamma`` into ``Delta``.  Every
    field may be an array; the fields broadcast together.
    """

    beta_plus: float
    beta_minus: float
    visibility: float
    Gamma: float
    Delta: float

    def __post_init__(self):
        bp, v, g, d = self.beta_plus, self.visibility, self.Gamma, self.Delta
        _require(abs((bp + self.beta_minus) / 2.0 - 1.0) <= IDENTITY_TOL,
                 "(beta_plus + beta_minus)/2 != 1")
        _require((-IDENTITY_TOL <= bp) & (bp <= 2.0 + IDENTITY_TOL), "beta_plus {} outside [0, 2]", bp)
        _require((-IDENTITY_TOL <= v) & (v <= 1.0 + IDENTITY_TOL), "visibility {} outside [0, 1]", v)
        _require(abs(g) <= 1.0 + IDENTITY_TOL, "Gamma {} outside [-1, 1]", g)
        _require(abs(d) <= 1.0 + IDENTITY_TOL, "Delta {} outside [-1, 1]", d)


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
        _require(abs(self.Gamma_ds) <= 1.0 + IDENTITY_TOL, "Gamma_ds {} outside [-1, 1]", self.Gamma_ds)
        _require(abs(self.Delta_ds) <= 1.0 + IDENTITY_TOL, "Delta_ds {} outside [-1, 1]", self.Delta_ds)


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


def _bundle(cls, ifm: InterferometerConfig, big_gamma):
    """Fringe bundle of ``ifm`` with coupling-induced interference ``big_gamma``."""
    background = ifm.qpc1.delta * ifm.qpc2.delta
    return cls(1.0 + background, 1.0 - background, ifm.qpc1.epsilon * ifm.qpc2.epsilon,
               _plain(big_gamma), _plain(np.cos(ifm.tuning_phase) - big_gamma))


def detector_params(det: InterferometerConfig, gamma) -> DetectorParams:
    """Closed-form detector parameter bundle for coupling phase ``gamma``.

    Returns
    -------
    DetectorParams with ``beta_(+/-) = 1 +/- delta1*delta2``,
    ``visibility = epsilon1*epsilon2``,
    ``Gamma = sin(gamma/2) sin(gamma/2 + phi)`` and
    ``Delta = cos(phi) - Gamma``.  ``gamma`` and the fields of ``det`` may
    be arrays.
    """
    return _bundle(DetectorParams, det, _coupling_term(gamma, det.tuning_phase))


def system_params(sys: InterferometerConfig, gamma) -> SystemParams:
    """Closed-form system parameter bundle; note the flipped phase sign
    ``Gamma = sin(gamma/2) sin(gamma/2 - phi)``."""
    return _bundle(SystemParams, sys, _coupling_term(gamma, -sys.tuning_phase))


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
