"""Parameterizations of QPCs, interferometers, and coupling.

All angles are radians; there is no degree support anywhere in the package.
Every type here is an immutable value and every operation is a pure
function, so unrestricted concurrent use is safe.  A field that may be an
array holds one value per sweep point: the functions broadcast, every check
holds at every point, and scalar inputs give Python floats.

Conventions
-----------
A quantum point contact (QPC) is given by its transmission ``T`` and
reflection ``R = 1 - T`` (plus two scattering phases); it derives the
complementary balance parameters

    delta = T - R           (particle-like path bias, in [-1, 1])
    epsilon = 2 sqrt(T R)   (wave-like interference weight, in [0, 1])

and the balance angle ``theta`` in [0, pi/2] with ``T = cos^2 theta`` and
``R = sin^2 theta``.  ``QpcSetting`` takes ``T``, ``R`` and the phases as
inputs, derives ``delta`` and ``epsilon`` once and ``theta`` on access.  An
interferometer is two QPCs plus a single composite tuning phase ``phi``;
the Aharonov-Bohm, kinetic, and first-QPC scattering-phase contributions
only ever enter through their sum, so the constituents are not tracked
separately.
"""

from __future__ import annotations

import enum
import math
import operator
import sys
from dataclasses import dataclass, field

import numpy as np

IDENTITY_TOL = 1e-12
"""Absolute tolerance for closed-form identities evaluated in doubles."""

MAX_TUNING_PHASE = 2.0**30
"""Largest magnitude of a tuning phase, radians, and of half the coupling
phase that :func:`detector_params` takes.  ``gamma/2 + phi`` then rounds by
at most 2**-22; near ``|Delta| = 1`` that moves ``Delta`` by less than
1e-13, so ``|Delta| <= 1`` holds within ``IDENTITY_TOL``."""

_TWO_PI = 2.0 * math.pi
_PI_LOW = 1.2246467991473532e-16  # pi - math.pi, rounded


def _all(ok) -> bool:
    """``ok`` at every point: a Python bool (one configuration) as it is,
    else every element of a numpy bool or array.  Every comparison with NaN
    is false, so NaN fails."""
    return ok if ok is True or ok is False else bool(ok.all())


def _index(x, otherwise=None):
    """``operator.index(x)``, or ``otherwise`` for ``x`` not of an integer type: 10.0 is no count."""
    try:
        return operator.index(x)
    except TypeError:
        return otherwise


class _Shown:
    """A value as a message formats it: as the value itself, and its attributes
    so too, except that an int too long for ``str`` shows its digit count."""

    def __init__(self, value):
        self._value = value

    def __getattr__(self, name: str):
        return _Shown(getattr(self._value, name))

    def __format__(self, spec: str) -> str:
        try:
            return format(self._value, spec)
        except ValueError:  # str(int) stops at sys.get_int_max_str_digits() digits
            if not isinstance(self._value, int):
                raise
        n = abs(self._value)
        digits = int(math.log10(n)) - 1  # log10 may round up by one
        while 10**digits <= n:
            digits += 1
        return f"<{'negative ' * (self._value < 0)}integer of {digits} digits>"


def _require(ok, message: str, value=None) -> None:
    """Raise ``ValueError(message.format(value))`` unless ``ok`` holds at every point; see :class:`_Shown`."""
    if not _all(ok):
        raise ValueError(message.format(_Shown(value)))


def _require_finite(nan_ok: bool = False, **values) -> None:
    """Raise ``ValueError`` naming the first of ``values`` that is not a finite
    double at every point (a huge Python int fails; NaN passes if ``nan_ok``);
    one configuration stays on Python numbers."""
    for name, x in values.items():
        finite = abs(x) <= sys.float_info.max if isinstance(x, (int, float)) else np.isfinite(x)
        _require(finite | (x != x) if nan_ok else finite, name + " {} is not a finite number", x)


def _plain(x, kind=float):
    """A numpy result made a Python ``kind`` when it is a scalar; arrays pass."""
    return x if x.ndim else kind(x)


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

    The inputs are ``transmission``, ``reflection`` and the scattering
    phases ``chi`` and ``xi`` of the two outgoing rows; a first QPC's
    phases enter only through the composite tuning phase, so the amplitudes
    and the config read them on second QPCs only; a non-finite phase raises
    ``ValueError`` naming it.  ``delta`` and ``epsilon`` are derived once from
    ``T`` and ``R``, ``theta`` on access.  Every field may be an array.
    """

    transmission: float
    reflection: float
    chi: float = 0.0
    xi: float = 0.0
    delta: float = field(init=False)
    epsilon: float = field(init=False)

    def __post_init__(self):
        T, R = self.transmission, self.reflection
        _require((0.0 <= T) & (T <= 1.0) & (R >= 0.0) & (abs(T + R - 1.0) <= IDENTITY_TOL),
                 "transmission {0.transmission} and reflection {0.reflection} are not "
                 "probabilities in [0, 1] with T + R = 1", self)
        _require_finite(chi=self.chi, xi=self.xi)
        object.__setattr__(self, "delta", T - R)
        object.__setattr__(self, "epsilon", _plain(2.0 * np.sqrt(T * R)))

    @property
    def theta(self):
        """Balance angle in [0, pi/2]; ``arctan2`` keeps both edges exact."""
        return _plain(np.arctan2(np.sqrt(self.reflection), np.sqrt(self.transmission)))


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
    return QpcSetting(transmission, 1.0 - transmission, chi, xi)


def qpc_from_angle(theta, chi: float = 0.0, xi: float = 0.0) -> QpcSetting:
    """Build a QPC setting from its balance angle in [0, pi/2]; ``theta``
    may be an array."""
    _require((0.0 <= theta) & (theta <= math.pi / 2), "balance angle {} outside [0, pi/2]", theta)
    c, s = _plain(np.cos(theta)), _plain(np.sin(theta))
    return QpcSetting(c * c, s * s, chi, xi)


@dataclass(frozen=True)
class InterferometerConfig:
    """Two QPCs plus the composite tuning phase of one interferometer; the
    phase, which may be an array, lies within ``MAX_TUNING_PHASE`` of 0."""

    qpc1: QpcSetting
    qpc2: QpcSetting
    tuning_phase: float

    def __post_init__(self):
        _require(abs(self.tuning_phase) <= MAX_TUNING_PHASE,
                 "tuning phase {} outside [-2**30, 2**30] rad", self.tuning_phase)


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
    selected, so a float stays a plain scalar computation.  ``pi^2 - sigma^2``
    is ``(pi - sigma)(pi + sigma)``, the part of pi below ``math.pi`` added to
    ``math.pi - sigma``.
    """
    _require((0.0 <= sigma) & (sigma <= math.pi), "sigma {} outside [0, pi]", sigma)
    inside = (sigma > 0.0) & (sigma < math.pi)
    s = sigma * inside + (1.0 - inside)
    eta = (math.pi**2 / ((math.pi - s + _PI_LOW) * (math.pi + s))) * (np.sin(s) / s)
    return _plain(eta * inside + (sigma == 0.0) + 0.5 * (sigma == math.pi))


@dataclass(frozen=True)
class FringeParams:
    """Closed-form fringe bundle of the detector interferometer, from
    :func:`detector_params` (sign convention ``gamma/2 + phi``) or averaged
    over the coupling model (``AveragedExperiment.bundle``).

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


@dataclass(frozen=True)
class ObservableCoefficients:
    """Compatible observable ``a0 * identity + a3 * sigma_z``.

    ``a0`` sets the reference point of the average and ``a3`` its scale,
    each a finite double; the defaults target the bare which-path operator.
    """

    a0: float = 0.0
    a3: float = 1.0

    def __post_init__(self):
        _require_finite(a0=self.a0, a3=self.a3)


def _coupling_term(gamma, phase):
    """``sin(gamma/2) sin(gamma/2 + phase)``; arrays broadcast."""
    half = gamma / 2.0
    return np.sin(half) * np.sin(half + phase)


def detector_params(det: InterferometerConfig, gamma) -> FringeParams:
    """Closed-form detector parameter bundle for coupling phase ``gamma``.

    Returns
    -------
    FringeParams with ``beta_(+/-) = 1 +/- delta1*delta2``, ``visibility =
    epsilon1*epsilon2``, ``Gamma = sin(gamma/2) sin(gamma/2 + phi)`` and
    ``Delta = cos(phi) - Gamma``.  ``gamma`` and the fields of ``det`` may
    be arrays; a ``gamma`` that is not a finite number, or beyond
    ``2 MAX_TUNING_PHASE`` in magnitude, raises ``ValueError`` naming it.
    """
    _require_finite(gamma=gamma)
    _require(abs(gamma) <= 2.0 * MAX_TUNING_PHASE, "gamma {} outside [-2**31, 2**31] rad", gamma)
    big_gamma = _coupling_term(gamma, det.tuning_phase)
    background = det.qpc1.delta * det.qpc2.delta
    return FringeParams(1.0 + background, 1.0 - background, det.qpc1.epsilon * det.qpc2.epsilon,
                        _plain(big_gamma), _plain(np.cos(det.tuning_phase) - big_gamma))
