"""Screened-Coulomb interaction phase between copropagating edge channels.

A pair of chiral excitations copropagating at speed ``v`` along channels a
distance ``d`` apart, interacting through a screened Coulomb potential
``(alpha e^2 / r) exp(-r / lambda)``, accumulates a joint geometric phase
that is position-dependent but energy- and time-independent.  Over an
interaction region of length ``L`` at fixed separation the phase is linear
in ``L`` and hence tunable.  Detection-time mismatch adds only a global
phase, which never reaches the drain statistics.

``coulomb_constant`` is a single multiplicative constant in J*m/C^2
(Coulomb's-constant-like), chosen so phases come out in radians; use
:func:`geometry_for_phase` to solve for the constant that realizes a
target phase in a given geometry.

Each entry point checks its sign rules first, then raises ``ValueError``
naming an input that is not a finite number (NaN, an infinity or a Python
int beyond the double range).  Every phase returns through one guard,
:func:`_finite`: a phase that is not a finite number, counting ``hbar``
times a length or speed that underflows to zero as infinite, raises
``ValueError`` naming the phase (``the joint phase is not a finite number``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .params import _require_finite
from .scattering import ELEMENTARY_CHARGE, PLANCK_CONSTANT

HBAR = PLANCK_CONSTANT / (2.0 * math.pi)


@dataclass(frozen=True)
class InteractionGeometry:
    """Geometry of the copropagation region.

    ``copropagation_length`` may be zero (no interaction region); the
    remaining lengths, the speed, and the interaction constant must be
    strictly positive.  All five, and the coupling phase they give, must be finite.
    """

    copropagation_length: float  # m
    channel_separation: float  # m
    screening_length: float  # m
    propagation_speed: float  # m/s
    coulomb_constant: float  # J m / C^2

    def __post_init__(self):
        if self.copropagation_length < 0:
            raise ValueError("copropagation length must be non-negative")
        for name in ("channel_separation", "screening_length", "propagation_speed", "coulomb_constant"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        _require_finite(**vars(self))
        try:
            coupling_phase(self)
        except ValueError:  # the phase overflows, or hbar * channel_separation underflows to zero
            raise ValueError("coupling phase is not a finite number") from None


def coupling_phase(geom: InteractionGeometry) -> float:
    """Joint interaction phase accumulated over the full region.

    ``gamma = (alpha e^2 / (hbar d)) exp(-d/lambda) (2 L / v)``: linear in
    the interaction length and exponentially suppressed once the channel
    separation exceeds the screening length.
    """
    return position_phase(geom.copropagation_length, geom.copropagation_length, geom)


def position_phase(x1: float, x2: float, geom: InteractionGeometry) -> float:
    """Position-dependent joint phase ``gamma(x1, x2)``.

    ``(alpha e^2 / (hbar r)) exp(-r/lambda) (x1 + x2) / v`` with the
    interaction distance ``r = sqrt(d^2 + (x2 - x1)^2)``.
    """
    _require_finite(x1=x1, x2=x2)
    r = math.hypot(geom.channel_separation, x2 - x1)
    return _finite(lambda: _coulomb_rate(r, geom) * (x1 + x2) / geom.propagation_speed,
                   "the joint phase is not a finite number")


def _finite(compute, message: str) -> float:
    """The number that ``compute()`` gives, a ``ZeroDivisionError`` (``hbar``
    times a length or speed underflows to zero) or an ``OverflowError``
    counting as infinite; raises ``ValueError(message)`` unless it is finite."""
    try:
        value = compute()
    except (ZeroDivisionError, OverflowError):
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(message)
    return value


def _coulomb_rate(r: float, geom: InteractionGeometry) -> float:
    """The screened-Coulomb phase rate ``(alpha e^2 / (hbar r)) exp(-r/lambda)`` at distance ``r``."""
    return geom.coulomb_constant * ELEMENTARY_CHARGE**2 / (HBAR * r) * math.exp(-r / geom.screening_length)


def wavenumber_shift(separation: float, geom: InteractionGeometry) -> float:
    """Coulomb shift of the joint wave-number at a given channel separation.

    ``delta k = (alpha e^2 / (hbar v r)) exp(-r/lambda)``; integrating it
    over the sum coordinate across the interaction region reproduces
    :func:`coupling_phase`.  A shift that is not a finite number is named by
    its ``separation``, as too small.
    """
    if not separation > 0:  # NaN fails
        raise ValueError("separation must be positive")
    _require_finite(separation=separation)
    return _finite(lambda: _coulomb_rate(separation, geom) / geom.propagation_speed,
                   f"separation {separation} is too small: the wave-number shift is not a finite number")


def dynamical_phase(fermi_energy: float, length: float, fermi_velocity: float) -> float:
    """Free single-particle dynamical phase ``2 E_F L / (hbar v_F)``.

    ``fermi_energy`` in joules.  A copropagating pair accumulates twice
    this value.
    """
    if not (fermi_energy > 0 and fermi_velocity > 0):  # NaN fails
        raise ValueError("energy and velocity must be positive")
    if not length >= 0:
        raise ValueError("length must be non-negative")
    _require_finite(fermi_energy=fermi_energy, length=length, fermi_velocity=fermi_velocity)
    return _finite(lambda: 2.0 * fermi_energy * length / (HBAR * fermi_velocity),
                   "the dynamical phase is not a finite number")


def sequential_phase(energy: float, t1: float, t2: float) -> float:
    """Relative phase ``E (t2 - t1) / hbar`` between staggered drain detections.

    This is a global phase of the collapsed joint state: it must not (and
    does not) change any drain statistics.
    """
    if not t2 >= t1:  # NaN fails
        raise ValueError("second detection cannot precede the first")
    _require_finite(energy=energy, t1=t1, t2=t2)
    return _finite(lambda: energy * (t2 - t1) / HBAR, "the relative phase is not a finite number")


def geometry_for_phase(
    target_gamma: float,
    copropagation_length: float,
    channel_separation: float,
    screening_length: float,
    propagation_speed: float,
) -> InteractionGeometry:
    """Geometry whose interaction constant realizes a target coupling phase.

    Raises ``ValueError`` when the solved constant does not reproduce the
    target within 1e-9 relative, e.g. when it underflows, when it overflows
    (naming ``coulomb_constant``), and when ``e^2 * 2 * length`` underflows to zero.
    """
    if target_gamma <= 0:
        raise ValueError("target phase must be positive")
    if copropagation_length <= 0:
        raise ValueError("target phase requires a positive interaction length")
    if screening_length <= 0:
        raise ValueError("screening_length must be positive")
    _require_finite(target_gamma=target_gamma, copropagation_length=copropagation_length,
                    channel_separation=channel_separation, screening_length=screening_length,
                    propagation_speed=propagation_speed)
    growth = _finite(lambda: math.exp(channel_separation / screening_length),  # also for an infinite quotient
                     "exp(channel_separation / screening_length) overflows")
    try:
        alpha = (
            target_gamma
            * HBAR
            * channel_separation
            * propagation_speed
            * growth
            / (ELEMENTARY_CHARGE**2 * 2.0 * copropagation_length)
        )
    except ZeroDivisionError:
        raise ValueError(f"interaction length {copropagation_length!r} is too small: "
                         "e^2 * 2 * length underflows to zero") from None
    geom = InteractionGeometry(
        copropagation_length=copropagation_length,
        channel_separation=channel_separation,
        screening_length=screening_length,
        propagation_speed=propagation_speed,
        coulomb_constant=alpha,
    )
    realized = coupling_phase(geom)
    if not abs(realized - target_gamma) <= 1e-9 * target_gamma:
        raise ValueError(
            f"coulomb_constant {alpha!r} gives coupling phase {realized!r}, "
            f"not the target {target_gamma!r}"
        )
    return geom
