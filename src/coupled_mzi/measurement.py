"""Measurement layer: operators, POVM, contextual values, limiting forms.

The system path space is two-dimensional with basis order ``(L^s, U^s)``;
``sigma_z = diag(1, -1)`` is the which-path operator (lower path maps to
eigenvalue +1).  The detector drains realize a generalized measurement of
observables inside the span of ``(identity, sigma_z)``; components along
``sigma_x``/``sigma_y`` cannot be constructed from these drains and inputs
with such components are rejected rather than approximated.  The
measurement operators and POVM elements are diagonal in this basis and are
held as their diagonals ``(X[L, L], X[U, U])``; their 2x2 matrices are
built on access.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import AmbiguousMeasurementError, ObservableRangeError
from .params import (FringeParams, InterferometerConfig, ObservableCoefficients, _all, _plain, _require_finite,
                     detector_params)
from .scattering import _is_marginal, detector_drain_amplitudes

DIVERGENCE_THRESHOLD = 1e-9
"""Below this value of |visibility * Gamma| the contextual values are
treated as divergent and :class:`AmbiguousMeasurementError` is raised."""

_EFFICIENCY_TOL = 1e-9


def _freeze(obj, kind) -> None:
    """Store both diagonals of ``obj`` as ``(L^s, U^s)`` pairs: ``kind`` for
    one table, read-only arrays of ``kind`` and of one shape for a stack."""
    for name in ("diag_d1", "diag_d2"):
        lower, upper = getattr(obj, name)
        if isinstance(lower, np.ndarray) or isinstance(upper, np.ndarray):
            lower, upper = (np.array(x, dtype=kind) for x in np.broadcast_arrays(lower, upper))
            lower.flags.writeable = upper.flags.writeable = False
        else:
            lower, upper = kind(lower), kind(upper)
        object.__setattr__(obj, name, (lower, upper))


def _squared_moduli(diagonal) -> tuple:
    """``re * re + im * im`` of each entry, the joint table's rule."""
    z = np.asarray(diagonal)
    return tuple(z.real * z.real + z.imag * z.imag)


def _complete(e_d1, e_d2) -> bool:
    """``E_D1 + E_D2 = identity`` to 1e-12 entrywise; false for NaN or inf."""
    return all(_all(abs(a + b - 1.0) <= 1e-12) for a, b in zip(e_d1, e_d2))


def _matrices(diagonal) -> np.ndarray:
    """Diagonal 2x2 matrices, shape ``stack + (2, 2)``, of a diagonal pair."""
    return np.stack(diagonal, axis=-1)[..., np.newaxis] * np.eye(2)


@dataclass(frozen=True)
class MeasurementOperators:
    """Kraus operators for absorption at the two detector drains, one pair
    or a stack: ``M_D1^dagger M_D1 + M_D2^dagger M_D2 = identity`` to 1e-12.
    """

    diag_d1: tuple[complex, complex]
    diag_d2: tuple[complex, complex]

    def __post_init__(self):
        _freeze(self, complex)
        if not _complete(_squared_moduli(self.diag_d1), _squared_moduli(self.diag_d2)):
            raise ValueError("measurement operators violate completeness")

    @property
    def m_d1(self) -> np.ndarray:
        return _matrices(self.diag_d1)

    @property
    def m_d2(self) -> np.ndarray:
        return _matrices(self.diag_d2)


def measurement_operators(det: InterferometerConfig, gamma) -> MeasurementOperators:
    """Measurement operators ``M_D = diag(C[D, L^s], C[D, U^s])``.

    At ``gamma = 0`` both operators are proportional to the identity (a
    completely ambiguous measurement); ``gamma = pi`` perturbs the system
    maximally.  ``gamma`` and every field of ``det`` may be arrays.
    """
    c = detector_drain_amplitudes(det, gamma)
    return MeasurementOperators(*c.transpose(-2, -1, *range(c.ndim - 2)))


@dataclass(frozen=True)
class PovmPair:
    """Probability operators of the two detector drains, one pair or a
    stack: positive semidefinite and summing to the identity, both to 1e-12."""

    diag_d1: tuple[float, float]
    diag_d2: tuple[float, float]

    def __post_init__(self):
        _freeze(self, float)
        if not all(_all(x >= -1e-12) for x in (*self.diag_d1, *self.diag_d2)):
            raise ValueError("POVM elements are not positive semidefinite")
        if not _complete(self.diag_d1, self.diag_d2):
            raise ValueError("POVM elements do not sum to the identity")

    @property
    def e_d1(self) -> np.ndarray:
        return _matrices(self.diag_d1)

    @property
    def e_d2(self) -> np.ndarray:
        return _matrices(self.diag_d2)


def povm_pair(m: MeasurementOperators) -> PovmPair:
    """POVM ``E_D = M_D^dagger M_D``, the squared moduli of the diagonals."""
    return PovmPair(_squared_moduli(m.diag_d1), _squared_moduli(m.diag_d2))


def povm_expectation(povm: PovmPair, state: np.ndarray) -> tuple:
    """Drain probabilities ``<state| E_D |state> = E_D . |state|^2``; a stack
    of POVMs and a stack of states ``(..., 2)`` broadcast together, and so do
    one POVM and a stack of states.  A state that gives a probability that is
    not a finite number (an entry that is not, or whose squared modulus
    overflows) raises ``ValueError`` naming the state."""
    try:
        z = np.asarray(state, dtype=complex)
    except OverflowError:  # an int beyond the double range, an infinite entry here
        z = np.full(2, math.inf)
    with np.errstate(over="ignore", invalid="ignore"):
        weights = z.real * z.real + z.imag * z.imag
        probabilities = [np.vecdot(np.stack(d, axis=-1), weights) for d in (povm.diag_d1, povm.diag_d2)]
    if not _all(np.isfinite(probabilities)):
        raise ValueError("state gives a drain probability that is not a finite number")
    return tuple(map(_plain, probabilities))


@dataclass(frozen=True)
class ContextualValues:
    """Generalized eigenvalues assigned to the two detector drains.

    Built by :func:`contextual_values`, they satisfy ``alpha_d1 E_D1 +
    alpha_d2 E_D2 = a0 identity + a3 sigma_z`` as a matrix identity for the
    observable they were built for.  Each is a finite number or NaN, the
    ambiguity marker, at every point.
    """

    alpha_d1: float
    alpha_d2: float

    def __post_init__(self):  # NaN, which contextual_values_or_nan writes where ambiguous, passes
        _require_finite(nan_ok=True, alpha_d1=self.alpha_d1, alpha_d2=self.alpha_d2)


def contextual_values(obs: ObservableCoefficients, p: FringeParams) -> ContextualValues:
    """Unique drain weights reconstructing ``a0 + a3 sigma_z`` on average.

    ``alpha_D1 = a0 - (a3/Gamma)(beta_minus/V + Delta)`` and
    ``alpha_D2 = a0 + (a3/Gamma)(beta_plus/V - Delta)``: imperfect
    correlation (|Gamma| < 1) or inefficiency (V < 1) amplify the weights,
    and ``beta_(+/-)`` counterbalance the drain background bias.  The
    fields of ``p`` may be arrays.

    Raises
    ------
    AmbiguousMeasurementError
        When ``|V * Gamma| <= DIVERGENCE_THRESHOLD`` at any point, the first
        of which it reports; the measurement carries no which-path
        information and the weights would diverge.
    ObservableRangeError
        When every point is informative but a weight is not finite; a
        stack raises it without numpy's overflow warning.
    """
    v, g = p.visibility, p.Gamma
    informative = abs(v * g) > DIVERGENCE_THRESHOLD
    if not _all(informative):
        point = np.argmin(informative)  # the first ambiguous point of a stack
        v, g = (float(np.broadcast_to(x, np.shape(informative)).flat[point]) for x in (v, g))
        raise AmbiguousMeasurementError(v, g, DIVERGENCE_THRESHOLD)
    if isinstance(informative, np.ndarray):  # a stack: the grid's arithmetic, without numpy's warnings
        return contextual_values_or_nan(obs, p)
    return ContextualValues(*_weights(obs, p, v, g))


def contextual_values_or_nan(obs: ObservableCoefficients, p: FringeParams) -> ContextualValues:
    """:func:`contextual_values` at each point of the grid that the fields of
    ``p`` broadcast to, NaN where the point is ambiguous; out of range raises.
    ``p`` is read as checked, not rebuilt; a bundle of numbers gives Python floats."""
    # arrays: a V = 0 point divides to inf, not ZeroDivisionError
    v, g = np.broadcast_arrays(p.visibility, p.Gamma)
    ambiguous = abs(v * g) <= DIVERGENCE_THRESHOLD
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        weights = _weights(obs, p, v, g, ambiguous)
    return ContextualValues(*(_plain(np.where(ambiguous, np.nan, w)) for w in weights))


def _weights(obs: ObservableCoefficients, p: FringeParams, v, g, ambiguous=False) -> tuple:
    """``(alpha_D1, alpha_D2)`` of ``p`` at visibility ``v``, ``Gamma = g``; finite wherever not ``ambiguous``."""
    a1 = obs.a0 - (obs.a3 / g) * (p.beta_minus / v + p.Delta)
    a2 = obs.a0 + (obs.a3 / g) * (p.beta_plus / v - p.Delta)
    # comparisons, not np.isfinite: one configuration stays in Python floats
    if not _all(((abs(a1) < math.inf) & (abs(a2) < math.inf)) | ambiguous):
        raise ObservableRangeError()
    return a1, a2


def reconstruct_average(cv: ContextualValues, p_d1, p_d2):
    """Observable average ``alpha_D1 P_D1 + alpha_D2 P_D2``, per point for arrays.

    With drain probabilities from the scattering pipeline this equals
    ``a0 + a3 * delta1_s`` exactly.  Each probability may lie as far outside
    [0, 1] as a ``JointStatistics`` marginal may; NaN fails.
    """
    if not _all(_is_marginal(p_d1) & _is_marginal(p_d2)):
        raise ValueError(f"drain probabilities ({p_d1}, {p_d2}) outside [0, 1]")
    if not _all(abs(p_d1 + p_d2 - 1.0) <= 1e-9):
        raise ValueError("drain probabilities must sum to 1")
    return cv.alpha_d1 * p_d1 + cv.alpha_d2 * p_d2


@dataclass(frozen=True)
class EfficientFactorization:
    """Split of efficient-detection measurement operators into a coupling
    unitary times positive POVM roots, ``M_D = e^{i theta_D} U_gamma E_D^{1/2}``.

    ``dropped_phases`` records the two scalar phases ``theta_D``; they only
    contribute a global phase to the measured state.
    """

    disturbance_unitary: np.ndarray
    root_d1: np.ndarray
    root_d2: np.ndarray
    dropped_phases: tuple[float, float]

    def reconstruct(self) -> tuple[np.ndarray, np.ndarray]:
        """Measurement operators rebuilt from the factors."""
        ph1 = cmath.exp(1j * self.dropped_phases[0])
        ph2 = cmath.exp(1j * self.dropped_phases[1])
        return (
            ph1 * self.disturbance_unitary @ self.root_d1,
            ph2 * self.disturbance_unitary @ self.root_d2,
        )


def efficient_factorization(det: InterferometerConfig, gamma: float) -> EfficientFactorization:
    """Disturbance/information split for an efficient detector (V = 1).

    The unitary ``U_gamma = exp(i (gamma/2) |U^s><U^s|)`` perturbs the
    system independently of any information gain; the diagonal roots
    ``diag(sin(phi/2), sin((phi+gamma)/2))`` and ``diag(cos(phi/2),
    cos((phi+gamma)/2))`` perform the partial projection.  Requires both
    detector QPCs balanced to 1e-9.  It takes one configuration: ``gamma``
    and the detector's fields are scalars, and arrays raise ``ValueError``.
    """
    settings = (gamma, det.tuning_phase, *vars(det.qpc1).values(), *vars(det.qpc2).values())
    if any(getattr(x, "ndim", 0) for x in settings):
        raise ValueError("efficient_factorization takes one configuration: "
                         "gamma and every detector field must be scalars")
    p = detector_params(det, gamma)
    if abs(p.visibility - 1.0) > _EFFICIENCY_TOL:
        raise ValueError(
            f"efficient factorization requires visibility 1, got {p.visibility!r}"
        )
    phi = det.tuning_phase
    unitary = np.diag([1.0, cmath.exp(1j * gamma / 2.0)])
    root_d1 = np.diag([math.sin(phi / 2.0), math.sin((phi + gamma) / 2.0)]).astype(complex)
    root_d2 = np.diag([math.cos(phi / 2.0), math.cos((phi + gamma) / 2.0)]).astype(complex)
    dropped = (
        det.qpc2.chi + phi / 2.0 + math.pi / 2.0,
        det.qpc2.xi + phi / 2.0 + math.pi / 2.0,
    )
    return EfficientFactorization(
        disturbance_unitary=unitary,
        root_d1=root_d1,
        root_d2=root_d2,
        dropped_phases=dropped,
    )


def _one_number(**values) -> None:
    """Require each of ``values`` to be one finite number: an array or a
    number that is not finite raises ``ValueError`` naming it."""
    for name, x in values.items():
        if getattr(x, "ndim", 0):
            raise ValueError(f"the limit forms take one configuration: {name} must be a scalar")
    _require_finite(**values)


def strong_contextual_values(phi_d) -> tuple[ContextualValues, PovmPair]:
    """Contextual values and POVM of a V = 1 detector at tuning ``phi_d`` in
    the strong limit ``gamma = pi``: ``alpha_D = -+1 / cos(phi_d)``.  Raises
    :class:`AmbiguousMeasurementError` where ``|cos(phi_d)| <= DIVERGENCE_THRESHOLD``."""
    _one_number(phi_d=phi_d)
    cos_phi = math.cos(phi_d)
    if abs(cos_phi) <= DIVERGENCE_THRESHOLD:
        raise AmbiguousMeasurementError(1.0, cos_phi, DIVERGENCE_THRESHOLD)
    low, high = 0.5 * (1.0 - cos_phi), 0.5 * (1.0 + cos_phi)
    return ContextualValues(-1.0 / cos_phi, 1.0 / cos_phi), PovmPair((low, high), (high, low))


def weak_contextual_values(gamma, phi_d) -> tuple[ContextualValues, PovmPair]:
    """First-order contextual values and POVM of a V = 1 detector at a small
    coupling ``gamma > 0`` and a tuning ``phi_d`` with ``|sin(phi_d)| >= 1e-9``,
    away from multiples of pi; their error against the exact values is O(gamma)."""
    _one_number(gamma=gamma, phi_d=phi_d)
    sin_phi, cos_phi = math.sin(phi_d), math.cos(phi_d)
    if abs(sin_phi) < 1e-9:
        raise ValueError("weak regime requires phi_d away from multiples of pi")
    if not gamma > 0.0:
        raise ValueError("weak regime forms require gamma > 0")
    cv = ContextualValues(1.0 - (2.0 / gamma) * (1.0 + cos_phi) / sin_phi,
                          1.0 + (2.0 / gamma) * (1.0 - cos_phi) / sin_phi)
    low, high, shift = 0.5 * (1.0 - cos_phi), 0.5 * (1.0 + cos_phi), (gamma / 2.0) * sin_phi
    return cv, PovmPair((low, low + shift), (high, high - shift))


def semiweak_contextual_values(gamma, n) -> tuple[ContextualValues, PovmPair]:
    """Contextual values and POVM of a V = 1 detector at a small coupling
    ``gamma > 0`` and the tuning ``phi_d = n pi``, for the integer ``n``,
    where one drain stays projective; their error is O(gamma^2)."""
    if not isinstance(n, (int, np.integer)):
        raise ValueError("semiweak regime requires the integer n with phi_d = n pi")
    _one_number(gamma=gamma, n=n)
    if not gamma > 0.0:
        raise ValueError("semiweak regime forms require gamma > 0")
    sign = -1.0 if n % 2 else 1.0
    s2, c2 = math.sin(gamma / 2.0) ** 2, math.cos(gamma / 2.0) ** 2
    low, high = 0.5 * (1.0 - sign), 0.5 * (1.0 + sign)
    cv = ContextualValues(-(sign + c2) / s2, (sign - c2) / s2)
    return cv, PovmPair((low, low + sign * s2), (high, high - sign * s2))
