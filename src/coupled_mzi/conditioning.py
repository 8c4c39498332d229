"""Conditional statistics: erasure curves, conditioned averages, weak values.

Conditioned which-path averages are computed by weighting conditional
detector probabilities with the contextual values,
``<sigma_z>_S = sum_D alpha_D P_{D|S}``; that pipeline is the source of
truth here, and the closed-form joint-interference term below is verified
against it rather than the other way around.  Conditioned averages may
leave the eigenvalue range [-1, 1] (a quantum-interference signature) but
are always bounded by the contextual values themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import AmbiguousMeasurementError, PostSelectionImpossibleError
from .measurement import DIVERGENCE_THRESHOLD, contextual_values
from .params import (
    DetectorDrain,
    InterferometerConfig,
    ObservableCoefficients,
    SystemDrain,
    detector_params,
    joint_interference_params,
    system_params,
)
from .scattering import JointStatistics, joint_amplitudes, joint_statistics

_MARGINAL_THRESHOLD = 1e-12


@dataclass(frozen=True)
class ConditionalTable:
    """Conditional drain probabilities in both directions.

    ``p_detector_given_system[d, s] = P(D_d | S_s)`` and
    ``p_system_given_detector[d, s] = P(S_s | D_d)``; each conditional
    distribution sums to 1.
    """

    p_detector_given_system: np.ndarray
    p_system_given_detector: np.ndarray

    def __post_init__(self):
        pd_s = np.asarray(self.p_detector_given_system, dtype=float)
        ps_d = np.asarray(self.p_system_given_detector, dtype=float)
        if pd_s.shape != (2, 2) or ps_d.shape != (2, 2):
            raise ValueError("conditional tables must be 2x2")
        if np.any(pd_s < -1e-12) or np.any(pd_s > 1 + 1e-12):
            raise ValueError("conditional probabilities outside [0, 1]")
        if np.any(ps_d < -1e-12) or np.any(ps_d > 1 + 1e-12):
            raise ValueError("conditional probabilities outside [0, 1]")
        if not np.max(np.abs(pd_s.sum(axis=0) - 1.0)) <= 1e-12:
            raise ValueError("P(D|S) columns must sum to 1")
        if not np.max(np.abs(ps_d.sum(axis=1) - 1.0)) <= 1e-12:
            raise ValueError("P(S|D) rows must sum to 1")
        pd_s.setflags(write=False)
        ps_d.setflags(write=False)
        object.__setattr__(self, "p_detector_given_system", pd_s)
        object.__setattr__(self, "p_system_given_detector", ps_d)


def _post_select(marginals: dict) -> None:
    """Require every marginal, a scalar or an array over a grid (``inf``
    where unchecked) keyed by drain in checking order, to exceed 1e-12;
    the error names the first failing drain at the first failing point."""
    drains = list(marginals)
    if not drains:
        return
    p = np.stack(np.broadcast_arrays(*(np.atleast_1d(marginals[d]) for d in drains)), axis=-1)
    vanishing = p <= _MARGINAL_THRESHOLD
    if vanishing.any():
        point = int(np.argmax(vanishing.any(axis=-1)))
        k = int(np.argmax(vanishing[point]))
        raise PostSelectionImpossibleError(drains[k].name, float(p[point, k]))


def conditional_table(stats: JointStatistics) -> ConditionalTable:
    """Both conditional probability tables from joint statistics.

    Raises
    ------
    PostSelectionImpossibleError
        If any drain marginal is numerically zero (below 1e-12), naming
        the offending drain.
    """
    _post_select({d: stats.p_detector(d) for d in DetectorDrain}
                 | {s: stats.p_system(s) for s in SystemDrain})
    return ConditionalTable(
        p_detector_given_system=stats.joint / stats.system_marginals[np.newaxis, :],
        p_system_given_detector=stats.joint / stats.detector_marginals[:, np.newaxis],
    )


def erasure_curve(
    det: InterferometerConfig,
    sys: InterferometerConfig,
    phi_s_values,
    gamma: float,
    condition: DetectorDrain,
) -> list[tuple[float, float]]:
    """Conditional probability ``P(S1 | condition)`` along a system-phase sweep.

    ``sys`` provides the system QPCs; the sweep replaces its tuning phase.
    At strong coupling with fully visible interferometers the recovered
    fringe has visibility ``|sin(phi_d)|`` and sits a quarter period away
    from the uncoupled fringe; the unconditioned ``P(S1)`` stays flat.
    Points are returned in input order.
    """
    phi_s = np.asarray(phi_s_values, dtype=float).ravel()
    stats = joint_statistics(joint_amplitudes(det, replace(sys, tuning_phase=phi_s), gamma))
    p_d = stats.p_detector(condition)
    _post_select({condition: p_d})
    p_s1_given = stats.joint[:, condition.value, SystemDrain.S1.value] / p_d
    return list(zip(phi_s.tolist(), p_s1_given.tolist()))


def _conditioned_average(alpha_d1, alpha_d2, joint, p_s, s: int):
    """``sum_D alpha_D P(D | S)`` for system drain index ``s``; arrays broadcast."""
    return alpha_d1 * (joint[..., 0, s] / p_s) + alpha_d2 * (joint[..., 1, s] / p_s)


def xi_joint_interference(det: InterferometerConfig, sys: InterferometerConfig, gamma: float) -> float:
    """Joint-interference contribution to the conditioned averages.

    Closed form ``Xi = Delta_ds - Delta_d Delta_s + Gamma_s (delta1_d
    Delta_d + delta2_d epsilon1_d^2 / V_d)``, chosen so that
    ``<sigma_z>_S1 = (delta1_s + delta2_s - V_s Xi/Gamma_d) / (2 P_S1)``
    reproduces the contextual-value pipeline identically.  For an
    efficient detector (V_d = 1) it reduces to
    ``Gamma_d sin(gamma/2) cot(gamma/2 + phi_d) cos(gamma/2 - phi_s)``
    away from the cotangent poles.

    Raises :class:`AmbiguousMeasurementError` when the detector carries no
    interference (V_d at or below the divergence threshold); the term only
    enters averages that are undefined there anyway.
    """
    dp = detector_params(det, gamma)
    sp = system_params(sys, gamma)
    jp = joint_interference_params(det.tuning_phase, sys.tuning_phase, gamma)
    if dp.visibility <= DIVERGENCE_THRESHOLD:
        raise AmbiguousMeasurementError(dp.visibility, dp.Gamma, DIVERGENCE_THRESHOLD)
    d1d, d2d = det.qpc1.delta, det.qpc2.delta
    eps1d = det.qpc1.epsilon
    correction = sp.Gamma * (d1d * dp.Delta + d2d * eps1d**2 / dp.visibility)
    return jp.Delta_ds - dp.Delta * sp.Delta + correction


def conditioned_average(
    det: InterferometerConfig,
    sys: InterferometerConfig,
    gamma: float,
    condition: SystemDrain,
    obs: ObservableCoefficients = ObservableCoefficients(),
) -> float:
    """Conditioned average ``sum_D alpha_D P(D | condition)``.

    Computed through the full scattering pipeline; the closed form with
    the joint-interference term (:func:`xi_joint_interference`) agrees to
    1e-10.  The value may lie outside [-1, 1] but never outside the
    contextual values.

    Raises
    ------
    PostSelectionImpossibleError
        If the conditioning drain has vanishing probability.
    AmbiguousMeasurementError
        Propagated when the contextual values diverge.
    """
    # ambiguity first: a divergent measurement is undefined regardless of
    # the post-selection, and scans map it to a sentinel rather than a failure
    cv = contextual_values(obs, detector_params(det, gamma))
    stats = joint_statistics(joint_amplitudes(det, sys, gamma))
    p_s = stats.p_system(condition)
    _post_select({condition: p_s})
    return float(_conditioned_average(cv.alpha_d1, cv.alpha_d2, stats.joint, p_s, condition.value))


def _zero_coupling(sys: InterferometerConfig, condition: SystemDrain):
    """``(t, delta1_s + t delta2_s, V_s, 1 + t (delta1_s delta2_s - V_s cos(phi_s)))``
    with ``t = +1`` for S1 and -1 for S2; the last term, twice the
    post-selection probability, must not vanish."""
    t = 1.0 if condition is SystemDrain.S1 else -1.0
    d1, d2 = sys.qpc1.delta, sys.qpc2.delta
    v = sys.qpc1.epsilon * sys.qpc2.epsilon
    denom = 1.0 + t * d1 * d2 - t * v * math.cos(sys.tuning_phase)
    if abs(denom) <= _MARGINAL_THRESHOLD:
        raise PostSelectionImpossibleError(condition.name, denom / 2.0)
    return t, d1 + t * d2, v, denom


def weak_value(sys: InterferometerConfig, condition: SystemDrain) -> complex:
    """Weak value of the which-path operator for one post-selection drain.

    It is the zero-coupling limit of the conditioned average and does not
    depend on the detector.

    For S1: ``(delta1_s + delta2_s - i V_s sin(phi_s)) / (beta_plus - V_s
    cos(phi_s))``; for S2 the signs of ``delta2_s``, the interference
    terms, and the imaginary part flip, with ``beta_minus`` in the
    denominator.  The real part can exceed the eigenvalue range
    (anomalous amplification near a nearly-orthogonal post-selection).
    """
    t, numerator, v, denom = _zero_coupling(sys, condition)
    return complex(numerator / denom, -t * v * math.sin(sys.tuning_phase) / denom)


def semiweak_value(sys: InterferometerConfig, n: int, condition: SystemDrain) -> float:
    """Zero-coupling conditioned average at the critical tunings ``phi_d = n pi``.

    Unlike the weak value, system interference survives in the numerator:
    ``(delta1_s + delta2_s - (-1)^n V_s cos(phi_s)) / (beta_plus - V_s
    cos(phi_s))`` for S1 and the sign-flipped counterpart for S2.  At
    ``V_s = 0`` it coincides with the weak value.
    """
    sign = -1.0 if n % 2 else 1.0
    t, numerator, v, denom = _zero_coupling(sys, condition)
    return (numerator - t * sign * v * math.cos(sys.tuning_phase)) / denom
