"""Conditional statistics: post-selection, conditioned averages, weak values.

Conditioned which-path averages are computed by weighting conditional
detector probabilities with the contextual values,
``<sigma_z>_S = sum_D alpha_D P_{D|S}``; that pipeline is the source of
truth here, and the closed-form joint-interference term below is verified
against it rather than the other way around.  Conditioned averages may
leave the eigenvalue range [-1, 1] (a quantum-interference signature) but
are always bounded by the contextual values themselves.

Every function takes one configuration or a stack: ``gamma`` and every
field of the configurations may be arrays, which broadcast together, and
one configuration gives Python numbers.
"""

from __future__ import annotations

import numpy as np

from .errors import AmbiguousMeasurementError, ObservableRangeError, PostSelectionImpossibleError
from .measurement import DIVERGENCE_THRESHOLD, ContextualValues, contextual_values
from .params import (
    InterferometerConfig,
    ObservableCoefficients,
    SystemDrain,
    detector_params,
    joint_interference_params,
    system_params,
)
from .scattering import JointStatistics, joint_amplitudes, joint_statistics

_MARGINAL_THRESHOLD = 1e-12


def _number(x, kind=float):
    """``x`` made a Python ``kind`` when it is a scalar; arrays pass."""
    return x if np.ndim(x) else kind(x)


def require_post_selection(marginals: dict) -> None:
    """Require every marginal, a scalar or an array over a grid (``inf``
    where unchecked) keyed by drain in checking order, to exceed 1e-12.

    Raises :class:`PostSelectionImpossibleError` naming the first failing
    drain at the first failing point.
    """
    drains = list(marginals)
    if not drains:
        return
    p = np.stack(np.broadcast_arrays(*(np.atleast_1d(marginals[d]) for d in drains)), axis=-1)
    vanishing = p <= _MARGINAL_THRESHOLD
    if vanishing.any():
        point = int(np.argmax(vanishing.any(axis=-1)))
        k = int(np.argmax(vanishing[point]))
        raise PostSelectionImpossibleError(drains[k].name, float(p[point, k]))


def post_selected_average(cv: ContextualValues, stats: JointStatistics, condition: SystemDrain):
    """``sum_D alpha_D P(D | condition)``: the contextual values averaged
    over the detector drains, given the system drain; both may be stacks.
    The post-selection is not checked (see :func:`require_post_selection`),
    so NaN passes, but an infinite average raises :class:`ObservableRangeError`
    rather than numpy's overflow warning."""
    joint, p_s, s = stats.joint, stats.p_system(condition), condition.value
    with np.errstate(over="ignore", invalid="ignore"):
        average = cv.alpha_d1 * (joint[..., 0, s] / p_s) + cv.alpha_d2 * (joint[..., 1, s] / p_s)
    if np.isinf(average).any():
        raise ObservableRangeError()
    return average


def xi_joint_interference(det: InterferometerConfig, sys: InterferometerConfig, gamma):
    """Joint-interference contribution to the conditioned averages.

    Closed form ``Xi = Delta_ds - Delta_d Delta_s + Gamma_s (delta1_d
    Delta_d + delta2_d epsilon1_d^2 / V_d)``, chosen so that
    ``<sigma_z>_S1 = (delta1_s + delta2_s - V_s Xi/Gamma_d) / (2 P_S1)``
    reproduces the contextual-value pipeline identically.  For an
    efficient detector (V_d = 1) it reduces to
    ``Gamma_d sin(gamma/2) cot(gamma/2 + phi_d) cos(gamma/2 - phi_s)``
    away from the cotangent poles.

    Raises :class:`AmbiguousMeasurementError`, for the first such point,
    when the detector carries no interference (V_d at or below the
    divergence threshold); the term only enters averages that are undefined
    there anyway.
    """
    dp = detector_params(det, gamma)
    sp = system_params(sys, gamma)
    jp = joint_interference_params(det.tuning_phase, sys.tuning_phase, gamma)
    v, g = np.broadcast_arrays(dp.visibility, dp.Gamma)
    dark = np.flatnonzero(v <= DIVERGENCE_THRESHOLD)
    if dark.size:
        raise AmbiguousMeasurementError(float(v.flat[dark[0]]), float(g.flat[dark[0]]), DIVERGENCE_THRESHOLD)
    d1d, d2d = det.qpc1.delta, det.qpc2.delta
    eps1d = det.qpc1.epsilon
    correction = sp.Gamma * (d1d * dp.Delta + d2d * (eps1d * eps1d) / dp.visibility)
    return jp.Delta_ds - dp.Delta * sp.Delta + correction


def conditioned_average(
    det: InterferometerConfig,
    sys: InterferometerConfig,
    gamma,
    condition: SystemDrain,
    obs: ObservableCoefficients = ObservableCoefficients(),
):
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
    require_post_selection({condition: stats.p_system(condition)})
    return _number(post_selected_average(cv, stats, condition))


def _zero_coupling(sys: InterferometerConfig, condition: SystemDrain):
    """``(t, delta1_s + t delta2_s, V_s, 1 + t (delta1_s delta2_s - V_s cos(phi_s)))``
    with ``t = +1`` for S1 and -1 for S2; the last term is twice the
    post-selection probability, which :func:`require_post_selection` checks."""
    t = 1.0 if condition is SystemDrain.S1 else -1.0
    d1, d2 = sys.qpc1.delta, sys.qpc2.delta
    v = sys.qpc1.epsilon * sys.qpc2.epsilon
    denom = 1.0 + t * d1 * d2 - t * v * np.cos(sys.tuning_phase)
    require_post_selection({condition: denom / 2.0})
    return t, d1 + t * d2, v, denom


def weak_value(sys: InterferometerConfig, condition: SystemDrain):
    """Weak value ``A_w`` of the which-path operator for one post-selection drain.

    For S1: ``(delta1_s + delta2_s - i V_s sin(phi_s)) / (beta_plus - V_s
    cos(phi_s))``; for S2 the signs of ``delta2_s``, the interference
    terms, and the imaginary part flip, with ``beta_minus`` in the
    denominator.  The real part can exceed the eigenvalue range
    (anomalous amplification near a nearly-orthogonal post-selection).

    ``Re A_w`` is the zero-coupling limit of the conditioned average only
    when ``kappa_d = delta1_d cot(phi_d) + delta2_d epsilon1_d^2 / (V_d
    sin(phi_d))`` vanishes, for example for a balanced detector; otherwise
    the limit depends on the detector.  With detector ``T = (0.7, 0.5)`` at
    ``phi_d = 1.0`` and system ``T = (0.7, 0.4)`` at ``phi_s = 1.1``, the
    conditioned average on S1 at ``gamma = 1e-5`` is 0.791047 against
    ``Re A_w = 0.390113``, and 0.390114 with a balanced detector.
    """
    t, numerator, v, denom = _zero_coupling(sys, condition)
    return _number(numerator / denom + 1j * (-t * v * np.sin(sys.tuning_phase) / denom), complex)


def semiweak_value(sys: InterferometerConfig, n, condition: SystemDrain):
    """Zero-coupling conditioned average at the critical tunings ``phi_d = n pi``.

    Unlike the weak value, system interference survives in the numerator:
    ``(delta1_s + delta2_s - (-1)^n V_s cos(phi_s)) / (beta_plus - V_s
    cos(phi_s))`` for S1 and the sign-flipped counterpart for S2.  At
    ``V_s = 0`` it coincides with the weak value.

    For a balanced detector at odd ``n`` this form disagrees with the
    pipeline: for system ``T = (0.8, 0.5)`` at ``phi_s = 0`` and
    ``phi_d = pi`` it gives 7.0 on S1, where the conditioned average tends
    to -1 (-0.999998 at ``gamma = 1e-3``), the ``n = 0`` value.
    """
    sign = 1.0 - 2.0 * (n % 2)
    t, numerator, v, denom = _zero_coupling(sys, condition)
    return _number((numerator - t * sign * v * np.cos(sys.tuning_phase)) / denom)
