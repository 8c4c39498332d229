"""The coupling average and conditional statistics: post-selection, weak values.

:class:`AveragedExperiment` is the one averaged experiment that the library
and every CLI subcommand read, and the one home of the coupling average: the
joint table and detector bundle averaged over the coupling model, their
contextual values, and the conditioned average ``<sigma_z>_S = sum_D
alpha_D P_{D|S}``, the source of truth here, checked for ambiguity and then
for the post-selection on any coupling model.  ``scan`` reads its unchecked
core, :func:`post_selected_average`, and checks each column itself.  The
closed-form joint-interference term below is verified against the pipeline,
not the other way around.  Conditioned averages may leave the eigenvalue
range [-1, 1] (a quantum-interference signature) but are always bounded by
the contextual values themselves.

Every function takes one configuration or a stack: ``gamma`` and every
field of the configurations may be arrays, which broadcast together, and
one configuration gives Python numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import AmbiguousMeasurementError, ObservableRangeError, PostSelectionImpossibleError
from .measurement import DIVERGENCE_THRESHOLD, ContextualValues, contextual_values, contextual_values_or_nan
from .params import (CouplingModel, FringeParams, InterferometerConfig, ObservableCoefficients, SystemDrain,
                     _coupling_term, _plain, _require, damping_eta, detector_params)
from .scattering import JointStatistics, joint_probability_table

_MARGINAL_THRESHOLD = 1e-12


def require_post_selection(marginals: dict) -> None:
    """Require every marginal, a scalar or an array over a grid of any
    number of axes keyed by drain in checking order, to exceed 1e-12.

    At the first failing drain of the first failing point in C order, raises
    :class:`PostSelectionImpossibleError` where the marginal lies in
    [-2e-12, 1e-12], and ``ValueError`` naming the drain where it is NaN or
    outside [-2e-12, 1 + 3e-12]: the marginals of a :class:`JointStatistics`
    table, two cells of at least -1e-12 each in a total within 1e-12 of 1.
    """
    drains = list(marginals)
    if not drains:
        return
    p = np.stack(np.broadcast_arrays(*(marginals[d] for d in drains)), axis=-1).reshape(-1, len(drains))
    failing = ~((p > _MARGINAL_THRESHOLD) & (p <= 1.0 + 3 * _MARGINAL_THRESHOLD))  # NaN fails too
    if failing.any():
        point = int(np.argmax(failing.any(axis=-1)))
        k = int(np.argmax(failing[point]))
        x, name = p[point, k], drains[k].name
        if x != x:
            raise ValueError(f"the marginal of drain {name} is not a number")
        _require(-2 * _MARGINAL_THRESHOLD <= x <= _MARGINAL_THRESHOLD,
                 f"the marginal of drain {name} is {{}}, outside [0, 1]", x)
        raise PostSelectionImpossibleError(name, float(x))


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
    return _plain(average)


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
    v, g = np.broadcast_arrays(dp.visibility, dp.Gamma)
    dark = np.flatnonzero(v <= DIVERGENCE_THRESHOLD)
    if dark.size:
        raise AmbiguousMeasurementError(float(v.flat[dark[0]]), float(g.flat[dark[0]]), DIVERGENCE_THRESHOLD)
    phi_d, phi_s = det.tuning_phase, sys.tuning_phase
    gamma_s = _coupling_term(gamma, -phi_s)
    delta_s = np.cos(phi_s) - gamma_s
    delta_ds = np.cos(phi_d) * np.cos(phi_s) - _coupling_term(gamma, phi_d - phi_s)
    d1d, d2d, eps1d = det.qpc1.delta, det.qpc2.delta, det.qpc1.epsilon
    correction = gamma_s * (d1d * dp.Delta + d2d * (eps1d * eps1d) / dp.visibility)
    return _plain(delta_ds - dp.Delta * delta_s + correction)


@dataclass(frozen=True, eq=False)
class AveragedExperiment:
    """An experiment averaged over its coupling model, each part built on
    first access: the damping factor of its raised cosine (``eta``), the
    joint table (``stats``), the detector bundle at ``gamma`` (``fringes``)
    and averaged alike (``bundle``), whose contextual values (``alphas``, NaN
    where ambiguous) invert the table's detector marginals; ``bundle``,
    ``alphas`` and ``eta`` read no field of the system.  A point gives Python
    numbers, and array fields give each quantity the shape its inputs
    broadcast to."""

    detector: InterferometerConfig
    system: InterferometerConfig
    coupling: CouplingModel
    observable: ObservableCoefficients = ObservableCoefficients()

    @cached_property
    def eta(self):
        return damping_eta(self.coupling.sigma)

    @cached_property
    def stats(self) -> JointStatistics:
        """Joint drain statistics, one table or a stack, averaged over the
        coupling model, from the tables ``P(g)`` of :func:`~coupled_mzi.scattering.joint_probability_table`.

        Where ``sigma = 0`` and ``p = 1`` at every point, this is the one table
        ``P(gamma)``.  Otherwise a cell is ``A + B cos g + C sin g``, the raised
        cosine damps the harmonics by ``eta(sigma)``, and an unpaired emission
        has ``g = 0``: the average is the mixture of non-negative weights ``p eta
        P(gamma) + p (1 - eta) / 2 P(pi) + (p (1 - eta) / 2 + 1 - p) P(0)``.
        Every table comes from ``joint_probability_table``, so a point, its
        one-point stack and its place in any stack give the same bits; the
        average is checked once.  Every field may be an array.
        """
        gamma, sigma, p = self.coupling.gamma, self.coupling.sigma, self.coupling.pair_probability
        stack = isinstance(sigma, np.ndarray) or isinstance(p, np.ndarray)
        fluctuating = (sigma != 0.0) | (p != 1.0)
        if not (np.any(fluctuating) if stack else fluctuating):
            return JointStatistics(joint_probability_table(self.detector, self.system, gamma))
        eta = self.eta
        if stack:  # array weights broadcast over each table's cells; numbers weight them alike, bit for bit
            p, eta = np.expand_dims(p, (-2, -1)), np.expand_dims(eta, (-2, -1))
        tables = [joint_probability_table(self.detector, self.system, g) for g in (gamma, math.pi, 0.0)]
        paired, spread = p * eta, p * (1.0 - eta) / 2.0
        return JointStatistics(paired * tables[0] + spread * tables[1] + (spread + (1.0 - p)) * tables[2])

    @cached_property
    def fringes(self) -> FringeParams:
        return detector_params(self.detector, self.coupling.gamma)

    @cached_property
    def bundle(self) -> FringeParams:
        """The detector bundle averaged over coupling fluctuations and
        unpaired emission, the exact average of its drain probabilities.

        Only ``Gamma`` and ``Delta`` change.  ``Gamma = sin(g/2) sin(g/2 +
        phase) = (cos(phase) - cos(g + phase)) / 2``, with ``cos(phase) = Delta
        + Gamma``; the raised cosine damps ``cos(g + phase)`` by ``eta =
        eta(sigma)`` and an unpaired emission has ``Gamma = 0``, so ``Gamma_bar
        = p (eta Gamma + (1 - eta) cos(phase) / 2)``, and ``Delta_bar`` keeps
        ``Delta_bar + Gamma_bar = cos(phase)``.  At ``sigma = 0, p = 1`` the
        bundle comes back bit for bit.  Contextual values built from the result
        invert the averaged drain probabilities, with the ``1/Gamma_bar``
        amplification of an inefficient measurement.
        """
        f, eta = self.fringes, self.eta
        gamma_bar = self.coupling.pair_probability * (eta * f.Gamma + (1.0 - eta) * (f.Delta + f.Gamma) / 2.0)
        return replace(f, Gamma=gamma_bar, Delta=f.Delta + (f.Gamma - gamma_bar))

    @cached_property
    def alphas(self) -> ContextualValues:
        return contextual_values_or_nan(self.observable, self.bundle)

    def conditioned_average(self, condition: SystemDrain):
        """``sum_D alpha_D P(D | condition)``, :func:`post_selected_average` of
        the contextual values, for any coupling model, on a point or a stack.
        Raises :class:`AmbiguousMeasurementError` for the first ambiguous
        point, and only then :class:`PostSelectionImpossibleError` for the
        first point where ``condition`` has vanishing probability: a divergent
        measurement is undefined whatever the post-selection."""
        cv = contextual_values(self.observable, self.bundle)
        require_post_selection({condition: self.stats.p_system(condition)})
        return post_selected_average(cv, self.stats, condition)


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
    return _plain(numerator / denom + 1j * (-t * v * np.sin(sys.tuning_phase) / denom), complex)


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

    ``n`` is an integer, or an array of an integer dtype; anything else
    raises ``ValueError``.
    """
    if not (isinstance(n, int) or np.asarray(n).dtype.kind in "iu"):
        raise ValueError(f"semiweak_value requires an integer n, got {n!r}")
    sign = 1.0 - 2.0 * (n % 2)
    t, numerator, v, denom = _zero_coupling(sys, condition)
    return _plain((numerator - t * sign * v * np.cos(sys.tuning_phase)) / denom)
