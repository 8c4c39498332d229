"""Coupling fluctuations, drain-event sampling, and estimator statistics.

A sampled event sequence is a ``uint8`` array of category codes
``2 d + s`` over the row-major joint drain table: 0 = (D1,S1),
1 = (D1,S2), 2 = (D2,S1), 3 = (D2,S2).

Random numbers come from numpy's Philox counter-based generator
(``philox4x64``), keyed directly by the caller's 64-bit seed, so event
streams are bit-reproducible across platforms.  The sampler draws its
uniforms in fixed-size chunks from one generator; event ``i`` always takes
uniform ``i``, so the codes are the same for any chunk size.  A fluctuating
coupling enters only through the table it samples: the exact average
:func:`averaged_joint_table`, which is the closed-form table at the
fringe bundles averaged over the coupling model.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace

import numpy as np
from numpy.random import Generator, Philox
from numpy.random.bit_generator import ISeedSequence

from .errors import ObservableRangeError
from .measurement import ContextualValues, reconstruct_average
from .params import (CouplingModel, DetectorParams, FringeParams, InterferometerConfig, JointInterferenceParams,
                     SystemParams, damping_eta, detector_params, joint_interference_params, system_params)
from .scattering import JointStatistics, fringe_probability_table

RNG_ALGORITHM = "philox4x64"

_CHUNK = 1 << 16  # events per streaming chunk; bounds the sampler's working memory


@dataclass(frozen=True)
class EstimateReport:
    """Result of the contextual-value estimator over one event sequence.

    ``predicted_mse`` is the contextual-value variance over the event
    count, evaluated with the exact drain probabilities;
    ``empirical_variance`` is the unbiased sample variance of the
    per-event values divided by ``n`` (zero when ``n == 1``).
    """

    estimate: float
    n: int
    empirical_variance: float
    predicted_mse: float
    mse_upper_bound: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.empirical_variance < 0.0 or self.predicted_mse < 0.0:
            raise ValueError("variances must be non-negative")


@dataclass(frozen=True)
class ObservationBudget:
    """Observation-time budgeting inputs.

    ``tau_m`` is the mean time per detector absorption; when omitted it
    defaults to the time of flight ``path_length / fermi_velocity``.  The
    time per unit of ``alpha_D1^2 + alpha_D2^2``, ``tau_m / target_rms^2``,
    must be a finite number.
    """

    path_length: float
    fermi_velocity: float
    target_rms: float
    tau_m: float | None = None

    def __post_init__(self):
        if self.path_length <= 0 or self.fermi_velocity <= 0 or self.target_rms <= 0:
            raise ValueError("budget parameters must be positive")
        if self.tau_m is not None and self.tau_m <= 0:
            raise ValueError("tau_m must be positive when given")
        rms_squared = self.target_rms * self.target_rms
        if not (0.0 < rms_squared < math.inf
                and math.isfinite(self.mean_absorption_time / rms_squared)):
            raise ValueError("the observation time per unit alpha^2, tau_m / target_rms^2, "
                             "is not a finite number")

    @property
    def mean_absorption_time(self) -> float:
        if self.tau_m is not None:
            return self.tau_m
        return self.path_length / self.fermi_velocity


def raised_cosine_pdf(gamma_prime, model: CouplingModel):
    """Density of the raised-cosine coupling distribution.

    ``(1/2 sigma)(1 + cos(pi (g' - gamma) / sigma))`` on the compact
    support ``[gamma - sigma, gamma + sigma]``, zero outside.  Every input
    may be an array; a scalar gives a Python float.

    Raises ``ValueError`` for ``sigma = 0`` at any point: the distribution
    degenerates to a point mass, which callers should treat as
    deterministic coupling.
    """
    sigma = model.sigma
    if np.any(sigma <= 0.0):
        raise ValueError("raised-cosine density undefined at sigma = 0 (degenerate)")
    y = np.asarray(gamma_prime - model.gamma)
    # the support is multiplied in: 1 + cos is finite and non-negative
    density = (abs(y) < sigma) * ((1.0 + np.cos(math.pi * y / sigma)) / (2.0 * sigma))
    return density if density.ndim else float(density)


def _averaged_coupling_term(big_gamma, cos_phase, model: CouplingModel, eta):
    """``Gamma_bar = p (eta Gamma + (1 - eta) cos(phase) / 2)``: a coupling
    term ``Gamma = sin(g/2) sin(g/2 + phase) = (cos(phase) - cos(g + phase)) / 2``
    averaged over the coupling model.  The raised cosine damps
    ``cos(g + phase)`` by ``eta = eta(sigma)``, and an unpaired emission has
    ``Gamma = 0``.  At ``sigma = 0, p = 1`` this is ``Gamma``, bit for bit."""
    return model.pair_probability * (eta * big_gamma + (1.0 - eta) * cos_phase / 2.0)


def _averaged_params(p: FringeParams, model: CouplingModel, eta) -> FringeParams:
    gamma_bar = _averaged_coupling_term(p.Gamma, p.Delta + p.Gamma, model, eta)
    return replace(p, Gamma=gamma_bar, Delta=p.Delta + (p.Gamma - gamma_bar))


def averaged_detector_params(p: FringeParams, model: CouplingModel) -> FringeParams:
    """A detector (or system) bundle averaged over coupling fluctuations and
    unpaired emission, the exact average of its drain probabilities.

    Only ``Gamma`` and ``Delta`` change: ``Gamma`` is averaged with
    ``cos(phase) = Delta + Gamma``, and ``Delta_bar`` keeps ``Delta_bar +
    Gamma_bar = cos(phase)``.  Contextual values built from the result
    invert the averaged drain probabilities, with the ``1/Gamma_bar``
    amplification of an inefficient measurement.  The fields of ``p`` and
    ``model`` may be arrays.
    """
    return _averaged_params(p, model, damping_eta(model.sigma))


def averaged_bundles(
    det: InterferometerConfig, sys: InterferometerConfig, model: CouplingModel
) -> tuple[DetectorParams, SystemParams, JointInterferenceParams]:
    """The detector, system and joint (``phase = phi_d - phi_s``) bundles
    averaged over the coupling model, each as :func:`averaged_detector_params`
    averages a bundle, with ``eta(sigma)`` evaluated once.  Every field of
    the interferometers and of ``model`` may be an array.
    """
    gamma, eta = model.gamma, damping_eta(model.sigma)
    jp = joint_interference_params(det.tuning_phase, sys.tuning_phase, gamma)
    gamma_ds = _averaged_coupling_term(jp.Gamma_ds, np.cos(det.tuning_phase - sys.tuning_phase), model, eta)
    return (_averaged_params(detector_params(det, gamma), model, eta),
            _averaged_params(system_params(sys, gamma), model, eta),
            JointInterferenceParams(jp.Delta_ds + (jp.Gamma_ds - gamma_ds), gamma_ds))


def averaged_joint_table(
    det: InterferometerConfig, sys: InterferometerConfig, model: CouplingModel
) -> np.ndarray:
    """Joint drain table ``broadcast + (2, 2)`` averaged over the coupling
    model: the closed form :func:`~coupled_mzi.scattering.fringe_probability_table`
    at the :func:`averaged_bundles`.  Without fluctuations it is
    :func:`~coupled_mzi.scattering.joint_probability_table`, bit for bit.
    Every field of the interferometers and of ``model`` may be an array.
    """
    return fringe_probability_table(det, sys, *averaged_bundles(det, sys, model))


def _categories(u: np.ndarray, probs: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Codes by the right-side rule ``edge[k-1] <= u < edge[k]``, written
    into and returned as ``codes`` (``uint8``, the shape of ``u``).

    ``probs`` is one flat joint table ``(4,)`` with a positive cell; ``edge``
    is its cumulative sum of ``max(p, 0)``, one entry at a time.  Only the
    edges below the last category of positive probability are compared, so
    a ``u`` past them goes to that category, also when rounding leaves the
    last edge below 1.  A zero or negative (down to -1e-12) cell adds nothing
    to its edge, so its interval is empty and no such category is returned.
    """
    cells, last = probs.tolist(), 3
    while not cells[last] > 0.0:
        last -= 1
    codes.fill(0)
    edge = 0.0
    for p in cells[:last]:
        edge = edge + max(p, 0.0)
        codes += (edge <= u).view(np.uint8)  # the bools' bytes: no cast per element
    return codes


class _PhiloxKey(ISeedSequence):
    """The Philox key ``[seed, 0]`` of a 64-bit seed, as a seed sequence.

    ``Philox`` takes its key from a seed sequence as two 64-bit words, so
    ``Philox(_PhiloxKey(seed))`` has the state of ``Philox(key=seed)``,
    without the ``SeedSequence`` that ``Philox(key=seed)`` first draws from
    OS entropy and then drops.
    """

    def __init__(self, seed: int):
        self.seed = seed

    def generate_state(self, n_words, dtype=np.uint32):
        return np.array([self.seed, 0][:n_words], dtype=dtype)


def sample_events(stats: JointStatistics, n: int, seed: int) -> np.ndarray:
    """``n`` i.i.d. draws from the 4-category joint drain distribution.

    Returns ``uint8`` codes ``2 d + s``; event ``i`` uses uniform double
    ``i`` of the seed's stream, so the sequence is a pure function of ``seed``.
    """
    if stats.joint.shape != (2, 2):
        raise ValueError("sample_events draws from one joint table, "
                         f"got a stack of shape {stats.joint.shape}")
    if n < 1:
        raise ValueError("n must be at least 1")
    try:
        seed = operator.index(seed)  # integer types only: 1.9 and "7" are no seeds
    except TypeError:
        seed = -1  # rejected below
    if not (0 <= seed < 2**64):
        raise ValueError("seed must be a 64-bit unsigned integer")
    rng, flat = Generator(Philox(_PhiloxKey(seed))), stats.joint.ravel()
    codes = np.empty(n, dtype=np.uint8)
    uniforms = np.empty(min(n, _CHUNK))  # one buffer, refilled for each chunk
    for start in range(0, n, _CHUNK):
        u = uniforms[:min(_CHUNK, n - start)]
        _categories(rng.random(out=u), flat, codes[start:start + len(u)])
    return codes


def contextual_estimate(
    codes: np.ndarray,
    cv: ContextualValues,
    probabilities: tuple[float, float],
) -> EstimateReport:
    """Unbiased which-path estimate: the mean contextual value per event.

    Parameters
    ----------
    codes : ndarray of uint8
        Recorded drain absorptions as codes ``2 d + s``; only the detector
        drain ``d`` enters.
    cv : ContextualValues
        Finite drain weights from :func:`~coupled_mzi.measurement.contextual_values`.
    probabilities : (P_D1, P_D2)
        Exact detector drain probabilities, for the predicted mean squared
        error; the true mean is their :func:`~coupled_mzi.measurement.reconstruct_average`,
        which checks that they sum to 1.

    Returns
    -------
    EstimateReport
        Each event's value is ``a1`` or ``a2``: with ``n2`` events in D2 and
        ``n1 = n - n2``, the estimate is ``(a1 n1 + a2 n2) / n`` and the
        sample variance ``n1 n2 (a2 - a1)^2 / (n (n - 1))``.  Also
        ``predicted_mse = (a1^2 P1 + a2^2 P2 - mean^2) / n`` and the state-free
        bound ``(a1^2 + a2^2) / n``; one not finite raises ObservableRangeError.
    """
    n = int(np.size(codes))
    if n == 0:
        raise ValueError("event list is empty")
    a1, a2 = cv.alpha_d1, cv.alpha_d2
    if not (math.isfinite(a1) and math.isfinite(a2)):
        raise ValueError("contextual values must be finite numbers")
    n2 = int(np.count_nonzero(np.asarray(codes) >= 2))
    n1 = n - n2
    estimate = (a1 * n1 + a2 * n2) / n
    spread = a2 - a1  # products, not powers: an overflow is inf, not OverflowError
    empirical = n1 * n2 / (n * (n - 1)) * (spread * spread) / n if n > 1 else 0.0
    p1, p2 = probabilities
    mean_true = reconstruct_average(cv, p1, p2)
    predicted = max(0.0, (a1 * a1 * p1 + a2 * a2 * p2 - mean_true * mean_true) / n)
    upper = (a1 * a1 + a2 * a2) / n
    if not all(map(math.isfinite, (estimate, empirical, predicted, upper))):
        raise ObservableRangeError("the estimator report")
    return EstimateReport(estimate, n, empirical, predicted, upper)


def observation_time(cv: ContextualValues, budget: ObservationBudget) -> float:
    """Observation time guaranteeing the budget's RMS error target.

    ``T = tau_m (alpha_D1^2 + alpha_D2^2) / epsilon^2``: amplified
    contextual values (ambiguous measurements) lengthen the observation
    proportionally.  For an unambiguous measurement this is
    ``2 tau_m / epsilon^2``.
    """
    return (
        budget.mean_absorption_time
        * (cv.alpha_d1 * cv.alpha_d1 + cv.alpha_d2 * cv.alpha_d2)
        / (budget.target_rms * budget.target_rms)
    )
