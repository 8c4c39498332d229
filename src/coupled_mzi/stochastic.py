"""Coupling fluctuations, drain-event sampling, and estimator statistics.

A sampled event sequence is a ``uint8`` array of category codes
``2 d + s`` over the row-major joint drain table: 0 = (D1,S1),
1 = (D1,S2), 2 = (D2,S1), 3 = (D2,S2).

Random numbers come from numpy's Philox counter-based generator
(``philox4x64``), keyed directly by the caller's 64-bit seed, so event
streams are bit-reproducible across platforms and can be read from any
position: the generator consumes one 64-bit word per uniform double and
``Philox.advance(k)`` skips ``4 k`` words.  The samplers stream their
uniforms in fixed-size chunks, each read at its exact word offset, so the
codes are the same for any chunk size.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np
from numpy.random import Generator, Philox

from .errors import AmbiguousMeasurementError
from .measurement import DIVERGENCE_THRESHOLD, ContextualValues
from .params import CouplingModel, DetectorParams, InterferometerConfig, damping_eta
from .scattering import JointStatistics, _harmonic, _harmonic_tables

RNG_ALGORITHM = "philox4x64"

_CHUNK = 1 << 16  # events per streaming chunk; bounds the samplers' working memory


@dataclass(frozen=True)
class EstimateReport:
    """Result of the contextual-value estimator over one event sequence.

    ``predicted_mse`` is the contextual-value variance over the event
    count, evaluated with exact drain probabilities when supplied (the
    empirical frequencies otherwise); ``empirical_variance`` is the
    unbiased sample variance of the per-event values divided by ``n``
    (zero when ``n == 1``).
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


def raised_cosine_pdf(gamma_prime: float, model: CouplingModel) -> float:
    """Density of the raised-cosine coupling distribution.

    ``(1/2 sigma)(1 + cos(pi (g' - gamma) / sigma))`` on the compact
    support ``[gamma - sigma, gamma + sigma]``, zero outside.

    Raises ``ValueError`` for ``sigma = 0``: the distribution degenerates
    to a point mass, which callers should treat as deterministic coupling.
    """
    if model.sigma <= 0.0:
        raise ValueError("raised-cosine density undefined at sigma = 0 (degenerate)")
    y = gamma_prime - model.gamma
    if abs(y) >= model.sigma:
        return 0.0
    return (1.0 + math.cos(math.pi * y / model.sigma)) / (2.0 * model.sigma)


# Taylor coefficients of (s - sin s) / s^3 in powers of s^2
_S_MINUS_SIN = tuple((-1) ** k / math.factorial(2 * k + 3) for k in range(8))


def _raised_cosine_ppf(u: np.ndarray, model: CouplingModel) -> np.ndarray:
    """Inverse CDF by safeguarded Newton iteration on the closed-form CDF.

    With ``t = pi (g' - gamma) / sigma`` the CDF is ``(t + pi + sin t) / 2 pi``.
    From the nearer support edge, ``s = pi - |t|`` solves the increasing,
    convex ``s - sin s = b = 2 pi min(u, 1 - u)`` (a Taylor series below 1
    avoids cancellation, so precision holds up to the edges).  The cube-root
    start ``c (1 + c^2 / 60)``, ``c = (6 b)^(1/3)``, is a lower bound and
    ``(pi + b) / 2`` an upper one; three clipped Newton steps reach 2 ulp,
    with bisection where the slope ``1 - cos s`` (the PDF) vanishes.
    """
    b = 2.0 * math.pi * np.minimum(u, 1.0 - u)
    c = np.cbrt(6.0 * b)
    s = lo = c * (1.0 + c * c / 60.0)
    hi = np.minimum(0.5 * (math.pi + b), math.pi)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(3):
            f = s - np.sin(s)
            small = s < 1.0
            near = s[small]
            f[small] = near**3 * np.polynomial.polynomial.polyval(near * near, _S_MINUS_SIN)
            f -= b
            lo = np.where(f < 0.0, s, lo)
            hi = np.where(f < 0.0, hi, s)
            step = s - f / (2.0 * np.sin(0.5 * s) ** 2)
            s = np.where(np.isfinite(step), np.clip(step, lo, hi), 0.5 * (lo + hi))
    t = np.where(u < 0.5, s - math.pi, math.pi - s)
    return model.gamma + model.sigma * t / math.pi


def averaged_detector_params(p: DetectorParams, model: CouplingModel) -> DetectorParams:
    """Detector parameters averaged over coupling fluctuations and unpaired
    emission, the exact average of the drain probabilities.

    Only ``Gamma`` and ``Delta`` change.  ``Gamma = sin(g/2) sin(g/2 + phi)
    = (cos phi - cos(g + phi)) / 2`` and the raised cosine damps
    ``cos(g + phi)`` by ``eta(sigma)``, while an unpaired emission has
    ``Gamma = 0``.  So ``Gamma_bar = p (eta Gamma + (1 - eta) cos(phi) / 2)``
    with ``cos(phi) = Delta + Gamma``, and ``Delta_bar`` keeps ``Delta_bar +
    Gamma_bar = cos(phi)``.  At ``sigma = 0, p = 1`` both come back
    unchanged, bit for bit.  Contextual values built from the result invert
    the averaged drain probabilities, with the ``1/Gamma_bar`` amplification
    of an inefficient measurement.  The fields of ``p`` and ``model`` may be
    arrays.
    """
    eta = damping_eta(model.sigma)
    gamma_bar = model.pair_probability * (eta * p.Gamma + (1.0 - eta) * (p.Delta + p.Gamma) / 2.0)
    return replace(p, Gamma=gamma_bar, Delta=p.Delta + (p.Gamma - gamma_bar))


def averaged_joint_table(
    det: InterferometerConfig, sys: InterferometerConfig, model: CouplingModel
) -> np.ndarray:
    """Joint drain table ``(2, 2)`` averaged over the coupling model.

    With ``P(g) = A + B cos g + C sin g`` and the raised cosine giving
    ``E[cos g'] = eta cos gamma``, ``E[sin g'] = eta sin gamma``, the average
    is ``p (A + eta (B cos gamma + C sin gamma)) + (1 - p) (A + B)``: the
    unpaired emissions see ``g = 0``.
    """
    a, b, c = _harmonic_tables(det, sys)
    eta, p = damping_eta(model.sigma), model.pair_probability
    paired = a + eta * (b * math.cos(model.gamma) + c * math.sin(model.gamma))
    return p * paired + (1.0 - p) * (a + b)


def _stream(seed: int, offset: int) -> Generator:
    """Generator positioned at word ``offset`` of the seed's Philox stream."""
    rng = Generator(Philox(key=seed).advance(offset // 4))
    rng.random(offset % 4)
    return rng


def _categories(u: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Codes by the right-side rule ``edge[k-1] <= u < edge[k]``.

    ``probs`` is one flat joint table ``(4,)`` or one per uniform ``(m, 4)``;
    ``edge`` is its cumulative sum, accumulated one column at a time.  A
    ``u`` at or past the last edge (which rounding can leave below 1) goes
    to the last category of nonzero probability, so no zero-probability
    category is ever returned.
    """
    codes = np.zeros(u.shape, dtype=np.uint8)
    edge = 0.0
    for k in range(4):
        edge = edge + probs[..., k]
        codes += edge <= u
    last = 3 - np.argmax(probs[..., ::-1] > 0.0, axis=-1)
    return np.minimum(codes, np.asarray(last, dtype=np.uint8))


def _sample_codes(n: int, seed: int, blocks: int, tables: Callable[..., np.ndarray]) -> np.ndarray:
    """``n`` codes streamed in chunks of ``_CHUNK`` events.

    Block ``j`` of ``blocks`` consecutive ``n``-uniform blocks starts at word
    ``j n``; ``tables`` maps a chunk of every block but the last to joint
    tables, and the last block picks the categories.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    seed = int(seed)
    if not (0 <= seed < 2**64):
        raise ValueError("seed must be a 64-bit unsigned integer")
    streams = [_stream(seed, j * n) for j in range(blocks)]
    codes = np.empty(n, dtype=np.uint8)
    for start in range(0, n, _CHUNK):
        count = min(_CHUNK, n - start)
        *u_model, u_cat = (rng.random(count) for rng in streams)
        codes[start:start + count] = _categories(u_cat, tables(*u_model))
    return codes


def sample_events(stats: JointStatistics, n: int, seed: int) -> np.ndarray:
    """``n`` i.i.d. draws from the 4-category joint drain distribution.

    Returns ``uint8`` codes ``2 d + s``; event ``i`` uses uniform double
    ``i`` of the seed's stream, so the sequence is a pure function of ``seed``.
    """
    flat = stats.joint.reshape(4)  # one table: a stack of them raises ValueError here
    return _sample_codes(n, seed, 1, lambda: flat)


def sample_events_fluctuating(
    det: InterferometerConfig,
    sys: InterferometerConfig,
    model: CouplingModel,
    n: int,
    seed: int,
) -> np.ndarray:
    """Validation-mode sampler that draws a coupling phase per event.

    Each event draws its own coupling phase from the raised-cosine
    distribution (point mass at ``gamma`` when ``sigma = 0``), replaces it
    by zero for unpaired emissions (probability ``1 - pair_probability``),
    and then samples the drain pair from the exact joint distribution at
    that phase, as a ``uint8`` code ``2 d + s``.  The stream consumes three
    uniform blocks of length ``n`` (phase, pairing, category) regardless of
    the model, so results are a pure function of ``(seed, n)``.

    Events are i.i.d., so their distribution is :func:`averaged_joint_table`,
    which ``montecarlo`` samples with :func:`sample_events` at plain-sampler
    cost; this sampler is the reference that table is tested against.
    """
    harmonic = _harmonic_tables(det, sys).reshape(3, 4)

    def tables(u_phase: np.ndarray, u_pair: np.ndarray) -> np.ndarray:
        gammas = _raised_cosine_ppf(u_phase, model) if model.sigma > 0.0 else model.gamma
        return _harmonic(harmonic, np.where(u_pair < model.pair_probability, gammas, 0.0))

    return _sample_codes(n, seed, 3, tables)


def contextual_estimate(
    codes: np.ndarray,
    cv: ContextualValues,
    probabilities: tuple[float, float] | None = None,
) -> EstimateReport:
    """Unbiased which-path estimate: the mean contextual value per event.

    Parameters
    ----------
    codes : ndarray of uint8
        Recorded drain absorptions as codes ``2 d + s``; only the detector
        drain ``d`` enters.
    cv : ContextualValues
        Finite drain weights from :func:`~coupled_mzi.measurement.contextual_values`.
    probabilities : (P_D1, P_D2), optional
        Exact detector drain probabilities for the predicted mean squared
        error; empirical frequencies are used when omitted.

    Returns
    -------
    EstimateReport
        Each event's value is ``a1`` or ``a2``: with ``n2`` events in D2 and
        ``n1 = n - n2``, the estimate is ``(a1 n1 + a2 n2) / n`` and the
        sample variance ``n1 n2 (a2 - a1)^2 / (n (n - 1))``.  Also
        ``predicted_mse = (a1^2 P1 + a2^2 P2 - mean^2) / n`` and the
        state-free bound ``(a1^2 + a2^2) / n``.
    """
    n = int(np.size(codes))
    if n == 0:
        raise ValueError("event list is empty")
    a1, a2 = cv.alpha_d1, cv.alpha_d2
    if not (math.isfinite(a1) and math.isfinite(a2)):
        raise AmbiguousMeasurementError(math.nan, math.nan, DIVERGENCE_THRESHOLD)
    n2 = int(np.count_nonzero(np.asarray(codes) >= 2))
    n1 = n - n2
    estimate = (a1 * n1 + a2 * n2) / n
    spread = a2 - a1  # products, not powers: an overflow is inf, not OverflowError
    empirical = n1 * n2 / (n * (n - 1)) * (spread * spread) / n if n > 1 else 0.0
    if probabilities is None:
        p2 = n2 / n
        p1 = 1.0 - p2
    else:
        p1, p2 = probabilities
        if not abs(p1 + p2 - 1.0) <= 1e-9:
            raise ValueError("drain probabilities must sum to 1")
    mean_true = a1 * p1 + a2 * p2
    predicted = max(0.0, (a1 * a1 * p1 + a2 * a2 * p2 - mean_true * mean_true) / n)
    upper = (a1 * a1 + a2 * a2) / n
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
