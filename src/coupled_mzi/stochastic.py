"""Coupling fluctuations, drain-event sampling, and estimator statistics.

An event is a category code ``2 d + s`` over the row-major joint drain table:
0 = (D1,S1), 1 = (D1,S2), 2 = (D2,S1), 3 = (D2,S2).  :func:`sample_events`
returns the codes, :func:`sample_events_tally` only their four counts.

Random numbers come from numpy's Philox counter-based generator
(``philox4x64``), keyed directly by the caller's 64-bit seed, so event
streams are bit-reproducible across platforms.  Both samplers draw their
uniforms in fixed-size chunks from one generator; event ``i`` always takes
uniform ``i``, so codes and counts are the same for any chunk size.  Over a
fluctuating coupling, ``montecarlo`` samples :func:`averaged_joint_table`, the
exact average that every ``scan`` and ``erasure`` column reads.  Its tables all
come from :func:`~coupled_mzi.scattering.joint_probability_table`, so the one
table that ``montecarlo`` samples has the bits of its point in a ``scan`` grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.random import Generator, Philox
from numpy.random.bit_generator import ISeedSequence

from .errors import ObservableRangeError
from .measurement import ContextualValues, reconstruct_average
from .params import CouplingModel, FringeParams, InterferometerConfig, _index, damping_eta
from .scattering import JointStatistics, joint_probability_table

RNG_ALGORITHM = "philox4x64"

# Events per streaming chunk of both samplers.  Their scratch is one chunk of
# uniforms (8 bytes an event) and one of comparison flags (1 byte): 144 KiB at
# 16384, whatever the event count, while a chunk's few numpy calls stay small
# against Philox's ~5 ns per event: warm, on a 2-vCPU Xeon, 2e6 events take
# 5.9 ns each at 16384 as at 65536, and 6.8 ns at 4096.
_CHUNK = 1 << 14


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


def averaged_detector_params(p: FringeParams, model: CouplingModel) -> FringeParams:
    """A detector bundle averaged over coupling fluctuations and
    unpaired emission, the exact average of its drain probabilities.

    Only ``Gamma`` and ``Delta`` change.  ``Gamma = sin(g/2) sin(g/2 +
    phase) = (cos(phase) - cos(g + phase)) / 2``, with ``cos(phase) = Delta
    + Gamma``; the raised cosine damps ``cos(g + phase)`` by ``eta =
    eta(sigma)`` and an unpaired emission has ``Gamma = 0``, so ``Gamma_bar
    = p (eta Gamma + (1 - eta) cos(phase) / 2)``, and ``Delta_bar`` keeps
    ``Delta_bar + Gamma_bar = cos(phase)``.  At ``sigma = 0, p = 1`` the
    bundle comes back bit for bit.  Contextual values built from the result
    invert the averaged drain probabilities, with the ``1/Gamma_bar``
    amplification of an inefficient measurement.  The fields of ``p`` and
    ``model`` may be arrays.
    """
    eta = damping_eta(model.sigma)
    gamma_bar = model.pair_probability * (eta * p.Gamma + (1.0 - eta) * (p.Delta + p.Gamma) / 2.0)
    return replace(p, Gamma=gamma_bar, Delta=p.Delta + (p.Gamma - gamma_bar))


def averaged_joint_table(
    det: InterferometerConfig, sys: InterferometerConfig, model: CouplingModel
) -> JointStatistics:
    """Joint drain statistics, one table or a stack, averaged over the
    coupling model, from the tables ``P(g)`` of :func:`joint_probability_table`.

    Where ``sigma = 0`` and ``p = 1`` at every point, this is the one table
    ``P(gamma)``.  Otherwise a cell is ``A + B cos g + C sin g``, the raised
    cosine damps the harmonics by ``eta(sigma)``, and an unpaired emission
    has ``g = 0``: the average is the mixture of non-negative weights ``p eta
    P(gamma) + p (1 - eta) / 2 P(pi) + (p (1 - eta) / 2 + 1 - p) P(0)``.
    Every table comes from :func:`joint_probability_table`, so a point, its
    one-point stack and its place in any stack give the same bits; the
    average is checked once.  Every field may be an array.
    """
    gamma, sigma, p = model.gamma, model.sigma, model.pair_probability
    stack = isinstance(sigma, np.ndarray) or isinstance(p, np.ndarray)
    fluctuating = (sigma != 0.0) | (p != 1.0)
    if not (np.any(fluctuating) if stack else fluctuating):
        return JointStatistics(joint_probability_table(det, sys, gamma))
    eta = damping_eta(sigma)
    if stack:  # array weights broadcast over each table's cells; numbers weight them alike, bit for bit
        p, eta = np.expand_dims(p, (-2, -1)), np.expand_dims(eta, (-2, -1))
    tables = [joint_probability_table(det, sys, g) for g in (gamma, math.pi, 0.0)]
    paired, spread = p * eta, p * (1.0 - eta) / 2.0
    return JointStatistics(paired * tables[0] + spread * tables[1] + (spread + (1.0 - p)) * tables[2])


def _edges(probs: np.ndarray) -> list[float]:
    """The category edges of one flat joint table ``(4,)`` with a positive cell.

    An edge is the cumulative sum of ``max(p, 0)``, one entry at a time.
    Only the edges below the last category of positive probability are
    kept, so a ``u`` past them goes to that category, also when rounding
    leaves the last edge below 1.  A zero or negative (down to -1e-12) cell
    adds nothing to its edge, so its interval is empty and no such category
    is returned.
    """
    cells, last = probs.tolist(), 3
    while not cells[last] > 0.0:
        last -= 1
    edges, edge = [], 0.0
    for p in cells[:last]:
        edge = edge + max(p, 0.0)
        edges.append(edge)
    return edges


def _categories(u: np.ndarray, edges: list[float], codes: np.ndarray, flags: np.ndarray) -> np.ndarray:
    """Codes by the right-side rule ``edge[k-1] <= u < edge[k]`` over the
    :func:`_edges` of a table, written into and returned as ``codes``
    (``uint8``, the shape of ``u``): a code counts the edges at or below
    ``u``, each compared into ``flags``, a bool buffer of ``u``'s shape."""
    codes.fill(0)
    for edge in edges:
        codes += np.less_equal(edge, u, out=flags).view(np.uint8)
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


def _chunks(stats: JointStatistics, n: int, seed: int):
    """The samplers' checks and one chunk loop: ``n`` as an int, the :func:`_edges`, and per chunk
    ``(start, u, flags)``, the uniforms of events ``start`` on and a reused bool buffer of their shape."""
    if stats.joint.shape != (2, 2):
        raise ValueError(f"a sampler draws from one joint table, got a stack of shape {stats.joint.shape}")
    n, seed = _index(n, 0), _index(seed, -1)  # 10.0, 1.9 and "7" are rejected below
    if n < 1:
        raise ValueError("n must be an integer of at least 1")
    if not (0 <= seed < 2**64):
        raise ValueError("seed must be a 64-bit unsigned integer")
    rng, size = Generator(Philox(_PhiloxKey(seed))), min(n, _CHUNK)
    uniforms, flags = np.empty(size), np.empty(size, dtype=np.bool_)
    chunks = ((start, rng.random(out=uniforms[:min(_CHUNK, n - start)]), flags[:min(_CHUNK, n - start)])
              for start in range(0, n, _CHUNK))
    return n, _edges(stats.joint.ravel()), chunks


def sample_events(stats: JointStatistics, n: int, seed: int) -> np.ndarray:
    """``n`` i.i.d. draws from the 4-category joint drain distribution.

    Returns ``uint8`` codes ``2 d + s``; event ``i`` uses uniform double
    ``i`` of the seed's stream, so the sequence is a pure function of ``seed``."""
    n, edges, chunks = _chunks(stats, n, seed)
    codes = np.empty(n, dtype=np.uint8)
    for start, u, flags in chunks:
        _categories(u, edges, codes[start:start + u.size], flags)
    return codes


def sample_events_tally(stats: JointStatistics, n: int, seed: int) -> np.ndarray:
    """``np.bincount(sample_events(stats, n, seed), minlength=4)`` in memory that does not grow
    with ``n``: the events of code ``c`` or more are those at or above edge ``c - 1``, counted
    per chunk, and each count is a difference of two such tallies."""
    n, edges, chunks = _chunks(stats, n, seed)
    above = [0] * len(edges)
    for _, u, flags in chunks:
        for k, edge in enumerate(edges):
            above[k] += np.count_nonzero(np.less_equal(edge, u, out=flags))
    at_least = [n, *above, 0, 0, 0, 0][:5]  # the events of code 0 or more, ..., 4 or more
    return np.subtract(at_least[:4], at_least[1:])


_FLOAT_MIN = np.finfo(float).tiny  # the least positive normal float


def contextual_estimate(
    counts,
    cv: ContextualValues,
    probabilities: tuple[float, float],
) -> EstimateReport:
    """Unbiased which-path estimate: the mean contextual value per event.

    Parameters
    ----------
    counts : four integers
        Event counts per code ``2 d + s`` (:func:`sample_events_tally`, or
        ``np.bincount(codes, minlength=4)``), each of an integer type and
        non-negative, with a positive total; only the drain ``d`` enters.
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
    counts = [_index(c, -1) for c in counts] if np.ndim(counts) == 1 else []  # 1.0 is rejected below
    if len(counts) != 4 or min(counts) < 0 or sum(counts) == 0:
        raise ValueError("counts must be four non-negative integers with a positive total")
    n1, n2, n = counts[0] + counts[1], counts[2] + counts[3], sum(counts)
    a1, a2 = cv.alpha_d1, cv.alpha_d2
    if not (math.isfinite(a1) and math.isfinite(a2)):
        raise ValueError("contextual values must be finite numbers")
    estimate = (a1 * n1 + a2 * n2) / n
    spread = a2 - a1  # products, not powers: an overflow is inf, not OverflowError
    empirical = n1 * n2 / (n * (n - 1)) * (spread * spread) / n if n > 1 else 0.0
    if n > 1 and empirical < _FLOAT_MIN:
        # below the normal range each product rounds again: square the
        # spread's mantissa in [0.5, 1) instead, so only the scaling rounds
        mantissa, exponent = math.frexp(spread)
        empirical = math.ldexp(n1 * n2 / (n * (n - 1)) * (mantissa * mantissa) / n, 2 * exponent)
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
