"""Drain-event sampling, estimator statistics and the observation budget.

An event is a category code ``2 d + s`` over the row-major joint drain table:
0 = (D1,S1), 1 = (D1,S2), 2 = (D2,S1), 3 = (D2,S2).  :func:`sample_events`
returns the codes, :func:`sample_events_tally` only their four counts.

Random numbers come from numpy's Philox counter-based generator
(``philox4x64``), keyed directly by the caller's 64-bit seed, through the
legacy ``RandomState``, whose streams NEP 19 freezes across numpy versions.
Event ``i`` of :func:`sample_events` takes uniform double ``i`` of the raw
Philox stream, for any chunk size; :func:`sample_events_tally` draws the
counts in constant time as a chain of binomials from the same generator.
The legacy binomial takes its count as a C ``long``, so it raises
``OverflowError`` above ``2**63 - 1``, or above ``2**31 - 1`` where a
``long`` is 32 bits (Windows).  Over a fluctuating coupling, ``montecarlo``
samples ``AveragedExperiment.stats``, the exact average that every ``scan``
and ``erasure`` column reads.  Its tables all come from
:func:`~coupled_mzi.scattering.joint_probability_table`, so the one table
that ``montecarlo`` samples has the bits of its point in a ``scan`` grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np
from numpy.random import Philox, RandomState
from numpy.random.bit_generator import ISeedSequence

from .errors import ObservableRangeError
from .measurement import ContextualValues, reconstruct_average
from .params import _index, _require_finite
from .scattering import JointStatistics

RNG_ALGORITHM = "philox4x64"

# Events per streaming chunk of ``sample_events``.  Its scratch is one chunk of
# uniforms (8 bytes an event, freed before the next chunk's are drawn) and one
# of comparison flags (1 byte): 144 KiB at 16384, whatever the event count,
# while a chunk's few numpy calls stay small against Philox's ~5 ns per event:
# warm, on a 2-vCPU Xeon, 2e6 events take 5.8-6.4 ns each at 16384, 5.8-6.1 ns
# at 65536 and 7.0-7.4 ns at 4096.
_CHUNK = 1 << 14


@dataclass(frozen=True)
class EstimateReport:
    """Result of the contextual-value estimator over one event sequence.

    ``predicted_mse`` is the contextual-value variance over the event
    count, evaluated with the exact drain probabilities;
    ``empirical_variance`` is the unbiased sample variance of the
    per-event values divided by ``n`` (zero when ``n == 1``).  Every field
    is a finite number; a field that is not raises ``ValueError`` naming it.
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
        _require_finite(estimate=self.estimate, empirical_variance=self.empirical_variance,
                        predicted_mse=self.predicted_mse, mse_upper_bound=self.mse_upper_bound)


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
        _require_finite(path_length=self.path_length, fermi_velocity=self.fermi_velocity,
                        target_rms=self.target_rms, tau_m=1.0 if self.tau_m is None else self.tau_m)
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


def _cells(probs: np.ndarray) -> list[float]:
    """The cells ``max(p, 0)`` of one flat joint table ``(4,)`` with a positive
    cell, in code order up to its last category of positive probability.

    A zero or negative cell (down to ``-scattering._CELL_TOL``) is 0 here, and the
    cells past the last positive one are dropped, so no such category is ever drawn.
    """
    cells = [max(p, 0.0) for p in probs.tolist()]
    while not cells[-1] > 0.0:
        cells.pop()
    return cells


def _categories(u: np.ndarray, edges: list[float], codes: np.ndarray, flags: np.ndarray) -> np.ndarray:
    """Codes by the right-side rule ``edge[k-1] <= u < edge[k]`` over the running sums of a table's
    :func:`_cells` but the last (a ``u`` past them goes to the last positive category, also when
    rounding leaves the last edge below 1), written into and returned as ``codes`` (``uint8``, the
    shape of ``u``): a code counts the edges at or below ``u``, each compared into the bool buffer ``flags``."""
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


def _sampler(stats: JointStatistics, n: int, seed: int):
    """The samplers' checks: ``n`` as an int, the table's :func:`_cells` and the seed's generator."""
    if stats.joint.shape != (2, 2):
        raise ValueError(f"a sampler draws from one joint table, got a stack of shape {stats.joint.shape}")
    n, seed = _index(n, 0), _index(seed, -1)  # 10.0, 1.9 and "7" are rejected below
    if n < 1:
        raise ValueError("n must be an integer of at least 1")
    if not (0 <= seed < 2**64):
        raise ValueError("seed must be a 64-bit unsigned integer")
    return n, _cells(stats.joint.ravel()), RandomState(Philox(_PhiloxKey(seed)))


def sample_events(stats: JointStatistics, n: int, seed: int) -> np.ndarray:
    """``n`` i.i.d. draws from the 4-category joint drain distribution.

    Returns ``uint8`` codes ``2 d + s``; event ``i`` uses uniform double
    ``i`` of the seed's stream, so the sequence is a pure function of ``seed``."""
    n, cells, rng = _sampler(stats, n, seed)
    edges, size = list(accumulate(cells[:-1])), min(n, _CHUNK)
    flags, codes = np.empty(size, dtype=np.bool_), np.empty(n, dtype=np.uint8)
    for start in range(0, n, _CHUNK):
        stop = min(start + _CHUNK, n)  # a chunk's uniforms are freed before the next are drawn
        _categories(rng.random_sample(stop - start), edges, codes[start:stop], flags[:stop - start])
    return codes


def sample_events_tally(stats: JointStatistics, n: int, seed: int) -> np.ndarray:
    """The four category counts of ``n`` i.i.d. draws in constant time, from the multinomial law of
    ``np.bincount(sample_events(stats, n, seed), minlength=4)``: over the :func:`_cells`, cell ``k``
    takes ``binomial(left, c_k / (c_k + ... + c_last))`` of the ``left`` events, and the last
    positive cell the rest, so the counts sum to ``n``."""
    n, cells, rng = _sampler(stats, n, seed)
    counts, left = [0, 0, 0, 0], n
    for k in range(len(cells) - 1):
        counts[k] = int(rng.binomial(left, min(1.0, cells[k] / sum(cells[k:]))))
        left -= counts[k]
    counts[len(cells) - 1] = left
    return np.array(counts)


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
        non-negative, with a positive total of at most ``2**53``, the most
        events a double counts exactly; only the drain ``d`` enters.
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
    if n > 2**53:
        raise ValueError("counts total more than 2**53 events")
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
    ``2 tau_m / epsilon^2``.  A weight that is not a finite number (NaN, the
    ambiguity marker of ``contextual_values_or_nan``) raises ``ValueError``
    naming it.
    """
    _require_finite(alpha_d1=cv.alpha_d1, alpha_d2=cv.alpha_d2)
    return (
        budget.mean_absorption_time
        * (cv.alpha_d1 * cv.alpha_d1 + cv.alpha_d2 * cv.alpha_d2)
        / (budget.target_rms * budget.target_rms)
    )
