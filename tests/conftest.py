import numpy as np
import pytest

from coupled_mzi import InterferometerConfig, qpc_from_transmission


def balanced_mzi(phi: float) -> InterferometerConfig:
    q = qpc_from_transmission(0.5)
    return InterferometerConfig(q, q, phi)


def random_mzi(rng: np.random.Generator, t_lo: float = 0.02, t_hi: float = 0.98) -> InterferometerConfig:
    q1 = qpc_from_transmission(rng.uniform(t_lo, t_hi), chi=rng.uniform(0, 2 * np.pi), xi=rng.uniform(0, 2 * np.pi))
    q2 = qpc_from_transmission(rng.uniform(t_lo, t_hi), chi=rng.uniform(0, 2 * np.pi), xi=rng.uniform(0, 2 * np.pi))
    return InterferometerConfig(q1, q2, rng.uniform(-2 * np.pi, 2 * np.pi))


def mzi(t1, chi1, xi1, t2, chi2, xi2, phi) -> InterferometerConfig:
    """An interferometer from its seven fields, each a number or an array."""
    return InterferometerConfig(qpc_from_transmission(t1, chi1, xi1),
                                qpc_from_transmission(t2, chi2, xi2), phi)


def random_stack(rng: np.random.Generator, n: int, t_lo: float = 0.02, t_hi: float = 0.98) -> np.ndarray:
    """Draws of ``n`` rounds of ``random_mzi(rng, t_lo, t_hi)`` twice and
    ``rng.uniform(0, 2 pi)``, as one ``(n, 15)`` array: ``rng.uniform(lo, hi)``
    is ``lo + (hi - lo) * rng.random()``, so the numbers are the same."""
    lo = np.array(2 * [t_lo, 0.0, 0.0, t_lo, 0.0, 0.0, -2 * np.pi] + [0.0])
    hi = np.array(2 * [t_hi, 2 * np.pi, 2 * np.pi, t_hi, 2 * np.pi, 2 * np.pi, 2 * np.pi] + [2 * np.pi])
    return lo + (hi - lo) * rng.random((n, 15))


def stacked_experiment(draws: np.ndarray) -> tuple[InterferometerConfig, InterferometerConfig, np.ndarray]:
    """Detector, system and coupling phase whose fields are the columns of
    :func:`random_stack` draws."""
    columns = np.ascontiguousarray(draws.T)
    return mzi(*columns[:7]), mzi(*columns[7:14]), columns[14]


def amplitude_concurrence(c: np.ndarray) -> np.ndarray:
    """Concurrence ``2 |det c|`` of joint drain amplitude tables ``c``: the
    second QPCs act as local unitaries, which leave the concurrence unchanged."""
    return 2.0 * np.abs(np.linalg.det(c))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
