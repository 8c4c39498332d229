"""Helpers shared by the test modules: the Pauli basis, interferometer builders
and closed-form drain probabilities.  Fixtures live in ``conftest.py``."""

import numpy as np

from coupled_mzi import InterferometerConfig, qpc_from_transmission

SIGMA_0 = np.eye(2, dtype=complex)
SIGMA_1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULI_BASIS = (SIGMA_0, SIGMA_1, SIGMA_2, SIGMA_3)
"""The identity and the Pauli matrices in the path basis ``(L^s, U^s)``."""


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


def squared_moduli(c: np.ndarray) -> np.ndarray:
    """``|c|^2 = re * re + im * im`` of each amplitude, without normalizing."""
    return c.real * c.real + c.imag * c.imag


def amplitude_concurrence(c: np.ndarray) -> np.ndarray:
    """Concurrence ``2 |det c|`` of joint drain amplitude tables ``c``: the
    second QPCs act as local unitaries, which leave the concurrence unchanged."""
    return 2.0 * np.abs(np.linalg.det(c))


def decompose_observable(a: np.ndarray) -> np.ndarray:
    """Components ``a_mu = Tr[A sigma_mu] / 2`` of a Hermitian 2x2 operator.

    The reconstruction ``sum_mu a_mu sigma_mu`` reproduces the input to
    1e-12; non-Hermitian input beyond 1e-9 is rejected.
    """
    a = np.asarray(a, dtype=complex)
    if a.shape != (2, 2):
        raise ValueError("observable must be a 2x2 matrix")
    if not np.max(np.abs(a - a.conj().T)) <= 1e-9:
        raise ValueError("observable is not Hermitian")
    return np.array([np.real(np.trace(a @ s)) / 2.0 for s in PAULI_BASIS])


def detector_drain_probabilities(p, delta_s1: float) -> tuple[float, float]:
    """Closed-form detector drain probabilities of the bundle ``p`` for system
    path bias ``delta_s1``: ``P_D1 = (beta_plus - V (Delta + delta_s1 Gamma)) / 2``."""
    shift = p.visibility * (p.Delta + delta_s1 * p.Gamma)
    return 0.5 * (p.beta_plus - shift), 0.5 * (p.beta_minus + shift)


def system_drain_probabilities(p, delta_d1: float) -> tuple[float, float]:
    """Closed-form system drain probabilities of the bundle ``p`` for detector
    path bias ``delta_d1``: ``P_S1 = (beta_plus - V (Delta - delta_d1 Gamma)) / 2``."""
    shift = p.visibility * (p.Delta - delta_d1 * p.Gamma)
    return 0.5 * (p.beta_plus - shift), 0.5 * (p.beta_minus + shift)
