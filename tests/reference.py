"""Closed forms and the paper's unitary construction, independent of the package.

The tests' oracles for the amplitude pipeline: the closed-form joint drain
table (acceptance criterion 02 and the closed-form checks), the detector's
transfer matrix and the joint table as products of QPC unitaries, and the
raised-cosine coupling density (the quadrature oracles of the fluctuation
average).  It reads only the fields of the configs it is given
(transmissions, reflections, scattering and tuning phases) and imports
nothing from ``coupled_mzi``; ``tests/test_layering.py`` checks that.

Each interferometer enters the closed form through its fringe bundle
(:func:`fringe`): the background weights ``beta_(+/-) = 1 +/- delta1
delta2``, the visibility ``V = epsilon1 epsilon2`` and the coupling term
``Gamma = sin(g/2) sin(g/2 + phase)`` (:func:`coupling`), with ``phase =
phi_d`` for the detector and ``-phi_s`` for the system, and ``Delta =
cos(phi) - Gamma``.  The pair enters through ``Delta_ds = cos(phi_d)
cos(phi_s) - Gamma_ds`` at ``phase = phi_d - phi_s``.  The package
exports only the detector's bundle (``detector_params``); the tests read the
system and pair bundles, and the joint-interference term Xi
(:func:`joint_interference`), from this module.
"""

import cmath
import math

import numpy as np

_PI_LOW = 1.2246467991473532e-16  # pi - math.pi, rounded; also sin(math.pi)


def damping_eta(sigma):
    """``E[cos(g' - gamma)]`` over the raised cosine of half-width ``sigma``:
    ``pi^2 sin(sigma) / (sigma (pi - sigma)(pi + sigma))``, 1 at ``sigma = 0``.
    ``pi - sigma`` is the exact ``math.pi - sigma`` plus the part of pi
    below ``math.pi``, so the value holds its digits up to ``sigma = pi``."""
    s = np.asarray(sigma, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        eta = math.pi**2 * np.sin(s) / (s * ((math.pi - s + _PI_LOW) * (math.pi + s)))
    return np.where(s == 0.0, 1.0, eta)


def qpc_unitary(T, chi, xi) -> np.ndarray:
    """Scattering matrix of one QPC of transmission ``T``: rows are input
    arms, columns output arms, ``[[e^{i chi} t, e^{i xi} r], [e^{i chi} r,
    e^{i xi} t]]`` with ``t = sqrt(T)`` and ``r = i sqrt(1 - T)``."""
    t, r = math.sqrt(T), 1j * math.sqrt(1.0 - T)
    a, b = cmath.exp(1j * chi), cmath.exp(1j * xi)
    return np.array([[a * t, b * r], [a * r, b * t]])


def detector_transfer(det, gamma, arm) -> np.ndarray:
    """The detector's transfer matrix ``U1 diag(e^{i(phi_d + gamma [arm = U])},
    1) U2`` while the system is on ``arm`` (0 for ``L^s``, 1 for ``U^s``):
    row 0 is the injected arm, columns the drains ``(D1, D2)``.  The
    coupling phase falls on the transmitted path, and the first QPC's
    phases enter through ``phi_d``, so its unitary carries none."""
    u1 = qpc_unitary(det.qpc1.transmission, 0.0, 0.0)
    u2 = qpc_unitary(det.qpc2.transmission, det.qpc2.chi, det.qpc2.xi)
    return u1 @ np.diag([cmath.exp(1j * (det.tuning_phase + gamma * arm)), 1.0]) @ u2


def unitary_table(det, sys, gamma) -> np.ndarray:
    """The joint drain table ``|c|^2``, indexed ``[detector drain, system
    drain]``, of the paper's product of unitaries: ``c[D, S] = sum_a psi[a]
    M_a[0, D] U2[a, S]``.  ``psi`` is row 0 of ``U1 diag(e^{i phi_s}, 1)``,
    the system's arms after its first QPC, ``M_a`` the detector's transfer
    matrix while the system is on arm ``a`` (:func:`detector_transfer`) and
    ``U2`` the system's second QPC.  Unlike the package's cells, these
    amplitudes carry the second QPCs' phases, and the table is not divided
    by its sum."""
    u1 = qpc_unitary(sys.qpc1.transmission, 0.0, 0.0)
    psi = (u1 @ np.diag([cmath.exp(1j * sys.tuning_phase), 1.0]))[0]
    u2 = qpc_unitary(sys.qpc2.transmission, sys.qpc2.chi, sys.qpc2.xi)
    c = sum(psi[a] * np.outer(detector_transfer(det, gamma, a)[0], u2[a]) for a in (0, 1))
    return c.real * c.real + c.imag * c.imag


def raised_cosine_pdf(g, gamma, sigma):
    """Density ``(1 + cos(pi (g - gamma) / sigma)) / (2 sigma)`` of the
    raised-cosine coupling distribution on ``[gamma - sigma, gamma +
    sigma]``, zero outside.  Every argument may be an array; numbers give a
    Python float.  Raises ``ValueError`` for ``sigma = 0`` at any point: the
    distribution is then a point mass, a deterministic coupling."""
    if np.any(sigma <= 0.0):
        raise ValueError("raised-cosine density undefined at sigma = 0 (degenerate)")
    y = np.asarray(g - gamma)
    # the support is multiplied in: 1 + cos is finite and non-negative
    density = (abs(y) < sigma) * ((1.0 + np.cos(math.pi * y / sigma)) / (2.0 * sigma))
    return density if density.ndim else float(density)


def _balance(q):
    """``delta = T - R`` and ``epsilon = 2 sqrt(T R)`` of one contact."""
    return q.transmission - q.reflection, 2.0 * np.sqrt(q.transmission * q.reflection)


def coupling(gamma, phase, product, eta=1.0, p=1.0):
    """``(Gamma_bar, Delta_bar)`` of the coupling term ``Gamma = sin(g/2)
    sin(g/2 + phase)`` at ``g = gamma``, where ``Delta + Gamma = product``.

    ``eta`` and ``p`` average it over the coupling model, ``Gamma_bar = p
    (eta Gamma + (1 - eta) cos(phase) / 2)`` with ``Delta_bar + Gamma_bar =
    product``; with the defaults ``Gamma_bar`` is ``Gamma`` and
    ``Delta_bar`` is ``product - Gamma``, bit for bit.
    """
    half = gamma / 2.0
    big = np.sin(half) * np.sin(half + phase)
    bar = p * (eta * big + (1.0 - eta) * np.cos(phase) / 2.0)
    return bar, (product - big) + (big - bar)


def fringe(ifm, gamma, phase, eta=1.0, p=1.0):
    """The fringe bundle ``(beta_plus, beta_minus, V, Gamma_bar,
    Delta_bar)`` of one interferometer, its coupling term at ``phase``
    (``phi_d`` for the detector, ``-phi_s`` for the system)."""
    (d1, e1), (d2, e2) = _balance(ifm.qpc1), _balance(ifm.qpc2)
    return (1.0 + d1 * d2, 1.0 - d1 * d2, e1 * e2,
            *coupling(gamma, phase, np.cos(ifm.tuning_phase), eta, p))


def joint_interference(det, sys, gamma):
    """The joint-interference term of the conditioned averages, ``Xi =
    Delta_ds - Delta_d Delta_s + Gamma_s (delta1_d Delta_d + delta2_d
    epsilon1_d^2 / V_d)``, with ``Delta_ds`` the pair's term at ``phase =
    phi_d - phi_s`` and product ``cos(phi_d) cos(phi_s)``."""
    pd, ps = det.tuning_phase, sys.tuning_phase
    (d1d, e1d), (d2d, _) = _balance(det.qpc1), _balance(det.qpc2)
    _, _, vd, _, dd = fringe(det, gamma, pd)
    *_, gs, ds = fringe(sys, gamma, -ps)
    dds = coupling(gamma, pd - ps, np.cos(pd) * np.cos(ps))[1]
    return dds - dd * ds + gs * (d1d * dd + d2d * e1d * e1d / vd)


def closed_form_table(det, sys, gamma, sigma=0.0, pair_probability=1.0) -> np.ndarray:
    """Joint drain table ``broadcast + (2, 2)``, indexed ``[..., detector
    drain, system drain]``, at coupling phase ``gamma``; every argument and
    field may be an array.

    With ``sigma > 0`` or ``pair_probability < 1`` it is the average over
    the coupling model: the table is affine in the three coupling terms, so
    each ``Gamma`` becomes ``Gamma_bar = p (eta Gamma + (1 - eta) cos(phase)
    / 2)`` (the raised cosine damps ``cos(g + phase)`` by ``eta``, and an
    unpaired emission has ``Gamma = 0``), and ``Delta`` keeps ``Delta +
    Gamma``.  Without fluctuations ``Gamma_bar`` is ``Gamma``, bit for bit.
    """
    eta, p = damping_eta(sigma), pair_probability
    pd, ps = det.tuning_phase, sys.tuning_phase
    d1d, d2d, d1s, d2s = (q.transmission - q.reflection for q in (det.qpc1, det.qpc2, sys.qpc1, sys.qpc2))
    bpd, bmd, vd, gd, dd = fringe(det, gamma, pd, eta, p)
    bps, bms, vs, gs, ds = fringe(sys, gamma, -ps, eta, p)
    joint = vd * vs * coupling(gamma, pd - ps, np.cos(pd) * np.cos(ps), eta, p)[1]
    det_plus = dd * bps + gd * (d1s + d2s)
    det_minus = dd * bms + gd * (d1s - d2s)
    sys_plus = ds * bpd - gs * (d1d + d2d)
    sys_minus = ds * bmd - gs * (d1d - d2d)
    table = np.array([
        [0.25 * (bpd * bps + joint - vd * det_plus - vs * sys_plus),
         0.25 * (bpd * bms - joint - vd * det_minus + vs * sys_plus)],
        [0.25 * (bmd * bps - joint + vd * det_plus - vs * sys_minus),
         0.25 * (bmd * bms + joint + vd * det_minus + vs * sys_minus)]])
    return table.transpose(*range(2, table.ndim), 0, 1)  # sweep axes before the table's
