"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math

import numpy as np
from scipy.integrate import quad

from coupled_mzi import (
    AmbiguousMeasurementError,
    ContextualValues,
    InteractionGeometry,
    InterferometerConfig,
    JointStatistics,
    ObservableCoefficients,
    ObservationBudget,
    contextual_estimate,
    contextual_values,
    coupling_phase,
    damping_eta,
    detector_params,
    efficient_factorization,
    joint_amplitudes,
    joint_probability_table,
    measurement_operators,
    observation_time,
    position_phase,
    povm_expectation,
    povm_pair,
    qpc_from_transmission,
    reconstruct_average,
    reduced_system_state,
    sample_events_tally,
    semiweak_value,
    sequential_phase,
    weak_value,
)
from coupled_mzi.params import DetectorDrain, SystemDrain
from coupled_mzi.scattering import concurrence
from helpers import (
    SIGMA_3,
    amplitude_concurrence,
    balanced_mzi,
    mzi,
    random_mzi,
    random_stack,
    squared_moduli,
    stacked_experiment,
    steady,
)
from reference import closed_form_table, raised_cosine_pdf, unitary_table

OBS = ObservableCoefficients()


def report(criterion: int, label: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {criterion:02d}] {label}: {status} ({detail})")
    assert ok, f"criterion {criterion} ({label}) failed: {detail}"


def test_criterion_01_dual_pipeline_equality():
    draws = random_stack(np.random.default_rng(101), 10_000)
    det, sysm, gamma = stacked_experiment(draws)
    stats = JointStatistics(joint_probability_table(det, sysm, gamma))
    povm = povm_pair(measurement_operators(det, gamma))
    p1, p2 = povm_expectation(povm, reduced_system_state(sysm))
    worst = float(max(np.max(np.abs(stats.p_detector(DetectorDrain.D1) - p1)),
                      np.max(np.abs(stats.p_detector(DetectorDrain.D2) - p2))))
    # the independent route: the paper's product of QPC unitaries, point by point
    unitaries = np.array([unitary_table(mzi(*row[:7]), mzi(*row[7:14]), row[14]) for row in draws.tolist()])
    worst_unitaries = float(np.max(np.abs(stats.joint - unitaries)))
    report(1, "dual-pipeline drain probability equality", worst < 1e-12 and worst_unitaries < 1e-12,
           f"max |amplitude - POVM| = {worst:.3e}, max |amplitude - unitaries| = {worst_unitaries:.3e} "
           "over 10^4 configs")


def test_criterion_02_closed_form_probability_match():
    det, sysm, gamma = stacked_experiment(random_stack(np.random.default_rng(102), 10_000))
    pipeline = JointStatistics(joint_probability_table(det, sysm, gamma))
    closed = JointStatistics(closed_form_table(det, sysm, gamma))
    worst = float(max(
        np.max(np.abs(pipeline.joint - closed.joint)),
        np.max(np.abs(pipeline.detector_marginals - closed.detector_marginals)),
        np.max(np.abs(pipeline.system_marginals - closed.system_marginals)),
    ))
    report(2, "explicit closed-form probability match", worst < 1e-12,
           f"max |pipeline - closed form| = {worst:.3e} over 10^4 configs")


def test_criterion_03_contextual_value_identity():
    draws = random_stack(np.random.default_rng(103), 10_000)
    det, _, gamma = stacked_experiment(draws)
    p = detector_params(det, gamma)
    det, sysm, gamma = stacked_experiment(draws[np.abs(p.visibility * p.Gamma) > 1e-9])
    p = detector_params(det, gamma)
    cv = contextual_values(OBS, p)
    povm = povm_pair(measurement_operators(det, gamma))
    alpha_d1, alpha_d2 = (a[:, np.newaxis, np.newaxis] for a in (cv.alpha_d1, cv.alpha_d2))
    worst_matrix = float(np.max(np.abs(alpha_d1 * povm.e_d1 + alpha_d2 * povm.e_d2 - SIGMA_3)))
    stats = JointStatistics(joint_probability_table(det, sysm, gamma))
    value = reconstruct_average(
        cv, stats.p_detector(DetectorDrain.D1), stats.p_detector(DetectorDrain.D2)
    )
    worst_average = float(np.max(np.abs(value - sysm.qpc1.delta)))
    tested = gamma.size
    ok = worst_matrix < 1e-10 and worst_average < 1e-10 and tested > 9000
    report(3, "contextual-value operator identity and average", ok,
           f"matrix residual {worst_matrix:.3e}, average residual {worst_average:.3e}, "
           f"{tested} non-divergent configs")


def test_criterion_04_strong_coupling_limits():
    worst = 0.0
    for phi_d in (0.0, math.pi / 4, 3 * math.pi / 4, math.pi):
        cv = contextual_values(OBS, detector_params(balanced_mzi(phi_d), math.pi))
        worst = max(
            worst,
            abs(cv.alpha_d1 - (-1.0 / math.cos(phi_d))),
            abs(cv.alpha_d2 - (1.0 / math.cos(phi_d))),
        )
    cv0 = contextual_values(OBS, detector_params(balanced_mzi(0.0), math.pi))
    exact = (cv0.alpha_d1, cv0.alpha_d2) == (-1.0, 1.0)
    report(4, "strong-coupling contextual values", worst < 1e-12 and exact,
           f"max deviation from -/+1/cos(phi_d) = {worst:.3e}; phi_d=0 exact: {exact}")


def test_criterion_05_weak_semiweak_competition():
    sysm = InterferometerConfig(qpc_from_transmission(0.8), qpc_from_transmission(0.5), 0.0)
    gamma = 1e-4
    weak_limit = weak_value(sysm, SystemDrain.S1).real
    semi_limit = semiweak_value(sysm, 0, SystemDrain.S1)
    weak_avg = steady(balanced_mzi(math.pi / 2), sysm, gamma).conditioned_average(SystemDrain.S1)
    semi_avg = steady(balanced_mzi(0.0), sysm, gamma).conditioned_average(SystemDrain.S1)
    err_weak = abs(weak_avg - 3.0)
    err_semi = abs(semi_avg - (-1.0))
    ok = (
        err_weak < 1e-2
        and err_semi < 1e-2
        and abs(weak_limit - 3.0) < 1e-12
        and abs(semi_limit - (-1.0)) < 1e-12
    )
    report(5, "weak vs semi-weak limit competition", ok,
           f"pipeline at gamma=1e-4: weak {weak_avg:.6f} (target 3.0), "
           f"semi-weak {semi_avg:.6f} (target -1.0)")


def test_criterion_06_quantum_erasure_visibility():
    phi_grid = np.linspace(0.0, 2.0 * math.pi, 128, endpoint=False)
    worst_visibility = 0.0
    worst_cos = 0.0
    worst_flat = 0.0
    for phi_d in np.linspace(0.2, math.pi - 0.2, 9):
        det = balanced_mzi(float(phi_d))
        values = []
        unconditioned = []
        for phi_s in phi_grid:
            sysm = balanced_mzi(float(phi_s))
            stats = JointStatistics(joint_probability_table(det, sysm, math.pi))
            values.append(stats.joint[0, 0] / stats.p_detector(DetectorDrain.D1))
            unconditioned.append(stats.p_system(SystemDrain.S1))
        values = np.array(values)
        mean = values.mean()
        cos_amp = 2.0 * np.mean(values * np.cos(phi_grid))
        sin_amp = 2.0 * np.mean(values * np.sin(phi_grid))
        visibility = math.hypot(cos_amp, sin_amp) / mean
        worst_visibility = max(worst_visibility, abs(visibility - abs(math.sin(phi_d))))
        worst_cos = max(worst_cos, abs(cos_amp))  # quarter-period shift: pure sine fringe
        unconditioned = np.array(unconditioned)
        worst_flat = max(worst_flat, float(unconditioned.max() - unconditioned.min()))
    ok = worst_visibility < 1e-6 and worst_cos < 1e-9 and worst_flat < 1e-12
    report(6, "quantum-erasure visibility and phase shift", ok,
           f"|visibility - |sin(phi_d)|| <= {worst_visibility:.3e}, "
           f"cosine leakage {worst_cos:.3e}, unconditioned flatness {worst_flat:.3e}")


def test_criterion_07_concurrence_oracle():
    draws = random_stack(np.random.default_rng(107), 1000, t_lo=0.0, t_hi=1.0)
    det, sysm, gamma = stacked_experiment(draws)
    closed = concurrence(det.qpc1, sysm.qpc1, gamma)
    brute = amplitude_concurrence(joint_amplitudes(det, sysm, gamma))
    worst = float(np.max(np.abs(closed - brute)))
    q = qpc_from_transmission(0.5)
    maximal = concurrence(q, q, math.pi)
    ok = worst < 1e-10 and maximal == 1.0
    report(7, "concurrence closed form vs spin-flip oracle", ok,
           f"max |closed - brute force| = {worst:.3e} over 10^3 configs; "
           f"balanced strong-coupling value {maximal}")


def test_criterion_08_fluctuation_damping():
    rng = np.random.default_rng(108)
    worst = 0.0
    tested = 0
    while tested < 20:
        gamma = rng.uniform(0.0, 2.0 * math.pi)
        phi_d = rng.uniform(-math.pi, math.pi)
        sigma = rng.uniform(0.1, math.pi - 0.05)
        if abs(math.cos(gamma + phi_d)) < 0.1:
            continue  # keep the oracle denominator well conditioned
        averaged, _ = quad(
            lambda g: raised_cosine_pdf(g, gamma, sigma) * math.cos(g + phi_d),
            gamma - sigma,
            gamma + sigma,
            limit=400,
        )
        worst = max(worst, abs(averaged / math.cos(gamma + phi_d) - damping_eta(sigma)))
        tested += 1
    half_pi_err = abs(damping_eta(math.pi / 2) - 8.0 / (3.0 * math.pi))
    ok = worst < 1e-8 and half_pi_err < 1e-12
    report(8, "raised-cosine damping factor", ok,
           f"quadrature residual {worst:.3e} over 20 triples; "
           f"|eta(pi/2) - 8/(3 pi)| = {half_pi_err:.3e}")


def test_criterion_09_estimator_statistics():
    det = balanced_mzi(math.pi / 2)
    sysm = balanced_mzi(0.4)
    gamma = math.pi / 2
    stats = JointStatistics(joint_probability_table(det, sysm, gamma))
    cv = contextual_values(OBS, detector_params(det, gamma))
    probs = (stats.p_detector(DetectorDrain.D1), stats.p_detector(DetectorDrain.D2))
    truth = cv.alpha_d1 * probs[0] + cv.alpha_d2 * probs[1]

    n, runs = 10_000, 100
    estimates = []
    predicted = None
    for seed in range(runs):
        counts = sample_events_tally(stats, n, seed=900_000 + seed)
        rep = contextual_estimate(counts, cv, probabilities=probs)
        estimates.append(rep.estimate)
        predicted = rep.predicted_mse
    grand_bias = abs(float(np.mean(estimates)) - truth)
    standard_error = math.sqrt(predicted / runs)
    empirical_var = float(np.var(estimates, ddof=1))
    var_ratio = predicted / empirical_var

    sizes = [1_000, 10_000, 100_000]
    rms = []
    for k, size in enumerate(sizes):
        sq = []
        for run in range(60):
            counts = sample_events_tally(stats, size, seed=700_000 + 1000 * k + run)
            rep = contextual_estimate(counts, cv, probabilities=probs)
            sq.append((rep.estimate - truth) ** 2)
        rms.append(math.sqrt(np.mean(sq)))
    slope = float(np.polyfit(np.log(sizes), np.log(rms), 1)[0])

    strong_cv = ContextualValues(-1.0, 1.0)
    budget = ObservationBudget(path_length=1e-5, fermi_velocity=1e5, target_rms=0.1)
    bound = observation_time(strong_cv, budget)
    bound_ok = math.isclose(bound, 2.0 * budget.mean_absorption_time / 0.1**2, rel_tol=1e-12)

    ok = (
        grand_bias < 4.0 * standard_error
        and -0.55 <= slope <= -0.45
        and 0.8 <= var_ratio <= 1.2
        and bound_ok
    )
    report(9, "estimator bias, scaling, MSE, observation bound", ok,
           f"bias {grand_bias:.2e} vs 4SE {4 * standard_error:.2e}; slope {slope:.3f}; "
           f"predicted/empirical MSE {var_ratio:.3f}; strong bound 2 tau/eps^2: {bound_ok}")


def test_criterion_10_interaction_phase_consistency():
    base = InteractionGeometry(5e-6, 50e-9, 100e-9, 1e5, 8.9875e9)
    gamma_base = coupling_phase(base)
    worst_linearity = 0.0
    for factor in (0.5, 2.0, 10.0):
        scaled = InteractionGeometry(
            base.copropagation_length * factor,
            base.channel_separation,
            base.screening_length,
            base.propagation_speed,
            base.coulomb_constant,
        )
        worst_linearity = max(
            worst_linearity,
            abs(coupling_phase(scaled) / (factor * gamma_base) - 1.0),
        )
    endpoint_equal = coupling_phase(base) == position_phase(
        base.copropagation_length, base.copropagation_length, base
    )

    rng = np.random.default_rng(110)
    worst_shift = 0.0
    for _ in range(100):
        det, sysm = random_mzi(rng), random_mzi(rng)
        g = rng.uniform(0.0, 2.0 * math.pi)
        amps = joint_amplitudes(det, sysm, g)
        phase = sequential_phase(1.6e-21, 0.0, rng.uniform(1e-12, 1e-9))
        rotated = np.exp(-1j * phase) * amps
        diff = np.max(np.abs(squared_moduli(amps) - squared_moduli(rotated)))
        worst_shift = max(worst_shift, float(diff))
    ok = worst_linearity < 1e-12 and endpoint_equal and worst_shift < 1e-12
    report(10, "interaction-phase geometry consistency", ok,
           f"linearity residual {worst_linearity:.3e}; endpoint equality {endpoint_equal}; "
           f"sequential-phase probability shift {worst_shift:.3e}")


def test_criterion_11_efficient_factorization():
    phis = np.linspace(-math.pi, math.pi, 40)
    gammas = np.linspace(0.0, 2.0 * math.pi, 25)
    worst = 0.0
    for phi_d in phis:
        det = balanced_mzi(float(phi_d))
        for gamma in gammas:
            fact = efficient_factorization(det, float(gamma))
            m = measurement_operators(det, float(gamma))
            m1, m2 = fact.reconstruct()
            worst = max(
                worst,
                float(np.max(np.abs(m1 - m.m_d1))),
                float(np.max(np.abs(m2 - m.m_d2))),
            )
    report(11, "efficient-detection factorization", worst < 1e-12,
           f"max reconstruction residual {worst:.3e} over {len(phis) * len(gammas)} grid points")


def test_criterion_12_complementarity():
    # the amplification alpha_D1^2 + alpha_D2^2 is least at the maximally
    # wave-like (balanced) detector, where it is 2 (1 + Delta^2) / Gamma^2
    rng = np.random.default_rng(112)
    grid = np.linspace(0.02, 0.98, 49)
    qpcs = [qpc_from_transmission(float(t)) for t in grid]
    centre = int(np.flatnonzero(grid == 0.5)[0])
    worst = 0.0
    argmin_ok = True
    points = 0
    while points < 8:
        gamma, phi_d = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(-math.pi, math.pi)
        balanced = detector_params(balanced_mzi(phi_d), gamma)
        if abs(balanced.Gamma) <= 0.05:
            continue
        amplification = np.full((grid.size, grid.size), math.inf)
        for i, q1 in enumerate(qpcs):
            for j, q2 in enumerate(qpcs):
                try:
                    cv = contextual_values(
                        OBS, detector_params(InterferometerConfig(q1, q2, phi_d), gamma))
                except AmbiguousMeasurementError:
                    continue
                amplification[i, j] = cv.alpha_d1**2 + cv.alpha_d2**2
        least = amplification[centre, centre]
        argmin_ok &= bool(np.all(amplification >= least))
        expected = 2.0 * (1.0 + balanced.Delta**2) / balanced.Gamma**2
        worst = max(worst, abs(least / expected - 1.0))
        points += 1
    report(12, "complementarity: the balanced detector amplifies least", argmin_ok and worst < 1e-12,
           f"minimum at T_d1 = T_d2 = 1/2 on a 49x49 grid for {points} (gamma, phi_d): "
           f"{argmin_ok}; |value / (2 (1 + Delta^2) / Gamma^2) - 1| = {worst:.3e}")


def test_criterion_13_erasure_follows_ambiguity():
    # the conditional fringe P(S1 | D) over phi_s has amplitude
    # epsilon_2^s sqrt(w_L w_U) / (w_L + w_U), w_k = rho_kk E_D,kk: full
    # erasure exactly when drain D is fully ambiguous
    rng = np.random.default_rng(113)
    worst = 0.0
    largest = 0.0
    for _ in range(500):
        det, sysm = random_mzi(rng), random_mzi(rng)
        gamma = rng.uniform(0.0, 2.0 * math.pi)
        povm = povm_pair(measurement_operators(det, gamma))
        rho = np.array([1.0 + sysm.qpc1.delta, 1.0 - sysm.qpc1.delta]) / 2.0
        fringe = []
        for phi_s in (0.0, math.pi / 2, math.pi):
            stats = JointStatistics(
                joint_probability_table(det, InterferometerConfig(sysm.qpc1, sysm.qpc2, phi_s), gamma))
            fringe.append(stats.joint[:, 0] / stats.detector_marginals)
        at_0, at_half_pi, at_pi = fringe
        mean = (at_0 + at_pi) / 2.0
        amplitude = np.hypot(at_0 - mean, at_half_pi - mean)
        for d, diag in enumerate((povm.diag_d1, povm.diag_d2)):
            w = rho * np.array(diag)
            expected = sysm.qpc2.epsilon * math.sqrt(w[0] * w[1]) / (w[0] + w[1])
            worst = max(worst, abs(amplitude[d] - expected))
            largest = max(largest, amplitude[d] / (sysm.qpc2.epsilon / 2.0))
    ok = worst < 1e-12 and largest <= 1.0 + 1e-12
    report(13, "erasure follows measurement ambiguity", ok,
           f"max |fringe amplitude - eps_2^s sqrt(w_L w_U) / (w_L + w_U)| = {worst:.3e} "
           f"over 500 configs; largest amplitude / (eps_2^s / 2) = {largest:.6f}")
