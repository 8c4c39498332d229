"""Independent reference values and output checks for every benchmark op.

The references are closed forms evaluated here with numpy over whole
grids; none of them calls the code under test:

* probability, conditional and noise columns come from the closed-form
  joint drain table (the formula of ``joint_probability_table``);
* ``alpha_*`` solve ``alpha_1 E_D1 + alpha_2 E_D2 = a0 + a3 sigma_z`` on
  the POVM built from the detector drain amplitudes (the construction of
  ``measurement_operators``/``povm_pair``);
* ``cond_avg_*`` is ``sum_D alpha_D P(D|S)``;
* ``concurrence``, ``eta`` and the interaction phases use their closed
  forms.

Tolerances (absolute, on each numeric cell)::

    probabilities, concurrence, eta      1e-9
    P(X|Y)                               1e-9 / P(Y)
    noise power                          1e-9 * 2 e^3 V / h
    alpha_*                              1e-9 * max(1, |alpha|) / min(1, |V Gamma|)
    cond_avg_*                           the alpha tolerance / P(S)
    sweep column                         1e-12 * max(1, |value|)
    montecarlo weights and variances     1e-9 relative

The token ``inf-ambiguous`` must appear exactly where ``|V Gamma| <=
1e-9`` and the exit code must match exactly.  A Monte Carlo estimate must
lie within ``Z_LIMIT`` exact standard errors of the true which-path
average ``delta_1^s = 2 T - 1``; that is the one statistical check, and
it is reported apart from the exact ones.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from workloads import Op

ELEMENTARY_CHARGE = 1.602176634e-19
PLANCK_CONSTANT = 6.62607015e-34
HBAR = PLANCK_CONSTANT / (2.0 * math.pi)

AMBIGUOUS_TOKEN = "inf-ambiguous"
DIVERGENCE_THRESHOLD = 1e-9
MARGINAL_THRESHOLD = 1e-12
RTOL = 1e-9
Z_LIMIT = 5.0
RNG_ALGORITHM = "philox4x64"
MC_HEADER = ["seed", "n", "estimate", "empirical_variance", "predicted_mse",
             "mse_upper_bound", "rng_algorithm"]
MC_BUDGET_HEADER = ["observation_time_s", "required_events"]
_DRAINS = {"D1": 0, "D2": 1, "S1": 0, "S2": 1}
_QUADRATURE_NODES = 64


@dataclass
class Verdict:
    """Outcome of checking one op.

    ``exact`` lists failures of exact checks (exit code, header, tokens,
    cells); ``statistical`` holds the z-score failure of a Monte Carlo
    estimate.  ``z`` is that score when one was computed.
    """

    exact: list[str]
    statistical: list[str]
    z: float | None = None

    @property
    def ok(self) -> bool:
        return not self.exact and not self.statistical


# --------------------------------------------------------------- closed forms


def _qpc(transmission):
    t = np.asarray(transmission, dtype=float)
    return t - (1.0 - t), 2.0 * np.sqrt(t * (1.0 - t))


def joint_table(c: dict, gamma, phi_d, phi_s, t_s1) -> np.ndarray:
    """Closed-form ``P[..., detector drain, system drain]``; arguments broadcast."""
    gamma, phi_d, phi_s = (np.asarray(x, dtype=float) for x in (gamma, phi_d, phi_s))
    d1d, e1d = _qpc(c["detector.qpc1.T"])
    d2d, e2d = _qpc(c["detector.qpc2.T"])
    d1s, e1s = _qpc(t_s1)
    d2s, e2s = _qpc(c["system.qpc2.T"])
    half = gamma / 2.0
    bdp, bdm = 1.0 + d1d * d2d, 1.0 - d1d * d2d
    bsp, bsm = 1.0 + d1s * d2s, 1.0 - d1s * d2s
    vd, vs = e1d * e2d, e1s * e2s
    gd = np.sin(half) * np.sin(half + phi_d)
    gs = np.sin(half) * np.sin(half - phi_s)
    gds = np.sin(half) * np.sin(half + phi_d - phi_s)
    dd, ds = np.cos(phi_d) - gd, np.cos(phi_s) - gs
    dds = np.cos(phi_d) * np.cos(phi_s) - gds
    det_plus = dd * bsp + gd * (d1s + d2s)
    det_minus = dd * bsm + gd * (d1s - d2s)
    sys_plus = ds * bdp - gs * (d1d + d2d)
    sys_minus = ds * bdm - gs * (d1d - d2d)
    p11 = 0.25 * (bdp * bsp + vd * vs * dds - vd * det_plus - vs * sys_plus)
    p12 = 0.25 * (bdp * bsm - vd * vs * dds - vd * det_minus + vs * sys_plus)
    p21 = 0.25 * (bdm * bsp - vd * vs * dds + vd * det_plus - vs * sys_minus)
    p22 = 0.25 * (bdm * bsm + vd * vs * dds + vd * det_minus + vs * sys_minus)
    p11, p12, p21, p22 = np.broadcast_arrays(p11, p12, p21, p22)
    return np.stack([np.stack([p11, p12], -1), np.stack([p21, p22], -1)], -2)


def povm_diagonals(c: dict, gamma, phi_d) -> tuple[np.ndarray, np.ndarray]:
    """``(E_D1, E_D2)`` diagonals on ``(L^s, U^s)``, shape ``(..., 2)``.

    From the detector drain amplitudes ``C[D, L^s]`` and ``C[D, U^s]``,
    which differ by the coupling phase on the transmitted detector path.
    """
    gamma, phi_d = np.broadcast_arrays(np.asarray(gamma, float), np.asarray(phi_d, float))
    t1, r1 = math.sqrt(c["detector.qpc1.T"]), 1j * math.sqrt(1.0 - c["detector.qpc1.T"])
    t2, r2 = math.sqrt(c["detector.qpc2.T"]), 1j * math.sqrt(1.0 - c["detector.qpc2.T"])
    phase = np.stack([np.exp(1j * phi_d), np.exp(1j * (phi_d + gamma))], -1)
    e_d1 = np.abs(t1 * t2 * phase + r1 * r2) ** 2
    e_d2 = np.abs(t1 * r2 * phase + r1 * t2) ** 2
    return e_d1, e_d2


def contextual_weights(c: dict, gamma, phi_d) -> tuple[np.ndarray, np.ndarray]:
    """Drain weights solving the POVM identity for ``a0 + a3 sigma_z``."""
    a0, a3 = c.get("observable.a0", 0.0), c.get("observable.a3", 1.0)
    e_d1, e_d2 = povm_diagonals(c, gamma, phi_d)
    det = e_d1[..., 0] * e_d2[..., 1] - e_d2[..., 0] * e_d1[..., 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        alpha_1 = ((a0 + a3) * e_d2[..., 1] - (a0 - a3) * e_d2[..., 0]) / det
        alpha_2 = ((a0 - a3) * e_d1[..., 0] - (a0 + a3) * e_d1[..., 1]) / det
    return alpha_1, alpha_2


def visibility_gamma(c: dict, gamma, phi_d) -> np.ndarray:
    """``V_d * Gamma_d``, whose size decides whether the weights diverge."""
    _, e1 = _qpc(c["detector.qpc1.T"])
    _, e2 = _qpc(c["detector.qpc2.T"])
    gamma = np.asarray(gamma, dtype=float)
    return e1 * e2 * np.sin(gamma / 2.0) * np.sin(gamma / 2.0 + np.asarray(phi_d, dtype=float))


def damping_eta(sigma) -> np.ndarray:
    sigma = np.asarray(sigma, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        eta = (math.pi**2 / (math.pi**2 - sigma**2)) * np.sin(sigma) / sigma
    return np.where(sigma == 0.0, 1.0, np.where(sigma == math.pi, 0.5, eta))


def averaged_detector_marginals(c: dict) -> np.ndarray:
    """Exact ``(P_D1, P_D2)`` averaged over the coupling model.

    Gauss-Legendre quadrature of the raised-cosine density over
    ``[gamma - sigma, gamma + sigma]`` for paired emissions, plus the
    zero-phase table for unpaired ones.
    """
    gamma, sigma = c["coupling.gamma"], c.get("coupling.sigma", 0.0)
    pair = c.get("coupling.pair_probability", 1.0)
    args = (c["detector.phi"], c["system.phi"], c["system.qpc1.T"])
    if sigma > 0.0:
        x, w = np.polynomial.legendre.leggauss(_QUADRATURE_NODES)
        y = sigma * x
        density = (1.0 + np.cos(math.pi * y / sigma)) / (2.0 * sigma)
        tables = joint_table(c, gamma + y, *args).sum(axis=-1)
        paired = (sigma * w * density) @ tables
    else:
        paired = joint_table(c, gamma, *args).sum(axis=-1)
    unpaired = joint_table(c, 0.0, *args).sum(axis=-1)
    return pair * paired + (1.0 - pair) * unpaired


# ------------------------------------------------------------------- parsing


def _read_csv(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def _number(token: str) -> float | None:
    try:
        value = float(token)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


class _Cells:
    """Accumulates cell mismatches of one op, keeping the first few."""

    def __init__(self):
        self.failures: list[str] = []
        self.count = 0

    def fail(self, message: str) -> None:
        self.count += 1
        if len(self.failures) < 3:
            self.failures.append(message)

    def compare(self, where: str, token: str, reference: float, tolerance: float) -> None:
        value = _number(token)
        if value is None:
            self.fail(f"{where}: {token!r} is not a finite number (expected {reference!r})")
        elif not abs(value - reference) <= tolerance:
            self.fail(f"{where}: {value!r} differs from {reference!r} by more than {tolerance:.3g}")

    def result(self) -> list[str]:
        if self.count > len(self.failures):
            self.failures.append(f"... {self.count} mismatching cells in all")
        return self.failures


def _expect_exit(code: int, expected: int, out: str) -> list[str]:
    if code != expected:
        return [f"exit code {code}, expected {expected}"]
    if code != 0 and out:
        return ["output written despite a non-zero exit code"]
    return []


# -------------------------------------------------------------------- scans


def _grid(sweep) -> np.ndarray:
    _, lo, hi, count = sweep
    grid = np.linspace(lo, hi, count)
    grid[0], grid[-1] = lo, hi
    return grid


def _swept(c: dict, parameter: str, grid: np.ndarray) -> dict[str, np.ndarray]:
    point = {
        "gamma": c["coupling.gamma"], "phi_d": c["detector.phi"], "phi_s": c["system.phi"],
        "t_s1": c["system.qpc1.T"], "sigma": c.get("coupling.sigma", 0.0),
    }
    if parameter == "delta_s1":
        point["t_s1"] = (1.0 + grid) / 2.0
    else:
        point[parameter] = grid
    return {k: np.broadcast_to(np.asarray(v, dtype=float), grid.shape) for k, v in point.items()}


def scan_reference(op: Op) -> tuple[int, dict[str, tuple[np.ndarray, np.ndarray]]]:
    """Expected exit code and, per column, (values, tolerances) over the grid.

    Values are NaN where the token ``inf-ambiguous`` is expected.
    """
    c = op.config
    grid = _grid(op.sweep)
    p = _swept(c, op.sweep[0], grid)
    table = joint_table(c, p["gamma"], p["phi_d"], p["phi_s"], p["t_s1"])
    p_det, p_sys = table.sum(axis=-1), table.sum(axis=-2)
    need = set(op.quantities)
    columns: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    ones = np.ones_like(grid)
    code = 0

    for name in need:
        if name in ("P_D1", "P_D2"):
            columns[name] = (p_det[:, _DRAINS[name[2:]]], RTOL * ones)
        elif name in ("P_S1", "P_S2"):
            columns[name] = (p_sys[:, _DRAINS[name[2:]]], RTOL * ones)
        elif len(name) == 6 and name.startswith("P_D"):
            columns[name] = (table[:, _DRAINS[name[2:4]], _DRAINS[name[4:6]]], RTOL * ones)
        elif "_given_" in name:
            left, right = name[2:4], name[-2:]
            if left[0] == "D":
                d, s = _DRAINS[left], _DRAINS[right]
                given = p_sys[:, s]
            else:
                s, d = _DRAINS[left], _DRAINS[right]
                given = p_det[:, d]
            with np.errstate(divide="ignore", invalid="ignore"):
                columns[name] = (table[:, d, s] / given, RTOL / given)
        elif name.startswith("S_D"):
            d, s = _DRAINS[name[2:4]], _DRAINS[name[4:6]]
            scale = 2.0 * ELEMENTARY_CHARGE**3 * c["bias.voltage"] / PLANCK_CONSTANT
            covariance = table[:, d, s] - p_det[:, d] * p_sys[:, s]
            columns[name] = (scale * covariance, RTOL * scale * ones)
        elif name == "concurrence":
            _, e1d = _qpc(c["detector.qpc1.T"])
            _, e1s = _qpc(p["t_s1"])
            columns[name] = (e1d * e1s * np.abs(np.sin(p["gamma"] / 2.0)), RTOL * ones)
        elif name == "eta":
            columns[name] = (damping_eta(p["sigma"]), RTOL * ones)

    if any("_given_" in name for name in need):
        if np.any(p_det <= MARGINAL_THRESHOLD) or np.any(p_sys <= MARGINAL_THRESHOLD):
            code = 4

    if need & {"alpha_D1", "alpha_D2", "cond_avg_S1", "cond_avg_S2"}:
        vg = visibility_gamma(c, p["gamma"], p["phi_d"])
        ambiguous = np.abs(vg) <= DIVERGENCE_THRESHOLD
        alpha_1, alpha_2 = contextual_weights(c, p["gamma"], p["phi_d"])
        weight = np.maximum.reduce([ones, np.abs(alpha_1), np.abs(alpha_2)])
        with np.errstate(divide="ignore", invalid="ignore"):
            alpha_tol = RTOL * weight / np.minimum(1.0, np.abs(vg))
        for name, alpha in (("alpha_D1", alpha_1), ("alpha_D2", alpha_2)):
            if name in need:
                columns[name] = (np.where(ambiguous, np.nan, alpha), alpha_tol)
        for name in ("cond_avg_S1", "cond_avg_S2"):
            if name in need:
                s = _DRAINS[name[-2:]]
                given = p_sys[:, s]
                if np.any(~ambiguous & (given <= MARGINAL_THRESHOLD)):
                    code = 4
                with np.errstate(divide="ignore", invalid="ignore"):
                    value = (alpha_1 * table[:, 0, s] + alpha_2 * table[:, 1, s]) / given
                    columns[name] = (np.where(ambiguous, np.nan, value), alpha_tol / given)
    return code, columns


def check_scan(op: Op, code: int, out: str) -> Verdict:
    expected_code, columns = scan_reference(op)
    problems = _expect_exit(code, expected_code, out)
    if problems or code != 0:
        return Verdict(problems, [])
    rows = _read_csv(out)
    header = [op.sweep[0], *op.quantities]
    if not rows or rows[0] != header:
        return Verdict([f"header {rows[0] if rows else None!r}, expected {header!r}"], [])
    grid = _grid(op.sweep)
    if len(rows) - 1 != len(grid):
        return Verdict([f"{len(rows) - 1} rows, expected {len(grid)}"], [])
    cells = _Cells()
    for i, row in enumerate(rows[1:]):
        if len(row) != len(header):
            cells.fail(f"row {i}: {len(row)} cells, expected {len(header)}")
            continue
        cells.compare(f"row {i} {header[0]}", row[0], grid[i], 1e-12 * max(1.0, abs(grid[i])))
        for name, token in zip(op.quantities, row[1:]):
            values, tolerances = columns[name]
            if math.isnan(values[i]):
                if token != AMBIGUOUS_TOKEN:
                    cells.fail(f"row {i} {name}: {token!r}, expected {AMBIGUOUS_TOKEN!r}")
            else:
                cells.compare(f"row {i} {name}", token, values[i], tolerances[i])
    return Verdict(cells.result(), [])


def check_erasure(op: Op, code: int, out: str) -> Verdict:
    c = op.config
    grid = _grid(op.sweep)
    table = joint_table(c, c["coupling.gamma"], c["detector.phi"], grid, c["system.qpc1.T"])
    p_det, p_sys = table.sum(axis=-1), table.sum(axis=-2)
    expected_code = 4 if (np.any(p_det <= MARGINAL_THRESHOLD)
                          or np.any(p_sys <= MARGINAL_THRESHOLD)) else 0
    problems = _expect_exit(code, expected_code, out)
    if problems or code != 0:
        return Verdict(problems, [])
    rows = _read_csv(out)
    header = ["phi_s", "P_S1", "P_S1_given_D1", "P_S1_given_D2"]
    if not rows or rows[0] != header:
        return Verdict([f"header {rows[0] if rows else None!r}, expected {header!r}"], [])
    if len(rows) - 1 != len(grid):
        return Verdict([f"{len(rows) - 1} rows, expected {len(grid)}"], [])
    cells = _Cells()
    for i, row in enumerate(rows[1:]):
        if len(row) != len(header):
            cells.fail(f"row {i}: {len(row)} cells, expected {len(header)}")
            continue
        cells.compare(f"row {i} phi_s", row[0], grid[i], 1e-12 * max(1.0, abs(grid[i])))
        cells.compare(f"row {i} P_S1", row[1], p_sys[i, 0], RTOL)
        for d, token in enumerate(row[2:]):
            reference = table[i, d, 0] / p_det[i, d]
            cells.compare(f"row {i} {header[2 + d]}", token, reference, RTOL / p_det[i, d])
    return Verdict(cells.result(), [])


# ----------------------------------------------------------- name,value ops


def _name_value_rows(out: str) -> tuple[dict[str, str], list[str]]:
    rows = _read_csv(out)
    if not rows or rows[0] != ["quantity", "value"]:
        return {}, [f"header {rows[0] if rows else None!r}, expected ['quantity', 'value']"]
    if any(len(row) != 2 for row in rows[1:]):
        return {}, ["rows must hold exactly a name and a value"]
    return {name: value for name, value in rows[1:]}, []


def povm_reference(c: dict) -> dict[str, float]:
    """Expected povm rows; NaN marks an expected ``inf-ambiguous`` token."""
    gamma, phi = c["coupling.gamma"], c["detector.phi"]
    d1, e1 = _qpc(c["detector.qpc1.T"])
    d2, e2 = _qpc(c["detector.qpc2.T"])
    big_gamma = math.sin(gamma / 2.0) * math.sin(gamma / 2.0 + phi)
    eta = float(damping_eta(c.get("coupling.sigma", 0.0)))
    eta_prime = c.get("coupling.pair_probability", 1.0) * eta
    e_d1, e_d2 = povm_diagonals(c, gamma, phi)
    ambiguous = abs(float(visibility_gamma(c, gamma, phi))) <= DIVERGENCE_THRESHOLD
    alpha_1, alpha_2 = contextual_weights(c, gamma, phi)
    return {
        "beta_plus": float(1.0 + d1 * d2),
        "beta_minus": float(1.0 - d1 * d2),
        "visibility": float(e1 * e2),
        "Gamma": big_gamma,
        "Delta": math.cos(phi) - big_gamma,
        "eta": eta,
        "eta_prime": eta_prime,
        "Gamma_damped": eta_prime * big_gamma,
        "E_D1_LL": float(e_d1[0]),
        "E_D1_UU": float(e_d1[1]),
        "E_D2_LL": float(e_d2[0]),
        "E_D2_UU": float(e_d2[1]),
        "alpha_D1": math.nan if ambiguous else float(alpha_1),
        "alpha_D2": math.nan if ambiguous else float(alpha_2),
    }


def check_povm(op: Op, code: int, out: str) -> Verdict:
    """Rows of the povm summary; the generated configs have ``sigma = 0``
    and ``pair_probability = 1``, where every fluctuation model agrees."""
    problems = _expect_exit(code, 0, out)
    if problems:
        return Verdict(problems, [])
    rows, problems = _name_value_rows(out)
    if problems:
        return Verdict(problems, [])
    c = op.config
    vg = abs(float(visibility_gamma(c, c["coupling.gamma"], c["detector.phi"])))
    cells = _Cells()
    for name, reference in povm_reference(c).items():
        if name not in rows:
            cells.fail(f"row {name!r} missing")
        elif math.isnan(reference):
            if rows[name] != AMBIGUOUS_TOKEN:
                cells.fail(f"{name}: {rows[name]!r}, expected {AMBIGUOUS_TOKEN!r}")
        else:
            scale = max(1.0, abs(reference))
            if name.startswith("alpha"):
                scale /= min(1.0, vg)
            cells.compare(name, rows[name], reference, RTOL * scale)
    return Verdict(cells.result(), [])


def check_interaction_phase(op: Op, code: int, out: str) -> Verdict:
    problems = _expect_exit(code, 0, out)
    if problems:
        return Verdict(problems, [])
    rows, problems = _name_value_rows(out)
    if problems:
        return Verdict(problems, [])
    c = op.config
    length, separation = c["geometry.interaction_length"], c["geometry.channel_separation"]
    speed, target = c["geometry.speed"], c["geometry.target_gamma"]
    single = 2.0 * ELEMENTARY_CHARGE * c["bias.fermi_energy"] * length / (HBAR * speed)
    expected = {
        "coupling_phase": target,
        "coulomb_constant": target * HBAR * separation * speed
        * math.exp(separation / c["geometry.screening_length"])
        / (ELEMENTARY_CHARGE**2 * 2.0 * length),
        "dynamical_phase_single": single,
        "dynamical_phase_pair": 2.0 * single,
    }
    cells = _Cells()
    for name, reference in expected.items():
        if name not in rows:
            cells.fail(f"row {name!r} missing")
        else:
            cells.compare(name, rows[name], reference, RTOL * abs(reference))
    return Verdict(cells.result(), [])


# --------------------------------------------------------------- montecarlo


def check_montecarlo(op: Op, code: int, out: str, weights: tuple[float, float] | None) -> Verdict:
    """Exact checks of the report plus the z-score of the estimate.

    ``weights`` are the contextual values the program applies, or None
    when it reports them as divergent (exit code 3 expected then).
    """
    problems = _expect_exit(code, 0 if weights is not None else 3, out)
    if problems or code != 0:
        return Verdict(problems, [])
    c, n = op.config, op.items
    header = MC_HEADER + (MC_BUDGET_HEADER if "budget.path_length" in c else [])
    rows = _read_csv(out)
    if len(rows) != 2 or rows[0] != header or len(rows[1]) != len(header):
        return Verdict([f"report {rows!r} does not match header {header!r}"], [])
    row = dict(zip(header, rows[1]))
    cells = _Cells()
    if row["seed"] != str(op.seed) or row["n"] != str(n):
        cells.fail(f"seed/n {row['seed']}/{row['n']}, expected {op.seed}/{n}")
    if row["rng_algorithm"] != RNG_ALGORITHM:
        cells.fail(f"rng_algorithm {row['rng_algorithm']!r}, expected {RNG_ALGORITHM!r}")
    a1, a2 = weights
    # weights near divergence carry a relative rounding error ~ eps / |V Gamma'|
    pair = c.get("coupling.pair_probability", 1.0)
    vg = abs(float(visibility_gamma(c, c["coupling.gamma"], c["detector.phi"])))
    rtol = RTOL / min(1.0, vg * pair * float(damping_eta(c.get("coupling.sigma", 0.0))))
    sum_sq = a1 * a1 + a2 * a2
    cells.compare("mse_upper_bound", row["mse_upper_bound"], sum_sq / n, rtol * sum_sq / n)

    estimate = _number(row["estimate"])
    if estimate is None:
        cells.fail(f"estimate {row['estimate']!r} is not a finite number")
        return Verdict(cells.result(), [])
    # the estimate is a mean of per-event weights: a1 + (a2 - a1) k / n
    k_real = (estimate - a1) / (a2 - a1) * n
    k = min(n, max(0, round(k_real)))
    if not abs(k_real - k) <= 1e-6 + n * rtol:
        cells.fail(f"estimate {estimate!r} is not a mean of {n} contextual values")
    spread = (a2 - a1) ** 2
    variance = k * (n - k) / (n * (n - 1)) * spread / n if n > 1 else 0.0
    cells.compare("empirical_variance", row["empirical_variance"], variance,
                  rtol * max(variance, spread / n / n))

    p_det = averaged_detector_marginals(c)
    mean = a1 * p_det[0] + a2 * p_det[1]
    second = a1 * a1 * p_det[0] + a2 * a2 * p_det[1]
    exact_mse = max(0.0, second - mean * mean) / n
    fluctuating = c.get("coupling.sigma", 0.0) > 0.0 or c.get("coupling.pair_probability", 1.0) < 1.0
    if fluctuating:
        # the program may use empirical or exact drain frequencies here
        predicted = _number(row["predicted_mse"])
        if predicted is None or not -rtol * sum_sq / n <= predicted <= (1 + rtol) * sum_sq / n:
            cells.fail(f"predicted_mse {row['predicted_mse']!r} outside [0, mse_upper_bound]")
    else:
        cells.compare("predicted_mse", row["predicted_mse"], exact_mse, rtol * second / n)
    if "budget.path_length" in c:
        tau = c["budget.path_length"] / c["budget.fermi_velocity"]
        rms_sq = c["budget.target_rms"] ** 2
        cells.compare("observation_time_s", row["observation_time_s"],
                      tau * sum_sq / rms_sq, rtol * tau * sum_sq / rms_sq)
        cells.compare("required_events", row["required_events"],
                      sum_sq / rms_sq, rtol * sum_sq / rms_sq)

    truth = 2.0 * c["system.qpc1.T"] - 1.0
    standard_error = math.sqrt(exact_mse)
    z = abs(estimate - truth) / standard_error if standard_error > 0 else math.inf
    statistical = []
    if not z <= Z_LIMIT:
        statistical.append(
            f"estimate {estimate:.6g} is {z:.1f} standard errors from delta_1^s = {truth:.6g}"
        )
    return Verdict(cells.result(), statistical, z)


def montecarlo_weights(c: dict) -> tuple[float, float] | None:
    """Reference weights for a deterministic coupling, from the POVM."""
    gamma, phi = c["coupling.gamma"], c["detector.phi"]
    if abs(float(visibility_gamma(c, gamma, phi))) <= DIVERGENCE_THRESHOLD:
        return None
    a1, a2 = contextual_weights(c, gamma, phi)
    return float(a1), float(a2)


def povm_weights(code: int, out: str) -> tuple[float, float] | None:
    """Weights the program reports in its povm summary (None if divergent)."""
    rows, problems = _name_value_rows(out)
    if code != 0 or problems or "alpha_D1" not in rows or "alpha_D2" not in rows:
        raise ValueError(f"povm summary unreadable (exit code {code})")
    if rows["alpha_D1"] == AMBIGUOUS_TOKEN:
        return None
    weights = _number(rows["alpha_D1"]), _number(rows["alpha_D2"])
    if None in weights:
        raise ValueError(f"povm weights {weights!r} are not finite numbers")
    return weights
