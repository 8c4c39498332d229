"""Command-line interface: scans, Monte Carlo runs, and CSV emission.

Subcommands
-----------
``scan``              one-parameter sweep, one CSV row per grid point
``montecarlo``        seeded drain-event sampling and estimator report
``povm``              measurement-layer summary for one configuration
``erasure``           conditional system fringes along a phi_s sweep
``interaction-phase`` geometry-derived coupling and dynamical phases
``validate-config``   parse and validate a configuration file

Exit codes: 0 success, 2 configuration error, 3 ambiguous measurement
(divergent contextual values), 4 impossible post-selection.

All numeric output uses 17 significant digits so doubles round-trip
exactly; reruns with identical inputs produce byte-identical files.
Divergent contextual values print as ``inf-ambiguous``; any other value
beyond the float range is a configuration error.  No header or cell needs
CSV quoting (names, ``%.17g`` numbers, ``inf-ambiguous``): rows are comma joins.
"""

from __future__ import annotations

import argparse
import math
import struct
import sys
from collections.abc import Callable
from functools import cache

import numpy as np

from .conditioning import post_selected_average, require_post_selection
from .config import SWEEPS, ExperimentConfig, check_sweep_domain, evaluate_number, load_config, swept
from .errors import (
    AmbiguousMeasurementError,
    ConfigError,
    CoupledMziError,
    PostSelectionImpossibleError,
)
from .interaction import coupling_phase, dynamical_phase
from .measurement import contextual_values, measurement_operators, povm_pair
from .params import DetectorDrain, SystemDrain, _index, _require_finite
from .scattering import ELEMENTARY_CHARGE, concurrence, cross_noise_power
from .stochastic import RNG_ALGORITHM, contextual_estimate, observation_time, sample_events_tally

AMBIGUOUS_TOKEN = "inf-ambiguous"


def _fmt(value: float) -> str:
    """``"%.17g" % value``, and :data:`AMBIGUOUS_TOKEN` for a NaN."""
    value = float(value)
    return format(value, ".17g") if value == value else AMBIGUOUS_TOKEN


def _csv(header: list[str], rows) -> str:
    return "".join(",".join(row) + "\n" for row in (header, *rows))


def _table_csv(header: list[str], table: np.ndarray) -> str:
    """CSV of an ``(n, k)`` float table: each cell is ``"%.17g" % x``, and
    NaN of either sign prints :data:`AMBIGUOUS_TOKEN`.

    Two writers give these bytes.  Tables of at least ``_VECTOR_CELLS``
    cells take the whole-array :func:`_vector_rows`; smaller ones one row
    template per row, which costs less than numpy's per-call overhead there.
    """
    rows = _vector_rows if table.size >= _VECTOR_CELLS else _template_rows
    return ",".join(header) + "\n" + rows(table)


def _template_rows(table: np.ndarray) -> str:
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    # "%.17g" writes a NaN of either sign as "nan", which no other cell contains
    return "".join(map(row.__mod__, map(tuple, table.tolist()))).replace("nan", AMBIGUOUS_TOKEN)


# The vector writer.  A cell x that is finite, nonzero and within the
# two-digit exponents prints the 17 digits of ``D = round(|x| 10**(16 - k))``,
# with k the decade of x: ``floor(log10 |x|)``, less one where |x| is below
# the least double >= 10**k.  Such a cell is laid out in one of two
# notations, scientific or fixed below ten (-4 <= k <= 0), in four
# little-endian 64-bit words, its text in order with NUL bytes in between
# that are dropped at the end:
#   word 0     sign, the "0." and zeros of fixed notation below 1, D's leading
#              digit and the point after it, in the top bytes;
#   words 1-2  D's other 16 digits, four per half-word, trailing zeros as NUL;
#   word 3     the exponent "e+05" and the separator after the cell: "," or,
#              after a row's last cell, "\n".
# Word 0 is one lookup by the biased exponent e = k + _BIAS, the leading digit
# and the sign; word 3 one by e and the column.  Every other cell (NaN, inf,
# zero, a magnitude beyond 1e+-98, a rounding near a tie, a rounding that
# carries into the next decade, and 1 <= k <= 16, where the point falls among
# the digits) takes ``_CELL``: ``"%.17g" % x`` left-justified in the cell's
# 32 bytes with spaces, which are dropped with the NULs.

# The crossover with the row template.  Each writer was timed alone after a
# gc.collect(), as the benchmark runs ops, on scan tables of 3, 5 and 9 columns
# (2 vCPUs, medians of 200): vector/template was 1.27-1.29 at 300 cells,
# 0.98-1.01 at 400, 0.80-1.00 at 500 and 0.73-0.79 at 600.
_VECTOR_CELLS = 450
_VECTOR_BLOCK = 1 << 14  # cells per block; each cell takes about 200 bytes of buffers
_MAX_EXPONENT = 99  # the widest exponent that fits its four bytes: "e-99"
_BIAS = _MAX_EXPONENT + 1  # log10 of a magnitude near 1e-98 can floor a decade low
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split of a double into 26-bit halves
_TIE_MARGIN = 2.0**-20  # roundings this near 1/2 take the per-cell rule (the error is < 2**-47)
# the bits of 1e-98 and 1e+98, whose order is that of the doubles >= 0
_TINY, _HUGE = struct.unpack("<2q", struct.pack("<2d", 10.0 ** (1 - _MAX_EXPONENT),
                                                  10.0 ** (_MAX_EXPONENT - 1)))
_WORD = np.dtype("<u8")
_CELL = "%-31.17g"  # a per-cell rule's cell, padded to 31 bytes with spaces: 32 with its separator


def _split(a):
    high = _SPLIT * a
    high = high - (high - a)
    return high, a - high


def _power_minus(n: int, x: float) -> float:
    """The double nearest to ``10**n - x``, for either sign of ``n``: a
    quotient of exact integers, which Python rounds correctly."""
    num, den = x.as_integer_ratio()
    return (10 ** max(n, 0) * den - num * 10 ** max(-n, 0)) / (den * 10 ** max(-n, 0))


@cache
def _writer_tables() -> tuple[np.ndarray, ...]:
    """The vector writer's lookup tables, built on its first call and
    read-only, since every call shares them.  With ``e = k + _BIAS``:

    - ``scale[:, e]``: ``10**(16 - k)`` as the double ``hi`` nearest to it,
      the two halves of ``hi`` and ``lo``, the double nearest to
      ``10**(16 - k) - hi``;
    - ``lower[e]``: the least double ``>= 10**k``, so that ``|x| < lower[e]``
      exactly when ``|x| < 10**k``;
    - ``fronts[20 e + 2 digit + negative]``: word 0 of a cell;
    - ``quads[tail, q]``: the four digits of ``q``, with their trailing
      zeros NUL when ``tail``;
    - ``ends[e + (2 _BIAS + 1) last]``: word 3 of a cell, ``last`` in a row.

    ``hi``, ``lo`` and ``lower`` come from :func:`_power_minus`: where the
    double nearest to ``10**k`` is below it, ``lower`` is the next double up.
    """
    exponents = range(-_BIAS, _BIAS + 1)
    nearest = {n: _power_minus(n, 0.0) for n in range(-_BIAS, 17 + _BIAS)}
    rest = {n: _power_minus(n, hi) for n, hi in nearest.items()}
    hi, lo = np.array([(nearest[16 - k], rest[16 - k]) for k in exponents]).T
    scale = np.stack([hi, *_split(hi), lo])
    lower = np.array([math.nextafter(nearest[k], math.inf) if rest[k] > 0 else nearest[k] for k in exponents])
    q = np.arange(10000, dtype=np.int64)
    digits = (q // 1000, q // 100 % 10, q // 10 % 10, q % 10)
    plain = sum((d + 48) << 8 * j for j, d in enumerate(digits))
    tail, zeros = plain.copy(), True
    for j in (3, 2, 1, 0):
        zeros = zeros & (digits[j] == 0)
        tail[zeros] &= ~(0xFF << 8 * j)
    quads = np.stack([plain, tail]).astype("<u4")

    def front(k, digit, sign):  # the point after the digit is dropped again where no digit follows
        text = b"0." + b"0" * (-1 - k) + b"%d" % digit if -4 <= k < 0 else b"%d." % digit
        return (sign + text).rjust(8, b"\0")

    fronts = b"".join(front(k, digit, sign) for k in exponents for digit in range(10) for sign in (b"", b"-"))
    ends = b"".join(((b"" if -4 <= k <= 0 else b"e%+03d" % k) + separator).ljust(8, b"\0")
                    for separator in (b",", b"\n") for k in exponents)
    tables = (scale, lower, np.frombuffer(fronts, _WORD), quads, np.frombuffer(ends, _WORD))
    for table in tables:
        table.setflags(write=False)
    return tables


def _scaled(a: np.ndarray, e: np.ndarray, scale: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``D = round(a 10**(16 - k))`` for ``a`` in the decade ``[10**k, 10**(k + 1))``,
    and ``a 10**(16 - k) - D``.

    ``a hi`` is formed exactly, as ``p + err``, by Dekker's product from
    26-bit halves (no FMA), and ``a lo`` is added to ``err`` rounded.  The
    product is below ``2**57``, so the fraction is then within ``2**-47`` of
    the exact one, and ``p >= 10**16 > 2**53`` is an integer.  ``D`` leaves
    the decade only where the rounding carries to ``10**17``.
    """
    hi, hi_high, hi_low, lo = scale.take(e, axis=1)
    p = a * hi
    a_high, a_low = _split(a)
    err = ((a_high * hi_high - p) + a_high * hi_low + a_low * hi_high) + a_low * hi_low + a * lo
    rounded = np.rint(err)
    return p.astype(np.int64) + rounded.astype(np.int64), err - rounded


def _vector_rows(table: np.ndarray) -> str:
    """The bytes of :func:`_template_rows`, from whole-array steps on
    blocks of rows, so the buffers stay a few MB at any table size."""
    step = max(1, _VECTOR_BLOCK // table.shape[1])
    return b"".join(_vector_block(table[i:i + step]) for i in range(0, len(table), step)).decode("ascii")


def _vector_block(table: np.ndarray) -> bytes:
    """The CSV rows of one block.  A cell's decade k is ``floor(log10 |x|)``,
    less one where ``|x| < lower[k + _BIAS]``: just below a power of ten
    ``log10`` rounds up to it."""
    scale, lower, fronts, quads, ends = _writer_tables()
    rows, cols = table.shape
    x = table.ravel()
    a = np.abs(x)
    # NaN, inf, zero or a magnitude past two-digit exponents, by the bits of |x|
    bad = np.flatnonzero(a.view(np.uint64) - _TINY > _HUGE - _TINY)
    a[bad] = 1.0
    e = (np.log10(a) + _BIAS).astype(np.int64)  # floor(log10 |x|) + _BIAS, as the sum is positive
    e -= a < lower.take(e)
    d, frac = _scaled(a, e, scale)
    # a rounding that carries into the next decade leaves D outside [10**16, 10**17)
    per_cell = (np.abs(frac) >= 0.5 - _TIE_MARGIN) | ((d - 10**16).view(np.uint64) >= 9 * 10**16)
    per_cell |= (e - (_BIAS + 1)).view(np.uint64) < 16  # 1 <= k <= 16: a point among the digits
    per_cell[bad] = True
    lead = d // 10**16
    rest = d - lead * 10**16
    high = rest // 10**8
    low = rest - high * 10**8
    words = np.empty((x.size, 4), _WORD)
    halves = words.view("<u4")
    words[:, 0] = fronts.take(e * 20 + lead * 2 + (x < 0), mode="clip")
    q0, q2 = high // 10**4, low // 10**4
    q1, q3 = high - q0 * 10**4, low - q2 * 10**4
    halves[:, 2] = quads[0].take(q0)
    halves[:, 3] = quads[0].take(q1)
    halves[:, 4] = quads[0].take(q2)
    halves[:, 5] = quads[1].take(q3)  # the last quad's trailing zeros are the number's
    last = np.where(np.arange(cols) == cols - 1, 2 * _BIAS + 1, 0)
    words[:, 3] = ends.take((e.reshape(rows, cols) + last).ravel())
    zeros = np.flatnonzero(q3 == 0)
    for slot, q in ((4, q2), (3, q1), (2, q0)):  # a zero quad: the one before ends the digits
        if not zeros.size:
            break
        halves[zeros, slot] = quads[1].take(q[zeros])
        zeros = zeros[q[zeros] == 0]
    else:  # D = lead 10**16: no point after the leading digit
        word = words[zeros, 0]
        words[zeros, 0] = np.where(word >> 56 == 46, word & (1 << 56) - 1, word)
    cells = np.flatnonzero(per_cell)
    if cells.size:
        slots = np.where(cells % cols == cols - 1, _CELL + "\n", _CELL + ",")
        # "%g" writes a NaN of either sign as "nan": its token takes 10 of the padding spaces
        text = ("".join(slots.tolist()) % tuple(x[cells].tolist())).replace("nan" + " " * 10, AMBIGUOUS_TOKEN)
        words[cells] = np.frombuffer(text.encode("ascii"), _WORD).reshape(-1, 4)
    return words.tobytes().translate(None, b"\0 ")


def _marginal(e: ExperimentConfig, drain: DetectorDrain | SystemDrain) -> np.ndarray:
    return (e.stats.p_detector if isinstance(drain, DetectorDrain) else e.stats.p_system)(drain)


def _conditioned(e: ExperimentConfig, given, s: SystemDrain) -> np.ndarray:
    # ambiguity first: an inf-ambiguous point needs no post-selection
    given(s, where=~np.isnan(e.alphas.alpha_d1))
    return post_selected_average(e.alphas, e.stats, s)


_D, _S = tuple(DetectorDrain), tuple(SystemDrain)
_PAIRS = tuple((d, s) for d in _D for s in _S)

_QUANTITIES: dict[str, Callable] = {
    **{f"P_{x.name}": (lambda e, given, x=x: _marginal(e, x)) for x in (*_D, *_S)},
    **{f"P_{d.name}{s.name}": (lambda e, given, d=d, s=s: e.stats.joint[:, d.value, s.value])
       for d, s in _PAIRS},
    **{f"P_{d.name}_given_{s.name}":
       (lambda e, given, d=d, s=s: e.stats.joint[:, d.value, s.value] / given(s)) for s in _S for d in _D},
    **{f"P_{s.name}_given_{d.name}":
       (lambda e, given, d=d, s=s: e.stats.joint[:, d.value, s.value] / given(d)) for d, s in _PAIRS},
    "alpha_D1": lambda e, given: e.alphas.alpha_d1,
    "alpha_D2": lambda e, given: e.alphas.alpha_d2,
    **{f"cond_avg_{s.name}": (lambda e, given, s=s: _conditioned(e, given, s)) for s in _S},
    "concurrence": lambda e, given: concurrence(e.detector.qpc1, e.system.qpc1, e.coupling.gamma),
    "eta": lambda e, given: e.eta,
    **{f"S_{d.name}{s.name}": (lambda e, given, d=d, s=s: cross_noise_power(e.stats, d, s, e.bias))
       for d, s in _PAIRS},
}
"""Scan columns by name, all of one experiment, the swept config, an :class:`AveragedExperiment`:
the joint drain table averaged over the coupling model (its ``stats``), whose detector
marginals ``alpha`` inverts; ``cond_avg`` is ``inf-ambiguous`` exactly where ``alpha``
is, and ``eta`` is the damping factor.  A column reads the experiment and ``given(drain,
where)``, which returns the marginal it divides by, at its own shape."""

QUANTITIES = tuple(_QUANTITIES)


def _evaluate(config: ExperimentConfig, parameter: str, grid: np.ndarray,
              names: tuple[str, ...]) -> str:
    """CSV of the named quantities over a grid of one sweep parameter.

    Every marginal a column divides by must exceed 1e-12 wherever that
    column is defined.
    """
    if any(name.startswith("S_") for name in names) and config.bias is None:
        raise ConfigError("noise quantities need a bias section in the config")
    e = swept(config, parameter, grid)
    required = {}  # per drain, where a column divides by its marginal

    def given(drain: DetectorDrain | SystemDrain, where=True) -> np.ndarray:
        """The marginal a column divides by, required above 1e-12 ``where``."""
        required[drain] = required.get(drain, False) | where
        return _marginal(e, drain)

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        columns = [_QUANTITIES[name](e, given) for name in names]
    require_post_selection({
        drain: np.where(required[drain], _marginal(e, drain), 1.0)
        for drain in (*_D, *_S) if drain in required
    })
    return _table_csv([parameter, *names], np.column_stack(np.broadcast_arrays(grid, *columns)))


# The most grid points or events that a request may ask for.  numpy counts a
# grid in doubles, and the estimator's event counts enter doubles too: both
# hold every integer only up to 2**53.  A smaller grid that no allocation can
# hold raises MemoryError, which ``main`` reports with the same words.
_MAX_COUNT = 2**53


def _require_fits(count: int, what: str) -> None:
    if count > _MAX_COUNT:
        raise ConfigError(f"the request does not fit in memory: {count} {what}")


# The most events that ``sample_events_tally``'s legacy binomial draws: it takes
# its count as a C ``long``, 2**63 - 1 on 64-bit Linux and macOS (above
# ``_MAX_COUNT``) but 2**31 - 1 where a ``long`` is 32 bits, as on Windows.
_MAX_BINOMIAL = int(np.iinfo(np.long).max)


def _integer(value, message: str) -> int:
    if (index := _index(value)) is None:
        raise ConfigError(f"{message}, got {value!r}")
    return index


def _require_bounds(minimum: float, maximum: float) -> None:
    """Raise ``ConfigError`` naming a sweep bound that is not a finite number,
    which ``<``, ``min`` and ``max`` would let through as NaN."""
    try:
        _require_finite(minimum=minimum, maximum=maximum)
    except ValueError as exc:
        raise ConfigError(f"sweep {exc}") from None


def _grid(minimum: float, maximum: float, count: int) -> np.ndarray:
    _require_fits(count, "grid points")
    grid = np.linspace(minimum, maximum, count)
    # clamp endpoint rounding so domain-validated values stay in range
    grid[0], grid[-1] = minimum, maximum
    return grid


def run_scan(config: ExperimentConfig, parameter: str, minimum: float, maximum: float, count: int,
             quantities: tuple[str, ...]) -> str:
    """CSV document for a one-parameter scan of ``count`` points from
    ``minimum`` to ``maximum``; rows follow grid order.

    Raises ``ConfigError``, in this order, for a parameter not in
    ``SWEEPS``, a count that is not an integer, fewer than 2 points, a bound
    that is not a finite number, a minimum not below the maximum, a range
    outside the parameter's domain, a quantity not in ``QUANTITIES`` and a
    count too large to hold.
    """
    if parameter not in SWEEPS:
        raise ConfigError(f"unknown sweep parameter {parameter!r}; choose from {', '.join(SWEEPS)}")
    count = _integer(count, "sweep count must be an integer")
    if count < 2:
        raise ConfigError("sweep needs at least 2 grid points")
    _require_bounds(minimum, maximum)
    if not minimum < maximum:
        raise ConfigError("sweep minimum must be below maximum")
    check_sweep_domain(parameter, minimum, maximum)
    for name in quantities:
        if name not in _QUANTITIES:
            raise ConfigError(f"unknown quantity {name!r}; choose from {', '.join(QUANTITIES)}")
    return _evaluate(config, parameter, _grid(minimum, maximum, count), quantities)


def run_erasure(config: ExperimentConfig, minimum: float, maximum: float, count: int) -> str:
    """CSV of unconditioned and conditional system fringes over phi_s.

    The bounds may come in either order; both must lie in the phi_s domain.
    Raises ``ConfigError`` for a count that is not an integer, fewer than 2
    points, a bound that is not a finite number, bounds outside the domain
    and a count too large to hold.
    """
    count = _integer(count, "sweep count must be an integer")
    if count < 2:
        raise ConfigError("sweep needs at least 2 grid points")
    _require_bounds(minimum, maximum)
    check_sweep_domain("phi_s", min(minimum, maximum), max(minimum, maximum))
    grid = _grid(minimum, maximum, count)
    return _evaluate(config, "phi_s", grid, ("P_S1", "P_S1_given_D1", "P_S1_given_D2"))


def run_montecarlo(config: ExperimentConfig, n: int, seed: int) -> str:
    """CSV report of one seeded estimator run.

    Event counts are drawn with :func:`sample_events_tally` from the exact joint drain
    distribution averaged over the coupling model, the ``stats`` of the config, an
    :class:`AveragedExperiment`, the table every ``scan`` column reads; its detector
    marginals give the predicted MSE.  The contextual values come from the config's
    averaged detector bundle, as ``scan``'s ``alpha_*`` columns do, so they invert the
    table's drain probabilities.  With a budget section the report includes the
    observation-time bound.  A report that is not finite exits as a configuration error,
    and so do an ``n`` or ``seed`` not of an integer type, an ``n`` below 1 or above
    ``2**53`` (or above a C ``long``, where that is smaller) and a ``seed`` outside
    ``[0, 2**64)``.
    """
    n, seed = _integer(n, "--n must be an integer"), _integer(seed, "--seed must be an integer")
    if n < 1:
        raise ConfigError("--n must be at least 1")
    if not 0 <= seed < 2**64:
        raise ConfigError("--seed must be a 64-bit unsigned integer in [0, 2**64)")
    _require_fits(n, "events")
    if n > _MAX_BINOMIAL:
        raise ConfigError(f"--n must be at most {_MAX_BINOMIAL}, numpy's C long on this platform")
    cv = contextual_values(config.observable, config.bundle)
    counts = sample_events_tally(config.stats, n, seed)
    (p11, p12), (p21, p22) = config.stats.joint.tolist()  # a row's float sum has numpy's bits
    report = contextual_estimate(counts, cv, probabilities=(p11 + p12, p21 + p22))
    values = (report.estimate, report.empirical_variance, report.predicted_mse,
              report.mse_upper_bound)
    header = ["seed", "n", "estimate", "empirical_variance", "predicted_mse",
              "mse_upper_bound", "rng_algorithm"]
    row = [str(seed), str(report.n), *map(_fmt, values), RNG_ALGORITHM]
    if config.budget is not None:
        rms = config.budget.target_rms
        bound = (observation_time(cv, config.budget),
                 (cv.alpha_d1 * cv.alpha_d1 + cv.alpha_d2 * cv.alpha_d2) / (rms * rms))
        if not all(map(math.isfinite, bound)):
            raise ConfigError("budget: the observation time is not a finite number")
        header += ["observation_time_s", "required_events"]
        row += [_fmt(x) for x in bound]
    return _csv(header, [row])


def run_povm(config: ExperimentConfig) -> str:
    """Name,value CSV of the measurement layer for one configuration."""
    raw, damped, coupling = config.fringes, config.bundle, config.coupling
    povm = povm_pair(measurement_operators(config.detector, coupling.gamma))
    cv = config.alphas  # NaN where ambiguous
    rows = [(name, _fmt(value)) for name, value in [
        ("beta_plus", raw.beta_plus), ("beta_minus", raw.beta_minus),
        ("visibility", raw.visibility), ("Gamma", raw.Gamma), ("Delta", raw.Delta),
        ("eta", config.eta), ("eta_prime", coupling.pair_probability * config.eta),
        ("Gamma_damped", damped.Gamma), ("Delta_damped", damped.Delta),
        ("E_D1_LL", povm.diag_d1[0]), ("E_D1_UU", povm.diag_d1[1]),
        ("E_D2_LL", povm.diag_d2[0]), ("E_D2_UU", povm.diag_d2[1]),
        ("alpha_D1", cv.alpha_d1), ("alpha_D2", cv.alpha_d2),
    ]]
    return _csv(["quantity", "value"], rows)


def run_interaction_phase(config: ExperimentConfig) -> str:
    """CSV of geometry-derived phases for the config's geometry section."""
    if config.geometry is None:
        raise ConfigError("interaction-phase needs a geometry section in the config")
    geom = config.geometry
    rows = [
        ("coupling_phase", _fmt(coupling_phase(geom))),
        ("coulomb_constant", _fmt(geom.coulomb_constant)),
    ]
    if config.bias is not None:
        fermi_j = ELEMENTARY_CHARGE * config.bias.fermi_energy
        try:
            single = dynamical_phase(fermi_j, geom.copropagation_length, geom.propagation_speed)
        except ValueError as exc:  # a phase that is not finite, or fermi_j underflows to zero
            raise ConfigError(f"bias and geometry: {exc}") from None
        if not math.isfinite(2.0 * single):
            raise ConfigError("bias and geometry: the dynamical phase is not a finite number")
        rows += [
            ("dynamical_phase_single", _fmt(single)),
            ("dynamical_phase_pair", _fmt(2.0 * single)),
        ]
    return _csv(["quantity", "value"], rows)


def _parse_sweep_flag(text: str) -> tuple[str, float, float, int]:
    parts = text.split(":")
    if len(parts) != 4:
        raise ConfigError("--sweep expects NAME:MIN:MAX:COUNT")
    name, lo_text, hi_text, count_text = parts
    try:
        count = int(count_text)
    except ValueError:
        raise ConfigError(f"sweep count {count_text!r} is not an integer") from None
    return name, evaluate_number(lo_text), evaluate_number(hi_text), count


def _write_output(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out_path, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output {out_path}: {exc}") from None


@cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, dict[str, argparse.Action]]]:
    """The command-line parser and each subcommand's options by flag, as
    ``add_argument`` returned them, by subcommand name; built on first use
    and shared by every call."""
    parser = argparse.ArgumentParser(
        prog="coupled-mzi",
        description="Coupled electronic Mach-Zehnder interferometer simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    options = {}

    def add(name, summary, *arguments):
        """A subcommand whose arguments are (flag, keywords) pairs."""
        p = sub.add_parser(name, help=summary)
        options[name] = {flag: p.add_argument(flag, **keywords) for flag, keywords in arguments}

    common = (("--config", {"required": True, "help": "configuration file path"}),
              ("--out", {"default": None, "help": "output path (default: stdout)"}))
    add("scan", "one-parameter sweep to CSV", *common,
        ("--sweep", {"required": True, "help": "NAME:MIN:MAX:COUNT"}),
        ("--quantities", {"required": True, "help": f"comma-separated subset of: {', '.join(QUANTITIES)}"}))
    add("montecarlo", "seeded estimator run to CSV", *common,
        ("--seed", {"type": int, "default": 0, "help": "64-bit RNG seed"}),
        ("--n", {"type": int, "default": 10000, "help": "number of events"}))
    add("povm", "measurement-layer summary to CSV", *common)
    add("erasure", "conditional fringe sweep to CSV", *common,
        ("--sweep", {"default": "phi_s:0:2*pi:101", "help": "phi_s:MIN:MAX:COUNT"}))
    add("interaction-phase", "geometry-derived phases to CSV", *common)
    add("validate-config", "parse and validate a config file", ("--config", {"required": True}))
    return parser, options


def _plain_args(command: str, words: list[str]) -> argparse.Namespace | None:
    """The namespace argparse gives ``[command, *words]`` when the words are
    exact ``--flag value`` pairs of the command's options: each flag at most
    once, no value that starts with ``-``, every required option present and
    every typed value converted.  Any other argv gives None and goes to
    argparse.  After a ``gc.collect()``, a ``montecarlo`` argv took about
    35 µs here and 110 µs in argparse (2 vCPUs)."""
    options = _parsers()[1][command]
    given = dict(zip(words[::2], words[1::2]))
    if len(words) % 2 or len(given) < len(words) // 2 or not given.keys() <= options.keys():
        return None
    args = argparse.Namespace(command=command)
    for flag, action in options.items():
        value = given.get(flag)
        if value is None:
            if action.required:
                return None
            value = action.default
        elif value.startswith("-"):
            return None
        elif action.type is not None:
            try:
                value = action.type(value)
            except (TypeError, ValueError):
                return None
        setattr(args, action.dest, value)
    return args


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    """``_parsers()[0].parse_args(argv)``, byte for byte: a subcommand's name
    followed by exact option pairs takes :func:`_plain_args`, and every
    other argv, usage errors and ``-h`` included, goes to argparse."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, options = _parsers()
    args = _plain_args(argv[0], argv[1:]) if argv and argv[0] in options else None
    return parser.parse_args(argv) if args is None else args


# package error -> (stderr label, exit code); an error's nearest listed class
# decides, and any other package error exits as a configuration error
_EXITS = {ConfigError: ("config error", 2), AmbiguousMeasurementError: ("ambiguous measurement", 3),
          PostSelectionImpossibleError: ("post-selection impossible", 4), CoupledMziError: ("error", 2)}


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    try:
        config = load_config(args.config)
        if args.command == "validate-config":
            print(f"ok: {args.config}")
            return 0
        if args.command == "scan":
            name, lo, hi, count = _parse_sweep_flag(args.sweep)
            quantities = tuple(q.strip() for q in args.quantities.split(",") if q.strip())
            if not quantities:
                raise ConfigError("--quantities must name at least one quantity")
            text = run_scan(config, name, lo, hi, count, quantities)
        elif args.command == "montecarlo":
            text = run_montecarlo(config, args.n, args.seed)
        elif args.command == "povm":
            text = run_povm(config)
        elif args.command == "erasure":
            name, lo, hi, count = _parse_sweep_flag(args.sweep)
            if name != "phi_s":
                raise ConfigError("erasure sweeps phi_s only")
            text = run_erasure(config, lo, hi, count)
        else:
            text = run_interaction_phase(config)
        _write_output(text, args.out)
        return 0
    except CoupledMziError as exc:
        label, code = next(_EXITS[kind] for kind in type(exc).__mro__ if kind in _EXITS)
        print(f"{label}: {exc}", file=sys.stderr)
        return code
    except MemoryError as exc:  # a sweep count too large to allocate
        print(f"config error: the request does not fit in memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
