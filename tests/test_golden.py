"""CLI output against golden CSVs.

Each case in ``golden/cases.json`` is one CLI invocation (config paths
relative to the repository root) with its exit code and, on success, its
output in ``golden/<name>.csv``.  Headers, row counts, ``inf-ambiguous``
tokens and exit codes must match exactly.  Numbers must agree within
``1e-12 * scale``: ``max(1, |alpha|) / min(1, |V Gamma_bar|)`` of the
damped detector bundle for ``alpha_*`` and ``cond_avg_*``, ``1 / P(Y)`` of
the coupling-averaged table for a conditional ``P(X|Y)``, the prefactor
``2 e^3 V / h`` for noise power, ``max(1, |value|)`` for sweep columns and
name/value rows, and 1 for the other probabilities.

The goldens were captured from the per-point implementation of ``scan``
and ``erasure``; the four ``measurement_*`` scans and ``povm`` were
captured again, from the array pipeline, when their ``alpha`` and damped
rows became the exact fluctuation average, and every scan of a column
group that reads the joint table, and both ``erasure`` cases, on the
fluctuating ``unbalanced.conf`` when those columns began to read the
coupling-averaged table.  Regenerate them only for an
intended change of answers.  A recapture rewrites the manifest and only
the files whose new output the test would reject, judged by the test's own
comparison, so last-digit drift within the tolerances leaves files alone:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import sys
from pathlib import Path

import pytest

from coupled_mzi import (
    AmbiguousMeasurementError,
    AveragedExperiment,
    contextual_values,
    load_config,
)
from coupled_mzi.cli import main
from coupled_mzi.config import swept
from coupled_mzi.scattering import ELEMENTARY_CHARGE, PLANCK_CONSTANT

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"
MANIFEST = GOLDEN / "cases.json"
TOKEN = "inf-ambiguous"

OWN_CONFIG = "tests/golden/unbalanced.conf"
GROUPS = {
    "marginals": "P_D1,P_D2,P_S1,P_S2",
    "joint": "P_D1S1,P_D1S2,P_D2S1,P_D2S2",
    "conditionals": "P_D1_given_S1,P_D2_given_S1,P_D1_given_S2,P_D2_given_S2,"
                    "P_S1_given_D1,P_S2_given_D1,P_S1_given_D2,P_S2_given_D2",
    "measurement": "alpha_D1,alpha_D2,cond_avg_S1,cond_avg_S2",
    "scalars": "concurrence,eta",
    "noise": "S_D1S1,S_D1S2,S_D2S1,S_D2S2",
}
RANGES = {"gamma": "0:2*pi", "phi_d": "-pi:pi", "phi_s": "0:2*pi", "delta_s1": "-1:1"}


def cases() -> dict[str, list[str]]:
    """Every golden invocation by name: the README recipes (Monte Carlo
    excepted: its bytes are pinned by digests in ``test_stochastic``), one
    21-point scan per quantity group and sweep parameter on the test's own
    config, and its erasure, povm and interaction-phase output."""
    ambiguous = "configs/ambiguous_measurement.conf"
    strong = "configs/strong_measurement.conf"
    out = {
        "readme_alpha_gamma": ["scan", "--config", ambiguous, "--sweep", "gamma:0:2*pi:201",
                               "--quantities", "alpha_D1,alpha_D2"],
        "readme_p_d1_phi_d": ["scan", "--config", strong, "--sweep", "phi_d:0:2*pi:201",
                              "--quantities", "P_D1"],
        "readme_delta_s1": ["scan", "--config", strong, "--sweep", "delta_s1:-1:1:81",
                            "--quantities", "P_D1,P_D1S1,concurrence"],
        "readme_erasure": ["erasure", "--config", "configs/erasure.conf",
                           "--sweep", "phi_s:0:2*pi:201"],
        "readme_cond_avg_gamma": ["scan", "--config", strong, "--sweep", "gamma:0.05:pi:64",
                                  "--quantities", "cond_avg_S1,cond_avg_S2"],
        "readme_eta_sigma": ["scan", "--config", ambiguous, "--sweep", "sigma:0:pi:101",
                             "--quantities", "eta"],
        "readme_erasure_ambiguous": ["erasure", "--config", ambiguous, "--sweep", "phi_s:0:2*pi:201"],
        "readme_povm_strong": ["povm", "--config", strong],
        "readme_povm_unbalanced_detector": ["povm", "--config", "configs/unbalanced_detector.conf"],
    }
    for group, names in GROUPS.items():
        for parameter, bounds in RANGES.items():
            out[f"{group}_{parameter}"] = ["scan", "--config", OWN_CONFIG, "--sweep",
                                           f"{parameter}:{bounds}:21", "--quantities", names]
    out["eta_sigma"] = ["scan", "--config", OWN_CONFIG, "--sweep", "sigma:0:pi:21",
                        "--quantities", "eta"]
    out["erasure"] = ["erasure", "--config", OWN_CONFIG, "--sweep", "phi_s:-pi:pi:21"]
    out["erasure_descending"] = ["erasure", "--config", OWN_CONFIG, "--sweep", "phi_s:pi:-1:21"]
    out["povm"] = ["povm", "--config", OWN_CONFIG]
    out["interaction_phase"] = ["interaction-phase", "--config", OWN_CONFIG]
    return out


def run(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of one invocation, config paths made absolute."""
    argv = [str(ROOT / a) if prev == "--config" else a for prev, a in zip([""] + argv, argv)]
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, buffer.getvalue()


def capture() -> None:
    old = _manifest() if MANIFEST.exists() else {}
    manifest = {}
    for name, argv in cases().items():
        code, out = run(argv)
        manifest[name] = {"argv": argv, "exit": code}
        path = GOLDEN / f"{name}.csv"
        kept = (old.get(name, {}).get("argv") == argv and path.exists()
                and difference(argv, code, out, old[name]["exit"], path) is None)
        if code == 0 and not kept:
            path.write_text(out, encoding="utf-8", newline="")
    MANIFEST.write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")


def recapture(argv: list[str] | None = None) -> None:
    """Command line of this file: no options; ``-h`` prints the recipe above
    and writes nothing, any argument exits 2, a bare run calls :func:`capture`."""
    argparse.ArgumentParser(prog="tests/test_golden.py", description=__doc__,
                            formatter_class=argparse.RawDescriptionHelpFormatter).parse_args(argv)
    capture()


# ----------------------------------------------------------------- scales


def _alpha_scale(point) -> float:
    """``max(1, |alpha|) / min(1, |V Gamma_bar|)`` of the damped detector bundle."""
    p = AveragedExperiment(point.detector, point.system, point.coupling).bundle
    try:
        cv = contextual_values(point.observable, p)
    except AmbiguousMeasurementError:
        return math.inf
    return max(1.0, abs(cv.alpha_d1), abs(cv.alpha_d2)) / min(1.0, abs(p.visibility * p.Gamma))


def scale(name: str, point) -> float:
    """Tolerance scale of column ``name`` at one experiment point."""
    if name.startswith(("alpha_", "cond_avg_")):
        return _alpha_scale(point)
    if "_given_" in name:
        table = AveragedExperiment(point.detector, point.system, point.coupling).stats.joint
        drain = name[-2:]
        marginal = table.sum(axis=1 if drain[0] == "D" else 0)[int(drain[1]) - 1]
        return 1.0 / marginal
    if name.startswith("S_D"):
        return 2.0 * ELEMENTARY_CHARGE**3 * point.bias.bias_voltage / PLANCK_CONSTANT
    return 1.0


# ------------------------------------------------------------------ tests


def _manifest() -> dict:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def _read(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def _compare(where: str, got: str, want: str, tolerance: float) -> str | None:
    if TOKEN in (got, want):
        return None if got == want else f"{where}: {got!r}, expected {want!r}"
    if abs(float(got) - float(want)) <= tolerance:
        return None
    return f"{where}: {got} differs from {want} by more than {tolerance:.3g}"


def difference(argv: list[str], code: int, out: str, want_code: int, golden: Path) -> str | None:
    """Where one invocation's exit code and output differ from the golden
    ones beyond the tolerances of the module docstring; None when they agree."""
    if code != want_code:
        return f"exit code {code}, expected {want_code}"
    if code != 0:
        return None
    got, want = _read(out), _read(golden.read_text(encoding="utf-8"))
    if got[0] != want[0]:
        return f"header {got[0]}, expected {want[0]}"
    if len(got) != len(want):
        return f"{len(got)} rows, expected {len(want)}"
    config = load_config(str(ROOT / argv[argv.index("--config") + 1]))
    if want[0] == ["quantity", "value"]:
        for (key, value), (want_key, want_value) in zip(got[1:], want[1:]):
            if key != want_key:
                return f"row {key!r}, expected {want_key!r}"
            s = _alpha_scale(config) if key.startswith("alpha_") else \
                max(1.0, abs(float(want_value)))
            problem = _compare(key, value, want_value, 1e-12 * s)
            if problem:
                return problem
        return None
    parameter = want[0][0]
    for i, (row, want_row) in enumerate(zip(got[1:], want[1:])):
        if len(row) != len(want_row):
            return f"row {i} has {len(row)} cells, expected {len(want_row)}"
        value = float(want_row[0])
        problem = _compare(f"row {i} {parameter}", row[0], want_row[0], 1e-12 * max(1.0, abs(value)))
        point = swept(config, parameter, value)
        for column, cell, want_cell in zip(want[0][1:], row[1:], want_row[1:]):
            problem = problem or _compare(f"row {i} {column}", cell, want_cell,
                                          1e-12 * scale(column, point))
        if problem:
            return problem
    return None


@pytest.mark.parametrize("name", sorted(cases()))
def test_matches_golden(name):
    case = _manifest()[name]
    code, out = run(case["argv"])
    problem = difference(case["argv"], code, out, case["exit"], GOLDEN / f"{name}.csv")
    assert problem is None, problem


def test_manifest_lists_every_case():
    assert sorted(_manifest()) == sorted(cases())
    for name, argv in cases().items():
        assert _manifest()[name]["argv"] == argv


MONTECARLO = {
    "montecarlo_budget": ["montecarlo", "--config", "configs/strong_measurement.conf",
                          "--n", "1000", "--seed", "7"],
    "montecarlo_no_budget": ["montecarlo", "--config", OWN_CONFIG, "--n", "1000", "--seed", "7"],
}


@pytest.mark.parametrize("name", [*sorted(cases()), *MONTECARLO])
def test_no_cell_needs_quoting(name):
    """Every output is plain comma joins: reading it as CSV and joining the
    rows back gives the same bytes, so no cell was ever quoted."""
    code, text = run(MONTECARLO[name] if name in MONTECARLO else _manifest()[name]["argv"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(text)))
    assert len({len(row) for row in rows}) == 1
    assert text == "".join(",".join(row) + "\n" for row in rows)


def test_help_writes_nothing(tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(globals(), "GOLDEN", tmp_path)
    monkeypatch.setitem(globals(), "MANIFEST", tmp_path / "cases.json")
    with pytest.raises(SystemExit) as exit_info:
        recapture(["--help"])
    assert exit_info.value.code == 0
    assert "python tests/test_golden.py" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exit_info:
        recapture(["--force"])
    assert exit_info.value.code == 2
    assert list(tmp_path.iterdir()) == []


if __name__ == "__main__":
    sys.exit(recapture())
