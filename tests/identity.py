"""Byte identity of the CLI over a fixed set of invocations.

    PYTHONDONTWRITEBYTECODE=1 python tests/identity.py [ROOT] > identity.txt

runs every invocation in process against the package under ``ROOT/src``
(default: the checkout holding this script) and prints one line per
invocation: the SHA-256 of its stdout, stderr and exit code, then its argv.
Each ``montecarlo`` invocation gets a second line, ``codes`` before its argv:
the SHA-256 of the event codes that ``sample_events`` returned in it.
Two checkouts print the same lines exactly when each invocation gives the
same bytes, exit code and event codes in both, so a ``diff`` of two runs
compares them.  ``tests/golden/identity.txt`` holds the lines, and
``tests/test_identity.py`` checks them in the test suite; a change that moves
bytes on purpose regenerates the file with the command above.

The set has 574 invocations:
- the 38 argvs of ``tests/golden/cases.json``;
- on three shipped configs and ``tests/golden/unbalanced.conf``,
  ``montecarlo`` at 4 seeds x 3 event counts, ``povm``, ``erasure``,
  ``interaction-phase``, ``validate-config`` and a 9-column ``scan`` over
  each of 6 sweeps (88); ``unbalanced_detector.conf`` has its golden argv;
- the ``sweep`` decks of seeds 11 and 12 and round 0 of ``montecarlo`` and
  ``montecarlo_fluct`` at seed 21, from ``bench/workloads.py`` (448).

These 448 invocations come from ``bench/workloads.make_round``, so a change
to how it generates a deck moves 448 of the lines.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import warnings
from pathlib import Path

CONFIGS = ("configs/ambiguous_measurement.conf", "configs/erasure.conf",
           "configs/strong_measurement.conf", "tests/golden/unbalanced.conf")
COLUMNS = "P_D1,P_S1_given_D1,P_D2_given_S2,alpha_D1,cond_avg_S1,cond_avg_S2,concurrence,eta,S_D1S1"
SWEEPS = ("gamma:0:2*pi:257", "phi_d:-pi:pi:257", "phi_s:0:2*pi:257", "delta_s1:-1:1:257",
          "sigma:0:pi:101", "sigma:0:pi:1001")


def argvs(make_round, work: Path) -> list[list[str]]:
    """The set's argvs; the configs of the benchmark rounds are written under ``work``."""
    cases = json.loads(Path("tests/golden/cases.json").read_text(encoding="utf-8"))
    found = [case["argv"] for case in cases.values()]
    for config in CONFIGS:
        found += [["montecarlo", "--config", config, "--seed", str(seed), "--n", str(n)]
                  for seed in (1, 7, 12345, 2**64 - 1) for n in (1, 1000, 100000)]
        found += [[command, "--config", config] for command in ("povm", "erasure", "interaction-phase",
                                                                "validate-config")]
        found += [["scan", "--config", config, "--sweep", s, "--quantities", COLUMNS] for s in SWEEPS]
    for workload, seed in (("sweep", 11), ("sweep", 12), ("montecarlo", 21), ("montecarlo_fluct", 21)):
        (work / f"{workload}-{seed}").mkdir()  # each round names its configs alike
        found += [list(op.argv) for op in make_round(workload, seed, 0, work / f"{workload}-{seed}")]
    return found


def _show(message, category, filename, lineno, file=None, line=None):
    sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))


def digest(main, argv: list[str], work: str) -> str:
    """SHA-256 of stdout, stderr and exit code, with ``work`` read as ``$WORK``.
    Every warning is written to stderr, also under a test runner that records them."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = _show
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
    text = f"{out.getvalue()}\0{err.getvalue()}\0{code}".replace(work, "$WORK")
    return hashlib.sha256(text.encode()).hexdigest()


def lines(cli, make_round, work: Path) -> list[str]:
    """The set's lines, from the ``cli`` module, with the benchmark rounds'
    configs written under ``work``; config paths are read from the current
    directory, the root of the checkout."""
    sampled, sample_events = [], cli.sample_events

    def capture(*args, **kwargs):
        sampled.append(sample_events(*args, **kwargs))
        return sampled[-1]

    found, tmp = [], str(work)
    cli.sample_events = capture
    try:
        for argv in argvs(make_round, work):
            sampled.clear()
            found.append(f"{digest(cli.main, argv, tmp)}  {' '.join(argv)}".replace(tmp, "$WORK"))
            if argv[0] == "montecarlo":
                codes = hashlib.sha256(b"".join(c.tobytes() for c in sampled)).hexdigest()
                found.append(f"{codes}  codes {' '.join(argv)}".replace(tmp, "$WORK"))
    finally:
        cli.sample_events = sample_events
    return found


if __name__ == "__main__":
    root = Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).resolve().parents[1]).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    os.chdir(root)  # config paths in the golden argvs are relative to the root
    from coupled_mzi import cli
    from workloads import make_round

    with tempfile.TemporaryDirectory() as tmp:
        print("\n".join(lines(cli, make_round, Path(tmp))))
