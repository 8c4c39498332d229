"""Byte identity of the CLI over a fixed set of invocations.

    PYTHONDONTWRITEBYTECODE=1 python tests/identity.py [ROOT] > identity.txt

runs every invocation in process against the package under ``ROOT/src``
(default: the checkout holding this script) and prints one line per
invocation: the SHA-256 of its stdout, stderr and exit code, then its argv.
Each ``montecarlo`` invocation gets a second line, ``codes`` before its argv:
the SHA-256 of the event codes that ``sample_events`` returns for the
arguments of each call of the count sampler ``sample_events_tally`` in it.
The counts are drawn from the law of those codes, not counted from them, so
this line guards the Philox event codes and the first line the counts.
Two checkouts print the same lines exactly when each invocation gives the
same bytes, exit code and event codes in both.  ``tests/golden/identity.txt``
holds the lines, and ``tests/test_identity.py`` checks them in the test
suite; a change that moves bytes on purpose regenerates the file with the
command above.

    PYTHONDONTWRITEBYTECODE=1 python tests/identity.py --against OTHER [ROOT]

runs the set against ``ROOT`` and against the checkout ``OTHER``, each in a
subprocess of this script, since the two packages share a name.  It prints
the counts of moved lines, then each invocation whose output moved, with
the largest relative difference ``|a - b| / max(|a|, |b|)`` and the largest
absolute difference ``|a - b|`` over the numeric cells of its stdout, and how
many other cells, stderr or exit codes differ, then each ``montecarlo``
whose event codes moved.

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

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import subprocess
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


def output(main, argv: list[str], work: str) -> str:
    """Stdout, stderr and exit code, NUL-separated, with ``work`` read as ``$WORK``.
    Every warning is written to stderr, also under a test runner that records them."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = _show
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
    return f"{out.getvalue()}\0{err.getvalue()}\0{code}".replace(work, "$WORK")


def runs(cli, make_round, work: Path):
    """``(argv, output, codes)`` per invocation of the set, from the ``cli``
    module: the argv as a line shows it, :func:`output`, and for
    ``montecarlo`` the SHA-256 of the event codes that ``sample_events``
    gives for the arguments of each sampler call in it (else None), whether
    the checkout's ``cli`` calls ``sample_events_tally`` or, older,
    ``sample_events``.  Config paths are read from the current directory,
    the root of the checkout; the benchmark rounds' configs are written
    under ``work``."""
    name = "sample_events_tally" if hasattr(cli, "sample_events_tally") else "sample_events"
    sampled, sampler = [], getattr(cli, name)
    sample_events = importlib.import_module(".stochastic", cli.__package__).sample_events

    def capture(*args, **kwargs):
        sampled.append(sample_events(*args, **kwargs))
        return sampler(*args, **kwargs)

    tmp = str(work)
    setattr(cli, name, capture)
    try:
        for argv in argvs(make_round, work):
            sampled.clear()
            text = output(cli.main, argv, tmp)
            codes = hashlib.sha256(b"".join(c.tobytes() for c in sampled)).hexdigest() \
                if argv[0] == "montecarlo" else None
            yield " ".join(argv).replace(tmp, "$WORK"), text, codes
    finally:
        setattr(cli, name, sampler)


def lines(cli, make_round, work: Path) -> list[str]:
    """The set's lines, as :func:`runs` gives the invocations."""
    found = []
    for argv, text, codes in runs(cli, make_round, work):
        found.append(f"{hashlib.sha256(text.encode()).hexdigest()}  {argv}")
        if codes is not None:
            found.append(f"{codes}  codes {argv}")
    return found


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def moved(text: str, other: str) -> str:
    """How one invocation's :func:`output` differs from ``other``'s: the
    largest relative and absolute differences over the numeric cells of
    stdout, and the count of other stdout cells that differ, stderr or exit
    code."""
    (out, *rest), (other_out, *other_rest) = text.split("\0", 1), other.split("\0", 1)
    rows, other_rows = out.splitlines(), other_out.splitlines()
    worst, widest, cells = 0.0, 0.0, abs(len(rows) - len(other_rows))
    for row, other_row in zip(rows, other_rows):
        row, other_row = row.split(","), other_row.split(",")
        cells += abs(len(row) - len(other_row))
        for a, b in zip(row, other_row):
            if a == b:
                continue
            x, y = _number(a), _number(b)
            if x is None or y is None or not math.isfinite(x - y):
                cells += 1
            else:
                worst, widest = max(worst, abs(x - y) / max(abs(x), abs(y))), max(widest, abs(x - y))
    report = f"max rel {worst:.3g}, max abs {widest:.3g}"
    if cells:
        report += f", {cells} other cells"
    if rest != other_rest:
        report += ", stderr or exit code"
    return report


def against(root: Path, other: Path) -> list[str]:
    """The report of ``--against``: one line per moved invocation, after
    the counts of moved invocations and of moved event-code digests."""
    dumps, env = [], {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    for checkout in (root, other):
        result = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--dump", str(checkout)],
                                env=env, stdout=subprocess.PIPE, check=True)
        dumps.append(json.loads(result.stdout))
    if [argv for argv, _, _ in dumps[0]] != [argv for argv, _, _ in dumps[1]]:
        raise SystemExit("the two checkouts run different invocation sets")
    found = [f"{argv}: {moved(text, other_text)}"
             for (argv, text, _), (_, other_text, _) in zip(*dumps) if text != other_text]
    codes = [f"{argv}: event codes" for (argv, _, c), (_, _, other_c) in zip(*dumps) if c != other_c]
    return [f"{len(found)} of {len(dumps[0])} invocations and {len(codes)} event-code digests moved",
            *found, *codes]


def _checkout(root: Path):
    """The ``cli`` module and ``make_round`` of the checkout ``root``, from
    which config paths are then read."""
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    os.chdir(root)  # config paths in the golden argvs are relative to the root
    from coupled_mzi import cli
    from workloads import make_round

    return cli, make_round


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("root", nargs="?", type=Path, default=Path(__file__).resolve().parents[1])
    parser.add_argument("--against", type=Path, help="another checkout to compare with")
    parser.add_argument("--dump", action="store_true", help=argparse.SUPPRESS)  # JSON of runs()
    args = parser.parse_args()
    root = args.root.resolve()
    if args.against is not None:
        print("\n".join(against(root, args.against.resolve())))
    else:
        with tempfile.TemporaryDirectory() as tmp:
            if args.dump:
                json.dump(list(runs(*_checkout(root), Path(tmp))), sys.stdout)
            else:
                print("\n".join(lines(*_checkout(root), Path(tmp))))
