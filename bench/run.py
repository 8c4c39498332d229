"""Benchmark of the coupled-mzi CLI: one workload, one seed, one run.

Usage (from the repository root)::

    python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Each op is one in-process ``coupled_mzi.cli.main(argv)`` call in a closed
loop with a single client; the next op starts when the previous one
returns.  Ops run in whole rounds of a fixed deck (see ``workloads.py``);
the number of rounds follows from ``--seconds`` alone, so a seed always
attempts the same ops and fails the same ones.  Every output is
checked against ``oracle.py``.  With ``--trace 0`` the last line holds
the end-to-end metrics; with ``--trace 1`` every op runs once plain and
once traced, and the last line holds the per-layer metrics.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP pools to one thread before numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import oracle  # noqa: E402
from tracing import SAMPLER_PREFIX, Tracer  # noqa: E402
from workloads import WORKLOADS, Op, make_round  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

MIN_OPS = 100  # the 90th percentile then has at least ten samples above it
SETUP_PROBES = 5
# Wall seconds of one untraced round, its checks included, on 2 vCPUs at
# the commit that introduced the benchmark.  A run executes
# ``--seconds / ROUND_SECONDS`` rounds (half as many when traced, since
# each op then runs twice), so it lasts about ``--seconds`` there; how many
# ops a run attempts never depends on how fast they went.
ROUND_SECONDS = {"sweep": 10.5, "montecarlo": 3.1, "montecarlo_fluct": 8.5}
# No round starts once a run has lasted this many times ``--seconds``, so
# a much slower program still exits in time (with fewer ops than planned).
OVERRUN_FACTOR = 2.5
PROBE_TIMEOUT_S = 60

END_TO_END = {
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "config.load_s": "s/op",
    "params.calls": "calls/op",
    "params.self_s": "s/op",
    "scattering.calls": "calls/op",
    "scattering.self_s": "s/op",
    "scattering.table_s": "s/op",
    "scattering.amplitudes_per_point": "calls/item",
    "measurement.calls": "calls/op",
    "measurement.self_s": "s/op",
    "conditioning.calls": "calls/op",
    "conditioning.self_s": "s/op",
    "conditioning.errors": "errors/op",
    "conditioning.xi_unused_calls": "calls/op",
    "stochastic.sample_self_s": "s/op",
    "stochastic.estimate_s": "s/op",
    "stochastic.events": "events/op",
    "stochastic.container_bytes_per_event": "B/event",
    "interaction.calls": "calls/op",
    "cli.self_s": "s/op",
    "cli.main_self_s": "s/op",
    "cli.output_bytes": "B/op",
    "trace.overhead_frac": "frac",
}


@dataclass
class Record:
    """One executed op, reduced to what the metrics need.

    The output itself is dropped once checked, so the benchmark's own
    memory does not grow with the number of ops a run completes.
    """

    items: int
    traced: bool
    seconds: float
    out_bytes: int
    verdict: oracle.Verdict
    label: str  # the op's argv without the config path, kept for failures


def execute(main, argv) -> tuple[int, float, str]:
    """Run one CLI call with stdout and stderr captured; time only the call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse rejects an argument
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an uncaught error is exit code 1, as from a shell
            code = 1
            traceback.print_exc(file=sys.__stderr__)
        seconds = time.perf_counter() - start
    return code, seconds, out.getvalue()


def check(op: Op, code: int, out: str, main) -> oracle.Verdict:
    if op.kind == "scan":
        return oracle.check_scan(op, code, out)
    if op.kind == "erasure":
        return oracle.check_erasure(op, code, out)
    if op.kind == "povm":
        return oracle.check_povm(op, code, out)
    if op.kind == "interaction-phase":
        return oracle.check_interaction_phase(op, code, out)
    if op.config["coupling.sigma"] == 0.0 and op.config["coupling.pair_probability"] == 1.0:
        weights = oracle.montecarlo_weights(op.config)
    else:
        # under fluctuations the weights depend on the program's damping
        # model; take the ones it reports, and judge only the estimate
        povm_code, _, povm_out = execute(main, ("povm", "--config", op.argv[2]))
        try:
            weights = oracle.povm_weights(povm_code, povm_out)
        except ValueError as exc:
            return oracle.Verdict([str(exc)], [])
    return oracle.check_montecarlo(op, code, out, weights)


def probe_setup(paths: list[str]) -> float:
    """Seconds from a fresh interpreter to first-op ready."""
    command = [sys.executable, str(BENCH / "probe.py"), str(SRC), *paths]
    start = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        ready = time.perf_counter() - start
        child.communicate(timeout=PROBE_TIMEOUT_S)
    if line.strip() != "ready" or child.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {child.returncode}")
    return ready


class Runner:
    """Runs rounds of one workload and keeps every record."""

    def __init__(self, workload: str, seed: int, trace: bool, workdir: Path):
        from coupled_mzi import cli

        self.cli = cli
        self.workload, self.seed, self.trace = workload, seed, trace
        self.workdir = workdir
        self.tracer = Tracer() if trace else None
        self.records: list[Record] = []
        self.rounds = 0
        self.planned = 0
        self.setup_samples: list[float] = []
        self.wall_s = 0.0

    def round_ops(self, index: int) -> list[Op]:
        return make_round(self.workload, self.seed, index, self.workdir)

    def run_one(self, op: Op, traced: bool) -> None:
        # start every op from an empty collector, so garbage left by the
        # oracle or by earlier ops does not trigger collections inside it
        gc.collect()
        if traced:
            self.tracer.install()
            try:
                code, seconds, out = self.tracer.run_op(
                    len(self.records), execute, self.cli.main, op.argv)
            finally:
                self.tracer.uninstall()
        else:
            code, seconds, out = execute(self.cli.main, op.argv)
        verdict = check(op, code, out, self.cli.main)
        label = "" if verdict.ok else " ".join(op.argv[:1] + op.argv[3:])
        self.records.append(Record(op.items, traced, seconds, len(out.encode()), verdict, label))

    def warm_up(self, ops: list[Op]) -> None:
        """Let lazy imports and first-call costs settle before timing."""
        for op in sorted(ops, key=lambda o: o.items)[: max(5, len(ops) // 10)]:
            execute(self.cli.main, op.argv)

    def run(self, first_round: list[Op], rounds: int, seconds: float, probe=None) -> None:
        """Run ``rounds`` rounds.  ``probe``, when given, measures set-up
        time once before each round and after the last, at least
        ``SETUP_PROBES`` times, so its median spans the whole run too."""
        begin = time.perf_counter()
        ops = first_round
        self.planned = rounds
        while self.rounds < rounds:
            if probe:
                self.setup_samples.append(probe())
            for i, op in enumerate(ops):
                if self.trace:
                    # alternate which pass runs first, so neither gains from order
                    for traced in ((False, True) if i % 2 == 0 else (True, False)):
                        self.run_one(op, traced)
                else:
                    self.run_one(op, False)
            self.rounds += 1
            if time.perf_counter() - begin > OVERRUN_FACTOR * seconds:
                break
            if self.rounds < rounds:
                ops = self.round_ops(self.rounds)
        while probe and len(self.setup_samples) < max(SETUP_PROBES, self.rounds + 1):
            self.setup_samples.append(probe())
        self.wall_s = time.perf_counter() - begin


def planned_rounds(workload: str, seconds: float, trace: bool, ops_per_round: int) -> int:
    """Rounds in a run: about ``seconds`` of work, and at least ``MIN_OPS`` ops."""
    passes = 2 if trace else 1
    rounds = round(seconds / (passes * ROUND_SECONDS[workload]))
    return max(rounds, math.ceil(MIN_OPS / ops_per_round), 1)


# ------------------------------------------------------------------ metrics


def end_to_end(records: list[Record], setup_s: float) -> dict[str, float]:
    latencies = np.array([r.seconds for r in records])
    items = sum(r.items for r in records)
    return {
        "latency_p50_s": float(np.percentile(latencies, 50)),
        "latency_p90_s": float(np.percentile(latencies, 90)),
        "items_per_s": items / float(latencies.sum()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }


def per_layer(records: list[Record], tracer: Tracer) -> tuple[dict[str, float], list[str]]:
    """Per-op layer figures over the traced ops, and notes on empty ones."""
    traced = [r for r in records if r.traced]
    plain = [r for r in records if not r.traced]
    spans = tracer.arrays()
    names = np.array(tracer.names)[spans["name_id"]]
    layers = np.array(tracer.layers)[spans["name_id"]]
    raised = np.zeros(len(names), dtype=bool)
    raised[list(tracer.raised)] = True
    ops = len(traced)
    items = sum(r.items for r in traced)

    def total(values, mask) -> float:
        return float(values[mask].sum())

    def named(*wanted) -> np.ndarray:
        return np.isin(names, wanted)

    def prefixed(prefix) -> np.ndarray:
        return np.char.startswith(names, prefix)

    metrics = {"config.load_s": total(spans["duration"], named("load_config")) / ops}
    for layer in ("params", "scattering", "measurement", "conditioning", "interaction"):
        metrics[f"{layer}.calls"] = float(np.count_nonzero(layers == layer)) / ops
    for layer in ("params", "scattering", "measurement", "conditioning"):
        metrics[f"{layer}.self_s"] = total(spans["self"], layers == layer) / ops
    metrics["scattering.table_s"] = total(spans["duration"], named("joint_probability_table")) / ops
    amplitudes = np.count_nonzero(named("joint_amplitudes"))
    metrics["scattering.amplitudes_per_point"] = amplitudes / items if items else 0.0
    metrics["conditioning.errors"] = float(np.count_nonzero(
        raised & named("conditional_table", "conditioned_average"))) / ops
    metrics["conditioning.xi_unused_calls"] = float(
        np.count_nonzero(named("xi_joint_interference"))) / ops
    metrics["stochastic.sample_self_s"] = total(spans["self"], prefixed(SAMPLER_PREFIX)) / ops
    metrics["stochastic.estimate_s"] = total(spans["duration"], named("contextual_estimate")) / ops
    events = sum(e for e, _ in tracer.sampled.values())
    container = sum(b for _, b in tracer.sampled.values())
    metrics["stochastic.events"] = events / ops
    metrics["stochastic.container_bytes_per_event"] = container / events if events else 0.0
    metrics["cli.self_s"] = total(spans["self"], prefixed("run_")) / ops
    metrics["cli.main_self_s"] = total(spans["self"], named("main")) / ops
    metrics["cli.output_bytes"] = sum(r.out_bytes for r in traced) / ops
    traced_rate = items / sum(r.seconds for r in traced)
    plain_rate = sum(r.items for r in plain) / sum(r.seconds for r in plain)
    metrics["trace.overhead_frac"] = traced_rate / plain_rate - 1.0 if plain_rate else 0.0

    metrics = {name: metrics[name] for name in PER_LAYER}
    notes = []
    for metric, value in metrics.items():
        if value == 0.0:
            notes.append(f"{metric} is 0: no such call or item in this workload")
    return metrics, notes


# --------------------------------------------------------------- provenance


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(workload: str, seed: int, runner: Runner) -> dict:
    import coupled_mzi

    return {
        "workload": workload,
        "seed": seed,
        "git_commit": _git_commit(),
        "package_version": coupled_mzi.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "load": "closed loop, 1 client, 1 process, no worker threads",
        "rounds": runner.rounds,
        "planned_rounds": runner.planned,
        "ops": len(runner.records),
        "wall_s": round(runner.wall_s, 3),
    }


# --------------------------------------------------------------------- main


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _report(records: list[Record], limit: int = 5) -> None:
    failed = [r for r in records if not r.verdict.ok]
    for record in failed[:limit]:
        reasons = record.verdict.exact + record.verdict.statistical
        print(f"FAIL {record.label}: {reasons[0]}")
    if len(failed) > limit:
        print(f"... {len(failed) - limit} more failing ops")
    scores = [r.verdict.z for r in records if r.verdict.z is not None]
    if scores:
        beyond = sum(z > oracle.Z_LIMIT for z in scores)
        print(f"z-scores: median {statistics.median(scores):.2f}, max {max(scores):.2f}, "
              f"{beyond}/{len(scores)} beyond {oracle.Z_LIMIT:g}")


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "coupled_mzi" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = BENCH / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(args.workload, args.seed, bool(args.trace), workdir)
        first = runner.round_ops(0)
        rounds = planned_rounds(args.workload, args.seconds, runner.trace, len(first))
        probe = None
        if not args.trace:
            probe = functools.partial(probe_setup, [op.argv[2] for op in first])
            probe()  # warms the file cache; not counted
        runner.warm_up(first)
        runner.run(first, rounds, args.seconds, probe)
        setup_s = statistics.median(runner.setup_samples) if probe else 0.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records = runner.records
    print("provenance " + json.dumps(provenance(args.workload, args.seed, runner)))
    _report(records)
    if args.trace:
        metrics, notes = per_layer(records, runner.tracer)
        units = PER_LAYER
        out_dir = BENCH / "_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}-{args.seed}.npz"
        runner.tracer.save(spans_path)
        print(f"spans written to {spans_path.relative_to(ROOT)}")
        for note in notes:
            print(f"note: {note}")
    else:
        metrics = end_to_end(records, setup_s)
        units = END_TO_END
    failed = sum(not r.verdict.ok for r in records)
    for name, value in metrics.items():
        print(f"{name:40s} {value:.6g} {units[name]}")
    print(f"{'failed_frac':40s} {failed / len(records):.6g} frac ({failed} of {len(records)} ops)")
    result = {
        "correct": not any(r.verdict.exact for r in records),
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
