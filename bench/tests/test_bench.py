"""Tests of the benchmark itself: generation, oracle, checks and tracing.

Run from the repository root with ``python3 -m pytest bench/tests -q``.
"""

import csv
import io
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import oracle
import run
from coupled_mzi import cli, load_config
from coupled_mzi.measurement import contextual_values, measurement_operators, povm_pair
from coupled_mzi.params import ObservableCoefficients, detector_params
from coupled_mzi.scattering import joint_probability_table
from tracing import Tracer, deep_size
from workloads import WORKLOADS, Op, make_round, write_config


def _rows(text):
    return list(csv.reader(io.StringIO(text)))


def _text(rows):
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


def _run(op):
    code, _, out = run.execute(cli.main, op.argv)
    return code, out


def _verdict(op, code, out):
    return run.check(op, code, out, cli.main)


def _small(ops, kind, count=11, group=None):
    return next(op for op in ops if op.kind == kind and op.items in (count, 0)
                and (group is None or op.group == group))


@pytest.fixture(scope="module")
def sweep_ops(tmp_path_factory):
    return make_round("sweep", 7, 0, tmp_path_factory.mktemp("sweep"))


@pytest.fixture(scope="module")
def mc_ops(tmp_path_factory):
    return make_round("montecarlo", 7, 0, tmp_path_factory.mktemp("mc"))


# ---------------------------------------------------------------- generation


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generation_is_deterministic_per_seed(workload, tmp_path):
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    first, again = make_round(workload, 3, 1, dirs[0]), make_round(workload, 3, 1, dirs[1])
    other = make_round(workload, 4, 1, dirs[2])

    def snapshot(ops, d):
        return [(tuple(a.replace(str(d), "DIR") for a in op.argv),
                 Path(op.argv[2]).read_text(encoding="utf-8")) for op in ops]

    assert snapshot(first, dirs[0]) == snapshot(again, dirs[1])
    assert snapshot(first, dirs[0]) != snapshot(other, dirs[2])


def test_round_shapes_do_not_depend_on_seed(tmp_path):
    def shapes(seed):
        ops = make_round("sweep", seed, 0, tmp_path)
        return sorted((op.kind, op.group, op.sweep[0] if op.sweep else "", op.items) for op in ops)

    assert shapes(1) == shapes(2)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_run_plans_its_rounds_from_seconds_alone(workload, tmp_path):
    per_round = len(make_round(workload, 1, 0, tmp_path))
    plain = run.planned_rounds(workload, 35, False, per_round)
    traced = run.planned_rounds(workload, 35, True, per_round)
    assert min(plain, traced) * per_round >= run.MIN_OPS
    assert traced <= plain
    if plain * per_round > run.MIN_OPS:
        assert abs(plain * run.ROUND_SECONDS[workload] - 35) <= run.ROUND_SECONDS[workload] / 2
    assert run.planned_rounds(workload, 0.01, False, per_round) * per_round >= run.MIN_OPS


# -------------------------------------------------------------------- oracle


def test_closed_forms_match_the_library(sweep_ops):
    for op in sweep_ops[:10]:
        config = load_config(op.argv[2])
        c = op.config
        gamma, phi_d = c["coupling.gamma"], c["detector.phi"]
        table = oracle.joint_table(c, gamma, phi_d, c["system.phi"], c["system.qpc1.T"])
        expected = joint_probability_table(config.detector, config.system, gamma)
        np.testing.assert_allclose(table, expected, rtol=0, atol=1e-13)
        povm = povm_pair(measurement_operators(config.detector, gamma))
        e_d1, e_d2 = oracle.povm_diagonals(c, gamma, phi_d)
        np.testing.assert_allclose(e_d1, np.diag(povm.e_d1).real, atol=1e-13)
        np.testing.assert_allclose(e_d2, np.diag(povm.e_d2).real, atol=1e-13)
        cv = contextual_values(ObservableCoefficients(), detector_params(config.detector, gamma))
        a1, a2 = oracle.contextual_weights(c, gamma, phi_d)
        assert a1 == pytest.approx(cv.alpha_d1, rel=1e-9)
        assert a2 == pytest.approx(cv.alpha_d2, rel=1e-9)


def test_averaged_marginals_reduce_to_the_point_table(mc_ops):
    c = dict(mc_ops[0].config)
    point = oracle.joint_table(c, c["coupling.gamma"], c["detector.phi"], c["system.phi"],
                               c["system.qpc1.T"]).sum(axis=-1)
    np.testing.assert_allclose(oracle.averaged_detector_marginals(c), point, atol=1e-15)
    c["coupling.sigma"] = 1e-7  # a vanishing width converges to the point mass
    np.testing.assert_allclose(oracle.averaged_detector_marginals(c), point, atol=1e-12)


# -------------------------------------------------------------------- checks


@pytest.mark.parametrize("group", ["marginals", "joint", "conditionals", "measurement",
                                   "scalars", "noise", "eta"])
def test_scan_check_passes_and_catches_a_planted_cell(sweep_ops, group):
    op = _small(sweep_ops, "scan", group=group)
    code, out = _run(op)
    assert _verdict(op, code, out).ok
    rows = _rows(out)
    row = next(r for r in rows[1:] if r[1] != oracle.AMBIGUOUS_TOKEN)
    row[1] = repr(float(row[1]) * 1.001 + 1e-3)
    verdict = _verdict(op, code, _text(rows))
    assert verdict.exact and not verdict.ok


@pytest.mark.parametrize("kind", ["erasure", "povm", "interaction-phase"])
def test_other_checks_pass_and_catch_a_planted_cell(sweep_ops, kind):
    op = _small(sweep_ops, kind)
    code, out = _run(op)
    assert _verdict(op, code, out).ok
    rows = _rows(out)
    rows[1][1] = repr(float(rows[1][1]) * 1.001 + 1e-3)
    assert _verdict(op, code, _text(rows)).exact


@pytest.mark.parametrize("kind", ["scan", "erasure", "povm", "interaction-phase", "montecarlo"])
def test_checks_catch_a_wrong_exit_code(sweep_ops, mc_ops, kind):
    op = min(mc_ops, key=lambda o: o.items) if kind == "montecarlo" else _small(sweep_ops, kind)
    _, out = _run(op)
    assert _verdict(op, 3, "").exact
    assert _verdict(op, 1, out).exact


def test_ambiguous_tokens_must_match(sweep_ops, tmp_path):
    base = _small(sweep_ops, "scan", group="measurement")
    path = tmp_path / "edge.conf"
    write_config(path, base.config)
    sweep = ("gamma", 0.0, math.pi, 11)
    names = ("alpha_D1", "cond_avg_S2")
    op = Op("scan", ("scan", "--config", str(path), "--sweep", "gamma:0.0:3.141592653589793:11",
                     "--quantities", ",".join(names)), 11, base.config, sweep, names)
    code, out = _run(op)
    rows = _rows(out)
    assert rows[1][1:] == [oracle.AMBIGUOUS_TOKEN] * 2  # gamma = 0 carries no information
    assert _verdict(op, code, out).ok
    rows[1][1] = "0.5"
    assert _verdict(op, code, _text(rows)).exact
    rows = _rows(out)
    rows[2][2] = oracle.AMBIGUOUS_TOKEN
    assert _verdict(op, code, _text(rows)).exact


def test_montecarlo_check_catches_an_estimate_ten_standard_errors_off(mc_ops):
    op = min(mc_ops, key=lambda o: o.items)
    code, out = _run(op)
    verdict = _verdict(op, code, out)
    assert verdict.ok and verdict.z < oracle.Z_LIMIT

    header, row = _rows(out)
    a1, a2 = oracle.montecarlo_weights(op.config)
    p1, p2 = oracle.averaged_detector_marginals(op.config)
    se = math.sqrt((a1 * a1 * p1 + a2 * a2 * p2 - (a1 * p1 + a2 * p2) ** 2) / op.items)
    n = op.items
    k = round((float(row[2]) - a1) / (a2 - a1) * n)
    step = abs(a2 - a1) / n
    away = 1 if float(row[2]) >= 2.0 * op.config["system.qpc1.T"] - 1.0 else -1
    k_off = k + away * int(math.copysign(1, a2 - a1)) * math.ceil(10 * se / step)
    assert 0 <= k_off <= n
    # a consistent report of a sample with k_off D2 events: only the z-score can object
    row[2] = repr(a1 + (a2 - a1) * k_off / n)
    row[3] = repr(k_off * (n - k_off) / (n * (n - 1)) * (a2 - a1) ** 2 / n)
    verdict = _verdict(op, code, _text([header, row]))
    assert not verdict.exact
    assert verdict.statistical and verdict.z >= 9.5

    row[2] = repr(float(row[2]) + 0.3 * step)  # not a mean of contextual values
    assert _verdict(op, code, _text([header, row])).exact


# ------------------------------------------------------------------- tracing


def test_self_times_add_up_to_each_op_wall_time(sweep_ops, mc_ops, tmp_path):
    fluct = min(make_round("montecarlo_fluct", 7, 0, tmp_path), key=lambda o: o.items)
    ops = [_small(sweep_ops, "scan", group="measurement"), _small(sweep_ops, "erasure"),
           _small(sweep_ops, "povm"), min(mc_ops, key=lambda o: o.items), fluct]
    tracer = Tracer()
    walls = []
    tracer.install()
    try:
        for i, op in enumerate(ops):
            code, wall, _ = tracer.run_op(i, run.execute, cli.main, op.argv)
            assert code == 0
            walls.append(wall)
    finally:
        tracer.uninstall()
    spans = tracer.arrays()
    names = np.array(tracer.names)[spans["name_id"]]
    for i, wall in enumerate(walls):
        mine = spans["op"] == i
        roots = mine & (spans["parent"] < 0)
        assert list(names[roots]) == ["main"]
        root = float(spans["duration"][roots][0])
        assert float(spans["self"][mine].sum()) == pytest.approx(root, rel=1e-9, abs=1e-9)
        assert np.all(spans["self"][mine] >= -1e-9)
        assert root <= wall
        assert wall - root < 0.005 + 0.05 * wall
    assert len(tracer.sampled) == 2
    assert "joint_probability_table" in set(names[spans["op"] == 4])


def test_uninstall_restores_the_package(tmp_path):
    from coupled_mzi import conditioning

    before = (cli.main, cli.run_scan, conditioning.xi_joint_interference)
    tracer = Tracer()
    tracer.install()
    assert cli.main is not before[0]
    tracer.uninstall()
    assert (cli.main, cli.run_scan, conditioning.xi_joint_interference) == before


def test_deep_size_counts_arrays_and_sampled_lists():
    codes = np.zeros(10_000, dtype=np.uint8)
    assert deep_size(codes) >= codes.nbytes
    pairs = [(i, float(i)) for i in range(5_000)]
    exact = sys.getsizeof(pairs) + sum(deep_size(p) for p in pairs)
    assert deep_size(pairs) == pytest.approx(exact, rel=0.02)


# ----------------------------------------------------------------- contract


def test_benchmark_json_declares_what_the_runner_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])

