"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

import hashlib
import json
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest

import run
import tracing
import workloads
from dispersive_jcm import cli, lie, oracle

SMALL_RELAX = {"kind": "relax", "k_over_omega": 3.0, "f_over_k": 0.5, "t_end": 0.2}


def test_same_seed_gives_identical_inputs():
    for name in workloads.WORKLOADS:
        for index in (0, 3):
            assert workloads.make_pass(name, 7, index, "out") == workloads.make_pass(name, 7, index, "out")
    for name in ("csv-export", "oracle-grid", "oracle-relax"):
        assert workloads.make_pass(name, 7, 0, "out") != workloads.make_pass(name, 8, 0, "out")
        assert workloads.make_pass(name, 7, 0, "out") != workloads.make_pass(name, 7, 1, "out")


def test_draws_stay_in_the_box_and_under_the_fock_guard():
    for seed in range(20):
        cli_ops = workloads.make_pass("oracle-grid", seed, 0, "out") + workloads.make_pass("csv-export", seed, 0, "out")
        for op in cli_ops[:4]:
            k, f = float(workloads._flag(op, "--k-over-omega")), float(workloads._flag(op, "--f-over-k"))
            assert workloads.BOX_K[0] <= k <= workloads.BOX_K[1]
            assert workloads.BOX_F[0] <= f <= workloads.BOX_F[1]
            assert oracle.fock_truncation(workloads.params_of(k, f)) <= workloads.MAX_FOCK
        for op in workloads.make_pass("oracle-relax", seed, 0, "out"):
            assert oracle.fock_truncation(workloads.params_of(op["k_over_omega"], op["f_over_k"])) <= workloads.MAX_FOCK


def test_draw_guard_rejects_a_cell_the_oracle_cannot_afford():
    with pytest.raises(ValueError):
        workloads._draw(random.Random(0), (0.2, 0.3), (2.5, 3.0))


def _trace(tmp_path, *extra):
    path = tmp_path / "trace.csv"
    argv = ["--mode", "trace", "--k-over-omega", "3", "--f-over-k", "0.5", "--t-max-pi", "0.5",
            "--points", "6", "--out", str(path), *extra]
    assert cli.main(argv) == 0
    return path


def _replace_row(path, row, text):
    lines = path.read_text().splitlines()
    lines[row] = text(lines[row])
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("block_rows", [4096, 4])
def test_csv_check_accepts_program_output(tmp_path, monkeypatch, block_rows):
    monkeypatch.setattr(workloads, "CHECK_BLOCK_ROWS", block_rows)
    path = _trace(tmp_path)
    result = workloads.check_csv(path, 6)
    raw = path.read_bytes()
    assert result == {"rows": 6, "bytes": len(raw), "sha256": hashlib.sha256(raw).hexdigest()}


def test_csv_check_catches_a_corrupted_row(tmp_path):
    path = _trace(tmp_path)
    _replace_row(path, 3, lambda line: line.replace(",", ";", 1))
    with pytest.raises(workloads.CheckError):
        workloads.check_csv(path, 6)
    path = _trace(tmp_path)
    _replace_row(path, 3, lambda line: "")
    with pytest.raises(workloads.CheckError):
        workloads.check_csv(path, 6)


def test_csv_check_catches_a_nan(tmp_path):
    path = _trace(tmp_path)
    _replace_row(path, 2, lambda line: ",".join(line.split(",")[:4] + ["nan"] + line.split(",")[5:]))
    with pytest.raises(workloads.CheckError, match="non-finite"):
        workloads.check_csv(path, 6)


def test_csv_check_catches_an_oracle_deviation(tmp_path):
    path = _trace(tmp_path, "--oracle")
    assert workloads.check_csv(path, 6, with_oracle=True)["max_dev"] <= workloads.ORACLE_GATE

    def shift(line):
        values = line.split(",")
        values[13] = "%.16e" % (float(values[13]) + 1e-3)  # oracle_zeta_global
        return ",".join(values)

    _replace_row(path, 4, shift)
    with pytest.raises(workloads.CheckError, match="oracle deviates"):
        workloads.check_csv(path, 6, with_oracle=True)


def test_report_check_catches_a_fail_row():
    report = "PASS c3_a 1.0e-05<=1.0e-02\nSKIP c2_b (oracle disabled)\n1/1 checks passed, 1 skipped\n"
    assert workloads.check_report(report) == (1, 1)
    with pytest.raises(workloads.CheckError):
        workloads.check_report(report.replace("PASS", "FAIL"))
    with pytest.raises(workloads.CheckError):
        workloads.check_report("SKIP c2_b (oracle disabled)\n")


def _span(id, parent, start, end, thread=1, name="x", layer="cli"):
    return tracing.Span(id, name, layer, parent, start, end, thread)


def test_self_times_on_a_synthetic_span_tree():
    spans = [_span(1, None, 0, 10), _span(2, 1, 1, 4), _span(3, 2, 2, 3), _span(4, 1, 5, 9)]
    assert tracing.self_times(spans) == {1: 3.0, 2: 2.0, 3: 1.0, 4: 4.0}


def test_self_times_skip_a_span_waiting_on_other_threads():
    spans = [_span(1, None, 0, 10), _span(2, 1, 2, 6, thread=2), _span(3, 1, 4, 8, thread=3)]
    # Span 1 has an open child in [2, 8); in [4, 6) spans 2 and 3 share the time.
    assert tracing.self_times(spans) == pytest.approx({1: 4.0, 2: 3.0, 3: 3.0})


def test_self_times_split_unrelated_threads():
    spans = [_span(1, None, 0, 10), _span(2, None, 2, 6, thread=2)]
    own = tracing.self_times(spans)
    assert own == pytest.approx({1: 2 + 2 + 4, 2: 2.0})
    assert sum(own.values()) == pytest.approx(10.0)


def test_outermost_skips_nested_members():
    spans = [_span(1, None, 0, 10, name="a"), _span(2, 1, 1, 5, name="b"),
             _span(3, 2, 2, 3, name="b"), _span(4, 1, 6, 7, name="b")]
    assert [s.id for s in tracing.outermost(spans, lambda s: s.name == "b")] == [2, 4]


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail([3.0, 1.0, 2.0]) == (100.0, 3.0)
    assert run.tail([float(v) for v in range(1, 21)]) == (50.0, 10.0)


def test_untraced_run_installs_no_wrappers():
    before = tracing.traced_functions()
    results = run.run_pass([SMALL_RELAX])
    assert results[0]["ok"]
    after = tracing.traced_functions()
    assert after == before
    assert not any(hasattr(fn, "__wrapped__") for fn in after.values())


def test_traced_run_records_layers_and_restores_functions():
    before = tracing.traced_functions()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        results = run.run_pass([SMALL_RELAX], tracer)
    finally:
        tracer.uninstall()
    assert results[0]["ok"]
    assert tracing.traced_functions() == before
    metrics = tracing.layer_metrics(tracer, 1)
    assert metrics["oracle.rhs_evals"][0] > 0
    assert metrics["oracle.points_emitted"][0] == 1
    assert metrics["oracle.fock_levels"][0] == oracle.fock_truncation(workloads.params_of(3.0, 0.5)) + 1
    shares = sum(metrics[f"{layer}.share"][0] for layer in tracing.LAYERS)
    assert 50.0 < metrics["oracle.share"][0] <= shares <= 100.0 + 1e-9


def test_a_function_gone_from_the_package_is_an_absent_metric(monkeypatch):
    monkeypatch.delattr(lie, "superop_rep")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run.run_pass([SMALL_RELAX], tracer)
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer, 1)
    assert "lie.superop_s" not in metrics
    assert "lie.commutator_s" in metrics


def test_pool_tasks_run_under_the_submitting_layer(tmp_path):
    submit = ThreadPoolExecutor.submit
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.op():
            assert cli.main(["--mode", "figures", "--points", "50", "--out", str(tmp_path)]) == 0
    finally:
        tracer.uninstall()
    assert ThreadPoolExecutor.submit is submit
    by_id = {s.id: s for s in tracer.spans}
    tasks = [s for s in tracer.spans if s.name == tracing.POOL_TASK]
    assert len(tasks) == len(workloads.FIGURE_FILES)
    assert all(s.layer == "cli" and by_id[s.parent].name == "cli.main" for s in tasks)
    assert all(s.thread != by_id[s.parent].thread for s in tasks)
    inner = [s for s in tracer.spans if s.parent in {t.id for t in tasks}]
    assert inner and all(s.thread == by_id[s.parent].thread for s in inner)
    metrics = tracing.layer_metrics(tracer, 1)
    shares = sum(metrics[f"{layer}.share"][0] for layer in tracing.LAYERS)
    assert shares == pytest.approx(100.0, abs=1.0)


def test_every_declared_metric_is_produced():
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    tracer = tracing.Tracer()
    untraced = run.run_pass([SMALL_RELAX])
    tracer.install()
    try:
        traced = run.run_pass([SMALL_RELAX], tracer)
    finally:
        tracer.uninstall()
    imports = {module: 0.1 for module in ("model", "analytic", "lie", "oracle", "acceptance", "cli")}
    layer = run.per_layer(tracer, [traced], [untraced], imports)
    assert {m["name"] for m in declared["per_layer"]} <= set(layer)
    assert {m["name"] for m in declared["end_to_end"]} <= set(run.end_to_end([0.5], [untraced]))
