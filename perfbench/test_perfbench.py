"""Tests of the benchmark itself: the tracer's arithmetic and bindings,
the computed conv work, and a miniature run of every workload.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from avq360 import cli, manifest  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_self_time_of_a_nested_call_tree():
    t = tracing.Tracer()
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and d [5, 9]
    t.spans = [
        [0, -1, "cli.cmd_siti", 0.0, 10.0, ""],
        [1, 0, "siti.spatial_information", 1.0, 4.0, ""],
        [2, 1, "siti.sobel_magnitude", 2.0, 3.0, ""],
        [3, 0, "manifest.load_y4m", 5.0, 9.0, ""],
    ]
    assert t.self_times() == [3.0, 2.0, 1.0, 4.0]
    s = t.summary()
    assert s["cli.cmd_siti.self_ms"] == 3000.0
    assert s["siti.spatial_information.self_ms"] == 2000.0
    assert s["siti.sobel_magnitude.calls"] == 1
    assert s["manifest.load_y4m.self_ms"] == 4000.0


def test_spans_record_their_parent(monkeypatch):
    clock = iter(range(100))
    monkeypatch.setattr(tracing.time, "perf_counter", lambda: float(next(clock)))
    t = tracing.Tracer()

    def inner():
        return t.span("inner", lambda: 7, (), {})

    assert t.call("outer", inner) == 7
    (outer, inner_span) = t.spans
    assert outer[1] == -1 and inner_span[1] == outer[0]
    assert t.self_times() == [2.0, 1.0]   # outer [0, 3], inner [1, 2]


def test_cli_siti_is_traced_through_by_name_imports(tmp_path):
    assert workloads.run_cli(cli.main, ["synth-fixture", "--out", str(tmp_path)])[0] == 0
    original = cli.load_y4m
    t = tracing.Tracer()
    t.install()
    try:
        assert cli.load_y4m is not original
        rc, _ = t.call("cli.main", workloads.run_cli, cli.main,
                       ["siti", "--config", str(tmp_path / "config.txt")])
    finally:
        t.uninstall()
    assert rc == 0
    assert cli.load_y4m is original and manifest.load_y4m is original
    names = {s[0]: s[2] for s in t.spans}
    loads = [s for s in t.spans if s[2] == "manifest.load_y4m"]
    assert len(loads) == 8
    assert all(names[s[1]] == "cli.cmd_siti" for s in loads)
    summary = t.summary()
    assert summary["manifest.load_y4m.mb"] > 0
    assert summary["siti.sobel_magnitude.calls"] == 8 * 8
    assert summary["nn.conv2d_forward.calls"] == 0


def test_conv_gflop_formula_matches_a_hand_count():
    x_shape, w_shape = (2, 3, 5, 5), (4, 3, 3, 3)
    macs = 0
    n, c, h, w = x_shape
    o, _, kh, kw = w_shape
    for _ in range(n):
        for _ in range(o):
            for i in range(h):          # pad 1, stride 1: output is 5x5
                for j in range(w):
                    macs += c * kh * kw
    assert tracing.conv_flops(x_shape, w_shape, stride=1, pad=1) == 2 * macs == 10800
    assert tracing.conv_flops((1, 1, 4, 4), (1, 1, 3, 3), stride=1, pad=0) == 2 * 4 * 9


def test_traced_conv_counts_computed_work_and_labels_weights():
    from avq360 import model

    t = tracing.Tracer()
    t.install()
    try:
        net = model.AVQAModel(model.ModelConfig(frames_per_clip=2))
        feat = model.SequenceFeatures(video=np.zeros((2, 4, 16, 32)),
                                      audio=np.zeros((1, 96, 64)),
                                      lat_prior=np.full(4, 0.25))
        net.forward(feat)
        net.backward(1.0)
    finally:
        t.uninstall()
    s = t.summary()
    assert s["nn.conv2d_forward.calls"] == 4 * 3 + 4
    assert s["nn.conv2d_backward.gflop"] == pytest.approx(2 * s["nn.conv2d_forward.gflop"])
    assert s["nn.conv2d_forward.gflop"] > 0
    for label in tracing.CONV_LABELS:
        assert s[f"nn.Conv2d.{label}.fwd_ms"] > 0
        assert s[f"nn.Conv2d.{label}.bwd_ms"] > 0
    assert t.counters.get("probe_errors", 0) == 0


def test_missing_function_is_reported_absent(monkeypatch):
    from avq360 import audiofe

    monkeypatch.delattr(audiofe, "write_features")
    t = tracing.Tracer()
    t.install()
    t.uninstall()
    assert t.absent == ["audiofe.write_features"]
    assert t.summary()["audiofe.write_features.calls"] == 0


def test_benchmark_json_lists_the_metrics_the_run_reports():
    import run

    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(run.GATED)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == \
        tracing.per_layer_names()
    assert len(BENCHMARK["per_layer"]) == 124
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_wall_s_takes_each_distinct_call_at_its_fastest():
    import run

    a, b = ("predict", "--sequence", "a"), ("predict", "--sequence", "b")
    rounds = [{"calls": [("predict", a, 3.0), ("predict", b, 1.0), ("predict", a, 2.0)]},
              {"calls": [("predict", a, 4.0), ("predict", b, 0.5), ("predict", a, 5.0)]}]
    assert run.fastest_calls(rounds) == {a: 2.0, b: 0.5}
    assert run.call_walls(rounds, "predict") == [3.0, 1.0, 2.0, 4.0, 0.5, 5.0]


def run_bench(workload, trace, cwd=ROOT, tiny=True):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace)] + (["--tiny"] if tiny else [])
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_of_each_workload(workload):
    proc = run_bench(workload, 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    for name in ("setup_s", "wall_s", "peak_rss_mb", "ops_failed_frac"):
        assert name in proc.stdout


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_traced_run_keeps_the_layer_split(workload):
    proc = run_bench(workload, 1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(m) == {p["name"] for p in BENCHMARK["per_layer"]}
    assert "tracing overhead" in proc.stdout
    nn_calls = sum(v for k, v in m.items() if k.startswith("nn.") and k.endswith(".calls"))
    backward = sum(v for k, v in m.items()
                   if k.startswith("nn.") and k.endswith(".calls")
                   and ("backward" in k or "adam" in k))
    siti_calls = sum(v for k, v in m.items() if k.startswith("siti.") and k.endswith(".calls"))
    if workload == "erp-ingest":
        assert nn_calls == 0 and siti_calls > 0
    else:
        assert siti_calls == 0 and nn_calls > 0
    if workload == "longclip-score":
        assert backward == 0
    if workload == "fixture-train":
        assert m["nn.adam_step.calls"] > 0 and m["model.preprocess_sequence.useful_frac"] == 1.0


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench("fixture-train", 0, cwd=tmp_path, tiny=False)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.xfail(raises=Exception, reason=(
    "known program defect: on scores only weakly related to the MOS, the "
    "logistic fit collapses to a constant and PLCC raises ValidationError, "
    "so `evaluate` exits 2. longclip-score avoids it by rating the sequences "
    "the way its checkpoint ranks them."))
def test_weak_scores_still_get_a_plcc():
    from avq360 import metrics

    # Scores of the untrained model and MOS of longclip-score at seed 5
    # before the ratings follow the checkpoint (4 decimals).
    pred = [84.6088, 85.2264, 87.6288, 87.1802, 88.1632, 85.5861, 89.9623, 88.8313,
            85.9259, 87.4318, 90.0338, 88.4862]
    mos = [84.4166, 80.94, 73.6788, 67.4811, 63.2739, 56.4764, 53.5722, 45.7547,
           42.2042, 36.0894, 31.5796, 29.3677]
    report = metrics.evaluate_predictions(np.array(pred), np.array(mos))
    assert -1.0 <= report.plcc <= 1.0
