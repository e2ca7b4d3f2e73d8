"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion; any assertion failure marks the criterion failed.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from avq360 import metrics, model, nn, siti, subjective
from avq360.manifest import (
    AudioClip,
    FrameSequence,
    load_manifest,
    load_scores_csv,
    load_wav,
    load_y4m,
)
from avq360.audiofe import log_mel, mel_filterbank, stft_magnitude
from avq360.synthetic import PLANTED_SUBJECT, fixture_sequence_targets, make_rating_table

from conftest import tiny_features, tiny_model_config
from oracles import (brute_krocc, brute_srocc, finite_difference_store_grads, gradient_rel_err,
                     naive_sobel_si, naive_ti, numerical_gradient, screen_oracle)

GRADIENT_TOL = 1e-4


def report(num, name):
    print(f"\n[criterion {num}] {name}: PASS")


def _op_gradient_errors():
    """Finite-difference error for every differentiable op in the core."""
    rng = np.random.default_rng(1234)
    errs = {}

    def fd_vs_analytic(name, forward, analytic, arrays):
        for label, arr, grad in arrays:
            num = numerical_gradient(lambda v, _l=label: forward(_l, v), arr)
            errs[f"{name}.{label}"] = gradient_rel_err(grad, num)

    # conv2d
    x = rng.normal(size=(2, 3, 5, 5))
    w = rng.normal(size=(4, 3, 3, 3)) * 0.5
    b = rng.normal(size=4)
    y, cache = nn.conv2d_forward(x, w, b, stride=1, pad=1)
    r = rng.normal(size=y.shape)
    gx, gw, gb = nn.conv2d_backward(r, cache)

    def conv_f(label, v):
        args = {"x": x, "w": w, "b": b}
        args[label] = v
        return float((r * nn.conv2d_forward(args["x"], args["w"], args["b"], 1, 1)[0]).sum())

    fd_vs_analytic("conv2d", conv_f, None, [("x", x, gx), ("w", w, gw), ("b", b, gb)])

    # maxpool2
    x = rng.normal(size=(2, 2, 6, 4))
    y, cache = nn.maxpool2_forward(x)
    r = rng.normal(size=y.shape)
    gx = nn.maxpool2_backward(r, cache)
    fd_vs_analytic(
        "maxpool2", lambda _l, v: float((r * nn.maxpool2_forward(v)[0]).sum()), None,
        [("x", x, gx)],
    )

    # linear
    x = rng.normal(size=(3, 5))
    w = rng.normal(size=(5, 6))
    b = rng.normal(size=6)
    y, cache = nn.linear_forward(x, w, b)
    r = rng.normal(size=y.shape)
    gx, gw, gb = nn.linear_backward(r, cache)

    def lin_f(label, v):
        args = {"x": x, "w": w, "b": b}
        args[label] = v
        return float((r * nn.linear_forward(args["x"], args["w"], args["b"])[0]).sum())

    fd_vs_analytic("linear", lin_f, None, [("x", x, gx), ("w", w, gw), ("b", b, gb)])

    # relu (inputs kept away from the kink)
    x = rng.normal(size=(4, 6))
    x = np.where(np.abs(x) < 1e-3, 0.5, x)
    y, cache = nn.relu_forward(x)
    r = rng.normal(size=y.shape)
    gx = nn.relu_backward(r, cache)
    fd_vs_analytic("relu", lambda _l, v: float((r * nn.relu_forward(v)[0]).sum()), None,
                   [("x", x, gx)])

    # layer_norm
    x = rng.normal(size=(3, 8))
    gamma = rng.normal(size=8)
    beta = rng.normal(size=8)
    y, cache = nn.layer_norm_forward(x, gamma, beta)
    r = rng.normal(size=y.shape)
    gx, ggamma, gbeta = nn.layer_norm_backward(r, cache)

    def ln_f(label, v):
        args = {"x": x, "gamma": gamma, "beta": beta}
        args[label] = v
        return float((r * nn.layer_norm_forward(args["x"], args["gamma"], args["beta"])[0]).sum())

    fd_vs_analytic("layer_norm", ln_f, None,
                   [("x", x, gx), ("gamma", gamma, ggamma), ("beta", beta, gbeta)])

    # softmax
    x = rng.normal(size=(3, 6))
    y = nn.softmax(x)
    r = rng.normal(size=y.shape)
    gx = nn.softmax_backward(r, y)
    fd_vs_analytic("softmax", lambda _l, v: float((r * nn.softmax(v)).sum()), None,
                   [("x", x, gx)])

    # multi-head attention (params and both inputs)
    d, heads = 8, 2
    p = {k: rng.normal(size=(d, d)) / np.sqrt(d) for k in ("wq", "wk", "wv", "wo")}
    p.update({k: rng.normal(size=d) * 0.1 for k in ("bq", "bk", "bv", "bo")})
    q_in = rng.normal(size=(4, d))
    kv_in = rng.normal(size=(4, d))
    y, cache = nn.mha_forward(q_in, kv_in, p, heads)
    r = rng.normal(size=y.shape)
    gq, gkv, grads = nn.mha_backward(r, cache)
    errs["mha.q_in"] = gradient_rel_err(
        gq, numerical_gradient(
            lambda v: float((r * nn.mha_forward(v, kv_in, p, heads)[0]).sum()),
            q_in))
    errs["mha.kv_in"] = gradient_rel_err(
        gkv, numerical_gradient(
            lambda v: float((r * nn.mha_forward(q_in, v, p, heads)[0]).sum()),
            kv_in))
    for key in ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo"):
        def f(v, key=key):
            trial = dict(p)
            trial[key] = v
            return float((r * nn.mha_forward(q_in, kv_in, trial, heads)[0]).sum())
        errs[f"mha.{key}"] = gradient_rel_err(grads[key], numerical_gradient(f, p[key]))
    return errs


def test_criterion_1_gradient_correctness():
    """Every core op and the assembled tiny model pass central
    finite-difference checks, worst case < 1e-4 at f64, in under 60 s."""
    t0 = time.time()
    op_errs = _op_gradient_errors()
    worst_op = max(op_errs.values())
    assert worst_op < GRADIENT_TOL, max(op_errs, key=op_errs.get)

    net = model.AVQAModel(tiny_model_config())
    feat = tiny_features(seed=0)
    target = 0.7

    def loss_fn():
        return (net.forward(feat) - target) ** 2

    net.store.zero_grads()
    s = net.forward(feat)
    net.backward(2.0 * (s - target))
    numeric = finite_difference_store_grads(loss_fn, net.store)  # full sweep
    worst_model = 0.0
    for name, (idx, vals) in numeric.items():
        analytic = net.store.grads[name].reshape(-1)[idx]
        worst_model = max(worst_model, gradient_rel_err(analytic, vals))
    elapsed = time.time() - t0
    assert worst_model < GRADIENT_TOL
    assert elapsed < 60.0, f"gradient checks took {elapsed:.1f}s"
    report(1, f"gradient correctness (ops {worst_op:.2e}, model {worst_model:.2e}, "
              f"{elapsed:.1f}s)")


def test_criterion_2_rank_metric_oracles():
    """SROCC/KROCC equal brute-force oracles to 1e-12 on 1000 random
    vectors with ties; the worked Kendall example holds."""
    rng = np.random.default_rng(20240901)
    checked = 0
    while checked < 1000:
        n = int(rng.integers(2, 9))
        x = rng.integers(0, 4, size=n).astype(float)
        y = rng.integers(0, 4, size=n).astype(float)
        if np.ptp(x) == 0 or np.ptp(y) == 0:
            continue
        assert abs(metrics.srocc(x, y) - brute_srocc(list(x), list(y))) < 1e-12
        assert abs(metrics.krocc(x, y) - brute_krocc(list(x), list(y))) < 1e-12
        checked += 1
    assert metrics.krocc([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(2.0 / 3.0, abs=1e-12)
    report(2, "rank metrics match brute-force oracles on 1000 vectors")


def test_criterion_3_logistic_fit_recovery():
    """Generate-and-recover RMSE < 0.5; affine data reaches PLCC 1 - 1e-6."""
    rng = np.random.default_rng(42)
    x = np.linspace(0.0, 1.0, 200)
    true = metrics.logistic4(x, 90.0, 10.0, 0.5, 0.1)
    mos = true + rng.normal(0.0, 0.5, size=x.size)
    fit = metrics.logistic_fit(x, mos)
    recovery_rmse = float(np.sqrt(np.mean((fit.mapped - true) ** 2)))
    assert recovery_rmse < 0.5

    mos2 = np.linspace(20, 90, 60)
    pred2 = 0.013 * mos2 - 0.4
    fit2 = metrics.logistic_fit(pred2, mos2)
    plcc_err = abs(metrics.plcc(fit2.mapped, mos2) - 1.0)
    assert plcc_err < 1e-6
    report(3, f"logistic fit (recovery rmse {recovery_rmse:.3f}, "
              f"affine plcc err {plcc_err:.1e})")


def test_criterion_4_subject_screening():
    """Planted inconsistent subject rejected exactly, matching the
    independent oracle; consistent population passes untouched."""
    targets = fixture_sequence_targets()
    records = make_rating_table(targets, ssq_subject=None)
    results, filtered = subjective.screen_subjects(records)
    rejected = {r.subject_id for r in results if r.rejected}
    assert rejected == {PLANTED_SUBJECT}
    table = {}
    for r in records:
        table.setdefault(r.subject_id, {})[r.sequence_id] = r.score
    oracle_rejected, _ = screen_oracle(table)
    assert oracle_rejected == rejected

    clean = make_rating_table(targets, n_consistent=20, planted_subject=None,
                              ssq_subject=None)
    clean_results, _ = subjective.screen_subjects(clean)
    assert not any(r.rejected for r in clean_results)

    by_seq = {}
    for r in filtered:
        by_seq.setdefault(r.sequence_id, []).append(r.score)
    for m in subjective.compute_mos(filtered):
        assert min(by_seq[m.sequence_id]) <= m.mos <= max(by_seq[m.sequence_id])
    report(4, "subject screening rejects exactly the planted subject")


def test_criterion_5_siti_oracle_equivalence():
    """Constant video gives exact zeros; vectorized SI/TI match the naive
    pixel-loop oracle to 1e-9; the one-pixel closed form holds."""
    const = FrameSequence(frames=np.full((4, 16, 32), 87, np.uint8), fps=8.0)
    assert np.all(siti.spatial_information(const) == 0.0)
    assert np.all(siti.temporal_information(const) == 0.0)

    rng = np.random.default_rng(5)
    frames = rng.integers(0, 256, size=(8, 32, 32), dtype=np.uint8)
    seq = FrameSequence(frames=frames, fps=8.0)
    si = siti.spatial_information(seq)
    ti = siti.temporal_information(seq)
    for k in range(8):
        assert abs(si[k] - naive_sobel_si(frames[k].astype(float).tolist())) < 1e-9
    for k in range(7):
        assert abs(
            ti[k] - naive_ti(frames[k].astype(float).tolist(),
                             frames[k + 1].astype(float).tolist())
        ) < 1e-9

    a = np.zeros((10, 10))
    b = a.copy()
    b[3, 4] = 255.0
    one_pixel = siti.temporal_information(
        FrameSequence(frames=np.stack([a, b]), fps=1.0)
    )[0]
    assert one_pixel == pytest.approx(255.0 * math.sqrt(99.0) / 100.0, abs=1e-9)
    report(5, "SI/TI match the pixel-loop oracle and closed forms")


def test_criterion_6_audio_front_end():
    """1 kHz tone maps to the construction-derived mel filter; the STFT
    frame-count formula gives 98 frames for 1 s / 25 ms / 10 ms."""
    t = np.arange(16000) / 16000.0
    clip = AudioClip(samples=np.sin(2 * np.pi * 1000.0 * t)[None, :], sample_rate=16000)
    mag = stft_magnitude(clip)
    assert mag.shape[0] == 98
    fb = mel_filterbank(fft_bins=mag.shape[1])
    mel = log_mel(mag, fb)
    energies = np.exp(mel[10]) - 0.01
    tone_bin = int(round(1000.0 * 512 / 16000))
    expected_filter = int(fb[:, tone_bin].argmax())
    assert int(energies.argmax()) == expected_filter
    report(6, f"audio front-end (98 frames, 1 kHz -> filter {expected_filter})")


@pytest.fixture(scope="module")
def corpus_training_data(corpus_dir):
    entries = load_manifest(corpus_dir / "manifest.json")
    records = load_scores_csv(corpus_dir / "scores.csv")
    kept = subjective.exclude_ssq(records)
    _, filtered = subjective.screen_subjects(kept)
    mos_map = {m.sequence_id: m.mos for m in subjective.compute_mos(filtered)}
    cfg = model.ModelConfig()  # full-size defaults (M4, d64, N4, T8)
    feats = []
    targets = []
    for e in entries:
        feats.append(
            model.preprocess_sequence(
                load_y4m(corpus_dir / "media" / f"{e.sequence_id}.y4m"),
                load_wav(corpus_dir / "media" / f"{e.sequence_id}.wav"),
                cfg, e.sequence_id,
            )
        )
        targets.append(mos_map[e.sequence_id] / 100.0)
    return feats, np.array(targets)


def test_criterion_7_end_to_end_overfit(corpus_training_data, tmp_path):
    """300 steps on the 8-sequence fixture reach train RMSE < 0.05 and
    SROCC > 0.95; two same-seed runs give bit-identical checkpoints;
    the whole exercise stays under 5 minutes."""
    feats, targets = corpus_training_data
    assert len(feats) == 8
    t0 = time.time()

    def run(path):
        net = model.AVQAModel(model.ModelConfig())
        result = model.train_model(net, feats, targets)
        assert len(result.history) == 300
        net.save(path)
        return net

    net1 = run(tmp_path / "run1.avqc")
    preds01 = np.array([net1.forward(f) for f in feats])
    train_rmse = float(np.sqrt(np.mean((preds01 - targets) ** 2)))
    train_srocc = metrics.srocc(preds01, targets)
    assert train_rmse < 0.05
    assert train_srocc > 0.95

    run(tmp_path / "run2.avqc")
    bytes1 = (tmp_path / "run1.avqc").read_bytes()
    bytes2 = (tmp_path / "run2.avqc").read_bytes()
    assert bytes1 == bytes2
    elapsed = time.time() - t0
    assert elapsed < 300.0, f"overfit exercise took {elapsed:.0f}s"
    report(7, f"end-to-end overfit (rmse {train_rmse:.4f}, srocc {train_srocc:.3f}, "
              f"bit-identical reruns, {elapsed:.0f}s)")


def test_criterion_8_reference_results_disclosure():
    """The originally reported evaluation numbers exist only as documented,
    explicitly non-reproducible reference constants."""
    assert metrics.REFERENCE_RESULTS == {
        "srocc": 0.8245, "plcc": 0.8590, "krocc": 0.6436, "rmse": 0.5772,
    }
    module_text = Path(metrics.__file__).read_text()
    assert "NOT reproducible" in module_text
    readme = Path(__file__).resolve().parents[1] / "README.md"
    assert readme.is_file()
    readme_text = readme.read_text()
    assert "0.8245" in readme_text
    assert "not reproducible" in readme_text.lower()
    report(8, "reference results documented as non-reproducible")


def test_criterion_9_fusion_mode_ablation(corpus_training_data, tmp_path):
    """transformer/cat/add fusion modes all train on the fixture without
    error and yield distinct checkpoints from identical seeds."""
    feats, targets = corpus_training_data
    blobs = {}
    for mode in ("transformer", "cat", "add"):
        cfg = model.ModelConfig(fusion_mode=mode, train_steps=25)
        net = model.AVQAModel(cfg)
        result = model.train_model(net, feats, targets)
        assert len(result.history) == 25
        assert np.isfinite(result.final_loss)
        path = tmp_path / f"{mode}.avqc"
        net.save(path)
        blobs[mode] = path.read_bytes()
    assert len(set(blobs.values())) == 3
    report(9, "fusion-mode ablations train and produce distinct checkpoints")
