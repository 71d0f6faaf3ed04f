"""End-to-end acceptance checks, one per shipped guarantee. Each test prints a
single pass/fail line on the terminal in addition to the pytest verdict."""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

import fastsal.distill as distill
import fastsal.kernels as K
import fastsal.metrics as M
import fastsal.tensor as T
from conftest import build_synthetic_dataset, randomize_weights
from fastsal import analyzer, bench, trainer
from fastsal.data_io import load_manifest
from fastsal.errors import ParseError
from fastsal.network import (build_fastsal, fold_batch_norm, init_weights,
                             load_weights, save_weights)
from fastsal.tensor import Tensor, grad_check


def announce(capsys, number, title, ok):
    with capsys.disabled():
        print(f"\ncriterion {number:02d} {title}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({title}) failed"


def test_criterion_01_shape_conformance(capsys):
    ok = True
    start = time.perf_counter()
    for variant in ("C", "A"):
        graph = build_fastsal(variant, (1, 3, 192, 256))
        store = init_weights(graph, seed=0)
        x = Tensor(np.random.default_rng(0)
                   .standard_normal((1, 3, 192, 256)).astype(np.float32))
        out = graph.run(store, x)["out"]
        ok = ok and out.shape == (1, 1, 192, 256)
        ok = ok and np.all(np.isfinite(out.data))
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    announce(capsys, 1, "shape conformance (192x256 in, 192x256x1 out, <5s)", ok)


# a second size and batch for criteria 01 and 07, to catch code that assumes
# 192x256 or one item; at 64x96 the late blocks' 2x3 and 4x6 maps take the
# depthwise spatial-operator GEMMs at inference
OTHER_SHAPES = pytest.mark.parametrize(
    "shape", [(3, 3, 224, 320), (2, 3, 64, 96)], ids=["3x3x224x320", "2x3x64x96"])


@OTHER_SHAPES
def test_criterion_01_shape_conformance_other_sizes(capsys, shape):
    n, _, h, w = shape
    ok = True
    for variant in ("C", "A"):
        graph = build_fastsal(variant, shape)
        store = init_weights(graph, seed=0)
        x = np.random.default_rng(0).standard_normal(shape).astype(np.float32)
        out = graph.run(store, Tensor(x))["out"].data
        ok = ok and out.shape == (n, 1, h, w) and bool(np.all(np.isfinite(out)))
        # each item's map is the one it gets on its own
        last = build_fastsal(variant, (1, 3, h, w)).run(store, Tensor(x[-1:]))["out"].data
        ok = ok and np.abs(out[-1:] - last).max() <= 1e-5 * np.abs(last).max()
    announce(capsys, 1, f"shape conformance ({n}x3x{h}x{w} in, {n}x1x{h}x{w} out)", ok)


def test_criterion_02_complexity_consistency(capsys):
    rep_c = analyzer.analyze(build_fastsal("C", (1, 3, 192, 256)))
    rep_a = analyzer.analyze(build_fastsal("A", (1, 3, 192, 256)))
    ok = (abs(rep_c.total_params - 2.57e6) <= 0.15 * 2.57e6
          and abs(rep_c.total_flops - 1.32e9) <= 0.30 * 1.32e9
          and abs(rep_a.total_params - 3.65e6) <= 0.20 * 3.65e6
          and abs(rep_a.total_flops - 1.32e9) <= 0.30 * 1.32e9)
    # exact unit-layer fixtures under the stated convention
    from fastsal.network import LayerSpec
    pw = LayerSpec("pw", "conv", ["input"],
                   {"in_ch": 96, "out_ch": 128, "kernel": (1, 1),
                    "stride": (1, 1), "padding": (0, 0), "bias": True})
    dw = LayerSpec("dw", "conv", ["input"],
                   {"in_ch": 128, "out_ch": 128, "kernel": (3, 3),
                    "stride": (1, 1), "padding": (1, 1), "groups": 128})
    ok = ok and analyzer.layer_params(pw, [(1, 96, 48, 64)]) == 12_416
    ok = ok and analyzer.layer_params(dw, [(1, 128, 48, 64)]) == 1_152
    ok = ok and analyzer.layer_flops(
        pw, [(1, 96, 48, 64)], (1, 128, 48, 64)) == 75_497_472
    ok = ok and "MAC=2FLOPs" in rep_c.convention
    announce(capsys, 2, "complexity totals within windows, exact unit fixtures", ok)


def _grad_cases(seed):
    rng = np.random.default_rng(seed)

    def x(shape=(1, 1, 3, 4)):
        return Tensor(rng.standard_normal(shape))

    def pos(shape=(1, 1, 3, 4)):
        return Tensor(rng.uniform(0.3, 2.0, shape))

    conv_w = Tensor(rng.standard_normal((2, 2, 3, 3)) * 0.5)
    dw_w = Tensor(rng.standard_normal((2, 1, 3, 3)) * 0.5)
    gamma = Tensor(rng.uniform(0.5, 1.5, 2))
    beta = Tensor(rng.standard_normal(2))
    gt = Tensor(rng.uniform(0.05, 0.95, (1, 1, 3, 4)))
    pseudo = Tensor(rng.uniform(0.05, 0.95, (1, 1, 3, 4)))
    d = rng.uniform(0.1, 1.0, (1, 1, 3, 4))
    dist = Tensor(d / d.sum())
    teachers = [Tensor(rng.standard_normal((1, 2, 3, 3))) for _ in range(4)]

    def bn(t):
        rm, rv = Tensor(np.zeros(2)), Tensor(np.ones(2))
        return (K.batch_norm(t, gamma, beta, rm, rv, training=True) ** 2).sum()

    kinks = Tensor(rng.choice([-2.0, 1.0, 3.0, 8.0], (2, 3))
                   + rng.uniform(-0.2, 0.2, (2, 3)))
    m42 = Tensor(rng.standard_normal((4, 2)))
    m23 = Tensor(rng.standard_normal((2, 3)))
    v4 = Tensor(rng.standard_normal(4))
    return [
        ("add", lambda t: (t + t * 2.0).sum(), x()),
        ("sub", lambda t: (3.0 - t).sum(), x()),
        ("mul", lambda t: (t * t).sum(), x()),
        ("div", lambda t: (1.0 / (t * t + 2.0)).sum(), x()),
        ("pow", lambda t: (t ** 3).sum(), x()),
        ("log", lambda t: T.log(t).sum(), pos()),
        ("exp", lambda t: T.exp(t).mean(), x()),
        ("sqrt", lambda t: T.sqrt(t * t + 1.0).sum(), x()),
        ("clip", lambda t: (T.clip(t, 0.0, 1.0) ** 2).sum(),
         Tensor(rng.uniform(0.2, 0.8, (2, 4)))),
        ("sigmoid", lambda t: (T.sigmoid(t) ** 2).sum(), x()),
        ("relu6", lambda t: (T.relu6(t) * t).sum(), kinks),
        ("sum", lambda t: ((t.sum(axis=1) ** 2)).sum(), x()),
        ("mean", lambda t: ((t.mean(axis=0) ** 2)).sum(), x()),
        ("reshape", lambda t: (t.reshape(12) ** 2).sum(), x()),
        ("columns", lambda t: (T.columns(t, 1, 3) ** 2).sum() + T.columns(t, 0, 2).sum(),
         x((2, 4))),
        # both operands, with a 2-D and with a 1-D right operand
        ("matmul", lambda t: (T.matmul(t, m42) ** 2).sum()
         + (T.matmul(m23, T.matmul(t, v4)) ** 2).sum() + (T.matmul(m23, t) ** 2).sum(),
         x((3, 4))),
        ("conv2d", lambda t: (K.conv2d(t, conv_w, None,
                                       padding=(1, 1)) ** 2).sum(),
         x((1, 2, 4, 4))),
        ("conv2d_depthwise", lambda t: (K.conv2d(t, dw_w, None, padding=(1, 1),
                                                 groups=2) ** 2).sum(),
         x((1, 2, 4, 4))),
        ("batch_norm", bn, x((2, 2, 3, 3))),
        ("softmax_spatial", lambda t: (K.softmax_spatial(t) ** 2).sum(), x()),
        ("bilinear_resize", lambda t: (K.bilinear_resize(t, 5, 7) ** 2).sum(),
         x()),
        ("pixel_shuffle", lambda t: (K.pixel_shuffle(t, 2) * t.sum()).sum(),
         x((1, 4, 2, 3))),
        ("avg_pool2d", lambda t: (K.avg_pool2d(t, 2) ** 2).sum(),
         x((1, 2, 4, 4))),
        ("concat_channels", lambda t: (K.concat_channels(
            [t, Tensor(np.ones((1, 1, 3, 4)))]) ** 2).sum(), x()),
        ("hint_loss", lambda t: distill.hint_loss(
            [t * float(i + 1) for i in range(4)], teachers),
         x((1, 2, 3, 3))),
        ("salgan_loss", lambda t: distill.salgan_loss(t, gt=gt, pseudo=pseudo),
         x()),
        ("deepgaze_loss", lambda t: distill.deepgaze_loss(t, dist), x()),
    ]


def test_criterion_03_gradient_correctness(capsys):
    start = time.perf_counter()
    worst = {}
    for seed in range(10):
        for name, fn, x0 in _grad_cases(seed):
            rep = grad_check(fn, x0, tolerance=1e-4)
            worst[name] = max(worst.get(name, 0.0), rep.max_rel_err)
    elapsed = time.perf_counter() - start
    ok = all(err <= 1e-4 for err in worst.values()) and elapsed < 120.0
    announce(capsys, 3,
             f"gradients match finite differences ({len(worst)} cases x 10 seeds)", ok)


def test_criterion_04_loss_fixtures(capsys):
    # twin-BCE fixture: both targets 0.5, logits 0 -> 2 ln 2
    logits = Tensor(np.zeros((1, 1, 2, 2)))
    half = Tensor(np.full((1, 1, 2, 2), 0.5))
    v1 = distill.salgan_loss(logits, gt=half, pseudo=half).item()
    oracle1 = 2 * (-(0.5 * math.log(0.5) + 0.5 * math.log(0.5)))
    ok = abs(v1 - oracle1) <= 1e-6 and abs(v1 - 2 * math.log(2)) <= 1e-6

    # composite fixture: teacher [0.7, 0.3], logits 0; oracle scripted from
    # the definition (spatial softmax, KL, cosine, min-max BCE)
    z = np.zeros(2)
    ybar = np.array([0.7, 0.3])
    g = np.exp(z) / np.exp(z).sum()
    kl = float((ybar * (np.log(ybar) - np.log(g + 1e-12))).sum())
    cos = float((ybar * g).sum() / (np.linalg.norm(ybar) * np.linalg.norm(g)))
    tgt = (ybar - ybar.min()) / (ybar.max() - ybar.min())
    p = np.clip(1 / (1 + np.exp(-z)), 1e-7, 1 - 1e-7)
    bce = float(-(tgt * np.log(p) + (1 - tgt) * np.log(1 - p)).mean())
    oracle2 = kl + (1 - cos) + bce
    v2 = distill.deepgaze_loss(Tensor(z.reshape(1, 1, 1, 2)),
                               Tensor(ybar.reshape(1, 1, 1, 2))).item()
    ok = ok and abs(v2 - oracle2) <= 1e-6 and abs(v2 - 0.84696) <= 1e-5
    announce(capsys, 4, "loss hand fixtures match scripted oracles", ok)


def test_criterion_05_toy_distillation_convergence(capsys, tmp_path):
    start = time.perf_counter()
    manifest = load_manifest(build_synthetic_dataset(
        str(tmp_path / "toy"), n=16, size=(48, 64), seed=0))
    graph = build_fastsal("C", (1, 3, 48, 64), width=0.25)
    store = init_weights(graph, seed=0)
    # 16 pairs, batch 4 -> 4 steps per epoch; 50 epochs = 200 steps, with the
    # decay points scaled down proportionally
    cfg = trainer.TrainConfig(loss="salgan", epochs=50, batch_size=4, seed=0,
                              decay_epochs=(30, 40, 45), max_steps=200)
    log = trainer.train(manifest, cfg, graph, store)
    first, last = log.rows[0].mean_loss, log.rows[-1].mean_loss
    elapsed = time.perf_counter() - start
    ok = last <= 0.5 * first and elapsed < 300.0
    announce(capsys, 5,
             f"toy distillation converges ({(1 - last / first) * 100:.0f}% "
             f"loss drop in <=200 steps, {elapsed:.0f}s)", ok)


def test_criterion_06_metric_oracles(capsys):
    from test_metrics import brute_force_auc

    rng = np.random.default_rng(0)
    ok = True
    for _ in range(100):
        pred = rng.uniform(0, 1, (8, 8))
        npts = int(rng.integers(1, 6))
        fix = list({(int(r), int(c)) for r, c in
                    zip(rng.integers(0, 8, npts), rng.integers(0, 8, npts))})
        mask = np.zeros((8, 8), dtype=bool)
        for r, c in fix:
            mask[r, c] = True
        ok = ok and abs(M.auc_judd(pred, fix)
                        - brute_force_auc(pred[mask], pred[~mask])) <= 1e-9
        # monotone transform invariance
        ok = ok and abs(M.auc_judd(pred, fix)
                        - M.auc_judd(np.exp(3 * pred), fix)) <= 1e-9
    pred = rng.uniform(0, 1, (8, 8))
    gt = rng.uniform(0, 1, (8, 8))
    fix = [(1, 2), (5, 6)]
    ok = ok and abs(M.nss(pred, fix) - M.nss(pred * 4 + 2, fix)) <= 1e-9
    ok = ok and abs(M.cc(pred, gt) - M.cc(pred * 4 + 2, gt)) <= 1e-9
    ok = ok and abs(M.kldiv(pred, pred)) <= 1e-9
    ok = ok and M.kldiv(pred, gt) > 1e-6
    ok = ok and abs(M.sim(pred, pred) - 1.0) <= 1e-9
    ok = ok and abs(M.cc(pred, pred) - 1.0) <= 1e-9
    announce(capsys, 6, "metrics match oracles and invariance properties", ok)


def test_criterion_07_bn_folding_equivalence(capsys):
    graph = build_fastsal("C", (1, 3, 96, 128))
    store = init_weights(graph, seed=0)
    folded_graph, folded_store = fold_batch_norm(graph, store)
    rng = np.random.default_rng(1)
    ok = True
    for _ in range(20):
        x = Tensor(rng.standard_normal((1, 3, 96, 128)).astype(np.float32))
        ref = graph.run(store, x)["out"].data
        out = folded_graph.run(folded_store, x)["out"].data
        rel = np.abs(out - ref).max() / (np.abs(ref).max() + 1e-12)
        ok = ok and rel < 1e-5
    announce(capsys, 7, "bn folding equivalent on 20 random inputs", ok)


@OTHER_SHAPES
def test_criterion_07_bn_folding_equivalence_other_sizes(capsys, shape):
    rng = np.random.default_rng(2)
    ok = True
    for variant in ("C", "A"):
        graph = build_fastsal(variant, shape)
        store = randomize_weights(init_weights(graph, seed=0), seed=3)
        folded_graph, folded_store = fold_batch_norm(graph, store)
        x = Tensor(rng.standard_normal(shape).astype(np.float32))
        ref = graph.run(store, x)["out"].data
        out = folded_graph.run(folded_store, x)["out"].data
        ok = ok and np.abs(out - ref).max() / (np.abs(ref).max() + 1e-12) < 1e-5
    announce(capsys, 7, f"bn folding equivalent on C and A at {'x'.join(map(str, shape))}",
             ok)


def test_criterion_08_benchmark_protocol(capsys):
    graph = build_fastsal("C", (1, 3, 192, 256))
    store = init_weights(graph, seed=0)
    rep = bench.benchmark(graph, store, iterations=100, warmup=3)
    ok = (rep.iterations == 100 and rep.mean_ms > 0
          and abs(rep.fps - 1000.0 / rep.mean_ms) < 1e-9)
    ref_graph = bench.build_vgg16_reference((1, 3, 192, 256))
    ref_store = init_weights(ref_graph)
    ref = bench.benchmark(ref_graph, ref_store, iterations=5, warmup=1)
    ok = ok and rep.fps > ref.fps
    announce(capsys, 8,
             f"bench protocol (100 iters, {rep.fps:.1f} fps vs "
             f"vgg16-scale {ref.fps:.1f} fps)", ok)


def test_criterion_09_serialization_round_trip(capsys, tmp_path):
    graph = build_fastsal("A", (1, 3, 48, 64), width=0.25)
    store = init_weights(graph, seed=3)
    path = str(tmp_path / "w.fsal")
    save_weights(store, path)
    loaded = load_weights(path)
    ok = sorted(loaded.names()) == sorted(store.names())
    for name in store.names():
        ok = ok and np.array_equal(loaded.get(name).data,
                                   store.get(name).data)
    for corrupt, expect_offset in ((b"XXXX" + b"\x00" * 8, 0),
                                   (Path(path).read_bytes()[:30], None)):
        bad = tmp_path / "bad.fsal"
        bad.write_bytes(corrupt)
        try:
            load_weights(str(bad))
            ok = False
        except ParseError as e:
            ok = ok and e.offset is not None
            if expect_offset is not None:
                ok = ok and e.offset == expect_offset
    announce(capsys, 9, "weight round trip bit-identical, positioned errors", ok)


def test_criterion_10_ablation_harness(capsys, tmp_path):
    graph = build_fastsal("C", (1, 3, 48, 64), width=0.25)
    shapes = graph.infer_shapes()
    hints = [shapes[n][1:] for n in trainer.ADAPT_LAYERS]
    manifest = load_manifest(build_synthetic_dataset(
        str(tmp_path / "abl"), n=4, size=(48, 64), with_hints=hints,
        with_dist=True))
    cfg = trainer.TrainConfig(epochs=1, batch_size=2, max_steps=1)
    results = trainer.ablation_run(manifest, graph,
                                   lambda: init_weights(graph, seed=0),
                                   config=cfg)
    combos = [(r["pretrain"], r["finetune"], r["gt"]) for r in results]
    ok = (combos == [(False, True, False), (True, True, False),
                     (False, False, True), (False, True, True),
                     (True, True, True)]
          and all(np.isfinite(r["nss"]) and np.isfinite(r["cc"])
                  for r in results))
    csv_path = str(tmp_path / "ablation.csv")
    trainer.ablation_csv(results, csv_path)
    ok = ok and os.path.getsize(csv_path) > 0
    announce(capsys, 10, "ablation harness emits the five flag rows", ok)
