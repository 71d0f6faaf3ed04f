import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import fastsal.distill as distill
import fastsal.kernels as K
import fastsal.tensor as T
from fastsal.errors import ContractError
from fastsal.network import LayerSpec, NetworkGraph, init_weights, trainable_slots
from fastsal.tensor import Tape, Tensor, grad_check
from fastsal.trainer import sgd_step


def leaf(arr):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=True)


class TestTapeBasics:
    def test_sum_gradient_is_ones(self):
        x = leaf(np.random.default_rng(0).normal(size=(3, 4)))
        with Tape() as tape:
            y = x.sum()
        np.testing.assert_array_equal(tape.gradients(y, [x])[0], np.ones((3, 4)))

    def test_quadratic_gradient(self):
        x = leaf(np.random.default_rng(1).normal(size=(2, 3)))
        with Tape() as tape:
            y = ((x ** 2) * 0.5).sum()
        np.testing.assert_allclose(tape.gradients(y, [x])[0], x.data, rtol=1e-12)

    def test_fan_out_accumulates(self):
        x = leaf([2.0])
        with Tape() as tape:
            y = (x * x + x * 3.0).sum()
        assert tape.gradients(y, [x])[0][0] == pytest.approx(2 * 2.0 + 3.0)

    def test_nothing_recorded_without_tape(self):
        x = leaf([1.0, 2.0])
        tape = Tape()
        _ = (x * 2.0).sum()  # outside any active tape
        assert tape.nodes == []

    def test_no_grad_input_not_recorded(self):
        x = Tensor(np.ones(3))
        with Tape() as tape:
            _ = (x * 2.0).sum()
        assert tape.nodes == []

    def test_gradients_zero_for_unused_leaf(self):
        x, z = leaf([1.0]), leaf([5.0])
        with Tape() as tape:
            y = (x * 2.0).sum()
        gx, gz = tape.gradients(y, [x, z])
        assert gx[0] == pytest.approx(2.0)
        np.testing.assert_array_equal(gz, np.zeros(1))

    def test_scalar_loss_required(self):
        x = leaf([1.0, 2.0])
        with Tape() as tape:
            y = x * 2.0
        with pytest.raises(ContractError):
            tape.gradients(y, [x])

    def test_detach_blocks_gradient(self):
        x = leaf([3.0])
        with Tape() as tape:
            y = (x.detach() * x).sum()
        assert tape.gradients(y, [x])[0][0] == pytest.approx(3.0)

    def test_nested_tapes_are_independent(self):
        x = leaf([1.0])
        with Tape() as outer:
            _ = x * 2.0
            with Tape() as inner:
                _ = x * 3.0
        assert len(outer.nodes) == 1
        assert len(inner.nodes) == 1

    def test_tapes_are_per_thread(self):
        # every thread enters its tape, then all run forward while all those
        # tapes are open; each tape must hold its own thread's operations
        # only, giving the gradients of a serial run
        serial = [_train_tiny(seed) for seed in range(3)]
        barrier = threading.Barrier(3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=3) as pool:
                futures = [pool.submit(_train_tiny, seed, barrier) for seed in range(3)]
                threaded = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for (nodes_s, grads_s), (nodes_t, grads_t) in zip(serial, threaded):
            assert nodes_t == nodes_s
            for gs, gt in zip(grads_s, grads_t):
                np.testing.assert_allclose(gt, gs, rtol=1e-6, atol=0)


def _train_tiny(seed, barrier=None, steps=3):
    """SGD steps on a conv/bn/relu6/depthwise/1x1 graph; returns the tape
    length and the gradients of every step."""
    conv = dict(stride=(1, 1), padding=(1, 1), groups=1, bias=True)
    graph = NetworkGraph([
        LayerSpec("c1", "conv", ["input"], dict(conv, in_ch=3, out_ch=8, kernel=(3, 3),
                                                stride=(2, 2), bias=False)),
        LayerSpec("b1", "bn", ["c1"]),
        LayerSpec("r1", "relu6", ["b1"]),
        LayerSpec("dw", "conv", ["r1"], dict(conv, in_ch=8, out_ch=8, kernel=(3, 3), groups=8)),
        LayerSpec("r2", "relu6", ["dw"]),
        LayerSpec("out", "conv", ["r2"], dict(conv, in_ch=8, out_ch=1, kernel=(1, 1),
                                              padding=(0, 0))),
    ], input_shape=(2, 3, 12, 16))
    store = init_weights(graph, seed=seed)
    params = [(k, store.get(k)) for k in trainable_slots(store)]
    for _, t in params:
        t.requires_grad = True
    x = Tensor(np.random.default_rng(seed).normal(size=graph.input_shape).astype(np.float32))
    momentum, grads_log = {}, []
    for _ in range(steps):
        with Tape() as tape:
            if barrier is not None:
                barrier.wait(timeout=30)
            loss = (graph.run(store, x, training=True)["out"] ** 2).mean()
            if barrier is not None:
                barrier.wait(timeout=30)
        grads = tape.gradients(loss, [t for _, t in params])
        sgd_step(params, grads, 0.1, momentum)
        grads_log.extend(grads)
    return len(tape.nodes), grads_log


RNG_SEEDS = [0, 1, 2]


class TestGradCheckElementwise:
    @pytest.mark.parametrize("seed", RNG_SEEDS)
    @pytest.mark.parametrize("name,fn", [
        ("add", lambda t: (t + t * 2.0).sum()),
        ("sub", lambda t: (3.0 - t).sum()),
        ("mul", lambda t: (t * t).sum()),
        ("div", lambda t: (1.0 / (t * t + 2.0)).sum()),
        ("pow", lambda t: (t ** 3).sum()),
        ("exp", lambda t: T.exp(t).sum()),
        ("sqrt", lambda t: T.sqrt(t * t + 1.0).sum()),
        ("sigmoid", lambda t: (T.sigmoid(t) ** 2).sum()),
        ("mean", lambda t: (t * t).mean()),
        ("reshape", lambda t: (t.reshape(6) ** 2).sum()),
        ("axis_sum", lambda t: ((t.sum(axis=1) ** 2)).sum()),
        ("axis_mean", lambda t: ((t.mean(axis=0) ** 2)).sum()),
    ])
    def test_op(self, name, fn, seed):
        x = Tensor(np.random.default_rng(seed).normal(size=(2, 3)))
        rep = grad_check(fn, x)
        assert rep.passed, f"{name} seed {seed}: rel err {rep.max_rel_err:.2e}"

    @pytest.mark.parametrize("seed", RNG_SEEDS)
    def test_log(self, seed):
        x = Tensor(np.random.default_rng(seed).uniform(0.5, 2.0, (2, 3)))
        rep = grad_check(lambda t: (T.log(t) * 2.0).sum(), x)
        assert rep.passed

    @pytest.mark.parametrize("seed", RNG_SEEDS)
    def test_relu6_away_from_kinks(self, seed):
        rng = np.random.default_rng(seed)
        vals = rng.choice([-2.0, 1.0, 3.0, 8.0], size=(3, 3))
        vals += rng.uniform(-0.2, 0.2, vals.shape)
        rep = grad_check(lambda t: (T.relu6(t) * t).sum(), Tensor(vals))
        assert rep.passed

    @pytest.mark.parametrize("seed", RNG_SEEDS)
    def test_clip_interior(self, seed):
        x = Tensor(np.random.default_rng(seed).uniform(0.2, 0.8, (2, 4)))
        rep = grad_check(lambda t: (T.clip(t, 0.0, 1.0) ** 2).sum(), x)
        assert rep.passed


class TestGradCheckKernels:
    @pytest.mark.parametrize("seed", RNG_SEEDS)
    def test_conv2d_input(self, seed):
        rng = np.random.default_rng(seed)
        w = Tensor(rng.normal(size=(2, 3, 3, 3)))
        b = Tensor(rng.normal(size=2))
        x = Tensor(rng.normal(size=(1, 3, 5, 5)))
        rep = grad_check(
            lambda t: (K.conv2d(t, w, b, padding=(1, 1)) ** 2).sum(), x)
        assert rep.passed, rep.max_rel_err

    @pytest.mark.parametrize("seed", RNG_SEEDS)
    def test_conv2d_weight(self, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(1, 2, 5, 5)))
        w0 = Tensor(rng.normal(size=(3, 2, 3, 3)))
        rep = grad_check(
            lambda wt: (K.conv2d(x, wt, None, stride=(2, 2),
                                 padding=(1, 1)) ** 2).sum(), w0)
        assert rep.passed, rep.max_rel_err

    @pytest.mark.parametrize("seed", RNG_SEEDS)
    def test_conv2d_grouped_weight(self, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(2, 4, 5, 5)))
        w0 = Tensor(rng.normal(size=(6, 2, 3, 3)))
        rep = grad_check(
            lambda wt: (K.conv2d(x, wt, None, stride=(2, 2), padding=(1, 1),
                                 groups=2) ** 2).sum(), w0)
        assert rep.passed, rep.max_rel_err

    @pytest.mark.parametrize("seed", RNG_SEEDS)
    def test_conv2d_depthwise(self, seed):
        rng = np.random.default_rng(seed)
        w = Tensor(rng.normal(size=(3, 1, 3, 3)))
        x = Tensor(rng.normal(size=(1, 3, 4, 4)))
        rep = grad_check(
            lambda t: (K.conv2d(t, w, None, padding=(1, 1), groups=3) ** 2).sum(), x)
        assert rep.passed, rep.max_rel_err

    @pytest.mark.parametrize("stride", [(2, 2), (2, 1)])
    @pytest.mark.parametrize("seed", RNG_SEEDS)
    def test_conv2d_depthwise_strided(self, seed, stride):
        rng = np.random.default_rng(seed)
        w = Tensor(rng.normal(size=(3, 1, 3, 3)))
        b = Tensor(rng.normal(size=3))
        x = Tensor(rng.normal(size=(2, 3, 5, 6)))
        rep = grad_check(
            lambda t: (K.conv2d(t, w, b, stride=stride, padding=(1, 1), groups=3) ** 2).sum(), x)
        assert rep.passed, rep.max_rel_err

    @pytest.mark.parametrize("stride", [(1, 1), (2, 2)])
    @pytest.mark.parametrize("seed", RNG_SEEDS)
    def test_conv2d_depthwise_weight_and_bias(self, seed, stride):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(2, 3, 5, 6)))
        w = Tensor(rng.normal(size=(3, 1, 3, 3)))
        b = Tensor(rng.normal(size=3))

        def conv(wt, bt):
            return (K.conv2d(x, wt, bt, stride=stride, padding=(1, 1), groups=3) ** 2).sum()

        rep = grad_check(lambda wt: conv(wt, b), w)
        assert rep.passed, rep.max_rel_err
        rep = grad_check(lambda bt: conv(w, bt), b)
        assert rep.passed, rep.max_rel_err

    @pytest.mark.parametrize("stride", [(1, 1), (2, 2), (2, 1)])
    def test_conv2d_depthwise_pixel_major(self, stride, monkeypatch):
        # dx, dw and db of the tap loop's pixel-major layout (rows innermost
        # in memory) on a late-block-like shape: 48 channels on a 3x4 map
        monkeypatch.setattr(K, "_operator_path", lambda p, q: False)
        monkeypatch.setattr(K, "_pixel_major", lambda rows, span: True)
        rng = np.random.default_rng(sum(stride))
        x = Tensor(rng.normal(size=(1, 48, 3, 4)))
        w = Tensor(rng.normal(size=(48, 1, 3, 3)))
        b = Tensor(rng.normal(size=48))

        def conv(xt, wt, bt):
            return (K.conv2d(xt, wt, bt, stride=stride, padding=(1, 1), groups=48) ** 2).sum()

        for rep in (grad_check(lambda t: conv(t, w, b), x),
                    grad_check(lambda t: conv(x, t, b), w),
                    grad_check(lambda t: conv(x, w, t), b)):
            assert rep.passed, rep.max_rel_err

    @pytest.mark.parametrize("padding", [0, 1, 2])
    @pytest.mark.parametrize("stride", [(2, 2), (2, 1)])
    def test_conv2d_depthwise_tap_loop_strided(self, stride, padding, monkeypatch):
        # dx, dw and db of the strided tap loop in its own layout choice,
        # where each stride phase is copied to and from the input (_phase)
        monkeypatch.setattr(K, "_operator_path", lambda p, q: False)
        rng = np.random.default_rng(10 * padding + sum(stride))
        x = Tensor(rng.normal(size=(2, 3, 7, 6)))
        w = Tensor(rng.normal(size=(3, 1, 3, 3)))
        b = Tensor(rng.normal(size=3))
        pad = (padding, padding)

        def conv(xt, wt, bt):
            return (K.conv2d(xt, wt, bt, stride=stride, padding=pad, groups=3) ** 2).sum()

        for rep in (grad_check(lambda t: conv(t, w, b), x),
                    grad_check(lambda t: conv(x, t, b), w),
                    grad_check(lambda t: conv(x, w, t), b)):
            assert rep.passed, rep.max_rel_err

    @pytest.mark.parametrize("n", [1, 4])
    @pytest.mark.parametrize("stride", [(1, 1), (2, 2), (2, 1)])
    def test_conv2d_depthwise_operator(self, stride, n, monkeypatch):
        # dx, dw and db of the spatial-operator GEMMs on the late blocks'
        # 3x4 map, with one item and with several
        monkeypatch.setattr(K, "_operator_path", lambda p, q: True)
        rng = np.random.default_rng(10 * n + sum(stride))
        c = 48 // n
        x = Tensor(rng.normal(size=(n, c, 3, 4)))
        w = Tensor(rng.normal(size=(c, 1, 3, 3)))
        b = Tensor(rng.normal(size=c))

        def conv(xt, wt, bt):
            return (K.conv2d(xt, wt, bt, stride=stride, padding=(1, 1), groups=c) ** 2).sum()

        for rep in (grad_check(lambda t: conv(t, w, b), x),
                    grad_check(lambda t: conv(x, t, b), w),
                    grad_check(lambda t: conv(x, w, t), b)):
            assert rep.passed, rep.max_rel_err

    @pytest.mark.parametrize("seed", RNG_SEEDS)
    def test_batch_norm_training_mode(self, seed):
        rng = np.random.default_rng(seed)
        gamma = Tensor(rng.uniform(0.5, 1.5, 2), requires_grad=True)
        beta = Tensor(rng.normal(size=2), requires_grad=True)
        x = Tensor(rng.normal(size=(2, 2, 3, 3)))

        def fn(t):
            rm, rv = Tensor(np.zeros(2)), Tensor(np.ones(2))
            out = K.batch_norm(t, gamma, beta, rm, rv, training=True)
            return (out ** 2).sum()

        rep = grad_check(fn, x)
        assert rep.passed, rep.max_rel_err

    @pytest.mark.parametrize("seed", RNG_SEEDS)
    def test_batch_norm_affine_params(self, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(2, 3, 2, 2)))
        beta = Tensor(rng.normal(size=3))
        rm, rv = Tensor(np.zeros(3)), Tensor(np.ones(3))

        def fn(g):
            out = K.batch_norm(x, g, beta, Tensor(rm.data.copy()),
                               Tensor(rv.data.copy()), training=True)
            return (out ** 2).sum()

        rep = grad_check(fn, Tensor(rng.uniform(0.5, 1.5, 3)))
        assert rep.passed, rep.max_rel_err

    @pytest.mark.parametrize("seed", RNG_SEEDS)
    def test_softmax_spatial(self, seed):
        x = Tensor(np.random.default_rng(seed).normal(size=(2, 1, 3, 4)))
        rep = grad_check(lambda t: (K.softmax_spatial(t) ** 2).sum(), x)
        assert rep.passed, rep.max_rel_err

    @pytest.mark.parametrize("seed", RNG_SEEDS)
    def test_bilinear_resize(self, seed):
        x = Tensor(np.random.default_rng(seed).normal(size=(1, 2, 3, 4)))
        rep = grad_check(lambda t: (K.bilinear_resize(t, 5, 7) ** 2).sum(), x)
        assert rep.passed, rep.max_rel_err

    @pytest.mark.parametrize("seed", RNG_SEEDS)
    def test_bilinear_downsample(self, seed):
        x = Tensor(np.random.default_rng(seed).normal(size=(1, 1, 6, 8)))
        rep = grad_check(lambda t: (K.bilinear_resize(t, 3, 4) ** 2).sum(), x)
        assert rep.passed, rep.max_rel_err

    @pytest.mark.parametrize("seed", RNG_SEEDS)
    def test_pixel_shuffle(self, seed):
        x = Tensor(np.random.default_rng(seed).normal(size=(1, 8, 2, 3)))
        rep = grad_check(lambda t: (K.pixel_shuffle(t, 2) * t.sum()).sum(), x)
        assert rep.passed, rep.max_rel_err

    @pytest.mark.parametrize("seed", RNG_SEEDS)
    def test_avg_pool(self, seed):
        x = Tensor(np.random.default_rng(seed).normal(size=(1, 2, 4, 4)))
        rep = grad_check(lambda t: (K.avg_pool2d(t, 2) ** 2).sum(), x)
        assert rep.passed, rep.max_rel_err

    @pytest.mark.parametrize("seed", RNG_SEEDS)
    def test_concat(self, seed):
        rng = np.random.default_rng(seed)
        other = Tensor(rng.normal(size=(1, 2, 3, 3)))
        x = Tensor(rng.normal(size=(1, 2, 3, 3)))
        rep = grad_check(
            lambda t: (K.concat_channels([t, other]) ** 2).sum(), x)
        assert rep.passed, rep.max_rel_err


class TestGradCheckLosses:
    @pytest.mark.parametrize("seed", RNG_SEEDS)
    def test_hint(self, seed):
        rng = np.random.default_rng(seed)
        teachers = [Tensor(rng.normal(size=(1, 2, 3, 3))) for _ in range(4)]

        def fn(t):
            feats = [t * float(i + 1) for i in range(4)]
            return distill.hint_loss(feats, teachers)

        x = Tensor(rng.normal(size=(1, 2, 3, 3)))
        rep = grad_check(fn, x)
        assert rep.passed, rep.max_rel_err

    @pytest.mark.parametrize("seed", RNG_SEEDS)
    def test_salgan(self, seed):
        rng = np.random.default_rng(seed)
        gt = Tensor(rng.uniform(0.05, 0.95, (1, 1, 3, 4)))
        pseudo = Tensor(rng.uniform(0.05, 0.95, (1, 1, 3, 4)))
        x = Tensor(rng.normal(size=(1, 1, 3, 4)))
        rep = grad_check(lambda t: distill.salgan_loss(t, gt=gt, pseudo=pseudo), x)
        assert rep.passed, rep.max_rel_err

    @pytest.mark.parametrize("seed", RNG_SEEDS)
    def test_deepgaze(self, seed):
        rng = np.random.default_rng(seed)
        d = rng.uniform(0.1, 1.0, (1, 1, 3, 4))
        dist = Tensor(d / d.sum())
        x = Tensor(rng.normal(size=(1, 1, 3, 4)))
        rep = grad_check(lambda t: distill.deepgaze_loss(t, dist), x)
        assert rep.passed, rep.max_rel_err


def test_grad_check_flags_a_wrong_gradient():
    # a deliberately broken backward must be reported, not silently passed
    def crooked(t):
        out = T.apply_op("crooked", (t,), t.data * 3.0,
                         lambda g: (g * 2.0,))
        return T.tsum(out)

    x = Tensor(np.random.default_rng(0).normal(size=(2, 2)))
    rep = grad_check(crooked, x)
    assert not rep.passed
