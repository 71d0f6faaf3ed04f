import itertools

import numpy as np
import pytest

import fastsal.kernels as K
from fastsal.distill import _minmax
from fastsal.errors import ConfigError, ShapeError
from fastsal.tensor import Tape, Tensor, relu6, sigmoid


def t(arr, **kw):
    return Tensor(np.asarray(arr, dtype=np.float64), **kw)


def naive_depthwise(x, w, b, stride, padding):
    """Depthwise convolution one output pixel at a time, in float64."""
    (sh, sw), (ph, pw) = stride, padding
    n, c, h, wd = x.shape
    kh, kw = w.shape[2:]
    xp = np.pad(x.astype(np.float64), ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    ho, wo = (h + 2 * ph - kh) // sh + 1, (wd + 2 * pw - kw) // sw + 1
    out = np.zeros((n, c, ho, wo))
    for i, ch, y, z in itertools.product(range(n), range(c), range(ho), range(wo)):
        window = xp[i, ch, y * sh:y * sh + kh, z * sw:z * sw + kw]
        out[i, ch, y, z] = (window * w[ch, 0]).sum() + (0.0 if b is None else b[ch])
    return out


def assert_depthwise_matches_naive(x, wt, b, stride, padding):
    """conv2d's depthwise output, with bias b or none, against the naive
    loop, to 1e-12 (float64) or 1e-5 (float32) of its largest magnitude."""
    out = K.conv2d(Tensor(x), Tensor(wt), None if b is None else Tensor(b),
                   stride=stride, padding=padding, groups=x.shape[1])
    ref = naive_depthwise(x, wt, b, stride, padding)
    assert out.shape == ref.shape
    assert out.dtype == x.dtype and out.data.flags.c_contiguous
    tol = 1e-12 if x.dtype == np.float64 else 1e-5
    np.testing.assert_allclose(out.data, ref, rtol=0, atol=tol * np.abs(ref).max())


def naive_conv_dw(x, g, w_shape, stride, padding, groups):
    """Weight gradient of a convolution, in float64, one tap at a time:
    dw[o, c, u, v] is the sum over items and output pixels of g[n, o] times
    the input of o's group that tap (u, v) reads."""
    (sh, sw), (ph, pw) = stride, padding
    cout, cg, kh, kw = w_shape
    og = cout // groups
    n, _, ho, wo = g.shape
    xp = np.pad(x.astype(np.float64), ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    dw = np.zeros(w_shape)
    for u, v, gi in itertools.product(range(kh), range(kw), range(groups)):
        window = xp[:, gi * cg:(gi + 1) * cg, u:u + ho * sh:sh, v:v + wo * sw:sw]
        dw[gi * og:(gi + 1) * og, :, u, v] = np.einsum(
            "nohw,nchw->oc", g[:, gi * og:(gi + 1) * og].astype(np.float64), window)
    return dw


def naive_conv(x, w, b, stride, padding, groups):
    """Convolution with bias, in float64, one tap at a time: tap (u, v) adds
    w[o, :, u, v] times the input of o's group that the tap reads."""
    (sh, sw), (ph, pw) = stride, padding
    cout, cg, kh, kw = w.shape
    og = cout // groups
    n, _, h, wd = x.shape
    ho, wo = (h + 2 * ph - kh) // sh + 1, (wd + 2 * pw - kw) // sw + 1
    xp = np.pad(x.astype(np.float64), ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    out = np.zeros((n, cout, ho, wo)) + b.astype(np.float64).reshape(1, cout, 1, 1)
    for u, v, gi in itertools.product(range(kh), range(kw), range(groups)):
        window = xp[:, gi * cg:(gi + 1) * cg, u:u + ho * sh:sh, v:v + wo * sw:sw]
        out[:, gi * og:(gi + 1) * og] += np.einsum(
            "oc,nchw->nohw", w[gi * og:(gi + 1) * og, :, u, v].astype(np.float64), window)
    return out


def naive_conv_dx(g, w, x_shape, stride, padding, groups):
    """Input gradient of a convolution, in float64, one tap at a time: tap
    (u, v) scatters g through w[:, :, u, v] back onto the input pixels it
    reads."""
    (sh, sw), (ph, pw) = stride, padding
    cout, cg, kh, kw = w.shape
    og = cout // groups
    n, cin, h, wd = x_shape
    ho, wo = g.shape[2:]
    dxp = np.zeros((n, cin, h + 2 * ph, wd + 2 * pw))
    for u, v, gi in itertools.product(range(kh), range(kw), range(groups)):
        dxp[:, gi * cg:(gi + 1) * cg, u:u + ho * sh:sh, v:v + wo * sw:sw] += np.einsum(
            "nohw,oc->nchw", g[:, gi * og:(gi + 1) * og].astype(np.float64),
            w[gi * og:(gi + 1) * og, :, u, v].astype(np.float64))
    return dxp[:, :, ph:ph + h, pw:pw + wd]


# (cin, cout, k, stride, padding, groups) over both paths of conv2d: 1x1
# convs (whose im2col matrix is a view of the input), im2col, grouped and
# depthwise, and the one-channel convs that meet both paths' rules
CONV_CASES = pytest.mark.parametrize("cin,cout,k,stride,padding,groups", [
    (5, 4, 1, (1, 1), (0, 0), 1),     # pointwise, one GEMM per item
    (24, 32, 1, (1, 1), (0, 0), 1),   # pointwise, one GEMM over N*P < C_out*C_in
    (5, 4, 1, (1, 1), (1, 2), 1),     # 1x1 on the padded input
    (5, 4, 1, (2, 2), (0, 0), 1),     # 1x1 at stride 2 goes through im2col
    (6, 4, 1, (1, 1), (0, 0), 2),     # 1x1 grouped
    (4, 4, 1, (1, 1), (0, 0), 4),     # 1x1 depthwise
    (1, 1, 1, (1, 1), (0, 0), 1),     # one channel, 1x1: GEMM
    (1, 1, 3, (1, 1), (1, 1), 1),     # one channel, 3x3: depthwise
    (3, 4, 3, (1, 1), (1, 1), 1),     # im2col
    (3, 4, 3, (2, 2), (1, 1), 1),
    (3, 2, 3, (2, 1), (0, 2), 1),
    (6, 4, 3, (1, 1), (1, 1), 2),     # grouped loop
    (6, 9, 3, (2, 2), (1, 0), 3),
], ids=["pointwise", "pointwise-one-gemm", "pointwise-padded", "pointwise-s2",
        "pointwise-grouped", "pointwise-depthwise", "one-channel-1x1", "one-channel-3x3",
        "general", "general-s2", "general-s21-p02", "grouped", "grouped-s2"])


class TestConv2d:
    def test_single_multiply(self):
        out = K.conv2d(t([[[[2.0]]]]), t([[[[3.0]]]]))
        assert out.data.item() == pytest.approx(6.0)

    def test_zero_weight_gives_zero_output(self):
        x = t(np.random.default_rng(0).normal(size=(2, 3, 5, 5)))
        w = t(np.zeros((4, 3, 3, 3)))
        out = K.conv2d(x, w, padding=(1, 1))
        assert out.shape == (2, 4, 5, 5)
        assert np.all(out.data == 0)

    def test_symmetric_sum(self):
        x = t(np.ones((1, 1, 3, 3)))
        w = t(np.ones((1, 1, 3, 3)))
        out = K.conv2d(x, w)
        assert out.shape == (1, 1, 1, 1)
        assert out.data.item() == pytest.approx(9.0)

    def test_output_shape_formula(self):
        x = t(np.zeros((1, 2, 11, 13)))
        w = t(np.zeros((5, 2, 3, 3)))
        out = K.conv2d(x, w, stride=(2, 3), padding=(1, 0))
        assert out.shape == (1, 5, (11 + 2 - 3) // 2 + 1, (13 - 3) // 3 + 1)

    def test_pointwise_equals_matmul(self):
        rng = np.random.default_rng(1)
        x = t(rng.normal(size=(1, 6, 4, 4)))
        w = t(rng.normal(size=(3, 6, 1, 1)))
        out = K.conv2d(x, w)
        expect = np.einsum("oc,nchw->nohw", w.data[:, :, 0, 0], x.data)
        np.testing.assert_allclose(out.data, expect, rtol=1e-12)

    @pytest.mark.parametrize("groups", [1, 2])
    def test_pointwise_on_channels_last_view(self, groups):
        # a 1x1 stride-1 conv takes its input itself as the im2col matrix,
        # here a view whose channels are innermost in memory
        rng = np.random.default_rng(12)
        x = Tensor(rng.normal(size=(2, 5, 6, 4)).transpose(0, 3, 1, 2), requires_grad=True)
        w = rng.normal(size=(6, 4 // groups, 1, 1))
        with Tape() as tape:
            out = K.conv2d(x, Tensor(w), groups=groups)
            g = rng.normal(size=out.shape)
            loss = (out * Tensor(g)).sum()
        dx = tape.gradients(loss, [x])[0]
        ref = naive_conv(x.data, w, np.zeros(6), (1, 1), (0, 0), groups)
        np.testing.assert_allclose(out.data, ref, rtol=0, atol=1e-12 * np.abs(ref).max())
        ref = naive_conv_dx(g, w, x.shape, (1, 1), (0, 0), groups)
        np.testing.assert_allclose(dx, ref, rtol=0, atol=1e-12 * np.abs(ref).max())

    def test_depthwise_equals_per_channel(self):
        rng = np.random.default_rng(2)
        x = t(rng.normal(size=(2, 4, 6, 6)))
        w = t(rng.normal(size=(4, 1, 3, 3)))
        out = K.conv2d(x, w, padding=(1, 1), groups=4)
        for c in range(4):
            single = K.conv2d(t(x.data[:, c:c + 1]), t(w.data[c:c + 1]),
                              padding=(1, 1))
            np.testing.assert_allclose(out.data[:, c:c + 1], single.data, rtol=1e-12)

    @pytest.mark.parametrize("padding", [0, 1, 2])
    @pytest.mark.parametrize("k", [3, 5])
    @pytest.mark.parametrize("stride", [(1, 1), (2, 2), (2, 1)], ids=lambda s: "%dx%d" % s)
    def test_depthwise_matches_naive_loop(self, stride, k, padding, monkeypatch):
        # the tap loop; with stride 2, one of 7 and 10 leaves h + 2p - k
        # indivisible by it
        monkeypatch.setattr(K, "_operator_path", lambda p, q: False)
        rng = np.random.default_rng(10 * k + padding)
        for (h, w), n, dtype, with_bias in itertools.product(
                [(7, 10), (10, 9)], [1, 2], [np.float32, np.float64], [False, True]):
            x = rng.normal(size=(n, 3, h, w)).astype(dtype)
            wt = rng.normal(size=(3, 1, k, k)).astype(dtype)
            b = rng.normal(size=3).astype(dtype) if with_bias else None
            assert_depthwise_matches_naive(x, wt, b, stride, (padding, padding))

    @pytest.mark.parametrize("k", [3, 5])
    @pytest.mark.parametrize("stride", [(1, 1), (2, 2), (2, 1)], ids=lambda s: "%dx%d" % s)
    def test_depthwise_pixel_major_matches_naive_loop(self, stride, k, monkeypatch):
        # 48-96 channels on small maps, the shapes of the late blocks, in
        # the tap loop's pixel-major layout (rows innermost in memory)
        monkeypatch.setattr(K, "_operator_path", lambda p, q: False)
        monkeypatch.setattr(K, "_pixel_major", lambda rows, span: True)
        rng = np.random.default_rng(100 * k + 10 * stride[0] + stride[1])
        pad = k // 2
        for (h, w), n, dtype, with_bias in itertools.product(
                [(2, 2), (3, 4), (3, 5)], [1, 4], [np.float32, np.float64], [False, True]):
            c = int(rng.integers(48, 97))
            x = rng.normal(size=(n, c, h, w)).astype(dtype)
            wt = rng.normal(size=(c, 1, k, k)).astype(dtype)
            b = rng.normal(size=c).astype(dtype) if with_bias else None
            assert_depthwise_matches_naive(x, wt, b, stride, (pad, pad))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", [3, 5])
    @pytest.mark.parametrize("stride", [(1, 1), (2, 2), (2, 1)], ids=lambda s: "%dx%d" % s)
    def test_depthwise_layouts_agree(self, stride, k, dtype, monkeypatch):
        # both memory layouts of the tap loop run the same taps in the same
        # order, so the forward is bit-identical; the dw reductions differ in
        # order only
        monkeypatch.setattr(K, "_operator_path", lambda p, q: False)
        rng = np.random.default_rng(7 * k + stride[1])
        pad = k // 2
        for (h, w), n, c in itertools.product([(2, 2), (3, 5), (7, 10)], [1, 4], [3, 64]):
            x = rng.normal(size=(n, c, h, w)).astype(dtype)
            wt = rng.normal(size=(c, 1, k, k)).astype(dtype)
            ho = (h + 2 * pad - k) // stride[0] + 1
            wo = (w + 2 * pad - k) // stride[1] + 1
            g = rng.normal(size=(n, c, ho, wo)).astype(dtype)
            runs = []
            for pixel_major in (False, True):
                monkeypatch.setattr(K, "_pixel_major", lambda rows, span: pixel_major)
                out, grads = K._depthwise(x, wt, *stride, pad, pad, ho, wo)
                runs.append((np.ascontiguousarray(out),) + grads(g))
            (out0, dx0, dw0), (out1, dx1, dw1) = runs
            np.testing.assert_array_equal(out1, out0)
            for got, ref in ((dx1, dx0), (dw1, dw0)):
                assert got.dtype == ref.dtype and got.shape == ref.shape
                np.testing.assert_allclose(got, ref, rtol=0, atol=1e-5 * np.abs(ref).max())

    @pytest.mark.parametrize("padding", [0, 1, 2])
    @pytest.mark.parametrize("k", [3, 5])
    @pytest.mark.parametrize("stride", [(1, 1), (2, 2), (2, 1)], ids=lambda s: "%dx%d" % s)
    def test_depthwise_operator_matches_naive_loop(self, stride, k, padding, monkeypatch):
        # the spatial-operator GEMMs, forced on maps that their rule would
        # leave to the tap loop too (5x7 at stride 1)
        monkeypatch.setattr(K, "_operator_path", lambda p, q: True)
        rng = np.random.default_rng(1000 + 10 * k + padding)
        for (h, w), n, dtype, with_bias in itertools.product(
                [(2, 3), (3, 4), (5, 7)], [1, 4], [np.float32, np.float64], [False, True]):
            if min(h, w) + 2 * padding < k:
                continue
            c = int(rng.integers(2, 49))
            x = rng.normal(size=(n, c, h, w)).astype(dtype)
            wt = rng.normal(size=(c, 1, k, k)).astype(dtype)
            b = rng.normal(size=c).astype(dtype) if with_bias else None
            assert_depthwise_matches_naive(x, wt, b, stride, (padding, padding))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", [3, 5])
    @pytest.mark.parametrize("stride", [(1, 1), (2, 2), (2, 1)], ids=lambda s: "%dx%d" % s)
    def test_depthwise_algorithms_agree(self, stride, k, dtype, monkeypatch):
        # the spatial operator and the tap loop sum the taps in different
        # orders: output, dx and dw agree to rounding
        rng = np.random.default_rng(31 * k + stride[1])
        pad = k // 2
        for (h, w), n, c in itertools.product([(2, 2), (3, 4), (6, 8)], [1, 4], [3, 64]):
            x = rng.normal(size=(n, c, h, w)).astype(dtype)
            wt = rng.normal(size=(c, 1, k, k)).astype(dtype)
            ho = (h + 2 * pad - k) // stride[0] + 1
            wo = (w + 2 * pad - k) // stride[1] + 1
            g = rng.normal(size=(n, c, ho, wo)).astype(dtype)
            runs = []
            for operator in (False, True):
                monkeypatch.setattr(K, "_operator_path", lambda p, q: operator)
                out, grads = K._depthwise(x, wt, *stride, pad, pad, ho, wo)
                runs.append((np.ascontiguousarray(out),) + grads(g))
            tol = 1e-12 if dtype == np.float64 else 1e-5
            for got, ref in zip(runs[1], runs[0]):
                assert got.dtype == ref.dtype == dtype and got.shape == ref.shape
                np.testing.assert_allclose(got, ref, rtol=0, atol=tol * np.abs(ref).max())

    def test_spatial_operator_cache_is_read_only_and_bounded(self):
        for op in K._spatial_operator(3, 4, 3, 3, 2, 1, 1, 1, np.dtype(np.float32)):
            assert op.dtype == np.float32 and not op.flags.writeable
            with pytest.raises(ValueError):
                op[0, 0] = 1
        maxsize = K._spatial_operator.cache_info().maxsize
        assert maxsize is not None
        for h in range(1, maxsize + 10):
            K._spatial_operator(h, 2, 1, 1, 1, 1, 0, 0, np.dtype(np.float64))
        assert K._spatial_operator.cache_info().currsize == maxsize

    @CONV_CASES
    def test_weight_gradient_matches_naive_loop(self, cin, cout, k, stride, padding, groups):
        rng = np.random.default_rng(cin * cout + k)
        for n, dtype in itertools.product([1, 3], [np.float32, np.float64]):
            x = rng.normal(size=(n, cin, 7, 10)).astype(dtype)
            w = Tensor(rng.normal(size=(cout, cin // groups, k, k)).astype(dtype),
                       requires_grad=True)
            with Tape() as tape:
                out = K.conv2d(Tensor(x), w, stride=stride, padding=padding, groups=groups)
                g = rng.normal(size=out.shape).astype(dtype)
                loss = (out * Tensor(g)).sum()
            dw = tape.gradients(loss, [w])[0]
            ref = naive_conv_dw(x, g, w.shape, stride, padding, groups)
            assert dw.dtype == dtype and dw.shape == ref.shape
            tol = 1e-12 if dtype == np.float64 else 1e-5
            np.testing.assert_allclose(dw, ref, rtol=0, atol=tol * np.abs(ref).max())

    @CONV_CASES
    def test_forward_and_input_gradient_match_naive_loop(self, cin, cout, k, stride,
                                                         padding, groups):
        rng = np.random.default_rng(cin * cout + k + 1)
        for n, dtype in itertools.product([1, 3], [np.float32, np.float64]):
            x = Tensor(rng.normal(size=(n, cin, 7, 10)).astype(dtype), requires_grad=True)
            w = rng.normal(size=(cout, cin // groups, k, k)).astype(dtype)
            b = rng.normal(size=cout).astype(dtype)
            with Tape() as tape:
                out = K.conv2d(x, Tensor(w), Tensor(b), stride=stride, padding=padding,
                               groups=groups)
                g = rng.normal(size=out.shape).astype(dtype)
                loss = (out * Tensor(g)).sum()
            dx = tape.gradients(loss, [x])[0]
            tol = 1e-12 if dtype == np.float64 else 1e-5
            for got, ref in ((out.data, naive_conv(x.data, w, b, stride, padding, groups)),
                             (dx, naive_conv_dx(g, w, x.shape, stride, padding, groups))):
                assert got.dtype == dtype and got.shape == ref.shape
                np.testing.assert_allclose(got, ref, rtol=0, atol=tol * np.abs(ref).max())

    def test_grouped_matches_split(self):
        rng = np.random.default_rng(3)
        x = t(rng.normal(size=(1, 6, 5, 5)))
        w = t(rng.normal(size=(4, 3, 3, 3)))
        out = K.conv2d(x, w, padding=(1, 1), groups=2)
        lo = K.conv2d(t(x.data[:, :3]), t(w.data[:2]), padding=(1, 1))
        hi = K.conv2d(t(x.data[:, 3:]), t(w.data[2:]), padding=(1, 1))
        np.testing.assert_allclose(out.data, np.concatenate([lo.data, hi.data], 1),
                                   rtol=1e-12)

    def test_bias(self):
        out = K.conv2d(t([[[[2.0]]]]), t([[[[3.0]]]]), t([1.5]))
        assert out.data.item() == pytest.approx(7.5)

    def test_bad_groups(self):
        with pytest.raises(ConfigError):
            K.conv2d(t(np.zeros((1, 5, 3, 3))), t(np.zeros((2, 2, 1, 1))), groups=2)

    def test_channel_mismatch_names_axis(self):
        with pytest.raises(ShapeError, match="channel"):
            K.conv2d(t(np.zeros((1, 4, 3, 3))), t(np.zeros((2, 3, 1, 1))))

    def test_kernel_too_large(self):
        with pytest.raises(ShapeError):
            K.conv2d(t(np.zeros((1, 1, 2, 2))), t(np.zeros((1, 1, 5, 5))))


class TestBatchNorm:
    def _vecs(self, c, **over):
        base = dict(gamma=np.ones(c), beta=np.zeros(c),
                    rmean=np.zeros(c), rvar=np.ones(c))
        base.update(over)
        return {k: t(v) for k, v in base.items()}

    def test_identity_parameters(self):
        x = t(np.random.default_rng(0).normal(size=(2, 3, 4, 4)))
        v = self._vecs(3)
        out = K.batch_norm(x, v["gamma"], v["beta"], v["rmean"], v["rvar"],
                           eps=1e-12)
        np.testing.assert_allclose(out.data, x.data, rtol=1e-6)

    def test_zero_scale_gives_beta(self):
        x = t(np.random.default_rng(1).normal(size=(1, 2, 3, 3)))
        v = self._vecs(2, gamma=np.zeros(2), beta=np.full(2, 0.7))
        out = K.batch_norm(x, v["gamma"], v["beta"], v["rmean"], v["rvar"])
        np.testing.assert_allclose(out.data, 0.7)

    def test_training_batch_stats(self):
        # channel values {1,3}: mean 2, population var 1 -> gamma 2, beta 1
        x = t(np.array([1.0, 3.0]).reshape(2, 1, 1, 1))
        v = self._vecs(1, gamma=np.array([2.0]), beta=np.array([1.0]))
        out = K.batch_norm(x, v["gamma"], v["beta"], v["rmean"], v["rvar"],
                           eps=1e-15, training=True)
        np.testing.assert_allclose(out.data.reshape(-1), [-1.0, 3.0], atol=1e-6)

    def test_running_stats_update(self):
        x = t(np.full((1, 1, 2, 2), 4.0))
        v = self._vecs(1)
        K.batch_norm(x, v["gamma"], v["beta"], v["rmean"], v["rvar"],
                     training=True)
        assert v["rmean"].data[0] == pytest.approx(0.4)  # momentum 0.1
        assert v["rvar"].data[0] == pytest.approx(0.9)


class TestActivations:
    def test_relu6_clamps(self):
        out = relu6(t([[[[-1.0, 3.0, 9.0, 0.0]]]]))
        np.testing.assert_allclose(out.data.reshape(-1), [0, 3, 6, 0])

    def test_relu6_in_place_matches_copy(self):
        # the in-place form clips into its input's buffer; at and around the
        # kinks 0 and 6 its output and its gradient are the copying form's
        vals = np.array([[[[-1.0, 0.0, 1e-9, 3.0, 6.0 - 1e-9, 6.0, 9.0]]]], np.float32)
        res = []
        for inplace in (False, True):
            x = Tensor(vals.copy(), requires_grad=True)
            with Tape() as tape:
                y = relu6(x, inplace=inplace)
                loss = (y * y).sum()
            assert (y.data is x.data) == inplace
            res.append((y.data, tape.gradients(loss, [x])[0]))
        for a, b in zip(*res):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(res[0][1] != 0, (vals > 0) & (vals < 6))

    def test_sigmoid_at_zero(self):
        assert sigmoid(t([[[[0.0]]]])).data.item() == pytest.approx(0.5)

    def test_softmax_uniform_on_constant(self):
        out = K.softmax_spatial(t(np.full((2, 1, 3, 4), 7.0)))
        np.testing.assert_allclose(out.data, 1.0 / 12)

    def test_softmax_sums_to_one(self):
        rng = np.random.default_rng(4)
        out = K.softmax_spatial(t(rng.normal(size=(3, 1, 5, 6)) * 10))
        sums = out.data.reshape(3, -1).sum(axis=1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-6)
        assert np.all(out.data >= 0)

    def test_softmax_rejects_multichannel(self):
        with pytest.raises(ShapeError):
            K.softmax_spatial(t(np.zeros((1, 2, 3, 3))))


class TestBilinearResize:
    def test_identity(self):
        x = t(np.random.default_rng(5).normal(size=(1, 2, 4, 5)))
        out = K.bilinear_resize(x, 4, 5)
        assert np.array_equal(out.data, x.data)

    def test_constant_preserved(self):
        out = K.bilinear_resize(t(np.full((1, 1, 3, 3), 2.5)), 7, 5)
        np.testing.assert_allclose(out.data, 2.5)

    def test_half_pixel_upsample_row(self):
        x = t(np.array([[0.0, 1.0], [0.0, 1.0]]).reshape(1, 1, 2, 2))
        out = K.bilinear_resize(x, 2, 4)
        np.testing.assert_allclose(out.data[0, 0, 0], [0, 0.25, 0.75, 1.0])

    def test_bad_size(self):
        with pytest.raises(ShapeError):
            K.bilinear_resize(t(np.zeros((1, 1, 2, 2))), 0, 3)

    @pytest.mark.parametrize("n_in,n_out", [(480, 192), (640, 256), (5, 12), (7, 3),
                                            (1, 4), (4, 1), (9, 9), (37, 16)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matrix_built_from_taps_is_bit_identical(self, n_in, n_out, dtype):
        # the dense formula _resize_matrix had before it was built from
        # _resize_taps, written out here
        src = (np.arange(n_out, dtype=np.float64) + 0.5) * (n_in / n_out) - 0.5
        i0 = np.floor(src).astype(np.int64)
        frac = src - i0
        old = np.zeros((n_out, n_in), dtype=dtype)
        rows = np.arange(n_out)
        old[rows, np.clip(i0, 0, n_in - 1)] += (1.0 - frac).astype(dtype)
        old[rows, np.clip(i0 + 1, 0, n_in - 1)] += frac.astype(dtype)
        new = K._resize_matrix(n_in, n_out, dtype)
        assert new.dtype == dtype
        assert np.array_equal(new, old)


class TestPixelShuffle:
    def test_r1_identity(self):
        x = t(np.random.default_rng(6).normal(size=(1, 4, 2, 2)))
        np.testing.assert_array_equal(K.pixel_shuffle(x, 1).data, x.data)

    def test_channel_major_order(self):
        x = t(np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 4, 1, 1))
        out = K.pixel_shuffle(x, 2)
        np.testing.assert_allclose(out.data[0, 0], [[1, 2], [3, 4]])

    @pytest.mark.parametrize("r", [1, 2, 4])
    def test_round_trip(self, r):
        # read each input channel back out of the output by the docstring's
        # rule: output pixel (c, r*y+dy, r*x+dx) is input channel c*r^2 + dy*r + dx
        rng = np.random.default_rng(r)
        x = t(rng.normal(size=(2, 3 * r * r, 3, 5)))
        out = K.pixel_shuffle(x, r).data
        back = np.empty_like(x.data)
        for c, dy, dx in itertools.product(range(3), range(r), range(r)):
            back[:, c * r * r + dy * r + dx] = out[:, c, dy::r, dx::r]
        np.testing.assert_array_equal(back, x.data)

    def test_indivisible_channels(self):
        with pytest.raises(ConfigError):
            K.pixel_shuffle(t(np.zeros((1, 6, 2, 2))), 2)


class TestConcatAdd:
    def test_concat_single_identity(self):
        x = t(np.random.default_rng(7).normal(size=(1, 3, 2, 2)))
        np.testing.assert_array_equal(K.concat_channels([x]).data, x.data)

    def test_concat_order(self):
        a = t(np.array([1.0, 2.0]).reshape(1, 2, 1, 1))
        b = t(np.array([3.0]).reshape(1, 1, 1, 1))
        out = K.concat_channels([a, b])
        np.testing.assert_allclose(out.data.reshape(-1), [1, 2, 3])

    def test_concat_spatial_mismatch(self):
        with pytest.raises(ShapeError, match="1x3x3"):
            K.concat_channels([t(np.zeros((1, 1, 2, 2))), t(np.zeros((1, 1, 3, 3)))])

    def test_add_zeros(self):
        x = t(np.random.default_rng(8).normal(size=(1, 2, 3, 3)))
        out = x + t(np.zeros((1, 2, 3, 3)))
        np.testing.assert_array_equal(out.data, x.data)


class TestMinMax:
    """distill._minmax, the deepgaze loss's teacher-map scaling."""

    def test_hand_scaling(self):
        out = _minmax(np.array([2.0, 4.0, 6.0]).reshape(1, 1, 1, 3))
        np.testing.assert_allclose(out.reshape(-1), [0, 0.5, 1.0])

    def test_constant_maps_to_zero(self):
        out = _minmax(np.full((2, 1, 3, 3), 5.0))
        np.testing.assert_allclose(out, 0.0)

    def test_unit_range_fixed_point(self):
        x = np.array([0.0, 0.3, 1.0]).reshape(1, 1, 1, 3)
        np.testing.assert_allclose(_minmax(x), x)

    def test_per_item(self):
        x = np.array([[0.0, 2.0], [10.0, 30.0]]).reshape(2, 1, 1, 2)
        out = _minmax(x)
        np.testing.assert_allclose(out.reshape(2, 2), [[0, 1], [0, 1]])


class TestAvgPool:
    def test_mean_window(self):
        x = t(np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4))
        out = K.avg_pool2d(x, 2)
        np.testing.assert_allclose(out.data[0, 0], [[2.5, 4.5], [10.5, 12.5]])


def test_forward_ops_finite_on_finite_input():
    rng = np.random.default_rng(9)
    x = Tensor(rng.normal(size=(2, 4, 8, 8)) * 100)
    w = Tensor(rng.normal(size=(4, 4, 3, 3)))
    outs = [
        K.conv2d(x, w, padding=(1, 1)),
        relu6(x),
        sigmoid(x),
        K.bilinear_resize(x, 5, 11),
        K.pixel_shuffle(x, 2),
        K.avg_pool2d(x, 2),
    ]
    for out in outs:
        assert np.all(np.isfinite(out.data))
