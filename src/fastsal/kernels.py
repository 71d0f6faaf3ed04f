"""CNN kernels over 4-D (N,C,H,W) tensors: convolution, normalization,
resampling, and channel rearrangement, each with a taped backward pass.

Convolution uses the cross-correlation convention (no kernel flip) with zero
padding and takes one of two paths. Depthwise convolutions (groups ==
in_channels == out_channels) run one of two algorithms, chosen from the
shape inside _depthwise. On tiny maps, where h*w*ho*wo <= 576
(_operator_path: the late blocks' 2x2, 3x4 and stride-2 6x8 maps at the
4x3x48x64 training size, none at 1x3x192x256), they are per-channel GEMMs
with a cached 0/1 spatial operator that folds in the padding and stride
(_depthwise_operator). There, with four items, they are 1.4-6x faster,
forward and backward, than the tap loop, whose ~25 numpy calls per layer cost more than the bytes
they touch (crossovers in _operator_path). Elsewhere, forward and backward
accumulate the k_h*k_w taps as multiply-adds of contiguous flat slices of
the padded input's stride-phase planes, at a fixed offset per tap (see
_depthwise), and keep those planes, about the size of the input, for
backward. Those buffers are pixel-major (the n*c item-channel rows
innermost) when the rows outnumber the wide span ho*w2 of one row, and
row-major otherwise (_pixel_major, with its measured crossovers); the
output is the same in both. The two algorithms compute the same sums in
different orders. The operator GEMMs run over all h*w input pixels of each
output pixel, not its k_h*k_w taps, and first build their operator; traces
count the paper's FLOPs, so a depthwise GFLOP/s figure is paper FLOPs over
time, whichever algorithm ran.

Every other convolution goes through im2col and one GEMM per group, each
written straight into its slice of the output (GEMM-lowered convolution, as
in cuDNN, Chetlur et al. 2014). For a 1x1 stride-1 kernel the im2col matrix
is the (padded) input itself, taken as a view, and col2im is a reshape. A
one-channel conv (groups = in = out = 1) meets both rules: it takes the
depthwise path, except when it is an unpadded 1x1 stride-1 conv, which
takes the GEMM path as every groups=1 1x1 conv does. Weight gradients are
GEMMs: one over the (N*pixels) axis when that is shorter than C_out*K, else
one per item, summed over the batch (_weight_grad). The GEMM path and the
depthwise operator add the bias in place on their fresh output, the
depthwise tap loop in the copy that crops its wide output. Batch norm keeps
the centred input for backward; its per-channel sums, and those of the conv
bias gradient, are einsum reductions (_channel_sum).

Backward-only state (such as the relu6 mask) is worked out inside the backward
function from the retained inputs, so untaped inference neither computes nor
keeps it. This relies on no op's input being changed in place between its
forward and its backward; the optimizer updates weights after backward. The
one exception is a relu6 that network.clip_in_place marks: it clips the
fresh output of a conv2d, batch_norm or tensor.add in place. None of their
backwards reads its own output, and the relu6 mask reads the same from
clipped values.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ConfigError, NumericDomainError, ShapeError
from .tensor import Tensor, apply_op

__all__ = [
    "conv2d", "batch_norm", "softmax_spatial", "bilinear_resize",
    "pixel_shuffle", "concat_channels", "avg_pool2d",
]


def _pair(v):
    return (v, v) if isinstance(v, int) else tuple(v)


def _require_4d(t, name):
    if t.data.ndim != 4:
        raise ShapeError(f"{name} must be 4-D (N,C,H,W), got {t.data.ndim}-D")


def _im2col(xp, kh, kw, sh, sw, ho, wo):
    n, c = xp.shape[:2]
    if kh == kw == sh == sw == 1:
        return xp.reshape(n, c, 1, 1, ho, wo)
    cols = np.empty((n, c, kh, kw, ho, wo), dtype=xp.dtype)
    for u in range(kh):
        for v in range(kw):
            cols[:, :, u, v] = xp[:, :, u:u + ho * sh:sh, v:v + wo * sw:sw]
    return cols


def _col2im(gcols, n, c, hp, wp, kh, kw, sh, sw, ho, wo, dtype):
    if kh == kw == sh == sw == 1:
        return gcols.reshape(n, c, hp, wp)
    dxp = np.zeros((n, c, hp, wp), dtype=dtype)
    for u in range(kh):
        for v in range(kw):
            dxp[:, :, u:u + ho * sh:sh, v:v + wo * sw:sw] += gcols[:, :, u, v]
    return dxp


# bytes of accumulator per block of rows in the depthwise tap loop: a block
# and its product buffer then stay in cache across the k*k taps. Of 16 KiB to
# 1 MiB, 256 KiB was fastest on the variant A and C layers; unblocked is ~15%
# slower on A at 192x256
_BLOCK_BYTES = 1 << 18


def _pixel_major(rows, span):
    """The depthwise layout rule: keep the n*c (item, channel) rows innermost
    in memory when they outnumber the wide span ho*w2 that each row's
    multiply-adds run over. Timed on the C and A layers at 4x3x48x64 and
    1x3x192x256 with one BLAS thread: from rows/span 10 up pixel-major was
    up to 2.7x faster, below 0.3 it was up to 3x slower (but for one layer
    at 0.16, within 15%), and from 0.9 to 2.7 the two were within about 15%
    of each other."""
    return rows > span


def _operator_path(p, q):
    """The depthwise algorithm rule: a map of p = h*w input and q = ho*wo
    output pixels takes the spatial-operator GEMMs (_depthwise_operator)
    when p*q <= 576, the tap loop otherwise. Timed per call, float32, 3x3,
    one BLAS thread, forward / backward: on the late blocks at the 4x3x48x64
    training size the operator took 85/182 us against 501/892 at 960x2x2,
    46/88 against 251/449 at 576x3x4 stride 2 and 88/181 against 150/254
    at 192x6x8 stride 2. Its cost grows with c*p*q, the tap loop's with
    n*c*q, so the crossover falls with n. With one item the forward took
    57 against 118-162 us at 576x3x4, tied at p*q = 576 (384x4x6), was 1.2x
    slower at 900 (384x5x6), 2.5x at 1296 (576x6x6) and 4-5x at 2304 (576
    and 960 channels on 6x8, the smallest map at 1x3x192x256, which so
    stays on the tap loop), while with four items on 96 channels it was
    still 1.4-1.6x faster at 2304. With one item the backward loses from
    p*q = 144 (266 against 211 us at 576x3x4) to 576 (2.2-3.3x), as dM =
    x^T @ g is then c*p*q outer products; no benchmark workload trains
    with one item."""
    return p * q <= 576


@functools.lru_cache(maxsize=64)
def _spatial_operator(h, w, kh, kw, sh, sw, ph, pw, dtype):
    """The 0/1 spatial operator of a depthwise conv, in both pixel orders:
    S (kh*kw, h*w*ho*wo), whose [t, i*ho*wo + j] is 1 when tap t of output
    pixel j reads input pixel i, with the zero padding and the stride folded
    in (a tap on the padding reads no pixel), and its (kh*kw, ho*wo*h*w)
    transpose S' per tap. Both are read-only, as the cache shares them."""
    ho = (h + 2 * ph - kh) // sh + 1
    wo = (w + 2 * pw - kw) // sw + 1
    u, v, a, b = np.meshgrid(np.arange(kh), np.arange(kw), np.arange(ho), np.arange(wo),
                             indexing="ij")
    y, x = a * sh + u - ph, b * sw + v - pw
    ok = (y >= 0) & (y < h) & (x >= 0) & (x < w)
    s = np.zeros((kh * kw, h * w, ho * wo), dtype=dtype)
    s[(u * kw + v)[ok], (y * w + x)[ok], (a * wo + b)[ok]] = 1
    st = np.ascontiguousarray(s.transpose(0, 2, 1))
    for op in (s, st):
        op.flags.writeable = False
    return s.reshape(kh * kw, -1), st.reshape(kh * kw, -1)


def _depthwise_operator(xd, wd, sh, sw, ph, pw, ho, wo):
    """Depthwise convolution on a tiny map as per-channel GEMMs with its
    spatial operator M (c, p, q) = w (c, kh*kw) @ S: out[:, ch] = x[:, ch] @
    M[ch] over the (n, p) item pixels of each channel, one batched matmul
    written into a fresh contiguous output. Backward keeps the weights, a
    view of the input and the cached S and S', not M: it rebuilds M^T =
    w @ S' on each call for dx = g @ M^T, and dw = dM (c, p*q) @ S^T with
    dM = x^T @ g."""
    n, c, h, w = xd.shape
    kh, kw = wd.shape[2:]
    p, q = h * w, ho * wo
    s, st = _spatial_operator(h, w, kh, kw, sh, sw, ph, pw, wd.dtype)
    wr = wd.reshape(c, kh * kw)
    m = (wr @ s).reshape(c, p, q)
    xc = xd.reshape(n, c, p).transpose(1, 0, 2)
    out = np.empty((n, c, q), dtype=np.result_type(xd, wd))
    np.matmul(xc, m, out=out.transpose(1, 0, 2))

    def grads(g):
        gc = g.reshape(n, c, q).transpose(1, 0, 2)
        dx = np.empty((n, c, p), dtype=xd.dtype)
        # M^T is built from S' as M was from S: matmul runs 2-4x slower on a
        # transposed view of M, and a copy of it costs more than the GEMM
        np.matmul(gc, (wr @ st).reshape(c, q, p), out=dx.transpose(1, 0, 2))
        dm = np.matmul(xc.transpose(0, 2, 1), gc)
        dw = np.matmul(dm.reshape(c, p * q), s.T)
        return dx.reshape(n, c, h, w), dw.astype(wd.dtype, copy=False).reshape(c, 1, kh, kw)

    return out.reshape(n, c, ho, wo), grads


def _phase(size, pad, stride, a):
    """Stride phase a of a zero-padded axis holds padded index i*stride + a
    at index i. Returns (i0:i0+k, y0::stride): the span of phase indices that
    hold the unpadded axis's indices y0, y0 + stride, ... (k of them)."""
    i0 = max(0, -(-(pad - a) // stride))
    y0 = i0 * stride + a - pad
    return slice(i0, i0 + len(range(y0, size, stride))), slice(y0, size, stride)


def _depthwise(xd, wd, sh, sw, ph, pw, ho, wo):
    """Depthwise convolution: on tiny maps, where _operator_path says so
    from h*w and ho*wo, as per-channel GEMMs (_depthwise_operator);
    otherwise as k_h*k_w multiply-adds of flat slices, as follows.

    The zero-padded input is split into its s_h*s_w phase planes of w2
    columns each (one plane when the stride is 1), with one spare row; the
    input pixels of each phase are copied straight into its zeroed plane,
    and backward copies dx straight out of the planes' gradient, one strided
    copy per phase (_phase). Output pixel (i, j) of tap (u, v) reads plane
    (u % s_h, v % s_w) at row i + u // s_h, column j + v // s_w, so over a
    "wide" output of ho rows by w2 columns every tap is one contiguous slice
    of its plane. The columns past wo read into the next row (the spare row
    keeps the last one in bounds) and are cropped once at the end.

    Every buffer is indexed (n*c rows, ...). It is row-major or, when
    _pixel_major says so from the shape (as on small maps), pixel-major:
    rows innermost in memory, so that each multiply-add runs over long
    contiguous rows, not over many short ones. The tap loop and its order,
    and so the output, are the same in both layouts. Row-major rows run in
    blocks of about _BLOCK_BYTES. Returns the output, as a cropped view of
    the wide buffer, and the backward function, which keeps the phase
    planes and works on the same slices."""
    n, c, h, w = xd.shape
    if _operator_path(h * w, ho * wo):
        return _depthwise_operator(xd, wd, sh, sw, ph, pw, ho, wo)
    kh, kw = wd.shape[2:]
    rows = n * c
    h2 = -(-(h + 2 * ph) // sh) + 1     # rows per phase plane, plus the spare
    w2 = -(-(w + 2 * pw) // sw)
    span = ho * w2
    pixel_major = _pixel_major(rows, span)
    dtype = np.result_type(xd, wd)

    def buffer(shape, dt, zero=False):
        # a (rows, ...) array; pixel-major keeps the rows axis innermost
        alloc = np.zeros if zero else np.empty
        if not pixel_major:
            return alloc(shape, dtype=dt)
        return np.moveaxis(alloc(shape[1:] + shape[:1], dtype=dt), -1, 0)

    phases = [(a, b) + _phase(h, ph, sh, a) + _phase(w, pw, sw, b)
              for a in range(sh) for b in range(sw)]
    planes = buffer((rows, sh, sw, h2 * w2), xd.dtype, zero=True)
    x3, p5 = xd.reshape(rows, h, w), planes.reshape(rows, sh, sw, h2, w2)
    for a, b, pi, yi, pj, xj in phases:
        p5[:, a, b, pi, pj] = x3[:, yi, xj]
    wr = buffer((rows, kh, kw), wd.dtype)
    wr.reshape(n, c, kh, kw)[...] = wd[:, 0]
    taps = [(u, v, u % sh, v % sw, (u // sh) * w2 + v // sw)
            for u in range(kh) for v in range(kw)]
    # pixel-major rows are the inner loop, so they run in one block
    step = rows if pixel_major else max(1, _BLOCK_BYTES // (span * dtype.itemsize))
    blocks = [slice(r, r + step) for r in range(0, rows, step)]

    wide = buffer((rows, span), dtype)
    prod = buffer((min(step, rows), span), dtype)
    for r in blocks:
        acc = wide[r]
        tmp = prod[:len(acc)]
        for t, (u, v, a, b, off) in enumerate(taps):
            np.multiply(planes[r, a, b, off:off + span], wr[r, u, v, None],
                        out=tmp if t else acc)
            if t:
                acc += tmp
    out = wide.reshape(n, c, ho, w2)[:, :, :, :wo]

    def grads(g):
        gw = buffer((rows, ho, w2), g.dtype, zero=True)
        gw[:, :, :wo] = g.reshape(rows, ho, wo)
        gw = gw.reshape(rows, span)
        dwr = buffer((rows, kh, kw), dtype)
        dplanes = buffer(planes.shape, planes.dtype, zero=True)
        tmp = buffer((min(step, rows), span), np.result_type(g, wd, planes))
        for r in blocks:
            gb = gw[r]
            tb = tmp[:len(gb)]
            for u, v, a, b, off in taps:
                if pixel_major:
                    np.multiply(planes[r, a, b, off:off + span], gb, out=tb)
                    np.sum(tb, axis=1, out=dwr[r, u, v])
                else:
                    dwr[r, u, v] = np.einsum("rl,rl->r", planes[r, a, b, off:off + span], gb)
                np.multiply(gb, wr[r, u, v, None], out=tb)
                dplanes[r, a, b, off:off + span] += tb
        # the phases cover each input pixel once, and the padding not at all
        dx = np.empty((n, c, h, w), dtype=planes.dtype)
        d3, d5 = dx.reshape(rows, h, w), dplanes.reshape(rows, sh, sw, h2, w2)
        for a, b, pi, yi, pj, xj in phases:
            d3[:, yi, xj] = d5[:, a, b, pi, pj]
        return dx, dwr.reshape(n, c, 1, kh, kw).sum(axis=0, dtype=wd.dtype)

    return out, grads


def _weight_grad(gm, cm, out):
    """Write the sum over n of gm[n] @ cm[n].T into out (C_out, K), for gm
    (N, C_out, P) and cm (N, K, P). When N*P < C_out*K, as on small
    late-block maps, it is one GEMM over the (N*P) axis; otherwise one GEMM
    per item, whose (N, C_out, K) products are then summed."""
    n, cout, p = gm.shape
    if n * p < cout * cm.shape[1]:
        np.matmul(gm.transpose(1, 0, 2).reshape(cout, n * p),
                  cm.transpose(0, 2, 1).reshape(n * p, -1), out=out)
    else:
        np.matmul(gm, cm.transpose(0, 2, 1)).sum(0, out=out)


def conv2d(x, weight, bias=None, stride=(1, 1), padding=(0, 0), groups=1):
    """2-D cross-correlation. weight is (C_out, C_in/groups, K_h, K_w); bias,
    when present, is a length-C_out vector."""
    _require_4d(x, "conv2d input")
    if weight.data.ndim != 4:
        raise ShapeError(f"conv2d weight must be 4-D, got {weight.data.ndim}-D")
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    n, cin, h, w = x.shape
    cout, cin_g, kh, kw = weight.shape
    if groups < 1:
        raise ConfigError(f"groups must be positive, got {groups}")
    if cin % groups or cout % groups:
        raise ConfigError(
            f"groups={groups} must divide in_channels={cin} and out_channels={cout}")
    if cin_g != cin // groups:
        raise ShapeError(
            f"weight channel axis is {cin_g}, expected in_channels/groups = {cin // groups}")
    if bias is not None and bias.shape != (cout,):
        raise ShapeError(f"bias must have shape ({cout},), got {bias.shape}")
    ho = (h + 2 * ph - kh) // sh + 1
    wo = (w + 2 * pw - kw) // sw + 1
    if ho < 1 or wo < 1:
        raise ShapeError(
            f"kernel {kh}x{kw} does not fit padded input {h + 2 * ph}x{w + 2 * pw}")

    xd, wd = x.data, weight.data

    if groups == cin == cout and (cin > 1 or (kh, kw, sh, sw, ph, pw) != (1, 1, 1, 1, 0, 0)):
        out, grads = _depthwise(xd, wd, sh, sw, ph, pw, ho, wo)

    else:
        xp = np.pad(xd, ((0, 0), (0, 0), (ph, ph), (pw, pw))) if (ph or pw) else xd
        hp, wp = xp.shape[2:]
        cols = _im2col(xp, kh, kw, sh, sw, ho, wo)
        # one GEMM per group i, on the group's weights wg[i] (C_out/groups,
        # K) and columns cm[:, i] (N, K, ho*wo), each written straight into
        # the group's slice of out, dw and gcols, so no group needs a
        # temporary
        p = ho * wo
        wg = wd.reshape(groups, cout // groups, -1)
        cm = cols.reshape(n, groups, -1, p)
        out = np.empty((n, groups, cout // groups, p), dtype=np.result_type(xd, wd))
        for i in range(groups):
            np.matmul(wg[i], cm[:, i], out=out[:, i])
        out = out.reshape(n, cout, ho, wo)

        def grads(g):
            gm = g.reshape(n, groups, -1, p)
            dw = np.empty(wg.shape, dtype=wd.dtype)
            gcols = np.empty(cm.shape, dtype=cm.dtype)
            for i in range(groups):
                _weight_grad(gm[:, i], cm[:, i], dw[i])
                np.matmul(wg[i].T, gm[:, i], out=gcols[:, i])
            dxp = _col2im(gcols.reshape(cols.shape), n, cin, hp, wp, kh, kw, sh, sw, ho, wo,
                          xd.dtype)
            dx = dxp[:, :, ph:ph + h, pw:pw + w] if (ph or pw) else dxp
            return dx, dw.reshape(wd.shape)

    def bwd(g):
        dx, dw = grads(g)
        return (dx, dw, _channel_sum(g)) if bias is not None else (dx, dw)

    # the GEMM and depthwise-operator outputs are fresh contiguous buffers,
    # so the bias goes on in place; the tap loop's output is a cropped view
    # of one, and the copy that makes it contiguous adds the bias
    if bias is None:
        return apply_op("conv2d", (x, weight), np.ascontiguousarray(out), bwd)
    b = bias.data.reshape(1, cout, 1, 1)
    if out.flags.c_contiguous:
        out += b
    else:
        out = np.add(out, b, order="C")
    return apply_op("conv2d", (x, weight, bias), out, bwd)


def _channel_sum(a, b=None):
    """Per-channel sum over (N, H, W) of a, or of a*b, as one einsum
    reduction with no full-size temporary (3-4x faster than
    sum(axis=(0, 2, 3)) on the backbone's shapes)."""
    n, c = a.shape[:2]
    if b is None:
        return np.einsum("ncp->c", a.reshape(n, c, -1))
    return np.einsum("ncp,ncp->c", a.reshape(n, c, -1), b.reshape(n, c, -1))


def batch_norm(x, gamma, beta, running_mean, running_var, eps=1e-5,
               momentum=0.1, training=False):
    """Per-channel normalize, scale, shift. Training mode normalizes with batch
    statistics and updates the running buffers in place (momentum-weighted);
    eval mode uses the running buffers."""
    _require_4d(x, "batch_norm input")
    c = x.shape[1]
    for name, v in (("gamma", gamma), ("beta", beta),
                    ("running_mean", running_mean), ("running_var", running_var)):
        if v.shape != (c,):
            raise ShapeError(f"batch_norm {name} must have shape ({c},), got {v.shape}")
    if eps <= 0:
        raise NumericDomainError(f"batch_norm eps must be > 0, got {eps}")
    xd = x.data
    shape = (1, c, 1, 1)
    m = xd.shape[0] * xd.shape[2] * xd.shape[3]
    if training:
        # backward keeps the centred x, xc; xhat = xc * inv is never stored
        mean = _channel_sum(xd) / m
        xc = xd - mean.reshape(shape)
        var = _channel_sum(xc, xc) / m
        running_mean.data[:] = (1 - momentum) * running_mean.data + momentum * mean
        running_var.data[:] = (1 - momentum) * running_var.data + momentum * var
    else:
        mean = running_mean.data
        var = running_var.data
        xc = xd - mean.reshape(shape)
    if np.any(var + eps <= 0):
        raise NumericDomainError("batch_norm: var + eps <= 0")
    inv = 1.0 / np.sqrt(var + eps)
    if training:
        out = np.multiply(xc, (gamma.data * inv).reshape(shape))
    else:
        xc *= inv.reshape(shape)        # from here on xc holds xhat
        out = np.multiply(xc, gamma.data.reshape(shape))
    out += beta.data.reshape(shape)

    def bwd(g):
        if not training:
            dgamma = _channel_sum(g, xc)
            dbeta = _channel_sum(g)
            return (g * gamma.data.reshape(shape) * inv.reshape(shape), dgamma, dbeta,
                    None, None)
        # the batch statistics participate in the graph:
        # dx = gamma * inv * (g - dbeta/m - xhat * dgamma/m)
        dbeta = _channel_sum(g)
        dgamma = _channel_sum(g, xc) * inv
        dx = np.multiply(xc, (inv * dgamma / m).reshape(shape))
        np.subtract(g, dx, out=dx)
        dx -= (dbeta / m).reshape(shape)
        dx *= (gamma.data * inv).reshape(shape)
        return dx, dgamma, dbeta, None, None

    return apply_op("batch_norm", (x, gamma, beta, running_mean, running_var),
                    out, bwd)


def softmax_spatial(x):
    """Spatial probability distribution over H*W per batch item; requires C=1."""
    _require_4d(x, "softmax_spatial input")
    n, c, h, w = x.shape
    if c != 1:
        raise ShapeError(f"softmax_spatial requires C=1, got C={c}")
    flat = x.data.reshape(n, h * w)
    shifted = flat - flat.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=1, keepdims=True)
    out = p.reshape(n, c, h, w)

    def bwd(g):
        gf = g.reshape(n, h * w)
        dot = (gf * p).sum(axis=1, keepdims=True)
        return ((p * (gf - dot)).reshape(x.shape),)

    return apply_op("softmax_spatial", (x,), out, bwd)


def _resize_taps(n_in, n_out, dtype):
    """Bilinear taps for half-pixel centers (align-corners=false): output
    index j reads source indices i0[j] and i1[j] (clamped to the edge) with
    weights w0[j] and w1[j]. Returns (i0, i1, w0, w1)."""
    src = (np.arange(n_out, dtype=np.float64) + 0.5) * (n_in / n_out) - 0.5
    i0 = np.floor(src).astype(np.int64)
    frac = src - i0
    return (np.clip(i0, 0, n_in - 1), np.clip(i0 + 1, 0, n_in - 1),
            (1.0 - frac).astype(dtype), frac.astype(dtype))


def _resize_matrix(n_in, n_out, dtype):
    # dense (n_out, n_in) interpolation operator built from the taps
    i0, i1, w0, w1 = _resize_taps(n_in, n_out, dtype)
    m = np.zeros((n_out, n_in), dtype=dtype)
    rows = np.arange(n_out)
    m[rows, i0] += w0
    m[rows, i1] += w1
    return m


def bilinear_resize(x, out_h, out_w):
    """Bilinear resampling with half-pixel centers, applied as separable
    per-axis interpolation matrices. Identity when the target size equals the
    source size."""
    _require_4d(x, "bilinear_resize input")
    if out_h < 1 or out_w < 1:
        raise ShapeError(f"target size must be >= 1, got {out_h}x{out_w}")
    n, c, h, w = x.shape
    if (out_h, out_w) == (h, w):
        def bwd_id(g):
            return (g,)
        return apply_op("bilinear_resize", (x,), x.data.copy(), bwd_id)

    my = _resize_matrix(h, out_h, x.dtype)
    mx = _resize_matrix(w, out_w, x.dtype)
    xr = x.data.reshape(n * c, h, w)
    out = np.matmul(np.matmul(my, xr), mx.T).reshape(n, c, out_h, out_w)

    def bwd(g):
        gr = g.reshape(n * c, out_h, out_w)
        dx = np.matmul(np.matmul(my.T, gr), mx)
        return (dx.reshape(n, c, h, w),)

    return apply_op("bilinear_resize", (x,), out, bwd)


def pixel_shuffle(x, r):
    """Rearrange (N, C, H, W) to (N, C/r^2, rH, rW). Output pixel
    (c, r*y+dy, r*x+dx) reads input channel c*r^2 + dy*r + dx."""
    _require_4d(x, "pixel_shuffle input")
    n, c, h, w = x.shape
    if r < 1:
        raise ConfigError(f"upscale factor must be >= 1, got {r}")
    if c % (r * r):
        raise ConfigError(f"channels {c} not divisible by r^2 = {r * r}")
    co = c // (r * r)
    out = (x.data.reshape(n, co, r, r, h, w)
           .transpose(0, 1, 4, 2, 5, 3)
           .reshape(n, co, h * r, w * r))

    def bwd(g):
        dg = (g.reshape(n, co, h, r, w, r)
              .transpose(0, 1, 3, 5, 2, 4)
              .reshape(n, c, h, w))
        return (dg,)

    return apply_op("pixel_shuffle", (x,), np.ascontiguousarray(out), bwd)


def concat_channels(tensors):
    """Concatenate on the channel axis, preserving list order."""
    if not tensors:
        raise ShapeError("concat_channels needs at least one tensor")
    for t in tensors:
        _require_4d(t, "concat_channels input")
    n, _, h, w = tensors[0].shape
    for i, t in enumerate(tensors[1:], 1):
        tn, _, th, tw = t.shape
        if (tn, th, tw) != (n, h, w):
            raise ShapeError(
                f"concat_channels input {i} has N/H/W {tn}x{th}x{tw}, expected {n}x{h}x{w}")
    out = np.concatenate([t.data for t in tensors], axis=1)
    splits = np.cumsum([t.shape[1] for t in tensors])[:-1]

    def bwd(g):
        return tuple(np.split(g, splits, axis=1))

    return apply_op("concat_channels", tuple(tensors), out, bwd)


def avg_pool2d(x, k):
    """Non-overlapping k x k average pooling."""
    _require_4d(x, "avg_pool2d input")
    n, c, h, w = x.shape
    if h % k or w % k:
        raise ShapeError(f"spatial size {h}x{w} not divisible by pool size {k}")
    ho, wo = h // k, w // k
    views = [x.data[:, :, u::k, v::k] for u in range(k) for v in range(k)]
    out = views[0].copy()
    for view in views[1:]:
        out += view
    out /= k * k

    def bwd(g):
        dg = np.broadcast_to(g[:, :, :, None, :, None] / (k * k),
                             (n, c, ho, k, wo, k)).reshape(n, c, h, w)
        return (dg.copy(),)

    return apply_op("avg_pool2d", (x,), out, bwd)

