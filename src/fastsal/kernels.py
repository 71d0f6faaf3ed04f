"""CNN kernels over 4-D (N,C,H,W) tensors: convolution, normalization,
resampling, and channel rearrangement, each with a taped backward pass.

Convolution uses the cross-correlation convention (no kernel flip) with zero
padding and has two forms (conv_shape): dense (groups == 1), below, and
depthwise (groups == in_channels == out_channels), run by one of two
algorithms picked by shape. On tiny maps, where h*w*ho*wo <= 576
(_operator_path: the late blocks' 2x2, 3x4 and stride-2 6x8 maps at the
4x3x48x64 training size, none at 1x3x192x256), they are per-channel GEMMs
with a cached 0/1 spatial operator that folds in the padding and stride
(_depthwise_operator). There, with four items, they are 2-12x faster,
forward and backward, than the tap path, whose per-tap numpy calls and
per-row matmuls cost more than the bytes they touch (crossovers in
_operator_path). Elsewhere, both directions read the k_h*k_w taps as
contiguous flat slices of the padded input's stride-phase planes, at a
fixed offset per tap (see _depthwise). The forward copies a block of rows'
tap slices into one column block and sums them with one batched matmul per
block, in row-major memory. The backward accumulates the taps as
multiply-adds and rebuilds the planes from its input, so a taped forward
holds no copy of them; its buffers are pixel-major (the n*c item-channel
rows innermost) when the rows outnumber the wide span ho*w2 of one row,
and row-major otherwise (_pixel_major, with its measured crossovers), with
the same dx and dw in both. The two algorithms compute the same sums in
different orders. The operator GEMMs run over all h*w input pixels of each
output pixel, not its k_h*k_w taps, and first build their operator; traces
count the paper's FLOPs, so a depthwise GFLOP/s figure is paper FLOPs over
time, whichever algorithm ran.

Dense convolutions go through im2col and one GEMM per item (GEMM-lowered
convolution, as in cuDNN, Chetlur et al. 2014). For a 1x1 stride-1 kernel
the im2col matrix is the (padded) input itself, taken as a view, and col2im
is a reshape. A one-channel conv (groups = in = out = 1) is both dense and
depthwise: it takes the depthwise path, except when it is an unpadded 1x1
stride-1 conv, which takes the GEMM path as every groups=1 1x1 conv does.
Weight gradients are GEMMs: one over the (N*pixels) axis when that is
shorter than C_out*K, else one per item, summed over the batch
(_weight_grad). The GEMM path and the depthwise operator add the bias in
place on their fresh output, the depthwise tap path in the copy that crops
its wide output. Batch norm keeps the centred input for backward; its
per-channel sums, and those of the conv bias gradient, are einsum
reductions (_channel_sum).

Backward-only state (such as the relu6 mask, the depthwise tap path's
phase planes and the dense path's im2col columns) is worked out inside the
backward function from the retained inputs, so untaped inference neither
computes nor keeps it, and a taped forward keeps no more than those inputs.
A taped batch_norm output is rebuildable (tensor.rebuildable) from the
centred input that batch_norm keeps, the per-channel scale gamma*inv and
beta, and NetworkGraph.run releases it once its last reader has run. So
every op keeps one rule: a backward reads a graph input's values only
through Tensor.values() or from arrays it captured in the forward, and
takes the input's shape at forward time (tensor.add, sub, mul, div and
softmax_spatial capture it). conv2d's backward, on all three paths, and
relu6's read their input through values(), and so get a released input
rebuilt, bit for bit; each reads one input and is done with it when it
returns, as the thread's rebuild array holds one value at a time. This
relies on no op's input being changed in place between its forward and
its backward; the optimizer folds gradients into its momentum buffers
during backward, which no op reads, and updates the weights after it. The
exceptions are the relu6 and batch_norm layers that NetworkGraph.run runs
with inplace=True. Each writes into the fresh output of a conv2d,
batch_norm or tensor.add that it alone reads, and none of those producers'
backwards reads its own output. Such a relu6 clips that output in place,
and its mask reads the same from clipped values; under a tape the bn
output it clips and its own output rebuild as clipped. Such a batch_norm
centres it in place and keeps it as the centred input, which is all that
its backward reads of x.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ConfigError, NumericDomainError, ShapeError
from .tensor import Tensor, apply_op, rebuildable

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


# bytes of the depthwise forward's column block: the k_h*k_w tap slices of a
# block of rows, copied contiguous for one batched matmul. Prepared C and A
# forwards at 1x3x192x256 took 34.7 and 49.5 ms with 256 KiB, 32.3 and 47.9
# with 512 KiB and 33.2 and 47.9 with 1 MiB (one BLAS thread)
_COLUMN_BYTES = 1 << 19

# bytes of accumulator per block of rows in the depthwise backward's tap
# loop: a block and its product buffer then stay in cache across the k*k
# taps. Of 16 KiB to 1 MiB, 256 KiB was fastest on the variant A and C layers
# (timed on the forward, when it ran the same loop)
_BLOCK_BYTES = 1 << 18


def _pixel_major(rows, span):
    """The depthwise backward's layout rule: keep the n*c (item, channel)
    rows innermost in memory when they outnumber the wide span ho*w2 that
    each row's multiply-adds run over. Timed on the C and A layers at
    4x3x48x64 and 1x3x192x256 with one BLAS thread, on the tap loop that the
    forward ran then: from rows/span 10 up pixel-major was up to 2.7x
    faster, below 0.3 it was up to 3x slower (but for one layer at 0.16,
    within 15%), and from 0.9 to 2.7 the two were within about 15% of each
    other."""
    return rows > span


def _operator_path(p, q):
    """The depthwise algorithm rule: a map of p = h*w input and q = ho*wo
    output pixels takes the spatial-operator GEMMs (_depthwise_operator)
    when p*q <= 576, the tap path otherwise. Timed per call, float32, 3x3,
    one BLAS thread, forward / backward: on the late blocks at the 4x3x48x64
    training size the operator took 43/99 us against 530/400 on the tap path
    at 960x2x2, 42/81 against 350/320 at 576x3x4 stride 2 and 50/108
    against 185/245 at 192x6x8 stride 2. Its cost grows with c*p*q, the tap
    path's with n*c*q, and the tap forward's batched matmul pays per row,
    so the crossover falls with n. With one item the forward took 46
    against 114 us at 576x3x4, was 1.1-1.4x slower at p*q = 576 (384x4x6),
    1.0-1.3x at 900 (384x5x6), 2.0-2.2x at 1296 (576x6x6) and 3.8-4.4x at
    2304 (576 and 960 channels on 6x8, the smallest map at 1x3x192x256,
    which so stays on the tap path), while with four items on 96 channels
    it was still 1.3x faster at 2304. With one item the backward loses from
    p*q = 144 (220 against 190 us at 576x3x4) to 576 (2.7-3.9x), as dM =
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
    ho, wo = conv_shape((1, 1, h, w), 1, (kh, kw), 1, (sh, sw), (ph, pw))[2:]
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


def _depthwise_operator(x, wd, sh, sw, ph, pw, ho, wo):
    """Depthwise convolution on a tiny map as per-channel GEMMs with its
    spatial operator M (c, p, q) = w (c, kh*kw) @ S: out[:, ch] = x[:, ch] @
    M[ch] over the (n, p) item pixels of each channel, one batched matmul
    written into a fresh contiguous output. Backward keeps the weights and
    the cached S and S', not M: it rebuilds M^T = w @ S' on each call for
    dx = g @ M^T, and dw = dM (c, p*q) @ S^T with dM = x^T @ g, reading x
    through x.values() (see _depthwise)."""
    n, c, h, w = x.shape
    kh, kw = wd.shape[2:]
    p, q = h * w, ho * wo
    s, st = _spatial_operator(h, w, kh, kw, sh, sw, ph, pw, wd.dtype)
    wr = wd.reshape(c, kh * kw)
    m = (wr @ s).reshape(c, p, q)
    dtype = x.dtype
    out = np.empty((n, c, q), dtype=np.result_type(dtype, wd))
    np.matmul(x.data.reshape(n, c, p).transpose(1, 0, 2), m, out=out.transpose(1, 0, 2))

    def grads(g):
        gc = g.reshape(n, c, q).transpose(1, 0, 2)
        dx = np.empty((n, c, p), dtype=dtype)
        # M^T is built from S' as M was from S: matmul runs 2-4x slower on a
        # transposed view of M, and a copy of it costs more than the GEMM
        np.matmul(gc, (wr @ st).reshape(c, q, p), out=dx.transpose(1, 0, 2))
        dm = np.matmul(x.values().reshape(n, c, p).transpose(1, 2, 0), gc)
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


def _depthwise(x, wd, sh, sw, ph, pw, ho, wo):
    """Depthwise convolution of the Tensor x: on tiny maps, where
    _operator_path says so from h*w and ho*wo, as per-channel GEMMs
    (_depthwise_operator); otherwise over the k_h*k_w tap slices of the
    padded input, as follows. The forward reads x.data; either backward
    reads the input again through x.values(), so a released input is rebuilt.

    The zero-padded input is split into its s_h*s_w phase planes of w2
    columns each (one plane when the stride is 1), with one spare row; the
    input pixels of each phase are copied straight into its zeroed plane,
    and backward copies dx straight out of the planes' gradient, one strided
    copy per phase (_phase). Output pixel (i, j) of tap (u, v) reads plane
    (u % s_h, v % s_w) at row i + u // s_h, column j + v // s_w, so over a
    "wide" output of ho rows by w2 columns every tap is one contiguous slice
    of its plane. The columns past wo read into the next row (the spare row
    keeps the last one in bounds) and are cropped once at the end.

    Every buffer is indexed (n*c rows, ...). The forward's are row-major:
    it copies the tap slices of a block of rows into a (rows, k_h*k_w, span)
    column block of about _COLUMN_BYTES and sums the taps with one batched
    matmul of the rows' (1, k_h*k_w) weights over it. Each row is its own
    product, so the output does not depend on the block size. The backward
    accumulates the taps as multiply-adds of the slices. Its buffers are
    row-major or, when _pixel_major says so from the shape (as on small
    maps), pixel-major: rows innermost in memory, so that each multiply-add
    runs over long contiguous rows, not over many short ones. The tap loop
    and its order, and so dx and dw, are the same in both layouts.
    Row-major rows run in blocks of about _BLOCK_BYTES. Returns the output,
    as a cropped view of the wide buffer, and the backward function, which
    keeps no phase planes: it rebuilds them from x.values() (one zeroed copy
    of about the input's size, per backward call) and works on the same
    slices. So between the forward and the backward a tap-path layer holds
    no buffer but its output, as the input is held by the tape in any case
    and is not written in place before backward (see the module
    docstring)."""
    n, c, h, w = x.shape
    if _operator_path(h * w, ho * wo):
        return _depthwise_operator(x, wd, sh, sw, ph, pw, ho, wo)
    kh, kw = wd.shape[2:]
    rows, k = n * c, kh * kw
    h2 = -(-(h + 2 * ph) // sh) + 1     # rows per phase plane, plus the spare
    w2 = -(-(w + 2 * pw) // sw)
    span = ho * w2
    dtype = np.result_type(x.dtype, wd)
    phases = [(a, b) + _phase(h, ph, sh, a) + _phase(w, pw, sw, b)
              for a in range(sh) for b in range(sw)]
    # tap t = u*kw + v reads plane (a, b) from flat offset off
    taps = [(u % sh, v % sw, (u // sh) * w2 + v // sw) for u in range(kh) for v in range(kw)]

    def phase_planes(values, zeros=np.zeros):
        planes = zeros((rows, sh, sw, h2 * w2), values.dtype)
        x3, p5 = values.reshape(rows, h, w), planes.reshape(rows, sh, sw, h2, w2)
        for a, b, pi, yi, pj, xj in phases:
            p5[:, a, b, pi, pj] = x3[:, yi, xj]
        return planes

    planes = phase_planes(x.data)
    wm = np.broadcast_to(wd.reshape(1, c, 1, k), (n, c, 1, k)).reshape(rows, 1, k)
    step = max(1, _COLUMN_BYTES // (k * span * dtype.itemsize))
    cols = np.empty((min(step, rows), k, span), dtype=dtype)
    wide = np.empty((rows, 1, span), dtype=dtype)
    for r in range(0, rows, step):
        cb = cols[:min(step, rows - r)]
        for t, (a, b, off) in enumerate(taps):
            cb[:, t] = planes[r:r + step, a, b, off:off + span]
        np.matmul(wm[r:r + step], cb, out=wide[r:r + step])
    out = wide.reshape(n, c, ho, w2)[:, :, :, :wo]

    def grads(g):
        pixel_major = _pixel_major(rows, span)

        def buffer(shape, dt, alloc=np.empty):
            # a (rows, ...) array; pixel-major keeps the rows axis innermost
            if not pixel_major:
                return alloc(shape, dtype=dt)
            return np.moveaxis(alloc(shape[1:] + shape[:1], dtype=dt), -1, 0)

        def zeros(shape, dt):
            return buffer(shape, dt, np.zeros)

        wr = buffer((rows, k), wd.dtype)
        wr.reshape(n, c, k)[...] = wd.reshape(c, k)
        # pixel-major rows are the inner loop, so they run in one block
        step = rows if pixel_major else max(1, _BLOCK_BYTES // (span * dtype.itemsize))
        blocks = [slice(r, r + step) for r in range(0, rows, step)]
        planes = phase_planes(x.values(), zeros)
        gw = zeros((rows, ho, w2), g.dtype)
        gw[:, :, :wo] = g.reshape(rows, ho, wo)
        gw = gw.reshape(rows, span)
        dwr = buffer((rows, k), dtype)
        tmp = buffer((min(step, rows), span), np.result_type(g, wd, planes))
        for r in blocks:
            gb = gw[r]
            tb = tmp[:len(gb)]
            for t, (a, b, off) in enumerate(taps):
                if pixel_major:
                    np.multiply(planes[r, a, b, off:off + span], gb, out=tb)
                    np.sum(tb, axis=1, out=dwr[r, t])
                else:
                    dwr[r, t] = np.einsum("rl,rl->r", planes[r, a, b, off:off + span], gb)
        # dw is done with the planes, so their buffer, zeroed, takes their
        # gradient: the two never live at once
        dplanes = planes
        dplanes.fill(0)
        for r in blocks:
            gb = gw[r]
            tb = tmp[:len(gb)]
            for t, (a, b, off) in enumerate(taps):
                np.multiply(gb, wr[r, t, None], out=tb)
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


def conv_shape(shape, cout, kernel, groups, stride, padding):
    """Output shape of a conv on shape, by the form, stride, padding and fit
    rule that conv2d and the conv layer share."""
    n, cin, h, w = shape
    if not (groups == 1 or groups == cin == cout > 1):
        raise ConfigError(f"groups={groups}, {cin}->{cout} channels: neither dense nor depthwise")
    (kh, kw), (sh, sw), (ph, pw) = kernel, _pair(stride), _pair(padding)
    if min(sh, sw) < 1 or min(ph, pw) < 0:
        raise ConfigError(f"conv stride {sh}x{sw} must be >= 1 and padding {ph}x{pw} >= 0")
    ho, wo = (h + 2 * ph - kh) // sh + 1, (w + 2 * pw - kw) // sw + 1
    if ho < 1 or wo < 1:
        raise ShapeError(
            f"kernel {kh}x{kw} does not fit padded input {h + 2 * ph}x{w + 2 * pw}")
    return (n, cout, ho, wo)


def conv2d(x, weight, bias=None, stride=(1, 1), padding=(0, 0), groups=1):
    """2-D cross-correlation, dense (groups=1) or depthwise (groups = C_in = C_out).
    weight is (C_out, C_in/groups, K_h, K_w); bias, when present, has length C_out."""
    _require_4d(x, "conv2d input")
    if weight.data.ndim != 4:
        raise ShapeError(f"conv2d weight must be 4-D, got {weight.data.ndim}-D")
    n, cin, h, w = x.shape
    cout, cin_g, kh, kw = weight.shape
    ho, wo = conv_shape(x.shape, cout, (kh, kw), groups, stride, padding)[2:]
    (sh, sw), (ph, pw) = _pair(stride), _pair(padding)
    if cin_g != cin // groups:
        raise ShapeError(
            f"weight channel axis is {cin_g}, expected in_channels/groups = {cin // groups}")
    if bias is not None and bias.shape != (cout,):
        raise ShapeError(f"bias must have shape ({cout},), got {bias.shape}")

    wd = weight.data

    if groups == cin == cout and (cin > 1 or (kh, kw, sh, sw, ph, pw) != (1, 1, 1, 1, 0, 0)):
        out, grads = _depthwise(x, wd, sh, sw, ph, pw, ho, wo)

    else:
        def columns():
            # the (n, cin*kh*kw, ho*wo) im2col matrix of x, a view of x for
            # a 1x1 stride-1 kernel; backward makes it again
            xd = x.values()
            xp = np.pad(xd, ((0, 0), (0, 0), (ph, ph), (pw, pw))) if (ph or pw) else xd
            return _im2col(xp, kh, kw, sh, sw, ho, wo).reshape(n, -1, ho * wo)

        wm = wd.reshape(cout, -1)
        out = np.matmul(wm, columns()).reshape(n, cout, ho, wo)

        def grads(g):
            cm = columns()
            gm = g.reshape(n, cout, -1)
            dw = np.empty(wm.shape, dtype=wd.dtype)
            gcols = np.empty(cm.shape, dtype=cm.dtype)      # x's dtype, not matmul's
            _weight_grad(gm, cm, dw)
            np.matmul(wm.T, gm, out=gcols)
            dxp = _col2im(gcols.reshape(n, cin, kh, kw, ho, wo), n, cin, h + 2 * ph, w + 2 * pw,
                          kh, kw, sh, sw, ho, wo, cm.dtype)
            dx = dxp[:, :, ph:ph + h, pw:pw + w] if (ph or pw) else dxp
            return dx, dw.reshape(wd.shape)

    def bwd(g):
        dx, dw = grads(g)
        return (dx, dw, _channel_sum(g)) if bias is not None else (dx, dw)

    # the GEMM and depthwise-operator outputs are fresh contiguous buffers,
    # so the bias goes on in place; the tap path's output is a cropped view
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
               momentum=0.1, training=False, inplace=False):
    """Per-channel normalize, scale, shift. Training mode normalizes with batch
    statistics and updates the running buffers in place (momentum-weighted);
    eval mode uses the running buffers. With inplace=True the centred input
    is written into x's own buffer, so x reads as centred from then on; the
    caller must be the only reader of x. (Statistics of another dtype than
    x's leave x as it is, as writing into x would round the centred input.)
    A taped output is rebuildable (tensor.rebuildable): the centred input
    that backward keeps, the per-channel scale and beta give its values
    again, bit for bit."""
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
    mean = _channel_sum(xd) / m if training else running_mean.data
    # backward keeps the centred x, xc; xhat = xc * inv is never stored
    xc = np.subtract(xd, mean.reshape(shape),
                     out=xd if inplace and mean.dtype == xd.dtype else None)
    if training:
        var = _channel_sum(xc, xc) / m
        running_mean.data[:] = (1 - momentum) * running_mean.data + momentum * mean
        running_var.data[:] = (1 - momentum) * running_var.data + momentum * var
    else:
        var = running_var.data
    if np.any(var + eps <= 0):
        raise NumericDomainError("batch_norm: var + eps <= 0")
    inv = 1.0 / np.sqrt(var + eps)
    if training:
        scale = (gamma.data * inv).reshape(shape)
    else:
        xc *= inv.reshape(shape)        # from here on xc holds xhat
        scale = gamma.data.reshape(shape)
    shift = beta.data.reshape(shape)
    out = np.multiply(xc, scale)
    out += shift

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

    def fill(buf):
        np.multiply(xc, scale, out=buf)
        buf += shift

    y = apply_op("batch_norm", (x, gamma, beta, running_mean, running_var), out, bwd)
    return rebuildable(y, fill)


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
        return ((p * (gf - dot)).reshape(n, c, h, w),)

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


def resize_shape(shape, out_h, out_w):
    """Output shape of bilinear_resize, by the rule it and its layer share."""
    if out_h < 1 or out_w < 1:
        raise ShapeError(f"target size must be >= 1, got {out_h}x{out_w}")
    return tuple(shape[:2]) + (out_h, out_w)


def bilinear_resize(x, out_h, out_w):
    """Bilinear resampling with half-pixel centers, applied as separable
    per-axis interpolation matrices. Identity when the target size equals the
    source size."""
    _require_4d(x, "bilinear_resize input")
    resize_shape(x.shape, out_h, out_w)
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


def pixel_shuffle_shape(shape, r):
    """Output shape of pixel_shuffle, by the rule it and its layer share."""
    n, c, h, w = shape
    if r < 1 or c % (r * r):
        raise ConfigError(f"pixel_shuffle r={r} must be >= 1 and r^2 must divide {c} channels")
    return (n, c // (r * r), h * r, w * r)


def pixel_shuffle(x, r):
    """Rearrange (N, C, H, W) to (N, C/r^2, rH, rW). Output pixel
    (c, r*y+dy, r*x+dx) reads input channel c*r^2 + dy*r + dx."""
    _require_4d(x, "pixel_shuffle input")
    n, c, h, w = x.shape
    co = pixel_shuffle_shape(x.shape, r)[1]
    out = (x.data.reshape(n, co, r, r, h, w)
           .transpose(0, 1, 4, 2, 5, 3)
           .reshape(n, co, h * r, w * r))

    def bwd(g):
        dg = (g.reshape(n, co, h, r, w, r)
              .transpose(0, 1, 3, 5, 2, 4)
              .reshape(n, c, h, w))
        return (dg,)

    return apply_op("pixel_shuffle", (x,), np.ascontiguousarray(out), bwd)


def concat_shape(shapes):
    """Output shape of concat_channels on inputs of these shapes, by the
    rule it and its layer share: the inputs agree on N, H and W."""
    if not shapes:
        raise ShapeError("concat_channels needs at least one tensor")
    n, _, h, w = shapes[0]
    for i, (tn, _, th, tw) in enumerate(shapes[1:], 1):
        if (tn, th, tw) != (n, h, w):
            raise ShapeError(
                f"concat_channels input {i} has N/H/W {tn}x{th}x{tw}, expected {n}x{h}x{w}")
    return (n, sum(s[1] for s in shapes), h, w)


def concat_channels(tensors):
    """Concatenate on the channel axis, preserving list order."""
    for t in tensors:
        _require_4d(t, "concat_channels input")
    concat_shape([t.shape for t in tensors])
    out = np.concatenate([t.data for t in tensors], axis=1)
    splits = np.cumsum([t.shape[1] for t in tensors])[:-1]

    def bwd(g):
        return tuple(np.split(g, splits, axis=1))

    return apply_op("concat_channels", tuple(tensors), out, bwd)


def avg_pool_shape(shape, k):
    """Output shape of avg_pool2d, by the rule it and its layer share."""
    n, c, h, w = shape
    if k < 1:
        raise ConfigError(f"avg_pool2d pool size must be >= 1, got {k}")
    if h % k or w % k:
        raise ShapeError(f"avg_pool2d spatial size {h}x{w} not divisible by pool size {k}")
    return (n, c, h // k, w // k)


def avg_pool2d(x, k):
    """Non-overlapping k x k average pooling."""
    _require_4d(x, "avg_pool2d input")
    n, c, h, w = x.shape
    ho, wo = avg_pool_shape(x.shape, k)[2:]
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

