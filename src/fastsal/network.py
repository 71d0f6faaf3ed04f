"""Declarative network graphs: the MobileNetV2 feature backbone with 18 taps,
the 4-block feature grouping, and the two FastSal decoders (concatenation and
addition variants), weight serialization, and the graph passes: batch-norm
folding (inference only), the collapse of the linear layers in front of the
final conv, and the marking of the relu6 and bn layers that may write into
their input's buffer (write_in_place, which also marks the bn and relu6
pairs whose clipped output run() releases and a backward rebuilds); the
last two run for inference and training alike. Under a tape the collapse's
composed weights are recorded functions of the original slots. Every pass
has one form: it counts readers with NetworkGraph.readers(), shares each
layer it does not rewrite with the input graph, builds the rewritten layers
and the result graph with dataclasses.replace, and changes no LayerSpec, so
its input graph stays as it was.

A NetworkGraph is an ordered list of LayerSpec records executed top to bottom;
every layer names its inputs, so shape inference and complexity accounting can
run without weights. graph.taps is derived from the layers' tap flags, and
run(want=graph.taps) returns their values by name; a conv's weight shape comes
from its input shape. OPS is the one place a layer kind is described: its
output shape, how it runs, its FLOPs and its weight slots. Shape inference,
execution, weight init and checking, and the analyzer all read that table.
"""

from __future__ import annotations

import math
import os
import struct
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import kernels, tensor
from .errors import ConfigError, ContractError, ParseError, ShapeError, WeightStoreError
from .tensor import Tensor

BN_EPS = 1e-5
BN_MOMENTUM = 0.1

# BN running statistics: weight slots that are state, not parameters
RUNNING_STATS = (".rmean", ".rvar")

# MobileNetV2 inverted-residual schedule: (expansion, channels, repeats, stride)
_MOBILENETV2_CFG = [
    (1, 16, 1, 1),
    (6, 24, 2, 2),
    (6, 32, 3, 2),
    (6, 64, 4, 2),
    (6, 96, 3, 1),
    (6, 160, 3, 2),
    (6, 320, 1, 1),
]

# per-block 1x1 adaptation widths at width 1.0, chosen to divide the 1408
# concatenated channels along the teacher's feature widths at matching scales
CONCAT_ADAPT = (256, 512, 512, 128)
ADD_ADAPT = (64, 128, 256, 512)


def _make_divisible(v, divisor=8):
    new_v = max(divisor, int(v + divisor / 2) // divisor * divisor)
    if new_v < 0.9 * v:
        new_v += divisor
    return new_v


@dataclass
class LayerSpec:
    """One graph node. kind is a key of OPS, which describes what the layer
    computes; params holds the kind's settings."""
    name: str
    kind: str
    inputs: list
    params: dict = field(default_factory=dict)
    tap: bool = False


@dataclass
class NetworkGraph:
    layers: list
    variant: str = ""
    input_shape: tuple = ()

    @property
    def taps(self):
        """Names of the tapped layers, in layer order."""
        return [l.name for l in self.layers if l.tap]

    def infer_shapes(self):
        """Shape of every layer output as a pure function of the input shape;
        ContractError when the graph has no 4-D input shape."""
        if len(self.input_shape) != 4:
            raise ContractError(f"graph input shape must be 4-D, got {self.input_shape}")
        shapes = {"input": tuple(self.input_shape)}
        for l in self.layers:
            ins = [shapes[i] for i in l.inputs]
            try:
                shapes[l.name] = op_for(l.kind).shape(l.params, ins)
            except (ShapeError, ConfigError) as e:
                raise type(e)(f"layer '{l.name}': {e}") from e
        return shapes

    def readers(self):
        """How many layer inputs name each layer (or "input"); a name that
        no layer reads counts 0."""
        return Counter(i for l in self.layers for i in l.inputs)

    def run(self, store, x, training=False, want=None):
        """Execute the graph. Returns a dict with the final output under "out"
        plus any layer names requested in `want` (want=graph.taps gives every
        tapped layer). Each activation is dropped once its last reader has
        run; under a tape, the tape still holds what backward needs, but for
        the output of a layer that write_in_place marks for release (and
        want does not name), which is released then and rebuilt in
        backward."""
        want = set(want or ())
        acts = {"input": x}
        results = {}
        last_reader = {i: k for k, l in enumerate(self.layers) for i in l.inputs}
        release = {l.name for l in self.layers if l.params.get("release")} - want
        for k, l in enumerate(self.layers):
            xs = [acts[i] for i in l.inputs]
            for i in l.inputs:
                if last_reader[i] == k:
                    acts.pop(i, None)
            try:
                op = op_for(l.kind)
                w = {s: store.get(l.name + s)
                     for s in op.slots(l.params, [t.shape for t in xs])}
                y = op.run(l.params, xs, w, training)
            except (ShapeError, ConfigError) as e:
                raise type(e)(f"layer '{l.name}': {e}") from e
            for j, i in enumerate(l.inputs):
                if i in release and last_reader[i] == k:
                    xs[j].release()
            acts[l.name] = y
            if l.name in want:
                results[l.name] = y
        results["out"] = acts[self.layers[-1].name]
        return results


# ---------------------------------------------------------------------------
# layer kinds
# ---------------------------------------------------------------------------

def _fan_in_uniform(rng, shape, dtype):
    bound = 1.0 / np.sqrt(math.prod(shape[1:]))
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


def _zeros(rng, shape, dtype):
    return np.zeros(shape, dtype=dtype)


def _ones(rng, shape, dtype):
    return np.ones(shape, dtype=dtype)


def _no_slots(p, ins):
    return {}


def _two_per_element(p, ins, out):
    return 2 * math.prod(out)


def _no_flops(p, ins, out):
    return 0


def _same_shape(p, ins):
    return ins[0]


@dataclass(frozen=True)
class Op:
    """The rules for one layer kind. p is the layer's params, ins its input
    shapes, xs its input tensors and w its weight slots by suffix.

    shape(p, ins) -> output shape
    run(p, xs, w, training) -> output Tensor; calls kernels.<fn>/tensor.<fn>
        through the module, so a wrapper installed there sees every layer
    flops(p, ins, out) -> FLOPs under analyzer.CONVENTION
    slots(p, ins) -> {suffix: (shape, init)}, init(rng, shape, dtype) -> array;
        parameters are the slots other than RUNNING_STATS"""
    shape: Callable
    run: Callable
    flops: Callable = _two_per_element
    slots: Callable = _no_slots


def _conv_weight_shape(p, ins):
    kh, kw = p["kernel"]
    return (p["out_ch"], ins[0][1] // p.get("groups", 1), kh, kw)


def _conv_shape(p, ins):
    return kernels.conv_shape(ins[0], p["out_ch"], p["kernel"], p.get("groups", 1),
                              p["stride"], p["padding"])


def _conv_run(p, xs, w, training):
    return kernels.conv2d(xs[0], w[".w"], w.get(".b"), stride=p["stride"],
                          padding=p["padding"], groups=p.get("groups", 1))


def _conv_flops(p, ins, out):
    n, _, h, w = out
    return 2 * math.prod(_conv_weight_shape(p, ins)) * n * h * w


def _conv_slots(p, ins):
    slots = {".w": (_conv_weight_shape(p, ins), _fan_in_uniform)}
    if p.get("bias", False):
        slots[".b"] = ((p["out_ch"],), _zeros)
    return slots


_BN_INIT = {".gamma": _ones, ".beta": _zeros, ".rmean": _zeros, ".rvar": _ones}


def _bn_run(p, xs, w, training):
    return kernels.batch_norm(xs[0], w[".gamma"], w[".beta"], w[".rmean"], w[".rvar"],
                              eps=p.get("eps", BN_EPS),
                              momentum=p.get("momentum", BN_MOMENTUM), training=training,
                              inplace=p.get("inplace", False), rebuild=p.get("release", False))


def _bn_slots(p, ins):
    return {s: ((ins[0][1],), init) for s, init in _BN_INIT.items()}


def _relu6_run(p, xs, w, training):
    return tensor.relu6(xs[0], inplace=p.get("inplace", False))


def _sigmoid_run(p, xs, w, training):
    return tensor.sigmoid(xs[0])


def _softmax_run(p, xs, w, training):
    return kernels.softmax_spatial(xs[0])


def _resize_shape(p, ins):
    return kernels.resize_shape(ins[0], p["out_h"], p["out_w"])


def _resize_run(p, xs, w, training):
    return kernels.bilinear_resize(xs[0], p["out_h"], p["out_w"])


def _shuffle_shape(p, ins):
    return kernels.pixel_shuffle_shape(ins[0], p["r"])


def _shuffle_run(p, xs, w, training):
    return kernels.pixel_shuffle(xs[0], p["r"])


def _pool_shape(p, ins):
    return kernels.avg_pool_shape(ins[0], p["k"])


def _pool_run(p, xs, w, training):
    return kernels.avg_pool2d(xs[0], p["k"])


def _concat_shape(p, ins):
    return kernels.concat_shape(ins)


def _concat_run(p, xs, w, training):
    return kernels.concat_channels(xs)


def _add_shape(p, ins):
    for s in ins[1:]:
        if s != ins[0]:
            raise ShapeError(f"add inputs differ in shape: {ins[0]} and {s}")
    return ins[0]


def _add_run(p, xs, w, training):
    _add_shape(p, [t.shape for t in xs])
    out = xs[0]
    for t in xs[1:]:
        out = tensor.add(out, t)
    return out


OPS = {
    "conv": Op(_conv_shape, _conv_run, _conv_flops, _conv_slots),
    "bn": Op(_same_shape, _bn_run, slots=_bn_slots),
    "relu6": Op(_same_shape, _relu6_run),
    "sigmoid": Op(_same_shape, _sigmoid_run),
    "softmax-spatial": Op(_same_shape, _softmax_run),
    "resize": Op(_resize_shape, _resize_run),
    "pixel-shuffle": Op(_shuffle_shape, _shuffle_run, _no_flops),
    "avg-pool": Op(_pool_shape, _pool_run),
    "concat": Op(_concat_shape, _concat_run, _no_flops),
    "add": Op(_add_shape, _add_run),
}


def op_for(kind):
    """The OPS record of a layer kind; ConfigError for an unknown kind."""
    try:
        return OPS[kind]
    except KeyError:
        raise ConfigError(f"unknown layer kind '{kind}'") from None


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

class _Builder:
    def __init__(self):
        self.layers = []

    def emit(self, name, kind, inputs, tap=False, **params):
        self.layers.append(LayerSpec(name, kind, list(inputs), params, tap))
        return name

    def conv(self, name, inp, out_ch, kernel=1, stride=1, padding=0,
             groups=1, bias=False):
        k, s, p = (kernels._pair(v) for v in (kernel, stride, padding))
        return self.emit(name, "conv", [inp], out_ch=out_ch, kernel=k, stride=s,
                         padding=p, groups=groups, bias=bias)

    def conv_bn_relu(self, prefix, inp, out_ch, kernel, stride, groups=1):
        pad = (kernel - 1) // 2
        c = self.conv(prefix + ".conv", inp, out_ch, kernel, stride, pad, groups)
        b = self.emit(prefix + ".bn", "bn", [c])
        return self.emit(prefix + ".relu", "relu6", [b])


def _inverted_residual(b, prefix, inp, in_ch, out_ch, stride, expand):
    hidden = in_ch * expand
    x = inp
    if expand != 1:
        x = b.conv_bn_relu(prefix + ".expand", x, hidden, 1, 1)
    x = b.conv_bn_relu(prefix + ".dw", x, hidden, 3, stride, groups=hidden)
    x = b.conv(prefix + ".project.conv", x, out_ch)
    x = b.emit(prefix + ".project.bn", "bn", [x])
    if stride == 1 and in_ch == out_ch:
        x = b.emit(prefix + ".add", "add", [x, inp])
    return x


def _backbone_layers(b, width=1.0):
    """Stem plus 17 inverted residual blocks; marks the 18 taps and returns
    their names."""
    c_in = _make_divisible(32 * width)
    x = b.conv_bn_relu("backbone.stem", "input", c_in, 3, 2)
    b.layers[-1].tap = True
    taps = [x]
    idx = 0
    for t, c, n, s in _MOBILENETV2_CFG:
        c_out = _make_divisible(c * width)
        for i in range(n):
            idx += 1
            x = _inverted_residual(b, f"backbone.b{idx}", x, c_in,
                                   c_out, s if i == 0 else 1, t)
            b.layers[-1].tap = True
            taps.append(x)
            c_in = c_out
    return taps


def _check_build(input_shape, width):
    """ConfigError unless the width multiplier is positive and finite and the
    input H and W are positive multiples of 16."""
    h, w = input_shape[2:]
    if not (math.isfinite(width) and width > 0):
        raise ConfigError(f"width multiplier must be positive and finite, got {width}")
    if h < 1 or w < 1 or h % 16 or w % 16:
        raise ConfigError(f"input H and W must be positive and divisible by 16, got {h}x{w}")


def build_backbone(input_shape, width=1.0):
    """MobileNetV2 feature extractor with a tap after the stem and after each
    of the 17 inverted residual blocks."""
    _check_build(input_shape, width)
    b = _Builder()
    _backbone_layers(b, width)
    return NetworkGraph(b.layers, variant="backbone", input_shape=tuple(input_shape))


def _grouping_layers(b, taps):
    """Merge 18 taps into 4 feature blocks. The two half-resolution taps are
    average-pooled down one scale and folded into the first block."""
    p0 = b.emit("blocks.pool0", "avg-pool", [taps[0]], k=2)
    p1 = b.emit("blocks.pool1", "avg-pool", [taps[1]], k=2)
    b1 = b.emit("blocks.b1", "concat", [p0, p1, taps[2], taps[3]])
    b2 = b.emit("blocks.b2", "concat", taps[4:7])
    b3 = b.emit("blocks.b3", "concat", taps[7:14])
    b4 = b.emit("blocks.b4", "concat", taps[14:18])
    return [b1, b2, b3, b4]


def _decoder_concat_layers(b, blocks, h, w, width):
    adapt_ch = [_make_divisible(a * width) for a in CONCAT_ADAPT]
    ups = []
    for i, (blk, cout) in enumerate(zip(blocks, adapt_ch), 1):
        a = b.conv(f"decoder.adapt{i}", blk, cout, bias=True)
        ups.append(b.emit(f"decoder.up{i}", "resize", [a], out_h=h // 2, out_w=w // 2))
    cat = b.emit("decoder.concat", "concat", ups)
    shuf = b.emit("decoder.shuffle", "pixel-shuffle", [cat], r=2)
    b.conv("decoder.out", shuf, 1, bias=True)


def _mir_layers(b, prefix, inp, din, dout):
    """Inverted residual with expansion 2; residual skip only when the channel
    count is preserved."""
    hidden = 2 * din
    x = b.conv(prefix + ".expand.conv", inp, hidden, bias=True)
    x = b.emit(prefix + ".expand.bn", "bn", [x])
    x = b.emit(prefix + ".expand.relu", "relu6", [x])
    x = b.conv(prefix + ".dw.conv", x, hidden, 3, 1, 1, groups=hidden, bias=True)
    x = b.emit(prefix + ".dw.bn", "bn", [x])
    x = b.emit(prefix + ".dw.relu", "relu6", [x])
    x = b.conv(prefix + ".project.conv", x, dout, bias=True)
    x = b.emit(prefix + ".project.bn", "bn", [x])
    if din == dout:
        x = b.emit(prefix + ".add", "add", [x, inp])
    return x


def _decoder_add_layers(b, blocks, h, w, width):
    adapt_ch = [_make_divisible(a * width) for a in ADD_ADAPT]
    if adapt_ch[0] % 16:
        adapt_ch[0] = _make_divisible(adapt_ch[0], 16)
    adapted = [b.conv(f"decoder.adapt{i}", blk, cout, bias=True)
               for i, (blk, cout) in enumerate(zip(blocks, adapt_ch), 1)]
    scales = [(h // 4, w // 4), (h // 8, w // 8), (h // 16, w // 16), (h // 32, w // 32)]
    # top-down: coarsest block first, each level fused with the resized
    # previous output before its inverted residual
    prev = _mir_layers(b, "decoder.mir4", adapted[3], adapt_ch[3], adapt_ch[2])
    for i in (3, 2, 1):
        up = b.emit(f"decoder.td_up{i}", "resize", [prev],
                    out_h=scales[i - 1][0], out_w=scales[i - 1][1])
        s = b.emit(f"decoder.td_add{i}", "add", [adapted[i - 1], up])
        dout = adapt_ch[i - 2] if i >= 2 else adapt_ch[0]
        prev = _mir_layers(b, f"decoder.mir{i}", s, adapt_ch[i - 1], dout)
    x = b.emit("decoder.shuffle1", "pixel-shuffle", [prev], r=2)
    c = adapt_ch[0] // 4
    x = b.conv("decoder.post", x, c, bias=True)
    x = b.emit("decoder.shuffle2", "pixel-shuffle", [x], r=2)
    b.conv("decoder.out", x, 1, bias=True)


def build_fastsal(variant, input_shape, width=1.0):
    """Full FastSal graph: backbone taps, block grouping, and the chosen
    decoder. Output is a single channel of unnormalized logits at input size."""
    if variant not in ("C", "A"):
        raise ConfigError(f"variant must be 'C' or 'A', got '{variant}'")
    _check_build(input_shape, width)
    h, w = input_shape[2:]
    b = _Builder()
    blocks = _grouping_layers(b, _backbone_layers(b, width))
    if variant == "C":
        _decoder_concat_layers(b, blocks, h, w, width)
    else:
        _decoder_add_layers(b, blocks, h, w, width)
    return NetworkGraph(b.layers, variant=variant, input_shape=tuple(input_shape))


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

class WeightStore:
    """Named tensor slots backing a graph."""

    def __init__(self, tensors=None):
        self.tensors = dict(tensors or {})

    def __contains__(self, name):
        return name in self.tensors

    def __len__(self):
        return len(self.tensors)

    def get(self, name):
        try:
            return self.tensors[name]
        except KeyError:
            raise WeightStoreError(f"missing weight slot '{name}'") from None

    def put(self, name, tensor):
        self.tensors[name] = tensor

    def names(self):
        return list(self.tensors)

    def copy(self):
        return WeightStore({k: Tensor(v.data.copy(), requires_grad=v.requires_grad)
                            for k, v in self.tensors.items()})


def trainable_slots(store):
    """Slots updated by the optimizer: everything except BN running stats."""
    return [k for k in store.names() if not k.endswith(RUNNING_STATS)]


def _graph_slots(graph):
    """(slot name, shape, init) of every weight slot, in layer order."""
    shapes = graph.infer_shapes()
    for l in graph.layers:
        ins = [shapes[i] for i in l.inputs]
        for suffix, (shape, init) in OPS[l.kind].slots(l.params, ins).items():
            yield l.name + suffix, shape, init


def init_weights(graph, seed=0, dtype=np.float32):
    """Fan-in scaled uniform init for convs; identity init for batch norm."""
    rng = np.random.default_rng(seed)
    store = WeightStore()
    for name, shape, init in _graph_slots(graph):
        store.put(name, Tensor(init(rng, shape, dtype)))
    return store


_MAGIC = b"FSAL"
_VERSION = 1
_MAX_RANK = 32      # numpy 1.x's limit on array dimensions


def save_weights(store, path):
    """Little-endian container: magic, u16 version, u32 entry count; each entry
    u16 name length, UTF-8 name, u8 rank, u32 dims, raw float32 payload."""
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<H", _VERSION))
        f.write(struct.pack("<I", len(store.tensors)))
        for name in store.names():
            t = store.tensors[name]
            nb = name.encode("utf-8")
            f.write(struct.pack("<H", len(nb)))
            f.write(nb)
            shape = t.shape if t.shape else (1,)
            f.write(struct.pack("<B", len(shape)))
            f.write(struct.pack(f"<{len(shape)}I", *shape))
            f.write(np.ascontiguousarray(t.data, dtype="<f4").tobytes())


def load_weights(path):
    """Read a save_weights container. Each payload is read straight into its
    own float32 array, after its size is checked against the file's, so a
    header that claims more data than the file holds allocates nothing.
    Malformed content raises ParseError with the byte offset of the bad
    field."""
    store = WeightStore()
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        off = 0

        def truncated(what):
            return ParseError(f"truncated weight file while reading {what}", offset=off)

        def take(n, what):
            nonlocal off
            chunk = f.read(n) if off + n <= size else b""
            if len(chunk) != n:
                raise truncated(what)
            off += n
            return chunk

        if take(4, "magic") != _MAGIC:
            raise ParseError("bad magic, not a weight file", offset=0)
        (version,) = struct.unpack("<H", take(2, "version"))
        if version != _VERSION:
            raise ParseError(f"unsupported weight file version {version}", offset=4)
        (count,) = struct.unpack("<I", take(4, "entry count"))
        for _ in range(count):
            (nlen,) = struct.unpack("<H", take(2, "name length"))
            name_off = off
            try:
                name = take(nlen, "name").decode("utf-8")
            except UnicodeDecodeError:
                raise ParseError("slot name is not valid UTF-8", offset=name_off) from None
            if name in store:
                raise ParseError(f"duplicate slot name '{name}'", offset=name_off)
            (rank,) = struct.unpack("<B", take(1, "rank"))
            if rank > _MAX_RANK:
                raise ParseError(f"rank {rank} of '{name}' exceeds {_MAX_RANK}", offset=off - 1)
            dims = struct.unpack(f"<{rank}I", take(4 * rank, "dims"))
            nbytes = 4 * math.prod(dims)
            if off + nbytes > size:
                raise truncated(f"payload of '{name}'")
            if math.prod(d for d in dims if d) > size:
                # an empty array whose other dims numpy cannot represent
                raise ParseError(f"dims {dims} of '{name}' are out of range",
                                 offset=off - 4 * rank)
            arr = np.empty(dims, dtype="<f4")
            if f.readinto(arr) != nbytes:
                raise truncated(f"payload of '{name}'")
            off += nbytes
            store.put(name, Tensor(arr))
        if off != size:
            raise ParseError("trailing bytes after last entry", offset=off)
    return store


def check_weights(graph, store):
    """Verify every graph slot resolves with the declared shape."""
    for name, shape, _ in _graph_slots(graph):
        t = store.get(name)
        if t.shape != shape:
            raise WeightStoreError(f"slot '{name}' has shape {t.shape}, expected {shape}")


# ---------------------------------------------------------------------------
# graph passes
# ---------------------------------------------------------------------------

def _with_inputs(l, inputs):
    """Layer l reading inputs: l itself when they are its own inputs."""
    return l if inputs == l.inputs else replace(l, inputs=inputs)


def fold_batch_norm(graph, store):
    """Fuse conv+bn pairs for inference. Returns a new (graph, store); the
    originals are untouched, and layers and slots the pass does not rewrite
    are shared with the input graph and store. A bn is fused only into a
    conv that it alone reads and that is not a tap; any other bn is left
    unfused."""
    readers = graph.readers()
    folded = {}   # bn name -> conv name
    new_layers = {}
    new_store = WeightStore(store.tensors)
    for l in graph.layers:
        conv = new_layers.get(l.inputs[0]) if l.kind == "bn" else None
        if (conv is not None and conv.kind == "conv"
                and readers[conv.name] == 1 and not conv.tap):
            g, bt, rm, rv = (new_store.get(l.name + s).data for s in _BN_INIT)
            scale = g / np.sqrt(rv + l.params.get("eps", BN_EPS))
            w = new_store.get(conv.name + ".w").data
            new_store.put(conv.name + ".w", Tensor(w * scale.reshape(-1, 1, 1, 1)))
            b0 = (new_store.get(conv.name + ".b").data
                  if conv.params.get("bias", False)
                  else np.zeros(conv.params["out_ch"], dtype=w.dtype))
            new_store.put(conv.name + ".b", Tensor(bt + (b0 - rm) * scale))
            for s in _BN_INIT:
                del new_store.tensors[l.name + s]
            # readers of the bn now read the conv, which gains a bias and
            # takes over the bn's tap flag
            folded[l.name] = conv.name
            new_layers[conv.name] = replace(conv, params=dict(conv.params, bias=True),
                                            tap=l.tap)
            continue
        new_layers[l.name] = _with_inputs(l, [folded.get(i, i) for i in l.inputs])

    return replace(graph, layers=list(new_layers.values())), new_store


# ---------------------------------------------------------------------------
# linear-tail collapse
# ---------------------------------------------------------------------------

def _is_pointwise(l):
    p = l.params
    return (l.kind == "conv" and tuple(p["kernel"]) == (1, 1)
            and tuple(p["stride"]) == (1, 1) and tuple(p["padding"]) == (0, 0)
            and p.get("groups", 1) == 1)


def collapse_linear_tail(graph, store):
    """Sink the graph's final 1x1 conv up through the linear layers in front
    of it, so that it runs where they are narrow. Returns a new (graph,
    store), or the inputs themselves when there is nothing to rewrite; the
    originals are untouched, and layers and slots the pass does not rewrite
    are shared with the input graph and store.

    The pending map is a 1x1 conv (w, b) on some layer's output. Through
    pixel-shuffle(r) it becomes a conv to out*r^2 channels in front of the
    shuffle; through concat, one conv per input summed by an add layer, with
    b on the first branch only; through resize it is unchanged, since channel
    mixing commutes with resampling and resize rows sum to 1. Into a
    preceding groups=1 conv it is composed with that conv's weights, which
    ends the walk. It is not moved past a tap, a layer with a second
    consumer, the graph input or any other kind of layer: there it stays a
    1x1 conv named '<layer it feeds>.in<input index>'. Rewritten layers keep
    their names and go to the end of the layer list.

    The new weights are computed with Tensor ops from the input slots, so
    under a Tape they are recorded functions of those slots: a loss on the
    rewritten graph has the same gradients on the original slots as on the
    original graph, up to rounding, and training runs on this form."""
    last = graph.layers[-1]
    layers = {l.name: l for l in graph.layers}
    readers = graph.readers()

    def passable(name):
        l = layers.get(name)
        return (l is not None and not l.tap and readers[name] == 1
                and (l.kind in ("resize", "pixel-shuffle", "concat")
                     or l.kind == "conv" and l.params.get("groups", 1) == 1))

    if last.tap or not _is_pointwise(last) or not passable(last.inputs[0]):
        return graph, store
    channels = {k: s[1] for k, s in graph.infer_shapes().items()}
    new_store = WeightStore(store.tensors)
    new_layers = []      # inputs before their consumers
    passed = {last.name}

    def conv(name, src, like, w, b):
        # a conv layer like the layer `like` (last or a composed conv)
        new_store.put(name + ".w", w)
        if b is not None:
            new_store.put(name + ".b", b)
        new_layers.append(replace(like, name=name, inputs=[src], params=dict(
            like.params, out_ch=w.shape[0], bias=b is not None)))
        return name

    def sink(src, w, b, user, k):
        """Name of a new layer computing the 1x1 conv (w, b) of layer src's
        output, where src is input k of layer user; w is a 2-D Tensor and b
        a Tensor or None."""
        if not passable(src):
            return conv(f"{user}.in{k}", src, last,
                        tensor.reshape(w, w.shape + (1, 1)), b)
        l = layers[src]
        passed.add(src)
        if l.kind == "conv":
            if l.params.get("bias", False):
                wb = tensor.matmul(w, store.get(src + ".b"))
                b = wb if b is None else tensor.add(wb, b)
            wa = store.get(src + ".w")
            w = tensor.matmul(w, tensor.reshape(wa, (wa.shape[0], -1)))
            return conv(src, l.inputs[0], l,
                        tensor.reshape(w, w.shape[:1] + wa.shape[1:]), b)
        if l.kind == "concat":
            xs, off = [], 0
            for j, i in enumerate(l.inputs):
                c = channels[i]
                xs.append(sink(i, tensor.columns(w, off, off + c),
                               b if j == 0 else None, src, j))
                off += c
            new_layers.append(replace(l, kind="add", inputs=xs, params={}))
            return src
        if l.kind == "pixel-shuffle":
            # output channel o, sub-pixel s reads input channel c*r^2 + s:
            # w becomes w[o, c] * eye[s, t] at row o*r^2 + s, column c*r^2 + t
            # and b is repeated r^2 times
            rr = l.params["r"] ** 2
            o, c = w.shape
            eye = np.eye(rr, dtype=w.dtype).reshape(1, rr, 1, rr)
            w = tensor.reshape(tensor.mul(tensor.reshape(w, (o, 1, c, 1)), eye),
                               (o * rr, c * rr))
            if b is not None:
                b = tensor.matmul(Tensor(np.repeat(np.eye(o, dtype=b.dtype), rr, axis=0)), b)
        new_layers.append(_with_inputs(l, [sink(l.inputs[0], w, b, src, 0)]))
        return src

    w = store.get(last.name + ".w")
    b = store.get(last.name + ".b") if last.params.get("bias", False) else None
    sink(last.inputs[0], tensor.reshape(w, w.shape[:2]), b, last.name, 0)
    # sink refers to itself through its closure cell; the cycle would keep
    # new_store and the input store alive until the cyclic GC runs
    del sink
    for s in (".w", ".b"):
        new_store.tensors.pop(last.name + s, None)
    kept = [l for l in graph.layers if l.name not in passed]
    return replace(graph, layers=kept + new_layers), new_store


def subgraph(graph, names):
    """The graph of the layers that the named layers' outputs depend on, in
    their order, so that it ends with the last of them. Layers are shared
    with the input graph; its taps are those of the kept layers."""
    need = set(names)
    for l in reversed(graph.layers):
        if l.name in need:
            need.update(l.inputs)
    return replace(graph, layers=[l for l in graph.layers if l.name in need])


# layer kinds whose output buffer is fresh and whose backward does not read
# that output, so a relu6 may clip it, or a bn centre it, in place
_FRESH_PRODUCERS = ("conv", "bn", "add")


def write_in_place(graph, keep=()):
    """Mark the relu6 and bn layers that may write into their input's buffer,
    with params["inplace"]: a relu6 then clips its input in place, a bn
    centres it in place (the centred input is what its backward keeps).
    Marked are those whose input is the output of a conv, bn or (two or more
    input) add layer that has no other reader, is not a tap and is not named
    in keep (pass the names a caller asks run() for).

    A marked relu6 whose input is a marked bn is also marked with
    params["release"], and so is that bn, when convs (one or more) are all
    that read the relu6 and it is not a tap or named in keep. run() then
    drops their shared buffer once those convs have run. Under a tape the
    bn's output is rebuildable (kernels.batch_norm), and so is the relu6's:
    a backward that reads either gets the clipped values back, rebuilt from
    the centred conv output that the bn's backward keeps anyway
    (tensor.Tensor.values). The rebuild array holds one value at a time; a
    conv's backward and a relu6's, the only readers released outputs have,
    read one such input each and are done with it when they return, so no
    rebuilt value is read after the next rebuild. Outside a tape a release
    mark does nothing.

    Returns a new graph whose marked layers are new LayerSpecs; every other
    layer is shared with the input graph, which is not changed. The outputs
    and, under a tape, the gradients and the updated BN running statistics
    are bit for bit those of the input graph."""
    readers = graph.readers()
    layers = {l.name: l for l in graph.layers}
    reader_kinds = {}
    for l in graph.layers:
        for i in l.inputs:
            reader_kinds.setdefault(i, set()).add(l.kind)
    keep = set(keep)

    def inplace(l):
        src = layers.get(l.inputs[0]) if l.kind in ("relu6", "bn") else None
        return (src is not None and src.kind in _FRESH_PRODUCERS
                and readers[src.name] == 1 and not src.tap and src.name not in keep
                and (src.kind != "add" or len(src.inputs) > 1))

    marked = {l.name for l in graph.layers if inplace(l)}
    released = set()
    for l in graph.layers:
        if (l.kind == "relu6" and l.name in marked and layers[l.inputs[0]].kind == "bn"
                and l.inputs[0] in marked and not l.tap and l.name not in keep
                and reader_kinds.get(l.name) == {"conv"}):
            released.update((l.name, l.inputs[0]))

    def mark(l):
        params = dict(l.params, inplace=True)
        if l.name in released:
            params["release"] = True
        return replace(l, params=params)

    return replace(graph, layers=[mark(l) if l.name in marked else l for l in graph.layers])


def prepare_inference(graph, store):
    """The graph and store to run for inference: batch norm folded into its
    convs, then the final 1x1 conv sunk through the linear layers before it
    (collapse_linear_tail), then each relu6 that may do so marked to clip its
    producer's output in place (write_in_place; the folded graph has no bn
    left to mark). All three passes are exact rewrites; the originals are
    untouched."""
    graph, store = collapse_linear_tail(*fold_batch_norm(graph, store))
    return write_in_place(graph), store
