"""Span tracer that times fastsal's public functions from outside the package.

Each wrapper replaces a name in the module where its caller looks it up (for
example ``fastsal.cli.load_weights`` or ``fastsal.kernels.conv2d``).
``install`` swaps the wrappers in and ``uninstall`` restores the originals, so
untraced operations run the package unmodified.

A span keeps its name, start and end (``perf_counter_ns``), parent span and
operation id in memory. Kernel spans also keep the shapes they saw, from which
FLOPs (``analyzer.layer_flops``'s convention) and bytes (computed from tensor
sizes, not measured) are worked out after the run. Backward closures are timed
by wrapping ``apply_op`` where ``kernels`` and ``tensor`` look it up; their
spans are named after the forward span plus ``.bwd``.
"""

from __future__ import annotations

import gzip
import json
import math
import time
import tracemalloc

from fastsal import analyzer, cli, data_io, distill, kernels, metrics, network, tensor, trainer
from fastsal.network import LayerSpec

_now = time.perf_counter_ns

KERNEL_KINDS = {
    "batch_norm": "bn", "bilinear_resize": "resize", "pixel_shuffle": "pixel-shuffle",
    "concat_channels": "concat", "avg_pool2d": "avg-pool",
}
TENSOR_OPS = ("relu6", "add", "sigmoid")
CONV_PATHS = ("pointwise", "depthwise", "general", "grouped")
PROBE_METRICS = ("auc_judd", "auc_shuffled", "nss", "cc", "sim", "kldiv", "info_gain")
ROW_KEYS = ("ms", "self_ms", "calls", "failed", "flops", "bytes", "tape_nodes")


def _pair(v):
    return (v, v) if isinstance(v, int) else tuple(v)


def conv_path(x, weight, bias=None, stride=(1, 1), padding=(0, 0), groups=1):
    """The branch kernels.conv2d takes for these arguments."""
    cout, _, kh, kw = weight.shape
    if ((kh, kw) == (1, 1) and _pair(stride) == (1, 1) and _pair(padding) == (0, 0)
            and groups == 1):
        return "pointwise"
    if groups == x.shape[1] and cout == x.shape[1]:
        return "depthwise"
    return "general" if groups == 1 else "grouped"


def _shape(v):
    return tuple(getattr(v, "shape", ()))


# meta records: (layer kind, input shapes, output shape, itemsize, extra elements, params)

def _meta_conv(out, x, weight, bias=None, stride=(1, 1), padding=(0, 0), groups=1):
    extra = weight.size + (bias.size if bias is not None else 0)
    params = {"in_ch": x.shape[1], "out_ch": weight.shape[0],
              "kernel": tuple(weight.shape[2:]), "groups": groups}
    return ("conv", (x.shape,), out.shape, out.data.itemsize, extra, params)


def _meta_unary(kind):
    def meta(out, x, *args, **kwargs):
        extra = 4 * x.shape[1] if kind == "bn" else 0
        return (kind, (x.shape,), out.shape, out.data.itemsize, extra, {})
    return meta


def _meta_concat(out, tensors):
    return ("concat", tuple(t.shape for t in tensors), out.shape, out.data.itemsize, 0, {})


def _meta_add(out, a, b):
    return ("add", (a.shape, _shape(b)), out.shape, out.data.itemsize, 0, {})


def _meta_tape(out, tape, loss, leaves):
    return ("tape", len(tape.nodes))


def flops_and_bytes(meta):
    kind, ins, out_shape, itemsize, extra, params = meta
    if len(out_shape) == 4:
        flops = analyzer.layer_flops(LayerSpec("", kind, [], params), ins, out_shape)
    else:
        flops = 2 * math.prod(out_shape)
    elems = sum(math.prod(s) for s in ins) + math.prod(out_shape) + extra
    return flops, elems * itemsize


class Tracer:
    """In-memory span recorder plus the set of wrappers it installs."""

    def __init__(self):
        self.name, self.start, self.end = [], [], []
        self.parent, self.op, self.meta, self.failed = [], [], [], []
        self._stack = []
        self.op_id = -1
        self._patches = self._build_patches()
        self._saved = None

    # -- spans -------------------------------------------------------------

    def _begin(self, name):
        i = len(self.name)
        self.name.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.meta.append(None)
        self.failed.append(False)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(_now())
        return i

    def _finish(self, i, failed=False):
        self.end[i] = _now()
        self._stack.pop()
        self.failed[i] = failed

    def _wrap(self, name, fn, meta_fn=None):
        namer = name if callable(name) else None

        def traced(*args, **kwargs):
            i = self._begin(namer(*args, **kwargs) if namer else name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self._finish(i, failed=True)
                raise
            self._finish(i)
            if meta_fn is not None:
                self.meta[i] = meta_fn(out, *args, **kwargs)
            return out

        traced.__wrapped__ = fn
        return traced

    def _wrap_apply_op(self, fn, prefix):
        def traced_apply_op(name, inputs, out_data, backward_fn):
            label = prefix + name
            if prefix == "kernels." and self._stack:
                top = self.name[self._stack[-1]]
                if top.startswith(label):
                    label = top

            def timed_backward(g):
                i = self._begin(label + ".bwd")
                try:
                    return backward_fn(g)
                finally:
                    self._finish(i)

            return fn(name, inputs, out_data, timed_backward)

        traced_apply_op.__wrapped__ = fn
        return traced_apply_op

    def _build_patches(self):
        p = []

        def add(owners, attr, name, meta_fn=None):
            fn = getattr(owners[0], attr)
            w = self._wrap(name, fn, meta_fn)
            p.extend((owner, attr, w) for owner in owners)

        add([kernels], "conv2d", lambda *a, **k: "kernels.conv2d." + conv_path(*a, **k), _meta_conv)
        for attr, kind in KERNEL_KINDS.items():
            meta = _meta_concat if kind == "concat" else _meta_unary(kind)
            add([kernels], attr, "kernels." + attr, meta)
        add([tensor], "relu6", "tensor.relu6", _meta_unary("relu6"))
        add([tensor], "add", "tensor.add", _meta_add)
        add([tensor, cli], "sigmoid", "tensor.sigmoid", _meta_unary("sigmoid"))
        p.append((kernels, "apply_op", self._wrap_apply_op(kernels.apply_op, "kernels.")))
        p.append((tensor, "apply_op", self._wrap_apply_op(tensor.apply_op, "tensor.")))
        add([tensor.Tape], "gradients", "tensor.backward", _meta_tape)
        add([network.NetworkGraph], "run", "network.run")
        add([cli], "main", "cli.main")
        add([cli, network], "build_fastsal", "network.build_fastsal")
        add([cli], "load_weights", "network.load_weights")
        add([cli], "check_weights", "network.check_weights")
        for attr in ("load_image", "load_map", "load_fixations", "load_teacher_bundle"):
            add([data_io, trainer], attr, "data_io." + attr)
        add([data_io], "save_map", "data_io.save_map")
        add([data_io], "load_manifest", "data_io.load_manifest")
        for attr in PROBE_METRICS:
            add([metrics], attr, "metrics." + attr)
        add([distill], "salgan_loss", "distill.salgan_loss")
        add([trainer], "sgd_step", "trainer.sgd_step")
        add([trainer], "train", "trainer.train")
        return p

    def install(self):
        if self._saved is not None:
            raise RuntimeError("tracer already installed")
        self._saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in self._patches]
        for owner, attr, w in self._patches:
            setattr(owner, attr, w)

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved = None

    # -- analysis ------------------------------------------------------------

    def self_times(self):
        """Duration minus the part covered by direct children, per span (ns).
        Spans nest strictly on one thread, so children never overlap."""
        child = [0] * len(self.name)
        for i, par in enumerate(self.parent):
            if par >= 0:
                child[par] += self.end[i] - self.start[i]
        return [self.end[i] - self.start[i] - child[i] for i in range(len(self.name))]

    def flops_under(self, root):
        """Intercepted FLOPs of forward kernel spans that descend from root."""
        total = 0
        for i in range(root + 1, len(self.name)):
            j = self.parent[i]
            while j > root:
                j = self.parent[j]
            if j == root and self.meta[i] is not None and self.meta[i][0] != "tape":
                total += flops_and_bytes(self.meta[i])[0]
        return total

    def per_op(self, ops):
        """Per span name: milliseconds (total and self), calls, failed calls,
        FLOPs, computed bytes and tape nodes, summed over the spans of the
        given operations and divided by their number."""
        ops = set(ops)
        selft = self.self_times()
        rows = {}
        for i, name in enumerate(self.name):
            if self.op[i] not in ops:
                continue
            r = rows.setdefault(name, dict.fromkeys(ROW_KEYS, 0))
            r["ms"] += (self.end[i] - self.start[i]) / 1e6
            r["self_ms"] += selft[i] / 1e6
            r["calls"] += 1
            r["failed"] += self.failed[i]
            meta = self.meta[i]
            if meta is not None and meta[0] == "tape":
                r["tape_nodes"] += meta[1]
            elif meta is not None:
                f, b = flops_and_bytes(meta)
                r["flops"] += f
                r["bytes"] += b
        n = max(len(ops), 1)
        return {name: {k: v / n for k, v in r.items()} for name, r in rows.items()}

    def write(self, path):
        names = sorted(set(self.name))
        index = {n: k for k, n in enumerate(names)}
        spans = [[index[self.name[i]], self.start[i], self.end[i], self.parent[i],
                  self.op[i], int(self.failed[i])] for i in range(len(self.name))]
        with gzip.open(path, "wt") as f:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op", "failed"],
                       "names": names, "spans": spans}, f)


class PeakAlloc:
    """Peak tracemalloc bytes inside each NetworkGraph.run call, as a context
    manager around one operation. Kept apart from the span tracer because
    tracemalloc slows every allocation."""

    def __init__(self):
        self.peaks = []

    def __enter__(self):
        orig = network.NetworkGraph.__dict__["run"]
        peaks = self.peaks

        def run(graph, *args, **kwargs):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            out = orig(graph, *args, **kwargs)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
            return out

        self._orig = orig
        network.NetworkGraph.run = run
        tracemalloc.start()
        return self

    def __exit__(self, *exc):
        tracemalloc.stop()
        network.NetworkGraph.run = self._orig
        return False
