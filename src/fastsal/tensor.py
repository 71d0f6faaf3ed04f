"""Dense tensor type with tape-based reverse-mode differentiation.

Tensors wrap contiguous numpy arrays (logical N,C,H,W order for feature maps,
arbitrary rank allowed for parameter vectors and scalar losses). Operations
executed while a Tape is active are recorded and can be replayed in reverse to
produce gradients, once: the replay frees each node as it goes, so a saved
activation lives only until the backward no longer needs it, and a tape's
on_gradient hook gets each leaf's gradient as soon as it is final. The active
tape is per thread and per asyncio task.
Inference without an active tape records nothing and allocates no gradient
state: ops whose backward needs a mask work it out in the backward function.

A recorded op's output can be made rebuildable (rebuildable), as every
taped kernels.batch_norm output is: release() then drops its data, and
values() hands the same values back when a backward asks for them, rebuilt
from what the tape keeps anyway into the thread's rebuild array
(_Rebuilds). release() does nothing to any other tensor, so
network.NetworkGraph.run releases each input after its last reader. So a
backward reads an input's values only through values() (as relu6's and
kernels.conv2d's do) or from arrays captured in the forward, and takes
the input's shape at forward time.
"""

from __future__ import annotations

import math
import threading
from contextvars import ContextVar
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, NumericDomainError, ShapeError

# the tapes entered and not yet exited, innermost last; a context variable, so
# each thread (and each asyncio task) records only its own operations
_TAPE_STACK: ContextVar[tuple] = ContextVar("fastsal_tape_stack", default=())


def _active_tape():
    stack = _TAPE_STACK.get()
    return stack[-1] if stack else None


class _Rebuilds(threading.local):
    """A thread's memory for released values (Tensor.values): one array,
    rebuilt into by one replay at a time, as the replays of a thread run one
    after another. Tape.gradients sizes it to its tape's largest rebuildable
    output before it replays, so every step of a training run rebuilds into
    the same pages, and a tape of smaller outputs shrinks it; a tape with
    no rebuildable output leaves it as it is. A thread so keeps the array
    of the last tape it replayed that had one (1.2 MB for C at 4x3x48x64)
    until its end. A new array made for each replay instead was
    freed at the end of every backward, past glibc's heap trim threshold,
    and faulted in again by the next (about 2,000 pages an epoch)."""

    array = None
    held = None     # (fill, view) of the values the array holds

    def fit(self, nbytes):
        if self.array is None or self.array.nbytes != nbytes:
            self.array = None
            self.array = np.empty(nbytes, np.uint8)

    def rebuilt(self, fill, shape, dtype):
        """fill's values, of this shape and dtype, in the array. Values that
        tensors sharing one fill ask for again are not rebuilt, unless
        another fill has used the array since."""
        held = self.held
        if held is None or held[0] is not fill:
            nbytes = math.prod(shape) * dtype.itemsize
            if self.array is None or self.array.nbytes < nbytes:
                self.fit(nbytes)
            view = self.array[:nbytes].view(dtype).reshape(shape)
            fill(view)
            held = self.held = (fill, view)
        return held[1]


_REBUILDS = _Rebuilds()


class Tensor:
    """A dense numeric array plus whether gradients flow to it."""

    __slots__ = ("data", "requires_grad", "_rebuild")

    def __init__(self, data, requires_grad=False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data = np.ascontiguousarray(arr)
        self.requires_grad = bool(requires_grad)
        self._rebuild = None

    def values(self):
        """The tensor's values: its data or, once release() has dropped it,
        the same values rebuilt in the thread's rebuild array. A rebuilt
        array is valid until the next rebuild on the thread, so a backward
        reads it before it returns and returns nothing that views it."""
        if self.data is not None:
            return self.data
        return _REBUILDS.rebuilt(*self._rebuild)

    def release(self):
        """Drop the data of a rebuildable tensor (see rebuildable), which
        values() gives back; does nothing to any other tensor."""
        if self._rebuild is not None:
            self.data = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else None

    def detach(self):
        return Tensor(self.data, requires_grad=False)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    # arithmetic sugar; implementations live below as free functions
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(_as_tensor(other, self.dtype), self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(_as_tensor(other, self.dtype), self)

    def __neg__(self):
        return mul(self, -1.0)

    def __pow__(self, p):
        return power(self, p)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 else shape[0])


@dataclass
class TapeNode:
    op: str
    inputs: tuple
    output: object
    backward: object  # callable(grad_out) -> tuple of arrays aligned with inputs


class Tape:
    """Ordered record of gradient-contributing operations.

    Usable as a context manager; ops executed inside are appended in execution
    order, so replaying the node list reversed visits each consumer before its
    producers. Gradients accumulate additively when a tensor fans out. A tape
    replays once: gradients() frees each node as it replays it, so every
    activation, backward closure and input reference is released as soon as
    the backward no longer needs it, and the list keeps its length with None
    in each replayed slot.

    on_gradient, when given, is called as on_gradient(i, grad) with each
    leaf's gradient as soon as it is final, that is, once the last node that
    reads leaves[i] has replayed, and gradients() then returns None for that
    leaf. A caller can so fold each gradient into its own state while the
    backward runs and drop it, instead of holding all of them at the end.
    The hook must not write into grad; an exception it raises ends the
    replay.

    Released values (Tensor.release) are rebuilt in the thread's rebuild
    array (_Rebuilds), sized to reserved, the bytes of the tape's largest
    rebuildable output, when the replay starts. The array holds no value
    once the replay ends, or stops on an exception.
    """

    def __init__(self, on_gradient=None):
        self.nodes: list[TapeNode] = []
        self.on_gradient = on_gradient
        self.reserved = 0

    def __enter__(self):
        _TAPE_STACK.set(_TAPE_STACK.get() + (self,))
        return self

    def __exit__(self, *exc):
        _TAPE_STACK.set(_TAPE_STACK.get()[:-1])
        return False

    def record(self, op, inputs, output, backward_fn):
        self.nodes.append(TapeNode(op, tuple(inputs), output, backward_fn))

    def gradients(self, loss, leaves):
        """Gradient of a scalar loss w.r.t. each leaf, by replaying the nodes
        in reverse; zeros for leaves the loss does not depend on. A leaf's
        gradient is final once the last node that reads it has replayed
        (whether or not that node's output got a gradient), or before the
        replay for a leaf no node reads. Then it goes to the tape's
        on_gradient hook, if any, and the returned list holds None in its
        place. A leaf that is also an op's output gets its gradient all the
        same, and still passes it on to the op that made it. Frees each node
        after replaying it; a second call raises ContractError."""
        if loss.data.size != 1:
            raise ContractError(f"gradients need a scalar loss, got shape {loss.shape}")
        nodes = self.nodes
        if nodes and nodes[-1] is None:
            raise ContractError("this tape has already been replayed; record a new one")
        # grads is keyed by id(). An entry is popped when its producer node
        # replays, and that node holds the tensor until then; an entry that
        # no node produced is the loss's or a leaf's, which the caller holds.
        # So every id in grads belongs to a live tensor, and as no backward
        # closure creates a Tensor, no other tensor can take that id.
        grads = {id(loss): np.ones_like(loss.data)}
        hook = self.on_gradient
        out = [None] * len(leaves)
        slots = {}
        for i, leaf in enumerate(leaves):
            slots.setdefault(id(leaf), []).append(i)
        # readers[id] counts the node inputs that are that leaf; produced
        # holds the leaves that are also an op's output
        readers, produced = dict.fromkeys(slots, 0), set()
        for node in nodes:
            for tensor in node.inputs:
                if id(tensor) in readers:
                    readers[id(tensor)] += 1
            if id(node.output) in slots:
                produced.add(id(node.output))

        def finish(key):
            # a produced leaf's entry stays for its producer node to pop
            g = grads.get(key) if key in produced else grads.pop(key, None)
            for i in slots[key]:
                gi = g if g is not None else np.zeros_like(leaves[i].data)
                if hook is None:
                    out[i] = gi
                else:
                    hook(i, gi)

        for key in [key for key, count in readers.items() if not count]:
            finish(key)
        if self.reserved:
            _REBUILDS.fit(self.reserved)
        try:
            for k in reversed(range(len(nodes))):
                node = nodes[k]
                nodes[k] = None
                gout = grads.pop(id(node.output), None)
                if gout is not None:
                    gins = node.backward(gout)
                    for tensor, gin in zip(node.inputs, gins):
                        if gin is None or not tensor.requires_grad:
                            continue
                        acc = grads.get(id(tensor))
                        grads[id(tensor)] = gin if acc is None else acc + gin
                for tensor in node.inputs:
                    key = id(tensor)
                    if key in readers:
                        readers[key] -= 1
                        if not readers[key]:
                            finish(key)
        finally:
            _REBUILDS.held = None
        return out


def _as_tensor(x, dtype):
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype), requires_grad=False)


def apply_op(name, inputs, out_data, backward_fn):
    """Wrap a forward result; record on the active tape when gradients flow."""
    out = Tensor.__new__(Tensor)
    out.data = out_data
    out.requires_grad = any(t.requires_grad for t in inputs)
    out._rebuild = None
    tape = _active_tape()
    if tape is not None and out.requires_grad:
        tape.record(name, inputs, out, backward_fn)
    return out


def rebuildable(out, fill):
    """Let out, the output of the op just recorded on the active tape, be
    released (Tensor.release) and rebuilt: fill(buf) must write out's values
    into buf bit for bit, from arrays that the op's backward keeps anyway.
    The tape's replay makes room for out in the thread's rebuild array. Does
    nothing to an output that no tape recorded, which its last reader frees
    in any case."""
    tape = _active_tape()
    if tape is not None and out.requires_grad:
        tape.reserved = max(tape.reserved, out.data.nbytes)
        out._rebuild = (fill, out.shape, out.dtype)
    return out


def _unbroadcast(grad, shape):
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise arithmetic
# ---------------------------------------------------------------------------

def add(a, b):
    b = _as_tensor(b, a.dtype)
    out = a.data + b.data
    sa, sb = a.shape, b.shape

    def bwd(g):
        return _unbroadcast(g, sa), _unbroadcast(g, sb)

    return apply_op("add", (a, b), out, bwd)


def sub(a, b):
    b = _as_tensor(b, a.dtype)
    out = a.data - b.data
    sa, sb = a.shape, b.shape

    def bwd(g):
        return _unbroadcast(g, sa), -_unbroadcast(g, sb)

    return apply_op("sub", (a, b), out, bwd)


def mul(a, b):
    b = _as_tensor(b, a.dtype)
    out = a.data * b.data
    ad, bd = a.data, b.data

    def bwd(g):
        return _unbroadcast(g * bd, ad.shape), _unbroadcast(g * ad, bd.shape)

    return apply_op("mul", (a, b), out, bwd)


def div(a, b):
    b = _as_tensor(b, a.dtype)
    out = a.data / b.data
    ad, bd = a.data, b.data

    def bwd(g):
        return (_unbroadcast(g / bd, ad.shape),
                _unbroadcast(-g * ad / (bd * bd), bd.shape))

    return apply_op("div", (a, b), out, bwd)


def power(a, p):
    out = a.data ** p
    ad = a.data

    def bwd(g):
        return (g * p * ad ** (p - 1),)

    return apply_op("pow", (a,), out, bwd)


def log(a):
    if np.any(a.data <= 0):
        raise NumericDomainError("log requires strictly positive input")
    out = np.log(a.data)
    ad = a.data

    def bwd(g):
        return (g / ad,)

    return apply_op("log", (a,), out, bwd)


def exp(a):
    out = np.exp(a.data)

    def bwd(g):
        return (g * out,)

    return apply_op("exp", (a,), out, bwd)


def sqrt(a):
    out = np.sqrt(a.data)

    def bwd(g):
        return (g * 0.5 / out,)

    return apply_op("sqrt", (a,), out, bwd)


def clip(a, lo, hi):
    out = np.clip(a.data, lo, hi)
    ad = a.data

    def bwd(g):
        return (g * ((ad > lo) & (ad < hi)),)

    return apply_op("clip", (a,), out, bwd)


def sigmoid(a):
    out = 1.0 / (1.0 + np.exp(-a.data))

    def bwd(g):
        return (g * out * (1.0 - out),)

    return apply_op("sigmoid", (a,), out, bwd)


def relu6(a, inplace=False):
    """Clip to [0, 6]. With inplace=True the result is written into a's own
    buffer, so a reads as clipped from then on; the caller must be the only
    reader of a. The backward mask is the same either way, since
    0 < clip(x) < 6 exactly when 0 < x < 6, and the backward reads a
    through a.values(). When a is rebuildable, an in-place result is too,
    and both rebuild as clipped, which is what their shared buffer holds."""
    out = np.clip(a.data, 0.0, 6.0, out=a.data if inplace else None)

    def bwd(g):
        ad = a.values()
        return (g * ((ad > 0.0) & (ad < 6.0)),)

    y = apply_op("relu6", (a,), out, bwd)
    if inplace and a._rebuild is not None:
        fill, shape, dtype = a._rebuild

        def clipped(buf):
            fill(buf)
            np.clip(buf, 0.0, 6.0, out=buf)

        a._rebuild = y._rebuild = (clipped, shape, dtype)
    return y


# ---------------------------------------------------------------------------
# reductions and reshapes
# ---------------------------------------------------------------------------

def tsum(a, axis=None, keepdims=False):
    out = a.data.sum(axis=axis, keepdims=keepdims)
    shape = a.shape

    def bwd(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape).copy(),)

    return apply_op("sum", (a,), np.asarray(out), bwd)


def tmean(a, axis=None, keepdims=False):
    out = a.data.mean(axis=axis, keepdims=keepdims)
    shape = a.shape
    n = a.data.size if axis is None else np.prod(
        [shape[ax] for ax in (axis if isinstance(axis, tuple) else (axis,))])

    def bwd(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape) / n,)

    return apply_op("mean", (a,), np.asarray(out), bwd)


def reshape(a, shape):
    out = a.data.reshape(shape)
    orig = a.shape

    def bwd(g):
        return (g.reshape(orig),)

    return apply_op("reshape", (a,), out, bwd)


def columns(a, start, stop):
    """Columns start:stop of a 2-D tensor, as a contiguous copy."""
    out = np.ascontiguousarray(a.data[:, start:stop])
    shape = a.shape

    def bwd(g):
        ga = np.zeros(shape, dtype=g.dtype)
        ga[:, start:stop] = g
        return (ga,)

    return apply_op("columns", (a,), out, bwd)


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def matmul(a, b):
    """Matrix product of a 2-D a with a 2-D b, or matrix-vector product with
    a 1-D b."""
    if a.data.ndim != 2 or b.data.ndim not in (1, 2) or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul takes a 2-D and a 1-D or 2-D operand with "
                         f"matching inner sizes, got {a.shape} and {b.shape}")
    out = np.matmul(a.data, b.data)
    ad, bd = a.data, b.data

    def bwd(g):
        ga = np.outer(g, bd) if bd.ndim == 1 else np.matmul(g, bd.T)
        return ga, np.matmul(ad.T, g)

    return apply_op("matmul", (a, b), out, bwd)


# ---------------------------------------------------------------------------
# gradient verification
# ---------------------------------------------------------------------------

@dataclass
class GradCheckReport:
    max_rel_err: float
    tolerance: float
    passed: bool
    checked: int = 0


def grad_check(fn, x, step=1e-4, tolerance=1e-4):
    """Compare the taped gradient of a scalar-valued fn against central finite
    differences, elementwise over x. Runs at the precision of x (use float64
    inputs for tight tolerances)."""
    x64 = Tensor(x.data.astype(np.float64), requires_grad=True)
    with Tape() as tape:
        y = fn(x64)
    if y.data.size != 1:
        raise ContractError("grad_check requires fn to produce a scalar")
    if not np.all(np.isfinite(y.data)):
        raise NumericDomainError("fn produced a non-finite value")
    analytic = tape.gradients(y, [x64])[0]

    numeric = np.zeros_like(x64.data)
    flat = x64.data.reshape(-1)
    nflat = numeric.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        yp = fn(Tensor(x64.data, requires_grad=False)).data.reshape(-1)[0]
        flat[i] = orig - step
        ym = fn(Tensor(x64.data, requires_grad=False)).data.reshape(-1)[0]
        flat[i] = orig
        nflat[i] = (yp - ym) / (2.0 * step)

    denom = np.abs(analytic).max() + np.abs(numeric).max() + 1e-12
    max_rel = float(np.abs(analytic - numeric).max() / denom)
    return GradCheckReport(max_rel_err=max_rel, tolerance=tolerance,
                           passed=max_rel <= tolerance, checked=flat.size)
