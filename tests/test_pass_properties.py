"""Seeded random checks of the graph passes over random variants, widths,
input shapes, taps, BN statistics and conv biases. fold_batch_norm and
collapse_linear_tail keep the outputs and taps within 1e-5 relative;
write_in_place and subgraph keep them bit for bit; under a tape, the
float64 gradients on the paper slots stay within 1e-5 relative; and no
pass changes its input graph or copies a layer it does not rewrite.

The draws are plain seeded numpy loops, so the tests need nothing beyond
numpy and pytest."""

import copy
from dataclasses import replace

import numpy as np
import pytest

from conftest import randomize_weights
from fastsal import distill
from fastsal.network import (RUNNING_STATS, LayerSpec, NetworkGraph, build_fastsal,
                             collapse_linear_tail, fold_batch_norm, init_weights,
                             prepare_inference, subgraph, trainable_slots, write_in_place)
from fastsal.tensor import Tape, Tensor, grad_check
from fastsal.trainer import ADAPT_LAYERS

WIDTHS = (0.25, 0.35, 0.5, 0.75, 1.0)


def _with_random_taps(graph, rng, k=4):
    """The graph with k more layers, drawn at random, marked as taps."""
    names = {str(n) for n in rng.choice([l.name for l in graph.layers[:-1]], k,
                                        replace=False)}
    layers = [replace(l, tap=True) if l.name in names else l for l in graph.layers]
    return replace(graph, layers=layers)


def _case(seed, shape=None, dtype=np.float32):
    """A random variant, width, input shape (unless given) and extra taps,
    with random BN statistics and conv biases."""
    rng = np.random.default_rng(seed)
    if shape is None:
        shape = (int(rng.integers(1, 3)), 3,
                 32 * int(rng.integers(1, 4)), 32 * int(rng.integers(1, 4)))
    graph = build_fastsal(("C", "A")[seed % 2], shape, width=float(rng.choice(WIDTHS)))
    graph = _with_random_taps(graph, rng)
    store = randomize_weights(init_weights(graph, seed=seed, dtype=dtype), seed=seed + 1)
    x = Tensor(rng.normal(size=shape).astype(dtype))
    return graph, store, x, rng


def _outputs(graph, store, x, want=()):
    """The output, the taps in layer order, then the wanted layers that the
    graph has, by name."""
    res = graph.run(store, x, want=list(want) + graph.taps)
    return [res["out"].data] + [res[t].data for t in graph.taps] + [
        res[k].data for k in sorted(set(want)) if k in res]


def _rel_err(out, ref):
    return np.abs(out - ref).max() / (np.abs(ref).max() + 1e-12)


def _checked(rewrite, graph, *args):
    """rewrite(graph, *args), checking that the input graph is unchanged and
    that every layer the pass did not rewrite (same spec, and for a graph and
    store pass the same weight tensors) is the input's own LayerSpec."""
    before = copy.deepcopy(graph)
    out = rewrite(graph, *args)
    new, rewritten = out, set()
    if isinstance(out, tuple):
        new, new_store = out
        rewritten = {k.rsplit(".", 1)[0] for k in new_store.names()
                     if new_store.get(k) is not args[0].tensors.get(k)}
    assert graph == before
    old = {l.name: l for l in graph.layers}
    for l in new.layers:
        if l == old.get(l.name) and l.name not in rewritten:
            assert l is old[l.name], l.name
    return out


CASES = [(seed, None) for seed in range(8)] + [(8, (3, 3, 224, 320))]


@pytest.mark.parametrize("seed,shape", CASES)
def test_fold_and_collapse_keep_outputs(seed, shape):
    graph, store, x, _ = _case(seed, shape)
    ref = _outputs(graph, store, x)
    fg, fs = _checked(fold_batch_norm, graph, store)
    cg, cs = _checked(collapse_linear_tail, fg, fs)
    pg, ps = prepare_inference(graph, store)
    for g, s in ((fg, fs), (cg, cs), _checked(collapse_linear_tail, graph, store), (pg, ps)):
        got = _outputs(g, s, x)
        assert len(got) == len(ref)
        for a, b in zip(got, ref):
            assert a.shape == b.shape and _rel_err(a, b) < 1e-5


@pytest.mark.parametrize("seed,shape", CASES)
def test_clip_and_subgraph_keep_outputs_bit_for_bit(seed, shape):
    graph, store, x, rng = _case(seed, shape)
    want = [str(n) for n in rng.choice([l.name for l in graph.layers], 3, replace=False)]
    for g, s in (collapse_linear_tail(*fold_batch_norm(graph, store)), (graph, store)):
        ref = _outputs(g, s, x, want)
        for keep in ((), want):
            cg = _checked(write_in_place, g, keep)
            # a caller passes what it asks run() for as keep; the output and
            # the taps are never clipped
            got = _outputs(cg, s, x, keep)
            for a, b in zip(got, ref[:len(got)]):
                np.testing.assert_array_equal(a, b)
    ref = graph.run(store, x, want=want)
    sub = _checked(subgraph, graph, want)
    got = sub.run(store, x, want=want)
    assert got["out"] is not None and sub.layers[-1].name in want
    for k in want:
        np.testing.assert_array_equal(got[k].data, ref[k].data)


def _paper(graph, store):
    return graph, store


def _fine_tune(graph, store):
    cg, cs = collapse_linear_tail(graph, store)
    return write_in_place(cg), cs


def _hint(graph, store):
    return write_in_place(subgraph(graph, ADAPT_LAYERS), ADAPT_LAYERS), store


def _taped(rewrite, graph, store, x, loss_fn, want=()):
    """Loss and gradient on every trainable slot of one training-mode forward
    of rewrite(graph, store), run under the same tape."""
    slots = trainable_slots(store)
    for k in slots:
        store.get(k).requires_grad = True
    with Tape() as tape:
        g, s = rewrite(graph, store)
        loss = loss_fn(g.run(s, x, training=True, want=want))
    return loss.data, tape.gradients(loss, [store.get(k) for k in slots])


def _same_grads(a, b):
    (loss0, ref), (loss1, got) = a, b
    assert _rel_err(loss1, loss0) < 1e-12
    scale = max(np.abs(g).max() for g in ref)
    assert scale > 0
    for g0, g1 in zip(ref, got):
        assert np.abs(g1 - g0).max() <= 1e-5 * max(np.abs(g0).max(), 1e-9 * scale)


@pytest.mark.parametrize("seed", range(4))
def test_taped_gradients_match_paper_graph(seed):
    rng = np.random.default_rng(100 + seed)
    shape = (2, 3, 32 * int(rng.integers(1, 3)), 32 * int(rng.integers(1, 3)))
    graph, _, x, rng = _case(seed, shape, np.float64)
    gt, pseudo = (Tensor(rng.uniform(0.05, 0.95, (shape[0], 1) + shape[2:])) for _ in "ab")
    shapes = graph.infer_shapes()
    teacher = [Tensor(rng.normal(size=shapes[n])) for n in ADAPT_LAYERS]

    def store():
        # a fresh copy of the same weights per run, since training-mode bn
        # updates its running statistics
        return _case(seed, shape, np.float64)[1]

    def salgan(res):
        return distill.salgan_loss(res["out"], gt=gt, pseudo=pseudo)

    def hint(res):
        return distill.hint_loss([res[n] for n in ADAPT_LAYERS], teacher)

    paper = _taped(_paper, graph, store(), x, salgan)
    for rewrite in (lambda g, s: (write_in_place(g), s), _fine_tune):
        _same_grads(paper, _taped(rewrite, graph, store(), x, salgan))
    paper = _taped(_paper, graph, store(), x, hint, ADAPT_LAYERS)
    _same_grads(paper, _taped(_hint, graph, store(), x, hint, ADAPT_LAYERS))


def _stripped(graph):
    """The graph with every write_in_place mark taken off."""
    return replace(graph, layers=[
        replace(l, params={k: v for k, v in l.params.items() if k != "inplace"})
        for l in graph.layers])


TRAIN_CASES = [pytest.param(seed, variant, shape, id=f"{variant}-{'x'.join(map(str, shape))}")
               for seed, (variant, shape) in enumerate(
                   (v, s) for v in "CA" for s in ((4, 3, 48, 64), (2, 3, 64, 96)))]


@pytest.mark.parametrize("seed,variant,shape", TRAIN_CASES)
def test_bn_in_place_keeps_training_step_bit_for_bit(seed, variant, shape):
    # float32 training graphs (fine-tune and hint) with random BN statistics
    # and biases: with their bn layers centring the conv output in place,
    # the loss, every taped gradient and the updated BN running statistics
    # are those of the graph with the marks stripped
    rng = np.random.default_rng(200 + seed)
    graph = build_fastsal(variant, shape, width=float(rng.choice(WIDTHS)))
    x = Tensor(rng.normal(size=shape).astype(np.float32))
    gt, pseudo = (Tensor(rng.uniform(0.05, 0.95, (shape[0], 1) + shape[2:]).astype(np.float32))
                  for _ in "ab")
    shapes = graph.infer_shapes()
    teacher = [Tensor(rng.normal(size=shapes[n]).astype(np.float32)) for n in ADAPT_LAYERS]

    def salgan(res):
        return distill.salgan_loss(res["out"], gt=gt, pseudo=pseudo)

    def hint(res):
        return distill.hint_loss([res[n] for n in ADAPT_LAYERS], teacher)

    for rewrite, loss_fn, want in ((_fine_tune, salgan, ()), (_hint, hint, ADAPT_LAYERS)):
        runs = []
        for strip in (False, True):
            store = randomize_weights(init_weights(graph, seed=seed), seed=seed + 1)

            def marked(g, s):
                rg, rs = rewrite(g, s)
                bns = [l for l in rg.layers if l.kind == "bn"]
                assert bns and all(l.params.get("inplace") for l in bns)
                return (_stripped(rg) if strip else rg), rs

            loss, grads = _taped(marked, graph, store, x, loss_fn, want)
            stats = [store.get(k).data for k in store.names() if k.endswith(RUNNING_STATS)]
            runs.append((loss, grads, stats))
        (loss0, grads0, stats0), (loss1, grads1, stats1) = runs
        np.testing.assert_array_equal(loss0, loss1)
        assert len(grads0) == len(grads1) and len(stats0) == len(stats1) > 0
        for a, b in zip(grads0 + stats0, grads1 + stats1):
            np.testing.assert_array_equal(a, b)


def test_grad_check_through_marked_conv_bn_relu6():
    # float64: conv -> bn -> relu6 -> 1x1 conv with the bn centring the conv
    # output in place and the relu6 clipping the bn output in place
    conv = dict(stride=(1, 1), padding=(1, 1), groups=1, bias=True)
    graph = NetworkGraph([
        LayerSpec("c", "conv", ["input"], dict(conv, out_ch=4, kernel=(3, 3))),
        LayerSpec("b", "bn", ["c"]),
        LayerSpec("r", "relu6", ["b"]),
        LayerSpec("out", "conv", ["r"], dict(conv, out_ch=1, kernel=(1, 1), padding=(0, 0))),
    ], input_shape=(2, 2, 4, 5))
    marked = write_in_place(graph)
    assert [l.name for l in marked.layers if l.params.get("inplace")] == ["b", "r"]
    store = randomize_weights(init_weights(graph, seed=1, dtype=np.float64), seed=2)
    store.get("b.gamma").data[:] *= 3.0
    x = Tensor(np.random.default_rng(3).normal(size=graph.input_shape))
    rep = grad_check(lambda t: (marked.run(store, t, training=True)["out"] ** 2).mean(), x,
                     step=1e-6, tolerance=1e-6)
    assert rep.passed, rep.max_rel_err
