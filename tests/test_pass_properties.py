"""Seeded random checks of the graph passes over random variants, widths,
input shapes, taps, BN statistics and conv biases. fold_batch_norm and
collapse_linear_tail keep the outputs and taps within 1e-5 relative;
clip_in_place and subgraph keep them bit for bit; under a tape, the
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
from fastsal.network import (build_fastsal, clip_in_place, collapse_linear_tail,
                             fold_batch_norm, init_weights, prepare_inference, subgraph,
                             trainable_slots)
from fastsal.tensor import Tape, Tensor
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
            cg = _checked(clip_in_place, g, keep)
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
    return clip_in_place(cg), cs


def _hint(graph, store):
    return clip_in_place(subgraph(graph, ADAPT_LAYERS), ADAPT_LAYERS), store


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
    for rewrite in (lambda g, s: (clip_in_place(g), s), _fine_tune):
        _same_grads(paper, _taped(rewrite, graph, store(), x, salgan))
    paper = _taped(_paper, graph, store(), x, hint, ADAPT_LAYERS)
    _same_grads(paper, _taped(_hint, graph, store(), x, hint, ADAPT_LAYERS))
