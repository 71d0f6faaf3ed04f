import copy
import gc
import importlib.util
import os
import weakref
from dataclasses import replace

import numpy as np
import pytest

from conftest import every_layer, inplace_spy, randomize_weights, written_in_place
from fastsal import network as net
from fastsal import analyzer, distill, kernels, tensor
from fastsal.errors import (ConfigError, ContractError, ParseError, ShapeError,
                            WeightStoreError)
from fastsal.network import (LayerSpec, NetworkGraph, WeightStore,
                             build_backbone, build_fastsal, check_weights,
                             collapse_linear_tail, fold_batch_norm, init_weights,
                             load_weights, prepare_inference, save_weights,
                             trainable_slots)
from fastsal.tensor import Tape, Tensor
from fastsal.trainer import ADAPT_LAYERS


@pytest.fixture(scope="module")
def backbone_small():
    graph = build_backbone((1, 3, 48, 64), width=0.25)
    return graph, init_weights(graph, seed=0)


@pytest.fixture(scope="module")
def fastsal_small():
    graph = build_fastsal("C", (1, 3, 48, 64), width=0.25)
    return graph, init_weights(graph, seed=0)


class TestBackboneStructure:
    def test_eighteen_taps(self):
        graph = build_backbone((1, 3, 192, 256))
        assert len(graph.taps) == 18

    def test_tap_names(self):
        # the stem, then each block's residual add where it has one and its
        # projection bn otherwise
        graph = build_fastsal("C", (1, 3, 192, 256))
        with_add = {3, 5, 6, 8, 9, 10, 12, 13, 15, 16}
        assert graph.taps == ["backbone.stem.relu"] + [
            f"backbone.b{i}.add" if i in with_add else f"backbone.b{i}.project.bn"
            for i in range(1, 18)]
        assert graph.taps == [l.name for l in graph.layers if l.tap]

    def test_tap_scale_schedule(self):
        graph = build_backbone((1, 3, 192, 256))
        shapes = graph.infer_shapes()
        hw = [shapes[t][2:] for t in graph.taps]
        assert hw[:2] == [(96, 128)] * 2
        assert hw[2:4] == [(48, 64)] * 2
        assert hw[4:7] == [(24, 32)] * 3
        assert hw[7:14] == [(12, 16)] * 7
        assert hw[14:] == [(6, 8)] * 4

    def test_tap_channels(self):
        graph = build_backbone((1, 3, 192, 256))
        shapes = graph.infer_shapes()
        ch = [shapes[t][1] for t in graph.taps]
        assert ch == [32, 16, 24, 24, 32, 32, 32,
                      64, 64, 64, 64, 96, 96, 96, 160, 160, 160, 320]

    def test_parameter_count(self):
        graph = build_backbone((1, 3, 192, 256))
        store = init_weights(graph)
        assert sum(store.get(k).size for k in net.trainable_slots(store)) == 1_811_712

    def test_rejects_bad_size(self):
        with pytest.raises(ConfigError):
            build_backbone((1, 3, 50, 64))

    def test_forward_and_tap_collection(self, backbone_small):
        graph, store = backbone_small
        x = Tensor(np.random.default_rng(0).normal(size=(1, 3, 48, 64))
                   .astype(np.float32))
        res = graph.run(store, x, want=graph.taps)
        assert len(graph.taps) == 18
        assert all(np.all(np.isfinite(res[t].data)) for t in graph.taps)

    def test_run_shapes_match_inference(self):
        x = Tensor(np.zeros((1, 3, 48, 64), dtype=np.float32))
        for variant in ("C", "A"):
            graph = build_fastsal(variant, (1, 3, 48, 64), width=0.25)
            res = graph.run(init_weights(graph), x,
                            want=[l.name for l in graph.layers])
            shapes = graph.infer_shapes()
            assert len(res) == len(graph.layers) + 1
            for name, t in res.items():
                if name != "out":
                    assert t.shape == shapes[name]


class TestFeatureBlocks:
    def test_block_channels_full_width(self):
        graph = build_fastsal("C", (1, 3, 192, 256))
        shapes = graph.infer_shapes()
        ch = [shapes[f"blocks.b{i}"][1] for i in range(1, 5)]
        assert ch == [96, 96, 544, 800]
        assert sum(ch) == 1536

    def test_block_scales(self):
        graph = build_fastsal("C", (1, 3, 192, 256))
        shapes = graph.infer_shapes()
        hw = [shapes[f"blocks.b{i}"][2:] for i in range(1, 5)]
        assert hw == [(48, 64), (24, 32), (12, 16), (6, 8)]

    def test_run_returns_grouped_blocks(self, fastsal_small):
        graph, store = fastsal_small
        x = Tensor(np.random.default_rng(1).normal(size=(1, 3, 48, 64))
                   .astype(np.float32))
        names = [f"blocks.b{i}" for i in range(1, 5)]
        res = graph.run(store, x, want=names)
        lst = [res[n] for n in names]
        assert len(lst) == 4
        # finest block is H/4 of the 48x64 input
        assert lst[0].shape[2:] == (12, 16)
        assert lst[-1].shape[2:] == (2, 2)


class TestFullModel:
    @pytest.mark.parametrize("variant", ["C", "A"])
    def test_output_is_one_logit_channel_at_input_size(self, variant):
        graph = build_fastsal(variant, (1, 3, 48, 64), width=0.25)
        store = init_weights(graph, seed=1)
        x = Tensor(np.random.default_rng(2).normal(size=(1, 3, 48, 64))
                   .astype(np.float32))
        out = graph.run(store, x)["out"]
        assert out.shape == (1, 1, 48, 64)
        assert np.all(np.isfinite(out.data))

    def test_bad_variant(self):
        with pytest.raises(ConfigError):
            build_fastsal("X", (1, 3, 48, 64))

    def test_deterministic_forward(self, fastsal_small):
        graph, store = fastsal_small
        x = Tensor(np.random.default_rng(3).normal(size=(1, 3, 48, 64))
                   .astype(np.float32))
        a = graph.run(store, x)["out"]
        b = graph.run(store, x)["out"]
        np.testing.assert_array_equal(a.data, b.data)

    def test_init_seed_controls_weights(self, fastsal_small):
        graph, _ = fastsal_small
        s0 = init_weights(graph, seed=0)
        s0b = init_weights(graph, seed=0)
        s1 = init_weights(graph, seed=1)
        name = "decoder.out.w"
        np.testing.assert_array_equal(s0.get(name).data, s0b.get(name).data)
        assert not np.array_equal(s0.get(name).data, s1.get(name).data)


def mir_graph(din, dout, input_shape, fuse=None):
    """The decoder's modified inverted residual as a graph. With fuse, the
    block reads the layer that fuse(builder) emits instead of the input."""
    b = net._Builder()
    inp = "input"
    if fuse is not None:
        inp = fuse(b)
    net._mir_layers(b, "mir", inp, din, dout)
    return NetworkGraph(b.layers, input_shape=input_shape)


def fuse_relu6_sigmoid(b):
    """Two stand-ins for a level's features and the resized previous level,
    summed by an add layer as in the A decoder."""
    level = b.emit("level", "relu6", ["input"])
    prev = b.emit("prev", "sigmoid", ["input"])
    return b.emit("fuse", "add", [level, prev])


class TestModifiedInvertedResidual:
    def _rand(self, shape, seed):
        return Tensor(np.random.default_rng(seed).normal(size=shape)
                      .astype(np.float32))

    def test_preserves_spatial_size(self):
        graph = mir_graph(8, 4, (1, 8, 6, 6))
        out = graph.run(init_weights(graph), self._rand((1, 8, 6, 6), 1))["out"]
        assert out.shape == (1, 4, 6, 6)

    def test_skip_when_channels_match(self):
        graph = mir_graph(4, 4, (1, 4, 5, 5))
        store = init_weights(graph, seed=2)
        # zero all conv weights: with the skip the block becomes identity
        for name in list(store.names()):
            if name.endswith(".w"):
                store.put(name, Tensor(np.zeros_like(store.get(name).data)))
        x = self._rand((1, 4, 5, 5), 3)
        out = graph.run(store, x)["out"]
        np.testing.assert_allclose(out.data, x.data, atol=1e-6)

    def test_previous_level_is_added(self):
        fused_graph = mir_graph(4, 4, (1, 4, 5, 5), fuse=fuse_relu6_sigmoid)
        plain_graph = mir_graph(4, 4, (1, 4, 5, 5))
        store = init_weights(plain_graph, seed=4)
        x = self._rand((1, 4, 5, 5), 5)
        fused = fused_graph.run(store, x)["out"]
        s = np.clip(x.data, 0, 6) + 1 / (1 + np.exp(-x.data))
        manual = plain_graph.run(store, Tensor(s.astype(np.float32)))["out"]
        np.testing.assert_allclose(fused.data, manual.data, rtol=1e-6)

    def test_shape_mismatch(self):
        def fuse_pooled(b):
            prev = b.emit("prev", "avg-pool", ["input"], k=2)
            return b.emit("fuse", "add", ["input", prev])

        graph = mir_graph(4, 4, (1, 4, 6, 6), fuse=fuse_pooled)
        with pytest.raises(ShapeError, match="fuse"):
            graph.infer_shapes()
        store = init_weights(mir_graph(4, 4, (1, 4, 6, 6)))
        with pytest.raises(ShapeError, match="fuse"):
            graph.run(store, Tensor(np.zeros((1, 4, 6, 6), dtype=np.float32)))

    def test_param_count_at_width_64(self):
        # expansion 2 with biased convs and affine bn:
        # expand 64*128+128, dw 9*128+128, project 128*64+64, bn 2*(128+128+64)
        graph = mir_graph(64, 64, (1, 64, 6, 6))
        assert analyzer.analyze(graph).total_params == 18_496
        store = init_weights(graph)
        assert sum(store.get(k).size for k in net.trainable_slots(store)) == 18_496


class TestRunLiveness:
    @pytest.mark.parametrize("want,alive", [
        ((), [0, 0, 0, 0, 0]),
        (("r1",), [0, 0, 0, 1, 1]),
        (("taps",), [0, 0, 0, 1, 1]),
    ])
    def test_activation_dropped_after_last_reader(self, want, alive, monkeypatch):
        # a chain r0 -> ... -> r4 with r1 tapped: when r_k runs, the outputs
        # before its input are dead unless they were asked for; ("taps",)
        # stands for want=graph.taps
        layers = [LayerSpec(f"r{k}", "relu6", [f"r{k - 1}" if k else "input"], tap=k == 1)
                  for k in range(5)]
        graph = NetworkGraph(layers, input_shape=(1, 2, 3, 3))
        if want == ("taps",):
            want = graph.taps
            assert want == ["r1"]
        outs, seen = [], []
        relu6 = tensor.relu6

        def recording(x, **kwargs):
            seen.append(sum(r() is not None for r in outs[:-1]))
            y = relu6(x, **kwargs)
            outs.append(weakref.ref(y.data))
            return y

        monkeypatch.setattr(tensor, "relu6", recording)
        x = Tensor(np.linspace(-1, 8, 18, dtype=np.float32).reshape(1, 2, 3, 3))
        res = graph.run(WeightStore(), x, want=want)
        assert seen == alive
        np.testing.assert_array_equal(res["out"].data, np.clip(x.data, 0, 6))
        if want:
            np.testing.assert_array_equal(res["r1"].data, np.clip(x.data, 0, 6))


class TestLayerKinds:
    @pytest.mark.parametrize("other", [(1, 4, 3, 3), (1, 4, 1, 1)])
    def test_add_rejects_mismatched_shapes(self, other):
        # (1,4,1,1) would broadcast silently without the check
        k = 6 // other[2]
        graph = NetworkGraph([LayerSpec("pool", "avg-pool", ["input"], {"k": k}),
                              LayerSpec("sum", "add", ["input", "pool"])],
                             input_shape=(1, 4, 6, 6))
        with pytest.raises(ShapeError, match="layer 'sum'"):
            graph.infer_shapes()
        x = Tensor(np.ones((1, 4, 6, 6), dtype=np.float32))
        with pytest.raises(ShapeError, match="layer 'sum'"):
            graph.run(WeightStore(), x)

    @pytest.mark.parametrize("groups", [1, 4], ids=["dense", "depthwise"])
    @pytest.mark.parametrize("stride,padding", [((0, 1), (1, 1)), ((1, 1), (-1, -1))],
                             ids=["stride0", "pad-1"])
    def test_conv_rejects_bad_stride_or_padding(self, stride, padding, groups):
        # a zero stride divided by zero, and a negative padding was inferred
        graph = NetworkGraph([LayerSpec("c", "conv", ["input"], {
            "out_ch": 4, "kernel": (3, 3), "stride": stride, "padding": padding,
            "groups": groups})], input_shape=(1, 4, 6, 6))
        for call in (graph.infer_shapes, lambda: analyzer.analyze(graph),
                     lambda: init_weights(graph)):
            with pytest.raises(ConfigError, match="layer 'c': conv stride .* must be >= 1"):
                call()

    def test_conv_kernel_must_fit(self):
        graph = NetworkGraph([LayerSpec("c", "conv", ["input"], {
            "out_ch": 4, "kernel": (5, 5), "stride": (1, 1), "padding": (0, 0)})],
            input_shape=(1, 2, 3, 8))
        with pytest.raises(ShapeError, match="layer 'c': kernel 5x5 does not fit"):
            graph.infer_shapes()

    @pytest.mark.parametrize("kind,params,error,match", [
        ("avg-pool", {"k": 0}, ConfigError, "pool size must be >= 1, got 0"),
        ("avg-pool", {"k": -2}, ConfigError, "pool size must be >= 1, got -2"),
        ("avg-pool", {"k": 4}, ShapeError, "4x6 not divisible by pool size 4"),
        ("pixel-shuffle", {"r": 0}, ConfigError, "r=0 must be >= 1"),
        ("pixel-shuffle", {"r": 3}, ConfigError, "r=3 must be >= 1 and r.2 must divide 4"),
        ("resize", {"out_h": 0, "out_w": -3}, ShapeError, "target size must be >= 1, got 0x-3"),
        ("resize", {"out_h": 2, "out_w": 0}, ShapeError, "target size must be >= 1, got 2x0"),
    ], ids=["pool-k0", "pool-k-2", "pool-indivisible", "shuffle-r0", "shuffle-indivisible",
            "resize-0x-3", "resize-2x0"])
    def test_shape_rule_rejects_what_the_kernel_rejects(self, kind, params, error, match):
        # each inferred a shape (or divided by zero) that the kernel refuses
        graph = NetworkGraph([LayerSpec("l", kind, ["input"], params)],
                             input_shape=(1, 4, 4, 6))
        x = Tensor(np.ones((1, 4, 4, 6), dtype=np.float32))
        for call in (graph.infer_shapes, lambda: graph.run(WeightStore(), x)):
            with pytest.raises(error, match=f"layer 'l': .*{match}"):
                call()

    def test_concat_rule_rejects_mismatched_maps(self):
        # the shape rule took N, H and W from the first input alone, so
        # infer_shapes, analyze and init_weights accepted a graph that run()
        # rejects; now all four raise the kernel's error
        graph = NetworkGraph([LayerSpec("pool", "avg-pool", ["input"], {"k": 2}),
                              LayerSpec("cat", "concat", ["input", "pool"])],
                             input_shape=(1, 2, 4, 4))
        x = Tensor(np.ones((1, 2, 4, 4), dtype=np.float32))
        for call in (graph.infer_shapes, lambda: analyzer.analyze(graph),
                     lambda: init_weights(graph), lambda: graph.run(WeightStore(), x)):
            with pytest.raises(ShapeError, match="layer 'cat': concat_channels input 1 "
                                                 "has N/H/W 1x2x2, expected 1x4x4"):
                call()

    def test_unknown_kind_names_kind_and_layer(self):
        graph = NetworkGraph([LayerSpec("r", "relu6", ["input"]),
                              LayerSpec("odd", "frobnicate", ["r"])],
                             input_shape=(1, 2, 4, 4))
        x = Tensor(np.ones((1, 2, 4, 4), dtype=np.float32))
        for call in (graph.infer_shapes, lambda: graph.run(WeightStore(), x),
                     lambda: analyzer.analyze(graph),
                     lambda: init_weights(graph)):
            with pytest.raises(ConfigError, match="layer 'odd'.*'frobnicate'"):
                call()

    @pytest.mark.parametrize("shape", [(), (1, 3, 64)])
    def test_shape_passes_need_a_4d_input_shape(self, shape):
        graph = build_fastsal("C", (1, 3, 64, 64), width=0.25)
        store = init_weights(graph)
        graph = replace(graph, input_shape=shape)
        for call in (graph.infer_shapes, lambda: init_weights(graph),
                     lambda: check_weights(graph, store),
                     lambda: collapse_linear_tail(graph, store),
                     lambda: analyzer.analyze(graph)):
            with pytest.raises(ContractError, match="4-D"):
                call()


class TestWeightIO:
    def test_round_trip(self, tmp_path, fastsal_small):
        graph, store = fastsal_small
        path = str(tmp_path / "w.fsal")
        save_weights(store, path)
        loaded = load_weights(path)
        assert sorted(loaded.names()) == sorted(store.names())
        for name in store.names():
            np.testing.assert_array_equal(loaded.get(name).data,
                                          store.get(name).data)
        check_weights(graph, loaded)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.fsal"
        path.write_bytes(b"NOPE" + b"\x00" * 10)
        with pytest.raises(ParseError) as e:
            load_weights(str(path))
        assert e.value.offset == 0

    def test_truncated_payload(self, tmp_path, fastsal_small):
        _, store = fastsal_small
        path = tmp_path / "trunc.fsal"
        save_weights(store, str(path))
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(ParseError) as e:
            load_weights(str(path))
        assert e.value.offset is not None

    def test_trailing_garbage(self, tmp_path, fastsal_small):
        _, store = fastsal_small
        path = tmp_path / "extra.fsal"
        save_weights(store, str(path))
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(ParseError, match="trailing"):
            load_weights(str(path))

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "v9.fsal"
        path.write_bytes(b"FSAL" + (9).to_bytes(2, "little") + b"\x00" * 4)
        with pytest.raises(ParseError, match="version"):
            load_weights(str(path))

    def test_save_load_save_byte_identical(self, tmp_path, fastsal_small):
        _, store = fastsal_small
        first, second = tmp_path / "a.fsal", tmp_path / "b.fsal"
        save_weights(store, str(first))
        save_weights(load_weights(str(first)), str(second))
        assert first.read_bytes() == second.read_bytes()

    @staticmethod
    def _entry(name_bytes, dims, payload=b""):
        return (len(name_bytes).to_bytes(2, "little") + name_bytes + bytes([len(dims)])
                + b"".join(d.to_bytes(4, "little") for d in dims) + payload)

    def _file(self, tmp_path, *entries):
        path = tmp_path / "w.fsal"
        path.write_bytes(b"FSAL" + (1).to_bytes(2, "little")
                         + len(entries).to_bytes(4, "little") + b"".join(entries))
        return str(path)

    def test_name_not_utf8_is_parse_error_at_name(self, tmp_path):
        good = self._entry(b"a", (1,), b"\0" * 4)
        path = self._file(tmp_path, good, self._entry(b"b\xff", (1,), b"\0" * 4))
        with pytest.raises(ParseError, match="UTF-8") as e:
            load_weights(path)
        assert e.value.offset == 10 + len(good) + 2

    def test_duplicate_name_is_parse_error(self, tmp_path):
        entry = self._entry(b"a", (2,), b"\0" * 8)
        with pytest.raises(ParseError, match="duplicate slot name 'a'") as e:
            load_weights(self._file(tmp_path, entry, entry))
        assert e.value.offset == 10 + len(entry) + 2

    def test_oversized_header_allocates_nothing(self, tmp_path):
        # 10^10 elements (40 GB) claimed by a 30-byte file; dims whose
        # product overflows int64 likewise
        import tracemalloc

        for dims in ((100_000, 100_000), (2 ** 32 - 1,) * 4):
            path = self._file(tmp_path, self._entry(b"big", dims, b"\0" * 4))
            tracemalloc.start()
            try:
                with pytest.raises(ParseError, match="payload of 'big'") as e:
                    load_weights(path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2 ** 20
            assert e.value.offset == 10 + 2 + 3 + 1 + 4 * len(dims)

    @pytest.mark.parametrize("dims,match", [
        ((1,) * 70, "rank 70"),
        ((0,) + (2 ** 32 - 1,) * 3, "out of range"),
    ])
    def test_unrepresentable_dims_are_parse_errors(self, tmp_path, dims, match):
        # numpy would raise ValueError for either shape
        with pytest.raises(ParseError, match=match):
            load_weights(self._file(tmp_path, self._entry(b"x", dims)))

    def test_missing_slot(self, fastsal_small):
        graph, store = fastsal_small
        broken = store.copy()
        broken.tensors.pop("decoder.out.w")
        with pytest.raises(WeightStoreError, match="decoder.out.w"):
            check_weights(graph, broken)

    def test_wrong_shape(self, fastsal_small):
        graph, store = fastsal_small
        broken = store.copy()
        broken.put("decoder.out.b", Tensor(np.zeros(7, dtype=np.float32)))
        with pytest.raises(WeightStoreError, match="decoder.out.b"):
            check_weights(graph, broken)

    def test_trainable_slots_exclude_running_stats(self, fastsal_small):
        _, store = fastsal_small
        slots = trainable_slots(store)
        assert slots
        assert not any(s.endswith((".rmean", ".rvar")) for s in slots)


class TestBatchNormFolding:
    @pytest.mark.parametrize("variant", ["C", "A"])
    def test_inference_equivalence(self, variant):
        # random BN statistics and non-zero conv biases; A has biased
        # conv->bn pairs, so the folded bias takes the b0 - rmean branch
        graph = build_fastsal(variant, (1, 3, 48, 64), width=0.25)
        store = randomize_weights(init_weights(graph, seed=0), seed=11)
        x = Tensor(np.random.default_rng(7).normal(size=(1, 3, 48, 64))
                   .astype(np.float32))
        ref = graph.run(store, x)["out"].data
        fg, fs = fold_batch_norm(graph, store)
        out = fg.run(fs, x)["out"].data
        denom = np.abs(ref).max() + 1e-12
        assert np.abs(out - ref).max() / denom < 1e-5

    def test_no_bn_layers_remain(self, fastsal_small):
        graph, store = fastsal_small
        fg, fs = fold_batch_norm(graph, store)
        assert all(l.kind != "bn" for l in fg.layers)
        assert not any(n.endswith((".gamma", ".rmean")) for n in fs.names())

    def test_originals_untouched(self, fastsal_small):
        graph, store = fastsal_small
        n_layers = len(graph.layers)
        snapshot = store.get("backbone.stem.conv.w").data.copy()
        fold_batch_norm(graph, store)
        assert len(graph.layers) == n_layers
        np.testing.assert_array_equal(store.get("backbone.stem.conv.w").data,
                                      snapshot)

    @pytest.mark.parametrize("variant", ["C", "A"])
    def test_shares_untouched_slots(self, variant):
        # the input store stays bit for bit, with the same Tensor objects;
        # the folded store holds new tensors only for the convs that absorbed
        # a bn and shares every other slot
        graph, store = _random_model(variant, (1, 3, 48, 64))
        before = {k: (v, v.data.tobytes()) for k, v in store.tensors.items()}
        _, fs = fold_batch_norm(graph, store)
        prepare_inference(graph, store)
        assert list(store.tensors) == list(before)
        for k, (t, data) in before.items():
            assert store.get(k) is t and t.data.tobytes() == data, k
        absorbed = {l.inputs[0] for l in graph.layers if l.kind == "bn"}
        rewritten = {k for k in fs.names() if fs.get(k) is not store.tensors.get(k)}
        assert rewritten == {c + s for c in absorbed for s in (".w", ".b")}

    def test_taps_preserved(self):
        # a folded bn's tap moves onto its conv, in the conv's place; the
        # tapped values stay those of the unrewritten graph
        x = Tensor(np.random.default_rng(8).normal(size=(1, 3, 48, 64))
                   .astype(np.float32))
        for variant in ("C", "A"):
            graph, store = _random_model(variant, (1, 3, 48, 64))
            renamed = [t.replace(".project.bn", ".project.conv") for t in graph.taps]
            assert len(renamed) == 18 and renamed != graph.taps
            ref = graph.run(store, x, want=graph.taps)
            for rg, rs in (fold_batch_norm(graph, store), prepare_inference(graph, store)):
                assert rg.taps == renamed
                got = rg.run(rs, x, want=rg.taps)
                for old, new in zip(graph.taps, rg.taps):
                    assert _rel_err(got[new].data, ref[old].data) < 1e-5, new


def _rel_err(out, ref):
    return np.abs(out - ref).max() / (np.abs(ref).max() + 1e-12)


def _random_model(variant, shape, seed=5):
    graph = build_fastsal(variant, shape, width=0.25)
    return graph, randomize_weights(init_weights(graph, seed=0), seed=seed)


def _input(shape, seed=7):
    return Tensor(np.random.default_rng(seed).normal(size=shape).astype(np.float32))


def _assert_no_one_channel_conv_is_trained(graph, store):
    # the paper graph's decoder.out has one output channel; the graphs that
    # training runs, the fine-tune collapse and the hint subgraph, have none
    assert graph.layers[-1].params["out_ch"] == 1
    for g in (collapse_linear_tail(graph, store)[0], net.subgraph(graph, ADAPT_LAYERS)):
        assert all(l.params["out_ch"] > 1 for l in g.layers if l.kind == "conv")


class TestLinearTailCollapse:
    @pytest.mark.parametrize("shape", [(1, 3, 48, 64), (2, 3, 64, 96)])
    @pytest.mark.parametrize("variant", ["C", "A"])
    @pytest.mark.parametrize("rewrite", [collapse_linear_tail, prepare_inference])
    def test_equivalence(self, rewrite, variant, shape):
        graph, store = _random_model(variant, shape)
        x = _input(shape)
        ref = graph.run(store, x)["out"].data
        rg, rs = rewrite(graph, store)
        out = rg.run(rs, x)["out"].data
        assert out.shape == ref.shape == (shape[0], 1, shape[2], shape[3])
        assert _rel_err(out, ref) < 1e-5
        assert rg.layers[-1].kind == "pixel-shuffle"
        assert "decoder.out" not in {l.name for l in rg.layers}
        check_weights(rg, rs)

    @pytest.mark.parametrize("variant", ["C", "A"])
    @pytest.mark.parametrize("rewrite", [collapse_linear_tail, prepare_inference])
    def test_originals_untouched(self, rewrite, variant):
        graph, store = _random_model(variant, (1, 3, 48, 64))
        graph_before = copy.deepcopy(graph)
        store_before = {k: v.data.copy() for k, v in store.tensors.items()}
        rewrite(graph, store)
        assert graph == graph_before
        assert list(store.tensors) == list(store_before)
        for k, v in store_before.items():
            np.testing.assert_array_equal(store.get(k).data, v)

    @pytest.mark.parametrize("variant", ["C", "A"])
    @pytest.mark.parametrize("rewrite", [fold_batch_norm, collapse_linear_tail,
                                         prepare_inference])
    def test_rewritten_store_freed_without_gc(self, rewrite, variant):
        # training validates through prepare_inference every epoch; its
        # stores must die by reference counting, not wait for the cyclic GC
        graph, store = _random_model(variant, (1, 3, 48, 64))
        gc.collect()
        gc.disable()
        try:
            rg, rs = rewrite(graph, store)
            refs = [weakref.ref(t.data) for n, t in rs.tensors.items()
                    if n not in store or t is not store.get(n)]
            assert refs
            del rg, rs
            assert [r() for r in refs if r() is not None] == []
        finally:
            gc.enable()

    def test_c_decoder_is_four_wide_after_adapt(self):
        graph, store = _random_model("C", (1, 3, 48, 64))
        rg, rs = prepare_inference(graph, store)
        shapes = rg.infer_shapes()
        decoder = [l for l in rg.layers if l.name.startswith("decoder.")]
        assert {l.kind for l in decoder} == {"conv", "resize", "add", "pixel-shuffle"}
        assert all(shapes[l.name][1] <= 4 for l in decoder)
        assert [l.name for l in decoder if l.kind == "conv"] == [
            f"decoder.adapt{i}" for i in range(1, 5)]
        assert not any(k.startswith("decoder.out.") for k in rs.names())
        _assert_no_one_channel_conv_is_trained(graph, store)

    def test_a_tail_is_post_then_shuffle(self):
        graph, store = _random_model("A", (1, 3, 48, 64))
        rg, _ = prepare_inference(graph, store)
        post, shuffle = rg.layers[-2:]
        assert (post.name, post.kind, post.params["out_ch"]) == ("decoder.post", "conv", 4)
        assert (shuffle.name, shuffle.inputs) == ("decoder.shuffle2", ["decoder.post"])
        assert rg.infer_shapes()["decoder.shuffle2"] == (1, 1, 48, 64)
        _assert_no_one_channel_conv_is_trained(graph, store)

    @pytest.mark.parametrize("how", ["tap", "second consumer"])
    def test_stops_at_tap_or_shared_layer(self, how):
        graph, store = _random_model("C", (1, 3, 48, 64))
        graph = copy.deepcopy(graph)
        up2 = next(l for l in graph.layers if l.name == "decoder.up2")
        want = ["decoder.up2"]
        if how == "tap":
            up2.tap = True
            want += graph.taps
        else:
            graph.layers.insert(-1, LayerSpec("probe", "relu6", ["decoder.up2"]))
            want.append("probe")
        x = _input((1, 3, 48, 64))
        ref = graph.run(store, x, want=want)
        rg, rs = collapse_linear_tail(graph, store)
        got = rg.run(rs, x, want=want)
        assert _rel_err(got["out"].data, ref["out"].data) < 1e-5
        for k in want:
            np.testing.assert_array_equal(got[k].data, ref[k].data)
        assert rg.taps == graph.taps
        layers = {l.name: l for l in rg.layers}
        assert layers["decoder.up2"] == up2
        assert layers["decoder.adapt2"].params["out_ch"] == 128
        assert rs.get("decoder.adapt2.w") is store.get("decoder.adapt2.w")
        assert layers["decoder.concat.in1"].inputs == ["decoder.up2"]
        assert layers["decoder.up1"].params == up2.params
        assert rg.infer_shapes()["decoder.up1"][1] == 4

    def test_concat_split_need_not_divide_by_r_squared(self):
        # concat inputs of 3 and 5 channels in front of a shuffle with r=2
        conv = {"stride": (1, 1), "groups": 1}
        layers = [
            LayerSpec("b", "relu6", ["input"]),
            LayerSpec("a", "conv", ["b"], dict(conv, out_ch=3, kernel=(3, 3),
                                               padding=(1, 1), bias=True)),
            LayerSpec("bb", "conv", ["b"], dict(conv, out_ch=5, kernel=(1, 1),
                                                padding=(0, 0), bias=False)),
            LayerSpec("cat", "concat", ["a", "bb"]),
            LayerSpec("shuf", "pixel-shuffle", ["cat"], {"r": 2}),
            LayerSpec("out", "conv", ["shuf"], dict(conv, out_ch=2, kernel=(1, 1),
                                                    padding=(0, 0), bias=True)),
        ]
        graph = NetworkGraph(layers, input_shape=(2, 3, 4, 6))
        store = randomize_weights(init_weights(graph, seed=1), seed=2)
        x = _input((2, 3, 4, 6))
        rg, rs = collapse_linear_tail(graph, store)
        assert [(l.name, l.kind) for l in rg.layers] == [
            ("b", "relu6"), ("a", "conv"), ("bb", "conv"), ("cat", "add"),
            ("shuf", "pixel-shuffle")]
        assert rg.infer_shapes()["a"] == (2, 8, 4, 6)
        assert _rel_err(rg.run(rs, x)["out"].data, graph.run(store, x)["out"].data) < 1e-5

    def test_nothing_to_rewrite(self):
        graph = build_backbone((1, 3, 48, 64), width=0.25)
        store = init_weights(graph)
        assert collapse_linear_tail(graph, store) == (graph, store)


def _taped(graph, store, x, loss_fn, rewrite):
    """Loss and gradient on every trainable slot of one training-mode
    forward, on the graph itself or on its collapse under the same tape."""
    slots = trainable_slots(store)
    for k in slots:
        store.get(k).requires_grad = True
    try:
        with Tape() as tape:
            g, s = collapse_linear_tail(graph, store) if rewrite else (graph, store)
            res = g.run(s, x, training=True)
            loss = loss_fn(res)
        grads = tape.gradients(loss, [store.get(k) for k in slots])
    finally:
        for k in slots:
            store.get(k).requires_grad = False
    return loss.data, dict(zip(slots, grads))


class TestTapedCollapse:
    """collapse_linear_tail under a Tape: training runs the collapsed graph,
    so its gradients on the paper slots must be the paper graph's. Float64
    keeps rounding far below the tolerance: slots whose true gradient is
    zero (conv biases and shifts ahead of a training-mode bn) then read as
    zero on both graphs."""

    @pytest.mark.parametrize("variant", ["C", "A"])
    def test_salgan_gradients_match_paper_graph(self, variant):
        shape = (2, 3, 48, 64)
        graph = build_fastsal(variant, shape, width=0.25)
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(size=shape))
        gt, pseudo = (Tensor(rng.uniform(0.05, 0.95, (2, 1, 48, 64))) for _ in range(2))

        def loss_fn(res):
            return distill.salgan_loss(res["out"], gt=gt, pseudo=pseudo)

        runs = []
        for rewrite in (False, True):
            store = randomize_weights(init_weights(graph, seed=0, dtype=np.float64), seed=5)
            runs.append(_taped(graph, store, x, loss_fn, rewrite))
        (loss0, ref), (loss1, got) = runs
        assert _rel_err(loss1, loss0) < 1e-12
        scale = max(np.abs(g).max() for g in ref.values())
        assert scale > 0
        for k, g in ref.items():
            assert np.abs(got[k] - g).max() <= 1e-5 * max(np.abs(g).max(), 1e-9 * scale), k

    @pytest.mark.parametrize("variant", ["C", "A"])
    def test_same_store_inside_and_outside_a_tape(self, variant):
        graph, store = _random_model(variant, (1, 3, 48, 64))
        rg, plain = collapse_linear_tail(graph, store)
        slots = trainable_slots(store)
        for k in slots:
            store.get(k).requires_grad = True
        try:
            with Tape() as tape:
                rg_taped, taped = collapse_linear_tail(graph, store)
        finally:
            for k in slots:
                store.get(k).requires_grad = False
        assert rg_taped == rg
        assert taped.names() == plain.names()
        for k in plain.names():
            np.testing.assert_array_equal(taped.get(k).data, plain.get(k).data)
        rewritten = [k for k in plain.names() if plain.get(k) is not store.tensors.get(k)]
        assert rewritten and all(taped.get(k).requires_grad for k in rewritten)
        assert tape.nodes


def _clip_case(case):
    """A producer p feeding relu6 r, then a 1x1 conv, on a 1x1x4x4 input;
    case changes p's kind, gives it a tap (asked for with want=graph.taps,
    or not asked for), a second reader or no layer at all (r reads the
    graph input), or names it in want. Returns (graph, names run() is
    asked for)."""
    conv = dict(out_ch=1, kernel=(1, 1), stride=(1, 1), padding=(0, 0),
                groups=1, bias=True)
    producers = {
        "conv": LayerSpec("p", "conv", ["input"], dict(conv)),
        "bn": LayerSpec("p", "bn", ["input"]),
        "add": LayerSpec("p", "add", ["input", "input"]),
        "one-input add": LayerSpec("p", "add", ["input"]),
        "sigmoid": LayerSpec("p", "sigmoid", ["input"]),
        "softmax-spatial": LayerSpec("p", "softmax-spatial", ["input"]),
        "resize": LayerSpec("p", "resize", ["input"], {"out_h": 4, "out_w": 4}),
        "avg-pool": LayerSpec("p", "avg-pool", ["input"], {"k": 1}),
        "concat": LayerSpec("p", "concat", ["input"]),
    }
    p = producers.get(case, producers["conv"])
    layers = [p, LayerSpec("r", "relu6", ["input" if case == "graph input" else "p"]),
              LayerSpec("out", "conv", ["r"], dict(conv))]
    want = ["out"]
    if case in ("tap", "unwanted tap"):
        p.tap = True
    elif case == "second reader":
        layers.append(LayerSpec("sum", "add", ["out", "p"]))
    elif case == "want":
        want = ["p"]
    graph = NetworkGraph(layers, input_shape=(1, 1, 4, 4))
    if case == "tap":
        want = graph.taps
    return graph, want


GUARD_CASES = [
    ("conv", True), ("bn", True), ("add", True), ("unwanted tap", True),
    ("tap", False), ("second reader", False), ("want", False),
    ("graph input", False), ("one-input add", False), ("sigmoid", False),
    ("softmax-spatial", False), ("resize", False), ("avg-pool", False),
    ("concat", False),
]


class TestClipInPlace:
    @pytest.mark.parametrize("variant", ["C", "A"])
    def test_prepared_outputs_bit_identical(self, variant, monkeypatch):
        # random BN statistics and non-zero biases; every relu6 of the
        # prepared graph reads a folded conv and so clips it in place,
        # unless want names every layer
        graph, store = _random_model(variant, (2, 3, 48, 64))
        x = _input((2, 3, 48, 64))
        rg, rs = prepare_inference(graph, store)
        flags = inplace_spy(monkeypatch)
        ref = rg.run(rs, x, want=every_layer(rg))["out"].data
        assert written_in_place(rg, flags) == []
        flags.clear()
        got = rg.run(rs, x)["out"].data
        relus = [l.name for l in rg.layers if l.kind == "relu6"]
        assert relus and written_in_place(rg, flags) == relus
        np.testing.assert_array_equal(got, ref)

    def test_input_graph_unchanged_and_shared(self):
        # writing in place is run()'s decision, not a rewrite: running the
        # prepared graph changes none of its layers, and prepare_inference
        # leaves the paper graph as it was and shares every layer it does
        # not rewrite
        graph, store = _random_model("A", (1, 3, 48, 64))
        before = copy.deepcopy(graph)
        rg, rs = prepare_inference(graph, store)
        prepared = copy.deepcopy(rg)
        rg.run(rs, _input((1, 3, 48, 64)))
        assert graph == before and rg == prepared
        old = {l.name: l for l in graph.layers}
        rewritten = {k.rsplit(".", 1)[0] for k in rs.names()
                     if rs.get(k) is not store.tensors.get(k)}
        shared = [l for l in rg.layers if l == old.get(l.name) and l.name not in rewritten]
        assert shared and all(l is old[l.name] for l in shared)
        assert not any("inplace" in l.params for l in rg.layers)

    @pytest.mark.parametrize("case,inplace", GUARD_CASES)
    def test_guards(self, case, inplace, monkeypatch):
        # a producer's output may be clipped in place only when the relu6 is
        # its one reader, want does not name it and its backward does not
        # read it (sigmoid's and softmax's do); what run() returns is that
        # of a run whose want names every layer either way
        graph, want = _clip_case(case)
        store = randomize_weights(init_weights(graph, seed=1), seed=2)
        x = _input((1, 1, 4, 4))
        x.data *= 8
        flags = inplace_spy(monkeypatch)
        got = graph.run(store, x, want=want)
        assert written_in_place(graph, flags) == (["r"] if inplace else [])
        flags.clear()
        ref = graph.run(store, x, want=every_layer(graph))
        assert written_in_place(graph, flags) == []
        for k in got:
            np.testing.assert_array_equal(got[k].data, ref[k].data)

    @pytest.mark.parametrize("training", [False, True])
    @pytest.mark.parametrize("case,inplace", GUARD_CASES)
    def test_bn_guards(self, case, inplace, training, monkeypatch):
        # the relu6 guards, with a bn in the relu6's place: it may centre its
        # producer's output in place under the same conditions, and what
        # run() returns, and in training the running statistics, are those
        # of a run whose want names every layer either way
        graph, want = _clip_case(case)
        graph = replace(graph, layers=[replace(l, kind="bn") if l.name == "r" else l
                                       for l in graph.layers])
        x = _input((1, 1, 4, 4))
        flags = inplace_spy(monkeypatch)
        runs = []
        for asked in (want, every_layer(graph)):
            flags.clear()
            store = randomize_weights(init_weights(graph, seed=1), seed=2)
            res = graph.run(store, Tensor(x.data.copy()), training=training, want=asked)
            runs.append((res, store, written_in_place(graph, flags)))
        (got, got_store, written), (ref, ref_store, none) = runs
        assert written == (["r"] if inplace else []) and none == []
        for k in got:
            np.testing.assert_array_equal(got[k].data, ref[k].data)
        for k in ref_store.names():
            np.testing.assert_array_equal(got_store.get(k).data, ref_store.get(k).data)

    def test_marked_relu6_writes_into_its_input(self, monkeypatch):
        # the relu6 that run() lets clip its input in place returns that
        # input's buffer; asked for every layer, it makes its own
        graph, _ = _clip_case("conv")
        store = init_weights(graph, seed=1)
        seen = []
        relu6 = tensor.relu6

        def recording(x, **kwargs):
            y = relu6(x, **kwargs)
            seen.append(y.data is x.data)
            return y

        monkeypatch.setattr(tensor, "relu6", recording)
        graph.run(store, _input((1, 1, 4, 4)))
        graph.run(store, _input((1, 1, 4, 4)), want=every_layer(graph))
        assert seen == [True, False]


def _release_case(case):
    """conv c -> bn b -> relu6 r -> conv o (1x1, or depthwise 3x3), then a
    1x1 conv out, on a 2x4x5x6 input; case adds a tap, names r in want,
    adds an add that also reads r, or makes r the last layer. Returns
    (graph, the names run() is asked for besides the taps)."""
    def conv(name, src, k=1, groups=1):
        return LayerSpec(name, "conv", [src], dict(out_ch=4, kernel=(k, k), stride=(1, 1),
                                                   padding=(k // 2, k // 2), groups=groups,
                                                   bias=True))
    layers = [conv("c", "input", 3), LayerSpec("b", "bn", ["c"]), LayerSpec("r", "relu6", ["b"]),
              conv("o", "r", *((3, 4) if case == "depthwise reader" else ())),
              conv("out", "o")]
    want = ("r",) if case == "want" else ()
    if case == "relu6 last":
        layers = layers[:3]
    elif case == "add reads relu6":
        layers.append(LayerSpec("sum", "add", ["out", "r"]))
    elif case.endswith(" tap"):
        next(l for l in layers if l.name == case[0]).tap = True
    return NetworkGraph(layers, input_shape=(2, 4, 5, 6)), want


def _recording_bn_buffers(monkeypatch):
    """Install a kernels.batch_norm that records a weakref to each output's
    buffer; returns the list it appends to, in call order."""
    bufs = []
    batch_norm = kernels.batch_norm

    def recording(*args, **kwargs):
        y = batch_norm(*args, **kwargs)
        bufs.append(weakref.ref(y.data))
        return y

    monkeypatch.setattr(kernels, "batch_norm", recording)
    return bufs


class TestReleaseMarks:
    """What run() releases under a tape, chosen by reader counts and want
    alone."""

    @pytest.mark.parametrize("case,released", [
        ("plain", True), ("depthwise reader", True), ("add reads relu6", True),
        ("relu6 last", False), ("want", False), ("r tap", False), ("b tap", False),
        ("c tap", True),
    ])
    def test_guards_and_gradients(self, case, released, monkeypatch):
        # under a tape run() releases the bn output, and the relu6 that
        # clips it in place, once their last reader has run, unless want
        # names them: their shared buffer is freed after the forward
        # (released) unless it is the graph's output or asked for (here
        # with the taps). Loss, outputs, every gradient and the running
        # statistics are those of a run that writes nothing in place and
        # releases nothing (want names every layer) bit for bit
        graph, asked = _release_case(case)
        want = list(asked) + graph.taps
        bufs = _recording_bn_buffers(monkeypatch)
        runs = []
        for everything in (False, True):
            store = randomize_weights(init_weights(graph, seed=1), seed=2)
            store.get("b.gamma").data[:] = 6.0
            x = _input(graph.input_shape)
            x.requires_grad = True
            leaves = [x] + [store.get(k) for k in trainable_slots(store)]
            for t in leaves:
                t.requires_grad = True
            with Tape() as tape:
                res = graph.run(store, x, training=True,
                                want=every_layer(graph) if everything else want)
                freed = bufs[-1]() is None
                res = {k: res[k] for k in ["out"] + want}
                loss = sum(((v * v).mean() for v in res.values()), start=0.0)
            runs.append(([v.data for v in res.values()], tape.gradients(loss, leaves),
                         [store.get(k).data for k in store.names()], freed))
        got, ref = runs
        assert [got[3], ref[3]] == [released, False]
        for a, b in zip(got[:3], ref[:3]):
            assert len(a) == len(b)
            for u, v in zip(a, b):
                np.testing.assert_array_equal(u, v)

    def test_input_graph_unchanged_and_shared(self, monkeypatch):
        # on a graph with batch norm run() writes both relu6 and bn layers
        # in place, in inference and in training, and leaves the graph and
        # each of its LayerSpecs as they were
        graph = build_fastsal("A", (1, 3, 32, 32), width=0.25)
        store = init_weights(graph)
        layers, before = list(graph.layers), copy.deepcopy(graph)
        kinds = {l.name: l.kind for l in graph.layers}
        flags = inplace_spy(monkeypatch)
        for training in (False, True):
            flags.clear()
            graph.run(store, _input((1, 3, 32, 32)), training=training)
            assert {kinds[n] for n in written_in_place(graph, flags)} == {"bn", "relu6"}
        assert graph == before
        assert all(new is old for new, old in zip(graph.layers, layers))

    @pytest.mark.parametrize("variant", ["C", "A"])
    def test_no_released_buffer_outlives_a_taped_forward(self, variant, monkeypatch):
        # once its last reader has run, every bn output buffer that want does
        # not name is freed although the tape is alive, together with the
        # relu6 that clips it in place; a wanted one keeps its data, and a
        # wanted relu6 keeps the buffer it shares with its bn
        graph, store = _random_model(variant, (2, 3, 48, 64))
        for k in trainable_slots(store):
            store.get(k).requires_grad = True
        bufs = _recording_bn_buffers(monkeypatch)
        want = ["backbone.b2.project.bn", "backbone.b4.dw.relu"]
        with Tape() as tape:
            g, cs = collapse_linear_tail(graph, store)
            res = g.run(cs, _input((2, 3, 48, 64)), training=True, want=want)
            loss = (res["out"] ** 2).mean()
        bns = [l.name for l in g.layers if l.kind == "bn"]
        assert len(bufs) == len(bns) > 50
        alive = {b for b, ref in zip(bns, bufs) if ref() is not None}
        assert alive == {"backbone.b2.project.bn", "backbone.b4.dw.bn"}
        assert res["backbone.b4.dw.relu"].data is bufs[bns.index("backbone.b4.dw.bn")]()
        for name in want:
            assert res[name].data is not None and res[name].values() is res[name].data
        tape.gradients(loss, [store.get(k) for k in trainable_slots(store)])


def _benchmark_tracer():
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("width", [0.25, 1.0])
@pytest.mark.parametrize("variant", ["C", "A"])
def test_conv_paths_match_benchmark_labels(variant, width, monkeypatch):
    # perfbench's tracer labels each conv2d call from its arguments; every
    # conv of the paper, prepared, fine-tune and hint graphs must run
    # _depthwise exactly when that label is "depthwise"
    conv_path = _benchmark_tracer().conv_path
    seen = []
    conv2d, depthwise = kernels.conv2d, kernels._depthwise

    def recording_conv2d(*args, **kwargs):
        seen.append([conv_path(*args, **kwargs), False])
        return conv2d(*args, **kwargs)

    def recording_depthwise(x, *args):
        assert isinstance(x, Tensor)
        seen[-1][1] = True
        return depthwise(x, *args)

    monkeypatch.setattr(kernels, "conv2d", recording_conv2d)
    monkeypatch.setattr(kernels, "_depthwise", recording_depthwise)
    shape = (1, 3, 32, 32)
    graph = build_fastsal(variant, shape, width=width)
    store = init_weights(graph)
    x = _input(shape)
    for g, s in ((graph, store), prepare_inference(graph, store),
                 collapse_linear_tail(graph, store),
                 (net.subgraph(graph, ADAPT_LAYERS), store)):
        g.run(s, x, want=ADAPT_LAYERS)
    assert {label for label, _ in seen} == {"pointwise", "depthwise", "general"}
    for label, took_depthwise in seen:
        assert took_depthwise == (label == "depthwise"), label


@pytest.mark.parametrize("variant", ["C", "A"])
def test_predict_size_keeps_depthwise_on_the_tap_loop(variant, monkeypatch):
    # the spatial-operator GEMMs are for tiny maps only: at 1x3x192x256 no
    # depthwise layer of the paper or prepared graph takes them, so predict
    # maps do not depend on them; at the 4x3x48x64 training size the late
    # blocks do
    taken = []
    operator = kernels._depthwise_operator

    def recording(x, *args):
        taken.append(x.shape)
        return operator(x, *args)

    monkeypatch.setattr(kernels, "_depthwise_operator", recording)
    graph = build_fastsal(variant, (1, 3, 192, 256))
    store = randomize_weights(init_weights(graph), seed=5)
    for g, s in ((graph, store), prepare_inference(graph, store)):
        g.run(s, _input((1, 3, 192, 256)))
    assert taken == []
    build_fastsal(variant, (4, 3, 48, 64)).run(store, _input((4, 3, 48, 64)))
    assert {shape[2:] for shape in taken} == {(2, 2), (3, 4), (6, 8)}


def test_layout_rule_runs_only_in_the_backward(monkeypatch):
    # the tap path's forward is row-major and needs no layout choice: an
    # untaped prepared forward at the predict size makes none, and a taped
    # tap-path conv makes one, in its backward
    calls = []
    pixel_major = kernels._pixel_major

    def recording(rows, span):
        calls.append((rows, span))
        return pixel_major(rows, span)

    monkeypatch.setattr(kernels, "_pixel_major", recording)
    graph = build_fastsal("C", (1, 3, 192, 256))
    g, s = prepare_inference(graph, randomize_weights(init_weights(graph), seed=5))
    g.run(s, _input((1, 3, 192, 256)))
    assert calls == []
    x = Tensor(_input((2, 8, 12, 16)).data, requires_grad=True)
    w = Tensor(_input((8, 1, 3, 3)).data, requires_grad=True)
    with Tape() as tape:
        loss = kernels.conv2d(x, w, padding=(1, 1), groups=8).sum()
    assert calls == []
    tape.gradients(loss, [x, w])
    assert calls == [(16, 12 * 18)]


@pytest.mark.parametrize("names,match", [
    (["decoder.adapt9"], r"no layer \['decoder.adapt9'\]"),
    (["decoder.adapt1", "decoder.adapt9", "b1"], r"no layer \['b1', 'decoder.adapt9'\]"),
    ([], "at least one layer name"),
], ids=["unknown", "one-known-two-unknown", "empty"])
def test_subgraph_rejects_names_the_graph_lacks(names, match):
    # such a subgraph had no layers, or lacked one asked for, and its run
    # raised a raw IndexError or returned without the name
    graph = build_fastsal("C", (1, 3, 32, 32), width=0.25)
    with pytest.raises(ContractError, match=match):
        net.subgraph(graph, names)
