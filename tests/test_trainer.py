import csv
import gc

import numpy as np
import pytest

from conftest import build_synthetic_dataset, randomize_weights
from fastsal import kernels, metrics, network, tensor, trainer
from fastsal.data_io import load_manifest
from fastsal.errors import ConfigError, ContractError, NumericDomainError
from fastsal.network import build_fastsal, init_weights
from fastsal.tensor import Tape, TapeNode, Tensor
from fastsal.trainer import TrainConfig, lr_schedule, sgd_step


def small_graph(variant="C"):
    return build_fastsal(variant, (1, 3, 48, 64), width=0.25)


def hint_shapes(graph):
    shapes = graph.infer_shapes()
    return [shapes[n][1:] for n in trainer.ADAPT_LAYERS]


@pytest.fixture(scope="module")
def rich_dataset(tmp_path_factory):
    """Dataset with gt, fixations, pseudo maps, distributions, and hint
    features shaped for the width-0.25 concatenation decoder at 48x64."""
    root = tmp_path_factory.mktemp("rich")
    graph = small_graph()
    manifest = build_synthetic_dataset(str(root / "d"), n=4, size=(48, 64),
                                       with_hints=hint_shapes(graph),
                                       with_dist=True)
    return load_manifest(manifest)


class TestSchedule:
    def test_piecewise_decay(self):
        cfg = TrainConfig()
        assert lr_schedule(cfg, 0) == pytest.approx(0.01)
        assert lr_schedule(cfg, 14) == pytest.approx(0.01)
        assert lr_schedule(cfg, 15) == pytest.approx(0.001)
        assert lr_schedule(cfg, 30) == pytest.approx(1e-4)
        assert lr_schedule(cfg, 59) == pytest.approx(1e-4)
        assert lr_schedule(cfg, 60) == pytest.approx(1e-5)
        assert lr_schedule(cfg, 200) == pytest.approx(1e-5)

    def test_negative_epoch(self):
        with pytest.raises(ConfigError):
            lr_schedule(TrainConfig(), -1)

    def test_custom_schedule(self):
        cfg = TrainConfig(base_lr=1.0, decay_epochs=(2,), decay_factor=0.5)
        assert lr_schedule(cfg, 1) == pytest.approx(1.0)
        assert lr_schedule(cfg, 2) == pytest.approx(0.5)


class TestConfig:
    def test_unknown_loss(self):
        with pytest.raises(ConfigError):
            TrainConfig(loss="mse").check()

    def test_finetune_needs_a_target(self):
        with pytest.raises(ConfigError):
            TrainConfig(loss="salgan", use_gt=False, use_teacher=False).check()

    def test_hint_ignores_target_flags(self):
        TrainConfig(loss="hint", use_gt=False, use_teacher=False).check()

    def test_decay_epochs_sorted(self):
        with pytest.raises(ConfigError):
            TrainConfig(decay_epochs=(30, 15)).check()


class TestSgdStep:
    def test_plain_descent(self):
        w = Tensor(np.array([1.0, 2.0]))
        g = np.array([0.5, -0.5])
        sgd_step([("w", w)], [g], lr=0.1, momentum_state={}, momentum=0.0)
        np.testing.assert_allclose(w.data, [0.95, 2.05])

    def test_momentum_accumulates(self):
        # v1 = g, v2 = 0.9 g + g; w after two steps: 1 - 0.1(1) - 0.1(1.9)
        w = Tensor(np.array([1.0]))
        state = {}
        for _ in range(2):
            sgd_step([("w", w)], [np.array([1.0])], lr=0.1,
                     momentum_state=state, momentum=0.9)
        assert w.data[0] == pytest.approx(1.0 - 0.1 - 0.19)

    def test_state_is_per_slot(self):
        a, b = Tensor(np.zeros(1)), Tensor(np.zeros(1))
        state = {}
        sgd_step([("a", a), ("b", b)], [np.array([1.0]), np.array([2.0])],
                 lr=1.0, momentum_state=state, momentum=0.9)
        assert state["a"][0] == 1.0 and state["b"][0] == 2.0

    def test_matches_formula_and_leaves_gradients_unchanged(self):
        rng = np.random.default_rng(0)
        w0 = rng.standard_normal((3, 4)).astype(np.float32)
        grads = [rng.standard_normal((3, 4)).astype(np.float32) for _ in range(3)]
        passed = [g.copy() for g in grads]
        w, state = Tensor(w0.copy()), {}
        ref_w, ref_v = w0.copy(), None
        for g, p in zip(grads, passed):
            sgd_step([("w", w)], [p], lr=0.05, momentum_state=state, momentum=0.9)
            ref_v = g if ref_v is None else 0.9 * ref_v + g
            ref_w -= 0.05 * ref_v
            np.testing.assert_array_equal(w.data, ref_w)
            np.testing.assert_array_equal(state["w"], ref_v)
        for g, p in zip(grads, passed):
            np.testing.assert_array_equal(p, g)

    def test_non_finite_gradient_aborts(self):
        w = Tensor(np.array([1.0]))
        with pytest.raises(NumericDomainError, match="'w'"):
            sgd_step([("w", w)], [np.array([np.nan])], lr=0.1,
                     momentum_state={}, momentum=0.9)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_names_first_non_finite_slot(self, bad):
        # 1e30 squares past float32's range: a finite slot whose quick check
        # overflows must still pass; no slot is updated
        a, b, c = (Tensor(np.zeros((2, 3), np.float32)) for _ in range(3))
        big = np.full((2, 3), 1e30, np.float32)
        g = np.zeros((2, 3), np.float32)
        g[1, 2] = bad
        with pytest.raises(NumericDomainError, match="'b'"):
            sgd_step([("a", a), ("b", b), ("c", c)], [big, g, g.copy()], lr=0.1,
                     momentum_state={}, momentum=0.9)
        assert not (a.data.any() or b.data.any() or c.data.any())

    def test_missing_gradient_aborts(self):
        # zip would leave the slot without a gradient silently un-updated
        a, b = Tensor(np.zeros(2)), Tensor(np.zeros(2))
        state = {}
        with pytest.raises(ContractError, match="'b'"):
            sgd_step([("a", a), ("b", b)], [np.ones(2)], lr=0.1, momentum_state=state)
        assert not (a.data.any() or b.data.any()) and state == {}

    def test_broadcastable_gradient_aborts(self):
        # a (1,) gradient would broadcast into the (2, 3) weights and be kept
        # as a (1,) momentum buffer
        a, b = Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3)))
        state = {}
        with pytest.raises(ContractError, match=r"'b'.*\(1,\)"):
            sgd_step([("a", a), ("b", b)], [np.ones((2, 3)), np.ones(1)], lr=0.1,
                     momentum_state=state)
        assert not (a.data.any() or b.data.any()) and state == {}

    def test_mismatched_gradient_shape_aborts(self):
        # a (3, 2) gradient for a (2, 3) slot is a ContractError naming the
        # slot, not numpy's broadcast ValueError
        a, b = Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3)))
        state = {}
        with pytest.raises(ContractError, match=r"'b'.*\(3, 2\)"):
            sgd_step([("a", a), ("b", b)], [np.ones((2, 3)), np.ones((3, 2))], lr=0.1,
                     momentum_state=state)
        assert not (a.data.any() or b.data.any()) and state == {}

    def test_mismatched_momentum_buffer_aborts(self):
        # a buffer carried over from another graph is a ContractError naming
        # the slot, raised before any slot or buffer changes
        a, b = Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3)))
        state = {"b": np.zeros(1)}
        with pytest.raises(ContractError, match=r"momentum buffer for 'b'.*\(1,\)"):
            sgd_step([("a", a), ("b", b)], [np.ones((2, 3)), np.ones((2, 3))], lr=0.1,
                     momentum_state=state)
        assert not (a.data.any() or b.data.any())
        assert state.keys() == {"b"} and not state["b"].any()

    def test_folded_gradient_only_descends(self):
        # None: the gradient is already in the buffer, so the slot only
        # descends; a None with no buffer to descend along aborts the step
        a, b = Tensor(np.ones(2)), Tensor(np.ones(2))
        state = {"a": np.array([1.0, 2.0])}
        sgd_step([("a", a), ("b", b)], [None, np.array([4.0, 0.0])], lr=0.5,
                 momentum_state=state, momentum=0.9)
        np.testing.assert_array_equal(a.data, [0.5, 0.0])
        np.testing.assert_array_equal(state["a"], [1.0, 2.0])
        np.testing.assert_array_equal(b.data, [-1.0, 1.0])
        with pytest.raises(ContractError, match="'c'"):
            sgd_step([("a", a), ("c", Tensor(np.ones(2)))], [None, None], lr=0.5,
                     momentum_state=state)
        np.testing.assert_array_equal(a.data, [0.5, 0.0])


def _records(graph, rng):
    """One in-memory record per batch item: image, gt and pseudo maps and
    the decoder.adapt* hint features."""
    n, _, h, w = graph.input_shape
    shapes = graph.infer_shapes()
    return [{"image": Tensor(rng.normal(size=(1, 3, h, w)).astype(np.float32)),
             "gt": Tensor(rng.uniform(0.05, 0.95, (1, 1, h, w)).astype(np.float32)),
             "pseudo": Tensor(rng.uniform(0.05, 0.95, (1, 1, h, w)).astype(np.float32)),
             "hint": [Tensor(rng.normal(size=(1,) + shapes[k][1:]).astype(np.float32))
                      for k in trainer.ADAPT_LAYERS]} for _ in range(n)]


FOLD_CASES = [pytest.param(variant, shape, id=f"{variant}-{'x'.join(map(str, shape))}")
              for variant in "CA" for shape in ((4, 3, 48, 64), (2, 3, 64, 96))]


class TestTraining:
    @pytest.mark.parametrize("loss", ["salgan", "hint"])
    @pytest.mark.parametrize("variant,shape", FOLD_CASES)
    def test_fused_step_matches_unfused(self, variant, shape, loss, monkeypatch):
        # three steps with warm momentum, random widths, BN statistics and
        # biases: folding each gradient into its buffer during the backward
        # gives the loss, weights, BN running statistics and momentum
        # buffers of tape.gradients followed by sgd_step, bit for bit
        rng = np.random.default_rng(len(loss) + sum(shape))
        graph = build_fastsal(variant, shape, width=float(rng.choice([0.25, 0.5, 1.0])))
        batches = [_records(graph, rng) for _ in range(3)]
        cfg = TrainConfig(loss=loss)
        step = sgd_step
        runs = []
        for fused in (True, False):
            if not fused:
                monkeypatch.setattr(trainer, "Tape", lambda on_gradient=None: Tape())
            store = randomize_weights(init_weights(graph, seed=1), seed=2)
            params = trainer._trainable_params(graph, store, cfg)
            for _, t in params:
                t.requires_grad = True
            folded = []

            def recording(params, grads, *args):
                folded.append(all(g is None for g in grads))
                return step(params, grads, *args)

            monkeypatch.setattr(trainer, "sgd_step", recording)
            state, losses = {}, []
            for batch in batches:
                losses.append(trainer._train_step(graph, store, batch, cfg, params, 0.01,
                                                  state))
            assert folded == [fused] * 3
            runs.append((losses, store, state))
        (loss0, store0, state0), (loss1, store1, state1) = runs
        assert loss0 == loss1
        assert store0.names() == store1.names()
        for k in store0.names():
            np.testing.assert_array_equal(store0.get(k).data, store1.get(k).data, err_msg=k)
        assert state0.keys() == state1.keys() == {k for k, _ in params}
        for k, v in state0.items():
            np.testing.assert_array_equal(v, state1[k], err_msg=k)

    def test_non_finite_gradient_leaves_weights(self, rich_dataset, monkeypatch):
        # a NaN in one bn gamma's gradient, injected in its backward, aborts
        # training naming that slot, with every weight as it was
        graph = small_graph()
        store = randomize_weights(init_weights(graph, seed=0), seed=1)
        slot = "backbone.b2.expand.bn.gamma"
        target = store.get(slot)
        apply_op = kernels.apply_op

        def poisoning(name, inputs, out, backward):
            if name != "batch_norm" or inputs[1] is not target:
                return apply_op(name, inputs, out, backward)

            def bwd(g):
                dx, dgamma, *rest = backward(g)
                return (dx, np.full_like(dgamma, np.nan), *rest)

            return apply_op(name, inputs, out, bwd)

        monkeypatch.setattr(kernels, "apply_op", poisoning)
        slots = network.trainable_slots(store)
        before = {k: store.get(k).data.copy() for k in slots}
        cfg = TrainConfig(loss="salgan", epochs=1, batch_size=2)
        with pytest.raises(NumericDomainError, match=f"'{slot}'"):
            trainer.train(rich_dataset, cfg, graph, store)
        for k in slots:
            np.testing.assert_array_equal(store.get(k).data, before[k], err_msg=k)
            assert not store.get(k).requires_grad

    def test_salgan_loss_decreases(self, rich_dataset):
        graph = small_graph()
        store = init_weights(graph, seed=0)
        cfg = TrainConfig(loss="salgan", epochs=6, batch_size=2, seed=0)
        log = trainer.train(rich_dataset, cfg, graph, store)
        assert len(log.rows) == 6
        assert log.rows[-1].mean_loss < log.rows[0].mean_loss

    def test_hint_updates_only_backbone_and_adapters(self, rich_dataset):
        graph = small_graph()
        store = init_weights(graph, seed=1)
        before_out = store.get("decoder.out.w").data.copy()
        before_adapt = store.get("decoder.adapt1.w").data.copy()
        cfg = TrainConfig(loss="hint", epochs=1, batch_size=2, max_steps=2)
        trainer.train(rich_dataset, cfg, graph, store)
        np.testing.assert_array_equal(store.get("decoder.out.w").data, before_out)
        assert not np.array_equal(store.get("decoder.adapt1.w").data, before_adapt)

    def test_deepgaze_runs_and_logs(self, rich_dataset):
        graph = small_graph()
        store = init_weights(graph, seed=2)
        cfg = TrainConfig(loss="deepgaze", epochs=1, batch_size=2, max_steps=2)
        log = trainer.train(rich_dataset, cfg, graph, store)
        assert len(log.rows) == 1
        assert np.isfinite(log.rows[0].mean_loss)

    def test_max_steps_caps_work(self, rich_dataset):
        graph = small_graph()
        store = init_weights(graph, seed=3)
        snapshot = store.get("decoder.out.w").data.copy()
        cfg = TrainConfig(loss="salgan", epochs=50, batch_size=2, max_steps=1)
        trainer.train(rich_dataset, cfg, graph, store)
        # exactly one update happened
        assert not np.array_equal(store.get("decoder.out.w").data, snapshot)

    def test_deterministic_for_fixed_seed(self, rich_dataset):
        logs = []
        for _ in range(2):
            graph = small_graph()
            store = init_weights(graph, seed=4)
            cfg = TrainConfig(loss="salgan", epochs=2, batch_size=2, seed=7)
            logs.append(trainer.train(rich_dataset, cfg, graph, store))
        assert [r.mean_loss for r in logs[0].rows] \
            == [r.mean_loss for r in logs[1].rows]

    def test_train_calls_rebuild_into_one_array(self, rich_dataset):
        # train calls of one shape on a thread rebuild their released bn
        # outputs into that thread's one array, which holds no value
        # between replays, so no step makes and frees its own
        arrays = []
        for seed in (4, 5):
            cfg = TrainConfig(loss="salgan", epochs=1, batch_size=2, max_steps=1)
            trainer.train(rich_dataset, cfg, small_graph(), init_weights(small_graph(), seed=seed))
            assert tensor._REBUILDS.held is None
            arrays.append(tensor._REBUILDS.array)
        assert arrays[0] is not None and arrays[0] is arrays[1]

    def test_validation_metrics_logged(self, rich_dataset):
        graph = small_graph()
        store = init_weights(graph, seed=5)
        cfg = TrainConfig(loss="salgan", epochs=1, batch_size=2, max_steps=1,
                          validate_metrics=True)
        log = trainer.train(rich_dataset, cfg, graph, store)
        assert log.rows[0].nss is not None
        assert log.rows[0].cc is not None

    @pytest.mark.parametrize("variant", ["C", "A"])
    def test_validation_matches_per_record_paper_graph(self, variant, tmp_path):
        # 5 records in batches of 2 leave a short last batch; record 2 has
        # neither fixations nor a gt map
        manifest = load_manifest(build_synthetic_dataset(str(tmp_path / "d"), n=5))
        graph = build_fastsal(variant, (2, 3, 48, 64), width=0.25)
        store = randomize_weights(init_weights(graph, seed=0), seed=5)
        records = trainer._load_records(
            manifest, TrainConfig(use_gt=False, use_teacher=False), (48, 64))
        del records[2]["fix"], records[2]["gt"]
        nss_vals, cc_vals = [], []
        for item in records:
            pred = graph.run(store, item["image"])["out"].data[0, 0]
            if item.get("fix"):
                nss_vals.append(metrics.nss(pred, item["fix"]))
            if "gt" in item:
                cc_vals.append(metrics.cc(pred, item["gt"].data[0, 0]))
        assert len(nss_vals) == len(cc_vals) == 4
        nss, cc = trainer._validation(graph, store, records, batch_size=2)
        np.testing.assert_allclose(nss, np.mean(nss_vals), rtol=1e-5, atol=1e-7)
        np.testing.assert_allclose(cc, np.mean(cc_vals), rtol=1e-5, atol=1e-7)

    def test_no_tape_alive_during_validation(self, rich_dataset, monkeypatch):
        # the last step's tape holds every activation of the step; it must be
        # freed before validation allocates its own
        alive = []
        validation = trainer._validation

        def counting(*args, **kwargs):
            alive.append(sum(isinstance(o, TapeNode) for o in gc.get_objects()))
            return validation(*args, **kwargs)

        monkeypatch.setattr(trainer, "_validation", counting)
        graph = small_graph()
        store = init_weights(graph, seed=8)
        cfg = TrainConfig(loss="salgan", epochs=2, batch_size=2, validate_metrics=True)
        gc.collect()
        gc.disable()
        try:
            trainer.train(rich_dataset, cfg, graph, store)
        finally:
            gc.enable()
        assert alive == [0, 0]

    def test_step_peak_memory(self):
        # the backward frees each tape node as it replays it, training bn
        # centres its conv's output in place, the clipped bn outputs that
        # only convs read are dropped after the forward and rebuilt in the
        # backward, each gradient is folded into its momentum buffer once
        # final, and the depthwise tap loop keeps no phase planes: a salgan
        # step on C at 4x3x48x64, from no momentum and then with warm
        # momentum, peaks at 20.4 MiB of traced allocations, of which 8.65
        # are the momentum buffers that live across steps and 11.8 the
        # step's own. Keeping the clipped bn outputs puts it at 24.9 MiB,
        # 16.2 of them the step's own
        import tracemalloc

        graph = build_fastsal("C", (4, 3, 48, 64))
        store = randomize_weights(init_weights(graph, seed=3), seed=4)
        rng = np.random.default_rng(5)
        batch = [{k: Tensor(rng.uniform(0.05, 0.95, (1, c, 48, 64)).astype(np.float32))
                  for k, c in (("image", 3), ("gt", 1), ("pseudo", 1))} for _ in range(4)]
        cfg = TrainConfig(loss="salgan")
        params = trainer._trainable_params(graph, store, cfg)
        for _, t in params:
            t.requires_grad = True
        state, peaks = {}, []
        tracemalloc.start()
        try:
            for _ in range(2):
                tracemalloc.reset_peak()
                trainer._train_step(graph, store, batch, cfg, params, 0.01, state)
                peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        buffers = sum(v.nbytes for v in state.values())
        assert max(peaks) < 21 * 2 ** 20 and peaks[1] - buffers < 12.5 * 2 ** 20

    def test_salgan_step_shuffles_only_the_collapsed_tail(self, rich_dataset, monkeypatch):
        # the step trains the collapsed C decoder: no 1408-channel concat is
        # shuffled, only the 4 channels in front of the final shuffle
        seen = []
        shuffle = kernels.pixel_shuffle

        def recording(x, r):
            seen.append(x.shape[1])
            return shuffle(x, r)

        monkeypatch.setattr(kernels, "pixel_shuffle", recording)
        graph = build_fastsal("C", (4, 3, 48, 64))
        store = init_weights(graph, seed=9)
        before = store.get("decoder.out.w").data.copy()
        cfg = TrainConfig(loss="salgan", epochs=1, batch_size=4, max_steps=1)
        trainer.train(rich_dataset, cfg, graph, store)
        assert seen == [4]
        assert not np.array_equal(store.get("decoder.out.w").data, before)

    def test_hint_step_runs_only_adapt_ancestors(self, monkeypatch):
        # the hint loss reads the decoder.adapt* outputs only: its step runs
        # none of the C decoder tail, and its loss and update are bit for bit
        # those of a step on the whole paper graph
        graph = build_fastsal("C", (2, 3, 48, 64), width=0.25)
        shapes = graph.infer_shapes()
        rng = np.random.default_rng(12)
        batch = [{"image": Tensor(rng.normal(size=(1, 3, 48, 64)).astype(np.float32)),
                  "hint": [Tensor(rng.normal(size=(1,) + shapes[n][1:]).astype(np.float32))
                           for n in trainer.ADAPT_LAYERS]} for _ in range(2)]
        cfg = TrainConfig(loss="hint")
        ref, got = (randomize_weights(init_weights(graph, seed=0), seed=6) for _ in range(2))

        params = trainer._trainable_params(graph, ref, cfg)
        for _, t in params:
            t.requires_grad = True
        with Tape() as tape:
            ref_loss = trainer._batch_loss(graph, ref, batch, cfg, training=True)
        trainer.sgd_step(params, tape.gradients(ref_loss, [t for _, t in params]),
                         0.01, {}, cfg.momentum)

        seen = []
        shuffle = kernels.pixel_shuffle

        def recording(x, r):
            seen.append(x.shape[1])
            return shuffle(x, r)

        monkeypatch.setattr(kernels, "pixel_shuffle", recording)
        params = trainer._trainable_params(graph, got, cfg)
        for _, t in params:
            t.requires_grad = True
        loss = trainer._train_step(graph, got, batch, cfg, params, 0.01, {})
        assert seen == []
        assert loss == float(ref_loss.data.reshape(()))
        for k in ref.names():
            np.testing.assert_array_equal(got.get(k).data, ref.get(k).data, err_msg=k)

    @pytest.mark.parametrize("loss", ["salgan", "hint"])
    def test_clip_in_place_keeps_step_bit_identical(self, rich_dataset, loss, monkeypatch):
        # random BN statistics and biases; the step with its relu6 layers
        # clipping in place has the loss, gradients and updated weights and
        # BN statistics of the step without. The gradients are folded into
        # the momentum buffers during the backward, so after one step from
        # no state the buffers are the gradients, bit for bit
        graph = small_graph()
        cfg = TrainConfig(loss=loss)
        batch = trainer._load_records(rich_dataset, cfg, (48, 64))[:2]
        real = trainer.write_in_place
        runs = []
        for on in (True, False):
            store = randomize_weights(init_weights(graph, seed=0), seed=9)
            params = trainer._trainable_params(graph, store, cfg)
            for _, t in params:
                t.requires_grad = True
            got = {"marked": 0}

            def clip(g, keep=()):
                out = real(g, keep) if on else g
                got["marked"] += sum(bool(l.params.get("inplace")) for l in out.layers)
                return out

            monkeypatch.setattr(trainer, "write_in_place", clip)
            got["momentum"] = {}
            got["loss"] = trainer._train_step(graph, store, batch, cfg, params, 0.01,
                                              got["momentum"])
            got["store"] = store
            runs.append(got)
        on, off = runs
        assert on["marked"] > 0 and off["marked"] == 0
        assert on["loss"] == off["loss"]
        assert on["momentum"].keys() == off["momentum"].keys() == {s for s, _ in params}
        for k, a in on["momentum"].items():
            np.testing.assert_array_equal(a, off["momentum"][k], err_msg=k)
        for k in on["store"].names():
            np.testing.assert_array_equal(on["store"].get(k).data, off["store"].get(k).data,
                                          err_msg=k)

    def test_clip_in_place_keeps_train_log(self, rich_dataset, monkeypatch):
        # per-epoch loss, NSS and CC with the pass in the steps and in
        # validation (through prepare_inference), and with it off in both
        cfg = TrainConfig(loss="salgan", epochs=2, batch_size=2, validate_metrics=True)
        graph = small_graph()
        logs = []
        for on in (True, False):
            if not on:
                monkeypatch.setattr(trainer, "write_in_place", lambda g, keep=(): g)
                monkeypatch.setattr(network, "write_in_place", lambda g, keep=(): g)
            store = randomize_weights(init_weights(graph, seed=0), seed=9)
            logs.append(trainer.train(rich_dataset, cfg, graph, store).rows)
        assert logs[0] == logs[1]
        assert all(r.nss is not None for r in logs[0])

    def test_requires_grad_reset_after_training(self, rich_dataset):
        graph = small_graph()
        store = init_weights(graph, seed=6)
        cfg = TrainConfig(loss="salgan", epochs=1, batch_size=2, max_steps=1)
        trainer.train(rich_dataset, cfg, graph, store)
        assert not any(t.requires_grad for t in store.tensors.values())

    def test_missing_teacher_fails_fast(self, tmp_path):
        manifest = build_synthetic_dataset(str(tmp_path / "d"), n=2)
        loaded = load_manifest(manifest)
        for rec in loaded:
            rec.teacher = None
        graph = small_graph()
        store = init_weights(graph)
        cfg = TrainConfig(loss="salgan", use_gt=False, use_teacher=True,
                          epochs=1)
        with pytest.raises(ConfigError, match="pseudo map"):
            trainer.train(loaded, cfg, graph, store)

    def test_hint_without_features_fails_fast(self, tmp_path):
        manifest = build_synthetic_dataset(str(tmp_path / "d"), n=2)
        graph = small_graph()
        store = init_weights(graph)
        cfg = TrainConfig(loss="hint", epochs=1)
        with pytest.raises(ConfigError, match="hint"):
            trainer.train(load_manifest(manifest), cfg, graph, store)


class TestLogAndAblation:
    def test_log_csv_round_trip(self, tmp_path):
        log = trainer.TrainLog(rows=[
            trainer.LogRow(0, 0.01, 1.25, 0.5, None),
            trainer.LogRow(1, 0.01, 1.00, None, 0.25)])
        path = tmp_path / "log.csv"
        log.write_csv(str(path))
        rows = list(csv.DictReader(path.read_text().splitlines()))
        assert rows[0]["epoch"] == "0"
        assert float(rows[0]["mean_loss"]) == pytest.approx(1.25)
        assert rows[0]["cc"] == ""
        assert float(rows[1]["cc"]) == pytest.approx(0.25)

    def test_ablation_five_rows(self, rich_dataset, tmp_path):
        graph = small_graph()
        cfg = TrainConfig(epochs=1, batch_size=2, max_steps=1)
        results = trainer.ablation_run(rich_dataset, graph,
                                       lambda: init_weights(graph, seed=0),
                                       config=cfg)
        assert len(results) == 5
        combos = [(r["pretrain"], r["finetune"], r["gt"]) for r in results]
        assert combos == list(trainer.ABLATION_ROWS)
        assert all(np.isfinite(r["nss"]) and np.isfinite(r["cc"])
                   for r in results)
        path = tmp_path / "ablation.csv"
        trainer.ablation_csv(results, str(path))
        rows = list(csv.DictReader(path.read_text().splitlines()))
        assert len(rows) == 5
        assert {"pretrain", "finetune", "gt", "nss", "cc"} <= set(rows[0])
