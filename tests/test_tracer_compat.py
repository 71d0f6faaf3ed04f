"""The benchmark's span tracer (perfbench/tracer.py) wraps engine functions
with copies of their signatures. These tests run it, unedited, over one
prepared variant A forward, one variant C salgan training step and two
predict requests through cli.main, so that a signature change fails here
and not only in the benchmark's traced runs."""

import importlib.util
import os

import numpy as np
import pytest

from conftest import build_synthetic_dataset, randomize_weights, write_ppm
from fastsal import analyzer, cli, trainer
from fastsal.data_io import load_manifest
from fastsal.network import build_fastsal, init_weights, prepare_inference, save_weights
from fastsal.tensor import Tensor

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "tracer.py")


@pytest.fixture
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced(tr, fn):
    root = len(tr.name)
    tr.install()
    try:
        out = fn()
    finally:
        tr.uninstall()
    assert not any(tr.failed[root:])
    tr.per_op([tr.op_id])
    return out, root


def test_prepared_a_forward(tracer):
    graph = build_fastsal("A", (1, 3, 48, 64), width=0.25)
    store = randomize_weights(init_weights(graph, seed=0), seed=3)
    pg, ps = prepare_inference(graph, store)
    x = Tensor(np.random.default_rng(4).normal(size=(1, 3, 48, 64)).astype(np.float32))
    tr = tracer.Tracer()
    out, root = _traced(tr, lambda: pg.run(ps, x)["out"].data)
    np.testing.assert_array_equal(out, pg.run(ps, x)["out"].data)
    assert {"tensor.relu6", "kernels.conv2d.depthwise", "network.run"} <= set(tr.name)
    assert tr.flops_under(root) == analyzer.analyze(pg).total_flops


def test_c_salgan_step(tracer, tmp_path):
    graph = build_fastsal("C", (2, 3, 48, 64), width=0.25)
    manifest = load_manifest(build_synthetic_dataset(str(tmp_path / "d"), n=2))
    cfg = trainer.TrainConfig(loss="salgan", epochs=1, batch_size=2)
    store = randomize_weights(init_weights(graph, seed=0), seed=3)
    tr = tracer.Tracer()
    log, _ = _traced(tr, lambda: trainer.train(manifest, cfg, graph, store))
    assert np.isfinite(log.rows[0].mean_loss)
    assert {"trainer.train", "trainer.sgd_step", "tensor.backward", "tensor.relu6.bwd",
            "kernels.conv2d.depthwise.bwd", "data_io.load_teacher_bundle"} <= set(tr.name)


def test_predict_requests_prepare_the_model_once(tracer, tmp_path, capsys):
    graph = build_fastsal("A", (1, 3, 64, 64), width=0.25)
    model = str(tmp_path / "a.fsal")
    save_weights(randomize_weights(init_weights(graph, seed=0), seed=3), model)
    image = str(tmp_path / "img.ppm")
    write_ppm(image, np.random.default_rng(5).uniform(0, 1, (64, 64, 3)))
    cli._prepared_model.cache_clear()
    tr = tracer.Tracer()
    tr.install()
    try:
        for op in range(2):
            tr.op_id = op
            assert cli.main(["predict", "--variant", "A", "--size", "64x64",
                             "--width", "0.25", "--model", model, "--image", image,
                             "--out", str(tmp_path / f"o{op}.pgm")]) == 0
    finally:
        tr.uninstall()
        cli._prepared_model.cache_clear()
    capsys.readouterr()
    assert not any(tr.failed)
    prepare = {"network.load_weights", "network.check_weights", "network.build_fastsal"}
    names = [{n for n, o in zip(tr.name, tr.op) if o == op} for op in range(2)]
    assert prepare <= names[0]
    assert not prepare & names[1]
    assert {"cli.main", "network.run", "kernels.conv2d.depthwise"} <= names[1]
