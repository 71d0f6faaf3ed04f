import json
import os

import numpy as np
import pytest

from fastsal import kernels, tensor
from fastsal.data_io import save_teacher_bundle
from fastsal.distill import TeacherBundle
from fastsal.tensor import Tensor


def write_pgm(path, arr):
    """8-bit binary P5 from a float array in [0,1] or a uint8 array."""
    a = np.asarray(arr)
    if a.dtype != np.uint8:
        a = np.round(np.clip(a, 0, 1) * 255).astype(np.uint8)
    h, w = a.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode())
        f.write(a.tobytes())


def write_ppm(path, arr):
    """8-bit binary P6 from an (H,W,3) float array in [0,1] or uint8."""
    a = np.asarray(arr)
    if a.dtype != np.uint8:
        a = np.round(np.clip(a, 0, 1) * 255).astype(np.uint8)
    h, w, _ = a.shape
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode())
        f.write(a.tobytes())


def randomize_weights(store, seed):
    """Random BN statistics and non-zero conv biases, in place, so that a
    rewrite that mis-folds a BN or drops a bias changes the output."""
    rng = np.random.default_rng(seed)
    for name in store.names():
        t = store.get(name).data
        if name.endswith((".b", ".beta", ".rmean")):
            t[:] = rng.uniform(-0.5, 0.5, t.shape)
        elif name.endswith((".gamma", ".rvar")):
            t[:] = rng.uniform(0.5, 1.5, t.shape)
    return store


def every_layer(graph):
    """want naming every layer: run() then writes nothing in place and
    releases nothing."""
    return [l.name for l in graph.layers]


def inplace_spy(monkeypatch):
    """Wrap tensor.relu6 and kernels.batch_norm, through their modules as
    perfbench's tracer wraps them, so that each call appends its inplace
    keyword to the returned list."""
    flags = []

    def recording(fn):
        def wrapper(*args, **kwargs):
            flags.append(kwargs.get("inplace", False))
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(tensor, "relu6", recording(tensor.relu6))
    monkeypatch.setattr(kernels, "batch_norm", recording(kernels.batch_norm))
    return flags


def written_in_place(graph, flags):
    """Names of the relu6 and bn layers of graph that wrote into their
    input's buffer, from the inplace_spy flags of one run of graph."""
    names = [l.name for l in graph.layers if l.kind in ("relu6", "bn")]
    assert len(flags) == len(names)
    return [n for n, inplace in zip(names, flags) if inplace]


def make_blob_map(h, w, cy, cx, sigma):
    yy, xx = np.mgrid[0:h, 0:w]
    m = np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * sigma ** 2))
    return m / m.max()


def build_synthetic_dataset(root, n=16, size=(48, 64), seed=0, with_hints=None,
                            with_dist=False):
    """Synthetic images with blob pseudo-saliency: P6 image, P5 gt map,
    fixation file, and a teacher bundle per record, plus a JSONL manifest.

    with_hints: optional list of 4 (C,H,W) shapes for hint feature tensors.
    """
    rng = np.random.default_rng(seed)
    h, w = size
    records = []
    os.makedirs(root, exist_ok=True)
    for i in range(n):
        cy, cx = rng.integers(8, h - 8), rng.integers(8, w - 8)
        blob = make_blob_map(h, w, cy, cx, sigma=6.0)
        img = np.stack([blob * 0.8 + 0.1,
                        rng.uniform(0, 1, (h, w)) * 0.3,
                        1.0 - blob * 0.7], axis=2)
        image_path = os.path.join(root, f"img{i:02d}.ppm")
        gt_path = os.path.join(root, f"gt{i:02d}.pgm")
        fix_path = os.path.join(root, f"fix{i:02d}.txt")
        teach_path = os.path.join(root, f"teacher{i:02d}.fsal")
        write_ppm(image_path, img)
        write_pgm(gt_path, blob)
        fixes = [(int(np.clip(cy + dy, 0, h - 1)), int(np.clip(cx + dx, 0, w - 1)))
                 for dy, dx in ((0, 0), (2, -1), (-3, 2), (1, 4))]
        with open(fix_path, "w") as f:
            f.writelines(f"{r} {c}\n" for r, c in fixes)
        pseudo = np.clip(blob + rng.normal(0, 0.03, (h, w)), 0, 1)
        bundle = TeacherBundle(pseudo_map=Tensor(pseudo[None, None].astype(np.float32)))
        if with_dist:
            d = pseudo + 1e-3
            bundle.pseudo_dist = Tensor((d / d.sum())[None, None].astype(np.float32))
        if with_hints:
            bundle.hint_features = [
                Tensor(rng.normal(0, 0.5, (1, c, fh, fw)).astype(np.float32))
                for c, fh, fw in with_hints]
        save_teacher_bundle(bundle, teach_path)
        records.append({"image": os.path.basename(image_path),
                        "gt": os.path.basename(gt_path),
                        "fix": os.path.basename(fix_path),
                        "teacher": os.path.basename(teach_path)})
    manifest_path = os.path.join(root, "manifest.jsonl")
    with open(manifest_path, "w") as f:
        f.writelines(json.dumps(r) + "\n" for r in records)
    return manifest_path


@pytest.fixture
def synthetic_dataset(tmp_path):
    return build_synthetic_dataset(str(tmp_path / "data"), n=6, size=(48, 64))
