"""Seeded benchmark inputs and references, all made before any clock starts.

The same seed gives the same files. Predict workloads get an image stream
(P6 and P5, half already at the model size and half larger so that
``data_io`` resizes them), a model file with non-trivial weights, and a
reference map per image computed from the unrewritten graph through
``NetworkGraph.run``. The reference input is decoded, resized and normalised
here, not through ``data_io``, so a fault in the package's image path shows.
train-C gets a manifest whose records carry an image, a gt map, a fixation
file and a teacher bundle with a pseudo map.
"""

from __future__ import annotations

import dataclasses
import json
import os

import numpy as np

from fastsal import data_io, network
from fastsal.distill import TeacherBundle
from fastsal.tensor import Tensor

PREDICT_SIZE = (192, 256)
LARGE_SIZE = (480, 640)
# (channels, size) of each image in the stream; the seed fixes content and order
STREAM = [(3, PREDICT_SIZE), (1, PREDICT_SIZE), (3, LARGE_SIZE), (1, LARGE_SIZE)]
PROBE_FIXATIONS = 16

TRAIN_SHAPE = (4, 3, 48, 64)
TRAIN_RECORDS = 4
TRAIN_EPOCHS = 2
TRAIN_FIXATIONS = 8

IMAGENET_MEAN = np.array([0.485, 0.456, 0.406], dtype=np.float32).reshape(1, 3, 1, 1)
IMAGENET_STD = np.array([0.229, 0.224, 0.225], dtype=np.float32).reshape(1, 3, 1, 1)


def resize_matrix(n_in, n_out):
    """Bilinear interpolation with half-pixel centres as an (n_out, n_in) matrix."""
    src = (np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5
    i0 = np.floor(src).astype(np.int64)
    frac = src - i0
    m = np.zeros((n_out, n_in))
    rows = np.arange(n_out)
    np.add.at(m, (rows, np.clip(i0, 0, n_in - 1)), 1.0 - frac)
    np.add.at(m, (rows, np.clip(i0 + 1, 0, n_in - 1)), frac)
    return m


def _resize(planes, h, w):
    """Resize the last two axes of a float array."""
    return resize_matrix(planes.shape[-2], h) @ planes @ resize_matrix(planes.shape[-1], w).T


def _smooth_field(rng, shape, cells=(6, 8)):
    """Random low-frequency field in [0, 1] of shape (c, h, w)."""
    c, h, w = shape
    return np.clip(_resize(rng.uniform(0, 1, (c, *cells)), h, w), 0, 1)


def _image(rng, channels, size):
    img = _smooth_field(rng, (channels, *size)) + rng.normal(0, 0.04, (channels, *size))
    return np.clip(np.round(img * 255), 0, 255).astype(np.uint8).transpose(1, 2, 0)


def write_pnm(path, pixels):
    h, w, c = pixels.shape
    with open(path, "wb") as f:
        f.write(f"{'P6' if c == 3 else 'P5'}\n{w} {h}\n255\n".encode())
        f.write(np.ascontiguousarray(pixels).tobytes())


def read_pgm(path):
    """Decode the P5 header this package writes ("P5\\n<w> <h>\\n255\\n")."""
    with open(path, "rb") as f:
        blob = f.read()
    magic, dims, maxval, rest = blob.split(b"\n", 3)
    w, h = (int(v) for v in dims.split())
    if magic != b"P5" or maxval != b"255" or len(rest) != w * h:
        raise ValueError(f"{path}: not an 8-bit P5 map of {w}x{h}")
    return np.frombuffer(rest, dtype=np.uint8).reshape(h, w)


def preprocess(pixels, size):
    """uint8 (H, W, C) to the normalised (1, 3, h, w) float32 model input."""
    arr = pixels.astype(np.float32) / 255
    if arr.shape[2] == 1:
        arr = np.repeat(arr, 3, axis=2)
    x = arr.transpose(2, 0, 1)[None]
    if x.shape[2:] != tuple(size):
        x = _resize(x.astype(np.float64), *size).astype(np.float32)
    return (x - IMAGENET_MEAN) / IMAGENET_STD


def _fixations(rng, density, count):
    p = density.ravel() / density.sum()
    idx = rng.choice(p.size, size=count, replace=False, p=p)
    return [[int(i // density.shape[1]), int(i % density.shape[1])] for i in idx]


def nontrivial_weights(graph, seed, calib_x):
    """init_weights plus random gamma, beta and conv biases, then running
    statistics taken from one training-mode pass over calib_x and perturbed,
    so that a wrong BN fold or decoder collapse changes the output."""
    rng = np.random.default_rng(seed + 7919)
    store = network.init_weights(graph, seed=seed)
    for l in graph.layers:
        if l.kind == "conv" and l.params.get("bias", False):
            store.get(l.name + ".b").data[:] = rng.uniform(-0.3, 0.3, l.params["out_ch"])
        elif l.kind == "bn":
            c = store.get(l.name + ".gamma").size
            store.get(l.name + ".gamma").data[:] = rng.uniform(0.8, 1.2, c)
            store.get(l.name + ".beta").data[:] = rng.uniform(-0.1, 0.1, c)
    calib = dataclasses.replace(graph, layers=[
        dataclasses.replace(l, params=dict(l.params, momentum=1.0)) if l.kind == "bn" else l
        for l in graph.layers])
    calib.run(store, Tensor(calib_x), training=True)
    for l in graph.layers:
        if l.kind == "bn":
            rm, rv = store.get(l.name + ".rmean").data, store.get(l.name + ".rvar").data
            rm += rng.normal(0, 0.1, rm.size) * np.sqrt(rv)
            rv *= rng.uniform(0.8, 1.25, rv.size)
    return store


def reference_map(logits):
    """The saved map before rounding: sigmoid as tensor.sigmoid computes it
    (float32), then per-map min-max scaling to [0, 255] as data_io.save_map."""
    sal = (1.0 / (1.0 + np.exp(-logits))).astype(np.float64)[0, 0]
    lo, hi = sal.min(), sal.max()
    spread = float(logits.max() - logits.min())
    if not spread > 1e-3 * max(1.0, float(np.abs(logits).max())):
        raise RuntimeError(f"reference logits are nearly constant (range {spread:g})")
    return (sal - lo) / (hi - lo) * 255


def prepare_predict(variant, seed, work):
    rng = np.random.default_rng(seed)
    os.makedirs(work)
    images = [{"pixels": _image(rng, ch, size), "format": "P6" if ch == 3 else "P5",
               "resized": size != PREDICT_SIZE} for ch, size in STREAM]
    images = [images[i] for i in rng.permutation(len(images))]
    xs = [preprocess(im["pixels"], PREDICT_SIZE) for im in images]

    graph = network.build_fastsal(variant, (1, 3, *PREDICT_SIZE))
    store = nontrivial_weights(graph, seed, np.concatenate(xs[:2]))
    model = os.path.join(work, f"{variant}.fsal")
    network.save_weights(store, model)
    store = network.load_weights(model)

    center = np.exp(-0.5 * (((np.arange(PREDICT_SIZE[0])[:, None] - 95.5) / 48) ** 2
                            + ((np.arange(PREDICT_SIZE[1])[None, :] - 127.5) / 64) ** 2))
    np.save(os.path.join(work, "baseline.npy"), center)
    stream = []
    for k, (im, x) in enumerate(zip(images, xs)):
        path = os.path.join(work, f"img{k}.{'ppm' if im['format'] == 'P6' else 'pgm'}")
        write_pnm(path, im["pixels"])
        ref = os.path.join(work, f"ref{k}.npy")
        np.save(ref, reference_map(graph.run(store, Tensor(x))["out"].data))
        gt = _smooth_field(rng, (1, *PREDICT_SIZE))[0] ** 3
        np.save(os.path.join(work, f"gt{k}.npy"), gt / gt.max())
        stream.append({"image": path, "reference": ref, "format": im["format"],
                       "resized": im["resized"], "gt": os.path.join(work, f"gt{k}.npy"),
                       "fixations": _fixations(rng, gt, PROBE_FIXATIONS)})
    return {"kind": "predict", "variant": variant, "model": model, "stream": stream,
            "size": list(PREDICT_SIZE), "baseline": os.path.join(work, "baseline.npy")}


def prepare_train(seed, work):
    rng = np.random.default_rng(seed)
    os.makedirs(work)
    h, w = TRAIN_SHAPE[2:]
    lines = []
    resized = []
    for k in range(TRAIN_RECORDS):
        ch = 3 if k % 2 == 0 else 1
        size = (h, w) if k < TRAIN_RECORDS // 2 else (2 * h, 2 * w)
        image = f"img{k}.{'ppm' if ch == 3 else 'pgm'}"
        write_pnm(os.path.join(work, image), _image(rng, ch, size))
        density = _smooth_field(rng, (1, h, w))[0] ** 3
        write_pnm(os.path.join(work, f"gt{k}.pgm"),
                  np.round(density / density.max() * 255).astype(np.uint8)[:, :, None])
        with open(os.path.join(work, f"fix{k}.txt"), "w") as f:
            f.writelines(f"{r} {c}\n" for r, c in _fixations(rng, density, TRAIN_FIXATIONS))
        pseudo = _smooth_field(rng, (1, h, w)).astype(np.float32)[None]
        data_io.save_teacher_bundle(TeacherBundle(pseudo_map=Tensor(pseudo)),
                                    os.path.join(work, f"teacher{k}.fsal"))
        lines.append(json.dumps({"image": image, "gt": f"gt{k}.pgm", "fix": f"fix{k}.txt",
                                 "teacher": f"teacher{k}.fsal"}))
        resized.append(size != (h, w))
    manifest = os.path.join(work, "manifest.jsonl")
    with open(manifest, "w") as f:
        f.write("\n".join(lines) + "\n")
    return {"kind": "train", "manifest": manifest, "seed": seed,
            "input_shape": list(TRAIN_SHAPE), "epochs": TRAIN_EPOCHS, "records": TRAIN_RECORDS,
            "resized_share": sum(resized) / len(resized)}


def prepare(workload, seed, work):
    """Write the inputs of one workload under work and return its spec."""
    if workload == "train-C":
        return prepare_train(seed, work)
    return prepare_predict(workload.split("-")[1], seed, work)
