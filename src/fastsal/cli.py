"""Command-line entry point: predict, analyze, bench, eval, train, grad-check.

`bench` times the graph as `prepare_inference` rewrites it; it sets no
thread count. `main` first sets glibc's malloc, once per process, to keep
freed memory in the heap (_keep_freed_pages), so that repeated requests in
one process do not page-fault their activations in again; it adds no flag.

`predict` and `eval --model` take the model from _prepared_model, which
memoises one prepared (graph, store) per process: the paper graph is built,
the file loaded and checked against it, and prepare_inference run once, and
later requests for the same model reuse them. The key is the model path with
its os.stat identity (st_dev, st_ino, st_size, st_mtime_ns), the variant, the
parsed size and the width; a new key replaces the one model held. A file
rewritten in place with the same size within one mtime tick keeps the old
key, so such a rewrite is missed. Failures are not cached: a bad file raises
the same error on every request. A process that serves one request, such as
a one-shot `fastsal predict`, gains nothing. The flag parser is likewise
built once per process; each handler is looked up by name when it runs.

Exit codes: 0 success, 1 validation error (bad flags, such as a width or
grad-check tolerance not positive and finite, a size not a positive multiple
of 32, an epoch, batch or step count below 1 or a negative seed; malformed
input), 2 runtime failure. Diagnostics go to stderr; results to stdout or --out."""

from __future__ import annotations

import argparse
import csv
import ctypes
import dataclasses
import functools
import io
import os
import sys

import numpy as np

from . import analyzer, bench, data_io, metrics as metrics_mod, trainer
from .errors import ConfigError, ContractError, FastSalError, ParseError
from .network import (build_fastsal, check_weights, init_weights, load_weights,
                      prepare_inference, save_weights)
from .tensor import Tensor, sigmoid


@functools.cache
def _keep_freed_pages():
    """Tell glibc's malloc to keep freed memory in the process heap: blocks
    up to 32 MiB come from the heap rather than their own mmap, and the top
    of the heap is not handed back to the kernel until 256 MiB of it are
    free. A request's activations are then reused by the next request, eval
    record or training step instead of being returned and faulted in again.
    Both values are set because setting the trim threshold alone turns off
    glibc's adaptive mmap threshold. Does nothing where the C library has no
    mallopt (macOS, musl) or cannot be opened by ctypes.CDLL(None) (Windows)."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(-3, 32 << 20)   # M_MMAP_THRESHOLD
    mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD


def _parse_size(text):
    try:
        h, w = text.lower().split("x")
        h, w = int(h), int(w)
    except ValueError:
        raise ConfigError(f"size must look like 192x256, got '{text}'") from None
    if h % 32 or w % 32:
        raise ConfigError(f"input size must be divisible by 32, got {h}x{w}")
    return h, w


def _graph(args):
    h, w = _parse_size(args.size)
    return build_fastsal(args.variant, (1, 3, h, w), width=args.width)


def _store(args, graph):
    if getattr(args, "model", None):
        store = load_weights(args.model)
    else:
        store = init_weights(graph, seed=getattr(args, "seed", 0))
    check_weights(graph, store)
    return store


@functools.lru_cache(maxsize=1)
def _prepared_model(path, identity, variant, size, width):
    """The prepared (graph, store) of the model file at path, whose os.stat
    identity is given so that a rewritten file misses the memo. Every hit
    returns the same objects, so callers only run them and never change them."""
    graph = build_fastsal(variant, (1, 3, *size), width=width)
    store = load_weights(path)
    check_weights(graph, store)
    return prepare_inference(graph, store)


def _prepared(args):
    """The graph and store predict and eval run: the memoised model file when
    --model is given, else fresh weights from --seed."""
    if not args.model:
        graph = _graph(args)
        return prepare_inference(graph, _store(args, graph))
    size = _parse_size(args.size)
    st = os.stat(args.model)
    identity = (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns)
    return _prepared_model(args.model, identity, args.variant, size, args.width)


def _cmd_predict(args):
    graph, store = _prepared(args)
    h, w = graph.input_shape[2:]
    x = data_io.load_image(args.image, size=(h, w))
    logits = graph.run(store, x)["out"]
    data_io.save_map(sigmoid(logits), args.out)
    print(args.out)
    return 0


def _cmd_analyze(args):
    graph = _graph(args)
    report = analyzer.analyze(graph)
    if args.csv:
        with open(args.csv, "w") as f:
            f.write(report.to_csv())
    if args.convention:
        print(report.convention)
    print(report.format_table() if args.table else report.to_csv(), end="")
    print(f"# totals: params={report.total_params / 1e6:.3f}M "
          f"flops={report.total_flops / 1e9:.3f}G", file=sys.stderr)
    return 0


def _cmd_bench(args):
    graph = _graph(args)
    store = _store(args, graph)
    report = bench.benchmark(graph, store, iterations=args.iters,
                             warmup=args.warmup, seed=args.seed)
    if args.csv:
        bench.write_csv([report], args.csv)
    print(f"variant={report.variant} iters={report.iterations} "
          f"mean={report.mean_ms:.2f}ms median={report.median_ms:.2f}ms "
          f"p95={report.p95_ms:.2f}ms fps={report.fps:.2f}")
    return 0


def _cmd_eval(args):
    graph, store = _prepared(args)
    h, w = graph.input_shape[2:]
    manifest = data_io.load_manifest(args.manifest)
    rows = []
    for rec in manifest:
        x = data_io.load_image(rec.image, size=(h, w))
        pred = graph.run(store, x)["out"].data[0, 0]
        gt = data_io.load_map(rec.gt, size=(h, w)).data[0, 0] if rec.gt else None
        fix = data_io.load_fixations(rec.fix, bounds=(h, w)) if rec.fix else None
        report = metrics_mod.evaluate(pred, gt_density=gt, fixations=fix)
        rows.append((rec.image, report))
    cols = [f.name for f in dataclasses.fields(metrics_mod.MetricReport)]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["image"] + cols)
    for image, rep in rows:
        vals = [getattr(rep, c) for c in cols]
        writer.writerow([image] + ["" if v is None else f"{v:.5f}" for v in vals])
    out = buf.getvalue()
    if args.csv:
        with open(args.csv, "w") as f:
            f.write(out)
    print(out, end="")
    return 0


def _cmd_train(args):
    graph = _graph(args)
    store = _store(args, graph)
    manifest = data_io.load_manifest(args.manifest)
    config = trainer.TrainConfig(
        loss=args.loss, use_gt=args.gt == "on", use_teacher=args.teacher == "on",
        epochs=args.epochs, batch_size=args.batch_size, seed=args.seed,
        max_steps=args.max_steps, validate_metrics=args.validate).check()
    log = trainer.train(manifest, config, graph, store)
    save_weights(store, args.out)
    if args.log:
        log.write_csv(args.log)
    for row in log.rows:
        print(f"epoch={row.epoch} lr={row.lr:g} loss={row.mean_loss:.5f}"
              + (f" nss={row.nss:.4f}" if row.nss is not None else "")
              + (f" cc={row.cc:.4f}" if row.cc is not None else ""))
    return 0


def _cmd_grad_check(args):
    from . import distill, kernels
    from .tensor import grad_check
    from .tensor import sigmoid as tsigmoid

    if not 0 < args.tolerance < np.inf:
        raise ConfigError(f"--tolerance must be positive and finite, got {args.tolerance}")
    rng = np.random.default_rng(args.seed)
    conv_w = Tensor(rng.standard_normal((2, 3, 3, 3)))
    map_shape = (1, 1, 4, 5)
    gt = Tensor(rng.uniform(0, 1, map_shape))
    pseudo = Tensor(rng.uniform(0, 1, map_shape))
    dist = Tensor(_rand_dist(rng, map_shape))
    cases = {
        "conv2d": lambda t: (kernels.conv2d(
            t, conv_w, None, stride=(1, 1), padding=(1, 1)) ** 2).sum(),
        "sigmoid": lambda t: (tsigmoid(t) ** 2).sum(),
        "softmax_spatial": lambda t: (kernels.softmax_spatial(t) ** 2).sum(),
        "bilinear_resize": lambda t: (kernels.bilinear_resize(t, 5, 7) ** 2).sum(),
        "salgan_loss": lambda t: distill.salgan_loss(t, gt=gt, pseudo=pseudo),
        "deepgaze_loss": lambda t: distill.deepgaze_loss(t, dist),
    }
    failed = 0
    for name, fn in cases.items():
        if name == "conv2d":
            x = Tensor(rng.standard_normal((1, 3, 6, 6)))
        else:
            x = Tensor(rng.standard_normal((1, 1, 4, 5)))
        rep = grad_check(fn, x, tolerance=args.tolerance)
        status = "pass" if rep.passed else "FAIL"
        print(f"{name}: max_rel_err={rep.max_rel_err:.2e} tol={rep.tolerance:g} {status}")
        failed += not rep.passed
    return 0 if failed == 0 else 2


def _rand_dist(rng, shape):
    d = rng.uniform(0.1, 1.0, shape)
    return d / d.sum()


def _common_model_flags(p, model_required=False):
    p.add_argument("--model", required=model_required, help="weight file (.fsal)")
    p.add_argument("--variant", choices=["C", "A"], default="C")
    p.add_argument("--size", default="192x256", help="input size as HxW")
    p.add_argument("--width", type=float, default=1.0,
                   help="backbone width multiplier")
    p.add_argument("--seed", type=int, default=0)


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(prog="fastsal",
                                     description="Efficient saliency engine")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("predict", help="run inference on one image")
    _common_model_flags(p, model_required=True)
    p.add_argument("--image", required=True)
    p.add_argument("--out", required=True, help="output P5 map path")
    p.set_defaults(fn="_cmd_predict")

    p = sub.add_parser("analyze", help="parameter and FLOP accounting")
    _common_model_flags(p)
    p.add_argument("--csv", help="write per-layer CSV here")
    p.add_argument("--table", action="store_true", help="human-readable table")
    p.add_argument("--convention", action="store_true",
                   help="print the counting convention")
    p.set_defaults(fn="_cmd_analyze")

    p = sub.add_parser("bench", help="wall-clock inference benchmark")
    _common_model_flags(p)
    p.add_argument("--iters", type=int, default=100)
    p.add_argument("--warmup", type=int, default=10)
    p.add_argument("--csv")
    p.set_defaults(fn="_cmd_bench")

    p = sub.add_parser("eval", help="metric suite over a manifest")
    _common_model_flags(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--csv")
    p.set_defaults(fn="_cmd_eval")

    p = sub.add_parser("train", help="toy-scale training")
    _common_model_flags(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--loss", choices=["hint", "salgan", "deepgaze"],
                   default="salgan")
    p.add_argument("--gt", choices=["on", "off"], default="on")
    p.add_argument("--teacher", choices=["on", "off"], default="on")
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--batch-size", type=int, default=4)
    p.add_argument("--max-steps", type=int, default=None)
    p.add_argument("--validate", action="store_true",
                   help="log NSS/CC on the training manifest per epoch")
    p.add_argument("--out", required=True, help="final weight file")
    p.add_argument("--log", help="per-epoch CSV log")
    p.set_defaults(fn="_cmd_train")

    p = sub.add_parser("grad-check", help="finite-difference gradient checks")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.set_defaults(fn="_cmd_grad_check")

    return parser


def main(argv=None):
    _keep_freed_pages()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 1 if e.code not in (0, None) else 0
    try:
        if args.seed < 0:  # every subcommand takes --seed
            raise ConfigError(f"--seed must be a non-negative integer, got {args.seed}")
        # by name, so that a handler replaced after the parser was built runs
        return globals()[args.fn](args)
    except (ConfigError, ContractError, ParseError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except FastSalError as e:
        print(f"runtime failure: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
