"""One workload process: set up, run operations in a closed loop for a fixed
time, check every output, and print one JSON result as the last stdout line.

run.py starts this with the BLAS thread count already in the environment, so
it is in effect when numpy is imported here. ``--role setup`` stops when the
process is ready for its first operation and reports only the set-up time.
With ``--trace 1`` even operations run traced and odd ones untraced on the
same input, then the tracer self-checks and the metrics probe run.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))


class Predict:
    """One operation is one ``fastsal predict`` request through cli.main."""

    def __init__(self, spec, opsdir, tolerance):
        self.spec, self.outdir, self.tolerance = spec, opsdir, tolerance
        self.stream = spec["stream"]

    def setup(self):
        from fastsal import cli
        self.cli = cli
        rc, err = self._request(0, os.path.join(self.outdir, "warmup.pgm"))
        if rc != 0:
            raise RuntimeError(f"warm-up request exited {rc}: {err}")

    def _request(self, k, out):
        item = self.stream[k % len(self.stream)]
        argv = ["predict", "--variant", self.spec["variant"], "--size", "x".join(map(str, self.spec["size"])),
                "--model", self.spec["model"], "--image", item["image"], "--out", out]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = self.cli.main(argv)
        return rc, err.getvalue().strip()

    def before(self, i):
        return None

    def run(self, i, k, _):
        out = os.path.join(self.outdir, f"op{i}.pgm")
        rc, err = self._request(k, out)
        return {"rc": rc, "err": err, "out": out, "k": k}

    def items(self, result):
        return 1

    def group(self, k):
        item = self.stream[k % len(self.stream)]
        return f"{item['format']} {'resized' if item['resized'] else 'native'}"

    def output_map(self, result):
        import inputs
        return inputs.read_pgm(result["out"])

    def check(self, result, first):
        import numpy as np
        if result["rc"] != 0:
            return f"exit code {result['rc']}: {result['err']}"
        ref = np.load(self.stream[result["k"] % len(self.stream)]["reference"])
        got = self.output_map(result)
        if got.shape != ref.shape:
            return f"map shape {got.shape} != reference {ref.shape}"
        diff = float(np.abs(got - ref).max())
        if diff > self.tolerance:
            return f"map differs from reference by {diff:.3f} grey levels (> {self.tolerance})"
        return None

    def same(self, a, b):
        with open(a["out"], "rb") as fa, open(b["out"], "rb") as fb:
            return fa.read() == fb.read()

    def selfcheck_graph(self):
        from fastsal import network
        graph = network.build_fastsal(self.spec["variant"], (1, 3, *self.spec["size"]))
        return graph, network.load_weights(self.spec["model"])

    def probe_inputs(self, result):
        import numpy as np
        k = result["k"] % len(self.stream)
        item = self.stream[k]
        neg = self.stream[(k + 1) % len(self.stream)]["fixations"]
        return (self.output_map(result) / 255.0, item["fixations"], neg,
                np.load(item["gt"]), np.load(self.spec["baseline"]))


class Train:
    """One operation is one trainer.train call on the generated manifest."""

    def __init__(self, spec, *_):
        self.spec = spec

    def setup(self):
        from fastsal import data_io, network, trainer
        self.trainer = trainer
        self.manifest = data_io.load_manifest(self.spec["manifest"])
        self.graph = network.build_fastsal("C", tuple(self.spec["input_shape"]))
        self.store = network.init_weights(self.graph, seed=self.spec["seed"])
        self.config = trainer.TrainConfig(
            loss="salgan", use_gt=True, use_teacher=True, epochs=self.spec["epochs"],
            batch_size=self.spec["input_shape"][0], seed=self.spec["seed"],
            validate_metrics=True).check()

    def before(self, i):
        return self.store.copy()

    def run(self, i, k, store):
        log = self.trainer.train(self.manifest, self.config, self.graph, store)
        return {"rows": [[r.mean_loss, r.nss, r.cc] for r in log.rows]}

    def items(self, result):
        return len(result["rows"]) * self.spec["records"]

    def group(self, k):
        return f"{self.spec['resized_share']:.0%} of records resized"

    def check(self, result, first):
        rows = result["rows"]
        if len(rows) != self.spec["epochs"]:
            return f"{len(rows)} epochs logged, expected {self.spec['epochs']}"
        if not all(v is not None and math.isfinite(v) for row in rows for v in row):
            return f"non-finite loss or validation metric: {rows}"
        if first is not None and rows != first["rows"]:
            return f"per-epoch results {rows} differ from the run's first call {first['rows']}"
        return None

    def same(self, a, b):
        return a["rows"] == b["rows"]

    def selfcheck_graph(self):
        return self.graph, self.store


def blas_threads():
    """Thread count reported by the OpenBLAS library numpy loaded, or None."""
    with open("/proc/self/maps") as f:
        libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads", "scipy_openblas_get_num_threads"):
            if hasattr(handle, sym):
                fn = getattr(handle, sym)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment():
    import numpy as np
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    cpu = None
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=20)
        commit = git.stdout.strip() if git.returncode == 0 else None
    except OSError:
        commit = None
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "fastsal")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as f:
                digest.update(name.encode() + b"\0" + f.read())
    return {"numpy": np.__version__, "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": blas_threads(), "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
            "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(), "git_commit": commit,
            "src_sha256": digest.hexdigest()}


def closed_loop(wl, seconds, tr):
    """Run operations back to back until `seconds` have passed. Traced runs
    alternate traced (even) and untraced (odd) operations on the same input
    and always end on a complete pair."""
    ops = []
    t_start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - t_start < seconds or (tr and i % 2):
        traced = tr is not None and i % 2 == 0
        k = i // 2 if tr is not None else i
        state = wl.before(i)
        if traced:
            tr.op_id = i
            tr.install()
        t0 = time.perf_counter()
        try:
            result, error = wl.run(i, k, state), None
        except Exception as e:  # every failure is counted, none stops the run
            result, error = None, f"{type(e).__name__}: {e}"
        t1 = time.perf_counter()
        if traced:
            tr.uninstall()
        ops.append({"i": i, "k": k, "ms": (t1 - t0) * 1e3, "traced": traced,
                    "result": result, "error": error})
        i += 1
    return ops, time.perf_counter() - t_start


def check_all(wl, ops):
    first = None
    for op in ops:
        if op["error"] is None:
            try:
                op["error"] = wl.check(op["result"], first)
            except Exception as e:  # a check that cannot run is a failed operation
                op["error"] = f"check raised {type(e).__name__}: {e}"
        if op["error"] is None and first is None:
            first = op["result"]


def latency_stats(ms, failed):
    """Median and the highest percentile with at least ten samples beyond it.
    Failed operations count as infinitely slow."""
    import numpy as np
    lat = np.sort(np.concatenate([np.asarray(ms, dtype=float), np.full(failed, np.inf)]))
    n = lat.size
    p50 = float(np.median(lat))
    if n > 10:
        tail, pct = float(lat[n - 11]), 100.0 * (n - 10) / n
    else:
        tail, pct = p50, 50.0
    return p50, tail, {"percentile": round(pct, 1), "samples": int(n)}


def measure(wl, args, setup_s):
    ops, elapsed = closed_loop(wl, args.seconds, None)
    check_all(wl, ops)
    failed = [op for op in ops if op["error"]]
    ok = [op for op in ops if not op["error"]]
    p50, tail, tail_info = latency_stats([op["ms"] for op in ok], len(failed))
    groups = {}
    for op in ops:
        g = wl.group(op["k"])
        groups[g] = groups.get(g, 0) + 1
    metrics = {
        "latency_ms_p50": (p50, "ms"),
        "latency_ms_tail": (tail, "ms"),
        "items_per_s": (sum(wl.items(op["result"]) for op in ok) / elapsed, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "ok_share": (len(ok) / len(ops), "ratio"),
    }
    return {"attempted": len(ops), "failed": len(failed),
            "failures": [op["error"] for op in failed][:20],
            "tail": tail_info, "elapsed_s": elapsed,
            "latencies_ms": [op["ms"] for op in ops],
            "groups": {g: n / len(ops) for g, n in sorted(groups.items())},
            "metrics": metrics}


def per_layer_metrics(table, n_ops, paper_flops, overhead_ms, peak_alloc_mib):
    """Every per-layer figure, per traced operation, as (value, unit)."""
    import tracer

    def row(name):
        return table.get(name) or dict.fromkeys(tracer.ROW_KEYS, 0)

    m = {}
    kernel_names = ([f"kernels.conv2d.{p}" for p in tracer.CONV_PATHS]
                    + [f"kernels.{a}" for a in tracer.KERNEL_KINDS])
    for name in kernel_names:
        r = row(name)
        m[name + ".ms"] = (r["ms"], "ms")
        m[name + ".calls"] = (r["calls"], "count")
        m[name + ".flops"] = (r["flops"], "count")
        m[name + ".mbytes"] = (r["bytes"] / 1e6, "MB-computed")
        m[name + ".gflops_s"] = (r["flops"] / r["ms"] / 1e6 if r["ms"] else 0.0, "GFLOP/s")
        m[name + ".bwd_ms"] = (row(name + ".bwd")["ms"], "ms")
    for op in tracer.TENSOR_OPS:
        m[f"tensor.{op}.ms"] = (row(f"tensor.{op}")["ms"], "ms")
        m[f"tensor.{op}.bwd_ms"] = (row(f"tensor.{op}.bwd")["ms"], "ms")
    back = row("tensor.backward")
    m["tensor.backward.ms"] = (back["ms"], "ms")
    m["tensor.backward.self_ms"] = (back["self_ms"], "ms")
    m["tensor.tape_nodes"] = (back["tape_nodes"], "count")
    run = row("network.run")
    m["network.run.ms"] = (run["ms"], "ms")
    m["network.run.self_ms"] = (run["self_ms"], "ms")
    m["network.run.calls"] = (run["calls"], "count")
    m["network.run.peak_alloc_mib"] = (peak_alloc_mib, "MiB")
    for name in ("network.build_fastsal", "network.load_weights", "network.check_weights",
                 "data_io.load_image", "data_io.save_map", "cli.main", "data_io.load_manifest",
                 "data_io.load_teacher_bundle", "data_io.load_map", "data_io.load_fixations",
                 "distill.salgan_loss", "trainer.sgd_step", "trainer.train"):
        m[name + ".ms"] = (row(name)["ms"], "ms")
    m["trainer.steps"] = (row("trainer.sgd_step")["calls"], "count")
    for fn in tracer.PROBE_METRICS:
        r = row("metrics." + fn)
        m[f"metrics.{fn}.ms"] = (r["ms"], "ms")
        m[f"metrics.{fn}.calls"] = (r["calls"], "count")
        m[f"metrics.{fn}.failed"] = (r["failed"], "count")
    m["kernels.flops"] = (sum(r["flops"] for r in table.values()), "count")
    m["analyzer.paper_flops"] = (paper_flops, "count")
    m["trace.overhead_ms"] = (overhead_ms, "ms")
    m["trace.ops"] = (n_ops, "count")
    return m


def probe(wl, tr, op):
    """Call each saliency metric once on an operation's output map."""
    import tracer
    from fastsal import metrics
    pred, fix, neg, gt, baseline = wl.probe_inputs(op["result"])
    calls = {"auc_judd": (pred, fix), "auc_shuffled": (pred, fix, neg), "nss": (pred, fix),
             "cc": (pred, gt), "sim": (pred, gt), "kldiv": (pred, gt),
             "info_gain": (pred, fix, baseline)}
    errors = {}
    tr.op_id = op["i"]
    tr.install()
    try:
        for fn in tracer.PROBE_METRICS:
            try:
                getattr(metrics, fn)(*calls[fn])
            except Exception as e:  # the probe records failures and carries on
                errors[fn] = f"{type(e).__name__}: {e}"
    finally:
        tr.uninstall()
    return errors


def measure_traced(wl, args):
    import numpy as np
    import tracer
    from fastsal import analyzer
    from fastsal.tensor import Tensor

    tr = tracer.Tracer()
    ops, _ = closed_loop(wl, args.seconds, tr)
    check_all(wl, ops)
    checks = {}
    pairs = [(ops[j], ops[j + 1]) for j in range(0, len(ops), 2)]
    checks["traced_equals_untraced"] = all(
        a["error"] is None and b["error"] is None and wl.same(a["result"], b["result"])
        for a, b in pairs)
    traced = [op for op in ops if op["traced"]]
    untraced = [op for op in ops if not op["traced"]]
    overhead = (float(np.median([op["ms"] for op in traced]))
                - float(np.median([op["ms"] for op in untraced])))

    graph, store = wl.selfcheck_graph()
    x = Tensor(np.random.default_rng(args.seed).standard_normal(
        (graph.input_shape[0], 3, *graph.input_shape[2:])).astype(np.float32))
    tr.op_id = -2
    root = len(tr.name)
    tr.install()
    try:
        out_traced = graph.run(store, x)["out"].data
    finally:
        tr.uninstall()
    out_plain = graph.run(store, x)["out"].data
    paper_flops = analyzer.analyze(graph).total_flops
    run_flops = tr.flops_under(root)
    checks["selfcheck_output_bit_equal"] = bool(np.array_equal(out_traced, out_plain))
    checks["flops_intercepted"] = run_flops
    checks["flops_analyzer"] = paper_flops
    checks["flops_equal"] = run_flops == paper_flops
    checks["self_times_nonnegative"] = min(tr.self_times()) >= 0

    with tracer.PeakAlloc() as pa:
        wl.run(len(ops), 0, wl.before(len(ops)))
    peak_alloc = max(pa.peaks) / 2 ** 20

    probe_errors = {}
    if isinstance(wl, Predict):
        for op in traced:
            if op["error"] is None:
                for fn, err in probe(wl, tr, op).items():
                    probe_errors.setdefault(fn, err)

    traced_ids = [op["i"] for op in traced]
    table = tr.per_op(traced_ids)
    metrics = per_layer_metrics(table, len(traced_ids), paper_flops, overhead, peak_alloc)
    tr.write(os.path.join(args.outdir, "spans.json.gz"))
    failed = [op for op in ops if op["error"]]
    return {"attempted": len(ops), "failed": len(failed),
            "failures": [op["error"] for op in failed][:20],
            "checks": checks, "probe_errors": probe_errors,
            "latencies_ms": [op["ms"] for op in ops],
            "overhead": {"traced_p50_ms": float(np.median([op["ms"] for op in traced])),
                         "untraced_p50_ms": float(np.median([op["ms"] for op in untraced])),
                         "overhead_ms": overhead},
            "layers": dict(sorted(table.items())),
            "metrics": metrics}


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--spec", required=True)
    p.add_argument("--outdir", required=True, help="where the span file goes")
    p.add_argument("--opsdir", required=True, help="where operations write their outputs")
    p.add_argument("--role", choices=["setup", "measure"], required=True)
    p.add_argument("--t0", type=float, required=True, help="time.monotonic() at spawn")
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--map-tolerance", type=float, default=1.0)
    args = p.parse_args()
    with open(args.spec) as f:
        spec = json.load(f)
    if args.trace:
        import tracer
        tr_setup = tracer.Tracer()
        tr_setup.install()
    cls = Predict if spec["kind"] == "predict" else Train
    wl = cls(spec, args.opsdir, args.map_tolerance)
    wl.setup()
    setup_s = time.monotonic() - args.t0
    if args.trace:
        tr_setup.uninstall()
    if args.role == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0
    result = measure_traced(wl, args) if args.trace else measure(wl, args, setup_s)
    if args.trace:
        result["setup_layers"] = dict(sorted(tr_setup.per_op([-1]).items()))
    result["environment"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
