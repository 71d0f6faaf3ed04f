"""Wall-clock inference benchmarking: fixed-size random input, warmup plus
timed single-image iterations on a monotonic clock, FPS from mean latency.
`prepare_inference` runs before timing; the timed region excludes I/O and
weight loading."""

from __future__ import annotations

import csv
import platform
import time
from dataclasses import dataclass, field, asdict

import numpy as np

from .errors import ContractError
from .network import NetworkGraph, LayerSpec, prepare_inference
from .tensor import Tensor


def _host():
    """CPU model from /proc/cpuinfo; the machine type where that is missing
    (platform.processor() is '' on many Linux hosts)."""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


@dataclass
class BenchReport:
    iterations: int
    warmup: int
    mean_ms: float
    median_ms: float
    p95_ms: float
    fps: float
    threads: int
    deterministic: bool
    host: str = field(default_factory=_host)
    variant: str = ""

    def to_csv_row(self):
        return asdict(self)

    @staticmethod
    def csv_fields():
        return ["variant", "iterations", "warmup", "mean_ms", "median_ms",
                "p95_ms", "fps", "threads", "deterministic", "host"]


def write_csv(reports, path):
    with open(path, "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=BenchReport.csv_fields())
        w.writeheader()
        for r in reports:
            w.writerow({k: r.to_csv_row()[k] for k in BenchReport.csv_fields()})


def read_csv(path):
    reports = []
    with open(path, newline="") as f:
        for row in csv.DictReader(f):
            reports.append(BenchReport(
                iterations=int(row["iterations"]), warmup=int(row["warmup"]),
                mean_ms=float(row["mean_ms"]), median_ms=float(row["median_ms"]),
                p95_ms=float(row["p95_ms"]), fps=float(row["fps"]),
                threads=int(row["threads"]),
                deterministic=row["deterministic"] in ("True", "true", "1"),
                host=row["host"], variant=row["variant"]))
    return reports


def report_from_latencies(latencies_ms, warmup=0, threads=1, deterministic=True,
                          variant=""):
    lat = np.asarray(latencies_ms, dtype=np.float64)
    if lat.size < 1:
        raise ContractError("need at least one timed iteration")
    mean = float(lat.mean())
    return BenchReport(iterations=int(lat.size), warmup=warmup,
                       mean_ms=mean, median_ms=float(np.median(lat)),
                       p95_ms=float(np.percentile(lat, 95)),
                       fps=1000.0 / mean, threads=threads,
                       deterministic=deterministic, variant=variant)


def benchmark(graph, store, input_shape=None, iterations=100, warmup=10,
              threads=1, seed=0, deterministic=True, fold=True):
    """Time single-image inference. Input data is fixed by the seed; warmup
    iterations are untimed. With fold, the graph and store are first
    rewritten by prepare_inference."""
    if warmup < 0:
        raise ContractError("warmup must be >= 0")
    if iterations < 1:
        raise ContractError("iterations must be >= 1")
    shape = tuple(input_shape or graph.input_shape)
    if fold:
        graph, store = prepare_inference(graph, store)
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal(shape).astype(np.float32))
    for _ in range(warmup):
        graph.run(store, x)
    latencies = []
    for _ in range(iterations):
        t0 = time.perf_counter()
        graph.run(store, x)
        latencies.append((time.perf_counter() - t0) * 1000.0)
    return report_from_latencies(latencies, warmup=warmup, threads=threads,
                                 deterministic=deterministic,
                                 variant=graph.variant)


def build_vgg16_reference(input_shape):
    """A VGG16-features-scale plain convolutional graph used as the throughput
    comparison baseline on the same engine."""
    widths = [(64, 2), (128, 2), (256, 3), (512, 3), (512, 3)]
    layers = []
    prev = "input"
    cin = input_shape[1]
    idx = 0
    for stage, (c, reps) in enumerate(widths, 1):
        for r in range(reps):
            idx += 1
            name = f"vgg.conv{idx}"
            layers.append(LayerSpec(name, "conv", [prev],
                                    {"in_ch": cin, "out_ch": c, "kernel": (3, 3),
                                     "stride": (1, 1), "padding": (1, 1),
                                     "groups": 1, "bias": True}))
            prev = name
            cin = c
        if stage < len(widths):
            name = f"vgg.pool{stage}"
            layers.append(LayerSpec(name, "avg-pool", [prev], {"k": 2}))
            prev = name
    return NetworkGraph(layers, variant="vgg16-reference",
                        input_shape=tuple(input_shape))
