"""Wall-clock inference benchmarking: a seeded random input of the graph's
input shape, untimed warmup, then timed single-image iterations on a
monotonic clock, with FPS from the mean latency. The graph and store are
rewritten by `prepare_inference` before timing; the timed region excludes
I/O and weight loading. `write_csv` writes one row per report, one column
per `BenchReport` field."""

from __future__ import annotations

import csv
import platform
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .errors import ContractError
from .network import NetworkGraph, _Builder, prepare_inference
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
    host: str = field(default_factory=_host)
    variant: str = ""


def write_csv(reports, path):
    with open(path, "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=[fl.name for fl in fields(BenchReport)])
        w.writeheader()
        w.writerows(asdict(r) for r in reports)


def report_from_latencies(latencies_ms, warmup=0, variant=""):
    lat = np.asarray(latencies_ms, dtype=np.float64)
    if lat.size < 1:
        raise ContractError("need at least one timed iteration")
    mean = float(lat.mean())
    return BenchReport(iterations=int(lat.size), warmup=warmup,
                       mean_ms=mean, median_ms=float(np.median(lat)),
                       p95_ms=float(np.percentile(lat, 95)),
                       fps=1000.0 / mean, variant=variant)


def benchmark(graph, store, iterations=100, warmup=10, seed=0):
    """Time single-image inference of graph.input_shape on the graph and
    store as prepare_inference rewrites them. Input data is fixed by the
    seed; warmup iterations are untimed."""
    if warmup < 0:
        raise ContractError("warmup must be >= 0")
    if iterations < 1:
        raise ContractError("iterations must be >= 1")
    graph, store = prepare_inference(graph, store)
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal(graph.input_shape).astype(np.float32))
    for _ in range(warmup):
        graph.run(store, x)
    latencies = []
    for _ in range(iterations):
        t0 = time.perf_counter()
        graph.run(store, x)
        latencies.append((time.perf_counter() - t0) * 1000.0)
    return report_from_latencies(latencies, warmup=warmup, variant=graph.variant)


def build_vgg16_reference(input_shape):
    """A VGG16-features-scale plain convolutional graph used as the throughput
    comparison baseline on the same engine."""
    widths = [(64, 2), (128, 2), (256, 3), (512, 3), (512, 3)]
    b = _Builder()
    prev = "input"
    idx = 0
    for stage, (c, reps) in enumerate(widths, 1):
        for _ in range(reps):
            idx += 1
            prev = b.conv(f"vgg.conv{idx}", prev, c, 3, 1, 1, bias=True)
        if stage < len(widths):
            prev = b.emit(f"vgg.pool{stage}", "avg-pool", [prev], k=2)
    return NetworkGraph(b.layers, variant="vgg16-reference",
                        input_shape=tuple(input_shape))
