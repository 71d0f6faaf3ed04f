import platform

import numpy as np
import pytest

from fastsal import analyzer, bench
from fastsal.errors import ContractError
from fastsal.network import build_fastsal, init_weights


class TestReportFromLatencies:
    def test_statistics(self):
        lat = [1.0, 2.0, 3.0, 4.0, 5.0]
        rep = bench.report_from_latencies(lat, warmup=3, variant="C")
        assert rep.iterations == 5
        assert rep.mean_ms == pytest.approx(3.0)
        assert rep.median_ms == pytest.approx(3.0)
        assert rep.p95_ms == pytest.approx(np.percentile(lat, 95))
        assert rep.fps == pytest.approx(1000.0 / 3.0)
        assert rep.warmup == 3 and rep.variant == "C"

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            bench.report_from_latencies([])

    def test_fps_inverse_of_mean(self):
        rep = bench.report_from_latencies([20.0])
        assert rep.fps == pytest.approx(50.0)


class TestHost:
    def test_host_is_named(self):
        assert bench.report_from_latencies([1.0]).host.strip()

    def test_falls_back_to_machine_type(self, monkeypatch):
        def no_file(*args, **kwargs):
            raise FileNotFoundError("/proc/cpuinfo")

        monkeypatch.setattr(bench, "open", no_file, raising=False)
        assert bench.report_from_latencies([1.0]).host == platform.machine()


@pytest.fixture(scope="module")
def model():
    graph = build_fastsal("C", (1, 3, 48, 64), width=0.25)
    return graph, init_weights(graph, seed=0)


class TestBenchmark:
    def test_protocol_counts(self, model):
        graph, store = model
        rep = bench.benchmark(graph, store, iterations=3, warmup=1)
        assert rep.iterations == 3
        assert rep.warmup == 1
        assert rep.mean_ms > 0
        assert rep.variant == "C"

    def test_bad_arguments(self, model):
        graph, store = model
        with pytest.raises(ContractError):
            bench.benchmark(graph, store, iterations=0)
        with pytest.raises(ContractError):
            bench.benchmark(graph, store, iterations=1, warmup=-1)

    def test_fold_leaves_originals_untouched(self, model):
        graph, store = model
        n = len(store.tensors)
        bench.benchmark(graph, store, iterations=1, warmup=0)
        assert len(store.tensors) == n


class TestVggReference:
    def test_structure(self):
        graph = bench.build_vgg16_reference((1, 3, 48, 64))
        convs = [l for l in graph.layers if l.kind == "conv"]
        assert len(convs) == 13
        assert convs[-1].params["out_ch"] == 512

    def test_heavier_than_fastsal(self):
        shape = (1, 3, 48, 64)
        ref = analyzer.analyze(bench.build_vgg16_reference(shape))
        fast = analyzer.analyze(build_fastsal("C", shape))
        assert ref.total_flops > 5 * fast.total_flops
        assert ref.total_params > 5 * fast.total_params

    def test_runs_forward(self):
        graph = bench.build_vgg16_reference((1, 3, 16, 16))
        store = init_weights(graph)
        rep = bench.benchmark(graph, store, iterations=1, warmup=0)
        assert rep.mean_ms > 0
