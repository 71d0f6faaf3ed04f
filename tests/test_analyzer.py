import csv
import io
from dataclasses import replace

import numpy as np
import pytest

from fastsal import analyzer
from fastsal.bench import build_vgg16_reference
from fastsal.errors import ConfigError, ContractError
from fastsal.network import (LayerSpec, NetworkGraph, build_backbone,
                             build_fastsal, init_weights, trainable_slots)


def single_layer_graph(layer, input_shape):
    return NetworkGraph([layer], input_shape=input_shape)


class TestLayerFixtures:
    def test_pointwise_conv_params(self):
        # 1x1, 96 -> 128 with bias: 96*128 + 128 = 12416
        l = LayerSpec("c", "conv", ["input"],
                      {"out_ch": 128, "kernel": (1, 1),
                       "stride": (1, 1), "padding": (0, 0), "bias": True})
        assert analyzer.layer_params(l, [(1, 96, 8, 8)]) == 12_416

    def test_depthwise_conv_params(self):
        # 3x3 depthwise over 128 channels, no bias: 128*1*9 = 1152
        l = LayerSpec("c", "conv", ["input"],
                      {"out_ch": 128, "kernel": (3, 3),
                       "stride": (1, 1), "padding": (1, 1), "groups": 128})
        assert analyzer.layer_params(l, [(1, 128, 8, 8)]) == 1_152

    def test_conv_flop_fixture(self):
        # 2 * 128 * 96 * 1 * 1 * 48 * 64 = 75,497,472
        l = LayerSpec("c", "conv", ["input"],
                      {"out_ch": 128, "kernel": (1, 1),
                       "stride": (1, 1), "padding": (0, 0), "bias": True})
        flops = analyzer.layer_flops(l, [(1, 96, 48, 64)], (1, 128, 48, 64))
        assert flops == 75_497_472

    def test_bn_accounting(self):
        l = LayerSpec("b", "bn", ["input"], {})
        assert analyzer.layer_params(l, [(1, 32, 4, 4)]) == 64
        assert analyzer.layer_flops(l, [(1, 32, 4, 4)], (1, 32, 4, 4)) == 2 * 32 * 16

    def test_zero_cost_kinds(self):
        for kind in ("concat", "pixel-shuffle"):
            l = LayerSpec("z", kind, ["input"], {"r": 2})
            assert analyzer.layer_params(l, [(1, 8, 4, 4)]) == 0
            assert analyzer.layer_flops(l, [(1, 8, 4, 4)], (1, 2, 8, 8)) == 0

    def test_elementwise_kinds_two_per_element(self):
        for kind in ("relu6", "sigmoid", "resize", "add", "avg-pool"):
            l = LayerSpec("e", kind, ["input"], {"out_h": 4, "out_w": 4, "k": 2})
            assert analyzer.layer_flops(l, [(1, 3, 4, 4)], (1, 3, 4, 4)) == 96


class TestModelTotals:
    def test_backbone_params_and_macs(self):
        report = analyzer.analyze(build_backbone((1, 3, 192, 256)))
        assert report.total_params == 1_811_712
        conv_macs = sum(r.flops for r in report.rows if r.kind == "conv") // 2
        assert conv_macs == pytest.approx(273.7e6, rel=0.01)

    def test_concat_variant_budget(self):
        report = analyzer.analyze(build_fastsal("C", (1, 3, 192, 256)))
        assert 2_185_000 <= report.total_params <= 2_956_000
        assert 0.924e9 <= report.total_flops <= 1.716e9

    def test_add_variant_budget(self):
        report = analyzer.analyze(build_fastsal("A", (1, 3, 192, 256)))
        assert 2_920_000 <= report.total_params <= 4_380_000
        assert 0.924e9 <= report.total_flops <= 1.716e9

    @pytest.mark.parametrize("variant", ["C", "A", "backbone", "vgg16"])
    def test_params_match_weight_store(self, variant):
        shape = (1, 3, 48, 64)
        if variant == "backbone":
            graph = build_backbone(shape, width=0.25)
        elif variant == "vgg16":
            graph = build_vgg16_reference(shape)
        else:
            graph = build_fastsal(variant, shape, width=0.25)
        report = analyzer.analyze(graph)
        store = init_weights(graph)
        assert report.total_params == sum(store.get(k).size for k in trainable_slots(store))

    @pytest.mark.parametrize("variant,width,params,flops", [
        ("C", 1.0, 2_268_129, 985_445_376),
        ("C", 0.5, 595_889, 308_636_160),
        ("C", 0.25, 162_521, 111_138_048),
        ("A", 1.0, 3_459_157, 1_077_728_256),
        ("A", 0.5, 900_267, 315_161_088),
        ("A", 0.25, 242_118, 105_676_032),
    ])
    def test_paper_graph_totals(self, variant, width, params, flops):
        report = analyzer.analyze(build_fastsal(variant, (1, 3, 192, 256), width=width))
        assert (report.total_params, report.total_flops) == (params, flops)

    def test_conv_must_be_dense_or_depthwise(self):
        # groups=2 is neither groups=1 nor groups = in = out channels: it is
        # rejected on 4 -> 4 and 6 -> 4 channels, which it divides, as on
        # 5 -> 4 and 4 -> 3; shape inference names the layer
        for cin, cout in ((4, 4), (6, 4), (5, 4), (4, 3)):
            graph = single_layer_graph(
                LayerSpec("g", "conv", ["input"],
                          {"out_ch": cout, "kernel": (3, 3), "stride": (1, 1),
                           "padding": (1, 1), "groups": 2}), (1, cin, 6, 6))
            for call in (graph.infer_shapes, lambda: analyzer.analyze(graph),
                         lambda: init_weights(graph)):
                with pytest.raises(ConfigError, match=f"layer 'g': groups=2, {cin}->{cout} "
                                                      "channels: neither dense nor depthwise"):
                    call()

    def test_flops_scale_with_resolution(self):
        # rounding at the coarsest scales makes the ratio slightly under 4
        g1 = build_fastsal("C", (1, 3, 96, 128), width=0.25)
        g2 = build_fastsal("C", (1, 3, 192, 256), width=0.25)
        r1, r2 = analyzer.analyze(g1), analyzer.analyze(g2)
        assert r1.total_params == r2.total_params
        assert r2.total_flops == pytest.approx(4 * r1.total_flops, rel=0.03)


@pytest.fixture(scope="module")
def report():
    return analyzer.analyze(build_fastsal("C", (1, 3, 48, 64), width=0.25))


class TestReportOutput:
    def test_csv_parses_and_totals_agree(self, report):
        rows = list(csv.DictReader(io.StringIO(report.to_csv())))
        assert rows[-1]["name"] == "TOTAL"
        assert int(rows[-1]["params"]) == report.total_params
        assert int(rows[-1]["flops"]) == report.total_flops
        body = rows[:-1]
        assert sum(int(r["params"]) for r in body) == report.total_params
        assert len(body) == len(report.rows)

    def test_every_layer_present(self, report):
        graph = build_fastsal("C", (1, 3, 48, 64), width=0.25)
        assert [r.name for r in report.rows] == [l.name for l in graph.layers]

    def test_table_mentions_convention(self, report):
        table = report.format_table()
        assert "MAC=2FLOPs" in table
        assert "TOTAL" in table

    def test_convention_tag_on_report(self, report):
        assert report.convention == analyzer.CONVENTION

    def test_analyze_needs_shape(self):
        graph = NetworkGraph([LayerSpec("r", "relu6", ["input"], {})])
        with pytest.raises(ContractError):
            analyzer.analyze(graph)
        rep = analyzer.analyze(replace(graph, input_shape=(1, 2, 4, 4)))
        assert rep.total_flops == 64


def test_independent_conv_param_recount():
    """Cross-check the analyzer against a naive recount from layer metadata."""
    graph = build_fastsal("A", (1, 3, 48, 64), width=0.5)
    report = analyzer.analyze(graph)
    shapes = graph.infer_shapes()
    total = 0
    for l in graph.layers:
        if l.kind == "conv":
            p = l.params
            total += (p["out_ch"] * (shapes[l.inputs[0]][1] // p.get("groups", 1))
                      * p["kernel"][0] * p["kernel"][1])
            if p.get("bias", False):
                total += p["out_ch"]
        elif l.kind == "bn":
            total += 2 * shapes[l.inputs[0]][1]
    assert total == report.total_params
