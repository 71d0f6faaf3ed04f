"""Parameter and FLOP accounting over a NetworkGraph. Each layer's FLOP rule
and weight slots come from its record in network.OPS.

Counting convention (tagged on every report):
  - one multiply-accumulate = 2 FLOPs
  - conv: 2 * C_out * (C_in/groups) * K_h * K_w * H_out * W_out FLOPs, where
    C_in/groups = C_in (dense) or 1 (depthwise); params include any bias
  - batch norm: 2 params per channel (scale and shift; running statistics
    excluded), 2 FLOPs per output element
  - activations, resize, pooling, elementwise add: 2 FLOPs per output element
  - concat and pixel shuffle: 0 FLOPs, 0 params
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

from .network import RUNNING_STATS, op_for

CONVENTION = ("MAC=2FLOPs; conv=2*Cout*(Cin/g)*Kh*Kw*Hout*Wout; "
              "bn/act/resize/pool/add=2 FLOPs per output element; "
              "concat/shuffle=0; params include conv bias and bn scale+shift, "
              "bn running stats excluded")


@dataclass
class LayerRow:
    name: str
    kind: str
    params: int
    flops: int
    out_shape: tuple


@dataclass
class ComplexityReport:
    rows: list = field(default_factory=list)
    convention: str = CONVENTION

    @property
    def total_params(self):
        return sum(r.params for r in self.rows)

    @property
    def total_flops(self):
        return sum(r.flops for r in self.rows)

    def to_csv(self):
        buf = io.StringIO()
        buf.write("name,kind,params,flops,out_shape\n")
        for r in self.rows:
            shape = "x".join(str(s) for s in r.out_shape)
            buf.write(f"{r.name},{r.kind},{r.params},{r.flops},{shape}\n")
        buf.write(f"TOTAL,,{self.total_params},{self.total_flops},\n")
        return buf.getvalue()

    def format_table(self):
        lines = [f"{'layer':<40} {'kind':<16} {'params':>12} {'flops':>16}  out"]
        for r in self.rows:
            shape = "x".join(str(s) for s in r.out_shape)
            lines.append(f"{r.name:<40} {r.kind:<16} {r.params:>12} {r.flops:>16}  {shape}")
        lines.append(f"{'TOTAL':<40} {'':<16} {self.total_params:>12} {self.total_flops:>16}")
        lines.append(f"convention: {self.convention}")
        return "\n".join(lines)


def layer_params(layer, in_shapes):
    slots = op_for(layer.kind).slots(layer.params, in_shapes)
    return sum(math.prod(shape) for suffix, (shape, _) in slots.items()
               if suffix not in RUNNING_STATS)


def layer_flops(layer, in_shapes, out_shape):
    return op_for(layer.kind).flops(layer.params, in_shapes, out_shape)


def analyze(graph):
    """Per-layer and total parameter/FLOP counts of a graph at its input
    shape."""
    shapes = graph.infer_shapes()
    report = ComplexityReport()
    for l in graph.layers:
        ins = [shapes[i] for i in l.inputs]
        out = shapes[l.name]
        report.rows.append(LayerRow(l.name, l.kind, layer_params(l, ins),
                                    layer_flops(l, ins, out), out))
    return report
