"""Computationally efficient visual saliency engine.

A MobileNetV2 feature backbone with 18 intermediate taps feeds one of two
lightweight decoders (channel concatenation or top-down addition) to produce a
full-resolution saliency map. The package also provides the distillation
losses used to train the model from teacher pseudo-labels, a saliency metric
suite, a parameter/FLOP analyzer, and a latency benchmark. Gradients come
from `Tape.gradients(loss, leaves)`; `run(want=graph.taps)` returns the taps by
name, a conv's weight shape comes from its input, and `analyze(graph)` counts
at the graph's own input shape.
"""

from .tensor import Tensor, Tape, grad_check
from .network import (NetworkGraph, WeightStore, build_backbone, build_fastsal,
                      fold_batch_norm, init_weights, load_weights,
                      prepare_inference, save_weights)

__all__ = [
    "Tensor", "Tape", "grad_check",
    "NetworkGraph", "WeightStore", "build_backbone", "build_fastsal",
    "fold_batch_norm", "init_weights", "load_weights", "prepare_inference",
    "save_weights",
]

__version__ = "0.1.0"
