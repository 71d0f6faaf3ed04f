"""Toy-scale training: hint-loss pretraining and pseudo-label fine-tuning with
SGD plus momentum under a piecewise-constant learning-rate schedule, and the
five-row distillation ablation harness. Each fine-tuning step runs the
graph that collapse_linear_tail makes from the live weights inside the
step's tape, so the paper slots are trained through the composed decoder
weights; a hint step runs only the layers that the decoder.adapt* outputs
depend on. Either runs its relu6 and bn layers in place where
NetworkGraph.run allows, so the tape keeps one buffer per conv, bn and
relu6. A step folds each gradient into its momentum buffer during the
backward, as soon as the gradient is final. Validation (NSS/CC) runs the
inference graph that prepare_inference makes from the live weights, one
forward per batch of records."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import distill, metrics
from .data_io import load_image, load_map, load_teacher_bundle, load_fixations
from .errors import ConfigError, ContractError, NumericDomainError
from .network import collapse_linear_tail, prepare_inference, subgraph, trainable_slots
from .tensor import Tape, Tensor

ADAPT_LAYERS = tuple(f"decoder.adapt{i}" for i in range(1, 5))


@dataclass
class TrainConfig:
    loss: str = "salgan"              # hint | salgan | deepgaze
    use_gt: bool = True
    use_teacher: bool = True
    epochs: int = 10
    base_lr: float = 0.01
    decay_epochs: tuple = (15, 30, 60)
    decay_factor: float = 0.1
    momentum: float = 0.9
    batch_size: int = 4
    seed: int = 0
    max_steps: int | None = None
    validate_metrics: bool = False

    def check(self):
        if self.loss not in ("hint", "salgan", "deepgaze"):
            raise ConfigError(f"unknown loss kind '{self.loss}'")
        if self.loss != "hint" and not (self.use_gt or self.use_teacher):
            raise ConfigError("fine-tuning needs use_gt or use_teacher (or both)")
        if list(self.decay_epochs) != sorted(set(self.decay_epochs)):
            raise ConfigError("decay epochs must be strictly increasing")
        for name in ("epochs", "batch_size", "max_steps"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")
        return self


def lr_schedule(config, epoch):
    """Piecewise-constant rate: divided by the decay factor's reciprocal at
    each listed epoch (0.01 -> 0.001 at 15 -> 1e-4 at 30 -> 1e-5 at 60)."""
    if epoch < 0:
        raise ConfigError(f"epoch must be >= 0, got {epoch}")
    decays = sum(1 for e in config.decay_epochs if epoch >= e)
    return config.base_lr * (config.decay_factor ** decays)


def _all_finite(a):
    """Whether every element of a is finite. a.a is finite exactly then,
    unless it overflows (the caller silences that warning), and only then
    does the elementwise check run; so a finite array costs one BLAS dot and
    no full-size boolean array."""
    a = a.reshape(-1)
    return math.isfinite(np.dot(a, a)) or bool(np.isfinite(a).all())


def _check_slot(slot, tensor, grad, momentum_state):
    """Raise ContractError for a gradient or a momentum buffer whose shape is
    not the slot's, and NumericDomainError for a non-finite gradient, naming
    the slot. grad None (already folded) checks only the buffer."""
    v = momentum_state.get(slot)
    if grad is None and v is None:
        raise ContractError(f"no gradient and no folded momentum for '{slot}'; step aborted")
    for what, a in (("gradient", grad), ("momentum buffer", v)):
        if a is not None and a.shape != tensor.shape:
            raise ContractError(f"{what} for '{slot}' has shape {a.shape}, "
                                f"the slot {tensor.shape}; step aborted")
    if grad is not None:
        with np.errstate(over="ignore"):
            if not _all_finite(grad):
                raise NumericDomainError(f"non-finite gradient for '{slot}'; step aborted")


def _fold(v, grad, momentum, first):
    """v <- g on the slot's first step, else v <- mu*v + g, in place in the
    slot's momentum buffer v; grad itself is never changed."""
    if first:
        np.copyto(v, grad)
    else:
        v *= momentum
        v += grad


def sgd_step(params, grads, lr, momentum_state, momentum=0.9):
    """Classical momentum: v <- mu*v + g; w <- w - lr*v. params is a list of
    (slot name, Tensor); the weights and the momentum buffers are updated in
    place. A gradient of None means that the slot's g is already folded into
    its buffer (_train_step folds each one during the backward), so only the
    descent is left for it. A missing gradient, or a gradient or momentum
    buffer whose shape is not its slot's, raises ContractError, and a
    non-finite gradient NumericDomainError, before any slot changes, naming
    the first such slot. lr*v goes through one scratch buffer per dtype, the
    size of the largest slot."""
    if len(grads) != len(params):
        first = (f"no gradient for '{params[len(grads)][0]}'" if len(grads) < len(params)
                 else "more gradients than slots")
        raise ContractError(f"{len(grads)} gradients for {len(params)} slots, "
                            f"{first}; step aborted")
    for (slot, tensor), grad in zip(params, grads):
        _check_slot(slot, tensor, grad, momentum_state)
    scratch = {}
    for (slot, tensor), grad in zip(params, grads):
        if grad is not None:
            new = slot not in momentum_state
            if new:
                momentum_state[slot] = np.empty_like(grad)
            _fold(momentum_state[slot], grad, momentum, new)
        v = momentum_state[slot]
        buf = scratch.get(v.dtype)
        if buf is None:
            buf = scratch[v.dtype] = np.empty(max(t.size for _, t in params), v.dtype)
        tensor.data -= np.multiply(v, lr, out=buf[:v.size].reshape(v.shape))


@dataclass
class LogRow:
    epoch: int
    lr: float
    mean_loss: float
    nss: float | None = None
    cc: float | None = None


@dataclass
class TrainLog:
    rows: list = field(default_factory=list)

    def write_csv(self, path):
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["epoch", "lr", "mean_loss", "nss", "cc"])
            for r in self.rows:
                w.writerow([r.epoch, r.lr, f"{r.mean_loss:.6f}",
                            "" if r.nss is None else f"{r.nss:.6f}",
                            "" if r.cc is None else f"{r.cc:.6f}"])


def _load_records(manifest, config, size):
    """Materialize manifest records as tensors; fail fast when a record lacks
    the data the configured loss needs."""
    out = []
    for rec in manifest:
        item = {"image": load_image(rec.image, size=size)}
        bundle = load_teacher_bundle(rec.teacher) if rec.teacher else None
        if rec.gt:
            item["gt"] = load_map(rec.gt, size=size)
        if rec.fix:
            item["fix"] = load_fixations(rec.fix, bounds=size)
        if config.loss == "hint":
            if bundle is None or bundle.hint_features is None:
                raise ConfigError(
                    f"record '{rec.image}' lacks teacher hint features for hint loss")
            item["hint"] = bundle.hint_features
        elif config.loss == "salgan":
            if config.use_gt and "gt" not in item:
                raise ConfigError(f"record '{rec.image}' lacks a gt map (use_gt on)")
            if config.use_teacher:
                if bundle is None or bundle.pseudo_map is None:
                    raise ConfigError(
                        f"record '{rec.image}' lacks a teacher pseudo map")
                item["pseudo"] = bundle.pseudo_map
        elif config.loss == "deepgaze":
            if bundle is None or bundle.pseudo_dist is None:
                raise ConfigError(
                    f"record '{rec.image}' lacks a teacher pseudo distribution")
            item["dist"] = bundle.pseudo_dist
        out.append(item)
    return out


def _stack(tensors):
    return Tensor(np.concatenate([t.data for t in tensors], axis=0))


def _batch_loss(graph, store, batch, config, training):
    if config.loss == "hint":
        x = _stack([b["image"] for b in batch])
        res = graph.run(store, x, training=training, want=ADAPT_LAYERS)
        student = [res[n] for n in ADAPT_LAYERS]
        teacher = [_stack([b["hint"][i] for b in batch]) for i in range(4)]
        return distill.hint_loss(student, teacher)
    x = _stack([b["image"] for b in batch])
    logits = graph.run(store, x, training=training)["out"]
    if config.loss == "salgan":
        gt = _stack([b["gt"] for b in batch]) if config.use_gt else None
        pseudo = _stack([b["pseudo"] for b in batch]) if config.use_teacher else None
        return distill.salgan_loss(logits, gt=gt, pseudo=pseudo)
    return distill.deepgaze_loss(logits, _stack([b["dist"] for b in batch]))


def _trainable_params(graph, store, config):
    slots = trainable_slots(store)
    if config.loss == "hint":
        # pretraining updates the backbone and the adaptation layers only
        slots = [s for s in slots
                 if s.startswith("backbone.") or s.startswith("decoder.adapt")]
    return [(s, store.get(s)) for s in slots]


def _train_step(graph, store, batch, config, params, lr, momentum_state):
    """One forward, backward and SGD update on a batch (forward only when
    params is empty); returns the loss. A fine-tuning forward runs the graph
    that collapse_linear_tail makes from the live store inside the tape, so
    the gradients reach the paper slots through the composed weights. A hint
    forward runs only the layers that the decoder.adapt* outputs depend on,
    the only ones its loss reads. In either, run() lets each relu6 and bn
    that alone reads an unwanted conv, bn or add output write into it, so
    the tape keeps one buffer for a conv, its bn and their relu6: the
    centred conv output. run() drops every bn output once its last reader
    has run (the relu6 that clips it in place too), and a backward that
    reads it gets it rebuilt from the centred one (tensor.Tensor.values).
    The backward frees each tape node as it replays it, and folds each
    slot's gradient into its momentum buffer as soon as the gradient is
    final (the tape's hook, after sgd_step's checks of that slot), then
    drops it; sgd_step then only descends. So no step holds all its
    gradients at once, and the rest is freed on return, before anything
    else (validation) runs. A slot's first
    buffer has the slot's dtype and is made before the forward. The weights
    change only after the whole backward: a bad gradient leaves them as they
    were, while the buffers of the slots before it, in backward order, may
    already hold this step's fold; the error names that first bad slot."""
    # a slot's first buffer is made here, before the forward, not by the
    # fold: made in the backward, the buffers landed on fresh heap pages,
    # and a benchmark train-C operation faulted in about 4,000 pages (5 so)
    first = {slot: np.empty_like(t.data) for slot, t in params if slot not in momentum_state}

    def fold(i, grad):
        slot, tensor = params[i]
        _check_slot(slot, tensor, grad, momentum_state)
        new = first.pop(slot, None)
        if new is not None:
            momentum_state[slot] = new
        _fold(momentum_state[slot], grad, config.momentum, new is not None)

    with Tape(fold) as tape:
        if config.loss == "hint":
            step_graph, step_store = subgraph(graph, ADAPT_LAYERS), store
        else:
            step_graph, step_store = collapse_linear_tail(graph, store)
        loss = _batch_loss(step_graph, step_store, batch, config, training=bool(params))
    if params:
        grads = tape.gradients(loss, [t for _, t in params])
        sgd_step(params, grads, lr, momentum_state, config.momentum)
    return float(loss.data.reshape(()))


def _validation(graph, store, records, batch_size):
    """Mean NSS and CC of the current weights over the records, or None where
    no record has fixations or a gt map. Runs the inference graph
    (prepare_inference of the live weights), one forward per batch of
    batch_size records, and scores each record on its own map."""
    graph, store = prepare_inference(graph, store)
    nss_vals, cc_vals = [], []
    for start in range(0, len(records), batch_size):
        batch = records[start:start + batch_size]
        preds = graph.run(store, _stack([b["image"] for b in batch]))["out"].data[:, 0]
        for item, pred in zip(batch, preds):
            if "fix" in item and item["fix"]:
                nss_vals.append(metrics.nss(pred, item["fix"]))
            if "gt" in item:
                cc_vals.append(metrics.cc(pred, item["gt"].data[0, 0]))
    return (float(np.mean(nss_vals)) if nss_vals else None,
            float(np.mean(cc_vals)) if cc_vals else None)


def train(manifest, config, graph, store):
    """Run the configured loss over the manifest for config.epochs, returning
    a per-epoch TrainLog. Deterministic for a fixed seed."""
    config.check()
    records = _load_records(manifest, config, graph.input_shape[2:])
    params = _trainable_params(graph, store, config)
    for slot, t in params:
        t.requires_grad = True
    rng = np.random.default_rng(config.seed)
    momentum_state = {}
    log = TrainLog()
    step = 0
    try:
        for epoch in range(config.epochs):
            lr = lr_schedule(config, epoch)
            order = rng.permutation(len(records))
            losses = []
            for start in range(0, len(records), config.batch_size):
                if config.max_steps is not None and step >= config.max_steps:
                    break
                batch = [records[i] for i in order[start:start + config.batch_size]]
                losses.append(_train_step(graph, store, batch, config, params,
                                          lr, momentum_state))
                step += 1
            if not losses:
                break
            nss_val = cc_val = None
            if config.validate_metrics:
                nss_val, cc_val = _validation(graph, store, records, config.batch_size)
            log.rows.append(LogRow(epoch, lr, float(np.mean(losses)),
                                   nss_val, cc_val))
            if config.max_steps is not None and step >= config.max_steps:
                break
    finally:
        for slot, t in params:
            t.requires_grad = False
    return log


# Table-style ablation rows: (pretrain with hint loss, fine-tune against the
# teacher pseudo maps, use the ground truth)
ABLATION_ROWS = (
    (False, True, False),
    (True, True, False),
    (False, False, True),
    (False, True, True),
    (True, True, True),
)


def ablation_run(manifest, graph, init_store_fn, config=None):
    """Run the five pretrain/finetune/gt combinations and report NSS/CC for
    each. init_store_fn() must return a fresh weight store per row."""
    base = (config or TrainConfig(epochs=2)).check()
    results = []
    for pretrain, finetune, use_gt in ABLATION_ROWS:
        store = init_store_fn()
        if pretrain:
            pre = replace(base, loss="hint", validate_metrics=False)
            train(manifest, pre, graph, store)
        fine = replace(base, loss="salgan", use_gt=use_gt, use_teacher=finetune,
                       validate_metrics=False)
        train(manifest, fine, graph, store)
        records = _load_records(manifest, replace(base, loss="salgan",
                                                  use_gt=False, use_teacher=False),
                                graph.input_shape[2:])
        nss_val, cc_val = _validation(graph, store, records, base.batch_size)
        results.append({"pretrain": pretrain, "finetune": finetune, "gt": use_gt,
                        "nss": nss_val, "cc": cc_val})
    return results


def ablation_csv(results, path):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["pretrain", "finetune", "gt", "nss", "cc"])
        for r in results:
            w.writerow([int(r["pretrain"]), int(r["finetune"]), int(r["gt"]),
                        "" if r["nss"] is None else f"{r['nss']:.6f}",
                        "" if r["cc"] is None else f"{r['cc']:.6f}"])
