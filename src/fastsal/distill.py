"""Knowledge-distillation losses.

Three losses: squared-error matching of adapted intermediate features against
teacher features (hint loss), twin binary cross-entropy against ground truth
and a bounded pseudo saliency map, and a KL + cosine + BCE composite against a
teacher-produced spatial probability distribution. The composite's BCE target
is the teacher distribution min-max scaled to [0, 1] per item, in numpy, since
the teacher side carries no gradient; both BCE terms are one expression
(_bce). All losses are differentiable through the tape and reduce per sample,
averaged over the batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels, tensor as T
from .errors import ContractError, NumericDomainError, ShapeError
from .tensor import Tensor

BCE_CLAMP = 1e-7
KL_EPS = 1e-12


@dataclass
class TeacherBundle:
    """Per-image teacher supervision: optional intermediate features for the
    hint loss, a bounded pseudo map, and/or a pseudo distribution."""
    hint_features: list | None = None   # 4 tensors at the student block scales
    pseudo_map: Tensor | None = None    # values in [0,1]
    pseudo_dist: Tensor | None = None   # sums to 1 per item

    def validate(self):
        if self.hint_features is not None and len(self.hint_features) != 4:
            raise ContractError(
                f"expected 4 hint feature tensors, got {len(self.hint_features)}")
        for what, t in ([("hint feature", t) for t in self.hint_features or ()]
                        + [("pseudo map", self.pseudo_map),
                           ("pseudo distribution", self.pseudo_dist)]):
            if t is not None and (t.data.ndim != 4 or t.size == 0):
                raise ContractError(f"{what} must be a non-empty 4-D (N,C,H,W) tensor, "
                                    f"got shape {t.shape}")
        if self.pseudo_map is not None:
            v = self.pseudo_map.data
            # written so that a NaN fails the test
            if not (v.min() >= 0 and v.max() <= 1):
                raise NumericDomainError("pseudo map values must lie in [0,1]")
        if self.pseudo_dist is not None:
            sums = self.pseudo_dist.data.reshape(self.pseudo_dist.shape[0], -1).sum(axis=1)
            if not np.all(np.abs(sums - 1.0) <= 1e-5):
                raise ContractError("pseudo distribution must sum to 1 per item")
        return self


def hint_loss(student_adapted, teacher):
    """Sum over the four matched layers of the per-layer mean squared error
    between adapted student features and teacher features."""
    if len(student_adapted) != len(teacher):
        raise ShapeError(
            f"student has {len(student_adapted)} layers, teacher {len(teacher)}")
    total = None
    for i, (s, t) in enumerate(zip(student_adapted, teacher), 1):
        if s.shape != t.shape:
            raise ShapeError(
                f"hint layer {i}: student {s.shape} vs teacher {t.shape}")
        term = ((t - s) ** 2).mean()
        total = term if total is None else total + term
    return total


def _bce(prob, target, axis=None):
    """Binary cross-entropy of prob, clamped away from 0 and 1, against
    target, averaged over axis (over everything when None)."""
    p = T.clip(prob, BCE_CLAMP, 1.0 - BCE_CLAMP)
    return -(target * T.log(p) + (1.0 - target) * T.log(1.0 - p)).mean(axis=axis)


def _minmax(a):
    """Per-item min-max scaling of an (N, ...) numpy array to [0, 1]; a
    constant item maps to all zeros."""
    n = a.shape[0]
    flat = a.reshape(n, -1)
    lo = flat.min(axis=1)
    rng = flat.max(axis=1) - lo
    safe = np.where(rng > 0, rng, 1.0)
    return (((flat - lo[:, None]) / safe[:, None]) * (rng > 0)[:, None]).reshape(a.shape)


def salgan_loss(logits, gt=None, pseudo=None):
    """Mean binary cross-entropy of the sigmoid prediction against the ground
    truth map plus the same against the teacher pseudo map. Either target may
    be omitted (ablation); at least one is required."""
    if gt is None and pseudo is None:
        raise ContractError("salgan_loss needs a ground truth map, a pseudo map, or both")
    prob = T.sigmoid(logits)
    total = None
    for name, target in (("gt", gt), ("pseudo", pseudo)):
        if target is None:
            continue
        if target.shape != logits.shape:
            raise ShapeError(f"{name} shape {target.shape} != logits {logits.shape}")
        v = target.data
        if v.min() < 0 or v.max() > 1:
            raise NumericDomainError(f"{name} map values must lie in [0,1]")
        term = _bce(prob, target.detach())
        total = term if total is None else total + term
    return total


def deepgaze_loss(logits, pseudo_dist):
    """KL(teacher || student distribution) + (1 - cosine similarity) + binary
    cross-entropy of the sigmoid prediction against the min-max rescaled
    teacher map. Per sample, averaged over the batch."""
    if pseudo_dist.shape != logits.shape:
        raise ShapeError(
            f"pseudo distribution {pseudo_dist.shape} != logits {logits.shape}")
    n = logits.shape[0]
    sums = pseudo_dist.data.reshape(n, -1).sum(axis=1)
    if np.any(np.abs(sums - 1.0) > 1e-5):
        raise ContractError("pseudo_dist must sum to 1 per item")
    ybar = pseudo_dist.detach()
    g_pred = kernels.softmax_spatial(logits)
    axes = (1, 2, 3)

    # KL(ybar || g_pred); teacher is constant, only the student side carries grad
    logt = np.log(np.maximum(ybar.data, KL_EPS))
    kl = (ybar * (Tensor(logt) - T.log(g_pred + KL_EPS))).sum(axis=axes)

    # cosine between the teacher distribution and the student distribution
    dot = (ybar * g_pred).sum(axis=axes)
    nt = Tensor(np.sqrt((ybar.data ** 2).sum(axis=axes)))
    ns = T.sqrt((g_pred ** 2).sum(axis=axes))
    cos_term = 1.0 - dot / (nt * ns)

    bce = _bce(T.sigmoid(logits), Tensor(_minmax(ybar.data)), axis=axes)
    return (kl + cos_term + bce).mean()
