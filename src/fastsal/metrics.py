"""Saliency evaluation metrics: AUC (Judd variant), shuffled AUC, NSS, CC,
KL-divergence, SIM (histogram intersection), and information gain.

These follow the common saliency-benchmark definitions; the AUC variant is
AUC-Judd (thresholds at each distinct prediction value at a fixation,
non-fixated pixels as negatives, trapezoidal integration). All functions are
pure and operate on 2-D numpy maps; fixations are (row, col) integer pairs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ContractError

EPS = 1e-12


@dataclass
class MetricReport:
    auc: float | None = None
    sauc: float | None = None
    nss: float | None = None
    cc: float | None = None
    kldiv: float | None = None
    sim: float | None = None
    ig: float | None = None


def _as_map(pred):
    arr = np.asarray(pred, dtype=np.float64)
    if arr.ndim == 4:
        arr = arr[0, 0]
    elif arr.ndim == 3:
        arr = arr[0]
    if arr.ndim != 2:
        raise ContractError(f"expected a 2-D saliency map, got {arr.ndim}-D")
    return arr


def _fix_values(pred, fixations):
    fix = np.asarray(fixations, dtype=np.int64)
    if fix.size == 0:
        raise ContractError("fixation set is empty")
    fix = fix.reshape(-1, 2)
    h, w = pred.shape
    if (fix[:, 0].min() < 0 or fix[:, 0].max() >= h
            or fix[:, 1].min() < 0 or fix[:, 1].max() >= w):
        raise ContractError("fixation coordinates out of map bounds")
    return pred[fix[:, 0], fix[:, 1]]


def _roc_auc(positives, negatives):
    # one operating point per distinct positive value t, descending: TPR/FPR
    # are the shares of positives/negatives >= t, between the (0,0) and (1,1)
    # end points; the trapezoid sum is written out because numpy's helper for
    # it has different names in 1.x and 2.x
    pos = np.sort(positives)
    neg = np.sort(negatives)
    thresholds = np.unique(pos)[::-1]
    tpr = (pos.size - np.searchsorted(pos, thresholds, side="left")) / pos.size
    fpr = (neg.size - np.searchsorted(neg, thresholds, side="left")) / neg.size
    tpr = np.concatenate(([0.0], tpr, [1.0]))
    fpr = np.concatenate(([0.0], fpr, [1.0]))
    return float((np.diff(fpr) * (tpr[1:] + tpr[:-1])).sum() / 2)


def auc_judd(pred, fixations):
    """ROC area with prediction values at fixations as positives and all
    non-fixated pixels as negatives. Convention: the positives are the
    fixations, not the fixated pixels, so a fixation repeated on one pixel
    counts as two positives (the MIT benchmark's AUC-Judd counts the pixel
    once); the negatives leave out every fixated pixel once."""
    p = _as_map(pred)
    pos = _fix_values(p, fixations)
    mask = np.zeros(p.shape, dtype=bool)
    fix = np.asarray(fixations, dtype=np.int64).reshape(-1, 2)
    mask[fix[:, 0], fix[:, 1]] = True
    neg = p[~mask]
    if neg.size == 0:
        return 1.0
    return _roc_auc(pos, neg)


def auc_shuffled(pred, fixations, negative_fixations):
    """Shuffled AUC: negatives are prediction values at fixations drawn from
    other images, discounting center bias. The caller supplies the negative
    set; no dataset-level sampling happens here."""
    p = _as_map(pred)
    pos = _fix_values(p, fixations)
    neg = _fix_values(p, negative_fixations)
    return _roc_auc(pos, neg)


def nss(pred, fixations):
    """Mean z-scored prediction value at fixation points. A constant
    prediction scores 0. Convention: the z-score divides by the population
    std (over N pixels); MATLAB's std in the MIT benchmark code divides by
    N-1, which scales the score by sqrt((N-1)/N)."""
    p = _as_map(pred)
    _ = _fix_values(p, fixations)
    std = p.std()
    if std == 0:
        return 0.0
    z = (p - p.mean()) / std
    return float(_fix_values(z, fixations).mean())


def cc(pred, gt_density):
    """Pearson correlation between the prediction and a ground-truth density."""
    p = _as_map(pred)
    q = _as_map(gt_density)
    if p.shape != q.shape:
        raise ContractError(f"shape mismatch {p.shape} vs {q.shape}")
    ps, qs = p.std(), q.std()
    if ps == 0 or qs == 0:
        warnings.warn("cc: zero-variance input, defined as 0")
        return 0.0
    return float(((p - p.mean()) * (q - q.mean())).mean() / (ps * qs))


def _normalized(m):
    s = m.sum()
    return m / s if s > 0 else np.full_like(m, 1.0 / m.size)


def sim(pred, gt_density):
    """Histogram intersection of the two sum-normalized maps; 1 for identical,
    0 for disjoint support. Convention: each map is only divided by its sum;
    the MIT benchmark code min-max normalises each map first, which gives a
    different value for maps with negative values."""
    p = _normalized(_as_map(pred))
    q = _normalized(_as_map(gt_density))
    if p.shape != q.shape:
        raise ContractError(f"shape mismatch {p.shape} vs {q.shape}")
    return float(np.minimum(p, q).sum())


def kldiv(pred, gt_density):
    """KL divergence of the prediction from the ground truth: sum over pixels
    of Q*ln(Q/(P+eps)) with Q the normalized ground truth. Convention: eps
    is added to the denominator only, and pixels with Q = 0 add nothing; the
    MIT benchmark code also adds it inside the log, Q*ln(eps + Q/(P+eps))."""
    p = _normalized(_as_map(pred))
    q = _normalized(_as_map(gt_density))
    if p.shape != q.shape:
        raise ContractError(f"shape mismatch {p.shape} vs {q.shape}")
    nz = q > 0
    return float((q[nz] * np.log(q[nz] / (p[nz] + EPS))).sum())


def info_gain(pred, fixations, baseline):
    """Mean log2 likelihood improvement of the sum-normalized prediction over
    a sum-normalized baseline at fixation points."""
    p = _normalized(_as_map(pred))
    b = _normalized(_as_map(baseline))
    pv = _fix_values(p, fixations)
    bv = _fix_values(b, fixations)
    return float((np.log2(pv + EPS) - np.log2(bv + EPS)).mean())


def evaluate(pred, gt_density=None, fixations=None, negative_fixations=None,
             baseline=None):
    """Compute every metric the supplied references allow."""
    r = MetricReport()
    if fixations is not None and len(fixations):
        r.auc = auc_judd(pred, fixations)
        r.nss = nss(pred, fixations)
        if negative_fixations is not None and len(negative_fixations):
            r.sauc = auc_shuffled(pred, fixations, negative_fixations)
        if baseline is not None:
            r.ig = info_gain(pred, fixations, baseline)
    if gt_density is not None:
        r.cc = cc(pred, gt_density)
        r.sim = sim(pred, gt_density)
        r.kldiv = kldiv(pred, gt_density)
    return r
