"""Evaluation metrics for continuous affect and categorical predictions.

Agreement between predicted and annotated time series is measured with the
concordance correlation coefficient (CCC), which penalizes series that
correlate but are shifted or scaled. Classification quality uses per-class
recall (mean diagonal of the confusion matrix, also reported as UAR),
one-vs-rest F1, and two composite scores blending F1 with accuracy.

Degenerate 0/0 inputs (constant series, a class absent from both vectors)
produce a documented conventional value plus a DegenerateInputWarning
instead of an exception, so evaluating a batch never aborts midway.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import (
    DegenerateInputWarning,
    LengthMismatch,
    ValueOutOfRange,
)


def _pair(x, y):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or y.ndim != 1 or x.shape != y.shape:
        raise LengthMismatch(f"series shapes {x.shape} vs {y.shape}")
    return x, y


def ccc(x, y) -> float:
    """Concordance correlation: 2*s_xy / (s_x^2 + s_y^2 + (mean_x - mean_y)^2).

    Population (1/N) moments. Two constant series with equal means are a
    0/0 case: returns 0.0 under DegenerateInputWarning.
    """
    x, y = _pair(x, y)
    if x.size < 2:
        raise LengthMismatch("ccc needs at least 2 points")
    mx = x.mean()
    my = y.mean()
    vx = np.mean((x - mx) ** 2)
    vy = np.mean((y - my) ** 2)
    sxy = np.mean((x - mx) * (y - my))
    denom = vx + vy + (mx - my) ** 2
    if denom == 0.0:
        warnings.warn(
            "both series constant with equal means; ccc set to 0 by convention",
            DegenerateInputWarning,
            stacklevel=2,
        )
        return 0.0
    return float(2.0 * sxy / denom)


def mse(x, y) -> float:
    """Mean squared difference between two equal-length series."""
    x, y = _pair(x, y)
    if x.size == 0:
        raise LengthMismatch("mse needs at least 1 point")
    return float(np.mean((x - y) ** 2))


def f1_binary(pred, truth) -> float:
    """F1 = 2PR/(P+R) over {0,1} vectors.

    No positives anywhere (TP=FP=FN=0) is vacuous agreement: conventionally
    1.0, flagged with DegenerateInputWarning. TP=0 with any FP or FN is an
    honest 0.0.
    """
    pred, truth = _pair(pred, truth)
    pred = pred.astype(np.int64)
    truth = truth.astype(np.int64)
    tp = int(np.sum((pred == 1) & (truth == 1)))
    fp = int(np.sum((pred == 1) & (truth == 0)))
    fn = int(np.sum((pred == 0) & (truth == 1)))
    if tp == 0:
        if fp == 0 and fn == 0:
            warnings.warn(
                "no positives in pred or truth; f1 set to 1 by convention",
                DegenerateInputWarning,
                stacklevel=2,
            )
            return 1.0
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return float(2.0 * precision * recall / (precision + recall))


def accuracy(pred, truth) -> float:
    """Fraction of positions where the two label vectors agree."""
    pred, truth = _pair(pred, truth)
    if pred.size == 0:
        raise LengthMismatch("accuracy needs at least 1 point")
    return float(np.mean(pred == truth))


def macro_f1(pred, truth, num_classes: int) -> float:
    """Unweighted mean of one-vs-rest F1 over ``num_classes`` classes."""
    pred, truth = _pair(pred, truth)
    if np.any(pred >= num_classes) or np.any(truth >= num_classes):
        raise ValueOutOfRange(f"labels must be < {num_classes}")
    scores = [
        f1_binary((pred == k).astype(np.int64), (truth == k).astype(np.int64))
        for k in range(num_classes)
    ]
    return float(np.mean(scores))


def confusion_matrix(pred, truth, num_classes: int) -> np.ndarray:
    """K x K counts, rows indexed by true class, columns by predicted."""
    pred, truth = _pair(pred, truth)
    if np.any(pred < 0) or np.any(truth < 0):
        raise ValueOutOfRange("labels must be nonnegative")
    if np.any(pred >= num_classes) or np.any(truth >= num_classes):
        raise ValueOutOfRange(f"labels must be < {num_classes}")
    cm = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(cm, (truth.astype(np.int64), pred.astype(np.int64)), 1)
    return cm


def mean_diagonal(cm) -> float:
    """Mean per-class recall, counts[k,k] / rowsum[k], over the classes k
    that have a true sample; 0.0 when none has one."""
    cm = np.asarray(cm, dtype=np.float64)
    row_sums = cm.sum(axis=1)
    present = row_sums > 0
    return float(np.mean(np.diag(cm)[present] / row_sums[present])) if present.any() else 0.0


def _check_unit(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueOutOfRange(f"{name}={value} outside [0,1]")


def e_total_expr(f1: float, total_acc: float) -> float:
    """Expression challenge composite: 0.67*F1 + 0.33*total accuracy."""
    _check_unit("f1", f1)
    _check_unit("total_acc", total_acc)
    return 0.67 * f1 + 0.33 * total_acc


def e_total_au(mean_f1: float, total_acc: float) -> float:
    """AU challenge composite: equal blend of mean F1 and total accuracy."""
    _check_unit("mean_f1", mean_f1)
    _check_unit("total_acc", total_acc)
    return 0.5 * mean_f1 + 0.5 * total_acc


def binarize(probs, threshold: float = 0.5) -> np.ndarray:
    """Threshold probabilities to {0,1}; used before AU F1/accuracy."""
    return (np.asarray(probs, dtype=np.float64) >= threshold).astype(np.int64)
