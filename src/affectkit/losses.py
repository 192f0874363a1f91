"""Training objectives: agreement loss for continuous affect, categorical
and masked binary cross-entropy, the weighted multi-task total, and the two
coupling losses (soft-target cross-entropy and distribution matching).

Each loss computes its value and its gradient in closed form with plain
numpy and returns one ``autodiff.fused`` node, so gradients flow back to
whatever produced the predictions without a graph of scalar ops;
``weighted_total`` sums weighted terms as one more such node.
Probabilities that feed a log are clamped to [1e-7, 1-1e-7] after the
sigmoid/softmax, and no gradient passes where the clamp bites; the
categorical term instead uses a max-shifted log-sum-exp, which stays exact
for saturated logits.

``label_arrays`` is the one place where annotated samples become the row
arrays of a BatchLabels; training and evaluation both build their truth
with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from . import autodiff as ad
from .autodiff import DiffTensor
from .errors import (
    BadDistribution,
    BatchTooSmall,
    EmptyMaskBatch,
    ShapeMismatch,
    ValueOutOfRange,
)
from .relatedness import RelatednessTable
from .types import NUM_AUS, NUM_EXPRESSIONS, AnnotatedSample

PROB_EPS = 1e-7


@dataclass(frozen=True)
class LossWeights:
    """Multipliers for the AU and VA terms of the multi-task total."""

    lambda1: float = 1.0
    lambda2: float = 1.0

    def __post_init__(self):
        for name, v in (("lambda1", self.lambda1), ("lambda2", self.lambda2)):
            if not np.isfinite(v) or v < 0:
                raise ValueOutOfRange(f"{name}={v} must be finite and >= 0")


@dataclass
class BatchPredictions:
    """Model outputs for one batch plus per-sample label availability.

    Any head a model lacks is None. Flags are {0,1} vectors saying which
    rows carry which label type; a None flag means every row does.
    """

    expr_logits: Optional[DiffTensor] = None
    au_logits: Optional[DiffTensor] = None
    va: Optional[DiffTensor] = None
    compound_logits: Optional[DiffTensor] = None
    has_expr: Optional[np.ndarray] = None
    has_au: Optional[np.ndarray] = None
    has_va: Optional[np.ndarray] = None
    has_compound: Optional[np.ndarray] = None


@dataclass
class BatchLabels:
    """Ground truth aligned row-for-row with a BatchPredictions.

    Rows whose availability flag is 0 may hold anything; they are never
    read. AU truth is a target/weight pair so hard co-annotation can feed
    fractional observational weights through the same code path.
    """

    expr: Optional[np.ndarray] = None  # (N,) int class ids
    au_targets: Optional[np.ndarray] = None  # (N,17) floats in [0,1]
    au_mask: Optional[np.ndarray] = None  # (N,17) nonnegative weights
    va: Optional[np.ndarray] = None  # (N,2) floats
    compound: Optional[np.ndarray] = None  # (N,) int compound class ids


def label_arrays(
    samples: Sequence[AnnotatedSample],
) -> Tuple[BatchLabels, Dict[str, np.ndarray]]:
    """Write each sample's own label into row i of a BatchLabels.

    Returns the labels and {0,1} flags keyed ``va``, ``expr``, ``au`` and
    ``compound``. A sample carries exactly one label, so a row has at most
    one flag; an AU row with no annotated unit has none and keeps a zero
    mask, because the masked cross-entropy has nothing to weigh in it.
    """
    n = len(samples)
    labels = BatchLabels(
        expr=np.zeros(n, dtype=np.int64),
        au_targets=np.zeros((n, NUM_AUS)),
        au_mask=np.zeros((n, NUM_AUS)),
        va=np.zeros((n, 2)),
        compound=np.zeros(n, dtype=np.int64),
    )
    has = {k: np.zeros(n) for k in ("expr", "au", "va", "compound")}
    for row, sample in enumerate(samples):
        label, task = sample.label, sample.task
        if task == "VA":
            has["va"][row] = 1.0
            labels.va[row] = (label.valence, label.arousal)
        elif task == "EXPR":
            has["expr"][row] = 1.0
            labels.expr[row] = label.class_id
        elif task == "AU":
            if label.mask.any():
                has["au"][row] = 1.0
                labels.au_targets[row] = label.values
                labels.au_mask[row] = label.mask
        else:
            has["compound"][row] = 1.0
            labels.compound[row] = label.class_id
    return labels, has


# ---------------------------------------------------------------------------
# individual objectives


def _clamp(probs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Probabilities clamped to [PROB_EPS, 1-PROB_EPS], and where the clamp
    did not bite (the only entries whose gradient passes)."""
    inside = (probs >= PROB_EPS) & (probs <= 1.0 - PROB_EPS)
    return np.clip(probs, PROB_EPS, 1.0 - PROB_EPS), inside


def ccc_loss(pred_va: DiffTensor, truth_va) -> DiffTensor:
    """1 - mean of the valence and arousal concordance coefficients,
    population moments per column.

    Concordance needs a sequence, so the batch must have at least 2 rows.
    """
    truth = np.asarray(truth_va, dtype=np.float64)
    if pred_va.ndim != 2 or pred_va.shape[1] != 2 or truth.shape != pred_va.shape:
        raise ShapeMismatch(f"va shapes {pred_va.shape} vs {truth.shape}")
    n = pred_va.shape[0]
    if n < 2:
        raise BatchTooSmall("concordance needs at least 2 samples")
    mean_p = pred_va.data.mean(axis=0)
    mean_t = truth.mean(axis=0)
    dp = pred_va.data - mean_p
    dt = truth - mean_t
    diff = mean_p - mean_t
    denom = (dp * dp).mean(axis=0) + (dt * dt).mean(axis=0) + diff * diff
    rho = 2.0 * (dp * dt).mean(axis=0) / denom
    grad = (rho * (dp + diff) - dt) / (n * denom)
    return ad.fused(1.0 - 0.5 * (rho[0] + rho[1]), ((pred_va, grad),))


def cce_loss(expr_logits: DiffTensor, truth) -> DiffTensor:
    """Mean over samples of -log softmax(logits)[true class], from the
    max-shifted log-sum-exp, so saturated logits stay exact."""
    truth_ids = np.asarray(
        [t if isinstance(t, (int, np.integer)) else t.class_id for t in np.atleast_1d(truth)],
        dtype=np.int64,
    )
    n, k = expr_logits.shape
    if truth_ids.shape != (n,):
        raise ShapeMismatch(f"{truth_ids.shape[0]} labels for {n} rows")
    if np.any(truth_ids < 0) or np.any(truth_ids >= k):
        raise ValueOutOfRange(f"class ids must be in [0,{k})")
    rows = np.arange(n)
    shift = expr_logits.data - expr_logits.data.max(axis=1, keepdims=True)
    e = np.exp(shift)
    total = e.sum(axis=1, keepdims=True)
    value = np.mean(np.log(total[:, 0]) - shift[rows, truth_ids])
    grad = e / total
    grad[rows, truth_ids] -= 1.0
    return ad.fused(value, ((expr_logits, grad / n),))


def masked_bce_loss(au_logits: DiffTensor, targets, mask) -> DiffTensor:
    """Per-sample mask-weighted binary cross-entropy, averaged over samples.

    Per sample: -(sum w)^-1 * sum_i w_i [t_i log p_i + (1-t_i) log(1-p_i)]
    with p = sigmoid(logit) clamped to [1e-7, 1-1e-7]. Weights are usually
    the {0,1} annotation mask but may be fractional. Rows with zero total
    weight are skipped; a batch of only such rows is an error.
    """
    targets = np.asarray(targets, dtype=np.float64)
    mask = np.asarray(mask, dtype=np.float64)
    if au_logits.shape != targets.shape or au_logits.shape != mask.shape:
        raise ShapeMismatch(
            f"logits {au_logits.shape}, targets {targets.shape}, mask {mask.shape}"
        )
    if np.any(mask < 0):
        raise ValueOutOfRange("mask weights must be nonnegative")
    row_weight = mask.sum(axis=1)
    keep = np.flatnonzero(row_weight > 0)
    if keep.size == 0:
        raise EmptyMaskBatch("no sample has an annotated AU")
    s = ad.sigmoid_values(au_logits.data[keep])
    t = targets[keep]
    w = mask[keep]
    kept_weight = row_weight[keep]
    p, inside = _clamp(s)
    terms = t * np.log(p) + (1.0 - t) * np.log(1.0 - p)
    value = -np.mean((terms * w).sum(axis=1) / kept_weight)
    grad = np.zeros(au_logits.shape)
    grad[keep] = (s - t) * inside * w / (kept_weight[:, None] * keep.size)
    return ad.fused(value, ((au_logits, grad),))


def multitask_loss(
    preds: BatchPredictions,
    labels: BatchLabels,
    weights: LossWeights = LossWeights(),
    return_terms: bool = False,
):
    """L_total = L_expr + lambda1 * L_au + lambda2 * L_va.

    Each term is computed only over the rows flagged as carrying that
    label type; a task with no labeled rows (or no head) contributes 0
    and, with ``return_terms``, is reported as an edge-free 0.
    A compound head, when present, adds a plain cross-entropy term at
    unit weight (the transfer-learning extension).
    """
    n = None
    for t in (preds.expr_logits, preds.au_logits, preds.va, preds.compound_logits):
        if t is not None:
            n = t.shape[0]
            break
    if n is None:
        raise ShapeMismatch("predictions carry no heads")

    def rows(flag):
        if flag is None:
            return np.arange(n)
        return np.flatnonzero(np.asarray(flag) != 0)

    terms: Dict[str, Optional[DiffTensor]] = dict.fromkeys(("expr", "au", "va", "compound"))

    if preds.expr_logits is not None and labels.expr is not None:
        idx = rows(preds.has_expr)
        if idx.size:
            terms["expr"] = cce_loss(
                ad.take_rows(preds.expr_logits, idx),
                np.asarray(labels.expr)[idx],
            )
    if preds.au_logits is not None and labels.au_targets is not None:
        idx = rows(preds.has_au)
        if idx.size:
            terms["au"] = masked_bce_loss(
                ad.take_rows(preds.au_logits, idx),
                np.asarray(labels.au_targets)[idx],
                np.asarray(labels.au_mask)[idx],
            )
    if preds.va is not None and labels.va is not None:
        idx = rows(preds.has_va)
        if idx.size:
            terms["va"] = ccc_loss(
                ad.take_rows(preds.va, idx), np.asarray(labels.va)[idx]
            )
    if preds.compound_logits is not None and labels.compound is not None:
        idx = rows(preds.has_compound)
        if idx.size:
            terms["compound"] = cce_loss(
                ad.take_rows(preds.compound_logits, idx),
                np.asarray(labels.compound)[idx],
            )

    total = weighted_total(
        [
            (1.0, terms["expr"]),
            (weights.lambda1, terms["au"]),
            (weights.lambda2, terms["va"]),
            (1.0, terms["compound"]),
        ]
    )
    if return_terms:
        return total, {k: DiffTensor(0.0) if t is None else t for k, t in terms.items()}
    return total


def weighted_total(terms: Sequence[Tuple[float, Optional[DiffTensor]]]) -> DiffTensor:
    """sum_i w_i * t_i over scalar loss terms as one ``fused`` node whose
    edges carry the weights.

    The products are added left to right and an absent (None) term adds
    0.0 without an edge, so the value is bit-identical to the chain
    ``w_0 * t_0 + w_1 * t_1 + ...`` with absent terms as zero.
    """
    parts = [0.0 if t is None else w * t.data for w, t in terms]
    value = parts[0]
    for part in parts[1:]:
        value = value + part
    return ad.fused(value, [(t, w) for w, t in terms if t is not None])


# ---------------------------------------------------------------------------
# coupling objectives


def _check_rows_are_distributions(arr: np.ndarray, what: str) -> None:
    if np.any(arr < 0) or np.any(np.abs(arr.sum(axis=1) - 1.0) > 1e-6):
        raise BadDistribution(f"{what} rows must be distributions over classes")


def distribution_matching_loss(
    expr_probs: DiffTensor,
    au_probs: DiffTensor,
    table: RelatednessTable,
    reweight: bool = False,
) -> DiffTensor:
    """Cross-entropy between predicted AU activations and the AU mixture
    implied by the predicted emotion distribution.

    q = expr_probs @ p(AU|emotion); loss = mean_n sum_i -p(AU_i) log q_i
    with q clamped. Applied to every sample regardless of which labels it
    carries; gradients flow through both the AU and the emotion head.
    """
    if expr_probs.ndim != 2 or expr_probs.shape[1] != NUM_EXPRESSIONS:
        raise ShapeMismatch(f"expr_probs shape {expr_probs.shape}")
    if au_probs.ndim != 2 or au_probs.shape[1] != NUM_AUS:
        raise ShapeMismatch(f"au_probs shape {au_probs.shape}")
    if au_probs.shape[0] != expr_probs.shape[0]:
        raise ShapeMismatch("row counts differ")
    _check_rows_are_distributions(expr_probs.data, "emotion probability")
    if np.any(au_probs.data < 0) or np.any(au_probs.data > 1):
        raise BadDistribution("AU probabilities must lie in [0,1]")
    n = expr_probs.shape[0]
    cond = table.conditional_matrix(reweight=reweight)
    q, inside = _clamp(expr_probs.data @ cond)
    log_q = np.log(q)
    a = au_probs.data
    value = -np.mean((a * log_q).sum(axis=1))
    grad_expr = -((a / q * inside) @ cond.T) / n
    return ad.fused(value, ((expr_probs, grad_expr), (au_probs, -log_q / n)))


def soft_target_cce(expr_probs: DiffTensor, soft_labels) -> DiffTensor:
    """Cross-entropy with soft targets: mean_n sum_k -soft_k log p_k."""
    soft = np.asarray(soft_labels, dtype=np.float64)
    if soft.shape != expr_probs.shape:
        raise ShapeMismatch(f"soft labels {soft.shape} vs probs {expr_probs.shape}")
    _check_rows_are_distributions(soft, "soft label")
    _check_rows_are_distributions(expr_probs.data, "emotion probability")
    n = expr_probs.shape[0]
    p, inside = _clamp(expr_probs.data)
    value = -np.mean((soft * np.log(p)).sum(axis=1))
    return ad.fused(value, ((expr_probs, -soft / p * inside / n),))
