"""Training objectives: agreement loss for continuous affect, categorical
and masked binary cross-entropy, the weighted multi-task total, and the two
coupling losses (soft-target cross-entropy and distribution matching).

Each loss computes its value and its gradient in closed form with plain
numpy and returns one ``autodiff.fused`` node, so gradients flow back to
whatever produced the predictions without a graph of scalar ops;
``weighted_total`` sums weighted terms as one more such node.
``multitask_terms`` lists the weighted multi-task terms, so a training
step can append its coupling terms and sum them all with one total.
Probabilities that feed a log are clamped to [1e-7, 1-1e-7] after the
sigmoid/softmax, and no gradient passes where the clamp bites; the
categorical term instead uses a max-shifted log-sum-exp, which stays exact
for saturated logits.

``label_arrays`` turns in-memory annotated samples into the row arrays of a
BatchLabels, which is how evaluation builds its truth; the annotation
reader fills the same arrays straight from a file for training. A
BatchLabels also carries the row flags that decide which rows each term
reads, so predictions hold nothing but head outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import List, Optional, Sequence, Tuple

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
    """Model outputs for one batch; any head a model lacks is None."""

    expr_logits: Optional[DiffTensor] = None
    au_logits: Optional[DiffTensor] = None
    va: Optional[DiffTensor] = None
    compound_logits: Optional[DiffTensor] = None

    def take(self, rows) -> "BatchPredictions":
        """The given rows of every head, each one ``take_rows`` node."""
        heads = {f.name: getattr(self, f.name) for f in fields(self)}
        return BatchPredictions(**{
            name: None if head is None else ad.take_rows(head, rows) for name, head in heads.items()
        })


@dataclass
class BatchLabels:
    """Ground truth aligned row-for-row with a BatchPredictions.

    Each ``has_*`` flag says which rows carry that label; unflagged rows
    may hold anything and are never read. AU truth is a target/weight pair
    so hard co-annotation can feed fractional observational weights through
    the same code path. ``soft`` is the soft co-annotation emotion target of
    the rows flagged in ``has_soft``.
    """

    va: np.ndarray  # (N,2) floats
    expr: np.ndarray  # (N,) int class ids
    au_targets: np.ndarray  # (N,17) floats in [0,1]
    au_mask: np.ndarray  # (N,17) nonnegative weights
    compound: np.ndarray  # (N,) int compound class ids
    soft: np.ndarray  # (N,7) emotion distributions
    has_va: np.ndarray  # (N,) bool, and likewise below
    has_expr: np.ndarray
    has_au: np.ndarray
    has_compound: np.ndarray
    has_soft: np.ndarray

    @classmethod
    def zeros(cls, n: int) -> "BatchLabels":
        """n rows with every label zero and every flag off."""
        return cls(
            va=np.zeros((n, 2)),
            expr=np.zeros(n, dtype=np.int64),
            au_targets=np.zeros((n, NUM_AUS)),
            au_mask=np.zeros((n, NUM_AUS)),
            compound=np.zeros(n, dtype=np.int64),
            soft=np.zeros((n, NUM_EXPRESSIONS)),
            **{
                f"has_{k}": np.zeros(n, dtype=bool)
                for k in ("va", "expr", "au", "compound", "soft")
            },
        )

    def take(self, rows) -> "BatchLabels":
        """The given rows of every array, in the given order."""
        return BatchLabels(**{f.name: getattr(self, f.name)[rows] for f in fields(self)})


def label_arrays(samples: Sequence[AnnotatedSample]) -> BatchLabels:
    """Write each sample's own label into row i of a BatchLabels and flag it.

    A sample carries exactly one label, so a row has at most one flag; an
    AU row with no annotated unit has none and keeps a zero mask, because
    the masked cross-entropy has nothing to weigh in it. No row has a soft
    target here.
    """
    labels = BatchLabels.zeros(len(samples))
    for row, sample in enumerate(samples):
        label, task = sample.label, sample.task
        if task == "VA":
            labels.has_va[row] = True
            labels.va[row] = (label.valence, label.arousal)
        elif task == "EXPR":
            labels.has_expr[row] = True
            labels.expr[row] = label.class_id
        elif task == "AU":
            if label.mask.any():
                labels.has_au[row] = True
                labels.au_targets[row] = label.values
                labels.au_mask[row] = label.mask
        else:
            labels.has_compound[row] = True
            labels.compound[row] = label.class_id
    return labels


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
    """Mean over samples of -log softmax(logits)[true class ids], from the
    max-shifted log-sum-exp, so saturated logits stay exact."""
    truth_ids = np.asarray(truth, dtype=np.int64)
    n, k = expr_logits.shape
    if truth_ids.shape != (n,):
        raise ShapeMismatch(f"labels of shape {truth_ids.shape} for {n} rows")
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


def multitask_terms(
    preds: BatchPredictions,
    labels: BatchLabels,
    weights: LossWeights = LossWeights(),
) -> List[Tuple[float, Optional[DiffTensor]]]:
    """The (weight, term) pairs of L_expr + lambda1 * L_au + lambda2 * L_va
    + L_compound, in that order; the compound head is the transfer-learning
    extension. ``weighted_total`` of the list is the multi-task loss.

    Each term is computed only over the rows its label flag marks; a task
    with no flagged row, or no head, is None.
    """
    heads = (preds.expr_logits, preds.au_logits, preds.va, preds.compound_logits)
    n = labels.va.shape[0]
    if all(h is None for h in heads) or any(h is not None and h.shape[0] != n for h in heads):
        raise ShapeMismatch(f"predictions need a head with {n} rows, one per label row")

    def term(loss, head, flag, *truth):
        idx = np.flatnonzero(flag)
        if head is None or not idx.size:
            return None
        return loss(ad.take_rows(head, idx), *(t[idx] for t in truth))

    return [
        (1.0, term(cce_loss, preds.expr_logits, labels.has_expr, labels.expr)),
        (weights.lambda1, term(
            masked_bce_loss, preds.au_logits, labels.has_au, labels.au_targets, labels.au_mask
        )),
        (weights.lambda2, term(ccc_loss, preds.va, labels.has_va, labels.va)),
        (1.0, term(cce_loss, preds.compound_logits, labels.has_compound, labels.compound)),
    ]


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
