"""Training objectives: agreement loss for continuous affect, categorical
and masked binary cross-entropy, and the two coupling losses (soft-target
cross-entropy and distribution matching), summed into one step objective.

Each formula is a plain numpy function that returns its value and its
closed-form gradient. ``objective`` evaluates every term of a training
step from the full-batch head outputs and returns one ``autodiff.fused``
node, so gradients flow back to whatever produced the predictions without
a graph of per-term nodes: one softmax of the expression logits and one
sigmoid of the AU logits serve every term that reads them, and their vjps
are applied in the same pass. Probabilities that feed a log are clamped to
[1e-7, 1-1e-7] after the sigmoid/softmax, and no gradient passes where the
clamp bites; the categorical term instead uses a max-shifted log-sum-exp,
which stays exact for saturated logits.

A BatchLabels holds the truth as row arrays, which the annotation reader
and the synthetic generator fill straight from a file or a draw, so
predictions hold nothing but head outputs; it stores each label fact once
and no flag beside it.

The formulas check nothing on a step: each input is checked once, where
it is made. Class ids, VA values in [-1, 1] and AU targets and mask
weights in {0, 1} are checked by ``dataio.read_annotation_columns``, and
compound ids against ``compound_classes`` by
``SampleColumns.check_compound_classes``; hard co-annotation weights come
from a validated relatedness table. The lambdas are checked by
``RunConfig.validate``, and each head's width is fixed by ``Model``. Soft
targets and the probabilities are softmax and sigmoid outputs, so they are
distributions and lie in [0, 1] by construction. ``objective`` keeps one
guard, on its heads and their row count, and ``masked_bce`` refuses a
batch whose rows all have zero weight (``EmptyMaskBatch``).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import List, Optional, Tuple

import numpy as np

from . import autodiff as ad
from .autodiff import DiffTensor
from .errors import EmptyMaskBatch, ShapeMismatch
from .types import NUM_AUS, NUM_EXPRESSIONS

PROB_EPS = 1e-7
_NO_ROWS = np.zeros(0, dtype=np.int64)
_ONES = np.ones(NUM_EXPRESSIONS)  # sums soft rows: no entry is negative, so 0 means none

# a row's own task, by its number in ``BatchLabels.task``
TASKS = ("AU", "VA", "EXPR", "COMPOUND")


@dataclass
class BatchPredictions:
    """Model outputs for one batch; any head a model lacks is None."""

    expr_logits: Optional[DiffTensor] = None
    au_logits: Optional[DiffTensor] = None
    va: Optional[DiffTensor] = None
    compound_logits: Optional[DiffTensor] = None


@dataclass(eq=False)
class BatchLabels:
    """Ground truth aligned row-for-row with a BatchPredictions.

    ``task`` is each row's own task, which co-annotation never changes;
    VA and compound labels are read on the rows of their task. Any other
    label, which co-annotation may add to another task's rows, is carried
    exactly where its value says so: AU truth, a target/weight pair, where
    the mask has weight (so hard co-annotation can feed fractional weights
    through the same code path); a class where ``expr >= 0``; a ``soft``
    target where its row is nonzero, as a distribution is. A label a row
    does not carry is never read. Labels compare equal only to themselves.
    """

    va: np.ndarray  # (N,2) floats
    expr: np.ndarray  # (N,) int class ids, -1 for none
    au_targets: np.ndarray  # (N,17) floats in [0,1]
    au_mask: np.ndarray  # (N,17) nonnegative weights
    compound: np.ndarray  # (N,) int compound class ids
    soft: np.ndarray  # (N,7) emotion distributions, zero for none
    task: np.ndarray  # (N,) int index into TASKS

    @classmethod
    def zeros(cls, n: int) -> "BatchLabels":
        """n AU rows that carry no label: no expression class, every other
        label zero."""
        return cls(
            va=np.zeros((n, 2)),
            expr=np.full(n, -1, dtype=np.int64),
            au_targets=np.zeros((n, NUM_AUS)),
            au_mask=np.zeros((n, NUM_AUS)),
            compound=np.zeros(n, dtype=np.int64),
            soft=np.zeros((n, NUM_EXPRESSIONS)),
            task=np.zeros(n, dtype=np.int64),
        )

    def take(self, rows) -> "BatchLabels":
        """The given rows of every array, in the given order."""
        return BatchLabels(**{f.name: getattr(self, f.name)[rows] for f in fields(self)})


# ---------------------------------------------------------------------------
# the formulas: each returns its value and its gradient, in plain numpy


def _clamp(probs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Probabilities clamped to [PROB_EPS, 1-PROB_EPS], and where the clamp
    did not bite (the only entries whose gradient passes)."""
    inside = (probs >= PROB_EPS) & (probs <= 1.0 - PROB_EPS)
    return np.minimum(np.maximum(probs, PROB_EPS), 1.0 - PROB_EPS), inside


def softmax_parts(logits: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The max-shifted logits, their row sums of exponentials and the
    softmax of an (N, K) matrix: what ``cce`` reads for its rows."""
    shift = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shift)
    total = e.sum(axis=1, keepdims=True)
    return shift, total, e / total


def ccc(pred: np.ndarray, truth: np.ndarray) -> Tuple[float, np.ndarray]:
    """1 - mean of the valence and arousal concordance coefficients,
    population moments per column, and its gradient, over (N, 2) rows.

    Concordance needs a sequence: the caller passes at least 2 rows.
    """
    n = pred.shape[0]
    mean_p = pred.sum(axis=0) / n
    mean_t = truth.sum(axis=0) / n
    dp = pred - mean_p
    dt = truth - mean_t
    diff = mean_p - mean_t
    denom = (dp * dp).sum(axis=0) / n + (dt * dt).sum(axis=0) / n + diff * diff
    rho = 2.0 * ((dp * dt).sum(axis=0) / n) / denom
    grad = (rho * (dp + diff) - dt) / (n * denom)
    return 1.0 - 0.5 * (rho[0] + rho[1]), grad


def cce(
    shift: np.ndarray, total: np.ndarray, probs: np.ndarray, truth: np.ndarray
) -> Tuple[float, np.ndarray]:
    """Mean over rows of -log softmax(logits)[true class ids], from the
    ``softmax_parts`` of those rows, so saturated logits stay exact; and
    its gradient (softmax - onehot) / N. ``truth`` holds one class id in
    [0, K) per row."""
    n = shift.shape[0]
    rows = np.arange(n)
    value = (np.log(total[:, 0]) - shift[rows, truth]).sum() / n
    grad = probs.copy()
    grad[rows, truth] -= 1.0
    return value, grad / n


def masked_bce(s: np.ndarray, targets: np.ndarray, mask: np.ndarray) -> Tuple[float, np.ndarray]:
    """Per-row mask-weighted binary cross-entropy of sigmoid values ``s``,
    averaged over rows, and its gradient with respect to the logits.

    Per row: -(sum w)^-1 * sum_i w_i [t_i log p_i + (1-t_i) log(1-p_i)]
    with p = s clamped to [1e-7, 1-1e-7]. Weights are usually the {0,1}
    annotation mask but may be fractional; they are never negative. Rows
    with zero total weight are skipped; a batch of only such rows is an
    error.
    """
    row_weight = mask.sum(axis=1)
    keep = (row_weight > 0).nonzero()[0]
    if keep.size == 0:
        raise EmptyMaskBatch("no sample has an annotated AU")
    s, t, w, kept_weight = s[keep], targets[keep], mask[keep], row_weight[keep]
    p, inside = _clamp(s)
    terms = t * np.log(p) + (1.0 - t) * np.log(1.0 - p)
    value = -(((terms * w).sum(axis=1) / kept_weight).sum() / keep.size)
    grad = np.zeros(mask.shape)
    grad[keep] = (s - t) * inside * w / (kept_weight[:, None] * keep.size)
    return value, grad


def soft_target(probs: np.ndarray, soft: np.ndarray) -> Tuple[float, np.ndarray]:
    """Cross-entropy with soft targets, mean_n sum_k -soft_k log p_k, and
    its gradient with respect to the probabilities; both are (N, 7)
    distributions."""
    n = probs.shape[0]
    p, inside = _clamp(probs)
    value = -((soft * np.log(p)).sum(axis=1).sum() / n)
    return value, -soft / p * inside / n


def distribution_matching(
    expr_probs: np.ndarray, au_probs: np.ndarray, cond: np.ndarray
) -> Tuple[float, np.ndarray, np.ndarray]:
    """Cross-entropy between predicted AU activations and the AU mixture
    implied by the predicted emotion distribution, and its gradients with
    respect to both probability matrices.

    q = expr_probs @ cond, with cond = p(AU|emotion); loss = mean_n sum_i
    -p(AU_i) log q_i with q clamped. Applied to every row regardless of
    which labels it carries: (N, 7) distributions and (N, 17) values in
    [0, 1].
    """
    n = expr_probs.shape[0]
    q, inside = _clamp(expr_probs @ cond)
    log_q = np.log(q)
    value = -((au_probs * log_q).sum(axis=1).sum() / n)
    return value, -((au_probs / q * inside) @ cond.T) / n, -log_q / n


# ---------------------------------------------------------------------------
# a training step's loss


def objective(
    preds: BatchPredictions,
    labels: BatchLabels,
    lambda1: float = 1.0,
    lambda2: float = 1.0,
    mixture: Optional[np.ndarray] = None,
) -> DiffTensor:
    """A training step's whole loss as one ``fused`` node over the heads.

    The terms, added left to right: L_expr + lambda1 * L_au + lambda2 *
    L_va + L_compound over the rows that carry each label, the VA rows only
    if there are two or more (a term with no row or no head adds 0.0); then
    soft-target cross-entropy over the rows with a nonzero ``soft`` row;
    then, given ``mixture`` (p(AU|emotion), 7 x 17) and EXPR and AU heads,
    distribution matching over every row. One softmax of the expression
    logits and one sigmoid of the AU logits serve every term that reads
    them, and their vjps are applied here. Each head gets one gradient
    array, the sum of its terms' gradients. The edges run expr, va,
    compound, au: a shared trunk then sums the heads' gradients with the
    per-term graph's rounding, the AU head's last where distribution
    matching spreads the expression and AU gradients over every row.
    """
    heads = {  # in edge order
        "expr": preds.expr_logits, "va": preds.va, "compound": preds.compound_logits,
        "au": preds.au_logits,
    }
    expr, va, compound, au = heads.values()
    n = labels.va.shape[0]
    if all(h is None for h in heads.values()) or any(
        h is not None and h.shape[0] != n for h in heads.values()
    ):
        raise ShapeMismatch(f"predictions need a head with {n} rows, one per label row")

    def rows(head, carried):
        return _NO_ROWS if head is None else carried.nonzero()[0]

    expr_rows, soft_rows = rows(expr, labels.expr >= 0), rows(expr, labels.soft.dot(_ONES))
    au_term = au is not None and labels.au_mask.any()
    dm = mixture is not None and expr is not None and au is not None
    if expr_rows.size or soft_rows.size or dm:
        shift, total, p = softmax_parts(expr.data)
    if au_term or dm:
        s = ad.sigmoid_values(au.data)

    # the coupling terms come first: a gradient over every row is stored as
    # it is, and the multi-task terms add into it on their rows
    grads = {}  # head: its gradient over every row
    coupling: List[float] = []
    g_probs = None  # the coupling terms' gradient with respect to the softmax
    if soft_rows.size:
        value, g = soft_target(p[soft_rows], labels.soft[soft_rows])
        coupling.append(value)
        g_probs = np.zeros(p.shape)
        g_probs[soft_rows] = g
    if dm:
        value, g_expr, g_au = distribution_matching(p, s, mixture)
        coupling.append(value)
        g_probs = g_expr if g_probs is None else g_probs + g_expr
        grads["au"] = g_au * s * (1.0 - s)
    if g_probs is not None:
        grads["expr"] = p * (g_probs - (g_probs * p).sum(axis=1, keepdims=True))

    def add(name, idx, g):  # a multi-task term's gradient on rows idx (... for all)
        if name in grads:
            grads[name][idx] += g
        elif idx is ...:
            grads[name] = g
        else:
            grads[name] = np.zeros(heads[name].shape)
            grads[name][idx] = g

    parts: List[float] = [0.0] * 4  # the multi-task terms
    idx = expr_rows
    if idx.size:
        parts[0], g = cce(shift[idx], total[idx], p[idx], labels.expr[idx])
        add("expr", idx, g)
    if au_term:  # masked_bce reads only the rows with weight
        value, g = masked_bce(s, labels.au_targets, labels.au_mask)
        parts[1] = lambda1 * value
        add("au", ..., lambda1 * g)
    idx = rows(va, labels.task == TASKS.index("VA"))
    if idx.size >= 2:  # concordance is undefined on one point
        value, g = ccc(va.data[idx], labels.va[idx])
        parts[2] = lambda2 * value
        add("va", idx, lambda2 * g)
    idx = rows(compound, labels.task == TASKS.index("COMPOUND"))
    if idx.size:
        parts[3], g = cce(*softmax_parts(compound.data[idx]), labels.compound[idx])
        add("compound", idx, g)

    value = parts[0]
    for part in parts[1:] + coupling:
        value = value + part
    return ad.fused(value, [(head, grads[name]) for name, head in heads.items() if name in grads])
