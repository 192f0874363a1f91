"""Test-only autodiff ops kept as references for the fused nodes.

``add``, ``mul`` (both with numpy-style broadcasting), ``matmul``, ``tanh``
and ``tsum`` are the general ops that ``dense``, the weighted loss totals
and the gradient-check objectives once were built from; ``sigmoid`` and
``softmax`` are the probability nodes that inference and the per-term loss
graph once read off the head logits, now plain numpy in the package
(``autodiff.sigmoid_values``, ``losses.softmax_parts``); ``add(matmul(x, w),
b)`` is the reference for the fused ``dense``. ``gru_step`` is the
per-frame recurrence graph that ``gru_sequence`` replaced, and
``recur_per_step`` walks a GRU stack with it one frame at a time;
``slice_axis`` and ``sub`` are the structural and elementwise ops only
those references and the composite loss graphs use. ``as_tensor`` wraps a
constant as an edge-free tensor. ``LoopAdam`` is the per-parameter Adam
loop that the flat-store ``Adam`` replaced. ``initial_state``,
``trunk_parameters``, ``parameter_count`` and ``single_task_spec`` are
helpers only tests use.
``build_then_overwrite`` is the load path that ``Model(..., values=...)``
replaced: a seeded build, then a strict copy of every checkpoint array.

``ccc_node``, ``cce_node``, ``bce_node``, ``soft_node`` and ``dm_node``
wrap each formula of ``losses`` (value and gradient in numpy) as a
one-node loss, so that unit tests can drive it through ``backward``.
``ccc_loss``, ``cce_loss``, ``masked_bce_loss``, ``soft_target_cce`` and
``distribution_matching_loss`` are the per-term loss nodes that
``losses.objective`` replaced, each one ``fused`` node. Like the formulas,
they check no input that is checked where it is made; ``masked_bce_loss``
still refuses a batch whose rows all have zero weight;
``multitask_terms`` lists the weighted multi-task terms and
``weighted_total`` sums weighted terms as one more node. ``step_graph`` is
the per-term graph a training step built from them, through
``softmax``/``sigmoid`` nodes and ``take_rows`` gathers: the oracle for
``losses.objective``.
"""

from dataclasses import replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from affectkit import autodiff as ad
from affectkit import losses
from affectkit.autodiff import DiffTensor, GruCell
from affectkit.errors import BadCheckpoint, EmptyMaskBatch, InvalidSpec, ShapeMismatch
from affectkit.losses import PROB_EPS, BatchLabels, BatchPredictions
from affectkit.models import HEAD_NAMES, Model, ModelSpec, load_parameters
from affectkit.relatedness import RelatednessTable


def as_tensor(value) -> DiffTensor:
    return value if isinstance(value, DiffTensor) else DiffTensor(value)


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def sigmoid(x: DiffTensor) -> DiffTensor:
    s = ad.sigmoid_values(x.data)
    return DiffTensor(s, edges=((x, lambda g: g * s * (1.0 - s)),))


def softmax(x: DiffTensor, axis: int = -1) -> DiffTensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        return s * (g - np.sum(g * s, axis=axis, keepdims=True))

    return DiffTensor(s, edges=((x, vjp),))


def add(a: DiffTensor, b: DiffTensor) -> DiffTensor:
    try:
        out_data = a.data + b.data
    except ValueError as exc:
        raise ShapeMismatch(f"add {a.shape} vs {b.shape}") from exc
    return DiffTensor(
        out_data,
        edges=(
            (a, lambda g: _unbroadcast(g, a.shape)),
            (b, lambda g: _unbroadcast(g, b.shape)),
        ),
    )


def mul(a: DiffTensor, b: DiffTensor) -> DiffTensor:
    try:
        out_data = a.data * b.data
    except ValueError as exc:
        raise ShapeMismatch(f"mul {a.shape} vs {b.shape}") from exc
    return DiffTensor(
        out_data,
        edges=(
            (a, lambda g: _unbroadcast(g * b.data, a.shape)),
            (b, lambda g: _unbroadcast(g * a.data, b.shape)),
        ),
    )


def sub(a: DiffTensor, b: DiffTensor) -> DiffTensor:
    try:
        out_data = a.data - b.data
    except ValueError as exc:
        raise ShapeMismatch(f"sub {a.shape} vs {b.shape}") from exc
    return DiffTensor(
        out_data,
        edges=(
            (a, lambda g: _unbroadcast(g, a.shape)),
            (b, lambda g: _unbroadcast(-g, b.shape)),
        ),
    )


def matmul(a: DiffTensor, b: DiffTensor) -> DiffTensor:
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeMismatch(f"matmul {a.shape} @ {b.shape}")
    return DiffTensor(
        a.data @ b.data,
        edges=(
            (a, lambda g: g @ b.data.T),
            (b, lambda g: a.data.T @ g),
        ),
    )


def tanh(x: DiffTensor) -> DiffTensor:
    t = np.tanh(x.data)
    return DiffTensor(t, edges=((x, lambda g: g * (1.0 - t * t)),))


def tsum(x: DiffTensor, axis: Optional[int] = None, keepdims: bool = False) -> DiffTensor:
    out_data = x.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g, x.shape)

    return DiffTensor(out_data, edges=((x, vjp),))


def square(t: DiffTensor) -> DiffTensor:
    return mul(t, t)


def slice_axis(x: DiffTensor, start: int, stop: int, axis: int = -1) -> DiffTensor:
    ax = axis if axis >= 0 else x.ndim + axis
    if not 0 <= start <= stop <= x.shape[ax]:
        raise ShapeMismatch(f"slice [{start}:{stop}] on axis {ax} of {x.shape}")
    sl = [slice(None)] * x.ndim
    sl[ax] = slice(start, stop)
    sl = tuple(sl)

    def vjp(g):
        full = np.zeros(x.shape, dtype=np.float64)
        full[sl] = g
        return full

    return DiffTensor(x.data[sl], edges=((x, vjp),))


def gru_step(cell: GruCell, x: DiffTensor, h_prev: DiffTensor) -> DiffTensor:
    """One recurrence step; x is (B, input_dim), h_prev is (B, hidden_dim)."""
    if x.ndim != 2 or x.shape[1] != cell.input_dim:
        raise ShapeMismatch(f"gru input {x.shape}, expected (B,{cell.input_dim})")
    if h_prev.ndim != 2 or h_prev.shape[1] != cell.hidden_dim:
        raise ShapeMismatch(f"gru state {h_prev.shape}, expected (B,{cell.hidden_dim})")
    xh = ad.concat([x, h_prev], axis=1)
    z = sigmoid(ad.dense(xh, cell.w_z, cell.b_z))
    r = sigmoid(ad.dense(xh, cell.w_r, cell.b_r))
    candidate = tanh(ad.dense(ad.concat([x, mul(r, h_prev)], axis=1), cell.w_h, cell.b_h))
    return add(mul(sub(as_tensor(1.0), z), h_prev), mul(z, candidate))


def initial_state(cell: GruCell, batch: int) -> DiffTensor:
    """The zero state a recurrence starts from, (batch, hidden_dim)."""
    return DiffTensor(np.zeros((batch, cell.hidden_dim)))


def recur_per_step(cells, x: DiffTensor, b_size: int, t_len: int) -> DiffTensor:
    """Walk a GRU stack over time-major rows one frame's B rows at a time."""
    states = [initial_state(cell, b_size) for cell in cells]
    outs = []
    for t in range(t_len):
        h = slice_axis(x, t * b_size, (t + 1) * b_size, axis=0)
        for k, cell in enumerate(cells):
            h = states[k] = gru_step(cell, h, states[k])
        outs.append(h)
    return ad.concat(outs, axis=0)


class LoopAdam:
    """Bias-corrected Adam as one update per parameter tensor, rebinding
    each ``p.data``; the oracle for ``autodiff.Adam``."""

    def __init__(self, params, lr=1e-4, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr, self.beta1, self.beta2, self.eps = float(lr), beta1, beta2, eps
        self.step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = np.zeros_like(p.data)

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        for p, m, v in zip(self.params, self._m, self._v):
            g = p.grad
            if g.shape != p.data.shape:
                raise ShapeMismatch(f"gradient {g.shape} vs parameter {p.data.shape}")
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            m_hat = m / (1.0 - self.beta1**t)
            v_hat = v / (1.0 - self.beta2**t)
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def trunk_parameters(model: Model):
    return [p for n, p in model.named_parameters().items() if not n.startswith("head.")]


def parameter_count(model: Model) -> int:
    return sum(p.size for p in model.parameters())


def single_task_spec(spec: ModelSpec, head: str) -> ModelSpec:
    """The same architecture restricted to one head (comparison runs)."""
    if head not in HEAD_NAMES:
        raise InvalidSpec(f"unknown head {head!r}")
    return replace(spec, heads=(head,))


def build_then_overwrite(spec, dims, seed, values) -> Model:
    """Draw a model from ``seed``, check that ``values`` names exactly its
    parameters, then copy each array into place."""
    model = Model(spec, dims, seed=seed)
    params = model.named_parameters()
    missing = sorted(set(params) - set(values))
    extra = sorted(set(values) - set(params))
    if missing or extra:
        raise BadCheckpoint(f"parameter names differ: missing={missing} extra={extra}")
    load_parameters(model, values)
    return model


# ---------------------------------------------------------------------------
# the losses module's formulas, each as a one-node loss over its input


def ccc_node(pred_va: DiffTensor, truth_va) -> DiffTensor:
    value, grad = losses.ccc(pred_va.data, truth_va)
    return ad.fused(value, ((pred_va, grad),))


def cce_node(logits: DiffTensor, truth) -> DiffTensor:
    value, grad = losses.cce(*losses.softmax_parts(logits.data), truth)
    return ad.fused(value, ((logits, grad),))


def bce_node(au_logits: DiffTensor, targets, mask) -> DiffTensor:
    value, grad = losses.masked_bce(ad.sigmoid_values(au_logits.data), targets, mask)
    return ad.fused(value, ((au_logits, grad),))


def soft_node(expr_probs: DiffTensor, soft) -> DiffTensor:
    value, grad = losses.soft_target(expr_probs.data, soft)
    return ad.fused(value, ((expr_probs, grad),))


def dm_node(expr_probs: DiffTensor, au_probs: DiffTensor, table, reweight=False) -> DiffTensor:
    cond = table.conditional_matrix(reweight=reweight)
    value, grad_expr, grad_au = losses.distribution_matching(expr_probs.data, au_probs.data, cond)
    return ad.fused(value, ((expr_probs, grad_expr), (au_probs, grad_au)))


# ---------------------------------------------------------------------------
# the per-term loss graph of a training step, as the losses module had it


def _clamp(probs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Probabilities clamped to [PROB_EPS, 1-PROB_EPS], and where the clamp
    did not bite (the only entries whose gradient passes)."""
    inside = (probs >= PROB_EPS) & (probs <= 1.0 - PROB_EPS)
    return np.clip(probs, PROB_EPS, 1.0 - PROB_EPS), inside


def ccc_loss(pred_va: DiffTensor, truth_va) -> DiffTensor:
    """1 - mean of the valence and arousal concordance coefficients,
    population moments per column, over at least 2 rows."""
    truth = np.asarray(truth_va, dtype=np.float64)
    n = pred_va.shape[0]
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
    n = expr_logits.shape[0]
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
    lambda1: float = 1.0,
    lambda2: float = 1.0,
) -> List[Tuple[float, Optional[DiffTensor]]]:
    """The (weight, term) pairs of L_expr + lambda1 * L_au + lambda2 * L_va
    + L_compound, in that order; the compound head is the transfer-learning
    extension. ``weighted_total`` of the list is the multi-task loss.

    Each term is computed only over the rows that carry its label: the
    rows with an expression class >= 0, the rows with AU mask weight, the
    VA rows and the COMPOUND rows, by the ``task`` column. A task with no such row, or no
    head, is None, and so is the VA term over a single row, on which
    concordance is undefined.
    """
    heads = (preds.expr_logits, preds.au_logits, preds.va, preds.compound_logits)
    n = labels.va.shape[0]
    if all(h is None for h in heads) or any(h is not None and h.shape[0] != n for h in heads):
        raise ShapeMismatch(f"predictions need a head with {n} rows, one per label row")
    va_rows, compound_rows = (labels.task == losses.TASKS.index(t) for t in ("VA", "COMPOUND"))

    def term(loss, head, carried, *truth, least=1):
        idx = np.flatnonzero(carried)
        if head is None or idx.size < least:
            return None
        return loss(ad.take_rows(head, idx), *(t[idx] for t in truth))

    return [
        (1.0, term(cce_loss, preds.expr_logits, labels.expr >= 0, labels.expr)),
        (lambda1, term(
            masked_bce_loss, preds.au_logits, labels.au_mask.any(axis=1),
            labels.au_targets, labels.au_mask,
        )),
        (lambda2, term(ccc_loss, preds.va, va_rows, labels.va, least=2)),
        (1.0, term(cce_loss, preds.compound_logits, compound_rows, labels.compound)),
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
    n = expr_probs.shape[0]
    p, inside = _clamp(expr_probs.data)
    value = -np.mean((soft * np.log(p)).sum(axis=1))
    return ad.fused(value, ((expr_probs, -soft / p * inside / n),))


def step_graph(
    preds: BatchPredictions,
    labels: BatchLabels,
    lambda1: float = 1.0,
    lambda2: float = 1.0,
    table=None,
    reweight: bool = False,
) -> DiffTensor:
    """A training step's loss as the per-term graph: the multi-task terms,
    then soft-target cross-entropy over the rows with a nonzero ``soft``
    row of a softmax node, then (with ``table``) distribution matching of
    that softmax against a sigmoid node, in one weighted total."""
    terms = multitask_terms(preds, labels, lambda1, lambda2)
    soft_rows = np.flatnonzero(labels.soft.any(axis=1))
    dm = table is not None and preds.au_logits is not None
    if preds.expr_logits is not None and (soft_rows.size or dm):
        probs = softmax(preds.expr_logits, axis=1)
        if soft_rows.size:
            p = ad.take_rows(probs, soft_rows)
            terms.append((1.0, soft_target_cce(p, labels.soft[soft_rows])))
        if dm:
            au = sigmoid(preds.au_logits)
            terms.append((1.0, distribution_matching_loss(probs, au, table, reweight=reweight)))
    return weighted_total(terms)
