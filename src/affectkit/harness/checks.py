"""Finite-difference gradient verification for layers and losses.

Each named check builds a scalar objective from fresh random inputs,
backpropagates once, then compares the analytic gradient against a
central difference at randomly sampled coordinates. The loss checks run
the training step's one objective, ``losses.objective``, with one term
active each, and ``loss.multitask`` with all five at once. The same
battery backs the ``grad-check`` CLI subcommand and the test suite.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from .. import autodiff as ad
from ..autodiff import DiffTensor, GruCell, backward
from ..errors import ConfigError
from .. import losses
from ..losses import BatchLabels, BatchPredictions
from ..models import InputDims, Model, ModelSpec, RecurrentSpec, pack_rows, sequence_keys
from ..relatedness import COGNITIVE
from ..types import NUM_AUS, NUM_EXPRESSIONS

GRAD_TOLERANCE = 1e-4
# Floor for the relative-error denominator: coordinates where both
# gradients are this small are compared absolutely, keeping difference
# noise on near-zero gradients from dividing the check to failure.
_DENOM_FLOOR = 1e-4


def max_relative_error(
    objective: Callable[[], DiffTensor],
    params: Sequence[DiffTensor],
    n_points: int = 60,
    eps: float = 1e-5,
    seed: int = 0,
) -> float:
    """Worst |analytic - central difference| / max(|a|, |n|, floor).

    ``objective`` must rebuild the scalar loss from the live ``params``
    on every call; n_points coordinates are sampled without replacement
    across the concatenated parameter space.
    """
    loss = objective()
    for p in params:
        p.zero_grad()
    backward(loss)
    analytic = [p.grad.copy() for p in params]

    sizes = [p.data.size for p in params]
    offsets = np.cumsum([0] + sizes)
    total = offsets[-1]
    rng = np.random.default_rng(seed)
    picks = rng.choice(total, size=min(n_points, total), replace=False)

    worst = 0.0
    for flat in picks:
        which = int(np.searchsorted(offsets, flat, side="right") - 1)
        off = int(flat - offsets[which])
        p = params[which]
        orig = p.data.flat[off]
        p.data.flat[off] = orig + eps
        f_plus = float(objective().data)
        p.data.flat[off] = orig - eps
        f_minus = float(objective().data)
        p.data.flat[off] = orig
        numeric = (f_plus - f_minus) / (2.0 * eps)
        a = float(analytic[which].flat[off])
        rel = abs(a - numeric) / max(abs(a), abs(numeric), _DENOM_FLOOR)
        worst = max(worst, rel)
    return worst


def _tensors(rng, *shapes) -> List[DiffTensor]:
    return [DiffTensor(rng.normal(0.0, 0.7, size=s)) for s in shapes]


def _projection(rng, shape) -> Callable[[DiffTensor], DiffTensor]:
    """A fixed random linear functional sum(c * out) over outputs of
    ``shape`` as one ``fused`` node, so every output entry gets its own
    weight."""
    c = rng.normal(0.0, 1.0, size=shape)
    return lambda out: ad.fused(np.sum(c * out.data), ((out, c),))


def _check_dense(rng, n_points, eps):
    x, w1, b1, w2, b2 = _tensors(rng, (4, 5), (5, 6), (6,), (6, 3), (3,))
    project = _projection(rng, (4, 3))

    def objective():
        hidden = ad.relu(ad.dense(x, w1, b1))
        return project(ad.dense(hidden, w2, b2))

    return max_relative_error(objective, [x, w1, b1, w2, b2], n_points, eps, seed=11)


def _check_gru(rng, n_points, eps):
    cell = GruCell(4, 5, ad.Parameters(rng), "cell")
    (x,) = _tensors(rng, (12, 4))  # 3 sequences of 4 frames, time-major
    project = _projection(rng, (12, 5))

    def objective():
        return project(ad.gru_sequence(cell, x, 3, 4))

    return max_relative_error(objective, [x] + cell.parameters(), n_points, eps, seed=12)


def _check_gru_packed(rng, n_points, eps):
    """A recurrent model over a right-padded batch: sequences of 3, 2 and 1
    rows, interleaved and out of frame order, packed by ``pack_rows``; the
    model takes its outputs back to row order."""
    spec = ModelSpec(backbone=(5,), recurrent=RecurrentSpec("single", 4), heads=("VA", "EXPR"))
    model = Model(spec, InputDims(features=4), seed=int(rng.integers(1 << 30)))
    features = rng.normal(0.0, 0.7, size=(6, 4))
    keys = sequence_keys(["a", "b", "a", None, "b", "a"], [2, 1, 0, None, 0, 1])
    project = _projection(rng, (6, 2 + NUM_EXPRESSIONS))
    batch = pack_rows(features, keys)

    def objective():
        preds = model.forward(batch)
        return project(ad.concat([preds.va, preds.expr_logits], axis=1))

    return max_relative_error(objective, model.parameters(), n_points, eps, seed=20)


def _check_dropout_off(rng, n_points, eps):
    x, w, b = _tensors(rng, (5, 6), (6, 4), (4,))
    project = _projection(rng, (5, 4))

    def objective():
        return project(ad.dropout(ad.dense(x, w, b), 0.4, train=False))

    return max_relative_error(objective, [x, w, b], n_points, eps, seed=13)


def _check_objective(terms: Sequence[str], seed: int) -> Callable:
    """A check of ``losses.objective`` over 12 rows with only ``terms``
    active, out of ``expr`` (cross-entropy on rows 0-3), ``va``
    (concordance on the VA rows 4-7), ``au`` (masked cross-entropy on rows
    8-11, the rows with mask weight), ``soft`` (soft targets on the AU
    rows, as co-annotation sets them) and ``dm`` (distribution matching on
    every row); only the heads they read are given."""

    def check(rng, n_points, eps):
        n = 12
        heads = {
            name: DiffTensor(rng.normal(0.0, 1.0, size=(n, width)))
            for name, width, readers in (
                ("expr_logits", NUM_EXPRESSIONS, ("expr", "soft", "dm")),
                ("au_logits", NUM_AUS, ("au", "dm")),
                ("va", 2, ("va",)),
            )
            if set(readers) & set(terms)
        }
        labels = BatchLabels.zeros(n)
        labels.expr[:] = rng.integers(0, NUM_EXPRESSIONS, size=n)
        labels.va[:] = rng.normal(0.0, 0.5, size=(n, 2))
        labels.au_targets[:] = rng.integers(0, 2, size=(n, NUM_AUS))
        labels.au_mask[:] = rng.integers(0, 2, size=(n, NUM_AUS))
        labels.au_mask[:, 0] = 1.0  # keep every AU row contributing
        labels.au_mask[:8] = 0.0
        labels.au_mask *= "au" in terms
        raw = rng.random((n, NUM_EXPRESSIONS))
        labels.soft[:] = raw / raw.sum(axis=1, keepdims=True)
        labels.task[:4], labels.task[4:8] = losses.TASKS.index("EXPR"), losses.TASKS.index("VA")
        labels.expr[4 if "expr" in terms else 0:] = -1  # rows 0-3 carry a class,
        labels.soft[:8 if "soft" in terms else n] = 0.0  # and rows 8-11 a soft target
        mixture = COGNITIVE.conditional_matrix() if "dm" in terms else None

        def objective():
            return losses.objective(BatchPredictions(**heads), labels, 0.8, 1.3, mixture)

        return max_relative_error(objective, list(heads.values()), n_points, eps, seed=seed)

    return check


CHECKS: Dict[str, Callable] = {
    "layer.dense": _check_dense,
    "layer.gru": _check_gru,
    "layer.gru_packed": _check_gru_packed,
    "layer.dropout_off": _check_dropout_off,
    "loss.ccc": _check_objective(("va",), seed=14),
    "loss.cce": _check_objective(("expr",), seed=15),
    "loss.masked_bce": _check_objective(("au",), seed=16),
    "loss.soft_target": _check_objective(("soft",), seed=19),
    "loss.distribution_matching": _check_objective(("dm",), seed=18),
    # the whole step objective, every term active
    "loss.multitask": _check_objective(("expr", "va", "au", "soft", "dm"), seed=17),
}


def run_grad_checks(
    names: Optional[Sequence[str]] = None,
    n_points: int = 60,
    eps: float = 1e-5,
    seed: int = 0,
) -> Dict[str, float]:
    """Run the named checks (all by default); returns name -> worst error."""
    if names is None:
        names = list(CHECKS)
    unknown = [n for n in names if n not in CHECKS]
    if unknown:
        raise ConfigError(f"unknown gradient checks: {unknown}")
    if n_points < 1:
        raise ConfigError(f"n_points = {n_points} must be >= 1")
    results: Dict[str, float] = {}
    for name in names:
        rng = np.random.default_rng([seed, sum(name.encode())])
        results[name] = CHECKS[name](rng, n_points, eps)
    return results
