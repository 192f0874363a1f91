"""Checkpoint evaluation: per-task metrics plus a predictions table.

The split is the ``SampleColumns`` that ``dataio.load_dataset`` returns,
scored as it is read: its features go through the model as one matrix and
its labels are read from their columns, so no row becomes an object before
its prediction record. The rows go through the model in chunks of up to
``chunk`` rows, each packed by ``pack_rows`` and read by ``models.outputs``:
for a stateful model in sequence order by the split's
``SampleColumns.keys``, made once per split, whole sequences to a chunk (a
longer one alone); else in file order, every row alone. The predictions
come back in file order. Metrics are computed per task over the rows of
that task (``BatchLabels.task``); every row gets a prediction row for each
head the model has.
"""

from __future__ import annotations

import warnings
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigError, DegenerateInputWarning, IncompatibleHeads
from ..losses import TASKS
from ..metrics import (
    accuracy,
    binarize,
    ccc,
    confusion_matrix,
    e_total_au,
    e_total_expr,
    f1_binary,
    macro_f1,
    mean_diagonal,
    mse,
)
from ..models import Model, outputs, pack_rows
from ..types import NUM_EXPRESSIONS, PredictionRecord
from .dataio import SampleColumns


def _chunks(
    keys: Optional[np.ndarray], n: int, chunk: int
) -> Tuple[np.ndarray, List[int]]:
    """The rows in sequence order (without keys, row order), and the bounds
    of chunks of whole sequences of up to ``chunk`` rows over that order."""
    if keys is None:
        return np.arange(n), list(range(0, n, chunk)) + [n]
    order = np.lexsort((keys[:, 1], keys[:, 0]))  # a sequence's code is its first row
    starts = np.flatnonzero(np.diff(keys[order, 0], prepend=-1)).tolist() + [n]
    bounds = [0]
    for start, stop in zip(starts, starts[1:]):
        if stop - bounds[-1] > chunk and start > bounds[-1]:
            bounds.append(start)
    return order, bounds + [n]


def _forward_all(
    model: Model,
    features: np.ndarray,
    keys: Optional[np.ndarray],
    chunk: int,
) -> Dict[str, Optional[np.ndarray]]:
    """Run the rows through the model; returns its ``outputs`` in row order."""
    outs: Dict[str, List[np.ndarray]] = {"va": [], "expr": [], "au": [], "compound": []}
    order, bounds = _chunks(keys, len(features), chunk)
    for start, stop in zip(bounds, bounds[1:]):
        rows = order[start:stop]
        batch = pack_rows(features[rows], None if keys is None else keys[rows])
        for k, v in outputs(model.forward(batch, train=False)).items():
            if v is not None:
                outs[k].append(v)
    back = np.argsort(order)  # to row order
    return {k: (np.concatenate(v)[back] if v else None) for k, v in outs.items()}


def evaluate_model(
    model: Model,
    data: SampleColumns,
    au_threshold: float = 0.5,
    tasks: Optional[Sequence[str]] = None,
    chunk: int = 512,
) -> Tuple[Dict[str, float], List[PredictionRecord]]:
    """Score the model on every task present (or the requested subset).

    ``data`` is a split with its features attached (see
    ``dataio.load_dataset``), read as it is. It carries no audio, so a
    model with an audio stream raises ConfigError, as does a scored
    compound class id that the head lacks. A stateful model packs the rows
    by the split's ``SampleColumns.keys``, made on their first use and kept.
    Returns a flat metric dict and one prediction record per row.
    ``degenerate_count`` reports how many metric computations hit a flagged
    0/0 convention. Raises IncompatibleHeads when a requested (or present)
    task has no matching model head.
    """
    if model.dims.audio and data.ids:
        raise ConfigError(f"{data.ids[0]}: audio_dim set but sample has no audio")
    labels = data.labels
    present = {TASKS[k] for k in np.unique(labels.task).tolist()}
    wanted = set(tasks) if tasks is not None else present
    for task in sorted(wanted):
        if task not in TASKS:
            raise IncompatibleHeads(f"unknown task {task!r}")
        if task not in model.spec.heads:
            raise IncompatibleHeads(f"task {task} needs a {task} head")
    if "COMPOUND" in wanted:
        data.check_compound_classes(model.spec.compound_classes)

    keys = data.keys if model.spec.stateful else None
    rows = _forward_all(model, data.features, keys, chunk)
    none = [None] * len(data.ids)
    valence, arousal = (none, none) if rows["va"] is None else rows["va"].T.tolist()
    expr = none if rows["expr"] is None else rows["expr"]
    au = none if rows["au"] is None else rows["au"]
    records = [
        PredictionRecord(
            id=i, frame_index=f, valence=v, arousal=a, expr_probs=e, au_probs=p,
        )
        for i, f, v, a, e, p in zip(data.ids, data.frame_index, valence, arousal, expr, au)
    ]

    metrics: Dict[str, float] = {}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", DegenerateInputWarning)

        of_task = {name: np.flatnonzero(labels.task == k) for k, name in enumerate(TASKS)}
        idx = of_task["VA"]
        if "VA" in wanted and len(idx) >= 2:
            pred = rows["va"][idx]
            truth = labels.va[idx]
            metrics["va.ccc_v"] = ccc(pred[:, 0], truth[:, 0])
            metrics["va.ccc_a"] = ccc(pred[:, 1], truth[:, 1])
            metrics["va.mse_v"] = mse(pred[:, 0], truth[:, 0])
            metrics["va.mse_a"] = mse(pred[:, 1], truth[:, 1])

        idx = of_task["EXPR"]
        if "EXPR" in wanted and idx.size:
            pred = rows["expr"][idx].argmax(axis=1)
            truth = labels.expr[idx]
            metrics["expr.accuracy"] = accuracy(pred, truth)
            metrics["expr.f1"] = macro_f1(pred, truth, NUM_EXPRESSIONS)
            metrics["expr.mean_diagonal"] = mean_diagonal(
                confusion_matrix(pred, truth, NUM_EXPRESSIONS)
            )
            metrics["expr.e_total"] = e_total_expr(
                metrics["expr.f1"], metrics["expr.accuracy"]
            )

        idx = of_task["AU"]
        if "AU" in wanted and idx.size:
            pred = binarize(rows["au"][idx], au_threshold)
            truth = labels.au_targets[idx]
            mask = labels.au_mask[idx]
            f1s, accs = [], []
            for col in range(truth.shape[1]):
                keep = mask[:, col] == 1
                if not keep.any():
                    continue
                f1s.append(f1_binary(pred[keep, col], truth[keep, col]))
                accs.append(accuracy(pred[keep, col], truth[keep, col]))
            if f1s:
                metrics["au.macro_f1"] = float(np.mean(f1s))
                metrics["au.total_acc"] = float(np.mean(accs))
                metrics["au.afa"] = 0.5 * (metrics["au.macro_f1"] + metrics["au.total_acc"])
                metrics["au.e_total"] = e_total_au(
                    metrics["au.macro_f1"], metrics["au.total_acc"]
                )

        idx = of_task["COMPOUND"]
        if "COMPOUND" in wanted and idx.size:
            pred = rows["compound"][idx].argmax(axis=1)
            truth = labels.compound[idx]
            metrics["compound.accuracy"] = accuracy(pred, truth)
            metrics["compound.f1"] = macro_f1(
                pred, truth, model.spec.compound_classes
            )
            metrics["compound.mean_diagonal"] = mean_diagonal(
                confusion_matrix(pred, truth, model.spec.compound_classes)
            )

    metrics["degenerate_count"] = float(
        sum(1 for w in caught if issubclass(w.category, DegenerateInputWarning))
    )
    return metrics, records
