"""Training orchestration: multi-source batching, coupling, logging.

A run loads its datasets, builds the model from the config, then walks
sampler-driven epochs. The training split is read as columns, with no
per-sample objects (one parse serves the validation split too when both
name the same files), and becomes one row table per job: the feature matrix,
every label and co-annotation target as row arrays, and the label-type
pools as row numbers; co-annotation runs over whole pools at once. No
reader supplies audio features, so ``audio_dim > 0`` is a config error
here. Every batch concatenates one chunk from each pool, is gathered from
the table by index and is pushed through the network as a single
sequence, so the concordance term sees the whole valence/arousal chunk at
once. A step's loss is one weighted total of the multi-task terms followed
by the soft-target and distribution-matching terms; its backward sweep
reaches only the optimizer's parameters, so a frozen trunk gets no
gradient. Everything downstream of the seed is deterministic.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from .. import autodiff as ad
from ..autodiff import Adam, backward, load_checkpoint, save_checkpoint
from ..csvfile import atomic_write
from ..errors import ConfigError, DivergedLoss, IncompatibleHeads
from ..losses import (
    BatchLabels,
    LossWeights,
    distribution_matching_loss,
    multitask_terms,
    soft_target_cce,
    weighted_total,
)
from ..models import Model, SequenceBatch, au_probs, expr_probs, load_parameters
from ..relatedness import (
    RelatednessTable,
    coannotate_aus_to_emotion_rows,
    soft_coannotate_rows,
)
from ..sampler import TaskPartition, aligned_batch_sizes, epoch_iterator
from .config import RunConfig
from .dataio import SampleColumns, load_columns, load_splits
from .evaluate import evaluate_model


@dataclass
class TrainResult:
    model: Model
    history: List[Dict[str, float]]
    checkpoint_path: str
    log_path: str
    config: RunConfig


@dataclass
class _TrainTable:
    """The training set as row arrays, built once per job.

    Row i is annotation row i of the training split, in file order.
    ``labels`` holds each row's own label plus the hard or soft
    co-annotation targets, with their flags. The pools are row numbers, in
    file order.
    """

    features: np.ndarray
    labels: BatchLabels
    va_rows: Tuple[int, ...]
    au_rows: Tuple[int, ...]
    expr_rows: Tuple[int, ...]
    compound_rows: Tuple[int, ...]

    def gather(self, rows: Tuple[int, ...]) -> Tuple[SequenceBatch, BatchLabels]:
        """One batch as a (1, N, D) sequence plus its labels."""
        idx = np.asarray(rows)
        labels = self.labels.take(idx)
        # concordance is undefined on a single point; drop a lone VA row
        if labels.has_va.sum() == 1:
            labels.has_va[:] = False
        return SequenceBatch(features=self.features[idx][None]), labels


def _build_table(data: SampleColumns, config: RunConfig, table: RelatednessTable) -> _TrainTable:
    """The row table of a training split; co-annotation by ``table`` runs
    over whole pools at once and writes into ``data.labels``."""
    labels = data.labels
    va, expr, compound = (
        np.flatnonzero(flag) for flag in (labels.has_va, labels.has_expr, labels.has_compound)
    )
    # each row has one label, so every row without a VA, EXPR or COMPOUND
    # flag is an AU row, including those with an all-zero mask
    au = np.flatnonzero(~(labels.has_va | labels.has_expr | labels.has_compound))
    if compound.size and (va.size or au.size or expr.size):
        raise ConfigError(
            "compound and basic-task samples cannot be mixed in one run"
        )
    over = compound[labels.compound[compound] >= config.compound_classes]
    if over.size:
        raise ConfigError(
            f"{data.ids[over[0]]}: compound class id {labels.compound[over[0]]} is not "
            f"below compound_classes = {config.compound_classes}"
        )

    if config.coupling == "coannotation":
        # each emotion implies its table AUs: target 1, mask weight 1 for a
        # prototypical AU and the observational weight otherwise
        weight = table.conditional_matrix(reweight=True)[labels.expr[expr]]
        labels.has_au[expr] = weight.any(axis=1)
        labels.au_targets[expr] = weight > 0
        labels.au_mask[expr] = weight
        implied = coannotate_aus_to_emotion_rows(labels.au_targets[au], labels.au_mask[au], table)
        hit = au[implied >= 0]
        labels.has_expr[hit] = True
        labels.expr[hit] = implied[implied >= 0]
    elif config.coupling in ("soft_coannotation", "soft+distr"):
        _, soft, complete = soft_coannotate_rows(
            labels.au_targets[au], labels.au_mask[au], table, reweight=config.reweight_soft
        )
        # a partially annotated row gets no soft target
        labels.soft[au[complete]] = soft[complete]
        labels.has_soft[au[complete]] = True
    return _TrainTable(
        features=data.features,
        labels=labels,
        va_rows=tuple(va.tolist()),
        au_rows=tuple(au.tolist()),
        expr_rows=tuple(expr.tolist()),
        compound_rows=tuple(compound.tolist()),
    )


def _compound_chunks(rows: Tuple[int, ...], batch: int, seed: int, epoch: int, shuffle: bool):
    order = list(rows)
    if shuffle:
        rng = np.random.default_rng([int(seed), int(epoch)])
        order = [order[i] for i in rng.permutation(len(order))]
    for start in range(0, len(order), batch):
        yield tuple(order[start : start + batch])


def train_run(config: RunConfig) -> TrainResult:
    """Run one full training job; returns the model and its history."""
    config.validate()
    if not config.train_annotations or not config.train_features:
        raise ConfigError("train_annotations and train_features are required")

    if config.audio_dim:
        raise ConfigError(
            f"audio_dim = {config.audio_dim}, but no reader supplies audio features, "
            "so a model with an audio stream cannot be trained; set audio_dim = 0"
        )

    files = (config.train_annotations, config.train_features)
    val_files = (config.val_annotations, config.val_features)
    # validation rows in the training files come from the same parse
    train, *val = load_splits(*files, ("train", "val") if val_files == files else ("train",))
    table = config.relatedness_table()
    data = _build_table(train, config, table)
    if not val and all(val_files):
        val = [load_columns(*val_files, split="val")]
    val_samples = val[0].samples() if val else []

    spec = config.model_spec()
    if data.compound_rows and "COMPOUND" not in spec.heads:
        raise IncompatibleHeads("dataset is compound-labeled but the model has no COMPOUND head")

    model = Model(spec, config.input_dims(), seed=config.seed)
    if config.init_from:
        load_parameters(model, load_checkpoint(config.init_from))

    trainable = model.head_parameters() if config.freeze_trunk else model.parameters()
    opt = Adam(trainable, lr=config.lr)
    weights = LossWeights(lambda1=config.lambda1, lambda2=config.lambda2)
    use_dm = config.coupling in ("distr_matching", "soft+distr")
    dropout_rng = np.random.default_rng([int(config.seed), 7])

    if data.compound_rows:
        partition = None
    else:
        sizes = (len(data.va_rows), len(data.au_rows), len(data.expr_rows))
        batch_sizes = aligned_batch_sizes(sizes, config.total_batch)
        partition = TaskPartition(
            va_ids=data.va_rows,
            au_ids=data.au_rows,
            expr_ids=data.expr_rows,
            batch_sizes=batch_sizes,
        )

    history: List[Dict[str, float]] = []
    for epoch in range(config.epochs):
        if epoch >= config.lr_decay_start:
            opt.lr *= config.lr_decay
        if partition is not None:
            row_batches = (
                b.all_ids()
                for b in epoch_iterator(
                    partition, seed=config.seed, epoch=epoch, shuffle=config.shuffle
                )
            )
        else:
            row_batches = _compound_chunks(
                data.compound_rows, config.total_batch, config.seed, epoch, config.shuffle
            )

        losses: List[float] = []
        for step, batch_rows in enumerate(row_batches):
            if not batch_rows:
                continue
            batch, labels = data.gather(batch_rows)
            preds = model.forward(batch, train=True, rng=dropout_rng)
            terms = multitask_terms(preds, labels, weights)
            soft_rows = np.flatnonzero(labels.has_soft)
            dm = use_dm and preds.au_logits is not None
            if preds.expr_logits is not None and (soft_rows.size or dm):
                probs = expr_probs(preds)
                if soft_rows.size:
                    p = ad.take_rows(probs, soft_rows)
                    terms.append((1.0, soft_target_cce(p, labels.soft[soft_rows])))
                if dm:
                    dm_loss = distribution_matching_loss(
                        probs, au_probs(preds), table, reweight=config.reweight_mixture,
                    )
                    terms.append((1.0, dm_loss))
            loss = weighted_total(terms)
            value = float(loss.data)
            if not math.isfinite(value):
                raise DivergedLoss(f"epoch {epoch} step {step}: loss={value}")
            opt.zero_grad()
            backward(loss, wrt=opt.params)
            opt.step()
            losses.append(value)

        record: Dict[str, float] = {
            "epoch": float(epoch),
            "loss": float(np.mean(losses)) if losses else float("nan"),
            "lr": opt.lr,
        }
        if val_samples:
            metrics, _ = evaluate_model(
                model,
                val_samples,
                au_threshold=config.au_threshold,
                tasks=[t for t in ("VA", "AU", "EXPR", "COMPOUND") if t in model.spec.heads],
            )
            record.update({f"val.{k}": v for k, v in metrics.items()})
        history.append(record)

    os.makedirs(config.out_dir, exist_ok=True)
    checkpoint_path = os.path.join(config.out_dir, "model.ckpt")
    save_checkpoint(checkpoint_path, {
        name: p.data for name, p in model.named_parameters().items()
    })
    config.to_file(os.path.join(config.out_dir, "config.txt"))
    log_path = os.path.join(config.out_dir, "training_log.csv")
    _write_history(log_path, history)
    return TrainResult(
        model=model,
        history=history,
        checkpoint_path=checkpoint_path,
        log_path=log_path,
        config=config,
    )


def _write_history(path: str, history: List[Dict[str, float]]) -> None:
    keys = sorted({k for row in history for k in row} - {"epoch", "loss", "lr"})
    fieldnames = ["epoch", "loss", "lr"] + keys
    with atomic_write(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames, lineterminator="\n")
        writer.writeheader()
        for row in history:
            writer.writerow({k: repr(v) for k, v in row.items()})


def load_model(config: RunConfig, checkpoint_path: str) -> Model:
    """Build the configured architecture straight from a checkpoint's
    arrays, with no initial draws."""
    return Model(
        config.model_spec(), config.input_dims(), seed=config.seed,
        values=load_checkpoint(checkpoint_path),
    )
