"""Training orchestration: multi-source batching, coupling, logging.

A run loads its datasets, builds the model from the config, then walks
sampler-driven epochs. The training set becomes one row table per job:
stacked features, every label and coupling target as row arrays, and the
label-type pools as row numbers. Every batch concatenates one chunk from
each pool, is gathered from the table by index and is pushed through the
network as a single sequence, so the concordance term sees the whole
valence/arousal chunk at once. A step's loss is one weighted total of the
multi-task terms followed by the soft-target and distribution-matching
terms. Everything downstream of the seed is deterministic.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .. import autodiff as ad
from ..autodiff import Adam, backward, load_checkpoint, save_checkpoint
from ..errors import ConfigError, DivergedLoss, IncompatibleHeads, MissingMask
from ..losses import (
    BatchLabels,
    LossWeights,
    distribution_matching_loss,
    label_arrays,
    multitask_terms,
    soft_target_cce,
    weighted_total,
)
from ..models import Model, SequenceBatch, au_probs, expr_probs, load_parameters
from ..relatedness import (
    coannotate_aus_to_emotion,
    coannotate_emotion_to_aus,
    soft_coannotate,
)
from ..sampler import TaskPartition, aligned_batch_sizes, epoch_iterator
from ..types import AnnotatedSample, au_index
from .config import RunConfig
from .dataio import load_dataset, stack_audio
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

    Row i is sample i in file order. ``labels`` holds each row's own label
    plus the hard or soft co-annotation targets, with their flags. The pools
    are row numbers, in file order.
    """

    features: np.ndarray
    audio: Optional[np.ndarray]
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
        batch = SequenceBatch(
            features=self.features[idx][None],
            audio=None if self.audio is None else self.audio[idx][None],
        )
        return batch, labels


def _build_table(samples: List[AnnotatedSample], config: RunConfig) -> _TrainTable:
    seen = set()
    for s in samples:
        if s.id in seen:
            raise ConfigError(f"duplicate sample id {s.id!r}")
        seen.add(s.id)
    audio = stack_audio(samples, config.input_dims().audio)

    labels = label_arrays(samples)
    va, expr, compound = (
        tuple(np.flatnonzero(flag).tolist())
        for flag in (labels.has_va, labels.has_expr, labels.has_compound)
    )
    # each sample has one label, so every row without a VA, EXPR or
    # COMPOUND flag is an AU row, including those with an all-zero mask
    au = tuple(np.flatnonzero(~(labels.has_va | labels.has_expr | labels.has_compound)).tolist())
    if compound and (va or au or expr):
        raise ConfigError(
            "compound and basic-task samples cannot be mixed in one run"
        )
    for r in compound:
        if labels.compound[r] >= config.compound_classes:
            raise ConfigError(
                f"{samples[r].id}: compound class id {labels.compound[r]} is not "
                f"below compound_classes = {config.compound_classes}"
            )

    table = config.relatedness_table()
    if config.coupling == "coannotation":
        for r in expr:
            implied = coannotate_emotion_to_aus(samples[r].label, table)
            if implied:
                labels.has_au[r] = True
                for au_id, target, weight in implied:
                    labels.au_targets[r, au_index(au_id)] = target
                    labels.au_mask[r, au_index(au_id)] = weight
        for r in au:
            implied = coannotate_aus_to_emotion(samples[r].label, table)
            if implied is not None:
                labels.has_expr[r] = True
                labels.expr[r] = implied.class_id
    elif config.coupling in ("soft_coannotation", "soft+distr"):
        for r in au:
            try:
                target = soft_coannotate(
                    samples[r].label, table, reweight=config.reweight_soft
                )
            except MissingMask:
                continue  # partially annotated sample: no soft target
            labels.soft[r] = target.as_array()
            labels.has_soft[r] = True
    return _TrainTable(
        features=np.array([s.features for s in samples]),
        audio=audio,
        labels=labels,
        va_rows=va,
        au_rows=au,
        expr_rows=expr,
        compound_rows=compound,
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

    train_samples = load_dataset(config.train_annotations, config.train_features, split="train")
    val_samples: List[AnnotatedSample] = []
    if config.val_annotations and config.val_features:
        val_samples = load_dataset(config.val_annotations, config.val_features, split="val")

    data = _build_table(train_samples, config)
    spec = config.model_spec()
    if data.compound_rows and "COMPOUND" not in spec.heads:
        raise IncompatibleHeads("dataset is compound-labeled but the model has no COMPOUND head")

    model = Model(spec, config.input_dims(), seed=config.seed)
    if config.init_from:
        load_parameters(model, load_checkpoint(config.init_from), strict=False)

    trainable = model.head_parameters() if config.freeze_trunk else model.parameters()
    opt = Adam(trainable, lr=config.lr)
    weights = LossWeights(lambda1=config.lambda1, lambda2=config.lambda2)
    table = config.relatedness_table()
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
            backward(loss)
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
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames, lineterminator="\n")
        writer.writeheader()
        for row in history:
            writer.writerow({k: repr(v) for k, v in row.items()})


def load_model(config: RunConfig, checkpoint_path: str) -> Model:
    """Rebuild the configured architecture and load trained parameters."""
    model = Model(config.model_spec(), config.input_dims(), seed=config.seed)
    load_parameters(model, load_checkpoint(checkpoint_path), strict=True)
    return model
