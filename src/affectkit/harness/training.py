"""Training orchestration: multi-source batching, coupling, logging.

A run loads its datasets, builds the model from the config, then walks
sampler-driven epochs. Every batch concatenates one chunk from each
label-type pool and is pushed through the network as a single sequence,
so the concordance term sees the whole valence/arousal chunk at once.
Everything downstream of the seed is deterministic.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .. import autodiff as ad
from ..autodiff import Adam, DiffTensor, backward, load_checkpoint, save_checkpoint
from ..errors import ConfigError, DivergedLoss, IncompatibleHeads, MissingMask
from ..losses import (
    BatchLabels,
    LossWeights,
    distribution_matching_loss,
    multitask_loss,
    soft_target_cce,
)
from ..models import Model, SequenceBatch, au_probs, expr_probs, load_parameters
from ..relatedness import (
    coannotate_aus_to_emotion,
    coannotate_emotion_to_aus,
    soft_coannotate,
)
from ..sampler import TaskPartition, aligned_batch_sizes, epoch_iterator
from ..types import AU_IDS, NUM_AUS, AnnotatedSample
from .config import RunConfig
from .dataio import load_dataset
from .evaluate import evaluate_model

_AU_COL = {au: i for i, au in enumerate(AU_IDS)}


@dataclass
class TrainResult:
    model: Model
    history: List[Dict[str, float]]
    checkpoint_path: str
    log_path: str
    config: RunConfig


def _load_split(annotations_path: str, features_path: str, split: str) -> List[AnnotatedSample]:
    """Samples whose split matches; if none are tagged with it, take all."""
    samples = load_dataset(annotations_path, features_path)
    matching = [s for s in samples if s.split == split]
    return matching if matching else samples


@dataclass
class _Pools:
    """Per-label-type sample pools plus precomputed coupling targets."""

    by_id: Dict[str, AnnotatedSample]
    va_ids: Tuple[str, ...]
    au_ids: Tuple[str, ...]
    expr_ids: Tuple[str, ...]
    compound_ids: Tuple[str, ...]
    # hard co-annotation: extra labels planted before training starts
    extra_au: Dict[str, Tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
    extra_expr: Dict[str, int] = field(default_factory=dict)
    # soft co-annotation: per-AU-sample emotion distributions
    soft_expr: Dict[str, np.ndarray] = field(default_factory=dict)


def _build_pools(samples: List[AnnotatedSample], config: RunConfig) -> _Pools:
    by_id = {}
    va, au, expr, compound = [], [], [], []
    for s in samples:
        if s.id in by_id:
            raise ConfigError(f"duplicate sample id {s.id!r}")
        by_id[s.id] = s
        {"VA": va, "AU": au, "EXPR": expr, "COMPOUND": compound}[s.task].append(s.id)
    pools = _Pools(
        by_id=by_id,
        va_ids=tuple(va),
        au_ids=tuple(au),
        expr_ids=tuple(expr),
        compound_ids=tuple(compound),
    )
    if pools.compound_ids and (va or au or expr):
        raise ConfigError(
            "compound and basic-task samples cannot be mixed in one run"
        )

    table = config.relatedness_table()
    if config.coupling == "coannotation":
        for sid in pools.expr_ids:
            label = by_id[sid].label
            implied = coannotate_emotion_to_aus(label, table)
            if implied:
                targets = np.zeros(NUM_AUS)
                weightv = np.zeros(NUM_AUS)
                for au_id, target, weight in implied:
                    targets[_AU_COL[au_id]] = target
                    weightv[_AU_COL[au_id]] = weight
                pools.extra_au[sid] = (targets, weightv)
        for sid in pools.au_ids:
            implied = coannotate_aus_to_emotion(by_id[sid].label, table)
            if implied is not None:
                pools.extra_expr[sid] = implied.class_id
    elif config.coupling in ("soft_coannotation", "soft+distr"):
        for sid in pools.au_ids:
            try:
                soft = soft_coannotate(
                    by_id[sid].label, table, reweight=config.reweight_soft
                )
            except MissingMask:
                continue  # partially annotated sample: no soft target
            pools.soft_expr[sid] = soft.as_array()
    return pools


def _assemble_batch(
    ids: Tuple[str, ...], pools: _Pools, config: RunConfig
) -> Tuple[SequenceBatch, BatchLabels, Dict[str, np.ndarray], List[int]]:
    """Pack one iteration's ids into a (1, N, D) sequence plus labels.

    Returns the batch, the labels, the availability flags, and the row
    indices that carry a precomputed soft emotion target.
    """
    n = len(ids)
    dims = config.input_dims()
    feats = np.zeros((n, dims.features))
    audio = np.zeros((n, dims.audio)) if dims.audio else None
    has = {k: np.zeros(n) for k in ("expr", "au", "va", "compound")}
    expr_ids = np.zeros(n, dtype=np.int64)
    au_targets = np.zeros((n, NUM_AUS))
    au_mask = np.zeros((n, NUM_AUS))
    va = np.zeros((n, 2))
    compound_ids = np.zeros(n, dtype=np.int64)
    soft_rows: List[int] = []

    for row, sid in enumerate(ids):
        sample = pools.by_id[sid]
        feats[row] = sample.features
        if audio is not None:
            if sample.audio_features is None:
                raise ConfigError(f"{sid}: audio_dim set but sample has no audio")
            audio[row] = sample.audio_features
        label = sample.label
        if sample.task == "VA":
            has["va"][row] = 1.0
            va[row] = (label.valence, label.arousal)
        elif sample.task == "EXPR":
            has["expr"][row] = 1.0
            expr_ids[row] = label.class_id
            if sid in pools.extra_au:
                has["au"][row] = 1.0
                au_targets[row], au_mask[row] = pools.extra_au[sid]
        elif sample.task == "AU":
            if label.mask.sum() > 0:
                has["au"][row] = 1.0
                au_targets[row] = label.values
                au_mask[row] = label.mask
            if sid in pools.extra_expr:
                has["expr"][row] = 1.0
                expr_ids[row] = pools.extra_expr[sid]
            if sid in pools.soft_expr:
                soft_rows.append(row)
        else:
            has["compound"][row] = 1.0
            compound_ids[row] = label.class_id

    # concordance is undefined on a single point; drop a lone VA row
    if 0 < has["va"].sum() < 2:
        has["va"][:] = 0.0

    batch = SequenceBatch(
        features=feats[None],
        audio=None if audio is None else audio[None],
    )
    labels = BatchLabels(
        expr=expr_ids,
        au_targets=au_targets,
        au_mask=au_mask,
        va=va,
        compound=compound_ids,
    )
    return batch, labels, has, soft_rows


def _compound_chunks(ids: Tuple[str, ...], batch: int, seed: int, epoch: int, shuffle: bool):
    order = list(ids)
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

    train_samples = _load_split(config.train_annotations, config.train_features, "train")
    val_samples: List[AnnotatedSample] = []
    if config.val_annotations and config.val_features:
        val_samples = _load_split(config.val_annotations, config.val_features, "val")

    pools = _build_pools(train_samples, config)
    spec = config.model_spec()
    if pools.compound_ids and "COMPOUND" not in spec.heads:
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

    if pools.compound_ids:
        partition = None
    else:
        sizes = (len(pools.va_ids), len(pools.au_ids), len(pools.expr_ids))
        batch_sizes = aligned_batch_sizes(sizes, config.total_batch)
        partition = TaskPartition(
            va_ids=pools.va_ids,
            au_ids=pools.au_ids,
            expr_ids=pools.expr_ids,
            batch_sizes=batch_sizes,
        )

    history: List[Dict[str, float]] = []
    for epoch in range(config.epochs):
        if epoch >= config.lr_decay_start:
            opt.lr *= config.lr_decay
        if partition is not None:
            id_batches = (
                b.all_ids()
                for b in epoch_iterator(
                    partition, seed=config.seed, epoch=epoch, shuffle=config.shuffle
                )
            )
        else:
            id_batches = _compound_chunks(
                pools.compound_ids, config.total_batch, config.seed, epoch, config.shuffle
            )

        losses: List[float] = []
        for step, ids in enumerate(id_batches):
            if not ids:
                continue
            batch, labels, has, soft_rows = _assemble_batch(ids, pools, config)
            preds = model.forward(batch, train=True, rng=dropout_rng)
            preds.has_expr = has["expr"]
            preds.has_au = has["au"]
            preds.has_va = has["va"]
            preds.has_compound = has["compound"]
            loss = multitask_loss(preds, labels, weights)
            dm = use_dm and preds.au_logits is not None
            if preds.expr_logits is not None and (soft_rows or dm):
                probs = expr_probs(preds)
                if soft_rows:
                    soft = np.stack([pools.soft_expr[ids[r]] for r in soft_rows])
                    p = ad.take_rows(probs, np.asarray(soft_rows))
                    loss = loss + soft_target_cce(p, soft)
                if dm:
                    loss = loss + distribution_matching_loss(
                        probs, au_probs(preds), table, reweight=config.reweight_mixture,
                    )
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
