"""Training orchestration: multi-source batching, coupling, logging.

A run loads its datasets, builds the model from the config, then walks
sampler-driven epochs. Each split is the ``SampleColumns`` that
``dataio.load_dataset`` returns; when the validation split names the
training files, ``dataio.load_splits`` reads both from one parse. The
training split is the job's only row store: co-annotation writes
classes into its ``expr`` and targets into its ``soft`` and AU labels over
whole pools at once, and the task pools are int arrays of its row
numbers, split by ``BatchLabels.task``. No reader supplies audio or
landmark features, so ``audio_dim > 0`` and ``landmark_concat = true``
are config errors here, raised before any read.
One ``sampler.epoch_iterator`` yields every batch: over the VA, AU and EXPR
pools, one chunk of each, or over the one pool of a compound run; each
batch is gathered from the split by index. For a recurrent model its rows
are packed by the split's ``SampleColumns.keys`` (``models.pack_rows``):
the rows of one sequence id run as one sequence in frame order, and every
other row alone; the model hands the outputs back in batch order, so each
loss term sees the whole chunk of its task at once. Training draws rows,
not windows, so a shuffled batch holds fragments of a sequence. A step's
loss is one ``losses.objective`` node: the multi-task terms followed by
the soft-target and distribution-matching terms, from one softmax and one
sigmoid; its backward sweep reaches only the optimizer's parameters, so a
frozen trunk gets no gradient. The relatedness mixture is made once per
job, and packing keys once per split. Everything downstream of the seed
is deterministic.

``TrainResult.phase_s`` holds the job's seconds in each of ``PHASES``:
``sampler`` is the epoch iterator's ``next``, ``loss`` also reads the
value and checks it, and ``adam`` is ``zero_grad`` plus ``step``. No
timing reaches the history, the log, ``config.txt`` or the checkpoint.
"""

from __future__ import annotations

import csv
import math
import os
import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from ..autodiff import Adam, backward, load_checkpoint, save_checkpoint
from ..csvfile import atomic_write
from ..errors import ConfigError, DivergedLoss, IncompatibleHeads
from ..losses import TASKS, BatchLabels, objective
from ..models import Model, SequenceBatch, load_parameters, pack_rows
from ..relatedness import (
    RelatednessTable,
    coannotate_aus_to_emotion_rows,
    soft_coannotate_rows,
)
from ..sampler import aligned_batch_sizes, epoch_iterator
from .config import RunConfig
from .dataio import SampleColumns, load_dataset, load_splits
from .evaluate import evaluate_model


@dataclass
class TrainResult:
    model: Model
    history: List[Dict[str, float]]
    checkpoint_path: str
    log_path: str
    config: RunConfig
    phase_s: Dict[str, float]
    steps: int


PHASES = ("sampler", "gather", "forward", "loss", "backward", "adam")


class _PhaseClock:
    """A call adds the time since the last call, or ``restart``, to a phase."""

    def __init__(self) -> None:
        self.spent = dict.fromkeys(PHASES, 0.0)
        self.restart()

    def restart(self) -> None:
        self._last = time.perf_counter()

    def __call__(self, phase: str) -> None:
        now = time.perf_counter()
        self.spent[phase] += now - self._last
        self._last = now


def _gather(
    data: SampleColumns, rows: np.ndarray, stateful: bool
) -> Tuple[SequenceBatch, BatchLabels]:
    """One batch of the split's rows, packed by sequence for a stateful
    model, whose outputs come back in the order of ``rows`` (see
    ``pack_rows``); and its labels."""
    keys = data.keys if stateful else None
    labels = data.labels.take(rows)
    return pack_rows(data.features[rows], None if keys is None else keys[rows]), labels


def _build_table(
    data: SampleColumns, config: RunConfig, table: RelatednessTable
) -> Tuple[np.ndarray, ...]:
    """The task pools of a training split, each an int array of row numbers
    in file order: ``(compound,)`` for a compound run, else ``(va, au,
    expr)``. Co-annotation by ``table`` runs over whole pools at once and
    writes into ``data.labels``."""
    labels = data.labels
    au, va, expr, compound = (np.flatnonzero(labels.task == k) for k in range(len(TASKS)))
    if compound.size and (va.size or au.size or expr.size):
        raise ConfigError(
            "compound and basic-task samples cannot be mixed in one run"
        )
    data.check_compound_classes(config.compound_classes)

    if config.coupling == "coannotation":
        # each emotion implies its table AUs: target 1, mask weight 1 for a
        # prototypical AU and the observational weight otherwise
        weight = table.conditional_matrix(reweight=True)[labels.expr[expr]]
        labels.au_targets[expr] = weight > 0
        labels.au_mask[expr] = weight
        implied = coannotate_aus_to_emotion_rows(labels.au_targets[au], labels.au_mask[au], table)
        labels.expr[au] = implied
    elif config.coupling in ("soft_coannotation", "soft+distr"):
        _, soft, complete = soft_coannotate_rows(
            labels.au_targets[au], labels.au_mask[au], table, reweight=config.reweight_soft
        )
        # a partially annotated row gets no soft target
        labels.soft[au[complete]] = soft[complete]
    return (compound,) if compound.size else (va, au, expr)


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
    if config.landmark_concat:
        raise ConfigError(
            "landmark_concat = true, but no reader supplies landmark features, "
            "so such a model cannot be trained; set landmark_concat = false"
        )

    files = (config.train_annotations, config.train_features)
    val_files = (config.val_annotations, config.val_features)
    # validation rows in the training files come from the same parse
    train, *val = (
        load_splits(*files, ("train", "val")) if val_files == files
        else [load_dataset(*files, split="train")]
    )
    table = config.relatedness_table()
    pools = _build_table(train, config, table)
    if not val and all(val_files):
        val = [load_dataset(*val_files, split="val")]
    for split, path in zip([train, *val], (config.train_features, config.val_features)):
        split.check_feature_dim(config.feature_dim, path)

    spec = config.model_spec()
    if len(pools) == 1 and "COMPOUND" not in spec.heads:
        raise IncompatibleHeads("dataset is compound-labeled but the model has no COMPOUND head")

    model = Model(spec, config.input_dims(), seed=config.seed)
    if config.init_from:
        load_parameters(model, load_checkpoint(config.init_from))

    trainable = model.head_parameters() if config.freeze_trunk else model.parameters()
    opt = Adam(trainable, lr=config.lr)
    mixture = (
        table.conditional_matrix(reweight=config.reweight_mixture)
        if config.coupling in ("distr_matching", "soft+distr") else None
    )
    dropout_rng = np.random.default_rng([int(config.seed), 7])

    # a compound run walks one pool, shuffled by the key (seed, epoch); a
    # basic-task run walks three, pool k shuffled by (seed, epoch, k)
    key_tails = [()] if len(pools) == 1 else [(0,), (1,), (2,)]
    batch_sizes = aligned_batch_sizes([len(p) for p in pools], config.total_batch)

    history: List[Dict[str, float]] = []
    lap, steps = _PhaseClock(), 0
    for epoch in range(config.epochs):
        if epoch >= config.lr_decay_start:
            opt.lr *= config.lr_decay
        rngs = [
            np.random.default_rng([config.seed, epoch, *tail]) if config.shuffle else None
            for tail in key_tails
        ]

        losses: List[float] = []
        lap.restart()
        for step, rows in enumerate(epoch_iterator(pools, batch_sizes, rngs)):
            lap("sampler")
            batch, labels = _gather(train, rows, spec.stateful)
            lap("gather")
            preds = model.forward(batch, train=True, rng=dropout_rng)
            lap("forward")
            loss = objective(preds, labels, config.lambda1, config.lambda2, mixture)
            value = float(loss.data)
            if not math.isfinite(value):
                raise DivergedLoss(f"epoch {epoch} step {step}: loss={value}")
            lap("loss")
            opt.zero_grad()
            lap("adam")
            backward(loss, wrt=opt.params)
            lap("backward")
            opt.step()
            losses.append(value)
            lap("adam")
        lap("sampler")
        steps += len(losses)

        record: Dict[str, float] = {
            "epoch": float(epoch),
            "loss": float(np.mean(losses)) if losses else float("nan"),
            "lr": opt.lr,
        }
        if val:
            metrics, _ = evaluate_model(
                model,
                val[0],
                au_threshold=config.au_threshold,
                tasks=[t for t in TASKS if t in model.spec.heads],
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
        phase_s=lap.spent,
        steps=steps,
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
