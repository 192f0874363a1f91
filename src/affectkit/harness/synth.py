"""Synthetic affect data with a controllable emotion/AU coupling strength.

Each sample draws a latent basic-emotion index. Features embed the latent
index as a noisy one-hot pattern so every task is learnable from the same
input. AU patterns follow the relatedness table for the latent emotion
and agree with it with probability ``kappa`` per unit; valence/arousal
are drawn around fixed per-emotion means. The three annotation pools are
disjoint over samples, mirroring corpora that each cover one task.

Rows are drawn one at a time, in a fixed order of random draws, straight
into the columns of one ``SampleColumns``: a ``BatchLabels`` with each
row's task and label, and an (N, D) feature matrix. ``generate_dataset`` writes them
with the column writers of ``dataio``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..csvfile import atomic_replace
from ..errors import ConfigError
from ..losses import TASKS, BatchLabels
from ..relatedness import BUILTIN_TABLES, WeightedAUs
from ..types import AU_IDS, EXPRESSION_NAMES, au_index
from .dataio import SampleColumns, write_annotations, write_features

# Fixed valence/arousal means per basic emotion, index-aligned with
# EXPRESSION_NAMES (neutral, anger, disgust, fear, happiness, sadness,
# surprise).
VA_MEANS = np.array(
    [
        [0.0, 0.0],
        [-0.7, 0.7],
        [-0.6, 0.35],
        [-0.6, 0.8],
        [0.8, 0.5],
        [-0.7, -0.5],
        [0.25, 0.8],
    ]
)

@dataclass(frozen=True)
class SyntheticSpec:
    """Counts are (va, au, expr) pools per split."""

    train_counts: Tuple[int, int, int] = (600, 600, 600)
    val_counts: Tuple[int, int, int] = (200, 200, 200)
    feature_dim: int = 16
    sigma: float = 0.2
    kappa: float = 0.9
    table: str = "cognitive"

    def __post_init__(self):
        counts = (*self.train_counts, *self.val_counts)
        if min(counts) < 0 or not any(counts):
            raise ConfigError(f"train_counts={self.train_counts}, val_counts={self.val_counts}: "
                              "counts must be >= 0 and not all zero")
        if self.feature_dim < len(EXPRESSION_NAMES):
            raise ConfigError(
                f"feature_dim={self.feature_dim} cannot embed "
                f"{len(EXPRESSION_NAMES)} emotion prototypes"
            )
        if not 0.0 <= self.kappa <= 1.0:
            raise ConfigError(f"kappa={self.kappa} outside [0,1]")
        if not (math.isfinite(self.sigma) and self.sigma >= 0.0):
            raise ConfigError(f"sigma={self.sigma} must be finite and >= 0")
        if self.table not in BUILTIN_TABLES:
            raise ConfigError(f"table={self.table!r}")


def _au_pattern(aus: WeightedAUs, kappa: float, rng) -> np.ndarray:
    """Sample a 17-dim binary AU pattern from one emotion's weighted AUs."""
    pattern = np.zeros(len(AU_IDS), dtype=np.int64)
    for au, weight in aus:
        if rng.random() < weight:
            pattern[au_index(au)] = 1
    flip = rng.random(len(AU_IDS)) < (1.0 - kappa)
    pattern[flip] = 1 - pattern[flip]
    return pattern


def make_dataset(spec: SyntheticSpec, seed: int) -> SampleColumns:
    """The train rows, then the val rows, as columns with their features
    attached; each split holds its VA, then AU, then EXPR pool. Same spec
    and seed, same data."""
    rng = np.random.default_rng([seed])
    au_lists = dict(BUILTIN_TABLES[spec.table].rows)  # neutral has none
    tasks = [
        (split, task, i)
        for split, counts in (("train", spec.train_counts), ("val", spec.val_counts))
        for task, count in zip(("va", "au", "expr"), counts)
        for i in range(count)
    ]
    labels = BatchLabels.zeros(len(tasks))
    labels.task[:] = [TASKS.index(task.upper()) for _, task, _ in tasks]
    features = np.empty((len(tasks), spec.feature_dim))
    for r, (_, task, _) in enumerate(tasks):
        latent = int(rng.integers(0, len(EXPRESSION_NAMES)))
        features[r] = rng.normal(0.0, spec.sigma, size=spec.feature_dim)
        features[r, latent] += 1.0
        if task == "va":
            va = VA_MEANS[latent] + rng.normal(0.0, spec.sigma, size=2)
            labels.va[r] = np.clip(va, -1.0, 1.0)
        elif task == "au":
            labels.au_targets[r] = _au_pattern(au_lists.get(latent, ()), spec.kappa, rng)
            labels.au_mask[r] = 1.0
        else:
            labels.expr[r] = latent
    n = len(tasks)
    return SampleColumns(
        [f"{split}-{task}-{i:05d}" for split, task, i in tasks],
        [split for split, _, _ in tasks],
        [None] * n, [None] * n, [None] * n,
        labels, np.zeros((n, 2), dtype=np.int64), features,
    )


def generate_dataset(spec: SyntheticSpec, seed: int, out_dir: str) -> Tuple[str, str]:
    """Write features.csv and annotations.csv under out_dir as a pair: if
    either write fails, both files keep their old bytes. Returns their
    paths."""
    data = make_dataset(spec, seed)
    os.makedirs(out_dir, exist_ok=True)
    features_path = os.path.join(out_dir, "features.csv")
    annotations_path = os.path.join(out_dir, "annotations.csv")
    with atomic_replace(features_path, annotations_path) as (features_tmp, annotations_tmp):
        write_features(features_tmp, data.ids, data.features)
        write_annotations(annotations_tmp, data)
    return features_path, annotations_path
