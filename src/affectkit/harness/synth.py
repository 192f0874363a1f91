"""Synthetic affect data with a controllable emotion/AU coupling strength.

Each sample draws a latent basic-emotion index. Features embed the latent
index as a noisy one-hot pattern so every task is learnable from the same
input. AU patterns follow the relatedness table for the latent emotion
and agree with it with probability ``kappa`` per unit; valence/arousal
are drawn around fixed per-emotion means. The three annotation pools are
disjoint over samples, mirroring corpora that each cover one task.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..errors import ConfigError
from ..relatedness import BUILTIN_TABLES, RelatednessTable
from ..types import (
    AU_IDS,
    EXPRESSION_NAMES,
    AnnotatedSample,
    AUVector,
    ExpressionLabel,
    ValenceArousal,
    au_index,
)
from .dataio import write_annotations, write_features

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
        if self.feature_dim < len(EXPRESSION_NAMES):
            raise ConfigError(
                f"feature_dim={self.feature_dim} cannot embed "
                f"{len(EXPRESSION_NAMES)} emotion prototypes"
            )
        if not 0.0 <= self.kappa <= 1.0:
            raise ConfigError(f"kappa={self.kappa} outside [0,1]")
        if self.sigma < 0.0:
            raise ConfigError(f"sigma={self.sigma} is negative")
        if self.table not in BUILTIN_TABLES:
            raise ConfigError(f"table={self.table!r}")


def _au_pattern(latent: int, table: RelatednessTable, kappa: float, rng) -> np.ndarray:
    """Sample a 17-dim binary AU pattern for one latent emotion."""
    pattern = np.zeros(len(AU_IDS), dtype=np.int64)
    row = table.row(latent)
    if row is not None:  # neutral has no associated units
        for au, weight in row.weighted_aus():
            if rng.random() < weight:
                pattern[au_index(au)] = 1
    flip = rng.random(len(AU_IDS)) < (1.0 - kappa)
    pattern[flip] = 1 - pattern[flip]
    return pattern


def _make_samples(
    spec: SyntheticSpec, split: str, counts: Tuple[int, int, int], rng
) -> List[AnnotatedSample]:
    table = BUILTIN_TABLES[spec.table]
    samples: List[AnnotatedSample] = []
    n_va, n_au, n_expr = counts
    for task, count in (("VA", n_va), ("AU", n_au), ("EXPR", n_expr)):
        for i in range(count):
            latent = int(rng.integers(0, len(EXPRESSION_NAMES)))
            features = rng.normal(0.0, spec.sigma, size=spec.feature_dim)
            features[latent] += 1.0
            if task == "VA":
                va = VA_MEANS[latent] + rng.normal(0.0, spec.sigma, size=2)
                label = ValenceArousal(
                    valence=float(np.clip(va[0], -1.0, 1.0)),
                    arousal=float(np.clip(va[1], -1.0, 1.0)),
                )
            elif task == "AU":
                pattern = _au_pattern(latent, table, spec.kappa, rng)
                label = AUVector(values=pattern)
            else:
                label = ExpressionLabel(class_id=latent)
            samples.append(
                AnnotatedSample(
                    id=f"{split}-{task.lower()}-{i:05d}",
                    split=split,
                    features=features,
                    label=label,
                )
            )
    return samples


def make_dataset(
    spec: SyntheticSpec, seed: int
) -> Tuple[List[AnnotatedSample], List[AnnotatedSample]]:
    """Build (train, val) sample lists. Same spec and seed, same data."""
    rng = np.random.default_rng([seed])
    train = _make_samples(spec, "train", spec.train_counts, rng)
    val = _make_samples(spec, "val", spec.val_counts, rng)
    return train, val


def generate_dataset(spec: SyntheticSpec, seed: int, out_dir: str) -> Tuple[str, str]:
    """Write features.csv and annotations.csv under out_dir; return their paths."""
    train, val = make_dataset(spec, seed)
    os.makedirs(out_dir, exist_ok=True)
    features_path = os.path.join(out_dir, "features.csv")
    annotations_path = os.path.join(out_dir, "annotations.csv")
    write_features(features_path, train + val)
    write_annotations(annotations_path, train + val)
    return features_path, annotations_path
