"""Ensemble combination and temporal post-processing of VA predictions.

Decision-level fusion averages member predictions weighted by each
member's validation concordance, per dimension. Model-level fusion is not
here: ``RunConfig.model_spec`` builds the composite spec whose member
trunks feed one shared fusion stage, trained end-to-end. The temporal tools
(median filter, exponential smoothing) operate on plain series and are
kept only when they help validation scores; that gating lives in the
harness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from .csvfile import open_rows
from .errors import (
    BadAlpha,
    ConfigError,
    EvenWindow,
    KeyMisalignment,
    NegativeWeight,
    ValueOutOfRange,
    ZeroWeightSum,
)


@dataclass(frozen=True)
class EnsembleMember:
    """One trained model's per-frame VA predictions plus the validation
    concordances that serve as its fusion weights."""

    member_id: str
    val_ccc_v: float
    val_ccc_a: float
    predictions: Mapping  # frame key -> (valence, arousal)


def decision_level_fuse(members: Sequence[EnsembleMember]) -> Dict:
    """Per frame and per dimension: (sum_n t_n)^-1 * sum_n t_n * o_n.

    Weights are the members' validation concordances; negative or
    non-finite weights are rejected rather than flipped, and each
    dimension's weights must not sum to zero. All members must predict
    exactly the same frame keys, each with a valence and an arousal.
    """
    if not members:
        raise ZeroWeightSum("no ensemble members")
    for m in members:
        if not (0 <= m.val_ccc_v < np.inf and 0 <= m.val_ccc_a < np.inf):
            raise NegativeWeight(
                f"member {m.member_id!r} has a negative or non-finite validation concordance"
            )
    t_v = sum(m.val_ccc_v for m in members)
    t_a = sum(m.val_ccc_a for m in members)
    if t_v == 0 or t_a == 0:
        raise ZeroWeightSum("fusion weights sum to zero")
    keys = list(members[0].predictions.keys())
    key_set = set(keys)
    for m in members[1:]:
        if set(m.predictions.keys()) != key_set:
            raise KeyMisalignment(
                f"member {m.member_id!r} predicts a different frame set"
            )
    for m in members:
        for k, va in m.predictions.items():
            if va[0] is None or va[1] is None:
                raise ValueOutOfRange(
                    f"member {m.member_id!r} has no valence/arousal prediction for frame {k!r}"
                )
    fused = {}
    for k in keys:
        v = sum(m.val_ccc_v * m.predictions[k][0] for m in members) / t_v
        a = sum(m.val_ccc_a * m.predictions[k][1] for m in members) / t_a
        fused[k] = (v, a)
    return fused


def median_filter(series, window: int) -> np.ndarray:
    """Sliding median with edge replication; output length equals input."""
    if window < 1 or window % 2 == 0:
        raise EvenWindow(f"window must be odd and >= 1, got {window}")
    x = np.asarray(series, dtype=np.float64)
    if window == 1 or x.size == 0:
        return x.copy()
    half = window // 2
    padded = np.concatenate([np.repeat(x[0], half), x, np.repeat(x[-1], half)])
    windows = np.lib.stride_tricks.sliding_window_view(padded, window)
    return np.median(windows, axis=1)


def smooth(series, alpha: float) -> np.ndarray:
    """Causal exponential smoothing y_t = alpha*x_t + (1-alpha)*y_{t-1}."""
    if not 0.0 < alpha <= 1.0:
        raise BadAlpha(f"alpha must be in (0,1], got {alpha}")
    x = np.asarray(series, dtype=np.float64)
    y = np.empty_like(x)
    if x.size == 0:
        return y
    y[0] = x[0]
    for i in range(1, x.size):
        y[i] = alpha * x[i] + (1.0 - alpha) * y[i - 1]
    return y


def read_manifest(path) -> List[Tuple[str, float, float, str]]:
    """Parse a member manifest: CSV rows ``member_id, ccc_v, ccc_a, path``
    with a header line; paths point at prediction files. A short row or a
    bad or non-finite number raises ConfigError at ``path:line``."""
    rows = []
    with open_rows(path) as (header, records):
        if header is None:
            raise ZeroWeightSum("empty manifest")
        for line, row in records:
            where = f"{path}:{line}"
            if len(row) < 4:
                raise ConfigError(f"{where}: expected 4 fields, got {len(row)}")
            member_id, ccc_v, ccc_a, pred_path = (c.strip() for c in row[:4])
            try:
                weights = float(ccc_v), float(ccc_a)
            except ValueError as exc:
                raise ConfigError(f"{where}: {exc}") from exc
            if not np.all(np.isfinite(weights)):
                raise ConfigError(f"{where}: CCC weights must be finite, got {ccc_v}, {ccc_a}")
            rows.append((member_id, *weights, pred_path))
    return rows
