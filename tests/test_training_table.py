"""The per-job training table: its batches are index gathers that must equal
the per-sample batch assembly they replaced, exactly."""

from dataclasses import dataclass, field, fields
from typing import Dict, List, Tuple

import numpy as np
import pytest

from affectkit.errors import ConfigError, MissingMask
from affectkit.harness.config import RunConfig
from affectkit.harness.synth import SyntheticSpec, make_dataset
from affectkit.harness.training import _build_table, _compound_chunks
from affectkit.losses import BatchLabels
from affectkit.models import SequenceBatch
from affectkit.relatedness import (
    coannotate_aus_to_emotion,
    coannotate_emotion_to_aus,
    soft_coannotate,
)
from affectkit.sampler import TaskPartition, aligned_batch_sizes, epoch_iterator
from affectkit.types import (
    NUM_AUS,
    AnnotatedSample,
    AUVector,
    CompoundLabel,
    ExpressionLabel,
    au_index,
)

# ---------------------------------------------------------------------------
# reference: the per-sample assembly loop, keyed by sample id


@dataclass
class _Pools:
    by_id: Dict[str, AnnotatedSample]
    va_ids: Tuple[str, ...]
    au_ids: Tuple[str, ...]
    expr_ids: Tuple[str, ...]
    compound_ids: Tuple[str, ...]
    extra_au: Dict[str, Tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
    extra_expr: Dict[str, int] = field(default_factory=dict)
    soft_expr: Dict[str, np.ndarray] = field(default_factory=dict)


def reference_pools(samples: List[AnnotatedSample], config: RunConfig) -> _Pools:
    by_id = {}
    va, au, expr, compound = [], [], [], []
    for s in samples:
        by_id[s.id] = s
        {"VA": va, "AU": au, "EXPR": expr, "COMPOUND": compound}[s.task].append(s.id)
    pools = _Pools(by_id, tuple(va), tuple(au), tuple(expr), tuple(compound))
    table = config.relatedness_table()
    if config.coupling == "coannotation":
        for sid in pools.expr_ids:
            implied = coannotate_emotion_to_aus(by_id[sid].label, table)
            if implied:
                targets = np.zeros(NUM_AUS)
                weightv = np.zeros(NUM_AUS)
                for au_id, target, weight in implied:
                    targets[au_index(au_id)] = target
                    weightv[au_index(au_id)] = weight
                pools.extra_au[sid] = (targets, weightv)
        for sid in pools.au_ids:
            implied = coannotate_aus_to_emotion(by_id[sid].label, table)
            if implied is not None:
                pools.extra_expr[sid] = implied.class_id
    elif config.coupling in ("soft_coannotation", "soft+distr"):
        for sid in pools.au_ids:
            try:
                soft = soft_coannotate(by_id[sid].label, table, reweight=config.reweight_soft)
            except MissingMask:
                continue
            pools.soft_expr[sid] = soft.as_array()
    return pools


def reference_batch(ids: Tuple[str, ...], pools: _Pools, config: RunConfig):
    n = len(ids)
    dims = config.input_dims()
    feats = np.zeros((n, dims.features))
    audio = np.zeros((n, dims.audio)) if dims.audio else None
    has = {k: np.zeros(n, dtype=bool) for k in ("expr", "au", "va", "compound", "soft")}
    expr_ids = np.zeros(n, dtype=np.int64)
    au_targets = np.zeros((n, NUM_AUS))
    au_mask = np.zeros((n, NUM_AUS))
    va = np.zeros((n, 2))
    compound_ids = np.zeros(n, dtype=np.int64)
    soft = np.zeros((n, 7))
    for row, sid in enumerate(ids):
        sample = pools.by_id[sid]
        feats[row] = sample.features
        if audio is not None:
            audio[row] = sample.audio_features
        label = sample.label
        if sample.task == "VA":
            has["va"][row] = True
            va[row] = (label.valence, label.arousal)
        elif sample.task == "EXPR":
            has["expr"][row] = True
            expr_ids[row] = label.class_id
            if sid in pools.extra_au:
                has["au"][row] = True
                au_targets[row], au_mask[row] = pools.extra_au[sid]
        elif sample.task == "AU":
            if label.mask.sum() > 0:
                has["au"][row] = True
                au_targets[row] = label.values
                au_mask[row] = label.mask
            if sid in pools.extra_expr:
                has["expr"][row] = True
                expr_ids[row] = pools.extra_expr[sid]
            if sid in pools.soft_expr:
                has["soft"][row] = True
                soft[row] = pools.soft_expr[sid]
        else:
            has["compound"][row] = True
            compound_ids[row] = label.class_id
    if 0 < has["va"].sum() < 2:
        has["va"][:] = False
    batch = SequenceBatch(
        features=feats[None], audio=None if audio is None else audio[None]
    )
    labels = BatchLabels(
        va=va,
        expr=expr_ids,
        au_targets=au_targets,
        au_mask=au_mask,
        compound=compound_ids,
        soft=soft,
        **{f"has_{k}": v for k, v in has.items()},
    )
    return batch, labels


# ---------------------------------------------------------------------------


def basic_samples(audio_dim: int = 2) -> List[AnnotatedSample]:
    """Interleaved VA/AU/EXPR samples with partially and fully unannotated
    AU rows and optional audio."""
    spec = SyntheticSpec(train_counts=(7, 20, 20), val_counts=(1, 1, 1), feature_dim=8)
    train, _ = make_dataset(spec, seed=3)
    rng = np.random.default_rng(5)
    out = []
    au_seen = 0
    for s in train:
        label = s.label
        if isinstance(label, AUVector):
            au_seen += 1
            if au_seen % 5 == 0:  # fully unannotated
                label = AUVector(np.zeros(NUM_AUS), np.zeros(NUM_AUS))
            elif au_seen % 3 == 0:  # AU6 and AU12 unannotated
                mask = np.ones(NUM_AUS, dtype=np.uint8)
                mask[[au_index(6), au_index(12)]] = 0
                label = AUVector(label.values * mask, mask)
        out.append(
            AnnotatedSample(
                id=s.id,
                split=s.split,
                features=s.features,
                label=label,
                audio_features=rng.normal(size=audio_dim) if audio_dim else None,
            )
        )
    return [out[i] for i in rng.permutation(len(out))]


def compound_samples() -> List[AnnotatedSample]:
    rng = np.random.default_rng(2)
    return [
        AnnotatedSample(
            id=f"c{i:03d}",
            split="train",
            features=rng.normal(size=8),
            label=CompoundLabel(i % 11, ExpressionLabel(1 + i % 5), ExpressionLabel(6)),
        )
        for i in range(23)
    ]


def config(**overrides) -> RunConfig:
    base = dict(feature_dim=8, audio_dim=2, heads=("EXPR", "AU", "VA"), total_batch=10)
    base.update(overrides)
    return RunConfig(**base)


def assert_same(got, want):
    batch, labels = got
    ref_batch, ref_labels = want
    assert np.array_equal(batch.features, ref_batch.features)
    assert (batch.audio is None) == (ref_batch.audio is None)
    if batch.audio is not None:
        assert np.array_equal(batch.audio, ref_batch.audio)
    names = [f.name for f in fields(BatchLabels)]
    assert len(names) == 11
    for name in names:
        a, b = getattr(labels, name), getattr(ref_labels, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


@pytest.mark.parametrize(
    "coupling",
    ["none", "coannotation", "soft_coannotation", "distr_matching", "soft+distr"],
)
def test_gather_equals_per_sample_assembly(coupling):
    samples = basic_samples()
    cfg = config(coupling=coupling, seed=11)
    table = _build_table(samples, cfg)
    pools = reference_pools(samples, cfg)

    def ids_of(rows):
        return tuple(samples[r].id for r in rows)

    assert ids_of(table.va_rows) == pools.va_ids
    assert ids_of(table.au_rows) == pools.au_ids
    assert ids_of(table.expr_rows) == pools.expr_ids

    sizes = (len(pools.va_ids), len(pools.au_ids), len(pools.expr_ids))
    batch_sizes = aligned_batch_sizes(sizes, cfg.total_batch)
    by_row = TaskPartition(table.va_rows, table.au_rows, table.expr_rows, batch_sizes)
    by_id = TaskPartition(pools.va_ids, pools.au_ids, pools.expr_ids, batch_sizes)
    batches = list(zip(
        epoch_iterator(by_row, seed=cfg.seed, epoch=1),
        epoch_iterator(by_id, seed=cfg.seed, epoch=1),
    ))
    va_counts = set()
    for rows, ids in batches:
        rows, ids = rows.all_ids(), ids.all_ids()
        assert ids_of(rows) == ids  # same batch order as the id pools
        va_counts.add(sum(pools.by_id[i].task == "VA" for i in ids))
        assert_same(table.gather(rows), reference_batch(ids, pools, cfg))
    assert 1 in va_counts and max(va_counts) >= 2  # a lone VA row is dropped
    if coupling in ("soft_coannotation", "soft+distr"):
        assert 0 < table.labels.has_soft.sum() < len(pools.au_ids)


def test_compound_gather_equals_per_sample_assembly():
    samples = compound_samples()
    cfg = config(heads=("COMPOUND",), audio_dim=0, total_batch=8, seed=4)
    table = _build_table(samples, cfg)
    pools = reference_pools(samples, cfg)
    row_chunks = list(_compound_chunks(table.compound_rows, 8, cfg.seed, 0, True))
    id_chunks = list(_compound_chunks(pools.compound_ids, 8, cfg.seed, 0, True))
    assert len(row_chunks) == 3
    for rows, ids in zip(row_chunks, id_chunks):
        assert tuple(samples[r].id for r in rows) == ids
        assert_same(table.gather(rows), reference_batch(ids, pools, cfg))


def test_missing_audio_raises_at_build():
    samples = basic_samples(audio_dim=0)
    with pytest.raises(ConfigError, match="no audio"):
        _build_table(samples, config())
    assert _build_table(samples, config(audio_dim=0)).audio is None


def test_duplicate_id_raises():
    samples = basic_samples()
    samples.append(samples[0])
    with pytest.raises(ConfigError, match="duplicate sample id"):
        _build_table(samples, config())


def test_compound_mixed_with_basic_raises():
    samples = basic_samples(audio_dim=0) + compound_samples()
    with pytest.raises(ConfigError, match="cannot be mixed"):
        _build_table(samples, config(audio_dim=0))


def test_compound_class_beyond_head_raises():
    samples = compound_samples()
    samples[4].label = CompoundLabel(12, ExpressionLabel(1), ExpressionLabel(6))
    with pytest.raises(
        ConfigError, match=r"c004: compound class id 12 is not below compound_classes = 11"
    ):
        _build_table(samples, config(heads=("COMPOUND",), audio_dim=0))


def test_zero_mask_au_row_stays_in_au_pool():
    samples = basic_samples()
    table = _build_table(samples, config())
    zero = [r for r, s in enumerate(samples) if isinstance(s.label, AUVector)
            and not s.label.mask.any()]
    assert zero and set(zero) <= set(table.au_rows)
    assert not table.labels.has_au[zero].any()
