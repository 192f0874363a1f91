"""The training split as the job's row store: its labels with the
co-annotation targets, its task pools and the batches gathered from it,
built from the column readers, must equal the per-row readers and the
per-sample table and batch assembly they replaced, exactly."""

from dataclasses import dataclass, field, fields
from typing import Dict, List, Tuple

import numpy as np
import pytest

import reference_input as ref
from affectkit.errors import ConfigError
from affectkit.harness.config import RunConfig
from affectkit.harness.dataio import load_dataset
from affectkit.harness.synth import SyntheticSpec, make_dataset
from affectkit.harness import training
from affectkit.harness.training import _build_table, _gather, train_run
from affectkit.losses import TASKS, BatchLabels
from affectkit.models import SequenceBatch
from affectkit.relatedness import COGNITIVE, load_table
from affectkit.sampler import aligned_batch_sizes, epoch_iterator
from affectkit.types import NUM_AUS, au_index
from reference_input import AnnotatedSample, AUVector, CompoundLabel, ExpressionLabel

COUPLINGS = ["none", "coannotation", "soft_coannotation", "distr_matching", "soft+distr"]

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
            implied = ref.coannotate_emotion_to_aus(by_id[sid].label, table)
            if implied:
                targets = np.zeros(NUM_AUS)
                weightv = np.zeros(NUM_AUS)
                for au_id, target, weight in implied:
                    targets[au_index(au_id)] = target
                    weightv[au_index(au_id)] = weight
                pools.extra_au[sid] = (targets, weightv)
        for sid in pools.au_ids:
            implied = ref.coannotate_aus_to_emotion(by_id[sid].label, table)
            if implied is not None:
                pools.extra_expr[sid] = implied.class_id
    elif config.coupling in ("soft_coannotation", "soft+distr"):
        for sid in pools.au_ids:
            soft, complete = ref.soft_coannotate(
                by_id[sid].label, table, reweight=config.reweight_soft
            )
            if complete:
                pools.soft_expr[sid] = soft
    return pools


def reference_batch(ids: Tuple[str, ...], pools: _Pools, config: RunConfig):
    n = len(ids)
    feats = np.zeros((n, config.input_dims().features))
    task = np.array([TASKS.index(pools.by_id[sid].task) for sid in ids], dtype=np.int64)
    expr_ids = np.full(n, -1, dtype=np.int64)  # no class
    au_targets = np.zeros((n, NUM_AUS))
    au_mask = np.zeros((n, NUM_AUS))
    va = np.zeros((n, 2))
    compound_ids = np.zeros(n, dtype=np.int64)
    soft = np.zeros((n, 7))
    for row, sid in enumerate(ids):
        sample = pools.by_id[sid]
        feats[row] = sample.features
        label = sample.label
        if sample.task == "VA":
            va[row] = (label.valence, label.arousal)
        elif sample.task == "EXPR":
            expr_ids[row] = label.class_id
            if sid in pools.extra_au:
                au_targets[row], au_mask[row] = pools.extra_au[sid]
        elif sample.task == "AU":
            au_targets[row] = label.values
            au_mask[row] = label.mask
            if sid in pools.extra_expr:
                expr_ids[row] = pools.extra_expr[sid]
            if sid in pools.soft_expr:
                soft[row] = pools.soft_expr[sid]
        else:
            compound_ids[row] = label.class_id
    batch = SequenceBatch(features=feats[:, None])  # rows without sequence ids run alone
    labels = BatchLabels(
        va=va,
        expr=expr_ids,
        au_targets=au_targets,
        au_mask=au_mask,
        compound=compound_ids,
        soft=soft,
        task=task,
    )
    return batch, labels


# ---------------------------------------------------------------------------


def basic_samples() -> List[AnnotatedSample]:
    """Interleaved VA/AU/EXPR training samples with partially and fully
    unannotated AU rows, shuffled, followed by validation samples."""
    spec = SyntheticSpec(train_counts=(7, 20, 20), val_counts=(2, 3, 3), feature_dim=8)
    samples = ref.samples_of(make_dataset(spec, seed=3))
    train = [s for s in samples if s.split == "train"]
    val = [s for s in samples if s.split == "val"]
    rng = np.random.default_rng(5)
    au_seen = 0
    for s in train:
        if isinstance(s.label, AUVector):
            au_seen += 1
            if au_seen % 5 == 0:  # fully unannotated
                s.label = AUVector(np.zeros(NUM_AUS), np.zeros(NUM_AUS))
            elif au_seen % 3 == 0:  # AU6 and AU12 unannotated
                mask = np.ones(NUM_AUS, dtype=np.uint8)
                mask[[au_index(6), au_index(12)]] = 0
                s.label = AUVector(s.label.values * mask, mask)
    return [train[i] for i in rng.permutation(len(train))] + val


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


def write_files(directory, samples, name="data"):
    ann, feats = directory / f"{name}_ann.csv", directory / f"{name}_feats.csv"
    ref.write_samples(samples, ann, feats)
    return ann, feats


def config(**overrides) -> RunConfig:
    base = dict(feature_dim=8, heads=("EXPR", "AU", "VA"), total_batch=10)
    base.update(overrides)
    return RunConfig(**base)


def assert_same_arrays(pairs):
    for name, a, b in pairs:
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def assert_same(got, want):
    batch, labels = got
    assert batch.index is None
    ref_batch, ref_labels = want
    assert batch.audio is None and ref_batch.audio is None
    names = [f.name for f in fields(BatchLabels)]
    assert len(names) == 7
    assert_same_arrays(
        [("features", batch.features, ref_batch.features)]
        + [(n, getattr(labels, n), getattr(ref_labels, n)) for n in names]
    )


def assert_table_equals_reference(got, want):
    """Features, every BatchLabels array, and the pools: the
    compound pool alone when it has rows, else the VA, AU and EXPR pools."""
    data, pools = got
    assert_same_arrays(
        [("features", data.features, want.features)]
        + [(f.name, getattr(data.labels, f.name), getattr(want.labels, f.name))
           for f in fields(BatchLabels)]
    )
    basic = (want.va_rows, want.au_rows, want.expr_rows)
    wanted = (want.compound_rows,) if want.compound_rows else basic
    assert len(pools) == len(wanted)
    assert all(np.array_equal(p, w) for p, w in zip(pools, wanted))


def build(ann, feats, cfg, split="train"):
    """The split from the column readers, with its co-annotation targets,
    and its pools."""
    data = load_dataset(ann, feats, split=split)
    return data, _build_table(data, cfg, cfg.relatedness_table())


def build_both(ann, feats, cfg, split="train"):
    """The split and pools from the column readers and the per-row
    reference's table."""
    return build(ann, feats, cfg, split), ref.build_table(
        ref.load_dataset(ann, feats, split=split), cfg
    )


@pytest.mark.parametrize("reweight_soft", [True, False])
@pytest.mark.parametrize("relatedness", ["cognitive", "empirical"])
@pytest.mark.parametrize("coupling", COUPLINGS)
def test_table_equals_per_row_reference(tmp_path, coupling, relatedness, reweight_soft):
    ann, feats = write_files(tmp_path, basic_samples())
    cfg = config(coupling=coupling, relatedness=relatedness, reweight_soft=reweight_soft)
    got, want = build_both(ann, feats, cfg)
    assert_table_equals_reference(got, want)
    data, (_, au, expr) = got
    assert len(data.features) == 47  # the validation rows are left out
    if coupling in ("soft_coannotation", "soft+distr"):
        assert 0 < data.labels.soft.any(axis=1).sum() < len(au)
    if coupling == "coannotation":
        assert data.labels.au_mask[expr].any()


def test_compound_table_equals_per_row_reference(tmp_path):
    ann, feats = write_files(tmp_path, compound_samples())
    got, want = build_both(ann, feats, config(heads=("COMPOUND",)))
    assert_table_equals_reference(got, want)
    assert len(got[1]) == 1 and len(got[1][0]) == 23


def test_training_files_without_train_rows_are_an_error(tmp_path):
    # a split no row carries never falls back to every row
    samples = basic_samples()
    for s in samples:
        s.split = "val"
    ann, feats = write_files(tmp_path, samples)
    for load in (load_dataset, ref.load_dataset):
        with pytest.raises(ConfigError, match="no row .*'train'"):
            load(ann, feats, split="train")
    with pytest.raises(ConfigError, match="no row is in split 'train'"):
        train_run(train_config(tmp_path, ann, feats))


@pytest.mark.parametrize("coupling", COUPLINGS)
def test_gather_equals_per_sample_assembly(tmp_path, coupling):
    ann, feats = write_files(tmp_path, basic_samples())
    cfg = config(coupling=coupling, seed=11)
    data, by_row = build(ann, feats, cfg)
    samples = ref.load_dataset(ann, feats, split="train")
    pools = reference_pools(samples, cfg)

    def ids_of(rows):
        return tuple(samples[r].id for r in rows)

    assert tuple(map(ids_of, by_row)) == (pools.va_ids, pools.au_ids, pools.expr_ids)

    sizes = (len(pools.va_ids), len(pools.au_ids), len(pools.expr_ids))
    batch_sizes = aligned_batch_sizes(sizes, cfg.total_batch)
    rngs = [np.random.default_rng([cfg.seed, 1, k]) for k in range(3)]
    by_id = ref.TaskPartition(pools.va_ids, pools.au_ids, pools.expr_ids, batch_sizes)
    batches = list(zip(
        epoch_iterator(by_row, batch_sizes, rngs),
        ref.epoch_iterator(by_id, seed=cfg.seed, epoch=1),
        strict=True,
    ))
    va_counts = set()
    for rows, ids in batches:
        ids = ids.all_ids()
        assert ids_of(rows) == ids  # same batch order as the id pools
        va_counts.add(sum(pools.by_id[i].task == "VA" for i in ids))
        assert_same(_gather(data, rows, False), reference_batch(ids, pools, cfg))
    assert 1 in va_counts and max(va_counts) >= 2  # a lone VA row is dropped
    if coupling in ("soft_coannotation", "soft+distr"):
        assert 0 < data.labels.soft.any(axis=1).sum() < len(pools.au_ids)


def test_compound_gather_equals_per_sample_assembly(tmp_path):
    ann, feats = write_files(tmp_path, compound_samples())
    cfg = config(heads=("COMPOUND",), total_batch=8, seed=4)
    data, (compound,) = build(ann, feats, cfg)
    samples = ref.load_dataset(ann, feats, split="train")
    pools = reference_pools(samples, cfg)
    batch_sizes = aligned_batch_sizes([len(compound)], 8)
    rngs = [np.random.default_rng([cfg.seed, 0])]
    row_chunks = list(epoch_iterator((compound,), batch_sizes, rngs))
    id_chunks = list(ref.compound_chunks(pools.compound_ids, 8, cfg.seed, 0, True))
    assert len(row_chunks) == 3
    for rows, ids in zip(row_chunks, id_chunks, strict=True):
        assert tuple(samples[r].id for r in rows) == ids
        assert_same(_gather(data, rows, False), reference_batch(ids, pools, cfg))


@pytest.mark.parametrize("shuffle", [True, False])
@pytest.mark.parametrize("layout", ["basic", "compound"])
def test_train_run_walks_the_oracle_batches(tmp_path, monkeypatch, layout, shuffle):
    # basic-task pools keyed (seed, epoch, k), a compound pool (seed, epoch)
    if layout == "basic":
        ann, feats = write_files(tmp_path, basic_samples())
        cfg = train_config(tmp_path, ann, feats, seed=9, shuffle=shuffle)
    else:
        ann, feats = write_files(tmp_path, compound_samples())
        cfg = train_config(
            tmp_path, ann, feats, seed=9, shuffle=shuffle, heads=("COMPOUND",), total_batch=8
        )
    cfg = cfg.override(epochs=2)
    walked = []

    def spy(*args):
        for rows in epoch_iterator(*args):
            walked.append(rows.tolist())
            yield rows

    monkeypatch.setattr(training, "epoch_iterator", spy)
    train_run(cfg)
    pools = [tuple(p.tolist()) for p in build(ann, feats, cfg)[1]]
    want = []
    for epoch in range(cfg.epochs):
        if layout == "compound":
            (compound,) = pools
            chunks = ref.compound_chunks(compound, cfg.total_batch, cfg.seed, epoch, shuffle)
            want += [list(c) for c in chunks]
        else:
            sizes = aligned_batch_sizes([len(p) for p in pools], cfg.total_batch)
            partition = ref.TaskPartition(*pools, sizes)
            batches = ref.epoch_iterator(partition, cfg.seed, epoch, shuffle)
            want += [list(b.all_ids()) for b in batches]
    assert walked == want and len(walked) == (10 if layout == "basic" else 6)


def train_config(tmp_path, ann, feats, **overrides) -> RunConfig:
    return config(
        train_annotations=str(ann), train_features=str(feats), epochs=1,
        out_dir=str(tmp_path / "run"), **overrides,
    )


def test_audio_dim_is_a_config_error(tmp_path, monkeypatch):
    ann, feats = write_files(tmp_path, basic_samples())
    loads = []
    monkeypatch.setattr(
        "affectkit.harness.training.load_dataset", lambda *a, **k: loads.append(a)
    )
    monkeypatch.setattr(
        "affectkit.harness.training.load_splits", lambda *a, **k: loads.append(a)
    )
    with pytest.raises(ConfigError, match="audio_dim = 2, but no reader supplies audio"):
        train_run(train_config(tmp_path, ann, feats, audio_dim=2, streams=2))
    assert not loads  # raised before anything was read


def test_duplicate_id_raises(tmp_path):
    samples = basic_samples()
    _, feats = write_files(tmp_path, samples)
    samples.insert(4, samples[1])
    ann = tmp_path / "a_ann.csv"
    ref.write_samples(samples, annotations=ann)
    with pytest.raises(ConfigError, match=rf"a_ann\.csv:6: duplicate sample id {samples[1].id!r}"):
        load_dataset(ann, feats)


def test_compound_mixed_with_basic_raises(tmp_path):
    ann, feats = write_files(tmp_path, basic_samples() + compound_samples())
    with pytest.raises(ConfigError, match="cannot be mixed"):
        _build_table(load_dataset(ann, feats, split="train"), config(), COGNITIVE)


def test_compound_class_beyond_head_raises(tmp_path):
    samples = compound_samples()
    samples[4].label = CompoundLabel(12, ExpressionLabel(1), ExpressionLabel(6))
    ann, feats = write_files(tmp_path, samples)
    with pytest.raises(
        ConfigError,
        match=r"c004: compound class id 12 is not below compound_classes = 11",
    ):
        _build_table(load_dataset(ann, feats), config(heads=("COMPOUND",)), COGNITIVE)


@pytest.mark.parametrize("layout", ["basic", "compound"])
def test_pools_hold_each_training_row_exactly_once(tmp_path, layout):
    if layout == "basic":  # co-annotation gives AU rows a class and EXPR rows AU targets
        samples, cfg = basic_samples(), config(coupling="coannotation")
    else:
        samples, cfg = compound_samples(), config(heads=("COMPOUND",))
    ann, feats = write_files(tmp_path, samples)
    data, pools = build(ann, feats, cfg)
    assert len(pools) == (3 if layout == "basic" else 1)
    assert all(p.dtype.kind == "i" and np.all(np.diff(p) > 0) for p in pools)  # file order
    assert np.array_equal(np.sort(np.concatenate(pools)), np.arange(len(data.features)))


def test_zero_mask_au_row_stays_in_au_pool(tmp_path):
    ann, feats = write_files(tmp_path, basic_samples())
    data = load_dataset(ann, feats, split="train")
    lab = data.labels
    zero = np.flatnonzero((lab.task == TASKS.index("AU")) & ~lab.au_mask.any(axis=1))
    _, au, _ = _build_table(data, config(), COGNITIVE)
    assert zero.size and set(zero.tolist()) <= set(au.tolist())
    assert not data.labels.au_mask[zero].any()


def test_a_file_table_is_read_once_per_job(tmp_path, monkeypatch):
    ann, feats = write_files(tmp_path, basic_samples())
    path = tmp_path / "table.txt"
    path.write_text("happiness proto=12,25 obs=6:0.51\nsadness proto=4,15 obs=1:0.6\n")
    reads = []
    monkeypatch.setattr(
        "affectkit.harness.config.load_table", lambda p: reads.append(p) or load_table(p)
    )
    result = train_run(
        train_config(tmp_path, ann, feats, coupling="soft+distr", relatedness=f"file:{path}")
    )
    assert reads == [str(path)]
    assert np.isfinite(result.history[-1]["loss"])
