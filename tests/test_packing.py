"""Sequence packing: the rows of one sequence run through a recurrent model
as one sequence in frame order, in training and in evaluation, and every
other row alone; a stateless model runs every row alone, as before."""

from dataclasses import fields
from typing import List, Optional

import numpy as np
import pytest

from affectkit.harness import dataio, training
from affectkit.harness.config import RunConfig
from affectkit.harness.dataio import SampleColumns
from affectkit.harness.evaluate import evaluate_model
from affectkit.harness.synth import SyntheticSpec, make_dataset
from affectkit.harness.training import _build_table, _gather, train_run
from affectkit.losses import BatchLabels
from affectkit.models import (
    InputDims,
    Model,
    ModelSpec,
    RecurrentSpec,
    SequenceBatch,
    pack_rows,
    sequence_keys,
)
from reference_input import write_columns

DIM = 10
HEADS = ("VA", "EXPR", "AU")  # evaluation scores every task the data has
STATEFUL = {
    "single": ModelSpec(
        backbone=(8,), recurrent=RecurrentSpec("single", 6), heads=HEADS
    ),
    "per_tap": ModelSpec(
        backbone=(8, 6), taps=(0, 1), recurrent=RecurrentSpec("per_tap", 4, 2),
        heads=HEADS,
    ),
    "rnn_ensemble": ModelSpec(
        backbone=(6,), members=2, fusion="rnn", fusion_width=5, heads=HEADS
    ),
}
STATELESS = {
    "dense": ModelSpec(backbone=(8,), heads=HEADS),
    "fc_ensemble": ModelSpec(
        backbone=(6,), members=2, fusion="fc", fusion_width=5, heads=HEADS
    ),
}


def reference_pack(features, sequence_ids, frames):
    """The packing rule row by row: sequences in order of first appearance,
    frames by frame index (a row without one first, ties in row order), a
    row without a sequence id alone; returns (B, T, D) and, per row, its
    time-major output row t * B + b."""
    groups = {}
    for r, sid in enumerate(sequence_ids):
        groups.setdefault(("alone", r) if sid is None else sid, []).append(r)
    seqs = [
        sorted(g, key=lambda r: (frames[r] is not None, frames[r] or 0, r))
        for g in groups.values()
    ]
    b_size, t_len = len(seqs), max(map(len, seqs))
    packed = np.zeros((b_size, t_len, features.shape[1]))
    index = np.empty(len(features), dtype=np.int64)
    for b, seq in enumerate(seqs):
        for t, r in enumerate(seq):
            packed[b, t] = features[r]
            index[r] = t * b_size + b
    return packed, index


def random_rows(seed: int, n: int):
    """n rows in a few sequences of uneven length, interleaved, with rows
    that have no sequence id, frame indices out of order, missing or tied."""
    rng = np.random.default_rng(seed)
    sequence_ids: List[Optional[str]] = [
        None if k == 0 else f"clip{k}" for k in rng.integers(0, 5, size=n)
    ]
    frames: List[Optional[int]] = [
        None if f < 0 else int(f) for f in rng.integers(-1, 6, size=n)
    ]
    return rng.normal(size=(n, DIM)), sequence_ids, frames


def heads_of(preds):
    return {
        name: getattr(preds, name).data
        for name in ("va", "expr_logits", "au_logits")
        if getattr(preds, name) is not None
    }


class TestPackRows:
    def test_keys_name_the_first_row_of_each_sequence_and_the_frame_order(self):
        assert sequence_keys([None, None], [3, 1]) is None
        keys = sequence_keys(["a", None, "b", "a", None, "a"], [5, 1, None, 5, None, None])
        # frame order: the rows without an index (2, 4, 5), then 1, then the tie 0, 3
        assert keys.tolist() == [[0, 4], [1, 3], [2, 0], [0, 5], [4, 1], [0, 2]]

    @pytest.mark.parametrize("seed", range(8))
    def test_layout_follows_the_packing_rule(self, seed):
        features, sequence_ids, frames = random_rows(seed, 23)
        batch = pack_rows(features, sequence_keys(sequence_ids, frames))
        want, want_index = reference_pack(features, sequence_ids, frames)
        assert batch.features.shape == want.shape and batch.features.shape[1] > 1
        assert np.array_equal(batch.features, want)
        assert np.array_equal(batch.index, want_index)

    def test_rows_alone_are_one_step_in_row_order(self):
        features = np.arange(12.0).reshape(4, 3)
        for keys in (None, sequence_keys(["a", None, "b", "c"], [None] * 4)):
            batch = pack_rows(features, keys)
            assert batch.index is None
            assert np.array_equal(batch.features, features[:, None])

    @pytest.mark.parametrize("name", sorted(STATEFUL))
    def test_each_sequence_as_if_run_alone(self, name):
        model = Model(STATEFUL[name], InputDims(DIM), seed=3)
        features, sequence_ids, frames = random_rows(11, 30)
        batch = pack_rows(features, sequence_keys(sequence_ids, frames))
        got, index = heads_of(model.forward(batch)), batch.index
        packed, _ = reference_pack(features, sequence_ids, frames)
        for b, length in enumerate(np.bincount(index % batch.batch_size)):
            alone = heads_of(model.forward(SequenceBatch(packed[b : b + 1, :length])))
            rows = np.flatnonzero(index % batch.batch_size == b)
            rows = rows[np.argsort(index[rows])]  # in frame order
            for head, values in alone.items():
                np.testing.assert_allclose(got[head][rows], values, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("name", sorted(STATEFUL) + ["dense"])
    def test_forward_takes_the_outputs_back_to_row_order_bitwise(self, name):
        # a hand-built batch of the same padded features gives time-major
        # rows, and the packed batch's index picks each input row's own
        model = Model({**STATEFUL, **STATELESS}[name], InputDims(DIM), seed=9)
        features, sequence_ids, frames = random_rows(13, 30)
        batch = pack_rows(features, sequence_keys(sequence_ids, frames))
        assert batch.index is not None and batch.features.shape[1] > 1
        got = heads_of(model.forward(batch))
        time_major = heads_of(model.forward(SequenceBatch(batch.features)))
        assert got.keys() == time_major.keys() == {"va", "expr_logits", "au_logits"}
        for head, values in time_major.items():
            assert got[head].tobytes() == values[batch.index].tobytes(), head

    @pytest.mark.parametrize("name", sorted(STATEFUL))
    def test_perturbing_one_sequence_leaves_the_others_bitwise(self, name):
        model = Model(STATEFUL[name], InputDims(DIM), seed=4)
        features, sequence_ids, frames = random_rows(12, 30)
        keys = sequence_keys(sequence_ids, frames)
        before = heads_of(model.forward(pack_rows(features, keys)))
        changed = np.array([s == "clip2" for s in sequence_ids])
        assert 1 < changed.sum() < len(changed)
        perturbed = features.copy()
        perturbed[changed] += np.random.default_rng(0).normal(size=(changed.sum(), DIM))
        after = heads_of(model.forward(pack_rows(perturbed, keys)))
        for head in before:
            assert np.array_equal(after[head][~changed], before[head][~changed]), head
            assert not np.array_equal(after[head][changed], before[head][changed]), head


def sequence_rows(seed: int = 5) -> SampleColumns:
    """Synthetic validation rows in sequences of 1 to 9 frames, stored with
    their sequences interleaved and their frames out of order; every
    fifth row has no sequence id."""
    val = make_dataset(
        SyntheticSpec(train_counts=(0, 0, 0), val_counts=(30, 30, 30), feature_dim=DIM), seed
    )
    rng = np.random.default_rng(seed)
    lengths = rng.integers(1, 10, size=len(val))
    k = 0
    for s in range(len(val)):
        for t in range(lengths[s]):
            if k == len(val):
                break
            val.sequence_id[k], val.frame_index[k] = f"seq{s}", int(t)
            k += 1
    for i in range(0, len(val), 5):
        val.sequence_id[i] = val.frame_index[i] = None
    return val.take(rng.permutation(len(val)))


def concat(a: SampleColumns, b: SampleColumns) -> SampleColumns:
    """The rows of ``a``, then those of ``b``."""
    lists = ("ids", "split", "sequence_id", "utterance_id", "frame_index")
    labels = BatchLabels(**{
        f.name: np.concatenate([getattr(a.labels, f.name), getattr(b.labels, f.name)])
        for f in fields(BatchLabels)
    })
    return SampleColumns(
        *(getattr(a, n) + getattr(b, n) for n in lists), labels,
        np.concatenate([a.compound_pair, b.compound_pair]),
        np.concatenate([a.features, b.features]),
    )


def predictions(records):
    return {
        r.id: np.concatenate([
            [r.valence, r.arousal],
            r.expr_probs if r.expr_probs is not None else [],
            r.au_probs if r.au_probs is not None else [],
        ])
        for r in records
    }


class TestEvaluation:
    @pytest.mark.parametrize("name", sorted(STATEFUL))
    def test_recurrent_predictions_do_not_depend_on_chunking_or_file_order(self, name):
        model = Model(STATEFUL[name], InputDims(DIM), seed=6)
        data = sequence_rows()
        want = predictions(evaluate_model(model, data, chunk=512)[1])
        shuffled = data.take(np.random.default_rng(1).permutation(len(data)))
        for rows, chunk in ((data, 7), (data, 1), (shuffled, 512), (shuffled, 13)):
            got = predictions(evaluate_model(model, rows, chunk=chunk)[1])
            assert got.keys() == want.keys()
            for sid, values in want.items():
                np.testing.assert_allclose(got[sid], values, rtol=0, atol=1e-12, err_msg=sid)

    @pytest.mark.parametrize("name", sorted(STATEFUL))
    def test_recurrent_predictions_equal_each_sequence_run_alone(self, name):
        model = Model(STATEFUL[name], InputDims(DIM), seed=7)
        data = sequence_rows()
        got = predictions(evaluate_model(model, data, chunk=40)[1])
        groups = {}
        for r, (sid, seq) in enumerate(zip(data.ids, data.sequence_id)):
            groups.setdefault(seq or sid, []).append(r)
        for seq in groups.values():
            seq.sort(key=lambda r: data.frame_index[r] or 0)
            preds = model.forward(SequenceBatch(data.features[seq][None]))
            for t, r in enumerate(seq):
                np.testing.assert_allclose(
                    got[data.ids[r]][:2], preds.va.data[t], rtol=0, atol=1e-12
                )

    @pytest.mark.parametrize("name", sorted(STATELESS))
    @pytest.mark.parametrize("chunk", [7, 512])
    def test_stateless_predictions_are_the_file_order_chunks_bitwise(
        self, name, chunk, monkeypatch
    ):
        # the path before sequence packing: (1, chunk, D) slices in file order
        model = Model(STATELESS[name], InputDims(DIM), seed=8)
        data = sequence_rows()
        shapes = []
        real = Model.forward
        monkeypatch.setattr(
            Model, "forward", lambda self, batch, **kw: shapes.append(batch.features.shape)
            or real(self, batch, **kw)
        )
        _, records = evaluate_model(model, data, chunk=chunk)
        monkeypatch.undo()
        assert all(t == 1 for _, t, _ in shapes)  # every row alone, no padding
        va = np.concatenate([
            model.forward(SequenceBatch(data.features[i : i + chunk][None])).va.data
            for i in range(0, len(data), chunk)
        ])
        assert np.array_equal(np.array([[r.valence, r.arousal] for r in records]), va)


class TestTraining:
    @pytest.mark.parametrize("recurrent", ["single:6x1", "none"])
    def test_gather_packs_a_recurrent_batch_by_sequence(self, recurrent):
        data = sequence_rows()
        config = RunConfig(feature_dim=DIM, backbone=(8,), recurrent=recurrent, coupling="none")
        _build_table(data, config, config.relatedness_table())
        rows = np.random.default_rng(2).permutation(len(data))[:40]
        batch, labels = _gather(data, rows, config.model_spec().stateful)
        features = data.features[rows]
        if recurrent == "none":
            assert "keys" not in vars(data) and batch.index is None  # no keys made
            assert np.array_equal(batch.features, features[:, None])
            return
        want, want_index = reference_pack(
            features,
            [data.sequence_id[r] for r in rows],
            [data.frame_index[r] for r in rows],
        )
        assert batch.batch_size < len(rows)
        assert np.array_equal(batch.features, want) and np.array_equal(batch.index, want_index)
        assert np.array_equal(labels.expr, data.labels.expr[rows])

    def test_each_loss_row_is_predicted_within_its_sequence(self, tmp_path, monkeypatch):
        data = sequence_rows()
        data.split[:] = ["train"] * len(data)
        ann, feats = tmp_path / "ann.csv", tmp_path / "feats.csv"
        write_columns(data, ann, feats)
        config = RunConfig(
            feature_dim=DIM, backbone=(8,), recurrent="single:6x1", heads=HEADS, epochs=1,
            total_batch=30, train_annotations=str(ann), train_features=str(feats),
            out_dir=str(tmp_path / "run"),
        )
        steps = []
        real_gather, real_objective = _gather, training.objective
        monkeypatch.setattr(
            training, "_gather",
            lambda data, rows, stateful: steps.append([rows]) or real_gather(data, rows, stateful),
        )
        monkeypatch.setattr(
            training, "objective",
            lambda preds, labels, *rest: steps[-1].append(preds.va.data)
            or real_objective(preds, labels, *rest),
        )
        # the first step runs the initial parameters, which the seed fixes
        model = Model(config.model_spec(), config.input_dims(), seed=config.seed)
        train_run(config)
        (rows, va), *_ = steps
        groups = {}
        for k, r in enumerate(rows):
            groups.setdefault(data.sequence_id[r] or data.ids[r], []).append(k)
        assert len(groups) < len(rows)
        for ks in groups.values():
            ks.sort(key=lambda k: data.frame_index[rows[k]] or 0)
            alone = data.features[rows[ks]][None]
            want = model.forward(SequenceBatch(alone)).va.data
            np.testing.assert_allclose(va[ks], want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("with_ids", [True, False])
    def test_packing_keys_are_made_once_per_split(self, tmp_path, monkeypatch, with_ids):
        # a split's rows never change, so its packing keys are made once per
        # job, and so is their absence; the history is what making them at
        # every read gave
        train = make_dataset(
            SyntheticSpec(train_counts=(20, 20, 20), val_counts=(0, 0, 0), feature_dim=DIM), 3
        )
        val = sequence_rows()
        data = concat(train, val)
        for r, split in enumerate(data.split):
            if not with_ids:
                data.sequence_id[r] = data.frame_index[r] = None
            elif split == "train":
                data.sequence_id[r], data.frame_index[r] = f"clip{r % 7}", r
        ann, feats = tmp_path / "ann.csv", tmp_path / "feats.csv"
        write_columns(data, ann, feats)
        config = RunConfig(
            feature_dim=DIM, backbone=(8,), recurrent="single:4x1", heads=HEADS, epochs=3,
            total_batch=12, train_annotations=str(ann), train_features=str(feats),
            val_annotations=str(ann), val_features=str(feats), out_dir=str(tmp_path / "once"),
        )
        made, real_keys = [], sequence_keys
        counting = lambda ids, frames: made.append(len(ids)) or real_keys(ids, frames)  # noqa: E731
        monkeypatch.setattr(dataio, "sequence_keys", counting)
        once = train_run(config)
        assert made == [60, len(val)]

        each_read = property(lambda self: counting(self.sequence_id, self.frame_index))
        monkeypatch.setattr(SampleColumns, "keys", each_read)
        made.clear()
        each = train_run(config.override(out_dir=str(tmp_path / "each")))
        assert made.count(len(val)) == 3 and made.count(60) == 15  # one per evaluation and step
        assert each.history == once.history and "val.va.ccc_v" in once.history[-1]

    def test_validation_split_is_loaded_once_per_job(self, tmp_path, monkeypatch):
        data = make_dataset(
            SyntheticSpec(train_counts=(20, 20, 20), val_counts=(9, 9, 9), feature_dim=DIM), 2
        )
        ann, feats = tmp_path / "ann.csv", tmp_path / "feats.csv"
        dataio.write_annotations(ann, data)
        dataio.write_features(feats, data.ids, data.features)
        scored = []
        real_eval = evaluate_model

        def spy(model, data, **kwargs):
            scored.append(data)
            return real_eval(model, data, **kwargs)

        monkeypatch.setattr(training, "evaluate_model", spy)
        result = train_run(RunConfig(
            feature_dim=DIM, backbone=(8,), recurrent="single:4x1", epochs=3, total_batch=12,
            train_annotations=str(ann), train_features=str(feats),
            val_annotations=str(ann), val_features=str(feats), out_dir=str(tmp_path / "run"),
        ))
        assert len(scored) == 3
        assert all(d is scored[0] and isinstance(d, SampleColumns) for d in scored)
        assert len(scored[0].ids) == 27
        assert "val.va.ccc_v" in result.history[-1]
