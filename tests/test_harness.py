"""End-to-end harness: config, synthetic data, file formats, training,
evaluation, gradient checks, and the command line."""

import csv
import io
import math
import os
import re
import shutil
from dataclasses import fields

import numpy as np
import pytest

from affectkit import autodiff as ad
from affectkit import csvfile
from affectkit.autodiff import DiffTensor, backward, load_checkpoint, save_checkpoint
from affectkit.errors import (
    BadMask,
    ConfigError,
    DivergedLoss,
    IncompatibleHeads,
    InvalidSpec,
    KeyMisalignment,
    UnknownClass,
)
from affectkit.harness.checks import (
    CHECKS,
    GRAD_TOLERANCE,
    max_relative_error,
    run_grad_checks,
)
from affectkit.harness.cli import main
from affectkit.harness.config import RunConfig, parse_kv_file
from affectkit.harness.dataio import (
    PREDICTION_FIELDS,
    load_dataset,
    read_annotation_columns,
    read_feature_columns,
    read_predictions,
    write_annotations,
    write_features,
    write_predictions,
    write_report,
)
from affectkit.fusion import median_filter, smooth
from affectkit.harness.evaluate import evaluate_model
from affectkit.preprocess import CANONICAL_LANDMARKS, read_landmarks
from affectkit.harness.synth import SyntheticSpec, generate_dataset, make_dataset
from affectkit.harness import dataio, synth, training
from affectkit.harness.training import load_model, train_run
from affectkit.losses import TASKS, objective
from affectkit.models import InputDims, Model, ModelSpec, load_parameters
from affectkit.relatedness import RelatednessTable
from affectkit.types import PredictionRecord, au_index, expression_id
from affectkit.zeroshot import classify_compound, default_compound_defs
from reference_input import blank_columns, read_report, write_audio, write_columns
from reference_ops import square, tsum

SMALL = SyntheticSpec(
    train_counts=(40, 40, 40), val_counts=(15, 15, 15), feature_dim=10
)


def small_config(tmp_path, **overrides):
    spec = SMALL
    feats, ann = generate_dataset(spec, seed=0, out_dir=str(tmp_path / "data"))
    base = dict(
        seed=0,
        feature_dim=spec.feature_dim,
        backbone=(12,),
        heads=("EXPR", "AU", "VA"),
        lr=1e-2,
        epochs=2,
        total_batch=24,
        train_annotations=ann,
        train_features=feats,
        val_annotations=ann,
        val_features=feats,
        out_dir=str(tmp_path / "run"),
    )
    base.update(overrides)
    return RunConfig(**base)


class TestConfig:
    def test_defaults_validate(self):
        RunConfig().validate()

    def test_file_round_trip(self, tmp_path):
        cfg = RunConfig(
            seed=3,
            backbone=(24, 16),
            taps=(0, 1),
            recurrent="single:8x2",
            heads=("EXPR", "AU"),
            coupling="soft_coannotation",
            lr=5e-3,
            shuffle=False,
        )
        path = tmp_path / "run.cfg"
        cfg.to_file(path)
        loaded = RunConfig.from_file(path)
        assert loaded == cfg

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("learning_speed = 0.1\n")
        with pytest.raises(ConfigError, match="learning_speed"):
            RunConfig.from_file(path)

    def test_bad_value(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("epochs = soon\n")
        with pytest.raises(ConfigError):
            RunConfig.from_file(path)

    def test_kv_parser_reports_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 1\nnot a pair\n")
        with pytest.raises(ConfigError, match="2"):
            parse_kv_file(path)

    def test_kv_parser_rejects_a_repeated_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("lr = 0.1\nseed = 2\n# lr = 0.5\nlr = 0.001\n")
        with pytest.raises(ConfigError, match=r"run\.cfg:4: 'lr' is set twice"):
            parse_kv_file(path)
        with pytest.raises(ConfigError, match="set twice"):
            RunConfig.from_file(path)

    def test_kv_parser_comments(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# a comment\nseed = 4\n\nepochs = 7\n")
        assert parse_kv_file(path) == {"seed": "4", "epochs": "7"}

    def test_coupling_requires_both_heads(self):
        cfg = RunConfig(heads=("EXPR",), coupling="distr_matching")
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_unknown_coupling(self):
        with pytest.raises(ConfigError):
            RunConfig(coupling="telepathy").validate()

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("lr", -1.0, "lr = -1.0 must be finite and positive"),
            ("lr", 0.0, "lr = 0.0 must be finite and positive"),
            ("lr", float("nan"), "lr = nan must be finite and positive"),
            ("lr", float("inf"), "lr = inf must be finite and positive"),
            ("au_threshold", 7.0, "au_threshold = 7.0 must be in [0, 1]"),
            ("au_threshold", -0.25, "au_threshold = -0.25 must be in [0, 1]"),
            ("au_threshold", float("nan"), "au_threshold = nan must be in [0, 1]"),
            ("lambda1", -1.0, "lambda1 = -1.0 must be finite and >= 0"),
            ("lambda2", float("nan"), "lambda2 = nan must be finite and >= 0"),
            ("lambda2", float("inf"), "lambda2 = inf must be finite and >= 0"),
        ],
        ids=[
            "lr_negative", "lr_zero", "lr_nan", "lr_inf", "au_threshold_7",
            "au_threshold_negative", "au_threshold_nan", "lambda1_negative", "lambda2_nan",
            "lambda2_inf",
        ],
    )
    def test_out_of_range_value(self, field, value, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            RunConfig(**{field: value}).validate()

    @pytest.mark.parametrize(
        "text,error,message",
        [
            ("relatedness = telepathic\n", ConfigError, "relatedness='telepathic'"),
            ("total_batch = 0\n", ConfigError, "total_batch must be positive"),
            ("epochs = -1\n", ConfigError, "epochs must be nonnegative"),
            ("lr_decay = 0\n", ConfigError, "lr_decay must be in (0,1]"),
            ("lr_decay = 1.5\n", ConfigError, "lr_decay must be in (0,1]"),
            ("recurrent = single:many\n", ConfigError,
             "recurrent='single:many'; expected none or kind:HIDDENxLAYERS"),
            ("ensemble_members = 1\n", InvalidSpec,
             "members = 1: a fused ensemble needs 0 or >= 2"),
            ("ensemble_fusion = bogus\n", InvalidSpec, "fusion mode 'bogus'"),
            ("ensemble_members = 2\nensemble_fusion = bogus\n", InvalidSpec,
             "fusion mode 'bogus'"),
            ("fusion_width = 0\n", InvalidSpec, "fusion_width = 0 must be positive"),
        ],
        ids=[
            "relatedness", "total_batch", "epochs", "lr_decay_zero", "lr_decay_above_one",
            "recurrent", "ensemble_members_1", "ensemble_fusion", "ensemble_fusion_fused",
            "fusion_width",
        ],
    )
    def test_from_file_refusal_names_the_file(self, tmp_path, text, error, message):
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        with pytest.raises(error, match=f"^{re.escape(f'{path}: {message}')}$"):
            RunConfig.from_file(path)

    def test_range_bounds_validate(self):
        RunConfig(lr=5e-324, au_threshold=0.0, lambda1=0.0, lambda2=0.0).validate()
        RunConfig(au_threshold=1.0).validate()

    def test_override(self):
        cfg = RunConfig(seed=1)
        other = cfg.override(seed=2, epochs=9)
        assert other.seed == 2 and other.epochs == 9
        assert cfg.seed == 1

    def test_ensemble_spec_is_composite(self):
        cfg = RunConfig(ensemble_members=3, ensemble_fusion="rnn")
        spec = cfg.model_spec()
        assert spec.members == 3
        assert spec.fusion == "rnn"

    def test_recurrent_spec_parsing(self):
        spec = RunConfig(recurrent="per_tap:8x2", backbone=(4, 4), taps=(0, 1)).model_spec()
        assert spec.recurrent.kind == "per_tap"
        assert spec.recurrent.hidden == 8
        assert spec.recurrent.layers == 2

    def test_relatedness_file_dispatch(self, tmp_path):
        table_path = tmp_path / "table.txt"
        table_path.write_text("happiness proto=12,25 obs=6:0.51\n")
        cfg = RunConfig(relatedness=f"file:{table_path}")
        table = cfg.relatedness_table()
        assert table.rows == ((expression_id("happiness"), ((12, 1.0), (25, 1.0), (6, 0.51))),)


def expr_columns(n: int, seed: int = 0):
    """``n`` training rows x0, x1, ... of 10 normal features from ``seed``,
    row i labelled expression i % 7."""
    features = np.random.default_rng(seed).normal(size=(n, 10))
    data = blank_columns([f"x{i}" for i in range(n)], features)
    data.labels.task[:] = TASKS.index("EXPR")
    data.labels.expr[:] = np.arange(n) % 7
    return data


def val_split():
    """The validation rows of the SMALL synthetic data, as columns."""
    data = make_dataset(SMALL, seed=0)
    return data.take([r for r, split in enumerate(data.split) if split == "val"])


class TestSyntheticData:
    def test_counts_and_splits(self):
        data = make_dataset(SMALL, seed=0)
        assert data.split == ["train"] * 120 + ["val"] * 45
        assert data.features.shape == (165, 10)
        lab = data.labels
        for task in ("VA", "AU", "EXPR"):
            rows = lab.task == TASKS.index(task)
            assert rows[:120].sum() == 40 and rows[120:].sum() == 15
        assert np.array_equal(lab.expr >= 0, lab.task == TASKS.index("EXPR"))
        assert np.array_equal(lab.au_mask.any(axis=1), lab.task == TASKS.index("AU"))
        assert not lab.soft.any()

    def test_ids_unique(self):
        ids = make_dataset(SMALL, seed=0).ids
        assert len(ids) == len(set(ids))

    def test_noise_free_au_patterns_follow_table(self):
        spec = SyntheticSpec(
            train_counts=(0, 200, 0), val_counts=(0, 0, 0), sigma=0.0, kappa=1.0
        )
        data = make_dataset(spec, seed=1)
        happy = np.argmax(data.features, axis=1) == expression_id("happiness")
        assert happy.any()
        # prototypical AUs activate with probability 1 at kappa=1
        assert (data.labels.au_targets[happy][:, [au_index(12), au_index(25)]] == 1).all()

    def test_neutral_latent_has_no_aus(self):
        spec = SyntheticSpec(
            train_counts=(0, 300, 0), val_counts=(0, 0, 0), sigma=0.0, kappa=1.0
        )
        data = make_dataset(spec, seed=2)
        neutral = np.argmax(data.features, axis=1) == 0
        assert neutral.any()
        assert data.labels.au_targets[neutral].sum() == 0

    def test_same_seed_byte_identical_files(self, tmp_path):
        a_ann, a_feat = generate_dataset(SMALL, seed=7, out_dir=str(tmp_path / "a"))
        b_ann, b_feat = generate_dataset(SMALL, seed=7, out_dir=str(tmp_path / "b"))
        assert open(a_ann, "rb").read() == open(b_ann, "rb").read()
        assert open(a_feat, "rb").read() == open(b_feat, "rb").read()

    def test_different_seeds_differ(self, tmp_path):
        a_ann, _ = generate_dataset(SMALL, seed=1, out_dir=str(tmp_path / "a"))
        b_ann, _ = generate_dataset(SMALL, seed=2, out_dir=str(tmp_path / "b"))
        assert open(a_ann, "rb").read() != open(b_ann, "rb").read()

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            SyntheticSpec(feature_dim=3)
        with pytest.raises(ConfigError):
            SyntheticSpec(kappa=1.5)
        with pytest.raises(ConfigError):
            SyntheticSpec(table="astral")
        for counts in ((-5, 2, 2), (0, 0, 0)):
            with pytest.raises(ConfigError, match="counts must be >= 0 and not all zero"):
                SyntheticSpec(train_counts=counts, val_counts=(0, 0, 0))


class TestDataFiles:
    def make_columns(self):
        """A VA row with a sequence id and frame, an EXPR row with an
        utterance id, an AU row with AU4 unannotated and a compound row."""
        data = blank_columns(["s0", "s1", "s2", "s3"], np.random.default_rng(0).normal(size=(4, 6)))
        data.split[1] = "val"
        data.sequence_id[0], data.frame_index[0], data.utterance_id[1] = "seq1", 4, "utt9"
        lab = data.labels
        lab.task[:] = [TASKS.index(t) for t in ("VA", "EXPR", "AU", "COMPOUND")]
        lab.va[0] = (0.25, -0.5)
        lab.expr[1] = 3
        lab.au_mask[2], lab.au_targets[2, au_index(12)] = 1.0, 1.0
        lab.au_mask[2, au_index(4)] = 0.0
        lab.compound[3], data.compound_pair[3] = 2, (5, 2)
        return data

    def test_annotation_round_trip(self, tmp_path):
        data = self.make_columns()
        path = tmp_path / "annotations.csv"
        write_annotations(path, data)
        loaded = read_annotation_columns(path)
        assert loaded.ids == ["s0", "s1", "s2", "s3"]
        assert loaded.split == ["train", "val", "train", "train"]
        assert loaded.sequence_id == ["seq1", None, None, None]
        assert loaded.frame_index == [4, None, None, None]
        assert loaded.utterance_id == [None, "utt9", None, None]
        for name in ("task", "va", "expr", "au_targets", "au_mask", "compound", "soft"):
            assert np.array_equal(getattr(loaded.labels, name), getattr(data.labels, name)), name
        assert loaded.compound_pair[3].tolist() == [5, 2]

    def test_feature_round_trip_is_exact(self, tmp_path):
        data = self.make_columns()
        path = tmp_path / "features.csv"
        write_features(path, data.ids, data.features)
        ids, matrix = read_feature_columns(path)
        assert ids == data.ids and matrix.tobytes() == data.features.tobytes()

    def test_load_dataset_attaches_features(self, tmp_path):
        data = self.make_columns()
        write_columns(data, tmp_path / "a.csv", tmp_path / "f.csv")
        loaded = load_dataset(tmp_path / "a.csv", tmp_path / "f.csv", split="train")
        assert loaded.ids == ["s0", "s2", "s3"]
        assert np.array_equal(loaded.features, data.features[[0, 2, 3]])

    @pytest.mark.parametrize("split,ids", [
        ("train", ["s0", "s2", "s3"]), (None, ["s0", "s1", "s2", "s3"]), ("test", None),
    ])
    def test_load_dataset_split_or_every_row(self, tmp_path, split, ids):
        # None reads every row; a split no row carries is an error that
        # names the file and the splits it holds
        data = self.make_columns()
        write_columns(data, tmp_path / "a.csv", tmp_path / "f.csv")
        if ids is None:
            with pytest.raises(ConfigError, match=(
                r"a\.csv: no row is in split 'test' \(splits in the file: 'train', 'val'\)"
            )):
                load_dataset(tmp_path / "a.csv", tmp_path / "f.csv", split=split)
            return
        loaded = load_dataset(tmp_path / "a.csv", tmp_path / "f.csv", split=split)
        assert loaded.ids == ids

    def test_duplicate_feature_id_names_the_line(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("id,f0,f1\ns0,1,2\ns1,3,4\ns0,5,6\n")
        with pytest.raises(ConfigError, match=r"f\.csv:4: duplicate sample id 's0'"):
            read_feature_columns(path)

    @pytest.mark.parametrize(
        "row,message",
        [
            ("s1,train,,,x,EXPR,3", "invalid literal"),
            ("s1,train,,,,VA,abc", "could not convert"),
            ("s1,train,,,,VA,0.5", "could not convert"),
            ("s1,train,,,,VA,7.5;0.1", r"valence/arousal 7\.5 outside"),
            ("s1,train,,,,VA,0.1;-1.5", r"valence/arousal -1\.5 outside"),
            ("s1,train,,,,VA,nan;0.1", "valence/arousal nan outside"),
            ("s1,train,,,,VA,0.1;inf", "valence/arousal inf outside"),
            ("s1,train,,,,COMPOUND,a;1;2", "invalid literal"),
            ("s1,train,,,,COMPOUND,1;2;b", "invalid literal"),
            ("s1,train,,,,COMPOUND,-1;1;4", "negative compound class id -1"),
            ("s1,train,,,,COMPOUND,3;2;2", "constituents 2;2 must be two distinct"),
            ("s1,train,,,,COMPOUND,3;0;4", "constituents 0;4 must be two distinct"),
            ("s1,train,,,,COMPOUND,3;1;9", "constituents 1;9 must be two distinct"),
        ],
    )
    def test_malformed_annotation_names_the_line(self, tmp_path, row, message):
        path = tmp_path / "a.csv"
        header = "id,split,sequence_id,utterance_id,frame_index,task,payload\n"
        path.write_text(header + "s0,train,,,,VA,1.0;-1.0\n" + row + "\n")
        with pytest.raises(ConfigError, match=rf"a\.csv:3: .*{message}"):
            read_annotation_columns(path)

    @pytest.mark.parametrize(
        "payload,error,message",
        [
            ("EXPR,7", UnknownClass, "expression class 7"),
            ("EXPR,-1", UnknownClass, "expression class -1"),
            ("AU,1-0101-0000000002", BadMask, "AU payload must be 17 chars"),
            ("AU,1-0101", BadMask, "AU payload must be 17 chars"),
        ],
    )
    def test_bad_class_label_names_the_line(self, tmp_path, payload, error, message):
        path = tmp_path / "a.csv"
        header = "id,split,sequence_id,utterance_id,frame_index,task,payload\n"
        path.write_text(header + f"s0,train,,,,EXPR,6\ns1,train,,,,{payload}\n")
        with pytest.raises(error, match=rf"a\.csv:3: {message}"):
            read_annotation_columns(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "abc"])
    def test_bad_feature_value_names_the_line(self, tmp_path, value):
        path = tmp_path / "f.csv"
        path.write_text(f"id,f0,f1\ns0,1,2\ns1,3,{value}\n")
        with pytest.raises(ConfigError, match=r"f\.csv:3: "):
            read_feature_columns(path)

    def test_huge_finite_features_accepted(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("id,f0,f1\ns0,1e308,1e308\n")
        ids, matrix = read_feature_columns(path)
        assert ids == ["s0"] and np.array_equal(matrix, [[1e308, 1e308]])

    def test_bad_prediction_value_names_the_line(self, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_text(
            "id,frame_index,valence,arousal,expr_probs,au_probs\n"
            "p0,1,0.5,0.25,0.5;zz;0.5,\n"
        )
        with pytest.raises(ConfigError, match=r"preds\.csv:2: .*zz"):
            read_predictions(path)

    def test_load_dataset_missing_feature(self, tmp_path):
        data = self.make_columns()
        write_columns(data, annotations=tmp_path / "a.csv")
        write_columns(data[:2], features=tmp_path / "f.csv")
        with pytest.raises(KeyMisalignment, match="s2"):
            load_dataset(tmp_path / "a.csv", tmp_path / "f.csv")

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("id,task\nx,VA\n")
        with pytest.raises(ConfigError):
            read_annotation_columns(path)

    def test_prediction_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        records = [
            PredictionRecord(
                id="p0",
                frame_index=2,
                valence=0.125,
                arousal=-0.75,
                expr_probs=rng.dirichlet(np.ones(7)),
                au_probs=rng.random(17),
            ),
            PredictionRecord(id="p1"),
        ]
        path = tmp_path / "preds.csv"
        write_predictions(path, records)
        loaded = read_predictions(path)
        assert loaded[0].valence == 0.125
        assert np.array_equal(loaded[0].expr_probs, records[0].expr_probs)
        assert np.array_equal(loaded[0].au_probs, records[0].au_probs)
        assert loaded[1].valence is None and loaded[1].expr_probs is None

    # the bytes written for GOLDEN_RECORDS: csv quoting of the id, empty
    # optional fields and the shortest repr of every float, -0.0 and the
    # smallest subnormal included; float32 input is widened exactly
    GOLDEN_BYTES = (
        b"id,frame_index,valence,arousal,expr_probs,au_probs\n"
        b'"clip 1, ""take"" 2",,-0.0,0.3333333333333333,'
        b"0.3333333333333333;0.3333333333333333;0.3333333333333333;0.0;-0.0;5e-324;0.0,"
        b"1.0;-0.0;5e-324;0.3333333333333333;0.5;0.5;0.5;0.5;0.5;0.5;0.5;0.5;0.5;0.5;0.5;0.5;0.0\n"
        b"f7,7,5e-324,1.0,,\n"
        b",0,,,0.0;0.0;0.0;0.0;0.0;0.0;1.0,"
        + b";".join([b"0.10000000149011612"] * 17)
        + b"\n"
    )

    @staticmethod
    def golden_records():
        third = 1 / 3
        return [
            PredictionRecord(
                id='clip 1, "take" 2',
                frame_index=None,
                valence=-0.0,
                arousal=third,
                expr_probs=np.array([third, third, third, 0.0, -0.0, 5e-324, 0.0]),
                au_probs=np.array([1.0, -0.0, 5e-324, third] + [0.5] * 12 + [0.0]),
            ),
            PredictionRecord(id="f7", frame_index=7, valence=5e-324, arousal=1.0),
            PredictionRecord(
                id="",
                frame_index=0,
                expr_probs=np.eye(7)[6],
                au_probs=np.full(17, 0.1, dtype=np.float32),
            ),
        ]

    def test_prediction_bytes_are_golden(self, tmp_path):
        path = tmp_path / "preds.csv"
        write_predictions(path, self.golden_records())
        assert path.read_bytes() == self.GOLDEN_BYTES

    def test_prediction_bytes_round_trip(self, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_bytes(self.GOLDEN_BYTES)
        again = tmp_path / "again.csv"
        write_predictions(again, read_predictions(path))
        assert again.read_bytes() == self.GOLDEN_BYTES

    ODD_IDS = ["a\nb", "a\rb", "a\r\nb", ' "q" ', "x,y", "", "é;1"]

    @staticmethod
    def csv_line(fields):
        """A row as csv quotes it when both "\\r" and "\\n" end lines,
        ended with "\\n"."""
        out = io.StringIO()
        csv.writer(out, lineterminator="\r\n").writerow(fields)
        return out.getvalue()[:-2] + "\n"

    @pytest.mark.parametrize("rid", ODD_IDS)
    def test_prediction_id_is_quoted_as_csv_quotes_it(self, tmp_path, rid):
        path = tmp_path / "preds.csv"
        write_predictions(path, [PredictionRecord(id=rid, frame_index=3, valence=0.5)])
        expected = self.csv_line(PREDICTION_FIELDS) + self.csv_line([rid, 3, "0.5", "", "", ""])
        assert path.read_bytes() == expected.encode()
        if "\r" in rid:  # a carriage return is quoted, alone or before "\n"
            assert f'\n"{rid}",3,'.encode() in path.read_bytes()

    @pytest.mark.parametrize("rid", ODD_IDS)
    def test_odd_ids_round_trip(self, tmp_path, rid):
        preds = tmp_path / "preds.csv"
        write_predictions(preds, [PredictionRecord(id=rid, frame_index=3, valence=0.5)])
        assert [(r.id, r.frame_index, r.valence) for r in read_predictions(preds)] == [
            (rid, 3, 0.5)
        ]
        data = blank_columns([rid], [[0.25, -1.0]])
        data.sequence_id[0] = data.utterance_id[0] = rid
        data.labels.task[0] = TASKS.index("EXPR")
        data.labels.expr[0] = 2
        write_columns(data, tmp_path / "a.csv", tmp_path / "f.csv")
        loaded = load_dataset(tmp_path / "a.csv", tmp_path / "f.csv")
        assert (loaded.ids, loaded.sequence_id, loaded.utterance_id) == (
            [rid], [rid or None], [rid or None]
        )
        assert np.array_equal(loaded.features, data.features)

    def test_report_round_trip(self, tmp_path):
        metrics = {"va.ccc_v": 0.62357, "expr.accuracy": 0.5, "au.macro_f1": 1 / 3}
        path = tmp_path / "report.txt"
        write_report(path, metrics)
        text = path.read_text()
        assert text.splitlines()[0] == "au.macro_f1 = 0.333333"
        loaded = read_report(path)
        assert loaded["va.ccc_v"] == pytest.approx(0.62357, abs=1e-6)


class TestTraining:
    def test_short_run_produces_artifacts(self, tmp_path):
        result = train_run(small_config(tmp_path))
        assert os.path.exists(result.checkpoint_path)
        assert os.path.exists(result.log_path)
        assert len(result.history) == 2
        row = result.history[0]
        assert {"epoch", "loss", "lr"} <= set(row)
        assert any(k.startswith("val.") for k in row)
        # checkpoint holds every model parameter
        stored = load_checkpoint(result.checkpoint_path)
        assert set(stored) == set(result.model.named_parameters())

    def test_bit_reproducible(self, tmp_path):
        a = train_run(small_config(tmp_path, out_dir=str(tmp_path / "ra")))
        b = train_run(small_config(tmp_path, out_dir=str(tmp_path / "rb")))
        assert a.history[-1]["loss"] == b.history[-1]["loss"]
        for name, p in a.model.named_parameters().items():
            assert np.array_equal(p.data, b.model.named_parameters()[name].data)
        ckpt_a = open(a.checkpoint_path, "rb").read()
        ckpt_b = open(b.checkpoint_path, "rb").read()
        assert ckpt_a == ckpt_b

    def test_train_run_times_its_step_phases(self, tmp_path):
        # 1800 rows in batches of 60: 30 steps per epoch
        feats, ann = generate_dataset(
            SyntheticSpec(train_counts=(600, 600, 600), val_counts=(5, 5, 5), feature_dim=10),
            seed=0, out_dir=str(tmp_path / "big"),
        )
        config = small_config(
            tmp_path, train_annotations=ann, train_features=feats, val_annotations=ann,
            val_features=feats, total_batch=60, epochs=3, coupling="soft+distr",
        )
        phases = {"sampler", "gather", "forward", "loss", "backward", "adam"}
        runs = [train_run(config.override(out_dir=str(tmp_path / n))) for n in "ab"]
        for result in runs:
            assert set(result.phase_s) == phases and result.steps == 3 * 30
            assert all(math.isfinite(s) and s >= 0 for s in result.phase_s.values())
        empty = train_run(config.override(epochs=0, out_dir=str(tmp_path / "empty")))
        assert empty.steps == 0 and empty.phase_s == dict.fromkeys(phases, 0.0)

        # no timing reaches the history, the log, the config or the checkpoint
        a, b = runs
        keys = {k for row in a.history for k in row}
        assert {"epoch", "loss", "lr"} < keys
        assert all(k.startswith("val.") for k in keys - {"epoch", "loss", "lr"})
        with open(a.log_path, encoding="utf-8") as fh:
            assert set(next(csv.reader(fh))) == keys
        with open(tmp_path / "a" / "config.txt", encoding="utf-8") as fh:
            assert [line.split(" = ")[0] for line in fh] == [f.name for f in fields(RunConfig)]
        for path in ("model.ckpt", "training_log.csv"):
            assert (tmp_path / "a" / path).read_bytes() == (tmp_path / "b" / path).read_bytes()

    def test_loss_decreases(self, tmp_path):
        result = train_run(small_config(tmp_path, epochs=8))
        losses = [row["loss"] for row in result.history]
        assert losses[-1] < losses[0]

    def test_lr_decay_schedule(self, tmp_path):
        result = train_run(
            small_config(tmp_path, epochs=4, lr=1e-2, lr_decay=0.5, lr_decay_start=2)
        )
        lrs = [row["lr"] for row in result.history]
        assert lrs[0] == pytest.approx(1e-2)
        assert lrs[1] == pytest.approx(1e-2)
        assert lrs[2] == pytest.approx(5e-3)
        assert lrs[3] == pytest.approx(2.5e-3)

    def test_diverged_loss_detected(self, tmp_path):
        # features at the float maximum overflow the head to inf, which turns
        # the first loss into NaN; the training loop must refuse to optimize
        # through it (a non-finite value in the file is rejected at load)
        data = expr_columns(8)
        data.features[0] = 1e308
        write_columns(data, tmp_path / "ann.csv", tmp_path / "feat.csv")
        cfg = RunConfig(
            feature_dim=10,
            backbone=(),  # passthrough trunk keeps the NaN alive
            heads=("EXPR",),
            epochs=1,
            total_batch=8,
            train_annotations=str(tmp_path / "ann.csv"),
            train_features=str(tmp_path / "feat.csv"),
            out_dir=str(tmp_path / "diverged"),
        )
        with pytest.raises(DivergedLoss), np.errstate(over="ignore", invalid="ignore"):
            train_run(cfg)

    def test_coupling_modes_run(self, tmp_path):
        for mode in ("coannotation", "soft_coannotation", "distr_matching", "soft+distr"):
            cfg = small_config(
                tmp_path, coupling=mode, epochs=1, out_dir=str(tmp_path / mode)
            )
            result = train_run(cfg)
            assert np.isfinite(result.history[-1]["loss"])

    @pytest.mark.parametrize("mode,coupling", [
        ("none", []),
        ("soft_coannotation", ["soft"]),
        ("distr_matching", ["dm"]),
        ("soft+distr", ["soft", "dm"]),
    ])
    def test_one_loss_total_per_step(self, tmp_path, monkeypatch, mode, coupling):
        # every step's loss, multi-task and coupling terms alike, is one
        # objective node over the heads, and it is the root of the step's sweep
        calls, roots, built = [], [], []
        build = RelatednessTable.conditional_matrix

        def spy(preds, labels, lambda1, lambda2, mixture):
            node = objective(preds, labels, lambda1, lambda2, mixture)
            calls.append((preds, labels, (lambda1, lambda2), mixture, node))
            return node

        monkeypatch.setattr(training, "objective", spy)
        monkeypatch.setattr(
            training, "backward", lambda root, wrt: roots.append(root) or backward(root, wrt)
        )
        monkeypatch.setattr(
            RelatednessTable, "conditional_matrix",
            lambda table, reweight=False: built.append(build(table, reweight)) or built[-1],
        )
        cfg = small_config(
            tmp_path, coupling=mode, lambda1=0.7, lambda2=1.3, epochs=1,
            val_annotations="", val_features="",
        )
        train_run(cfg)
        assert roots and [node for *_, node in calls] == roots
        # the mixture is made once per job, and only for distribution matching
        assert len(built) == ("dm" in coupling)
        if built:
            want = build(cfg.relatedness_table(), cfg.reweight_mixture)
            assert np.array_equal(built[0], want)
        for preds, labels, lambdas, mixture, node in calls:
            assert lambdas == (0.7, 1.3)
            assert mixture is (built[0] if built else None)
            assert [p for p, _ in node._edges] == [preds.expr_logits, preds.va, preds.au_logits]
        # co-annotation gives some AU rows soft targets
        assert any(labels.soft.any() for _, labels, *_ in calls) == ("soft" in coupling)

    def test_freeze_trunk(self, tmp_path, monkeypatch):
        self.check_frozen_job(tmp_path, monkeypatch, "none")

    def test_freeze_trunk_recurrent(self, tmp_path, monkeypatch):
        self.check_frozen_job(tmp_path, monkeypatch, "single:6x1")

    @staticmethod
    def check_frozen_job(tmp_path, monkeypatch, recurrent):
        """A job from ``init_from`` with ``freeze_trunk`` computes no trunk
        gradient, runs no BPTT and keeps the trunk's bytes."""
        # each GRU node's edges count their calls: any call runs its BPTT
        bptt = []
        real = ad.gru_sequence

        def spy(*args):
            node = real(*args)
            node._edges = tuple((p, lambda g, f=f: bptt.append(f) or f(g)) for p, f in node._edges)
            return node

        monkeypatch.setattr(ad, "gru_sequence", spy)
        donor = train_run(
            small_config(tmp_path, recurrent=recurrent, out_dir=str(tmp_path / "donor"))
        )
        assert bool(bptt) == (recurrent != "none")
        bptt.clear()
        cfg = small_config(
            tmp_path,
            recurrent=recurrent,
            init_from=donor.checkpoint_path,
            freeze_trunk=True,
            epochs=1,
            out_dir=str(tmp_path / "frozen"),
        )
        result = train_run(cfg)
        assert not bptt
        donor_params = load_checkpoint(donor.checkpoint_path)
        for name, p in result.model.named_parameters().items():
            if name.startswith("head."):
                assert p.grad is not None
                continue
            assert p.grad is None, name  # no trunk gradient was computed
            assert p.data.tobytes() == donor_params[name].tobytes(), name

    def test_failed_history_write_leaves_the_run_state(self, tmp_path, monkeypatch):
        config = small_config(tmp_path, epochs=1)
        train_run(config)
        out = tmp_path / "run"
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert sorted(before) == ["config.txt", "model.ckpt", "training_log.csv"]

        class Failing(csv.DictWriter):
            def writerow(self, row):
                raise OSError("no space left on device")

        monkeypatch.setattr(training.csv, "DictWriter", Failing)
        with pytest.raises(OSError, match="no space"):
            train_run(config.override(epochs=2))
        # the checkpoint and config of the second run were written whole,
        # and the log it failed to write is the first run's
        after = {p.name: p.read_bytes() for p in out.iterdir()}
        assert sorted(after) == sorted(before)
        assert after["training_log.csv"] == before["training_log.csv"]
        assert after["config.txt"] != before["config.txt"]
        load_checkpoint(out / "model.ckpt")

    def test_shared_train_and_val_files_are_parsed_once(self, tmp_path, monkeypatch):
        # coannotation writes into the training labels; the validation split
        # must not see it, whether it comes from the same parse or not
        # a plain feature file is opened through open_text, any other file
        # through open_rows; a fallback would open the feature file twice
        opened = []
        for name in ("open_rows", "open_text"):
            real = getattr(dataio, name)
            monkeypatch.setattr(
                dataio, name, lambda path, real=real: opened.append(path) or real(path)
            )
        shared = small_config(tmp_path, coupling="coannotation")
        ann, feats = str(tmp_path / "copy_ann.csv"), str(tmp_path / "copy_feat.csv")
        shutil.copyfile(shared.train_annotations, ann)
        shutil.copyfile(shared.train_features, feats)
        runs = []
        for config in (shared, shared.override(val_annotations=ann, val_features=feats)):
            opened.clear()
            runs.append((train_run(config).history, len(opened)))
        (shared_history, shared_opens), (copy_history, copy_opens) = runs
        assert (shared_opens, copy_opens) == (2, 4)
        assert shared_history == copy_history and "val.expr.accuracy" in shared_history[0]

    def test_compound_transfer(self, tmp_path):
        donor = train_run(small_config(tmp_path, out_dir=str(tmp_path / "donor")))

        rows = np.arange(20)
        features = np.random.default_rng(0).normal(size=(20, 10))
        data = blank_columns([f"c{i:03d}" for i in rows], features)
        data.labels.task[:], data.labels.compound[:] = TASKS.index("COMPOUND"), rows % 11
        data.compound_pair[:] = np.stack([1 + rows % 5, np.full(20, 6)], axis=1)
        write_columns(data, tmp_path / "compound_ann.csv", tmp_path / "compound_feat.csv")

        cfg = small_config(
            tmp_path,
            heads=("COMPOUND",),
            train_annotations=str(tmp_path / "compound_ann.csv"),
            train_features=str(tmp_path / "compound_feat.csv"),
            val_annotations="",
            val_features="",
            init_from=donor.checkpoint_path,
            freeze_trunk=True,
            epochs=2,
            total_batch=8,
            out_dir=str(tmp_path / "compound"),
        )
        result = train_run(cfg)
        assert np.isfinite(result.history[-1]["loss"])
        donor_params = load_checkpoint(donor.checkpoint_path)
        trunk = result.model.named_parameters()["backbone.s0.l0.w"]
        assert np.array_equal(trunk.data, donor_params["backbone.s0.l0.w"])

    def test_load_model_round_trip(self, tmp_path):
        result = train_run(small_config(tmp_path))
        reloaded = load_model(result.config, result.checkpoint_path)
        for name, p in result.model.named_parameters().items():
            assert np.array_equal(p.data, reloaded.named_parameters()[name].data)

    def test_requires_train_paths(self):
        with pytest.raises(ConfigError):
            train_run(RunConfig())


class TestEvaluate:
    def test_metric_keys(self, tmp_path):
        result = train_run(small_config(tmp_path))
        val = val_split()
        metrics, records = evaluate_model(result.model, val)
        expected = {
            "va.ccc_v", "va.ccc_a", "va.mse_v", "va.mse_a",
            "expr.accuracy", "expr.f1", "expr.mean_diagonal", "expr.e_total",
            "au.macro_f1", "au.total_acc", "au.afa", "au.e_total",
            "degenerate_count",
        }
        assert expected <= set(metrics)
        assert len(records) == len(val.ids)
        # a full-head model predicts every quantity for every sample
        assert all(r.valence is not None for r in records)
        assert all(r.expr_probs is not None for r in records)

    def test_task_subset(self, tmp_path):
        result = train_run(small_config(tmp_path))
        val = val_split()
        metrics, _ = evaluate_model(result.model, val, tasks=["EXPR"])
        assert "expr.accuracy" in metrics
        assert "va.ccc_v" not in metrics

    def test_missing_head_rejected(self, tmp_path):
        cfg = small_config(tmp_path, heads=("EXPR",))
        result = train_run(cfg)
        val = val_split()
        with pytest.raises(IncompatibleHeads):
            evaluate_model(result.model, val)
        metrics, _ = evaluate_model(result.model, val, tasks=["EXPR"])
        assert 0.0 <= metrics["expr.accuracy"] <= 1.0

    def test_unknown_task_rejected(self, tmp_path):
        result = train_run(small_config(tmp_path))
        val = val_split()
        with pytest.raises(IncompatibleHeads):
            evaluate_model(result.model, val, tasks=["GAZE"])

    def test_constant_model_hits_chance_recall(self):
        model = Model(
            ModelSpec(backbone=(4,), heads=("EXPR",)), InputDims(features=10), seed=0
        )
        zeros = {n: np.zeros_like(p.data) for n, p in model.named_parameters().items()}
        load_parameters(model, zeros)
        metrics, _ = evaluate_model(model, expr_columns(70, seed=3))
        # every row predicts the same class: recall 1 on one class, 0 elsewhere
        assert metrics["expr.mean_diagonal"] == pytest.approx(1 / 7)
        assert metrics["expr.accuracy"] == pytest.approx(1 / 7)

    def test_compound_metrics_of_a_known_confusion(self):
        # no trunk and an identity head: each row predicts the class its
        # one-hot feature row names
        truth, pred = [0, 0, 0, 1, 1, 2], [0, 0, 1, 1, 2, 2]
        data = blank_columns([f"c{i}" for i in range(6)], np.eye(3)[pred])
        data.labels.task[:], data.labels.compound[:] = TASKS.index("COMPOUND"), truth
        model = Model(ModelSpec(heads=("COMPOUND",), compound_classes=3), InputDims(3), seed=0)
        load_parameters(model, {"head.compound.w": np.eye(3), "head.compound.b": np.zeros(3)})
        metrics, records = evaluate_model(model, data)
        # confusion, rows by true class: [2, 1, 0], [0, 1, 1], [0, 0, 1]
        assert metrics["compound.accuracy"] == 4 / 6
        assert metrics["compound.mean_diagonal"] == pytest.approx((2 / 3 + 1 / 2 + 1) / 3)
        # per-class F1: 2*2/(2+3), 2*1/(2+2), 2*1/(2+1)
        assert metrics["compound.f1"] == pytest.approx((4 / 5 + 1 / 2 + 2 / 3) / 3)
        assert set(metrics) == {
            "compound.accuracy", "compound.f1", "compound.mean_diagonal", "degenerate_count"
        }
        assert metrics["degenerate_count"] == 0.0 and len(records) == 6

    def test_audio_model_on_a_split_names_its_first_row(self):
        # no split carries audio, so a two-stream model is refused
        config = RunConfig(feature_dim=10, audio_dim=3, streams=2, heads=("EXPR",))
        model = Model(config.model_spec(), config.input_dims(), seed=0)
        val = val_split()
        with pytest.raises(ConfigError, match=f"^{val.ids[0]}: audio_dim set but sample has no"):
            evaluate_model(model, val)
        evaluate_model(model, val[:0])  # an empty split has no row to refuse


class TestGradChecks:
    def test_all_pass(self):
        results = run_grad_checks(n_points=25)
        assert set(results) == set(CHECKS)
        for name, err in results.items():
            assert err < 1e-4, f"{name}: {err}"

    def test_battery_names_and_tolerance(self):
        assert GRAD_TOLERANCE == 1e-4
        assert sorted(CHECKS) == [
            "layer.dense", "layer.dropout_off", "layer.gru", "layer.gru_packed", "loss.ccc",
            "loss.cce", "loss.distribution_matching", "loss.masked_bce", "loss.multitask",
            "loss.soft_target",
        ]

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            run_grad_checks(names=["loss.telepathy"])

    def test_detects_wrong_gradient(self):
        # a deliberately broken backward edge must trip the checker
        w = DiffTensor(np.array([1.5, -0.5, 2.0]))

        def broken_square(x):
            return DiffTensor(x.data * x.data, edges=((x, lambda g: g * x.data),))

        err = max_relative_error(lambda: tsum(broken_square(w)), [w], n_points=3)
        assert err > 0.1

    def test_accepts_correct_gradient(self):
        w = DiffTensor(np.array([1.5, -0.5, 2.0]))
        err = max_relative_error(lambda: tsum(square(w)), [w], n_points=3)
        assert err < 1e-6


class TestCLI:
    def run_cli(self, *args):
        return main([str(a) for a in args])

    def test_usage_error_is_exit_1(self, capsys):
        assert self.run_cli("train") == 1
        assert "--config" in capsys.readouterr().err

    def test_unknown_command_is_exit_1(self):
        assert self.run_cli("transmogrify") == 1

    def test_runtime_error_is_exit_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.cfg"
        assert self.run_cli("train", "--config", missing) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("canonical_text", ["", "frame,x1,y1,x2,y2,x3,y3,x4,y4,x5,y5\n"])
    def test_align_with_empty_canonical_is_exit_2(self, tmp_path, capsys, canonical_text):
        landmarks = tmp_path / "faces.landmarks"
        landmarks.write_text(
            "frame,x1,y1,x2,y2,x3,y3,x4,y4,x5,y5\n0,30,40,66,40,48,56,34,76,62,76\n"
        )
        canonical = tmp_path / "canonical.landmarks"
        canonical.write_text(canonical_text)
        code = self.run_cli(
            "align", "--landmarks", landmarks, "--canonical", canonical,
            "--out", tmp_path / "out.landmarks",
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "canonical.landmarks" in err and "Traceback" not in err

    def test_align_with_short_landmark_row_is_exit_2(self, tmp_path, capsys):
        landmarks = tmp_path / "faces.landmarks"
        landmarks.write_text("frame,x1,y1,x2,y2,x3,y3,x4,y4,x5,y5\n0,30,40\n")
        code = self.run_cli("align", "--landmarks", landmarks, "--out", tmp_path / "o")
        err = capsys.readouterr().err
        assert code == 2
        assert "faces.landmarks:2:" in err and "Traceback" not in err

    def test_align_with_duplicate_frame_is_exit_2(self, tmp_path, capsys):
        landmarks = tmp_path / "faces.landmarks"
        row = "0,30,40,66,40,48,56,34,76,62,76\n"
        landmarks.write_text("frame,x1,y1,x2,y2,x3,y3,x4,y4,x5,y5\n" + row + row)
        code = self.run_cli("align", "--landmarks", landmarks, "--out", tmp_path / "o")
        err = capsys.readouterr().err
        assert code == 2
        assert "faces.landmarks:3: duplicate frame 0" in err and "Traceback" not in err

    @pytest.mark.parametrize("bad", ["zz", "nan", "inf"])
    def test_align_with_a_bad_coordinate_is_exit_2(self, tmp_path, capsys, bad):
        landmarks = tmp_path / "faces.landmarks"
        landmarks.write_text(
            f"frame,x1,y1,x2,y2,x3,y3,x4,y4,x5,y5\n0,30,40,66,40,48,56,34,76,62,{bad}\n"
        )
        out = tmp_path / "o"
        code = self.run_cli("align", "--landmarks", landmarks, "--out", out)
        err = capsys.readouterr().err
        assert code == 2
        assert "faces.landmarks:2:" in err and "Traceback" not in err and not out.exists()

    def test_align_names_the_file_and_frame_of_a_collinear_set(self, tmp_path, capsys):
        landmarks = tmp_path / "faces.landmarks"
        landmarks.write_text(
            "frame,x1,y1,x2,y2,x3,y3,x4,y4,x5,y5\n"
            "0,30,40,66,40,48,56,34,76,62,76\n"
            "1,0,1,1,3,2,5,3,7,4,9\n"
        )
        out = tmp_path / "out.landmarks"
        code = self.run_cli("align", "--landmarks", landmarks, "--out", out)
        err = capsys.readouterr().err
        assert code == 2
        assert f"{landmarks}: frame 1: source landmarks are collinear" in err
        assert "Traceback" not in err and not out.exists()

    def test_spectrogram_with_bad_audio_header_is_exit_2(self, tmp_path, capsys):
        audio = tmp_path / "clip.audio"
        audio.write_bytes(b"rate 16000\nlen 4\n" + bytes(32))
        code = self.run_cli("spectrogram", "--audio", audio, "--out", tmp_path / "s.csv")
        err = capsys.readouterr().err
        assert code == 2
        assert "clip.audio: bad audio header" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "body,message",
        [
            (b"rate 16000\nlength 1000000000000000000000000000000\n" + bytes(32),
             "clip.audio: audio body has 32 bytes, expected 8000000000000000000000000000000"),
            (b"rate 16000\nlength 2\n" + np.array([0.5, np.nan]).tobytes(),
             "clip.audio: non-finite audio sample at index 1"),
        ],
        ids=["length_1e30", "nan_sample"],
    )
    def test_spectrogram_with_bad_audio_body_is_exit_2(self, tmp_path, capsys, body, message):
        audio = tmp_path / "clip.audio"
        audio.write_bytes(body)
        code = self.run_cli("spectrogram", "--audio", audio, "--out", tmp_path / "s.csv")
        err = capsys.readouterr().err
        assert code == 2
        assert message in err and "Traceback" not in err

    def test_spectrogram_with_a_zero_sample_hop_is_exit_2(self, tmp_path, capsys):
        audio = tmp_path / "clip.audio"
        write_audio(audio, 1000, np.sin(np.arange(200) * 0.3))
        code = self.run_cli(
            "spectrogram", "--audio", audio, "--window-ms", 1.0, "--overlap-ms", 0.99,
            "--out", tmp_path / "s.csv",
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "at least 1" in err and "Traceback" not in err
        assert not (tmp_path / "s.csv").exists()

    def output_command(self, tmp_path, command):
        """The arguments of one ``command`` run and the output file it
        writes that the test makes fail; that file and the command's other
        outputs exist beforehand."""
        out = tmp_path / "out.csv"
        if command == "zero-shot":
            inputs = tmp_path / "preds.csv"
            write_predictions(inputs, [
                PredictionRecord(id=f"f{i}", valence=0.5, expr_probs=np.full(7, 1 / 7),
                                 au_probs=np.full(17, 0.5))
                for i in range(3)
            ])
            args = ["zero-shot", "--predictions", inputs, "--out", out]
        elif command == "align":
            inputs = tmp_path / "faces.landmarks"
            inputs.write_text(
                "frame,x1,y1,x2,y2,x3,y3,x4,y4,x5,y5\n"
                "0,30,40,66,40,48,56,34,76,62,76\n1,31,41,65,40,48,57,34,75,62,77\n"
            )
            args = ["align", "--landmarks", inputs, "--out", out]
        elif command == "spectrogram":
            inputs = tmp_path / "clip.audio"
            write_audio(inputs, 1000, np.sin(np.arange(200) * 0.3))
            args = ["spectrogram", "--audio", inputs, "--window-ms", 40, "--overlap-ms", 20,
                    "--out", out]
        elif command.startswith("eval"):
            cfg = self.write_expr_data(tmp_path, feature_dim=10)
            config = RunConfig.from_file(cfg)
            model = Model(config.model_spec(), config.input_dims(), seed=0)
            save_checkpoint(
                tmp_path / "model.ckpt", {n: p.data for n, p in model.named_parameters().items()}
            )
            report, preds = tmp_path / "report.txt", tmp_path / "preds.csv"
            out = report if command == "eval-report" else preds
            args = [
                "eval", "--config", cfg, "--checkpoint", tmp_path / "model.ckpt",
                "--annotations", tmp_path / "ann.csv", "--features", tmp_path / "feat.csv",
                "--out", report, "--predictions", preds,
            ]
        elif command == "fuse":
            preds = tmp_path / "p0.csv"
            write_predictions(
                preds, [PredictionRecord(id=f"f{i}", valence=0.25, arousal=-0.5) for i in range(4)]
            )
            manifest = tmp_path / "members.csv"
            manifest.write_text(f"member_id,ccc_v,ccc_a,path\nm0,0.5,0.3,{preds}\n")
            args = ["fuse", "--manifest", manifest, "--out", out]
        else:
            spec = tmp_path / "spec.cfg"
            spec.write_text("train_counts = 3,3,3\nval_counts = 1,1,1\nfeature_dim = 8\n")
            out = tmp_path / "data" / command[len("gen-data-"):]
            args = ["gen-data", "--spec", spec, "--out", tmp_path / "data"]
            os.makedirs(tmp_path / "data")
            for name in ("features.csv", "annotations.csv"):
                (tmp_path / "data" / name).write_bytes(b"previous output\n")
        for path in (out, tmp_path / "report.txt", tmp_path / "preds.csv"):
            if command.startswith("eval") or path == out:
                path.write_bytes(b"previous output\n")
        return args, out

    @pytest.mark.parametrize("command", [
        "zero-shot", "align", "spectrogram", "eval-report", "eval-predictions", "fuse",
        "gen-data-features.csv", "gen-data-annotations.csv",
    ])
    def test_an_output_write_failing_midway_keeps_the_previous_file(
        self, tmp_path, monkeypatch, capsys, command
    ):
        args, out = self.output_command(tmp_path, command)
        before = sorted(os.listdir(out.parent))
        # two writes reach the output (a header and a record, or two report
        # lines), then the disk fills
        writes = []
        real_open = open

        class FillingFile:
            def __init__(self, fh):
                self.fh = fh

            def write(self, text):
                writes.append(text)
                if len(writes) == 3:
                    raise OSError("no space left on device")
                return self.fh.write(text)

            def writelines(self, lines):
                for line in lines:
                    self.write(line)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return self.fh.__exit__(*exc)

        def open_(path, mode="r", **kwargs):
            fh = real_open(path, mode, **kwargs)
            writing_out = "w" in mode and os.fspath(path).startswith(os.fspath(out))
            return FillingFile(fh) if writing_out else fh

        monkeypatch.setattr(csvfile, "open", open_, raising=False)
        assert self.run_cli(*args) == 2
        assert "no space left" in capsys.readouterr().err
        assert len(writes) == 3
        assert out.read_bytes() == b"previous output\n"
        assert sorted(os.listdir(out.parent)) == before
        monkeypatch.undo()
        assert self.run_cli(*args) == 0
        assert out.read_bytes() != b"previous output\n"

    @pytest.mark.parametrize("command", ["train", "gen-data"])
    def test_repeated_config_key_is_exit_2(self, tmp_path, capsys, command):
        cfg = tmp_path / "repeat.cfg"
        cfg.write_text("feature_dim = 10\nfeature_dim = 12\n")
        if command == "train":
            code = self.run_cli("train", "--config", cfg)
        else:
            code = self.run_cli("gen-data", "--spec", cfg, "--out", tmp_path / "data")
        err = capsys.readouterr().err
        assert code == 2
        assert "repeat.cfg:2: 'feature_dim' is set twice" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "command,text,message",
        [
            ("train", "seed = 1\n\nepochs = soon\n", "bad.cfg:3: bad value for 'epochs': invalid"),
            ("train", "# x\nshuffle = maybe\n", "bad.cfg:2: bad value for 'shuffle': expected a b"),
            ("train", "seed = 1\nlearning_speed = 2\n", "bad.cfg:2: unknown key 'learning_speed'"),
            ("gen-data", "sigma = 0.1\nfeature_dim = abc\n", "bad.cfg:2: bad value for 'feature_dim'"),
            ("gen-data", "train_counts = 1,2\n", "bad.cfg:1: bad value for 'train_counts': expected t"),
            ("gen-data", "\nseed = 3\n", "bad.cfg:2: unknown key 'seed'"),
            ("gen-data", "sigma = 0.1\ntrain_counts = -5,2,2\n",
             "bad.cfg:2: bad value for 'train_counts': expected three counts >= 0, got '-5,2,2'"),
            ("gen-data", "train_counts = 0,0,0\nval_counts = 0,0,0\n",
             "bad.cfg: train_counts=(0, 0, 0), val_counts=(0, 0, 0): counts must be >= 0 and "
             "not all"),
            # values that parse but that validation refuses name the file
            ("train", "seed = 1\nlr = -1\n", "bad.cfg: lr = -1.0 must be finite and positive"),
            ("train", "dropout = 1.5\n", "bad.cfg: dropout=1.5 outside [0,1)"),
            ("train", "feature_dim = -3\n", "bad.cfg: feature_dim = -3 must be >= 1"),
            ("train", "seed = -1\n", "bad.cfg: seed = -1 must be >= 0"),
            ("train", "ensemble_members = -2\n", "bad.cfg: ensemble_members = -2 must be >= 0"),
            ("gen-data", "sigma = nan\n", "bad.cfg: sigma=nan must be finite and >= 0"),
            ("gen-data", "sigma = inf\n", "bad.cfg: sigma=inf must be finite and >= 0"),
            # one validation path without the other would skip validation
            ("train", "val_annotations = a.csv\n",
             "bad.cfg: set both val_annotations and val_features, or neither"),
            ("train", "val_features = f.csv\n",
             "bad.cfg: set both val_annotations and val_features, or neither"),
        ],
        ids=[
            "train_int", "train_bool", "train_key", "gen_int", "gen_counts", "gen_key",
            "gen_negative", "gen_empty", "train_refused", "train_refused_spec",
            "train_feature_dim", "train_seed", "train_ensemble_members", "gen_sigma_nan",
            "gen_sigma_inf", "train_val_annotations_alone", "train_val_features_alone",
        ],
    )
    def test_config_errors_name_the_line(self, tmp_path, capsys, command, text, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        if command == "train":
            code = self.run_cli("train", "--config", cfg)
        else:
            code = self.run_cli("gen-data", "--spec", cfg, "--out", tmp_path / "data")
        err = capsys.readouterr().err
        assert code == 2
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["train", "gen-data"])
    def test_config_byte_that_is_not_utf8_names_its_line(self, tmp_path, capsys, command):
        cfg = tmp_path / "bytes.cfg"
        cfg.write_bytes(b"# header\r\nfeature_dim = 8\rsigma = \xff\n")
        if command == "train":
            code = self.run_cli("train", "--config", cfg)
        else:
            code = self.run_cli("gen-data", "--spec", cfg, "--out", tmp_path / "data")
        err = capsys.readouterr().err
        assert code == 2
        assert "bytes.cfg:3: not UTF-8 text" in err and "Traceback" not in err

    def test_train_with_audio_dim_is_exit_2(self, tmp_path, capsys):
        self.write_expr_data(tmp_path, feature_dim=10)
        config = RunConfig(
            feature_dim=10, audio_dim=3, streams=2, heads=("EXPR",),
            train_annotations=str(tmp_path / "ann.csv"), train_features=str(tmp_path / "feat.csv"),
            out_dir=str(tmp_path / "run"),
        )
        config.to_file(tmp_path / "two_stream.cfg")
        code = self.run_cli("train", "--config", tmp_path / "two_stream.cfg")
        err = capsys.readouterr().err
        assert code == 2
        assert "audio_dim = 3, but no reader supplies audio features" in err
        assert "Traceback" not in err and not (tmp_path / "run").exists()

    def test_train_with_landmark_concat_is_exit_2_before_any_read(self, tmp_path, capsys):
        # the data paths do not exist, so the error comes before any read
        config = RunConfig(
            feature_dim=10, landmark_dim=10, landmark_concat=True, heads=("EXPR",),
            train_annotations=str(tmp_path / "missing_ann.csv"),
            train_features=str(tmp_path / "missing_feat.csv"), out_dir=str(tmp_path / "run"),
        )
        config.to_file(tmp_path / "landmarks.cfg")
        code = self.run_cli("train", "--config", tmp_path / "landmarks.cfg")
        err = capsys.readouterr().err
        assert code == 2
        assert "landmark_concat = true, but no reader supplies landmark features" in err
        assert "Traceback" not in err and not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "line,message",
        [
            ("lr = -1", "lr = -1.0 must be finite and positive"),
            ("lr = nan", "lr = nan must be finite and positive"),
            ("lr = 0", "lr = 0.0 must be finite and positive"),
            ("au_threshold = 7", "au_threshold = 7.0 must be in [0, 1]"),
            ("lambda1 = -1", "lambda1 = -1.0 must be finite and >= 0"),
            ("seed = -1", "seed = -1 must be >= 0"),
        ],
        ids=[
            "lr_negative", "lr_nan", "lr_zero", "au_threshold_7", "lambda1_negative",
            "seed_negative",
        ],
    )
    def test_train_with_an_out_of_range_value_is_exit_2_before_any_read(
        self, tmp_path, capsys, line, message
    ):
        # the data paths do not exist, so the error comes before any read
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(
            f"{line}\ntrain_annotations = {tmp_path / 'missing_ann.csv'}\n"
            f"train_features = {tmp_path / 'missing_feat.csv'}\nout_dir = {tmp_path / 'run'}\n"
        )
        code = self.run_cli("train", "--config", cfg)
        err = capsys.readouterr().err
        assert code == 2
        assert message in err and "Traceback" not in err and not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["gen-data", "train", "grad-check"])
    def test_negative_seed_flag_is_a_usage_error(self, tmp_path, capsys, command):
        # numpy would refuse the seed later, without naming the flag; the
        # config file is missing, so train fails while parsing its arguments
        args = {"gen-data": ["--out", tmp_path / "data"], "train": ["--config", tmp_path / "x.cfg"]}
        code = self.run_cli(command, "--seed", -1, *args.get(command, []))
        err = capsys.readouterr().err
        assert code == 1 and "Traceback" not in err
        assert "argument --seed: expected an integer >= 0, got '-1'" in err
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize("case", ["train_epochs_0", "val", "eval"])
    def test_feature_file_of_another_width_is_named_before_a_model_is_built(
        self, tmp_path, capsys, case
    ):
        # with 0 epochs no batch reaches the model; eval's checkpoint is
        # missing, so the check runs before the model is built
        cfg = self.write_expr_data(tmp_path, feature_dim=10 if case == "val" else 16)
        if case == "eval":
            code = self.run_cli(
                "eval", "--config", cfg, "--checkpoint", tmp_path / "missing.ckpt",
                "--annotations", tmp_path / "ann.csv", "--features", tmp_path / "feat.csv",
                "--out", tmp_path / "report.txt",
            )
        elif case == "val":
            val = blank_columns(["v0", "v1"], np.zeros((2, 12)), split="val")
            val.labels.task[:], val.labels.expr[:] = TASKS.index("EXPR"), 0
            write_columns(val, tmp_path / "val_ann.csv", tmp_path / "val_feat.csv")
            RunConfig.from_file(cfg).override(
                val_annotations=str(tmp_path / "val_ann.csv"),
                val_features=str(tmp_path / "val_feat.csv"),
            ).to_file(cfg)
            code = self.run_cli("train", "--config", cfg)
        else:
            code = self.run_cli("train", "--config", cfg, "--epochs", 0)
        err = capsys.readouterr().err
        assert code == 2 and "Traceback" not in err
        if case == "val":
            assert "val_feat.csv: features dim 12, model expects 10" in err
        else:
            assert "feat.csv: features dim 10, model expects 16" in err
        assert not (tmp_path / "run").exists() and not (tmp_path / "report.txt").exists()

    def test_eval_with_au_threshold_7_is_exit_2_before_any_read(self, tmp_path, capsys):
        cfg = self.write_expr_data(tmp_path, feature_dim=10)
        code = self.run_cli(
            "eval", "--config", cfg, "--checkpoint", tmp_path / "missing.ckpt",
            "--annotations", tmp_path / "ann.csv", "--features", tmp_path / "feat.csv",
            "--out", tmp_path / "report.txt", "--au-threshold", 7,
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "au_threshold = 7.0 must be in [0, 1]" in err and "Traceback" not in err
        assert not (tmp_path / "report.txt").exists()

    def test_eval_takes_au_threshold_from_the_config(self, tmp_path, capsys):
        # without --au-threshold, eval scores AUs at the run's own threshold
        cfg = small_config(tmp_path, au_threshold=0.3, epochs=1)
        result = train_run(cfg)
        reports = {}
        for flag in ((), ("--au-threshold", 0.3), ("--au-threshold", 0.5)):
            out = tmp_path / f"report{len(reports)}.txt"
            assert self.run_cli(
                "eval", "--config", os.path.join(cfg.out_dir, "config.txt"),
                "--checkpoint", result.checkpoint_path, "--annotations", cfg.val_annotations,
                "--features", cfg.val_features, "--split", "val", "--out", out, *flag,
            ) == 0
            reports[flag] = out.read_bytes()
        capsys.readouterr()
        assert reports[()] == reports[("--au-threshold", 0.3)]
        assert reports[()] != reports[("--au-threshold", 0.5)]

    def test_gen_data_writes_its_two_files_as_a_pair(self, tmp_path, monkeypatch, capsys):
        # the feature file is complete when the annotation write fails, yet
        # neither file is replaced
        spec = tmp_path / "spec.cfg"
        spec.write_text("train_counts = 3,3,3\nval_counts = 1,1,1\nfeature_dim = 8\n")
        data = tmp_path / "data"
        os.makedirs(data)
        for name in ("features.csv", "annotations.csv"):
            (data / name).write_bytes(b"previous output\n")
        written = []

        def failing_annotations(path, columns):
            written.extend(os.listdir(data))
            with csvfile.atomic_write(path, "w", encoding="utf-8") as fh:
                fh.write("id,split\n")
                raise OSError("no space left on device")

        monkeypatch.setattr(synth, "write_annotations", failing_annotations)
        assert self.run_cli("gen-data", "--spec", spec, "--out", data) == 2
        assert "no space left" in capsys.readouterr().err
        assert any(name.startswith("features.csv.") for name in written)
        assert sorted(os.listdir(data)) == ["annotations.csv", "features.csv"]
        for name in ("features.csv", "annotations.csv"):
            assert (data / name).read_bytes() == b"previous output\n"
        monkeypatch.undo()
        assert self.run_cli("gen-data", "--spec", spec, "--out", data) == 0
        assert all((data / n).read_bytes() != b"previous output\n" for n in os.listdir(data))

    def test_eval_writes_what_scoring_the_split_writes(self, tmp_path, capsys):
        # ``eval`` writes the report and predictions of ``evaluate_model`` on
        # the split that ``load_dataset`` reads
        spec = SyntheticSpec(train_counts=(12, 12, 12), val_counts=(9, 9, 9), feature_dim=10)
        feats, ann = generate_dataset(spec, 4, str(tmp_path / "data"))
        config = RunConfig(feature_dim=10, backbone=(6,), heads=("EXPR", "AU", "VA"))
        config.to_file(tmp_path / "run.cfg")
        model = Model(config.model_spec(), config.input_dims(), seed=3)
        save_checkpoint(
            tmp_path / "model.ckpt", {n: p.data for n, p in model.named_parameters().items()}
        )
        metrics, records = evaluate_model(model, load_dataset(ann, feats, split="val"))
        write_report(tmp_path / "want_report.txt", metrics)
        write_predictions(tmp_path / "want_preds.csv", records)
        assert self.run_cli(
            "eval", "--config", tmp_path / "run.cfg", "--checkpoint", tmp_path / "model.ckpt",
            "--annotations", ann, "--features", feats, "--split", "val",
            "--out", tmp_path / "report.txt", "--predictions", tmp_path / "preds.csv",
        ) == 0
        capsys.readouterr()
        for got, want in (("report.txt", "want_report.txt"), ("preds.csv", "want_preds.csv")):
            assert (tmp_path / got).read_bytes() == (tmp_path / want).read_bytes()

    def test_eval_two_stream_model_without_audio_is_exit_2(self, tmp_path, capsys):
        self.write_expr_data(tmp_path, feature_dim=10)
        config = RunConfig(feature_dim=10, audio_dim=3, streams=2, heads=("EXPR",))
        config.to_file(tmp_path / "two_stream.cfg")
        model = Model(config.model_spec(), config.input_dims(), seed=0)
        save_checkpoint(
            tmp_path / "two_stream.ckpt",
            {name: p.data for name, p in model.named_parameters().items()},
        )
        code = self.run_cli(
            "eval",
            "--config", tmp_path / "two_stream.cfg",
            "--checkpoint", tmp_path / "two_stream.ckpt",
            "--annotations", tmp_path / "ann.csv",
            "--features", tmp_path / "feat.csv",
            "--out", tmp_path / "report.txt",
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "x0: audio_dim set but sample has no audio" in err and "Traceback" not in err
        assert not (tmp_path / "report.txt").exists()

    def write_expr_data(self, tmp_path, feature_dim):
        write_columns(expr_columns(8), tmp_path / "ann.csv", tmp_path / "feat.csv")
        cfg_file = tmp_path / "run.cfg"
        RunConfig(
            feature_dim=feature_dim,
            backbone=(),
            heads=("EXPR",),
            epochs=1,
            total_batch=8,
            train_annotations=str(tmp_path / "ann.csv"),
            train_features=str(tmp_path / "feat.csv"),
            out_dir=str(tmp_path / "run"),
        ).to_file(cfg_file)
        return cfg_file

    def test_train_with_wrong_feature_dim_is_exit_2(self, tmp_path, capsys):
        cfg_file = self.write_expr_data(tmp_path, feature_dim=16)
        code = self.run_cli("train", "--config", cfg_file)
        err = capsys.readouterr().err
        assert code == 2
        assert "features dim 10, model expects 16" in err and "Traceback" not in err

    def test_train_validating_on_files_without_val_rows_is_exit_2(self, tmp_path, capsys):
        # the validation split names the training files, which hold no val row
        cfg_file = self.write_expr_data(tmp_path, feature_dim=10)
        config = RunConfig.from_file(cfg_file)
        config.override(
            val_annotations=config.train_annotations, val_features=config.train_features
        ).to_file(cfg_file)
        code = self.run_cli("train", "--config", cfg_file)
        err = capsys.readouterr().err
        assert code == 2 and "Traceback" not in err
        assert "ann.csv: no row is in split 'val' (splits in the file: 'train')" in err
        assert not (tmp_path / "run").exists()

    def test_eval_with_a_misspelt_split_is_exit_2(self, tmp_path, capsys):
        cfg_file = self.write_expr_data(tmp_path, feature_dim=10)
        assert self.run_cli("train", "--config", cfg_file) == 0
        capsys.readouterr()
        code = self.run_cli(
            "eval", "--config", tmp_path / "run" / "config.txt",
            "--checkpoint", tmp_path / "run" / "model.ckpt",
            "--annotations", tmp_path / "ann.csv", "--features", tmp_path / "feat.csv",
            "--split", "trian", "--out", tmp_path / "report.txt",
        )
        err = capsys.readouterr().err
        assert code == 2 and "Traceback" not in err
        assert "ann.csv: no row is in split 'trian' (splits in the file: 'train')" in err
        assert not (tmp_path / "report.txt").exists()

    @pytest.mark.parametrize("ccc_v,code", [("0.5", 0), ("nan", 2)])
    def test_fuse_rejects_a_non_finite_weight(self, tmp_path, capsys, ccc_v, code):
        preds = tmp_path / "p0.csv"
        write_predictions(preds, [PredictionRecord(id="f0", valence=0.25, arousal=-0.5)])
        manifest = tmp_path / "members.csv"
        manifest.write_text(
            f"member_id,ccc_v,ccc_a,path\nm0,{ccc_v},0.3,{preds}\nm1,0.5,0.3,{preds}\n"
        )
        out = tmp_path / "fused.csv"
        assert self.run_cli("fuse", "--manifest", manifest, "--out", out) == code
        if code:
            assert "members.csv:2: CCC weights must be finite" in capsys.readouterr().err
            assert not out.exists()
        else:
            assert read_predictions(out)[0].valence == 0.25

    @pytest.mark.parametrize(
        "header,message",
        [("", "members.csv:1: bad manifest header"),
         ("member_id,ccc_v,ccc_a,path\n", "members.csv:3: member 'm0' repeats line 2")],
        ids=["no_header", "repeated_member"],
    )
    def test_fuse_refuses_a_manifest_that_would_drop_or_double_a_member(
        self, tmp_path, capsys, header, message
    ):
        preds = tmp_path / "p0.csv"
        write_predictions(preds, [PredictionRecord(id="f0", valence=0.25, arousal=-0.5)])
        manifest = tmp_path / "members.csv"
        manifest.write_text(f"{header}m0,0.5,0.3,{preds}\nm0,0.5,0.3,{preds}\n")
        out = tmp_path / "fused.csv"
        code = self.run_cli("fuse", "--manifest", manifest, "--out", out)
        err = capsys.readouterr().err
        assert code == 2 and message in err and "Traceback" not in err
        assert not out.exists()

    def test_fuse_with_empty_va_is_exit_2(self, tmp_path, capsys):
        good = tmp_path / "p0.csv"
        write_predictions(good, [PredictionRecord(id="a", valence=0.25, arousal=-0.5)])
        empty = tmp_path / "p1.csv"
        empty.write_text("id,frame_index,valence,arousal,expr_probs,au_probs\na,,,,,\n")
        manifest = tmp_path / "members.csv"
        manifest.write_text(
            f"member_id,ccc_v,ccc_a,path\nm0,0.5,0.3,{good}\nm1,0.5,0.3,{empty}\n"
        )
        out = tmp_path / "fused.csv"
        code = self.run_cli("fuse", "--manifest", manifest, "--out", out)
        err = capsys.readouterr().err
        assert code == 2
        assert "member 'm1'" in err and "frame 'a'" in err and "Traceback" not in err
        assert not out.exists()

    def test_fuse_with_a_repeated_id_is_exit_2(self, tmp_path, capsys):
        preds = tmp_path / "p0.csv"
        preds.write_text(
            "id,frame_index,valence,arousal,expr_probs,au_probs\n"
            "a,,0.5,0.1,,\na,,0.7,0.2,,\nb,,0.1,0.1,,\n"
        )
        manifest = tmp_path / "members.csv"
        manifest.write_text(f"member_id,ccc_v,ccc_a,path\nm0,0.5,0.3,{preds}\n")
        out = tmp_path / "fused.csv"
        code = self.run_cli("fuse", "--manifest", manifest, "--out", out)
        err = capsys.readouterr().err
        assert code == 2
        assert "p0.csv:3: duplicate sample id 'a'" in err and "Traceback" not in err
        assert not out.exists()

    def test_zero_shot_with_a_repeated_id_is_exit_2(self, tmp_path, capsys):
        preds = tmp_path / "p0.csv"
        probs = dict(expr_probs=np.full(7, 1 / 7), au_probs=np.full(17, 0.5))
        write_predictions(preds, [PredictionRecord(id=i, **probs) for i in ("a", "b", "a")])
        out = tmp_path / "compound.csv"
        code = self.run_cli("zero-shot", "--predictions", preds, "--out", out)
        err = capsys.readouterr().err
        assert code == 2
        assert "p0.csv:4: duplicate sample id 'a'" in err and "Traceback" not in err
        assert not out.exists()

    def test_zero_shot_failure_writes_no_file(self, tmp_path, capsys):
        expr = np.full(7, 1 / 7)
        preds = tmp_path / "preds.csv"
        write_predictions(
            preds,
            [
                PredictionRecord(id="f0", valence=0.5, expr_probs=expr, au_probs=np.full(17, 0.5)),
                PredictionRecord(id="f1", valence=0.5, expr_probs=expr),
            ],
        )
        out = tmp_path / "compound.csv"
        code = self.run_cli("zero-shot", "--predictions", preds, "--out", out)
        err = capsys.readouterr().err
        assert code == 2
        assert "no AU probabilities" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("fields,message", [
        (dict(valence=0.5), "happily_surprised: prediction has no AU probabilities"),
        (dict(au_probs=np.full(17, 0.5)), "happily_surprised: bonus needs a valence prediction"),
    ], ids=["no_au", "no_valence"])
    def test_zero_shot_error_names_the_file_and_the_record(
        self, tmp_path, capsys, fields, message
    ):
        expr = np.full(7, 1 / 7)
        preds = tmp_path / "preds.csv"
        write_predictions(preds, [
            PredictionRecord(id="f0", valence=0.5, expr_probs=expr, au_probs=np.full(17, 0.5)),
            PredictionRecord(id="f1", expr_probs=expr, **fields),
        ])
        code = self.run_cli("zero-shot", "--predictions", preds, "--out", tmp_path / "out.csv")
        err = capsys.readouterr().err
        assert code == 2
        assert f"error: {preds}: f1: {message}" in err and "Traceback" not in err

    def test_eval_names_the_row_of_a_compound_class_the_head_lacks(self, tmp_path, capsys):
        rows = np.arange(12)
        data = blank_columns(
            [f"c{i:03d}" for i in rows], np.random.default_rng(0).normal(size=(12, 10))
        )
        data.labels.task[:], data.labels.compound[:] = TASKS.index("COMPOUND"), rows % 11
        data.compound_pair[:] = np.stack([1 + rows % 5, np.full(12, 6)], axis=1)
        write_columns(data, tmp_path / "ann.csv", tmp_path / "feat.csv")
        run = tmp_path / "run"
        train_run(RunConfig(
            feature_dim=10, backbone=(), heads=("COMPOUND",), epochs=1, total_batch=4,
            train_annotations=str(tmp_path / "ann.csv"),
            train_features=str(tmp_path / "feat.csv"), out_dir=str(run),
        ))
        data.labels.compound[4] = 12
        write_columns(data, tmp_path / "eval_ann.csv", tmp_path / "eval_feat.csv")
        report = tmp_path / "report.txt"
        code = self.run_cli(
            "eval", "--config", run / "config.txt", "--checkpoint", run / "model.ckpt",
            "--annotations", tmp_path / "eval_ann.csv", "--features", tmp_path / "eval_feat.csv",
            "--out", report,
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "c004: compound class id 12 is not below compound_classes = 11" in err
        assert "Traceback" not in err and not report.exists()

    def test_zero_shot_quotes_an_id_with_a_lone_cr(self, tmp_path):
        preds = tmp_path / "preds.csv"
        record = PredictionRecord(
            id="a\rb", valence=0.5, expr_probs=np.full(7, 1 / 7), au_probs=np.full(17, 0.5)
        )
        write_predictions(preds, [record])
        out = tmp_path / "compound.csv"
        assert self.run_cli("zero-shot", "--predictions", preds, "--out", out) == 0
        with open(out, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        name = classify_compound(default_compound_defs(), record).name
        assert rows == [["id", "compound"], ["a\rb", name]]

    def test_eval_with_non_utf8_features_is_exit_2(self, tmp_path, capsys):
        cfg_file = self.write_expr_data(tmp_path, feature_dim=10)
        assert self.run_cli("train", "--config", cfg_file) == 0
        bad = tmp_path / "bad_feat.csv"
        bad.write_bytes((tmp_path / "feat.csv").read_bytes().replace(b"x3", b"x\xff3"))
        capsys.readouterr()
        code = self.run_cli(
            "eval",
            "--config", tmp_path / "run" / "config.txt",
            "--checkpoint", tmp_path / "run" / "model.ckpt",
            "--annotations", tmp_path / "ann.csv",
            "--features", bad,
            "--out", tmp_path / "report.txt",
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "bad_feat.csv:5: not UTF-8" in err and "Traceback" not in err  # row x3

    def test_full_pipeline(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        spec_file = tmp_path / "synth.cfg"
        spec_file.write_text(
            "train_counts = 30,30,30\nval_counts = 12,12,12\nfeature_dim = 10\n"
        )
        assert self.run_cli(
            "gen-data", "--spec", spec_file, "--seed", 0, "--out", data_dir
        ) == 0
        out = capsys.readouterr().out
        feats, ann = out.split()
        assert os.path.exists(ann) and os.path.exists(feats)

        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "feature_dim = 10\n"
            "backbone = 12\n"
            "heads = EXPR,AU,VA\n"
            "lr = 0.01\n"
            "epochs = 2\n"
            "total_batch = 18\n"
            f"train_annotations = {ann}\n"
            f"train_features = {feats}\n"
            f"out_dir = {tmp_path / 'run'}\n"
        )
        assert self.run_cli("train", "--config", cfg_file) == 0
        train_out = capsys.readouterr().out
        assert "checkpoint" in train_out
        ckpt = tmp_path / "run" / "model.ckpt"
        assert ckpt.exists()

        report = tmp_path / "report.txt"
        preds = tmp_path / "preds.csv"
        assert self.run_cli(
            "eval",
            "--config", tmp_path / "run" / "config.txt",
            "--checkpoint", ckpt,
            "--annotations", ann,
            "--features", feats,
            "--split", "val",
            "--out", report,
            "--predictions", preds,
        ) == 0
        eval_out = capsys.readouterr().out
        assert "expr.accuracy" in eval_out
        assert report.exists() and preds.exists()
        metrics = read_report(report)
        assert "va.ccc_v" in metrics

        compound_csv = tmp_path / "compound.csv"
        assert self.run_cli(
            "zero-shot", "--predictions", preds, "--out", compound_csv
        ) == 0
        capsys.readouterr()
        lines = compound_csv.read_text().strip().splitlines()
        assert lines[0] == "id,compound"
        assert len(lines) == 1 + 36  # header plus one row per val sample

    def test_train_seed_and_out_dir_flags(self, tmp_path, capsys):
        cfg = small_config(tmp_path, epochs=1)
        cfg.to_file(tmp_path / "run.cfg")
        out = tmp_path / "cli"
        assert self.run_cli(
            "train", "--config", tmp_path / "run.cfg", "--seed", 3, "--out-dir", out
        ) == 0
        capsys.readouterr()
        want = train_run(cfg.override(seed=3, out_dir=str(tmp_path / "api")))
        assert (out / "model.ckpt").read_bytes() == open(want.checkpoint_path, "rb").read()
        saved = RunConfig.from_file(out / "config.txt")
        assert (saved.seed, saved.out_dir) == (3, str(out))
        assert not os.path.exists(cfg.out_dir)

    def test_train_init_from_and_freeze_trunk_flags(self, tmp_path, capsys):
        cfg = small_config(tmp_path, epochs=1)
        cfg.to_file(tmp_path / "run.cfg")
        donor = train_run(cfg.override(seed=5, out_dir=str(tmp_path / "donor")))
        donor_params = load_checkpoint(donor.checkpoint_path)
        base = ["train", "--config", tmp_path / "run.cfg", "--init-from", donor.checkpoint_path]
        # with no step, the job saves the arrays it started from
        assert self.run_cli(*base, "--epochs", 0, "--out-dir", tmp_path / "loaded") == 0
        loaded = tmp_path / "loaded" / "model.ckpt"
        assert loaded.read_bytes() == open(donor.checkpoint_path, "rb").read()
        assert self.run_cli(*base, "--freeze-trunk", "--out-dir", tmp_path / "frozen") == 0
        capsys.readouterr()
        frozen = load_checkpoint(tmp_path / "frozen" / "model.ckpt")
        assert set(frozen) == set(donor_params)
        for name, arr in frozen.items():
            same = arr.tobytes() == donor_params[name].tobytes()
            assert same != name.startswith("head."), name
        saved = RunConfig.from_file(tmp_path / "frozen" / "config.txt")
        assert saved.freeze_trunk and saved.init_from == donor.checkpoint_path

    def test_train_heads_flag(self, tmp_path, capsys):
        small_config(tmp_path, epochs=1).to_file(tmp_path / "run.cfg")
        out = tmp_path / "cli"
        assert self.run_cli(
            "train", "--config", tmp_path / "run.cfg", "--heads", "va, expr", "--out-dir", out
        ) == 0
        capsys.readouterr()
        assert RunConfig.from_file(out / "config.txt").heads == ("VA", "EXPR")
        heads = {n.split(".")[1] for n in load_checkpoint(out / "model.ckpt") if "head." in n}
        assert heads == {"va", "expr"}

    def test_eval_tasks_flag(self, tmp_path, capsys):
        cfg = small_config(tmp_path, epochs=1)
        result = train_run(cfg)
        report = tmp_path / "report.txt"
        assert self.run_cli(
            "eval", "--config", os.path.join(cfg.out_dir, "config.txt"),
            "--checkpoint", result.checkpoint_path, "--annotations", cfg.val_annotations,
            "--features", cfg.val_features, "--split", "val", "--tasks", "va,Expr",
            "--out", report,
        ) == 0
        capsys.readouterr()
        val = load_dataset(cfg.val_annotations, cfg.val_features, split="val")
        want, _ = evaluate_model(result.model, val, tasks=["VA", "EXPR"])
        write_report(tmp_path / "want.txt", want)
        assert report.read_bytes() == (tmp_path / "want.txt").read_bytes()
        assert {k.split(".")[0] for k in want} == {"va", "expr", "degenerate_count"}

    @pytest.mark.parametrize(
        "flags",
        [("--median-window", 3), ("--smooth-alpha", 0.4),
         ("--median-window", 5, "--smooth-alpha", 0.25)],
        ids=["median", "smooth", "median_then_smooth"],
    )
    def test_fuse_temporal_flags(self, tmp_path, capsys, flags):
        rng = np.random.default_rng(3)
        manifest = tmp_path / "members.csv"
        lines = ["member_id,ccc_v,ccc_a,path"]
        for m, (ccc_v, ccc_a) in enumerate([(0.6, 0.3), (0.2, 0.5)]):
            path = tmp_path / f"m{m}.csv"
            va = rng.uniform(-1, 1, (9, 2))
            write_predictions(path, [
                PredictionRecord(id=f"f{i}", valence=v, arousal=a) for i, (v, a) in enumerate(va)
            ])
            lines.append(f"m{m},{ccc_v},{ccc_a},{path}")
        manifest.write_text("\n".join(lines) + "\n")
        plain, filtered = tmp_path / "plain.csv", tmp_path / "filtered.csv"
        assert self.run_cli("fuse", "--manifest", manifest, "--out", plain) == 0
        assert self.run_cli("fuse", "--manifest", manifest, "--out", filtered, *flags) == 0
        capsys.readouterr()
        options = dict(zip(flags[::2], flags[1::2]))
        got = read_predictions(filtered)
        for dim in ("valence", "arousal"):
            want = np.array([getattr(r, dim) for r in read_predictions(plain)])
            if "--median-window" in options:
                want = median_filter(want, options["--median-window"])
            if "--smooth-alpha" in options:
                want = smooth(want, options["--smooth-alpha"])
            assert np.array_equal([getattr(r, dim) for r in got], want), dim
        assert [r.id for r in got] == [f"f{i}" for i in range(9)]

    def test_align_canonical_flag(self, tmp_path, capsys):
        # each frame is an affine image of the built-in canonical points, so
        # it aligns onto whichever target points it is given
        canon = np.array(CANONICAL_LANDMARKS.points)
        target = canon @ np.array([[1.2, 0.1], [-0.1, 1.2]]) + (5.0, -3.0)
        header = "frame,x1,y1,x2,y2,x3,y3,x4,y4,x5,y5\n"
        faces, canonical = tmp_path / "faces.landmarks", tmp_path / "target.landmarks"
        faces.write_text(header + "".join(
            f"{f}," + ",".join(map(repr, (canon * scale + shift).ravel().tolist())) + "\n"
            for f, (scale, shift) in enumerate([(0.5, 10.0), (2.0, -4.0)])
        ))
        canonical.write_text(header + "7," + ",".join(map(repr, target.ravel().tolist())) + "\n")
        for args, want in (((), canon), (("--canonical", canonical), target)):
            out = tmp_path / "aligned.csv"
            assert self.run_cli("align", "--landmarks", faces, "--out", out, *args) == 0
            aligned = read_landmarks(out)
            assert sorted(aligned) == [0, 1]
            for points in aligned.values():
                np.testing.assert_allclose(points.as_array(), want, atol=1e-9)
        capsys.readouterr()

    def test_grad_check_command(self, capsys):
        assert self.run_cli("grad-check", "loss.ccc", "--points", 10) == 0
        out = capsys.readouterr().out
        assert "loss.ccc" in out and "ok" in out

    @pytest.mark.parametrize("points", [0, -3])
    def test_grad_check_refuses_fewer_than_one_point(self, capsys, points):
        assert self.run_cli("grad-check", "layer.dense", "--points", points) == 2
        err = capsys.readouterr().err
        assert f"error: n_points = {points} must be >= 1" in err and "Traceback" not in err

    def test_grad_check_all(self, capsys):
        assert self.run_cli("grad-check", "--all", "--points", 5) == 0
        out = capsys.readouterr().out
        assert out.count("ok") == len(CHECKS)
