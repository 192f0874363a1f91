"""The column readers: their rows, as samples or by id, equal the per-row
readers they replaced, every column check names the file line of its row, and a
repeated annotation id is refused at load."""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_input as ref
from affectkit.errors import AffectKitError, BadMask, ConfigError, UnknownClass
from affectkit.harness import dataio
from affectkit.harness.dataio import (
    load_columns,
    load_dataset,
    read_annotation_columns,
    read_feature_columns,
)
from affectkit.harness.synth import SyntheticSpec, generate_dataset
from affectkit.losses import BatchLabels, label_arrays
from test_readers import EDITS, mutate


def read_annotations(path):
    """The column reader's rows as samples, as the per-row reader returns them."""
    return read_annotation_columns(path).samples()


def read_features(path):
    """The feature matrix's rows by id, as the per-row reader returns them."""
    ids, matrix = read_feature_columns(path)
    return dict(zip(ids, matrix))


HEADER = "id,split,sequence_id,utterance_id,frame_index,task,payload\n"
ANNOTATIONS = (
    HEADER
    + '"clip,01",train,clip1,utt1,0,VA,0.25;-0.5\n'
    + '"multi\nline",train,clip1,utt1,1,AU,1-0101-0000000001\n'
    + "s2,val,clip2,,7,EXPR,3\n"
    + "s3,train,,,,AU,-----------------\n"
    + "s4,train,clip2,utt2,8,AU,10101010101010101\n"
    + "s5,val,,,,EXPR,0\n"
    + "s6,train,,,,VA,-1;1\n"
)
FEATURES = (
    "id,f0,f1\n"
    + "s6,1e-300,-0.0\n"
    + '"clip,01",0.5,-1.25\n'
    + '"multi\nline",3,4e2\n'
    + "s2,1_000,2.5\n"
    + "s3,-7,8\n"
    + "s4,9,10\n"
    + "s5,11,12\n"
)
COMPOUNDS = HEADER + "c0,train,,,,COMPOUND,2;5;2\nc1,train,,,,COMPOUND,0;1;6\n"


def write(tmp_path, annotations=ANNOTATIONS, features=FEATURES):
    ann, feats = tmp_path / "ann.csv", tmp_path / "feats.csv"
    ann.write_text(annotations, encoding="utf-8")
    feats.write_text(features, encoding="utf-8")
    return ann, feats


def assert_same_labels(got: BatchLabels, want: BatchLabels):
    for f in fields(BatchLabels):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert a.dtype == b.dtype and np.array_equal(a, b), f.name


@pytest.mark.parametrize("split", [None, "train", "val", "test"])
def test_views_equal_the_per_row_readers(tmp_path, split):
    ann, feats = write(tmp_path)
    got, want = load_dataset(ann, feats, split=split), ref.load_dataset(ann, feats, split=split)
    assert got == want and len(got) == {None: 7, "train": 5, "val": 2, "test": 7}[split]
    assert read_annotations(ann) == ref.read_annotations(ann)
    got_feats, want_feats = read_features(feats), ref.read_features(feats)
    assert list(got_feats) == list(want_feats)
    for key, row in want_feats.items():
        assert got_feats[key].dtype == row.dtype and np.array_equal(got_feats[key], row)

    data = load_columns(ann, feats, split=split)
    assert data.ids == [s.id for s in want]
    assert data.frame_index == [s.frame_index for s in want]
    assert data.sequence_id == [s.sequence_id for s in want]
    assert np.array_equal(data.features, np.array([s.features for s in want]))
    assert_same_labels(data.labels, label_arrays(want))


def test_compound_view_equals_the_per_row_reader(tmp_path):
    ann, _ = write(tmp_path, annotations=COMPOUNDS)
    got = read_annotations(ann)
    assert got == ref.read_annotations(ann)
    assert (got[0].label.emo1.class_id, got[0].label.emo2.class_id) == (5, 2)
    assert_same_labels(read_annotation_columns(ann).labels, label_arrays(got))


def test_duplicate_annotation_id_names_the_line(tmp_path):
    ann, feats = write(tmp_path, ANNOTATIONS + '"clip,01",val,,,,EXPR,2\n')
    for read in (read_annotations, lambda a: load_dataset(a, feats)):
        with pytest.raises(ConfigError, match=r"ann\.csv:10: duplicate sample id 'clip,01'"):
            read(ann)


# each bad row sits on line 5, after a quoted field spanning lines 2-3
@pytest.mark.parametrize(
    "row,error,message",
    [
        ("x,train,,,x,EXPR,3", ConfigError, "invalid literal"),
        ("x,train,,,,VA,0.5;1.5", ConfigError, r"valence/arousal 1\.5 outside"),
        ("x,train,,,,VA,0.5", ConfigError, "could not convert"),
        ("x,train,,,,EXPR,9", UnknownClass, "expression class 9"),
        ("x,train,,,,AU,1-0101-000000000é", BadMask, "AU payload must be 17"),
        ("x,train,,,,AU,1-0101-00000000000", BadMask, "AU payload must be 17"),
        ("x,train,,,,COMPOUND,1;2", ConfigError, "compound payload needs 3 fields"),
        ("x,train,,,,COMPOUND,99999999999999999999;1;2", ConfigError, "compound class id 9+ is too"),
        ("x,train,,,,GAZE,1", ConfigError, "unknown task 'GAZE'"),
        ("s1,train,,,,VA,0;0", ConfigError, "duplicate sample id 's1'"),
    ],
)
def test_column_checks_name_the_line_of_their_row(tmp_path, row, error, message):
    ann, _ = write(
        tmp_path,
        HEADER + '"a\nb",train,,,,VA,0.1;0.2\ns1,train,,,,AU,-----------------\n' + row + "\n",
    )
    with pytest.raises(error, match=rf"ann\.csv:5: {message}"):
        read_annotations(ann)


@pytest.mark.parametrize("value,message", [("zz", "could not convert"), ("-inf", "non-finite")])
def test_feature_checks_name_the_line_of_their_row(tmp_path, value, message):
    _, feats = write(tmp_path, features=f'id,f0,f1\n"a\nb",1,2\ns1,3,4\ns2,5,{value}\n')
    with pytest.raises(ConfigError, match=rf"feats\.csv:5: {message}"):
        read_features(feats)


@pytest.mark.parametrize("name", ["annotations", "features"])
@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(edits=EDITS)
def test_mutated_file_reads_as_the_per_row_reader_does(tmp_path, name, edits):
    """Both readers accept the same mutated files and return the same rows.
    With several bad rows they may name different ones, so only the error
    family is compared."""
    new, old, valid = {
        "annotations": (
            read_annotations, ref.read_annotations, ANNOTATIONS + COMPOUNDS[len(HEADER):]
        ),
        "features": (read_features, ref.read_features, FEATURES),
    }[name]
    path = tmp_path / f"{name}.csv"
    path.write_bytes(mutate(valid.encode(), edits))
    try:
        want = old(path)
    except AffectKitError:
        with pytest.raises(AffectKitError):
            new(path)
        return
    if name == "annotations" and len({s.id for s in want}) < len(want):
        with pytest.raises(ConfigError, match="duplicate sample id"):
            new(path)
        return
    got = new(path)
    if name == "annotations":
        assert got == want
    else:
        assert list(got) == list(want)
        assert all(np.array_equal(got[k], want[k]) for k in want)


# a quote-free feature file: the one-pass path reads it as it stands
PLAIN = (
    "id,f0,f1,f2\n"
    "s0,0.5,-1.25,1e-300\n"
    "s1,3,4e2,+7\n"
    "s2,-0.0,.5,5.\n"
    "s3,1E5,2.5e-3,-9\n"
    "s4,12345678901234567890,0.1,1.7976931348623157e308\n"
    "é5 x,7,8,9\n"
)
# text float() and np.loadtxt may read differently, or that csv reads
# specially, and text that changes the shape of a row or of the file
PLAIN_EDITS = (
    "_", " ", "\x1c", "\r", '"', "\0", "#", "١", "nan", "1e999", "\n", ",", "e", "-", ".", "7",
)


def outcome(read, path):
    """(ids, shape, dtype, value bytes), or (error type, message)."""
    try:
        ids, matrix = read(path)
    except Exception as exc:  # the exception itself is compared
        return type(exc), str(exc)
    return ids, matrix.shape, matrix.dtype, matrix.tobytes()


def no_per_row_reader(monkeypatch):
    def fail(*args):
        raise AssertionError("the per-row reader was called")

    for name in ("_read_feature_rows", "open_rows"):
        monkeypatch.setattr(dataio, name, fail)


@pytest.mark.parametrize(
    "text",
    [
        PLAIN,
        PLAIN.replace("s1,3,", "s1,3_0,"),
        PLAIN.replace("s1,3,", "s1, 3,"),
        PLAIN.replace("s1,3,", "s1,\x1c3,"),
        PLAIN.replace("s1,3,", "s1,3\r,"),
        PLAIN.replace("\n", "\r\n"),
        PLAIN.replace("s1,3,", 's1,"3",'),
        PLAIN.replace("s1,3,", '"s1",3,'),
        PLAIN.replace("s1,3,", '"s,1",3,'),
        PLAIN.replace("s1,3,", "s1,3\0,"),
        PLAIN.replace("s1,3,", "s1\0,3,"),
        PLAIN.replace("s1,3,", "s1,#3,"),
        PLAIN.replace("s1,3,", "s1,١,"),
        PLAIN.replace("s1,3,", "s1,nan,"),
        PLAIN.replace("s1,3,", "s1,1e999,"),
        PLAIN.replace("s1,3,", "s1,,"),
        PLAIN.replace("s1,3,", "s1,3,3,"),
        PLAIN.replace("s1,3,", "s1,"),
        PLAIN.replace("s1,3,4e2,+7", "s1"),
        PLAIN.replace("s1,3,4e2,+7", "s1,"),
        "id,f0\ns0\n",
        "id,f0\ns0,\n\ns1,\n",
        PLAIN.replace("\ns1", "\n\n\ns1") + "\n",
        "\n" + PLAIN,
        PLAIN[:-1],
        PLAIN[:-1] + ",",
        PLAIN.replace("s4,", "s0,"),
        PLAIN.replace("id,", "ID,"),
        PLAIN.replace("id,f0,f1,f2", "id"),
        PLAIN.replace("id,f0,f1,f2", "id,f0,f1,f2,"),
        PLAIN[: PLAIN.index("\n") + 1],
        PLAIN[: PLAIN.index("\n")],
        "",
        "\ufeff" + PLAIN,
    ],
)
@pytest.mark.parametrize("block_chars", [1 << 16, 1])
@pytest.mark.filterwarnings("error")
def test_feature_reader_equals_the_per_row_oracle(tmp_path, monkeypatch, text, block_chars):
    monkeypatch.setattr(dataio, "_BLOCK_CHARS", block_chars)
    path = tmp_path / "feats.csv"
    path.write_text(text, encoding="utf-8", newline="")
    assert outcome(read_feature_columns, path) == outcome(ref.read_feature_columns, path)


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    edits=st.lists(
        st.tuples(
            st.sampled_from(("delete", "insert", "replace")),
            st.integers(min_value=0, max_value=1 << 16),
            st.sampled_from(PLAIN_EDITS),
        ),
        max_size=4,
    ),
    final_newline=st.booleans(),
    block_chars=st.sampled_from((1 << 16, 24, 1)),
)
def test_edited_plain_file_reads_as_the_per_row_oracle(
    tmp_path, monkeypatch, edits, final_newline, block_chars
):
    """Same ids and value bytes, or the same exception type and message."""
    text = PLAIN
    for op, pos, token in edits:
        pos %= len(text) + (op == "insert")
        if op == "insert":
            text = text[:pos] + token + text[pos:]
        else:
            text = text[:pos] + (token if op == "replace" else "") + text[pos + 1:]
    if not final_newline:
        text = text.rstrip("\n")
    monkeypatch.setattr(dataio, "_BLOCK_CHARS", block_chars)
    path = tmp_path / "feats.csv"
    path.write_text(text, encoding="utf-8", newline="")
    assert outcome(read_feature_columns, path) == outcome(ref.read_feature_columns, path)


@pytest.mark.parametrize("block_chars", [1 << 16, 1])
def test_plain_files_never_reach_the_per_row_reader(tmp_path, monkeypatch, block_chars):
    feats, _ = generate_dataset(SyntheticSpec(), seed=3, out_dir=str(tmp_path))
    plain = tmp_path / "plain.csv"
    plain.write_text(PLAIN.replace("\ns3", "\n\ns3") + "\n\n", encoding="utf-8")
    want = [outcome(ref.read_feature_columns, p) for p in (feats, plain)]
    monkeypatch.setattr(dataio, "_BLOCK_CHARS", block_chars)
    no_per_row_reader(monkeypatch)
    assert [outcome(read_feature_columns, p) for p in (feats, plain)] == want
    assert len(want[0][0]) == 2400
