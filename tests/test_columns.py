"""The column readers and writers: their rows, as samples or by id, equal the
per-row readers they replaced, every column check names the file line of its
row, a repeated annotation id is refused at load, each row's task is the
task of its own label, and the column writers write the bytes of the
per-row writer and read back bit for bit. A split's sequence view: its
length, slices that copy every column, iteration over feature rows, and a
slice that scores as the same rows loaded from their own files."""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_input as ref
from affectkit.errors import AffectKitError, BadMask, ConfigError, UnknownClass
from affectkit.harness import dataio
from affectkit.harness.config import RunConfig
from affectkit.harness.dataio import (
    SampleColumns,
    load_dataset,
    read_annotation_columns,
    read_feature_columns,
    write_annotations,
    write_features,
)
from affectkit.harness.evaluate import evaluate_model
from affectkit.harness.synth import SyntheticSpec, generate_dataset, make_dataset
from affectkit.losses import TASKS, BatchLabels
from affectkit.models import Model
from affectkit.types import au_index
from test_readers import EDITS, mutate


def read_annotations(path):
    """The column reader's rows as samples, as the per-row reader returns them."""
    return ref.samples_of(read_annotation_columns(path))


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


@pytest.mark.parametrize("annotations", [ANNOTATIONS, COMPOUNDS], ids=["basic", "compound"])
def test_tasks_are_each_rows_own_task(tmp_path, annotations):
    # s3's AU row has no annotated unit and so no mask weight; it is still an AU row
    ann, _ = write(tmp_path, annotations)
    labels = read_annotation_columns(ann).labels
    tasks = [TASKS[k] for k in labels.task.tolist()]
    assert tasks == [s.task for s in ref.read_annotations(ann)]
    if annotations == ANNOTATIONS:
        assert tasks == ["VA", "AU", "EXPR", "AU", "AU", "EXPR", "VA"]
        assert not labels.au_mask[3].any()


@pytest.mark.parametrize("split", [None, "train", "val", "test"])
def test_views_equal_the_per_row_readers(tmp_path, split):
    ann, feats = write(tmp_path)
    if split == "test":  # no row carries it
        for load in (load_dataset, ref.load_dataset):
            with pytest.raises(ConfigError, match=r"ann\.csv: no row .*'test'"):
                load(ann, feats, split=split)
        return
    data, want = load_dataset(ann, feats, split=split), ref.load_dataset(ann, feats, split=split)
    assert ref.samples_of(data) == want
    assert len(data) == {None: 7, "train": 5, "val": 2}[split]
    assert read_annotations(ann) == ref.read_annotations(ann)
    got_feats, want_feats = read_features(feats), ref.read_features(feats)
    assert list(got_feats) == list(want_feats)
    for key, row in want_feats.items():
        assert got_feats[key].dtype == row.dtype and np.array_equal(got_feats[key], row)

    assert data.ids == [s.id for s in want]
    assert data.frame_index == [s.frame_index for s in want]
    assert data.sequence_id == [s.sequence_id for s in want]
    assert np.array_equal(data.features, np.array([s.features for s in want]))
    assert_same_labels(data.labels, ref.columns_of(want).labels)
    assert_same_labels(ref.columns_of(want).labels, ref.label_arrays(want))


def test_compound_view_equals_the_per_row_reader(tmp_path):
    ann, _ = write(tmp_path, annotations=COMPOUNDS)
    got = read_annotations(ann)
    assert got == ref.read_annotations(ann)
    assert (got[0].label.emo1.class_id, got[0].label.emo2.class_id) == (5, 2)
    assert_same_labels(read_annotation_columns(ann).labels, ref.columns_of(got).labels)
    assert_same_labels(ref.columns_of(got).labels, ref.label_arrays(got))


def unannotated_synthetic(spec, seed):
    """Synthetic columns whose every 4th AU row leaves AU4 and AU6
    unannotated and every 7th AU row every unit."""
    data = make_dataset(spec, seed)
    lab = data.labels
    au = np.flatnonzero(lab.task == TASKS.index("AU"))
    lab.au_mask[np.ix_(au[3::4], [au_index(4), au_index(6)])] = 0.0
    lab.au_mask[au[6::7]] = 0.0
    lab.au_targets *= lab.au_mask
    return data


@pytest.mark.parametrize("annotations", [ANNOTATIONS, COMPOUNDS], ids=["basic", "compound"])
def test_annotation_writer_equals_the_per_row_oracle(tmp_path, annotations):
    ann, _ = write(tmp_path, annotations=annotations)
    data = read_annotation_columns(ann)
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_annotations(got, data)
    ref.write_annotations(want, ref.samples_of(data))
    assert got.read_bytes() == want.read_bytes()
    back = read_annotation_columns(got)
    assert_same_labels(back.labels, data.labels)
    assert np.array_equal(back.compound_pair, data.compound_pair)
    for name in ("ids", "split", "sequence_id", "utterance_id", "frame_index"):
        assert getattr(back, name) == getattr(data, name), name


@pytest.mark.parametrize("spec", [
    SyntheticSpec(train_counts=(5, 40, 6), val_counts=(2, 9, 3), feature_dim=7),
    SyntheticSpec(train_counts=(0, 30, 0), val_counts=(0, 0, 0), feature_dim=7, sigma=0.0,
                  kappa=0.0, table="empirical"),
])
def test_synthetic_annotations_equal_the_per_row_oracle(tmp_path, spec):
    data = unannotated_synthetic(spec, seed=4)
    assert (data.labels.au_mask == 0).all(axis=1).any()  # a fully unannotated AU row
    mask = data.labels.au_mask
    assert ((mask == 0).any(axis=1) & mask.any(axis=1)).any()  # and a partly one
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_annotations(got, data)
    ref.write_annotations(want, ref.samples_of(data))
    assert got.read_bytes() == want.read_bytes()
    assert_same_labels(read_annotation_columns(got).labels, data.labels)


@pytest.mark.parametrize("ids", [["s0", "s1", "s2"], ['"a,b"', "multi\nline", "é\r"]])
def test_feature_writer_round_trip_is_bit_exact(tmp_path, ids):
    matrix = np.array([
        [0.1, -0.0, 5e-324, 1.7976931348623157e308],
        [1e-300, -2.5e-7, 123456789.123456789, np.nextafter(1.0, 2.0)],
        [-1.0 / 3.0, 2.0 ** -1074, 0.0, -1.7976931348623157e308],
    ])
    path = tmp_path / "feats.csv"
    write_features(path, ids, matrix)
    got_ids, got = read_feature_columns(path)
    assert got_ids == ids and got.dtype == np.float64
    assert got.tobytes() == matrix.tobytes()


def test_synthetic_files_round_trip(tmp_path):
    spec = SyntheticSpec(train_counts=(4, 5, 6), val_counts=(1, 2, 3))
    data = make_dataset(spec, seed=8)
    feats, ann = generate_dataset(spec, seed=8, out_dir=str(tmp_path))
    back = load_dataset(ann, feats)
    assert back.ids == data.ids and back.split == data.split
    assert back.features.tobytes() == data.features.tobytes()
    assert_same_labels(back.labels, data.labels)


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


# ---------------------------------------------------------------------------
# the sequence view

COLUMN_LISTS = ("ids", "split", "sequence_id", "utterance_id", "frame_index")


def arrays(data: SampleColumns) -> list:
    labels = [getattr(data.labels, f.name) for f in fields(BatchLabels)]
    return [data.features, data.compound_pair, *labels]


def assert_same_columns(got: SampleColumns, want: SampleColumns):
    for name in COLUMN_LISTS:
        assert getattr(got, name) == getattr(want, name), name
    for a, b in zip(arrays(got), arrays(want)):
        assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


@pytest.mark.parametrize("rows", [
    slice(None), slice(2, 5), slice(5, 2), slice(-3, None), slice(None, 100), slice(1, 6, 2),
    slice(None, None, -1), slice(3, 3),
])
def test_a_slice_is_take_of_its_row_numbers(tmp_path, rows):
    data = load_dataset(*write(tmp_path))
    assert len(data) == len(data.ids) == 7
    part = data[rows]
    assert len(part) == len(range(7)[rows])
    assert_same_columns(part, data.take(range(7)[rows]))
    assert bool(part) == (len(part) > 0)  # an empty split is falsy


def test_a_slice_shares_no_array_with_its_parent(tmp_path):
    data = load_dataset(*write(tmp_path))
    for part in (data[:], data[1:6]):
        assert not any(np.shares_memory(a, b) for a in arrays(data) for b in arrays(part))
        assert all(getattr(part, n) is not getattr(data, n) for n in COLUMN_LISTS)
    part, before = data[1:6], data[1:6]
    # co-annotation writes into labels in place: on the slice, then the parent
    part.labels.soft[:] = 1.0 / 7
    part.labels.au_mask[:] = 0.5
    part.features[:] = 0.0
    assert_same_columns(data[1:6], before)
    data.labels.expr[:] = 6
    data.labels.soft[:] = 0.0
    assert np.array_equal(part.labels.expr, before.labels.expr)
    assert (part.labels.soft == 1.0 / 7).all()


def test_splits_and_labels_compare_by_identity(tmp_path):
    # their arrays have no single truth value, so == is identity, not a
    # field-by-field comparison that would raise
    data = load_dataset(*write(tmp_path))
    copy = data.take(range(len(data)))
    assert data == data and data.labels == data.labels
    assert data != copy and data.labels != copy.labels
    assert copy not in [data] and len({data, copy, data.labels, copy.labels}) == 4


def test_iteration_yields_the_feature_rows(tmp_path):
    data = load_dataset(*write(tmp_path), split="train")
    rows = list(data)
    assert [r.id for r in rows] == data.ids
    assert all(r.features.ndim == 1 for r in rows)
    assert np.stack([r.features for r in rows]).tobytes() == data.features.tobytes()
    assert [r.id for r in data[:2]] == data.ids[:2]


def assert_same_records(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for name, value in vars(a).items():
            other = getattr(b, name)
            if isinstance(value, np.ndarray):
                assert value.tobytes() == other.tobytes(), name
            else:
                assert value == other, name


@pytest.mark.parametrize("recurrent", ["none", "single:4x1"])
@pytest.mark.parametrize("rows", [slice(0, 7), slice(1, 6), slice(2, 4)])
def test_a_slice_scores_as_its_rows_loaded_from_their_own_files(tmp_path, recurrent, rows):
    """The fixture's sequences clip1 and clip2 are cut by some of the
    slices; the slice and the reloaded rows are packed alike."""
    data = load_dataset(*write(tmp_path))
    part = data[rows]
    ann, feats = tmp_path / "part_ann.csv", tmp_path / "part_feats.csv"
    write_annotations(ann, part)
    write_features(feats, part.ids, part.features)
    config = RunConfig(
        feature_dim=2, backbone=(6,), taps=(0,) if recurrent != "none" else (),
        recurrent=recurrent, seed=3,
    )
    model = Model(config.model_spec(), config.input_dims(), seed=3)
    got_metrics, got_records = evaluate_model(model, part)
    want_metrics, want_records = evaluate_model(model, load_dataset(ann, feats))
    assert got_metrics == want_metrics and "expr.accuracy" in got_metrics
    assert_same_records(got_records, want_records)
