"""Every reader at the input boundary: for the CSV readers, lines named
after a quoted newline, bytes that are not UTF-8, unparsable CSV and
prediction values out of range; for them, the audio reader and the
relatedness-table reader, mutated files."""

import csv
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from affectkit.errors import AffectKitError, ConfigError
from affectkit.fusion import read_manifest
from affectkit.harness.dataio import (
    read_annotation_columns,
    read_feature_columns,
    read_predictions,
)
from affectkit.preprocess import read_audio, read_landmarks
from affectkit.relatedness import load_table
from affectkit.zeroshot import load_compound_defs

ANNOTATION_HEADER = "id,split,sequence_id,utterance_id,frame_index,task,payload\n"
PREDICTION_HEADER = "id,frame_index,valence,arousal,expr_probs,au_probs\n"
MANIFEST_HEADER = "member_id,ccc_v,ccc_a,path\n"
LANDMARK_HEADER = "frame,x1,y1,x2,y2,x3,y3,x4,y4,x5,y5\n"
DEFS_HEADER = "name,emo1,emo2,bonus,aus\n"
EXPR_PROBS = ";".join(["0.25", "0.75"] + ["0"] * 5)
AU_PROBS = ";".join(["0.5"] * 16 + ["1"])

# name -> (reader, a valid file, a file whose line 4 is bad after a quoted
# field that spans lines 2-3)
READERS = {
    "annotations": (
        read_annotation_columns,
        ANNOTATION_HEADER
        + "s0,train,seq1,utt1,4,VA,0.25;-0.5\n"
        + "s1,val,,,,EXPR,3\n"
        + "s2,train,,,,AU,1-0101-0000000001\n"
        + "s3,test,,,,COMPOUND,2;5;2\n",
        ANNOTATION_HEADER + '"a\nb",train,,,,VA,0.1;0.2\ns1,train,,,,VA,7.5;0.1\n',
    ),
    "features": (
        read_feature_columns,
        "id,f0,f1\ns0,0.5,-1.25\ns1,3,4e2\n",
        'id,f0,f1\n"a\nb",1,2\ns1,3,nan\n',
    ),
    "predictions": (
        read_predictions,
        PREDICTION_HEADER + f"p0,1,0.5,-0.25,{EXPR_PROBS},{AU_PROBS}\np1,,,,,\n",
        PREDICTION_HEADER + '"a\nb",1,0.5,0.25,,\np1,1,zz,,,\n',
    ),
    "manifest": (
        read_manifest,
        MANIFEST_HEADER + "m0,0.5,0.3,p0.csv\nm1,0.55,-0.45,p1.csv\n",
        MANIFEST_HEADER + '"m\n0",0.5,0.3,p0.csv\nm1,0.5,high,p.csv\n',
    ),
    "landmarks": (
        read_landmarks,
        LANDMARK_HEADER
        + "0,30,40,66,40,48,56,34,76,62,76\n1,31,41,65,-40,48,57,34,75,62,77\n",
        LANDMARK_HEADER
        + '0,30,40,66,40,48,56,34,76,62,"76\n"\n1,30,40,66,40,48,56,34,76,62,zz\n',
    ),
    "compound_defs": (
        load_compound_defs,
        DEFS_HEADER
        + "happily_surprised,happiness,surprise,true,12:1.0,5:0.66\n"
        + "sadly_angry,sadness,anger,0\n",
        DEFS_HEADER
        + '"happily\nsurprised",happiness,surprise,true\nx,happiness,surprise,no,12:oops\n',
    ),
}


@pytest.mark.parametrize("name", READERS)
def test_errors_name_the_path_and_the_file_line(tmp_path, name):
    reader, valid, located = READERS[name]
    path = tmp_path / f"{name}.csv"
    path.write_text(located)
    with pytest.raises(AffectKitError, match=rf"{name}\.csv:4: "):
        reader(path)

    path.write_bytes(valid.encode()[:-4] + b"\xff" + valid.encode()[-4:])
    line = valid.count("\n")  # the bad byte sits in the last line
    with pytest.raises(ConfigError, match=rf"{re.escape(str(path))}:{line}: not UTF-8"):
        reader(path)


@pytest.mark.parametrize(
    "fields,message",
    [
        (f"1e999,0.5,{EXPR_PROBS},", "valence must be finite"),
        ("0.5,nan,,", "arousal must be finite"),
        ("0.5,-inf,,", "arousal must be finite"),
        ("0,0,0.25;0.75;0;0;0;0,", "expr_probs must be 7 values"),
        ("0,0,0.25;0.75;0;0;0;0;0;0,", "expr_probs must be 7 values"),
        ("0,0,1.25;-0.25;0;0;0;0;0,", r"expr_probs must be 7 values in \[0, 1\]"),
        ("0,0,nan;0.75;0;0;0;0;0,", "expr_probs must be 7 values"),
        ("0,0,0.25;0.7;0;0;0;0;0,", "expr_probs must sum to 1"),
        (f"0,0,{EXPR_PROBS},{AU_PROBS};0.5", "au_probs must be 17 values"),
        ("0,0,,0.5;0.5", "au_probs must be 17 values"),
        (f"0,0,,{AU_PROBS[:-1]}1.5", r"au_probs must be 17 values in \[0, 1\]"),
        (f"0,0,,{AU_PROBS[:-1]}inf", "au_probs must be 17 values"),
    ],
    ids=[
        "valence_1e999", "arousal_nan", "arousal_-inf", "expr_6", "expr_8",
        "expr_negative", "expr_nan", "expr_sum_0.95", "au_18", "au_2", "au_1.5", "au_inf",
    ],
)
def test_prediction_values_are_checked(tmp_path, fields, message):
    # VA is checked only for finiteness: the VA head is unbounded
    path = tmp_path / "preds.csv"
    valid = f"p0,1,0.5,-0.25,{EXPR_PROBS},{AU_PROBS}\n"
    path.write_text(f"{PREDICTION_HEADER}{valid}p1,2,{fields}\n")
    with pytest.raises(ConfigError, match=rf"preds\.csv:3: {message}"):
        read_predictions(path)
    path.write_text(f"{PREDICTION_HEADER}{valid}p1,2,7.5,-3,,\n")
    assert read_predictions(path)[1].valence == 7.5


@pytest.mark.parametrize("name", READERS)
def test_unparsable_csv_names_the_path(tmp_path, name):
    # an unclosed quote swallows the rest of the file into one field,
    # which the csv module refuses beyond its field size limit
    reader, valid, _ = READERS[name]
    path = tmp_path / f"{name}.csv"
    path.write_text(valid + '"' + "1\n" * 70_000)
    with pytest.raises(ConfigError, match=rf"{name}\.csv:\d+: field larger than field limit"):
        reader(path)


def byte_edits(alphabet: bytes):
    """Up to six deletions, insertions or replacements by bytes of alphabet."""
    return st.lists(
        st.tuples(
            st.sampled_from(("delete", "insert", "replace")),
            st.integers(min_value=0, max_value=1 << 16),
            st.sampled_from(list(alphabet)),
        ),
        min_size=1,
        max_size=6,
    )


EDITS = byte_edits(b'",;\n-0123456789\xff')


def mutate(data: bytes, edits) -> bytes:
    out = bytearray(data)
    for op, pos, byte in edits:
        if op == "insert":
            out.insert(pos % (len(out) + 1), byte)
        elif out and op == "delete":
            del out[pos % len(out)]
        elif out:
            out[pos % len(out)] = byte
    return bytes(out)


@pytest.mark.parametrize("name", READERS)
@settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(edits=EDITS)
def test_mutated_file_returns_or_raises_affectkit_error(tmp_path, name, edits):
    reader, valid, _ = READERS[name]
    path = tmp_path / f"{name}.csv"
    path.write_bytes(mutate(valid.encode(), edits))
    try:
        reader(path)
    except AffectKitError:
        pass


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(edits=EDITS)
def test_mutated_landmarks_load_only_with_the_header_and_11_fields(tmp_path, edits):
    # the edits add and remove commas and newlines, so they make rows with
    # a field too many or too few and headers with a column split or lost
    path = tmp_path / "landmarks.csv"
    path.write_bytes(mutate(READERS["landmarks"][1].encode(), edits))
    try:
        frames = read_landmarks(path)
    except AffectKitError as exc:
        assert re.search(r"landmarks\.csv(:\d+)?: ", str(exc))
        return
    with open(path, encoding="utf-8", newline="") as fh:
        header, *rows = csv.reader(fh)
    rows = [row for row in rows if row]
    assert header == LANDMARK_HEADER.strip().split(",")
    assert all(len(row) == 11 for row in rows) and len(frames) == len(rows)


@pytest.mark.parametrize(
    "text,where",
    [
        (LANDMARK_HEADER + "0,30,40,66,40,48,56,34,76,62,76,999,abc\n", ":2: expected 11"),
        (LANDMARK_HEADER + "0,30,40,66,40,48,56,34,76,62,76,\n", ":2: expected 11"),
        (LANDMARK_HEADER + "0,30,40,66,40,48,56,34,76,62\n", ":2: expected 11"),
        ("frame,x1,y1,x2,y2,x3,y3,x4,y4,x5\n0,30,40,66,40,48,56,34,76,62,76\n", ":1: "),
        ("frame,x1,y1,x2,y2,x3,y3,x4,y4,y5,x5\n0,30,40,66,40,48,56,34,76,62,76\n", ":1: "),
        ("0,30,40,66,40,48,56,34,76,62,76\n1,30,40,66,40,48,56,34,76,62,76\n", ":1: "),
    ],
    ids=["12_fields", "trailing_comma", "10_fields", "short_header", "swapped_header", "no_header"],
)
def test_landmark_rows_and_header_are_checked(tmp_path, text, where):
    path = tmp_path / "landmarks.csv"
    path.write_text(text)
    with pytest.raises(ConfigError, match=rf"landmarks\.csv{where}"):
        read_landmarks(path)


# name -> (reader, a valid file); six edits can declare at most a few
# million audio samples, which the reader refuses before reading
FORMATS = {
    "audio": (
        read_audio,
        b"rate 1000\nlength 4\n" + np.array([0.5, -0.25, 0.125, 1.0], "<f8").tobytes(),
    ),
    "relatedness": (
        load_table,
        b"# two emotions\nhappiness proto=12,25 obs=6:0.51\n"
        b"sadness proto=4,15 obs=1:0.6,17:0.67\n",
    ),
}


@pytest.mark.parametrize("name", FORMATS)
@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(edits=byte_edits(b" \r\n#=:,.-0123456789e\x00\xf0\xff"))
def test_mutated_audio_or_table_returns_or_raises_affectkit_error(tmp_path, name, edits):
    reader, valid = FORMATS[name]
    path = tmp_path / name
    path.write_bytes(mutate(valid, edits))
    try:
        reader(path)
    except AffectKitError:
        pass
