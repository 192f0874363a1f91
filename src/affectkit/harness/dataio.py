"""CSV readers and writers for datasets, predictions, and metric reports.

Annotation rows carry one label each; the payload encoding depends on the
task column:

* ``VA``        ``<valence>;<arousal>``
* ``EXPR``      a single class digit
* ``AU``        17 characters over ``{0,1,-}`` ('-' marks unannotated units)
* ``COMPOUND``  ``<class>;<emo1>;<emo2>``

Optional columns round-trip ``None`` as the empty string.
"""

from __future__ import annotations

import csv
import math
from types import SimpleNamespace
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from ..csvfile import open_rows
from ..errors import BadMask, ConfigError, KeyMisalignment, UnknownClass
from ..types import (
    NUM_AUS,
    NUM_EXPRESSIONS,
    AnnotatedSample,
    AUVector,
    CompoundLabel,
    ExpressionLabel,
    PredictionRecord,
    ValenceArousal,
)

ANNOTATION_FIELDS = (
    "id",
    "split",
    "sequence_id",
    "utterance_id",
    "frame_index",
    "task",
    "payload",
)

PREDICTION_FIELDS = (
    "id",
    "frame_index",
    "valence",
    "arousal",
    "expr_probs",
    "au_probs",
)

# One CSV row as text without its line ending: a csv writer returns what
# its file's write() returns. Its "\r\n" terminator makes csv quote a
# field holding either line-break character (csv quotes only the
# terminator's), so an id with a lone "\r" reads back intact; the writers
# below end every row with "\n".
_csv_line = csv.writer(
    SimpleNamespace(write=lambda row: row[:-2]), lineterminator="\r\n"
).writerow


def _encode_payload(sample: AnnotatedSample) -> str:
    label = sample.label
    if isinstance(label, ValenceArousal):
        return f"{label.valence!r};{label.arousal!r}"
    if isinstance(label, ExpressionLabel):
        return str(label.class_id)
    if isinstance(label, AUVector):
        chars = []
        for value, mask in zip(label.values, label.mask):
            chars.append(str(int(value)) if mask else "-")
        return "".join(chars)
    if isinstance(label, CompoundLabel):
        return f"{label.class_id};{label.emo1.class_id};{label.emo2.class_id}"
    raise ConfigError(f"cannot encode label of type {type(label).__name__}")


def _decode_payload(task: str, payload: str, where: str):
    if task == "VA":
        v, _, a = payload.partition(";")
        label = ValenceArousal(valence=float(v), arousal=float(a))
        for value in (label.valence, label.arousal):
            if not -1.0 <= value <= 1.0:  # also false for nan
                raise ConfigError(f"{where}: valence/arousal {value} outside [-1, 1]")
        return label
    if task == "EXPR":
        class_id = int(payload)
        if not 0 <= class_id < NUM_EXPRESSIONS:
            raise UnknownClass(f"{where}: expression class {class_id}")
        return ExpressionLabel(class_id=class_id)
    if task == "AU":
        if len(payload) != NUM_AUS or any(c not in "01-" for c in payload):
            raise BadMask(f"{where}: AU payload must be {NUM_AUS} chars over 0/1/-")
        values = [1 if c == "1" else 0 for c in payload]
        mask = [0 if c == "-" else 1 for c in payload]
        return AUVector(values=values, mask=mask)
    if task == "COMPOUND":
        parts = payload.split(";")
        if len(parts) != 3:
            raise ConfigError(f"{where}: compound payload needs 3 fields")
        class_id, emo1, emo2 = (int(p) for p in parts)
        if class_id < 0:
            raise ConfigError(f"{where}: negative compound class id {class_id}")
        if emo1 == emo2 or not (0 < emo1 < NUM_EXPRESSIONS and 0 < emo2 < NUM_EXPRESSIONS):
            raise ConfigError(
                f"{where}: compound constituents {emo1};{emo2} must be two "
                f"distinct emotions in 1..{NUM_EXPRESSIONS - 1}"
            )
        return CompoundLabel(
            class_id=class_id,
            emo1=ExpressionLabel(class_id=emo1),
            emo2=ExpressionLabel(class_id=emo2),
        )
    raise ConfigError(f"{where}: unknown task {task!r}")


def write_annotations(path, samples: Iterable[AnnotatedSample]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_csv_line(ANNOTATION_FIELDS) + "\n")
        for s in samples:
            fields = (
                s.id,
                s.split,
                s.sequence_id if s.sequence_id is not None else "",
                s.utterance_id if s.utterance_id is not None else "",
                s.frame_index if s.frame_index is not None else "",
                s.task,
                _encode_payload(s),
            )
            fh.write(_csv_line(fields) + "\n")


def read_annotations(path) -> List[AnnotatedSample]:
    """Read annotation rows; ``features`` are left empty until attached.
    A malformed row, a VA value outside [-1, 1] or a compound payload that
    is not a class id >= 0 and two distinct emotions in 1..6 raises an
    AffectKitError at ``path:line``."""
    samples: List[AnnotatedSample] = []
    with open_rows(path) as (header, rows):
        if header is None or tuple(header) != ANNOTATION_FIELDS:
            raise ConfigError(f"{path}: bad annotation header {header}")
        for line, row in rows:
            where = f"{path}:{line}"
            if len(row) != len(ANNOTATION_FIELDS):
                raise ConfigError(f"{where}: expected {len(ANNOTATION_FIELDS)} columns")
            sid, split, seq, utt, frame, task, payload = row
            try:
                label = _decode_payload(task, payload, where)
                frame_index = int(frame) if frame else None
            except ValueError as exc:
                raise ConfigError(f"{where}: {exc}") from exc
            samples.append(
                AnnotatedSample(
                    id=sid,
                    split=split,
                    features=np.empty(0),
                    label=label,
                    sequence_id=seq or None,
                    utterance_id=utt or None,
                    frame_index=frame_index,
                )
            )
    return samples


def write_features(path, samples: Iterable[AnnotatedSample]) -> None:
    samples = list(samples)
    if not samples:
        raise ConfigError("no samples to write")
    dim = samples[0].features.shape[0]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_csv_line(["id"] + [f"f{i}" for i in range(dim)]) + "\n")
        for s in samples:
            fh.write(_csv_line([s.id] + [repr(float(v)) for v in s.features]) + "\n")


def read_features(path) -> Dict[str, np.ndarray]:
    """Feature vectors by sample id. A short row, a repeated id or a value
    that is not a finite number raises ConfigError at ``path:line``."""
    out: Dict[str, np.ndarray] = {}
    with open_rows(path) as (header, rows):
        if not header or header[0] != "id":
            raise ConfigError(f"{path}: bad feature header")
        for line, row in rows:
            if len(row) != len(header):
                raise ConfigError(f"{path}:{line}: expected {len(header)} columns")
            if row[0] in out:
                raise ConfigError(f"{path}:{line}: duplicate sample id {row[0]!r}")
            try:
                values = [float(v) for v in row[1:]]
            except ValueError as exc:
                raise ConfigError(f"{path}:{line}: {exc}") from exc
            # a nan or inf makes the sum non-finite; finite values that
            # overflow it are told apart by the slower per-value check
            if not math.isfinite(sum(values)):
                if not all(map(math.isfinite, values)):
                    raise ConfigError(f"{path}:{line}: non-finite feature value")
            out[row[0]] = np.array(values, dtype=np.float64)
    return out


def load_dataset(annotations_path, features_path, split: Optional[str] = None) -> List[AnnotatedSample]:
    """Read annotations and attach feature vectors by id. With ``split``,
    keep the rows of that split, or every row if none carries it."""
    samples = read_annotations(annotations_path)
    features = read_features(features_path)
    if split is not None:
        samples = [s for s in samples if s.split == split] or samples
    missing = [s.id for s in samples if s.id not in features]
    if missing:
        raise KeyMisalignment(
            f"{len(missing)} annotated ids have no feature row "
            f"(first: {missing[0]!r})"
        )
    for s in samples:
        s.features = features[s.id]
    return samples


def stack_audio(samples: Sequence[AnnotatedSample], audio_dim: int) -> Optional[np.ndarray]:
    """The samples' audio features as (N, A) rows, or None when the model
    has no audio stream (``audio_dim`` 0); a sample without audio is an
    error."""
    if not audio_dim:
        return None
    for s in samples:
        if s.audio_features is None:
            raise ConfigError(f"{s.id}: audio_dim set but sample has no audio")
    return np.array([s.audio_features for s in samples])


def _probs_field(probs: Optional[np.ndarray]) -> str:
    if probs is None:
        return ""
    return ";".join(map(repr, np.asarray(probs, dtype=np.float64).tolist()))


def _float_field(value: Optional[float]) -> str:
    return "" if value is None else repr(float(value))


def write_predictions(path, records: Iterable[PredictionRecord]) -> None:
    """One CSV row per record. ``csv`` formats the id and frame index, so an
    id is quoted exactly when ``csv`` would quote it; the other fields are
    float reprs joined by ';', which ``csv`` never quotes, so they are
    appended as they are rather than scanned again character by character."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_csv_line(PREDICTION_FIELDS) + "\n")
        fh.writelines(
            f"{_csv_line((r.id, '' if r.frame_index is None else r.frame_index))},"
            f"{_float_field(r.valence)},{_float_field(r.arousal)},"
            f"{_probs_field(r.expr_probs)},{_probs_field(r.au_probs)}\n"
            for r in records
        )


def _finite(text: str, name: str) -> Optional[float]:
    value = float(text) if text else None
    if value is not None and not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {text!r}")
    return value


def _probs(text: str, width: int, name: str, simplex: bool) -> Optional[np.ndarray]:
    if not text:
        return None
    probs = np.array([float(p) for p in text.split(";")])
    if probs.size != width or not np.all((probs >= 0.0) & (probs <= 1.0)):
        raise ValueError(f"{name} must be {width} values in [0, 1], got {text!r}")
    if simplex and abs(probs.sum() - 1.0) > 1e-6:
        raise ValueError(f"{name} must sum to 1 within 1e-6, got {probs.sum()!r}")
    return probs


def read_predictions(path) -> List[PredictionRecord]:
    """Read prediction rows; a malformed row raises ConfigError at
    ``path:line``. Valence and arousal must be finite (the VA head is
    unbounded, so no range applies), ``expr_probs`` must be a distribution
    over the 7 expressions and ``au_probs`` 17 values in [0, 1]."""
    records: List[PredictionRecord] = []
    with open_rows(path) as (header, rows):
        if header is None or tuple(header) != PREDICTION_FIELDS:
            raise ConfigError(f"{path}: bad prediction header {header}")
        for line, row in rows:
            if len(row) != len(PREDICTION_FIELDS):
                raise ConfigError(f"{path}:{line}: expected {len(PREDICTION_FIELDS)} columns")
            sid, frame, valence, arousal, expr, au = row
            try:
                record = PredictionRecord(
                    id=sid,
                    frame_index=int(frame) if frame else None,
                    valence=_finite(valence, "valence"),
                    arousal=_finite(arousal, "arousal"),
                    expr_probs=_probs(expr, NUM_EXPRESSIONS, "expr_probs", simplex=True),
                    au_probs=_probs(au, NUM_AUS, "au_probs", simplex=False),
                )
            except ValueError as exc:
                raise ConfigError(f"{path}:{line}: {exc}") from exc
            records.append(record)
    return records


def write_report(path, metrics: Dict[str, float]) -> None:
    """Write ``name = value`` lines, six decimals, sorted by name."""
    with open(path, "w", encoding="utf-8") as fh:
        for name in sorted(metrics):
            fh.write(f"{name} = {metrics[name]:.6f}\n")


def read_report(path) -> Dict[str, float]:
    out: Dict[str, float] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            name, _, value = line.partition("=")
            out[name.strip()] = float(value)
    return out
