"""CSV readers and writers for datasets and predictions, and a metric report writer.

Annotation rows carry one label each; the payload encoding depends on the
task column:

* ``VA``        ``<valence>;<arousal>``
* ``EXPR``      a single class digit
* ``AU``        17 characters over ``{0,1,-}`` ('-' marks unannotated units)
* ``COMPOUND``  ``<class>;<emo1>;<emo2>``

Optional columns round-trip ``None`` as the empty string.

An annotation file is parsed once into :class:`SampleColumns`: ids, splits,
sequence ids, utterance ids and frame indices as lists, and every row's
task and label straight into ``BatchLabels`` columns, where a label a row
lacks keeps its ``BatchLabels.zeros`` value. A feature file becomes
one (N, D) matrix, and :func:`load_dataset` takes its rows by id
(:func:`load_splits` several splits from one parse). Each column is
checked at load, and a bad value names the ``path:line`` of its row; an id
repeated within any one file is an error. A split is the one row store of
training and evaluation, from the file to the score, and makes its
packing keys once. No label becomes a per-row object; slicing a split
copies its columns, and iterating it yields ids and feature rows (see
:class:`SampleColumns`).

A plain feature file is read in blocks, each line's id peeled off with one
``partition``, and all values converted by one ``np.loadtxt`` call. Plain
means: no ``"``, CR or NUL, no line longer than ``csv.field_size_limit()``,
at least one data row, and every value written only with ``0-9 + - . e E``.
Over those characters ``float()`` and ``loadtxt`` accept the same strings
and both end in ``PyOS_string_to_double``, so the values are bit-identical
to the per-row parse. The result is kept only if it has one row per id and
a value per header column, every value is finite and no id repeats; any
other file goes through the per-row reader (``csv`` rows, one ``float()``
per value), which alone raises the errors.

The writers are the readers' inverses and take columns too; they, and
the report writer, write through ``csvfile.atomic_write``.
"""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass
from functools import cached_property
from types import SimpleNamespace
from itertools import chain
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..csvfile import atomic_write, open_rows, open_text
from ..errors import BadMask, ConfigError, KeyMisalignment, ShapeMismatch, UnknownClass
from ..losses import TASKS, BatchLabels
from ..models import sequence_keys
from ..types import NUM_AUS, NUM_EXPRESSIONS, PredictionRecord

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
_AU_CODES = np.frombuffer(b"01-", dtype=np.uint8)
# The characters a feature value may hold on the plain-file path, plus the
# separator between values: over them, float() and np.loadtxt accept the
# same strings and parse them to the same double.
_PLAIN_VALUE_BYTES = b"0123456789+-.eE,"
_BLOCK_CHARS = 1 << 14  # characters read per block; larger blocks raise the peak memory


class SampleRow(NamedTuple):
    """One row of a split as :meth:`SampleColumns.__iter__` yields it."""

    id: str
    features: np.ndarray  # the row of the split's (N, D) matrix, as a view


@dataclass(eq=False)
class SampleColumns:
    """A dataset as columns: row i of every field is one annotation row, in
    file order.

    ``labels`` holds each row's task and own label (see ``BatchLabels``).
    ``compound_pair`` holds the two constituent emotions of each compound
    row, and ``features`` the (N, D) feature matrix once
    :func:`load_dataset` has attached it. ``len()`` counts the rows, a
    slice is :meth:`take` of its row numbers, and iterating a split with
    features yields one :class:`SampleRow` per row. An empty split is
    falsy, and a split compares equal only to itself.
    """

    ids: List[str]
    split: List[str]
    sequence_id: List[Optional[str]]
    utterance_id: List[Optional[str]]
    frame_index: List[Optional[int]]
    labels: BatchLabels
    compound_pair: np.ndarray
    features: Optional[np.ndarray] = None

    @cached_property
    def keys(self) -> Optional[np.ndarray]:
        """The ``models.sequence_keys`` of these rows, made on first use and
        kept (None too): a split's rows never change."""
        return sequence_keys(self.sequence_id, self.frame_index)

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, rows: slice) -> "SampleColumns":
        return self.take(range(len(self.ids))[rows])

    def __iter__(self) -> Iterator[SampleRow]:
        return map(SampleRow, self.ids, self.features)

    def take(self, rows: Sequence[int]) -> "SampleColumns":
        """The given rows of every column, as new lists and arrays."""
        cols = (self.ids, self.split, self.sequence_id, self.utterance_id, self.frame_index)
        return SampleColumns(
            *([col[r] for r in rows] for col in cols),
            self.labels.take(rows), self.compound_pair[rows],
            None if self.features is None else self.features[rows],
        )

    def check_feature_dim(self, dim: int, path) -> None:
        """Refuse feature rows that are not ``dim`` wide, naming ``path``,
        the feature file they came from."""
        if self.features.shape[1] != dim:
            raise ShapeMismatch(
                f"{path}: features dim {self.features.shape[1]}, model expects {dim}"
            )

    def check_compound_classes(self, classes: int) -> None:
        """Refuse the first compound row whose class id is not below
        ``classes``, the width of a model's compound head, by its id."""
        over = (self.labels.task == TASKS.index("COMPOUND")) & (self.labels.compound >= classes)
        if over.any():
            r = int(over.argmax())
            raise ConfigError(
                f"{self.ids[r]}: compound class id {self.labels.compound[r]} is not below "
                f"compound_classes = {classes}"
            )


def write_annotations(path, data: SampleColumns) -> None:
    """One row per row of ``data``, its payload encoded from the row's task
    and label arrays: the inverse of :func:`read_annotation_columns`. An AU
    unit whose mask is 0 is written as '-'."""
    lab = data.labels
    task = [TASKS[k] for k in lab.task.tolist()]
    digits = (lab.au_targets != 0).view(np.uint8) + np.uint8(ord("0"))
    text = np.where(lab.au_mask != 0, digits, np.uint8(ord("-"))).tobytes().decode("ascii")
    payload = [text[i : i + NUM_AUS] for i in range(0, len(text), NUM_AUS)]
    va, expr, compound = (lab.task == TASKS.index(t) for t in ("VA", "EXPR", "COMPOUND"))
    pairs = zip(*(a[compound].tolist() for a in (lab.compound, data.compound_pair)))
    for rows, encoded in (
        (va, (f"{v!r};{a!r}" for v, a in lab.va[va].tolist())),
        (expr, map(str, lab.expr[expr].tolist())),
        (compound, (f"{c};{e1};{e2}" for c, (e1, e2) in pairs)),
    ):
        for r, value in zip(np.flatnonzero(rows).tolist(), encoded):
            payload[r] = value
    optional = [
        ["" if v is None else v for v in col]
        for col in (data.sequence_id, data.utterance_id, data.frame_index)
    ]
    with atomic_write(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_csv_line(ANNOTATION_FIELDS) + "\n")
        fh.writelines(
            _csv_line(row) + "\n" for row in zip(data.ids, data.split, *optional, task, payload)
        )


def _check_unique(ids: List[str], path, lines: List[int]) -> None:
    if len(set(ids)) < len(ids):
        seen = set()
        for sid, line in zip(ids, lines):
            if sid in seen:
                raise ConfigError(f"{path}:{line}: duplicate sample id {sid!r}")
            seen.add(sid)


def _compound(payload: str) -> Tuple[int, int, int]:
    parts = payload.split(";")
    if len(parts) != 3:
        raise ValueError("compound payload needs 3 fields")
    class_id, emo1, emo2 = map(int, parts)
    if class_id < 0:
        raise ValueError(f"negative compound class id {class_id}")
    if class_id > np.iinfo(np.int64).max:
        raise ValueError(f"compound class id {class_id} is too large")
    if emo1 == emo2 or not (0 < emo1 < NUM_EXPRESSIONS and 0 < emo2 < NUM_EXPRESSIONS):
        raise ValueError(
            f"compound constituents {emo1};{emo2} must be two "
            f"distinct emotions in 1..{NUM_EXPRESSIONS - 1}"
        )
    return class_id, emo1, emo2


def read_annotation_columns(path) -> SampleColumns:
    """Parse an annotation file once into columns, without features.

    Each column is checked as a whole, and a bad value raises an
    AffectKitError at the ``path:line`` of its row: a malformed row, a
    repeated id, a VA value outside [-1, 1], an expression class outside
    0..6, an AU payload that is not 17 characters over ``0``/``1``/``-``,
    or a compound payload that is not a class id >= 0 and two distinct
    emotions in 1..6. With several bad rows, the first check that fails
    names its first row.
    """
    lines: List[int] = []
    records: List[List[str]] = []
    with open_rows(path) as (header, rows):
        if header is None or tuple(header) != ANNOTATION_FIELDS:
            raise ConfigError(f"{path}: bad annotation header {header}")
        for line, row in rows:
            if len(row) != len(ANNOTATION_FIELDS):
                raise ConfigError(f"{path}:{line}: expected {len(ANNOTATION_FIELDS)} columns")
            lines.append(line)
            records.append(row)
    ids, split, seq, utt, frame, task, payload = (
        [list(col) for col in zip(*records)] or [[] for _ in ANNOTATION_FIELDS]
    )
    _check_unique(ids, path, lines)

    def fail(row: int, message, error=ConfigError):
        raise error(f"{path}:{lines[row]}: {message}")

    def parse(convert, column: List[str], rows) -> list:
        out: list = []
        try:
            for r in rows:
                out.append(convert(column[r]))
        except ValueError as exc:
            fail(rows[len(out)], exc)
        return out

    frame_index = parse(lambda f: int(f) if f else None, frame, range(len(ids)))
    by_task: Dict[str, List[int]] = {name: [] for name in TASKS}
    for r, name in enumerate(task):
        if name not in by_task:
            fail(r, f"unknown task {name!r}")
        by_task[name].append(r)
    labels = BatchLabels.zeros(len(ids))
    for k, name in enumerate(TASKS):
        labels.task[by_task[name]] = k

    rows = by_task["VA"]
    va = np.array(parse(lambda p: [*map(float, p.partition(";")[::2])], payload, rows))
    va = va.reshape(len(rows), 2)
    bad = np.flatnonzero(~((va >= -1.0) & (va <= 1.0)).all(axis=1))  # nan is bad too
    if bad.size:
        value = next(v for v in va[bad[0]].tolist() if not -1.0 <= v <= 1.0)
        fail(rows[bad[0]], f"valence/arousal {value} outside [-1, 1]")
    labels.va[rows] = va

    rows = by_task["EXPR"]
    classes = parse(int, payload, rows)
    for r, class_id in zip(rows, classes):
        if not 0 <= class_id < NUM_EXPRESSIONS:
            fail(r, f"expression class {class_id}", UnknownClass)
    labels.expr[rows] = classes

    rows = by_task["AU"]
    texts = [payload[r] for r in rows]
    codes = np.frombuffer("".join(texts).encode(), dtype=np.uint8)
    # a non-ASCII character encodes to bytes outside "01-"
    if set(map(len, texts)) - {NUM_AUS} or not np.isin(codes, _AU_CODES).all():
        r = next(r for r, p in zip(rows, texts) if len(p) != NUM_AUS or set(p) - set("01-"))
        fail(r, f"AU payload must be {NUM_AUS} chars over 0/1/-", BadMask)
    codes = codes.reshape(len(rows), NUM_AUS)
    labels.au_targets[rows] = codes == ord("1")
    labels.au_mask[rows] = codes != ord("-")

    rows = by_task["COMPOUND"]
    compound = np.array(parse(_compound, payload, rows), dtype=np.int64).reshape(len(rows), 3)
    labels.compound[rows] = compound[:, 0]
    compound_pair = np.zeros((len(ids), 2), dtype=np.int64)
    compound_pair[rows] = compound[:, 1:]
    return SampleColumns(
        ids, split, [s or None for s in seq], [u or None for u in utt], frame_index,
        labels, compound_pair,
    )


def write_features(path, ids: Sequence[str], matrix: np.ndarray) -> None:
    """One row per id: the id, then its row of the (N, D) ``matrix`` as
    float reprs, which :func:`read_feature_columns` reads back bit for bit."""
    matrix = np.asarray(matrix, dtype=np.float64)
    with atomic_write(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_csv_line(["id"] + [f"f{i}" for i in range(matrix.shape[1])]) + "\n")
        fh.writelines(
            _csv_line([sid, *map(repr, row.tolist())]) + "\n" for sid, row in zip(ids, matrix)
        )


def read_feature_columns(path) -> Tuple[List[str], np.ndarray]:
    """Feature ids in file order and their values as one (N, D) float64
    matrix. A short row, a repeated id or a value that is not a finite
    number raises ConfigError at ``path:line``.

    A plain file is parsed in one ``np.loadtxt`` pass; any other file, and
    every file with an error, goes through the per-row reader."""
    return _read_plain_features(path) or _read_feature_rows(path)


class _NotPlain(Exception):
    """A feature file that only the per-row reader may parse."""


def _plain_blocks(fh, ids: List[str], limit: int) -> Iterator[Tuple[str, ...]]:
    """The value text of each block of data lines, the ids of its lines
    appended to ``ids`` first. Blank lines are skipped, as ``csv`` skips
    them; a line ``csv`` might read differently raises _NotPlain."""
    rest = ""
    while True:
        chunk = fh.read(_BLOCK_CHARS)
        if chunk:
            text, newline, rest = (rest + chunk).rpartition("\n")
            if not newline:  # no line ends in this block yet
                if len(rest) > limit:
                    raise _NotPlain
                continue
        elif rest:
            text, rest = rest, ""
        else:
            return
        if '"' in text or "\r" in text or "\0" in text:
            raise _NotPlain
        lines = text.split("\n")
        if "" in lines:
            lines = [line for line in lines if line]
            if not lines:
                continue
        if max(map(len, lines)) > limit:
            raise _NotPlain
        block_ids, _, values = zip(*[line.partition(",") for line in lines])
        # a line without a value, or a character float() and loadtxt may
        # read differently (non-ASCII text fails the encode)
        if "" in values or "".join(values).encode("ascii").translate(None, _PLAIN_VALUE_BYTES):
            raise _NotPlain
        ids.extend(block_ids)
        yield values


def _read_plain_features(path) -> Optional[Tuple[List[str], np.ndarray]]:
    """:func:`read_feature_columns`' result for a plain file, or None when
    the per-row reader has to decide."""
    limit = csv.field_size_limit()
    ids: List[str] = []
    try:
        with open_text(path) as fh:
            header = fh.readline()
            if not header.startswith("id,") or not header.endswith("\n") or any(
                c in header for c in '"\r\0'
            ) or len(header) > limit:
                return None
            blocks = _plain_blocks(fh, ids, limit)
            first = next(blocks, None)
            if first is None:
                return None
            matrix = np.loadtxt(
                chain(first, chain.from_iterable(blocks)),
                delimiter=",", comments=None, ndmin=2, dtype=np.float64,
            )
    except (_NotPlain, ValueError):  # UnicodeError is a ValueError
        return None
    if (
        matrix.shape != (len(ids), header.count(","))
        or not np.isfinite(matrix).all()
        or len(set(ids)) < len(ids)
    ):
        return None
    return ids, matrix


def _read_feature_rows(path) -> Tuple[List[str], np.ndarray]:
    """The per-row reader: each row through ``csv`` and each value through
    ``float()``; every error of :func:`read_feature_columns` comes from here."""
    lines: List[int] = []
    ids: List[str] = []
    values = array("d")  # keeps no float object per value alive
    with open_rows(path) as (header, rows):
        if not header or header[0] != "id":
            raise ConfigError(f"{path}: bad feature header")
        for line, row in rows:
            if len(row) != len(header):
                raise ConfigError(f"{path}:{line}: expected {len(header)} columns")
            try:
                values.extend(map(float, row[1:]))
            except ValueError as exc:
                raise ConfigError(f"{path}:{line}: {exc}") from exc
            lines.append(line)
            ids.append(row[0])
    _check_unique(ids, path, lines)
    matrix = np.frombuffer(values, dtype=np.float64).reshape(len(ids), len(header) - 1)
    bad = np.flatnonzero(~np.isfinite(matrix).all(axis=1))
    if bad.size:
        raise ConfigError(f"{path}:{lines[bad[0]]}: non-finite feature value")
    return ids, matrix


def load_dataset(annotations_path, features_path, split: Optional[str] = None) -> SampleColumns:
    """Read annotations and attach each row's feature vector by id. With
    ``split``, keep the rows of that split (ConfigError if there are none);
    with None, every row. An annotated id without a feature row raises
    KeyMisalignment."""
    return load_splits(annotations_path, features_path, (split,))[0]


def load_splits(
    annotations_path, features_path, splits: Sequence[Optional[str]]
) -> List[SampleColumns]:
    """:func:`load_dataset` for each of ``splits``, parsing both files once;
    no two results share a list or an array."""
    data = read_annotation_columns(annotations_path)
    ids, matrix = read_feature_columns(features_path)
    index = dict(zip(ids, range(len(ids))))
    out: List[SampleColumns] = []
    for split in splits:
        rows = [r for r, s in enumerate(data.split) if s == split or split is None]
        if not rows and split is not None:
            held = ", ".join(map(repr, sorted(set(data.split)))) or "none"
            raise ConfigError(f"{annotations_path}: no row is in split {split!r} "
                              f"(splits in the file: {held})")
        part = data.take(rows) if out or len(rows) < len(data.ids) else data
        missing = [sid for sid in part.ids if sid not in index]
        if missing:
            raise KeyMisalignment(
                f"{len(missing)} annotated ids have no feature row "
                f"(first: {missing[0]!r})"
            )
        part.features = matrix[[index[sid] for sid in part.ids]]
        out.append(part)
    return out


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
    with atomic_write(path, "w", encoding="utf-8", newline="") as fh:
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
    over the 7 expressions and ``au_probs`` 17 values in [0, 1]; an id
    must not repeat."""
    lines: List[int] = []
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
            lines.append(line)
            records.append(record)
    _check_unique([r.id for r in records], path, lines)
    return records


def write_report(path, metrics: Dict[str, float]) -> None:
    """Write ``name = value`` lines, six decimals, sorted by name."""
    with atomic_write(path, "w", encoding="utf-8") as fh:
        for name in sorted(metrics):
            fh.write(f"{name} = {metrics[name]:.6f}\n")

