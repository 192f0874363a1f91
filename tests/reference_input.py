"""Test-only per-row references for the column readers and writers and the
training table, the SVD landmark alignment, and the file helpers the tests
write and read fixtures with.

``AnnotatedSample`` is one annotation row as an object, its label one of
``ValenceArousal``, ``ExpressionLabel``, ``AUVector`` and ``CompoundLabel``:
the per-row codec the program kept before a split became one
``SampleColumns`` from file to score. ``columns_of`` and ``samples_of``
convert in-memory samples to and from columns, a row at a time.
``read_annotations``, ``read_features`` and ``load_dataset`` are the readers
that built one ``AnnotatedSample`` per row, and ``write_annotations`` the
writer that encoded one per row, dispatching on its label's type;
``label_arrays`` encodes in-memory samples into a ``BatchLabels`` one
sample at a time. ``build_table`` is the training table they fed, encoding
each sample's label and co-annotating it one sample at a time. ``read_feature_columns`` is the per-row feature matrix
reader, each row through ``csv`` and each value through ``float()``, that
``dataio.read_feature_columns`` falls back to off its ``np.loadtxt`` path. ``soft_scores``, ``soft_coannotate``,
``coannotate_aus_to_emotion`` and ``coannotate_emotion_to_aus`` are the
per-sample coupling loops that the row-wise engines in
``affectkit.relatedness`` and the training table replaced; like
``soft_coannotate_rows``, the soft ones flag a row that leaves a table AU
unannotated instead of raising. The equivalence tests compare the program
against these with ``array_equal``.

``TaskPartition``, ``ConcatBatch`` and ``epoch_iterator`` are the sampler
that walked id tuples grouped by label type, and ``compound_chunks`` the
separate chunker of compound-only runs, both of which
``sampler.epoch_iterator`` over row arrays replaced; the sampler tests
compare its batches with theirs as row lists.

``fit_alignment_lstsq`` is the landmark alignment that
``preprocess.fit_alignment``'s closed form replaced: an absolute rank test
on the design matrix ``[src, 1]`` and a LAPACK least-squares solve. The
alignment tests compare the two at explicit tolerances.

``write_audio`` writes the audio format ``preprocess.read_audio`` reads,
``read_report`` reads the file ``dataio.write_report`` writes,
``blank_columns`` makes unlabelled rows for a test to label, and
``write_columns`` and ``write_samples`` write columns and in-memory samples
through the column writers.
"""

import math
from array import array
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace
from typing import Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from affectkit.csvfile import open_rows
from affectkit.errors import (
    BadMask,
    ConfigError,
    DegenerateLandmarks,
    KeyMisalignment,
    UnknownClass,
    ValueOutOfRange,
)
from affectkit.harness import dataio
from affectkit.harness.dataio import ANNOTATION_FIELDS, SampleColumns, _csv_line
from affectkit.losses import TASKS, BatchLabels
from affectkit.preprocess import AffineFit, LandmarkSet
from affectkit.relatedness import RelatednessTable
from affectkit.types import NUM_AUS, NUM_EXPRESSIONS, au_index

# ---------------------------------------------------------------------------
# the per-row sample codec


@dataclass(frozen=True)
class ValenceArousal:
    valence: float
    arousal: float


@dataclass(frozen=True)
class ExpressionLabel:
    class_id: int


class AUVector:
    """17 binary AU activations and a 17-entry annotation mask (all ones by
    default), both stored as read-only uint8 arrays."""

    __slots__ = ("values", "mask")

    def __init__(self, values, mask=None):
        self.values = np.array(values, dtype=np.uint8)
        self.mask = np.ones(NUM_AUS, np.uint8) if mask is None else np.array(mask, np.uint8)
        self.values.setflags(write=False)
        self.mask.setflags(write=False)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AUVector)
            and np.array_equal(self.values, other.values)
            and np.array_equal(self.mask, other.mask)
        )


@dataclass(frozen=True)
class CompoundLabel:
    class_id: int
    emo1: ExpressionLabel
    emo2: ExpressionLabel


Label = Union[ValenceArousal, ExpressionLabel, AUVector, CompoundLabel]


@dataclass(eq=False)
class AnnotatedSample:
    """One annotation row; ``task`` follows from the label's type."""

    id: str
    split: str
    features: np.ndarray
    label: Label
    sequence_id: Optional[str] = None
    utterance_id: Optional[str] = None
    frame_index: Optional[int] = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)

    @property
    def task(self) -> str:
        kinds = (ValenceArousal, ExpressionLabel, AUVector, CompoundLabel)
        return ("VA", "EXPR", "AU", "COMPOUND")[kinds.index(type(self.label))]

    def __eq__(self, other) -> bool:
        return (
            (self.id, self.split, self.sequence_id, self.utterance_id, self.frame_index)
            == (other.id, other.split, other.sequence_id, other.utterance_id, other.frame_index)
            and np.array_equal(self.features, other.features)
            and self.label == other.label
        )


def columns_of(samples: List[AnnotatedSample]) -> SampleColumns:
    """The columns of in-memory samples, their features stacked: the
    inverse of :func:`samples_of`."""
    labels = BatchLabels.zeros(len(samples))
    pairs = np.zeros((len(samples), 2), dtype=np.int64)
    for r, s in enumerate(samples):
        label, task = s.label, s.task
        labels.task[r] = TASKS.index(task)
        if task == "VA":
            labels.va[r] = label.valence, label.arousal
        elif task == "EXPR":
            labels.expr[r] = label.class_id
        elif task == "COMPOUND":
            labels.compound[r] = label.class_id
            pairs[r] = label.emo1.class_id, label.emo2.class_id
        else:
            labels.au_targets[r] = label.values
            labels.au_mask[r] = label.mask
    return SampleColumns(
        *([getattr(s, name) for s in samples]
          for name in ("id", "split", "sequence_id", "utterance_id", "frame_index")),
        labels, pairs, np.array([s.features for s in samples], dtype=np.float64),
    )


def samples_of(data: SampleColumns) -> List[AnnotatedSample]:
    """One AnnotatedSample per row of ``data``; its features are a row of
    the matrix, or empty when none is attached."""
    lab = data.labels
    out = []
    for r, kind in enumerate(lab.task.tolist()):
        task = TASKS[kind]
        if task == "VA":
            label = ValenceArousal(*lab.va[r].tolist())
        elif task == "EXPR":
            label = ExpressionLabel(int(lab.expr[r]))
        elif task == "COMPOUND":
            emo1, emo2 = map(ExpressionLabel, data.compound_pair[r].tolist())
            label = CompoundLabel(int(lab.compound[r]), emo1, emo2)
        else:
            label = AUVector(lab.au_targets[r], lab.au_mask[r])
        features = np.empty(0) if data.features is None else data.features[r]
        out.append(AnnotatedSample(
            data.ids[r], data.split[r], features, label,
            data.sequence_id[r], data.utterance_id[r], data.frame_index[r],
        ))
    return out


# ---------------------------------------------------------------------------
# coupling


def soft_scores(aus: AUVector, table: RelatednessTable, reweight: bool = True):
    """(scores, complete): complete is false when a table AU is unannotated."""
    values, mask = aus.values.tolist(), aus.mask.tolist()
    scores = np.zeros(NUM_EXPRESSIONS, dtype=np.float64)
    complete = True
    for cid, weighted in table.rows:
        num = 0.0
        den = 0.0
        for au, w in weighted:
            i = au_index(au)
            complete = complete and bool(mask[i])
            weight = w if reweight else 1.0
            num += weight * values[i]
            den += weight
        scores[cid] = num / den if den > 0 else 0.0
    return scores, complete


def soft_coannotate(aus: AUVector, table: RelatednessTable, reweight: bool = True):
    """(softmax of the scores, complete), as :func:`soft_scores` flags it."""
    scores, complete = soft_scores(aus, table, reweight=reweight)
    e = np.exp(scores - scores.max())
    return np.asarray([float(p) for p in e / e.sum()]), complete


def coannotate_emotion_to_aus(label: ExpressionLabel, table: RelatednessTable) -> list:
    """``[(au_id, 1, weight), ...]``: prototypical AUs at weight 1.0,
    observational AUs at their table weight; neutral implies nothing."""
    return [(au, 1, w) for au, w in dict(table.rows).get(label.class_id, ())]


def coannotate_aus_to_emotion(aus: AUVector, table: RelatednessTable) -> Optional[ExpressionLabel]:
    best = None  # (requirement size, class id)
    for cid, weighted in table.rows:
        ids = [au for au, _ in weighted]
        if not ids:
            continue
        if not all(aus.mask[au_index(au)] for au in ids):
            continue
        if not all(aus.values[au_index(au)] == 1 for au in ids):
            continue
        key = (len(ids), -cid)
        if best is None or key > (best[0], -best[1]):
            best = (len(ids), cid)
    return None if best is None else ExpressionLabel(best[1])


# ---------------------------------------------------------------------------
# readers


def _decode_payload(task: str, payload: str, where: str):
    if task == "VA":
        v, _, a = payload.partition(";")
        label = ValenceArousal(valence=float(v), arousal=float(a))
        for value in (label.valence, label.arousal):
            if not -1.0 <= value <= 1.0:
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
        return CompoundLabel(class_id, ExpressionLabel(emo1), ExpressionLabel(emo2))
    raise ConfigError(f"{where}: unknown task {task!r}")


def read_annotations(path) -> List[AnnotatedSample]:
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
                    id=sid, split=split, features=np.empty(0), label=label,
                    sequence_id=seq or None, utterance_id=utt or None, frame_index=frame_index,
                )
            )
    return samples


def read_features(path) -> Dict[str, np.ndarray]:
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
            if not all(map(math.isfinite, values)):
                raise ConfigError(f"{path}:{line}: non-finite feature value")
            out[row[0]] = np.array(values, dtype=np.float64)
    return out


def read_feature_columns(path) -> Tuple[List[str], np.ndarray]:
    """The per-row feature reader: each row through ``csv``, each value
    through ``float()``, finiteness and repeated ids checked afterwards."""
    lines: List[int] = []
    ids: List[str] = []
    values = array("d")
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
    seen = set()
    for sid, line in zip(ids, lines):
        if sid in seen:
            raise ConfigError(f"{path}:{line}: duplicate sample id {sid!r}")
        seen.add(sid)
    matrix = np.frombuffer(values, dtype=np.float64).reshape(len(ids), len(header) - 1)
    bad = np.flatnonzero(~np.isfinite(matrix).all(axis=1))
    if bad.size:
        raise ConfigError(f"{path}:{lines[bad[0]]}: non-finite feature value")
    return ids, matrix


def load_dataset(annotations_path, features_path, split=None) -> List[AnnotatedSample]:
    samples = read_annotations(annotations_path)
    features = read_features(features_path)
    if split is not None:
        held = sorted({s.split for s in samples})
        samples = [s for s in samples if s.split == split]
        if not samples:
            raise ConfigError(f"{annotations_path}: no row of split {split!r}; it holds {held}")
    missing = [s.id for s in samples if s.id not in features]
    if missing:
        raise KeyMisalignment(f"{len(missing)} annotated ids have no feature row")
    for s in samples:
        s.features = features[s.id]
    return samples


# ---------------------------------------------------------------------------
# writers and label encoding


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


def write_annotations(path, samples: List[AnnotatedSample]) -> None:
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


def label_arrays(samples: List[AnnotatedSample]) -> BatchLabels:
    """Write each sample's task and own label into row i of a BatchLabels.

    A sample carries exactly one label; an AU row with no annotated unit
    keeps a zero mask, because the masked cross-entropy has nothing to
    weigh in it. No row has a soft target here.
    """
    labels = BatchLabels.zeros(len(samples))
    for row, sample in enumerate(samples):
        label, task = sample.label, sample.task
        labels.task[row] = TASKS.index(task)
        if task == "VA":
            labels.va[row] = (label.valence, label.arousal)
        elif task == "EXPR":
            labels.expr[row] = label.class_id
        elif task == "AU":
            labels.au_targets[row] = label.values
            labels.au_mask[row] = label.mask
        else:
            labels.compound[row] = label.class_id
    return labels


# ---------------------------------------------------------------------------
# the training table


def build_table(samples: List[AnnotatedSample], config) -> SimpleNamespace:
    """Features, labels with co-annotation targets, and the four pools."""
    labels = label_arrays(samples)
    au, va, expr, compound = (
        tuple(r for r, s in enumerate(samples) if s.task == task) for task in TASKS
    )
    table = config.relatedness_table()
    if config.coupling == "coannotation":
        for r in expr:
            implied = coannotate_emotion_to_aus(samples[r].label, table)
            if implied:
                for au_id, target, weight in implied:
                    labels.au_targets[r, au_index(au_id)] = target
                    labels.au_mask[r, au_index(au_id)] = weight
        for r in au:
            implied = coannotate_aus_to_emotion(samples[r].label, table)
            if implied is not None:
                labels.expr[r] = implied.class_id
    elif config.coupling in ("soft_coannotation", "soft+distr"):
        for r in au:
            target, complete = soft_coannotate(
                samples[r].label, table, reweight=config.reweight_soft
            )
            if complete:
                labels.soft[r] = target
    return SimpleNamespace(
        features=np.array([s.features for s in samples]),
        labels=labels,
        va_rows=va,
        au_rows=au,
        expr_rows=expr,
        compound_rows=compound,
    )


# ---------------------------------------------------------------------------
# the sampler: id-tuple pools, and the separate chunker of compound runs


@dataclass(frozen=True)
class TaskPartition:
    """Disjoint sample-id pools per label type, with per-pool chunk sizes."""

    va_ids: Tuple = ()
    au_ids: Tuple = ()
    expr_ids: Tuple = ()
    batch_sizes: Tuple[int, int, int] = (1, 1, 1)

    def __post_init__(self):
        pools = (self.va_ids, self.au_ids, self.expr_ids)
        seen = set()
        for pool in pools:
            for sample_id in pool:
                if sample_id in seen:
                    raise ValueOutOfRange(f"sample id {sample_id!r} appears in two pools")
                seen.add(sample_id)
        for pool, b in zip(pools, self.batch_sizes):
            if pool and b < 1:
                raise ValueOutOfRange(f"chunk size {b} for a nonempty pool")

    def epoch_length(self) -> int:
        lengths = [
            math.ceil(len(pool) / b)
            for pool, b in zip(
                (self.va_ids, self.au_ids, self.expr_ids), self.batch_sizes
            )
            if pool
        ]
        return max(lengths) if lengths else 0


@dataclass(frozen=True)
class ConcatBatch:
    """One training iteration's ids, still grouped by label type."""

    va: Tuple
    au: Tuple
    expr: Tuple

    def all_ids(self) -> Tuple:
        return self.va + self.au + self.expr


def epoch_iterator(
    partition: TaskPartition,
    seed: int,
    epoch: int = 0,
    shuffle: bool = True,
) -> Iterator[ConcatBatch]:
    """Yield the epoch's concatenated batches.

    Each pool is walked in sequential chunks of its batch size over a
    per-epoch shuffle (seeded by (seed, epoch), so epochs differ but runs
    repeat); the last chunk may be short. Every id is emitted exactly
    once per epoch.
    """
    pools = (partition.va_ids, partition.au_ids, partition.expr_ids)
    orders: List[Tuple] = []
    for k, pool in enumerate(pools):
        pool = tuple(pool)
        if shuffle and pool:
            rng = np.random.default_rng([int(seed), int(epoch), k])
            pool = tuple(pool[i] for i in rng.permutation(len(pool)))
        orders.append(pool)
    steps = partition.epoch_length()
    for it in range(steps):
        chunks = []
        for pool, b in zip(orders, partition.batch_sizes):
            if not pool:
                chunks.append(())
                continue
            chunks.append(pool[it * b : (it + 1) * b])
        yield ConcatBatch(va=chunks[0], au=chunks[1], expr=chunks[2])


def compound_chunks(rows: Tuple[int, ...], batch: int, seed: int, epoch: int, shuffle: bool):
    order = list(rows)
    if shuffle:
        rng = np.random.default_rng([int(seed), int(epoch)])
        order = [order[i] for i in rng.permutation(len(order))]
    for start in range(0, len(order), batch):
        yield tuple(order[start : start + batch])


# ---------------------------------------------------------------------------
# alignment


def fit_alignment_lstsq(source: LandmarkSet, canonical: LandmarkSet) -> AffineFit:
    """Least-squares affine A with A @ [x, y, 1] ~= canonical point, by SVD;
    a design matrix of numerical rank below 3 at tolerance 1e-9 is refused
    as collinear."""
    src = source.as_array()
    dst = canonical.as_array()
    design = np.hstack([src, np.ones((5, 1))])
    if np.linalg.matrix_rank(design, tol=1e-9) < 3:
        raise DegenerateLandmarks("source landmarks are collinear")
    solution, _, _, _ = np.linalg.lstsq(design, dst, rcond=None)
    matrix = solution.T  # (2,3)
    mapped = design @ solution
    residual = float(np.sqrt(np.mean(np.sum((mapped - dst) ** 2, axis=1))))
    return AffineFit(matrix=matrix, residual=residual)


def fit_alignment_exact(source: LandmarkSet, canonical: LandmarkSet):
    """(matrix, residual) of the least-squares affine in exact rational
    arithmetic, rounded to floats once at the end."""
    src = [(Fraction(x), Fraction(y)) for x, y in source.points]
    dst = [(Fraction(u), Fraction(v)) for u, v in canonical.points]
    mx, my = (sum(col) / 5 for col in zip(*src))
    nx, ny = (sum(col) / 5 for col in zip(*dst))
    centred = [(x - mx, y - my, u - nx, v - ny) for (x, y), (u, v) in zip(src, dst)]
    a, b, c = (sum(p[i] * p[j] for p in centred) for i, j in ((0, 0), (0, 1), (1, 1)))
    det = a * c - b * b
    rows = []
    for k in (2, 3):
        xu = sum(p[0] * p[k] for p in centred)
        yu = sum(p[1] * p[k] for p in centred)
        lx, ly = (xu * c - yu * b) / det, (yu * a - xu * b) / det
        rows.append((lx, ly, (nx, ny)[k - 2] - lx * mx - ly * my))
    sq = sum(
        (r[0] * p[0] + r[1] * p[1] - p[k]) ** 2 for p in centred for k, r in zip((2, 3), rows)
    )
    return np.array([[float(e) for e in r] for r in rows]), math.sqrt(sq / 5)


# ---------------------------------------------------------------------------
# file fixtures


def write_audio(path, rate: int, samples) -> None:
    """Two ASCII header lines (``rate <hz>``, ``length <n>``), then the raw
    little-endian 64-bit samples."""
    arr = np.asarray(samples, dtype=np.float64)
    with open(path, "wb") as fh:
        fh.write(f"rate {int(rate)}\n".encode("ascii"))
        fh.write(f"length {arr.size}\n".encode("ascii"))
        fh.write(arr.astype("<f8", copy=False).tobytes())


def blank_columns(ids: List[str], features, split: str = "train") -> SampleColumns:
    """Rows ``ids`` of one split with the (N, D) ``features`` and no label
    yet; a test sets the label columns it needs in place."""
    n = len(ids)
    return SampleColumns(
        list(ids), [split] * n, [None] * n, [None] * n, [None] * n,
        BatchLabels.zeros(n), np.zeros((n, 2), dtype=np.int64),
        np.asarray(features, dtype=np.float64),
    )


def write_columns(data: SampleColumns, annotations=None, features=None) -> None:
    """Write columns through the program's writers: their annotations to
    the path ``annotations`` and their features to the path ``features``,
    whichever is given."""
    if annotations is not None:
        dataio.write_annotations(annotations, data)
    if features is not None:
        dataio.write_features(features, data.ids, data.features)


def write_samples(samples: List[AnnotatedSample], annotations=None, features=None) -> None:
    """:func:`write_columns` of in-memory samples."""
    write_columns(columns_of(samples), annotations, features)


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
