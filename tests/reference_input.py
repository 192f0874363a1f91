"""Test-only per-row references for the column readers and the training
table, the SVD landmark alignment, and the file helpers the tests write and
read fixtures with.

``read_annotations``, ``read_features`` and ``load_dataset`` are the readers
that built one ``AnnotatedSample`` per row; ``build_table`` is the training
table they fed, encoding each sample's label and co-annotating it one
sample at a time. ``read_feature_columns`` is the per-row feature matrix
reader, each row through ``csv`` and each value through ``float()``, that
``dataio.read_feature_columns`` falls back to off its ``np.loadtxt`` path. ``soft_scores``, ``soft_coannotate``,
``coannotate_aus_to_emotion`` and ``coannotate_emotion_to_aus`` are the
per-sample coupling loops that the row-wise engines in
``affectkit.relatedness`` and the training table replaced; like
``soft_coannotate_rows``, the soft ones flag a row that leaves a table AU
unannotated instead of raising. The equivalence tests compare the program
against these with ``array_equal``.

``fit_alignment_lstsq`` is the landmark alignment that
``preprocess.fit_alignment``'s closed form replaced: an absolute rank test
on the design matrix ``[src, 1]`` and a LAPACK least-squares solve. The
alignment tests compare the two at explicit tolerances.

``write_audio`` writes the audio format ``preprocess.read_audio`` reads,
and ``read_report`` reads the file ``dataio.write_report`` writes.
"""

import math
from array import array
from fractions import Fraction
from types import SimpleNamespace
from typing import Dict, List, Optional, Tuple

import numpy as np

from affectkit.csvfile import open_rows
from affectkit.errors import (
    BadMask,
    ConfigError,
    DegenerateLandmarks,
    KeyMisalignment,
    UnknownClass,
)
from affectkit.harness.dataio import ANNOTATION_FIELDS
from affectkit.losses import label_arrays
from affectkit.preprocess import AffineFit, LandmarkSet
from affectkit.relatedness import RelatednessTable
from affectkit.types import (
    NUM_AUS,
    NUM_EXPRESSIONS,
    AnnotatedSample,
    AUVector,
    CompoundLabel,
    ExpressionLabel,
    ValenceArousal,
    au_index,
)

# ---------------------------------------------------------------------------
# coupling


def soft_scores(aus: AUVector, table: RelatednessTable, reweight: bool = True):
    """(scores, complete): complete is false when a table AU is unannotated."""
    values, mask = aus.values.tolist(), aus.mask.tolist()
    scores = np.zeros(NUM_EXPRESSIONS, dtype=np.float64)
    complete = True
    for cid, row in table.rows:
        num = 0.0
        den = 0.0
        for au, w in row.weighted_aus():
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
    row = table.row(label.class_id)
    if row is None:
        return []
    return [(au, 1, w) for au, w in row.weighted_aus()]


def coannotate_aus_to_emotion(aus: AUVector, table: RelatednessTable) -> Optional[ExpressionLabel]:
    best = None  # (requirement size, class id)
    for cid, row in table.rows:
        ids = row.au_ids()
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
        samples = [s for s in samples if s.split == split] or samples
    missing = [s.id for s in samples if s.id not in features]
    if missing:
        raise KeyMisalignment(f"{len(missing)} annotated ids have no feature row")
    for s in samples:
        s.features = features[s.id]
    return samples


# ---------------------------------------------------------------------------
# the training table


def build_table(samples: List[AnnotatedSample], config) -> SimpleNamespace:
    """Features, labels with co-annotation targets, and the four pools."""
    labels = label_arrays(samples)
    va, expr, compound = (
        tuple(np.flatnonzero(flag).tolist())
        for flag in (labels.has_va, labels.has_expr, labels.has_compound)
    )
    au = tuple(np.flatnonzero(~(labels.has_va | labels.has_expr | labels.has_compound)).tolist())
    table = config.relatedness_table()
    if config.coupling == "coannotation":
        for r in expr:
            implied = coannotate_emotion_to_aus(samples[r].label, table)
            if implied:
                labels.has_au[r] = True
                for au_id, target, weight in implied:
                    labels.au_targets[r, au_index(au_id)] = target
                    labels.au_mask[r, au_index(au_id)] = weight
        for r in au:
            implied = coannotate_aus_to_emotion(samples[r].label, table)
            if implied is not None:
                labels.has_expr[r] = True
                labels.expr[r] = implied.class_id
    elif config.coupling in ("soft_coannotation", "soft+distr"):
        for r in au:
            target, complete = soft_coannotate(
                samples[r].label, table, reweight=config.reweight_soft
            )
            if complete:
                labels.soft[r] = target
                labels.has_soft[r] = True
    return SimpleNamespace(
        features=np.array([s.features for s in samples]),
        labels=labels,
        va_rows=va,
        au_rows=au,
        expr_rows=expr,
        compound_rows=compound,
    )


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
