"""Emotion-to-AU relatedness tables and the three task-coupling engines.

A relatedness table lists, per basic emotion, the action units it
activates, each with a weight: a prototypical AU at 1, an observational AU
at a fractional agreement weight w in (0, 1). Each emotion's list holds its
prototypical AUs first, then its observational ones, and names an AU at
most once. Two variants ship:

* ``cognitive`` - agreement weights from a human annotator study, with
  prototypical and observational AUs;
* ``empirical`` - activation percentages measured on a large video corpus,
  so every AU is observational.

On top of the table sit the coupling engines used during multi-task
training. The AU-to-emotion engines, hard co-annotation and soft
co-annotation (AU pattern to a soft emotion distribution), run over
(N, 17) value and mask arrays, one table AU at a time. Emotion-to-AU
co-annotation is a lookup into ``conditional_matrix(reweight=True)``, and
the emotion-mixture AU distribution used by distribution matching is an
emotion distribution times ``conditional_matrix``.

Neutral has no table row: it maps to the empty AU set, scores 0 in soft
co-annotation and contributes nothing to mixtures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .csvfile import read_lines
from .errors import BadTableFile
from .losses import softmax_parts
from .types import NUM_AUS, NUM_EXPRESSIONS, au_index, expression_id

NEUTRAL_ID = 0

# one emotion's (AU id, weight) pairs
WeightedAUs = Tuple[Tuple[int, float], ...]


@dataclass(frozen=True)
class RelatednessTable:
    """Weighted AU lists keyed by expression class id (neutral excluded)."""

    rows: Tuple[Tuple[int, WeightedAUs], ...]

    def conditional_matrix(self, reweight: bool = False) -> np.ndarray:
        """p(AU_i | emotion) as a 7 x 17 matrix in canonical index orders.

        Membership gives probability 1; with ``reweight`` the AU's weight
        is used instead. The neutral row is all zeros. Each call builds a
        new array.
        """
        m = np.zeros((NUM_EXPRESSIONS, NUM_AUS), dtype=np.float64)
        for cid, aus in self.rows:
            for au, w in aus:
                m[cid, au_index(au)] = w if reweight else 1.0
        return m

    def validate(self) -> None:
        cids = [cid for cid, _ in self.rows]
        if len(set(cids)) < len(cids):
            raise BadTableFile("an emotion has more than one relatedness row")
        for cid, aus in self.rows:
            if cid == NEUTRAL_ID:
                raise BadTableFile("neutral must not have a relatedness row")
            seen = set()
            for au, w in aus:
                au_index(au)  # raises UnknownAU
                if au in seen:
                    raise BadTableFile(f"AU{au} listed twice for class {cid}")
                seen.add(au)
                if not 0.0 < w <= 1.0:
                    raise BadTableFile(f"weight {w} for AU{au} outside (0,1]")


def _table(spec) -> RelatednessTable:
    t = RelatednessTable(tuple((expression_id(emo), tuple(aus)) for emo, aus in spec))
    t.validate()
    return t


# Annotator-study variant: prototypical AUs at 1.0, then observational AUs
# at the fraction of annotators that observed them.
COGNITIVE = _table(
    [
        ("happiness", [(12, 1.0), (25, 1.0), (6, 0.51)]),
        ("sadness", [(4, 1.0), (15, 1.0), (1, 0.6), (6, 0.5), (11, 0.26), (17, 0.67)]),
        ("fear", [(1, 1.0), (4, 1.0), (20, 1.0), (25, 1.0), (2, 0.57), (5, 0.63), (26, 0.33)]),
        ("anger", [(4, 1.0), (7, 1.0), (24, 1.0), (10, 0.26), (17, 0.52), (23, 0.29)]),
        ("surprise", [(1, 1.0), (2, 1.0), (25, 1.0), (26, 1.0), (5, 0.66)]),
        ("disgust", [(9, 1.0), (10, 1.0), (17, 1.0), (4, 0.31), (24, 0.26)]),
    ]
)

# Corpus-measured variant: every AU carries an empirical activation rate, so
# every entry is observational.
EMPIRICAL = _table(
    [
        ("happiness", [(12, 0.82), (25, 0.7), (6, 0.57), (7, 0.83), (10, 0.63)]),
        ("sadness", [(4, 0.53), (15, 0.42), (1, 0.31), (7, 0.13), (17, 0.1)]),
        ("fear", [(1, 0.52), (4, 0.4), (25, 0.85), (5, 0.38), (7, 0.57), (10, 0.57)]),
        ("anger", [(4, 0.65), (7, 0.45), (25, 0.4), (10, 0.33), (9, 0.15)]),
        ("surprise", [(1, 0.38), (2, 0.37), (25, 0.85), (26, 0.3), (5, 0.5), (7, 0.2)]),
        ("disgust", [(9, 0.21), (10, 0.85), (17, 0.23), (4, 0.6), (7, 0.75), (25, 0.8)]),
    ]
)

BUILTIN_TABLES = {"cognitive": COGNITIVE, "empirical": EMPIRICAL}


def load_table(path) -> RelatednessTable:
    """Parse a relatedness file: one ``<emotion> proto=<id,..> obs=<id:w,..>``
    line per emotion, ``#`` comments, UTF-8. Either key may be omitted, and
    neither may appear twice on a line. The emotion's list holds the
    ``proto`` AUs at weight 1.0, then the ``obs`` pairs. A line that does
    not parse or that ``validate`` refuses raises BadTableFile at
    ``path:line``."""
    rows = []
    for lineno, raw in enumerate(read_lines(path, BadTableFile), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        emo, *tokens = line.split()
        try:
            cid = expression_id(emo)
            items = {}
            for tok in tokens:
                key, _, val = tok.partition("=")
                if key not in ("proto", "obs"):
                    raise ValueError(f"unknown key {key!r}")
                if key in items:
                    raise ValueError(f"key {key}= given twice")
                items[key] = [s for s in val.split(",") if s]
            aus = [(int(s), 1.0) for s in items.get("proto", ())]
            for pair in items.get("obs", ()):
                au_s, _, w_s = pair.partition(":")
                aus.append((int(au_s), float(w_s)))
            rows.append((cid, tuple(aus)))
            # the rows above passed, so what fails here is this line (a
            # table holds at most six rows, one per non-neutral emotion)
            RelatednessTable(tuple(rows)).validate()
        except Exception as exc:
            raise BadTableFile(f"{path}:{lineno}: {exc}") from exc
    return RelatednessTable(tuple(rows))


# ---------------------------------------------------------------------------
# coupling engines


def coannotate_aus_to_emotion_rows(
    values: np.ndarray, mask: np.ndarray, table: RelatednessTable
) -> np.ndarray:
    """The class id each row of an (N, 17) AU value/mask pair implies, or -1.

    An emotion qualifies when every one of its table AUs is annotated and
    active. Ties are broken by the larger AU count, then by canonical class
    order. Emotions with any table AU unannotated are skipped rather than
    failing the row; an emotion with no AUs implies nothing.
    """
    implied = np.full(len(values), -1, dtype=np.int64)
    rows = [(cid, aus) for cid, aus in table.rows if aus]
    # in tie-rule order, so the first emotion a row qualifies for wins
    for cid, aus in sorted(rows, key=lambda r: (-len(r[1]), r[0])):
        cols = [au_index(au) for au, _ in aus]
        qualifies = (mask[:, cols] != 0).all(axis=1) & (values[:, cols] == 1).all(axis=1)
        implied[qualifies & (implied < 0)] = cid
    return implied


def soft_coannotate_rows(
    values: np.ndarray, mask: np.ndarray, table: RelatednessTable, reweight: bool = True
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Soft co-annotation of each row of an (N, 17) AU value/mask pair.

    Returns the (N, 7) per-emotion scores, their row-wise softmax, and an
    (N,) flag that is false where a table AU is unannotated; the first two
    mean nothing in such a row. Per emotion the score is
    sum(w_i * y_i) / sum(w_i) over that emotion's weighted AUs (all
    weights 1 when ``reweight`` is false); neutral scores 0.
    """
    n = len(values)
    scores = np.zeros((n, NUM_EXPRESSIONS), dtype=np.float64)
    complete = np.ones(n, dtype=bool)
    for cid, aus in table.rows:
        num = np.zeros(n)
        den = 0.0
        for au, w in aus:
            i = au_index(au)
            complete &= mask[:, i] != 0
            weight = w if reweight else 1.0
            num += weight * values[:, i]
            den += weight
        scores[:, cid] = num / den if den > 0 else 0.0
    return scores, softmax_parts(scores)[2], complete
