"""Emotion-to-AU relatedness tables and the three task-coupling engines.

A relatedness table states, per basic emotion, which action units are
prototypical (activated with weight 1) and which are observational
(activated with a fractional agreement weight w). Two variants ship:

* ``cognitive`` - agreement weights from a human annotator study, with an
  explicit prototypical/observational split;
* ``empirical`` - activation percentages measured on a large video corpus,
  kept as a single weighted set per emotion.

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

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from .csvfile import read_lines
from .errors import BadTableFile
from .losses import softmax_parts
from .types import NUM_AUS, NUM_EXPRESSIONS, au_index, expression_id

NEUTRAL_ID = 0


@dataclass(frozen=True)
class EmotionRow:
    """Relatedness row for one basic emotion.

    ``proto`` lists AU ids with implicit weight 1.0; ``obs`` pairs AU ids
    with weights in (0, 1]. Output orderings everywhere follow proto first,
    then obs, in stored order.
    """

    proto: Tuple[int, ...]
    obs: Tuple[Tuple[int, float], ...]

    def weighted_aus(self) -> Tuple[Tuple[int, float], ...]:
        return tuple((au, 1.0) for au in self.proto) + self.obs

    def au_ids(self) -> Tuple[int, ...]:
        return tuple(au for au, _ in self.weighted_aus())


@dataclass(frozen=True)
class RelatednessTable:
    """Rows keyed by expression class id (neutral excluded)."""

    name: str
    rows: Tuple[Tuple[int, EmotionRow], ...]
    # conditional_matrix's result per reweight flag, built on first use
    _matrices: Dict[bool, np.ndarray] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def row(self, class_id: int) -> Optional[EmotionRow]:
        for cid, r in self.rows:
            if cid == class_id:
                return r
        return None

    def conditional_matrix(self, reweight: bool = False) -> np.ndarray:
        """p(AU_i | emotion) as a 7 x 17 matrix in canonical index orders.

        Membership gives probability 1; with ``reweight`` the observational
        weight w is used instead. The neutral row is all zeros. Built once
        per table and flag; the array is read-only.
        """
        m = self._matrices.get(reweight)
        if m is None:
            m = np.zeros((NUM_EXPRESSIONS, NUM_AUS), dtype=np.float64)
            for cid, r in self.rows:
                for au in r.proto:
                    m[cid, au_index(au)] = 1.0
                for au, w in r.obs:
                    m[cid, au_index(au)] = w if reweight else 1.0
            m.setflags(write=False)
            self._matrices[reweight] = m
        return m

    def validate(self) -> None:
        cids = [cid for cid, _ in self.rows]
        if len(set(cids)) < len(cids):
            raise BadTableFile("an emotion has more than one relatedness row")
        for cid, r in self.rows:
            if cid == NEUTRAL_ID:
                raise BadTableFile("neutral must not have a relatedness row")
            proto_set = set(r.proto)
            for au, w in r.obs:
                if au in proto_set:
                    raise BadTableFile(
                        f"AU{au} both prototypical and observational for class {cid}"
                    )
                if not 0.0 < w <= 1.0:
                    raise BadTableFile(f"weight {w} for AU{au} outside (0,1]")
            for au in r.au_ids():
                au_index(au)  # raises UnknownAU


def _table(name, spec) -> RelatednessTable:
    rows = tuple(
        (expression_id(emo), EmotionRow(proto=tuple(proto), obs=tuple(obs)))
        for emo, proto, obs in spec
    )
    t = RelatednessTable(name=name, rows=rows)
    t.validate()
    return t


# Annotator-study variant: prototypical AUs plus observational AUs with the
# fraction of annotators that observed them.
COGNITIVE = _table(
    "cognitive",
    [
        ("happiness", [12, 25], [(6, 0.51)]),
        ("sadness", [4, 15], [(1, 0.6), (6, 0.5), (11, 0.26), (17, 0.67)]),
        ("fear", [1, 4, 20, 25], [(2, 0.57), (5, 0.63), (26, 0.33)]),
        ("anger", [4, 7, 24], [(10, 0.26), (17, 0.52), (23, 0.29)]),
        ("surprise", [1, 2, 25, 26], [(5, 0.66)]),
        ("disgust", [9, 10, 17], [(4, 0.31), (24, 0.26)]),
    ],
)

# Corpus-measured variant: all AUs carry an empirical activation rate, so
# every entry is observational (no prototypical split).
EMPIRICAL = _table(
    "empirical",
    [
        ("happiness", [], [(12, 0.82), (25, 0.7), (6, 0.57), (7, 0.83), (10, 0.63)]),
        ("sadness", [], [(4, 0.53), (15, 0.42), (1, 0.31), (7, 0.13), (17, 0.1)]),
        ("fear", [], [(1, 0.52), (4, 0.4), (25, 0.85), (5, 0.38), (7, 0.57), (10, 0.57)]),
        ("anger", [], [(4, 0.65), (7, 0.45), (25, 0.4), (10, 0.33), (9, 0.15)]),
        ("surprise", [], [(1, 0.38), (2, 0.37), (25, 0.85), (26, 0.3), (5, 0.5), (7, 0.2)]),
        ("disgust", [], [(9, 0.21), (10, 0.85), (17, 0.23), (4, 0.6), (7, 0.75), (25, 0.8)]),
    ],
)

BUILTIN_TABLES = {"cognitive": COGNITIVE, "empirical": EMPIRICAL}


def load_table(path, name: Optional[str] = None) -> RelatednessTable:
    """Parse a relatedness file: one ``<emotion> proto=<id,..> obs=<id:w,..>``
    line per emotion, ``#`` comments, UTF-8. Either key may be omitted. A
    line that does not parse or that ``validate`` refuses raises
    BadTableFile at ``path:line``."""
    rows = []
    for lineno, raw in enumerate(read_lines(path, BadTableFile), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        emo = parts[0]
        proto: list = []
        obs: list = []
        try:
            cid = expression_id(emo)
            for tok in parts[1:]:
                key, _, val = tok.partition("=")
                if key == "proto":
                    proto = [int(s) for s in val.split(",") if s]
                elif key == "obs":
                    for pair in val.split(","):
                        if not pair:
                            continue
                        au_s, _, w_s = pair.partition(":")
                        obs.append((int(au_s), float(w_s)))
                else:
                    raise ValueError(f"unknown key {key!r}")
            rows.append((cid, EmotionRow(proto=tuple(proto), obs=tuple(obs))))
            # the rows above passed, so what fails here is this line (a
            # table holds at most six rows, one per non-neutral emotion)
            RelatednessTable(name="", rows=tuple(rows)).validate()
        except Exception as exc:
            raise BadTableFile(f"{path}:{lineno}: {exc}") from exc
    return RelatednessTable(name=name or str(path), rows=tuple(rows))


# ---------------------------------------------------------------------------
# coupling engines


def coannotate_aus_to_emotion_rows(
    values: np.ndarray, mask: np.ndarray, table: RelatednessTable
) -> np.ndarray:
    """The class id each row of an (N, 17) AU value/mask pair implies, or -1.

    An emotion qualifies when every one of its prototypical and
    observational AUs is annotated and active. Ties are broken by the
    larger required-AU count, then by canonical class order. Emotions with
    any required AU unannotated are skipped rather than failing the row.
    """
    implied = np.full(len(values), -1, dtype=np.int64)
    candidates = [(cid, row.au_ids()) for cid, row in table.rows if row.au_ids()]
    # in tie-rule order, so the first emotion a row qualifies for wins
    for cid, ids in sorted(candidates, key=lambda c: (-len(c[1]), c[0])):
        cols = [au_index(au) for au in ids]
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
    sum(w_i * y_i) / sum(w_i) over that emotion's prototypical+observational
    AUs (all weights 1 when ``reweight`` is false); neutral scores 0.
    """
    n = len(values)
    scores = np.zeros((n, NUM_EXPRESSIONS), dtype=np.float64)
    complete = np.ones(n, dtype=bool)
    for cid, row in table.rows:
        num = np.zeros(n)
        den = 0.0
        for au, w in row.weighted_aus():
            i = au_index(au)
            complete &= mask[:, i] != 0
            weight = w if reweight else 1.0
            num += weight * values[:, i]
            den += weight
        scores[:, cid] = num / den if den > 0 else 0.0
    return scores, softmax_parts(scores)[2], complete
