"""Zero-shot compound-expression scoring.

A compound class (e.g. happily surprised) blends two basic emotions. With
no compound training data, a candidate score is assembled from what the
multi-head model already predicts: the weighted mean of the predicted
probabilities of the class's characteristic AUs, plus the two constituent
emotion probabilities, plus - for the compounds that imply positive
valence - a bonus from the sign of the predicted valence. The predicted
class is the argmax of the candidate scores.

The AU term is the weighted mean of the predictions (each AU acting as an
indicator for the class). A class's AU set is a weighted AU list that
names each AU at most once. By default it is the union of the two
constituents' lists in the relatedness table, where an AU in both keeps
the larger weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .csvfile import open_rows
from .errors import (
    BadTableFile,
    EmptyDefs,
    MissingAUPrediction,
    UnknownAU,
    UnknownClass,
    ValueOutOfRange,
)
from .relatedness import COGNITIVE, RelatednessTable
from .types import PredictionRecord, au_index, expression_id

# (name, constituent pair, positive-valence bonus) - the standard 11
# compound classes over the six basic emotions.
_DEFAULT_CLASSES = (
    ("happily_surprised", "happiness", "surprise", True),
    ("happily_disgusted", "happiness", "disgust", True),
    ("sadly_fearful", "sadness", "fear", False),
    ("sadly_angry", "sadness", "anger", False),
    ("sadly_surprised", "sadness", "surprise", False),
    ("sadly_disgusted", "sadness", "disgust", False),
    ("fearfully_angry", "fear", "anger", False),
    ("fearfully_surprised", "fear", "surprise", False),
    ("angrily_surprised", "anger", "surprise", False),
    ("angrily_disgusted", "anger", "disgust", False),
    ("disgustedly_surprised", "disgust", "surprise", False),
)

_BONUS_FLAGS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


@dataclass(frozen=True)
class CompoundClassDef:
    """A compound class: two distinct constituent emotions (expression
    class ids), the weighted AU set characterizing the blend (each AU at
    most once), and whether the positive-valence bonus applies."""

    name: str
    emo1: int
    emo2: int
    au_set: Tuple[Tuple[int, float], ...]
    valence_bonus: bool = False

    # (canonical AU column, weight) per AU and the weights' sum, derived
    # once so that scoring a record is arithmetic over Python floats
    columns: Tuple[Tuple[int, float], ...] = field(init=False, repr=False, compare=False)
    weight_sum: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.emo1 == self.emo2:
            raise ValueOutOfRange(f"{self.name}: constituents must differ")
        if not self.au_set:
            raise ValueOutOfRange(f"{self.name}: AU set must be nonempty")
        columns = []
        weight_sum = 0.0
        for au, w in self.au_set:
            col = au_index(au)
            if any(c == col for c, _ in columns):
                raise ValueOutOfRange(f"{self.name}: AU{au} listed twice")
            if not 0.0 < w < math.inf:
                raise ValueOutOfRange(f"{self.name}: AU{au} weight {w} must be finite and > 0")
            columns.append((col, float(w)))
            weight_sum += float(w)
        object.__setattr__(self, "columns", tuple(columns))
        object.__setattr__(self, "weight_sum", weight_sum)


def _union_au_set(
    table: RelatednessTable, emo1: int, emo2: int
) -> Tuple[Tuple[int, float], ...]:
    """Union of both constituents' weighted AUs; duplicates keep the larger
    weight. Order: emo1's AUs first, then emo2's new ones."""
    rows = dict(table.rows)
    merged: Dict[int, float] = {}
    for emo in (emo1, emo2):
        for au, w in rows.get(emo, ()):
            merged[au] = max(merged.get(au, w), w)
    return tuple(merged.items())


def default_compound_defs(table: RelatednessTable = COGNITIVE) -> List[CompoundClassDef]:
    """The 11 standard compound classes with AU sets derived from the
    relatedness table (union of the constituents' rows)."""
    defs = []
    for name, e1, e2, bonus in _DEFAULT_CLASSES:
        emo1, emo2 = expression_id(e1), expression_id(e2)
        defs.append(
            CompoundClassDef(
                name=name,
                emo1=emo1,
                emo2=emo2,
                au_set=_union_au_set(table, emo1, emo2),
                valence_bonus=bonus,
            )
        )
    return defs


def _record_values(
    defs: Sequence[CompoundClassDef], pred: PredictionRecord
) -> Tuple[List[float], List[float], Optional[float]]:
    """Check a record against the definitions once; return its AU and
    emotion probabilities as Python floats and its valence bonus
    0.5*(sign(v)+1) (None when no valence was predicted)."""
    if pred.au_probs is None:
        raise MissingAUPrediction(f"{defs[0].name}: prediction has no AU probabilities")
    if pred.expr_probs is None:
        raise ValueOutOfRange(f"{defs[0].name}: prediction has no emotion probabilities")
    if pred.valence is None:
        for cdef in defs:
            if cdef.valence_bonus:
                raise ValueOutOfRange(f"{cdef.name}: bonus needs a valence prediction")
        bonus = None
    else:
        bonus = float(0.5 * (np.sign(pred.valence) + 1.0))
    au = np.asarray(pred.au_probs, dtype=np.float64).tolist()
    expr = np.asarray(pred.expr_probs, dtype=np.float64).tolist()
    return au, expr, bonus


def _score(
    cdef: CompoundClassDef, au: List[float], expr: List[float], bonus: Optional[float]
) -> float:
    num = 0.0
    for col, w in cdef.columns:
        num += w * au[col]
    score = num / cdef.weight_sum + (expr[cdef.emo1] + expr[cdef.emo2])
    if cdef.valence_bonus:
        score += bonus
    return score


def candidate_score(cdef: CompoundClassDef, pred: PredictionRecord) -> float:
    """score = weighted mean of p(AU_k) over the class AU set
    + p(emo1) + p(emo2) + bonus.

    The bonus (only on positive-valence compounds) is 0.5*(sign(v)+1):
    1 for positive valence, 0 for negative, 0.5 at exactly zero.
    """
    return _score(cdef, *_record_values((cdef,), pred))


def classify_compound(
    defs: Sequence[CompoundClassDef], pred: PredictionRecord
) -> CompoundClassDef:
    """The definition with the maximum candidate score; ties go to the
    earlier definition. The record is checked and converted once, then
    every definition is scored from the same lists."""
    if not defs:
        raise EmptyDefs("no compound definitions")
    values = _record_values(defs, pred)
    best = defs[0]
    best_score = _score(best, *values)
    for cdef in defs[1:]:
        s = _score(cdef, *values)
        if s > best_score:
            best = cdef
            best_score = s
    return best


def load_compound_defs(
    path, table: RelatednessTable = COGNITIVE
) -> List[CompoundClassDef]:
    """Parse a CSV of ``name, emo1, emo2, bonus_flag[, au:w, ...]`` rows.

    Rows without an explicit AU list fall back to the table union. A
    header line is required; '#' lines are skipped. The bonus flag is one
    of 1/true/yes/0/false/no in any case. A bad number, an unknown emotion
    or AU, equal constituents, an AU listed twice, a weight that is not a
    finite number > 0 or an unknown bonus flag raises BadTableFile at
    ``path:line``.
    """
    defs = []
    with open_rows(path) as (header, rows):
        if header is None:
            raise EmptyDefs(f"{path}: empty definition file")
        for line, row in rows:
            if row[0].lstrip().startswith("#"):
                continue
            try:
                name, e1, e2, bonus = (c.strip() for c in row[:4])
                valence_bonus = _BONUS_FLAGS.get(bonus.lower())
                if valence_bonus is None:
                    raise BadTableFile(
                        f"{path}:{line}: bonus flag {bonus!r} not in {'/'.join(_BONUS_FLAGS)}"
                    )
                emo1, emo2 = expression_id(e1), expression_id(e2)
                au_set: Tuple[Tuple[int, float], ...]
                if len(row) > 4:
                    pairs = []
                    for cell in row[4:]:
                        cell = cell.strip()
                        if not cell:
                            continue
                        au_s, _, w_s = cell.partition(":")
                        pairs.append((int(au_s), float(w_s)))
                    au_set = tuple(pairs)
                else:
                    au_set = _union_au_set(table, emo1, emo2)
                defs.append(
                    CompoundClassDef(
                        name=name,
                        emo1=emo1,
                        emo2=emo2,
                        au_set=au_set,
                        valence_bonus=valence_bonus,
                    )
                )
            except (ValueError, UnknownClass, UnknownAU, ValueOutOfRange) as exc:
                raise BadTableFile(f"{path}:{line}: {exc}") from exc
    if not defs:
        raise EmptyDefs(f"{path}: no definitions")
    return defs
