"""Core label-space types shared by every other module.

Three annotation families live here: continuous valence-arousal, the seven
basic expression classes, and binary action-unit (AU) vectors with per-entry
annotation masks. Values are plain dataclasses and check nothing on
construction: the file readers validate every value at load and name the
``path:line`` of a bad one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import UnknownAU, UnknownClass

# Canonical expression ordering: neutral first, then the basic emotions
# alphabetically. Fixed here once; every softmax head and confusion matrix
# in the toolkit uses this index order.
EXPRESSION_NAMES = (
    "neutral",
    "anger",
    "disgust",
    "fear",
    "happiness",
    "sadness",
    "surprise",
)
NUM_EXPRESSIONS = len(EXPRESSION_NAMES)
_NAME_TO_ID = {name: i for i, name in enumerate(EXPRESSION_NAMES)}

# Canonical ordered AU id list (17 entries). Datasets annotating fewer AUs
# keep this length and zero the mask elsewhere.
AU_IDS = (1, 2, 4, 5, 6, 7, 9, 10, 11, 12, 15, 17, 20, 23, 24, 25, 26)
NUM_AUS = len(AU_IDS)
_AU_TO_INDEX = {au: i for i, au in enumerate(AU_IDS)}

VA_DIM = 2


def expression_name(class_id: int) -> str:
    """Name of an expression class id; raises UnknownClass outside {0..6}."""
    if not 0 <= int(class_id) < NUM_EXPRESSIONS:
        raise UnknownClass(f"expression class id {class_id} not in 0..6")
    return EXPRESSION_NAMES[int(class_id)]


def expression_id(name: str) -> int:
    """Inverse of :func:`expression_name`."""
    try:
        return _NAME_TO_ID[name.strip().lower()]
    except KeyError:
        raise UnknownClass(f"unknown expression name {name!r}") from None


def au_index(au_id: int) -> int:
    """0-based position of an AU id in the canonical ordering."""
    try:
        return _AU_TO_INDEX[int(au_id)]
    except KeyError:
        raise UnknownAU(f"AU{au_id} is not one of the 17 canonical AUs") from None


@dataclass(frozen=True)
class ValenceArousal:
    """A point in the 2-D continuous affect space, both axes in [-1, 1]."""

    valence: float
    arousal: float

    def as_array(self) -> np.ndarray:
        return np.array([self.valence, self.arousal], dtype=np.float64)


@dataclass(frozen=True)
class ExpressionLabel:
    """One of the seven basic expression classes (canonical index order)."""

    class_id: int

    @property
    def name(self) -> str:
        return expression_name(self.class_id)


class AUVector:
    """17 binary AU activations plus a 17-entry annotation mask.

    ``values[i]`` is meaningful only where ``mask[i] == 1``; unannotated
    positions carry value 0 by convention. Arrays are stored read-only.
    """

    __slots__ = ("values", "mask")

    def __init__(self, values, mask=None):
        v = np.asarray(values, dtype=np.uint8).copy()
        m = (
            np.ones(NUM_AUS, dtype=np.uint8)
            if mask is None
            else np.asarray(mask, dtype=np.uint8).copy()
        )
        v.setflags(write=False)
        m.setflags(write=False)
        self.values = v
        self.mask = m

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AUVector)
            and np.array_equal(self.values, other.values)
            and np.array_equal(self.mask, other.mask)
        )

    def __hash__(self):
        return hash((self.values.tobytes(), self.mask.tobytes()))

    def __repr__(self) -> str:
        body = "".join(
            str(int(v)) if m else "-" for v, m in zip(self.values, self.mask)
        )
        return f"AUVector({body!r})"


@dataclass(frozen=True)
class CompoundLabel:
    """A compound expression formed by two distinct basic (non-neutral) emotions."""

    class_id: int
    emo1: ExpressionLabel
    emo2: ExpressionLabel


Label = Union[ValenceArousal, ExpressionLabel, AUVector, CompoundLabel]


@dataclass
class AnnotatedSample:
    """One data point: a feature vector plus exactly one task label.

    ``task`` is derived from the label type: "VA", "EXPR", "AU" or
    "COMPOUND".
    """

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
        if isinstance(self.label, ValenceArousal):
            return "VA"
        if isinstance(self.label, ExpressionLabel):
            return "EXPR"
        if isinstance(self.label, AUVector):
            return "AU"
        if isinstance(self.label, CompoundLabel):
            return "COMPOUND"
        raise TypeError(f"unsupported label type {type(self.label)!r}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, AnnotatedSample):
            return NotImplemented
        return (
            self.id == other.id
            and self.split == other.split
            and self.sequence_id == other.sequence_id
            and self.utterance_id == other.utterance_id
            and self.frame_index == other.frame_index
            and np.array_equal(self.features, other.features)
            and self.label == other.label
        )


@dataclass
class PredictionRecord:
    """Per-frame model outputs keyed by sample/sequence/utterance ids.

    ``expr_probs`` (7,) and ``au_probs`` (17,) follow the canonical orders;
    either may be None for models without that head.
    """

    id: str
    frame_index: Optional[int] = None
    sequence_id: Optional[str] = None
    utterance_id: Optional[str] = None
    valence: Optional[float] = None
    arousal: Optional[float] = None
    expr_probs: Optional[np.ndarray] = None
    au_probs: Optional[np.ndarray] = None

