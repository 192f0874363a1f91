"""The label space shared by every other module, and the prediction row.

Three annotation families share one index order each: continuous
valence-arousal (``VA_DIM`` values), the seven basic expression classes
(``EXPRESSION_NAMES``) and the 17 canonical action units (``AU_IDS``),
with ``expression_id`` and ``au_index`` to look an id up. Labels are not
objects: a split holds them as ``losses.BatchLabels`` columns, checked by
the readers at load. ``PredictionRecord`` is one row of model outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

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


def expression_id(name: str) -> int:
    """Index of an expression name in EXPRESSION_NAMES, in any case and
    with surrounding space ignored; raises UnknownClass for any other name."""
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


@dataclass
class PredictionRecord:
    """Per-frame model outputs keyed by sample id and frame index.

    ``expr_probs`` (7,) and ``au_probs`` (17,) follow the canonical orders;
    either may be None for models without that head.
    """

    id: str
    frame_index: Optional[int] = None
    valence: Optional[float] = None
    arousal: Optional[float] = None
    expr_probs: Optional[np.ndarray] = None
    au_probs: Optional[np.ndarray] = None

