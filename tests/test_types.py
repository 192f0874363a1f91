"""Label-space types: canonical orders, AU vectors, task tags."""

import numpy as np
import pytest

from affectkit.errors import UnknownAU, UnknownClass
from affectkit.types import (
    AU_IDS,
    EXPRESSION_NAMES,
    NUM_AUS,
    NUM_EXPRESSIONS,
    AnnotatedSample,
    AUVector,
    CompoundLabel,
    ExpressionLabel,
    ValenceArousal,
    au_index,
    expression_id,
    expression_name,
)


def make_sample(label, dim=4):
    return AnnotatedSample(
        id="s0", split="train", features=np.zeros(dim), label=label
    )


class TestCanonicalOrders:
    def test_expression_names(self):
        assert EXPRESSION_NAMES == (
            "neutral",
            "anger",
            "disgust",
            "fear",
            "happiness",
            "sadness",
            "surprise",
        )
        assert NUM_EXPRESSIONS == 7

    def test_au_ids(self):
        assert AU_IDS == (1, 2, 4, 5, 6, 7, 9, 10, 11, 12, 15, 17, 20, 23, 24, 25, 26)
        assert NUM_AUS == 17

    def test_expression_name_endpoints(self):
        assert expression_name(0) == "neutral"
        assert expression_name(4) == "happiness"
        with pytest.raises(UnknownClass):
            expression_name(9)

    def test_expression_name_inverse(self):
        for cid in range(NUM_EXPRESSIONS):
            assert expression_id(expression_name(cid)) == cid

    def test_au_index_endpoints(self):
        assert au_index(1) == 0
        assert au_index(26) == 16
        with pytest.raises(UnknownAU):
            au_index(3)

    def test_au_index_bijection(self):
        assert sorted(au_index(au) for au in AU_IDS) == list(range(NUM_AUS))


class TestAUVector:
    def test_default_mask_is_all_ones(self):
        au = AUVector(values=[1] + [0] * 16)
        assert au.mask.tolist() == [1] * 17


class TestTaskTag:
    def test_task_per_label_type(self):
        assert make_sample(ValenceArousal(0.1, 0.2)).task == "VA"
        assert make_sample(ExpressionLabel(1)).task == "EXPR"
        assert make_sample(AUVector([0] * 17)).task == "AU"
        compound = CompoundLabel(0, ExpressionLabel(4), ExpressionLabel(6))
        assert make_sample(compound).task == "COMPOUND"
