"""The label space: canonical orders and id lookups."""

import ast

import pytest

from affectkit.errors import UnknownAU, UnknownClass
from affectkit.types import (
    AU_IDS,
    EXPRESSION_NAMES,
    NUM_AUS,
    NUM_EXPRESSIONS,
    au_index,
    expression_id,
)
from test_op_callers import read_package


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

    def test_expression_id_endpoints(self):
        assert expression_id("neutral") == 0
        assert expression_id(" Happiness ") == 4
        with pytest.raises(UnknownClass):
            expression_id("contempt")

    def test_expression_id_inverts_the_name_order(self):
        for cid in range(NUM_EXPRESSIONS):
            assert expression_id(EXPRESSION_NAMES[cid]) == cid

    def test_au_index_endpoints(self):
        assert au_index(1) == 0
        assert au_index(26) == 16
        with pytest.raises(UnknownAU):
            au_index(3)

    def test_au_index_bijection(self):
        assert sorted(au_index(au) for au in AU_IDS) == list(range(NUM_AUS))



def test_no_label_is_a_per_row_object():
    # a split holds its labels as BatchLabels columns from file to score;
    # the per-row codec lives on only as the oracle in reference_input
    gone = {"AnnotatedSample", "ValenceArousal", "ExpressionLabel", "AUVector", "CompoundLabel"}
    defined = {
        node.name
        for tree in read_package().values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.ClassDef, ast.FunctionDef))
    }
    assert not gone & defined
    assert not {"of", "samples", "load_columns", "expression_name"} & defined
