"""Zero-shot compound-expression scoring."""

import re

import numpy as np
import pytest

from affectkit.errors import (
    BadTableFile,
    EmptyDefs,
    MissingAUPrediction,
    ValueOutOfRange,
)
from affectkit.relatedness import COGNITIVE
from affectkit.types import PredictionRecord, au_index, expression_id
from affectkit.zeroshot import (
    CompoundClassDef,
    candidate_score,
    classify_compound,
    default_compound_defs,
    load_compound_defs,
)


def record(au_probs=None, expr_probs=None, valence=None):
    return PredictionRecord(
        id="r0",
        au_probs=np.zeros(17) if au_probs is None else np.asarray(au_probs, float),
        expr_probs=np.zeros(7) if expr_probs is None else np.asarray(expr_probs, float),
        valence=valence,
    )


def simple_def(name="happily_surprised", bonus=False, au_set=((12, 1.0),)):
    return CompoundClassDef(
        name=name,
        emo1=expression_id("happiness"),
        emo2=expression_id("surprise"),
        au_set=au_set,
        valence_bonus=bonus,
    )


class TestDefaults:
    def test_eleven_classes(self):
        defs = default_compound_defs()
        assert len(defs) == 11
        assert len({d.name for d in defs}) == 11

    def test_positive_valence_compounds(self):
        bonus_names = {d.name for d in default_compound_defs() if d.valence_bonus}
        assert bonus_names == {"happily_surprised", "happily_disgusted"}

    def test_union_order_and_dedup(self):
        defs = {d.name: d for d in default_compound_defs()}
        hs = defs["happily_surprised"]
        # happiness AUs first, then surprise's new ones; shared AU25 kept once
        assert hs.au_set == (
            (12, 1.0),
            (25, 1.0),
            (6, 0.51),
            (1, 1.0),
            (2, 1.0),
            (26, 1.0),
            (5, 0.66),
        )

    def test_constituents_are_distinct(self):
        for d in default_compound_defs():
            assert d.emo1 != d.emo2


class TestDefValidation:
    def test_equal_constituents(self):
        with pytest.raises(ValueOutOfRange):
            CompoundClassDef(
                name="bad",
                emo1=4,
                emo2=4,
                au_set=((12, 1.0),),
            )

    def test_empty_au_set(self):
        with pytest.raises(ValueOutOfRange):
            simple_def(au_set=())

    def test_nonpositive_weight(self):
        with pytest.raises(ValueOutOfRange):
            simple_def(au_set=((12, 0.0),))


class TestCandidateScore:
    def test_full_hand_value(self):
        cdef = simple_def(bonus=True, au_set=((12, 1.0), (25, 1.0), (6, 0.51)))
        au = np.zeros(17)
        for au_id in (12, 25, 6):
            au[au_index(au_id)] = 1.0
        expr = np.zeros(7)
        expr[expression_id("happiness")] = 0.5
        expr[expression_id("surprise")] = 0.3
        pred = record(au_probs=au, expr_probs=expr, valence=0.2)
        # AU term 1.0 + 0.5 + 0.3 + bonus 1.0
        assert candidate_score(cdef, pred) == pytest.approx(2.8)

    def test_au_term_is_weighted_mean(self):
        cdef = simple_def(au_set=((12, 3.0), (25, 1.0)))
        au = np.zeros(17)
        au[au_index(12)] = 0.8
        au[au_index(25)] = 0.4
        pred = record(au_probs=au)
        assert candidate_score(cdef, pred) == pytest.approx((3 * 0.8 + 0.4) / 4)

    def test_bonus_negative_valence(self):
        cdef = simple_def(bonus=True)
        assert candidate_score(cdef, record(valence=-0.3)) == 0.0

    def test_bonus_zero_valence(self):
        cdef = simple_def(bonus=True)
        assert candidate_score(cdef, record(valence=0.0)) == 0.5

    def test_bonus_positive_valence(self):
        cdef = simple_def(bonus=True)
        assert candidate_score(cdef, record(valence=0.7)) == 1.0

    def test_no_bonus_ignores_valence(self):
        cdef = simple_def(bonus=False)
        assert candidate_score(cdef, record(valence=None)) == 0.0

    def test_missing_au_predictions(self):
        pred = PredictionRecord(id="r0", expr_probs=np.zeros(7))
        with pytest.raises(MissingAUPrediction):
            candidate_score(simple_def(), pred)

    def test_missing_expr_predictions(self):
        pred = PredictionRecord(id="r0", au_probs=np.zeros(17))
        with pytest.raises(ValueOutOfRange):
            candidate_score(simple_def(), pred)

    def test_bonus_needs_valence(self):
        pred = PredictionRecord(id="r0", au_probs=np.zeros(17), expr_probs=np.zeros(7))
        with pytest.raises(ValueOutOfRange):
            candidate_score(simple_def(bonus=True), pred)


class TestClassify:
    def test_matches_exhaustive_argmax(self):
        defs = default_compound_defs()
        rng = np.random.default_rng(0)
        for _ in range(200):
            pred = record(
                au_probs=rng.random(17),
                expr_probs=rng.dirichlet(np.ones(7)),
                valence=rng.uniform(-1, 1),
            )
            scores = [candidate_score(d, pred) for d in defs]
            expected = defs[int(np.argmax(scores))]
            assert classify_compound(defs, pred) is expected

    def test_tie_goes_to_earlier_definition(self):
        a = simple_def(name="first", au_set=((12, 1.0),))
        b = simple_def(name="second", au_set=((12, 1.0),))
        assert classify_compound([a, b], record()).name == "first"

    def test_empty_defs(self):
        with pytest.raises(EmptyDefs):
            classify_compound([], record())

    def test_strong_signal_wins(self):
        defs = default_compound_defs()
        names = {d.name: d for d in defs}
        target = names["sadly_angry"]
        au = np.zeros(17)
        for au_id, _ in target.au_set:
            au[au_index(au_id)] = 1.0
        expr = np.zeros(7)
        expr[target.emo1] = 0.5
        expr[target.emo2] = 0.5
        pred = record(au_probs=au, expr_probs=expr, valence=-0.8)
        assert classify_compound(defs, pred).name == "sadly_angry"


class TestDefFiles:
    def test_explicit_au_list(self, tmp_path):
        path = tmp_path / "defs.csv"
        path.write_text(
            "name,emo1,emo2,bonus,aus\n"
            "happily_surprised,happiness,surprise,true,12:1.0,5:0.66\n"
        )
        defs = load_compound_defs(path)
        assert len(defs) == 1
        assert defs[0].au_set == ((12, 1.0), (5, 0.66))
        assert defs[0].valence_bonus

    def test_table_fallback(self, tmp_path):
        path = tmp_path / "defs.csv"
        path.write_text(
            "name,emo1,emo2,bonus\nsadly_angry,sadness,anger,false\n"
        )
        defs = load_compound_defs(path, COGNITIVE)
        expected = {
            d.name: d for d in default_compound_defs(COGNITIVE)
        }["sadly_angry"]
        assert defs[0].au_set == expected.au_set

    def test_comments_skipped(self, tmp_path):
        path = tmp_path / "defs.csv"
        path.write_text(
            "name,emo1,emo2,bonus\n"
            "# a comment row\n"
            "sadly_angry,sadness,anger,0\n"
        )
        assert len(load_compound_defs(path)) == 1

    def test_bad_row_reports_line(self, tmp_path):
        path = tmp_path / "defs.csv"
        path.write_text("name,emo1,emo2,bonus\nx,happiness,surprise,no,12:oops\n")
        with pytest.raises(BadTableFile, match="defs.csv:2"):
            load_compound_defs(path)

    @pytest.mark.parametrize(
        "row,message",
        [
            ("x,happiness,joy,no", "unknown expression name 'joy'"),
            ("x,happiness,happiness,no", "constituents must differ"),
            ("x,happiness,surprise,no,12:0", "AU12 weight 0.0 must be finite and > 0"),
            ("x,happiness,surprise,no,12:-1", "AU12 weight -1.0 must be finite and > 0"),
            ("x,happiness,surprise,no,12:nan", "AU12 weight nan must be finite and > 0"),
            ("x,happiness,surprise,no,3:1", "AU3 is not one of the 17 canonical AUs"),
            ("x,happiness,surprise,1,12:0.5,12:0.7", "AU12 listed twice"),
            ("x,happiness,surprise,maybe", "bonus flag 'maybe' not in"),
            ("x,happiness,surprise", "not enough values"),
        ],
    )
    def test_bad_definition_names_the_line(self, tmp_path, row, message):
        path = tmp_path / "defs.csv"
        path.write_text(f"name,emo1,emo2,bonus\nsadly_angry,sadness,anger,0\n{row}\n")
        with pytest.raises(BadTableFile, match=rf"defs\.csv:3: .*{message}"):
            load_compound_defs(path)

    @pytest.mark.parametrize(
        "flag,bonus", [("1", True), ("TRUE", True), ("Yes", True), ("0", False), ("False", False), ("NO", False)]
    )
    def test_bonus_flag_any_case(self, tmp_path, flag, bonus):
        path = tmp_path / "defs.csv"
        path.write_text(f"name,emo1,emo2,bonus\nx,happiness,surprise,{flag}\n")
        assert load_compound_defs(path)[0].valence_bonus is bonus

    def test_no_definitions(self, tmp_path):
        path = tmp_path / "defs.csv"
        path.write_text("name,emo1,emo2,bonus\n")
        with pytest.raises(EmptyDefs):
            load_compound_defs(path)


def oracle_score(cdef, pred):
    """The per-definition score as first written: one ``au_index`` lookup
    and numpy scalar arithmetic per AU, every check on every call."""
    if pred.au_probs is None:
        raise MissingAUPrediction(f"{cdef.name}: prediction has no AU probabilities")
    au = np.asarray(pred.au_probs, dtype=np.float64)
    num = 0.0
    den = 0.0
    for au_id, w in cdef.au_set:
        num += w * au[au_index(au_id)]
        den += w
    score = num / den
    if pred.expr_probs is None:
        raise ValueOutOfRange(f"{cdef.name}: prediction has no emotion probabilities")
    probs = np.asarray(pred.expr_probs, dtype=np.float64)
    score += float(probs[cdef.emo1]) + float(probs[cdef.emo2])
    if cdef.valence_bonus:
        if pred.valence is None:
            raise ValueOutOfRange(f"{cdef.name}: bonus needs a valence prediction")
        score += 0.5 * (np.sign(pred.valence) + 1.0)
    return float(score)


def oracle_classify(defs, pred):
    best = defs[0]
    best_score = oracle_score(best, pred)
    for cdef in defs[1:]:
        s = oracle_score(cdef, pred)
        if s > best_score:
            best = cdef
            best_score = s
    return best


CUSTOM_DEFS = (
    "name,emo1,emo2,bonus,aus\n"
    "happily_surprised,happiness,surprise,yes,12:0.3,25:2.5,5:1e-3\n"
    "sadly_angry,sadness,anger,no,4:7,15:0.1,23:0.77,17:3.25\n"
    "fearfully_surprised,fear,surprise,no,1:0.6,2:0.6,20:1.9\n"
    "sadly_fearful,sadness,fear,0\n"
    "happily_disgusted,happiness,disgust,1,9:0.45,10:0.2,12:1.1\n"
)


class TestAgainstPerDefinitionOracle:
    """The scoring loop keeps the old per-definition arithmetic exactly:
    same order of operations, so the same bits and the same winner."""

    @staticmethod
    def defs_sets(tmp_path):
        path = tmp_path / "defs.csv"
        path.write_text(CUSTOM_DEFS)
        return [default_compound_defs(), load_compound_defs(path)]

    def assert_same(self, defs, pred):
        for cdef in defs:
            score = candidate_score(cdef, pred)
            assert type(score) is float
            assert score == oracle_score(cdef, pred)
        assert classify_compound(defs, pred) is oracle_classify(defs, pred)

    def test_random_records(self, tmp_path):
        rng = np.random.default_rng(7)
        for defs in self.defs_sets(tmp_path):
            for i in range(400):
                valence = (rng.uniform(-1, 1), 0.0, -0.0, rng.normal(scale=1e-300))[i % 4]
                pred = record(
                    au_probs=rng.random(17),
                    expr_probs=rng.dirichlet(np.full(7, 0.3)),
                    valence=valence,
                )
                self.assert_same(defs, pred)

    def test_other_array_types(self, tmp_path):
        rng = np.random.default_rng(8)
        for defs in self.defs_sets(tmp_path):
            pred = PredictionRecord(
                id="r0",
                au_probs=rng.random(17).astype(np.float32),
                expr_probs=list(rng.dirichlet(np.ones(7))),
                valence=np.float64(0.25),
            )
            self.assert_same(defs, pred)

    @pytest.mark.parametrize("valence", [0.0, -0.0])
    def test_zero_valence_bonus_is_half(self, valence):
        cdef = simple_def(bonus=True)
        pred = record(valence=valence)
        assert candidate_score(cdef, pred) == oracle_score(cdef, pred) == 0.5
        self.assert_same(default_compound_defs(), pred)

    def test_exact_tie_between_different_definitions(self):
        # AU12 at weight 1 and AU25 at weight 2, both predicted at 0.5:
        # the AU terms are both exactly 0.5 and the constituents are shared
        a = simple_def(name="first", au_set=((12, 1.0),))
        b = simple_def(name="second", au_set=((25, 2.0), (26, 2.0)))
        au = np.zeros(17)
        au[au_index(12)] = au[au_index(25)] = au[au_index(26)] = 0.5
        pred = record(au_probs=au, expr_probs=np.full(7, 1 / 7))
        assert candidate_score(a, pred) == candidate_score(b, pred)
        assert classify_compound([a, b], pred) is a
        assert classify_compound([b, a], pred) is b
        self.assert_same([a, b], pred)

    def test_all_defaults_tied(self):
        # no AU evidence, uniform emotions, negative valence: all 11 scores
        # are 2/7, so the first definition of the list wins
        defs = default_compound_defs()
        pred = record(expr_probs=np.full(7, 1 / 7), valence=-0.4)
        assert len({candidate_score(d, pred) for d in defs}) == 1
        assert classify_compound(defs, pred) is defs[0]
        assert classify_compound(defs[::-1], pred) is defs[-1]
        self.assert_same(defs, pred)

    def test_no_valence_without_bonus_definitions(self):
        defs = [d for d in default_compound_defs() if not d.valence_bonus]
        rng = np.random.default_rng(9)
        for _ in range(50):
            pred = record(au_probs=rng.random(17), expr_probs=rng.dirichlet(np.ones(7)))
            self.assert_same(defs, pred)

    @pytest.mark.parametrize(
        "fields,error",
        [
            (dict(expr_probs=np.zeros(7), valence=0.1), MissingAUPrediction),
            (dict(au_probs=np.zeros(17), valence=0.1), ValueOutOfRange),
            (dict(au_probs=np.zeros(17), expr_probs=np.zeros(7)), ValueOutOfRange),
            (dict(valence=0.1), MissingAUPrediction),
        ],
    )
    def test_missing_values_raise_as_before(self, fields, error):
        pred = PredictionRecord(id="r0", **fields)
        # put a no-bonus definition first, so a missing valence is found
        # at the first bonus definition, as the old loop found it
        defs = sorted(default_compound_defs(), key=lambda d: d.valence_bonus)
        with pytest.raises(error) as expected:
            oracle_classify(defs, pred)
        with pytest.raises(error, match=f"^{re.escape(str(expected.value))}$"):
            classify_compound(defs, pred)
        for cdef in defs:
            try:
                want = oracle_score(cdef, pred)
            except error as exc:
                with pytest.raises(error, match=f"^{re.escape(str(exc))}$"):
                    candidate_score(cdef, pred)
            else:
                assert candidate_score(cdef, pred) == want
