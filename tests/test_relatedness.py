"""Emotion/AU relatedness tables and the coupling transforms built on them."""

import numpy as np
import pytest

from affectkit.errors import BadDistribution, BadTableFile, MissingMask
from affectkit.relatedness import (
    BUILTIN_TABLES,
    COGNITIVE,
    EMPIRICAL,
    RelatednessTable,
    coannotate_aus_to_emotion,
    coannotate_emotion_to_aus,
    emotion_au_mixture,
    load_table,
    soft_coannotate,
    soft_scores,
)
from affectkit.types import (
    AU_IDS,
    NUM_EXPRESSIONS,
    AUVector,
    ExpressionLabel,
    au_index,
    expression_id,
)


def au_vector(active, annotated=None):
    """Fully-annotated AU vector with the given ids active.

    ``annotated`` restricts the mask; default marks every AU observed.
    """
    values = np.zeros(len(AU_IDS), dtype=np.uint8)
    for au in active:
        values[au_index(au)] = 1
    if annotated is None:
        mask = np.ones(len(AU_IDS), dtype=np.uint8)
    else:
        mask = np.zeros(len(AU_IDS), dtype=np.uint8)
        for au in annotated:
            mask[au_index(au)] = 1
    return AUVector(values=values, mask=mask)


class TestTables:
    def test_builtin_registry(self):
        assert set(BUILTIN_TABLES) == {"cognitive", "empirical"}
        assert BUILTIN_TABLES["cognitive"] is COGNITIVE

    def test_six_emotion_rows_no_neutral(self):
        for table in (COGNITIVE, EMPIRICAL):
            ids = [cid for cid, _ in table.rows]
            assert len(ids) == 6
            assert 0 not in ids
            assert table.row(0) is None

    def test_happiness_row(self):
        row = COGNITIVE.row(expression_id("happiness"))
        assert row.proto == (12, 25)
        assert row.obs == ((6, 0.51),)
        assert row.weighted_aus() == ((12, 1.0), (25, 1.0), (6, 0.51))

    def test_conditional_matrix_shape_and_neutral(self):
        m = COGNITIVE.conditional_matrix()
        assert m.shape == (NUM_EXPRESSIONS, len(AU_IDS))
        assert np.all(m[0] == 0.0)
        assert m[expression_id("happiness"), au_index(12)] == 1.0

    def test_conditional_matrix_reweight(self):
        m = COGNITIVE.conditional_matrix(reweight=True)
        assert m[expression_id("happiness"), au_index(6)] == pytest.approx(0.51)
        assert m[expression_id("happiness"), au_index(12)] == 1.0

    @pytest.mark.parametrize("table", [COGNITIVE, EMPIRICAL], ids=lambda t: t.name)
    @pytest.mark.parametrize("reweight", [False, True])
    def test_conditional_matrix_built_once_read_only(self, table, reweight):
        fresh = RelatednessTable(name=table.name, rows=table.rows)
        m = fresh.conditional_matrix(reweight=reweight)
        assert fresh.conditional_matrix(reweight=reweight) is m
        assert fresh.conditional_matrix(reweight=not reweight) is not m
        assert not m.flags.writeable
        expected = np.zeros_like(m)  # the per-row build, rerun here
        for cid, row in table.rows:
            for au, w in row.weighted_aus():
                expected[cid, au_index(au)] = w if reweight else 1.0
        assert np.array_equal(m, expected)
        assert fresh == table and hash(fresh) == hash(table)
        assert repr(fresh) == repr(RelatednessTable(name=table.name, rows=table.rows))


class TestHardCoannotation:
    def test_surprise_to_aus(self):
        out = coannotate_emotion_to_aus(
            ExpressionLabel(expression_id("surprise")), COGNITIVE
        )
        assert out == [
            (1, 1, 1.0),
            (2, 1, 1.0),
            (25, 1, 1.0),
            (26, 1, 1.0),
            (5, 1, 0.66),
        ]

    def test_neutral_to_aus_empty(self):
        assert coannotate_emotion_to_aus(ExpressionLabel(0), COGNITIVE) == []

    def test_largest_requirement_wins(self):
        # happiness (3 AUs) and surprise (5 AUs) both fully active
        aus = au_vector({12, 25, 6, 1, 2, 26, 5})
        label = coannotate_aus_to_emotion(aus, COGNITIVE)
        assert label.name == "surprise"

    def test_no_match_returns_none(self):
        assert coannotate_aus_to_emotion(au_vector({4}), COGNITIVE) is None

    def test_unannotated_requirement_skips_emotion(self):
        # happiness pattern active but AU6 unobserved: happiness is skipped
        aus = au_vector({12, 25}, annotated=set(AU_IDS) - {6})
        assert coannotate_aus_to_emotion(aus, COGNITIVE) is None

    @pytest.mark.parametrize(
        "emotion",
        ["anger", "disgust", "fear", "happiness", "sadness", "surprise"],
    )
    def test_round_trip(self, emotion):
        label = ExpressionLabel(expression_id(emotion))
        implied = coannotate_emotion_to_aus(label, COGNITIVE)
        aus = au_vector({au for au, _, _ in implied})
        assert coannotate_aus_to_emotion(aus, COGNITIVE) == label


class TestSoftCoannotation:
    def test_happiness_pattern_scores(self):
        scores = soft_scores(au_vector({12, 25, 6}), COGNITIVE)
        # all three happiness AUs active: weighted fraction is exactly 1
        assert scores[expression_id("happiness")] == 1.0
        # sadness sees only AU6 of its 0.5 weight against total 4.03
        assert scores[expression_id("sadness")] == pytest.approx(0.5 / 4.03)
        assert scores[0] == 0.0

    def test_happiness_pattern_distribution(self):
        soft = soft_coannotate(au_vector({12, 25, 6}), COGNITIVE)
        probs = soft.as_array()
        assert probs.shape == (NUM_EXPRESSIONS,)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert int(np.argmax(probs)) == expression_id("happiness")

    def test_all_inactive_is_uniform(self):
        probs = soft_coannotate(au_vector(set()), COGNITIVE).as_array()
        assert np.allclose(probs, 1.0 / NUM_EXPRESSIONS, atol=1e-12)

    def test_reweight_off_uses_unit_weights(self):
        scores = soft_scores(au_vector({6}), COGNITIVE, reweight=False)
        assert scores[expression_id("happiness")] == pytest.approx(1 / 3)

    def test_missing_mask(self):
        aus = au_vector({12, 25}, annotated=set(AU_IDS) - {6})
        with pytest.raises(MissingMask):
            soft_coannotate(aus, COGNITIVE)


class TestMixture:
    def test_shared_au_from_two_emotions(self):
        p = np.zeros(NUM_EXPRESSIONS)
        p[expression_id("surprise")] = 0.5
        p[expression_id("fear")] = 0.5
        q = emotion_au_mixture(p, COGNITIVE)
        # AU2 belongs to both rows, so the halves add back to 1
        assert q[au_index(2)] == pytest.approx(1.0)
        assert q[au_index(1)] == pytest.approx(1.0)

    def test_reweight_uses_observational_weights(self):
        p = np.zeros(NUM_EXPRESSIONS)
        p[expression_id("surprise")] = 0.5
        p[expression_id("fear")] = 0.5
        q = emotion_au_mixture(p, COGNITIVE, reweight=True)
        # surprise carries AU2 in its prototype set, fear at weight 0.57
        assert q[au_index(2)] == pytest.approx(0.5 * 1.0 + 0.5 * 0.57)

    def test_pure_neutral_is_zero(self):
        p = np.zeros(NUM_EXPRESSIONS)
        p[0] = 1.0
        assert np.all(emotion_au_mixture(p, COGNITIVE) == 0.0)

    def test_entries_stay_probabilities(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            p = rng.dirichlet(np.ones(NUM_EXPRESSIONS))
            q = emotion_au_mixture(p, COGNITIVE)
            assert np.all(q >= -1e-12) and np.all(q <= 1.0 + 1e-12)

    def test_bad_distribution(self):
        with pytest.raises(BadDistribution):
            emotion_au_mixture(np.ones(NUM_EXPRESSIONS), COGNITIVE)
        with pytest.raises(BadDistribution):
            emotion_au_mixture(np.zeros(3), COGNITIVE)


class TestTableFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "table.txt"
        lines = ["# custom variant"]
        for cid, row in COGNITIVE.rows:
            from affectkit.types import expression_name

            proto = ",".join(str(a) for a in row.proto)
            obs = ",".join(f"{a}:{w}" for a, w in row.obs)
            lines.append(f"{expression_name(cid)} proto={proto} obs={obs}")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

        loaded = load_table(path, name="custom")
        assert loaded.name == "custom"
        assert np.array_equal(
            loaded.conditional_matrix(reweight=True),
            COGNITIVE.conditional_matrix(reweight=True),
        )

    def test_bad_line_reports_position(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("happiness proto=12\nnotanemotion proto=1\n")
        with pytest.raises(BadTableFile, match="bad.txt:2"):
            load_table(path)

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("happiness primary=12\n")
        with pytest.raises(BadTableFile):
            load_table(path)
