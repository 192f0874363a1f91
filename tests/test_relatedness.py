"""Emotion/AU relatedness tables and the coupling transforms built on them."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_input as ref
from affectkit.errors import BadTableFile
from affectkit.relatedness import (
    BUILTIN_TABLES,
    COGNITIVE,
    EMPIRICAL,
    RelatednessTable,
    coannotate_aus_to_emotion_rows,
    load_table,
    soft_coannotate_rows,
)
from affectkit.types import (
    AU_IDS,
    EXPRESSION_NAMES,
    NUM_AUS,
    NUM_EXPRESSIONS,
    au_index,
    expression_id,
)
from reference_input import AUVector, ExpressionLabel


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


def hard(aus):
    """The class id the hard engine implies for one AU vector, or -1."""
    return int(coannotate_aus_to_emotion_rows(aus.values[None], aus.mask[None], COGNITIVE)[0])


def soft(aus, reweight=True):
    """Scores, softmax and completeness flag of the soft engine for one AU vector."""
    scores, probs, complete = soft_coannotate_rows(
        aus.values[None], aus.mask[None], COGNITIVE, reweight=reweight
    )
    return scores[0], probs[0], bool(complete[0])


def mixture(p, reweight=False):
    """The AU mixture distribution matching computes from emotion probabilities."""
    return np.asarray(p) @ COGNITIVE.conditional_matrix(reweight=reweight)


class TestTables:
    def test_builtin_registry(self):
        assert set(BUILTIN_TABLES) == {"cognitive", "empirical"}
        assert BUILTIN_TABLES["cognitive"] is COGNITIVE

    def test_six_emotion_rows_no_neutral(self):
        for table in (COGNITIVE, EMPIRICAL):
            ids = [cid for cid, _ in table.rows]
            assert len(ids) == 6
            assert 0 not in ids

    def test_happiness_row(self):
        row = dict(COGNITIVE.rows)[expression_id("happiness")]
        assert row == ((12, 1.0), (25, 1.0), (6, 0.51))

    def test_conditional_matrix_shape_and_neutral(self):
        m = COGNITIVE.conditional_matrix()
        assert m.shape == (NUM_EXPRESSIONS, len(AU_IDS))
        assert np.all(m[0] == 0.0)
        assert m[expression_id("happiness"), au_index(12)] == 1.0

    def test_conditional_matrix_reweight(self):
        m = COGNITIVE.conditional_matrix(reweight=True)
        assert m[expression_id("happiness"), au_index(6)] == pytest.approx(0.51)
        assert m[expression_id("happiness"), au_index(12)] == 1.0

    @pytest.mark.parametrize("table", [COGNITIVE, EMPIRICAL], ids=["cognitive", "empirical"])
    @pytest.mark.parametrize("reweight", [False, True])
    def test_conditional_matrix_is_the_per_row_build(self, table, reweight):
        m = table.conditional_matrix(reweight=reweight)
        expected = np.zeros_like(m)  # the per-row build, rerun here
        for cid, aus in table.rows:
            for au, w in aus:
                expected[cid, au_index(au)] = w if reweight else 1.0
        assert np.array_equal(m, expected)
        m[:] = -1.0  # each call builds its own array, so this changes no table
        assert np.array_equal(table.conditional_matrix(reweight=reweight), expected)
        fresh = RelatednessTable(table.rows)
        assert fresh == table and hash(fresh) == hash(table)


class TestHardCoannotation:
    def test_surprise_to_aus(self):
        weight = COGNITIVE.conditional_matrix(reweight=True)[expression_id("surprise")]
        implied = {AU_IDS[i]: w for i, w in enumerate(weight.tolist()) if w > 0}
        assert implied == {1: 1.0, 2: 1.0, 25: 1.0, 26: 1.0, 5: 0.66}

    def test_neutral_to_aus_empty(self):
        assert not COGNITIVE.conditional_matrix(reweight=True)[0].any()

    def test_largest_requirement_wins(self):
        # happiness (3 AUs) and surprise (5 AUs) both fully active
        aus = au_vector({12, 25, 6, 1, 2, 26, 5})
        assert hard(aus) == expression_id("surprise")

    def test_no_match_returns_none(self):
        assert hard(au_vector({4})) == -1

    def test_unannotated_requirement_skips_emotion(self):
        # happiness pattern active but AU6 unobserved: happiness is skipped
        aus = au_vector({12, 25}, annotated=set(AU_IDS) - {6})
        assert hard(aus) == -1

    @pytest.mark.parametrize(
        "emotion",
        ["anger", "disgust", "fear", "happiness", "sadness", "surprise"],
    )
    def test_round_trip(self, emotion):
        cid = expression_id(emotion)
        implied = COGNITIVE.conditional_matrix(reweight=True)[cid] > 0
        assert hard(au_vector({au for au, on in zip(AU_IDS, implied) if on})) == cid


class TestSoftCoannotation:
    def test_happiness_pattern_scores(self):
        scores, _, _ = soft(au_vector({12, 25, 6}))
        # all three happiness AUs active: weighted fraction is exactly 1
        assert scores[expression_id("happiness")] == 1.0
        # sadness sees only AU6 of its 0.5 weight against total 4.03
        assert scores[expression_id("sadness")] == pytest.approx(0.5 / 4.03)
        assert scores[0] == 0.0

    def test_happiness_pattern_distribution(self):
        _, probs, complete = soft(au_vector({12, 25, 6}))
        assert complete
        assert probs.shape == (NUM_EXPRESSIONS,)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert int(np.argmax(probs)) == expression_id("happiness")

    def test_all_inactive_is_uniform(self):
        _, probs, _ = soft(au_vector(set()))
        assert np.allclose(probs, 1.0 / NUM_EXPRESSIONS, atol=1e-12)

    def test_reweight_off_uses_unit_weights(self):
        scores, _, _ = soft(au_vector({6}), reweight=False)
        assert scores[expression_id("happiness")] == pytest.approx(1 / 3)

    def test_missing_mask(self):
        _, _, complete = soft(au_vector({12, 25}, annotated=set(AU_IDS) - {6}))
        assert not complete


# rows of (active flags, unannotated positions); some rows leave every AU
# unannotated, most leave none or a few
AU_ROWS = st.lists(
    st.tuples(
        st.lists(st.booleans(), min_size=NUM_AUS, max_size=NUM_AUS),
        st.one_of(
            st.sets(st.integers(0, NUM_AUS - 1), max_size=3), st.just(set(range(NUM_AUS)))
        ),
    ),
    min_size=1,
    max_size=30,
)


def au_arrays(rows):
    """uint8 values and mask, unannotated values 0 as the readers leave them."""
    mask = np.ones((len(rows), NUM_AUS), dtype=np.uint8)
    for r, (_, missing) in enumerate(rows):
        mask[r, list(missing)] = 0
    values = np.array([active for active, _ in rows], dtype=np.uint8) * mask
    return values, mask


class TestRowEnginesMatchPerRowLoops:
    """The row-wise engines against the per-sample loops they replaced, bit
    for bit, on float64 rows as the training table holds them."""

    @pytest.mark.parametrize("reweight", [True, False])
    @pytest.mark.parametrize("table", [COGNITIVE, EMPIRICAL], ids=["cognitive", "empirical"])
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(rows=AU_ROWS)
    def test_soft(self, table, reweight, rows):
        values, mask = au_arrays(rows)
        scores, probs, complete = soft_coannotate_rows(
            values.astype(np.float64), mask.astype(np.float64), table, reweight=reweight
        )
        for r in range(len(rows)):
            aus = AUVector(values[r], mask[r])
            want_scores, want_complete = ref.soft_scores(aus, table, reweight=reweight)
            assert complete[r] == want_complete
            if not want_complete:
                continue  # scores and softmax mean nothing in such a row
            want, _ = ref.soft_coannotate(aus, table, reweight=reweight)
            assert np.array_equal(scores[r], want_scores)
            assert np.array_equal(probs[r], want)

    @pytest.mark.parametrize("table", [COGNITIVE, EMPIRICAL], ids=["cognitive", "empirical"])
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(rows=AU_ROWS, force=st.integers(0, NUM_EXPRESSIONS - 1))
    def test_aus_to_emotion(self, table, rows, force):
        values, mask = au_arrays(rows)
        # make the first row carry one emotion's full pattern, so matches occur
        forced = dict(table.rows).get(force, ())
        cols = [au_index(au) for au, _ in forced]
        values[0, cols] = 1
        mask[0, cols] = 1
        implied = coannotate_aus_to_emotion_rows(
            values.astype(np.float64), mask.astype(np.float64), table
        )
        assert implied.dtype == np.int64
        for r in range(len(rows)):
            aus = AUVector(values[r], mask[r])
            want = ref.coannotate_aus_to_emotion(aus, table)
            assert implied[r] == (-1 if want is None else want.class_id)
        assert not forced or implied[0] >= 0

    @pytest.mark.parametrize("table", [COGNITIVE, EMPIRICAL], ids=["cognitive", "empirical"])
    def test_emotion_to_aus_is_the_reweighted_conditional_matrix(self, table):
        weight = table.conditional_matrix(reweight=True)
        for cid in range(NUM_EXPRESSIONS):
            want_t, want_w = np.zeros(NUM_AUS), np.zeros(NUM_AUS)
            for au, t, w in ref.coannotate_emotion_to_aus(ExpressionLabel(cid), table):
                want_t[au_index(au)] = t
                want_w[au_index(au)] = w
            assert np.array_equal(weight[cid] > 0, want_t)
            assert np.array_equal(weight[cid], want_w)
        assert not weight[0].any()  # neutral implies nothing

    def test_an_emotion_with_two_rows_is_refused(self, tmp_path):
        path = tmp_path / "table.txt"
        path.write_text("happiness proto=12\nsadness proto=4\nhappiness proto=6\n")
        with pytest.raises(BadTableFile, match="more than one relatedness row"):
            load_table(path)


class TestMixture:
    def test_shared_au_from_two_emotions(self):
        p = np.zeros(NUM_EXPRESSIONS)
        p[expression_id("surprise")] = 0.5
        p[expression_id("fear")] = 0.5
        q = mixture(p)
        # AU2 belongs to both rows, so the halves add back to 1
        assert q[au_index(2)] == pytest.approx(1.0)
        assert q[au_index(1)] == pytest.approx(1.0)

    def test_reweight_uses_observational_weights(self):
        p = np.zeros(NUM_EXPRESSIONS)
        p[expression_id("surprise")] = 0.5
        p[expression_id("fear")] = 0.5
        q = mixture(p, reweight=True)
        # surprise carries AU2 in its prototype set, fear at weight 0.57
        assert q[au_index(2)] == pytest.approx(0.5 * 1.0 + 0.5 * 0.57)

    def test_pure_neutral_is_zero(self):
        p = np.zeros(NUM_EXPRESSIONS)
        p[0] = 1.0
        assert np.all(mixture(p) == 0.0)

    def test_entries_stay_probabilities(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            p = rng.dirichlet(np.ones(NUM_EXPRESSIONS))
            q = mixture(p)
            assert np.all(q >= -1e-12) and np.all(q <= 1.0 + 1e-12)


class TestTableFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "table.txt"
        lines = ["# custom variant"]
        for cid, aus in COGNITIVE.rows:
            proto = ",".join(str(a) for a, w in aus if w == 1.0)
            obs = ",".join(f"{a}:{w}" for a, w in aus if w != 1.0)
            lines.append(f"{EXPRESSION_NAMES[cid]} proto={proto} obs={obs}")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

        loaded = load_table(path)
        assert loaded == COGNITIVE
        assert np.array_equal(
            loaded.conditional_matrix(reweight=True),
            COGNITIVE.conditional_matrix(reweight=True),
        )

    def test_bad_line_reports_position(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("happiness proto=12\nnotanemotion proto=1\n")
        with pytest.raises(BadTableFile, match="bad.txt:2"):
            load_table(path)

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_invalid_utf8_names_the_line(self, tmp_path, newline):
        path = tmp_path / "bad.txt"
        lines = ["# a custom table", "happiness proto=12", "sadness proto=4 obs=1:0.6"]
        path.write_bytes(newline.join(lines).encode().replace(b"0.6", b"0.\xff") + b"\n")
        with pytest.raises(BadTableFile, match=r"bad\.txt:3: not UTF-8 text: .* byte 0xff"):
            load_table(path)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("happiness proto=99", "AU99 is not one of the 17 canonical AUs"),
            ("happiness proto=12 obs=6:1.5", r"weight 1\.5 for AU6 outside \(0,1\]"),
            ("happiness proto=12 obs=6:0", r"weight 0\.0 for AU6 outside \(0,1\]"),
            ("happiness proto=12,6 obs=6:0.5", "AU6 listed twice for class 4"),
            ("happiness proto=12,12", "AU12 listed twice for class 4"),
            ("happiness proto=12 proto=25 obs=6:0.5 obs=7:0.3", "key proto= given twice"),
            ("happiness proto=12 obs=6:0.5 obs=7:0.3", "key obs= given twice"),
            ("neutral proto=12", "neutral must not have a relatedness row"),
            ("sadness proto=6", "an emotion has more than one relatedness row"),
        ],
    )
    def test_rule_breaks_name_the_line(self, tmp_path, line, message):
        path = tmp_path / "bad.txt"
        path.write_text(f"# custom\nsadness proto=4,15\n\n{line}\nfear proto=1\n")
        with pytest.raises(BadTableFile, match=rf"bad\.txt:4: {message}"):
            load_table(path)

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("happiness primary=12\n")
        with pytest.raises(BadTableFile):
            load_table(path)
