"""Evaluation metrics against hand-computed and brute-force oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affectkit.errors import (
    DegenerateInputWarning,
    LengthMismatch,
    ValueOutOfRange,
)
from affectkit.metrics import (
    accuracy,
    binarize,
    ccc,
    confusion_matrix,
    e_total_au,
    e_total_expr,
    f1_binary,
    macro_f1,
    mean_diagonal,
    median,
    mse,
)

# Independent moment-by-moment evaluation of the concordance formula for
# x=[0.5,0,-0.5], y=[0.4,0.1,-0.3]: cov=7/60, var_x=1/6, var_y=37/450,
# mean gap squared = 1/225, giving 2*(7/60) / (114/450) = 35/38.
CCC_ORACLE = 35.0 / 38.0  # 0.9210526315789473


class TestCCC:
    def test_perfect_concordance(self):
        assert ccc([-1, 0, 1], [-1, 0, 1]) == pytest.approx(1.0, abs=1e-12)

    def test_perfect_discordance(self):
        assert ccc([-1, 0, 1], [1, 0, -1]) == pytest.approx(-1.0, abs=1e-12)

    def test_worked_example(self):
        assert ccc([0.5, 0.0, -0.5], [0.4, 0.1, -0.3]) == pytest.approx(
            CCC_ORACLE, abs=1e-9
        )

    def test_shift_penalized(self):
        x = [0.1, 0.5, -0.2, 0.9]
        assert ccc(x, [v + 0.3 for v in x]) < 1.0

    def test_degenerate_equal_constants(self):
        with pytest.warns(DegenerateInputWarning):
            assert ccc([0.2, 0.2], [0.2, 0.2]) == 0.0

    def test_constant_series_different_means(self):
        # denominator is the mean gap, no 0/0: finite value without warning
        assert ccc([0.0, 0.0], [1.0, 1.0]) == 0.0

    def test_too_short(self):
        with pytest.raises(LengthMismatch):
            ccc([1.0], [1.0])

    @given(
        st.lists(st.floats(-1, 1, width=32), min_size=2, max_size=30),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_symmetric_and_bounded(self, xs, data):
        import warnings

        ys = data.draw(
            st.lists(
                st.floats(-1, 1, width=32), min_size=len(xs), max_size=len(xs)
            )
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateInputWarning)
            forward = ccc(xs, ys)
            backward = ccc(ys, xs)
        assert forward == pytest.approx(backward, abs=1e-9)
        assert -1.0 - 1e-9 <= forward <= 1.0 + 1e-9


def specials(nan: float) -> np.ndarray:
    """Values np.median treats specially: a NaN, infinities, zeros of both signs."""
    return np.array([nan, np.inf, -np.inf, 0.0, -0.0])


def with_specials(n: int, rng, specials) -> np.ndarray:
    """(n, 8) normal draws whose first column is all -0.0, second column
    zeros of both signs, and whose other columns hold ``specials`` at rates
    0 to 0.9."""
    a = rng.standard_normal((n, 8))
    a[:, 0] = -0.0
    a[:, 1] = rng.choice([0.0, -0.0], n)
    for col, rate in enumerate((0.0, 0.1, 0.25, 0.5, 0.75, 0.9), start=2):
        hit = rng.random(n) < rate
        a[hit, col] = rng.choice(specials, hit.sum())
    return a


def medians(a: np.ndarray, axis: int):
    with np.errstate(invalid="ignore"):  # -inf + inf, in both
        return median(a, axis=axis), np.median(a, axis=axis)


class TestMedian:
    """``median`` against ``np.median`` itself, bit for bit."""

    # np.nan is +NaN; inf - inf gives -NaN on x86
    @pytest.mark.parametrize("nan", [np.nan, -np.nan], ids=["nan", "neg_nan"])
    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("n", range(1, 65))
    def test_np_median_bits_with_specials(self, n, axis, nan):
        rng = np.random.default_rng(n)
        for _ in range(4):
            a = with_specials(n, rng, specials(nan))
            got, want = medians(a if axis == 0 else np.ascontiguousarray(a.T), axis)
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes(), (got, want)

    @pytest.mark.parametrize("values", [[-0.0], [-0.0, -0.0], [0.0, -0.0, -0.0], [np.nan, 1.0],
                                        [1.0, -np.nan, 2.0], [2.0, -1.0, 3.0, 0.5],
                                        [np.inf, -np.inf]])
    def test_a_1d_array_gives_a_scalar_with_np_medians_bits(self, values):
        got, want = medians(np.array(values), 0)
        assert type(got) is type(want) is np.float64
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    @pytest.mark.parametrize("n", [1, 2, 7, 8])
    def test_nans_of_both_signs_give_a_nan_where_np_median_does(self, n):
        # which of a slice's NaNs np.median hands back is up to its
        # partition, so here only NaN-ness is compared
        a = with_specials(n, np.random.default_rng(n), np.array([np.nan, -np.nan]))
        got, want = medians(a, 0)
        assert np.array_equal(np.isnan(got), np.isnan(want))
        assert got[~np.isnan(got)].tobytes() == want[~np.isnan(want)].tobytes()


class TestMSE:
    def test_identical(self):
        assert mse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_unit_offset(self):
        assert mse([0, 0], [1, 1]) == 1.0

    def test_hand_value(self):
        assert mse([0, 1], [1, 3]) == pytest.approx(2.5)


class TestF1Binary:
    def test_perfect(self):
        assert f1_binary([1, 0, 1], [1, 0, 1]) == 1.0

    def test_hand_counts(self):
        assert f1_binary([1, 1, 0, 0], [1, 0, 0, 1]) == pytest.approx(0.5)

    def test_no_positives_flagged(self):
        with pytest.warns(DegenerateInputWarning):
            assert f1_binary([0, 0], [0, 0]) == 1.0

    def test_zero_tp_with_errors(self):
        assert f1_binary([1, 0], [0, 1]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            f1_binary([1], [1, 0])


class TestMacroF1:
    def test_perfect(self):
        assert macro_f1([0, 1], [0, 1], num_classes=2) == 1.0

    def test_total_confusion(self):
        assert macro_f1([0, 1], [1, 0], num_classes=2) == 0.0

    def test_hand_value(self):
        # class 0: TP=1 FP=1 FN=0 -> 2/3; class 1: TP=1 FP=0 FN=1 -> 2/3
        assert macro_f1([0, 0, 1], [0, 1, 1], num_classes=2) == pytest.approx(2 / 3)


class TestConfusionAndRecall:
    def test_rows_are_truth(self):
        cm = confusion_matrix(pred=[1, 1, 0], truth=[0, 1, 0], num_classes=2)
        assert cm.tolist() == [[1, 1], [0, 1]]

    def test_mean_diagonal_identity(self):
        assert mean_diagonal(np.diag([3, 5, 2])) == 1.0

    def test_mean_diagonal_hand(self):
        cm = [[1, 1], [0, 2]]  # recalls 0.5 and 1.0
        assert mean_diagonal(cm) == pytest.approx(0.75)

    def test_empty_row(self):
        # a class with no true sample is left out of the mean, and a matrix
        # with no true sample at all scores 0.0
        assert mean_diagonal([[1, 0, 0], [0, 0, 0], [1, 0, 3]]) == pytest.approx(0.875)
        assert mean_diagonal([[0, 1], [0, 0]]) == 0.0
        assert mean_diagonal(np.zeros((3, 3), dtype=np.int64)) == 0.0

    def test_uar_hand(self):
        assert mean_diagonal(confusion_matrix([0, 1, 1], [0, 0, 1], 2)) == pytest.approx(0.75)

    def test_uar_random_limit(self):
        rng = np.random.default_rng(0)
        pred = rng.integers(0, 2, size=10_000)
        truth = rng.integers(0, 2, size=10_000)
        assert mean_diagonal(confusion_matrix(pred, truth, 2)) == pytest.approx(0.5, abs=0.05)


class TestComposites:
    def test_e_total_expr(self):
        assert e_total_expr(1.0, 1.0) == pytest.approx(1.0)
        assert e_total_expr(0.0, 0.0) == 0.0
        assert e_total_expr(0.6, 0.3) == pytest.approx(0.501)

    def test_e_total_au(self):
        assert e_total_au(1.0, 1.0) == pytest.approx(1.0)
        assert e_total_au(0.4, 0.8) == pytest.approx(0.6)

    def test_e_total_range_check(self):
        with pytest.raises(ValueOutOfRange):
            e_total_expr(1.2, 0.5)
        with pytest.raises(ValueOutOfRange):
            e_total_au(0.5, -0.1)


class TestBinarize:
    def test_default_threshold(self):
        assert binarize([0.49, 0.5, 0.51]).tolist() == [0, 1, 1]

    def test_custom_threshold(self):
        assert binarize([0.2, 0.8], threshold=0.9).tolist() == [0, 0]


class TestAccuracy:
    def test_basic(self):
        assert accuracy([1, 2, 3], [1, 2, 4]) == pytest.approx(2 / 3)
