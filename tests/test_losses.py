"""Training objectives against closed-form hand evaluations: each formula
of ``losses`` as a one-node loss, and the step objective's weighted sum."""

import math
from dataclasses import fields

import numpy as np
import pytest

from affectkit.autodiff import backward, take_rows
from affectkit.errors import EmptyMaskBatch, ShapeMismatch
from affectkit.harness.dataio import ANNOTATION_FIELDS, read_annotation_columns
from affectkit.losses import TASKS, BatchLabels, BatchPredictions, objective
from affectkit.relatedness import COGNITIVE
from affectkit.types import au_index, expression_id
from reference_ops import as_tensor
from reference_ops import bce_node as masked_bce_loss
from reference_ops import ccc_node as ccc_loss
from reference_ops import cce_node as cce_loss
from reference_ops import dm_node as distribution_matching_loss
from reference_ops import soft_node as soft_target_cce

LN7 = math.log(7.0)


def onehot(rows, k=7):
    out = np.zeros((len(rows), k))
    out[np.arange(len(rows)), rows] = 1.0
    return out


class TestCCCLoss:
    def test_perfect_prediction(self):
        truth = np.array([[0.1, -0.4], [0.5, 0.2], [-0.3, 0.8]])
        loss = ccc_loss(as_tensor(truth.copy()), truth)
        assert float(loss.data) == pytest.approx(0.0, abs=1e-12)

    def test_mirrored_valence(self):
        truth = np.array([[0.5, 0.1], [-0.5, -0.1], [0.0, 0.3]])
        pred = truth.copy()
        pred[:, 0] *= -1.0  # valence concordance -1, arousal stays +1
        assert float(ccc_loss(as_tensor(pred), truth).data) == pytest.approx(1.0)

    def test_worked_pair_both_dims(self):
        pred = np.array([[0.5, 0.5], [0.0, 0.0], [-0.5, -0.5]])
        truth = np.array([[0.4, 0.4], [0.1, 0.1], [-0.3, -0.3]])
        expected = 1.0 - 35.0 / 38.0
        assert float(ccc_loss(as_tensor(pred), truth).data) == pytest.approx(
            expected, abs=1e-9
        )

    def test_bounded(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            pred = rng.normal(size=(6, 2))
            truth = rng.normal(size=(6, 2))
            value = float(ccc_loss(as_tensor(pred), truth).data)
            assert 0.0 - 1e-9 <= value <= 2.0 + 1e-9


class TestCCELoss:
    def test_uniform_logits(self):
        loss = cce_loss(as_tensor(np.zeros((3, 7))), [0, 4, 6])
        assert float(loss.data) == pytest.approx(LN7, abs=1e-12)

    def test_saturated_logits_reach_zero(self):
        # no probability clamping: a confident head can drive loss below 1e-12
        logits = np.zeros((1, 7))
        logits[0, 2] = 30.0
        assert float(cce_loss(as_tensor(logits), [2]).data) < 1e-12

    def test_single_raised_logit(self):
        logits = np.zeros((1, 7))
        logits[0, 0] = 1.0
        expected = math.log(math.e + 6.0) - 1.0
        assert float(cce_loss(as_tensor(logits), [0]).data) == pytest.approx(
            expected, abs=1e-12
        )

    def test_accepts_an_int64_id_array(self):
        loss = cce_loss(as_tensor(np.zeros((2, 7))), np.array([1, 5]))
        assert float(loss.data) == pytest.approx(LN7)

    def test_nonnegative(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(10, 7)) * 3
        truth = rng.integers(0, 7, size=10)
        assert float(cce_loss(as_tensor(logits), truth).data) >= 0.0


class TestLogSoftmax:
    """The max-shifted log-sum-exp inside cce_loss."""

    def test_rows_normalize(self):
        # the gradient rows are (softmax - onehot) / N, so each sums to 0
        rng = np.random.default_rng(2)
        logits = as_tensor(rng.normal(size=(4, 7)) * 50)
        backward(cce_loss(logits, [0, 3, 6, 2]))
        assert logits.grad.sum(axis=1) == pytest.approx(np.zeros(4), abs=1e-15)
        assert (4.0 * logits.grad + onehot([0, 3, 6, 2])).sum(axis=1) == pytest.approx(
            np.ones(4)
        )

    def test_huge_logits_stay_finite(self):
        logits = as_tensor(np.array([[1000.0, 0.0, -1000.0], [0.0, -1000.0, 1000.0]]))
        loss = cce_loss(logits, [1, 1])
        backward(loss)
        assert float(loss.data) == pytest.approx(1500.0)
        assert np.all(np.isfinite(logits.grad))


class TestMaskedBCE:
    def test_single_masked_unit(self):
        logits = np.zeros((1, 17))
        targets = np.zeros((1, 17))
        mask = np.zeros((1, 17))
        targets[0, 0] = 1.0
        mask[0, 0] = 1.0
        loss = masked_bce_loss(as_tensor(logits), targets, mask)
        assert float(loss.data) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_two_masked_units(self):
        def logit(p):
            return math.log(p / (1.0 - p))

        logits = np.zeros((1, 17))
        logits[0, 0] = logit(0.9)
        logits[0, 1] = logit(0.2)
        targets = np.zeros((1, 17))
        targets[0, 0] = 1.0
        mask = np.zeros((1, 17))
        mask[0, :2] = 1.0
        loss = masked_bce_loss(as_tensor(logits), targets, mask)
        expected = -0.5 * (math.log(0.9) + math.log(0.8))
        assert float(loss.data) == pytest.approx(expected, abs=1e-12)

    def test_perfect_prediction_near_zero(self):
        logits = np.full((2, 17), -40.0)
        logits[:, 3] = 40.0
        targets = np.zeros((2, 17))
        targets[:, 3] = 1.0
        mask = np.ones((2, 17))
        assert float(masked_bce_loss(as_tensor(logits), targets, mask).data) < 1e-5

    def test_masked_positions_ignored_bit_for_bit(self):
        rng = np.random.default_rng(3)
        logits = rng.normal(size=(3, 17))
        targets = (rng.random((3, 17)) < 0.5).astype(float)
        mask = (rng.random((3, 17)) < 0.6).astype(float)
        mask[:, 0] = 1.0
        base = float(masked_bce_loss(as_tensor(logits), targets, mask).data)
        noisy = logits.copy()
        noisy[mask == 0] += rng.normal(size=int((mask == 0).sum())) * 100
        again = float(masked_bce_loss(as_tensor(noisy), targets, mask).data)
        assert again == base

    def test_zero_weight_rows_skipped(self):
        logits = np.zeros((2, 17))
        targets = np.zeros((2, 17))
        targets[0, 0] = 1.0
        mask = np.zeros((2, 17))
        mask[0, 0] = 1.0  # second row entirely unannotated
        loss = masked_bce_loss(as_tensor(logits), targets, mask)
        assert float(loss.data) == pytest.approx(math.log(2.0))

    def test_all_rows_empty(self):
        with pytest.raises(EmptyMaskBatch):
            masked_bce_loss(as_tensor(np.zeros((2, 17))), np.zeros((2, 17)), np.zeros((2, 17)))

    def test_fractional_weights(self):
        # one unit at weight 2 counts twice as much as one at weight 1
        logits = np.zeros((1, 17))
        targets = np.zeros((1, 17))
        targets[0, 0] = 1.0
        targets[0, 1] = 1.0
        mask = np.zeros((1, 17))
        mask[0, 0] = 2.0
        mask[0, 1] = 1.0
        loss = masked_bce_loss(as_tensor(logits), targets, mask)
        assert float(loss.data) == pytest.approx(math.log(2.0))


def label_arrays(tmp_path, *rows):
    """The BatchLabels the annotation reader makes of ``(task, payload)``
    rows, one row each."""
    path = tmp_path / "ann.csv"
    lines = [",".join(ANNOTATION_FIELDS)]
    lines += [f"s{r},train,,,,{task},{payload}" for r, (task, payload) in enumerate(rows)]
    path.write_text("\n".join(lines) + "\n")
    return read_annotation_columns(path).labels


def au_payload(values, mask):
    return "".join(str(v) if m else "-" for v, m in zip(values, mask))


class TestAUStacking:
    def test_none_rows_get_zero_mask(self, tmp_path):
        # rows with no AU label, or with no annotated unit, keep a zero mask
        labels = label_arrays(
            tmp_path, ("AU", "1" + "0" * 16), ("VA", "0.1;0.2"), ("AU", "-" * 17)
        )
        assert labels.au_targets[0, 0] == 1.0 and labels.au_mask[0].sum() == 17.0
        assert labels.au_mask[1].sum() == 0.0 and labels.au_mask[2].sum() == 0.0
        assert labels.au_mask.any(axis=1).tolist() == [True, False, False]
        assert [TASKS[k] for k in labels.task.tolist()] == ["AU", "VA", "AU"]


class TestLabelArrays:
    def only_task(self, labels, task, n=1):
        """Each of the ``n`` rows is a ``task`` row and carries that label
        alone: an expression class only on EXPR rows, AU mask weight only
        on AU rows, and no soft target."""
        assert labels.task.dtype == np.int64 and labels.task.tolist() == [TASKS.index(task)] * n
        assert (labels.expr >= 0).tolist() == [task == "EXPR"] * n
        assert not labels.soft.any()
        if task != "AU":
            assert not labels.au_mask.any()

    def test_va_row(self, tmp_path):
        labels = label_arrays(tmp_path, ("VA", "0.25;-0.5"))
        assert labels.va.tolist() == [[0.25, -0.5]]
        self.only_task(labels, "VA")

    def test_expr_row(self, tmp_path):
        labels = label_arrays(tmp_path, ("EXPR", str(expression_id("fear"))))
        assert labels.expr.dtype == np.int64
        assert labels.expr.tolist() == [expression_id("fear")]
        self.only_task(labels, "EXPR")

    def test_au_row(self, tmp_path):
        values = np.zeros(17, dtype=np.uint8)
        values[au_index(12)] = 1
        mask = np.ones(17, dtype=np.uint8)
        mask[au_index(4)] = 0
        labels = label_arrays(tmp_path, ("AU", au_payload(values, mask)))
        assert np.array_equal(labels.au_targets[0], values.astype(float))
        assert np.array_equal(labels.au_mask[0], mask.astype(float))
        self.only_task(labels, "AU")

    def test_zero_mask_au_row_is_an_au_row_without_weight(self, tmp_path):
        labels = label_arrays(tmp_path, ("AU", "-" * 17))
        self.only_task(labels, "AU")
        assert not labels.au_mask.any() and not labels.au_targets.any()

    def test_compound_row(self, tmp_path):
        labels = label_arrays(tmp_path, ("COMPOUND", "9;4;6"))
        assert labels.compound.dtype == np.int64
        assert labels.compound.tolist() == [9]
        self.only_task(labels, "COMPOUND")

    def test_rows_follow_sample_order(self, tmp_path):
        labels = label_arrays(tmp_path, ("EXPR", "3"), ("VA", "0.5;0.5"), ("EXPR", "5"))
        assert [TASKS[k] for k in labels.task.tolist()] == ["EXPR", "VA", "EXPR"]
        assert labels.expr.tolist() == [3, -1, 5]
        assert not labels.soft.any()

    def test_empty(self, tmp_path):
        labels = label_arrays(tmp_path)
        assert labels.au_targets.shape == (0, 17) and labels.va.shape == (0, 2)
        assert labels.soft.shape == (0, 7)
        assert labels.task.shape == labels.expr.shape == (0,)

    def test_take_gathers_every_array(self):
        rng = np.random.default_rng(3)
        labels = BatchLabels.zeros(5)
        for f in fields(labels):
            arr = getattr(labels, f.name)
            arr[:] = rng.integers(0, 2, size=arr.shape).astype(arr.dtype)
        rows = np.array([4, 0, 4, 2])
        taken = labels.take(rows)
        for f in fields(labels):
            got, full = getattr(taken, f.name), getattr(labels, f.name)
            assert got.dtype == full.dtype and np.array_equal(got, full[rows]), f.name
            assert not np.shares_memory(got, full), f.name


class TestMultitask:
    """The multi-task part of ``objective``: L_expr + lambda1 * L_au +
    lambda2 * L_va + L_compound, each term over the rows of its label."""

    def make_batch(self):
        rng = np.random.default_rng(4)
        n = 6
        preds = BatchPredictions(
            expr_logits=as_tensor(rng.normal(size=(n, 7))),
            au_logits=as_tensor(rng.normal(size=(n, 17))),
            va=as_tensor(rng.normal(size=(n, 2)) * 0.3),
        )
        labels = BatchLabels.zeros(n)
        labels.task[:] = [TASKS.index(t) for t in ("EXPR",) * 2 + ("AU",) * 2 + ("VA",) * 2]
        labels.expr[:2] = [3, 5]  # the other rows carry no class, -1, and are never read
        labels.au_targets[:] = rng.random((n, 17)) < 0.5
        labels.au_mask[2:4] = 1.0
        labels.va[:] = np.clip(rng.normal(size=(n, 2)), -1, 1)
        return preds, labels

    def terms(self, preds, labels):
        """Each term alone, its formula over its own rows."""
        return {
            "expr": float(cce_loss(take_rows(preds.expr_logits, [0, 1]), labels.expr[:2]).data),
            "au": float(masked_bce_loss(
                take_rows(preds.au_logits, [2, 3]), labels.au_targets[2:4], labels.au_mask[2:4]
            ).data),
            "va": float(ccc_loss(take_rows(preds.va, [4, 5]), labels.va[4:6]).data),
        }

    def test_weighted_sum_of_terms(self):
        preds, labels = self.make_batch()
        terms = self.terms(preds, labels)
        total = objective(preds, labels, lambda1=0.7, lambda2=1.3)
        expected = terms["expr"] + 0.7 * terms["au"] + 1.3 * terms["va"]
        assert float(total.data) == pytest.approx(expected, abs=1e-12)

    def test_terms_match_individual_losses(self):
        # with one task's label kept, the total is that term exactly
        preds, labels = self.make_batch()
        terms = self.terms(preds, labels)
        for task in ("expr", "au", "va"):
            alone = labels.take(np.arange(6))
            if task != "expr":
                alone.expr[:] = -1
            if task != "au":
                alone.au_mask[:] = 0.0
            if task != "va":
                alone.task[4:] = TASKS.index("AU")
            assert float(objective(preds, alone).data) == terms[task]

    def test_zero_lambdas_reduce_to_cce(self):
        rng = np.random.default_rng(5)
        logits = rng.normal(size=(5, 7))
        truth = rng.integers(0, 7, size=5)
        preds = BatchPredictions(expr_logits=as_tensor(logits))
        labels = BatchLabels.zeros(5)
        labels.expr[:] = truth
        total = objective(preds, labels, 0.0, 0.0)
        assert float(total.data) == float(cce_loss(as_tensor(logits), truth).data)

    def test_lambda_gates_task_off(self):
        preds, labels = self.make_batch()
        gated = objective(preds, labels, lambda1=2.0, lambda2=0.0)
        terms = self.terms(preds, labels)
        expected = terms["expr"] + 2.0 * terms["au"]
        assert float(gated.data) == pytest.approx(expected, abs=1e-12)

    def test_absent_task_contributes_zero(self):
        rng = np.random.default_rng(6)
        preds = BatchPredictions(expr_logits=as_tensor(rng.normal(size=(5, 7))))
        labels = BatchLabels.zeros(5)
        labels.expr[:3] = [0, 1, 2]
        labels.task[:] = [TASKS.index("EXPR")] * 3 + [TASKS.index("VA")] * 2
        labels.va[3:] = [[0.5, -0.5], [-0.25, 0.75]]  # VA rows, but the model has no VA head
        total = objective(preds, labels)
        expected = cce_loss(take_rows(preds.expr_logits, [0, 1, 2]), [0, 1, 2])
        assert float(total.data) == float(expected.data)
        assert [p for p, _ in total._edges] == [preds.expr_logits]

    def test_no_heads_rejected(self):
        with pytest.raises(ShapeMismatch):
            objective(BatchPredictions(), BatchLabels.zeros(2))

    def test_row_count_mismatch_rejected(self):
        preds, labels = self.make_batch()
        with pytest.raises(ShapeMismatch):
            objective(preds, labels.take(np.arange(5)))

    def test_gradients_flow_to_all_heads(self):
        preds, labels = self.make_batch()
        backward(objective(preds, labels))
        assert np.any(preds.expr_logits.grad != 0)
        assert np.any(preds.au_logits.grad != 0)
        assert np.any(preds.va.grad != 0)


class TestDistributionMatching:
    def test_consistent_prediction_near_zero(self):
        expr = onehot([expression_id("happiness")])
        au = np.zeros((1, 17))
        for au_id in (12, 25, 6):
            au[0, au_index(au_id)] = 1.0
        loss = distribution_matching_loss(as_tensor(expr), as_tensor(au), COGNITIVE)
        assert float(loss.data) == pytest.approx(0.0, abs=1e-5)

    def test_all_zero_au_probs(self):
        expr = onehot([2, 4])
        loss = distribution_matching_loss(
            as_tensor(expr), as_tensor(np.zeros((2, 17))), COGNITIVE
        )
        assert float(loss.data) == 0.0

    def test_contradicting_au_pays_full_clamp(self):
        expr = onehot([expression_id("happiness")])
        au = np.zeros((1, 17))
        au[0, au_index(4)] = 1.0  # brow lowerer never co-occurs with happiness
        loss = distribution_matching_loss(as_tensor(expr), as_tensor(au), COGNITIVE)
        assert float(loss.data) == pytest.approx(-math.log(1e-7), rel=1e-9)

    def test_zero_au_rows_additive(self):
        rng = np.random.default_rng(7)
        expr = rng.dirichlet(np.ones(7), size=3)
        au = rng.random((3, 17))
        base = float(distribution_matching_loss(as_tensor(expr), as_tensor(au), COGNITIVE).data)
        expr4 = np.vstack([expr, onehot([1])])
        au4 = np.vstack([au, np.zeros((1, 17))])
        padded = distribution_matching_loss(as_tensor(expr4), as_tensor(au4), COGNITIVE).data
        assert 4.0 * float(padded) == pytest.approx(3.0 * base, rel=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(8)
        expr = rng.dirichlet(np.ones(7), size=5)
        au = rng.random((5, 17))
        assert (
            float(distribution_matching_loss(as_tensor(expr), as_tensor(au), COGNITIVE).data)
            >= 0.0
        )


class TestSoftTargetCCE:
    def test_matching_onehot_near_zero(self):
        p = onehot([3])
        assert float(soft_target_cce(as_tensor(p), p).data) == pytest.approx(0.0, abs=1e-6)

    def test_uniform_vs_onehot(self):
        p = np.full((1, 7), 1.0 / 7.0)
        assert float(soft_target_cce(as_tensor(p), onehot([2])).data) == pytest.approx(
            LN7, abs=1e-9
        )

    def test_hand_pair(self):
        soft = np.zeros((1, 7))
        soft[0, :2] = 0.5
        p = np.zeros((1, 7))
        p[0, 0] = 0.25
        p[0, 1] = 0.75
        expected = -0.5 * (math.log(0.25) + math.log(0.75))
        assert float(soft_target_cce(as_tensor(p), soft).data) == pytest.approx(
            expected, abs=1e-12
        )
