"""Each loss formula against the composite graph it replaced.

The references below rebuild every objective from elementwise autodiff ops
(log, exp, clip, division, mean, negation), as the losses were first
written; each formula of ``losses``, as a one-node loss, must match their
values and input gradients at rtol 1e-12, with an absolute floor scaled to
the largest entry. The weighted totals of the per-term graph (the
multi-task total and a training step's total) must equal the add/mul
chains they replaced exactly, and the step objective must equal them.
"""

import numpy as np
import pytest

from affectkit import autodiff as ad
from affectkit.autodiff import DiffTensor, backward
from affectkit.losses import PROB_EPS, TASKS, BatchLabels, BatchPredictions, objective
from affectkit.relatedness import COGNITIVE, EMPIRICAL
from affectkit.types import NUM_AUS, NUM_EXPRESSIONS
from reference_ops import add, as_tensor, matmul, mul, multitask_terms, sigmoid, slice_axis
from reference_ops import softmax, sub, tsum
from reference_ops import bce_node as masked_bce_loss
from reference_ops import ccc_node as ccc_loss
from reference_ops import cce_node as cce_loss
from reference_ops import distribution_matching_loss as old_distribution_matching_loss
from reference_ops import dm_node as distribution_matching_loss
from reference_ops import soft_node as soft_target_cce
from reference_ops import soft_target_cce as old_soft_target_cce
from reference_ops import weighted_total

RTOL = 1e-12


# ---------------------------------------------------------------------------
# test-only elementwise ops and the composite losses built from them


def _log(x):
    return DiffTensor(np.log(x.data), edges=((x, lambda g: g / x.data),))


def _exp(x):
    e = np.exp(x.data)
    return DiffTensor(e, edges=((x, lambda g: g * e),))


def _clip(x, lo, hi):
    inside = (x.data >= lo) & (x.data <= hi)
    return DiffTensor(np.clip(x.data, lo, hi), edges=((x, lambda g: g * inside),))


def _div(a, b):
    """Quotient of two same-shape tensors."""
    return DiffTensor(
        a.data / b.data,
        edges=(
            (a, lambda g: g / b.data),
            (b, lambda g: -g * a.data / (b.data * b.data)),
        ),
    )


def _mean(x):
    return mul(tsum(x), as_tensor(1.0 / x.size))


def _neg(x):
    return mul(x, as_tensor(-1.0))


def _ccc_1d(pred, truth):
    mean_p = _mean(pred)
    mean_t = _mean(truth)
    dp = sub(pred, mean_p)
    dt = sub(truth, mean_t)
    var_p = _mean(mul(dp, dp))
    var_t = _mean(mul(dt, dt))
    cov = _mean(mul(dp, dt))
    diff = sub(mean_p, mean_t)
    return _div(mul(cov, as_tensor(2.0)), add(add(var_p, var_t), mul(diff, diff)))


def ref_ccc(pred_va, truth):
    ccc_v = _ccc_1d(slice_axis(pred_va, 0, 1, axis=1), as_tensor(truth[:, 0:1]))
    ccc_a = _ccc_1d(slice_axis(pred_va, 1, 2, axis=1), as_tensor(truth[:, 1:2]))
    return sub(as_tensor(1.0), mul(add(ccc_v, ccc_a), as_tensor(0.5)))


def log_softmax(logits):
    shift = sub(logits, as_tensor(logits.data.max(axis=1, keepdims=True)))
    return sub(shift, _log(tsum(_exp(shift), axis=1, keepdims=True)))


def ref_cce(logits, truth_ids):
    n, k = logits.shape
    onehot = np.zeros((n, k))
    onehot[np.arange(n), truth_ids] = 1.0
    return _neg(_mean(tsum(mul(log_softmax(logits), as_tensor(onehot)), axis=1)))


def ref_bce(au_logits, targets, mask):
    row_weight = mask.sum(axis=1)
    keep = np.flatnonzero(row_weight > 0)
    t = targets[keep]
    p = _clip(sigmoid(ad.take_rows(au_logits, keep)), PROB_EPS, 1.0 - PROB_EPS)
    terms = add(mul(as_tensor(t), _log(p)), mul(as_tensor(1.0 - t), _log(sub(as_tensor(1.0), p))))
    per_sample = _div(tsum(mul(terms, as_tensor(mask[keep])), axis=1), as_tensor(row_weight[keep]))
    return _neg(_mean(per_sample))


def ref_soft(expr_probs, soft):
    p = _clip(expr_probs, PROB_EPS, 1.0 - PROB_EPS)
    return _neg(_mean(tsum(mul(as_tensor(soft), _log(p)), axis=1)))


def ref_dm(expr_probs, au_probs, table, reweight=False):
    mixture = matmul(expr_probs, as_tensor(table.conditional_matrix(reweight=reweight)))
    q = _clip(mixture, PROB_EPS, 1.0 - PROB_EPS)
    return _neg(_mean(tsum(mul(au_probs, _log(q)), axis=1)))


# ---------------------------------------------------------------------------
# comparison helpers


def run(loss_fn, arrays, *args, **kwargs):
    """Value and input gradients of loss_fn on fresh leaves."""
    leaves = [DiffTensor(a.copy()) for a in arrays]
    root = loss_fn(*leaves, *args, **kwargs)
    backward(root)
    return root, [leaf.grad for leaf in leaves]


def assert_matches(fused_fn, ref_fn, arrays, *args, **kwargs):
    root, grads = run(fused_fn, arrays, *args, **kwargs)
    ref_root, ref_grads = run(ref_fn, arrays, *args, **kwargs)
    assert len(root._edges) == len(arrays)
    assert all(parent._edges == () for parent, _ in root._edges)
    value, ref_value = float(root.data), float(ref_root.data)
    np.testing.assert_allclose(value, ref_value, rtol=RTOL, atol=RTOL * abs(ref_value))
    for g, ref in zip(grads, ref_grads):
        np.testing.assert_allclose(g, ref, rtol=RTOL, atol=RTOL * np.abs(ref).max())


def probs(rng, n, k):
    logits = rng.normal(0.0, 2.0, size=(n, k))
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


SIZES = [2, 3, 17, 60]


# ---------------------------------------------------------------------------
# the five losses


@pytest.mark.parametrize("n", SIZES)
def test_ccc(n):
    rng = np.random.default_rng(n)
    for _ in range(10):
        pred = rng.normal(0.0, 0.5, size=(n, 2))
        truth = np.clip(rng.normal(0.0, 0.5, size=(n, 2)), -1.0, 1.0)
        assert_matches(ccc_loss, ref_ccc, [pred], truth)


def test_ccc_constant_prediction():
    truth = np.array([[0.2, -0.1], [0.4, 0.3], [-0.6, 0.9]])
    assert_matches(ccc_loss, ref_ccc, [np.full((3, 2), 0.25)], truth)


@pytest.mark.parametrize("n", SIZES)
def test_cce(n):
    rng = np.random.default_rng(100 + n)
    for scale in (0.5, 3.0, 40.0):
        logits = rng.normal(0.0, scale, size=(n, NUM_EXPRESSIONS))
        truth = rng.integers(0, NUM_EXPRESSIONS, size=n)
        assert_matches(cce_loss, ref_cce, [logits], truth)


@pytest.mark.parametrize("n", SIZES)
def test_masked_bce(n):
    rng = np.random.default_rng(200 + n)
    for _ in range(10):
        logits = rng.normal(0.0, 2.0, size=(n, NUM_AUS))
        targets = (rng.random((n, NUM_AUS)) < 0.5).astype(float)
        mask = (rng.random((n, NUM_AUS)) < 0.7).astype(float)
        mask[0, 0] = 1.0
        assert_matches(masked_bce_loss, ref_bce, [logits], targets, mask)


def test_masked_bce_saturated_logits_hit_the_clamp():
    rng = np.random.default_rng(300)
    logits = rng.normal(0.0, 2.0, size=(6, NUM_AUS))
    logits[:, :5] = rng.choice([-40.0, 40.0], size=(6, 5))
    targets = (rng.random((6, NUM_AUS)) < 0.5).astype(float)
    mask = np.ones((6, NUM_AUS))
    s = ad.sigmoid_values(logits)
    assert np.any((s < PROB_EPS) | (s > 1.0 - PROB_EPS))
    assert_matches(masked_bce_loss, ref_bce, [logits], targets, mask)
    _, (grad,) = run(masked_bce_loss, [logits], targets, mask)
    assert np.all(grad[:, :5] == 0.0)


def test_masked_bce_zero_weight_rows_and_fractional_weights():
    rng = np.random.default_rng(301)
    logits = rng.normal(0.0, 2.0, size=(5, NUM_AUS))
    targets = (rng.random((5, NUM_AUS)) < 0.5).astype(float)
    mask = rng.random((5, NUM_AUS)) * 2.0
    mask[mask < 0.6] = 0.0
    mask[1] = 0.0
    mask[3] = 0.0
    assert_matches(masked_bce_loss, ref_bce, [logits], targets, mask)
    _, (grad,) = run(masked_bce_loss, [logits], targets, mask)
    assert np.all(grad[[1, 3]] == 0.0)


@pytest.mark.parametrize("n", SIZES)
def test_soft_target(n):
    rng = np.random.default_rng(400 + n)
    for _ in range(10):
        assert_matches(
            soft_target_cce, ref_soft, [probs(rng, n, NUM_EXPRESSIONS)],
            probs(rng, n, NUM_EXPRESSIONS),
        )


def test_soft_target_clamp_active():
    rng = np.random.default_rng(401)
    p = probs(rng, 4, NUM_EXPRESSIONS)
    p[0] = np.eye(NUM_EXPRESSIONS)[2]  # zeros clamp up, the one clamps down
    soft = probs(rng, 4, NUM_EXPRESSIONS)
    assert_matches(soft_target_cce, ref_soft, [p], soft)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("table", [COGNITIVE, EMPIRICAL], ids=["cognitive", "empirical"])
@pytest.mark.parametrize("reweight", [False, True])
def test_distribution_matching(n, table, reweight):
    rng = np.random.default_rng(500 + n)
    for _ in range(5):
        expr = probs(rng, n, NUM_EXPRESSIONS)
        au = ad.sigmoid_values(rng.normal(0.0, 2.0, size=(n, NUM_AUS)))
        assert_matches(
            distribution_matching_loss, ref_dm, [expr, au], table, reweight=reweight
        )


def test_distribution_matching_neutral_row_hits_the_clamp():
    # a one-hot neutral row gives a mixture of exact zeros (clamped), and
    # one-hot rows of other emotions give mixture entries of 0 and 1
    rng = np.random.default_rng(501)
    expr = probs(rng, 4, NUM_EXPRESSIONS)
    expr[0] = np.eye(NUM_EXPRESSIONS)[0]
    expr[1] = np.eye(NUM_EXPRESSIONS)[4]
    au = rng.random((4, NUM_AUS))
    mixture = expr @ COGNITIVE.conditional_matrix()
    assert np.any(mixture == 0.0)
    assert_matches(distribution_matching_loss, ref_dm, [expr, au], COGNITIVE)


def test_losses_compose_with_upstream_gradient():
    # a scaled, summed root scales each precomputed gradient
    rng = np.random.default_rng(600)
    logits = rng.normal(size=(5, NUM_EXPRESSIONS))
    truth = rng.integers(0, NUM_EXPRESSIONS, size=5)

    def twice(x, ids):
        return weighted_total([(0.5, cce_loss(x, ids)), (1.5, cce_loss(x, ids))])

    def ref_twice(x, ids):
        return add(mul(ref_cce(x, ids), as_tensor(0.5)), mul(ref_cce(x, ids), as_tensor(1.5)))

    root, (grad,) = run(twice, [logits], truth)
    ref_root, (ref_grad,) = run(ref_twice, [logits], truth)
    np.testing.assert_allclose(float(root.data), float(ref_root.data), rtol=RTOL)
    np.testing.assert_allclose(grad, ref_grad, rtol=RTOL, atol=RTOL * np.abs(ref_grad).max())


# ---------------------------------------------------------------------------
# the weighted totals against the add/mul chains they replaced

N_ROWS = 12


def _batch(rng, present, compound=False):
    """Leaves and labels for one batch whose tasks with rows are ``present``:
    EXPR rows 0-3, AU rows 4-7 (the only rows with mask weight) and VA rows
    8-11, or compound rows only."""
    arrays = {
        "expr_logits": rng.normal(size=(N_ROWS, NUM_EXPRESSIONS)),
        "au_logits": rng.normal(size=(N_ROWS, NUM_AUS)),
        "va": rng.normal(size=(N_ROWS, 2)) * 0.3,
    }
    if compound:
        arrays = {"compound_logits": rng.normal(size=(N_ROWS, 11))}
    labels = BatchLabels.zeros(N_ROWS)
    if "va" in present:
        labels.task[8:] = TASKS.index("VA")
    labels.expr[:] = rng.integers(0, NUM_EXPRESSIONS, size=N_ROWS)
    labels.expr[4 if "expr" in present else 0:] = -1  # only rows 0-3 carry a class
    labels.au_targets[:] = rng.random((N_ROWS, NUM_AUS)) < 0.5
    labels.au_mask[:] = rng.random((N_ROWS, NUM_AUS)) < 0.8
    labels.va[:] = np.clip(rng.normal(size=(N_ROWS, 2)), -1.0, 1.0)
    labels.compound[:] = rng.integers(0, 11, size=N_ROWS)
    if compound:
        labels.task[:] = TASKS.index("COMPOUND")
    labels.au_mask[:, 0] = 1.0
    labels.au_mask[:4] = labels.au_mask[8:] = 0.0
    labels.au_mask *= "au" in present
    return arrays, labels


def _step(arrays, labels, lambdas, soft, dm, mode):
    """One training step's loss and leaf gradients. ``objective`` is the
    one node training builds; ``flat`` sums the per-term graph's multi-task
    and coupling terms with one weighted total, as training once did;
    ``nested`` wraps the multi-task total in a second one; ``chain`` is the
    add/mul chain expr + l1 * au + l2 * va + compound, then + soft-target +
    distribution matching. ``lambdas`` is (l1, l2)."""
    leaves = {k: DiffTensor(a.copy()) for k, a in arrays.items()}
    if mode == "objective":
        if soft is not None:
            labels = labels.take(np.arange(N_ROWS))
            labels.soft[soft[0]] = soft[1]
        mixture = COGNITIVE.conditional_matrix() if dm else None
        total = objective(BatchPredictions(**leaves), labels, *lambdas, mixture)
        backward(total)
        return total, [leaves[k].grad for k in sorted(leaves)]
    terms = multitask_terms(BatchPredictions(**leaves), labels, *lambdas)
    extra = []
    if soft is not None or dm:
        probs = softmax(leaves["expr_logits"], axis=1)
        if soft is not None:
            extra.append(old_soft_target_cce(ad.take_rows(probs, soft[0]), soft[1]))
        if dm:
            au = sigmoid(leaves["au_logits"])
            extra.append(old_distribution_matching_loss(probs, au, COGNITIVE))
    if mode == "flat":
        total = weighted_total(terms + [(1.0, t) for t in extra])
    elif mode == "nested":
        total = weighted_total(terms)
        if extra:
            total = weighted_total([(1.0, total)] + [(1.0, t) for t in extra])
    else:
        e, au, va, c = (as_tensor(0.0) if t is None else t for _, t in terms)
        l1, l2 = lambdas
        total = add(add(add(e, mul(au, as_tensor(l1))), mul(va, as_tensor(l2))), c)
        for t in extra:
            total = add(total, t)
    backward(total)
    return total, [leaves[k].grad for k in sorted(leaves)]


TOTAL_CASES = {
    # name: (tasks with rows, lambda1, lambda2, soft-target rows, distribution matching)
    "all_unit": (("expr", "au", "va"), 1.0, 1.0, None, False),
    "all_lambdas": (("expr", "au", "va"), 0.7, 1.3, None, False),
    "lambda_zero": (("expr", "au", "va"), 0.0, 2.0, None, False),
    "soft_and_dm": (("expr", "au", "va"), 0.7, 1.3, [4, 5, 7], True),
    "no_va_soft": (("expr", "au"), 0.7, 1.3, [4, 6], False),
    "no_expr_dm": (("au", "va"), 1.3, 0.7, None, True),
    "au_only_soft_dm": (("au",), 0.5, 1.5, [4, 5, 6, 7], True),
}


@pytest.mark.parametrize("case", sorted(TOTAL_CASES))
def test_fused_totals_equal_chain(case):
    present, l1, l2, soft_rows, dm = TOTAL_CASES[case]
    rng = np.random.default_rng(sorted(TOTAL_CASES).index(case))
    arrays, labels = _batch(rng, present)
    soft = None
    if soft_rows is not None:
        soft = (np.asarray(soft_rows), probs(rng, len(soft_rows), NUM_EXPRESSIONS))
    total, grads = _step(arrays, labels, (l1, l2), soft, dm, "flat")
    for mode in ("objective", "nested", "chain"):
        ref_total, ref_grads = _step(arrays, labels, (l1, l2), soft, dm, mode)
        assert total.data.tobytes() == ref_total.data.tobytes(), mode
        for g, ref in zip(grads, ref_grads):  # a leaf no term reads has no grad
            assert (g is None and ref is None) or g.tobytes() == ref.tobytes(), mode
    assert len(total._edges) == len(present) + (soft is not None) + dm


def test_fused_total_compound_only():
    arrays, labels = _batch(np.random.default_rng(9), (), compound=True)
    total, (grad,) = _step(arrays, labels, (0.7, 1.3), None, False, "flat")
    for mode in ("objective", "chain"):
        ref_total, (ref_grad,) = _step(arrays, labels, (0.7, 1.3), None, False, mode)
        assert total.data == ref_total.data and np.array_equal(grad, ref_grad)
    assert len(total._edges) == 1


@pytest.mark.parametrize("soft,dm", [(False, False), (True, False), (False, True), (True, True)])
def test_flat_total_equals_nested_bit_for_bit(soft, dm):
    # a training step's one total against the multi-task total wrapped in
    # a second one, over random term sets: 1.0 * x and g * 1.0 are exact and
    # the sum runs left to right in both, so value and gradients agree
    rng = np.random.default_rng([soft, dm])
    for _ in range(500):
        values = rng.normal(size=6) * 10.0 ** rng.integers(-8, 9, size=6)
        weights = [1.0, rng.choice([0.0, 0.7, rng.random() * 3]),
                   rng.choice([0.0, 1.3, rng.random() * 3]), 1.0]
        kept = rng.random(4) < 0.7
        results = []
        for nested in (False, True):
            leaves = [DiffTensor(v) for v in values]
            terms = [(w, t if keep else None) for w, t, keep in zip(weights, leaves, kept)]
            coupling = [(1.0, t) for t, on in zip(leaves[4:], (soft, dm)) if on]
            if nested and coupling:
                total = weighted_total([(1.0, weighted_total(terms))] + coupling)
            else:
                total = weighted_total(terms + coupling)
            backward(total)
            results.append((total, leaves))
        (flat, flat_leaves), (nest, nest_leaves) = results
        assert flat.data.tobytes() == nest.data.tobytes()
        for a, b in zip(flat_leaves, nest_leaves):  # an absent term's leaf has no grad
            assert (a.grad is None and b.grad is None) or a.grad.tobytes() == b.grad.tobytes()


def test_weighted_total_absent_terms():
    a, b = DiffTensor(0.25), DiffTensor(-1.5)
    total = weighted_total([(1.0, None), (2.0, a), (0.5, None), (3.0, b)])
    assert float(total.data) == 0.0 + 2.0 * 0.25 + 0.0 + 3.0 * -1.5
    assert [p for p, _ in total._edges] == [a, b]
    backward(total)
    assert a.grad == 2.0 and b.grad == 3.0
