"""The step objective against the per-term graph it replaced.

``reference_ops.step_graph`` is a training step's loss as it was built
before ``losses.objective``: the multi-task terms over ``take_rows``
gathers, a softmax node for the soft-target and distribution-matching
terms, a sigmoid node for the AU probabilities, and one weighted total.
Over random batches, every coupling mode and several head sets, the
objective must give the same value and, after ``backward(wrt=params)``
through a model, the same gradient for every parameter, bit for bit; and it
must raise what the per-term graph raises, with the same message, on
heads that do not give one row per label row. A batch with no AU mask
weight has no AU term, and a lone VA row no concordance term. Neither
checks any input that is checked where it is made.
"""

import numpy as np
import pytest

from affectkit.autodiff import DiffTensor, backward
from affectkit.errors import EmptyMaskBatch, ShapeMismatch
from affectkit.losses import TASKS, BatchLabels, BatchPredictions, masked_bce, objective
from affectkit.models import InputDims, Model, ModelSpec, RecurrentSpec, pack_rows, sequence_keys
from affectkit.relatedness import COGNITIVE, EMPIRICAL
from affectkit.types import NUM_AUS, NUM_EXPRESSIONS
from reference_ops import step_graph

MODES = ("none", "coannotation", "soft_coannotation", "distr_matching", "soft+distr")
HEAD_SETS = {
    "expr_au_va": ("EXPR", "AU", "VA"),
    "expr_au": ("EXPR", "AU"),
    "au_va": ("AU", "VA"),
    "expr": ("EXPR",),
    "compound": ("COMPOUND",),
    "all_four": ("VA", "EXPR", "AU", "COMPOUND"),
}
N_ROWS, DIM, COMPOUND_CLASSES = 24, 6, 5


def random_labels(rng, mode, compound):
    """Labels as a training table holds them: one own task per row, AU mask
    weight only on rows with an AU target, the coupling mode's
    co-annotation targets on top, and for a compound run compound rows
    only."""
    labels = BatchLabels.zeros(N_ROWS)
    labels.compound[:] = rng.integers(0, COMPOUND_CLASSES, N_ROWS)
    labels.expr[:] = rng.integers(0, NUM_EXPRESSIONS, N_ROWS)
    labels.va[:] = rng.uniform(-1.0, 1.0, (N_ROWS, 2))
    labels.au_targets[:] = rng.random((N_ROWS, NUM_AUS)) < 0.5
    labels.au_mask[:] = (rng.random((N_ROWS, NUM_AUS)) < 0.7) * rng.choice([1.0, 0.6], NUM_AUS)
    if compound:
        labels.task[:] = TASKS.index("COMPOUND")
        labels.expr[:], labels.au_mask[:] = -1, 0.0
        return labels
    kind = rng.integers(0, 3, N_ROWS)
    labels.task[:] = np.array([TASKS.index(t) for t in ("VA", "EXPR", "AU")])[kind]
    no_class = kind != 1  # EXPR rows carry a class
    au_rows = np.flatnonzero(kind == 2)
    labels.au_mask[au_rows[:1]] = 0.0  # an AU row with no weight
    # hard co-annotation gives EXPR rows AU targets; no other row has any
    labels.au_mask[kind == 0] = 0.0
    if mode != "coannotation":
        labels.au_mask[kind == 1] = 0.0
    if mode == "coannotation":
        no_class[au_rows[rng.random(au_rows.size) < 0.5]] = False
    elif mode in ("soft_coannotation", "soft+distr"):
        soft = au_rows[rng.random(au_rows.size) < 0.6]
        raw = rng.random((soft.size, NUM_EXPRESSIONS))
        labels.soft[soft] = raw / raw.sum(axis=1, keepdims=True)
    labels.expr[no_class] = -1
    return labels


def outcome(model, features, keys, loss):
    """The value and every parameter gradient of ``loss`` (a function of the
    batch's predictions), or the error it raises."""
    preds = model.forward(pack_rows(features, keys))
    params = model.parameters()
    for p in params:
        p.grad = None
    try:
        root = loss(preds)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)
    backward(root, wrt=params)
    grads = [None if p.grad is None else p.grad.tobytes() for p in params]
    return root.data.tobytes(), grads


def both(model, features, keys, labels, lambdas, table, reweight):
    mixture = None if table is None else table.conditional_matrix(reweight=reweight)
    new = outcome(model, features, keys, lambda p: objective(p, labels, *lambdas, mixture))
    old = outcome(
        model, features, keys, lambda p: step_graph(p, labels, *lambdas, table, reweight)
    )
    return new, old


@pytest.mark.parametrize("heads", sorted(HEAD_SETS))
@pytest.mark.parametrize("mode", MODES)
def test_equals_the_per_term_graph_bit_for_bit(mode, heads):
    compound = "COMPOUND" in HEAD_SETS[heads]
    rng = np.random.default_rng([MODES.index(mode), sorted(HEAD_SETS).index(heads)])
    dm = mode in ("distr_matching", "soft+distr")
    for trial in range(6):
        recurrent = trial % 2 == 1
        spec = ModelSpec(
            backbone=(8,), heads=HEAD_SETS[heads], compound_classes=COMPOUND_CLASSES,
            recurrent=RecurrentSpec("single", 4) if recurrent else None,
        )
        model = Model(spec, InputDims(DIM), seed=trial)
        features = rng.normal(size=(N_ROWS, DIM))
        keys = sequence_keys([f"s{r % 5}" for r in range(N_ROWS)], list(range(N_ROWS)))
        labels = random_labels(rng, mode, compound)
        lambdas = (0.7, 1.3) if trial % 3 else (1.0, 1.0)
        table = (EMPIRICAL if trial % 2 else COGNITIVE) if dm else None
        new, old = both(
            model, features, keys if recurrent else None, labels, lambdas, table, trial < 3
        )
        assert not isinstance(new[0], type), new  # every case here is a valid batch
        assert new == old


def test_a_lone_va_row_adds_no_term():
    # concordance needs two rows, so a batch's only VA row adds nothing
    rng = np.random.default_rng(11)
    labels = random_labels(rng, "soft+distr", False)
    labels.task[labels.task == TASKS.index("VA")] = TASKS.index("AU")
    labels.task[3], labels.au_mask[3], labels.soft[3] = TASKS.index("VA"), 0.0, 0.0
    model = Model(ModelSpec(backbone=(8,), heads=("EXPR", "AU", "VA")), InputDims(DIM), seed=2)
    features = rng.normal(size=(N_ROWS, DIM))
    new, old = both(model, features, None, labels, (0.7, 1.3), COGNITIVE, True)
    assert new == old and not isinstance(new[0], type)


def test_no_au_weight_adds_no_au_term():
    # mask weight is what marks an AU target, so a batch without any has
    # no AU term; masked_bce itself still refuses such rows
    labels = random_labels(np.random.default_rng(5), "soft+distr", False)
    labels.au_mask[:] = 0.0
    model = Model(ModelSpec(backbone=(8,), heads=("EXPR", "AU", "VA")), InputDims(DIM), seed=4)
    features = np.random.default_rng(6).normal(size=(N_ROWS, DIM))
    new, old = both(model, features, None, labels, (1.0, 1.0), None, False)
    assert new == old and not isinstance(new[0], type)
    preds = model.forward(pack_rows(features, None))
    assert preds.au_logits not in [p for p, _ in objective(preds, labels)._edges]
    with pytest.raises(EmptyMaskBatch, match="no sample has an annotated AU"):
        masked_bce(np.full((N_ROWS, NUM_AUS), 0.5), labels.au_targets, labels.au_mask)


def test_raises_on_heads_of_the_wrong_shape():
    # a head a row short, and no head at all; a head's width is fixed by
    # Model, so neither side checks it
    labels = random_labels(np.random.default_rng(7), "soft+distr", False)
    table = COGNITIVE.conditional_matrix()
    for preds in (BatchPredictions(va=DiffTensor(np.zeros((N_ROWS - 1, 2)))), BatchPredictions()):
        caught = []
        for loss in (lambda: objective(preds, labels, mixture=table),
                     lambda: step_graph(preds, labels, table=COGNITIVE)):
            with pytest.raises(ShapeMismatch) as info:
                loss()
            caught.append(str(info.value))
        assert caught[0] == caught[1]


def test_extreme_logits_agree():
    # saturated and infinite logits: the clamps, the shifted log-sum-exp
    # and the overflow-free sigmoid give the per-term graph's bytes
    rng = np.random.default_rng(9)
    labels = random_labels(rng, "soft+distr", False)
    preds = {
        "expr_logits": rng.normal(size=(N_ROWS, NUM_EXPRESSIONS)) * 300.0,
        "au_logits": rng.normal(size=(N_ROWS, NUM_AUS)) * 300.0,
        "va": rng.normal(size=(N_ROWS, 2)),
    }
    preds["au_logits"][0, :3] = [np.inf, -np.inf, 1e308]
    preds["expr_logits"][1, 0] = -np.inf
    results = []
    for loss in (
        lambda p: objective(p, labels, mixture=COGNITIVE.conditional_matrix()),
        lambda p: step_graph(p, labels, table=COGNITIVE),
    ):
        leaves = {k: DiffTensor(v.copy()) for k, v in preds.items()}
        with np.errstate(all="ignore"):
            root = loss(BatchPredictions(**leaves))
            backward(root)
        results.append([root.data.tobytes()] + [leaves[k].grad.tobytes() for k in sorted(leaves)])
    assert results[0] == results[1]
