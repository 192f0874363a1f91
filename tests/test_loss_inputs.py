"""Each input of the loss formulas is checked once, where it is made.

The formulas of ``losses`` check nothing on a step. These tests hold each
guarantee at its source instead: the labels the annotation reader accepts,
the co-annotation targets written into the training split, the width of
each model head, the lone VA row that ``objective`` leaves out, and the
softmax and sigmoid outputs that every probability input is. A label
says itself whether a row carries it, with no flag beside it: a row has
AU mask weight, an expression class >= 0 or a nonzero soft target if and
only if it carries that label. The reader, the synthetic generator and
every co-annotation mode are each held to this. The lambdas are checked by
``RunConfig.validate`` (``test_harness.py::TestConfig::test_out_of_range_value``)
and compound ids against ``compound_classes`` where the training pools are
made (``test_training_table.py::test_compound_class_beyond_head_raises``).
"""

import csv
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_input as ref
from affectkit.autodiff import DiffTensor, sigmoid_values
from affectkit.errors import AffectKitError
from affectkit.harness.config import RunConfig
from affectkit.harness.dataio import (
    ANNOTATION_FIELDS,
    SampleColumns,
    load_dataset,
    read_annotation_columns,
    write_annotations,
    write_features,
)
from affectkit.harness.synth import SyntheticSpec, make_dataset
from affectkit.harness.training import _build_table, _gather
from affectkit.losses import TASKS, BatchLabels, BatchPredictions, objective, softmax_parts
from affectkit.models import InputDims, Model, ModelSpec, RecurrentSpec, pack_rows
from affectkit.types import NUM_AUS, NUM_EXPRESSIONS

AU, VA, EXPR, COMPOUND = range(len(TASKS))

NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True), st.integers(-3, 3).map(float)
)
PAYLOADS = {
    "VA": st.tuples(NUMBERS, NUMBERS).map(lambda va: f"{va[0]!r};{va[1]!r}"),
    "EXPR": st.integers(-2, NUM_EXPRESSIONS + 2).map(str),
    "AU": st.text(alphabet="012-", min_size=NUM_AUS - 1, max_size=NUM_AUS + 1),
    "COMPOUND": st.tuples(st.integers(-2, 20), st.integers(-1, 8), st.integers(-1, 8)).map(
        lambda c: ";".join(map(str, c))
    ),
}
ROWS = st.lists(
    st.sampled_from(sorted(PAYLOADS)).flatmap(
        lambda task: st.tuples(st.just(task), PAYLOADS[task])
    ),
    min_size=1,
    max_size=12,
)


@pytest.fixture(scope="module")
def annotation_path(tmp_path_factory):
    return tmp_path_factory.mktemp("labels") / "annotations.csv"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rows=ROWS)
def test_labels_the_reader_accepts_meet_every_formula_precondition(annotation_path, rows):
    # the reader refuses a row, or its labels are what the formulas read:
    # each row's own task, class ids in 0..6 on EXPR rows alone, VA in
    # [-1, 1], AU targets and mask weights in {0, 1}, no soft target, mask
    # weight exactly on the AU rows with an annotated unit, compound ids >= 0
    with open(annotation_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(ANNOTATION_FIELDS)
        writer.writerows([f"r{i}", "train", "", "", "", task, payload]
                         for i, (task, payload) in enumerate(rows))
    try:
        lab = read_annotation_columns(annotation_path).labels
    except AffectKitError as exc:
        assert str(exc).startswith(f"{annotation_path}:")
        return
    assert lab.task.tolist() == [TASKS.index(task) for task, _ in rows]
    assert np.array_equal(lab.expr >= 0, lab.task == EXPR) and not lab.soft.any()
    assert lab.expr.dtype == np.int64 and lab.compound.dtype == np.int64
    assert ((lab.expr >= -1) & (lab.expr < NUM_EXPRESSIONS)).all()  # -1: no class
    assert (np.abs(lab.va[lab.task == VA]) <= 1.0).all()
    assert np.isin(lab.au_targets, (0.0, 1.0)).all() and np.isin(lab.au_mask, (0.0, 1.0)).all()
    carries_au = [task == "AU" and set(payload) != {"-"} for task, payload in rows]
    assert lab.au_mask.any(axis=1).tolist() == carries_au
    assert (lab.compound[lab.task == COMPOUND] >= 0).all()


def test_synthetic_rows_have_au_weight_exactly_on_au_rows():
    data = make_dataset(SyntheticSpec(train_counts=(30, 40, 40), val_counts=(5, 6, 7)), seed=3)
    lab = data.labels
    assert lab.task.tolist() == [TASKS.index(i.split("-")[1].upper()) for i in data.ids]
    assert np.array_equal(lab.au_mask.any(axis=1), lab.task == AU)
    assert np.array_equal(lab.expr >= 0, lab.task == EXPR) and not lab.soft.any()


@pytest.fixture(scope="module")
def training_files(tmp_path_factory):
    """Synthetic training files whose every 5th AU row leaves every unit
    unannotated and every 3rd AU4 alone, so some AU rows carry no target."""
    data = make_dataset(
        SyntheticSpec(train_counts=(30, 40, 40), val_counts=(0, 0, 0), feature_dim=8), seed=5
    )
    lab = data.labels
    au = np.flatnonzero(lab.task == AU)
    lab.au_mask[au[2::3], 2] = 0.0
    lab.au_mask[au[::5]] = 0.0
    lab.au_targets *= lab.au_mask
    out = tmp_path_factory.mktemp("data")
    feats, ann = out / "features.csv", out / "annotations.csv"
    write_features(feats, data.ids, data.features)
    write_annotations(ann, data)
    return feats, ann


@pytest.mark.parametrize("coupling", ["coannotation", "soft_coannotation", "soft+distr"])
def test_co_annotation_keeps_each_label_exactly_on_rows_that_carry_it(
    training_files, coupling
):
    # co-annotation never changes a row's task; hard co-annotation adds AU
    # targets to the EXPR rows whose emotion implies table AUs and a class
    # to the AU rows whose pattern implies one, and the soft modes add a
    # distribution to every AU row with each table AU annotated
    feats, ann = training_files
    config = RunConfig(feature_dim=8, coupling=coupling)
    table = config.relatedness_table()
    data = load_dataset(ann, feats)
    samples = ref.samples_of(data)
    task, before = data.labels.task.copy(), data.labels.au_mask.any(axis=1)
    assert (before == (task == AU)).sum() < len(task)  # some AU rows carry no target
    _build_table(data, config, table)
    lab = data.labels
    assert np.array_equal(lab.task, task)
    implied = [
        t == EXPR and bool(ref.coannotate_emotion_to_aus(ref.ExpressionLabel(int(c)), table))
        for t, c in zip(task.tolist(), lab.expr.tolist())
    ]
    carries_au = before | (np.array(implied) if coupling == "coannotation" else False)
    assert np.array_equal(lab.au_mask.any(axis=1), carries_au)

    au_rows = [s.task == "AU" for s in samples]
    classed = np.array([
        a and ref.coannotate_aus_to_emotion(s.label, table) is not None
        for a, s in zip(au_rows, samples)
    ])
    complete = np.array([
        a and ref.soft_coannotate(s.label, table)[1] for a, s in zip(au_rows, samples)
    ])
    for hits in (classed, complete):  # some AU rows gain the label, some do not
        assert 0 < hits.sum() < sum(au_rows)
    hard = coupling == "coannotation"
    assert np.array_equal(lab.expr >= 0, (task == EXPR) | (classed & hard))
    carries_soft = lab.soft.any(axis=1)
    assert np.array_equal(carries_soft, complete & (not hard))
    assert np.abs(lab.soft[carries_soft].sum(axis=1) - 1.0).max(initial=0.0) <= 1e-12


@pytest.mark.parametrize("relatedness", ["cognitive", "empirical"])
@pytest.mark.parametrize("coupling,reweight_soft", [
    ("coannotation", True), ("soft_coannotation", True), ("soft+distr", False),
])
def test_co_annotation_targets_meet_the_formula_preconditions(
    training_files, coupling, reweight_soft, relatedness
):
    # hard co-annotation adds class ids and AU weights in [0, 1]; soft
    # co-annotation adds targets that are softmax rows, so distributions
    feats, ann = training_files
    config = RunConfig(
        feature_dim=8, coupling=coupling, relatedness=relatedness, reweight_soft=reweight_soft
    )
    data = load_dataset(ann, feats)
    _build_table(data, config, config.relatedness_table())
    lab = data.labels
    assert ((lab.expr >= -1) & (lab.expr < NUM_EXPRESSIONS)).all()  # -1: no class
    assert ((lab.au_mask >= 0.0) & (lab.au_mask <= 1.0)).all()
    assert np.isin(lab.au_targets, (0.0, 1.0)).all()
    soft = lab.soft[lab.soft.any(axis=1)]
    assert bool(soft.size) == (coupling != "coannotation")
    assert (soft >= 0.0).all() and np.abs(soft.sum(axis=1) - 1.0).max(initial=0.0) <= 1e-12


@pytest.mark.parametrize("spec", [
    ModelSpec(backbone=(5,), heads=("VA", "EXPR", "AU", "COMPOUND"), compound_classes=4),
    ModelSpec(
        backbone=(5, 4), taps=(0, 1), recurrent=RecurrentSpec("per_tap", 3),
        heads=("VA", "EXPR", "AU", "COMPOUND"), compound_classes=9,
    ),
    ModelSpec(
        backbone=(4,), members=2, fusion="rnn", fusion_width=5,
        heads=("VA", "EXPR", "AU", "COMPOUND"), compound_classes=3,
    ),
], ids=["dense", "per_tap", "ensemble"])
def test_each_head_has_the_width_its_loss_reads(spec):
    model = Model(spec, InputDims(features=6), seed=1)
    preds = model.forward(pack_rows(np.random.default_rng(2).normal(size=(5, 6))))
    assert preds.va.shape == (5, 2)
    assert preds.expr_logits.shape == (5, NUM_EXPRESSIONS)
    assert preds.au_logits.shape == (5, NUM_AUS)
    assert preds.compound_logits.shape == (5, spec.compound_classes)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    va=st.sets(st.integers(0, 11), max_size=12),
    rows=st.lists(st.integers(0, 11), unique=True, min_size=1, max_size=12),
)
def test_objective_reads_two_va_rows_or_none(va, rows):
    # gather takes every label as it is; concordance needs two rows, so
    # the objective adds no VA term and no VA head edge for a lone VA row
    rng = np.random.default_rng(len(rows))
    labels = BatchLabels.zeros(12)
    labels.task[sorted(va)] = VA
    labels.va[:] = rng.uniform(-1.0, 1.0, (12, 2))
    is_expr = labels.task != VA
    labels.task[is_expr] = EXPR
    labels.expr[:] = rng.integers(0, NUM_EXPRESSIONS, 12)
    labels.expr[~is_expr] = -1
    data = SampleColumns(
        [f"r{r}" for r in range(12)], ["train"] * 12, [None] * 12, [None] * 12, [None] * 12,
        labels, np.zeros((12, 2), dtype=np.int64), np.zeros((12, 3)),
    )
    rows = np.array(rows, dtype=int)
    _, gathered = _gather(data, rows, False)
    for f in fields(BatchLabels):
        assert np.array_equal(getattr(gathered, f.name), getattr(labels, f.name)[rows]), f.name
    preds = BatchPredictions(
        expr_logits=DiffTensor(rng.normal(size=(len(rows), NUM_EXPRESSIONS))),
        va=DiffTensor(rng.normal(size=(len(rows), 2))),
    )
    node = objective(preds, gathered)
    n_va = int((gathered.task == VA).sum())
    assert any(head is preds.va for head, _ in node._edges) == (n_va >= 2)
    if n_va == 1:
        gathered.task[gathered.task == VA] = AU
        assert node.data == objective(preds, gathered).data


LOGITS = st.lists(
    st.floats(min_value=-1e300, max_value=1e300), min_size=NUM_EXPRESSIONS * 3,
    max_size=NUM_EXPRESSIONS * 3,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(values=LOGITS)
def test_softmax_and_sigmoid_outputs_are_probabilities(values):
    # every probability a formula reads is one of these: a softmax row is a
    # distribution and a sigmoid value lies in [0, 1], for any finite logit
    logits = np.array(values).reshape(3, NUM_EXPRESSIONS)
    probs = softmax_parts(logits)[2]
    assert (probs >= 0.0).all() and np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-12
    s = sigmoid_values(logits)
    assert ((s >= 0.0) & (s <= 1.0)).all()

