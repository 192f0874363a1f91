"""Acceptance gate: one test per release criterion, one verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
PASS/FAIL lines. Every tolerance here is pinned; the tests are ordered
from cheap oracle checks to the full synthetic training study.
"""

import math
import os
import time
from collections import Counter

import numpy as np

import reference_input as ref
from affectkit import autodiff as ad
from affectkit.fusion import EnsembleMember, decision_level_fuse
from affectkit.harness.checks import run_grad_checks
from affectkit.harness.config import RunConfig
from affectkit.harness.dataio import (
    load_dataset,
    read_annotation_columns,
    read_feature_columns,
    read_predictions,
    write_annotations,
    write_features,
    write_predictions,
    write_report,
)
from affectkit.harness.evaluate import evaluate_model
from affectkit.harness.synth import SyntheticSpec, generate_dataset
from affectkit.harness.training import train_run
from affectkit.losses import TASKS
from affectkit.metrics import ccc
from affectkit.preprocess import (
    CANONICAL_LANDMARKS,
    LandmarkSet,
    SpectrogramConfig,
    fit_alignment,
    frame_count,
    spectrogram,
)
from affectkit.relatedness import COGNITIVE, coannotate_aus_to_emotion_rows, soft_coannotate_rows
from affectkit.sampler import aligned_batch_sizes, epoch_iterator
from affectkit.types import (
    NUM_AUS,
    NUM_EXPRESSIONS,
    PredictionRecord,
    au_index,
    expression_id,
)
from affectkit.zeroshot import classify_compound, default_compound_defs


def _verdict(num: int, label: str, ok: bool, detail: str) -> None:
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'} {label}: {detail}"
    print(line)
    assert ok, line


# --------------------------------------------------------------------------
# 1. gradient fidelity


GRAD_CHECK_NAMES = {
    "layer.dense",
    "layer.gru",
    "layer.gru_packed",
    "layer.dropout_off",
    "loss.ccc",
    "loss.cce",
    "loss.masked_bce",
    "loss.multitask",
    "loss.distribution_matching",
    "loss.soft_target",
}


def test_gradient_fidelity():
    start = time.time()
    results = run_grad_checks(n_points=60, eps=1e-5)
    elapsed = time.time() - start
    worst = max(results.values())
    ok = (
        set(results) == GRAD_CHECK_NAMES
        and all(v < 1e-4 for v in results.values())
        and elapsed < 60.0
    )
    _verdict(
        1,
        "gradient fidelity",
        ok,
        f"{len(results)} checks, 60 points each, worst rel err {worst:.2e}, {elapsed:.1f}s",
    )


# --------------------------------------------------------------------------
# 2. concordance suite


def _brute_ccc(x, y):
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    vx = sum((a - mx) ** 2 for a in x) / n
    vy = sum((b - my) ** 2 for b in y) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(x, y)) / n
    return 2.0 * cov / (vx + vy + (mx - my) ** 2)


def test_concordance_suite():
    rng = np.random.default_rng(2)
    identity_ok = all(
        abs(ccc(x, x) - 1.0) <= 1e-12
        for x in (rng.normal(size=20) for _ in range(3))
    )
    pairs = [(rng.normal(size=15), rng.normal(size=15)) for _ in range(3)]
    symmetric_ok = all(ccc(x, y) == ccc(y, x) for x, y in pairs)
    antisym_ok = ccc([0.5, 0.0, -0.5], [-0.5, 0.0, 0.5]) == -1.0
    base = rng.normal(size=30)
    shift_ok = all(ccc(base, base + c) < 1.0 for c in (0.3, -0.7, 2.0))

    x, y = [0.5, 0.0, -0.5], [0.4, 0.1, -0.3]
    worked = ccc(x, y)
    worked_ok = (
        abs(worked - _brute_ccc(x, y)) < 1e-9 and abs(worked - 35.0 / 38.0) < 1e-9
    )

    ok = identity_ok and symmetric_ok and antisym_ok and shift_ok and worked_ok
    _verdict(
        2,
        "concordance suite",
        ok,
        f"identity={identity_ok} symmetric={symmetric_ok} antisymmetric={antisym_ok} "
        f"shift={shift_ok} worked={worked:.12f} vs 35/38",
    )


# --------------------------------------------------------------------------
# 3. emotion/AU coupling correctness


def test_coupling_correctness():
    happiness = expression_id("happiness")
    p = np.zeros(NUM_EXPRESSIONS)
    p[happiness] = 1.0
    expected = np.zeros(NUM_AUS)
    for au in (12, 25, 6):
        expected[au_index(au)] = 1.0
    # the mixture distribution matching computes from a one-hot emotion
    mixture_ok = np.array_equal(p @ COGNITIVE.conditional_matrix(), expected)

    values = np.zeros((1, NUM_AUS))
    for au in (12, 25, 6):
        values[0, au_index(au)] = 1
    scores, _, complete = soft_coannotate_rows(values, np.ones_like(values), COGNITIVE)
    score = scores[0, happiness]
    score_ok = bool(complete[0]) and abs(score - 1.0) <= 1e-12

    # each emotion's implied AUs (the training table's lookup) imply it back
    implied = COGNITIVE.conditional_matrix(reweight=True)[1:] > 0
    back = coannotate_aus_to_emotion_rows(implied.astype(np.float64), implied, COGNITIVE)
    round_trip_ok = np.array_equal(back, np.arange(1, NUM_EXPRESSIONS))

    ok = mixture_ok and score_ok and round_trip_ok
    _verdict(
        3,
        "coupling correctness",
        ok,
        f"happiness mixture exact={mixture_ok} soft score={score:.15f} "
        f"round trip all 6={round_trip_ok}",
    )


# --------------------------------------------------------------------------
# 4. multi-source batch alignment


def test_sampler_alignment():
    exact_ok = aligned_batch_sizes((401, 247, 103), 751) == (401, 247, 103)

    rng = np.random.default_rng(4)
    coverage_ok = True
    for _ in range(20):
        sizes = tuple(int(n) for n in rng.integers(0, 41, size=3))
        if sum(sizes) == 0:
            sizes = (1, 0, 0)
        total_batch = int(rng.integers(3, 31))
        # disjoint pools of row numbers, as a training split falls into them
        ends = np.cumsum(sizes)
        pools = [np.arange(end - n, end) for n, end in zip(sizes, ends)]
        rngs = [np.random.default_rng([7, 0, k]) for k in range(3)]
        seen = Counter()
        for batch in epoch_iterator(pools, aligned_batch_sizes(sizes, total_batch), rngs):
            seen.update(batch.tolist())
        coverage_ok &= seen == Counter(range(int(ends[-1])))

    ok = exact_ok and coverage_ok
    _verdict(
        4,
        "batch alignment",
        ok,
        f"(401,247,103)@751 exact={exact_ok} exactly-once on 20 pool layouts={coverage_ok}",
    )


# --------------------------------------------------------------------------
# 5. coupling benefit on synthetic data


STUDY_SPEC = SyntheticSpec(
    train_counts=(600, 600, 600),
    val_counts=(200, 200, 200),
    feature_dim=16,
    sigma=0.2,
    kappa=0.9,
)
STUDY_SEEDS = (0, 1, 2, 3, 4)
STUDY_SETTINGS = dict(
    feature_dim=16,
    backbone=(48,),
    lr=1e-2,
    lr_decay=0.9,
    lr_decay_start=20,
    epochs=30,
    total_batch=60,
)
# Detection operating point is chosen per run on the training split; the
# coupled objective calibrates AU probabilities lower without changing
# their ranking, so a fixed cut would just measure calibration.
THRESHOLD_GRID = np.round(
    np.concatenate([np.arange(0.01, 0.10, 0.01), np.arange(0.10, 0.95, 0.05)]), 2
)


def _selected_threshold(model, train_au):
    best_th, best_f1 = 0.5, -1.0
    for th in THRESHOLD_GRID:
        metrics, _ = evaluate_model(
            model, train_au, au_threshold=float(th), tasks=["AU"]
        )
        if metrics["au.macro_f1"] > best_f1:
            best_th, best_f1 = float(th), metrics["au.macro_f1"]
    return best_th

def _study_seed(seed, root):
    feats, ann = generate_dataset(STUDY_SPEC, seed=seed, out_dir=os.path.join(root, "data"))
    train = load_dataset(ann, feats, split="train")
    val = load_dataset(ann, feats, split="val")
    task = train.labels.task
    train_au = train.take(np.flatnonzero(task == TASKS.index("AU")))

    expr_only = train.take(np.flatnonzero(task == TASKS.index("EXPR")))
    st_ann = os.path.join(root, "data", "expr_annotations.csv")
    st_feats = os.path.join(root, "data", "expr_features.csv")
    ref.write_columns(expr_only, st_ann, st_feats)

    jobs = {
        "coupled": dict(
            coupling="soft+distr",
            heads=("EXPR", "AU", "VA"),
            train_annotations=ann,
            train_features=feats,
        ),
        "uncoupled": dict(
            coupling="none",
            heads=("EXPR", "AU", "VA"),
            train_annotations=ann,
            train_features=feats,
        ),
        "single_expr": dict(
            coupling="none",
            heads=("EXPR",),
            train_annotations=st_ann,
            train_features=st_feats,
        ),
    }
    results = {}
    for name, kv in jobs.items():
        config = RunConfig(
            seed=seed, out_dir=os.path.join(root, name), **STUDY_SETTINGS, **kv
        )
        trained = train_run(config)
        tasks = [t for t in ("VA", "AU", "EXPR") if t in trained.model.spec.heads]
        threshold = (
            _selected_threshold(trained.model, train_au) if "AU" in tasks else 0.5
        )
        metrics, _ = evaluate_model(
            trained.model, val, au_threshold=threshold, tasks=tasks
        )
        results[name] = metrics
    return results


def test_coupling_benefit(tmp_path):
    start = time.time()
    per_seed = [
        _study_seed(seed, str(tmp_path / f"seed{seed}")) for seed in STUDY_SEEDS
    ]
    elapsed = time.time() - start

    def mean(config, key):
        return float(np.mean([r[config][key] for r in per_seed]))

    au_margin = mean("coupled", "au.macro_f1") - mean("uncoupled", "au.macro_f1")
    diag_margin = mean("coupled", "expr.mean_diagonal") - mean(
        "uncoupled", "expr.mean_diagonal"
    )
    acc_margin = mean("uncoupled", "expr.accuracy") - mean(
        "single_expr", "expr.accuracy"
    )
    ok = (
        au_margin >= -0.01
        and diag_margin >= -0.01
        and acc_margin >= -0.01
        and elapsed < 300.0
    )
    _verdict(
        5,
        "coupling benefit",
        ok,
        f"AU F1 margin {au_margin:+.4f}, EXPR diag margin {diag_margin:+.4f}, "
        f"multi-vs-single acc margin {acc_margin:+.4f} (floor -0.01), "
        f"5 seeds in {elapsed:.0f}s",
    )


# --------------------------------------------------------------------------
# 6. ensemble fusion


def test_fusion():
    members = [
        EnsembleMember("a", 0.4, 0.4, {"f": (0.2, 0.2)}),
        EnsembleMember("b", 0.6, 0.6, {"f": (0.5, 0.5)}),
    ]
    fused = decision_level_fuse(members)
    worked = fused["f"][0]
    worked_ok = (
        worked == (0.4 * 0.2 + 0.6 * 0.5) / (0.4 + 0.6)
        and math.isclose(worked, 0.38, abs_tol=1e-15)
    )

    rng = np.random.default_rng(6)
    keys = [f"k{i}" for i in range(1000)]
    preds = [
        {k: (float(v), float(a)) for k, (v, a) in zip(keys, rng.uniform(-1, 1, (1000, 2)))}
        for _ in range(3)
    ]
    weights = rng.uniform(0.05, 1.0, size=(3, 2))
    members = [
        EnsembleMember(f"m{i}", float(weights[i, 0]), float(weights[i, 1]), preds[i])
        for i in range(3)
    ]
    fused = decision_level_fuse(members)
    convex_ok = True
    for k in keys:
        for dim in (0, 1):
            values = [m.predictions[k][dim] for m in members]
            convex_ok &= min(values) - 1e-12 <= fused[k][dim] <= max(values) + 1e-12

    ok = worked_ok and convex_ok
    _verdict(
        6,
        "ensemble fusion",
        ok,
        f"weighted example={worked:.17f} convex on 1000 frames={convex_ok}",
    )


# --------------------------------------------------------------------------
# 7. zero-shot compound scoring


def _oracle_score(cdef, record):
    num = sum(w * record.au_probs[au_index(au)] for au, w in cdef.au_set)
    den = sum(w for _, w in cdef.au_set)
    score = num / den
    score += record.expr_probs[cdef.emo1]
    score += record.expr_probs[cdef.emo2]
    if cdef.valence_bonus:
        score += 0.5 * (np.sign(record.valence) + 1.0)
    return score


def test_zero_shot():
    defs = default_compound_defs()
    rng = np.random.default_rng(7)
    agree = 0
    for i in range(1000):
        expr = rng.random(NUM_EXPRESSIONS)
        record = PredictionRecord(
            id=f"r{i}",
            valence=0.0 if i % 50 == 0 else float(rng.uniform(-1, 1)),
            arousal=float(rng.uniform(-1, 1)),
            expr_probs=expr / expr.sum(),
            au_probs=rng.random(NUM_AUS),
        )
        scores = [_oracle_score(d, record) for d in defs]
        best = max(range(len(defs)), key=lambda j: (scores[j], -j))
        agree += classify_compound(defs, record).name == defs[best].name
    oracle_ok = agree == 1000

    base = dict(
        id="b",
        expr_probs=np.full(NUM_EXPRESSIONS, 1.0 / NUM_EXPRESSIONS),
        au_probs=np.full(NUM_AUS, 0.5),
    )
    bonus_def = next(d for d in defs if d.valence_bonus)
    s_pos = _oracle_score(bonus_def, PredictionRecord(valence=0.5, **base))
    s_neg = _oracle_score(bonus_def, PredictionRecord(valence=-0.5, **base))
    s_zero = _oracle_score(bonus_def, PredictionRecord(valence=0.0, **base))
    bonus_ok = s_pos - s_neg == 1.0 and s_zero - s_neg == 0.5

    ok = oracle_ok and bonus_ok
    _verdict(
        7,
        "zero-shot compound scoring",
        ok,
        f"oracle agreement {agree}/1000, bonus trichotomy={bonus_ok}",
    )


# --------------------------------------------------------------------------
# 8. preprocessing


def test_preprocessing():
    rng = np.random.default_rng(8)
    base = CANONICAL_LANDMARKS.as_array()
    worst_residual = 0.0
    worst_matrix = 0.0
    for _ in range(100):
        while True:
            linear = rng.normal(0.0, 1.0, (2, 2))
            if abs(np.linalg.det(linear)) > 0.2:
                break
        shift = rng.normal(0.0, 10.0, 2)
        src = base + rng.normal(0.0, 3.0, (5, 2))
        dst = src @ linear.T + shift
        fit = fit_alignment(
            LandmarkSet(tuple(map(tuple, src))), LandmarkSet(tuple(map(tuple, dst)))
        )
        planted = np.hstack([linear, shift[:, None]])
        worst_residual = max(worst_residual, fit.residual)
        worst_matrix = max(worst_matrix, float(np.abs(fit.matrix - planted).max()))
    affine_ok = worst_residual < 1e-9 and worst_matrix < 1e-6

    config = SpectrogramConfig()
    arithmetic_ok = (
        config.window_samples == 1455
        and config.hop_samples == 970
        and config.fft_size == 2048
    )
    formula_ok = True
    lengths = rng.integers(1455, 120001, size=100)
    for i, n in enumerate(lengths):
        n = int(n)
        expected = (n - 1455) // 970 + 1
        formula_ok &= frame_count(n, config) == expected
        if i < 10:
            spec = spectrogram(rng.normal(size=n), config)
            formula_ok &= spec.shape == (expected, config.fft_size // 2 + 1)

    ok = affine_ok and arithmetic_ok and formula_ok
    _verdict(
        8,
        "preprocessing",
        ok,
        f"100 planted affines worst residual {worst_residual:.2e}, "
        f"window/hop 1455/970={arithmetic_ok}, frame counts on 100 lengths={formula_ok}",
    )


# --------------------------------------------------------------------------
# 9. determinism and file formats


def _read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_determinism_and_formats(tmp_path):
    spec = SyntheticSpec(
        train_counts=(40, 40, 40), val_counts=(15, 15, 15), feature_dim=10
    )
    runs = {}
    for tag in ("a", "b"):
        root = tmp_path / tag
        feats, ann = generate_dataset(spec, seed=11, out_dir=str(root / "data"))
        config = RunConfig(
            seed=11,
            feature_dim=10,
            backbone=(8,),
            heads=("EXPR", "AU", "VA"),
            coupling="soft+distr",
            lr=1e-2,
            epochs=3,
            total_batch=12,
            train_annotations=ann,
            train_features=feats,
            out_dir=str(root / "run"),
        )
        result = train_run(config)
        metrics, records = evaluate_model(
            result.model, load_dataset(ann, feats, split="val")
        )
        pred_path = str(root / "predictions.csv")
        write_predictions(pred_path, records)
        runs[tag] = dict(
            feats=feats, ann=ann, result=result, metrics=metrics, preds=pred_path
        )

    a, b = runs["a"], runs["b"]
    gen_ok = _read_bytes(a["feats"]) == _read_bytes(b["feats"]) and _read_bytes(
        a["ann"]
    ) == _read_bytes(b["ann"])
    train_ok = _read_bytes(a["result"].checkpoint_path) == _read_bytes(
        b["result"].checkpoint_path
    ) and _read_bytes(a["result"].log_path) == _read_bytes(b["result"].log_path)
    eval_ok = a["metrics"] == b["metrics"] and _read_bytes(a["preds"]) == _read_bytes(
        b["preds"]
    )

    # round-trips: parse a written file, rewrite it, require identical bytes
    ckpt_copy = str(tmp_path / "copy.ckpt")
    ad.save_checkpoint(ckpt_copy, ad.load_checkpoint(a["result"].checkpoint_path))
    ckpt_ok = _read_bytes(ckpt_copy) == _read_bytes(a["result"].checkpoint_path)

    ann_copy = str(tmp_path / "ann_copy.csv")
    write_annotations(ann_copy, read_annotation_columns(a["ann"]))
    feats_copy = str(tmp_path / "feats_copy.csv")
    write_features(feats_copy, *read_feature_columns(a["feats"]))
    preds_copy = str(tmp_path / "preds_copy.csv")
    write_predictions(preds_copy, read_predictions(a["preds"]))
    report_path = str(tmp_path / "report.csv")
    write_report(report_path, a["metrics"])
    report_copy = str(tmp_path / "report_copy.csv")
    write_report(report_copy, ref.read_report(report_path))
    csv_ok = (
        _read_bytes(ann_copy) == _read_bytes(a["ann"])
        and _read_bytes(feats_copy) == _read_bytes(a["feats"])
        and _read_bytes(preds_copy) == _read_bytes(a["preds"])
        and _read_bytes(report_copy) == _read_bytes(report_path)
    )

    ok = gen_ok and train_ok and eval_ok and ckpt_ok and csv_ok
    _verdict(
        9,
        "determinism and formats",
        ok,
        f"generation bytes={gen_ok} training bytes={train_ok} eval={eval_ok} "
        f"checkpoint round-trip={ckpt_ok} csv round-trips={csv_ok}",
    )
