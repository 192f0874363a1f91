"""Print the sha256 of ``model.ckpt`` and ``training_log.csv`` for a fixed set
of training jobs, and of the report and predictions file that
``affectkit eval`` writes for one coupled job.

Run it on two checkouts and diff the output to show that a change keeps
training byte-identical:

    PYTHONPATH=src python3 scripts/digests.py [--work DIR]

The data are synthetic (50 VA, 60 AU and 60 EXPR training samples, 20 of
each for validation, feature_dim 10, data seed 1, shuffled), with every
7th AU row fully and every 4th partially (AU4, AU6) unannotated; they are
drawn and edited as columns and written by the column writers. Every job
uses run seed 3, backbone (12,), lr 1e-2, 3 epochs, batch 20 and
validation, so the logs also cover ``evaluate_model``. The jobs: the five
coupling modes; ``soft+distr`` on the empirical table with both reweight
flags flipped; ``coannotation`` on the empirical table, whose weights are
all fractional and observational; lambda1 0.7 and lambda2 1.3;
``per_tap:6x2`` with dropout; a 2-member ``rnn`` ensemble; a 5-class
compound-only run; a ``freeze_trunk`` job that starts from the
``soft+distr`` checkpoint; and a ``single:6x1`` job on a copy of the data
whose rows carry sequence ids, utterance ids and frame indices and two of
whose ids hold a comma, so the files quote them. ``affectkit eval`` scores
the ``soft+distr`` job and the sequence job.

Four lines come from recurrent models, whose GRU state runs within one
sequence: ``per_tap`` and ``rnn_ensemble`` (no sequence ids, so every row
runs alone), ``sequences`` and ``eval_sequences`` (rows grouped by sequence
id in frame order). Every other line comes from a stateless model, which
runs every row alone whatever its sequence id.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import tempfile

import numpy as np

from affectkit.harness.cli import main as affectkit_main
from affectkit.harness.config import RunConfig
from affectkit.harness.dataio import SampleColumns, write_annotations, write_features
from affectkit.harness.synth import SyntheticSpec, make_dataset
from affectkit.harness.training import train_run
from affectkit.losses import TASKS, BatchLabels
from affectkit.types import au_index


def _sha(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _write(data: SampleColumns, directory: str, name: str):
    ann = os.path.join(directory, f"{name}_annotations.csv")
    feats = os.path.join(directory, f"{name}_features.csv")
    write_annotations(ann, data)
    write_features(feats, data.ids, data.features)
    return ann, feats


def basic_data(directory: str):
    """The basic train and val files, then a copy of them whose rows carry
    sequence ids, utterance ids and frame indices and whose fourth id in
    each split holds a comma."""
    spec = SyntheticSpec(train_counts=(50, 60, 60), val_counts=(20, 20, 20), feature_dim=10)
    data = make_dataset(spec, seed=1)
    lab = data.labels
    au = np.flatnonzero(lab.task == TASKS.index("AU"))
    lab.au_mask[np.ix_(au[3::4], [au_index(4), au_index(6)])] = 0.0  # every 4th AU row
    lab.au_mask[au[6::7]] = 0.0  # every 7th
    lab.au_targets *= lab.au_mask
    n_train = sum(spec.train_counts)
    train = data.take(np.random.default_rng(1).permutation(n_train))
    val = data.take(np.arange(n_train, len(data.ids)))
    basic = _write(train, directory, "train"), _write(val, directory, "val")
    for split in (train, val):
        n = len(split.ids)
        split.sequence_id = [f"clip{i // 8}" for i in range(n)]
        split.utterance_id = [f"utt{i // 24}" for i in range(n)]
        split.frame_index = [i % 8 for i in range(n)]
        split.ids[3] += ",take 2"
    return basic, (_write(train, directory, "strain"), _write(val, directory, "sval"))


def compound_data(directory: str):
    rng = np.random.default_rng(2)

    def columns(split, n):
        labels = BatchLabels.zeros(n)
        labels.compound[:] = np.arange(n) % 5
        labels.task[:] = TASKS.index("COMPOUND")
        pairs = np.stack([1 + np.arange(n) % 5, np.full(n, 6)], axis=1)
        features = np.array([rng.normal(size=10) for _ in range(n)])
        return SampleColumns(
            [f"{split}{i:03d}" for i in range(n)], [split] * n, [None] * n, [None] * n,
            [None] * n, labels, pairs, features,
        )

    return _write(columns("train", 45), directory, "ctrain"), _write(
        columns("val", 15), directory, "cval"
    )


def jobs(basic_train, basic_val, compound_train, compound_val, seq_train, seq_val, out):
    base = RunConfig(
        seed=3,
        feature_dim=10,
        backbone=(12,),
        lr=1e-2,
        epochs=3,
        total_batch=20,
        train_annotations=basic_train[0],
        train_features=basic_train[1],
        val_annotations=basic_val[0],
        val_features=basic_val[1],
    )
    for mode in ("none", "coannotation", "soft_coannotation", "distr_matching", "soft+distr"):
        yield mode, base.override(coupling=mode)
    yield "empirical_flipped", base.override(
        coupling="soft+distr", relatedness="empirical", reweight_soft=False,
        reweight_mixture=True,
    )
    yield "coannotation_empirical", base.override(coupling="coannotation", relatedness="empirical")
    yield "lambdas", base.override(coupling="soft+distr", lambda1=0.7, lambda2=1.3)
    yield "per_tap", base.override(
        coupling="soft+distr", backbone=(12, 8), taps=(0, 1), recurrent="per_tap:6x2",
        dropout=0.2, recurrent_dropout=0.1,
    )
    yield "rnn_ensemble", base.override(
        coupling="soft+distr", ensemble_members=2, ensemble_fusion="rnn"
    )
    yield "compound", base.override(
        heads=("COMPOUND",), compound_classes=5,
        train_annotations=compound_train[0], train_features=compound_train[1],
        val_annotations=compound_val[0], val_features=compound_val[1],
    )
    yield "freeze_trunk", base.override(
        coupling="distr_matching", heads=("EXPR", "AU"), freeze_trunk=True,
        init_from=os.path.join(out, "soft+distr", "model.ckpt"),
    )
    yield "sequences", base.override(
        coupling="soft+distr", recurrent="single:6x1",
        train_annotations=seq_train[0], train_features=seq_train[1],
        val_annotations=seq_val[0], val_features=seq_val[1],
    )


def _eval(work: str, run_dir: str, name: str, data) -> None:
    report = os.path.join(work, f"eval_{name}_report.txt")
    predictions = os.path.join(work, f"eval_{name}_predictions.csv")
    with contextlib.redirect_stdout(io.StringIO()):
        code = affectkit_main([
            "eval", "--config", os.path.join(run_dir, "config.txt"),
            "--checkpoint", os.path.join(run_dir, "model.ckpt"),
            "--annotations", data[0], "--features", data[1],
            "--out", report, "--predictions", predictions,
        ])
    if code != 0:
        raise SystemExit(f"affectkit eval exited {code}")
    print(f"eval_{name} report {_sha(report)} predictions {_sha(predictions)}")


def run(work: str) -> None:
    data = os.path.join(work, "data")
    os.makedirs(data, exist_ok=True)
    (basic_train, basic_val), (seq_train, seq_val) = basic_data(data)
    compound_train, compound_val = compound_data(data)
    out = os.path.join(work, "runs")
    for name, config in jobs(
        basic_train, basic_val, compound_train, compound_val, seq_train, seq_val, out
    ):
        result = train_run(config.override(out_dir=os.path.join(out, name)))
        print(f"{name} ckpt {_sha(result.checkpoint_path)} log {_sha(result.log_path)}")
    _eval(work, os.path.join(out, "soft+distr"), "soft+distr", basic_val)
    _eval(work, os.path.join(out, "sequences"), "sequences", seq_val)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--work", help="directory for the data and runs (default: a temporary one)")
    args = parser.parse_args()
    if args.work:
        run(args.work)
    else:
        with tempfile.TemporaryDirectory() as work:
            run(work)


if __name__ == "__main__":
    main()
