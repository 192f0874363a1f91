"""Time the recurrent path: training and evaluation of the benchmark's
``train_recurrent`` model.

    PYTHONPATH=src python3 scripts/bench_recurrent.py [--seed N] [--jobs N] [--evals N]

Run it on two checkouts in turn to compare them. It prints one JSON line:

* ``train_run_ms``: the median of ``--jobs`` ``train_run`` calls of a
  ``train_recurrent``-sized job: synthetic 480/120/1200 VA/AU/EXPR training
  pools and 200/200/200 validation rows in the same files (feature_dim 16,
  no sequence ids), backbone (48, 24) tapped at both layers into a
  ``single:16x1`` GRU, dropout 0.1, no coupling, batch 60, one epoch (30
  steps), no validation;
* ``gru_forward_ms_per_step`` and ``gru_bptt_ms_per_step``: over those
  jobs, the time spent in ``gru_sequence`` and in the backward edges of the
  GRU nodes it returns, per training step as ``TrainResult.steps`` counts
  them (the job's own ``phase_s``, where ``zero_grad`` counts in ``adam``,
  is not printed here);
* ``evaluate_ms``: the median of ``--evals`` ``evaluate_model`` calls on the
  600 validation rows of ``load_dataset``, with that architecture drawn from
  the seed.

One BLAS thread, as in the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import tempfile
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from affectkit import autodiff as ad  # noqa: E402
from affectkit.harness import training  # noqa: E402
from affectkit.harness.config import RunConfig  # noqa: E402
from affectkit.harness.dataio import load_dataset  # noqa: E402
from affectkit.harness.evaluate import evaluate_model  # noqa: E402
from affectkit.harness.synth import SyntheticSpec, generate_dataset  # noqa: E402
from affectkit.models import Model  # noqa: E402


def config_for(work: str, seed: int) -> RunConfig:
    spec = SyntheticSpec(train_counts=(480, 120, 1200), val_counts=(200, 200, 200))
    feats, ann = generate_dataset(spec, seed=seed, out_dir=os.path.join(work, "data"))
    return RunConfig(
        seed=seed, feature_dim=16, lr=1e-2, lr_decay=0.9, lr_decay_start=20, total_batch=60,
        backbone=(48, 24), taps=(0, 1), recurrent="single:16x1", dropout=0.1,
        coupling="none", epochs=1, train_annotations=ann, train_features=feats,
        out_dir=os.path.join(work, "run"),
    )


def training_ms(config: RunConfig, jobs: int):
    """(median job ms, GRU forward ms per step, GRU backward ms per step)."""
    forward, bptt, steps = [], [], 0
    real_gru = ad.gru_sequence

    def timed(fn, into):
        def call(*args):
            start = time.perf_counter()
            try:
                return fn(*args)
            finally:
                into.append(time.perf_counter() - start)
        return call

    def gru(*args):
        node = timed(real_gru, forward)(*args)
        node._edges = tuple((p, timed(f, bptt)) for p, f in node._edges)
        return node

    ad.gru_sequence = gru
    times = []
    try:
        for _ in range(jobs):
            start = time.perf_counter()
            steps += training.train_run(config).steps
            times.append(time.perf_counter() - start)
    finally:
        ad.gru_sequence = real_gru
    return 1e3 * statistics.median(times), 1e3 * sum(forward) / steps, 1e3 * sum(bptt) / steps


def evaluate_ms(config: RunConfig, evals: int) -> float:
    data = load_dataset(config.train_annotations, config.train_features, split="val")
    assert len(data) == 600
    model = Model(config.model_spec(), config.input_dims(), seed=config.seed)
    times = []
    for _ in range(evals):
        start = time.perf_counter()
        evaluate_model(model, data)
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--jobs", type=int, default=9)
    parser.add_argument("--evals", type=int, default=41)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as work:
        config = config_for(work, args.seed)
        job, gru_forward, gru_bptt = training_ms(config, args.jobs)
        result = {
            "train_run_ms": job,
            "gru_forward_ms_per_step": gru_forward,
            "gru_bptt_ms_per_step": gru_bptt,
            "evaluate_ms": evaluate_ms(config, args.evals),
        }
    print(json.dumps({k: round(v, 4) for k, v in result.items()}))


if __name__ == "__main__":
    main()
