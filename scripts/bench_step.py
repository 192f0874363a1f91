"""Time the phases of a training step on the benchmark's ``train_coupled``
job.

    PYTHONPATH=src python3 scripts/bench_step.py [--seed N] [--jobs N]

Run it on two checkouts in turn to compare them. It prints one JSON line:

* ``train_run_ms``: the median of ``--jobs`` ``train_run`` calls of a
  ``train_coupled``-sized job: synthetic 600/600/600 VA/AU/EXPR training
  pools and 200/200/200 validation rows in the same files (feature_dim 16),
  backbone (48,), heads EXPR/AU/VA, ``soft+distr`` coupling, batch 60, lr
  1e-2, three epochs (90 steps), no validation;
* per training step over those jobs, in ms, each of ``train_run``'s own
  ``TrainResult.phase_s`` totals over the steps it took: ``sampler_ms``
  (inside each ``next`` of the epoch iterator, the one that ends each
  epoch included), ``gather_ms`` (the batch taken from the training
  split), ``forward_ms`` (``Model.forward``; for a packed recurrent batch
  this includes taking the outputs back to row order), ``loss_ms``
  (``losses.objective``, reading its value and the finite check),
  ``backward_ms`` and ``adam_ms`` (``Adam.zero_grad`` and ``Adam.step``;
  until ``train_run`` timed itself, ``zero_grad`` counted in ``loss_ms``);
* ``nodes_per_step``: autodiff nodes built per step, counted in one more
  job run after the timed ones, less those of the same job run with 0
  epochs, so that counting slows no timed call and set-up is not counted.

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
from affectkit.harness.synth import SyntheticSpec, generate_dataset  # noqa: E402


def config_for(work: str, seed: int) -> RunConfig:
    spec = SyntheticSpec(train_counts=(600, 600, 600), val_counts=(200, 200, 200))
    feats, ann = generate_dataset(spec, seed=seed, out_dir=os.path.join(work, "data"))
    return RunConfig(
        seed=seed, feature_dim=16, lr=1e-2, lr_decay=0.9, lr_decay_start=20, total_batch=60,
        backbone=(48,), coupling="soft+distr", heads=("EXPR", "AU", "VA"), epochs=3,
        train_annotations=ann, train_features=feats, out_dir=os.path.join(work, "run"),
    )


def phase_ms(config: RunConfig, jobs: int) -> dict:
    """The median job time and the per-step time of each phase, in ms."""
    times, results = [], []
    for _ in range(jobs):
        start = time.perf_counter()
        results.append(training.train_run(config))
        times.append(time.perf_counter() - start)
    steps = sum(r.steps for r in results)
    out = {"train_run_ms": 1e3 * statistics.median(times)}
    out.update({
        f"{phase}_ms": 1e3 * sum(r.phase_s[phase] for r in results) / steps
        for phase in training.PHASES
    })
    return out


def nodes_per_step(config: RunConfig) -> float:
    """Autodiff nodes built per step in one job, less those of the same job
    run with 0 epochs, so the job's set-up is not counted."""
    nodes = [0]
    real_init = ad.DiffTensor.__init__

    def init(self, *args, **kwargs):
        nodes[0] += 1
        real_init(self, *args, **kwargs)

    ad.DiffTensor.__init__ = init
    try:
        training.train_run(config.override(epochs=0))
        set_up = nodes[0]
        steps = training.train_run(config).steps
    finally:
        ad.DiffTensor.__init__ = real_init
    # each of the two jobs built the set-up's nodes once
    return (nodes[0] - 2 * set_up) / steps


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--jobs", type=int, default=15)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as work:
        config = config_for(work, args.seed)
        result = phase_ms(config, args.jobs)
        result["nodes_per_step"] = nodes_per_step(config)
    print(json.dumps({k: round(v, 4) for k, v in result.items()}))


if __name__ == "__main__":
    main()
