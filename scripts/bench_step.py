"""Time the phases of a training step on the benchmark's ``train_coupled``
job.

    PYTHONPATH=src python3 scripts/bench_step.py [--seed N] [--jobs N]

Run it on two checkouts in turn to compare them. It prints one JSON line:

* ``train_run_ms``: the median of ``--jobs`` ``train_run`` calls of a
  ``train_coupled``-sized job: synthetic 600/600/600 VA/AU/EXPR training
  pools and 200/200/200 validation rows in the same files (feature_dim 16),
  backbone (48,), heads EXPR/AU/VA, ``soft+distr`` coupling, batch 60, lr
  1e-2, three epochs (90 steps), no validation;
* per training step over those jobs, in ms: ``sampler_ms`` (inside the
  ``next`` calls of ``training.epoch_iterator``, the one that ends each
  epoch included), ``gather_ms`` (``training._gather``: the batch taken
  from the training split), ``forward_ms`` (``Model.forward``; for a
  packed recurrent batch this includes taking the outputs back to row
  order), ``loss_ms`` (from the end of the forward pass to
  ``Adam.zero_grad``: the loss terms and their total, whichever functions
  build them), ``backward_ms`` and ``adam_ms`` (``Adam.step``);
* ``nodes_per_step``: autodiff nodes built per step, counted in one more
  job run after the timed ones, so that counting slows no timed call.

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
from affectkit import models  # noqa: E402
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
    spent = {
        "sampler": 0.0, "gather": 0.0, "forward": 0.0, "loss": 0.0, "backward": 0.0, "adam": 0.0,
    }
    steps, forward_end = [], [0.0]
    patched = [
        (training, "epoch_iterator", "sampler"),
        (training, "_gather", "gather"),
        (models.Model, "forward", "forward"),
        (training, "backward", "backward"),
        (ad.Adam, "step", "adam"),
    ]
    real = {phase: getattr(owner, name) for owner, name, phase in patched}
    real_zero = ad.Adam.zero_grad

    def timed_iterator(fn, phase):
        def iterate(*args, **kwargs):
            batches = fn(*args, **kwargs)
            while True:
                start = time.perf_counter()
                try:
                    batch = next(batches)
                except StopIteration:
                    return
                finally:
                    spent[phase] += time.perf_counter() - start
                yield batch
        return iterate

    def timed(fn, phase):
        def call(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                spent[phase] += end - start
                if phase == "forward":
                    forward_end[0] = end
        return call

    def zero_grad(self):
        spent["loss"] += time.perf_counter() - forward_end[0]
        steps.append(1)
        return real_zero(self)

    for owner, name, phase in patched:
        wrap = timed_iterator if phase == "sampler" else timed
        setattr(owner, name, wrap(real[phase], phase))
    ad.Adam.zero_grad = zero_grad
    times = []
    try:
        for _ in range(jobs):
            start = time.perf_counter()
            training.train_run(config)
            times.append(time.perf_counter() - start)
    finally:
        for owner, name, phase in patched:
            setattr(owner, name, real[phase])
        ad.Adam.zero_grad = real_zero
    n = len(steps)
    out = {"train_run_ms": 1e3 * statistics.median(times)}
    out.update({f"{phase}_ms": 1e3 * total / n for phase, total in spent.items()})
    return out


def nodes_per_step(config: RunConfig) -> float:
    """Autodiff nodes built per step in one job, from the first forward
    pass on, so the job's set-up is not counted."""
    counts = {"nodes": 0, "steps": 0, "on": False}
    real_init, real_forward, real_zero = ad.DiffTensor.__init__, models.Model.forward, ad.Adam.zero_grad

    def init(self, *args, **kwargs):
        counts["nodes"] += counts["on"]
        real_init(self, *args, **kwargs)

    def forward(*args, **kwargs):
        counts["on"] = True
        return real_forward(*args, **kwargs)

    def zero_grad(self):
        counts["steps"] += 1
        return real_zero(self)

    ad.DiffTensor.__init__, models.Model.forward, ad.Adam.zero_grad = init, forward, zero_grad
    try:
        training.train_run(config)
    finally:
        ad.DiffTensor.__init__, models.Model.forward, ad.Adam.zero_grad = (
            real_init, real_forward, real_zero
        )
    return counts["nodes"] / counts["steps"]


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
