"""Time the two transfer paths of a trained model: ``load_model`` on the
two-stream serving model of the benchmark's ``stream_predict`` workload, and
one training step of a ``freeze_trunk`` job over a ``single:6x1`` trunk.

    PYTHONPATH=src python3 scripts/bench_transfer.py [--seed N] [--loads N] [--jobs N]

Run it on two checkouts in turn to compare them. It prints one JSON line:

* ``load_model_ms``: the median of ``--loads`` calls of ``load_model`` on
  one checkpoint (feature_dim 16, audio_dim 1025, landmark_dim 10, two
  streams with landmark concatenation, backbone 48, heads EXPR/AU/VA);
* ``frozen_ms_per_step``: the median over ``--jobs`` 3-epoch frozen jobs
  of the sum of the job's ``TrainResult.phase_s`` (sampler, gather,
  forward, loss, backward and Adam, ``zero_grad`` included) per step, on
  synthetic 300/300/300 pools, batch 60, no validation, starting from a
  1-epoch donor with the same spec.

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

from affectkit.autodiff import save_checkpoint  # noqa: E402
from affectkit.harness import training  # noqa: E402
from affectkit.harness.config import RunConfig  # noqa: E402
from affectkit.harness.synth import SyntheticSpec, generate_dataset  # noqa: E402
from affectkit.models import Model  # noqa: E402


def load_model_ms(work: str, seed: int, loads: int) -> float:
    config = RunConfig(
        seed=seed, feature_dim=16, audio_dim=1025, landmark_dim=10, streams=2,
        landmark_concat=True, backbone=(48,), heads=("EXPR", "AU", "VA"),
    )
    model = Model(config.model_spec(), config.input_dims(), seed=seed)
    path = os.path.join(work, "server.ckpt")
    save_checkpoint(path, {n: p.data for n, p in model.named_parameters().items()})
    times = []
    for _ in range(loads):
        start = time.perf_counter()
        training.load_model(config, path)
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def frozen_ms_per_step(work: str, seed: int, jobs: int) -> float:
    spec = SyntheticSpec(train_counts=(300, 300, 300), val_counts=(1, 1, 1), feature_dim=16)
    feats, ann = generate_dataset(spec, seed=seed, out_dir=os.path.join(work, "data"))
    base = RunConfig(
        seed=seed, feature_dim=16, backbone=(32,), recurrent="single:6x1",
        heads=("EXPR", "AU", "VA"), lr=1e-2, total_batch=60, shuffle=True,
        train_annotations=ann, train_features=feats,
    )
    donor = training.train_run(base.override(epochs=1, out_dir=os.path.join(work, "donor")))
    frozen = base.override(
        epochs=3, init_from=donor.checkpoint_path, freeze_trunk=True,
        out_dir=os.path.join(work, "frozen"),
    )
    per_step = []
    for _ in range(jobs):
        result = training.train_run(frozen)
        per_step.append(sum(result.phase_s.values()) / result.steps)
    return 1e3 * statistics.median(per_step)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--loads", type=int, default=400)
    parser.add_argument("--jobs", type=int, default=7)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as work:
        result = {
            "load_model_ms": load_model_ms(work, args.seed, args.loads),
            "frozen_ms_per_step": frozen_ms_per_step(work, args.seed, args.jobs),
        }
    print(json.dumps({k: round(v, 4) for k, v in result.items()}))


if __name__ == "__main__":
    main()
