"""Time ``dataio.read_feature_columns`` against the per-row reader it falls
back to (``tests/reference_input.read_feature_columns``: ``csv`` rows and one
``float()`` per value) on two ``gen-data`` feature files: the default spec
(600/600/600 train, 200/200/200 val: 2400 x 16) and a 3600 x 16 one
(900/900/900, 300/300/300).

    PYTHONPATH=src python3 scripts/bench_parse.py [--seed N] [--reps N]

The two readers alternate, ``--reps`` calls each per file, and the script
first checks that they return the same ids and value bytes. It prints one
JSON line with, per file, each reader's median ms and the ratio of the
medians (per-row / one-pass).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tests"))

from affectkit.harness.dataio import read_feature_columns  # noqa: E402
from affectkit.harness.synth import SyntheticSpec, generate_dataset  # noqa: E402
from reference_input import read_feature_columns as per_row  # noqa: E402

SPECS = {
    "gen_data_2400x16": SyntheticSpec(),
    "gen_data_3600x16": SyntheticSpec(train_counts=(900, 900, 900), val_counts=(300, 300, 300)),
}


def time_readers(path: str, reps: int) -> dict:
    ids, matrix = read_feature_columns(path)
    want_ids, want = per_row(path)
    if ids != want_ids or matrix.tobytes() != want.tobytes():
        raise SystemExit(f"{path}: the readers disagree")
    times = {"one_pass_ms": [], "per_row_ms": []}
    for _ in range(reps):
        for name, read in (("one_pass_ms", read_feature_columns), ("per_row_ms", per_row)):
            start = time.perf_counter()
            read(path)
            times[name].append(1e3 * (time.perf_counter() - start))
    out = {name: round(statistics.median(t), 3) for name, t in times.items()}
    out["rows"], out["dim"] = matrix.shape
    out["speedup"] = round(out["per_row_ms"] / out["one_pass_ms"], 3)
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--reps", type=int, default=41)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as work:
        result = {}
        for name, spec in SPECS.items():
            path, _ = generate_dataset(spec, seed=args.seed, out_dir=os.path.join(work, name))
            result[name] = time_readers(path, args.reps)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
