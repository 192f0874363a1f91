"""The benchmark's own tests. Run from the repository root:

    python3 -m pytest -q perfbench

They run every workload at a tiny size, check that each metric named in
BENCHMARK.json is printed with a unit, and check that tracing leaves the
program as it found it.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)

TINY = ["--seconds", "0.3", "--scale", "0.05"]


def _run(workload: str, trace: int, cwd: str = ROOT, seed: int = 3):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace), *TINY],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    for w in BENCHMARK["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_metric_printed_with_unit(workload, trace, section):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert set(result["metrics"]) == set(expected)
    for name, unit in expected.items():
        metric = result["metrics"][name]
        assert metric["unit"] == unit
        assert isinstance(metric["value"], float)
        assert any(ln.split()[:1] == [name] and ln.split()[-1] == unit for ln in lines[:-1])
    assert any(ln.startswith("# failed_ratio 0 (0 of ") for ln in lines)
    assert any(ln.startswith("# env ") for ln in lines)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = _run("train_coupled", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def _traced_train(session, tag):
    tracer = tracing.Tracer()
    session.tracer = tracer
    with tracer:
        session.train(0.0, min_reps=1, out_tag=tag)
    session.tracer = None
    metrics = tracing.layer_metrics(tracer, 0, 1.0, 1.0)
    return {k: v for k, (v, _) in metrics.items()}


def test_tracing_leaves_program_unchanged(tmp_path):
    spec = workloads.WORKLOADS["train_coupled"]
    session = workloads.Session(spec, seed=5, workdir=str(tmp_path), scale=0.1)
    session.prepare()
    originals = [getattr(o, a) for o, a in tracing.patch_targets()]

    session.train(0.0, min_reps=1, out_tag="-plain")
    first = _traced_train(session, "-traced1")
    second = _traced_train(session, "-traced2")

    assert [getattr(o, a) for o, a in tracing.patch_targets()] == originals
    out_dir = session.member_configs[0].out_dir
    blobs = []
    for tag in ("-plain", "-traced1", "-traced2"):
        with open(os.path.join(out_dir + tag, "model.ckpt"), "rb") as fh:
            blobs.append(fh.read())
    assert blobs[0] == blobs[1] == blobs[2]
    assert session.tally.failed == 0

    exact = (
        "autodiff.nodes_per_step",
        "models.expr_probs_calls_per_step",
        "relatedness.conditional_matrix_calls_per_step",
        "sampler.batches",
    )
    for name in exact:
        assert first[name] == second[name], name
    assert first["models.expr_probs_calls_per_step"] == 2.0
    assert first["relatedness.conditional_matrix_calls_per_step"] == 1.0
    assert first["autodiff.nodes_per_step"] > 0


def test_tail_percentile_keeps_ten_samples_beyond():
    q, value = workloads.tail_percentile([float(i) for i in range(2000)])
    assert q == 0.99 and value == 1979.0
    q, value = workloads.tail_percentile([float(i) for i in range(100)])
    assert q == pytest.approx(0.9) and value == 89.0


def test_calibration_uses_nearby_bursts():
    import calibration

    cal = calibration.Calibrator()
    cal.bursts = [(0.0, 0.004), (0.5, 0.004), (1.0, 0.004), (10.0, 0.001), (10.5, 0.001),
                  (11.0, 0.001)]
    slow, fast = cal.factors([0.5, 10.5], window=1.0)
    assert slow == calibration.REFERENCE_S / 0.004
    assert fast == calibration.REFERENCE_S / 0.001
