"""Smoke test of ``scripts/bench_step.py``: its phase and node functions
run on a one-epoch job, so a change to what ``train_run`` returns shows
here, not only when someone next runs the script (about 0.3 s)."""

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def bench_step(monkeypatch):
    """The script as a module; the BLAS thread settings it makes on import
    are undone after the test."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    path = os.path.join(ROOT, "scripts", "bench_step.py")
    spec = importlib.util.spec_from_file_location("bench_step", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_step_reports_every_phase(tmp_path, bench_step):
    # the bench job cut to one epoch: 1800 rows in batches of 60, 30 steps
    config = bench_step.config_for(str(tmp_path), seed=1).override(epochs=1)
    result = bench_step.phase_ms(config, jobs=1)
    result["nodes_per_step"] = bench_step.nodes_per_step(config)
    phases = ["sampler_ms", "gather_ms", "forward_ms", "loss_ms", "backward_ms", "adam_ms"]
    assert list(result) == ["train_run_ms", *phases, "nodes_per_step"]
    assert all(result[k] >= 0 for k in phases)
    assert 30 * sum(result[k] for k in phases) <= result["train_run_ms"]
    assert result["nodes_per_step"] >= 1 and float(result["nodes_per_step"]).is_integer()
