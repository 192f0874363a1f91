"""Smoke tests of the bench scripts in ``scripts/``: each one's functions
run on tiny inputs, so a change to what the program's API takes or returns
shows here, not only when someone next runs the script (under a second)."""

import importlib.util
import os

import pytest

from affectkit.harness.synth import SyntheticSpec, generate_dataset

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def script(monkeypatch):
    """Load ``scripts/<name>.py`` as a module; the BLAS thread settings the
    scripts make on import are undone after the test."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")

    def load(name):
        spec = importlib.util.spec_from_file_location(name, os.path.join(ROOT, "scripts", f"{name}.py"))
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    return load


def test_bench_step_reports_every_phase(tmp_path, script):
    bench_step = script("bench_step")
    # the bench job cut to one epoch: 1800 rows in batches of 60, 30 steps
    config = bench_step.config_for(str(tmp_path), seed=1).override(epochs=1)
    result = bench_step.phase_ms(config, jobs=1)
    result["nodes_per_step"] = bench_step.nodes_per_step(config)
    phases = ["sampler_ms", "gather_ms", "forward_ms", "loss_ms", "backward_ms", "adam_ms"]
    assert list(result) == ["train_run_ms", *phases, "nodes_per_step"]
    assert all(result[k] >= 0 for k in phases)
    assert 30 * sum(result[k] for k in phases) <= result["train_run_ms"]
    assert result["nodes_per_step"] >= 1 and float(result["nodes_per_step"]).is_integer()


def test_bench_parse_times_both_readers(tmp_path, script):
    bench_parse = script("bench_parse")
    spec = SyntheticSpec(train_counts=(6, 6, 6), val_counts=(2, 2, 2), feature_dim=8)
    path, _ = generate_dataset(spec, seed=0, out_dir=str(tmp_path))
    result = bench_parse.time_readers(path, reps=1)
    assert list(result) == ["one_pass_ms", "per_row_ms", "rows", "dim", "speedup"]
    assert (result["rows"], result["dim"]) == (24, 8)
    assert result["one_pass_ms"] > 0 and result["per_row_ms"] > 0


def test_bench_transfer_times_a_load_and_a_frozen_step(tmp_path, script):
    bench_transfer = script("bench_transfer")
    assert bench_transfer.load_model_ms(str(tmp_path), seed=1, loads=1) > 0
    assert bench_transfer.frozen_ms_per_step(str(tmp_path), seed=1, jobs=1) > 0


def test_bench_recurrent_times_training_the_gru_and_evaluation(tmp_path, script):
    bench_recurrent = script("bench_recurrent")
    config = bench_recurrent.config_for(str(tmp_path), seed=1)
    job_ms, gru_forward, gru_bptt = bench_recurrent.training_ms(config, jobs=1)
    assert job_ms > 0 and 0 < gru_forward < job_ms and 0 < gru_bptt < job_ms
    assert bench_recurrent.evaluate_ms(config, evals=1) > 0
