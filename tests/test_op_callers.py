"""Every autodiff op keeps a caller in the program.

The ops are the ones the ``autodiff`` module docstring lists. Each is
wrapped, and the program's own entry points run: ``train_run`` on a dense
``soft+distr`` job and on a ``per_tap`` recurrent job with dropout,
``evaluate_model`` and ``run_grad_checks``. An op that none of them reaches
from a module of the package has no caller left outside the tests, and
belongs in ``tests/reference_ops.py`` with the other oracles.
"""

import inspect
import os
import re
import sys

import pytest

import affectkit
from affectkit import autodiff
from affectkit.harness.checks import run_grad_checks
from affectkit.harness.config import RunConfig
from affectkit.harness.dataio import load_dataset
from affectkit.harness.evaluate import evaluate_model
from affectkit.harness.synth import SyntheticSpec, generate_dataset
from affectkit.harness.training import train_run

PACKAGE_DIR = os.path.dirname(os.path.abspath(affectkit.__file__)) + os.sep
# public autodiff functions that build no graph node
HELPERS = {"sigmoid_values", "backward", "glorot_uniform", "save_checkpoint", "load_checkpoint"}


def documented_ops():
    doc = autodiff.__doc__
    start = doc.index("The op set is exactly")
    paragraph = doc[start : doc.index("\n\n", start)]
    return set(re.findall(r"``(\w+)``", paragraph))


def test_docstring_lists_every_op():
    public = {
        name
        for name, fn in inspect.getmembers(autodiff, inspect.isfunction)
        if fn.__module__ == autodiff.__name__ and not name.startswith("_")
    }
    assert documented_ops() == public - HELPERS


@pytest.fixture
def program_callers(monkeypatch):
    """Wrap each documented op; the returned set collects the ops called
    from a module of the package."""
    reached = set()

    def wrap(name, fn):
        def wrapper(*args, **kwargs):
            if sys._getframe(1).f_code.co_filename.startswith(PACKAGE_DIR):
                reached.add(name)
            return fn(*args, **kwargs)

        return wrapper

    for name in documented_ops():
        monkeypatch.setattr(autodiff, name, wrap(name, getattr(autodiff, name)))
    return reached


def test_every_op_has_a_program_caller(tmp_path, program_callers):
    spec = SyntheticSpec(train_counts=(20, 20, 20), val_counts=(8, 8, 8), feature_dim=10)
    feats, ann = generate_dataset(spec, 2, str(tmp_path))
    base = dict(
        train_annotations=ann, train_features=feats, seed=1, feature_dim=10,
        lr=1e-2, epochs=1, total_batch=12,
    )
    jobs = {
        "dense": dict(backbone=(8,), coupling="soft+distr"),
        "per_tap": dict(
            backbone=(8, 6), taps=(0, 1), recurrent="per_tap:4x2",
            dropout=0.2, recurrent_dropout=0.1,
        ),
    }
    for name, extra in jobs.items():
        result = train_run(RunConfig(**base, **extra, out_dir=str(tmp_path / name)))
    evaluate_model(result.model, load_dataset(ann, feats, split="val"))
    run_grad_checks(n_points=3)
    assert sorted(documented_ops() - program_callers) == []
