"""``scripts/digests.py`` prints the golden bytes of its fixed training jobs.

The script trains fifteen small jobs and evaluates two of them, printing
the sha256 of every checkpoint, training log, report and predictions file
(about 0.6 s). ``digests_golden.txt`` holds those 15 lines under a header
naming the numpy version and BLAS library it was made with. Float results
may differ under another numpy or BLAS, so in any other environment the
test skips and says why.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests_golden.txt")


def environment() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"# numpy {np.__version__}, BLAS {blas['name']} {blas['version']}"


def test_digests_equal_the_golden_file(tmp_path):
    with open(GOLDEN, encoding="utf-8") as fh:
        made_with, *golden = fh.read().splitlines()
    if made_with != environment():
        pytest.skip(f"golden digests were made with {made_with[2:]}, not {environment()[2:]}")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "digests.py"), "--work", str(tmp_path)],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    assert len(golden) == 15
    assert out == golden
