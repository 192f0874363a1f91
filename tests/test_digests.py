"""Golden bytes: the fixed training jobs of ``scripts/digests.py`` and the
synthetic data ``generate_dataset`` writes.

The script trains fifteen small jobs and evaluates two of them, printing
the sha256 of every checkpoint, training log, report and predictions file
(about 0.6 s). ``digests_golden.txt`` holds those 15 lines under a header
naming the numpy version and BLAS library it was made with. Float results
may differ under another numpy or BLAS, so in any other environment these
tests skip and say why.
"""

import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

from affectkit.harness.synth import SyntheticSpec, generate_dataset

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests_golden.txt")

# sha256 of (features.csv, annotations.csv) from the default spec and seed
# 1, per built-in table: this pins the order of the synthetic AU draws
SYNTHETIC_GOLDEN = {
    "cognitive": (
        "3b7e8b563594d469945cfe40531f94979eac73e64e7674caec108f53196fc6b6",
        "e2a1d49be62b243b18af103c3ced68e59636cc3e5c9f871a5dc01b3637b3bd42",
    ),
    "empirical": (
        "1d6f433907e62cab72c706e4b6651ff4af690c2283901e80523d0a27e1ca2ac1",
        "9f8a9dac2d1082cd4fb80664c8881bfef772ac360dab254b6522ab2ce8584d9d",
    ),
}


def environment() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"# numpy {np.__version__}, BLAS {blas['name']} {blas['version']}"


def golden_lines() -> list:
    """The golden digest lines; skips unless they were made in this environment."""
    with open(GOLDEN, encoding="utf-8") as fh:
        made_with, *golden = fh.read().splitlines()
    if made_with != environment():
        pytest.skip(f"golden digests were made with {made_with[2:]}, not {environment()[2:]}")
    return golden


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def test_digests_equal_the_golden_file(tmp_path):
    golden = golden_lines()
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


@pytest.mark.parametrize("table", sorted(SYNTHETIC_GOLDEN))
def test_synthetic_dataset_bytes_are_golden(tmp_path, table):
    golden_lines()
    paths = generate_dataset(SyntheticSpec(table=table), seed=1, out_dir=str(tmp_path))
    assert tuple(map(sha256, paths)) == SYNTHETIC_GOLDEN[table]
