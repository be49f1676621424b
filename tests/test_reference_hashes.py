"""The benchmark's reference tables: each workload of ``perfbench/run.py``,
run once at its reference seed, writes the two CSVs whose SHA-256s
``perfbench/expectations.json`` pins.

The workload configs are read from ``perfbench/run.py`` itself, and each
table call runs in a fresh interpreter that pins one BLAS thread before it
imports numpy, as the benchmark does.
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest

pytestmark = pytest.mark.slow

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")

with open(os.path.join(PERFBENCH, "expectations.json")) as fh:
    REFERENCE = json.load(fh)["reference_hashes"]

# builds the workload's config with run.setup and runs its table once
RUN_ONCE = """
import sys
sys.dont_write_bytecode = True
sys.path.insert(0, sys.argv[1])
import run
run.pin_blas_threads()
workload = run.WORKLOADS[sys.argv[2]]
_, experiments, cfg = run.setup(workload, sys.argv[3])
assert cfg.master_seed == int(sys.argv[4])
getattr(experiments, "run_" + workload.table)(cfg)
"""


@pytest.mark.parametrize("workload", sorted(REFERENCE))
def test_reference_tables(workload, tmp_path):
    reference = REFERENCE[workload]
    subprocess.run([sys.executable, "-c", RUN_ONCE, PERFBENCH, workload, str(tmp_path),
                    str(reference["seed"])], cwd=ROOT, check=True, timeout=600)
    for name, digest in reference["files"].items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name
