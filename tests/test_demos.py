"""The demos print the same bytes as when their output was recorded.

Each demo pins its timing, so its stdout is a pure function of the engine.
A change that means to keep every output bit must leave these digests as
they are; one that changes an output on purpose re-records them here.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# sha256 of each demo's stdout, run with its default arguments on one BLAS
# thread
DEMO_STDOUT_SHA256 = {
    "quickstart.py": "e438f09ddfbf195426342ca080fe239135a4d863c8f23bfdacbfef79be823848",
    "selector_comparison.py": "4d322bc1f63316cb75e6db7dfc2195b0dfb9d2a9f162adc6839761f31ffe79e5",
    "buffer_drift_tracking.py": "59181431751b2739aab8029915caffaf689a977a04d115c44fead2e5e6b591c6",
}


@pytest.mark.parametrize("demo", sorted(DEMO_STDOUT_SHA256))
def test_demo_stdout_matches_recorded_digest(demo):
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env["STREAMFP_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env, check=True,
                         timeout=300, stdout=subprocess.PIPE).stdout
    assert hashlib.sha256(out).hexdigest() == DEMO_STDOUT_SHA256[demo]
