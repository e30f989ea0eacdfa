"""`streamfp verify` prints the same bytes as when its output was recorded.

Each checker draws from fixed seeds and prints fixed-format figures, so its
stdout is a pure function of the engine. A change that means to keep every
output bit must leave these digests as they are; one that changes a
checker's figures on purpose re-records them here.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# sha256 of `streamfp verify <theorem> --trials <n>` stdout on one BLAS
# thread, with the default seed; every check passes at these trial counts
VERIFY_STDOUT_SHA256 = {
    ("coreset", 50): "4dbf21e832e4cbda87ed8a6d14ca2b414f7d8a3a2235c2aa992608654e06fdf8",
    ("buffer", 100): "a6071783019d16d0428ddc19cd168b3dc65ed98ed3cd4796ebba57100b865d94",
    ("gradients", 50): "a321388d08776d0de40d8c5ead50c0ca7408d5e610b2c07d32ea0f5bca5a1328",
    ("sampler", 2000): "6f67efafecc0b2f2203c7c55db7179dca89d5f04e8b9286ddd2cbda01e1970fc",
}


@pytest.mark.parametrize("theorem,trials", sorted(VERIFY_STDOUT_SHA256))
def test_verify_stdout_matches_recorded_digest(theorem, trials):
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env["STREAMFP_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-m", "streamfp.cli", "verify", theorem, "--trials", str(trials)],
        env=env, check=True, timeout=300, stdout=subprocess.PIPE).stdout
    assert hashlib.sha256(out).hexdigest() == VERIFY_STDOUT_SHA256[theorem, trials]
