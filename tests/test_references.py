"""Engine seed 0 of every benchmark workload reproduces its recorded outputs.

``perfbench/references.json`` holds the exact outputs the benchmark checks
each call against. Re-running one seed per workload and arm here makes an
unintended output change fail the test suite, not only the benchmark. This
file reads the references and never writes them; re-recording is
``perfbench/record_references.py``'s job.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from streamfp.stream_sim import run_experiment  # noqa: E402

from perfbench.harness import outputs  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

REFERENCES = json.loads((ROOT / "perfbench" / "references.json").read_text())
ENGINE_SEED = 0

CASES = [(name, arm, config)
         for name in sorted(WORKLOADS)
         for arm, config in WORKLOADS[name].configs(ENGINE_SEED)]


@pytest.mark.parametrize("name, arm, config", CASES,
                         ids=[f"{name}-{arm}" for name, arm, _ in CASES])
def test_seed_0_matches_recorded_outputs(name, arm, config):
    assert outputs(run_experiment(config)) == REFERENCES[name][str(ENGINE_SEED)][arm]
