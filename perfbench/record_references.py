"""Record the reference outputs that benchmark runs are checked against.

    python3 perfbench/record_references.py [--seeds 0-10] [--workloads small,paper]

For the given workloads (default: all) and every engine seed derived from
the given workload seeds, runs each arm once (untraced, warm-up on, as the benchmark does) and
writes ``acc_rows``, ``avg_accuracy``, ``avg_forgetting``, ``retained_batches``
and ``total_batches`` into ``perfbench/references.json``, replacing those
workloads' entries and keeping the others. Re-record only when
a change of engine behaviour is intended, and say so where the change is
described.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import THREAD_VARS  # noqa: E402  (loads no NumPy)

for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402

from streamfp.stream_sim import run_experiment  # noqa: E402

from perfbench.harness import outputs  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-10", help="inclusive workload seed range")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args(argv)
    lo, hi = (int(x) for x in args.seeds.split("-"))
    path = ROOT / "perfbench" / "references.json"
    references = json.loads(path.read_text()) if path.exists() else {}
    for name in args.workloads.split(","):
        workload = WORKLOADS[name]
        recorded = references[name] = {}
        for seed in range(lo, hi + 1):
            for engine_seed in workload.seeds(seed):
                recorded[str(engine_seed)] = {
                    arm: outputs(run_experiment(config))
                    for arm, config in workload.configs(engine_seed)
                }
            print(f"{workload.name} seed {seed} recorded", flush=True)
    path.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
