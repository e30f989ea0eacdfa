"""Run one streamfp benchmark workload and print its metrics.

    python3 perfbench/run.py --workload small --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Run from anywhere; the engine is imported from ``src/`` next to this
directory. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``--workload all`` runs every workload in its own process.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import BENCHMARK, THREAD_VARS  # noqa: E402  (loads no NumPy)

# BLAS reads these when NumPy is first imported, so they are set before
# anything below can import it
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import subprocess  # noqa: E402

WORKLOAD_NAMES = tuple(w["name"] for w in BENCHMARK["workloads"])


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def run_all(args):
    """Run each workload in a fresh process, passing its output through."""
    ok = True
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
        print(proc.stdout, end="", flush=True)
        ok = ok and proc.returncode == 0 and json.loads(proc.stdout.splitlines()[-1])["correct"]
    return 0 if ok else 1


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "streamfp" / "__init__.py").is_file():
        print(f"perfbench: no engine source at {ROOT / 'src' / 'streamfp'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    from perfbench import harness
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    references = json.loads((ROOT / "perfbench" / "references.json").read_text())
    setup_s = None if args.trace else harness.setup_seconds(ROOT, workload.name, args.seed)
    checker, metrics, extras = harness.measure(
        workload, args.seed, args.seconds, args.trace, references
    )
    if setup_s is not None:
        metrics["setup_s"] = setup_s
    if not all(math.isfinite(value) for value in metrics.values()):
        print(f"perfbench: no call succeeded, metrics {metrics}", file=sys.stderr)
        return 1
    units = dict(harness.PER_LAYER if args.trace else harness.END_TO_END)

    print(f"# workload={workload.name} seed={args.seed} trace={args.trace}")
    print("# env " + json.dumps(harness.environment(), sort_keys=True))
    for name, unit in units.items():
        print(f"{name:52s} {metrics[name]:14.6g} {unit}")
    for name in ("avg_accuracy", "avg_forgetting"):
        print(f"{name + ' (first arm, checked, unbounded)':52s} {extras[name]:14.6g} ratio")
    if workload.calibrated and not args.trace:
        print(f"{'run_s (wall, not calibrated)':52s} {extras['wall_run_s']:14.6g} s")
        print(f"{'keepup_sps (wall, not calibrated)':52s} {extras['wall_keepup_sps']:14.6g} 1/s")
        print(f"{'machine speed / calibration reference':52s} {extras['speed']:14.6g} ratio")
    print(f"{'error_rate':52s} {checker.failed / checker.attempted:14.6g} "
          f"ratio ({checker.failed} of {checker.attempted} calls failed)")
    if args.trace:
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        trace_file = out_dir / f"spans-{workload.name}-{args.seed}.json"
        trace_file.write_text(json.dumps({
            "columns": ["id", "parent", "name", "start_s", "end_s"],
            "spans": extras["spans"],
        }))
        print(f"# spans written to {trace_file}")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
