"""Run workloads over several seeds and summarise each metric's spread.

    python3 perfbench/sweep.py --seeds 1-10 --out summary.json [--workloads small,paper]

Each run is a fresh ``perfbench/run.py`` process with ``--trace 0``. Per
workload and end-to-end metric the summary holds the values, their
median and quartiles (``statistics.quantiles(n=4)``), and the
interquartile range as a share of the median. One ``--trace 1`` run per
workload, at the first seed, adds the per-layer metrics.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def run(workload, seed, seconds, trace):
    """One benchmark process; return (result JSON, env dict)."""
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    lines = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True, timeout=600).stdout
    lines = lines.splitlines()
    env = next(json.loads(line[len("# env "):]) for line in lines if line.startswith("# env "))
    return json.loads(lines[-1]), env


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "iqr_over_median": (q3 - q1) / median,
            "values": values}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive workload seed range")
    parser.add_argument("--workloads", default="small,paper,replay")
    parser.add_argument("--seconds", type=int,
                        default=json.loads((RUN.parent.parent / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    lo, hi = (int(x) for x in args.seeds.split("-"))
    seeds = list(range(lo, hi + 1))
    summary = {"seconds": args.seconds, "seeds": seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        results = []
        for seed in seeds:
            result, summary["env"] = run(workload, seed, args.seconds, 0)
            results.append(result)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        traced, _ = run(workload, seeds[0], args.seconds, 1)
        summary["workloads"][workload] = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": {
                name: {"unit": unit["unit"], **spread([r["metrics"][name]["value"] for r in results])}
                for name, unit in results[0]["metrics"].items()
            },
            "per_layer": {"seed": seeds[0], "attempted": traced["attempted"],
                          "failed": traced["failed"], "metrics": traced["metrics"]},
        }
        for name, stats in summary["workloads"][workload]["end_to_end"].items():
            print(f"{workload} {name}: median {stats['median']:.5g} "
                  f"IQR/median {stats['iqr_over_median']:.4f}", flush=True)
    Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
