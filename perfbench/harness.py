"""Measure one workload: timed experiment calls, output checks, layer trace.

The end-to-end metrics come from untraced ``run_experiment`` calls. The
per-layer metrics come from a second, traced pass over the same engine
seeds, whose outputs must equal the untraced ones.
"""

import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

from streamfp import buffer, fingerprints, learner, stream_sim

from . import BENCHMARK, THREAD_VARS
from .spans import Tracer, layer_totals

SETUP_PROBES = 7

# The machine's speed drifts by tens of percent over seconds to minutes,
# interpreter-bound code most. On a calibrated workload a fixed kernel runs
# between units for CALIBRATION_SHARE of the last unit's time, and call times
# are scaled by CALIBRATION_REFERENCE_S / its time around them.
CALIBRATION_REFERENCE_S = 0.03
CALIBRATION_SHARE = 0.05

# (name, unit) of the metrics a run reports with tracing off and on; counts
# and seconds of a traced run are per run_experiment call
END_TO_END = [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]]


def _count_kept(counters, args, kwargs, selection):
    counters["coreset.kept"] += len(selection.indices)
    counters["coreset.offered"] += np.size(args[0])


def _count_offered_full(counters, args, kwargs):
    buf, items = args[0], args[1]
    counters["buffer.offered_full"] += max(0, len(items) - (buf.capacity - len(buf)))


def _count_sampled(counters, args, kwargs, chosen):
    counters["buffer.sampled"] += len(chosen)


def _attune_gflop(multiplier):
    """Nominal expert-GEMM work from the shapes: each expert does
    ``multiplier`` (N*L_p, D) x (D, D) products of 2*N*L_p*D*D flops."""

    def count(counters, args, kwargs, result):
        n, lp, d = args[0].weights.shape
        experts = args[1].keys.shape[0]
        counters["fingerprints.attune_gflop"] += multiplier * experts * 2 * n * lp * d * d / 1e9

    return count


def layer_targets():
    """(span name, owner, attribute, before, after) for every traced function,
    at the place where its caller looks it up."""
    return (
        ("seeding.substream_indexed", learner, "substream_indexed", None, None),
        ("core_math.batch_similarity", stream_sim, "batch_similarity", None, None),
        ("core_math.batch_similarity", learner, "batch_similarity", None, None),
        ("fingerprints.gate_forward", fingerprints, "gate_forward", None, None),
        ("fingerprints.attune", learner, "attune", None, _attune_gflop(2)),
        # attune_backward repeats the forward products and adds two per expert
        ("fingerprints.attune_backward", learner, "attune_backward", None, _attune_gflop(4)),
        ("learner.train_step", stream_sim, "train_step", None, None),
        ("learner.evaluate", stream_sim, "evaluate", None, None),
        ("learner.PrototypeModel.init_random", learner.PrototypeModel, "init_random", None, None),
        ("learner.embed", learner.SyntheticEmbedder, "embed", None, None),
        ("coreset.select_coreset", stream_sim, "select_coreset", None, _count_kept),
        ("buffer.update_buffer", stream_sim, "update_buffer", _count_offered_full, None),
        ("buffer.RehearsalBuffer.embeddings", buffer.RehearsalBuffer, "embeddings", None, None),
        ("buffer.weighted_sample_without_replacement", buffer,
         "weighted_sample_without_replacement", None, _count_sampled),
        ("stream_sim.reservoir_update", stream_sim, "reservoir_update", None, None),
    )


def outputs(report):
    """The checked outputs of one call, as plain JSON-able values."""
    return {
        "acc_rows": [[float(v) for v in row] for row in report.acc_rows],
        "avg_accuracy": float(report.avg_accuracy),
        "avg_forgetting": float(report.avg_forgetting),
        "retained_batches": int(report.retained_batches),
        "total_batches": int(report.total_batches),
    }


def output_problems(config, out, reference=None, previous=None):
    """Every way ``out`` breaks an invariant or differs from a recorded output."""
    problems = []
    total, c_s = out["total_batches"], config.c_s_override
    want = total if c_s <= 1 else math.ceil(total / c_s)
    if out["retained_batches"] != want:
        problems.append(f"retained_batches {out['retained_batches']} != ceil({total}/{c_s})")
    rows = out["acc_rows"]
    if [len(row) for row in rows] != list(range(1, config.tasks + 1)):
        problems.append("acc_rows is not one row per task, row i of length i+1")
    accs = [v for row in rows for v in row] + [out["avg_accuracy"]]
    if not all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in accs):
        problems.append("an accuracy is not finite in [0, 1]")
    if not math.isfinite(out["avg_forgetting"]):
        problems.append("avg_forgetting is not finite")
    if reference is not None and out != reference:
        problems.append(f"outputs differ from the recorded reference {reference}")
    if previous is not None and out != previous:
        problems.append(f"outputs differ from an earlier call with the same seed {previous}")
    return problems


class Checker:
    """Counts attempted and failed calls; a call fails if it raises, its
    outputs fail :func:`output_problems`, or it leaves a thread running."""

    def __init__(self, workload, references):
        self.references = references.get(workload, {})
        self.first = {}
        self.attempted = 0
        self.failed = 0
        self.threads = set(threading.enumerate())

    def run(self, fn, engine_seed, arm, config):
        """Call ``fn(config)``; return (seconds, report), or None if it failed."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            report = fn(config)
        except Exception:  # a failed call is counted and reported, the run goes on
            self.failed += 1
            print(f"call {arm} seed={engine_seed} raised:\n{traceback.format_exc()}", file=sys.stderr)
            return None
        seconds = time.perf_counter() - t0
        out = outputs(report)
        key = (engine_seed, arm)
        reference = self.references.get(str(engine_seed), {}).get(arm)
        problems = output_problems(config, out, reference, self.first.get(key))
        self.first.setdefault(key, out)
        # a thread left behind would compete for the GIL with every later
        # call and with the calibration kernel alike, so calibration would
        # hide the slowdown
        left = [t.name for t in threading.enumerate() if t not in self.threads]
        if left:
            problems.append(f"threads left running: {left}")
        if problems:
            self.failed += 1
            print(f"call {arm} seed={engine_seed} failed its check: {problems}", file=sys.stderr)
            return None
        return seconds, report


def _run_unit(checker, fn, workload, engine_seed):
    """Run every arm for one engine seed; return [(arm, seconds, report, config)]
    in arm order, or [] if any call failed."""
    configs = workload.configs(engine_seed)
    done = []
    for arm, config in configs:
        result = checker.run(fn, engine_seed, arm, config)
        if result is not None:
            done.append((arm, *result, config))
    return done if len(done) == len(configs) else []


def calibration_seconds(at_least):
    """Mean wall time of one pass of a fixed interpreter-bound loop (integer
    arithmetic and dict updates), repeated until ``at_least`` seconds have
    passed. It calls nothing from the engine and allocates one dict per
    pass, so it triggers no garbage collection that engine objects make
    slow."""
    t0 = time.perf_counter()
    passes = 0
    while passes == 0 or time.perf_counter() - t0 < at_least:
        total, counts = 0, {}
        for i in range(100_000):
            total += i * i % 7
            counts[i % 61] = counts.get(i % 61, 0) + 1
        passes += 1
    return (time.perf_counter() - t0) / passes


def _median(values):
    values = list(values)
    return statistics.median(values) if values else math.nan


def _mean(values):
    values = list(values)
    return statistics.fmean(values) if values else math.nan


def _unit_seconds(units):
    """Mean call time of each unit that succeeded."""
    return [statistics.fmean(call[1] for call in unit) for unit in units if unit]


def _keepup(unit):
    """``batch_size / batch_time_s`` of the unit's first call, from the
    engine's own warm-up measurement."""
    _, _, report, config = unit[0]
    return config.batch_size / report.batch_time_s


def _calibrate(workload, last_unit):
    """Kernel pass time after ``last_unit``, or the reference time on an
    uncalibrated workload."""
    if not workload.calibrated:
        return CALIBRATION_REFERENCE_S
    unit_s = _unit_seconds([last_unit])
    # before the first unit, or after a failed one, there is no unit time
    # to take a share of; three passes keep one noisy pass from deciding
    return calibration_seconds(CALIBRATION_SHARE * unit_s[0] if unit_s else 3 * CALIBRATION_REFERENCE_S)


def measure(workload, seed, seconds, trace, references):
    """Run one workload; return (checker, metrics, extras).

    The block of engine seeds runs first, untraced. With ``trace`` each seed
    then runs again traced, right after its untraced call, so the pair sees
    the same machine state. Without it, further untraced calls cycle over the
    seeds until ``seconds`` have passed; on a calibrated workload the
    calibration kernel runs before the first unit and after every unit.
    """
    checker = Checker(workload.name, references)
    seeds = workload.seeds(seed)
    run = stream_sim.run_experiment
    if trace:
        tracer = Tracer()
        traced_run = tracer.wrap("stream_sim.run_experiment", run)
        block, traced = [], []
        for s in seeds:
            block.append(_run_unit(checker, run, workload, s))
            with tracer.installed(layer_targets()):
                traced.append(_run_unit(checker, traced_run, workload, s))
        extras = {**_accuracies(block), "spans": tracer.spans}
        return checker, _layer_metrics(block, traced, tracer), extras

    units = []
    deadline = time.perf_counter() + seconds
    cal = [_calibrate(workload, [])]
    while len(units) < len(seeds) or time.perf_counter() + _median(_unit_seconds(units)) <= deadline:
        units.append(_run_unit(checker, run, workload, seeds[len(units) % len(seeds)]))
        cal.append(_calibrate(workload, units[-1]))
    metrics, wall = _end_to_end_metrics(units, cal)
    return checker, metrics, {**_accuracies(units[:len(seeds)]), **wall}


def _accuracies(block):
    """The first arm's mean accuracy and forgetting over the block."""
    first_arm = [unit[0][2] for unit in block if unit]
    return {
        "avg_accuracy": _mean(r.avg_accuracy for r in first_arm),
        "avg_forgetting": _mean(r.avg_forgetting for r in first_arm),
    }


def _end_to_end_metrics(units, cal):
    """Metrics from the untraced units, where ``cal[i]`` and ``cal[i + 1]``
    are the calibration times around ``units[i]``; also return the
    uncalibrated medians and the median machine speed.

    A unit's time is scaled by the mean speed on either side of it. Its
    keep-up rate comes from the engine's warm-up at the start of the first
    call, so it is scaled by the speed just before the unit.
    """
    timed = []
    for unit, before, after in zip(units, cal, cal[1:]):
        if unit:
            # speed > 1: the machine ran faster than the reference
            speed = 2 * CALIBRATION_REFERENCE_S / (before + after)
            speed_before = CALIBRATION_REFERENCE_S / before
            timed.append((statistics.fmean(call[1] for call in unit), _keepup(unit), speed, speed_before))
    metrics = {
        "run_s": _median(unit_s * speed for unit_s, _, speed, _ in timed),
        "keepup_sps": _median(keepup / speed for _, keepup, _, speed in timed),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    wall = {
        "wall_run_s": _median(unit_s for unit_s, _, _, _ in timed),
        "wall_keepup_sps": _median(keepup for _, keepup, _, _ in timed),
        "speed": _median(speed for _, _, speed, _ in timed),
    }
    return metrics, wall


def _layer_metrics(untraced, traced, tracer):
    reports = [call[2] for unit in untraced for call in unit]
    traced_reports = [call[2] for unit in traced for call in unit]
    n = max(1, sum(1 for span in tracer.spans if span[2] == "stream_sim.run_experiment"))
    # a layer the workload never reaches reports zero
    flat = {f"{name}.{kind}": 0.0 for name, *_ in layer_targets() for kind in ("calls", "self_s")}
    for name, (calls, self_s) in layer_totals(tracer.spans).items():
        flat[f"{name}.calls"] = calls / n
        flat[f"{name}.self_s"] = self_s / n
    for stage in ("selection", "train", "buffer", "eval"):
        flat[f"stream_sim.{stage}_s"] = _mean(r.stage_seconds[stage] for r in reports)
    c = tracer.counters
    flat["fingerprints.attune_gflop"] = c["fingerprints.attune_gflop"] / n
    flat["coreset.keep_ratio"] = c["coreset.kept"] / c["coreset.offered"] if c["coreset.offered"] else 0.0
    # each Retain-Drop exchange of nu draws nu batch samples and nu residents
    flat["buffer.exchanges"] = c["buffer.sampled"] / 2 / n
    flat["buffer.exchange_ratio"] = (
        c["buffer.sampled"] / 2 / c["buffer.offered_full"] if c["buffer.offered_full"] else 0.0
    )
    flat["stream_sim.retained_ratio"] = _mean(r.retained_batches / r.total_batches for r in traced_reports)
    flat["trace_overhead"] = _median(
        statistics.fmean(call[1] for call in t) / statistics.fmean(call[1] for call in u)
        for u, t in zip(untraced, traced) if u and t
    )
    # the untraced calls' wall times, not calibrated: a slowdown of the
    # whole process shows here even where calibration would hide it
    flat["wall_run_s"] = _median(_unit_seconds(untraced))
    flat["wall_keepup_sps"] = _median(_keepup(unit) for unit in untraced if unit)
    return {name: flat[name] for name, _ in PER_LAYER}


# prints the moment it is done on the system-wide monotonic clock that
# time.perf_counter reads on Linux, so interpreter teardown is not counted
_PROBE = """\
import sys
sys.path[:0] = sys.argv[1:3]
from perfbench.workloads import WORKLOADS
w = WORKLOADS[sys.argv[3]]
errors = [e for s in w.seeds(int(sys.argv[4])) for _, c in w.configs(s) for e in c.validate()]
import time
print(time.perf_counter())
sys.exit(1 if errors else 0)
"""


def setup_seconds(root, workload, seed, probes=SETUP_PROBES):
    """Median time from launching a fresh interpreter until it has imported
    streamfp (and so NumPy and SciPy) and validated every workload config."""
    root = Path(root)
    times = []
    for _ in range(probes):
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", _PROBE, str(root / "src"), str(root), workload, str(seed)],
            cwd=root, check=True, timeout=120, stdout=subprocess.PIPE, text=True,
        )
        times.append(float(done.stdout) - t0)
    return statistics.median(times)


def environment():
    """Versions and thread settings recorded with every result."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }
