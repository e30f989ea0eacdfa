"""Self-tests of the benchmark harness (not of the engine).

    python3 -m pytest -q perfbench/tests
"""

import dataclasses
import json
import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for _path in (str(ROOT), str(ROOT / "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from streamfp import buffer, fingerprints, learner, seeding, stream_sim  # noqa: E402

from perfbench import harness  # noqa: E402
from perfbench.spans import Tracer, layer_totals, self_times  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

# config overrides that shrink each workload to a smoke-test size
TINY = {
    "small": dict(dataset_size=400, eval_size=40, warmup_batches=5),
    "paper": dict(dim=32, n_fingerprints=10, eval_size=40),
    "replay": dict(batch_size=32, buffer_size=128, dataset_size=640, warmup_batches=3, eval_size=40),
}


def tiny(name):
    """The workload at smoke-test size, one engine seed per workload seed."""
    w = WORKLOADS[name]
    return dataclasses.replace(w, config={**w.config, **TINY[name]}, block=1)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_smoke_run(name):
    workload = tiny(name)
    checker, metrics, _ = harness.measure(workload, 1, 0.01, False, {})
    assert checker.attempted == len(workload.arms) and checker.failed == 0
    assert set(metrics) == {n for n, _ in harness.END_TO_END} - {"setup_s"}
    assert all(value > 0 for value in metrics.values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_traced_run_matches_untraced_and_unwraps(name):
    workload = tiny(name)
    checker, metrics, extras = harness.measure(workload, 1, 0.01, True, {})
    # the traced pass repeats every call; a parity break would count as failed
    assert checker.attempted == 2 * len(workload.arms) and checker.failed == 0
    assert list(metrics) == [n for n, _ in harness.PER_LAYER]
    assert metrics["fingerprints.attune.calls"] > 0 and metrics["trace_overhead"] > 0
    assert extras["spans"][0][2] == "stream_sim.run_experiment"
    assert learner.attune is fingerprints.attune
    assert learner.substream_indexed is seeding.substream_indexed
    assert stream_sim.update_buffer is buffer.update_buffer
    assert not hasattr(vars(learner.PrototypeModel)["init_random"].__func__, "__wrapped__")


def test_self_time_on_hand_built_span_tree():
    spans = [
        (0, -1, "root", 0.0, 10.0),
        (1, 0, "a", 1.0, 4.0),
        (2, 1, "b", 1.5, 2.5),
        (3, 1, "b", 3.0, 3.5),
        (4, 0, "c", 5.0, 9.0),
        # overlapping children of c are covered once
        (5, 4, "d", 5.0, 7.0),
        (6, 4, "d", 6.0, 8.0),
    ]
    own = self_times(spans)
    assert own == pytest.approx({0: 3.0, 1: 1.5, 2: 1.0, 3: 0.5, 4: 1.0, 5: 2.0, 6: 2.0})
    totals = layer_totals(spans)
    assert totals["b"] == (2, pytest.approx(1.5))
    assert totals["d"] == (2, pytest.approx(4.0))


def test_tracer_nests_spans_and_restores_on_error():
    owner = types.SimpleNamespace(inner=lambda x: x + 1)
    original = owner.inner
    tracer = Tracer()
    outer = tracer.wrap("outer", lambda x: owner.inner(x) * 2)
    with pytest.raises(RuntimeError):
        with tracer.installed([("inner", owner, "inner", None, None)]):
            assert outer(1) == 4
            raise RuntimeError("boom")
    assert owner.inner is original
    assert [span[:3] for span in tracer.spans] == [(0, -1, "outer"), (1, 0, "inner")]


def test_corrupted_reference_counts_as_failed():
    workload = tiny("small")
    seed = 1
    engine_seed = workload.seeds(seed)[0]
    recorded = {}
    for arm, config in workload.configs(engine_seed):
        recorded[arm] = harness.outputs(stream_sim.run_experiment(config))
    good = {workload.name: {str(engine_seed): recorded}}
    checker, _, _ = harness.measure(workload, seed, 0.01, False, good)
    assert checker.failed == 0

    bad = json.loads(json.dumps(good))
    bad[workload.name][str(engine_seed)]["streamfp"]["acc_rows"][0][0] += 0.01
    checker, _, _ = harness.measure(workload, seed, 0.01, False, bad)
    assert checker.failed == 1 and checker.failed / checker.attempted > 0


def test_calibration_scales_times_by_machine_speed():
    ref = harness.CALIBRATION_REFERENCE_S
    call = types.SimpleNamespace(batch_time_s=0.01)
    config = types.SimpleNamespace(batch_size=20)
    units = [
        [("a", 1.0, call, config), ("b", 3.0, call, config)],  # mean 2 s
        [],  # a failed unit is skipped
        [("a", 4.0, call, config), ("b", 4.0, call, config)],
    ]
    # the machine ran twice as fast as the reference before unit 0 and at
    # the reference speed from then on
    cal = [ref / 2, ref, ref, ref]
    metrics, wall = harness._end_to_end_metrics(units, cal)
    # a unit's time scales by the mean speed around it, 4/3 for unit 0
    assert metrics["run_s"] == pytest.approx((2.0 * 4 / 3 + 4.0 * 1) / 2)
    # the keep-up rate scales by the speed just before the unit
    assert metrics["keepup_sps"] == pytest.approx((2000 / 2 + 2000 / 1) / 2)
    assert wall["wall_run_s"] == pytest.approx(3.0)
    assert wall["wall_keepup_sps"] == pytest.approx(2000)
    assert wall["speed"] == pytest.approx((4 / 3 + 1) / 2)
    assert harness.calibration_seconds(0.05) > 0


def test_call_that_leaves_a_thread_running_fails():
    workload = tiny("paper")
    stop = threading.Event()

    def leaky(config):
        threading.Thread(target=stop.wait, daemon=True).start()
        return stream_sim.run_experiment(config)

    checker = harness.Checker(workload.name, {})
    (arm, config), = workload.configs(1)
    try:
        assert checker.run(leaky, 1, arm, config) is None
    finally:
        stop.set()
    assert checker.failed == 1


def test_output_invariants():
    config = WORKLOADS["small"].configs(100)[0][1]
    good = {
        "acc_rows": [[0.5], [0.5, 0.5], [0.5] * 3, [0.5] * 4, [0.5] * 5],
        "avg_accuracy": 0.5, "avg_forgetting": 0.0,
        "retained_batches": 100, "total_batches": 200,
    }
    assert harness.output_problems(config, good) == []
    assert harness.output_problems(config, {**good, "retained_batches": 99})
    assert harness.output_problems(config, {**good, "avg_accuracy": float("nan")})
    assert harness.output_problems(config, {**good, "acc_rows": good["acc_rows"][:4]})
    assert harness.output_problems(config, good, previous={**good, "avg_forgetting": 0.1})


def test_setup_probe_runs_a_fresh_interpreter():
    assert harness.setup_seconds(ROOT, "paper", 1, probes=1) > 0
