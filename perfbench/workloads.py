"""The benchmark's workloads: fixed engine configs and the seeds a run uses.

Every workload is a closed loop: one process runs one experiment at a time
on one BLAS thread. ``c_s_override`` is pinned so the retained-batch set does
not depend on timing, and ``pinned_batch_time`` stays unset so the warm-up
that every real run pays still runs. The workload seed only reaches the
engine as ``StreamConfig.seed`` of the derived engine seeds.
"""

from dataclasses import dataclass

from streamfp.stream_sim import StreamConfig

# engine seeds of workload seed s are s * SEED_STRIDE + 0 .. block - 1
SEED_STRIDE = 100


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict  # StreamConfig fields shared by every call
    arms: tuple  # ((arm name, selector, buffer_policy), ...); the first is the measured system
    block: int  # engine seeds per workload seed
    # scale call times by the calibration kernel (harness.calibration_seconds);
    # right for interpreter-bound workloads, which the machine's drift hits
    # hardest; on BLAS-bound work the kernel over-corrects
    calibrated: bool = False

    def seeds(self, seed):
        """Engine seeds derived from the workload seed, in run order."""
        if seed < 0:
            raise ValueError("workload seed must be >= 0")
        return [seed * SEED_STRIDE + i for i in range(self.block)]

    def configs(self, engine_seed):
        """(arm name, StreamConfig) for every arm, for one engine seed."""
        return [
            (arm, StreamConfig(seed=engine_seed, selector=selector,
                               buffer_policy=policy, run_id=f"{self.name}-{arm}", **self.config))
            for arm, selector, policy in self.arms
        ]


# what each workload is for: its "why" in BENCHMARK.json and perfbench/NOTES.md
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="small",
            # criterion 10's DIRECTIONAL_CONFIG without pinned_batch_time
            config=dict(
                dataset_size=4000, batch_size=20, tasks=5, n_classes=5, dim=16,
                sigma=0.5, noise_std=0.1, drift_std=0.0, outlier_fraction=0.2,
                outlier_scale=3.0, class_concentration=0.65, learning_rate=0.2,
                eval_size=400, c_s_override=2.0,
            ),
            # the baseline arm runs selection and buffer without similarity
            # scoring, so a buffer change that slows reservoir shows here
            arms=(("streamfp", "streamfp", "streamfp"), ("baseline", "random", "reservoir")),
            block=10,
            calibrated=True,
        ),
        Workload(
            name="paper",
            # 6 batches over 3 tasks, half retained; learning_rate 0.5 makes the
            # model learn in 3 steps, so accuracy measures learning, not chance
            config=dict(
                dim=768, n_fingerprints=100, fingerprint_length=4, tokens=4,
                batch_size=64, buffer_size=512, tasks=3, dataset_size=384,
                c_s_override=2.0, warmup_batches=3, learning_rate=0.5, eval_size=400,
            ),
            arms=(("streamfp", "streamfp", "streamfp"),),
            block=2,
        ),
        Workload(
            name="replay",
            config=dict(
                dim=64, n_fingerprints=8, fingerprint_length=2, tokens=2,
                batch_size=256, buffer_size=4096, dataset_size=10240,
                c_s_override=1.0, warmup_batches=20, learning_rate=0.5,
            ),
            arms=(("streamfp", "streamfp", "streamfp"),),
            block=4,
            calibrated=True,
        ),
    )
}
