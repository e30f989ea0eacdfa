"""Tests for the stream simulation: schedule, baselines, experiment driver."""

import numpy as np
import numpy.testing as npt
import pytest

from streamfp import buffer as buffer_module, core_math, fingerprints, learner, stream_sim
from streamfp.learner import EmbeddingBatch, PrototypeModel, SyntheticEmbedder
from streamfp.stream_sim import (
    CSV_COLUMNS,
    MAX_EXPERTS,
    MAX_GRAD_STEPS,
    MAX_WARMUP_BATCHES,
    StreamConfig,
    class_order_permutation,
    kcenter_coreset,
    keep_first_update,
    metrics_csv,
    random_coreset,
    relative_complexity,
    reservoir_update,
    run_experiment,
    skip_schedule,
)
from streamfp.buffer import BufferItem, RehearsalBuffer
from streamfp.seeding import substream


def tiny_config(**overrides):
    base = dict(
        dataset_size=200,
        batch_size=10,
        tasks=2,
        n_classes=4,
        dim=6,
        tokens=1,
        buffer_size=20,
        eval_size=20,
        pinned_batch_time=1e-9,
        seed=3,
    )
    base.update(overrides)
    return StreamConfig(**base)


class TestRelativeComplexity:
    def test_hand_value(self):
        # 2000 samples at lambda=1000/s -> 2 s of stream; 100 batches at
        # 0.05 s each -> 5 s of training; C_S = 2.5
        assert relative_complexity(0.05, 1000.0, 2000, 20) == pytest.approx(2.5)

    def test_below_one_when_fast(self):
        assert relative_complexity(1e-6, 1000.0, 2000, 20) < 1.0

    def test_overflow_raises(self):
        # a finite lambda and batch time whose C_S is inf would skip every batch
        with pytest.raises(ValueError, match="not finite.*lambda"):
            relative_complexity(2.0, 1.7e308, 1, 1)

    def test_positive_inputs_required(self):
        with pytest.raises(ValueError):
            relative_complexity(0.0, 1000.0, 2000, 20)
        with pytest.raises(ValueError):
            relative_complexity(0.05, -1.0, 2000, 20)


class TestSkipSchedule:
    def test_no_skipping_at_or_below_one(self):
        rng = substream(1, "s")
        npt.assert_array_equal(skip_schedule(10, 0.5, rng), np.arange(10))
        npt.assert_array_equal(skip_schedule(10, 1.0, rng), np.arange(10))

    def test_keep_count_is_ceil(self):
        rng = substream(2, "s")
        assert len(skip_schedule(100, 2.0, rng)) == 50
        assert len(skip_schedule(100, 3.0, rng)) == 34
        assert len(skip_schedule(7, 2.0, rng)) == 4

    def test_sorted_unique_in_range(self):
        rng = substream(3, "s")
        for _ in range(50):
            n = int(rng.integers(1, 200))
            c_s = float(rng.uniform(1.0, 10.0))
            kept = skip_schedule(n, c_s, rng)
            assert np.all(np.diff(kept) > 0)
            assert kept[0] >= 0 and kept[-1] < n

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            skip_schedule(0, 2.0, substream(4, "s"))


class TestBaselineSelectors:
    def test_random_coreset_size_and_range(self):
        rng = substream(5, "r")
        sel = random_coreset(20, 0.5, rng)
        assert len(sel) == 10
        assert len(set(sel.tolist())) == 10
        assert sel.min() >= 0 and sel.max() < 20

    def test_random_coreset_minimum_one(self):
        rng = substream(6, "r")
        assert len(random_coreset(5, 0.1, rng)) == 1

    def test_kcenter_covers_clusters(self):
        # two tight, well-separated clusters: the two selected centers must
        # come from different clusters
        rng = substream(7, "k")
        a = rng.standard_normal((10, 3)) * 0.01 + np.array([10.0, 0.0, 0.0])
        b = rng.standard_normal((10, 3)) * 0.01 - np.array([10.0, 0.0, 0.0])
        sel = kcenter_coreset(np.concatenate([a, b]), 0.1)
        assert len(sel) == 2
        assert (sel < 10).sum() == 1

    def test_kcenter_deterministic(self):
        rng = substream(8, "k")
        x = rng.standard_normal((30, 4))
        npt.assert_array_equal(kcenter_coreset(x, 0.3), kcenter_coreset(x, 0.3))

    def test_kcenter_token_axis_pooled(self):
        # select pools the token axis through the batch summary's token means
        rng = substream(9, "k")
        x = rng.standard_normal((12, 2, 5))
        summary = EmbeddingBatch(x, np.zeros(12, dtype=np.int64), np.arange(12)).summary()
        indices, similarity = stream_sim.select("kcenter", 0.5, summary, None, None)
        npt.assert_array_equal(indices, kcenter_coreset(x.mean(axis=1), 0.5))
        assert similarity is None

    @pytest.mark.parametrize("points,sigma", [
        # rows 1-5 coincide: after two centers every distance is 0
        (np.array([[3.0, 1.0]] + [[0.0, 0.0]] * 5), 0.5),
        (np.ones((4, 3)), 1.0),
    ], ids=["five_coincide", "all_coincide"])
    def test_kcenter_never_repeats_an_index(self, points, sigma):
        sel = kcenter_coreset(points, sigma)
        c = max(1, int(sigma * len(points)))
        assert len(sel) == c
        assert len(set(sel.tolist())) == c

    def test_kcenter_distinct_points_select_as_plain_greedy(self):
        # with distinct points the next center always has a positive
        # distance, so the greedy needs no guard against repeats
        rng = substream(11, "k")
        for n, sigma in ((30, 0.3), (17, 0.5), (8, 1.0)):
            x = rng.standard_normal((n, 4))
            d0 = np.linalg.norm(x - x.mean(axis=0), axis=1)
            selected = [int(np.argmax(d0))]
            min_dist = np.linalg.norm(x - x[selected[0]], axis=1)
            while len(selected) < max(1, int(sigma * n)):
                selected.append(int(np.argmax(min_dist)))
                min_dist = np.minimum(min_dist, np.linalg.norm(x - x[selected[-1]], axis=1))
            npt.assert_array_equal(kcenter_coreset(x, sigma), sorted(selected))

    def test_sigma_validation(self):
        with pytest.raises(ValueError):
            random_coreset(10, 0.0, substream(10, "r"))
        with pytest.raises(ValueError):
            kcenter_coreset(np.zeros((4, 2)), 1.5)


class TestBaselineBuffers:
    def _items(self, ids):
        return [BufferItem(int(i), np.zeros((1, 2)), 0, 0.0) for i in ids]

    def test_reservoir_uniform_retention(self):
        # after a long stream, every prefix position is equally likely to be
        # retained: check the retained-fraction of the first half
        trials = 2000
        kept_first_half = 0
        for t in range(trials):
            rng = substream(t, "res")
            buf = RehearsalBuffer(4)
            reservoir_update(buf, self._items(range(40)), rng)
            kept_first_half += sum(1 for it in buf.items if it.sample_id < 20)
        frac = kept_first_half / (trials * 4)
        assert abs(frac - 0.5) < 0.03

    def test_reservoir_counts(self):
        rng = substream(11, "res")
        buf = RehearsalBuffer(5)
        reservoir_update(buf, self._items(range(17)), rng)
        assert len(buf) == 5
        assert buf.n_seen == 17

    def test_keep_first(self):
        buf = RehearsalBuffer(3)
        keep_first_update(buf, self._items(range(10)))
        assert [it.sample_id for it in buf.items] == [0, 1, 2]
        assert buf.n_seen == 10


class TestClassOrder:
    def test_permutation_property(self):
        for order_id in range(1, 6):
            perm = class_order_permutation(order_id, 10)
            assert sorted(perm.tolist()) == list(range(10))

    def test_orders_differ(self):
        perms = {tuple(class_order_permutation(i, 10)) for i in range(1, 6)}
        assert len(perms) == 5

    def test_reproducible(self):
        npt.assert_array_equal(
            class_order_permutation(3, 8), class_order_permutation(3, 8)
        )


class TestStreamConfigValidate:
    def test_default_is_valid(self):
        assert StreamConfig().validate() == []

    def test_collects_all_errors(self):
        cfg = StreamConfig(lam=-1.0, sigma=2.0, selector="magic",
                           buffer_size=0, n_classes=2, tasks=5)
        errors = cfg.validate()
        assert len(errors) >= 5
        joined = "\n".join(errors)
        for word in ("lambda", "sigma", "selector", "buffer_size", "n_classes"):
            assert word in joined

    @pytest.mark.parametrize("change, key", [
        (dict(lam=float("nan")), "lambda"),
        (dict(learning_rate=float("inf")), "learning_rate"),
        (dict(seed=1.5), "seed"),
        (dict(grad_steps=True), "K"),
        (dict(selector=3), "selector"),
        (dict(dim="16"), "dim"),
        (dict(tasks=None), "tasks"),
        (dict(c_s_override=0.0), "c_s_override"),
        (dict(noise_std=-0.1), "noise_std"),
        (dict(fingerprint_length=3), "fingerprint_length"),
        (dict(lam=1e300, pinned_batch_time=1e300), "lambda"),
        # float64 arrays far beyond any machine's memory
        (dict(dim=10**9), "dim"),
        (dict(eval_size=10**13), "dim"),
        (dict(warmup_batches=0), "warmup_batches"),
        (dict(warmup_batches=MAX_WARMUP_BATCHES + 1), "warmup_batches"),
        (dict(warmup_batches=10**11), "warmup_batches"),
    ])
    def test_rejects_bad_types_and_ranges(self, change, key):
        errors = StreamConfig(**change).validate()
        assert len(errors) == 1
        assert f"`{key}`" in errors[0]

    def test_warmup_batches_bound(self):
        assert StreamConfig(warmup_batches=MAX_WARMUP_BATCHES).validate() == []
        errors = StreamConfig(warmup_batches=MAX_WARMUP_BATCHES + 1).validate()
        assert errors == [f"key `warmup_batches`: must be in [1, {MAX_WARMUP_BATCHES}], "
                          f"got {MAX_WARMUP_BATCHES + 1}"]

    def test_grad_steps_bound(self):
        assert StreamConfig(grad_steps=MAX_GRAD_STEPS).validate() == []
        for bad in (0, MAX_GRAD_STEPS + 1, 10**12):
            assert StreamConfig(grad_steps=bad).validate() == [
                f"key `K` (grad_steps): must be in [1, {MAX_GRAD_STEPS}], got {bad}"]

    def test_num_experts_bound(self):
        assert StreamConfig(num_experts=MAX_EXPERTS).validate() == []
        for bad in (0, MAX_EXPERTS + 1, 10**6):
            assert StreamConfig(num_experts=bad).validate() == [
                f"key `num_experts`: must be in [1, {MAX_EXPERTS}], got {bad}"]

    def test_memory_estimate_against_physical_memory(self, monkeypatch):
        # paper shape: 2*R*D^2 bank, the 85 eval samples of one summary row
        # block (2**18 // (L*D)) + 512 buffered + 64 in the batch + 31*64 in
        # the 31 held warm-up batches (2000 // 64 batches, fewer than the 50
        # warm-up batches) of L*D floats each, the 3*400 eval summaries of
        # 2*D floats, the buffer's 512 unit-token sums of D floats, an
        # (N, L_p, D) pool, the R*N*(L_p+1)*D attunement cache and one
        # expert's (N, L_p, D) pre-activations (N*L_p*D exceeds an ndtr block)
        cfg = StreamConfig(dim=768, tokens=4, n_fingerprints=100, fingerprint_length=4,
                           batch_size=64, buffer_size=512, tasks=3, eval_size=400)
        need = 8 * (2 * 3 * 768**2 + (85 + 512 + 64 + 31 * 64) * 4 * 768
                    + 3 * 400 * 2 * 768 + 512 * 768 + 100 * 4 * 768 + 3 * 100 * 5 * 768
                    + 100 * 4 * 768)
        monkeypatch.setattr(stream_sim, "_physical_memory_bytes", lambda: need)
        assert cfg.validate() == []
        monkeypatch.setattr(stream_sim, "_physical_memory_bytes", lambda: need - 1)
        errors = cfg.validate()
        assert len(errors) == 1 and "`dim`" in errors[0] and "physical memory" in errors[0]
        # where the platform does not tell, nothing is rejected
        monkeypatch.setattr(stream_sim, "_physical_memory_bytes", lambda: None)
        assert StreamConfig(dim=10**9).validate() == []

    @pytest.mark.parametrize("patch", ["row block", "expert group"])
    def test_memory_estimate_follows_the_allocators_block_sizes(self, monkeypatch, patch):
        # D=256, N=16, L_p=2, 4 tokens: one expert per group (N*L_p*D is one
        # ndtr block) and eval row blocks of 256 rows; patched, the summary
        # holds a whole 600-row set and attune runs all 3 experts at once,
        # and the estimate's eval-set and pre-activation terms must follow
        cfg = StreamConfig(dim=256, n_fingerprints=16, fingerprint_length=2, tokens=4,
                           eval_size=600, tasks=3, num_experts=3, pinned_batch_time=1e-9)

        def accepted(memory):
            monkeypatch.setattr(stream_sim, "_physical_memory_bytes", lambda: memory)
            return cfg.validate() == []

        # the estimate in bytes: the least memory the config is accepted with
        lo, hi = 0, 2**40
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if accepted(mid) else (mid, hi)
        if patch == "row block":
            monkeypatch.setattr(learner, "SUMMARY_BLOCK", 600 * 4 * 256)
            extra = (600 - 256) * 4 * 256
        else:
            monkeypatch.setattr(fingerprints, "_NDTR_BLOCK", 3 * 8192)
            extra = (3 - 1) * 16 * 2 * 256
        assert accepted(hi + 8 * extra) and not accepted(hi + 8 * extra - 1)

    def test_memory_estimate_counts_held_warmup_batches(self, monkeypatch):
        # the warm-up holds min(warmup_batches, batches) stream batches; a
        # pinned batch time runs no warm-up, so it holds none
        fields = dict(dim=256, tokens=8, batch_size=1000, dataset_size=40000,
                      warmup_batches=30, buffer_size=1, eval_size=1)
        held = 8 * 30 * 1000 * 8 * 256
        monkeypatch.setattr(stream_sim, "_physical_memory_bytes", lambda: held)
        errors = StreamConfig(**fields).validate()
        assert len(errors) == 1 and "held warm-up batches" in errors[0]
        assert StreamConfig(pinned_batch_time=1e-9, **fields).validate() == []
        # fewer batches than warm-up batches: each is held once
        assert StreamConfig(**{**fields, "dataset_size": 10000}).validate() == []

    def test_memory_estimate_counts_attunement_cache(self, monkeypatch):
        # many experts over many short fingerprints: the (R, N, L_p, D) GELU
        # slope and (R, N, D) sums of the attunement cache dominate
        cfg = StreamConfig(lam=6028, seed=1, num_experts=64, n_fingerprints=400000,
                           fingerprint_length=2, dim=16)
        cache = 8 * 64 * 400000 * 3 * 16
        # between the estimate without the cache and the one with it
        monkeypatch.setattr(stream_sim, "_physical_memory_bytes", lambda: cache)
        errors = cfg.validate()
        assert len(errors) == 1 and "attunement cache" in errors[0]

    def test_memory_error_names_the_keys_of_the_largest_term(self, monkeypatch):
        # D = 16 is small; the attunement cache R*N*(L_p+1)*D is what does
        # not fit, so the error names its keys and not `dim` alone
        cfg = StreamConfig(lam=6028, seed=1, num_experts=64, n_fingerprints=400000,
                           fingerprint_length=2, dim=16)
        monkeypatch.setattr(stream_sim, "_physical_memory_bytes", lambda: 8 * 2**30)
        errors = cfg.validate()
        assert len(errors) == 1
        assert errors[0].startswith(
            "keys `num_experts`, `n_fingerprints`, `fingerprint_length`, `dim`: ")
        assert "largest term is the attunement cache" in errors[0]
        # the largest term of a wide model is its MLP bank
        cfg = StreamConfig(num_experts=2, dim=40000)
        errors = cfg.validate()
        assert len(errors) == 1 and errors[0].startswith("keys `num_experts`, `dim`: ")

    def test_run_experiment_rejects_invalid(self):
        with pytest.raises(ValueError, match="sigma"):
            run_experiment(tiny_config(sigma=0.0))


class TestRunExperiment:
    def test_deterministic_given_seed(self):
        r1 = run_experiment(tiny_config())
        r2 = run_experiment(tiny_config())
        assert r1.acc_rows == r2.acc_rows
        assert r1.avg_accuracy == r2.avg_accuracy
        assert r1.avg_forgetting == r2.avg_forgetting

    def test_triangular_accuracy_matrix(self):
        report = run_experiment(tiny_config(tasks=3, dataset_size=300))
        assert [len(row) for row in report.acc_rows] == [1, 2, 3]
        for row in report.acc_rows:
            for a in row:
                assert 0.0 <= a <= 1.0

    def test_skipping_halves_retained_batches(self):
        report = run_experiment(tiny_config(c_s_override=2.0))
        assert report.total_batches == 20
        assert report.retained_batches == 10

    def test_lower_ratio_keeps_all_batches(self):
        report = run_experiment(
            tiny_config(c_s_override=2.0, skip_mode="lower_ratio")
        )
        assert report.retained_batches == report.total_batches

    def test_all_selector_buffer_combinations_run(self):
        for selector in ("streamfp", "random", "kcenter", "none"):
            for policy in ("streamfp", "reservoir", "keep_first", "none"):
                report = run_experiment(
                    tiny_config(dataset_size=100, selector=selector,
                                buffer_policy=policy, eval_size=10)
                )
                assert np.isfinite(report.avg_accuracy)

    def test_learning_beats_chance(self):
        # mild setting: accuracy after training should clear 1/n_classes
        report = run_experiment(
            tiny_config(dataset_size=400, learning_rate=0.1, noise_std=0.1,
                        drift_std=0.0, eval_size=50)
        )
        assert report.avg_accuracy > 0.25 + 0.1

    def test_row_blocks_and_expert_groups_change_no_output(self, monkeypatch):
        # one expert per group (N*L_p*D = 8192, one ndtr block) and eval sets
        # summarized in blocks of 256, 256 and 88 rows, against every expert
        # in one group and each set in one block
        cfg = tiny_config(dim=256, n_fingerprints=16, fingerprint_length=2, tokens=4,
                          eval_size=600, tasks=3, dataset_size=60, n_classes=6)
        blocked = run_experiment(cfg)
        monkeypatch.setattr(learner, "SUMMARY_BLOCK", 600 * 4 * 256)
        monkeypatch.setattr(fingerprints, "_NDTR_BLOCK", 3 * 8192)
        whole = run_experiment(cfg)
        assert blocked.acc_rows == whole.acc_rows
        assert blocked.avg_forgetting == whole.avg_forgetting

    def test_pinned_timing_figures(self):
        report = run_experiment(tiny_config(c_s_override=1.0))
        assert report.c_s == 1.0
        assert report.retained_batches == report.total_batches


# run outputs with the warm-up on and C_S pinned, recorded when the warm-up
# still trained a model of its own (own init substream, own MLP bank). The
# warm-up's draws shape every output here (a pinned run differs), but its
# model's values must reach none.
GOLDEN_UNPINNED = [
    (dict(dataset_size=200, batch_size=10, tasks=2, n_classes=4, dim=8, tokens=2,
          buffer_size=20, eval_size=50, seed=3, c_s_override=2.0, warmup_batches=6,
          outlier_fraction=0.2, outlier_scale=3.0, learning_rate=0.3),
     [[0.82], [0.8, 0.44]], 0.62),
    (dict(dataset_size=300, batch_size=12, tasks=3, n_classes=6, dim=16, tokens=1,
          n_fingerprints=5, fingerprint_length=4, num_experts=2, buffer_size=30,
          eval_size=40, seed=11, c_s_override=1.0, warmup_batches=30,
          class_concentration=0.5, learning_rate=0.5, grad_steps=2),
     [[0.85], [0.65, 0.9], [0.65, 0.25, 0.9]], 0.6),
]


class TestWarmup:
    @pytest.mark.parametrize("fields, acc_rows, avg_accuracy", GOLDEN_UNPINNED)
    def test_unpinned_outputs_match_recorded(self, fields, acc_rows, avg_accuracy):
        report = run_experiment(StreamConfig(**fields))
        assert report.acc_rows == acc_rows
        assert report.avg_accuracy == avg_accuracy

    def test_unpinned_run_builds_one_model(self, monkeypatch):
        # the warm-up trains a copy of the run's model, so a run pays for
        # one frozen MLP bank
        calls = []
        init_random = PrototypeModel.init_random

        def counting(*args, **kwargs):
            calls.append(1)
            return init_random(*args, **kwargs)

        monkeypatch.setattr(PrototypeModel, "init_random", counting)
        run_experiment(StreamConfig(**GOLDEN_UNPINNED[0][0]))
        assert len(calls) == 1

    @staticmethod
    def runners(monkeypatch, pinned_batch_time):
        """The (model, rngs) of each BatchRunner that a GOLDEN_UNPINNED run
        builds, in order."""
        built, runner = [], stream_sim.BatchRunner

        def recording(config, model, rngs):
            built.append((model, rngs))
            return runner(config, model, rngs)

        monkeypatch.setattr(stream_sim, "BatchRunner", recording)
        run_experiment(StreamConfig(**{**GOLDEN_UNPINNED[0][0],
                                       "pinned_batch_time": pinned_batch_time}))
        return built

    def test_unpinned_warmup_draws_from_the_runs_generators(self, monkeypatch):
        # the coupling that GOLDEN_UNPINNED records: the warm-up's runner
        # trains a copy of the model on the run's own three generators
        (warm_model, warm_rngs), (model, rngs) = self.runners(monkeypatch, None)
        assert warm_model is not model
        assert len(rngs) == len({id(rng) for rng in rngs}) == 3
        assert all(isinstance(rng, np.random.Generator) for rng in rngs)
        assert all(warm is rng for warm, rng in zip(warm_rngs, rngs, strict=True))

    def test_pinned_run_builds_one_runner(self, monkeypatch):
        assert len(self.runners(monkeypatch, 1e-9)) == 1


class TestWarmupBatchReuse:
    """The main loop runs the stream batches that the warm-up embedded, so
    an un-pinned run embeds each stream batch once."""

    @staticmethod
    def spy(monkeypatch):
        calls = []
        embed = SyntheticEmbedder.embed

        def spying(self, task, sample_indices):
            calls.append((task, int(np.asarray(sample_indices)[0])))
            return embed(self, task, sample_indices)

        monkeypatch.setattr(SyntheticEmbedder, "embed", spying)
        return calls

    def test_every_batch_embedded_once_at_c_s_1(self, monkeypatch):
        # 20 stream batches, the first 6 embedded by the warm-up, plus one
        # eval set per task
        calls = self.spy(monkeypatch)
        cfg = StreamConfig(**{**GOLDEN_UNPINNED[0][0], "c_s_override": 1.0})
        report = run_experiment(cfg)
        assert report.retained_batches == report.total_batches == 20
        assert len(calls) == 20 + cfg.tasks
        assert len(set(calls)) == len(calls)

    @pytest.mark.parametrize("warmup_batches", [6, 45])
    def test_no_batch_embedded_twice(self, monkeypatch, warmup_batches):
        # at C_S = 2 the warm-up embeds batches the run skips; with more
        # warm-up batches than stream batches it cycles over all 20
        calls = self.spy(monkeypatch)
        cfg = StreamConfig(**{**GOLDEN_UNPINNED[0][0], "warmup_batches": warmup_batches})
        report = run_experiment(cfg)
        assert report.retained_batches == 10
        # 10 batches per task; batch i of a task starts at sample 10 * i
        embedded = [task * 10 + start // 10 for task, start in calls
                    if start < cfg.dataset_size]
        retained = skip_schedule(20, 2.0, substream(cfg.seed, "skip")).tolist()
        assert sorted(embedded) == sorted(set(range(min(warmup_batches, 20))) | set(retained))
        assert len(calls) == len(embedded) + cfg.tasks

    def test_eval_set_embedded_at_its_tasks_first_checkpoint(self, monkeypatch):
        # after the warm-up, each task's stream batches and then its eval set
        calls = self.spy(monkeypatch)
        cfg = StreamConfig(**{**GOLDEN_UNPINNED[0][0], "c_s_override": 1.0})
        run_experiment(cfg)
        main_loop = calls[cfg.warmup_batches:]
        eval_start = cfg.dataset_size + 1_000_000
        tasks = [(task, start >= eval_start) for task, start in main_loop]
        assert tasks == [(0, False)] * 4 + [(0, True)] + [(1, False)] * 10 + [(1, True)]


# run outputs of every selector x buffer policy at skip_batches, and one
# lower_ratio run, recorded before the driver shared its batch plan and
# selector dispatch. 10 batches over 3 tasks: the last task takes the
# remainder (batches 6-9), and seed 7 retains batches 0, 3, 4, 6 and 9.
GOLDEN_BASE = dict(dataset_size=100, batch_size=10, tasks=3, n_classes=6, dim=6, tokens=2,
                   buffer_size=20, eval_size=40, pinned_batch_time=1e-9, c_s_override=2.0,
                   learning_rate=0.3, seed=7)
GOLDEN_COMBINATIONS = [
    ("streamfp", "streamfp", [[1.0], [1.0, 0.85], [1.0, 0.8, 0.7]], 0.8333333333333334, 0.024999999999999967, 5),
    ("streamfp", "reservoir", [[1.0], [1.0, 0.85], [1.0, 0.95, 0.75]], 0.9, -0.04999999999999999, 5),
    ("streamfp", "keep_first", [[1.0], [1.0, 0.85], [1.0, 0.875, 0.525]], 0.7999999999999999, -0.012500000000000011, 5),
    ("streamfp", "none", [[1.0], [0.95, 1.0], [0.5, 0.975, 1.0]], 0.8250000000000001, 0.2625, 5),
    ("random", "streamfp", [[1.0], [1.0, 0.825], [1.0, 0.775, 0.5]], 0.7583333333333333, 0.024999999999999967, 5),
    ("random", "reservoir", [[1.0], [1.0, 0.825], [1.0, 0.9, 0.55]], 0.8166666666666668, -0.03750000000000003, 5),
    ("random", "keep_first", [[1.0], [1.0, 0.825], [1.0, 0.775, 0.5]], 0.7583333333333333, 0.024999999999999967, 5),
    ("random", "none", [[1.0], [0.95, 1.0], [0.575, 0.8, 1.0]], 0.7916666666666666, 0.3125, 5),
    ("kcenter", "streamfp", [[1.0], [1.0, 0.85], [1.0, 0.95, 0.55]], 0.8333333333333334, -0.04999999999999999, 5),
    ("kcenter", "reservoir", [[1.0], [1.0, 0.85], [1.0, 0.975, 0.525]], 0.8333333333333334, -0.0625, 5),
    ("kcenter", "keep_first", [[1.0], [1.0, 0.85], [1.0, 0.9, 0.425]], 0.7749999999999999, -0.025000000000000022, 5),
    ("kcenter", "none", [[1.0], [0.8, 1.0], [0.325, 0.95, 1.0]], 0.7583333333333333, 0.36250000000000004, 5),
    ("none", "streamfp", [[1.0], [1.0, 0.875], [1.0, 1.0, 0.2]], 0.7333333333333334, -0.0625, 5),
    ("none", "reservoir", [[1.0], [1.0, 0.875], [1.0, 1.0, 0.2]], 0.7333333333333334, -0.0625, 5),
    ("none", "keep_first", [[1.0], [1.0, 0.875], [1.0, 0.975, 0.1]], 0.6916666666666668, -0.04999999999999999, 5),
    ("none", "none", [[1.0], [0.925, 1.0], [0.45, 0.9, 1.0]], 0.7833333333333333, 0.325, 5),
]
GOLDEN_LOWER_RATIO = ([[1.0], [1.0, 0.65], [1.0, 0.55, 0.8]], 0.7833333333333333, 0.04999999999999999, 10)


class TestSelectorBufferGolden:
    @pytest.mark.parametrize(
        "selector, policy, acc_rows, avg_accuracy, avg_forgetting, retained",
        GOLDEN_COMBINATIONS, ids=[f"{s}-{p}" for s, p, *_ in GOLDEN_COMBINATIONS])
    def test_outputs_match_recorded(self, selector, policy, acc_rows, avg_accuracy,
                                    avg_forgetting, retained):
        report = run_experiment(
            StreamConfig(selector=selector, buffer_policy=policy, **GOLDEN_BASE))
        assert report.acc_rows == acc_rows
        assert report.avg_accuracy == avg_accuracy
        assert report.avg_forgetting == avg_forgetting
        assert (report.retained_batches, report.total_batches) == (retained, 10)

    def test_lower_ratio_matches_recorded(self):
        report = run_experiment(StreamConfig(skip_mode="lower_ratio", **GOLDEN_BASE))
        acc_rows, avg_accuracy, avg_forgetting, retained = GOLDEN_LOWER_RATIO
        assert report.acc_rows == acc_rows
        assert report.avg_accuracy == avg_accuracy
        assert report.avg_forgetting == avg_forgetting
        assert (report.retained_batches, report.total_batches) == (retained, 10)


class TestRowsNormalizedOnce:
    """A run normalizes each retained stream batch's tokens once, in its
    summary, and each eval set's once; training, selection, the
    post-training rescoring and the buffer read those summaries. The buffer
    stores the unit-token sums of the summary with the rows it writes, so it
    normalizes nothing."""

    @pytest.mark.parametrize("selector, policy", [(s, p) for s, p, *_ in GOLDEN_COMBINATIONS],
                             ids=[f"{s}-{p}" for s, p, *_ in GOLDEN_COMBINATIONS])
    def test_rows_normalized(self, monkeypatch, selector, policy):
        rows = {"engine": 0, "buffer": 0}

        def counting(owner, key):
            wrapped = owner.unit_token_sums

            def count(emd):
                rows[key] += len(emd)
                return wrapped(emd)

            monkeypatch.setattr(owner, "unit_token_sums", count)

        counting(core_math, "engine")
        counting(learner, "engine")
        counting(buffer_module, "buffer")
        cfg = StreamConfig(selector=selector, buffer_policy=policy, **GOLDEN_BASE)
        report = run_experiment(cfg)
        assert report.retained_batches == 5
        assert rows["engine"] == 5 * cfg.batch_size + cfg.tasks * cfg.eval_size
        assert rows["buffer"] == 0


class TestResidentScoring:
    """The driver scores the residents, the one use it makes of
    ``RehearsalBuffer.unit_token_sums``, only for an offer that overflows a
    non-empty buffer, the one offer whose exchange ranks them. A selector
    that scores nothing still has the batch scored after training."""

    @staticmethod
    def events(monkeypatch, cfg):
        """The run's trace, one letter per event: ``t`` a training step, ``s``
        a similarity scoring, ``r`` a read of the residents' sums, and a
        Retain-Drop offer that overflows a non-empty buffer ``o``, else ``f``."""
        log = []

        def wrap(owner, name, event):
            wrapped = getattr(owner, name)

            def logged(*args, **kwargs):
                log.append(event(*args) if callable(event) else event)
                return wrapped(*args, **kwargs)

            monkeypatch.setattr(owner, name, logged)

        def offer(buffer, batch, *_):
            return "o" if len(buffer) and len(batch) > buffer.capacity - len(buffer) else "f"

        wrap(stream_sim, "train_step", "t")
        wrap(stream_sim, "sum_similarity", "s")
        wrap(RehearsalBuffer, "unit_token_sums", "r")
        wrap(stream_sim, "update_buffer", offer)
        report = run_experiment(cfg)
        assert report.retained_batches == 5
        return "".join(log)

    @pytest.mark.parametrize("buffer_size, overflows", [(20, 3), (50, 0)],
                             ids=["fills", "never-fills"])
    def test_residents_read_once_per_overflowing_offer(self, monkeypatch, buffer_size, overflows):
        cfg = StreamConfig(**{**GOLDEN_BASE, "buffer_size": buffer_size})
        log = self.events(monkeypatch, cfg)
        assert log.count("o") == overflows and log.count("f") == 5 - overflows
        assert log.count("r") == overflows
        # streamfp scores the batch as it selects, before training
        assert log == "stf" * (5 - overflows) + "strso" * overflows

    def test_kcenter_rescores_the_batch_after_training(self, monkeypatch):
        log = self.events(monkeypatch, StreamConfig(selector="kcenter", **GOLDEN_BASE))
        assert log == "tsf" * 2 + "tsrso" * 3


class TestMetricsCsv:
    def test_header_and_row(self):
        cfg = tiny_config(run_id="demo")
        report = run_experiment(cfg)
        text = metrics_csv([(report, cfg)])
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        row = lines[1].split(",")
        assert len(row) == len(CSV_COLUMNS)
        assert row[0] == "demo"
        assert row[CSV_COLUMNS.index("seed")] == "3"
        assert float(row[CSV_COLUMNS.index("avg_accuracy")]) == pytest.approx(
            report.avg_accuracy, abs=1e-6
        )
