"""Tests for the surrogate learner: embedder, model, metrics."""

import hashlib
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from streamfp import learner, stream_sim
from streamfp.fingerprints import AttunementParams, FingerprintPool
from streamfp.core_math import (
    NORM_EPS,
    batch_similarity,
    sum_similarity,
    token_means,
    unit_token_sums,
)
from streamfp.learner import (
    BatchSummary,
    EmbeddingBatch,
    PrototypeModel,
    SyntheticEmbedder,
    average_accuracy,
    average_forgetting,
    evaluate,
    forward_loss,
    loss_gradients,
    train_step,
)
from streamfp.buffer import RehearsalBuffer, keep_first_update
from streamfp.seeding import substream
from test_fingerprints import per_expert_backward, reference_attune, reference_attune_backward


def small_model(seed=1, n_classes=3, dim=4, lr=0.1):
    return PrototypeModel.init_random(
        n_classes=n_classes, dim=dim, pool_count=2, pool_length=2,
        num_experts=2, rng=substream(seed, "model"), learning_rate=lr,
    )


def random_batch(seed, b=6, tokens=2, dim=4, n_classes=3):
    rng = substream(seed, "batch")
    return EmbeddingBatch(
        rng.standard_normal((b, tokens, dim)),
        rng.integers(0, n_classes, size=b),
        np.arange(b),
    )


class TestSyntheticEmbedder:
    def test_deterministic_per_index(self):
        emb = SyntheticEmbedder(seed=3, n_classes=6, dim=5, tokens=2, n_tasks=3)
        a = emb.embed(1, [4, 9])
        b = emb.embed(1, [4, 9])
        npt.assert_array_equal(a.embeddings, b.embeddings)
        npt.assert_array_equal(a.labels, b.labels)
        # a different index produces a different sample
        c = emb.embed(1, [5])
        assert not np.array_equal(a.embeddings[0], c.embeddings[0])

    def test_task_classes_partition(self):
        emb = SyntheticEmbedder(seed=4, n_classes=7, dim=3, tokens=1, n_tasks=3)
        seen = []
        for t in range(3):
            seen.extend(emb.task_classes(t).tolist())
        assert sorted(seen) == list(range(7))

    def test_labels_match_task_classes(self):
        emb = SyntheticEmbedder(seed=5, n_classes=6, dim=4, tokens=2, n_tasks=2)
        batch = emb.embed(0, np.arange(40))
        assert set(batch.labels.tolist()) <= set(emb.task_classes(0).tolist())

    def test_outliers_get_any_label(self):
        emb = SyntheticEmbedder(seed=6, n_classes=6, dim=4, tokens=1, n_tasks=2,
                                outlier_fraction=0.99)
        batch = emb.embed(0, np.arange(200))
        assert len(set(batch.labels.tolist())) > len(emb.task_classes(0))

    def test_outlier_scale_changes_norm(self):
        base = SyntheticEmbedder(seed=7, n_classes=4, dim=8, tokens=1, n_tasks=2,
                                 outlier_fraction=0.99)
        big = SyntheticEmbedder(seed=7, n_classes=4, dim=8, tokens=1, n_tasks=2,
                                outlier_fraction=0.99, outlier_scale=3.0)
        nb = np.linalg.norm(base.embed(0, np.arange(50)).embeddings, axis=(1, 2))
        ng = np.linalg.norm(big.embed(0, np.arange(50)).embeddings, axis=(1, 2))
        assert ng.mean() == pytest.approx(3 * nb.mean(), rel=1e-9)

    def test_dominant_fraction_duplicates(self):
        emb = SyntheticEmbedder(seed=8, n_classes=4, dim=6, tokens=1, n_tasks=2,
                                noise_std=0.2, dominant_fraction=0.99)
        batch = emb.embed(0, np.arange(60))
        cls0 = emb.task_classes(0)[0]
        dom = batch.labels == cls0
        assert dom.mean() > 0.9
        # near-duplicates: tiny spread around the class mean
        spread = batch.embeddings[dom].std(axis=0).mean()
        assert spread < 0.05

    def test_class_order_validation(self):
        with pytest.raises(ValueError):
            SyntheticEmbedder(seed=1, n_classes=4, dim=2, tokens=1, n_tasks=2,
                              class_order=[0, 1, 2, 2])

    def test_ids_unique_across_tasks(self):
        emb = SyntheticEmbedder(seed=9, n_classes=4, dim=2, tokens=1, n_tasks=2)
        a = emb.embed(0, np.arange(10))
        b = emb.embed(1, np.arange(10))
        assert not set(a.sample_ids.tolist()) & set(b.sample_ids.tolist())


def _digest(a):
    return hashlib.sha256(a.tobytes()).hexdigest()[:16]


class TestSyntheticEmbedderGolden:
    """SHA-256 digests of embedder outputs, recorded from the per-sample
    ``SeedSequence`` implementation; any change to a drawn bit shows here."""

    BASE = dict(seed=11, n_classes=7, dim=5, tokens=3, n_tasks=3)
    # name: (embedder overrides, task, indices, digests of emb, labels, ids)
    CASES = {
        "plain": ({}, 0, np.arange(20),
                  ("869dd4f5f451420f", "3555dcdef3892f52", "f5c4cb24f4c9b43e")),
        "outliers": ({"outlier_fraction": 0.3, "outlier_scale": 2.5}, 0, np.arange(20),
                     ("94a3e182ede9a113", "d32f4d1e8f429b40", "f5c4cb24f4c9b43e")),
        "dominant": ({"dominant_fraction": 0.3}, 1, np.arange(20),
                     ("dc86eb017bcaa920", "b0804bd0d37ce50d", "7e8363c6bb40e852")),
        "outliers_and_dominant": (
            {"outlier_fraction": 0.2, "dominant_fraction": 0.3}, 1, np.arange(30),
            ("a4908af0be199b09", "9bc63d9ff670c06b", "eaa0446f51cdda2c")),
        "concentration_and_drift": (
            {"class_concentration": 0.6, "drift_std": 0.5, "noise_std": 0.3}, 1,
            np.arange(20),
            ("32256839a90d67d1", "8338c326c78aadfd", "7e8363c6bb40e852")),
        # 7 classes over 3 tasks: the last task holds the remainder (3 classes)
        "last_task_remainder": ({"class_order": [3, 6, 0, 5, 1, 4, 2]}, 2, np.arange(20),
                                ("434b8fb08fe1d691", "6032fc78aafae3a4", "7cbace08d5ae582a")),
        "unsorted_repeated": (
            {"outlier_fraction": 0.4, "dominant_fraction": 0.4}, 0, [9, 2, 9, 0, 5, 2],
            ("4d7b5b18fbfc304f", "7e62dd168f9c6026", "1ed9bc7f0233037c")),
        "two_word_indices": ({}, 1, [2**32 - 1, 2**32, 2**40 + 3, 7],
                             ("1ed9a68d1e09cc0a", "e9d07f8fd2413ff8", "f2f697dd152032b0")),
        "single": ({}, 0, [123456],
                   ("a894c493d47b153b", "af5570f5a1810b7a", "87a676dd8ef682e2")),
        "empty": ({}, 0, [],
                  ("e3b0c44298fc1c14", "e3b0c44298fc1c14", "e3b0c44298fc1c14")),
        "paper_shape": ({"n_classes": 100, "n_tasks": 10, "dim": 768, "tokens": 4}, 3,
                        np.arange(8),
                        ("2889ad20116a7a53", "38c2bb1364af1272", "ead8460b1ec66280")),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_outputs_match_recorded_digests(self, name):
        overrides, task, indices, digests = self.CASES[name]
        config = {**self.BASE, **overrides}
        batch = SyntheticEmbedder(**config).embed(task, indices)
        assert batch.embeddings.shape == (len(indices), config["tokens"], config["dim"])
        assert batch.embeddings.dtype == np.float64
        assert batch.labels.dtype == batch.sample_ids.dtype == np.int64
        got = tuple(_digest(a) for a in (batch.embeddings, batch.labels, batch.sample_ids))
        assert got == digests


class TestForwardLoss:
    def test_uniform_logits_loss(self):
        # zero prototypes -> all logits equal -> loss = ln(K_cls)
        model = small_model(n_classes=5)
        model.prototypes[:] = 0.0
        batch = random_batch(13, n_classes=5)
        loss, logits = forward_loss(model, batch)
        assert loss == pytest.approx(np.log(5))
        npt.assert_allclose(logits, 0.0, atol=1e-12)

    def test_label_out_of_range(self):
        model = small_model(n_classes=3)
        batch = random_batch(14, n_classes=3)
        batch.labels[0] = 7
        with pytest.raises(ValueError):
            forward_loss(model, batch)

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_gradient_path_rejects_label_out_of_range(self, bad):
        # -1 would index the last class, 3 (= K) past the prototype set
        model = small_model(n_classes=3)
        batch = random_batch(14, n_classes=3)
        batch.labels[0] = bad
        with pytest.raises(ValueError, match="label out of range"):
            loss_gradients(model, batch)
        before = model.prototypes.copy()
        with pytest.raises(ValueError, match="label out of range"):
            train_step(model, batch)
        npt.assert_array_equal(model.prototypes, before)

    def test_loss_decreases_under_training(self):
        model = small_model(seed=15, lr=0.2)
        batch = random_batch(15)
        loss0, _ = forward_loss(model, batch)
        for _ in range(30):
            train_step(model, batch)
        loss1, _ = forward_loss(model, batch)
        assert loss1 < loss0

    def test_gradients_match_finite_differences(self):
        model = small_model(seed=16)
        batch = random_batch(16, b=4)
        _, g_proto, g_pool, g_gate = loss_gradients(model, batch)

        def loss():
            value, _ = forward_loss(model, batch)
            return value

        h = 1e-6
        for param, grad in ((model.prototypes, g_proto),
                            (model.pool.weights, g_pool),
                            (model.attn.gate, g_gate)):
            it = np.nditer(param, flags=["multi_index"])
            while not it.finished:
                ix = it.multi_index
                orig = param[ix]
                param[ix] = orig + h
                up = loss()
                param[ix] = orig - h
                down = loss()
                param[ix] = orig
                fd = (up - down) / (2 * h)
                assert grad[ix] == pytest.approx(fd, abs=1e-6, rel=1e-4)
                it.iternext()


def token_reference_attune(pool, params, *, with_cache=False):
    """attune through the per-token reference: attune each token, then sum."""
    out = reference_attune(pool, params).sum(axis=1)
    return (out, None) if with_cache else out


def token_reference_attune_backward(pool, params, upstream, cache):
    """attune_backward through the per-token reference, the (N, D) upstream
    reaching every token of a fingerprint alike."""
    tokens_upstream = np.repeat(upstream[:, None, :], pool.length, axis=1)
    return reference_attune_backward(pool, params, tokens_upstream)


class TestLossGradientsGolden:
    """SHA-256 digests of ``loss_gradients`` outputs. The losses were
    recorded while ``loss_gradients`` still scored the batch through
    ``batch_similarity``; the gradient digests since attunement sums the
    tokens before the value matrices, which moved their last bits."""

    # (seed, b, tokens, dim, n_classes): loss, digests of the three gradients
    CASES = {
        (41, 6, 2, 4, 3): (1.0992776699563442,
                           ("12b18ce6e9da79c7", "3ded4f7b48a16b74", "79e432e36b5ae7e0")),
        (42, 16, 4, 8, 5): (1.609174294327562,
                            ("f212eb8009fd2d55", "defd61968becb88e", "9bee42fbca2c6e2c")),
    }
    # (seed, b, tokens, dim, n_classes, pool_count, pool_length, experts)
    ORACLE_CASES = [shape + (2, 2, 2) for shape in sorted(CASES)] + [
        (43, 64, 4, 768, 10, 100, 4, 3),  # the paper shape
    ]
    # the per-token attunement rounds differently in the last bits
    ORACLE_RTOL = 1e-12

    @staticmethod
    def case(seed, b, tokens, dim, n_classes, pool_count=2, pool_length=2, experts=2):
        model = PrototypeModel.init_random(
            n_classes=n_classes, dim=dim, pool_count=pool_count, pool_length=pool_length,
            num_experts=experts, rng=substream(seed, "model"), learning_rate=0.1,
        )
        return model, random_batch(seed, b=b, tokens=tokens, dim=dim, n_classes=n_classes)

    @pytest.mark.parametrize("shape", sorted(CASES), ids=str)
    def test_outputs_match_recorded_digests(self, shape):
        loss, *grads = loss_gradients(*self.case(*shape))
        assert (loss, tuple(_digest(g) for g in grads)) == self.CASES[shape]

    @pytest.mark.parametrize("shape", ORACLE_CASES, ids=str)
    def test_matches_per_token_reference_attunement(self, shape, monkeypatch):
        model, batch = self.case(*shape)
        loss, *grads = loss_gradients(model, batch)
        monkeypatch.setattr(learner, "attune", token_reference_attune)
        monkeypatch.setattr(learner, "attune_backward", token_reference_attune_backward)
        ref_loss, *ref_grads = loss_gradients(model, batch)
        assert loss == pytest.approx(ref_loss, rel=self.ORACLE_RTOL, abs=0)
        for g, g_ref in zip(grads, ref_grads):
            npt.assert_allclose(g, g_ref, rtol=self.ORACLE_RTOL,
                                atol=self.ORACLE_RTOL * np.abs(g_ref).max())


def twice_normalized_loss_gradients(model, batch):
    """``loss_gradients`` of an EmbeddingBatch as it read before it
    normalized the attuned pool once per step: the features through
    ``sum_similarity``, which normalizes the pool, a Jacobian that computes
    its norms again, ``ndarray.mean`` reductions and the backward one
    expert at a time."""
    labels = batch.labels
    bsz, tokens = len(batch), batch.embeddings.shape[1]
    p_agg, cache = learner.attune(model.pool, model.attn, with_cache=True)
    e_sum, pooled = unit_token_sums(batch.embeddings), batch.embeddings.mean(axis=1)
    feat = pooled * (1.0 + sum_similarity(e_sum, p_agg, tokens))[:, None]
    logits = feat @ model.prototypes.T
    shifted = logits - logits.max(axis=1, keepdims=True)
    dlogits = np.exp(shifted)
    exp_sums = dlogits.sum(axis=1, keepdims=True)
    loss = float((np.log(exp_sums[:, 0]) - shifted[np.arange(bsz), labels]).mean())
    dlogits /= exp_sums
    dlogits[np.arange(bsz), labels] -= 1.0
    dlogits /= bsz
    grad_proto = dlogits.T @ feat
    ds = np.einsum("bd,bd->b", dlogits @ model.prototypes, pooled)
    q = (ds[:, None] * e_sum).sum(axis=0) / (tokens * p_agg.shape[0])
    norms = np.sqrt((p_agg * p_agg).sum(axis=1))
    scale = norms + NORM_EPS
    d_p_agg = q[None, :] / scale[:, None] - p_agg * (
        (p_agg @ q) / (np.maximum(norms, NORM_EPS) * scale * scale))[:, None]
    return (loss, grad_proto,
            *per_expert_backward(model.pool, model.attn, d_p_agg, cache))


# (seed, b, tokens, dim, n_classes, pool_count, pool_length, experts): the
# golden shapes, the small workload's (a 30-row step at D=16, N=8, R=3, in
# one expert group), three tokens, expert groups of 2 and 1, and the paper
# shape (one expert per group)
ONE_NORMALIZATION_CASES = [
    (41, 6, 2, 4, 3, 2, 2, 2),
    (42, 16, 4, 8, 5, 2, 2, 2),
    (44, 30, 2, 16, 10, 8, 2, 3),
    (45, 12, 3, 16, 6, 8, 4, 3),
    (46, 20, 2, 128, 10, 16, 2, 3),
    (43, 64, 4, 768, 10, 100, 4, 3),
]


@pytest.mark.parametrize("shape", ONE_NORMALIZATION_CASES, ids=str)
def test_loss_gradients_are_the_twice_normalized_formula(shape):
    model, batch = TestLossGradientsGolden.case(*shape)
    loss, *grads = loss_gradients(model, batch)
    want_loss, *want = twice_normalized_loss_gradients(model, batch)
    assert loss == want_loss
    assert all(g.tobytes() == w.tobytes() for g, w in zip(grads, want))
    # the summary's path and forward_loss give the same loss
    summary = batch.summary()
    assert loss_gradients(model, summary)[0] == loss
    assert forward_loss(model, batch)[0] == loss


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("dim", [1, 16, 768])
@pytest.mark.parametrize("tokens", [1, 2, 3, 4])
def test_token_means_are_ndarray_mean_bits(tokens, dim, dtype):
    # the summaries' token means divide the token sum by L, the operations
    # of ndarray.mean; a multiply by 1/L rounds differently at L = 3
    rng = substream(tokens * 1000 + dim, "means")
    b = 9
    scales = 10.0 ** rng.integers(-30, 31, size=(b, 1, 1))
    x = (rng.standard_normal((b, tokens, dim)) * scales).astype(dtype)
    want = x.mean(axis=1)
    assert token_means(x).tobytes() == want.tobytes()
    batch = EmbeddingBatch(x, np.arange(b), np.arange(b))
    assert batch.summary().means.tobytes() == want.tobytes()
    buf = RehearsalBuffer(b)
    keep_first_update(buf, batch)
    drawn = buf.minibatch(b, rng)
    assert drawn.means.tobytes() == want[drawn.labels].tobytes()


class TestTrainStep:
    def test_zero_learning_rate_freezes_params(self):
        model = small_model(lr=0.0)
        before = (model.prototypes.tobytes(), model.pool.weights.tobytes(),
                  model.attn.gate.tobytes())
        train_step(model, random_batch(17), steps=3)
        after = (model.prototypes.tobytes(), model.pool.weights.tobytes(),
                 model.attn.gate.tobytes())
        assert before == after

    def test_multi_step_moves_further(self):
        batch = random_batch(18)
        m1 = small_model(seed=18, lr=0.05)
        m2 = small_model(seed=18, lr=0.05)
        train_step(m1, batch, steps=1)
        train_step(m2, batch, steps=4)
        d1 = np.linalg.norm(m1.prototypes - small_model(seed=18).prototypes)
        d2 = np.linalg.norm(m2.prototypes - small_model(seed=18).prototypes)
        assert d2 > d1

    def test_trainable_copy_trains_apart_and_shares_the_bank(self):
        model = small_model(seed=24)
        before = (model.prototypes.copy(), model.pool.weights.copy(), model.attn.gate.copy())
        copy = model.trainable_copy()
        assert copy.attn.keys is model.attn.keys
        assert copy.attn.values is model.attn.values
        assert (copy.learning_rate, copy.grad_steps) == \
            (model.learning_rate, model.grad_steps)
        train_step(copy, random_batch(24), steps=2)
        assert not np.array_equal(copy.prototypes, before[0])
        assert not np.array_equal(copy.pool.weights, before[1])
        assert not np.array_equal(copy.attn.gate, before[2])
        npt.assert_array_equal(model.prototypes, before[0])
        npt.assert_array_equal(model.pool.weights, before[1])
        npt.assert_array_equal(model.attn.gate, before[2])

    def test_validation(self):
        with pytest.raises(ValueError):
            PrototypeModel(np.zeros((2, 3)),
                           FingerprintPool(np.zeros((1, 2, 3))),
                           AttunementParams(np.zeros((3, 1)),
                                            np.zeros((1, 3, 3)),
                                            np.zeros((1, 3, 3))),
                           learning_rate=-0.1)


@pytest.mark.parametrize("build, name", [
    (lambda: RehearsalBuffer(2.5), "capacity"),
    (lambda: small_model(lr=float("nan")), "learning_rate"),
    (lambda: small_model(lr=float("inf")), "learning_rate"),
    (lambda: PrototypeModel.init_random(3, 4, 2, 2, 2, substream(1, "model"), grad_steps=1.5),
     "grad_steps"),
], ids=["capacity-2.5", "learning-rate-nan", "learning-rate-inf", "grad-steps-1.5"])
def test_bad_library_input_raises_at_construction_naming_it(build, name):
    # each used to be accepted: the buffer held int(2.5) = 2, NaN < 0 is
    # False, an infinite rate trained to NaN parameters, and 1.5 steps
    # failed only later, inside range()
    with pytest.raises(ValueError, match=name):
        build()


class TestEvaluate:
    def test_chance_level_on_random_prototypes(self):
        rng = substream(19, "eval")
        model = small_model(seed=19, n_classes=2, dim=6)
        batch = EmbeddingBatch(
            rng.standard_normal((2000, 1, 6)),
            np.repeat([0, 1], 1000),
            np.arange(2000),
        )
        acc = evaluate(model, batch)
        assert abs(acc - 0.5) < 0.05

    def test_separable_task_reaches_perfect_accuracy(self):
        emb = SyntheticEmbedder(seed=20, n_classes=2, dim=8, tokens=1,
                                n_tasks=1, noise_std=0.0)
        train = emb.embed(0, np.arange(40))
        model = PrototypeModel.init_random(2, 8, 2, 2, 2,
                                           substream(20, "m"),
                                           learning_rate=0.5)
        for _ in range(50):
            train_step(model, train)
        assert evaluate(model, emb.embed(0, np.arange(100, 140))) == 1.0

    def test_deterministic(self):
        model = small_model(seed=21)
        batch = random_batch(21)
        assert evaluate(model, batch) == evaluate(model, batch)

    def test_shared_attunement_gives_same_accuracy(self):
        model = small_model(seed=22)
        p_att = model.attuned_pool()
        for seed in (22, 23):
            batch = random_batch(seed)
            assert evaluate(model, batch, p_att) == evaluate(model, batch)

    def test_run_accuracy_unchanged_by_sharing_checkpoint_attunement(self, monkeypatch):
        config = stream_sim.StreamConfig(
            dataset_size=120, batch_size=10, tasks=3, n_classes=6, eval_size=30,
            pinned_batch_time=1e-9, learning_rate=0.3, seed=5,
        )
        shared = stream_sim.run_experiment(config)
        # every eval set attunes for itself, as before attunement was shared
        monkeypatch.setattr(stream_sim, "evaluate",
                            lambda model, batch, p_att=None: evaluate(model, batch))
        assert stream_sim.run_experiment(config).acc_rows == shared.acc_rows

    def test_run_attunes_once_per_step_and_checkpoint(self, monkeypatch):
        calls = []
        original = learner.attune

        def counting_attune(*args, **kwargs):
            calls.append(kwargs.get("with_cache", False))
            return original(*args, **kwargs)

        monkeypatch.setattr(learner, "attune", counting_attune)
        config = stream_sim.StreamConfig(
            dataset_size=120, batch_size=10, tasks=3, n_classes=6, eval_size=30,
            pinned_batch_time=1e-9, grad_steps=2, seed=5,
        )
        report = stream_sim.run_experiment(config)
        assert calls.count(True) == 2 * report.retained_batches
        assert calls.count(False) == config.tasks

    def test_empty_eval_raises(self):
        model = small_model()
        batch = EmbeddingBatch(np.zeros((0, 1, 4)), np.zeros(0, dtype=np.int64),
                               np.zeros(0, dtype=np.int64))
        with pytest.raises(ValueError):
            evaluate(model, batch)

    def test_evaluate_computes_no_loss(self, monkeypatch):
        model, batch = small_model(seed=24), random_batch(24, b=40)
        _, logits = forward_loss(model, batch)
        want = float(np.mean(logits.argmax(axis=1) == batch.labels))

        def lost(*args):
            raise AssertionError("evaluate computed a loss")

        monkeypatch.setattr(learner, "_cross_entropy", lost)
        assert evaluate(model, batch) == want
        assert evaluate(model, batch.summary(), model.attuned_pool()) == want
        # a label outside the prototype set still raises
        batch.labels[3] = 3
        with pytest.raises(ValueError, match="label out of range"):
            evaluate(model, batch)


def token_logits(model, batch, p_agg):
    """The classifier's logits computed from the tokens themselves."""
    s = batch_similarity(batch.embeddings, p_agg)
    return (batch.embeddings.mean(axis=1) * (1.0 + s)[:, None]) @ model.prototypes.T


class TestBatchSummary:
    """A summary carries all that the classifier reads of a batch."""

    @pytest.mark.parametrize("tokens", [1, 2, 4])
    def test_evaluating_a_summary_is_evaluating_the_tokens(self, tokens):
        model = small_model(seed=30 + tokens, n_classes=4, dim=8)
        batch = random_batch(30 + tokens, b=50, tokens=tokens, dim=8, n_classes=4)
        p_att = model.attuned_pool()
        want = token_logits(model, batch, p_att)
        summary = batch.summary()
        assert len(summary) == 50 and summary.tokens == tokens
        for source in (batch, summary):
            loss, logits = forward_loss(model, source, p_att)
            assert logits.tobytes() == want.tobytes()
            assert evaluate(model, source, p_att) == float(np.mean(want.argmax(axis=1) == batch.labels))
        assert forward_loss(model, summary)[0] == forward_loss(model, batch)[0]

    @pytest.mark.parametrize("tokens", [1, 2, 4])
    def test_summary_of_rows_is_those_rows_of_the_summary(self, tokens):
        model = small_model(seed=40, n_classes=4, dim=8)
        batch = random_batch(40 + tokens, b=50, tokens=tokens, dim=8, n_classes=4)
        rows = np.array([3, 4, 17, 30, 31, 32, 49])
        part = EmbeddingBatch(batch.embeddings[rows], batch.labels[rows], batch.sample_ids[rows])
        whole = batch.summary()
        rows_of_whole = BatchSummary(whole.unit_sums[rows], whole.means[rows],
                                     whole.labels[rows], tokens)
        for got, want in zip((rows_of_whole.unit_sums, rows_of_whole.means),
                             (part.summary().unit_sums, part.summary().means)):
            assert got.tobytes() == want.tobytes()
        p_att = model.attuned_pool()
        _, logits = forward_loss(model, rows_of_whole, p_att)
        assert logits.tobytes() == token_logits(model, part, p_att).tobytes()
        assert evaluate(model, rows_of_whole, p_att) == evaluate(model, part, p_att)

    @pytest.mark.parametrize("shape", [(64, 4, 768), (20, 1, 16)])
    def test_taken_rows_and_a_minibatch_are_the_summary_of_their_embeddings(self, shape):
        # the driver's training batch: the coreset rows of the stream batch's
        # summary, then a buffer mini-batch, against summarizing the
        # concatenated embeddings; a zero token row normalizes to zero
        b = shape[0]
        rng = substream(shape[2], "take")
        batch = EmbeddingBatch(rng.standard_normal(shape), rng.integers(0, 5, size=b),
                               np.arange(b))
        resident = EmbeddingBatch(rng.standard_normal(shape), rng.integers(0, 5, size=b),
                                  np.arange(b, 2 * b))
        rows = np.sort(rng.choice(b, size=b // 2, replace=False))
        drawn = np.random.default_rng(7).choice(b, size=b // 2, replace=False)
        batch.embeddings[rows[1], 0] = resident.embeddings[drawn[2], 0] = 0.0
        buf = RehearsalBuffer(b)
        keep_first_update(buf, resident)
        got = batch.summary().take(rows, buf.minibatch(b // 2, np.random.default_rng(7)))
        want = EmbeddingBatch(
            np.concatenate([batch.embeddings[rows], resident.embeddings[drawn]]),
            np.concatenate([batch.labels[rows], resident.labels[drawn]]),
            np.concatenate([rows, b + drawn])).summary()
        assert got.tokens == want.tokens == shape[1]
        for column in ("unit_sums", "means", "labels"):
            assert getattr(got, column).tobytes() == getattr(want, column).tobytes()
        alone = batch.summary().take(rows)
        assert alone.unit_sums.tobytes() == want.unit_sums[:b // 2].tobytes()
        assert alone.means.tobytes() == want.means[:b // 2].tobytes()

    def test_summary_rejects_label_out_of_range(self):
        model = small_model(n_classes=3)
        summary = random_batch(14, n_classes=3).summary()
        summary.labels[0] = 3
        with pytest.raises(ValueError, match="label out of range"):
            forward_loss(model, summary)


def test_loss_gradients_holds_two_stacked_attunement_arrays():
    # mid shape: an (R, N*L_p, D) float64 array is 1.2 MB. The forward holds
    # the pre-activations, which the activations overwrite, and the GELU
    # slope; the backward the slope, the pool gradient and two (N, L_p, D)
    # buffers, 3 (N, L_p, D) arrays being one stacked array at R = 3. The
    # slack is the cache's (R, N, D) expert sums and eight (N, D) vectors;
    # a third stacked array would exceed it
    n, lp, d, r = 50, 4, 256, 3
    model = PrototypeModel.init_random(n_classes=4, dim=d, pool_count=n, pool_length=lp,
                                       num_experts=r, rng=substream(50, "model"))
    batch = random_batch(50, b=8, tokens=2, dim=d, n_classes=4)
    want = loss_gradients(model, batch)
    stacked = 8 * r * n * lp * d
    slack = 8 * (r * n * d + 8 * n * d)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        got = loss_gradients(model, batch)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 2 * stacked + slack, (peak - 2 * stacked) / stacked
    assert got[0] == want[0]
    assert all(g.tobytes() == w.tobytes() for g, w in zip(got[1:], want[1:]))


def test_loss_gradients_forward_holds_one_expert_groups_pre_activations(monkeypatch):
    # at this shape an expert's (N*L_p, D) pre-activations exceed an ndtr
    # block, so the forward runs one expert at a time: it holds the stacked
    # (R, N*L_p, D) GELU slope and one expert's pre-activations, with the
    # slack of the test above (a second stacked array would exceed it)
    n, lp, d, r = 50, 4, 256, 3
    model = PrototypeModel.init_random(n_classes=4, dim=d, pool_count=n, pool_length=lp,
                                       num_experts=r, rng=substream(50, "model"))
    batch = random_batch(50, b=8, tokens=2, dim=d, n_classes=4)
    want = loss_gradients(model, batch)
    attune, peaks = learner.attune, []

    def measured(*args, **kwargs):
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = attune(*args, **kwargs)
        peaks.append(tracemalloc.get_traced_memory()[1] - base)
        return result

    monkeypatch.setattr(learner, "attune", measured)
    tracemalloc.start()
    try:
        got = loss_gradients(model, batch)
    finally:
        tracemalloc.stop()
    stacked, expert = 8 * r * n * lp * d, 8 * n * lp * d
    slack = 8 * (r * n * d + 8 * n * d)
    assert len(peaks) == 1
    assert peaks[0] <= stacked + expert + slack, (peaks[0] - stacked - expert) / slack
    assert got[0] == want[0]
    assert all(g.tobytes() == w.tobytes() for g, w in zip(got[1:], want[1:]))


class TestSummarize:
    @pytest.mark.parametrize("n", [400, 1])
    @pytest.mark.parametrize("fractions", [
        pytest.param({}, id="clean"),
        pytest.param({"outlier_fraction": 0.2, "dominant_fraction": 0.2}, id="outliers"),
    ])
    def test_summarize_is_the_summary_of_the_embedded_set(self, n, fractions):
        # L*D = 3072: row blocks of 2**18 // 3072 = 85, the last of 400 short
        emb = SyntheticEmbedder(seed=3, n_classes=10, dim=768, tokens=4, n_tasks=2, **fractions)
        indices = np.arange(1_002_000, 1_002_000 + n)
        got = emb.summarize(1, indices)
        want = emb.embed(1, indices).summary()
        for column in ("unit_sums", "means", "labels"):
            a, b = getattr(got, column), getattr(want, column)
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
        assert got.tokens == want.tokens == 4

    def test_summarize_embeds_in_row_blocks(self, monkeypatch):
        emb = SyntheticEmbedder(seed=3, n_classes=10, dim=768, tokens=4, n_tasks=2)
        sizes = []
        embed = SyntheticEmbedder.embed

        def counted(self, task, indices):
            sizes.append(len(indices))
            return embed(self, task, indices)

        monkeypatch.setattr(SyntheticEmbedder, "embed", counted)
        emb.summarize(0, np.arange(400))
        assert sizes == [85, 85, 85, 85, 60]
        sizes.clear()
        # a row wider than a block is a block of its own
        wide = SyntheticEmbedder(seed=3, n_classes=2, dim=2**17, tokens=4, n_tasks=1)
        wide.summarize(0, np.arange(2))
        assert sizes == [1, 1]

    def test_summarize_peaks_below_the_sets_tokens(self):
        # the summary's (n, D) columns and one block's tokens and temporaries
        # fit below the (n, L, D) tokens that embedding the set whole holds
        n, tokens, dim = 400, 4, 768
        emb = SyntheticEmbedder(seed=3, n_classes=10, dim=dim, tokens=tokens, n_tasks=2)
        indices = np.arange(1_002_000, 1_002_000 + n)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            summary = emb.summarize(0, indices)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert len(summary) == n
        assert peak < 8 * n * tokens * dim, peak / (8 * n * tokens * dim)


class TestMetrics:
    def test_hand_matrix(self):
        acc = [[0.8], [0.6, 0.9], [0.5, 0.7, 0.9]]
        assert average_accuracy(acc) == pytest.approx(0.7)
        assert average_forgetting(acc) == pytest.approx(0.25)

    def test_constant_matrix_no_forgetting(self):
        acc = [[0.6], [0.6, 0.6], [0.6, 0.6, 0.6]]
        assert average_forgetting(acc) == pytest.approx(0.0)

    def test_nondecreasing_columns_no_forgetting(self):
        acc = [[0.5], [0.6, 0.4], [0.7, 0.5, 0.9]]
        assert average_forgetting(acc) <= 0.0

    def test_single_task_warns_and_returns_zero(self, caplog):
        import logging
        with caplog.at_level(logging.WARNING, logger="streamfp.learner"):
            assert average_forgetting([[0.8]]) == 0.0
        assert any("single task" in r.message for r in caplog.records)

    def test_relabeling_invariance(self):
        acc = [[0.8], [0.6, 0.9], [0.5, 0.7, 0.9]]
        # consistently permuting task labels permutes columns and rows
        # but both metrics only aggregate, so values are unchanged for
        # any permutation applied to the final row and column maxima
        perm = [2, 0, 1]
        final = [acc[2][j] for j in perm]
        assert np.mean(final) == pytest.approx(average_accuracy(acc))

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            average_accuracy([])
        with pytest.raises(ValueError):
            average_forgetting([])
