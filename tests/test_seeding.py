"""Tests for named RNG sub-streams."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamfp import learner
from streamfp.seeding import (
    _label_key,
    indexed_states,
    state_generators,
    substream,
    substream_indexed,
)
from streamfp.stream_sim import StreamConfig, run_experiment


def test_same_label_same_stream():
    a = substream(42, "selection").standard_normal(16)
    b = substream(42, "selection").standard_normal(16)
    npt.assert_array_equal(a, b)


def test_different_labels_differ():
    a = substream(42, "selection").standard_normal(16)
    b = substream(42, "buffer").standard_normal(16)
    assert not np.array_equal(a, b)


def test_different_seeds_differ():
    a = substream(1, "selection").standard_normal(16)
    b = substream(2, "selection").standard_normal(16)
    assert not np.array_equal(a, b)


def test_indexed_streams_independent():
    a = substream_indexed(7, "sample", 0).standard_normal(8)
    b = substream_indexed(7, "sample", 1).standard_normal(8)
    c = substream_indexed(7, "sample", 0).standard_normal(8)
    assert not np.array_equal(a, b)
    npt.assert_array_equal(a, c)


def test_label_is_not_positional():
    # "ab", "c" must not collide with "a", "bc"-style concatenations
    a = substream(3, "init-model").standard_normal(4)
    b = substream(3, "initmodel").standard_normal(4)
    assert not np.array_equal(a, b)


def oracle(seed, label, index):
    return np.random.default_rng(np.random.SeedSequence([seed, _label_key(label), index]))


def first_draws(rng):
    z = np.empty((2, 3))
    rng.standard_normal(out=z)
    return [rng.random(), rng.standard_normal(4), z, rng.integers(0, 2**40, size=3)]


def assert_same_draws(rng, expected):
    for got, want in zip(first_draws(rng), first_draws(expected)):
        npt.assert_array_equal(got, want)


SEEDS = [0, 1, 2**32 - 1, 2**32, 2**40 + 7]
INDICES = [0, 1, 2**32 - 1, 2**32, 2**62]


def indexed_generators(seed, label, indices):
    """The vectorised path: one generator per index of an index array."""
    return state_generators(indexed_states(seed, label, indices))


class TestIndexedDerivation:
    """indexed_states derives SeedSequence's state itself, vectorised over
    indices, and substream_indexed seeds one index's generator; NumPy's own
    SeedSequence is the oracle."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("index", INDICES)
    def test_int_matches_seed_sequence(self, seed, index):
        assert_same_draws(substream_indexed(seed, "sample-task3", index),
                          oracle(seed, "sample-task3", index))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_array_matches_seed_sequence(self, seed):
        indices = np.array(INDICES, dtype=np.int64)
        rngs = list(indexed_generators(seed, "sample-task3", indices))
        assert len(rngs) == len(INDICES)
        for rng, index in zip(rngs, INDICES):
            assert_same_draws(rng, oracle(seed, "sample-task3", index))

    def test_mixed_word_counts_keep_their_order(self):
        # one-word and two-word indices interleaved, with a repeat
        indices = np.array([2**33 + 5, 3, 2**32, 2**32 - 1, 3, 2**63 - 1], dtype=np.int64)
        for rng, index in zip(indexed_generators(5, "mix", indices), indices):
            assert_same_draws(rng, substream_indexed(5, "mix", int(index)))
            assert_same_draws(substream_indexed(5, "mix", int(index)),
                              oracle(5, "mix", int(index)))

    def test_unsigned_and_numpy_scalar_indices(self):
        indices = np.array([2**64 - 1, 7], dtype=np.uint64)
        for rng, index in zip(indexed_generators(9, "u", indices), [2**64 - 1, 7]):
            assert_same_draws(rng, oracle(9, "u", index))
        assert_same_draws(substream_indexed(9, "u", np.int64(7)), oracle(9, "u", 7))

    def test_empty_array_yields_nothing(self):
        assert list(indexed_generators(1, "x", np.array([], dtype=np.int64))) == []
        assert list(indexed_generators(1, "x", [])) == []

    def test_generators_are_built_lazily(self):
        rngs = indexed_generators(1, "x", np.arange(3))
        assert not isinstance(rngs, (list, tuple, np.ndarray))
        assert isinstance(next(rngs), np.random.Generator)

    @pytest.mark.parametrize("seed, index", [(-1, 0), (0, -1), (0, np.array([3, -2]))])
    def test_negative_seed_or_index_raises(self, seed, index):
        derive = substream_indexed if np.ndim(index) == 0 else indexed_generators
        with pytest.raises(ValueError):
            derive(seed, "x", index)

    def test_non_integer_index_raises(self):
        with pytest.raises(TypeError):
            indexed_generators(0, "x", np.array([1.5]))
        with pytest.raises(TypeError):
            substream_indexed(0, "x", 1.5)

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(
        st.integers(0, 2**64),
        st.text(max_size=12),
        st.lists(st.integers(0, 2**63 - 1), max_size=6),
    )
    def test_property_matches_seed_sequence(self, seed, label, indices):
        rngs = list(indexed_generators(seed, label, np.array(indices, dtype=np.int64)))
        assert len(rngs) == len(indices)
        for rng, index in zip(rngs, indices):
            assert_same_draws(rng, oracle(seed, label, index))


@pytest.mark.parametrize("seed", [1.7, 1.0, np.float64(1.0), "1"])
@pytest.mark.parametrize("derive", [
    lambda seed: substream(seed, "x"),
    lambda seed: indexed_states(seed, "x", np.arange(2)),
    lambda seed: substream_indexed(seed, "x", 0),
    lambda seed: learner.SyntheticEmbedder(seed=seed, n_classes=2, dim=3, tokens=1, n_tasks=1),
], ids=["substream", "indexed_states", "substream_indexed", "SyntheticEmbedder"])
def test_non_integer_master_seed_raises(derive, seed):
    # a master seed taken through int() was truncated: a seed of 1.7 drew
    # what a seed of 1 draws
    with pytest.raises(TypeError):
        derive(seed)
    derive(np.int64(1))  # a NumPy integer is an integer


def test_embedding_a_batch_derives_its_seeds_once(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return indexed_states(*args)

    monkeypatch.setattr(learner, "indexed_states", counted)
    emb = learner.SyntheticEmbedder(seed=2, n_classes=4, dim=3, tokens=2, n_tasks=2,
                                    outlier_fraction=0.1, dominant_fraction=0.1)
    batch = emb.embed(1, np.arange(256))
    assert len(batch) == 256
    assert len(calls) == 1


def test_indexed_states_match_seed_sequence():
    indices = np.array([5, 2**32 + 1, 0, 2**40, 5], dtype=np.int64)
    states = indexed_states(3, "s", indices)
    assert states.shape == (5, 4) and states.dtype == np.uint64
    for rng, index in zip(state_generators(states), indices):
        assert_same_draws(rng, oracle(3, "s", int(index)))
    assert indexed_states(3, "s", []).shape == (0, 4)


BLOCK = learner.STATE_BLOCK


class TestBlockDerivation:
    """The embedder derives seed states per block of indices and holds the
    most recent range; every batch must equal one whose samples draw from
    scalar substream_indexed generators."""

    @staticmethod
    def embedder():
        return learner.SyntheticEmbedder(seed=6, n_classes=6, dim=3, tokens=2, n_tasks=3,
                                         outlier_fraction=0.2, dominant_fraction=0.2)

    @pytest.fixture
    def derived(self, monkeypatch):
        """The index count of each derivation the embedder makes."""
        sizes = []

        def counted(seed, label, indices):
            sizes.append(len(indices))
            return indexed_states(seed, label, indices)

        monkeypatch.setattr(learner, "indexed_states", counted)
        return sizes

    def oracle_batch(self, monkeypatch, task, indices):
        rngs = [substream_indexed(6, f"sample-task{task}", int(i)) for i in indices]
        with monkeypatch.context() as m:
            m.setattr(learner, "state_generators", lambda states: iter(rngs))
            m.setattr(learner, "indexed_states", indexed_states)  # not counted
            return self.embedder().embed(task, indices)

    def check(self, monkeypatch, emb, task, indices):
        got = emb.embed(task, np.asarray(indices, dtype=np.int64))
        want = self.oracle_batch(monkeypatch, task, np.asarray(indices, dtype=np.int64))
        npt.assert_array_equal(got.embeddings, want.embeddings)
        npt.assert_array_equal(got.labels, want.labels)
        npt.assert_array_equal(got.sample_ids, want.sample_ids)
        return got

    @pytest.mark.parametrize("indices", [
        np.arange(BLOCK - 7, BLOCK + 13),  # straddles a block boundary
        np.arange(2**32 - 10, 2**32 + 10),  # one- and two-word indices
        np.arange(2**40 + 3, 2**40 + 23),  # two-word indices only
        4000 + 1_000_000 + np.arange(400),  # an eval range
        np.arange(5, 5 + BLOCK + 300),  # longer than a block
    ])
    def test_request_equals_per_index_oracle(self, monkeypatch, derived, indices):
        self.check(monkeypatch, self.embedder(), 1, indices)
        assert derived[0] <= len(indices) + 2 * BLOCK

    def test_held_range_serves_a_task_and_is_replaced(self, monkeypatch, derived):
        emb = self.embedder()
        # ascending batches with skip-schedule gaps, all in block 0
        for start in (0, 20, 60, 140, 160, 400, 1000):
            self.check(monkeypatch, emb, 0, np.arange(start, start + 20))
        assert derived == [BLOCK]
        self.check(monkeypatch, emb, 0, np.arange(1020, 1040))  # blocks 0 and 1
        self.check(monkeypatch, emb, 0, np.arange(1100, 1120))  # held, in block 1
        self.check(monkeypatch, emb, 0, np.arange(3000, 3020))  # block 2
        self.check(monkeypatch, emb, 0, np.arange(100, 120))  # back to block 0
        self.check(monkeypatch, emb, 1, np.arange(100, 120))  # another task
        self.check(monkeypatch, emb, 0, np.arange(120, 140))  # back to task 0
        assert derived == [BLOCK, 2 * BLOCK, BLOCK, BLOCK, BLOCK, BLOCK]

    def test_sparse_request_derives_its_own_indices(self, monkeypatch, derived):
        emb = self.embedder()
        self.check(monkeypatch, emb, 2, np.arange(0, 20))
        self.check(monkeypatch, emb, 2, [0, 2**40])
        assert derived == [BLOCK, 2]
        # the held range outlived the sparse request
        self.check(monkeypatch, emb, 2, np.arange(20, 40))
        assert derived == [BLOCK, 2]

    def test_empty_request(self, monkeypatch, derived):
        batch = self.check(monkeypatch, self.embedder(), 0, [])
        assert len(batch) == 0 and batch.embeddings.shape == (0, 2, 3)
        assert derived == [0]

    def test_negative_index_raises(self):
        with pytest.raises(ValueError):
            self.embedder().embed(0, [3, -1])


def test_a_small_run_derives_states_per_block(monkeypatch):
    # the first call of the benchmark's small workload at its default seed
    # (criterion 10's config): about one derivation per task of the stream
    # and one per eval set, not one per embedded batch
    config = dict(
        dataset_size=4000, batch_size=20, tasks=5, n_classes=5, dim=16, sigma=0.5,
        noise_std=0.1, drift_std=0.0, outlier_fraction=0.2, outlier_scale=3.0,
        class_concentration=0.65, learning_rate=0.2, eval_size=400, c_s_override=2.0,
    )
    counts = {"embed": 0, "derive": 0}
    embed, derive = learner.SyntheticEmbedder.embed, learner.indexed_states

    def counted_embed(*args):
        counts["embed"] += 1
        return embed(*args)

    def counted_derive(*args):
        counts["derive"] += 1
        return derive(*args)

    monkeypatch.setattr(learner.SyntheticEmbedder, "embed", counted_embed)
    monkeypatch.setattr(learner, "indexed_states", counted_derive)
    for selector, policy in (("streamfp", "streamfp"), ("random", "reservoir")):
        counts.update(embed=0, derive=0)
        run_experiment(StreamConfig(seed=100, selector=selector, buffer_policy=policy, **config))
        assert counts["embed"] == 134
        assert counts["derive"] <= 12
