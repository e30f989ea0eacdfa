"""Tests for named RNG sub-streams."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamfp import learner
from streamfp.seeding import _label_key, substream, substream_indexed


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


class TestIndexedDerivation:
    """substream_indexed derives SeedSequence's state itself, vectorised over
    indices; NumPy's own SeedSequence is the oracle."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("index", INDICES)
    def test_int_matches_seed_sequence(self, seed, index):
        assert_same_draws(substream_indexed(seed, "sample-task3", index),
                          oracle(seed, "sample-task3", index))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_array_matches_seed_sequence(self, seed):
        indices = np.array(INDICES, dtype=np.int64)
        rngs = list(substream_indexed(seed, "sample-task3", indices))
        assert len(rngs) == len(INDICES)
        for rng, index in zip(rngs, INDICES):
            assert_same_draws(rng, oracle(seed, "sample-task3", index))

    def test_mixed_word_counts_keep_their_order(self):
        # one-word and two-word indices interleaved, with a repeat
        indices = np.array([2**33 + 5, 3, 2**32, 2**32 - 1, 3, 2**63 - 1], dtype=np.int64)
        for rng, index in zip(substream_indexed(5, "mix", indices), indices):
            assert_same_draws(rng, substream_indexed(5, "mix", int(index)))
            assert_same_draws(substream_indexed(5, "mix", int(index)),
                              oracle(5, "mix", int(index)))

    def test_unsigned_and_numpy_scalar_indices(self):
        indices = np.array([2**64 - 1, 7], dtype=np.uint64)
        for rng, index in zip(substream_indexed(9, "u", indices), [2**64 - 1, 7]):
            assert_same_draws(rng, oracle(9, "u", index))
        assert_same_draws(substream_indexed(9, "u", np.int64(7)), oracle(9, "u", 7))

    def test_empty_array_yields_nothing(self):
        assert list(substream_indexed(1, "x", np.array([], dtype=np.int64))) == []
        assert list(substream_indexed(1, "x", [])) == []

    def test_generators_are_built_lazily(self):
        rngs = substream_indexed(1, "x", np.arange(3))
        assert not isinstance(rngs, (list, tuple, np.ndarray))
        assert isinstance(next(rngs), np.random.Generator)

    @pytest.mark.parametrize("seed, index", [(-1, 0), (0, -1), (0, np.array([3, -2]))])
    def test_negative_seed_or_index_raises(self, seed, index):
        with pytest.raises(ValueError):
            substream_indexed(seed, "x", index)

    def test_non_integer_index_raises(self):
        with pytest.raises(TypeError):
            substream_indexed(0, "x", np.array([1.5]))
        with pytest.raises(TypeError):
            substream_indexed(0, "x", 1.5)

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(
        st.integers(0, 2**64),
        st.text(max_size=12),
        st.lists(st.integers(0, 2**63 - 1), max_size=6),
    )
    def test_property_matches_seed_sequence(self, seed, label, indices):
        rngs = list(substream_indexed(seed, label, np.array(indices, dtype=np.int64)))
        assert len(rngs) == len(indices)
        for rng, index in zip(rngs, indices):
            assert_same_draws(rng, oracle(seed, label, index))


def test_embedding_a_batch_derives_its_seeds_once(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return substream_indexed(*args)

    monkeypatch.setattr(learner, "substream_indexed", counted)
    emb = learner.SyntheticEmbedder(seed=2, n_classes=4, dim=3, tokens=2, n_tasks=2,
                                    outlier_fraction=0.1, dominant_fraction=0.1)
    batch = emb.embed(1, np.arange(256))
    assert len(batch) == 256
    assert len(calls) == 1
