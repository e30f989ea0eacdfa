"""Tests for the Retain-Drop rehearsal buffer and rank sampling."""

import logging
import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from streamfp.buffer import (
    BufferItem,
    RehearsalBuffer,
    compute_update_count,
    keep_first_update,
    mmd_squared,
    rank_probabilities,
    reservoir_update,
    update_buffer,
    weighted_sample_without_replacement,
)
from streamfp import buffer as buffer_module
from streamfp.core_math import batch_similarity, l2_normalize, sum_similarity, unit_token_sums
from streamfp.learner import BatchSummary, EmbeddingBatch
from streamfp.seeding import substream, substream_indexed


def make_items(ids, dim=3, tokens=1, label=0):
    rng = np.random.default_rng(0)
    return [
        BufferItem(int(i), rng.standard_normal((tokens, dim)), label, 0.0)
        for i in ids
    ]


class TestComputeUpdateCount:
    def test_cap_collapse_b2(self):
        rng = substream(1, "t")
        for _ in range(50):
            assert compute_update_count(2, 5, 100, rng) == 1

    def test_full_buffer_hits_cap(self):
        # n_seen = m: every draw from [0, m) is < m, so nu = floor(b/2)
        rng = substream(2, "t")
        for _ in range(20):
            assert compute_update_count(20, 102, 102, rng) == 10

    def test_bounds(self):
        rng = substream(3, "t")
        for _ in range(500):
            b = int(rng.integers(2, 60))
            m = int(rng.integers(1, 200))
            n_seen = int(rng.integers(0, 5000))
            if b - max(0, m - n_seen) <= 0:
                continue
            nu = compute_update_count(b, m, n_seen, rng)
            assert 1 <= nu <= b // 2

    def test_b1_cap_means_no_exchange(self):
        # floor(1/2) = 0 dominates the lower clamp: a single-sample batch
        # offered to a saturated buffer exchanges nothing
        rng = substream(31, "t")
        assert compute_update_count(1, 3, 100, rng) == 0

    def test_room_for_batch_raises(self):
        rng = substream(4, "t")
        with pytest.raises(ValueError):
            compute_update_count(10, 100, 0, rng)

    def test_bad_arguments(self):
        rng = substream(5, "t")
        with pytest.raises(ValueError):
            compute_update_count(0, 10, 100, rng)
        with pytest.raises(ValueError):
            compute_update_count(10, 0, 100, rng)


class TestRankProbabilities:
    def test_hand_n2(self):
        # ranks {1, 2}, H = 1.5 -> pi = [1/3, 2/3] in rank order
        pi = rank_probabilities(np.array([0.9, 0.1]))
        npt.assert_allclose(pi, [1.0 / 3.0, 2.0 / 3.0], atol=1e-12)

    def test_hand_n3(self):
        # H = 11/6 -> pi = [5/11, 8/11, 9/11] in rank order
        pi = rank_probabilities(np.array([0.9, 0.5, 0.1]))
        npt.assert_allclose(pi, [5 / 11, 8 / 11, 9 / 11], atol=1e-12)

    def test_maps_back_to_index_order(self):
        pi = rank_probabilities(np.array([0.1, 0.9, 0.5]))
        # index 1 is rank 1, index 2 rank 2, index 0 rank 3
        npt.assert_allclose(pi, [9 / 11, 5 / 11, 8 / 11], atol=1e-12)

    def test_sum_is_n_minus_one(self):
        rng = np.random.default_rng(11)
        for n in (2, 5, 17):
            pi = rank_probabilities(rng.uniform(-1, 1, size=n))
            assert pi.sum() == pytest.approx(n - 1)

    def test_tie_break_deterministic(self):
        pi1 = rank_probabilities(np.full(4, 0.5))
        pi2 = rank_probabilities(np.full(4, 0.5))
        npt.assert_array_equal(pi1, pi2)
        # ties resolved by index: rank order equals index order
        npt.assert_allclose(pi1, rank_probabilities(np.array([4.0, 3.0, 2.0, 1.0])))

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(12)
        s = rng.uniform(-1, 1, size=9)
        npt.assert_allclose(rank_probabilities(s),
                            rank_probabilities(np.tanh(5 * s) + 7))

    def test_single_element(self):
        npt.assert_array_equal(rank_probabilities(np.array([0.3])), [0.0])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            rank_probabilities(np.array([]))


def stable_rank_probabilities(similarity):
    """``rank_probabilities`` by its definition: ranks from the stable
    descending sort, so tied values rank in index order."""
    s = np.asarray(similarity, dtype=np.float64)
    if s.size == 1:
        return np.zeros(1)
    ranks = np.empty(s.size)
    ranks[np.argsort(-s, kind="stable")] = np.arange(1, s.size + 1)
    inv = 1.0 / ranks
    return 1.0 - inv / inv.sum()


def tied_vector(kind, n, rng):
    """A length-n similarity vector with ties of the given kind among
    continuous values."""
    s = rng.uniform(-1, 1, size=n)
    picks = rng.uniform(size=n)
    if kind == "repeats":
        s[picks < 0.5] = rng.choice([-0.5, 0.0, 0.25, 0.75], size=n)[picks < 0.5]
    elif kind == "signed-zeros":
        s[picks < 0.5] = rng.choice([0.0, -0.0], size=n)[picks < 0.5]
    elif kind == "one-nan":
        s[int(rng.integers(n))] = np.nan
    elif kind == "nans":
        s[picks < 0.1] = np.nan
    elif kind == "all-equal":
        s[:] = 0.5
    return s


@pytest.fixture
def argsort_kinds(monkeypatch):
    """The ``kind`` of every ``np.argsort`` call, None for the default sort."""
    kinds = []
    argsort = np.argsort

    def spy(a, *args, **kwargs):
        kinds.append(kwargs.get("kind"))
        return argsort(a, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", spy)
    return kinds


class TestRankProbabilitiesMatchTheStableSort:
    """``rank_probabilities`` orders with NumPy's default sort and takes the
    stable sort only where ties or NaNs let the two orders differ; its bits
    must be the stable sort's on every kind of vector."""

    @pytest.mark.parametrize("n", [1, 2, 256, 4352])
    def test_distinct_values(self, n):
        rng = substream(n, "ranks-distinct")
        for _ in range(5):
            s = rng.uniform(-1, 1, size=n)
            assert rank_probabilities(s).tobytes() == stable_rank_probabilities(s).tobytes()

    @pytest.mark.parametrize("n", [2, 17, 256, 4352])
    @pytest.mark.parametrize("kind", ["repeats", "signed-zeros", "one-nan", "nans",
                                      "all-equal"])
    def test_ties_and_nans(self, kind, n):
        rng = substream(n, "ranks-" + kind)
        for _ in range(5):
            s = tied_vector(kind, n, rng)
            assert rank_probabilities(s).tobytes() == stable_rank_probabilities(s).tobytes()

    def test_continuous_similarities_skip_the_stable_sort(self, argsort_kinds):
        # the fallback is only for ties: distinct values sort once, unstably,
        # and a tied vector sorts again with the stable sort
        rng = substream(3, "ranks-spy")
        rank_probabilities(rng.uniform(-1, 1, size=4352))
        assert argsort_kinds == [None]
        rank_probabilities(tied_vector("signed-zeros", 4352, rng))
        assert argsort_kinds == [None, None, "stable"]


class TestWeightedSampling:
    def test_exhaustion(self):
        rng = substream(1, "sample")
        idx = weighted_sample_without_replacement(np.ones(5), 5, rng)
        assert sorted(idx) == [0, 1, 2, 3, 4]

    def test_distinct(self):
        rng = substream(2, "sample")
        for _ in range(200):
            idx = weighted_sample_without_replacement(
                rng.uniform(0, 1, size=10), 4, rng
            )
            assert len(set(idx)) == 4

    def test_deterministic_given_seed(self):
        w = np.array([0.5, 0.1, 0.9, 0.2])
        a = weighted_sample_without_replacement(w, 3, substream(7, "x"))
        b = weighted_sample_without_replacement(w, 3, substream(7, "x"))
        assert a == b

    def test_zero_weight_fallback_logs(self, caplog):
        rng = substream(3, "sample")
        with caplog.at_level(logging.WARNING, logger="streamfp.buffer"):
            idx = weighted_sample_without_replacement(
                np.array([1.0, 0.0, 0.0]), 3, rng
            )
        assert sorted(idx) == [0, 1, 2]
        assert any("uniform" in r.message for r in caplog.records)

    def test_errors(self):
        rng = substream(4, "sample")
        with pytest.raises(ValueError):
            weighted_sample_without_replacement(np.array([0.5, -0.1]), 1, rng)
        with pytest.raises(ValueError):
            weighted_sample_without_replacement(np.array([0.5]), 2, rng)

    @pytest.mark.parametrize("k", [2.0, "2", None, np.float64(2)])
    def test_non_integer_k_raises_before_drawing(self, k):
        rng = substream(4, "sample")
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="integer"):
            weighted_sample_without_replacement(np.ones(3), k, rng)
        assert rng.bit_generator.state == before

    def test_numpy_integer_k(self):
        w = np.array([0.5, 0.1, 0.9, 0.2])
        want = weighted_sample_without_replacement(w, 2, substream(7, "x"))
        for k in (np.int64(2), np.int32(2), np.uint8(2)):
            assert weighted_sample_without_replacement(w, k, substream(7, "x")) == want


def choice_sampler(weights, k, rng):
    """The sampler as it was before its draw was inlined: one
    ``rng.choice(p=...)`` over the gathered remaining weights per draw."""
    w = np.asarray(weights, dtype=np.float64)
    pool = np.arange(w.size)
    chosen = []
    for _ in range(k):
        pw = w[pool]
        total = pw.sum()
        if total > 0:
            pos = rng.choice(pool.size, p=pw / total)
        else:
            pos = rng.integers(0, pool.size)
        chosen.append(int(pool[pos]))
        pool = np.delete(pool, pos)
    return chosen


class TestSamplerMatchesChoice:
    def test_oracle(self, caplog):
        # uniform, rank, 1 - rank and ~70%-zero weights; the zero-weight
        # cases run into the uniform fallback when k exceeds the positives
        cases = substream(7, "sampler-oracle")
        caplog.set_level(logging.ERROR, logger="streamfp.buffer")
        for case in range(320):
            n = int(cases.integers(1, 5000))
            k = int(cases.integers(1, min(n, 300) + 1))
            kind = case % 4
            if kind == 0:
                w = np.ones(n)
            elif kind == 1:
                w = rank_probabilities(cases.uniform(-1, 1, size=n))
            elif kind == 2:
                w = 1.0 - rank_probabilities(cases.uniform(-1, 1, size=n))
            else:
                w = cases.uniform(0, 1, size=n) * (cases.uniform(size=n) >= 0.7)
            want_rng = substream_indexed(8, "sampler-oracle-draws", case)
            got_rng = substream_indexed(8, "sampler-oracle-draws", case)
            want = choice_sampler(w, k, want_rng)
            assert weighted_sample_without_replacement(w, k, got_rng) == want, (n, k, kind)
            assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_cdf_rounding_boundary(self):
        # two weights whose first CDF entry lands within an ulp of the one
        # uniform the draw consumes, where normalizing before the cumsum (as
        # Generator.choice does) and dividing the cumsum by the total round
        # to opposite sides of it; random cases almost never get this close
        boundaries = 0
        for seed in range(20):
            u = np.random.default_rng(seed).random()
            a = u / (1.0 - u)
            for step in range(-64, 64):
                w = np.array([a + step * np.spacing(a), 1.0])
                cdf = (w / w.sum()).cumsum()
                cdf /= cdf[-1]
                other = w.cumsum() / w.sum()
                other /= other[-1]
                if (cdf[0] <= u) == (other[0] <= u):
                    continue
                boundaries += 1
                want = np.random.default_rng(seed).choice(2, p=w / w.sum())
                assert weighted_sample_without_replacement(
                    w, 1, np.random.default_rng(seed)) == [want]
                break
        assert boundaries >= 3

    @pytest.mark.parametrize("weights", [
        [0.5, np.nan, 0.2],
        [np.nan, np.nan],
        [0.5, np.inf, 0.2],
        [1e308, 1e308, 1.0],  # finite weights whose sum overflows
    ], ids=["nan", "all-nan", "inf", "overflowing-total"])
    def test_non_finite_weights_raise(self, weights):
        rng = substream(9, "sample")
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="finite"):
            weighted_sample_without_replacement(np.array(weights), 1, rng)
        assert rng.bit_generator.state == before


class TestBatchedDrawsMatchScalarDraws:
    """The sampler draws its uniforms, and the reservoir its slots, with one
    generator call each. That reproduces the one-call-per-draw code only
    while NumPy yields the same values, and leaves the same state, as the
    scalar calls did; a NumPy that does not must fail here."""

    # starts of 80 consecutive bounds; some runs cross the 2**32 bound,
    # where NumPy switches from 32-bit to 64-bit draws
    STARTS = (1, 2, 1000, 2**31, 2**32 - 40, 2**32, 2**40)

    @pytest.mark.parametrize("prefix", [0, 1], ids=["fresh", "after-a-32-bit-draw"])
    def test_random_vector_equals_scalar_calls(self, prefix):
        for m in (0, 1, 2, 7, 128, 1000):
            got, want = substream(m, "batched-random"), substream(m, "batched-random")
            for g in (got, want):
                g.integers(0, 5, size=prefix)
            assert got.random(m).tolist() == [want.random() for _ in range(m)]
            assert got.bit_generator.state == want.bit_generator.state

    @pytest.mark.parametrize("prefix", [0, 1], ids=["fresh", "after-a-32-bit-draw"])
    @pytest.mark.parametrize("start", STARTS)
    def test_integers_with_a_vector_of_bounds_equal_scalar_calls(self, start, prefix):
        got, want = substream(start, "batched-integers"), substream(start, "batched-integers")
        for g in (got, want):
            g.integers(0, 5, size=prefix)
        highs = start + np.arange(80)
        assert got.integers(0, highs).tolist() == \
            [int(want.integers(0, int(h))) for h in highs]
        assert got.bit_generator.state == want.bit_generator.state


class Scripted(np.random.Generator):
    """A generator whose ``random()`` returns the scripted uniforms in order,
    and whose ``random(size)`` returns the next ``size`` of them, as
    ``Generator.random`` returns successive uniforms; ``Generator.choice``
    draws its uniform through ``self.random``, so the oracle and the sampler
    see the same values. Its other draws are PCG64's."""

    def __init__(self, uniforms, seed=0):
        super().__init__(np.random.PCG64(seed))
        self._uniforms = list(uniforms)

    def random(self, size=None, dtype=np.float64, out=None):
        if size is None:
            return self._uniforms.pop(0)
        count = int(np.prod(size))
        taken, self._uniforms[:count] = self._uniforms[:count], []
        assert len(taken) == count, "script ran out of uniforms"
        return np.array(taken, dtype=np.float64).reshape(size)


def choice_cdf(w):
    """The CDF ``Generator.choice(p=w / w.sum())`` searches."""
    cdf = (w / w.sum()).cumsum()
    cdf /= cdf[-1]
    return cdf


def on_and_beside(values):
    """Each value and both of its float neighbours that are uniforms in [0, 1)."""
    near = np.concatenate([values, np.nextafter(values, 0.0), np.nextafter(values, 1.0)])
    return near[(near >= 0.0) & (near < 1.0)]


def boundary_script(w, k, picks_rng):
    """k uniforms, each on or beside an entry of the CDF over the weights
    the earlier ones leave, picked as ``choice_sampler`` picks."""
    script = []
    for t in range(k):
        taken = choice_sampler(w, t, Scripted(script)) if t else []
        pool = np.delete(np.arange(w.size), taken)
        cdf = choice_cdf(w[pool])
        entry = cdf[int(picks_rng.integers(0, cdf.size))]
        script.append(picks_rng.choice(on_and_beside(np.array([entry]))))
    return script


@pytest.fixture
def exact_picks(monkeypatch):
    """Counts the draws that the running prefix sum could not decide."""
    calls = []
    exact = buffer_module._exact_pick

    def spy(w, removed, u):
        calls.append(u)
        return exact(w, removed, u)

    monkeypatch.setattr(buffer_module, "_exact_pick", spy)
    return calls


def replay_weights(rng, n=4096):
    """Drop-side weights of a replay-shaped exchange: 1 - rank probabilities."""
    return 1.0 - rank_probabilities(rng.uniform(-1, 1, size=n))


class TestCertifiedDraw:
    """Uniforms placed where the running prefix sum and the exact CDF could
    round to opposite sides of a boundary: the prefix sum must hand each of
    them to the exact CDF, and every pick must be ``Generator.choice``'s."""

    @pytest.mark.parametrize("kind", ["replay", "random", "constant"])
    def test_uniforms_on_every_cdf_entry(self, kind, exact_picks):
        # equal weights of 0.1 drift hundreds of ulps between the running
        # prefix and the exact CDF at n=4096, so a margin that did not grow
        # with n would accept a wrong pick here
        rng = substream(11, "certified-" + kind)
        w = {"replay": lambda: replay_weights(rng),
             "random": lambda: rng.uniform(0, 1, size=700),
             "constant": lambda: np.full(4096, 0.1)}[kind]()
        uniforms = on_and_beside(choice_cdf(w))
        for u in uniforms:
            want_rng, got_rng = Scripted([u]), Scripted([u])
            assert weighted_sample_without_replacement(w, 1, got_rng) == \
                choice_sampler(w, 1, want_rng), u
        assert len(exact_picks) == uniforms.size

    @pytest.mark.parametrize("kind", ["replay", "random", "zeros"])
    def test_boundary_uniforms_after_removals(self, kind, exact_picks):
        # later draws land on the CDF of what the earlier ones left, next to
        # drawn slots; with zeros, next to runs of equal CDF entries
        rng = substream(12, "certified-removals-" + kind)
        for case in range(4):
            if kind == "replay":
                w = replay_weights(rng, n=int(rng.integers(2, 4097)))
            else:
                w = rng.uniform(0, 1, size=int(rng.integers(2, 300)))
                if kind == "zeros":
                    w *= rng.uniform(size=w.size) < 0.3
                    w[0] = 1.0
            k = min(24, int(np.count_nonzero(w)))
            script = boundary_script(w, k, rng)
            got_rng = Scripted(script, seed=case)
            want_rng = Scripted(script, seed=case)
            got = weighted_sample_without_replacement(w, k, got_rng)
            assert got == choice_sampler(w, k, want_rng), (kind, case)
            assert got_rng.bit_generator.state == want_rng.bit_generator.state
            assert len(set(got)) == k and np.all(w[got] > 0)
        assert exact_picks

    def test_huge_dynamic_range_and_most_mass_removed(self, exact_picks, caplog):
        # exp(20 z) puts most of the mass on a few weights; drawing nearly
        # all of them leaves totals far below the first one's rounding, so
        # the exact CDF decides draw after draw
        caplog.set_level(logging.ERROR, logger="streamfp.buffer")
        cases = substream(13, "certified-range")
        for case in range(12):
            n = int(cases.integers(2, 600))
            w = np.exp(20.0 * cases.standard_normal(n))
            if case % 3 == 0:
                w[cases.uniform(size=n) < 0.5] = 0.0
            k = int(cases.integers(max(1, n // 2), n + 1))
            want_rng = substream_indexed(14, "certified-range-draws", case)
            got_rng = substream_indexed(14, "certified-range-draws", case)
            got = weighted_sample_without_replacement(w, k, got_rng)
            assert got == choice_sampler(w, k, want_rng), (n, k)
            assert got_rng.bit_generator.state == want_rng.bit_generator.state
            positives = int(np.count_nonzero(w))
            assert np.all(w[got[:positives]] > 0)
        assert len(exact_picks) > 100

    def test_weights_below_the_normal_range_take_the_exact_cdf(self, exact_picks):
        # a margin that is not a normal number has no relative error bound
        rng = substream(17, "certified-tiny")
        w = np.ldexp(rng.uniform(0, 1, size=300), -1040)
        want_rng = substream(18, "certified-tiny-draws")
        got_rng = substream(18, "certified-tiny-draws")
        got = weighted_sample_without_replacement(w, 40, got_rng)
        assert got == choice_sampler(w, 40, want_rng)
        assert len(exact_picks) == 40

    def test_overflowing_prefix_sum_takes_the_exact_cdf(self, exact_picks):
        # 17 equal weights of max/17: the pairwise total is finite, the
        # running cumsum overflows
        w = np.full(17, np.finfo(np.float64).max / 17)
        with np.errstate(over="ignore"):
            assert np.isfinite(w.sum()) and not np.isfinite(w.cumsum()[-1])
        want_rng = substream(19, "certified-overflow")
        got_rng = substream(19, "certified-overflow")
        got = weighted_sample_without_replacement(w, 17, got_rng)
        assert got == choice_sampler(w, 17, want_rng)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        assert len(exact_picks) == 17

    def test_zero_weights_and_drawn_slots_never_returned(self):
        cases = substream(15, "certified-zeros")
        for case in range(200):
            n = int(cases.integers(1, 400))
            w = cases.uniform(0, 1, size=n) * (cases.uniform(size=n) < 0.2)
            positives = int(np.count_nonzero(w))
            if not positives:
                continue
            k = int(cases.integers(1, positives + 1))
            got = weighted_sample_without_replacement(w, k, cases)
            assert len(set(got)) == k
            assert np.all(w[got] > 0)

    def test_replay_exchanges_never_need_the_exact_cdf(self, exact_picks):
        # the perf guard, free of timing: the retain and drop draws of ten
        # replay-shaped exchanges (m=4096, b=256, nu=128) are all decided by
        # the prefix sum
        rng = substream(16, "certified-replay")
        for _ in range(10):
            weighted_sample_without_replacement(
                rank_probabilities(rng.uniform(-1, 1, size=256)), 128, rng)
            weighted_sample_without_replacement(replay_weights(rng), 128, rng)
        assert exact_picks == []

    def test_replay_exchanges_never_take_the_stable_sort(self, argsort_kinds):
        # the perf guard for the rank weights, free of timing: ten
        # replay-shaped exchanges (m=4096, b=256, L=2, D=64) with continuous
        # similarities sort every rank vector once, with the default sort
        rng = substream(20, "replay-ranks")
        p_agg = rng.standard_normal((8, 64))
        buf = RehearsalBuffer(4096)
        for batch in offer_stream([256] * 16, tokens=2, dim=64, seed=20):
            keep_first_update(buf, batch)
        for batch in offer_stream([256] * 10, tokens=2, dim=64, seed=21):
            sums = batch.summary().unit_sums
            update_buffer(buf, batch, sum_similarity(sums, p_agg, 2),
                          sum_similarity(buf.unit_token_sums(), p_agg, 2), rng, sums)
        assert argsort_kinds == [None] * 20


class TestUnitTokenSumsCache:
    """``RehearsalBuffer.unit_token_sums`` equals recomputing the sums from
    the stored embeddings, bit for bit, after every kind of write."""

    @pytest.mark.parametrize("tokens", [2, 4])
    def test_matches_recomputation_after_every_write(self, tokens):
        rng = substream(tokens, "cache")
        dim, capacity = 64, 16
        p_agg = rng.standard_normal((3, dim))
        buf = RehearsalBuffer(capacity)
        next_id = 0

        def offer(b):
            nonlocal next_id
            batch = EmbeddingBatch(rng.standard_normal((b, tokens, dim)),
                                   rng.integers(0, 5, size=b),
                                   np.arange(next_id, next_id + b))
            next_id += b
            return batch

        def resident_scores():
            scores = sum_similarity(buf.unit_token_sums(), p_agg, tokens)
            np.testing.assert_array_equal(
                buf.unit_token_sums(), l2_normalize(buf.embeddings()).sum(axis=1))
            np.testing.assert_array_equal(scores, batch_similarity(buf.embeddings(), p_agg))
            return scores

        # two fills, a straddling fill plus exchange (9 offered with 5 slots
        # free), then full offers, each scored through the stored sums
        for b in (6, 5, 9, 12, 12, 7):
            batch = offer(b)
            s_buf = resident_scores() if len(buf) else np.zeros(0)
            update_buffer(buf, batch, batch_similarity(batch.embeddings, p_agg), s_buf, rng)
            resident_scores()
        # reservoir overwrites, two without a read in between
        before = buf.sample_ids.copy()
        reservoir_update(buf, offer(10), rng)
        reservoir_update(buf, offer(10), rng)
        assert not np.array_equal(buf.sample_ids, before)
        resident_scores()
        reservoir_update(buf, offer(3), rng)
        resident_scores()
        assert buf.unit_token_sums().shape == (capacity, dim)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_writes_normalize_and_reads_do_not(self, monkeypatch, dtype):
        # each policy normalizes an offer without sums at most once, whole,
        # also one that straddles the room left (a fill write, then an
        # exchange or reservoir write); reading the stored sums or drawing a
        # mini-batch normalizes nothing, and the sums equal recomputing
        # them from the store, also after a float32 first offer, which the
        # store keeps as float64
        calls = []

        def counting(emd):
            calls.append(len(emd))
            return unit_token_sums(emd)

        monkeypatch.setattr(buffer_module, "unit_token_sums", counting)
        rng = substream(5, "cache-reads")
        for policy in ("streamfp", "reservoir", "keep_first"):
            buf = RehearsalBuffer(6)
            for i, batch in enumerate(offer_stream((4, 5, 7, 1, 8), tokens=3, dim=5, seed=7)):
                if i == 0:
                    batch = EmbeddingBatch(batch.embeddings.astype(dtype), batch.labels,
                                           batch.sample_ids)
                before = len(calls)
                offer(policy, buf, batch, rng)
                assert calls[before:] in ([], [len(batch)])
                written = len(calls)
                for _ in range(3):
                    sums = buf.unit_token_sums()
                    buf.minibatch(4, rng)
                assert len(calls) == written
                assert buf.embeddings().dtype == np.float64
                assert sums.tobytes() == unit_token_sums(buf.embeddings()).tobytes()
        assert calls


class TestMinibatch:
    """``RehearsalBuffer.minibatch`` summarizes the residents it draws, from
    the stored unit-token sums, with the generator's draw of the stored
    embeddings."""

    @pytest.mark.parametrize("tokens", [1, 3])
    def test_equals_summarizing_the_drawn_residents(self, tokens):
        rng = substream(tokens, "minibatch")
        buf = RehearsalBuffer(30)
        batches = offer_stream((20, 6, 12), tokens=tokens, dim=8, seed=tokens)
        # a fill, then a fill and exchanges
        keep_first_update(buf, next(batches))
        update_buffer(buf, next(batches), rng.uniform(-1, 1, 6), rng.uniform(-1, 1, 20), rng)
        update_buffer(buf, next(batches), rng.uniform(-1, 1, 12), rng.uniform(-1, 1, 26), rng)
        for size in (5, 30, 50):
            draw, twin = np.random.default_rng(size), np.random.default_rng(size)
            got = buf.minibatch(size, draw)
            idx = twin.choice(len(buf), size=min(size, len(buf)), replace=False)
            want = EmbeddingBatch(buf.embeddings()[idx], buf.labels[idx],
                                  buf.sample_ids[idx]).summary()
            assert isinstance(got, BatchSummary)
            assert got.tokens == tokens and len(got) == min(size, len(buf))
            for column in ("unit_sums", "means", "labels"):
                assert getattr(got, column).tobytes() == getattr(want, column).tobytes()
            assert draw.bit_generator.state == twin.bit_generator.state

    def test_empty_buffer_or_size_draws_nothing(self):
        buf = RehearsalBuffer(4)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        assert buf.minibatch(3, rng) is None
        keep_first_update(buf, next(offer_stream((2,))))
        assert buf.minibatch(0, rng) is None
        assert rng.bit_generator.state == state


class TestUpdateBuffer:
    def test_fill_phase(self):
        buf = RehearsalBuffer(10)
        items = make_items(range(4))
        update_buffer(buf, items, np.zeros(4), np.zeros(0), substream(1, "b"))
        assert len(buf) == 4
        assert buf.n_seen == 4
        assert [it.sample_id for it in buf.items] == [0, 1, 2, 3]

    def test_conservation_when_full(self):
        buf = RehearsalBuffer(6)
        rng = substream(2, "b")
        update_buffer(buf, make_items(range(6)), np.zeros(6), np.zeros(0), rng)
        before_ids = {it.sample_id for it in buf.items}
        s_batch = np.linspace(-1, 1, 6)
        s_buf = np.array([it.similarity for it in buf.items])
        update_buffer(buf, make_items(range(100, 106)), s_batch, s_buf, rng)
        after_ids = {it.sample_id for it in buf.items}
        assert len(buf) == 6
        # replaced positions hold new-batch ids, everything else kept
        assert after_ids - before_ids <= set(range(100, 106))
        assert buf.n_seen == 12

    def test_analytic_drop_retain_probabilities(self):
        # m=2, full buffer S=[0.99, -0.9]; batch of 2 with S=[-0.8, 0.95];
        # nu is forced to 1 by the floor(b/2) cap. Rank weights give the
        # most-similar resident (index 0) drop probability 2/3 and the
        # least-similar batch sample (index 0) retain probability 2/3.
        trials = 10_000
        drop0 = retain0 = 0
        for t in range(trials):
            rng = substream_indexed(9, "oracle", t)
            buf = RehearsalBuffer(2)
            update_buffer(buf, make_items([0, 1]), np.array([0.99, -0.9]),
                          np.zeros(0), rng)
            s_buf = np.array([it.similarity for it in buf.items])
            update_buffer(buf, make_items([10, 11]), np.array([-0.8, 0.95]),
                          s_buf, rng)
            ids = [it.sample_id for it in buf.items]
            if ids[0] in (10, 11):
                drop0 += 1
            if 10 in ids:
                retain0 += 1
        p = 2.0 / 3.0
        sigma = np.sqrt(p * (1 - p) / trials)
        assert abs(drop0 / trials - p) <= 3 * sigma
        assert abs(retain0 / trials - p) <= 3 * sigma

    def test_fill_and_exchange_in_one_call(self):
        buf = RehearsalBuffer(5)
        rng = substream(3, "b")
        update_buffer(buf, make_items(range(3)), np.zeros(3), np.zeros(0), rng)
        s_batch = np.linspace(0, 1, 6)
        s_buf = np.array([it.similarity for it in buf.items])
        update_buffer(buf, make_items(range(10, 16)), s_batch, s_buf, rng)
        assert len(buf) == 5
        assert buf.n_seen == 9

    def test_lone_retain_candidate_is_taken_without_a_warning(self, caplog):
        # capacity 5, offers of 3 then 3: the second fills 2 rows and leaves
        # one retain candidate, whose rank weight is 0 but whose pick is certain
        s1, s2 = np.array([0.3, -0.2, 0.9]), np.array([0.1, 0.5, -0.4])
        buf = RehearsalBuffer(5)
        rng = substream(4, "b")
        update_buffer(buf, make_items(range(3)), s1, np.zeros(0), rng)
        want_rng = substream(4, "b")
        want_rng.bit_generator.state = rng.bit_generator.state
        with caplog.at_level(logging.WARNING, logger="streamfp.buffer"):
            update_buffer(buf, make_items(range(10, 13)), s2, buf.similarity, rng)
        assert caplog.records == []
        # the draws of the sampler path: the exchange count, the uniform
        # fallback over the one row, then the drop
        nu = compute_update_count(3, 5, 3, want_rng)
        assert min(nu, 1) == 1
        with caplog.at_level(logging.ERROR, logger="streamfp.buffer"):
            assert weighted_sample_without_replacement(np.zeros(1), 1, want_rng) == [0]
        pi_buffer = rank_probabilities(np.concatenate([s1, s2[:2]]))
        (drop,) = weighted_sample_without_replacement(1.0 - pi_buffer, 1, want_rng)
        ids, sims = [0, 1, 2, 10, 11], np.concatenate([s1, s2[:2]])
        ids[drop], sims[drop] = 12, s2[2]
        assert buf.sample_ids.tolist() == ids
        npt.assert_array_equal(buf.similarity, sims)
        assert rng.bit_generator.state == want_rng.bit_generator.state

    def test_empty_offer_changes_nothing(self):
        buf = RehearsalBuffer(4)
        rng = substream(5, "b")
        update_buffer(buf, make_items(range(2)), np.zeros(2), np.zeros(0), rng)
        update_buffer(buf, [], np.zeros(0), np.zeros(2), rng)
        reservoir_update(buf, [], rng)
        keep_first_update(buf, [])
        assert [it.sample_id for it in buf.items] == [0, 1]
        assert buf.n_seen == 2

    def test_similarity_length_mismatch(self):
        buf = RehearsalBuffer(4)
        rng = substream(4, "b")
        with pytest.raises(ValueError):
            update_buffer(buf, make_items(range(3)), np.zeros(2), np.zeros(0), rng)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("argument", ["s_batch", "s_buffer"])
    def test_non_finite_similarity_raises_before_any_change(self, argument, bad):
        buf = RehearsalBuffer(4)
        rng = substream(6, "b")
        update_buffer(buf, make_items(range(4)), np.array([0.1, 0.2, 0.3, 0.4]),
                      np.zeros(0), rng)
        before = ([it.sample_id for it in buf.items], list(buf.similarity), buf.n_seen,
                  rng.bit_generator.state)
        s_batch, s_buf = np.array([0.1, 0.5, 0.3]), buf.similarity.copy()
        (s_batch if argument == "s_batch" else s_buf)[1] = bad
        with pytest.raises(ValueError, match=argument):
            update_buffer(buf, make_items(range(10, 13)), s_batch, s_buf, rng)
        assert ([it.sample_id for it in buf.items], list(buf.similarity), buf.n_seen,
                rng.bit_generator.state) == before

    def test_non_finite_similarity_raises_during_fill(self):
        buf = RehearsalBuffer(8)
        with pytest.raises(ValueError, match="s_batch"):
            update_buffer(buf, make_items(range(3)), [0.1, np.nan, 0.3], np.zeros(0),
                          substream(6, "b"))
        assert len(buf) == 0 and buf.n_seen == 0

    def test_fuzz_invariants(self):
        # 10^4 randomized updates across many sequences: capacity, size
        # monotonicity, n_seen accounting, id provenance, id distinctness
        total_updates = 0
        seq = 0
        while total_updates < 10_000:
            rng = substream_indexed(77, "fuzz", seq)
            seq += 1
            m = int(rng.integers(1, 40))
            buf = RehearsalBuffer(m)
            offered = set()
            next_id = 0
            for _ in range(int(rng.integers(1, 25))):
                b = int(rng.integers(1, 30))
                ids = list(range(next_id, next_id + b))
                next_id += b
                offered.update(ids)
                s_batch = rng.uniform(-1, 1, size=b)
                s_buf = np.array([it.similarity for it in buf.items])
                n_seen_before = buf.n_seen
                size_before = len(buf)
                update_buffer(buf, make_items(ids), s_batch, s_buf, rng)
                total_updates += 1
                assert len(buf) <= m
                assert len(buf) >= size_before
                assert buf.n_seen == n_seen_before + b
                stored = [it.sample_id for it in buf.items]
                assert len(stored) == len(set(stored))
                assert set(stored) <= offered
            if buf.n_seen >= m:
                assert len(buf) == m


class TestMMD:
    def test_identical_is_zero(self):
        f = np.array([0.1, 0.4, 0.8])
        assert mmd_squared(f, f) == pytest.approx(0.0)

    def test_hand_value(self):
        fb = np.array([0.5, 0.5])
        fs = np.array([0.3, 0.3, 0.3])
        assert mmd_squared(fb, fs) == pytest.approx(0.04)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(55)
        for _ in range(20):
            fb = rng.uniform(-1, 1, size=int(rng.integers(1, 50)))
            fs = rng.uniform(-1, 1, size=int(rng.integers(1, 50)))
            kxx = np.outer(fb, fb).mean()
            kyy = np.outer(fs, fs).mean()
            kxy = np.outer(fb, fs).mean()
            assert mmd_squared(fb, fs) == pytest.approx(kxx + kyy - 2 * kxy,
                                                        abs=1e-12)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            mmd_squared(np.array([]), np.array([0.1]))


class TestRehearsalBuffer:
    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            RehearsalBuffer(0)

    def test_items_snapshot(self):
        # one record per resident with its id, label, embedding and score
        # when stored; later exchanges do not reach a snapshot
        buf = RehearsalBuffer(2)
        rng = substream(1, "d")
        update_buffer(buf, make_items([5, 6]), np.array([0.25, -0.5]), np.zeros(0), rng)
        before = buf.items
        update_buffer(buf, make_items([7, 8]), np.array([0.1, 0.2]), np.array([0.25, -0.5]), rng)
        assert [it.sample_id for it in buf.items] != [5, 6]
        assert [(it.sample_id, it.label, it.similarity) for it in before] == \
            [(5, 0, 0.25), (6, 0, -0.5)]
        npt.assert_array_equal(before[0].embedding, make_items([5])[0].embedding)
        npt.assert_array_equal(before[1].embedding, make_items([5, 6])[1].embedding)


def offer_stream(sizes, tokens=2, dim=3, seed=0):
    """EmbeddingBatches of the given sizes with consecutive ids."""
    rng = np.random.default_rng(seed)
    start = 0
    for b in sizes:
        yield EmbeddingBatch(rng.standard_normal((b, tokens, dim)),
                             rng.integers(0, 5, size=b), np.arange(start, start + b))
        start += b


def offer(policy, buf, batch, rng):
    """Offer ``batch`` to ``buf`` under the named policy."""
    if policy == "streamfp":
        s_buf = rng.uniform(-1, 1, size=len(buf))
        update_buffer(buf, batch, rng.uniform(-1, 1, size=len(batch)), s_buf, rng)
    elif policy == "reservoir":
        reservoir_update(buf, batch, rng)
    else:
        keep_first_update(buf, batch)


class TestStoreGrowth:
    """The store grows geometrically and in place; its readers must not
    tell: after every write they equal the residents rebuilt from scratch."""

    CASES = [
        (4096, [256] * 18),  # a replay-sized fill, then two full offers
        (102, [20] * 8),  # a fill that ends part-way through a batch
        (5, [8, 3, 6]),  # a first offer larger than the capacity
        (1, [1, 2, 1]),  # capacity 1
    ]

    @staticmethod
    def assert_holds(buf, rows):
        """``buf`` holds the (id, label, similarity, embedding) rows, in order."""
        ids, labels, sims, embs = zip(*rows)
        emb = np.stack(embs)
        npt.assert_array_equal(buf.sample_ids, ids)
        npt.assert_array_equal(buf.labels, labels)
        npt.assert_array_equal(buf.similarity, sims)
        npt.assert_array_equal(buf.embeddings(), emb)
        npt.assert_array_equal(buf.unit_token_sums(), unit_token_sums(emb))
        records = buf.items
        assert [(it.sample_id, it.label, it.similarity) for it in records] == \
            list(zip(ids, labels, sims))
        npt.assert_array_equal(np.stack([it.embedding for it in records]), emb)

    @pytest.mark.parametrize("policy", ["streamfp", "reservoir", "keep_first"])
    @pytest.mark.parametrize("capacity, sizes", CASES, ids=["m4096-b256", "m102-b20",
                                                            "first-offer-over-m", "m1"])
    def test_readers_match_rebuilt_residents_after_every_write(
            self, monkeypatch, policy, capacity, sizes):
        rows = []  # the residents as (id, label, similarity, embedding) rows
        write = RehearsalBuffer._write

        def checked_write(buf, slots, batch, batch_rows, similarity, sums):
            write(buf, slots, batch, batch_rows, similarity, sums)
            # slots and rows as index lists, whether given as slices or lists
            slots = np.arange(buf.capacity)[slots].tolist()
            for slot, row in zip(slots, np.arange(len(batch))[batch_rows].tolist()):
                resident = (int(batch.sample_ids[row]), int(batch.labels[row]),
                            float(similarity[row]), batch.embeddings[row].copy())
                if slot == len(rows):
                    rows.append(resident)
                else:
                    rows[slot] = resident
            self.assert_holds(buf, rows)

        monkeypatch.setattr(RehearsalBuffer, "_write", checked_write)
        rng = substream(capacity, f"growth-{policy}")
        buf = RehearsalBuffer(capacity)
        for batch in offer_stream(sizes):
            offer(policy, buf, batch, rng)
            self.assert_holds(buf, rows)
        assert len(buf) == capacity

    @pytest.mark.parametrize("capacity, b", [(4096, 256), (102, 20), (5, 8), (1, 1), (4096, 3)])
    def test_full_fill_allocates_logarithmically_often(self, capacity, b):
        # each growth moves the embeddings into a new array; count them
        buf = RehearsalBuffer(capacity)
        stores = []
        for batch in offer_stream([b] * math.ceil(capacity / b)):
            keep_first_update(buf, batch)
            store = buf.embeddings().base
            if not any(store is seen for seen in stores):
                stores.append(store)
        assert len(buf) == capacity
        assert len(stores) <= max(0, math.ceil(math.log2(capacity / b))) + 1
        assert stores[-1].shape[0] == capacity


class TestReservoirWrite:
    """``reservoir_update`` draws row by row but writes the rows it keeps
    once, after its draws; it must store what writing each drawn row at
    once would."""

    @staticmethod
    def per_row_reference(rows, capacity, n_seen, batch, rng):
        """The reservoir on a list of (id, label, embedding) residents, each
        drawn row written when it is drawn; returns n_seen and the slots
        drawn more than once."""
        drawn, repeated = set(), set()
        for row in range(len(batch)):
            resident = (int(batch.sample_ids[row]), int(batch.labels[row]),
                        batch.embeddings[row])
            if len(rows) < capacity:
                rows.append(resident)
            else:
                j = int(rng.integers(0, n_seen + 1))
                if j < capacity:
                    rows[j] = resident
                    repeated |= {j} & drawn
                    drawn.add(j)
            n_seen += 1
        return n_seen, repeated

    def test_one_write_equals_per_row_writes(self, monkeypatch):
        writes = []
        write = RehearsalBuffer._write
        monkeypatch.setattr(RehearsalBuffer, "_write",
                            lambda buf, *args: writes.append(1) or write(buf, *args))
        cases = substream(6, "reservoir-write")
        repeats = 0
        for capacity in range(1, 9):
            for stream in range(5):
                seed = int(cases.integers(2**32))
                rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
                buf, rows, n_seen = RehearsalBuffer(capacity), [], 0
                sizes = cases.integers(1, 3 * capacity + 1, size=6).tolist()
                for batch in offer_stream(sizes, seed=seed):
                    del writes[:]
                    reservoir_update(buf, batch, rng)
                    n_seen, repeated = self.per_row_reference(rows, capacity, n_seen, batch, twin)
                    repeats += bool(repeated)
                    assert len(writes) <= 2  # the fill, then the kept rows
                    ids, labels, embs = zip(*rows)
                    npt.assert_array_equal(buf.sample_ids, ids)
                    npt.assert_array_equal(buf.labels, labels)
                    npt.assert_array_equal(buf.similarity, np.zeros(len(rows)))
                    npt.assert_array_equal(buf.embeddings(), np.stack(embs))
                    npt.assert_array_equal(buf.unit_token_sums(), unit_token_sums(np.stack(embs)))
                    assert buf.n_seen == n_seen
                    assert rng.bit_generator.state == twin.bit_generator.state
        # the streams must reach the case the single write has to get right
        assert repeats


    def test_draws_past_2_32_seen_equal_per_row_draws(self):
        # n_seen crosses the 2**32 bound inside one offer's draws
        for capacity in (1, 8):
            rng, twin = substream(capacity, "reservoir-2-32"), substream(capacity, "reservoir-2-32")
            buf, rows = RehearsalBuffer(capacity), []
            stream = offer_stream([capacity] + [40] * 3, seed=capacity)
            first = next(stream)
            reservoir_update(buf, first, rng)
            n_seen, _ = self.per_row_reference(rows, capacity, 0, first, twin)
            buf.n_seen = n_seen = 2**32 - 50
            for batch in stream:
                reservoir_update(buf, batch, rng)
                n_seen, _ = self.per_row_reference(rows, capacity, n_seen, batch, twin)
                npt.assert_array_equal(buf.sample_ids, [row[0] for row in rows])
                assert buf.n_seen == n_seen
                assert rng.bit_generator.state == twin.bit_generator.state
            assert n_seen > 2**32


class TestOfferSums:
    """A policy given the offer's unit-token sums stores them in place of
    normalizing the rows it writes: the same bits, the same draws."""

    @staticmethod
    def columns(buf):
        return (buf.sample_ids.tobytes(), buf.labels.tobytes(), buf.similarity.tobytes(),
                buf.embeddings().tobytes(), buf.unit_token_sums().tobytes(), buf.n_seen)

    @pytest.mark.parametrize("policy", ["streamfp", "reservoir", "keep_first"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_offered_sums_equal_normalizing_the_stored_rows(self, monkeypatch, policy, dtype):
        # a float32 first offer is stored as float64, exactly, and its sums
        # are those of the rows as stored: no offer that comes with its sums
        # normalizes anything
        calls = []

        def counting(emd):
            calls.append(len(emd))
            return unit_token_sums(emd)

        monkeypatch.setattr(buffer_module, "unit_token_sums", counting)
        rng, twin = substream(8, "offer-sums"), substream(8, "offer-sums")
        scores = substream(8, "offer-sums-scores")
        given, plain = RehearsalBuffer(6), RehearsalBuffer(6)
        normalized = []  # rows normalized by each offer that came with its sums
        for i, batch in enumerate(offer_stream((4, 5, 7, 1, 8, 9), tokens=3, dim=5, seed=8)):
            if i == 0:
                batch = EmbeddingBatch(batch.embeddings.astype(dtype), batch.labels,
                                       batch.sample_ids)
            sums = batch.summary().unit_sums
            del calls[:]
            if policy == "streamfp":
                s_batch = scores.uniform(-1, 1, size=len(batch))
                s_buf = scores.uniform(-1, 1, size=len(given))
                update_buffer(given, batch, s_batch, s_buf, rng, sums)
                normalized.append(sum(calls))
                update_buffer(plain, batch, s_batch, s_buf, twin)
            elif policy == "reservoir":
                reservoir_update(given, batch, rng, sums)
                normalized.append(sum(calls))
                reservoir_update(plain, batch, twin)
            else:
                keep_first_update(given, batch, sums)
                normalized.append(sum(calls))
                keep_first_update(plain, batch)
            assert self.columns(given) == self.columns(plain)
            assert given.embeddings().dtype == np.float64
            assert given.unit_token_sums().tobytes() == \
                unit_token_sums(given.embeddings()).tobytes()
            assert rng.bit_generator.state == twin.bit_generator.state
        assert normalized == [0] * 6

    @pytest.mark.parametrize("policy", ["streamfp", "reservoir", "keep_first"])
    def test_sums_as_a_nested_list_store_what_the_array_stores(self, policy):
        # a list indexed by the exchange's retain rows raised TypeError after
        # the fill had written, leaving rows stored but not counted in n_seen
        rng, twin = substream(10, "offer-sums-list"), substream(10, "offer-sums-list")
        scores = substream(10, "offer-sums-list-scores")
        listed, arrayed = RehearsalBuffer(4), RehearsalBuffer(4)
        for batch in offer_stream((3, 3, 5, 2), tokens=2, dim=5, seed=10):
            sums = batch.summary().unit_sums
            if policy == "streamfp":
                s_batch = scores.uniform(-1, 1, size=len(batch))
                s_buf = scores.uniform(-1, 1, size=len(listed))
                update_buffer(listed, batch, s_batch, s_buf, rng, sums.tolist())
                update_buffer(arrayed, batch, s_batch, s_buf, twin, sums)
            elif policy == "reservoir":
                reservoir_update(listed, batch, rng, sums.tolist())
                reservoir_update(arrayed, batch, twin, sums)
            else:
                keep_first_update(listed, batch, sums.tolist())
                keep_first_update(arrayed, batch, sums)
            assert self.columns(listed) == self.columns(arrayed)
            assert rng.bit_generator.state == twin.bit_generator.state

    @pytest.mark.parametrize("policy", ["streamfp", "reservoir", "keep_first"])
    @pytest.mark.parametrize("shape", [(3, 5), (4, 4), (4,)])
    def test_sums_of_the_wrong_shape_raise_and_change_nothing(self, policy, shape):
        rng = substream(9, "offer-sums-shape")
        buf = RehearsalBuffer(4)
        keep_first_update(buf, next(offer_stream([2], tokens=2, dim=5)))
        before, state = self.columns(buf), rng.bit_generator.state
        batch = next(offer_stream([4], tokens=2, dim=5, seed=1))
        with pytest.raises(ValueError, match="unit_sums"):
            if policy == "streamfp":
                update_buffer(buf, batch, np.zeros(4), np.zeros(2), rng, np.zeros(shape))
            elif policy == "reservoir":
                reservoir_update(buf, batch, rng, np.zeros(shape))
            else:
                keep_first_update(buf, batch, np.zeros(shape))
        assert self.columns(buf) == before
        assert rng.bit_generator.state == state


class TestOfferShape:
    """An offer whose rows' (L, D) differ from the residents' is rejected by
    every policy before it writes, draws or counts anything; the first
    offer sets the (L, D)."""

    @pytest.mark.parametrize("policy", ["streamfp", "reservoir", "keep_first"])
    @pytest.mark.parametrize("filled", [2, 4], ids=["room", "full"])
    @pytest.mark.parametrize("row_shape", [(1, 4), (3, 4), (2, 1)], ids=["L1", "L3", "D1"])
    def test_mismatched_rows_raise_and_change_nothing(self, policy, filled, row_shape):
        rng = substream(7, "offer-shape")
        buf = RehearsalBuffer(4)
        keep_first_update(buf, next(offer_stream([filled], tokens=2, dim=4)))
        before = (buf.sample_ids.copy(), buf.labels.copy(), buf.similarity.copy(),
                  buf.embeddings().copy(), buf.unit_token_sums().copy(), buf.n_seen)
        state = rng.bit_generator.state
        batch = EmbeddingBatch(np.ones((3, *row_shape)), np.zeros(3, dtype=np.int64),
                               np.arange(10, 13))
        with pytest.raises(ValueError) as raised:
            if policy == "streamfp":
                update_buffer(buf, batch, np.zeros(3), np.zeros(filled), rng)
            elif policy == "reservoir":
                reservoir_update(buf, batch, rng)
            else:
                keep_first_update(buf, batch)
        assert str(row_shape) in str(raised.value) and "(2, 4)" in str(raised.value)
        after = (buf.sample_ids, buf.labels, buf.similarity, buf.embeddings(),
                 buf.unit_token_sums(), buf.n_seen)
        for was, now in zip(before, after):
            npt.assert_array_equal(now, was)
        assert rng.bit_generator.state == state

    def test_first_offer_sets_the_shape(self):
        buf = RehearsalBuffer(4)
        keep_first_update(buf, [])
        keep_first_update(buf, make_items(range(2), dim=4, tokens=3))
        with pytest.raises(ValueError, match=r"\(2, 4\).*\(3, 4\)"):
            keep_first_update(buf, make_items(range(2, 4), dim=4, tokens=2))
        keep_first_update(buf, make_items(range(4, 6), dim=4, tokens=3))
        assert buf.sample_ids.tolist() == [0, 1, 4, 5]


class TestResidentScoresOnlyForAnExchange:
    """``update_buffer`` takes ``s_buffer=None`` exactly where no resident
    from before the offer is ranked: the offer fits the room left, or the
    buffer is empty. None for an offer that overflows a non-empty buffer
    raises before any write or draw."""

    columns = staticmethod(TestOfferSums.columns)

    @staticmethod
    def filled(capacity, rows, rng):
        """A buffer of ``capacity`` holding ``rows`` residents, scored."""
        buf = RehearsalBuffer(capacity)
        if rows:
            update_buffer(buf, next(offer_stream([rows], seed=1)), rng.uniform(-1, 1, rows),
                          np.zeros(0), rng)
        return buf

    # an empty buffer has no residents to rank, even under an offer larger
    # than its capacity
    @pytest.mark.parametrize("rows, b, overflows", [(0, 9, False), (2, 3, False), (2, 4, False),
                                                    (2, 5, True)],
                             ids=["empty", "room", "exact-fit", "overflow"])
    def test_overflows_truth_table(self, rows, b, overflows):
        buf = self.filled(6, rows, substream(14, "resident-scores"))
        assert buf.overflows(b) is overflows

    @pytest.mark.parametrize("capacity, rows, b", [(6, 0, 4), (6, 0, 6), (6, 2, 3), (6, 2, 4)],
                             ids=["empty", "empty-to-full", "room", "room-to-full"])
    def test_fitting_offer_with_none_matches_real_scores(self, capacity, rows, b):
        results = []
        for s_buffer in ("scores", None):
            rng = substream(11, "resident-scores")
            buf = self.filled(capacity, rows, rng)
            batch = next(offer_stream([b], seed=2))
            sums = batch.summary().unit_sums
            if s_buffer is not None:
                s_buffer = substream(11, "resident-scores-values").uniform(-1, 1, len(buf))
            update_buffer(buf, batch, np.linspace(-1, 1, b), s_buffer, rng, sums)
            results.append((self.columns(buf), rng.bit_generator.state))
        assert results[0] == results[1]

    # m=1 leaves a lone resident, whose drop is certain; m=5, b=6 a lone
    # retain candidate; m=3, b=7 an exchange of 3 (floor(b/2) = 3 < b - m = 4)
    @pytest.mark.parametrize("capacity, b", [(1, 3), (5, 6), (3, 7)])
    def test_empty_buffer_overflowed_takes_none_as_no_scores(self, capacity, b):
        results = []
        for s_buffer in (np.zeros(0), None):
            rng = substream(12, "resident-scores")
            buf = RehearsalBuffer(capacity)
            batch = next(offer_stream([b], seed=3))
            update_buffer(buf, batch, rng.uniform(-1, 1, b), s_buffer, rng,
                          batch.summary().unit_sums)
            results.append((self.columns(buf), rng.bit_generator.state))
        assert results[0] == results[1]
        assert len(buf) == capacity and buf.n_seen == b

    @pytest.mark.parametrize("rows, b", [(2, 5), (6, 1), (6, 4)],
                             ids=["room-overflowed", "full-one", "full"])
    def test_none_on_an_overflowing_offer_raises_and_changes_nothing(self, rows, b):
        rng = substream(13, "resident-scores")
        buf = self.filled(6, rows, rng)
        before, state = self.columns(buf), rng.bit_generator.state
        with pytest.raises(ValueError, match="s_buffer"):
            update_buffer(buf, next(offer_stream([b], seed=4)), np.zeros(b), None, rng)
        assert self.columns(buf) == before
        assert rng.bit_generator.state == state


class TestReadOnlyViews:
    READERS = {
        "sample_ids": lambda buf: buf.sample_ids,
        "labels": lambda buf: buf.labels,
        "similarity": lambda buf: buf.similarity,
        "embeddings": lambda buf: buf.embeddings(),
        "unit_token_sums": lambda buf: buf.unit_token_sums(),
    }

    @pytest.mark.parametrize("reader", READERS)
    def test_write_raises_and_leaves_residents(self, reader):
        buf = RehearsalBuffer(8)
        batch = next(offer_stream([6]))
        update_buffer(buf, batch, np.linspace(-1, 1, 6), np.zeros(0), substream(1, "ro"))
        before = [np.array(read(buf)) for read in self.READERS.values()]
        view = self.READERS[reader](buf)
        with pytest.raises(ValueError, match="read-only"):
            view[0] = 7
        with pytest.raises(ValueError, match="read-only"):
            view += 1
        for read, was in zip(self.READERS.values(), before):
            npt.assert_array_equal(read(buf), was)


class TestGoldenDecisions:
    """Exact decisions of seeded offer sequences, recorded before the buffer
    moved from a list of records to arrays; any change to a draw, a fill or
    an exchange shows here."""

    @staticmethod
    def _offers(sizes):
        ids = np.arange(sum(sizes))
        for chunk in np.split(ids, np.cumsum(sizes)[:-1]):
            yield [BufferItem(int(i), np.full((1, 2), float(i)), int(i) % 3, 0.0)
                   for i in chunk]

    @staticmethod
    def _state(buf):
        return [it.sample_id for it in buf.items], buf.n_seen

    def test_retain_drop(self):
        # capacity 7: two fills, a straddling fill plus exchange (5 offered
        # with 1 slot free), three full offers, the last with b=1 (nu = 0)
        rng = substream(2024, "golden-retain-drop")
        buf = RehearsalBuffer(7)
        states = []
        for items in self._offers([3, 3, 5, 4, 6, 2, 1]):
            s_buf = np.array([it.similarity for it in buf.items])
            update_buffer(buf, items, rng.uniform(-1, 1, size=len(items)), s_buf, rng)
            states.append(self._state(buf))
        assert states == [
            ([0, 1, 2], 3),
            ([0, 1, 2, 3, 4, 5], 6),
            ([0, 1, 7, 3, 4, 8, 6], 11),
            ([0, 1, 7, 3, 4, 14, 12], 15),
            ([18, 1, 20, 3, 4, 19, 12], 21),
            ([18, 1, 20, 3, 4, 21, 12], 23),
            ([18, 1, 20, 3, 4, 21, 12], 24),
        ]

    def test_reservoir(self):
        rng = substream(2024, "golden-reservoir")
        buf = RehearsalBuffer(5)
        states = [self._state(reservoir_update(buf, items, rng))
                  for items in self._offers([3, 4, 6, 5])]
        assert states == [
            ([0, 1, 2], 3),
            ([0, 1, 2, 6, 4], 7),
            ([0, 1, 10, 9, 4], 13),
            ([0, 14, 10, 9, 4], 18),
        ]

    def test_keep_first(self):
        buf = RehearsalBuffer(5)
        states = [self._state(keep_first_update(buf, items))
                  for items in self._offers([3, 4, 2])]
        assert states == [([0, 1, 2], 3), ([0, 1, 2, 3, 4], 7), ([0, 1, 2, 3, 4], 9)]

    def test_sampler(self):
        rng = substream(2024, "golden-sampler")
        picks = [weighted_sample_without_replacement(rng.uniform(0, 1, size=9), 4, rng)
                 for _ in range(3)]
        assert picks == [[8, 6, 1, 2], [4, 7, 8, 2], [4, 0, 1, 6]]
        # two positive weights, then the uniform fallback for three draws
        w = np.array([0.0, 0.5, 0.0, 0.0, 0.2, 0.0])
        assert weighted_sample_without_replacement(w, 5, rng) == [1, 4, 3, 2, 0]


class TestSamplerChecks:
    """The sampler passes a valid weight vector on two reductions, a total
    and a minimum, and runs its three element checks only on a vector that
    fails them, to pick the message. Every bad vector must raise the message
    of the first check it fails, in the order finite, non-negative, finite
    sum, without a warning and before the generator moves."""

    @pytest.mark.parametrize("weights, message", [
        ([0.5, np.nan, 0.2], "weights must be finite"),
        ([0.5, np.inf, 0.2], "weights must be finite"),
        ([0.5, -np.inf, 0.2], "weights must be finite"),
        ([np.inf, -np.inf], "weights must be finite"),  # a NaN total
        ([-0.5, np.nan], "weights must be finite"),  # finiteness is checked first
        ([0.5, -0.1, 0.2], "weights must be non-negative"),
        ([0.5, -5e-324], "weights must be non-negative"),
        ([1e308, 1e308, -1.0], "weights must be non-negative"),  # before the sum
        ([1e308, 1e308, 1.0], "weights must have a finite sum"),
    ], ids=["nan", "inf", "-inf", "inf-and-inf", "negative-and-nan", "negative",
            "negative-subnormal", "negative-and-overflowing", "overflowing-total"])
    def test_bad_weights_raise_their_message_silently(self, weights, message):
        rng = substream(9, "sampler-checks")
        before = rng.bit_generator.state
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{message}$"):
                weighted_sample_without_replacement(np.array(weights), 1, rng)
        assert rng.bit_generator.state == before

    def test_negative_zero_is_accepted(self):
        w = np.array([-0.0, 1.0, 0.5, 0.0, 2.0])
        want_rng = substream(9, "sampler-negative-zero")
        got_rng = substream(9, "sampler-negative-zero")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = weighted_sample_without_replacement(w, 3, got_rng)
        assert got == choice_sampler(w, 3, want_rng)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


def rescored(offer, ids):
    """The scores a driver would give the residents ``ids`` before the
    given offer: distinct, and not the similarity they were stored with."""
    return np.sin(0.37 * np.asarray(ids, dtype=np.float64) + offer)


def replay_retain_drop(offers, p_agg, tokens, m, rng):
    """``update_buffer`` over ``offers`` that never leave a lone retain
    candidate, written with the public ``compute_update_count``,
    ``rank_probabilities`` and sampler on plain resident lists. Returns the
    residents' ids, their stored similarities, and (fill, nu) of each
    exchange that drew."""
    ids, stored, exchanges, n_seen = [], [], [], 0
    for t, batch in enumerate(offers):
        s = sum_similarity(batch.summary().unit_sums, p_agg, tokens)
        s_resident = rescored(t, ids)
        b, fill = len(batch), min(m - len(ids), len(batch))
        ids += batch.sample_ids[:fill].tolist()
        stored += s[:fill].tolist()
        if fill < b:
            nu = min(compute_update_count(b, m, n_seen, rng), b - fill, len(ids))
            if nu >= 1:
                pi_batch = rank_probabilities(s[fill:])
                pi_buffer = rank_probabilities(np.concatenate([s_resident, s[:fill]]))
                retain = weighted_sample_without_replacement(pi_batch, nu, rng)
                drop = weighted_sample_without_replacement(1.0 - pi_buffer, nu, rng)
                for slot, row in zip(drop, retain):
                    ids[slot] = int(batch.sample_ids[fill + row])
                    stored[slot] = float(s[fill + row])
                exchanges.append((fill, nu))
        n_seen += b
    return ids, stored, exchanges


def test_exchange_samples_through_the_module_name(monkeypatch):
    # perfbench counts the sampler's calls and draws through a wrapper on the
    # module name buffer.weighted_sample_without_replacement: every exchange
    # with two or more retain candidates must call that name twice, each call
    # returning nu indices, and its outcome must be the public functions'
    m, tokens, dim = 102, 2, 16
    offers = list(offer_stream([20] * 60, tokens=tokens, dim=dim, seed=24))
    p_agg = substream(24, "trace-guard").standard_normal((8, dim))
    replay_rng = substream(24, "trace-guard-draws")
    ids, stored, exchanges = replay_retain_drop(offers, p_agg, tokens, m, replay_rng)
    assert {fill > 0 for fill, _ in exchanges} == {True, False}

    calls = []
    sampler = buffer_module.weighted_sample_without_replacement

    def counting(weights, k, rng):
        picks = sampler(weights, k, rng)
        calls.append((k, len(picks)))
        return picks

    monkeypatch.setattr(buffer_module, "weighted_sample_without_replacement", counting)
    rng = substream(24, "trace-guard-draws")
    buf = RehearsalBuffer(m)
    for t, batch in enumerate(offers):
        sums = batch.summary().unit_sums
        update_buffer(buf, batch, sum_similarity(sums, p_agg, tokens),
                      rescored(t, buf.sample_ids), rng, sums)
    assert calls == [(nu, nu) for _, nu in exchanges for _ in range(2)]
    assert buf.sample_ids.tolist() == ids
    assert buf.similarity.tobytes() == np.array(stored).tobytes()
    assert rng.bit_generator.state == replay_rng.bit_generator.state
