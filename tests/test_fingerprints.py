"""Tests for the fingerprint pool and the gated frozen-MLP attunement."""

import numpy as np
import numpy.testing as npt
import pytest
from scipy.special import ndtr

from oracles import gelu_grad, softmax
from streamfp import fingerprints
from streamfp.core_math import gelu, gelu_with_grad
from streamfp.fingerprints import (
    AttunementParams,
    FingerprintPool,
    aggregate,
    attune,
    attune_backward,
    gate_forward,
)
from streamfp.seeding import substream

# attune sums the attuned tokens before the value matrices, the per-token
# references after them; the two agree to this fraction of the largest entry
SUM_RTOL = 1e-13

# (N, L_p, D, R): the default StreamConfig and the smaller test configs,
# five experts, and the replay and paper benchmark shapes
PINNED_SHAPES = [
    (8, 2, 16, 3),
    (5, 4, 6, 5),
    (8, 2, 64, 3),
    (100, 4, 768, 3),
]


def shape_cases(shapes):
    """One case per (N, L_p, D, R) shape. Each id ends in "-None", the id
    the shape ran under while the gate could keep fewer than R experts
    (None meaning all R); keeping it lets results compare across the
    suite's history."""
    return [pytest.param(*s, id="-".join(map(str, s)) + "-None") for s in shapes]


def identity_params(dim, num_experts, gate=None):
    eye = np.stack([np.eye(dim)] * num_experts)
    if gate is None:
        gate = np.zeros((dim, num_experts))
    return AttunementParams(gate, eye.copy(), eye.copy())


def random_case(n, lp, d, r, seed):
    rng = substream(seed, "ref")
    pool = FingerprintPool(rng.standard_normal((n, lp, d)))
    params = AttunementParams.init_random(d, r, rng, gate_scale=0.5)
    return pool, params, rng.standard_normal((n, lp, d))


def reference_gate(pool, params):
    """Per-row softmax of the gate scores, in expert order."""
    scores = pool.weights.mean(axis=1) @ params.gate
    return np.stack([softmax(row) for row in scores])


def backward(pool, params, upstream):
    """attune_backward with the cache of a forward on the same pool and params."""
    _, cache = attune(pool, params, with_cache=True)
    return attune_backward(pool, params, upstream, cache)


def assert_close_to_largest(actual, desired, rtol=SUM_RTOL):
    """|actual - desired| <= rtol * max|desired| entrywise."""
    npt.assert_allclose(actual, desired, rtol=0, atol=rtol * np.abs(desired).max())


def reference_attune(pool, params):
    """attune one fingerprint at a time: one (L_p, D) x (D, D) product per
    fingerprint and expert, as NumPy runs a stacked matmul."""
    mix = reference_gate(pool, params)
    out = np.zeros_like(pool.weights)
    for n, fp in enumerate(pool.weights):
        for r in range(params.num_experts):
            out[n] += mix[n, r] * (gelu(fp @ params.keys[r].T) @ params.values[r].T)
    return out


def reference_attune_backward(pool, params, upstream):
    """attune_backward one fingerprint at a time, products as above."""
    mix = reference_gate(pool, params)
    n_fp, lp, _ = pool.weights.shape
    experts = range(params.num_experts)
    dscores = np.zeros((n_fp, params.num_experts))
    token_grads = []
    for n, fp in enumerate(pool.weights):
        pre = [fp @ params.keys[r].T for r in experts]
        dmix = np.array([
            np.einsum("ld,ld->", upstream[n], gelu(pre[r]) @ params.values[r].T)
            for r in experts
        ])
        dscores[n] = mix[n] * (dmix - np.sum(mix[n] * dmix))
        grads = []
        for r in experts:
            d_pre = (upstream[n] @ params.values[r]) * gelu_grad(pre[r])
            grads.append(mix[n, r] * (d_pre @ params.keys[r]))
        token_grads.append(grads)
    grad_gate = pool.weights.mean(axis=1).T @ dscores
    grad_pool = np.repeat((dscores @ params.gate.T)[:, None, :] / lp, lp, axis=1)
    for n in range(n_fp):
        for grad in token_grads[n]:
            grad_pool[n] += grad
    return grad_pool, grad_gate


def sum_before_values(pool, params):
    """attune one fingerprint at a time, summing the GELU activations over
    L_p before the value matrix. Each value matrix maps the stacked (N, D)
    sums in one product: a single row would run through BLAS's
    matrix-vector kernel, which rounds differently. Returns the output and
    the (R, N, D) expert sums."""
    mix = reference_gate(pool, params)
    sums = np.stack([
        np.stack([gelu(fp @ params.keys[r].T).sum(axis=0) for fp in pool.weights])
        @ params.values[r].T
        for r in range(params.num_experts)
    ])
    out = np.zeros((pool.count, pool.dim))
    for n in range(pool.count):
        for r in range(params.num_experts):
            out[n] += mix[n, r] * sums[r, n]
    return out, sums


def sum_before_values_backward(pool, params, upstream):
    """attune_backward one fingerprint at a time for an (N, D) upstream;
    the value-matrix and gate products run on stacked rows, as above."""
    mix = reference_gate(pool, params)
    _, sums = sum_before_values(pool, params)
    experts = range(params.num_experts)
    d_act = np.stack([upstream @ params.values[r] for r in experts])
    n_fp, lp, _ = pool.weights.shape
    dscores = np.zeros((n_fp, params.num_experts))
    token_grads = []
    for n, fp in enumerate(pool.weights):
        dmix = np.array([np.einsum("d,d->", upstream[n], sums[r, n]) for r in experts])
        dscores[n] = mix[n] * (dmix - np.sum(mix[n] * dmix))
        grads = []
        for r in experts:
            d_pre = d_act[r, n] * gelu_grad(fp @ params.keys[r].T)
            grads.append(mix[n, r] * (d_pre @ params.keys[r]))
        token_grads.append(grads)
    grad_gate = pool.weights.mean(axis=1).T @ dscores
    grad_pool = np.repeat((dscores @ params.gate.T)[:, None, :] / lp, lp, axis=1)
    for n in range(n_fp):
        for grad in token_grads[n]:
            grad_pool[n] += grad
    return grad_pool, grad_gate


class TestFingerprintPool:
    def test_validation(self):
        with pytest.raises(ValueError):
            FingerprintPool(np.zeros((2, 3)))  # not rank 3
        with pytest.raises(ValueError):
            FingerprintPool(np.zeros((2, 3, 4)))  # odd length
        with pytest.raises(ValueError):
            FingerprintPool(np.zeros((0, 2, 4)))  # no fingerprints
        with pytest.raises(ValueError):
            FingerprintPool(np.full((1, 2, 2), np.nan))

    def test_properties(self):
        pool = FingerprintPool(np.zeros((3, 4, 5)))
        assert (pool.count, pool.length, pool.dim) == (3, 4, 5)

    def test_init_random_scale(self):
        pool = FingerprintPool.init_random(50, 4, 20, substream(1, "p"))
        assert abs(pool.weights.std() - 0.02) < 0.002


class TestAggregate:
    def test_zero_pool(self):
        pool = FingerprintPool(np.zeros((2, 4, 3)))
        npt.assert_array_equal(aggregate(pool), np.zeros((2, 3)))

    def test_cancellation(self):
        u = np.array([1.0, -2.0, 3.0])
        pool = FingerprintPool(np.stack([u, -u])[None, :, :])
        npt.assert_allclose(aggregate(pool), np.zeros((1, 3)), atol=1e-15)

    def test_hand_sum(self):
        pool = FingerprintPool(np.array([[[1.0, 2.0], [3.0, 4.0]]]))
        npt.assert_array_equal(aggregate(pool), [[4.0, 6.0]])


class TestGateForward:
    def test_zero_gate_uniform(self):
        pool = FingerprintPool.init_random(4, 2, 5, substream(2, "g"))
        mix = gate_forward(pool, identity_params(5, 3))
        npt.assert_allclose(mix, 1.0 / 3.0, atol=1e-12)

    def test_hand_softmax_top2(self):
        # scores per fingerprint = pooled @ gate = [0, 2, 1]: column r is
        # expert r's weight, whatever the score order
        pool = FingerprintPool(np.array([[[1.0], [3.0]]]))  # pooled = [2]
        params = identity_params(1, 3, gate=np.array([[0.0, 1.0, 0.5]]))
        mix = gate_forward(pool, params)
        npt.assert_allclose(mix, [[0.09003057, 0.66524096, 0.24472847]], atol=1e-8)

    def test_rows_sum_to_one(self):
        rng = substream(4, "g")
        pool = FingerprintPool.init_random(7, 4, 6, rng)
        params = AttunementParams.init_random(6, 5, rng, gate_scale=0.5)
        mix = gate_forward(pool, params)
        npt.assert_allclose(mix.sum(axis=1), 1.0, atol=1e-12)

    # ids read "experts-kept", as the cases ran when the gate could keep
    # fewer than R experts; the gate keeps all of them
    @pytest.mark.parametrize("num_experts", [3, 20], ids=lambda r: f"{r}-{r}")
    def test_matches_per_row_reference_on_ties(self, num_experts):
        # integer pools and a gate with repeated columns give many tied scores
        rng = substream(num_experts * 101, "tie")
        pool = FingerprintPool(rng.integers(-2, 3, size=(40, 2, 4)).astype(float))
        gate = rng.integers(-1, 2, size=(4, num_experts)).astype(float)
        gate[:, num_experts // 2:] = gate[:, : num_experts - num_experts // 2]
        params = identity_params(4, num_experts, gate=gate)
        assert np.array_equal(gate_forward(pool, params), reference_gate(pool, params))

    def test_all_tied_scores_pick_lowest_indices(self):
        # the name dates from the score-ordered gate, which broke ties to
        # the lower expert index; in expert order tied experts mix alike
        pool = FingerprintPool.init_random(6, 2, 3, substream(22, "g"))
        params = identity_params(3, 20, gate=np.ones((3, 20)))
        npt.assert_allclose(gate_forward(pool, params), 1.0 / 20.0, atol=1e-15)

    def test_expert_permutation_permutes_columns(self):
        # permuting the experts (gate columns, keys and values together)
        # permutes the mixing weights and leaves the attuned pool as it was
        pool, params, _ = random_case(6, 4, 5, 4, seed=23)
        perm = np.array([2, 0, 3, 1])
        permuted = AttunementParams(params.gate[:, perm], params.keys[perm],
                                    params.values[perm])
        # the softmax sums its terms in the new order, so the last bits move
        npt.assert_allclose(gate_forward(pool, permuted),
                            gate_forward(pool, params)[:, perm], rtol=0, atol=1e-15)
        assert_close_to_largest(attune(pool, permuted), attune(pool, params))


class TestAttune:
    def test_identity_experts_large_input(self):
        # gelu is the identity on large positives, so identity K/V experts
        # pass the tokens through (gate weights sum to 1) and attune sums them
        pool = FingerprintPool(np.full((2, 2, 3), 25.0))
        out = attune(pool, identity_params(3, 3))
        npt.assert_allclose(out, aggregate(pool), atol=1e-6)

    def test_zero_pool_maps_to_zero(self):
        pool = FingerprintPool(np.zeros((3, 2, 4)))
        rng = substream(6, "a")
        params = AttunementParams.init_random(4, 3, rng)
        npt.assert_allclose(attune(pool, params), 0.0, atol=1e-15)

    def test_hand_single_expert(self):
        # N=1, L_p=2, D=1, R=1, W_K=[[2]], W_V=[[3]], tokens [1], [1]
        # -> each token 3 * gelu(2) = 6 * Phi(2), summed over both tokens
        pool = FingerprintPool(np.array([[[1.0], [1.0]]]))
        params = AttunementParams(np.zeros((1, 1)), np.array([[[2.0]]]),
                                  np.array([[[3.0]]]))
        out = attune(pool, params)
        expected = 12.0 * ndtr(2.0)
        npt.assert_allclose(out, expected, atol=1e-12)
        assert out[0, 0] == pytest.approx(2 * 5.863499208310924, abs=1e-9)

    def test_shape_sums_over_length(self):
        rng = substream(7, "a")
        pool = FingerprintPool.init_random(5, 4, 6, rng)
        params = AttunementParams.init_random(6, 3, rng)
        assert attune(pool, params).shape == (5, 6)

    def test_fingerprint_permutation_equivariance(self):
        rng = substream(8, "a")
        pool = FingerprintPool(rng.standard_normal((4, 2, 5)))
        params = AttunementParams.init_random(5, 3, rng, gate_scale=0.5)
        out = attune(pool, params)
        perm = np.array([2, 0, 3, 1])
        out_perm = attune(FingerprintPool(pool.weights[perm]), params)
        npt.assert_allclose(out_perm, out[perm], atol=1e-12)

    def test_dim_mismatch(self):
        pool = FingerprintPool.init_random(2, 2, 3, substream(9, "a"))
        with pytest.raises(ValueError):
            attune(pool, identity_params(4, 2))

    @pytest.mark.parametrize("n,lp,d,r", shape_cases(PINNED_SHAPES + [(10, 4, 32, 3)]))
    def test_matches_summed_token_reference(self, n, lp, d, r):
        pool, params, _ = random_case(n, lp, d, r, seed=d)
        expected = reference_attune(pool, params).sum(axis=1)
        assert_close_to_largest(attune(pool, params), expected)

    @pytest.mark.parametrize("n,lp,d,r", shape_cases(PINNED_SHAPES))
    def test_bit_identical_to_per_fingerprint_reference(self, n, lp, d, r):
        pool, params, _ = random_case(n, lp, d, r, seed=d)
        out = attune(pool, params)
        expected, sums = sum_before_values(pool, params)
        assert np.array_equal(out, expected)
        cached, cache = attune(pool, params, with_cache=True)
        assert np.array_equal(cached, out)
        assert np.array_equal(cache.expert_sums, sums)

    def test_close_to_reference_where_blas_rounds_differently(self):
        # At this shape OpenBLAS runs the small per-fingerprint products and
        # the single (N*L_p, D) GEMM through different kernels, which round
        # differently in the last bits; the shapes above agree exactly.
        pool, params, _ = random_case(10, 4, 32, 3, seed=32)
        expected, _ = sum_before_values(pool, params)
        assert_close_to_largest(attune(pool, params), expected)


def all_experts_attune(pool, params):
    """attune and its cache with every expert in one stacked matmul and
    one GELU call, the experts' shares added to zeros in expert order."""
    mix = gate_forward(pool, params)
    n, lp, d = pool.weights.shape
    pre = pool.weights.reshape(n * lp, d) @ params.keys.transpose(0, 2, 1)
    act, slope = gelu_with_grad(pre)
    sums = act.reshape(-1, n, lp, d).sum(axis=2) @ params.values.transpose(0, 2, 1)
    out = np.zeros((n, d))
    for r in range(params.num_experts):
        out += mix[:, r, None] * sums[r]
    return out, (mix, sums, slope.reshape(-1, n, lp, d))


# (N, L_p, D, R) and the experts of each group attune runs: N*L_p*D
# pre-activations per expert against an 8192-element ndtr block
GROUPED_SHAPES = [
    pytest.param((16, 2, 256, 3), [1, 1, 1], id="one-expert-groups"),
    pytest.param((16, 2, 128, 3), [2, 1], id="groups-of-2-and-1"),
    pytest.param((8, 2, 16, 3), [3], id="one-group"),
]


@pytest.mark.parametrize("shape,groups", GROUPED_SHAPES)
def test_expert_groups_are_the_all_experts_attunement(shape, groups, monkeypatch):
    pool, params, _ = random_case(*shape, seed=shape[2] + 7)
    pool = FingerprintPool(0.02 * pool.weights)  # the pool's initial scale
    want, want_cache = all_experts_attune(pool, params)
    assert np.array_equal(attune(pool, params), want)
    seen = []

    def counted(x, *args, **kwargs):
        seen.append(x.shape[0])
        return gelu_with_grad(x, *args, **kwargs)

    monkeypatch.setattr(fingerprints, "gelu_with_grad", counted)
    out, cache = attune(pool, params, with_cache=True)
    assert seen == groups
    assert out.tobytes() == want.tobytes()
    assert all(a.tobytes() == b.tobytes() for a, b in zip(cache, want_cache))


class TestFrozenWeights:
    def test_mlp_bank_is_write_protected(self):
        params = AttunementParams.init_random(4, 2, substream(10, "f"))
        with pytest.raises(ValueError):
            params.keys[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            params.values[0, 0, 0] = 1.0

    def test_bit_identical_across_calls(self):
        rng = substream(11, "f")
        pool = FingerprintPool(rng.standard_normal((3, 2, 4)))
        params = AttunementParams.init_random(4, 3, rng)
        before = (params.keys.tobytes(), params.values.tobytes())
        for _ in range(5):
            attune(pool, params)
            backward(pool, params, rng.standard_normal((3, 4)))
        after = (params.keys.tobytes(), params.values.tobytes())
        assert before == after

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["keys", "values"])
    def test_non_finite_bank_is_rejected(self, field, bad):
        params = AttunementParams.init_random(4, 2, substream(10, "f"))
        bank = {"keys": params.keys.copy(), "values": params.values.copy()}
        bank[field][1, 2, 3] = bad
        with pytest.raises(ValueError, match="non-finite"):
            AttunementParams(params.gate, bank["keys"], bank["values"])

    def test_init_writes_the_bank_that_stacking_would(self):
        # each Q goes straight into its (R, D, D) bank: every key, then every
        # value, then the gate, drawn in that order
        params = AttunementParams.init_random(6, 3, substream(16, "f"))
        rng = substream(16, "f")

        def orthogonal():
            q, r = np.linalg.qr(rng.standard_normal((6, 6)))
            return q * np.sign(np.diag(r))

        keys = np.stack([orthogonal() for _ in range(3)])
        values = np.stack([orthogonal() for _ in range(3)])
        gate = 0.02 * rng.standard_normal((6, 3))
        for got, want in ((params.keys, keys), (params.values, values), (params.gate, gate)):
            assert got.tobytes() == want.tobytes()

    def test_orthogonal_init(self):
        params = AttunementParams.init_random(6, 4, substream(12, "f"))
        for r in range(4):
            npt.assert_allclose(params.keys[r] @ params.keys[r].T, np.eye(6),
                                atol=1e-10)
            npt.assert_allclose(params.values[r] @ params.values[r].T,
                                np.eye(6), atol=1e-10)


class TestAttuneBackward:
    def test_matches_finite_differences(self):
        rng = substream(13, "b")
        pool = FingerprintPool(0.5 * rng.standard_normal((3, 2, 4)))
        params = AttunementParams.init_random(4, 3, rng, gate_scale=0.5)
        upstream = rng.standard_normal((3, 4))

        def loss():
            return float(np.sum(attune(pool, params) * upstream))

        g_pool, g_gate = backward(pool, params, upstream)
        h = 1e-6
        for param, grad in ((pool.weights, g_pool), (params.gate, g_gate)):
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
                assert grad[ix] == pytest.approx(fd, abs=1e-6, rel=1e-5)
                it.iternext()

    @pytest.mark.parametrize("n,lp,d,r", shape_cases(PINNED_SHAPES + [(10, 4, 32, 3)]))
    def test_matches_summed_token_reference(self, n, lp, d, r):
        pool, params, upstream = random_case(n, lp, d, r, seed=d)
        # an (N, D) upstream reaches every token of a fingerprint alike
        tokens_upstream = np.repeat(upstream[:, :1], lp, axis=1)
        expected = reference_attune_backward(pool, params, tokens_upstream)
        grads = backward(pool, params, upstream[:, 0])
        for g, g_ref in zip(grads, expected):
            assert_close_to_largest(g, g_ref)

    @pytest.mark.parametrize("n,lp,d,r", shape_cases(PINNED_SHAPES))
    def test_bit_identical_to_per_fingerprint_reference(self, n, lp, d, r):
        pool, params, upstream = random_case(n, lp, d, r, seed=d)
        grads = backward(pool, params, upstream[:, 0])
        ref = sum_before_values_backward(pool, params, upstream[:, 0])
        assert all(np.array_equal(g, g_ref) for g, g_ref in zip(grads, ref))

    def test_close_to_reference_where_blas_rounds_differently(self):
        pool, params, upstream = random_case(10, 4, 32, 3, seed=33)
        for g, g_ref in zip(backward(pool, params, upstream[:, 0]),
                            sum_before_values_backward(pool, params, upstream[:, 0])):
            assert_close_to_largest(g, g_ref)

    @pytest.mark.parametrize("n,lp,d,r", shape_cases(PINNED_SHAPES[:3]))
    def test_two_backwards_on_one_cache_give_identical_gradients(self, n, lp, d, r):
        pool, params, upstream = random_case(n, lp, d, r, seed=d + 1)
        _, cache = attune(pool, params, with_cache=True)
        before = [a.tobytes() for a in cache]
        for a in cache:
            a.setflags(write=False)  # a write into the cache raises
        first = attune_backward(pool, params, upstream[:, 0], cache)
        second = attune_backward(pool, params, upstream[:, 0], cache)
        assert all(g1.tobytes() == g2.tobytes() for g1, g2 in zip(first, second))
        assert [a.tobytes() for a in cache] == before

    def test_upstream_shape_check(self):
        pool = FingerprintPool.init_random(2, 2, 3, substream(14, "b"))
        params = AttunementParams.init_random(3, 2, substream(15, "b"))
        # a per-token (N, L_p, D) upstream, and an (N, D) one of the wrong D
        for shape in ((2, 2, 3), (2, 4)):
            with pytest.raises(ValueError, match="upstream shape"):
                backward(pool, params, np.zeros(shape))
