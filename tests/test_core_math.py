"""Unit tests for the shared numerical primitives."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from oracles import gelu_grad, softmax
from streamfp.core_math import (
    NORM_EPS,
    angular_cost,
    batch_similarity,
    gelu,
    gelu_with_grad,
    l2_normalize,
    ndtr,
)


class TestL2Normalize:
    def test_unit_norms(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((50, 8))
        y = l2_normalize(x)
        npt.assert_allclose(np.linalg.norm(y, axis=-1), 1.0, atol=1e-9)

    def test_zero_rows_stay_zero(self):
        x = np.zeros((3, 4))
        npt.assert_array_equal(l2_normalize(x), x)

    def test_scale_invariance(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((10, 5))
        npt.assert_allclose(l2_normalize(x), l2_normalize(17.0 * x), atol=1e-9)

    def test_preserves_shape(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((4, 3, 6))
        assert l2_normalize(x).shape == (4, 3, 6)


# batch_similarity sums before it takes the dot product; the oracle takes
# every per-token, per-fingerprint cosine first and then their mean, so the
# two differ only by the order of float64 additions
SIMILARITY_ATOL = 1e-15


def cosine_tensor(emb, fp):
    """The (b, L, N) cosines <e_hat_il, p_hat_n>."""
    return np.einsum("bld,nd->bln", l2_normalize(emb), l2_normalize(fp))


def similarity_oracle(emb, fp):
    return cosine_tensor(emb, fp).mean(axis=(1, 2))


class TestBatchSimilarity:
    def test_hand_dot_products(self):
        # b=2, L=1, N=1, D=2: first sample equals the fingerprint, second
        # is orthogonal to it
        emb = np.array([[[1.0, 0.0]], [[0.0, 1.0]]])
        fp = np.array([[1.0, 0.0]])
        s = batch_similarity(emb, fp)
        npt.assert_allclose(cosine_tensor(emb, fp), [[[1.0]], [[0.0]]], atol=1e-12)
        npt.assert_allclose(s, [1.0, 0.0], atol=1e-12)
        npt.assert_allclose(s, similarity_oracle(emb, fp), rtol=0, atol=SIMILARITY_ATOL)
        assert s.shape == (2,)

    def test_self_similarity_is_one(self):
        rng = np.random.default_rng(11)
        fp = rng.standard_normal((3, 6))
        # every token of every sample equals fingerprint n for all n is
        # only possible when all fingerprints coincide
        fp[:] = fp[0]
        emb = np.repeat(fp[0][None, None, :], 4, axis=0)
        emb = np.repeat(emb, 2, axis=1)
        s = batch_similarity(emb, fp)
        npt.assert_allclose(s, 1.0, atol=1e-9)

    def test_orthogonal_gives_zero(self):
        emb = np.zeros((2, 1, 4))
        emb[:, 0, 0] = 1.0
        fp = np.zeros((2, 4))
        fp[:, 1] = 1.0
        s = batch_similarity(emb, fp)
        npt.assert_allclose(s, 0.0, atol=1e-12)

    def test_range(self):
        rng = np.random.default_rng(12)
        emb = rng.standard_normal((30, 3, 5))
        fp = rng.standard_normal((4, 5))
        s = batch_similarity(emb, fp)
        assert np.all(s >= -1.0 - 1e-9) and np.all(s <= 1.0 + 1e-9)

    def test_mean_reduction_matches_manual(self):
        rng = np.random.default_rng(13)
        emb = rng.standard_normal((6, 2, 4))
        fp = rng.standard_normal((3, 4))
        s = batch_similarity(emb, fp)
        # the oracle's cosines, one dot product of unit vectors at a time
        manual = np.array([[[
            emb[i, l] @ fp[n] / (np.linalg.norm(emb[i, l]) * np.linalg.norm(fp[n]))
            for n in range(3)] for l in range(2)] for i in range(6)])
        npt.assert_allclose(cosine_tensor(emb, fp), manual, atol=1e-12)
        npt.assert_allclose(s, manual.mean(axis=(1, 2)), atol=1e-12)
        npt.assert_allclose(s, similarity_oracle(emb, fp), rtol=0, atol=SIMILARITY_ATOL)

    # (b, L, N, D): an eval set and a paper-scale batch, the tiny test
    # shape, and a replay-sized resident buffer
    @pytest.mark.parametrize("b, tokens, n_fp, dim", [
        (400, 4, 100, 768), (96, 4, 100, 768), (20, 2, 8, 16), (4096, 2, 8, 64),
    ])
    def test_factorised_mean_matches_einsum_oracle(self, b, tokens, n_fp, dim):
        rng = np.random.default_rng(b + dim)
        # a shared direction keeps the similarities well away from zero
        shared = rng.standard_normal(dim)
        emb = shared + rng.standard_normal((b, tokens, dim))
        fp = shared + 0.05 * rng.standard_normal((n_fp, dim))
        emb[0] = 0.0  # a zero sample
        emb[1, 0] = 0.0  # a zero token
        fp[0] = 0.0  # a zero fingerprint
        s = batch_similarity(emb, fp)
        assert s.shape == (b,) and s[0] == 0.0
        npt.assert_allclose(s, similarity_oracle(emb, fp), rtol=0, atol=SIMILARITY_ATOL)

    def test_shape_errors(self):
        with pytest.raises(ValueError):
            batch_similarity(np.zeros((2, 3)), np.zeros((2, 3)))
        with pytest.raises(ValueError):
            batch_similarity(np.zeros((2, 1, 3)), np.zeros((2, 4)))


class TestAngularCost:
    def test_aligned_is_zero(self):
        assert angular_cost(np.ones(5)) == pytest.approx(0.0)

    def test_orthogonal_is_half_pi(self):
        assert angular_cost(np.zeros(5)) == pytest.approx(np.pi / 2)

    def test_hand_average(self):
        assert angular_cost(np.array([1.0, 0.0])) == pytest.approx(np.pi / 4)

    def test_clips_out_of_range(self):
        # 1 + 1e-9 must not produce a NaN from arccos
        val = angular_cost(np.array([1.0 + 1e-9, -1.0 - 1e-9]))
        assert np.isfinite(val)
        assert val == pytest.approx(np.pi / 2)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            angular_cost(np.array([]))


class TestSoftmax:
    def test_sums_to_one(self):
        rng = np.random.default_rng(21)
        v = rng.standard_normal(9)
        assert softmax(v).sum() == pytest.approx(1.0)

    def test_shift_invariance(self):
        rng = np.random.default_rng(22)
        v = rng.standard_normal(6)
        npt.assert_allclose(softmax(v), softmax(v + 123.0), atol=1e-12)

    def test_equal_values_uniform(self):
        npt.assert_allclose(softmax(np.full(4, 3.3)), 0.25, atol=1e-12)

    def test_no_overflow_on_large_inputs(self):
        out = softmax(np.array([1000.0, 999.0, -1000.0]))
        assert np.all(np.isfinite(out))
        assert out.sum() == pytest.approx(1.0)

    def test_hand_two_values(self):
        out = softmax(np.array([2.0, 1.0]))
        npt.assert_allclose(out, [0.7310585786300049, 0.2689414213699951],
                            atol=1e-12)


class TestGelu:
    def test_exact_form(self):
        # x * Phi(x), not the tanh approximation
        x = np.linspace(-4, 4, 101)
        npt.assert_allclose(gelu(x), x * special.ndtr(x), atol=1e-15)

    def test_zero(self):
        assert gelu(np.array([0.0]))[0] == 0.0

    def test_asymptotes(self):
        assert gelu(np.array([20.0]))[0] == pytest.approx(20.0)
        assert abs(gelu(np.array([-20.0]))[0]) < 1e-12

    def test_known_value(self):
        # gelu(2) = 2 * Phi(2)
        assert gelu(np.array([2.0]))[0] == pytest.approx(1.9544997361036416,
                                                         abs=1e-12)

    def test_grad_matches_finite_difference(self):
        x = np.linspace(-3, 3, 61)
        h = 1e-6
        numeric = (gelu(x + h) - gelu(x - h)) / (2 * h)
        npt.assert_allclose(gelu_grad(x), numeric, atol=1e-8)

    def test_with_grad_is_bit_equal_to_gelu_and_gelu_grad(self):
        edges = np.array([0.0, -0.0, 1e-300, -1e-300, 5e-324, 40.0, -40.0, 41.5])
        x = np.concatenate([edges, np.linspace(-40, 40, 4001),
                            np.random.default_rng(0).standard_normal(1001)])
        x = x.reshape(2, -1, 5)  # any shape, as attunement passes (N, L_p, D)
        value, grad = gelu_with_grad(x)
        assert value.shape == grad.shape == x.shape
        assert value.tobytes() == gelu(x).tobytes()
        assert grad.tobytes() == gelu_grad(x).tobytes()


def assert_same_bits(actual, desired):
    actual, desired = np.asarray(actual), np.asarray(desired)
    assert actual.dtype == desired.dtype and actual.shape == desired.shape
    assert actual.tobytes() == desired.tobytes()


# where Cephes' ndtr switches formula, in terms of its argument a: erf below
# |a| = 1, 1 - erf below sqrt(2), the erfc approximations P/Q below 8 sqrt(2)
# and R/S above, and 0 once a^2 / 2 > MAXLOG
MAXLOG = 7.09782712893383996843e2
BRANCH_POINTS = (1.0, np.sqrt(2.0), 8.0 * np.sqrt(2.0), np.sqrt(2.0 * MAXLOG))


def neighbours(v, steps=8):
    """v and its `steps` nearest floats on either side."""
    out, lo, hi = [v], v, v
    for _ in range(steps):
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
        out += [lo, hi]
    return out


class TestNdtr:
    """The engine's ndtr against scipy.special.ndtr, bit for bit."""

    @pytest.mark.parametrize("scale", [1e-3, 0.01, 0.18, 0.5, 1.0, 2.0, 5.0, 10.0, 40.0])
    def test_random_inputs_at_every_scale(self, scale):
        # more than one 8192-element block, in a 2-d array
        x = scale * np.random.default_rng(int(scale * 1000)).standard_normal((5, 4000))
        # NaNs of either sign and infinities, in the first and the last block
        x[0, :4] = x[4, -4:] = -np.nan, np.nan, np.inf, -np.inf
        assert_same_bits(ndtr(x), special.ndtr(x))

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
    def test_any_finite_floats(self, values):
        x = np.array(values)
        assert_same_bits(ndtr(x), special.ndtr(x))

    def test_branch_points_special_values_and_subnormals(self):
        edges = [v for b in BRANCH_POINTS for s in (1.0, -1.0) for v in neighbours(s * b)]
        tiny = np.finfo(np.float64).tiny
        special_values = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
                          tiny, -tiny, np.nextafter(tiny, 0.0), -np.nextafter(tiny, 0.0)]
        x = np.array(edges + special_values)
        assert_same_bits(ndtr(x), special.ndtr(x))

    def test_zero_dimensional_input(self):
        for a in (0.3, -2.0, np.float64(12.0), np.array(-0.4)):
            value = ndtr(a)
            assert np.ndim(value) == 0 and value == special.ndtr(a)
        assert isinstance(gelu(0.3), float)
        assert gelu(0.3) == 0.3 * special.ndtr(0.3)


# the stacked (R, N*L_p, D) pre-activations attunement passes to the GELU at
# each benchmark workload's shape: small, paper and replay
STACKED_SHAPES = [(3, 16, 16), (3, 400, 768), (3, 16, 64)]


@pytest.mark.parametrize("shape", STACKED_SHAPES)
def test_stacked_gelu_matches_scipy_formulas(shape):
    rng = np.random.default_rng(shape[2])
    # the pool's 0.02 initial scale through an orthogonal key keeps |x| small;
    # every 97th entry is wider, so the erfc branches run in place too
    x = 0.02 * rng.standard_normal(shape)
    x.flat[::97] = rng.uniform(-40.0, 40.0, x.flat[::97].size)
    value, grad = gelu_with_grad(x)
    assert_same_bits(gelu(x), x * special.ndtr(x))
    assert_same_bits(value, x * special.ndtr(x))
    assert_same_bits(grad, gelu_grad(x))


def todays_gelu_with_grad(x):
    """The GELU's value and slope in the engine's operation order, each a
    whole-array step: value = Phi(x) * x, slope = exp((-0.5 x) x) / sqrt(2 pi)
    * x + Phi(x). Phi is the engine's ndtr, which TestNdtr holds to SciPy's,
    except at a NaN: the GELU's Phi keeps a NaN's sign, which SciPy's, and so
    the public ndtr, does not."""
    cdf = np.where(np.isnan(x), x, ndtr(x))
    slope = np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi) * x + cdf
    return cdf * x, slope


def in_place_cases():
    rng = np.random.default_rng(8193)
    root2 = np.sqrt(2.0)
    tails = np.concatenate([neighbours(root2), neighbours(-root2),
                            rng.uniform(root2, 40.0, 500) * rng.choice([-1.0, 1.0], 500)])
    nans = np.array([np.inf, -np.inf, np.nan, -np.nan, 0.0, -0.0, 1.0])
    # one element past a whole 8192-element block, wide enough for every branch
    long = 3.0 * rng.standard_normal(8193)
    return [pytest.param(tails, id="tails"), pytest.param(nans, id="inf-nan"),
            pytest.param(long, id="8193"), pytest.param(long.reshape(1, 8193), id="8193-2d")]


@pytest.mark.parametrize("x", in_place_cases())
@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_in_place_gelu_matches_todays_values_and_slopes(x):
    want_value, want_slope = todays_gelu_with_grad(x)
    y = x.copy()
    assert gelu(y, out=y) is y
    assert_same_bits(y, want_value)
    y = x.copy()
    value, slope = gelu_with_grad(y, out=y)
    assert value is y
    assert_same_bits(value, want_value)
    assert_same_bits(slope, want_slope)
    # into another array, the input left as it was
    out = np.empty_like(x)
    assert gelu(x, out=out) is out
    assert_same_bits(out, want_value)
    assert_same_bits(gelu(x), want_value)


def test_gelu_out_must_be_a_contiguous_float64_array_of_the_input_shape():
    x = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
    for bad in (np.empty((4, 3)), np.empty((3, 4), dtype=np.float32),
                np.empty((4, 3)).T, np.empty(12)):
        with pytest.raises(ValueError, match="out must be"):
            gelu(x, out=bad)
        with pytest.raises(ValueError, match="out must be"):
            gelu_with_grad(x, out=bad)


@pytest.mark.parametrize("x", in_place_cases())
@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_gelu_slope_into_a_given_array_is_the_allocated_slope(x):
    want_value, want_slope = gelu_with_grad(x)
    grad = np.full_like(x, np.pi)
    value, slope = gelu_with_grad(x, grad=grad)
    assert slope is grad
    assert_same_bits(value, want_value)
    assert_same_bits(slope, want_slope)
    # with the value written over the input too, as attunement calls it
    y = x.copy()
    value, slope = gelu_with_grad(y, out=y, grad=np.empty_like(x))
    assert value is y
    assert_same_bits(value, want_value)
    assert_same_bits(slope, want_slope)


def test_gelu_grad_must_be_a_contiguous_float64_array_of_the_input_shape():
    x = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
    for bad in (np.empty((4, 3)), np.empty((3, 4), dtype=np.float32),
                np.empty((4, 3)).T, np.empty(12)):
        with pytest.raises(ValueError, match="grad must be"):
            gelu_with_grad(x, grad=bad)
        with pytest.raises(ValueError, match="grad must be"):
            gelu_with_grad(x, out=np.empty((3, 4)), grad=bad)


def test_engine_and_cli_import_no_scipy():
    probe = ("import sys, streamfp, streamfp.cli; "
             "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True, timeout=120,
                         stdout=subprocess.PIPE, text=True).stdout
    assert out.strip() == "[]"


def test_norm_eps_is_small_positive():
    assert 0 < NORM_EPS < 1e-9
