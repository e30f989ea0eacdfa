"""Deterministic numeric kernels shared by the whole engine.

All kernels operate on 64-bit floats and are pure functions: no hidden
state, fixed reduction order, safe to call concurrently. Sums on the
per-batch path, here and in the learner, attunement and buffer, call
``np.add.reduce``: ``ndarray.sum``'s own reduction, the same bits, without
its Python wrapper.
"""

import math

import numpy as np

NORM_EPS = 1e-12

# Cephes ndtr.c coefficients: erf(x) = x T(x^2) / U(x^2) for |x| <= 1, and
# erfc(x) = exp(-x^2) P(x) / Q(x) for 1 <= x < 8, exp(-x^2) R(x) / S(x) above
# (U, Q and S have an implicit leading 1)
_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
      7.00332514112805075473E3, 5.55923013010394962768E4)
_U = (3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
      2.26290000613890934246E4, 4.92673942608635921086E4)
_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
      4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
      9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_Q = (1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
      9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
      1.65666309194161350182E3, 5.57535340817727675546E2)
_R = (5.64189583547755073984E-1, 1.27536670759978104416E0, 5.01905042251180477414E0,
      6.16021097993053585195E0, 7.40974269950448939160E0, 2.97886665372100240670E0)
_S = (2.26052863220117276590E0, 9.39603524938001434673E0, 1.20489539808096656605E1,
      1.70814450747565897222E1, 9.60896809063285878198E0, 3.36907645100081516050E0)
_MAXLOG = 7.09782712893383996843E2
_SQRT1_2 = 0.70710678118654752440
# the normal density's denominator; the same bits as np.sqrt(2.0 * np.pi)
_SQRT_2PI = math.sqrt(2 * math.pi)
# elements per ndtr block: the block's temporaries stay in cache
_NDTR_BLOCK = 8192


def l2_normalize(v):
    """L2-normalize along the last axis with an epsilon-guarded norm.

    A zero vector maps to the zero vector rather than NaN.
    """
    v = np.asarray(v, dtype=np.float64)
    norm = np.sqrt(np.add.reduce(v * v, axis=-1, keepdims=True))
    return v / (norm + NORM_EPS)


def unit_token_sums(emd):
    """Per-sample sum of the L2-normalized token embeddings.

    Maps (b, L, D) to (b, D); each row depends on its own sample only, so a
    row computed alone equals the same row computed in any batch.
    """
    return np.add.reduce(l2_normalize(emd), axis=1)


def token_means(emd):
    """Per-sample mean of the token embeddings, (b, L, D) to (b, D): the
    operations of ``ndarray.mean`` (the token sum divided by L), without its
    Python wrapper. The result keeps the input's float dtype."""
    return np.add.reduce(emd, axis=1) / emd.shape[1]


def sum_similarity(e_sum, p_agg, tokens):
    """Mean cosine similarity from per-sample unit-token sums.

    Args:
        e_sum: array of shape (b, D), ``unit_token_sums`` of the samples.
        p_agg: array of shape (N, D), length-aggregated fingerprints.
        tokens: L, the number of tokens each row of ``e_sum`` sums.

    Returns:
        s of shape (b,): sample i's cosine similarity <e_hat_il, p_hat_n>
        averaged over its L tokens and the N fingerprints. The mean of the
        dot products is the dot product of the sums,
        s = (sum_l e_hat_l) . (sum_n p_hat_n) / (L * N).
    """
    p_sum = np.add.reduce(l2_normalize(p_agg), axis=0)  # (D,)
    return e_sum @ p_sum / (tokens * p_agg.shape[0])


def batch_similarity(emd, p_agg):
    """Mean cosine similarity between token embeddings and fingerprint rows.

    Args:
        emd: array of shape (b, L, D), per-sample token embeddings.
        p_agg: array of shape (N, D), length-aggregated fingerprints.

    Returns:
        s of shape (b,), ``sum_similarity`` of the samples' unit-token sums.
        This costs O(b*L*D + N*D) and never forms the (b, L, N) similarity
        tensor.
    """
    emd = np.asarray(emd, dtype=np.float64)
    p_agg = np.asarray(p_agg, dtype=np.float64)
    if emd.ndim != 3:
        raise ValueError(f"emd must be rank-3 (b, L, D), got shape {emd.shape}")
    if p_agg.ndim != 2:
        raise ValueError(f"p_agg must be rank-2 (N, D), got shape {p_agg.shape}")
    if emd.shape[2] != p_agg.shape[1]:
        raise ValueError(
            f"embedding dim {emd.shape[2]} does not match fingerprint dim {p_agg.shape[1]}"
        )
    return sum_similarity(unit_token_sums(emd), p_agg, emd.shape[1])


def angular_cost(sims):
    """Average angular distance arccos(s) over a vector of similarities.

    Entries are clamped to [-1, 1] before arccos so floating-point
    overshoot cannot produce NaN.
    """
    sims = np.asarray(sims, dtype=np.float64)
    if sims.size == 0:
        raise ValueError("angular_cost of an empty similarity vector")
    clipped = np.clip(sims, -1.0, 1.0)
    return float(np.mean(np.arccos(clipped)))


def _horner(x, coef, leading_one=False):
    """Cephes' polevl, or p1evl when the leading coefficient is an implicit
    1: Horner's rule, one rounded multiply and one add per coefficient."""
    out = x + coef[0] if leading_one else x * coef[0] + coef[1]
    for c in coef[1 if leading_one else 2:]:
        out *= x
        out += c
    return out


def _erfc_tail(z):
    """Cephes' erfc(z) for z >= 1, with exp(-z^2) from libm."""
    neg_sq = -z * z
    expo = np.array([math.exp(v) for v in neg_sq.tolist()])
    low = z < 8.0
    p = np.where(low, _horner(z, _P), _horner(z, _R))
    q = np.where(low, _horner(z, _Q, leading_one=True), _horner(z, _S, leading_one=True))
    return np.where(neg_sq < -_MAXLOG, 0.0, expo * p / q)


def _ndtr_block(a, out):
    x = a * _SQRT1_2
    sq = x * x
    # Cephes' erf, valid for |x| <= 1; Phi = (1 + erf) / 2 where |x| < sqrt(1/2)
    erf = x * _horner(sq, _T) / _horner(sq, _U, leading_one=True)
    np.multiply(erf, 0.5, out=out)
    out += 0.5
    z = np.abs(x)
    far = z >= _SQRT1_2
    if far.any():
        # Phi = erfc(|x|) / 2 on the lower tail and 1 - that on the upper;
        # erf is odd, so erfc(|x|) = 1 - |erf(x)| below 1
        zf = z[far]
        half = 0.5 * np.where(zf < 1.0, 1.0 - np.abs(erf[far]), _erfc_tail(zf))
        out[far] = np.where(x[far] > 0, 1.0 - half, half)


def ndtr(a):
    """Standard normal CDF Phi(a), evaluated as Cephes' ``ndtr`` (the
    algorithm of ``scipy.special.ndtr``) with the same bits: rational
    approximations of erf and erfc in Cephes' operation order, and
    exp(-z^2) from libm's ``exp`` on the elements with |a| >= sqrt(2).
    Accepts scalars or arrays; any NaN, whatever its sign or payload, maps
    to the positive quiet NaN, as in Cephes."""
    a = np.asarray(a, dtype=np.float64)
    out = np.empty(a.shape)
    flat_a, flat_out = a.reshape(-1), out.reshape(-1)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, flat_a.size, _NDTR_BLOCK):
            stop = start + _NDTR_BLOCK
            _ndtr_block(flat_a[start:stop], flat_out[start:stop])
    # the blocks carry a NaN input's sign and payload through; the GELU,
    # which reads them directly, keeps that
    flat_out[np.isnan(flat_a)] = np.nan
    return out if out.ndim else out[()]


def _gelu_blocks(x, out, grad):
    """x * Phi(x) of the float64 array ``x`` into ``out``, and with ``grad``
    the derivative Phi(x) + x * phi(x) into it, one 8192-element block at a
    time. A block of ``out`` is written after the last read of the same
    block of ``x``, so ``out`` may be ``x`` itself."""
    flat_x, flat_out = x.reshape(-1), out.reshape(-1)
    flat_grad = None if grad is None else grad.reshape(-1)
    cdf = np.empty(min(_NDTR_BLOCK, flat_x.size))
    for start in range(0, flat_x.size, _NDTR_BLOCK):
        stop = start + _NDTR_BLOCK
        xb = flat_x[start:stop]
        phi = cdf[:xb.size]
        with np.errstate(over="ignore", invalid="ignore"):
            _ndtr_block(xb, phi)
        if flat_grad is not None:
            g = flat_grad[start:stop]
            np.multiply(-0.5, xb, out=g)
            g *= xb
            np.exp(g, out=g)
            g /= _SQRT_2PI
            g *= xb
            g += phi
        np.multiply(phi, xb, out=flat_out[start:stop])


def _gelu_out(x, out, name="out"):
    """``out``, or a new array like ``x`` when it is None; a given ``out``
    must be a C-contiguous float64 array of ``x``'s shape. ``name`` is the
    argument's name in the error."""
    if out is None:
        return np.empty(x.shape)
    if out.shape != x.shape or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValueError(f"{name} must be a C-contiguous float64 array of the input's shape")
    return out


def gelu(x, out=None):
    """Exact Gaussian-CDF GELU, x * Phi(x). Accepts scalars or arrays. With
    ``out`` (which may be ``x`` itself) the value is written there."""
    x = np.asarray(x, dtype=np.float64)
    value = _gelu_out(x, out)
    _gelu_blocks(x, value, None)
    return value if value.ndim else float(value)


def gelu_with_grad(x, out=None, grad=None):
    """``gelu(x)`` of an array and its derivative Phi(x) + x * phi(x),
    from one evaluation of Phi; the value has the same bits as ``gelu``.
    The value goes to ``out`` (which may be ``x`` itself) and the
    derivative to ``grad``, each a new array when not given; ``grad`` must
    not overlap ``x`` or ``out``. Both are returned."""
    x = np.asarray(x, dtype=np.float64)
    value = _gelu_out(x, out)
    grad = _gelu_out(x, grad, "grad")
    _gelu_blocks(x, value, grad)
    return value, grad
