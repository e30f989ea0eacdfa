"""Deterministic numeric kernels shared by the whole engine.

All kernels operate on 64-bit floats and are pure functions: no hidden
state, fixed reduction order, safe to call concurrently.
"""

import numpy as np
from scipy.special import ndtr

NORM_EPS = 1e-12


def l2_normalize(v):
    """L2-normalize along the last axis with an epsilon-guarded norm.

    A zero vector maps to the zero vector rather than NaN.
    """
    v = np.asarray(v, dtype=np.float64)
    norm = np.sqrt(np.sum(v * v, axis=-1, keepdims=True))
    return v / (norm + NORM_EPS)


def unit_token_sums(emd):
    """Per-sample sum of the L2-normalized token embeddings.

    Maps (b, L, D) to (b, D); each row depends on its own sample only, so a
    row computed alone equals the same row computed in any batch.
    """
    return l2_normalize(emd).sum(axis=1)


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
    p_sum = l2_normalize(p_agg).sum(axis=0)  # (D,)
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


def gelu(x):
    """Exact Gaussian-CDF GELU, x * Phi(x). Accepts scalars or arrays."""
    x = np.asarray(x, dtype=np.float64)
    out = x * ndtr(x)
    return out if out.ndim else float(out)


def gelu_with_grad(x):
    """``gelu(x)`` of an array and its derivative Phi(x) + x * phi(x),
    from one evaluation of Phi; the value has the same bits as ``gelu``."""
    x = np.asarray(x, dtype=np.float64)
    cdf = ndtr(x)
    phi = np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)
    return x * cdf, cdf + x * phi

