"""Fingerprint pool, aggregation, and the attunement block.

The attunement block refines each fingerprint token through a learnable
gate over a small bank of frozen MLPs (a key/value linear pair with an
exact-GELU nonlinearity in between) and returns the refined tokens summed
over the fingerprint length, the only form of them the engine reads. Only
the fingerprints and the gate weights receive gradients; the MLP bank is
frozen at construction.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core_math import _NDTR_BLOCK, gelu, gelu_with_grad


@dataclass
class FingerprintPool:
    """Learnable fingerprints, shape (N, L_p, D).

    L_p must be even: conceptually each fingerprint splits into key and
    value halves of equal length.
    """

    weights: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.ndim != 3:
            raise ValueError(f"pool must be rank-3 (N, L_p, D), got {self.weights.shape}")
        n, lp, _ = self.weights.shape
        if n < 1:
            raise ValueError("pool needs at least one fingerprint")
        if lp < 2 or lp % 2 != 0:
            raise ValueError(f"fingerprint length must be even and >= 2, got {lp}")
        if not np.all(np.isfinite(self.weights)):
            raise ValueError("pool contains non-finite entries")

    @property
    def count(self):
        return self.weights.shape[0]

    @property
    def length(self):
        return self.weights.shape[1]

    @property
    def dim(self):
        return self.weights.shape[2]

    @classmethod
    def init_random(cls, count, length, dim, rng, scale=0.02):
        return cls(scale * rng.standard_normal((count, length, dim)))


def _random_orthogonal(dim, rng, out):
    # QR of a Gaussian matrix with sign-fixed diagonal: Haar-ish orthogonal
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    np.multiply(q, np.sign(np.diag(r)), out=out)


@dataclass
class AttunementParams:
    """Gate weights (learnable) plus a frozen bank of key/value MLPs."""

    gate: np.ndarray  # (D, R), learnable
    keys: np.ndarray  # (R, D, D), frozen
    values: np.ndarray  # (R, D, D), frozen

    def __post_init__(self):
        self.gate = np.asarray(self.gate, dtype=np.float64)
        self.keys = np.asarray(self.keys, dtype=np.float64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.keys.shape != self.values.shape or self.keys.ndim != 3:
            raise ValueError("keys/values must both have shape (R, D, D)")
        r, d, d2 = self.keys.shape
        if d != d2 or r < 1:
            raise ValueError(f"MLP weights must be square with R >= 1, got {self.keys.shape}")
        if self.gate.shape != (d, r):
            raise ValueError(f"gate must have shape ({d}, {r}), got {self.gate.shape}")
        if not np.all(np.isfinite(self.gate)):
            raise ValueError("gate weights contain non-finite entries")
        if not (np.all(np.isfinite(self.keys)) and np.all(np.isfinite(self.values))):
            raise ValueError("frozen MLP weights contain non-finite entries")
        # frozen: any in-place write on the MLP bank raises
        self.keys.setflags(write=False)
        self.values.setflags(write=False)

    @property
    def num_experts(self):
        return self.keys.shape[0]

    @property
    def dim(self):
        return self.keys.shape[1]

    @classmethod
    def init_random(cls, dim, num_experts, rng, gate_scale=0.02):
        """Random orthogonal frozen MLPs (orthogonal init preserves signal
        scale) and a small random gate."""
        # every key, then every value, each written straight into its bank
        keys = np.empty((num_experts, dim, dim))
        values = np.empty((num_experts, dim, dim))
        for bank in (keys, values):
            for r in range(num_experts):
                _random_orthogonal(dim, rng, bank[r])
        gate = gate_scale * rng.standard_normal((dim, num_experts))
        return cls(gate, keys, values)


def aggregate(pool):
    """Sum the fingerprint length dimension: (N, L_p, D) -> (N, D)."""
    return pool.weights.sum(axis=1)


def gate_forward(pool, params):
    """Gate mixing weights per fingerprint, shape (N, R).

    The gate input is the mean over the length dimension of each
    fingerprint, projected through the gate matrix; the R scores are
    softmaxed in expert order, so column r is expert r's weight and each
    row sums to 1.
    """
    pooled = pool.weights.mean(axis=1)  # (N, D)
    scores = pooled @ params.gate  # (N, R)
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


class AttuneCache(NamedTuple):
    """What :func:`attune_backward` reuses from the forward pass."""

    mix: np.ndarray  # (N, R) gate mixing weights
    expert_sums: np.ndarray  # (R, N, D) expert outputs summed over L_p
    gelu_slope: np.ndarray  # (R, N, L_p, D) GELU derivative at the pre-activations


def attune(pool, params, *, with_cache=False):
    """Attuned fingerprints summed over their length, shape (N, D).

    Each token of fingerprint n becomes the gate-weighted convex
    combination of all R experts' outputs, mixed in expert order; the
    result is the sum of the L_p attuned tokens, the only form of them the
    engine reads.

    With ``with_cache`` the result is ``(out, cache)``: an
    :class:`AttuneCache` holding the mixing weights, the expert sums and
    the GELU derivative at the pre-activations, which
    :func:`attune_backward` reads instead of repeating the forward. It
    stays valid only while ``pool`` and ``params`` are unchanged.
    """
    if pool.dim != params.dim:
        raise ValueError(f"pool dim {pool.dim} does not match MLP dim {params.dim}")
    mix = gate_forward(pool, params)
    n, lp, d = pool.weights.shape
    n_experts = params.num_experts
    rows, keys_t = pool.weights.reshape(n * lp, d), params.keys.transpose(0, 2, 1)
    # the experts run in groups of at most one ndtr block of pre-activations
    # (one expert where an expert's exceeds it), each group's activations
    # written over them: the forward holds one group's (N*L_p, D)
    # pre-activations, and with the cache the slope of every expert
    group = max(1, _NDTR_BLOCK // (n * lp * d))
    pre = np.empty((min(group, n_experts), n * lp, d))
    slope = np.empty((n_experts, n * lp, d)) if with_cache else None
    token_sums = np.empty((n_experts, n, d))
    for start in range(0, n_experts, group):
        stop = min(start + group, n_experts)
        act = pre[:stop - start]
        # NumPy runs a stacked matmul as one (N*L_p, D) x (D, D) GEMM per expert
        np.matmul(rows, keys_t[start:stop], out=act)
        if with_cache:
            gelu_with_grad(act, out=act, grad=slope[start:stop])
        else:
            gelu(act, out=act)
        act.reshape(-1, n, lp, d).sum(axis=2, out=token_sums[start:stop])
    del pre, act
    # the value matrix is linear, so it maps the token sum of the activations
    sums = token_sums @ params.values.transpose(0, 2, 1)
    # mixed in expert order from +0.0, as adding each expert's share in turn
    out = (mix.T[:, :, None] * sums).sum(axis=0, initial=0.0)
    if with_cache:
        return out, AttuneCache(mix, sums, slope.reshape(-1, n, lp, d))
    return out


def attune_backward(pool, params, upstream, cache):
    """Analytic gradients of a scalar loss through :func:`attune`.

    Gradient flows through the softmax over the gate scores and through
    the expert MLPs. Frozen MLP gradients are not produced.

    Args:
        upstream: dLoss/dOutput, shape (N, D): the gradient with respect to
            the attuned fingerprints summed over their length.
        cache: the :class:`AttuneCache` from ``attune(pool, params,
            with_cache=True)`` on the same, unchanged pool and params.

    Returns:
        (grad_pool, grad_gate) with shapes (N, L_p, D) and (D, R).
    """
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != (pool.count, pool.dim):
        raise ValueError(
            f"upstream shape {upstream.shape} does not match the summed "
            f"fingerprints {(pool.count, pool.dim)}"
        )
    mix, sums, slope = cache
    n, n_experts = mix.shape
    lp = pool.length

    # gate path: dL/dmix[n, r] = <upstream[n], sums[r, n]>, then the
    # softmax Jacobian per row
    dmix = np.einsum("nd,rnd->nr", upstream, sums)
    dscores = mix * (dmix - np.sum(mix * dmix, axis=1, keepdims=True))

    pooled = pool.weights.mean(axis=1)  # (N, D)
    grad_gate = pooled.T @ dscores  # (D, R)
    grad_pool = np.repeat((dscores @ params.gate.T)[:, None, :] / lp, lp, axis=1)

    # token path: dL/d gelu(h) is the same for every token of a fingerprint.
    # One expert at a time, the same GEMMs as stacked matmuls, through two
    # reused (N, L_p, D) buffers; the cache is only read
    d_pre = np.empty(pool.weights.shape)
    token_grads = np.empty(pool.weights.shape)
    d_pre_rows, grad_rows = d_pre.reshape(n * lp, -1), token_grads.reshape(n * lp, -1)
    for r in range(n_experts):
        d_act = upstream @ params.values[r]  # (N, D)
        np.multiply(d_act[:, None, :], slope[r], out=d_pre)
        np.matmul(d_pre_rows, params.keys[r], out=grad_rows)
        token_grads *= mix[:, r, None, None]
        grad_pool += token_grads
    return grad_pool, grad_gate
