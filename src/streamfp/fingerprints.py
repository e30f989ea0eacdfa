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

from .core_math import _NDTR_BLOCK, gelu, gelu_with_grad, token_means


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
    return np.add.reduce(pool.weights, axis=1)


def gate_forward(pool, params):
    """Gate mixing weights per fingerprint, shape (N, R).

    The gate input is the mean over the length dimension of each
    fingerprint, projected through the gate matrix; the R scores are
    softmaxed in expert order, so column r is expert r's weight and each
    row sums to 1.
    """
    scores = token_means(pool.weights) @ params.gate  # (N, R)
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    return e / np.add.reduce(e, axis=1, keepdims=True)


def expert_group(n_experts, count, length, dim):
    """How many experts :func:`attune` runs at once: as many as one ndtr
    block of ``(count * length, dim)`` pre-activations holds, at least one
    and at most ``n_experts``."""
    return min(n_experts, max(1, _NDTR_BLOCK // (count * length * dim)))


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
    # the experts run in groups (expert_group), each group's activations
    # written over its pre-activations: the forward holds one group's
    # (N*L_p, D) pre-activations, and with the cache the slope of every expert
    group = expert_group(n_experts, n, lp, d)
    pre = np.empty((group, n * lp, d))
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
        np.add.reduce(act.reshape(-1, n, lp, d), axis=2, out=token_sums[start:stop])
    del pre, act
    # the value matrix is linear, so it maps the token sum of the activations
    sums = token_sums @ params.values.transpose(0, 2, 1)
    # mixed in expert order from +0.0, as adding each expert's share in turn
    out = np.add.reduce(mix.T[:, :, None] * sums, axis=0, initial=0.0)
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
    lp, d = pool.length, pool.dim

    # gate path: dL/dmix[n, r] = <upstream[n], sums[r, n]>, then the
    # softmax Jacobian per row
    dmix = np.einsum("nd,rnd->nr", upstream, sums)
    dscores = mix * (dmix - np.add.reduce(mix * dmix, axis=1, keepdims=True))

    grad_gate = token_means(pool.weights).T @ dscores  # (D, R), through gate_forward's mean
    grad_pool = ((dscores @ params.gate.T)[:, None, :] / lp).repeat(lp, axis=1)

    # token path: dL/d gelu(h) is the same for every token of a fingerprint.
    # The experts run in attune's groups, each group's GEMMs as stacked
    # matmuls through two reused (g, N*L_p, D) buffers (one expert at a time
    # at the paper shape); the group's experts are then added in expert
    # order, and the cache is only read
    group = expert_group(n_experts, n, lp, d)
    d_pre = np.empty((group, n, lp, d))
    token_grads = np.empty((group, n * lp, d))
    mix_t = mix.T[:, :, None, None]
    for start in range(0, n_experts, group):
        stop = min(start + group, n_experts)
        g = stop - start
        d_act = upstream @ params.values[start:stop]  # (g, N, D)
        np.multiply(d_act[:, :, None, :], slope[start:stop], out=d_pre[:g])
        np.matmul(d_pre[:g].reshape(g, n * lp, d), params.keys[start:stop], out=token_grads[:g])
        grads = token_grads[:g].reshape(g, n, lp, d)
        grads *= mix_t[start:stop]
        for grad in grads:
            grad_pool += grad
    return grad_pool, grad_gate
