"""Surrogate stream learner: embedder, prototype classifier, metrics.

The learner stands in for a frozen vision backbone. Embeddings come from
synthetic drifting Gaussian class clusters; the classifier is a set of
learnable class prototypes over token-pooled features modulated by
fingerprint similarity, so the fingerprints and gate receive real
gradients through the loss.
"""

import logging
import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

# batch_similarity stays importable here: perfbench wraps it at this name
from .core_math import (  # noqa: F401
    NORM_EPS,
    batch_similarity,
    l2_normalize,
    sum_similarity,
    token_means,
    unit_token_sums,
)
from .fingerprints import (
    AttunementParams,
    FingerprintPool,
    aggregate,
    attune,
    attune_backward,
)
# substream_indexed stays importable here: perfbench wraps it at this name
from .seeding import indexed_states, state_generators, substream, substream_indexed  # noqa: F401

logger = logging.getLogger(__name__)

# the embedder derives its per-sample seed states for whole blocks of this
# many consecutive indices: one derivation has a fixed cost of ~60-150 us
# against ~0.1 us per index, so a block costs about twice a single batch
STATE_BLOCK = 1024
# SyntheticEmbedder.summarize embeds and summarizes a set in row blocks of at
# most this many token floats (2 MiB), so a set's (n, L, D) tokens are never
# held whole
SUMMARY_BLOCK = 2**18


def summary_block_rows(tokens, dim):
    """Rows per block of ``SyntheticEmbedder.summarize``: as many (L, D)
    rows as ``SUMMARY_BLOCK`` token floats hold, at least one."""
    return max(1, SUMMARY_BLOCK // (tokens * dim))


@dataclass
class EmbeddingBatch:
    embeddings: np.ndarray  # (b, L, D)
    labels: np.ndarray  # (b,)
    sample_ids: np.ndarray  # (b,) globally unique ids

    def __len__(self):
        return self.embeddings.shape[0]

    def summary(self):
        """The :class:`BatchSummary` of this batch."""
        return BatchSummary(unit_token_sums(self.embeddings), token_means(self.embeddings),
                            self.labels, self.embeddings.shape[1])


@dataclass
class BatchSummary:
    """All that the classifier reads of a batch: per sample, the sum of its
    unit-normalized tokens, its token mean and its label. Each row depends
    on its own sample only, so a summary of some rows equals those rows of
    a summary of the whole batch; the loss, its gradients and the accuracy
    are the same bits from either."""

    unit_sums: np.ndarray  # (b, D) unit_token_sums of the embeddings
    means: np.ndarray  # (b, D) token means
    labels: np.ndarray  # (b,)
    tokens: int  # L, the number of tokens each row of unit_sums sums

    def __len__(self):
        return self.labels.shape[0]

    def summary(self):
        """This summary itself."""
        return self

    def take(self, rows, then=None):
        """The summary of this one's ``rows``, followed by every row of the
        summary ``then`` when one is given: the same bits as summarizing
        those samples together."""
        columns = (self.unit_sums[rows], self.means[rows], self.labels[rows])
        if then is not None:
            columns = map(np.concatenate, zip(columns, (then.unit_sums, then.means, then.labels)))
        return BatchSummary(*columns, self.tokens)


class SyntheticEmbedder:
    """Drifting Gaussian class clusters emitted as token embeddings.

    Each task owns a contiguous slice of the (possibly permuted) class
    list. The class means drift by a cumulative random shift per task.
    Sample generation is deterministic given (seed, task, sample index).
    An optional outlier fraction emits pure-noise samples with random
    labels, standing in for corrupted stream content; an optional
    dominant fraction emits near-duplicate copies of the task's first
    class, standing in for dominant clips in redundant video streams.
    A class concentration in (0, 1) mixes a shared unit direction into
    every class mean, raising cross-task interference.
    """

    def __init__(
        self,
        seed,
        n_classes,
        dim,
        tokens,
        n_tasks,
        noise_std=0.2,
        drift_std=0.0,
        outlier_fraction=0.0,
        outlier_scale=1.0,
        dominant_fraction=0.0,
        class_concentration=0.0,
        class_order=None,
    ):
        if n_classes < n_tasks:
            raise ValueError("need at least one class per task")
        self.seed = int(seed)
        self.n_classes = int(n_classes)
        self.dim = int(dim)
        self.tokens = int(tokens)
        self.n_tasks = int(n_tasks)
        self.noise_std = float(noise_std)
        self.drift_std = float(drift_std)
        self.outlier_fraction = float(outlier_fraction)
        self.outlier_scale = float(outlier_scale)
        self.dominant_fraction = float(dominant_fraction)
        self.class_concentration = float(class_concentration)
        if not 0 <= self.class_concentration < 1:
            raise ValueError("class_concentration must be in [0, 1)")
        if class_order is None:
            class_order = np.arange(n_classes)
        self.class_order = np.asarray(class_order, dtype=np.int64)
        if sorted(self.class_order.tolist()) != list(range(n_classes)):
            raise ValueError("class_order must be a permutation of the class set")

        init_rng = substream(self.seed, "embedder-init")
        means = l2_normalize(init_rng.standard_normal((n_classes, dim)))
        if self.class_concentration > 0:
            # pull every class mean toward one shared unit direction: a
            # high-interference regime where classes share most of their
            # signal and differ only in a small residual component
            common_rng = substream(self.seed, "embedder-common")
            common = l2_normalize(common_rng.standard_normal(dim))
            w = self.class_concentration
            means = l2_normalize(w * common[None, :] + (1 - w) * means)
        self.class_means = means
        # cumulative per-task drift of the whole embedding space
        drift_rng = substream(self.seed, "embedder-drift")
        steps = self.drift_std * drift_rng.standard_normal((n_tasks, dim)) / np.sqrt(dim)
        steps[0] = 0.0
        self.task_shifts = np.cumsum(steps, axis=0)
        # (task, first index, states) of the most recent derived range
        self._held_states = None

    def task_classes(self, task):
        per = self.n_classes // self.n_tasks
        lo = task * per
        hi = self.n_classes if task == self.n_tasks - 1 else lo + per
        return self.class_order[lo:hi]

    def _sample_states(self, task, indices):
        """The seed states of ``indices`` under ``task``, ``(n, 4)`` uint64.

        A dense request is served from the block-aligned index range that
        covers it. That range is derived once and held until a request that
        it does not cover replaces it, so consecutive batches of one task
        share a derivation. A sparse request, whose covering range is longer
        than ``n + 2 * STATE_BLOCK``, derives only its own indices and leaves
        the held range alone. So the held range is at most ``2 *
        STATE_BLOCK`` rows longer than the request that derived it.
        """
        label = f"sample-task{task}"
        if indices.size == 0 or indices.min() < 0:
            return indexed_states(self.seed, label, indices)
        lo = int(indices.min()) // STATE_BLOCK * STATE_BLOCK
        hi = (int(indices.max()) // STATE_BLOCK + 1) * STATE_BLOCK
        held = self._held_states
        if held is None or held[0] != task or held[1] > lo or held[1] + len(held[2]) < hi:
            if hi - lo > indices.size + 2 * STATE_BLOCK:
                return indexed_states(self.seed, label, indices)
            held = (task, lo, indexed_states(self.seed, label, np.arange(lo, hi, dtype=np.uint64)))
            self._held_states = held
        return held[2][indices - held[1]]

    def summarize(self, task, sample_indices):
        """The :class:`BatchSummary` of ``embed(task, sample_indices)``, the
        same bits, built in row blocks of at most ``SUMMARY_BLOCK`` token
        floats (one row where a row exceeds it). Each block's summary rows
        go straight into the ``(n, D)`` and ``(n,)`` arrays returned, so at
        most one block of tokens is held at a time."""
        sample_indices = np.asarray(sample_indices, dtype=np.int64)
        n, rows = sample_indices.size, summary_block_rows(self.tokens, self.dim)
        unit_sums, means = np.empty((n, self.dim)), np.empty((n, self.dim))
        labels = np.empty(n, dtype=np.int64)
        for start in range(0, n, rows):
            part = slice(start, start + rows)
            block = self.embed(task, sample_indices[part]).summary()
            unit_sums[part], means[part], labels[part] = block.unit_sums, block.means, block.labels
            del block
        return BatchSummary(unit_sums, means, labels, self.tokens)

    def embed(self, task, sample_indices):
        """Generate the batch for the given task and sample indices.

        Each sample draws from its own generator, seeded by (seed, task,
        index) alone; the seed states are derived per block of indices, not
        per batch (:meth:`_sample_states`).
        """
        if not 0 <= task < self.n_tasks:
            raise ValueError(f"task {task} out of range")
        sample_indices = np.asarray(sample_indices, dtype=np.int64)
        classes = self.task_classes(task)
        b = sample_indices.size
        emb = np.empty((b, self.tokens, self.dim), dtype=np.float64)
        labels = classes[sample_indices % classes.size]
        scale = np.full(b, self.noise_std)
        outlier = np.zeros(b, dtype=bool)
        rngs = state_generators(self._sample_states(task, sample_indices))
        outlier_fraction, dominant_fraction = self.outlier_fraction, self.dominant_fraction
        # only the draws, in their fixed per-sample order, stay in the loop;
        # each row's noise goes straight into emb[j]
        for j, rng in enumerate(rngs):
            if outlier_fraction > 0 and rng.random() < outlier_fraction:
                rng.standard_normal(out=emb[j])
                labels[j] = rng.integers(0, self.n_classes)
                scale[j] = self.outlier_scale
                outlier[j] = True
            elif dominant_fraction > 0 and rng.random() < dominant_fraction:
                # near-duplicate of the task's first class: a dominant
                # clip repeated across the stream with tiny jitter
                rng.standard_normal(out=emb[j])
                labels[j] = classes[0]
                scale[j] = 0.1 * self.noise_std
            else:
                rng.standard_normal(out=emb[j])
        # the per-sample operations, batch-wide: noise_std * z,
        # (0.1 * noise_std) * z or outlier_scale * z, then the class mean plus
        # the task's drift on every row but the outliers; same bits as per row
        emb *= scale[:, None, None]
        means = self.class_means[labels] + self.task_shifts[task]
        np.add(emb, means[:, None, :], out=emb, where=~outlier[:, None, None])
        ids = np.int64(task) * 10_000_000 + sample_indices
        return EmbeddingBatch(emb, labels, ids)


@dataclass
class PrototypeModel:
    """Class prototypes + fingerprints + attunement, trained jointly."""

    prototypes: np.ndarray  # (K_cls, D)
    pool: FingerprintPool
    attn: AttunementParams
    learning_rate: float = 0.001
    grad_steps: int = 1

    def __post_init__(self):
        self.prototypes = np.asarray(self.prototypes, dtype=np.float64)
        if not 0 <= self.learning_rate < math.inf:  # a NaN fails it too
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate!r}")
        if not isinstance(self.grad_steps, numbers.Integral) or self.grad_steps < 1:
            raise ValueError(f"grad_steps must be an integer >= 1, got {self.grad_steps!r}")

    def attuned_pool(self):
        """The attuned fingerprints summed over their length, shape (N, D):
        ``attune(pool, attn)``."""
        return attune(self.pool, self.attn)

    def trainable_copy(self):
        """A model that trains apart from this one: its own copies of the
        prototypes, pool and gate (what ``train_step`` writes), sharing the
        read-only frozen MLP bank."""
        return replace(
            self,
            prototypes=self.prototypes.copy(),
            pool=FingerprintPool(self.pool.weights.copy()),
            attn=replace(self.attn, gate=self.attn.gate.copy()),
        )

    @classmethod
    def init_random(cls, n_classes, dim, pool_count, pool_length, num_experts, rng,
                    learning_rate=0.001, grad_steps=1):
        return cls(
            prototypes=0.01 * rng.standard_normal((n_classes, dim)),
            pool=FingerprintPool.init_random(pool_count, pool_length, dim, rng),
            attn=AttunementParams.init_random(dim, num_experts, rng),
            learning_rate=learning_rate,
            grad_steps=grad_steps,
        )


def _cross_entropy(logits, labels):
    """The mean softmax cross-entropy of ``logits`` against ``labels``, and the
    softmax of ``logits``, both from one set of exponentials."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    softmax = np.exp(shifted)
    exp_sums = np.add.reduce(softmax, axis=1, keepdims=True)
    nll = np.log(exp_sums[:, 0]) - shifted[np.arange(len(labels)), labels]
    softmax /= exp_sums
    return float(np.add.reduce(nll) / nll.size), softmax  # ndarray.mean's operations


def _checked_labels(model, batch):
    """The batch labels as int64; any outside the prototype set raises
    ``ValueError`` (a -1 would otherwise index the last class)."""
    labels = np.asarray(batch.labels, dtype=np.int64)
    if (labels < 0).any() or (labels >= model.prototypes.shape[0]).any():
        raise ValueError("label out of range for the prototype set")
    return labels


def _features(model, summary, p_agg):
    """The classifier's features and logits of a summarized batch.

    Per-sample feature = token-mean embedding scaled by (1 + S), where S
    is the mean cosine similarity to the attuned fingerprints ``p_agg``
    (``model.attuned_pool()`` when None): the ``sum_similarity`` of the
    batch against them. This is the differentiable coupling that lets the
    fingerprints and gate train.
    """
    if p_agg is None:
        p_agg = model.attuned_pool()
    s = sum_similarity(summary.unit_sums, p_agg, summary.tokens)
    feat = summary.means * (1.0 + s)[:, None]
    return feat, feat @ model.prototypes.T


def forward_loss(model, batch, p_agg=None):
    """Cross-entropy loss and logits of the prototype classifier on an
    :class:`EmbeddingBatch` or its :class:`BatchSummary`.

    ``p_agg`` is ``model.attuned_pool()``, computed when not given.
    """
    summary = batch.summary()
    labels = _checked_labels(model, summary)
    _, logits = _features(model, summary, p_agg)
    return _cross_entropy(logits, labels)[0], logits


def loss_gradients(model, batch):
    """Analytic gradients of forward_loss w.r.t. prototypes, pool, gate."""
    summary = batch.summary()
    labels = _checked_labels(model, summary)
    bsz, tokens = len(summary), summary.tokens
    p_agg, cache = attune(model.pool, model.attn, with_cache=True)
    e_sum, pooled = summary.unit_sums, summary.means  # (b, D) each
    feat, logits = _features(model, summary, p_agg)
    loss, dlogits = _cross_entropy(logits, labels)
    dlogits[np.arange(bsz), labels] -= 1.0
    dlogits /= bsz

    grad_proto = dlogits.T @ feat
    dfeat = dlogits @ model.prototypes
    ds = np.einsum("bd,bd->b", dfeat, pooled)  # dL/dS per sample

    # through the similarity: S_i = mean_{l,n} <e_hat_il, p_hat_n>; only the
    # fingerprint side is a parameter. Exact Jacobian of p / (|p| + eps),
    # with the norms as l2_normalize takes them
    norms = np.sqrt(np.add.reduce(p_agg * p_agg, axis=1))
    scale = norms + NORM_EPS
    n_fp = p_agg.shape[0]
    q = np.add.reduce(ds[:, None] * e_sum, axis=0) / (tokens * n_fp)  # (D,)
    # J v = v/s - p (p.v) / (|p| s^2), rows of p_agg independently
    pv = p_agg @ q
    d_p_agg = q[None, :] / scale[:, None] - p_agg * (
        pv / (np.maximum(norms, NORM_EPS) * scale * scale)
    )[:, None]
    grad_pool, grad_gate = attune_backward(model.pool, model.attn, d_p_agg, cache=cache)
    return loss, grad_proto, grad_pool, grad_gate


def train_step(model, batch, steps=None):
    """K steps of gradient descent on {prototypes, pool, gate} in place."""
    if steps is None:
        steps = model.grad_steps
    # the K steps read the same batch, so it is summarized once
    batch = batch.summary()
    eta = model.learning_rate
    last_loss = None
    for _ in range(steps):
        if eta == 0.0:
            last_loss, _ = forward_loss(model, batch)
            continue
        loss, g_proto, g_pool, g_gate = loss_gradients(model, batch)
        model.prototypes -= eta * g_proto
        model.pool.weights -= eta * g_pool
        model.attn.gate -= eta * g_gate
        last_loss = loss
    return model, last_loss


def evaluate(model, batch, p_agg=None):
    """Argmax-logit accuracy of the model on an evaluation batch, an
    :class:`EmbeddingBatch` or its :class:`BatchSummary`.

    Pass ``p_agg = model.attuned_pool()`` to share one attunement across
    several evaluation batches of the same model state.
    """
    if len(batch) == 0:
        raise ValueError("empty evaluation set")
    summary = batch.summary()
    _checked_labels(model, summary)
    _, logits = _features(model, summary, p_agg)
    pred = logits.argmax(axis=1)
    return float(np.mean(pred == batch.labels))


def average_accuracy(acc_rows):
    """Mean final-row accuracy over all seen tasks.

    ``acc_rows`` is the lower-triangular accuracy matrix as a list of
    rows; row i holds the accuracy on tasks 0..i after training task i.
    """
    if not acc_rows:
        raise ValueError("empty accuracy matrix")
    return float(np.mean(acc_rows[-1]))


def average_forgetting(acc_rows):
    """Mean drop from each task's best earlier accuracy to its final one."""
    if not acc_rows:
        raise ValueError("empty accuracy matrix")
    t = len(acc_rows)
    if t == 1:
        logger.warning("average_forgetting undefined for a single task; returning 0")
        return 0.0
    drops = []
    for j in range(t - 1):
        best_earlier = max(acc_rows[k][j] for k in range(j, t - 1))
        drops.append(best_earlier - acc_rows[t - 1][j])
    return float(np.mean(drops))
