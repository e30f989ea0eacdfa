"""Retain-Drop rehearsal buffer with rank-probability sampling.

The buffer fills directly while it has room; once full, each offered
batch triggers a Retain-Drop exchange: a small number of novel batch
samples (low similarity to the fingerprints) replace redundant residents
(high similarity), with the exchange size shrinking as the stream grows.
The reservoir and keep-first baselines differ only in that exchange.
"""

import logging
import operator
from dataclasses import dataclass

import numpy as np

from .core_math import unit_token_sums
from .learner import BatchSummary, EmbeddingBatch

logger = logging.getLogger(__name__)

_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).tiny)


@dataclass
class BufferItem:
    sample_id: int
    embedding: np.ndarray  # (L, D) token embeddings
    label: int
    similarity: float


class RehearsalBuffer:
    """Capacity-bounded store of past samples, written only by the policies
    below. Resident i is row i of ``sample_ids``, ``labels``, ``similarity``
    (its score when stored; 0 if unscored) and the token embeddings; every
    reader returns a read-only view of the store.

    The store keeps one array per column, of which the first ``len(self)``
    rows are live; it grows all of them together, geometrically, so a full
    fill copies each resident O(1) times. The writers only flag the rows
    they wrote; ``unit_token_sums`` brings those rows of its cache up to
    date when it is asked, by resident scoring or a mini-batch, so each
    written row is normalized at most once."""

    # the per-resident arrays, grown together
    _COLUMNS = ("_embeddings", "_sums", "_ids", "_labels", "_similarity", "_stale")

    def __init__(self, capacity):
        if capacity < 1:
            raise ValueError("buffer capacity must be >= 1")
        self.capacity = int(capacity)
        self.n_seen = 0
        self._len = 0
        self._embeddings = np.zeros((0, 0, 0))
        self._sums = np.zeros((0, 0))  # unit_token_sums of the rows not stale
        self._ids = np.zeros(0, dtype=np.int64)
        self._labels = np.zeros(0, dtype=np.int64)
        self._similarity = np.zeros(0)
        self._stale = np.zeros(0, dtype=bool)  # rows written since the last sums

    def __len__(self):
        return self._len

    def _live(self, column):
        view = column[:self._len]
        view.flags.writeable = False
        return view

    @property
    def sample_ids(self):
        return self._live(self._ids)

    @property
    def labels(self):
        return self._live(self._labels)

    @property
    def similarity(self):
        return self._live(self._similarity)

    def embeddings(self):
        """The stored (len, L, D) token embeddings."""
        return self._live(self._embeddings)

    def unit_token_sums(self):
        """The (len, D) ``core_math.unit_token_sums`` of the residents, equal
        row for row to recomputing them."""
        stale = np.flatnonzero(self._stale[:self._len])
        if stale.size:
            self._sums[stale] = unit_token_sums(self._embeddings[stale])
            self._stale[stale] = False
        return self._live(self._sums)

    @property
    def items(self):
        """A snapshot of the residents as records, in slot order."""
        emb = self._embeddings[:self._len].copy()
        rows = zip(self.sample_ids.tolist(), self.labels.tolist(), self.similarity.tolist())
        return tuple(BufferItem(i, emb[r], label, s) for r, (i, label, s) in enumerate(rows))

    def minibatch(self, size, rng):
        """The :class:`BatchSummary` of up to ``size`` residents drawn uniformly
        without replacement, with their cached unit-token sums, or None."""
        if not len(self) or size < 1:
            return None
        idx = rng.choice(len(self), size=min(size, len(self)), replace=False)
        return BatchSummary(self.unit_token_sums()[idx], self._embeddings[idx].mean(axis=1),
                            self._labels[idx], self._embeddings.shape[1])

    def _append(self, batch, similarity):
        """Store the leading batch rows that fit in the rows after the
        residents and return how many did. Where they do not fit, every
        column moves to ``min(capacity, max(needed, 2 * rows))`` rows first."""
        n = min(self.capacity - len(self), len(batch))
        if n == 0:
            return 0
        start, end = self._len, self._len + n
        if end > self._ids.size:
            self._grow(min(self.capacity, max(end, 2 * self._ids.size)), batch.embeddings)
        self._embeddings[start:end] = batch.embeddings[:n]
        self._ids[start:end] = batch.sample_ids[:n]
        self._labels[start:end] = batch.labels[:n]
        self._similarity[start:end] = similarity[:n]
        self._stale[start:end] = True
        self._len = end
        return n

    def _grow(self, rows, emb):
        """Move every column into a new array of ``rows`` rows; the first
        offer ``emb`` sets the embeddings' (L, D) and dtype."""
        if not self._ids.size:
            self._embeddings = np.empty((0, *emb.shape[1:]), dtype=emb.dtype)
            self._sums = np.empty((0, emb.shape[2]))
        for name in self._COLUMNS:
            old = getattr(self, name)
            new = np.empty((rows, *old.shape[1:]), dtype=old.dtype)
            new[:self._len] = old[:self._len]
            setattr(self, name, new)

    def _overwrite(self, slots, batch, rows, similarity):
        """Replace the residents in ``slots`` by the batch rows ``rows``."""
        self._embeddings[slots] = batch.embeddings[rows]
        self._ids[slots] = batch.sample_ids[rows]
        self._labels[slots] = batch.labels[rows]
        self._similarity[slots] = similarity[rows]
        self._stale[slots] = True


def _as_batch(offered):
    """The offer as an EmbeddingBatch, stacking a BufferItem list; an empty one stores nothing."""
    if isinstance(offered, EmbeddingBatch) or not offered:
        return offered
    return EmbeddingBatch(
        np.stack([it.embedding for it in offered]),
        np.array([it.label for it in offered], dtype=np.int64),
        np.array([it.sample_id for it in offered], dtype=np.int64),
    )


def compute_update_count(b, m, n_seen, rng):
    """Number of Retain-Drop exchanges for a batch of size b.

    Draws ``n_left`` uniform integers from [0, n_seen) and counts the
    hits below the capacity m; the count is clamped to [1, floor(b/2)].
    A stream that has seen nothing yet counts every slot as a hit.
    Only meaningful once the buffer cannot absorb the batch directly.
    """
    if b < 1 or m < 1:
        raise ValueError("b and m must be >= 1")
    n_left = b - max(0, m - n_seen)
    if n_left <= 0:
        raise ValueError("buffer has room for the whole batch; no exchange needed")
    if n_seen <= 0:
        hits = n_left
    else:
        draws = rng.integers(0, n_seen, size=n_left)
        hits = int(np.count_nonzero(draws < m))
    return min(b // 2, max(1, hits))


def rank_probabilities(similarity):
    """Rank-based novelty weights: pi_i = 1 - (1/r_i) / sum_j (1/r_j).

    Rank 1 is the most similar sample (descending sort, ties broken by
    lower index), so low-similarity samples get weights near 1. The
    weights sum to n - 1; they are relative preferences, not a
    distribution. A single element gets weight 0.
    """
    s = np.asarray(similarity, dtype=np.float64)
    if s.ndim != 1 or s.size == 0:
        raise ValueError("similarity must be a non-empty vector")
    n = s.size
    if n == 1:
        return np.zeros(1)
    order = np.argsort(-s, kind="stable")
    ranks = np.empty(n, dtype=np.float64)
    ranks[order] = np.arange(1, n + 1)
    inv = 1.0 / ranks
    return 1.0 - inv / inv.sum()


def weighted_sample_without_replacement(weights, k, rng):
    """Draw k distinct indices, renormalizing the weights after each draw.

    Falls back to uniform sampling over the remaining pool if the
    positive weights run out before k draws are made.

    Reproduces ``rng.choice(pool.size, p=w[pool] / w[pool].sum())`` over the
    shrinking pool draw for draw, final generator state included: each
    weighted draw consumes one ``rng.random()`` and picks what the CDF that
    ``Generator.choice`` builds would pick, without its validation of ``p``.

    Most draws are decided by a running prefix sum: ``prefix = cumsum(w)``
    once per call, then ``prefix[i:] -= w[i]`` after drawing ``i``, so a draw
    costs one binary search and one subtraction. The uniform ``u`` is
    scaled to ``target = u * prefix[-1]`` and searched for, and the index
    found is accepted when ``target`` lies more than ``margin = 8 n eps T0``
    from both of its prefix bounds, ``T0`` being the first total. Any other
    draw builds the exact CDF over the remaining weights (``_exact_pick``).

    Why an accepted draw is exact. Let ``r = eps / 2 = 2**-53`` be the unit
    roundoff, ``P_j`` the exact sum of the remaining weights up to index
    ``j``, ``P`` their total and ``W <= T0 (1 + n r)`` the first exact total.
    To first order in ``r``:
      * each initial ``prefix[j]`` is within ``(n - 1) r W`` of its exact
        value, and each of the at most ``k - 1`` subtractions adds ``r W``;
      * ``target`` is within that drift plus ``r W`` of ``u P``;
      * the exact CDF's entry for ``j`` (divide by the total, cumsum, divide
        by the last entry) is within ``(2m + 1) r`` of ``P_j / P`` over the
        ``m`` remaining weights, so within ``(2m + 1) r W`` once scaled by
        ``P <= W``.
    Together that is less than ``(2n + 2k + 2m) r W <= 6 n r W``, and
    ``margin`` is ``16 n r T0``. So an accepted ``i`` has
    ``P_{i-1} < u P < P_i`` with room for every rounding, and the exact CDF
    puts ``u`` between the same two entries. The same room makes
    ``P_i - P_{i-1} = w[i]`` positive, so a zero weight or a drawn slot is
    never accepted. A product that underflows errs by up to ``2**-1075``
    more, ``r`` times the smallest normal number, which a ``margin`` at
    least that number absorbs; a smaller ``margin`` sends every draw to the
    exact CDF, and so does a cumsum that overflows, whose ``margin`` is
    infinite.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("weights must be a non-empty vector")
    if not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite")
    if np.any(w < 0):
        raise ValueError("weights must be non-negative")
    with np.errstate(over="ignore"):
        finite_total = np.isfinite(w.sum())
        prefix = np.cumsum(w)  # may overflow where the pairwise sum does not
    if not finite_total:
        raise ValueError("weights must have a finite sum")
    n = w.size
    try:
        k = operator.index(k)
    except TypeError:
        raise ValueError(f"k must be an integer, got {k!r}") from None
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range [1, {n}]")
    margin = 8 * n * _EPS * prefix.item(-1)
    if margin < _TINY:
        margin = np.inf
    removed = np.zeros(n, dtype=bool)
    positive = int(np.count_nonzero(w))  # weighted picks are always positive
    chosen = []
    while len(chosen) < k and positive:
        u = rng.random()
        target = u * prefix.item(-1)
        i = int(prefix.searchsorted(target, side="right"))
        if not (i < n and prefix.item(i) - target > margin
                and (i == 0 or target - prefix.item(i - 1) > margin)):
            i = _exact_pick(w, removed, u)
        chosen.append(i)
        removed[i] = True
        prefix[i:] -= w.item(i)
        positive -= 1
    if len(chosen) < k:
        logger.warning(
            "weighted sampling ran out of positive weights; "
            "falling back to uniform for the remaining %d draw(s)",
            k - len(chosen),
        )
        pool = np.flatnonzero(~removed)  # the remaining indices, ascending
        while len(chosen) < k:
            pos = int(rng.integers(0, pool.size))
            chosen.append(int(pool[pos]))
            pool = np.delete(pool, pos)
    return chosen


def _exact_pick(w, removed, u):
    """The index that ``Generator.choice`` draws with the uniform ``u`` from
    the weights not ``removed``, taken in index order: their CDF built as it
    builds it, searched for ``u``."""
    pool = np.flatnonzero(~removed)
    live = w[pool]
    cdf = (live / live.sum()).cumsum()
    cdf /= cdf[-1]
    return int(pool[cdf.searchsorted(u, side="right")])


def update_buffer(buffer, batch, s_batch, s_buffer, rng):
    """Offer a batch to the buffer: fill while there is room, then Retain-Drop.

    Args:
        buffer: the RehearsalBuffer to update in place.
        batch: the whole incoming batch, an EmbeddingBatch or BufferItem list.
        s_batch: similarity of each batch sample to the fingerprints, (b,).
        s_buffer: similarity of each current resident, (len(buffer),); may
            be empty when the buffer is empty.
        rng: generator driving the exchange-count draw and both samplings.

    Returns:
        The updated buffer (same object).

    Raises:
        ValueError: ``s_batch`` or ``s_buffer`` has the wrong length or a
            non-finite entry; raised before any write or draw.
    """
    batch = _as_batch(batch)
    s_batch = np.asarray(s_batch, dtype=np.float64)
    b = len(batch)
    if s_batch.shape != (b,):
        raise ValueError("s_batch length must match the batch")
    s_resident = np.asarray(s_buffer, dtype=np.float64).reshape(-1)
    if s_resident.shape != (len(buffer),):
        raise ValueError("s_buffer length must match the buffer contents")
    for name, s in (("s_batch", s_batch), ("s_buffer", s_resident)):
        if not np.all(np.isfinite(s)):
            raise ValueError(f"{name} must be finite")
    n_seen_before = buffer.n_seen

    fill = buffer._append(batch, s_batch)
    if fill < b:  # Retain-Drop exchange on the rows that did not fit
        nu = compute_update_count(b, buffer.capacity, n_seen_before, rng)
        nu = min(nu, b - fill, len(buffer))
        if nu >= 1:
            pi_batch = rank_probabilities(s_batch[fill:])
            pi_buffer = rank_probabilities(np.concatenate([s_resident, s_batch[:fill]]))
            # a lone candidate has rank weight 0 but is a certain pick; the
            # sampler's uniform fallback would pick it with a warning, and
            # rng.integers(0, 1) consumes no generator state
            if pi_batch.size == 1:
                retain = [0]
            else:
                retain = weighted_sample_without_replacement(pi_batch, nu, rng)
            drop = weighted_sample_without_replacement(1.0 - pi_buffer, nu, rng)
            buffer._overwrite(drop, batch, fill + np.array(retain), s_batch)
    buffer.n_seen += b
    return buffer


def reservoir_update(buffer, batch, rng):
    """Classic reservoir sampling over the offered stream; unscored."""
    batch = _as_batch(batch)
    s_batch = np.zeros(len(batch))
    fill = buffer._append(batch, s_batch)
    buffer.n_seen += fill
    for row in range(fill, len(batch)):
        j = int(rng.integers(0, buffer.n_seen + 1))
        if j < buffer.capacity:
            buffer._overwrite(j, batch, row, s_batch)
        buffer.n_seen += 1
    return buffer


def keep_first_update(buffer, batch):
    """Fill-once baseline: residents are never replaced; unscored."""
    batch = _as_batch(batch)
    buffer._append(batch, np.zeros(len(batch)))
    buffer.n_seen += len(batch)
    return buffer


def mmd_squared(f_buffer, f_seen):
    """Squared MMD between two similarity samples under the rank-1 kernel.

    With kernel k(x, y) = sim(x) * sim(y) the biased V-statistic collapses
    to the squared difference of the two sample means.
    """
    fb = np.asarray(f_buffer, dtype=np.float64)
    fs = np.asarray(f_seen, dtype=np.float64)
    if fb.size == 0 or fs.size == 0:
        raise ValueError("mmd_squared needs non-empty samples")
    gap = fb.mean() - fs.mean()
    return float(gap * gap)
