"""Deterministic named RNG sub-streams derived from a single master seed.

Every random consumer in the engine gets its own labeled stream, so adding
a new consumer never perturbs the draws of existing ones.
"""

import hashlib
import operator

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# NumPy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _label_key(label: str) -> int:
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def substream(master_seed: int, label: str) -> np.random.Generator:
    """Return an independent generator for ``label`` under ``master_seed``,
    an integer (a float raises ``TypeError``)."""
    seq = np.random.SeedSequence([operator.index(master_seed), _label_key(label)])
    return np.random.default_rng(seq)


def _words(n: int) -> list:
    """The little-endian uint32 words SeedSequence splits an entropy int into."""
    if n < 0:
        raise ValueError(f"expected a non-negative integer, got {n}")
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


class _Hash:
    """SeedSequence's ``hashmix``. Its running constant depends only on the
    call count, so every row of a batch shares the control flow. A word is a
    Python int (the same for every row) or a uint32 column (one per row)."""

    def __init__(self, init, mult):
        self.const, self.mult = init, mult

    def __call__(self, value):
        value = value ^ self.const
        self.const = (self.const * self.mult) & _MASK32
        value = (value * self.const) & _MASK32
        return value ^ (value >> 16)


def _mix(x, y):
    result = (((_MIX_MULT_L * x) & _MASK32) - ((_MIX_MULT_R * y) & _MASK32)) & _MASK32
    return result ^ (result >> 16)


def _hash_consts(init, mult, count):
    consts = [init]
    for _ in range(count):
        consts.append((consts[-1] * mult) & _MASK32)
    return np.array(consts, dtype=np.uint32)


_OUT_CONSTS = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL_SIZE)


def _seed_states(entropy, n):
    """``SeedSequence(entropy).generate_state(4, uint64)`` for ``n`` rows.

    ``entropy`` lists the entropy words. A word that is the same for every
    row stays a Python int, so the mixing folds it without touching arrays.
    Returns ``(n, 4)`` uint64.
    """
    hashmix = _Hash(_INIT_A, _MULT_A)
    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = _mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = _mix(pool[i_dst], hashmix(word))
    # generate_state(4, uint64): hashmix with its own constants over the
    # pool, cycled to 8 words; the constants are fixed, so one (n, 8) pass
    state = np.tile(np.array(pool, dtype=np.uint32).reshape(_POOL_SIZE, n).T, 2)
    state ^= _OUT_CONSTS[:-1]
    state *= _OUT_CONSTS[1:]
    state ^= state >> 16
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64)


class _PresetState(ISeedSequence):
    """Hands ``PCG64`` four precomputed state words; it cannot ``spawn``."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        # PCG64 asks for np.uint64 itself, accepted before np.dtype is built
        if n_words != 4 or (dtype is not np.uint64 and np.dtype(dtype) != np.uint64):
            raise ValueError("a preset seed state only serves PCG64 (4 uint64 words)")
        return self.words


def state_generators(states):
    """One PCG64 ``Generator`` per row of ``(n, 4)`` uint64 seed ``states``,
    built lazily, in row order. These generators cannot ``spawn``."""
    for words in states:
        yield np.random.Generator(np.random.PCG64(_PresetState(words)))


def indexed_states(master_seed: int, label: str, indices):
    """The PCG64 seed words of ``substream_indexed`` for each index, ``(n, 4)``
    uint64, derived in one vectorised pass.

    Row ``j`` is ``SeedSequence([master_seed, key(label), indices[j]])
    .generate_state(4, uint64)``, a pure function of its own three inputs, so
    a row derived in any request is the row of any other request for the
    same index. ``indices`` is a 1-D array of non-negative integers.

    A derivation has a fixed cost of ~60-150 us against ~0.1 us per index,
    so the synthetic embedder calls this once per block of indices, not once
    per batch, and slices each batch's rows from the block.
    """
    prefix = _words(operator.index(master_seed)) + _words(_label_key(label))
    indices = np.asarray(indices)
    if indices.ndim != 1:
        raise ValueError(f"expected a 1-D index array, got shape {indices.shape}")
    if indices.size and not np.issubdtype(indices.dtype, np.integer):
        raise TypeError(f"indices must be integers, got dtype {indices.dtype}")
    if indices.size and indices.min() < 0:
        raise ValueError(f"expected non-negative indices, got {indices.min()}")
    indices = indices.astype(np.uint64)
    lo = (indices & _MASK32).astype(np.uint32)
    hi = (indices >> 32).astype(np.uint32)
    states = np.empty((indices.size, 4), dtype=np.uint64)
    # an index below 2**32 is one entropy word, a larger one two
    for rows, words in ((hi == 0, [lo]), (hi != 0, [lo, hi])):
        count = int(np.count_nonzero(rows))
        if count:
            states[rows] = _seed_states(prefix + [w[rows] for w in words], count)
    return states


def substream_indexed(master_seed: int, label: str, index) -> np.random.Generator:
    """Like :func:`substream` but with an extra integer coordinate: the
    generator that ``SeedSequence([master_seed, key(label), index])`` seeds.

    Used for per-sample / per-trial determinism (e.g. synthetic embeddings
    keyed by (task, sample index)). ``index`` is one non-negative integer;
    :func:`indexed_states` derives the states of a whole index array at once.
    """
    seq = np.random.SeedSequence(
        [operator.index(master_seed), _label_key(label), operator.index(index)])
    return np.random.default_rng(seq)
