"""Fingerprint-guided data selection for stream learning.

A compact pool of learnable fingerprints serves as a proxy for the model
state: batch samples are scored by cosine similarity to the fingerprints,
the median-similarity window becomes the training coreset, and the same
similarities drive Retain-Drop rehearsal-buffer updates. A gated bank of
frozen MLPs refines the fingerprints between updates.
"""

import os

# BLAS reads its thread count when NumPy is first imported, so the bound
# from STREAMFP_THREADS (default 1, determinism first) is set before any
# submodule imports NumPy. A variable set explicitly wins. This has no
# effect if NumPy was imported before streamfp.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, os.environ.get("STREAMFP_THREADS", "1"))

__version__ = "0.1.0"

from .core_math import (
    angular_cost,
    batch_similarity,
    gelu,
    l2_normalize,
)
from .fingerprints import AttunementParams, FingerprintPool, aggregate, attune
from .coreset import CoresetSelection, check_quality_bound, select_coreset
from .buffer import (
    RehearsalBuffer,
    compute_update_count,
    mmd_squared,
    rank_probabilities,
    update_buffer,
    weighted_sample_without_replacement,
)
from .learner import (
    BatchSummary,
    EmbeddingBatch,
    PrototypeModel,
    SyntheticEmbedder,
    average_accuracy,
    average_forgetting,
    evaluate,
    forward_loss,
    train_step,
)
from .stream_sim import MetricsReport, StreamConfig, run_experiment
