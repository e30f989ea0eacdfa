"""Median-window coreset selection over fingerprint similarities.

Samples are ranked by similarity to the fingerprints and the window
around the midpoint of the ranking is selected: points that balance
novelty against familiarity.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core_math import angular_cost


@dataclass
class CoresetSelection:
    """Result of one selection: batch indices plus the inputs that produced it."""

    indices: np.ndarray
    sigma: float
    c: int
    similarity: np.ndarray


def coreset_size(b, sigma):
    """Coreset size c = max(1, floor(sigma * b)) for a batch of b samples,
    sigma in (0, 1]."""
    if not 0.0 < sigma <= 1.0:
        raise ValueError(f"sigma must be in (0, 1], got {sigma}")
    return max(1, math.floor(sigma * b))


def select_coreset(similarity, sigma):
    """Select the median-proximate window of a batch by similarity.

    The batch is sorted by similarity descending (ties broken by lower
    original index) and the slice of size c = max(1, floor(sigma * b))
    centred on position floor(b/2) is returned; an odd c extends the
    window one slot to the right.
    """
    s = np.asarray(similarity, dtype=np.float64)
    if s.ndim != 1 or s.size == 0:
        raise ValueError("similarity must be a non-empty vector")
    b = s.size
    c = coreset_size(b, sigma)
    order = np.argsort(-s, kind="stable")
    lo = b // 2 - c // 2
    hi = b // 2 + c // 2
    if hi - lo < c:  # odd c
        hi += 1
    return CoresetSelection(indices=order[lo:hi].copy(), sigma=float(sigma), c=c, similarity=s)


@dataclass
class BoundReport:
    """Raw deviation measurement for the coreset quality guarantee."""

    deviation: float
    sigma_b: float


def check_quality_bound(batch_similarity, selection):
    """Relative angular-cost deviation of the selection versus its batch.

    Pure measurement: thresholds and pass/fail interpretation live in the
    verification suite, not here.
    """
    full_cost = angular_cost(batch_similarity)
    if full_cost == 0.0:
        deviation = 0.0
    else:
        sel_cost = angular_cost(np.asarray(batch_similarity)[selection.indices])
        deviation = abs(sel_cost - full_cost) / full_cost
    return BoundReport(deviation=deviation, sigma_b=selection.sigma * len(batch_similarity))
