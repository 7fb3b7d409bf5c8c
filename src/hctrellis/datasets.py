"""Synthetic instances for experiments and tests.

The weight generators draw w[i, j] for i < j in row-major order, one value
of the seed's stream per pair: that order is part of every seeded instance.
"""

from __future__ import annotations

import numpy as np

from .models import PairwiseWeights


def _uniform_weights(n: int, seed, low: float, high: float) -> PairwiseWeights:
    w = np.zeros((n, n))
    upper = np.triu_indices(n, 1)
    w[upper] = np.random.default_rng(seed).uniform(low, high, size=len(upper[0]))
    w.T[upper] = w[upper]
    return PairwiseWeights(w)


def random_similarity_weights(n: int, seed, low: float = 0.0, high: float = 1.0) -> PairwiseWeights:
    """Nonnegative symmetric weights, e.g. for cut-cost scoring."""
    if low < 0:
        raise ValueError("similarities must be nonnegative")
    return _uniform_weights(n, seed, low, high)


def random_affinity_weights(n: int, seed) -> PairwiseWeights:
    """Signed symmetric affinities in [-1, 1]."""
    return _uniform_weights(n, seed, -1.0, 1.0)


# Frozen instance: the first seed, counting from 0, at which the exact MAP
# (brute-force oracle) beats greedy agglomeration by more than 1e-6 in log
# potential of a DasguptaModel over random_similarity_weights(6, seed).
ADVERSARIAL_N = 6
ADVERSARIAL_SEED = 0


def greedy_adversarial_weights() -> PairwiseWeights:
    """A fixed similarity graph on which greedy agglomeration is suboptimal."""
    return random_similarity_weights(ADVERSARIAL_N, ADVERSARIAL_SEED)
