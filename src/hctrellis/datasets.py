"""Synthetic instances for experiments and tests."""

from __future__ import annotations

import numpy as np

from .models import PairwiseWeights


def random_similarity_weights(n: int, seed, low: float = 0.0, high: float = 1.0) -> PairwiseWeights:
    """Nonnegative symmetric weights, e.g. for cut-cost scoring."""
    if low < 0:
        raise ValueError("similarities must be nonnegative")
    rng = np.random.default_rng(seed)
    w = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            w[i, j] = w[j, i] = rng.uniform(low, high)
    return PairwiseWeights(w)


def random_affinity_weights(n: int, seed) -> PairwiseWeights:
    """Signed symmetric affinities in [-1, 1]."""
    rng = np.random.default_rng(seed)
    w = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            w[i, j] = w[j, i] = rng.uniform(-1.0, 1.0)
    return PairwiseWeights(w)


# Frozen instance: the first seed, counting from 0, at which the exact MAP
# (brute-force oracle) beats greedy agglomeration by more than 1e-6 in log
# potential of a DasguptaModel over random_similarity_weights(6, seed).
ADVERSARIAL_N = 6
ADVERSARIAL_SEED = 0


def greedy_adversarial_weights() -> PairwiseWeights:
    """A fixed similarity graph on which greedy agglomeration is suboptimal."""
    return random_similarity_weights(ADVERSARIAL_N, ADVERSARIAL_SEED)
