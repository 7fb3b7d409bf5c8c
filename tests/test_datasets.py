import numpy as np
import pytest

from hctrellis.datasets import random_affinity_weights, random_similarity_weights


def _scalar_loop_weights(n, seed, low, high):
    """One scalar draw per pair, row by row: the stream order every seeded
    instance was recorded with."""
    rng = np.random.default_rng(seed)
    w = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            w[i, j] = w[j, i] = rng.uniform(low, high)
    return w


@pytest.mark.parametrize("n", [1, 2, 7, 14, 30])
@pytest.mark.parametrize("seed", [0, 3, (5, 1)])
class TestWeightStream:
    @pytest.mark.parametrize("low, high", [(0.0, 1.0), (0.0, 5.0)])
    def test_similarities_match_scalar_draws(self, n, seed, low, high):
        got = random_similarity_weights(n, seed, low, high).w
        expected = _scalar_loop_weights(n, seed, low, high)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    def test_affinities_match_scalar_draws(self, n, seed):
        got = random_affinity_weights(n, seed).w
        expected = _scalar_loop_weights(n, seed, -1.0, 1.0)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


def test_negative_similarities_refused():
    with pytest.raises(ValueError, match="nonnegative"):
        random_similarity_weights(4, 0, low=-0.5)
