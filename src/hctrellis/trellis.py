"""Dense subset trellis: exact partition function, MAP, marginals, sampling.

The trellis memoizes one cell per nonempty cluster, filled bottom-up one
popcount level at a time.  Every cell only reads strictly smaller clusters,
so a whole level is filled in chunks of parents: one block of splits, one
psi call and one row-wise reduction per chunk.  The same single pass
produces both the summed (partition function) and maxed (MAP) recursions
plus MAP backpointers; the split-term counter therefore advances exactly
once per evaluated split.  Tree counts run over the same chunks, in int64
while (2n-3)!! fits and in exact Python ints above.

Cluster marginals come from one outside pass over the same chunks, levels
top-down: each split hands its share of the parent's probability to both
children, summed in the log domain (high-beta marginals underflow a linear
sum).  The first marginal query runs it; later queries are lookups.

MAP trees and draws come from ``core.grow_hierarchy``, shared with the
sparse engine: the MAP rule reads the backpointer, and the sampler draws
one uniform per non-singleton parent, two-leaf parents included.
"""

from __future__ import annotations

import numpy as np

from .core import (
    DENSE_MAX_LEAVES,
    LOG_ZERO,
    GroundSet,
    Hierarchy,
    draw_index,
    grow_hierarchy,
    num_hierarchies,
    pivot_splits_array,
)
from .models import PotentialModel, log_hierarchy_potential

# Split terms per fill chunk: each popcount level is filled a block of
# parents at a time, bounding the temporaries to a few arrays of this length.
FILL_CHUNK_TERMS = 1 << 14


class DenseTrellis:
    """Memoized dynamic programs over all 2**n - 1 clusters of a ground set."""

    def __init__(self, ground: GroundSet, model: PotentialModel):
        if ground.n > DENSE_MAX_LEAVES:
            raise ValueError(f"dense trellis is capped at {DENSE_MAX_LEAVES} leaves")
        if model.n != ground.n:
            raise ValueError("model and ground set disagree on the leaf count")
        self.ground = ground
        self.model = model
        self.op_count = 0
        self._log_z: np.ndarray | None = None
        self._log_map: np.ndarray | None = None
        self._map_child: np.ndarray | None = None
        self._counts: np.ndarray | None = None
        self._log_p: np.ndarray | None = None
        self._sample_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    # -- dynamic program ----------------------------------------------------

    def _level_chunks(self, sizes=None):
        """Yield (parents, lefts, rights, width) for every split, one popcount
        level at a time in chunks of ~FILL_CHUNK_TERMS split terms; each
        parent owns ``width`` consecutive splits, lefts ascending.  Levels
        run bottom-up unless ``sizes`` gives their order."""
        n = self.ground.n
        pc = np.bitwise_count(np.arange(1 << n, dtype=np.int64))
        for k in range(2, n + 1) if sizes is None else sizes:
            width = (1 << (k - 1)) - 1  # splits per parent
            level = np.nonzero(pc == k)[0]
            step = max(1, FILL_CHUNK_TERMS // width)
            for lo in range(0, level.size, step):
                parents = level[lo : lo + step]
                lefts = pivot_splits_array(parents)
                yield parents, lefts, np.repeat(parents, width) ^ lefts, width

    def _ensure_filled(self) -> None:
        if self._log_z is not None:
            return
        size = 1 << self.ground.n
        log_z = np.zeros(size)
        log_map = np.zeros(size)
        map_child = np.zeros(size, dtype=np.int64)
        ops = 0
        with np.errstate(divide="ignore", invalid="ignore"):
            for parents, subs, comps, width in self._level_chunks():
                lp = self.model.log_psi_pairs(subs, comps)
                z_terms = (lp + log_z[subs] + log_z[comps]).reshape(-1, width)
                m_terms = (lp + log_map[subs] + log_map[comps]).reshape(-1, width)
                top = z_terms.max(axis=1)
                shift = np.where(top == LOG_ZERO, 0.0, top)  # all-zero rows stay -inf
                log_z[parents] = shift + np.log(np.exp(z_terms - shift[:, None]).sum(axis=1))
                best = np.argmax(m_terms, axis=1)  # first max = smallest bits
                rows = np.arange(parents.size)
                log_map[parents] = m_terms[rows, best]
                map_child[parents] = subs.reshape(-1, width)[rows, best]
                ops += subs.size
        self.op_count = ops
        self._log_z = log_z
        self._log_map = log_map
        self._map_child = map_child

    # -- queries -------------------------------------------------------------

    def log_partition(self) -> float:
        """log Z over all hierarchies of the full ground set."""
        self._ensure_filled()
        return float(self._log_z[self.ground.full])

    def map_hierarchy(self) -> tuple[float, Hierarchy]:
        """The maximum-potential hierarchy and its log potential.

        The returned value is the tree's own recomputed potential, so it
        matches log_hierarchy_potential(tree, model) bit for bit.  A -inf
        value flags a degenerate instance (every hierarchy has zero
        potential); the tree returned alongside is then an arbitrary valid
        one.
        """
        self._ensure_filled()
        tree = grow_hierarchy(self.ground.full, lambda parent: int(self._map_child[parent]))
        return log_hierarchy_potential(tree, self.model), tree

    @property
    def log_z_table(self) -> np.ndarray:
        self._ensure_filled()
        return self._log_z

    @property
    def log_map_table(self) -> np.ndarray:
        self._ensure_filled()
        return self._log_map

    def operation_count(self) -> int:
        if self._log_z is None:
            raise ValueError("run the partition-function pass first")
        return self.op_count

    # -- marginals -----------------------------------------------------------

    def _check_cluster(self, bits: int) -> None:
        if bits == 0:
            raise ValueError("empty cluster")
        if bits & ~self.ground.full:
            raise ValueError("cluster extends past the ground set")

    def _log_marginals(self) -> np.ndarray:
        """log P(C) for every cluster C, from one top-down outside pass."""
        if self._log_p is not None:
            return self._log_p
        log_z, n, full = self.log_z_table, self.ground.n, self.ground.full
        if log_z[full] == LOG_ZERO:
            raise ValueError("degenerate posterior: partition function is zero")
        log_p = np.full(full + 1, LOG_ZERO)
        log_p[full] = 0.0
        with np.errstate(invalid="ignore"):
            for parents, lefts, rights, width in self._level_chunks(range(n, 1, -1)):
                above = log_p[parents]  # final: every superset has handed down its share
                # P(P) is -inf wherever Z(P) is, and -inf - -inf would be NaN
                up = np.where(above == LOG_ZERO, LOG_ZERO, above - log_z[parents])
                t = self.model.log_psi_pairs(lefts, rights) + log_z[lefts] + log_z[rights]
                t += np.repeat(up, width)
                np.logaddexp.at(log_p, lefts, t)
                np.logaddexp.at(log_p, rights, t)
        log_p[1 << np.arange(n)] = 0.0
        self._log_p = log_p
        return log_p

    def marginal_cluster(self, bits: int) -> float:
        """log P(cluster appears in the hierarchy); 0.0 for root/singletons."""
        self._check_cluster(bits)
        return float(self._log_marginals()[bits])

    def marginal_subhierarchy(self, fragment: Hierarchy) -> float:
        """log P(the fragment appears intact, rooted at its own cluster)."""
        fragment.validate(n=self.ground.n)
        root = fragment.root
        log_p = float(self._log_marginals()[root])
        if log_p == LOG_ZERO:  # then Z(root) may be zero too
            return LOG_ZERO
        return log_p - float(self._log_z[root]) + log_hierarchy_potential(fragment, self.model)

    # -- posterior sampling ----------------------------------------------------

    def _split_distribution(self, parent: int) -> tuple[np.ndarray, np.ndarray]:
        cached = self._sample_cache.get(parent)
        if cached is not None:
            return cached
        subs = pivot_splits_array(parent)
        comps = parent ^ subs
        lp = self.model.log_psi_pairs(subs, comps)
        terms = lp + self._log_z[subs] + self._log_z[comps]
        m = float(terms.max())
        cum = np.cumsum(np.exp(terms - m))
        entry = (subs, cum)
        self._sample_cache[parent] = entry
        return entry

    def sample(self, rng: np.random.Generator) -> Hierarchy:
        """One posterior draw; splits are chosen top-down per the exact
        conditional p(left | parent) = psi * Z(left) * Z(right) / Z(parent)."""
        if self.log_partition() == LOG_ZERO:
            raise ValueError("degenerate posterior: partition function is zero")

        def draw(parent: int) -> int:
            subs, cum = self._split_distribution(parent)
            return int(subs[draw_index(cum, rng)])

        return grow_hierarchy(self.ground.full, draw)

    def sample_hierarchy(self, seed) -> Hierarchy:
        return self.sample(np.random.default_rng(seed))

    def sample_many(self, count: int, seed) -> list[Hierarchy]:
        rng = np.random.default_rng(seed)
        return [self.sample(rng) for _ in range(count)]

    # -- exact counting --------------------------------------------------------

    def count_trees(self) -> int:
        """Number of hierarchies the trellis realizes: (2n-3)!! when dense."""
        if self._counts is None:
            n = self.ground.n
            fits = num_hierarchies(n) <= np.iinfo(np.int64).max  # bounds every term and sum
            counts = np.zeros(1 << n, dtype=np.int64 if fits else object)
            counts[1 << np.arange(n)] = 1
            for parents, lefts, rights, width in self._level_chunks():
                counts[parents] = (counts[lefts] * counts[rights]).reshape(-1, width).sum(axis=1)
            self._counts = counts
        return int(self._counts[self.ground.full])

    def tree_count_of(self, bits: int) -> int:
        self._check_cluster(bits)
        self.count_trees()
        return int(self._counts[bits])
