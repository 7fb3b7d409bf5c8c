"""Dense subset trellis: exact partition function, MAP, marginals, sampling.

The trellis memoizes one cell per nonempty cluster, filled bottom-up in
popcount order, so every cell only reads strictly smaller clusters.  The
same single pass produces both the summed (partition function) and maxed
(MAP) recursions plus MAP backpointers; the split-term counter therefore
advances exactly once per evaluated split.
"""

from __future__ import annotations

import numpy as np

from .core import (
    DENSE_MAX_LEAVES,
    LOG_ZERO,
    GroundSet,
    Hierarchy,
    leaf_indices,
    log_sum_exp_array,
    pivot_splits,
    pivot_splits_array,
    popcount,
)
from .models import PotentialModel, log_hierarchy_potential


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
        self._counts: dict[int, int] | None = None
        self._sample_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    # -- dynamic program ----------------------------------------------------

    def _ensure_filled(self) -> None:
        if self._log_z is not None:
            return
        n = self.ground.n
        size = 1 << n
        log_z = np.zeros(size)
        log_map = np.zeros(size)
        map_child = np.zeros(size, dtype=np.int64)
        pc = np.bitwise_count(np.arange(size, dtype=np.int64))
        model = self.model
        ops = 0
        with np.errstate(invalid="ignore"):
            for k in range(2, n + 1):
                for parent in np.nonzero(pc == k)[0]:
                    parent = int(parent)
                    subs = pivot_splits_array(parent)
                    comps = parent ^ subs
                    lp = model.log_psi_pairs(subs, comps)
                    z_terms = lp + log_z[subs] + log_z[comps]
                    m_terms = lp + log_map[subs] + log_map[comps]
                    log_z[parent] = log_sum_exp_array(z_terms)
                    best = int(np.argmax(m_terms))  # first max = smallest bits
                    log_map[parent] = m_terms[best]
                    map_child[parent] = subs[best]
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

    def log_z_of(self, bits: int) -> float:
        self._check_cluster(bits)
        self._ensure_filled()
        return float(self._log_z[bits])

    def map_hierarchy(self) -> tuple[float, Hierarchy]:
        """The maximum-potential hierarchy and its log potential.

        The returned value is the tree's own recomputed potential, so it
        matches log_hierarchy_potential(tree, model) bit for bit.  A -inf
        value flags a degenerate instance (every hierarchy has zero
        potential); the tree returned alongside is then an arbitrary valid
        one.
        """
        self._ensure_filled()
        children: dict[int, tuple[int, int]] = {}
        stack = [self.ground.full]
        while stack:
            parent = stack.pop()
            if popcount(parent) < 2:
                continue
            left = int(self._map_child[parent])
            right = parent ^ left
            children[parent] = (left, right)
            stack.append(left)
            stack.append(right)
        tree = Hierarchy(self.ground.full, children)
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

    def _merged_log_z(self, bits: int, seed: float) -> float:
        """log Z over X with cluster C = ``bits`` merged into one leaf.

        The merged leaf carries log weight ``seed``: Z(C) for a cluster
        marginal, the fragment potential for a sub-hierarchy marginal.  Only
        supersets of C need new cells: for each E outside C, up[E] sums
        psi(C|A, E-A) * up[A] * Z(E-A) over the proper subsets A of E, with
        Z read from the filled table.  With C at contracted bit 0, the pivot
        splits of (e << 1) | 1 are exactly those subsets.
        """
        expand = np.zeros(1, dtype=np.int64)  # contracted subset -> leaf bits
        for i in leaf_indices(self.ground.full ^ bits):
            expand = np.concatenate([expand, expand | (1 << i)])
        up = np.empty(expand.size)
        up[0] = seed
        for e in range(1, expand.size):
            subs = pivot_splits_array((e << 1) | 1) >> 1
            lefts = expand[subs]
            rights = int(expand[e]) ^ lefts
            lp = self.model.log_psi_pairs(bits | lefts, rights)
            up[e] = log_sum_exp_array(lp + up[subs] + self._log_z[rights])
        return float(up[-1])

    def marginal_cluster(self, bits: int) -> float:
        """log P(cluster appears in the hierarchy); 0.0 for root/singletons."""
        self._check_cluster(bits)
        log_z = self.log_partition()
        if log_z == LOG_ZERO:
            raise ValueError("degenerate posterior: partition function is zero")
        if bits == self.ground.full or popcount(bits) == 1:
            return 0.0
        return self._merged_log_z(bits, float(self._log_z[bits])) - log_z

    def marginal_subhierarchy(self, fragment: Hierarchy) -> float:
        """log P(the fragment appears intact, rooted at its own cluster)."""
        fragment.validate(n=self.ground.n)
        log_z = self.log_partition()
        if log_z == LOG_ZERO:
            raise ValueError("degenerate posterior: partition function is zero")
        seed = log_hierarchy_potential(fragment, self.model)
        if fragment.root == self.ground.full:
            return seed - log_z
        return self._merged_log_z(fragment.root, seed) - log_z

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
        children: dict[int, tuple[int, int]] = {}
        stack = [self.ground.full]
        while stack:
            parent = stack.pop()
            if popcount(parent) < 2:
                continue
            subs, cum = self._split_distribution(parent)
            u = rng.random() * cum[-1]
            pick = min(int(np.searchsorted(cum, u, side="right")), subs.size - 1)
            left = int(subs[pick])
            right = parent ^ left
            children[parent] = (left, right)
            stack.append(right)
            stack.append(left)
        return Hierarchy(self.ground.full, children)

    def sample_hierarchy(self, seed) -> Hierarchy:
        return self.sample(np.random.default_rng(seed))

    def sample_many(self, count: int, seed) -> list[Hierarchy]:
        rng = np.random.default_rng(seed)
        return [self.sample(rng) for _ in range(count)]

    # -- exact counting --------------------------------------------------------

    def count_trees(self) -> int:
        """Number of hierarchies the trellis realizes: (2n-3)!! when dense."""
        if self._counts is None:
            counts: dict[int, int] = {1 << i: 1 for i in range(self.ground.n)}
            clusters = sorted(range(1, 1 << self.ground.n), key=popcount)
            for parent in clusters:
                if popcount(parent) < 2:
                    continue
                total = 0
                for s in pivot_splits(parent):
                    total += counts[s] * counts[parent ^ s]
                counts[parent] = total
            self._counts = counts
        return self._counts[self.ground.full]

    def tree_count_of(self, bits: int) -> int:
        self._check_cluster(bits)
        self.count_trees()
        return self._counts[bits]

