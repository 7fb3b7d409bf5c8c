"""Dense subset trellis: exact partition function, MAP, marginals, sampling.

The trellis memoizes one cell per nonempty cluster, filled bottom-up one
popcount level at a time.  Every cell only reads strictly smaller clusters,
so a whole level is filled in chunks of parents: one block of splits, one
psi call and one row-wise reduction per chunk.  The same single pass
produces both the summed (partition function) and maxed (MAP) recursions
plus MAP backpointers; the split-term counter therefore advances exactly
once per evaluated split.  Tree counts run over the same chunks through
``core.tree_counts``, the count kernel the sparse engine shares.

Cluster marginals come from one outside pass over the same chunks, levels
top-down: each split hands its share of the parent's probability to both
children, summed in the log domain (high-beta marginals underflow a linear
sum).  The first marginal query runs it; later queries are lookups.

The MAP tree comes from ``core.grow_hierarchy``, shared with the sparse
engine, reading the backpointers.  Posterior draws are batched instead:
all draws walk down together, one tree level per pass, each picking its
splits from per-vertex cumulative weights built once per trellis, in the
same chunks as the fill.  A draw spends one uniform per non-singleton
node in preorder, two-leaf nodes included, so it equals the draw a
one-node-at-a-time walk would make from the same generator.
"""

from __future__ import annotations

import threading

import numpy as np

from .core import (
    DENSE_MAX_LEAVES,
    LOG_ZERO,
    GroundSet,
    Hierarchy,
    grow_hierarchy,
    pivot_split_at,
    pivot_splits_array,
    tree_counts,
)
from .models import PotentialModel, log_hierarchy_potential

# Split terms per fill chunk: each popcount level is filled a block of
# parents at a time, bounding the temporaries to a few arrays of this length.
FILL_CHUNK_TERMS = 1 << 14
# Draws walked down together; larger counts run as consecutive batches that
# keep drawing from the same generator.
SAMPLE_CHUNK_DRAWS = 1 << 14


def _split_chunks(levels):
    """Yield (parents, lefts, rights, width) for every split of every parent
    in ``levels``, an iterable of arrays of parents that share a popcount,
    in chunks of ~FILL_CHUNK_TERMS split terms; each parent owns ``width``
    consecutive splits, lefts ascending."""
    for level in levels:
        width = (1 << (int(np.bitwise_count(level[0])) - 1)) - 1  # splits per parent
        step = max(1, FILL_CHUNK_TERMS // width)
        for lo in range(0, level.size, step):
            parents = level[lo : lo + step]
            lefts = pivot_splits_array(parents)
            yield parents, lefts, np.repeat(parents, width) ^ lefts, width


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
        # Split distributions for sampling, built on demand: vertex v's
        # cumulative weights start at _split_cum[_split_at[v]] (-1: not built).
        self._split_at: np.ndarray | None = None
        self._split_cum = np.empty(0)
        self._split_used = 0
        self._split_lock = threading.Lock()

    # -- dynamic program ----------------------------------------------------

    def _level_chunks(self, sizes=None):
        """Yield (parents, lefts, rights, width) for every split, one popcount
        level at a time, bottom-up unless ``sizes`` gives their order."""
        n = self.ground.n
        pc = np.bitwise_count(np.arange(1 << n, dtype=np.int64))
        sizes = range(2, n + 1) if sizes is None else sizes
        return _split_chunks(np.nonzero(pc == k)[0] for k in sizes)

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

    def _ensure_split_distributions(self, vertices: np.ndarray) -> None:
        """Store the split distribution of every vertex not stored yet: the
        cumulative weights psi * Z(left) * Z(right) over its splits in
        pivot_splits_array order, scaled by the row maximum, at consecutive
        places of one flat array."""
        with self._split_lock:  # appends must not interleave across threads
            if self._split_at is None:
                self._split_at = np.full(self.ground.full + 1, -1, dtype=np.int64)
            new = np.unique(vertices[self._split_at[vertices] < 0])
            if not new.size:
                return
            pc = np.bitwise_count(new).astype(np.int64)
            used = self._split_used
            need = used + int(((1 << (pc - 1)) - 1).sum())
            if need > self._split_cum.size:  # grow by doubling, so appends stay amortized O(1)
                grown = np.empty(max(need, 2 * self._split_cum.size))
                grown[:used] = self._split_cum[:used]
                self._split_cum = grown
            log_z = self._log_z
            for parents, lefts, rights, width in _split_chunks(new[pc == k] for k in np.unique(pc)):
                terms = self.model.log_psi_pairs(lefts, rights) + log_z[lefts] + log_z[rights]
                terms = terms.reshape(-1, width)
                self._split_cum[used : used + lefts.size] = np.cumsum(
                    np.exp(terms - terms.max(axis=1, keepdims=True)), axis=1
                ).ravel()
                self._split_at[parents] = used + width * np.arange(parents.size)
                used += lefts.size
            self._split_used = used

    def _pick_lefts(self, vertices: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Left child drawn at each vertex from its uniform: split i where i
        is min(searchsorted(cum, u * cum[-1], side="right"), width - 1),
        found for all vertices at once by binary lifting over the store."""
        at = self._split_at[vertices]
        width = (1 << (np.bitwise_count(vertices).astype(np.int64) - 1)) - 1
        cum = self._split_cum
        target = u * cum[at + width - 1]
        count = np.zeros_like(width)  # entries <= target, as searchsorted counts them
        step = 1 << (int(width.max()).bit_length() - 1)
        while step:
            probe = count + step
            count += step * ((probe <= width) & (cum[at + np.minimum(probe, width) - 1] <= target))
            step >>= 1
        return pivot_split_at(vertices, np.minimum(count, width - 1))

    def _draw_batch(self, count: int, rng: np.random.Generator) -> list[Hierarchy]:
        """``count`` posterior draws walked down together, one tree level
        per pass.  Draw d gives uniform u[d, p] to its p-th non-singleton
        node in preorder, left subtree first: a node at p has its left
        child at p + 1 and its right child at p + |left|, so every uniform
        lands where successive one-at-a-time draws would spend it."""
        n, full = self.ground.n, self.ground.full
        u = rng.random((count, n - 1))
        nodes = np.zeros((count, n - 1), dtype=np.int64)
        lefts = np.zeros((count, n - 1), dtype=np.int64)
        draw = np.arange(count if n > 1 else 0)
        pos = np.zeros(draw.size, dtype=np.int64)
        v = np.full(draw.size, full, dtype=np.int64)
        while draw.size:
            self._ensure_split_distributions(v)
            left = self._pick_lefts(v, u[draw, pos])
            nodes[draw, pos] = v
            lefts[draw, pos] = left
            size_l = np.bitwise_count(left).astype(np.int64)
            go_l = size_l > 1
            go_r = np.bitwise_count(v) - size_l > 1
            draw = np.concatenate((draw[go_l], draw[go_r]))
            pos = np.concatenate((pos[go_l] + 1, (pos + size_l)[go_r]))
            v = np.concatenate((left[go_l], (v ^ left)[go_r]))
        rights = nodes ^ lefts
        return [
            Hierarchy.from_canonical(full, dict(zip(vs, zip(ls, rs))))
            for vs, ls, rs in zip(nodes.tolist(), lefts.tolist(), rights.tolist())
        ]

    def sample(self, rng: np.random.Generator) -> Hierarchy:
        """One posterior draw."""
        return self.sample_many(1, rng)[0]

    def sample_hierarchy(self, seed) -> Hierarchy:
        return self.sample(np.random.default_rng(seed))

    def sample_many(self, count: int, seed) -> list[Hierarchy]:
        """``count`` posterior draws; splits are chosen top-down per the exact
        conditional p(left | parent) = psi * Z(left) * Z(right) / Z(parent).
        ``seed`` may be a Generator: each draw advances it by n - 1
        uniforms, so splitting a count into several calls gives the same
        draws."""
        if count and self.log_partition() == LOG_ZERO:
            raise ValueError("degenerate posterior: partition function is zero")
        rng = np.random.default_rng(seed)
        draws = []
        for lo in range(0, count, SAMPLE_CHUNK_DRAWS):
            draws += self._draw_batch(min(SAMPLE_CHUNK_DRAWS, count - lo), rng)
        return draws

    # -- exact counting --------------------------------------------------------

    def count_trees(self) -> int:
        """Number of hierarchies the trellis realizes: (2n-3)!! when dense."""
        if self._counts is None:
            n = self.ground.n
            levels = ((p, l, r, np.arange(0, l.size, w)) for p, l, r, w in self._level_chunks())
            self._counts = tree_counts(n, 1 << n, 1 << np.arange(n), levels)
        return int(self._counts[self.ground.full])

    def tree_count_of(self, bits: int) -> int:
        self._check_cluster(bits)
        self.count_trees()
        return int(self._counts[bits])
