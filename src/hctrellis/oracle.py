"""Brute-force enumeration of every hierarchy, for ground truth at small n.

The enumeration builds every subset's trees from its pivot-containing
splits, smaller subsets first, so each unordered tree appears exactly once; it shares nothing with the trellis memo and is
the reference the dynamic programs are tested against.  Structure tables
(the tree array, sibling-pair ids, containment masks) depend only on the leaf
count and are cached per session.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

import numpy as np

from .core import (
    LOG_ZERO,
    GroundSet,
    Hierarchy,
    full_mask,
    log_sum_exp_array,
    num_hierarchies,
    pivot_splits,
    popcount,
)
from .models import PotentialModel

# 135135 trees at n=8 is the practical ceiling for exhaustive ground truth.
ORACLE_MAX_LEAVES = 8


# Trees per chunk when rows are turned back into Hierarchy objects.
_ROWS_PER_CHUNK = 4096


class _Structure:
    """Model-independent enumeration artifacts for one leaf count.

    ``trees`` is one int32 (trees, n - 1) array of ids into ``pairs``: row i
    lists tree i's splits in preorder, left subtree first.  A cluster's rows
    are its splits in ``pivot_splits`` order, each split's block the product
    of its children's rows (left rows outer, right rows inner), so every
    unordered tree appears exactly once.
    """

    def __init__(self, n: int):
        self.n = n
        self.pair_list: list[tuple[int, int]] = []
        rows = {}
        for bits in range(1, 1 << n):  # subsets precede their supersets
            k = popcount(bits)
            out = np.empty((num_hierarchies(k), k - 1), dtype=np.int32)
            start = 0
            for left in pivot_splits(bits) if k > 1 else ():
                lrows, rrows = rows[left], rows[bits ^ left]
                a, b, kl = len(lrows), len(rrows), lrows.shape[1]
                block = out[start:start + a * b].reshape(a, b, k - 1)
                block[:, :, 0] = len(self.pair_list)
                block[:, :, 1:kl + 1] = lrows[:, None, :]
                block[:, :, kl + 1:] = rrows[None, :, :]
                self.pair_list.append((left, bits ^ left))
                start += a * b
            rows[bits] = out
        self.trees = rows[full_mask(n)]
        self.pairs = np.array(self.pair_list, dtype=np.int64).reshape(-1, 2)
        self.pair_ids = {pair: i for i, pair in enumerate(self.pair_list)}
        self._containment: dict[int, np.ndarray] = {}

    def hierarchies(self, start: int = 0, stop: int | None = None) -> Iterator[Hierarchy]:
        """Trees ``start:stop`` in row order."""
        full = full_mask(self.n)
        stop = len(self.trees) if stop is None else stop
        for a in range(start, stop, _ROWS_PER_CHUNK):
            for row in self.pairs[self.trees[a:min(a + _ROWS_PER_CHUNK, stop)]].tolist():
                yield Hierarchy.from_canonical(full, {l | r: (l, r) for l, r in row})

    def hierarchy(self, idx: int) -> Hierarchy:
        return next(self.hierarchies(idx, idx + 1))

    def index(self, h: Hierarchy) -> int:
        """Row of the tree ``h``; KeyError if it is not a tree over all n leaves."""
        flag = np.zeros(len(self.pairs), dtype=bool)
        flag[[self.pair_ids[pair] for pair in h.children.values()]] = True
        # Rows hold n - 1 distinct splits, so a row of flagged splits is h.
        found = np.flatnonzero(flag[self.trees].all(axis=1))
        if len(found) != 1 or h.root != full_mask(self.n):
            raise KeyError("not a hierarchy over the ground set")
        return int(found[0])

    def containment(self, bits: int) -> np.ndarray:
        """Boolean mask over trees: does the tree contain this cluster."""
        cached = self._containment.get(bits)
        if cached is None:
            flag = (self.pairs[:, 0] == bits) | (self.pairs[:, 1] == bits)
            cached = flag[self.trees].any(axis=1)
            self._containment[bits] = cached
        return cached


@lru_cache(maxsize=None)
def _structure(n: int) -> _Structure:
    return _Structure(n)


def _leaf_count(ground) -> int:
    n = ground.n if isinstance(ground, GroundSet) else int(ground)
    if n > ORACLE_MAX_LEAVES:
        raise ValueError(
            f"exhaustive enumeration is refused above {ORACLE_MAX_LEAVES} leaves "
            f"({num_hierarchies(ORACLE_MAX_LEAVES)} trees already at the cap)"
        )
    if n < 1:
        raise ValueError("need at least one leaf")
    return n


def enumerate_hierarchies(ground) -> Iterator[Hierarchy]:
    """Yield every hierarchy over the ground set exactly once."""
    yield from _structure(_leaf_count(ground)).hierarchies()


class OracleSummary:
    """Exhaustive posterior over all hierarchies of one instance."""

    def __init__(self, n: int, struct: _Structure, log_potentials: np.ndarray):
        self.n = n
        self._struct = struct
        self.tree_log_potentials = log_potentials
        self.log_z = log_sum_exp_array(log_potentials)
        self._map_idx = int(np.argmax(log_potentials))

    @property
    def map_log_potential(self) -> float:
        return float(self.tree_log_potentials[self._map_idx])

    def map_hierarchy(self) -> Hierarchy:
        return self._struct.hierarchy(self._map_idx)

    def num_trees(self) -> int:
        return len(self.tree_log_potentials)

    def marginal(self, bits: int) -> float:
        """log P(cluster in hierarchy) by filtered summation."""
        if bits == 0 or bits & ~full_mask(self.n):
            raise ValueError("cluster does not fit the ground set")
        if bits == full_mask(self.n) or popcount(bits) == 1:
            return 0.0
        mask = self._struct.containment(bits)
        if not mask.any():
            return LOG_ZERO
        return log_sum_exp_array(self.tree_log_potentials[mask]) - self.log_z

    def log_posterior(self, h: Hierarchy) -> float:
        idx = self._struct.index(h)
        return float(self.tree_log_potentials[idx]) - self.log_z

    def posterior_table(self) -> dict:
        """signature -> log posterior, over every hierarchy."""
        return {
            h.signature(): v - self.log_z
            for h, v in zip(self.hierarchies(), self.tree_log_potentials.tolist())
        }

    def hierarchies(self) -> Iterator[Hierarchy]:
        return self._struct.hierarchies()


def oracle_summary(ground, model: PotentialModel) -> OracleSummary:
    """Score every hierarchy directly and aggregate the exact posterior."""
    n = _leaf_count(ground)
    if model.n != n:
        raise ValueError("model and ground set disagree on the leaf count")
    struct = _structure(n)
    psi = np.array([model.log_psi(l, r) for l, r in struct.pair_list])
    if struct.trees.shape[1] == 0:
        potentials = np.zeros(struct.trees.shape[0])
    else:
        potentials = psi[struct.trees].sum(axis=1)
    return OracleSummary(n, struct, potentials)
