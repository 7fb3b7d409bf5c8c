"""Brute-force enumeration of every hierarchy, for ground truth at small n.

The enumeration recurses over pivot-containing subsets, so each unordered
tree appears exactly once; it shares nothing with the trellis memo and is
the reference the dynamic programs are tested against.  Structure tables
(tree lists, sibling-pair ids, containment masks) depend only on the leaf
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


@lru_cache(maxsize=None)
def _pair_rows(bits: int) -> tuple:
    """All hierarchies over ``bits`` as tuples of (left, right) splits."""
    if popcount(bits) == 1:
        return ((),)
    rows = []
    for left in pivot_splits(bits):
        right = bits ^ left
        for lrow in _pair_rows(left):
            for rrow in _pair_rows(right):
                rows.append(((left, right),) + lrow + rrow)
    return tuple(rows)


class _Structure:
    """Model-independent enumeration artifacts for one leaf count."""

    def __init__(self, n: int):
        self.n = n
        rows = _pair_rows(full_mask(n))
        pair_ids: dict[tuple[int, int], int] = {}
        for row in rows:
            for pair in row:
                if pair not in pair_ids:
                    pair_ids[pair] = len(pair_ids)
        self.pair_list = list(pair_ids)
        self.pairs = (
            np.array(self.pair_list, dtype=np.int64)
            if self.pair_list
            else np.zeros((0, 2), dtype=np.int64)
        )
        self.trees = np.array(
            [[pair_ids[p] for p in row] for row in rows], dtype=np.int32
        ).reshape(len(rows), n - 1)
        self.rows = rows
        self._containment: dict[int, np.ndarray] = {}

    def hierarchy(self, idx: int) -> Hierarchy:
        return Hierarchy(full_mask(self.n), {l | r: (l, r) for l, r in self.rows[idx]})

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
    n = _leaf_count(ground)
    struct = _structure(n)
    full = full_mask(n)
    for row in struct.rows:
        yield Hierarchy(full, {l | r: (l, r) for l, r in row})


class OracleSummary:
    """Exhaustive posterior over all hierarchies of one instance."""

    def __init__(self, n: int, struct: _Structure, log_potentials: np.ndarray):
        self.n = n
        self._struct = struct
        self.tree_log_potentials = log_potentials
        self.log_z = log_sum_exp_array(log_potentials)
        self._map_idx = int(np.argmax(log_potentials))
        self._sig_index: dict | None = None

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
        if self._sig_index is None:
            self._sig_index = {
                self._struct.hierarchy(i).signature(): i
                for i in range(len(self.tree_log_potentials))
            }
        idx = self._sig_index[h.signature()]
        return float(self.tree_log_potentials[idx]) - self.log_z

    def posterior_table(self) -> dict:
        """signature -> log posterior, over every hierarchy."""
        return {
            self._struct.hierarchy(i).signature(): float(v) - self.log_z
            for i, v in enumerate(self.tree_log_potentials)
        }

    def hierarchies(self) -> Iterator[Hierarchy]:
        for i in range(len(self.tree_log_potentials)):
            yield self._struct.hierarchy(i)


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
