"""Bit-set clusters, binary hierarchies, and log-domain arithmetic.

Leaves are indexed 0..n-1 and a cluster is a plain Python int whose set
bits mark the member leaves.  Everything probability-like is carried as a
natural log, with -inf standing in for an exact zero; NaN never appears.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np

LOG_ZERO = float("-inf")

# Above this the per-model subset tables (2**n entries) stop being cheap;
# larger ground sets memoize each queried cluster's aggregate instead.
TABLE_MAX_LEAVES = 22
# Past the tables every dense split is a Python-level psi call, and 3**23 of
# those never finish, so the dense trellis stops where the tables stop.
DENSE_MAX_LEAVES = TABLE_MAX_LEAVES
# Clusters live in a single machine word.
BITSET_MAX_LEAVES = 64


# ---------------------------------------------------------------------------
# log-domain helpers


def log_sum_exp(values: Iterable[float]) -> float:
    """log(sum(exp(v))) over a sequence of log weights.

    Empty input and all -inf both give -inf.  Uses a max shift plus an
    exactly-rounded fsum, so the result is invariant under permutation of
    the inputs.
    """
    vals = list(values)
    if not vals:
        return LOG_ZERO
    m = max(vals)
    if m == LOG_ZERO:
        return LOG_ZERO
    return m + math.log(math.fsum(math.exp(v - m) for v in vals))


def log_sum_exp_array(arr: np.ndarray) -> float:
    """Vector variant of log_sum_exp for float64 arrays."""
    if arr.size == 0:
        return LOG_ZERO
    m = float(arr.max())
    if m == LOG_ZERO:
        return LOG_ZERO
    return m + math.log(float(np.exp(arr - m).sum()))


# ---------------------------------------------------------------------------
# cluster bit sets


def popcount(bits: int) -> int:
    return bits.bit_count()


def popcounts(arr: np.ndarray) -> np.ndarray:
    """Per-element popcount of an int64 cluster array."""
    return np.bitwise_count(arr).astype(np.int64)


def full_mask(n: int) -> int:
    return (1 << n) - 1


def lowest_leaf(bits: int) -> int:
    if bits == 0:
        raise ValueError("empty cluster has no leaves")
    return (bits & -bits).bit_length() - 1


def leaf_indices(bits: int) -> list[int]:
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


def mask_of(indices: Iterable[int]) -> int:
    bits = 0
    for i in indices:
        if i < 0:
            raise ValueError("leaf index must be nonnegative")
        bits |= 1 << i
    return bits


def complement(parent: int, child: int) -> int:
    """The sibling of ``child`` inside ``parent``.

    ``child`` must be a nonempty strict subset of ``parent``.
    """
    if child == 0:
        raise ValueError("child cluster is empty")
    if child & ~parent:
        raise ValueError("child is not a subset of parent")
    if child == parent:
        raise ValueError("child equals parent; no sibling exists")
    return parent ^ child


def pivot_splits(parent: int) -> Iterator[int]:
    """Left children of every proper split of ``parent``, ascending.

    Each yielded cluster contains the lowest-indexed leaf of the parent, so
    every unordered bipartition appears exactly once; a parent of k leaves
    yields 2**(k-1) - 1 clusters.
    """
    if popcount(parent) < 2:
        raise ValueError("cannot split a singleton cluster")
    pivot = parent & -parent
    rest = parent ^ pivot
    t = 0
    while True:
        s = pivot | t
        if s != parent:
            yield s
        if t == rest:
            return
        t = (t - rest) & rest


def pivot_splits_array(parent: np.ndarray) -> np.ndarray:
    """Same enumeration as pivot_splits, for a batch of parents.

    Given an int64 array of parents that all hold the same number k >= 2 of
    leaves, returns every parent's 2**(k-1) - 1 left children in one flat
    int64 array, parent by parent, ascending within each parent.  The block
    is built by doubling across the batch, one leaf at a time from the
    lowest.
    """
    k = int(np.bitwise_count(parent[0]))
    if np.any(np.bitwise_count(parent) != k):
        raise ValueError("a batch of parents must share one popcount")
    if k < 2:
        raise ValueError("cannot split a singleton cluster")
    pivot = parent & -parent
    rest = parent ^ pivot
    block = np.empty((parent.size, 1 << (k - 1)), dtype=np.int64)
    block[:, 0] = pivot
    size = 1
    for _ in range(k - 1):
        low = rest & -rest
        rest = rest ^ low
        np.bitwise_or(block[:, :size], low[:, None], out=block[:, size : size << 1])
        size <<= 1
    return block[:, :-1].ravel()  # each row's last entry would rebuild its parent


def pivot_split_at(parents: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Entry ``index`` of each parent's row of pivot_splits_array: the
    pivot plus the leaves of the rest that the bits of ``index`` select,
    lowest leaf first."""
    left = parents & -parents
    rest = parents ^ left
    while index.any():
        low = rest & -rest
        left = left | low * (index & 1)
        rest = rest ^ low
        index = index >> 1
    return left


def split_term_count(n: int) -> int:
    """Number of split terms a full bottom-up pass over n leaves evaluates.

    Sum over cluster sizes k of C(n,k) * (2**(k-1) - 1), which collapses to
    (3**n + 1) / 2 - 2**n.
    """
    return (3**n + 1) // 2 - 2**n


def num_hierarchies(n: int) -> int:
    """(2n-3)!!, the number of binary hierarchies over n labelled leaves."""
    if n < 1:
        raise ValueError("need at least one leaf")
    out = 1
    for k in range(3, 2 * n - 2, 2):
        out *= k
    return out


def tree_counts(n: int, size: int, leaves, levels) -> np.ndarray:
    """Hierarchies below each of ``size`` vertices over n leaves: 1 at
    ``leaves``, then per level of (parents, lefts, rights, starts), bottom-up,
    parent i sums count(lefts[j]) * count(rights[j]) from j = starts[i] to
    the next start.  No count exceeds (2n-3)!!, so they are int64 while that
    fits and exact Python ints above."""
    fits = num_hierarchies(n) <= np.iinfo(np.int64).max
    counts = np.zeros(size, dtype=np.int64 if fits else object)
    counts[leaves] = 1
    for parents, lefts, rights, starts in levels:
        counts[parents] = np.add.reduceat(counts[lefts] * counts[rights], starts)
    return counts


# ---------------------------------------------------------------------------
# ground sets and hierarchies


@dataclass(frozen=True)
class GroundSet:
    """The indexed leaf universe every cluster refers to."""

    n: int
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        if not 1 <= self.n <= BITSET_MAX_LEAVES:
            raise ValueError(f"leaf count must be in [1, {BITSET_MAX_LEAVES}]")
        if not self.labels:
            object.__setattr__(self, "labels", tuple(f"x{i}" for i in range(self.n)))
        if len(self.labels) != self.n:
            raise ValueError("label count does not match leaf count")
        if len(set(self.labels)) != self.n:
            raise ValueError("leaf labels must be unique")

    @property
    def full(self) -> int:
        return full_mask(self.n)


def _canonical_pair(parent: int, a: int, b: int) -> tuple[int, int]:
    # Left is the child holding the parent's lowest-indexed leaf.
    return (a, b) if a & (parent & -parent) else (b, a)


class Hierarchy:
    """A rooted binary tree whose nodes are clusters.

    ``children`` maps every non-singleton node to its (left, right) split;
    the left child is the one containing the node's lowest-indexed leaf, so
    two hierarchies are equal iff their ``root`` and ``children`` are.
    """

    __slots__ = ("root", "children")

    def __init__(self, root: int, children: Mapping[int, tuple[int, int]]):
        self.root = root
        self.children = {
            parent: _canonical_pair(parent, left, right)
            for parent, (left, right) in children.items()
        }

    @classmethod
    def from_canonical(cls, root: int, children: dict[int, tuple[int, int]]) -> "Hierarchy":
        """Wrap a child map whose pairs are canonical already, unchecked."""
        tree = cls.__new__(cls)
        tree.root = root
        tree.children = children
        return tree

    def num_leaves(self) -> int:
        return popcount(self.root)

    def nodes(self) -> set[int]:
        out = set(self.children)
        for i in leaf_indices(self.root):
            out.add(1 << i)
        return out

    def sibling_pairs(self) -> Iterator[tuple[int, int]]:
        return iter(self.children.values())

    def preorder(self) -> list[int]:
        """Every node, each parent before its children, left subtree first."""
        order = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            order.append(node)
            if popcount(node) > 1:
                left, right = self.children[node]
                stack.append(right)
                stack.append(left)
        return order

    def signature(self) -> tuple:
        return (self.root, tuple(sorted(self.children.items())))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Hierarchy):
            return NotImplemented
        return self.root == other.root and self.children == other.children

    def __hash__(self) -> int:
        return hash(self.signature())

    def __repr__(self) -> str:
        return f"Hierarchy(root={self.root:#x}, internal={len(self.children)})"

    def validate(self, n: int | None = None, require_root: int | None = None) -> None:
        """Raise ValueError unless this is a well-formed nested binary tree."""
        if self.root == 0:
            raise ValueError("empty root cluster")
        if n is not None and self.root & ~full_mask(n):
            raise ValueError("root extends past the ground set")
        if require_root is not None and self.root != require_root:
            raise ValueError("root is not the required cluster")
        seen = set()
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node in seen:
                raise ValueError("cluster appears twice in the tree")
            seen.add(node)
            if popcount(node) == 1:
                if node in self.children:
                    raise ValueError("singleton listed as an internal node")
                continue
            if node not in self.children:
                raise ValueError(f"non-singleton cluster {node:#x} has no split")
            left, right = self.children[node]
            if left == 0 or right == 0:
                raise ValueError("empty child cluster")
            if left & right:
                raise ValueError("children overlap")
            if (left | right) != node:
                raise ValueError("children do not partition their parent")
            if not left & (node & -node):
                raise ValueError("left child must hold the lowest leaf")
            stack.append(left)
            stack.append(right)
        if len(self.children) != len(seen) - popcount(self.root):
            raise ValueError("unreachable entries in the child map")
        if len(seen) != 2 * popcount(self.root) - 1:
            raise ValueError("node count is not 2k-1")


def grow_hierarchy(root: int, split) -> Hierarchy:
    """Build a hierarchy top-down from ``root``.

    ``split(v)`` names the left child of v, the one holding v's lowest leaf;
    the right child is the rest of v.  It is called exactly once for every
    non-singleton node, in preorder with the left subtree first, so a
    split rule that draws random numbers consumes them in a fixed order.
    """
    children: dict[int, tuple[int, int]] = {}
    stack = [root]
    while stack:
        v = stack.pop()
        if v.bit_count() > 1:
            left = split(v)
            children[v] = (left, v ^ left)
            stack.append(v ^ left)
            stack.append(left)
    return Hierarchy.from_canonical(root, children)


def draw_index(cum: np.ndarray, rng: np.random.Generator) -> int:
    """Index i with probability (cum[i] - cum[i-1]) / cum[-1], from one uniform."""
    u = rng.random() * cum[-1]
    return min(int(np.searchsorted(cum, u, side="right")), cum.size - 1)


def relabel_hierarchy(h: Hierarchy, perm: list[int]) -> Hierarchy:
    """Rebuild ``h`` with leaf i renamed to perm[i]."""

    def remap(bits: int) -> int:
        out = 0
        for i in leaf_indices(bits):
            out |= 1 << perm[i]
        return out

    children = {
        remap(p): (remap(l), remap(r)) for p, (l, r) in h.children.items()
    }
    return Hierarchy(remap(h.root), children)
