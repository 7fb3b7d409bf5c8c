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


def full_mask(n: int) -> int:
    return (1 << n) - 1


def lowest_leaf(bits: int) -> int:
    if bits == 0:
        raise ValueError("empty cluster has no leaves")
    return (bits & -bits).bit_length() - 1


def leaf_indices(bits: int) -> list[int]:
    if bits < 0:  # bits & -bits would find a higher bit forever
        raise ValueError("cluster bits must be nonnegative")
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
        if bits >> i & 1:
            raise ValueError(f"leaf index {i} is repeated")
        bits |= 1 << i
    return bits


def integer_field(value, what: str) -> int:
    """An integer field of a file: a JSON integer (not a boolean) or an
    integer string (decimal digits, maybe a leading minus), the form bit sets
    are written in.  Anything else, 12.9 or "3.7" included, is refused
    rather than truncated."""
    if isinstance(value, str) and value.removeprefix("-").isdecimal():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"{what} must be an integer, not {value!r}")


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


def low_bits(bits: np.ndarray, count: int) -> Iterator[np.ndarray]:
    """The lowest ``count`` leaves of each cluster of an int64 batch, one
    array of single bits per leaf, lowest first."""
    for _ in range(count):
        low = bits & -bits
        bits = bits ^ low
        yield low


def subset_block(first: np.ndarray, steps, width: int) -> np.ndarray:
    """The ascending-doubling kernel: a (width, *first.shape) block of
    first's dtype whose row r is ``first`` plus step b for every set bit b
    of r, added in ascending b.  Row 0 is ``first``; step b fills rows 2**b
    onward, up to the width, with one ``np.add`` of the rows before them,
    so it broadcasts against one row or against those 2**b rows.

    Split and superset blocks add the disjoint single bits ``low_bits``
    yields, where a sum is the union.  The models' per-cluster tables add
    per-leaf terms in ascending leaf order, the order in which a cluster's
    scalar value adds them, so the two agree bit for bit."""
    block = np.empty((width, *first.shape), first.dtype)
    block[0] = first
    size = 1
    for step in steps:
        end = size << 1
        if end >= width:  # the last doubling, cut at the width
            np.add(block[: width - size], step, out=block[size:])
            break
        np.add(block[:size], step, out=block[size:end])
        size = end
    return block


def pivot_splits_array(parent: np.ndarray) -> np.ndarray:
    """Same enumeration as pivot_splits, for a batch of parents.

    Given an int64 array of parents that all hold the same number k >= 2 of
    leaves, returns every parent's 2**(k-1) - 1 left children in one flat
    int64 array, parent by parent, ascending within each parent, so its
    reshape to (parents, 2**(k-1) - 1) is a view.  The block is built split
    by split by ``subset_block`` and transposed once at the end; the last
    doubling stops one short of the entry that would rebuild the parent.
    """
    k = int(np.bitwise_count(parent[0]))
    if np.any(np.bitwise_count(parent) != k):
        raise ValueError("a batch of parents must share one popcount")
    if k < 2:
        raise ValueError("cannot split a singleton cluster")
    pivot = parent & -parent
    width = (1 << (k - 1)) - 1
    return subset_block(pivot, low_bits(parent ^ pivot, k - 1), width).T.ravel()


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
        if self.root < 0:  # an infinite bit set, whose negative clusters can pass as leaves
            raise ValueError("negative root cluster")
        if n is not None and self.root & ~full_mask(n):
            raise ValueError("root extends past the ground set")
        if require_root is not None and self.root != require_root:
            raise ValueError("root is not the required cluster")
        # children partitioning their nonempty parent imply distinct nodes, 2k - 1 of them
        internal = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            if popcount(node) == 1:
                if node in self.children:
                    raise ValueError("singleton listed as an internal node")
                continue
            if node not in self.children:
                raise ValueError(f"non-singleton cluster {node:#x} has no split")
            internal += 1
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
        if len(self.children) != internal:
            raise ValueError("unreachable entries in the child map")


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
