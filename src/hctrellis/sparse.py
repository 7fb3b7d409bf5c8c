"""Sparse trellis: the same recursions restricted to seeded vertices/edges.

A sparse trellis stores, per vertex, the explicit list of child pairs seen
in its seed trees; inference runs the usual bottom-up recursions over the
stored pairs only, so the partition function and MAP are lower bounds on
their dense counterparts and the sampler draws from the posterior
restricted to realizable hierarchies.  Edges matter, not just vertices:
two trellises on the same vertex set can realize very different tree
counts.

The trellis keeps its vertices in size order and numbers them in that
order.  At construction it stores its pairs once as a CSR split table over
those ids: per-vertex pair counts and first pairs, flat left and right
child ids, and the id range of each cluster size.  Counting and
evaluation slice it one size at a time; the count runs
``core.tree_counts``, the dense engine's kernel.  An evaluation primes the
model's per-cluster aggregates for every vertex in one batch, calls scalar
``log_psi`` once per stored pair, and then reduces one size at a time
with numpy gathers.  Log Z goes through ``core.log_sum_exp`` at every
vertex with two or more pairs and is ``x + 0.0`` at a vertex whose single
term is x, which is what ``log_sum_exp([x])`` returns; MAP keeps the first
maximum of each segment.  So every value is bit-identical to a per-vertex
recursion over the same pairs.

The table also plans, once and model-free, the chains of single-pair
vertices: picking a pair fixes every node reached through them, so the
plan keeps, per stored pair, those nodes' tree entries and the multi-pair
vertices the chains end at.  MAP trees and draws share one top-down walk
over that plan that picks a pair only at multi-pair vertices, in preorder:
the MAP rule reads the stored best pair, and a draw spends one uniform to
bisect the running weights the fill writes beside each ``log_sum_exp``.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import accumulate
from pathlib import Path

import numpy as np

from .core import (
    LOG_ZERO,
    GroundSet,
    Hierarchy,
    log_sum_exp,
    lowest_leaf,
    num_hierarchies,
    popcount,
    relabel_hierarchy,
    tree_counts,
)
from .baselines import beam_search_forest
from .jetgen import JetConfig, generate_jet
from .models import PotentialModel, log_hierarchy_potential

ORDERING_MODES = ("standard", "random", "norm_ascending")


@dataclass(frozen=True)
class LeafOrdering:
    """How input-tree leaves map onto trellis leaf indices.

    standard:        leaves keep the order in which tree traversal visits
                     them (root-down, left child first).
    random:          a fresh seeded permutation per input tree; the seed
                     is required, or each evaluation would bind payloads
                     in a new order.
    norm_ascending:  leaves sorted by the norm of their momentum vector.
    """

    mode: str = "standard"
    seed: int | None = None

    def __post_init__(self):
        if self.mode not in ORDERING_MODES:
            raise ValueError(f"unknown ordering mode {self.mode!r}")
        if self.mode == "random" and self.seed is None:
            raise ValueError("a random ordering needs a seed")

    def permutation_for_tree(self, tree: Hierarchy, payloads, rng) -> list[int]:
        n = tree.num_leaves()
        if self.mode == "standard":
            order = [lowest_leaf(v) for v in tree.preorder() if popcount(v) == 1]
        elif self.mode == "random":
            order = [int(i) for i in rng.permutation(n)]
        else:
            order = _norm_order(payloads)
        perm = [0] * n
        for new, old in enumerate(order):
            perm[old] = new
        return perm

    def order_payloads(self, payloads) -> list:
        """Positional payload binding for a fresh dataset at query time."""
        n = len(payloads)
        if self.mode == "standard":
            return list(payloads)
        if self.mode == "random":
            rng = np.random.default_rng(self.seed)
            return [payloads[int(i)] for i in rng.permutation(n)]
        return [payloads[i] for i in _norm_order(payloads)]


def _norm_order(payloads) -> list[int]:
    if payloads is None:
        raise ValueError("norm_ascending ordering needs leaf payloads")
    norms = [p.p3_norm for p in payloads]
    return sorted(range(len(norms)), key=lambda i: (norms[i], i))


class _SplitTable:
    """Every stored pair of a pruned trellis, in CSR form over vertex ids.

    Ids follow the order of ``vertices``, which is by size, so the vertices
    of one cluster size are one id range and the root is the last id.  The
    pairs of vertex i are the flat edges ``first[i]`` to ``first[i + 1]``,
    with child ids ``left`` and ``right``.

    The forced-chain plan serves top-down walks.  A vertex with one pair
    leaves no choice, so picking edge e also picks every node below it that
    is reached through single-pair vertices only: ``entries[e]`` holds
    those nodes' tree entries, (parent, pair) with e's own first, and
    ``frontier[e]`` the multi-pair vertex ids the chains end at, in
    preorder, reversed for a stack.  ``root_entries`` and ``root_frontier``
    are the same for the root itself.
    """

    def __init__(self, vertices: dict[int, list[tuple[int, int]]]):
        self.ids = {v: i for i, v in enumerate(vertices)}
        self.bits = np.array(list(vertices), dtype=np.uint64)
        self.pairs = [pair for pairs in vertices.values() for pair in pairs]
        self.num_pairs = np.array([len(pairs) for pairs in vertices.values()], dtype=np.intp)
        self.first = [0, *np.cumsum(self.num_pairs).tolist()]
        self.left = np.array([self.ids[l] for l, _ in self.pairs], dtype=np.intp)
        self.right = np.array([self.ids[r] for _, r in self.pairs], dtype=np.intp)
        sizes = [popcount(v) for v in vertices]
        bounds = [i for i in range(1, len(sizes)) if sizes[i] != sizes[i - 1]]
        self.ranges = [(v0, v1) for v0, v1 in zip([0, *bounds], [*bounds, len(sizes)])
                       if sizes[v0] > 1]
        self._plan_chains()

    def _plan_chains(self) -> None:
        # children come before parents in id order, so each vertex finds what
        # its children pass on: a single-pair child its edge's plan, a
        # multi-pair child itself as a frontier vertex, a singleton nothing
        bits, pairs, first = self.bits.tolist(), self.pairs, self.first
        lefts, rights = self.left.tolist(), self.right.tolist()
        self.entries, self.frontier = [()] * len(pairs), [()] * len(pairs)
        passed = []  # by id: (entries, reversed frontier) handed to a parent
        for i, width in enumerate(self.num_pairs.tolist()):
            for e in range(first[i], first[i] + width):
                l_entries, l_frontier = passed[lefts[e]]
                r_entries, r_frontier = passed[rights[e]]
                self.entries[e] = ((bits[i], pairs[e]), *l_entries, *r_entries)
                self.frontier[e] = r_frontier + l_frontier
            if width == 1:
                passed.append((self.entries[first[i]], self.frontier[first[i]]))
            elif width:
                passed.append(((), (i,)))
            else:  # a singleton
                passed.append(((), ()))
        self.root_entries, self.root_frontier = passed[-1]

    def levels(self):
        """Yield (parents, edges, starts) per cluster size >= 2, bottom-up: the
        size's id range, the flat positions of its pairs, and where each
        parent's pairs start, counted from the level's first pair."""
        for v0, v1 in self.ranges:
            num_pairs = self.num_pairs[v0:v1]
            starts = np.cumsum(num_pairs) - num_pairs
            yield slice(v0, v1), slice(self.first[v0], self.first[v1]), starts


class SparseTrellis:
    """Vertices plus explicit child pairs, pruned of dead ends.

    ``vertices`` is ordered by size, then by bits, once, at construction.
    Counting, evaluation and sampling read the split table built from it.
    """

    def __init__(
        self,
        ground: GroundSet,
        vertices: dict[int, list[tuple[int, int]]],
        ordering: LeafOrdering | None = None,
    ):
        self.ground = ground
        self.ordering = ordering
        self.vertices = self._canonicalize(vertices)
        self._prune()
        self._table = _SplitTable(self.vertices)
        self._counts: np.ndarray | None = None

    def _canonicalize(self, vertices) -> dict[int, list[tuple[int, int]]]:
        out: dict[int, list[tuple[int, int]]] = {}
        for v, pairs in vertices.items():
            canon = set()
            for l, r in pairs:
                if (l | r) != v or (l & r) != 0 or l == 0 or r == 0:
                    raise ValueError(f"pair ({l:#x}, {r:#x}) does not split vertex {v:#x}")
                if not l & (v & -v):
                    l, r = r, l
                canon.add((l, r))
            out[v] = sorted(canon)
        return out

    def _prune(self) -> None:
        # Keep a vertex when it is a singleton or has a pair whose children
        # are both kept (children are smaller, so one pass by size settles
        # every vertex), then drop anything unreachable from the root.  Every
        # kept vertex thus has a pair, and a kept root reaches every singleton.
        vertices: dict[int, list[tuple[int, int]]] = {}
        for v in sorted(self.vertices, key=lambda v: (popcount(v), v)):
            pairs = [(l, r) for l, r in self.vertices[v] if l in vertices and r in vertices]
            if pairs or popcount(v) == 1:
                vertices[v] = pairs
        root = self.ground.full
        if root not in vertices:
            raise ValueError("the root vertex realizes no hierarchy")
        reachable = set()
        stack = [root]
        while stack:
            v = stack.pop()
            if v in reachable:
                continue
            reachable.add(v)
            for l, r in vertices[v]:
                stack.append(l)
                stack.append(r)
        self.vertices = {v: pairs for v, pairs in vertices.items() if v in reachable}

    # -- structure queries ----------------------------------------------------

    @property
    def root(self) -> int:
        return self.ground.full

    def num_vertices(self) -> int:
        return len(self.vertices)

    def num_edges(self) -> int:
        return len(self._table.pairs)

    def count_trees(self) -> int:
        """Hierarchies realizable from the stored pairs, as a Python int."""
        if self._counts is None:
            t, n = self._table, self.ground.n
            levels = ((ids, t.left[e], t.right[e], starts) for ids, e, starts in t.levels())
            self._counts = tree_counts(n, len(t.bits), slice(0, n), levels)  # singletons: ids < n
        return int(self._counts[-1])  # the root has the last id

    def sparsity_index(self) -> Fraction:
        """Fraction of all (2n-3)!! hierarchies this trellis realizes."""
        return Fraction(self.count_trees(), num_hierarchies(self.ground.n))

    def realizes(self, h: Hierarchy) -> bool:
        if h.root != self.root:
            return False
        for parent, pair in h.children.items():
            if parent not in self.vertices or pair not in self.vertices[parent]:
                return False
        return True

    # -- inference -------------------------------------------------------------

    def evaluate(self, model: PotentialModel) -> "SparseEvaluation":
        return SparseEvaluation(self, model)

    # -- serialization -----------------------------------------------------------

    def to_dict(self) -> dict:
        ordering = None
        if self.ordering is not None:
            ordering = {"mode": self.ordering.mode, "seed": self.ordering.seed}
        return {
            "n": self.ground.n,
            "ordering": ordering,
            "vertices": [
                {
                    "bits": str(v),
                    "pairs": [[str(l), str(r)] for l, r in pairs],
                }
                for v, pairs in sorted(self.vertices.items())
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SparseTrellis":
        if not isinstance(data, dict):
            raise ValueError(f"a trellis file must hold a JSON object, not a {type(data).__name__}")
        ordering = data.get("ordering")
        if ordering and not isinstance(ordering, dict):
            raise ValueError(f"ordering must be a mode/seed object, not {ordering!r}")
        ordering = LeafOrdering(ordering["mode"], ordering.get("seed")) if ordering else None
        try:
            n = int(data["n"])
        except TypeError:
            raise ValueError(f"n must be an integer, not {data['n']!r}") from None
        try:
            vertices = {
                int(entry["bits"]): [(int(l), int(r)) for l, r in entry["pairs"]]
                for entry in data["vertices"]
            }
        except TypeError as exc:
            raise ValueError(f"vertices must be a list of bits/pairs objects: {exc}") from None
        return cls(GroundSet(n), vertices, ordering)

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=1, sort_keys=True))

    @classmethod
    def load(cls, path) -> "SparseTrellis":
        return cls.from_dict(json.loads(Path(path).read_text()))


class SparseEvaluation:
    """Bottom-up tables of one model over a sparse trellis, by vertex id."""

    def __init__(self, trellis: SparseTrellis, model: PotentialModel):
        if model.n != trellis.ground.n:
            raise ValueError("model and trellis disagree on the leaf count")
        self.trellis = trellis
        self.model = model
        self._table = trellis._table
        self._fill()

    def _fill(self) -> None:
        table = self._table
        self.model.prime(table.bits)
        log_psi = self.model.log_psi
        psi = np.array([log_psi(l, r) for l, r in table.pairs], dtype=np.float64)
        self._log_z = log_z = np.zeros(len(table.bits))  # singletons: log 1
        map_val = np.zeros(len(table.bits))
        self._map_edge = np.zeros(len(table.bits), dtype=np.intp)
        self._cum = cum = [0.0] * len(psi)  # by edge: running sums of exp(t - max t)
        first = table.first
        for parents, edges, starts in table.levels():
            p, left, right = psi[edges], table.left[edges], table.right[edges]
            z_terms = p + log_z[left] + log_z[right]
            m_terms = p + map_val[left] + map_val[right]
            num_pairs = table.num_pairs[parents]
            # x + 0.0 is log_sum_exp([x]) at a single-pair parent; the others
            # are overwritten with their own log_sum_exp
            log_z[parents] = z_terms[starts] + 0.0
            multi = np.flatnonzero(num_pairs > 1)
            if multi.size:
                shift = np.maximum.reduceat(z_terms, starts)
                shift[shift == LOG_ZERO] = 0.0  # a zero-mass vertex keeps zero weights
                weights = np.exp(z_terms - np.repeat(shift, num_pairs)).tolist()
                terms, e0 = z_terms.tolist(), edges.start
                for v in (parents.start + multi).tolist():
                    a, b = first[v], first[v + 1]
                    log_z[v] = log_sum_exp(terms[a - e0 : b - e0])
                    cum[a:b] = accumulate(weights[a - e0 : b - e0])
            # first maximum of each segment, as the dense backpointer keeps
            top = np.maximum.reduceat(m_terms, starts)
            pos = np.arange(len(m_terms))
            hit = np.where(m_terms == np.repeat(top, num_pairs), pos, len(pos))
            best = np.minimum.reduceat(hit, starts)
            map_val[parents] = m_terms[best]
            self._map_edge[parents] = best + edges.start

    def log_partition(self) -> float:
        return float(self._log_z[-1])  # the root has the last id

    def map_hierarchy(self) -> tuple[float, Hierarchy]:
        """Best realizable tree; the value is its recomputed potential."""
        tree = self._walk(None)
        return log_hierarchy_potential(tree, self.model), tree

    def sample(self, rng: np.random.Generator) -> Hierarchy:
        if self.log_partition() == LOG_ZERO:
            raise ValueError("degenerate posterior: restricted partition function is zero")
        return self._walk(rng)

    def _walk(self, rng) -> Hierarchy:
        """Grow a tree from the root along the forced-chain plan, picking an
        edge only at multi-pair vertices, in preorder: the stored best edge
        without ``rng``, else a draw spending one uniform."""
        table, first, cum, best = self._table, self._table.first, self._cum, self._map_edge
        entries, frontier = table.entries, table.frontier
        children = dict(table.root_entries)
        stack = list(table.root_frontier)
        while stack:
            i = stack.pop()
            if rng is None:
                e = best[i]
            else:  # hi = last clamps u * total onto the last pair
                last = first[i + 1] - 1
                e = bisect_right(cum, rng.random() * cum[last], first[i], last)
            children.update(entries[e])
            stack.extend(frontier[e])
        return Hierarchy.from_canonical(self.trellis.root, children)


# ---------------------------------------------------------------------------
# builders


def build_from_trees(
    trees,
    ordering: LeafOrdering | None = None,
    payload_lists=None,
) -> SparseTrellis:
    """Union the nodes and splits of the input trees.

    With ``ordering=None`` the trees are assumed to share a ground set and
    their labels are kept; an ordering remaps each tree's leaves onto the
    trellis index space first, which is how trees from unrelated datasets
    are overlaid.
    """
    trees = list(trees)
    if not trees:
        raise ValueError("need at least one seed tree")
    n = trees[0].num_leaves()
    if any(t.num_leaves() != n for t in trees):
        raise ValueError("seed trees must share one leaf count")
    if payload_lists is None:
        payload_lists = [None] * len(trees)
    rng = np.random.default_rng(ordering.seed) if ordering is not None else None
    vertices: dict[int, set] = {1 << i: set() for i in range(n)}
    for tree, payloads in zip(trees, payload_lists):
        if ordering is not None:
            perm = ordering.permutation_for_tree(tree, payloads, rng)
            tree = relabel_hierarchy(tree, perm)
        for parent, pair in tree.children.items():
            vertices.setdefault(parent, set()).add(pair)
    return SparseTrellis(
        GroundSet(n),
        {v: sorted(pairs) for v, pairs in vertices.items()},
        ordering,
    )


def build_simulator_trellis(
    config: JetConfig, num_trees: int, ordering: LeafOrdering | None = None
) -> SparseTrellis:
    """Seed the trellis with ground-truth trees drawn from the generator."""
    if config.leaf_count_filter is None or (
        config.leaf_count_filter[0] != config.leaf_count_filter[1]
    ):
        raise ValueError("simulator seeding needs a fixed leaf count filter")
    trees, payloads = [], []
    for i in range(num_trees):
        jet = generate_jet(replace(config, seed=(config.seed, i)))
        trees.append(jet.tree)
        payloads.append(jet.payloads)
    return build_from_trees(trees, ordering, payloads)


def build_beam_search_trellis(
    payload_sets,
    make_model,
    ordering: LeafOrdering | None = None,
    beam_width: int | None = None,
    lookahead: int = 1,
) -> SparseTrellis:
    """Seed the trellis with every tree kept by beam search on each dataset."""
    trees, payloads = [], []
    for leaf_payloads in payload_sets:
        model = make_model(leaf_payloads)
        for _, tree in beam_search_forest(model, beam_width, lookahead):
            trees.append(tree)
            payloads.append(leaf_payloads)
    return build_from_trees(trees, ordering, payloads)
