"""Sparse trellis: the same recursions restricted to seeded vertices/edges.

A sparse trellis stores, per vertex, the explicit list of child pairs seen
in its seed trees; inference runs the usual bottom-up recursions over the
stored pairs only, so the partition function and MAP are lower bounds on
their dense counterparts and the sampler draws from the posterior
restricted to realizable hierarchies.  Edges matter, not just vertices:
two trellises on the same vertex set can realize very different tree
counts.

Construction takes two passes.  The first visits the input vertices in
(size, bits) order: it checks and orients every pair, keeps a pair whose
children are kept and a vertex that is a singleton or has a kept pair,
and a reverse sweep then drops what the root does not reach.  The kept
vertices stay in that order and are numbered in it.  The second, one loop
in id order, lays out the CSR split table over those ids: per-vertex pair
counts and first pairs, flat left and right child ids, the id range of
each cluster size and the chain plan below.  For 300 24-leaf simulator
trees (3871 vertices, 4378 edges) the two passes take about 12 ms on a
shared Xeon under CPython 3.11.  Counting and
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
    integer_field,
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

    One loop in id order lays out all of it: children come before parents,
    so each vertex finds what its children pass on, a single-pair child its
    edge's plan, a multi-pair child itself and a singleton nothing.
    """

    def __init__(self, vertices: dict[int, list[tuple[int, int]]]):
        self.ids = ids = {}
        self.pairs, self.first = [], [0]
        lefts, rights, self.entries, self.frontier = [], [], [], []
        passed = []  # by id: (entries, reversed frontier) handed to a parent
        for i, (v, pairs) in enumerate(vertices.items()):
            ids[v] = i
            for pair in pairs:
                l, r = ids[pair[0]], ids[pair[1]]
                lefts.append(l)
                rights.append(r)
                l_entries, l_frontier = passed[l]
                r_entries, r_frontier = passed[r]
                self.entries.append(((v, pair), *l_entries, *r_entries))
                self.frontier.append(r_frontier + l_frontier)
            self.pairs += pairs
            self.first.append(len(self.pairs))
            if len(pairs) == 1:
                passed.append((self.entries[-1], self.frontier[-1]))
            else:  # a multi-pair vertex is a frontier; a singleton passes nothing
                passed.append(((), (i,) if pairs else ()))
        self.root_entries, self.root_frontier = passed[-1]
        self.bits = np.array(list(vertices), dtype=np.uint64)
        self.num_pairs = np.diff(self.first).astype(np.intp, copy=False)
        self.left = np.array(lefts, dtype=np.intp)
        self.right = np.array(rights, dtype=np.intp)
        sizes = [popcount(v) for v in vertices]
        bounds = [i for i in range(1, len(sizes)) if sizes[i] != sizes[i - 1]]
        self.ranges = [(v0, v1) for v0, v1 in zip([0, *bounds], [*bounds, len(sizes)])
                       if sizes[v0] > 1]

    def levels(self):
        """Yield (parents, edges, starts) per cluster size >= 2, bottom-up: the
        size's id range, the flat positions of its pairs, and where each
        parent's pairs start, counted from the level's first pair."""
        for v0, v1 in self.ranges:
            num_pairs = self.num_pairs[v0:v1]
            starts = np.cumsum(num_pairs) - num_pairs
            yield slice(v0, v1), slice(self.first[v0], self.first[v1]), starts


def _pruned(vertices, root: int) -> dict[int, list[tuple[int, int]]]:
    """The vertices the root reaches through pairs that realize a tree, by
    size then bits, each with its distinct pairs sorted.

    One pass in (size, bits) order checks every pair, orients it so the left
    child holds the vertex's lowest leaf, and keeps it when both children are
    kept; a vertex is kept when it is a singleton or has a kept pair.
    Children are smaller, so they are settled first.  One reverse sweep then
    marks what the root reaches: parents are larger, so they are marked
    first.  Every kept vertex thus has a pair, and the root reaches every
    singleton.
    """
    kept: dict[int, list[tuple[int, int]]] = {}
    for v in sorted(sorted(vertices), key=popcount):  # a stable sort: by bits within a size
        low, canon = v & -v, set()
        for l, r in vertices[v]:
            if (l | r) != v or (l & r) != 0 or l == 0 or r == 0:
                raise ValueError(f"pair ({l:#x}, {r:#x}) does not split vertex {v:#x}")
            if l in kept and r in kept:
                canon.add((l, r) if l & low else (r, l))
        if canon or popcount(v) == 1:
            kept[v] = sorted(canon)
    if root not in kept:
        raise ValueError("the root vertex realizes no hierarchy")
    reached = {root}
    for v in reversed(kept):
        if v in reached:
            for pair in kept[v]:
                reached.update(pair)
    return {v: pairs for v, pairs in kept.items() if v in reached}


class SparseTrellis:
    """Vertices plus explicit child pairs, pruned of dead ends.

    Construction settles ``vertices`` in one pass by size, then bits
    (``_pruned``), and lays out the split table from it in one pass by id
    (``_SplitTable``).  Counting, evaluation and sampling read that table.
    """

    def __init__(
        self,
        ground: GroundSet,
        vertices: dict[int, list[tuple[int, int]]],
        ordering: LeafOrdering | None = None,
    ):
        self.ground = ground
        self.ordering = ordering
        self.vertices = _pruned(vertices, ground.full)
        self._table = _SplitTable(self.vertices)
        self._counts: np.ndarray | None = None

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
        seed = ordering.get("seed") if ordering else None
        if seed is not None:
            seed = integer_field(seed, "ordering seed")
        ordering = LeafOrdering(ordering["mode"], seed) if ordering else None
        n = integer_field(data["n"], "n")
        vertices = {}
        try:
            for entry in data["vertices"]:
                bits = integer_field(entry["bits"], "vertex bits")
                if bits in vertices:
                    raise ValueError(f"vertex bits {bits} are listed twice")
                vertices[bits] = [
                    (integer_field(l, "pair member"), integer_field(r, "pair member"))
                    for l, r in entry["pairs"]
                ]
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
    return SparseTrellis(GroundSet(n), vertices, ordering)


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
