"""Sparse trellis construction against a reference copy of the earlier one.

The reference checks and orients every pair vertex by vertex in input
order, prunes by size, drops what a depth-first search from the root does
not reach, builds the split table with one comprehension per field and
plans the forced chains in a separate loop.  The two-pass construction
must give the same vertices, the same table field by field (values,
dtypes and Python types) and the same errors.
"""

from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hctrellis import GinkgoModel, GroundSet, JetConfig, SparseTrellis, generate_jet
from hctrellis.core import popcount, relabel_hierarchy
from hctrellis.sparse import LeafOrdering, build_from_trees
from hctrellis.baselines import beam_search_forest

from conftest import WIDE_ROOT

ORDERING = LeafOrdering("norm_ascending")


# -- the reference construction ----------------------------------------------


def _reference_vertices(ground, vertices):
    canonical = {}
    for v, pairs in vertices.items():
        canon = set()
        for l, r in pairs:
            if (l | r) != v or (l & r) != 0 or l == 0 or r == 0:
                raise ValueError(f"pair ({l:#x}, {r:#x}) does not split vertex {v:#x}")
            if not l & (v & -v):
                l, r = r, l
            canon.add((l, r))
        canonical[v] = sorted(canon)
    kept = {}
    for v in sorted(canonical, key=lambda v: (popcount(v), v)):
        pairs = [(l, r) for l, r in canonical[v] if l in kept and r in kept]
        if pairs or popcount(v) == 1:
            kept[v] = pairs
    root = ground.full
    if root not in kept:
        raise ValueError("the root vertex realizes no hierarchy")
    reachable, stack = set(), [root]
    while stack:
        v = stack.pop()
        if v in reachable:
            continue
        reachable.add(v)
        for l, r in kept[v]:
            stack += (l, r)
    return {v: pairs for v, pairs in kept.items() if v in reachable}


class _ReferenceTable:
    def __init__(self, vertices):
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
        bits, pairs, first = self.bits.tolist(), self.pairs, self.first
        lefts, rights = self.left.tolist(), self.right.tolist()
        self.entries, self.frontier = [()] * len(pairs), [()] * len(pairs)
        passed = []
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
            else:
                passed.append(((), ()))
        self.root_entries, self.root_frontier = passed[-1]


def _reference_count(vertices) -> int:
    below = {}
    for v, pairs in vertices.items():  # size order: children first
        below[v] = sum(below[l] * below[r] for l, r in pairs) if pairs else 1
    return below[next(reversed(vertices))]


ARRAYS = ("bits", "num_pairs", "left", "right")
OBJECTS = ("pairs", "first", "ranges", "entries", "frontier", "root_entries", "root_frontier")


def _assert_same_structure(trellis, ground, vertices):
    """``trellis`` is what the construction made of ``vertices``."""
    expected = _reference_vertices(ground, vertices)
    assert list(trellis.vertices.items()) == list(expected.items())
    assert repr(trellis.vertices) == repr(expected)  # Python ints, lists of tuples
    table, ref = trellis._table, _ReferenceTable(expected)
    assert list(table.ids.items()) == list(ref.ids.items())
    for name in ARRAYS:
        got, want = getattr(table, name), getattr(ref, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    for name in OBJECTS:
        assert repr(getattr(table, name)) == repr(getattr(ref, name)), name
    assert trellis.count_trees() == _reference_count(expected)


def _assert_same_outcome(ground, vertices):
    try:
        _reference_vertices(ground, vertices)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            SparseTrellis(ground, vertices)
        # the first bad pair in (size, bits) order is the one reported, so
        # the message is the same when one vertex holds every bad pair
        bad = {v for v, pairs in vertices.items() for l, r in pairs
               if (l | r) != v or l & r or not l or not r}
        if len(bad) <= 1:
            assert str(raised.value) == str(exc)
        return
    _assert_same_structure(SparseTrellis(ground, vertices), ground, vertices)


# -- seeded and full trellises ---------------------------------------------------


def _reference_seed_vertices(trees, ordering=None, payload_lists=None):
    """The input the earlier ``build_from_trees`` handed over: sorted lists."""
    n = trees[0].num_leaves()
    payload_lists = payload_lists or [None] * len(trees)
    rng = np.random.default_rng(ordering.seed) if ordering is not None else None
    vertices = {1 << i: set() for i in range(n)}
    for tree, payloads in zip(trees, payload_lists):
        if ordering is not None:
            tree = relabel_hierarchy(tree, ordering.permutation_for_tree(tree, payloads, rng))
        for parent, pair in tree.children.items():
            vertices.setdefault(parent, set()).add(pair)
    return GroundSet(n), {v: sorted(pairs) for v, pairs in vertices.items()}


@lru_cache(maxsize=None)
def _simulator_trees(n, count, seed, wide):
    config = JetConfig(lam=1.5, seed=seed, leaf_count_filter=(n, n))
    if wide:
        config = replace(config, root=WIDE_ROOT)
    jets = [generate_jet(replace(config, seed=(seed, i))) for i in range(count)]
    return [j.tree for j in jets], [j.payloads for j in jets]


def _full_vertices(n):
    """Every split of every cluster, each listed in both orientations."""
    vertices = {}
    for v in range(1, 1 << n):
        sub = (v - 1) & v
        vertices[v] = []
        while sub:
            vertices[v].append((sub, v ^ sub))
            sub = (sub - 1) & v
    return vertices


class TestSameStructureAsReference:
    @pytest.mark.parametrize("n, count, seed, wide, ordering", [
        (10, 40, 3, True, ORDERING),
        (10, 40, 3, True, None),
        (12, 40, 200, True, ORDERING),
        (24, 40, 5, True, ORDERING),
        (8, 40, 1, False, LeafOrdering("random", seed=4)),
    ], ids=["sim10", "sim10_labels", "sim12", "sim24", "sim8_random"])
    def test_simulator_trellises(self, n, count, seed, wide, ordering):
        trees, payloads = _simulator_trees(n, count, seed, wide)
        trellis = build_from_trees(trees, ordering, payloads)
        _assert_same_structure(trellis, *_reference_seed_vertices(trees, ordering, payloads))
        assert any(len(p) > 1 for p in trellis.vertices.values())

    def test_beam_search_trellis(self):
        trees, payloads = [], []
        for i in range(3):
            leaves = generate_jet(JetConfig(lam=1.5, seed=(7, i), leaf_count_filter=(12, 12))).payloads
            for _, tree in beam_search_forest(GinkgoModel(leaves, lam=1.5)):
                trees.append(tree)
                payloads.append(leaves)
        trellis = build_from_trees(trees, ORDERING, payloads)
        _assert_same_structure(trellis, *_reference_seed_vertices(trees, ORDERING, payloads))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_full_trellises(self, n):
        vertices = _full_vertices(n)
        _assert_same_structure(SparseTrellis(GroundSet(n), vertices), GroundSet(n), vertices)


# -- drawn vertex dicts -----------------------------------------------------------


def _split(draw, v):
    """A drawn split of v, its two sides in drawn order."""
    members = [1 << i for i in range(v.bit_length()) if v >> i & 1]
    mask = draw(st.integers(1, (1 << len(members)) - 2))
    sub = sum(m for i, m in enumerate(members) if mask >> i & 1)
    return (sub, v ^ sub) if draw(st.booleans()) else (v ^ sub, sub)


@st.composite
def vertex_dicts(draw):
    """Vertex dicts over up to 7 leaves: the union of a few drawn trees,
    with repeated and reversed pairs, plus drawn vertices and pairs that
    end nowhere or are not reached (some with bits past the ground set),
    now and then a missing singleton or a pair that does not split its
    vertex, in a drawn key order."""
    n = draw(st.integers(1, 7))
    full = (1 << n) - 1
    vertices = {1 << i: [] for i in range(n)}
    if draw(st.integers(0, 19)) == 0:
        del vertices[1 << draw(st.integers(0, n - 1))]
    for _ in range(draw(st.integers(0, 3))):
        stack = [full]
        while stack:
            v = stack.pop()
            if v & (v - 1):
                pair = _split(draw, v)
                vertices.setdefault(v, []).append(pair)
                stack += pair
    for v in draw(st.lists(st.integers(3, (2 << n) - 1), max_size=2 * n)):
        if v & (v - 1):
            vertices.setdefault(v, []).extend(_split(draw, v) for _ in range(draw(st.integers(0, 2))))
    if vertices and draw(st.integers(0, 19)) == 0:
        v = draw(st.sampled_from(sorted(vertices)))
        vertices[v].append((draw(st.integers(0, full)), draw(st.integers(0, full))))
    return GroundSet(n), {v: vertices[v] for v in draw(st.permutations(sorted(vertices)))}


@settings(max_examples=300, deadline=None)
@given(vertex_dicts())
def test_drawn_vertex_dicts(case):
    _assert_same_outcome(*case)


def test_two_bad_vertices_report_the_smaller():
    # input order puts the larger bad vertex first
    vertices = {0b111: [(0b001, 0b010)], 0b011: [(0b001, 0b001)],
                0b001: [], 0b010: [], 0b100: []}
    with pytest.raises(ValueError, match=r"\(0x1, 0x1\) does not split vertex 0x3"):
        SparseTrellis(GroundSet(3), vertices)


def test_build_from_no_trees_refused():
    with pytest.raises(ValueError, match="need at least one seed tree"):
        build_from_trees([])
