import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hctrellis.core import (
    LOG_ZERO,
    GroundSet,
    Hierarchy,
    full_mask,
    leaf_indices,
    log_sum_exp,
    lowest_leaf,
    mask_of,
    num_hierarchies,
    pivot_splits,
    pivot_splits_array,
    popcount,
    relabel_hierarchy,
    split_term_count,
    subset_block,
)

A, B, C, D = 1, 2, 4, 8


class TestPivotSplits:
    def test_four_leaf_parent_has_seven(self):
        assert len(list(pivot_splits(full_mask(4)))) == 7

    def test_two_leaf_parent_has_one(self):
        assert list(pivot_splits(A | B)) == [A]

    @pytest.mark.parametrize("k", range(2, 9))
    def test_count_formula(self, k):
        assert len(list(pivot_splits(full_mask(k)))) == 2 ** (k - 1) - 1

    def test_singleton_rejected(self):
        with pytest.raises(ValueError):
            list(pivot_splits(C))

    @pytest.mark.parametrize("parent", [0b111, 0b10110, 0b111111, 0b1011101])
    def test_every_bipartition_once(self, parent):
        seen = set()
        pivot = parent & -parent
        for s in pivot_splits(parent):
            assert s & pivot, "left side must hold the pivot leaf"
            assert 0 < s < parent and not (s & ~parent)
            pair = frozenset((s, parent ^ s))
            assert pair not in seen
            seen.add(pair)
        # all unordered bipartitions of the parent
        assert len(seen) == 2 ** (popcount(parent) - 1) - 1

    def test_ascending_enumeration(self):
        subs = list(pivot_splits(0b11011))
        assert subs == sorted(subs)

    @pytest.mark.parametrize("parent", [0b11, 0b1110100, full_mask(6)])
    def test_array_matches_generator(self, parent):
        batch = pivot_splits_array(np.array([parent], dtype=np.int64))
        assert batch.tolist() == list(pivot_splits(parent))

    @staticmethod
    def assert_batch_matches_scalar(parents):
        """The batch equals the per-parent generator's output, concatenated."""
        batch = pivot_splits_array(np.asarray(parents, dtype=np.int64))
        expected = [int(s) for p in parents for s in pivot_splits(int(p))]
        assert batch.dtype == np.int64 and batch.ndim == 1
        assert batch.tolist() == expected

    @pytest.mark.parametrize("k", range(2, 11))
    def test_batch_of_level_matches_scalar_calls(self, k):
        self.assert_batch_matches_scalar([p for p in range(1 << 10) if popcount(p) == k])

    @pytest.mark.parametrize("k", [2, 3, 7, 12, 16])
    def test_random_wide_batch_matches_scalar_calls(self, k):
        rng = np.random.default_rng(k)
        parents = [mask_of(rng.choice(22, size=k, replace=False)) for _ in range(12)]
        self.assert_batch_matches_scalar(parents)

    @pytest.mark.parametrize("count", [0, 1, 5, 9])
    def test_subset_block_adds_steps_in_ascending_order(self, count):
        rng = np.random.default_rng(count)
        first, steps = rng.normal(), rng.normal(size=count) * 10.0 ** rng.integers(-8, 9, count)
        block = subset_block(np.float64(first), steps, 1 << count)
        assert block.shape == (1 << count,) and block.dtype == np.float64
        for r in range(1 << count):
            total = first
            for b in range(count):
                if r >> b & 1:
                    total += steps[b]
            assert block[r] == total, r  # bit for bit, not to a tolerance

    def test_subset_block_broadcasts_steps(self):
        first = np.array([[0, 1], [2, 3]])
        steps = [np.array([10, 20]), np.array([[100], [200]])]
        block = subset_block(first, steps, 3)  # stops one row short of all four
        assert block.shape == (3, 2, 2) and block.dtype == first.dtype
        assert block.tolist() == [
            first.tolist(), (first + steps[0]).tolist(), (first + steps[1]).tolist()
        ]
        rows = subset_block(np.zeros(()), [np.ones(1), np.arange(2.0)], 4)  # step b spans 2**b rows
        assert rows.tolist() == [0.0, 1.0, 0.0, 2.0]

    def test_batch_rejects_singletons_and_mixed_sizes(self):
        with pytest.raises(ValueError):
            pivot_splits_array(np.array([A, C, 1 << 21], dtype=np.int64))
        with pytest.raises(ValueError):
            pivot_splits_array(np.array([A | B, A | B | C], dtype=np.int64))


class TestLogSumExp:
    def test_single(self):
        assert log_sum_exp([0.0]) == 0.0

    def test_zero_term_absorbed(self):
        assert log_sum_exp([LOG_ZERO, 1.25]) == 1.25

    def test_exact_small_sum(self):
        assert log_sum_exp([math.log(2), math.log(3)]) == pytest.approx(math.log(5), abs=1e-14)

    def test_empty(self):
        assert log_sum_exp([]) == LOG_ZERO

    def test_all_zero_weight(self):
        assert log_sum_exp([LOG_ZERO, LOG_ZERO]) == LOG_ZERO

    @given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=8), st.randoms())
    def test_permutation_invariant(self, vals, rnd):
        shuffled = vals[:]
        rnd.shuffle(shuffled)
        assert log_sum_exp(vals) == log_sum_exp(shuffled)

    @given(
        st.lists(st.floats(min_value=-30, max_value=30), min_size=1, max_size=6),
        st.integers(min_value=0, max_value=5),
        st.floats(min_value=0.01, max_value=5),
    )
    def test_monotone_in_each_argument(self, vals, idx, bump):
        # Strict growth can be swamped by rounding when one term dominates
        # by dozens of orders of magnitude, so assert the weak ordering.
        idx = idx % len(vals)
        bumped = vals[:]
        bumped[idx] = bumped[idx] + bump
        assert log_sum_exp(bumped) >= log_sum_exp(vals)

    def test_monotone_strict_when_comparable(self):
        assert log_sum_exp([1.0, 2.0, 3.0]) < log_sum_exp([1.0, 2.5, 3.0])


def _chain(n):
    # caterpillar: peel off the highest leaf each time
    children = {}
    bits = full_mask(n)
    while popcount(bits) > 1:
        high = 1 << (bits.bit_length() - 1)
        children[bits] = (bits ^ high, high)
        bits ^= high
    return Hierarchy(full_mask(n), children)


class TestHierarchy:
    def test_canonical_child_order(self):
        h = Hierarchy(0b111, {0b111: (0b110, 0b001), 0b110: (0b100, 0b010)})
        assert h.children[0b111] == (0b001, 0b110)
        assert h.children[0b110] == (0b010, 0b100)

    def test_node_count(self):
        h = _chain(5)
        assert len(h.nodes()) == 2 * 5 - 1
        h.validate(n=5, require_root=full_mask(5))

    def test_equality_by_structure(self):
        assert _chain(4) == _chain(4)
        assert _chain(4) != _chain(5)
        assert hash(_chain(4)) == hash(_chain(4))

    def test_validate_missing_split(self):
        h = _chain(4)
        del h.children[0b0011]
        with pytest.raises(ValueError):
            h.validate()

    def test_validate_overlapping_children(self):
        h = Hierarchy(0b111, {0b111: (0b011, 0b110), 0b011: (1, 2), 0b110: (2, 4)})
        with pytest.raises(ValueError):
            h.validate()

    def test_validate_non_partition(self):
        h = Hierarchy(0b1111, {0b1111: (0b0001, 0b0110), 0b0110: (2, 4)})
        with pytest.raises(ValueError):
            h.validate()

    def test_validate_unreachable_entry(self):
        h = _chain(3)
        h.children[0b110] = (0b010, 0b100)  # not a node of this tree
        with pytest.raises(ValueError):
            h.validate()

    def test_validate_left_child_without_lowest_leaf(self):
        # the constructor orients every pair; from_canonical leaves them as given
        h = Hierarchy.from_canonical(0b111, {0b111: (0b110, 0b001), 0b110: (0b010, 0b100)})
        with pytest.raises(ValueError, match="left child must hold the lowest leaf"):
            h.validate()

    def test_validate_wrong_node_count(self):
        # A negative int is an infinite bit set and -8 reads as a singleton:
        # three leaves under a root of popcount 2, one spare entry hiding it
        # from the child-map count.  Over nonnegative clusters the other
        # checks already imply 2k - 1 nodes, so the negative root is refused.
        h = Hierarchy.from_canonical(-5, {-5: (1, -6), -6: (2, -8), 0b1100: (4, 8)})
        with pytest.raises(ValueError, match="negative root cluster"):
            h.validate()

    def test_validate_negative_root(self):
        # -4 has popcount 1 and reads as a leaf, so this tree passed before
        h = Hierarchy.from_canonical(-3, {-3: (1, -4)})
        with pytest.raises(ValueError, match="negative root cluster"):
            h.validate()

    def test_validate_root_outside_ground(self):
        with pytest.raises(ValueError):
            _chain(4).validate(n=3)

    def test_validate_required_root(self):
        with pytest.raises(ValueError):
            _chain(4).validate(require_root=0b111)

    @given(st.integers(min_value=2, max_value=7), st.randoms())
    def test_mutated_children_rejected(self, n, rnd):
        h = _chain(n)
        parent = rnd.choice(sorted(h.children))
        left, right = h.children[parent]
        mutations = [
            (left, left),  # overlap, not a partition
            (parent, right),  # child equals parent
        ]
        bad_left, bad_right = rnd.choice(mutations)
        h.children[parent] = (bad_left, bad_right)
        with pytest.raises(ValueError):
            h.validate()

    def test_relabel_roundtrip(self):
        h = _chain(5)
        perm = [2, 0, 4, 1, 3]
        inverse = [perm.index(i) for i in range(5)]
        assert relabel_hierarchy(relabel_hierarchy(h, perm), inverse) == h

    def test_singleton_tree(self):
        h = Hierarchy(1, {})
        h.validate(n=1)
        assert h.num_leaves() == 1


class TestCounts:
    @pytest.mark.parametrize(
        "n,expected", [(1, 1), (2, 1), (3, 3), (4, 15), (5, 105), (10, 34_459_425)]
    )
    def test_num_hierarchies(self, n, expected):
        assert num_hierarchies(n) == expected

    def test_num_hierarchies_needs_a_leaf(self):
        with pytest.raises(ValueError, match="need at least one leaf"):
            num_hierarchies(0)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_split_term_count_matches_direct_sum(self, n):
        direct = sum(
            2 ** (popcount(c) - 1) - 1
            for c in range(1, 1 << n)
            if popcount(c) >= 2
        )
        assert split_term_count(n) == direct


class TestGroundSet:
    def test_default_labels(self):
        g = GroundSet(3)
        assert g.labels == ("x0", "x1", "x2")
        assert g.full == 0b111

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            GroundSet(2, ("a", "a"))

    def test_label_count_must_match(self):
        with pytest.raises(ValueError, match="label count does not match leaf count"):
            GroundSet(2, ("a", "b", "c"))

    def test_bounds(self):
        with pytest.raises(ValueError):
            GroundSet(0)
        with pytest.raises(ValueError):
            GroundSet(65)


class TestBitHelpers:
    def test_mask_roundtrip(self):
        assert leaf_indices(mask_of([0, 3, 5])) == [0, 3, 5]

    def test_mask_of_refuses_negative_index(self):
        with pytest.raises(ValueError, match="leaf index must be nonnegative"):
            mask_of([-1])

    def test_mask_of_refuses_repeated_index(self):
        # OR-ing a repeat away would name a smaller cluster than was asked for
        with pytest.raises(ValueError, match="leaf index 0 is repeated"):
            mask_of([0, 0])
        with pytest.raises(ValueError, match="repeated"):
            mask_of([3, 1, 3])

    def test_lowest_leaf(self):
        assert lowest_leaf(0b10100) == 2

    def test_leaf_indices_of_leaf_63(self):
        assert leaf_indices(1 << 63 | 1 << 2) == [2, 63]

    def test_negative_cluster_raises(self):
        # Before the guard these calls never returned, so they run in a
        # child process that a timeout can stop.  An int64 cluster array
        # with leaf 63 set reaches leaf_indices through the memo of a model
        # past the table cap.
        code = "\n".join([
            "import numpy as np",
            "from hctrellis.core import leaf_indices",
            "from hctrellis.models import DasguptaModel, PairwiseWeights",
            "for call in (",
            "    lambda: leaf_indices(-5),",
            "    lambda: DasguptaModel(PairwiseWeights(np.zeros((64, 64))))",
            "    .log_psi_pairs(np.array([[1, 1 << 62]]), np.array([[-1 << 63, 2]])),",
            "):",
            "    try:",
            "        call()",
            "    except ValueError as exc:",
            "        print(exc)",
        ])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=30
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.count("negative") == 2, done.stdout

    def test_lowest_leaf_empty(self):
        with pytest.raises(ValueError):
            lowest_leaf(0)

    def test_popcounts_vector(self):
        # the vector popcount the models read cluster sizes from
        arr = np.array([0b1011, 0b1, 0b1111110], dtype=np.int64)
        assert np.bitwise_count(arr).tolist() == [3, 1, 6]


def test_package_exports_resolve_once():
    import hctrellis

    assert len(hctrellis.__all__) == len(set(hctrellis.__all__))
    for name in hctrellis.__all__:
        assert hasattr(hctrellis, name), name
