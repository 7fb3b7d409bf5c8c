import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from hctrellis import (
    ConstantModel,
    GroundSet,
    enumerate_hierarchies,
    num_hierarchies,
    oracle_summary,
)
from hctrellis.core import full_mask, pivot_splits, popcount
from hctrellis.oracle import ORACLE_MAX_LEAVES, _structure

from conftest import MODEL_KINDS, make_model


@pytest.mark.parametrize("n,count", [(1, 1), (2, 1), (3, 3), (4, 15), (5, 105)])
def test_enumeration_count(n, count):
    assert len(list(enumerate_hierarchies(GroundSet(n)))) == count


@pytest.mark.parametrize("n", range(1, 7))
def test_enumeration_has_no_duplicates(n):
    signatures = {h.signature() for h in enumerate_hierarchies(n)}
    assert len(signatures) == num_hierarchies(n)


@pytest.mark.parametrize("n", range(2, 7))
def test_enumerated_trees_are_valid(n):
    for h in enumerate_hierarchies(n):
        h.validate(n=n, require_root=full_mask(n))


def test_cap_is_enforced():
    with pytest.raises(ValueError, match="refused"):
        list(enumerate_hierarchies(ORACLE_MAX_LEAVES + 1))
    with pytest.raises(ValueError):
        oracle_summary(GroundSet(ORACLE_MAX_LEAVES + 1), ConstantModel(9))


def test_constant_model_uniform_posterior():
    for n in (2, 4, 5):
        summary = oracle_summary(GroundSet(n), ConstantModel(n))
        assert summary.log_z == pytest.approx(math.log(num_hierarchies(n)), abs=1e-12)
        table = summary.posterior_table()
        assert len(table) == num_hierarchies(n)
        for log_p in table.values():
            assert log_p == pytest.approx(-math.log(num_hierarchies(n)), abs=1e-12)


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_one_leaf_summary(kind):
    # one tree with no splits: the zero-width potential sum
    summary = oracle_summary(GroundSet(1), make_model(kind, 1, seed=0))
    assert summary.num_trees() == 1 and summary.log_z == 0.0
    assert summary.map_log_potential == 0.0 and summary.map_hierarchy().root == 1


def test_num_trees_counts_every_hierarchy():
    for n in (2, 4, 6):
        assert oracle_summary(GroundSet(n), ConstantModel(n)).num_trees() == num_hierarchies(n)


def test_summary_refuses_model_of_another_leaf_count():
    with pytest.raises(ValueError, match="model and ground set disagree on the leaf count"):
        oracle_summary(GroundSet(4), ConstantModel(5))


def test_summary_needs_a_leaf():
    with pytest.raises(ValueError, match="need at least one leaf"):
        oracle_summary(0, ConstantModel(1))


def test_two_leaves_single_tree_posterior():
    summary = oracle_summary(GroundSet(2), make_model("dasgupta", 2, seed=0))
    table = summary.posterior_table()
    assert len(table) == 1
    assert math.exp(next(iter(table.values()))) == pytest.approx(1.0, abs=1e-12)


def test_marginal_base_cases():
    summary = oracle_summary(GroundSet(4), make_model("correlation", 4, seed=1))
    assert summary.marginal(full_mask(4)) == 0.0
    assert summary.marginal(0b0100) == 0.0
    with pytest.raises(ValueError):
        summary.marginal(0)


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_map_is_argmax_of_posterior(kind):
    summary = oracle_summary(GroundSet(5), make_model(kind, 5, seed=2))
    best = max(summary.posterior_table().values())
    assert summary.map_log_potential - summary.log_z == pytest.approx(best, abs=1e-12)
    assert summary.log_posterior(summary.map_hierarchy()) == pytest.approx(best, abs=1e-12)


def _reference_rows(bits: int) -> list:
    """Every tree over ``bits`` as a preorder tuple of (left, right) splits,
    by nested loops over pivot splits and the children's trees."""
    if popcount(bits) == 1:
        return [()]
    return [
        ((left, bits ^ left),) + lrow + rrow
        for left in pivot_splits(bits)
        for lrow in _reference_rows(left)
        for rrow in _reference_rows(bits ^ left)
    ]


class TestStructure:
    @pytest.mark.parametrize("n", range(1, ORACLE_MAX_LEAVES + 1))
    def test_rows_are_distinct_trees_of_pair_ids(self, n):
        struct = _structure(n)
        trees = struct.trees
        assert trees.dtype == np.int32 and trees.shape == (num_hierarchies(n), n - 1)
        assert struct.pairs.shape[1] == 2
        assert ((trees >= 0) & (trees < len(struct.pairs))).all()
        ids = np.sort(trees, axis=1)
        assert (np.diff(ids, axis=1) > 0).all()  # n - 1 distinct splits per tree
        assert len(np.unique(ids, axis=0)) == num_hierarchies(n)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_rows_match_nested_loop_enumeration(self, n):
        struct = _structure(n)
        rows = [tuple(map(tuple, row)) for row in struct.pairs[struct.trees].tolist()]
        assert rows == _reference_rows(full_mask(n))

    @pytest.mark.parametrize("kind,digest", [
        ("dasgupta", "73caa52eea680fd0b3b2ea00c649d3525a1d1b018372b67053992fb8886ff96e"),
        ("correlation", "a9ab7b2c59f45f910372d6b031b57aed0773f16014319f68471c82e8aca6e149"),
        ("ginkgo", "aa3a96f6d5de536294079318914aff381271620ac6ad034842559850943194e9"),
    ])
    def test_tree_potentials_keep_their_bytes(self, kind, digest):
        """Digests of the potentials of the tuple-per-tree oracle this array
        layout replaced; tree order and summation order are unchanged."""
        summary = oracle_summary(GroundSet(8), make_model(kind, 8, seed=0))
        assert hashlib.sha256(summary.tree_log_potentials.tobytes()).hexdigest() == digest

    def test_cold_summary_peak_memory(self):
        model = make_model("ginkgo", 8, seed=0)
        _structure.cache_clear()
        tracemalloc.start()
        try:
            oracle_summary(GroundSet(8), model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 135135 x 7 int32 ids are 3.8 MB; tuples of pair tuples took 62 MB
        assert peak < 25e6


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_log_posterior_matches_posterior_table(kind):
    summary = oracle_summary(GroundSet(5), make_model(kind, 5, seed=3))
    table = summary.posterior_table()
    assert len(table) == num_hierarchies(5)
    for h in summary.hierarchies():
        assert summary.log_posterior(h) == table[h.signature()]


def test_log_posterior_refuses_foreign_trees():
    summary = oracle_summary(GroundSet(4), make_model("dasgupta", 4, seed=0))
    sub = next(enumerate_hierarchies(3))
    with pytest.raises(KeyError):
        summary.log_posterior(sub)
