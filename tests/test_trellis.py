import math
import sys
import threading
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import binomtest

from hctrellis import (
    DENSE_MAX_LEAVES,
    ConstantModel,
    CorrelationModel,
    DasguptaModel,
    DenseTrellis,
    GinkgoModel,
    GroundSet,
    Hierarchy,
    LOG_ZERO,
    PairwiseWeights,
    PotentialModel,
    SparseTrellis,
    log_hierarchy_potential,
    num_hierarchies,
    oracle_summary,
    split_term_count,
)
import hctrellis.core as hcore
import hctrellis.trellis as htrellis
from hctrellis.core import full_mask, log_sum_exp, pivot_splits, popcount
from hctrellis.datasets import random_affinity_weights, random_similarity_weights

from conftest import (
    MODEL_KINDS,
    PsiPathModel,
    ScalarOnlyModel,
    exact_leaf_jet,
    make_model,
    output_digest,
)


class _ZeroModel(PotentialModel):
    """Every split has zero potential: the degenerate instance."""

    kind = "zero"

    def __init__(self, n):
        self.n = n

    def _log_psi(self, left, right):
        return LOG_ZERO

    def log_psi_pairs(self, lefts, rights):
        return np.full(np.shape(lefts), LOG_ZERO)


class _ForbiddenChildModel(PotentialModel):
    """Uniform over trees, except that one cluster may never be a child."""

    kind = "forbidden-child"

    def __init__(self, n, forbidden):
        self.n = n
        self.forbidden = forbidden

    def _log_psi(self, left, right):
        return LOG_ZERO if self.forbidden in (left, right) else 0.0


class _SortedFlatModel(PotentialModel):
    """Another model's batched psi on each pair flattened and given smaller
    cluster first, the order the base class hands ``_log_psi``."""

    kind = "sorted-flat"

    def __init__(self, inner):
        self.n = inner.n
        self.inner = inner

    def log_psi_pairs(self, lefts, rights):
        lo, hi = np.minimum(lefts, rights).ravel(), np.maximum(lefts, rights).ravel()
        return self.inner.log_psi_pairs(lo, hi).reshape(np.shape(lefts))


class _DeadClusterModel(PotentialModel):
    """Uniform over trees, except that one cluster has no split: Z(dead) = 0."""

    kind = "dead-cluster"

    def __init__(self, n, dead):
        self.n = n
        self.dead = dead

    def _log_psi(self, left, right):
        return LOG_ZERO if left | right == self.dead else 0.0


class _OrderSensitiveModel(PotentialModel):
    """Another model's scalar psi behind a ``_log_psi(a, b)`` that depends
    on argument order: it is off by 3 unless a < b, the order ``log_psi``
    hands it, or a holds the lowest leaf of a | b, the order of the fill's
    splits.  Its batch scores each pair in the order handed, so a caller
    that hands a pair in neither order scores a psi the model never has."""

    kind = "order-sensitive"

    def __init__(self, inner):
        self.n = inner.n
        self.inner = inner

    def _log_psi(self, a, b):
        psi = self.inner._log_psi(min(a, b), max(a, b))
        return psi if a < b or a & (a | b) & -(a | b) else psi - 3.0

    def log_psi_pairs(self, lefts, rights):
        pairs = zip(np.ravel(lefts).tolist(), np.ravel(rights).tolist())
        return np.array([self._log_psi(a, b) for a, b in pairs]).reshape(np.shape(lefts))


class _PairCountingModel(PsiPathModel):
    """``PsiPathModel`` that counts the pairs its batch scores."""

    def __init__(self, inner):
        super().__init__(inner)
        self.pairs = 0

    def log_psi_pairs(self, lefts, rights):
        self.pairs += np.size(lefts)
        return super().log_psi_pairs(lefts, rights)


def reference_outside_pass(trellis):
    """The outside pass as the scatter it was before the gather: levels
    top-down over the fill's scored chunks, each split handing its share
    of the parent's probability to both children with np.logaddexp.at."""
    log_z, n, full = trellis.log_z_table, trellis.ground.n, trellis.ground.full
    log_p = np.full(full + 1, LOG_ZERO)
    log_p[full] = 0.0
    chunks = trellis._scored_chunks(trellis._levels(range(n, 1, -1)), (log_z,))
    with np.errstate(invalid="ignore", over="ignore"):
        for parents, lefts, rights, const, (t,) in chunks:
            above = log_p[parents]  # final: every superset has handed down its share
            # P(P) is -inf wherever Z(P) is, and -inf - -inf would be NaN
            up = np.where(above == LOG_ZERO, LOG_ZERO, above - log_z[parents])
            if const is not None:
                up += const
            t += up[:, None]
            np.logaddexp.at(log_p, lefts, t)
            np.logaddexp.at(log_p, rights, t)
    log_p[1 << np.arange(n)] = 0.0
    return log_p


def assert_cluster_marginals_match(trellis, summary, n):
    """Every non-root, non-singleton cluster marginal against the oracle."""
    trellis.marginal_cluster(full_mask(n))
    assert not np.isnan(trellis._log_p).any()
    for bits in range(1, full_mask(n)):
        if popcount(bits) < 2:
            continue
        expected = summary.marginal(bits)
        value = trellis.marginal_cluster(bits)
        if expected == LOG_ZERO:
            assert value == LOG_ZERO
        else:
            assert value == pytest.approx(expected, abs=1e-9)


def oracle_fragment_marginals(summary, fragments):
    """log P(fragment), per fragment, summing the posterior of every tree
    that holds it."""
    held = [h.children.items() for h in summary.hierarchies()]
    return [
        log_sum_exp(
            lp for items, lp in zip(held, summary.tree_log_potentials)
            if items >= fragment.children.items()
        ) - summary.log_z
        for fragment in fragments
    ]


def test_single_leaf_partition_function():
    trellis = DenseTrellis(GroundSet(1), ConstantModel(1))
    assert trellis.log_partition() == 0.0
    value, tree = trellis.map_hierarchy()
    assert value == 0.0 and tree == Hierarchy(1, {})


def test_constant_model_counts_trees():
    trellis = DenseTrellis(GroundSet(4), ConstantModel(4))
    assert trellis.log_partition() == pytest.approx(math.log(15), abs=1e-12)
    assert trellis.count_trees() == 15


def test_leaf_cap_guard():
    # the cap is where the models' subset tables stop; construction is lazy,
    # so the largest allowed size costs nothing here
    DenseTrellis(GroundSet(DENSE_MAX_LEAVES), ConstantModel(DENSE_MAX_LEAVES))
    for n in (23, 26):
        with pytest.raises(ValueError, match="capped"):
            DenseTrellis(GroundSet(n), ConstantModel(n))


def test_model_ground_mismatch():
    with pytest.raises(ValueError):
        DenseTrellis(GroundSet(4), ConstantModel(5))


class TestOracleEquivalence:
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    @pytest.mark.parametrize("n", range(2, 8))
    def test_z_map_marginals(self, kind, n):
        for seed in range(2):
            model = make_model(kind, n, seed=seed)
            trellis = DenseTrellis(GroundSet(n), model)
            summary = oracle_summary(GroundSet(n), model)
            assert trellis.log_partition() == pytest.approx(summary.log_z, abs=1e-9)
            value, tree = trellis.map_hierarchy()
            assert value == pytest.approx(summary.map_log_potential, abs=1e-9)
            tree.validate(n=n, require_root=full_mask(n))
            unique = (
                summary.tree_log_potentials >= summary.map_log_potential - 1e-12
            ).sum() == 1
            if unique:
                assert tree == summary.map_hierarchy()
            assert_cluster_marginals_match(trellis, summary, n)

    @pytest.mark.parametrize("beta", [50.0, 400.0])
    @pytest.mark.parametrize("cls, weights", [
        (DasguptaModel, random_similarity_weights),
        (CorrelationModel, random_affinity_weights),
    ])
    def test_high_beta_marginals(self, cls, weights, beta):
        # at beta = 400 log marginals fall far below exp's underflow (~-745),
        # so only a log-domain pass keeps them
        model = cls(weights(7, 4), beta=beta)
        trellis = DenseTrellis(GroundSet(7), model)
        assert_cluster_marginals_match(trellis, oracle_summary(GroundSet(7), model), 7)

    def test_posterior_normalizes(self):
        for kind in MODEL_KINDS:
            model = make_model(kind, 6, seed=8)
            trellis = DenseTrellis(GroundSet(6), model)
            summary = oracle_summary(GroundSet(6), model)
            total = np.exp(summary.tree_log_potentials - trellis.log_partition()).sum()
            assert total == pytest.approx(1.0, abs=1e-9)


class TestMap:
    def test_two_leaves(self):
        model = DasguptaModel(PairwiseWeights.from_triples(2, [(0, 1, 0.7)]))
        trellis = DenseTrellis(GroundSet(2), model)
        value, tree = trellis.map_hierarchy()
        assert tree == Hierarchy(0b11, {0b11: (1, 2)})
        assert value == model.log_psi(1, 2)

    def test_value_equals_rescoring_exactly(self):
        for kind in MODEL_KINDS:
            model = make_model(kind, 7, seed=3)
            trellis = DenseTrellis(GroundSet(7), model)
            value, tree = trellis.map_hierarchy()
            assert value == log_hierarchy_potential(tree, model)

    def test_constant_model_any_tree_ties(self):
        trellis = DenseTrellis(GroundSet(5), ConstantModel(5))
        value, tree = trellis.map_hierarchy()
        assert value == 0.0
        tree.validate(n=5, require_root=full_mask(5))

    def test_tie_break_prefers_smallest_left_child(self):
        # Under a constant model every split ties, so every backpointer must
        # record the smallest pivot-containing subset: the pivot singleton.
        trellis = DenseTrellis(GroundSet(5), ConstantModel(5))
        _, tree = trellis.map_hierarchy()
        node = full_mask(5)
        while popcount(node) > 1:
            left, right = tree.children[node]
            assert left == node & -node
            node = right

    def test_degenerate_instance(self):
        trellis = DenseTrellis(GroundSet(4), _ZeroModel(4))
        value, tree = trellis.map_hierarchy()
        assert value == LOG_ZERO
        tree.validate(n=4, require_root=full_mask(4))
        assert trellis.log_partition() == LOG_ZERO
        with pytest.raises(ValueError, match="degenerate"):
            trellis.sample(np.random.default_rng(0))


class TestMemoInvariants:
    @pytest.mark.parametrize("kind", MODEL_KINDS + ("constant",))
    def test_map_never_exceeds_z(self, kind):
        model = make_model(kind, 7, seed=1)
        trellis = DenseTrellis(GroundSet(7), model)
        trellis.log_partition()
        lz, lm = trellis.log_z_table, trellis.log_map_table
        for bits in range(1, 1 << 7):
            assert lm[bits] <= lz[bits]

    def test_fill_publishes_log_z_last(self):
        """A set _log_z is the "filled" test, so it must be assigned after
        every table a reader of a filled trellis indexes."""
        assigned = []

        class Recording(DenseTrellis):
            def __setattr__(self, name, value):
                if value is not None:
                    assigned.append(name)
                super().__setattr__(name, value)

        trellis = Recording(GroundSet(5), make_model("dasgupta", 5, seed=2))
        assigned.clear()
        trellis.log_partition()
        assert assigned[-1] == "_log_z"
        assert {"op_count", "_log_map", "_map_child"} <= set(assigned[:-1])

    def test_singleton_cells(self):
        model = make_model("dasgupta", 5, seed=2)
        trellis = DenseTrellis(GroundSet(5), model)
        trellis.log_partition()
        for i in range(5):
            assert trellis.log_z_table[1 << i] == 0.0
            assert trellis.log_map_table[1 << i] == 0.0

    def test_tree_counts_by_cluster_size(self):
        _, counts = all_tree_counts(12)
        for bits, count in enumerate(counts, start=1):
            assert type(count) is int
            assert count == num_hierarchies(popcount(bits))


def all_tree_counts(n):
    trellis = DenseTrellis(GroundSet(n), ConstantModel(n))
    trellis.count_trees()
    return trellis, [trellis.tree_count_of(bits) for bits in range(1, 1 << n)]


class TestTreeCounts:
    """The dense count table in int64, in Python ints, and against sparse."""

    def test_int64_holds_the_count_through_18_leaves(self):
        assert num_hierarchies(18) <= 2**63 - 1 < num_hierarchies(19)

    def test_python_int_path_matches_int64(self, monkeypatch):
        fixed, expected = all_tree_counts(10)
        assert fixed._counts.dtype == np.int64
        monkeypatch.setattr(hcore, "num_hierarchies", lambda n: 2**63)  # cannot fit
        exact, counts = all_tree_counts(10)
        assert exact._counts.dtype == object
        assert counts == expected
        assert all(type(c) is int for c in counts)
        assert type(exact.count_trees()) is int

    @pytest.mark.parametrize("n", range(1, 9))
    def test_full_sparse_trellis_counts_match(self, n):
        vertices = {
            v: [(left, v ^ left) for left in pivot_splits(v)] if popcount(v) > 1 else []
            for v in range(1, 1 << n)
        }
        sparse = SparseTrellis(GroundSet(n), vertices)
        dense, counts = all_tree_counts(n)
        assert sparse.count_trees() == dense.count_trees() == num_hierarchies(n)
        assert counts == [sparse._counts[sparse._table.ids[v]] for v in range(1, 1 << n)]


@st.composite
def pairwise_models(draw):
    """Dasgupta or correlation scoring over random weights, n = 3..8."""
    n = draw(st.integers(3, 8))
    kind = draw(st.sampled_from(("dasgupta", "correlation")))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    low = 0.0 if kind == "dasgupta" else -1.0  # cut weights / signed affinities
    values = draw(st.lists(st.floats(low, 1.0), min_size=len(pairs), max_size=len(pairs)))
    weights = PairwiseWeights.from_triples(n, [(i, j, v) for (i, j), v in zip(pairs, values)])
    beta = draw(st.floats(0.1, 4.0))
    cls = DasguptaModel if kind == "dasgupta" else CorrelationModel
    return cls(weights, beta=beta)


@st.composite
def ginkgo_models(draw):
    """Ginkgo scoring of a generated jet with a drawn seed, n = 3..8."""
    n = draw(st.integers(3, 8))
    jet = exact_leaf_jet(n, draw(st.integers(0, 2**16)))
    return GinkgoModel(jet.payloads, lam=jet.config.lam)


class TestAnyNIdentities:
    """Identities that hold at every n, so they reach past the oracle's cap."""

    @staticmethod
    def check(model):
        n = model.n
        trellis = DenseTrellis(GroundSet(n), model)
        assert np.all(trellis.log_map_table <= trellis.log_z_table)
        # every hierarchy has exactly n - 2 non-root, non-singleton clusters
        total = math.fsum(
            math.exp(trellis.marginal_cluster(bits))
            for bits in range(1, full_mask(n))
            if popcount(bits) > 1
        )
        assert total == pytest.approx(n - 2, rel=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(pairwise_models())
    def test_random_pairwise_weights(self, model):
        self.check(model)

    @settings(max_examples=25, deadline=None)
    @given(ginkgo_models())
    def test_random_ginkgo_jets(self, model):
        self.check(model)

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_ten_leaves(self, kind):
        self.check(make_model(kind, 10, seed=0))

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_fourteen_leaves(self, kind):
        self.check(make_model(kind, 14, seed=0))

    def test_high_beta_ten_leaves(self):
        self.check(DasguptaModel(random_similarity_weights(10, 0), beta=50.0))

    def test_draw_frequencies_match_marginals(self):
        n, draws = 14, 2000
        trellis = DenseTrellis(GroundSet(n), make_model("ginkgo", n, seed=0))
        hits = Counter(node for h in trellis.sample_many(draws, seed=12) for node in h.children)
        checked = 0
        for bits in range(1, full_mask(n)):
            p = math.exp(trellis.marginal_cluster(bits))
            if popcount(bits) > 1 and p >= 0.01:
                assert binomtest(hits[bits], draws, p).pvalue >= 1e-6, hex(bits)
                checked += 1
        assert checked >= n - 2


class TestOperationCount:
    def test_requires_fill(self):
        trellis = DenseTrellis(GroundSet(3), ConstantModel(3))
        with pytest.raises(ValueError):
            trellis.operation_count()

    def test_two_leaves_single_split(self):
        trellis = DenseTrellis(GroundSet(2), ConstantModel(2))
        trellis.log_partition()
        assert trellis.operation_count() == 1

    @pytest.mark.parametrize("n", range(2, 11))
    def test_matches_closed_form(self, n):
        trellis = DenseTrellis(GroundSet(n), ConstantModel(n))
        trellis.log_partition()
        assert trellis.operation_count() == split_term_count(n)

    def test_growth_ratio_toward_three(self):
        ratios = [split_term_count(n + 1) / split_term_count(n) for n in range(8, 15)]
        assert all(abs(r - 3.0) < 0.12 for r in ratios)
        assert ratios == sorted(ratios, reverse=True)


def reference_fill(model):
    """The fill one parent at a time: log Z, log MAP and MAP left children."""
    size = 1 << model.n
    log_z, log_map = np.zeros(size), np.zeros(size)
    child = np.zeros(size, dtype=np.int64)
    for parent in sorted(range(1, size), key=popcount):
        if popcount(parent) < 2:
            continue
        lefts = np.array(list(pivot_splits(parent)), dtype=np.int64)
        rights = parent ^ lefts
        lp = model.log_psi_pairs(lefts, rights)
        log_z[parent] = log_sum_exp(lp + log_z[lefts] + log_z[rights])
        m_terms = lp + log_map[lefts] + log_map[rights]
        best = 0
        for i in range(1, lefts.size):
            if m_terms[i] > m_terms[best]:  # ties keep the smaller left child
                best = i
        log_map[parent] = m_terms[best]
        child[parent] = lefts[best]
    return log_z, log_map, child


class TestLevelFill:
    """The level-batched fill against a per-parent fill and itself."""

    @staticmethod
    def filled(model):
        trellis = DenseTrellis(GroundSet(model.n), model)
        trellis.log_partition()
        return trellis

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_chunk_size_does_not_change_tables(self, kind, monkeypatch):
        model = make_model(kind, 9, seed=4)
        default = self.filled(model)
        for chunk in (1, 1 << 30):
            monkeypatch.setattr(htrellis, "FILL_CHUNK_TERMS", chunk)
            other = self.filled(model)
            assert np.array_equal(other.log_map_table, default.log_map_table)
            assert np.array_equal(other._map_child, default._map_child)
            assert other.op_count == default.op_count == split_term_count(9)
            np.testing.assert_allclose(
                other.log_z_table, default.log_z_table, rtol=0, atol=1e-12
            )

    def test_chunk_size_does_not_change_counts(self, monkeypatch):
        _, default = all_tree_counts(9)
        for chunk in (1, 1 << 30):
            monkeypatch.setattr(htrellis, "FILL_CHUNK_TERMS", chunk)
            assert all_tree_counts(9)[1] == default

    @pytest.mark.parametrize("kind", MODEL_KINDS + ("forbidden-child",))
    def test_matches_per_parent_reference(self, kind):
        """The psi path bit for bit; ``TestSeparableFill`` holds the
        separable one to it."""
        if kind == "forbidden-child":  # every cell holding leaf 0 sums only -inf
            model = _ForbiddenChildModel(9, forbidden=1)
        else:
            model = PsiPathModel(make_model(kind, 9, seed=2))
        trellis = self.filled(model)
        log_z, log_map, child = reference_fill(model)
        assert np.array_equal(trellis.log_map_table, log_map)
        assert np.array_equal(trellis._map_child, child)
        assert not np.isnan(trellis.log_z_table).any()
        assert np.array_equal(np.isneginf(trellis.log_z_table), np.isneginf(log_z))
        finite = np.isfinite(log_z)
        np.testing.assert_allclose(
            trellis.log_z_table[finite], log_z[finite], rtol=0, atol=1e-12
        )
        if kind == "forbidden-child":  # all -inf rows, whose shift must not give NaN
            assert np.isneginf(log_z).any()

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_scalar_only_model(self, kind):
        """A model with only ``_log_psi`` runs the fill, the outside pass and
        the draws on the base class's batching."""
        inner = make_model(kind, 8, seed=3)
        model = ScalarOnlyModel(inner)
        trellis = self.filled(model)
        log_z, log_map, child = reference_fill(model)
        assert np.array_equal(trellis.log_map_table, log_map)
        assert np.array_equal(trellis._map_child, child)
        np.testing.assert_allclose(trellis.log_z_table, log_z, rtol=0, atol=1e-12)
        # scalar psi equals batched psi on sorted pairs bit for bit, so
        # every table and draw equals the flat batched engine's
        flat = self.filled(_SortedFlatModel(inner))
        for table in ("log_z_table", "log_map_table", "_map_child"):
            assert np.array_equal(getattr(trellis, table), getattr(flat, table))
        assert np.array_equal(trellis._log_marginals(), flat._log_marginals())
        assert trellis.sample_many(300, seed=8) == flat.sample_many(300, seed=8)


def assert_near(got, expected):
    """Equal to 1e-12 * max(1, |expected|) per cell, -inf cells alike, no NaN."""
    assert not np.isnan(got).any() and not np.isnan(expected).any()
    assert np.array_equal(np.isneginf(got), np.isneginf(expected))
    finite = np.isfinite(expected)
    error = np.abs(got[finite] - expected[finite])
    assert np.all(error <= 1e-12 * np.maximum(1.0, np.abs(expected[finite])))


class TestSeparableFill:
    """Dasgupta and correlation score splits from per-cluster terms; the
    fill, the outside pass and the draw weights equal those of the psi
    path, which calls log_psi_pairs per split, to rounding."""

    @staticmethod
    def assert_matches_psi_path(model, psi_model):
        sep, ref = (DenseTrellis(GroundSet(model.n), m) for m in (model, psi_model))
        assert_near(sep.log_z_table, ref.log_z_table)
        assert_near(sep.log_map_table, ref.log_map_table)
        assert_near(sep._log_marginals(), ref._log_marginals())
        # a backpointer may move only between tied splits: the new one
        # scores the psi path's maximum
        moved = np.flatnonzero(sep._map_child != ref._map_child)
        lefts = sep._map_child[moved]
        best = ref.log_map_table
        score = model.log_psi_pairs(lefts, moved ^ lefts) + best[lefts] + best[moved ^ lefts]
        assert_near(score, best[moved])
        for level in sep._levels():
            assert_near(*(np.concatenate([cum for _, _, cum in t._split_cums(level)])
                          for t in (sep, ref)))
        return sep, ref

    @pytest.mark.parametrize("kind", ("dasgupta", "correlation"))
    @pytest.mark.parametrize("n", (10, 12, 14))
    def test_matches_psi_path(self, kind, n):
        model = make_model(kind, n, seed=n)
        # scalar psi batched by the base class is the flat batched psi bit
        # for bit (TestLevelFill), and it is slow, so it runs at n = 10
        self.assert_matches_psi_path(model, (ScalarOnlyModel if n == 10 else PsiPathModel)(model))

    @pytest.mark.parametrize("cls", (DasguptaModel, CorrelationModel))
    def test_overflowing_beta_takes_the_psi_path(self, cls):
        weights = random_similarity_weights(7, 4)
        model = cls(weights, beta=1e307)  # beta * n * W(full) overflows
        sep, ref = (DenseTrellis(GroundSet(7), m) for m in (model, PsiPathModel(model)))
        # psi itself overflows to -inf, with no warning
        for table in ("log_z_table", "log_map_table", "_map_child"):
            assert np.array_equal(getattr(sep, table), getattr(ref, table))
            assert not np.isnan(getattr(sep, table)).any()
        if sep.log_partition() > LOG_ZERO:  # Dasgupta's is zero: every cut overflows
            assert np.array_equal(sep._log_marginals(), ref._log_marginals())

    @pytest.mark.parametrize("cls", (DasguptaModel, CorrelationModel))
    def test_terms_near_overflow_give_no_nan(self, cls):
        model = cls(random_similarity_weights(7, 4), beta=1e300)
        assert model.separable_terms() is not None  # terms near 1e302
        sep, ref = (DenseTrellis(GroundSet(7), m) for m in (model, PsiPathModel(model)))
        assert_near(sep.log_z_table, ref.log_z_table)
        assert_near(sep.log_map_table, ref.log_map_table)
        # marginals here are differences of values near 1e302, rounding
        # noise on both paths, so only their NaN-freedom is checked
        assert not np.isnan(sep._log_marginals()).any()
        for level in sep._levels():
            assert not any(np.isnan(cum).any() for _, _, cum in sep._split_cums(level))

    def test_fill_holds_two_extra_tables(self):
        """The level's (h, c) become table + h for log Z and log MAP, not
        two more tables beside them."""
        n = 16
        model = make_model("dasgupta", n, seed=1)
        peaks = []
        for m in (model, PsiPathModel(model)):
            trellis = DenseTrellis(GroundSet(n), m)
            tracemalloc.start()
            try:
                trellis.log_partition()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] - peaks[1] <= 2 * (8 << n)


class TestOutsidePass:
    """The gather against the scatter it replaced (``reference_outside_pass``)."""

    @pytest.mark.parametrize("kind", ("constant",) + MODEL_KINDS)
    @pytest.mark.parametrize("n", (10, 13))
    def test_matches_scatter(self, kind, n):
        trellis = DenseTrellis(GroundSet(n), make_model(kind, n, seed=n))
        assert_near(trellis._log_marginals(), reference_outside_pass(trellis))

    def test_dead_cluster_matches_scatter(self):
        trellis = DenseTrellis(GroundSet(8), _DeadClusterModel(8, 0b00111000))
        log_p = trellis._log_marginals()
        assert log_p[0b00111000] == LOG_ZERO
        assert_near(log_p, reference_outside_pass(trellis))

    @pytest.mark.parametrize("cls", (DasguptaModel, CorrelationModel))
    def test_terms_near_overflow_match_scatter(self, cls):
        """At beta = 1e300 every marginal is a difference of values near
        |log Z| ~ 1e301, rounding noise on both passes (marginal queries
        refuse them), so the two agree only to a few float steps of log Z."""
        trellis = DenseTrellis(GroundSet(7), cls(random_similarity_weights(7, 4), beta=1e300))
        got, expected = trellis._log_marginals(), reference_outside_pass(trellis)
        assert not np.isnan(got).any()
        assert np.array_equal(np.isneginf(got), np.isneginf(expected))
        finite = np.isfinite(expected)
        step = np.spacing(abs(trellis.log_partition()))
        assert np.all(np.abs(got[finite] - expected[finite]) <= 4 * step)

    def test_scores_every_ordered_pair_once(self):
        """Each cluster C of 2..n-1 leaves scores one pair per nonempty S
        outside it: 3^n - 2^(n+1) - n 2^(n-1) + n + 1 pairs in all."""
        n = 8
        model = _PairCountingModel(make_model("ginkgo", n, seed=2))
        trellis = DenseTrellis(GroundSet(n), model)
        trellis.log_partition()
        model.pairs = 0
        trellis._log_marginals()
        assert model.pairs == 3**n - 2 ** (n + 1) - n * 2 ** (n - 1) + n + 1

    def test_pairs_arrive_smaller_cluster_first(self):
        """psi runs on (C, S) and (S, C) alike; it is handed the smaller
        first, as ``log_psi`` orders them, so a model whose scalar psi
        depends on argument order still matches the oracle."""
        n = 6
        model = _OrderSensitiveModel(make_model("correlation", n, seed=3))
        trellis = DenseTrellis(GroundSet(n), model)
        assert_cluster_marginals_match(trellis, oracle_summary(GroundSet(n), model), n)


class TestMarginals:
    def test_full_set_and_singletons_are_certain(self):
        model = make_model("dasgupta", 5, seed=7)
        trellis = DenseTrellis(GroundSet(5), model)
        assert trellis.marginal_cluster(full_mask(5)) == 0.0
        for i in range(5):
            assert trellis.marginal_cluster(1 << i) == 0.0

    def test_three_leaves_two_cluster_marginals_sum_to_one(self):
        for kind in MODEL_KINDS:
            model = make_model(kind, 3, seed=5)
            trellis = DenseTrellis(GroundSet(3), model)
            total = sum(
                math.exp(trellis.marginal_cluster(0b111 ^ (1 << k))) for k in range(3)
            )
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_constant_model_closed_form(self):
        # under a uniform posterior a k-leaf cluster sits in (2k-3)!! trees on
        # itself times (2(n-k)-1)!! trees on the rest with C contracted to a
        # leaf, out of (2n-3)!!; this reaches past the oracle's sizes
        n = 14

        def double_factorial(m):
            return math.prod(range(m, 0, -2))

        trellis = DenseTrellis(GroundSet(n), ConstantModel(n))
        total = double_factorial(2 * n - 3)
        for bits in range(1, full_mask(n)):
            k = popcount(bits)
            if k < 2:
                continue
            expected = double_factorial(2 * k - 3) * double_factorial(2 * (n - k) - 1) / total
            got = math.exp(trellis.marginal_cluster(bits))
            assert got == pytest.approx(expected, rel=1e-12, abs=0), bits

    def test_zero_probability_cluster_is_exact_zero(self):
        model = _ForbiddenChildModel(5, 0b00110)
        trellis = DenseTrellis(GroundSet(5), model)
        assert_cluster_marginals_match(trellis, oracle_summary(GroundSet(5), model), 5)
        assert trellis.marginal_cluster(0b00110) == LOG_ZERO
        fragment = Hierarchy(0b00110, {0b00110: (0b00010, 0b00100)})
        assert trellis.marginal_subhierarchy(fragment) == LOG_ZERO

    def test_cluster_without_splits(self):
        # Z(dead) = 0 while Z(X) > 0: the outside pass must hand such a
        # parent -inf, not -inf - -inf = NaN
        dead = 0b000111
        model = _DeadClusterModel(6, dead)
        trellis = DenseTrellis(GroundSet(6), model)
        assert trellis.log_z_table[dead] == LOG_ZERO
        assert trellis.log_partition() > LOG_ZERO
        assert_cluster_marginals_match(trellis, oracle_summary(GroundSet(6), model), 6)
        assert trellis.marginal_cluster(dead) == LOG_ZERO
        fragment = Hierarchy(dead, {dead: (0b001, 0b110), 0b110: (0b010, 0b100)})
        assert trellis.marginal_subhierarchy(fragment) == LOG_ZERO

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    @pytest.mark.parametrize("n", [6, 7])
    def test_every_subtree_of_map_and_draws(self, kind, n):
        model = make_model(kind, n, seed=9)
        trellis = DenseTrellis(GroundSet(n), model)
        summary = oracle_summary(GroundSet(n), model)
        trees = [trellis.map_hierarchy()[1], *trellis.sample_many(20, seed=(3, n))]
        fragments = list({
            Hierarchy(node, {p: pair for p, pair in tree.children.items() if p | node == node})
            for tree in trees
            for node in tree.children
            if node != tree.root
        })
        for fragment, expected in zip(fragments, oracle_fragment_marginals(summary, fragments)):
            assert trellis.marginal_subhierarchy(fragment) == pytest.approx(expected, abs=1e-9)
        for i in range(n):
            assert trellis.marginal_subhierarchy(Hierarchy(1 << i, {})) == 0.0

    def test_rejects_bad_cluster(self):
        trellis = DenseTrellis(GroundSet(3), ConstantModel(3))
        with pytest.raises(ValueError):
            trellis.marginal_cluster(0)
        with pytest.raises(ValueError):
            trellis.marginal_cluster(1 << 5)

    def test_full_hierarchy_fragment(self):
        model = make_model("ginkgo", 5, seed=13)
        trellis = DenseTrellis(GroundSet(5), model)
        _, tree = trellis.map_hierarchy()
        expected = log_hierarchy_potential(tree, model) - trellis.log_partition()
        assert trellis.marginal_subhierarchy(tree) == pytest.approx(expected, abs=1e-9)

    def test_two_cluster_fragment_equals_cluster_marginal(self):
        model = make_model("correlation", 5, seed=11)
        trellis = DenseTrellis(GroundSet(5), model)
        bits = 0b00101
        fragment = Hierarchy(bits, {bits: (0b001, 0b100)})
        assert trellis.marginal_subhierarchy(fragment) == pytest.approx(
            trellis.marginal_cluster(bits), abs=1e-12
        )

    def test_full_hierarchy_posteriors_match_oracle(self):
        for kind in MODEL_KINDS:
            model = make_model(kind, 5, seed=14)
            trellis = DenseTrellis(GroundSet(5), model)
            summary = oracle_summary(GroundSet(5), model)
            for h in trellis.sample_many(10, seed=1):
                assert trellis.marginal_subhierarchy(h) == pytest.approx(
                    summary.log_posterior(h), abs=1e-9
                )

    def test_degenerate_instance_rejects_marginals(self):
        # a spacelike leaf zeroes every hierarchy (each leaf ends up as a
        # singleton child somewhere), so marginal queries must refuse
        jet = exact_leaf_jet(5, 31)
        payloads = list(jet.payloads)
        from hctrellis import FourVector

        payloads[0] = FourVector(1.0, 5.0, 0.0, 0.0)
        model = GinkgoModel(payloads, lam=1.5)
        trellis = DenseTrellis(GroundSet(5), model)
        assert trellis.log_partition() == LOG_ZERO
        with pytest.raises(ValueError, match="degenerate"):
            trellis.marginal_cluster(0b00011)
        with pytest.raises(ValueError, match="degenerate"):
            trellis.marginal_subhierarchy(Hierarchy(0b00011, {0b00011: (1, 2)}))

    def test_fragment_against_oracle(self):
        for kind in MODEL_KINDS:
            model = make_model(kind, 5, seed=6)
            trellis = DenseTrellis(GroundSet(5), model)
            summary = oracle_summary(GroundSet(5), model)
            bits = 0b10011
            fragment = Hierarchy(bits, {bits: (0b00011, 0b10000), 0b00011: (1, 2)})
            [expected] = oracle_fragment_marginals(summary, [fragment])
            assert trellis.marginal_subhierarchy(fragment) == pytest.approx(expected, abs=1e-9)


class TestSampling:
    def test_deterministic_given_seed(self):
        model = make_model("ginkgo", 6, seed=21)
        trellis = DenseTrellis(GroundSet(6), model)
        first = [h.signature() for h in trellis.sample_many(50, seed=99)]
        second = [h.signature() for h in trellis.sample_many(50, seed=99)]
        assert first == second
        assert first != [h.signature() for h in trellis.sample_many(50, seed=100)]

    def test_single_leaf(self):
        trellis = DenseTrellis(GroundSet(1), ConstantModel(1))
        assert trellis.sample(np.random.default_rng(0)) == Hierarchy(1, {})

    @staticmethod
    def assert_spent(rng, seed, uniforms):
        """``rng`` stands where ``uniforms`` successive draws from ``seed`` leave it."""
        reference = np.random.default_rng(seed)
        reference.random(uniforms)
        assert rng.random() == reference.random()

    @pytest.mark.parametrize("n", [1, 2, 3, 7])
    def test_one_at_a_time_matches_batch(self, n):
        trellis = DenseTrellis(GroundSet(n), make_model("ginkgo", n, seed=3))
        rng = np.random.default_rng(41)
        singles = [trellis.sample(rng) for _ in range(25)]
        self.assert_spent(rng, 41, 25 * (n - 1))
        batch_rng = np.random.default_rng(41)
        assert trellis.sample_many(25, batch_rng) == singles
        self.assert_spent(batch_rng, 41, 25 * (n - 1))
        for h in [*singles, trellis.map_hierarchy()[1]]:  # children inserted in preorder
            assert list(h.children) == [v for v in h.preorder() if popcount(v) > 1]

    def test_small_ground_sets(self):
        one = DenseTrellis(GroundSet(1), ConstantModel(1)).sample_many(3, seed=0)
        assert one == [Hierarchy(1, {})] * 3
        two = DenseTrellis(GroundSet(2), make_model("dasgupta", 2, seed=0)).sample_many(3, seed=0)
        assert two == [Hierarchy(3, {3: (1, 2)})] * 3

    def test_batch_split_across_draw_chunks(self, monkeypatch):
        trellis = DenseTrellis(GroundSet(8), make_model("correlation", 8, seed=6))
        whole = trellis.sample_many(10, seed=2)
        monkeypatch.setattr(htrellis, "SAMPLE_CHUNK_DRAWS", 3)
        fresh = DenseTrellis(GroundSet(8), make_model("correlation", 8, seed=6))
        assert fresh.sample_many(10, seed=2) == whole
        assert [list(h.children) for h in fresh.sample_many(10, seed=2)] == [list(h.children) for h in whole]

    def test_zero_draws_spend_no_uniform(self):
        trellis = DenseTrellis(GroundSet(5), make_model("ginkgo", 5, seed=1))
        rng = np.random.default_rng(8)
        assert trellis.sample_many(0, rng) == []
        self.assert_spent(rng, 8, 0)

    def test_negative_count_rejected(self):
        trellis = DenseTrellis(GroundSet(5), make_model("ginkgo", 5, seed=1))
        with pytest.raises(ValueError, match="nonnegative"):
            trellis.sample_many(-3, 0)

    def test_degenerate_raises_before_drawing(self):
        trellis = DenseTrellis(GroundSet(4), _ZeroModel(4))
        rng = np.random.default_rng(8)
        with pytest.raises(ValueError, match="degenerate posterior"):
            trellis.sample_many(5, rng)
        with pytest.raises(ValueError, match="degenerate posterior"):
            trellis.sample(rng)
        self.assert_spent(rng, 8, 0)

    def test_split_terms_past_the_float_range_draw_clean(self):
        """With log Z finite, some split terms psi * Z(L) * Z(R) of a drawn
        vertex still pass the float range: they are -inf, with no warning,
        and every draw joins the two heavy pairs first."""
        weights = PairwiseWeights.from_triples(7, [(0, 1, 5.0), (2, 3, 5.0)])
        trellis = DenseTrellis(GroundSet(7), DasguptaModel(weights, beta=5e306))
        assert math.isfinite(trellis.log_partition())
        for h in trellis.sample_many(50, 0):
            assert 0b0011 in h.children and 0b1100 in h.children

    def test_threads_drawing_from_one_trellis(self):
        """Threads sharing a trellis read its filled tables and write nothing
        to it; each must still get the draws it would get alone.  In the
        first round the threads also race on the fill."""
        n, seeds = 10, range(8)
        model = make_model("ginkgo", n, seed=2)
        expected = [DenseTrellis(GroundSet(n), model).sample_many(100, seed=s) for s in seeds]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for round_ in range(3):
                shared = DenseTrellis(GroundSet(n), model)
                if round_:
                    shared.log_partition()
                results = {}

                def work(s):
                    results[s] = shared.sample_many(100, seed=s)

                threads = [threading.Thread(target=work, args=(s,)) for s in seeds]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                assert [results[s] for s in seeds] == expected
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_each_distribution_is_built_once(self, kind):
        """Each sample_many call scores exactly the splits of the distinct
        non-singleton nodes it visits, each node once."""
        n = 10
        trellis = DenseTrellis(GroundSet(n), make_model(kind, n, seed=4))
        trellis.log_partition()
        terms = []
        scored_chunks = trellis._scored_chunks

        def counting(levels, tables):
            for chunk in scored_chunks(levels, tables):
                terms.append(chunk[1].size)
                yield chunk

        trellis._scored_chunks = counting
        for count, seed in ((300, 1), (300, 1), (700, 2)):
            terms.clear()
            visited = {v for h in trellis.sample_many(count, seed) for v in h.children}
            assert sum(terms) == sum((1 << (popcount(v) - 1)) - 1 for v in visited)

    @pytest.mark.parametrize("kind", ("dasgupta", "constant"))
    def test_split_weights_stay_in_chunks(self, kind):
        """A size pass builds and searches its split weights one chunk of
        distinct vertices at a time, not as one (vertices x splits) block
        (1820 x 2047 doubles, 28 MiB, here)."""
        n = 16
        trellis = DenseTrellis(GroundSet(n), make_model(kind, n, seed=1))
        trellis.log_partition()
        rng = np.random.default_rng(0)
        vertices = rng.choice(next(trellis._levels([12])), 2000)
        u = rng.random(vertices.size)
        tracemalloc.start()
        try:
            lefts = trellis._pick_lefts(vertices, u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all((lefts & ~vertices) == 0) and np.all(np.bitwise_count(lefts) < 12)
        # two cluster tables of separable terms, chunk blocks of
        # FILL_CHUNK_TERMS doubles and per-draw arrays
        assert peak < 2 * (8 << n) + 8 * 8 * htrellis.FILL_CHUNK_TERMS

    @pytest.mark.parametrize("k", (3, 6, 10))
    def test_pick_rule_matches_scalar_reference(self, k):
        """Each pick equals a per-vertex rebuild from scalar psi over
        pivot_splits: Ginkgo takes the psi path, whose block terms are
        log psi + Z[left] + Z[right] in that order, so they agree bit for
        bit."""
        n = 10
        model = make_model("ginkgo", n, seed=3)
        trellis = DenseTrellis(GroundSet(n), model)
        z = trellis.log_z_table
        rng = np.random.default_rng(k)
        vertices = rng.choice(next(trellis._levels([k])), 500)
        u = rng.random(vertices.size)
        expected = {}
        for v in np.unique(vertices).tolist():
            lefts = list(pivot_splits(v))
            t = np.array([model.log_psi(l, v ^ l) + z[l] + z[v ^ l] for l in lefts])
            expected[v] = lefts, np.cumsum(np.exp(t - t.max()))
        picks = []
        for v, x in zip(vertices.tolist(), u.tolist()):
            lefts, cum = expected[v]
            picks.append(lefts[min(np.searchsorted(cum, x * cum[-1], "right"), len(lefts) - 1)])
        assert trellis._pick_lefts(vertices, u).tolist() == picks

    def test_sampling_leaves_no_state(self):
        """Draws only read the filled trellis, so sharing it needs no lock."""
        trellis = DenseTrellis(GroundSet(9), make_model("ginkgo", 9, seed=4))
        trellis.log_partition()
        before = dict(vars(trellis))
        trellis.sample_many(300, seed=1)
        trellis.sample(np.random.default_rng(2))
        after = vars(trellis)
        assert after.keys() == before.keys()
        assert all(after[key] is value for key, value in before.items())

    def test_samples_are_valid(self):
        model = make_model("correlation", 5, seed=17)
        trellis = DenseTrellis(GroundSet(5), model)
        for h in trellis.sample_many(200, seed=4):
            h.validate(n=5, require_root=full_mask(5))

    def test_small_instance_frequencies(self):
        model = make_model("dasgupta", 3, seed=2)
        trellis = DenseTrellis(GroundSet(3), model)
        summary = oracle_summary(GroundSet(3), model)
        draws = trellis.sample_many(30_000, seed=11)
        from collections import Counter

        counts = Counter(h.signature() for h in draws)
        for sig, log_p in summary.posterior_table().items():
            assert counts.get(sig, 0) / 30_000 == pytest.approx(
                math.exp(log_p), abs=0.02
            )


class TestFrozenOutputs:
    """Seeded draws and MAP results hash to digests recorded on the engine
    before the top-down walks were shared, so a change to a split rule, the
    visiting order or the uniforms a draw consumes shows."""

    @pytest.mark.parametrize("kind, n, draws, best", [
        ("constant", 6, "bf13dbf15fca8941", "5c4c5a299e9f6e21"),
        ("constant", 9, "ed0a5e58d40e6d6f", "c7c757b110583e3f"),
        ("dasgupta", 6, "bd4c8e5108fadd2f", "56ba41436590a45a"),
        ("dasgupta", 9, "542346bc666a9cc6", "0277810f08182789"),
        ("correlation", 6, "4df6ea452cc32144", "928b83d26a6b83e2"),
        ("correlation", 9, "d5007bf088218e94", "fba48e0225e2c8d1"),
        ("ginkgo", 6, "3b3e09ea157d700a", "8bf5957b7c996e28"),
        ("ginkgo", 9, "d14b6f49878f5bef", "9e6c58fc03ad9425"),
    ])
    def test_digest(self, kind, n, draws, best):
        trellis = DenseTrellis(GroundSet(n), make_model(kind, n, seed=5))
        assert output_digest(*trellis.sample_many(200, seed=(7, n))) == draws
        assert output_digest(*trellis.map_hierarchy()) == best

    @pytest.mark.parametrize("kind, draws", [
        ("ginkgo", "9ae39de3dc2a90c3"),
        ("dasgupta", "05adc9b32939cd0e"),
        ("correlation", "9a075fd697a7359a"),
    ])
    def test_digest_fourteen_leaves(self, kind, draws):
        trellis = DenseTrellis(GroundSet(14), make_model(kind, 14, seed=5))
        assert output_digest(*trellis.sample_many(2000, seed=(7, 14))) == draws

    # ids name the instance only, so re-recording a digest renames no test
    @pytest.mark.parametrize("kind, n, tables, marginals", [
        pytest.param(kind, n, tables, marginals, id=f"{kind}-{n}")
        for kind, n, tables, marginals in [
            ("constant", 9, "ab6d2ebb7dc42617", "0dfcf225f020d7dd"),
            ("constant", 12, "2aef2eef1b639ce8", "bf452d6fb6dbbd50"),
            ("ginkgo", 9, "e23901d742d55a1c", "ba74c095065f5a58"),
            ("ginkgo", 12, "36256d88a5ce5fc8", "028d42ff3a9c94dd"),
            ("dasgupta", 9, "fdb09d839cda8740", "3bfda6e02b844523"),
            ("dasgupta", 12, "29aa0d30bab4baa1", "5a212b09b880e751"),
            ("correlation", 9, "26dd3dfa2eb226f8", "f38a87cb890af9db"),
            ("correlation", 12, "c628dbdbd5fddb79", "8f2ca1268b1ae823"),
        ]
    ])
    def test_table_digest(self, kind, n, tables, marginals):
        """Every cell of the fill tables (log Z, log MAP, the backpointers)
        and, separately, of the cluster marginals, bit for bit.  Ginkgo's
        fill tables were recorded before the fill scored 2-D blocks,
        constant's before the fill took separable terms, and Dasgupta's
        and correlation's when it did: their cells moved by rounding only
        (TestSeparableFill).  The marginals were recorded when the outside
        pass became a gather; they moved from the scatter's by rounding
        only, at most 3.8e-15 relative (TestOutsidePass)."""
        trellis = DenseTrellis(GroundSet(n), make_model(kind, n, seed=5))
        fill = output_digest(trellis.log_z_table, trellis.log_map_table, trellis._map_child)
        assert fill == tables
        assert output_digest(trellis._log_marginals()) == marginals
