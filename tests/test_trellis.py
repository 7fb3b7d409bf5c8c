import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    log_hierarchy_potential,
    num_hierarchies,
    oracle_summary,
    split_term_count,
)
from hctrellis.core import full_mask, popcount

from conftest import MODEL_KINDS, exact_leaf_jet, make_model


class _ZeroModel(PotentialModel):
    """Every split has zero potential: the degenerate instance."""

    kind = "zero"

    def __init__(self, n):
        self.n = n

    def _log_psi(self, left, right):
        return LOG_ZERO

    def log_psi_pairs(self, lefts, rights):
        return np.full(len(lefts), LOG_ZERO)


class _ForbiddenChildModel(PotentialModel):
    """Uniform over trees, except that one cluster may never be a child."""

    kind = "forbidden-child"

    def __init__(self, n, forbidden):
        self.n = n
        self.forbidden = forbidden

    def _log_psi(self, left, right):
        return LOG_ZERO if self.forbidden in (left, right) else 0.0


def assert_cluster_marginals_match(trellis, summary, n):
    """Every non-root, non-singleton cluster marginal against the oracle."""
    for bits in range(1, full_mask(n)):
        if popcount(bits) < 2:
            continue
        expected = summary.marginal(bits)
        value = trellis.marginal_cluster(bits)
        if expected == LOG_ZERO:
            assert value == LOG_ZERO
        else:
            assert value == pytest.approx(expected, abs=1e-9)


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
            trellis.sample_hierarchy(0)


class TestMemoInvariants:
    @pytest.mark.parametrize("kind", MODEL_KINDS + ("constant",))
    def test_map_never_exceeds_z(self, kind):
        model = make_model(kind, 7, seed=1)
        trellis = DenseTrellis(GroundSet(7), model)
        trellis.log_partition()
        lz, lm = trellis.log_z_table, trellis.log_map_table
        for bits in range(1, 1 << 7):
            assert lm[bits] <= lz[bits]

    def test_singleton_cells(self):
        model = make_model("dasgupta", 5, seed=2)
        trellis = DenseTrellis(GroundSet(5), model)
        trellis.log_partition()
        for i in range(5):
            assert trellis.log_z_table[1 << i] == 0.0
            assert trellis.log_map_table[1 << i] == 0.0

    def test_tree_counts_by_cluster_size(self):
        trellis = DenseTrellis(GroundSet(6), ConstantModel(6))
        trellis.count_trees()
        for bits in range(1, 1 << 6):
            assert trellis.tree_count_of(bits) == num_hierarchies(popcount(bits))


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

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_ten_leaves(self, kind):
        self.check(make_model(kind, 10, seed=0))


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

    def test_zero_probability_cluster_is_exact_zero(self):
        model = _ForbiddenChildModel(5, 0b00110)
        trellis = DenseTrellis(GroundSet(5), model)
        assert_cluster_marginals_match(trellis, oracle_summary(GroundSet(5), model), 5)
        assert trellis.marginal_cluster(0b00110) == LOG_ZERO
        fragment = Hierarchy(0b00110, {0b00110: (0b00010, 0b00100)})
        assert trellis.marginal_subhierarchy(fragment) == LOG_ZERO

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
            containing = [
                math.exp(lp)
                for h, lp in (
                    (hh, summary.log_posterior(hh)) for hh in summary.hierarchies()
                )
                if all(
                    h.children.get(p) == pair for p, pair in fragment.children.items()
                )
            ]
            assert trellis.marginal_subhierarchy(fragment) == pytest.approx(
                math.log(sum(containing)), abs=1e-9
            )


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
        assert trellis.sample_hierarchy(0) == Hierarchy(1, {})

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


class TestContraction:
    def test_marginal_reuses_model_payload_semantics(self):
        # The merged cluster must be scored on its underlying leaf set: for
        # mass-based scoring this is detectable because a merged leaf of two
        # real leaves carries their summed vector.
        jet = exact_leaf_jet(5, 3)
        model = GinkgoModel(jet.payloads, lam=jet.config.lam)
        trellis = DenseTrellis(GroundSet(5), model)
        summary = oracle_summary(GroundSet(5), model)
        for bits in [0b00011, 0b10100, 0b01110]:
            assert trellis.marginal_cluster(bits) == pytest.approx(
                summary.marginal(bits), abs=1e-9
            )
