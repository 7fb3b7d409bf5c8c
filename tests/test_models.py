import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from hctrellis import (
    ConstantModel,
    CorrelationModel,
    DasguptaModel,
    DenseTrellis,
    FourVector,
    GinkgoModel,
    GroundSet,
    Hierarchy,
    JetConfig,
    LOG_ZERO,
    ModelParams,
    PairwiseWeights,
    log_hierarchy_potential,
    log_splitting_density,
)
from hctrellis.core import pivot_splits, pivot_splits_array, full_mask
from hctrellis.datasets import random_affinity_weights, random_similarity_weights
from hctrellis.models import (
    KINEMATIC_TOL,
    TABLE_MAX_LEAVES,
    _mass2,
    _SubsetMass2,
    _SubsetPairSums,
)

from conftest import MODEL_KINDS, ScalarOnlyModel, exact_leaf_jet, make_model

NONFINITE = [math.nan, math.inf, -math.inf]

A, B, C, D = 1, 2, 4, 8


class TestPairwiseWeights:
    def test_from_triples(self):
        w = PairwiseWeights.from_triples(3, [(0, 1, 0.5), (1, 2, -0.25)])
        assert w.w[1, 0] == 0.5 and w.w[2, 1] == -0.25 and w.w[0, 2] == 0.0

    def test_rejects_asymmetric(self):
        m = np.zeros((2, 2))
        m[0, 1] = 1.0
        with pytest.raises(ValueError):
            PairwiseWeights(m)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="weight matrix must be square"):
            PairwiseWeights(np.zeros((2, 3)))

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError):
            PairwiseWeights(np.eye(3))

    def test_rejects_duplicate_triples(self):
        with pytest.raises(ValueError):
            PairwiseWeights.from_triples(3, [(0, 1, 0.5), (0, 1, 0.5)])

    def test_rejects_bad_indices(self):
        with pytest.raises(ValueError):
            PairwiseWeights.from_triples(3, [(1, 0, 0.5)])

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_nonfinite_weights(self, bad):
        # NaN used to reach only the symmetry check; inf filled to log_z = nan
        with pytest.raises(ValueError, match="weights must be finite"):
            PairwiseWeights.from_triples(3, [(0, 1, bad)])


def _uniform_weights(n: int, value: float) -> np.ndarray:
    w = np.full((n, n), value)
    np.fill_diagonal(w, 0.0)
    return w


def _scaled_jet(n: int, energy: float) -> np.ndarray:
    """A generated jet's four-vectors scaled so its largest leaf energy is
    ``energy``; the scaling keeps every split's mass ratios."""
    rows = np.array([p.as_tuple() for p in exact_leaf_jet(n, 101).payloads])
    return rows * (energy / rows[:, 0].max())


class TestDasgupta:
    def test_unit_pair(self):
        model = DasguptaModel(PairwiseWeights.from_triples(2, [(0, 1, 1.0)]))
        assert model.log_psi(A, B) == -2.0

    def test_zero_weight_pair(self):
        model = DasguptaModel(PairwiseWeights.from_triples(2, []))
        assert model.log_psi(A, B) == 0.0

    def test_two_against_one(self):
        model = DasguptaModel(
            PairwiseWeights.from_triples(3, [(0, 2, 0.5), (1, 2, 0.25)])
        )
        assert model.log_psi(A | B, C) == pytest.approx(-3 * 0.75, abs=1e-12)

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            DasguptaModel(PairwiseWeights.from_triples(2, [(0, 1, -1.0)]))

    def test_rejects_beta_whose_scale_overflows(self):
        # beta * |P| = inf times a zero cut made psi, and log Z, NaN
        weights = PairwiseWeights.from_triples(3, [(0, 1, 1.0)])
        with pytest.raises(ValueError, match="overflows"):
            DasguptaModel(weights, beta=1e308)
        assert DasguptaModel(weights, beta=5e307).log_psi(A, C) == 0.0

    def test_rejects_pair_weights_whose_sum_overflows(self):
        # six pair weights of 1e308 summed to inf in the table: log Z was NaN
        with pytest.raises(ValueError, match="float range"):
            DasguptaModel(PairwiseWeights(_uniform_weights(4, 1e308)))

    def test_accepts_pair_weights_whose_sum_is_finite(self):
        model = DasguptaModel(PairwiseWeights(_uniform_weights(4, 1e307)))
        assert model._sums.get(full_mask(4)) == 6e307
        assert not np.isnan(DenseTrellis(GroundSet(4), model).log_z_table).any()

    def test_overlap_rejected(self):
        model = DasguptaModel(PairwiseWeights.from_triples(3, [(0, 1, 1.0)]))
        with pytest.raises(ValueError):
            model.log_psi(A | B, B | C)

    def test_beta_scales_log_domain(self):
        w = PairwiseWeights.from_triples(2, [(0, 1, 1.0)])
        assert DasguptaModel(w, beta=2.0).log_psi(A, B) == -4.0

    def test_beta_invariant_map_tree(self):
        from hctrellis.datasets import random_similarity_weights

        for n, seed in [(5, 3), (6, 9)]:
            w = random_similarity_weights(n, seed)
            trees = []
            for beta in (0.5, 1.0, 2.0):
                trellis = DenseTrellis(GroundSet(n), DasguptaModel(w, beta=beta))
                trees.append(trellis.map_hierarchy()[1])
            assert trees[0] == trees[1] == trees[2]


class TestCorrelation:
    def test_positive_cross_pair(self):
        model = CorrelationModel(PairwiseWeights.from_triples(2, [(0, 1, 0.75)]))
        assert model.log_psi(A, B) == -0.75

    def test_within_negative_counts_ordered_pairs(self):
        model = CorrelationModel(PairwiseWeights.from_triples(3, [(0, 1, -0.5)]))
        # energy = 0 cross - (-0.5 * 2 ordered pairs) = 1.0
        assert model.log_psi(A | B, C) == pytest.approx(-1.0, abs=1e-15)

    def test_all_zero_weights(self):
        model = CorrelationModel(PairwiseWeights.from_triples(4, []))
        for left in pivot_splits(full_mask(4)):
            assert model.log_psi(left, full_mask(4) ^ left) == 0.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            CorrelationModel(PairwiseWeights.from_triples(2, [(0, 1, 1.5)]))


class TestSplittingDensity:
    def test_direct_formula(self):
        t, t_parent, lam = 0.5, 1.0, 1.0
        expected = math.log(
            (1.0 / (1.0 - math.exp(-lam))) * (lam / t_parent) * math.exp(-lam * t / t_parent)
        )
        assert log_splitting_density(t, t_parent, lam) == pytest.approx(expected, abs=1e-12)

    def test_zero_outside_support(self):
        assert log_splitting_density(1.0, 1.0, 2.0) == LOG_ZERO
        assert log_splitting_density(1.5, 1.0, 2.0) == LOG_ZERO
        assert log_splitting_density(-0.1, 1.0, 2.0) == LOG_ZERO

    @pytest.mark.parametrize("t_parent,lam", [(1.0, 1.0), (3.7, 0.4), (250.0, 8.0)])
    def test_normalization_by_quadrature(self, t_parent, lam):
        total, err = quad(
            lambda t: math.exp(log_splitting_density(t, t_parent, lam)),
            0.0,
            t_parent,
            limit=200,
        )
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            log_splitting_density(0.5, 0.0, 1.0)
        with pytest.raises(ValueError):
            log_splitting_density(0.5, 1.0, -1.0)


class TestGinkgoModel:
    def test_generated_singleton_pair_is_finite(self):
        jet = exact_leaf_jet(5, 101)
        model = GinkgoModel(jet.payloads, lam=jet.config.lam)
        assert math.isfinite(model.log_psi(1, 2))

    def test_unphysical_leaf_gets_zero_potential(self):
        payloads = [FourVector(1.0, 2.0, 0.0, 0.0), FourVector(5.0, 0.0, 0.0, 1.0)]
        model = GinkgoModel(payloads, lam=1.5)
        assert model.log_psi(1, 2) == LOG_ZERO

    def test_massless_parent_gets_zero_potential(self):
        payloads = [FourVector(1.0, 1.0, 0.0, 0.0), FourVector(2.0, 2.0, 0.0, 0.0)]
        model = GinkgoModel(payloads, lam=1.5)
        assert model.log_psi(1, 2) == LOG_ZERO

    def test_rejects_three_component_payloads(self):
        with pytest.raises(ValueError, match="payloads must be four-vectors"):
            GinkgoModel([(5.0, 0.0, 1.0), (4.0, 1.0, 0.0)], lam=1.5)

    def test_rejects_nonpositive_energy(self):
        with pytest.raises(ValueError):
            GinkgoModel([FourVector(0.0, 0.0, 0.0, 0.0)], lam=1.5)

    @pytest.mark.parametrize("leaf", [
        FourVector(math.nan, 0.0, 0.0, 0.0),
        FourVector(5.0, math.inf, 0.0, 0.0),
        FourVector(5.0, 0.0, 0.0, -math.inf),
    ])
    def test_rejects_nonfinite_four_vectors(self, leaf):
        # a NaN energy passes the positivity check and scalar and vector psi
        # disagree on it
        with pytest.raises(ValueError, match="four-vectors must be finite"):
            GinkgoModel([FourVector(5.0, 0.0, 0.0, 1.0), leaf], lam=1.5)

    def test_rejects_four_vectors_whose_squared_masses_overflow(self):
        # five leaves of E ~ 1e160 squared to inf - inf: NaN psi, log_map=nan
        with pytest.raises(ValueError, match="float range"):
            GinkgoModel(_scaled_jet(5, 1e155), lam=1.5)

    def test_large_four_vectors_score_alike_on_both_paths(self):
        model = GinkgoModel(_scaled_jet(5, 1e150), lam=1.5)
        for parent in range(1, 1 << 5):
            if parent & (parent - 1):
                lefts = np.array(list(pivot_splits(parent)), dtype=np.int64)
                vec = model.log_psi_pairs(lefts, parent ^ lefts)
                scalar = [model.log_psi(int(l), parent ^ int(l)) for l in lefts]
                assert scalar == pytest.approx(vec.tolist(), rel=1e-12)  # no NaN

    def test_truth_tree_mass_ordering(self):
        jet = exact_leaf_jet(7, 55)
        model = GinkgoModel(jet.payloads, lam=jet.config.lam)
        for parent, (left, right) in jet.tree.children.items():
            tp = model._t.get(parent)
            for child in (left, right):
                assert model._t.get(child) < tp

    def test_vectorized_matches_scalar(self):
        jet = exact_leaf_jet(6, 77)
        model = GinkgoModel(jet.payloads, lam=jet.config.lam)
        parent = full_mask(6)
        lefts = np.array(list(pivot_splits(parent)), dtype=np.int64)
        rights = parent ^ lefts
        vec = model.log_psi_pairs(lefts, rights)
        for l, r, v in zip(lefts, rights, vec):
            assert model.log_psi(int(l), int(r)) == pytest.approx(float(v), abs=1e-12)


class TestPsiEntryPoints:
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_empty_sibling_refused(self, kind):
        with pytest.raises(ValueError, match="sibling clusters must be nonempty"):
            make_model(kind, 4, 0).log_psi(0, 1)

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_scalar_and_batched_agree_bitwise(self, kind):
        # every split of every cluster at n = 10, smaller cluster first, and
        # of the edge jet, whose stored parent masses include 0.0 and +inf
        models = [make_model(kind, 10, seed) for seed in range(5)]
        if kind == "ginkgo":
            models.append(edge_jet_model())
        for model in models:
            n = model.n
            parents = np.arange(1, 1 << n, dtype=np.int64)
            sizes = np.bitwise_count(parents)
            for k in range(2, n + 1):
                lefts = pivot_splits_array(parents[sizes == k])
                rights = np.repeat(parents[sizes == k], (1 << (k - 1)) - 1) ^ lefts
                lo, hi = np.minimum(lefts, rights), np.maximum(lefts, rights)
                batched = model.log_psi_pairs(lo, hi).tolist()
                scalar = [model.log_psi(l, r) for l, r in zip(lo.tolist(), hi.tolist())]
                assert [v.hex() for v in batched] == [v.hex() for v in scalar]

    def test_ginkgo_agrees_bitwise_past_the_table_cap(self):
        # memo backend, with and without priming; a quarter of the leaves
        # spacelike, so some stored masses, parents' too, are +inf
        n = TABLE_MAX_LEAVES + 1
        rng = np.random.default_rng(23)
        p = rng.normal(0.0, 1.0, size=(n, 3))
        e = np.sqrt(rng.uniform(1.0, 4.0, size=n) + (p * p).sum(axis=1))
        e[::4] = np.sqrt((p[::4] * p[::4]).sum(axis=1)) * 0.9
        payloads = np.column_stack([e, p])
        # parents of every size: each leaf a member with a per-row chance
        member = rng.random((4000, n)) < rng.uniform(0.05, 1.0, size=(4000, 1))
        parents = member @ (1 << np.arange(n, dtype=np.int64))
        lefts = parents & rng.integers(0, 1 << n, size=parents.size, dtype=np.int64)
        keep = (lefts != 0) & (lefts != parents)
        lefts, rights = lefts[keep], (parents ^ lefts)[keep]
        i, j = np.triu_indices(n, 1)  # and every pair of leaves
        lo = np.concatenate([np.minimum(lefts, rights), 1 << i])
        hi = np.concatenate([np.maximum(lefts, rights), 1 << j])
        seen = []
        for primed in (False, True):
            model = GinkgoModel(payloads, lam=1.5)
            assert model._t._table is None
            if primed:
                model.prime(np.concatenate([lo, hi, lo | hi]).astype(np.uint64))
            seen.append(model.log_psi_pairs(lo, hi).tobytes())
            scalar = [model.log_psi(l, r) for l, r in zip(lo.tolist(), hi.tolist())]
            seen.append(np.array(scalar).tobytes())
        assert len(set(seen)) == 1
        for clusters in (lo, lo | hi):
            stored = np.array([model._t.get(b) for b in clusters.tolist()])
            assert np.isinf(stored).any() and np.isfinite(stored).any()
        psi = np.frombuffer(seen[0])
        assert np.isneginf(psi).any() and np.isfinite(psi).any()


def split_blocks(parents):
    """Every split of each int64 parent, one row per parent: (lefts, rights)."""
    lefts = pivot_splits_array(parents).reshape(parents.size, -1)
    return lefts, parents[:, None] ^ lefts


def random_ginkgo(n, seed):
    """A Ginkgo model over n random massive leaves, no jet generator needed."""
    rng = np.random.default_rng(seed)
    p = rng.normal(0.0, 1.0, size=(n, 3))
    e = np.sqrt(rng.uniform(1.0, 4.0, size=n) + (p * p).sum(axis=1))
    return GinkgoModel(np.column_stack([e, p]), lam=1.5)


def assert_same_bits(got, expected):
    assert got.shape == expected.shape and got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()  # -inf and the sign of zero too


def edge_jet_model():
    """Seven leaves: 0 and 1 with squared masses in [-tol, 0), 2 and 3
    massless and collinear (their sum has zero mass), 4 far below -tol,
    5 and 6 massive.  The store holds 0.0 for leaves 0 and 1 and +inf for
    leaf 4."""
    leaves = [
        (1.0, 0.0, 0.0, math.sqrt(1 + 4e-10)),
        (1.5, math.sqrt(2.25 + 6e-10), 0.0, 0.0),
        (1.0, 0.0, 0.0, 1.0),
        (2.0, 0.0, 0.0, 2.0),
        (1.0, 0.0, 1.001, 0.0),
        (5.0, 1.0, 0.0, 0.0),
        (4.0, 0.0, -1.0, 0.5),
    ]
    raw = [_mass2(*leaf) for leaf in leaves]
    assert all(-KINEMATIC_TOL <= raw[i] < 0 for i in (0, 1))
    pair = [a + b for a, b in zip(leaves[2], leaves[3])]
    assert raw[2] == raw[3] == _mass2(*pair) == 0.0 and raw[4] < -KINEMATIC_TOL
    model = GinkgoModel(leaves, lam=1.5)
    t = [model._t.get(1 << i) for i in range(7)]
    assert t[0] == t[1] == 0.0 and t[4] == math.inf
    return model


class TestPsiBlocks:
    """A 2-D block of splits, one parent per row, scores exactly as the
    same pairs given flat."""

    @staticmethod
    def sparse_dasgupta(n):
        """Weights zero outside leaves 0, 3, 6: zero cuts score -0.0."""
        w = random_similarity_weights(n, 6).w * (np.arange(n) % 3 == 0)
        return DasguptaModel(PairwiseWeights(np.minimum(w, w.T)))

    def models(self):
        n = 9
        signed = random_affinity_weights(n, 6).w * (np.arange(n) % 2 == 0)
        return [
            *(make_model(kind, n, seed=6) for kind in MODEL_KINDS),
            ConstantModel(n),
            self.sparse_dasgupta(n),
            CorrelationModel(PairwiseWeights(np.minimum(signed, signed.T))),
            ScalarOnlyModel(make_model("ginkgo", n, seed=6)),
            edge_jet_model(),
        ]

    def test_block_equals_flat_call(self):
        for model in self.models():
            parents = np.arange(1, 1 << model.n, dtype=np.int64)
            sizes = np.bitwise_count(parents)
            for k in range(2, model.n + 1):
                lefts, rights = split_blocks(parents[sizes == k])
                block = model.log_psi_pairs(lefts, rights)
                flat = model.log_psi_pairs(lefts.ravel(), rights.ravel())
                assert_same_bits(block, flat.reshape(lefts.shape))
                assert_same_bits(model.log_psi_pairs(lefts[:1], rights[:1]), block[:1])
                assert_same_bits(model.log_psi_pairs(lefts[:, :1], rights[:, :1]), block[:, :1])

    def test_edge_cases_are_covered(self):
        edge = edge_jet_model()
        lefts, rights = split_blocks(np.array([(1 << edge.n) - 1]))
        out = edge.log_psi_pairs(lefts, rights)
        assert np.isneginf(out).any() and np.isfinite(out).any()
        lefts, rights = split_blocks(np.array([0b11]))  # both children clamped to 0
        assert np.isfinite(edge.log_psi_pairs(lefts, rights)).all()
        lefts, rights = split_blocks(np.array([0b1100]))  # massless parent
        assert np.isneginf(edge.log_psi_pairs(lefts, rights)).all()
        zero = self.sparse_dasgupta(9).log_psi_pairs(*split_blocks(np.array([(1 << 9) - 1])))
        assert np.any((zero == 0.0) & np.signbit(zero))

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_block_past_the_table_cap(self, kind):
        n = TABLE_MAX_LEAVES + 2

        def make():  # a fresh memo per call
            return random_ginkgo(n, 24) if kind == "ginkgo" else make_model(kind, n, seed=24)

        rng = np.random.default_rng(7)
        parents = np.array([
            sum(1 << int(i) for i in rng.choice(n, size=7, replace=False)) for _ in range(5)
        ], dtype=np.int64)
        lefts, rights = split_blocks(parents)
        block = make().log_psi_pairs(lefts, rights)
        flat = make().log_psi_pairs(lefts.ravel(), rights.ravel())
        assert_same_bits(block, flat.reshape(lefts.shape))
        if kind == "ginkgo":
            assert np.isfinite(block).any()

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_leaf_63_beam_input(self, kind):
        # uint64 clusters with the sign bit set, flat as the beam passes them
        n = 64
        model = random_ginkgo(n, 64) if kind == "ginkgo" else make_model(kind, n, seed=64)
        parent = 1 << 2 | 1 << 17 | 1 << 40 | 1 << 62 | 1 << 63
        splits = np.array(list(pivot_splits(parent)), dtype=np.uint64)
        splits = np.stack([splits, np.uint64(parent) ^ splits])
        lefts, rights = splits.min(axis=0), splits.max(axis=0)  # the order log_psi uses
        flat = model.log_psi_pairs(lefts, rights)
        assert flat.shape == lefts.shape
        scalar = [model.log_psi(l, r) for l, r in zip(lefts.tolist(), rights.tolist())]
        assert [v.hex() for v in flat.tolist()] == [v.hex() for v in scalar]
        block = model.log_psi_pairs(lefts[None, :], rights[None, :])
        assert_same_bits(block, flat[None, :])


class TestSymmetry:
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_exact_symmetry_all_pairs(self, kind):
        n = 5
        model = make_model(kind, n, seed=12)
        for left in range(1, 1 << n):
            for right in range(1, 1 << n):
                if left & right:
                    continue
                assert model.log_psi(left, right) == model.log_psi(right, left)


class TestHierarchyPotential:
    def test_two_leaves_single_split(self):
        model = DasguptaModel(PairwiseWeights.from_triples(2, [(0, 1, 0.3)]))
        h = Hierarchy(0b11, {0b11: (1, 2)})
        assert log_hierarchy_potential(h, model) == model.log_psi(1, 2)

    def test_constant_model_zero_everywhere(self):
        from hctrellis import enumerate_hierarchies

        model = ConstantModel(5)
        for h in enumerate_hierarchies(5):
            assert log_hierarchy_potential(h, model) == 0.0

    def test_matches_generator_record(self):
        jet = exact_leaf_jet(5, 9)
        model = GinkgoModel(jet.payloads, lam=jet.config.lam)
        assert log_hierarchy_potential(jet.tree, model) == pytest.approx(
            jet.truth_log_likelihood, abs=1e-9
        )

    def test_oracle_recomputation_is_exact(self):
        """The oracle's MAP tree rescored in preorder, not in the children
        dict's order, gives log_hierarchy_potential exactly, and the
        oracle's own row sum to rounding."""
        from hctrellis import oracle_summary

        for kind in MODEL_KINDS:
            model = make_model(kind, 6, seed=4)
            summary = oracle_summary(GroundSet(6), model)
            h = summary.map_hierarchy()
            terms = [model.log_psi(*h.children[v]) for v in h.preorder() if v in h.children]
            assert math.fsum(terms) == log_hierarchy_potential(h, model)
            assert summary.map_log_potential == pytest.approx(math.fsum(terms), rel=1e-12)


class TestPairSumBackends:
    def test_dict_backend_matches_table(self):
        n = 12
        rng = np.random.default_rng(5)
        w = rng.uniform(-1, 1, size=(n, n))
        w = (w + w.T) / 2
        np.fill_diagonal(w, 0.0)
        payloads = np.array([p.as_tuple() for p in exact_leaf_jet(n, 5).payloads])
        for make in (lambda: _SubsetPairSums(w), lambda: _SubsetMass2(payloads)):
            table = make()
            memo = make()
            memo._table = None  # force the memo backend
            for bits in range(1 << n):
                assert memo.get(bits) == table.get(bits)
            assert len(memo._memo) == 1 << n
            assert all(type(v) is float for v in memo._memo.values())

    def test_memo_evaluates_each_distinct_cluster_once(self):
        n = TABLE_MAX_LEAVES + 2
        payloads = _signed_payloads(n, 7)
        table = _SubsetMass2(payloads)
        assert table._table is None
        clusters = _clusters(n, 11)
        arr = np.array(clusters[::2] + clusters + clusters[::3], dtype=np.uint64)
        calls = {"get": 0, "value": 0}
        raw_get, raw_value = table.get, table._value

        def get(bits):
            calls["get"] += 1
            return raw_get(bits)

        def value(bits):
            calls["value"] += 1
            return raw_value(bits)

        table.get, table._value = get, value
        got = table.get_many(arr)
        assert calls == {"get": len(clusters), "value": len(clusters)}
        fresh = _SubsetMass2(payloads)
        expected = [fresh.get(b) for b in arr.tolist()]
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in expected]

    def test_large_ground_set_skips_table(self):
        n = TABLE_MAX_LEAVES + 1
        w = np.zeros((n, n))
        w[0, n - 1] = w[n - 1, 0] = 0.5
        model = DasguptaModel(PairwiseWeights(w))
        assert model._sums._table is None
        assert model.log_psi(1, 1 << (n - 1)) == -2 * 0.5
        assert model.log_psi(1, 2) == 0.0

        rng = np.random.default_rng(23)
        p = rng.normal(0.0, 1.0, size=(n, 3))
        e = np.sqrt(rng.uniform(1.0, 4.0, size=n) + (p * p).sum(axis=1))
        ginkgo = GinkgoModel(np.column_stack([e, p]), lam=1.5)
        assert ginkgo._t._table is None
        parent = 1 | 1 << 5 | 1 << 11 | 1 << 17 | 1 << 20 | 1 << (n - 1)
        lefts = np.array(list(pivot_splits(parent)), dtype=np.int64)
        vec = ginkgo.log_psi_pairs(lefts, parent ^ lefts)
        assert np.isfinite(vec).any()
        for l, v in zip(lefts, vec):
            scalar = ginkgo.log_psi(int(l), parent ^ int(l))
            assert scalar == pytest.approx(float(v), abs=1e-12)

    def test_mass_table_construction_peak(self):
        n = 18
        rng = np.random.default_rng(18)
        p = rng.normal(0.0, 1.0, size=(n, 3))
        payloads = np.column_stack([np.sqrt(rng.uniform(1.0, 4.0, n) + (p * p).sum(axis=1)), p])
        tracemalloc.start()
        try:
            table = _SubsetMass2(payloads)._table
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * (1 << n) * 8
        # same values as squaring a table of summed four-vectors
        vec = np.zeros((1 << n, 4))
        for h in range(n):
            vec[1 << h : 2 << h] = vec[: 1 << h] + payloads[h]
        assert np.array_equal(table, _mass2(vec[:, 0], vec[:, 1], vec[:, 2], vec[:, 3]))

    def test_ginkgo_keeps_one_mass_table(self):
        # the clamped squared masses, read by parents and children alike;
        # no four-vector table
        n = 12
        model = make_model("ginkgo", n, seed=3)
        arrays = [
            a
            for obj in (model, *vars(model).values())
            for a in getattr(obj, "__dict__", {}).values()
            if isinstance(a, np.ndarray) and a.size >= 1 << n
        ]
        assert len(arrays) == 1
        assert all(a.shape == (1 << n,) and a.dtype == np.float64 for a in arrays)


def _signed_payloads(n: int, seed: int) -> np.ndarray:
    """Normal draws (sums round, so their order shows) with a quarter set
    to 0.0 and some of those to -0.0, so sums hit exact zeros."""
    rng = np.random.default_rng(seed)
    payloads = rng.normal(size=(n, 4))
    payloads[rng.random((n, 4)) < 0.25] = 0.0
    payloads[(payloads == 0.0) & (rng.random((n, 4)) < 0.5)] = -0.0
    payloads[0] = [-0.0, 0.0, -0.0, 0.0]  # a massless leaf: some masses are 0
    return payloads


def _clusters(n: int, seed: int) -> list[int]:
    """Every singleton and pair, some triples, random masks and the full set."""
    rng = random.Random(seed)
    out = {1 << i | 1 << j for i in range(n) for j in range(n)}
    out |= {1 << rng.randrange(n) | 1 << rng.randrange(n) | 1 << rng.randrange(n) for _ in range(200)}
    out |= {rng.getrandbits(n) | 1 << (n - 1) for _ in range(300)}
    out.add(full_mask(n))
    return sorted(out)


class TestPriming:
    @pytest.mark.parametrize("n", [24, 30, 64])
    @pytest.mark.parametrize("as_uint64", [False, True])
    def test_primed_memo_is_value(self, n, as_uint64):
        # bit for bit, sign of zero included, and bit 63 kept at n = 64
        table = _SubsetMass2(_signed_payloads(n, n))
        assert table._table is None
        clusters = _clusters(n, n + 1)
        assert max(clusters) >> (n - 1) == 1
        table.prime(np.array(clusters, dtype=np.uint64) if as_uint64 else clusters)
        assert sorted(table._memo) == clusters
        assert all(type(v) is float for v in table._memo.values())
        assert [table._memo[c].hex() for c in clusters] == [table._value(c).hex() for c in clusters]
        zeros = [table._memo[c] for c in clusters if table._memo[c] == 0.0]
        assert zeros and all(math.copysign(1.0, z) == 1.0 for z in zeros)

    def test_primed_memo_is_table(self):
        # with the table backend switched off, priming every cluster of a
        # small ground set reproduces the 2**n table
        n = 12
        table = _SubsetMass2(_signed_payloads(n, 3))
        dense = table._table
        table._table = None
        table.prime(range(1 << n))
        primed = [table._memo[b] for b in range(1 << n)]
        assert np.array_equal(primed, dense)
        assert np.array_equal(np.signbit(primed), np.signbit(dense))

    def test_priming_is_a_no_op_on_tables(self):
        model = make_model("ginkgo", 12, seed=2)
        model.prime(np.arange(1, 1 << 8, dtype=np.uint64))
        assert model._t._table is not None and model._t._memo == {}


@st.composite
def separable_models(draw):
    """Dasgupta over nonnegative weights or correlation over signed
    affinities, n = 2..8, at a low, unit or high beta."""
    n = draw(st.integers(2, 8))
    kind = draw(st.sampled_from(("dasgupta", "correlation")))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    low = 0.0 if kind == "dasgupta" else -1.0
    values = draw(st.lists(st.floats(low, 1.0), min_size=len(pairs), max_size=len(pairs)))
    weights = PairwiseWeights.from_triples(n, [(i, j, v) for (i, j), v in zip(pairs, values)])
    beta = draw(st.sampled_from((0.5, 1.0, 50.0, 400.0)))
    cls = DasguptaModel if kind == "dasgupta" else CorrelationModel
    return cls(weights, beta=beta)


class TestSeparableTerms:
    @settings(max_examples=60, deadline=None)
    @given(separable_models())
    def test_terms_sum_to_psi(self, model):
        """c[P] + scale[|P|] * (u[L] + u[R]) is log psi at every split,
        to 1e-12 of the size of the terms summed (each side rounds at
        that scale)."""
        u, c, scale = model.separable_terms()
        clusters = np.arange(1 << model.n)
        sizes = np.bitwise_count(clusters)
        for k in range(2, model.n + 1):
            parents = clusters[sizes == k]
            lefts, rights = split_blocks(parents)
            terms = (c[parents][:, None], scale[k] * u[lefts], scale[k] * u[rights])
            error = np.abs(terms[0] + terms[1] + terms[2] - model.log_psi_pairs(lefts, rights))
            magnitude = np.abs(terms[0]) + np.abs(terms[1]) + np.abs(terms[2])
            assert np.all(error <= 1e-12 * np.maximum(1.0, magnitude))

    @pytest.mark.parametrize("kind", ("ginkgo", "constant"))
    def test_default_is_none(self, kind):
        model = make_model(kind, 5, seed=1)
        assert model.separable_terms() is None
        assert ScalarOnlyModel(make_model("dasgupta", 5, seed=1)).separable_terms() is None

    @pytest.mark.parametrize("kind", ("dasgupta", "correlation"))
    def test_returns_new_arrays(self, kind):
        model = make_model(kind, 6, seed=2)
        terms = model.separable_terms()
        saved = [x.copy() for x in terms]
        for x in terms:
            x[:] = np.nan
        again = model.separable_terms()
        assert all(np.array_equal(x, y) for x, y in zip(again, saved))

    @pytest.mark.parametrize("kind", ("dasgupta", "correlation"))
    def test_no_terms_where_they_could_overflow(self, kind):
        weights = random_similarity_weights(8, 3)  # nonnegative: valid for both
        cls = DasguptaModel if kind == "dasgupta" else CorrelationModel
        assert cls(weights, beta=1e307).separable_terms() is None
        assert cls(weights, beta=1e300).separable_terms() is not None

    @pytest.mark.parametrize("cls", (DasguptaModel, CorrelationModel))
    def test_integer_beta(self, cls):
        """An int beta gives the float terms of the same float beta (an
        int scale would make the outside pass's in-place products fail)."""
        weights = random_similarity_weights(6, 3)
        ints, floats = (cls(weights, beta=b).separable_terms() for b in (50, 50.0))
        assert all(x.dtype == np.float64 and np.array_equal(x, y) for x, y in zip(ints, floats))


class TestModelParams:
    def test_defaults_valid(self):
        p = ModelParams()
        assert p.beta == 1.0 and p.lam > 0

    @pytest.mark.parametrize("kwargs", [{"beta": 0.0}, {"lam": -1.0}]
                             + [{"beta": x} for x in NONFINITE] + [{"lam": x} for x in NONFINITE])
    def test_rejects_nonpositive(self, kwargs):
        with pytest.raises(ValueError, match="positive and finite"):
            ModelParams(**kwargs)


@pytest.mark.parametrize("bad", NONFINITE)
def test_constructors_reject_nonfinite_rates(bad):
    # NaN passed a `<= 0` check and gave NaN tables; inf gave -inf or NaN
    weights = random_similarity_weights(4, 0)
    for build in (lambda: DasguptaModel(weights, beta=bad),
                  lambda: CorrelationModel(weights, beta=bad),
                  lambda: GinkgoModel(exact_leaf_jet(4, 0).payloads, lam=bad),
                  lambda: log_splitting_density(1.0, 2.0, bad),
                  lambda: JetConfig(lam=bad)):
        with pytest.raises(ValueError, match="positive and finite"):
            build()


def test_cross_size_mismatch_rejected():
    model = make_model("dasgupta", 4, seed=0)
    with pytest.raises(ValueError):
        model.log_psi(1, 1 << 6)
