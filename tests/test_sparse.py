import math
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from hctrellis import (
    ConstantModel,
    CorrelationModel,
    DasguptaModel,
    DenseTrellis,
    GinkgoModel,
    GroundSet,
    Hierarchy,
    PotentialModel,
    SparseTrellis,
    enumerate_hierarchies,
    log_hierarchy_potential,
    num_hierarchies,
    oracle_summary,
)
import hctrellis.core
import hctrellis.sparse
from hctrellis.core import LOG_ZERO, full_mask, grow_hierarchy, log_sum_exp
from hctrellis.datasets import random_affinity_weights, random_similarity_weights
from hctrellis.jetgen import JetConfig, generate_jet
from hctrellis.sparse import (
    LeafOrdering,
    build_beam_search_trellis,
    build_from_trees,
    build_simulator_trellis,
)

from conftest import WIDE_ROOT, exact_leaf_jet, make_model, output_digest


def _jet_set(n, count, seed, lam=1.5):
    return [exact_leaf_jet(n, (seed, i), lam=lam) for i in range(count)]


@lru_cache(maxsize=None)
def _wide_simulator_trellis() -> SparseTrellis:
    """40 simulator trees over 24 leaves, norm-ascending (740 vertices)."""
    config = JetConfig(root=WIDE_ROOT, lam=1.5, seed=5, leaf_count_filter=(24, 24))
    return build_simulator_trellis(config, 40, LeafOrdering("norm_ascending"))


class TestBuildFromTrees:
    def test_single_tree_realizes_itself_only(self):
        jet = exact_leaf_jet(6, 1)
        st = build_from_trees([jet.tree])
        assert st.count_trees() == 1
        assert st.sparsity_index() == Fraction(1, num_hierarchies(6))
        assert st.realizes(jet.tree)

    def test_single_tree_sparsity_fractions(self):
        st4 = build_from_trees([exact_leaf_jet(4, 2).tree])
        assert st4.sparsity_index() == Fraction(1, 15)
        st9 = build_from_trees([exact_leaf_jet(9, 2).tree])
        assert st9.sparsity_index() == Fraction(1, 2_027_025)

    def test_union_of_all_trees_saturates(self):
        trees = list(enumerate_hierarchies(4))
        st = build_from_trees(trees)
        assert st.count_trees() == 15
        assert st.sparsity_index() == 1

    def test_disjoint_internal_trees_count_at_least_two(self):
        left_chain = Hierarchy(
            full_mask(4), {0b1111: (0b0011, 0b1100), 0b0011: (1, 2), 0b1100: (4, 8)}
        )
        other = Hierarchy(
            full_mask(4), {0b1111: (0b0101, 0b1010), 0b0101: (1, 4), 0b1010: (2, 8)}
        )
        st = build_from_trees([left_chain, other])
        assert st.count_trees() >= 2

    def test_unequal_leaf_counts_rejected(self):
        with pytest.raises(ValueError):
            build_from_trees([exact_leaf_jet(4, 0).tree, exact_leaf_jet(5, 0).tree])

    def test_monotone_union(self):
        jets = _jet_set(6, 8, seed=3)
        prev = 0
        for k in range(1, 9):
            st = build_from_trees([j.tree for j in jets[:k]])
            count = st.count_trees()
            assert count >= prev
            prev = count


class TestOrderings:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            LeafOrdering("alphabetical")

    def test_norm_ordering_needs_payloads(self):
        jet = exact_leaf_jet(5, 2)
        with pytest.raises(ValueError):
            build_from_trees([jet.tree], LeafOrdering("norm_ascending"))

    def test_norm_ordering_sorts_payloads(self):
        jet = exact_leaf_jet(6, 4)
        ordering = LeafOrdering("norm_ascending")
        ordered = ordering.order_payloads(jet.payloads)
        norms = [p.p3_norm for p in ordered]
        assert norms == sorted(norms)

    def test_random_ordering_is_seeded(self):
        jets = _jet_set(6, 3, seed=5)
        trees = [j.tree for j in jets]
        a = build_from_trees(trees, LeafOrdering("random", seed=1))
        b = build_from_trees(trees, LeafOrdering("random", seed=1))
        c = build_from_trees(trees, LeafOrdering("random", seed=2))
        assert a.vertices == b.vertices
        assert a.vertices != c.vertices or a.count_trees() == c.count_trees()

    def test_standard_ordering_collapses_to_shape(self):
        # traversal relabelling maps label permutations of one shape together
        trees = list(enumerate_hierarchies(4))
        st = build_from_trees(trees, LeafOrdering("standard"))
        assert st.count_trees() < 15

    def test_each_mode_yields_valid_trellis(self):
        jets = _jet_set(7, 5, seed=8)
        for mode in ("standard", "random", "norm_ascending"):
            st = build_from_trees(
                [j.tree for j in jets],
                LeafOrdering(mode, seed=0),
                [j.payloads for j in jets],
            )
            assert st.count_trees() >= 1


class TestInference:
    def test_single_tree_is_the_whole_posterior(self):
        jet = exact_leaf_jet(6, 11)
        st = build_from_trees([jet.tree])
        model = GinkgoModel(jet.payloads, lam=jet.config.lam)
        ev = st.evaluate(model)
        truth = log_hierarchy_potential(jet.tree, model)
        assert ev.log_partition() == pytest.approx(truth, abs=1e-12)
        value, tree = ev.map_hierarchy()
        assert tree == jet.tree and value == truth
        assert ev.sample_hierarchy(3) == jet.tree

    def test_map_ties_pick_the_first_pair(self):
        # every tree ties under the constant model; the sparse fill keeps the
        # first maximum, the stored pair with the smallest left child, as the
        # dense backpointer does
        st = build_from_trees(list(enumerate_hierarchies(5)))
        model = ConstantModel(5)
        dense = DenseTrellis(GroundSet(5), model).map_hierarchy()
        assert st.evaluate(model).map_hierarchy() == dense

    def test_saturated_trellis_matches_dense(self):
        for kind in ("dasgupta", "ginkgo"):
            model = make_model(kind, 5, seed=19)
            st = build_from_trees(list(enumerate_hierarchies(5)))
            ev = st.evaluate(model)
            dense = DenseTrellis(GroundSet(5), model)
            assert ev.log_partition() == pytest.approx(dense.log_partition(), abs=1e-9)
            assert ev.map_hierarchy()[0] == pytest.approx(
                dense.map_hierarchy()[0], abs=1e-12
            )

    def test_sandwich_bounds(self):
        jets = _jet_set(7, 6, seed=23)
        trees = [j.tree for j in jets]
        st = build_from_trees(trees)
        for jet in jets:
            model = GinkgoModel(jet.payloads, lam=jet.config.lam)
            ev = st.evaluate(model)
            seed_best = max(log_hierarchy_potential(t, model) for t in trees)
            sparse_map, _ = ev.map_hierarchy()
            full_map, _ = DenseTrellis(GroundSet(7), model).map_hierarchy()
            assert seed_best <= sparse_map <= full_map
            assert sparse_map <= ev.log_partition() <= DenseTrellis(
                GroundSet(7), model
            ).log_partition() + 1e-9

    def test_monotone_z_and_map(self):
        jets = _jet_set(6, 6, seed=29)
        model = GinkgoModel(jets[0].payloads, lam=1.5)
        prev_z, prev_m = -math.inf, -math.inf
        for k in range(1, 7):
            st = build_from_trees([j.tree for j in jets[:k]])
            ev = st.evaluate(model)
            assert ev.log_partition() >= prev_z - 1e-12
            assert ev.map_hierarchy()[0] >= prev_m
            prev_z, prev_m = ev.log_partition(), ev.map_hierarchy()[0]

    def test_samples_are_realizable(self):
        jets = _jet_set(6, 4, seed=31)
        st = build_from_trees([j.tree for j in jets])
        model = GinkgoModel(jets[0].payloads, lam=1.5)
        ev = st.evaluate(model)
        import numpy as np

        rng = np.random.default_rng(0)
        for _ in range(100):
            h = ev.sample(rng)
            assert st.realizes(h)

    def test_model_size_mismatch(self):
        st = build_from_trees([exact_leaf_jet(5, 0).tree])
        with pytest.raises(ValueError):
            st.evaluate(ConstantModel(6))


def assert_draw_frequencies(ev, log_probs: dict, draws: int, seed) -> None:
    """Per-tree draw frequencies within 5 binomial sigma of exp(log_probs)."""
    rng = np.random.default_rng(seed)
    counts = Counter(ev.sample(rng).signature() for _ in range(draws))
    assert set(counts) <= set(log_probs)
    for sig, log_p in log_probs.items():
        p = math.exp(log_p)
        assert abs(counts[sig] / draws - p) <= 5 * math.sqrt(p * (1 - p) / draws)


class TestSampling:
    def test_every_split_matches_oracle_posterior(self):
        model = make_model("dasgupta", 4, seed=2)
        st = build_from_trees(list(enumerate_hierarchies(4)))
        assert st.count_trees() == 15
        posterior = oracle_summary(GroundSet(4), model).posterior_table()
        assert_draw_frequencies(st.evaluate(model), posterior, 20_000, seed=11)

    def test_seed_trees_match_restricted_posterior(self):
        st = build_from_trees([exact_leaf_jet(6, (2, i)).tree for i in range(3)])
        model = make_model("dasgupta", 6, seed=2)
        realized = [h for h in enumerate_hierarchies(6) if st.realizes(h)]
        assert len(realized) == st.count_trees() == 8
        log_phi = {h.signature(): log_hierarchy_potential(h, model) for h in realized}
        log_z = log_sum_exp(log_phi.values())
        ev = st.evaluate(model)
        assert ev.log_partition() == pytest.approx(log_z, abs=1e-12)
        restricted = {sig: v - log_z for sig, v in log_phi.items()}
        assert_draw_frequencies(ev, restricted, 20_000, seed=12)

    @pytest.mark.parametrize("seed, model_kind, index, draws, best", [
        (1, "ginkgo", 0, "1e921080022b8d91", "f4c94ec9f430502d"),
        (1, "ginkgo", 1, "8a47d8ed2fc9463f", "34b1ef4fb2879d3a"),
        (1, "dasgupta", 9, "b1962299a700a390", "d8208b407cf8fac4"),
        (2, "ginkgo", 0, "9a14741f60a3c271", "77105e6868ee48d8"),
        (2, "ginkgo", 1, "e9971377c9adb6d9", "b7c0eba1b61c6053"),
        (2, "dasgupta", 9, "0d93b307e8652b6d", "aebdb0091e3b45bb"),
    ])
    def test_frozen_digest(self, seed, model_kind, index, draws, best):
        # draws and MAP at fixed seeds hash to digests recorded before the
        # sparse walks went through core.grow_hierarchy
        ordering = LeafOrdering("norm_ascending")
        config = JetConfig(lam=1.5, seed=seed, leaf_count_filter=(8, 8))
        st = build_simulator_trellis(config, 40, ordering)
        if model_kind == "ginkgo":
            jet = exact_leaf_jet(8, (seed, 100 + index))
            model = GinkgoModel(ordering.order_payloads(jet.payloads), lam=1.5)
        else:
            model = DasguptaModel(random_similarity_weights(8, seed))
        ev = st.evaluate(model)
        rng = np.random.default_rng((seed, index))
        assert output_digest(*[ev.sample(rng) for _ in range(200)]) == draws
        assert output_digest(*ev.map_hierarchy()) == best

    @pytest.mark.parametrize("seed, model_kind, index, log_z", [
        (1, "ginkgo", 0, "-0x1.007a79194fa05p+6"),
        (1, "ginkgo", 1, "-0x1.16841b5cfee17p+6"),
        (1, "dasgupta", 9, "-0x1.3446dcb3e6a42p+6"),
        (2, "ginkgo", 0, "-0x1.0db27d1761ae6p+6"),
        (2, "ginkgo", 1, "-0x1.1523e7fb644a2p+6"),
        (2, "dasgupta", 9, "-0x1.2eea3f0ed40d4p+6"),
    ])
    def test_frozen_log_partition(self, seed, model_kind, index, log_z):
        # the exact bits of log Z for the cases of test_frozen_digest, which
        # hashes only trees
        ordering = LeafOrdering("norm_ascending")
        config = JetConfig(lam=1.5, seed=seed, leaf_count_filter=(8, 8))
        st = build_simulator_trellis(config, 40, ordering)
        if model_kind == "ginkgo":
            jet = exact_leaf_jet(8, (seed, 100 + index))
            model = GinkgoModel(ordering.order_payloads(jet.payloads), lam=1.5)
        else:
            model = DasguptaModel(random_similarity_weights(8, seed))
        assert st.evaluate(model).log_partition().hex() == log_z



def _recursion(st, model):
    """Per-vertex log Z and MAP pair by a plain per-vertex recursion over the
    stored pairs: the reference the split-table fill must match bit for bit."""
    log_z, best, pair = {}, {}, {}
    for v in sorted(st.vertices, key=lambda v: (v.bit_count(), v)):
        pairs = st.vertices[v]
        if v.bit_count() == 1:
            log_z[v] = best[v] = 0.0
            continue
        psi = [model.log_psi(l, r) for l, r in pairs]
        log_z[v] = log_sum_exp([p + log_z[l] + log_z[r] for p, (l, r) in zip(psi, pairs)])
        m_terms = [p + best[l] + best[r] for p, (l, r) in zip(psi, pairs)]
        i = max(range(len(pairs)), key=m_terms.__getitem__)
        best[v], pair[v] = m_terms[i], pairs[i]
    return log_z, pair


def _assert_matches_recursion(st, model):
    ev = st.evaluate(model)
    log_z, pair = _recursion(st, model)
    ids, pairs = st._table.ids, st._table.pairs
    assert [ev._log_z[ids[v]].hex() for v in st.vertices] == [log_z[v].hex() for v in st.vertices]
    assert {v: pairs[ev._map_edge[ids[v]]] for v in pair} == pair
    assert ev.log_partition().hex() == log_z[st.root].hex()
    return ev


class _DeadSplits(PotentialModel):
    """psi = 0 for every split of a cluster in ``dead``, else psi(l, r) =
    exp(-|l| / |r|), so live splits differ and MAP has one answer."""

    kind = "dead"

    def __init__(self, n, dead):
        self.n = n
        self.dead = set(dead)

    def _log_psi(self, left, right):
        if left | right in self.dead:
            return LOG_ZERO
        return -left.bit_count() / right.bit_count()


def _wide_ginkgo(index: int) -> GinkgoModel:
    config = JetConfig(root=WIDE_ROOT, lam=1.5, seed=5, leaf_count_filter=(24, 24))
    jet = generate_jet(replace(config, seed=(5, 1000 + index)))
    return GinkgoModel(LeafOrdering("norm_ascending").order_payloads(jet.payloads), lam=1.5)


class TestSplitTable:
    def test_vertices_in_one_size_order(self):
        st = _wide_simulator_trellis()
        keys = list(st.vertices)
        assert keys == sorted(keys, key=lambda v: (v.bit_count(), v))
        assert st.num_edges() == sum(len(p) for p in st.vertices.values()) == 761
        assert list(st._table.ids) == keys

    @pytest.mark.parametrize("case", ["ginkgo24", "dasgupta24", "correlation6", "ginkgo7"])
    def test_fill_matches_recursion(self, case):
        if case == "ginkgo24":
            _assert_matches_recursion(_wide_simulator_trellis(), _wide_ginkgo(0))
        elif case == "dasgupta24":
            model = DasguptaModel(random_similarity_weights(24, 5), beta=0.1)
            _assert_matches_recursion(_wide_simulator_trellis(), model)
        elif case == "correlation6":
            st = build_from_trees(list(enumerate_hierarchies(6)))
            _assert_matches_recursion(st, make_model("correlation", 6, seed=8))
        else:
            jets = _jet_set(7, 12, seed=41)
            st = build_from_trees([j.tree for j in jets])
            _assert_matches_recursion(st, GinkgoModel(jets[0].payloads, lam=1.5))

    def test_one_scalar_psi_per_edge(self):
        st = _wide_simulator_trellis()
        model = _wide_ginkgo(1)
        calls = []
        scalar = model.log_psi
        model.log_psi = lambda l, r: calls.append((l, r)) or scalar(l, r)
        model.log_psi_pairs = None  # the sparse fill must not use it
        st.evaluate(model)
        assert len(calls) == st.num_edges()
        assert sorted(calls) == sorted(p for pairs in st.vertices.values() for p in pairs)

    def test_log_sum_exp_once_per_vertex_with_two_pairs(self, monkeypatch):
        st = _wide_simulator_trellis()
        calls = []
        exact = hctrellis.sparse.log_sum_exp
        monkeypatch.setattr(
            hctrellis.sparse, "log_sum_exp", lambda values: calls.append(len(values)) or exact(values)
        )
        st.evaluate(_wide_ginkgo(2))
        multi = sorted(len(p) for p in st.vertices.values() if len(p) >= 2)
        assert multi and sorted(calls) == multi

    def test_count_and_fill_do_not_sort(self, monkeypatch):
        # the size order is settled once at construction
        st = _wide_simulator_trellis()
        fresh = SparseTrellis(st.ground, {v: list(p) for v, p in st.vertices.items()}, st.ordering)
        model = _wide_ginkgo(0)

        def no_sort(*args, **kwargs):
            raise AssertionError("sorted() called after construction")

        monkeypatch.setattr(hctrellis.sparse, "sorted", no_sort, raising=False)
        monkeypatch.setattr(hctrellis.sparse, "_SplitTable", None)  # nor a new table
        assert fresh.count_trees() == 54
        fresh.evaluate(model).map_hierarchy()

    def test_dead_root_gives_zero_and_first_pair(self):
        st = build_from_trees(list(enumerate_hierarchies(5)))
        root = st.root
        ev = _assert_matches_recursion(st, _DeadSplits(5, {root}))
        assert ev.log_partition() == LOG_ZERO
        _, tree = ev.map_hierarchy()
        assert tree.children[root] == st.vertices[root][0]
        with pytest.raises(ValueError):
            ev.sample_hierarchy(0)

    def test_every_split_dead_follows_first_pairs(self):
        jets = _jet_set(7, 5, seed=43)
        st = build_from_trees([j.tree for j in jets])
        assert any(len(p) == 1 for p in st.vertices.values() if p)
        assert any(len(p) > 1 for p in st.vertices.values())
        ev = _assert_matches_recursion(st, _DeadSplits(7, st.vertices))
        assert ev.log_partition() == LOG_ZERO
        first = grow_hierarchy(st.root, lambda v: st.vertices[v][0][0])
        assert ev.map_hierarchy() == (LOG_ZERO, first)

    def test_dead_inner_vertex_is_bypassed(self):
        st = build_from_trees(list(enumerate_hierarchies(5)))
        dead = 0b01111
        model = _DeadSplits(5, {dead})
        ev = _assert_matches_recursion(st, model)
        assert ev._log_z[st._table.ids[dead]] == LOG_ZERO
        assert math.isfinite(ev.log_partition())
        _, tree = ev.map_hierarchy()
        assert dead not in tree.children
        rng = np.random.default_rng(1)
        assert all(dead not in ev.sample(rng).children for _ in range(200))

    @pytest.mark.parametrize("kind", ["constant", "dasgupta", "ginkgo"])
    def test_one_and_two_leaves(self, kind):
        one = Hierarchy(1, {})
        st1 = build_from_trees([one])
        assert (st1.num_vertices(), st1.num_edges(), st1.count_trees()) == (1, 0, 1)
        ev1 = st1.evaluate(make_model(kind, 1, seed=3))
        assert ev1.log_partition() == 0.0
        assert ev1.map_hierarchy() == (0.0, one)
        assert ev1.sample_hierarchy(0) == one

        two = Hierarchy(3, {3: (1, 2)})
        st2 = build_from_trees([two])
        assert (st2.num_vertices(), st2.num_edges(), st2.count_trees()) == (3, 1, 1)
        model = make_model(kind, 2, seed=3)
        ev2 = st2.evaluate(model)
        psi = model.log_psi(1, 2)
        assert ev2.log_partition().hex() == log_sum_exp([psi + 0.0 + 0.0]).hex()
        assert ev2.map_hierarchy() == (psi, two)
        assert ev2.sample_hierarchy(0) == two


def _count_recursion(st) -> dict[int, int]:
    """Trees below every vertex by a plain Python-int recursion over the
    stored pairs: the reference for the count kernel."""
    counts: dict[int, int] = {}
    for v, pairs in st.vertices.items():  # by size: children first
        counts[v] = sum(counts[l] * counts[r] for l, r in pairs) if pairs else 1
    return counts


def _assert_counts_match_recursion(st):
    reference = _count_recursion(st)
    count = st.count_trees()
    assert type(count) is int and count == reference[st.root]
    ids = st._table.ids
    assert [st._counts[ids[v]] for v in st.vertices] == list(reference.values())


def _interval_trellis(n: int) -> SparseTrellis:
    """Every contiguous leaf range, split at every point: Catalan(n - 1) trees."""

    def span(lo, hi):
        return ((1 << (hi - lo)) - 1) << lo

    vertices = {
        span(lo, hi): [(span(lo, mid), span(mid, hi)) for mid in range(lo + 1, hi)]
        for lo in range(n)
        for hi in range(lo + 1, n + 1)
    }
    return SparseTrellis(GroundSet(n), vertices)


class TestTreeCounts:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_kernel_matches_recursion_at_8_leaves(self, seed):
        config = JetConfig(lam=1.5, seed=seed, leaf_count_filter=(8, 8))
        st = build_simulator_trellis(config, 40, LeafOrdering("norm_ascending"))
        _assert_counts_match_recursion(st)

    def test_kernel_matches_recursion_at_24_leaves(self):
        _assert_counts_match_recursion(_wide_simulator_trellis())

    def test_python_int_on_both_dtype_paths(self, monkeypatch):
        config = JetConfig(lam=1.5, seed=1, leaf_count_filter=(8, 8))
        st = build_simulator_trellis(config, 40, LeafOrdering("norm_ascending"))
        fixed = SparseTrellis(st.ground, st.vertices)
        assert type(fixed.count_trees()) is int and fixed._counts.dtype == np.int64
        monkeypatch.setattr(hctrellis.core, "num_hierarchies", lambda n: 2**63)  # cannot fit
        exact = SparseTrellis(st.ground, st.vertices)
        assert type(exact.count_trees()) is int and exact._counts.dtype == object
        assert exact.count_trees() == fixed.count_trees()
        assert all(type(c) is int for c in exact._counts)

    def test_interval_trellis_counts_catalan(self):
        # crosses the int64 / Python-int switch at 18 / 19 leaves and, at 64
        # leaves, holds clusters with bit 63 set
        for n in range(1, 65):
            st = _interval_trellis(n)
            catalan = math.comb(2 * n - 2, n - 1) // n
            assert st.count_trees() == catalan, n
            assert st.sparsity_index() == Fraction(catalan, num_hierarchies(n)), n


class TestStructureValidation:
    def test_missing_singleton_rejected(self):
        with pytest.raises(ValueError):
            SparseTrellis(GroundSet(3), {0b111: [(0b001, 0b110)], 0b001: [], 0b010: []})

    def test_bad_pair_rejected(self):
        vertices = {
            0b111: [(0b001, 0b011)],
            0b001: [], 0b010: [], 0b100: [], 0b011: [(1, 2)],
        }
        with pytest.raises(ValueError):
            SparseTrellis(GroundSet(3), vertices)

    def test_dead_end_vertex_pruned(self):
        vertices = {
            0b1111: [(0b0001, 0b1110), (0b0011, 0b1100)],
            0b1110: [(0b0010, 0b1100)],
            0b1100: [(0b0100, 0b1000)],
            0b0011: [],  # dead end: no way down
            0b0001: [], 0b0010: [], 0b0100: [], 0b1000: [],
        }
        st = SparseTrellis(GroundSet(4), vertices)
        assert 0b0011 not in st.vertices
        assert st.vertices[0b1111] == [(0b0001, 0b1110)]
        assert st.count_trees() == 1

    def test_dead_end_cascades_two_levels(self):
        # 0b00110 has no pairs, so 0b00111 and then 0b01111 lose their only
        # pair; the root is listed first, before the vertices it depends on
        vertices = {
            0b11111: [(0b00001, 0b11110), (0b01111, 0b10000)],
            0b01111: [(0b00111, 0b01000)],
            0b00111: [(0b00001, 0b00110)],
            0b00110: [],
            0b11110: [(0b00010, 0b11100), (0b00110, 0b11000)],
            0b11100: [(0b00100, 0b11000)],
            0b11000: [(0b01000, 0b10000)],
            0b00001: [], 0b00010: [], 0b00100: [], 0b01000: [], 0b10000: [],
        }
        st = SparseTrellis(GroundSet(5), vertices)
        assert set(st.vertices) == {0b11111, 0b11110, 0b11100, 0b11000} | {1 << i for i in range(5)}
        assert st.vertices[0b11111] == [(0b00001, 0b11110)]
        assert st.vertices[0b11110] == [(0b00010, 0b11100)]
        assert st.count_trees() == 1

    def test_unreachable_vertex_pruned(self):
        vertices = {
            0b111: [(0b001, 0b110)],
            0b110: [(0b010, 0b100)],
            0b011: [(0b001, 0b010)],  # not reachable from the root
            0b001: [], 0b010: [], 0b100: [],
        }
        st = SparseTrellis(GroundSet(3), vertices)
        assert 0b011 not in st.vertices

    def test_root_without_realization_rejected(self):
        vertices = {0b11: [], 0b01: [], 0b10: []}
        with pytest.raises(ValueError):
            SparseTrellis(GroundSet(2), vertices)

    def test_pair_canonicalized_and_deduplicated(self):
        vertices = {
            0b11: [(0b10, 0b01), (0b01, 0b10)],
            0b01: [], 0b10: [],
        }
        st = SparseTrellis(GroundSet(2), vertices)
        assert st.vertices[0b11] == [(0b01, 0b10)]


class TestBeyondDenseCap:
    def test_thirty_leaf_trellis(self):
        # past the dense cap: bit sets stay exact and models read their
        # aggregates from a memo instead of 2**n tables
        import numpy as np
        from hctrellis import DasguptaModel, PairwiseWeights
        from hctrellis.core import popcount

        n = 30
        children = {}
        bits = full_mask(n)
        while popcount(bits) > 1:
            high = 1 << (bits.bit_length() - 1)
            children[bits] = (bits ^ high, high)
            bits ^= high
        chain = Hierarchy(full_mask(n), children)
        st = build_from_trees([chain])
        assert st.count_trees() == 1
        assert st.sparsity_index() == Fraction(1, num_hierarchies(n))

        ev_const = st.evaluate(ConstantModel(n))
        assert ev_const.log_partition() == 0.0

        rng = np.random.default_rng(3)
        w = rng.uniform(0, 1, size=(n, n))
        w = np.triu(w, 1)
        w = w + w.T
        model = DasguptaModel(PairwiseWeights(w))
        ev = st.evaluate(model)
        value, tree = ev.map_hierarchy()
        assert tree == chain
        assert value == pytest.approx(log_hierarchy_potential(chain, model), abs=1e-9)

    def test_frozen_digest(self):
        # every psi of a 24-leaf model reads the memo backend; log Z, MAP and
        # draws hash to digests recorded while that backend was a recursive
        # dict cache
        ordering = LeafOrdering("norm_ascending")
        config = JetConfig(root=WIDE_ROOT, lam=1.5, seed=5, leaf_count_filter=(24, 24))
        st = build_simulator_trellis(config, 40, ordering)
        jet = generate_jet(replace(config, seed=(5, 1000)))
        ev = st.evaluate(GinkgoModel(ordering.order_payloads(jet.payloads), lam=1.5))
        assert output_digest(ev.log_partition(), *ev.map_hierarchy()) == "aa66ca0cae2c9ab7"
        rng = np.random.default_rng((5, 24))
        assert output_digest(*[ev.sample(rng) for _ in range(300)]) == "6177c10a8aad8a9d"

    @pytest.mark.parametrize("model_kind, best, draws", [
        ("dasgupta", "8202799d75c5f6cb", "63962f60d7672ddc"),
        ("correlation", "763bb87e26208891", "3b09bb3c68814690"),
    ])
    def test_frozen_pair_sum_digest(self, model_kind, best, draws):
        # pair-sum aggregates past the dense cap come from the memo backend of
        # _SubsetPairSums; beta = 0.1 keeps 19 and 28 distinct trees among the
        # draws, so the digest depends on the split weights
        st = _wide_simulator_trellis()
        w = random_similarity_weights if model_kind == "dasgupta" else random_affinity_weights
        cls = DasguptaModel if model_kind == "dasgupta" else CorrelationModel
        ev = st.evaluate(cls(w(24, 5), beta=0.1))
        assert output_digest(ev.log_partition(), *ev.map_hierarchy()) == best
        rng = np.random.default_rng((5, 24))
        assert output_digest(*[ev.sample(rng) for _ in range(300)]) == draws


class TestSerialization:
    def test_round_trip(self, tmp_path):
        jets = _jet_set(6, 4, seed=37)
        st = build_from_trees(
            [j.tree for j in jets],
            LeafOrdering("random", seed=5),
            [j.payloads for j in jets],
        )
        path = tmp_path / "trellis.json"
        st.save(path)
        back = SparseTrellis.load(path)
        assert back.vertices == st.vertices
        assert back.ground.n == st.ground.n
        assert back.ordering == st.ordering
        assert back.count_trees() == st.count_trees()


class TestBuilders:
    def test_simulator_needs_fixed_leaf_count(self):
        with pytest.raises(ValueError):
            build_simulator_trellis(JetConfig(seed=0), 3)
        with pytest.raises(ValueError):
            build_simulator_trellis(JetConfig(seed=0, leaf_count_filter=(5, 9)), 3)

    def test_simulator_single_tree_sparsity(self):
        cfg = JetConfig(seed=3, leaf_count_filter=(6, 6))
        st = build_simulator_trellis(cfg, 1)
        assert st.sparsity_index() == Fraction(1, num_hierarchies(6))

    def test_simulator_growth(self):
        cfg = JetConfig(seed=3, leaf_count_filter=(6, 6))
        counts = [build_simulator_trellis(cfg, k).count_trees() for k in (1, 4, 8)]
        assert counts == sorted(counts)

    def test_beam_width_one_single_dataset_is_greedy_tree(self):
        from hctrellis.baselines import greedy_cluster

        jet = exact_leaf_jet(6, 41)
        st = build_beam_search_trellis(
            [jet.payloads],
            lambda p: GinkgoModel(p, lam=1.5),
            beam_width=1,
            lookahead=0,
        )
        assert st.count_trees() == 1
        _, greedy_tree = greedy_cluster(GinkgoModel(jet.payloads, lam=1.5))
        assert st.realizes(greedy_tree)

    def test_beam_trellis_contains_beam_trees(self):
        from hctrellis.baselines import beam_search_forest

        jets = _jet_set(6, 3, seed=43)
        payload_sets = [j.payloads for j in jets]
        st = build_beam_search_trellis(payload_sets, lambda p: GinkgoModel(p, lam=1.5))
        for payloads in payload_sets:
            model = GinkgoModel(payloads, lam=1.5)
            for _, tree in beam_search_forest(model):
                assert st.realizes(tree)
