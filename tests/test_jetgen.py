import hashlib
import math
import time

import numpy as np
import pytest

import hctrellis.jetgen as jetgen
from hctrellis import FourVector, GinkgoModel, log_hierarchy_potential
from hctrellis.core import leaf_indices, popcount
from hctrellis.jetgen import JetConfig, generate_jet

from conftest import exact_leaf_jet


def leaf_vector_sum(jet, bits):
    vecs = [jet.payloads[i] for i in leaf_indices(bits)]
    total = vecs[0]
    for v in vecs[1:]:
        total = total + v
    return total


class TestConfig:
    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            JetConfig(lam=0.0)
        with pytest.raises(ValueError):
            JetConfig(t_cut=-1.0)

    def test_rejects_spacelike_root(self):
        with pytest.raises(ValueError):
            JetConfig(root=FourVector(1.0, 5.0, 0.0, 0.0))

    def test_rejects_bad_filter(self):
        with pytest.raises(ValueError):
            JetConfig(leaf_count_filter=(3, 2))

    @pytest.mark.parametrize("t_cut", [math.nan, math.inf])
    def test_rejects_non_finite_cutoff(self, t_cut):
        with pytest.raises(ValueError, match="t_cut"):
            JetConfig(t_cut=t_cut)

    @pytest.mark.parametrize("name, value", [
        ("e", math.nan), ("e", math.inf), ("px", math.nan), ("py", math.inf), ("pz", -math.inf),
    ])
    def test_rejects_non_finite_root_component(self, name, value):
        parts = {"e": 100.0, "px": 0.0, "py": 0.0, "pz": 80.0, name: value}
        with pytest.raises(ValueError, match=f"root\\.{name} must be finite"):
            JetConfig(root=FourVector(**parts))

    def test_rejects_root_whose_squared_mass_overflows(self):
        with pytest.raises(ValueError, match="squared mass"):
            JetConfig(root=FourVector(1e200, 0.0, 0.0, 0.0))


class TestSingleLeaf:
    def test_soft_root_never_splits(self):
        config = JetConfig(root=FourVector(10.0, 0.0, 0.0, 8.0), t_cut=100.0, seed=0)
        jet = generate_jet(config)
        assert jet.num_leaves() == 1
        assert jet.truth_log_likelihood == 0.0
        assert jet.payloads[0] == config.root


class TestPhysics:
    def test_momentum_conservation(self):
        for i in range(50):
            jet = generate_jet(JetConfig(seed=(1, i)))
            for parent in jet.tree.children:
                stored = jet.internal_vectors[parent]
                summed = leaf_vector_sum(jet, parent)
                for a, b in zip(stored.as_tuple(), summed.as_tuple()):
                    assert abs(a - b) <= 1e-9

    def test_strict_mass_decrease(self):
        for i in range(50):
            jet = generate_jet(JetConfig(seed=(2, i)))
            for parent, (left, right) in jet.tree.children.items():
                tp = jet.internal_vectors[parent].mass2
                for child in (left, right):
                    assert leaf_vector_sum(jet, child).mass2 < tp

    def test_cutoff_separates_leaves_from_internal(self):
        for i in range(50):
            jet = generate_jet(JetConfig(seed=(3, i)))
            t_cut = jet.config.t_cut
            for node in jet.tree.nodes():
                t = leaf_vector_sum(jet, node).mass2
                if popcount(node) == 1:
                    assert t < t_cut
                else:
                    assert t >= t_cut

    def test_leaf_mass_nonnegative_up_to_tolerance(self):
        for i in range(100):
            jet = generate_jet(JetConfig(seed=(4, i)))
            for v in jet.payloads:
                assert v.mass2 >= -1e-9


class TestTruthLikelihood:
    def test_matches_model_rescoring(self):
        for i in range(50):
            jet = generate_jet(JetConfig(seed=(5, i)))
            if jet.num_leaves() < 2:
                continue
            model = GinkgoModel(jet.payloads, lam=jet.config.lam)
            rescored = log_hierarchy_potential(jet.tree, model)
            assert rescored == pytest.approx(jet.truth_log_likelihood, abs=1e-9)
            assert math.isfinite(rescored)


class TestDeterminism:
    def test_same_seed_same_jet(self):
        a = generate_jet(JetConfig(seed=(9, 9)))
        b = generate_jet(JetConfig(seed=(9, 9)))
        assert a.tree == b.tree
        assert all(x == y for x, y in zip(a.payloads, b.payloads))
        assert a.truth_log_likelihood == b.truth_log_likelihood


def jet_digest(jet) -> str:
    """Hash of a jet's payloads, tree, truth log likelihood and internal vectors."""
    h = hashlib.sha256()
    for v in jet.payloads:
        h.update(repr(tuple(x.hex() for x in v.as_tuple())).encode())
    h.update(repr(sorted(jet.tree.children.items())).encode())
    h.update(jet.truth_log_likelihood.hex().encode())
    for bits, v in sorted(jet.internal_vectors.items()):
        h.update(repr((bits, tuple(x.hex() for x in v.as_tuple()))).encode())
    return h.hexdigest()[:16]


SPARSE_ROOT = FourVector(200.0, 0.0, 0.0, 100.0)  # 24 leaves in about 1 jet of 55
REST_ROOT = FourVector(100.0, 0.0, 0.0, 0.0)


class TestFrozenJets:
    """Jets at fixed seeds hash to recorded digests, so a change to the RNG
    stream or to the tree bookkeeping after the leaf-count filter shows."""

    @pytest.mark.parametrize("root, leaf_filter, seed, digest", [
        (SPARSE_ROOT, (24, 24), 1, "d627a2acfce2ccc5"),
        (SPARSE_ROOT, (24, 24), (3, 1_000_000), "3208a7fac4534bdd"),
        (REST_ROOT, (14, 14), (2, 14), "bb3b563efbf582d9"),
        (jetgen.DEFAULT_ROOT, (5, 8), 7, "d6e1e35a7d70eba0"),
        (jetgen.DEFAULT_ROOT, (9, 9), (1, 9, 0), "3b80102753905fda"),
        (jetgen.DEFAULT_ROOT, None, (9, 9), "be8f2854fda99c00"),
    ])
    def test_digest(self, root, leaf_filter, seed, digest):
        jet = generate_jet(JetConfig(root=root, lam=1.5, seed=seed, leaf_count_filter=leaf_filter))
        assert jet_digest(jet) == digest


class TestLeafCountFilter:
    def test_exact_count(self):
        for n in (1, 2, 5, 9):
            jet = exact_leaf_jet(n, seed=42)
            assert jet.num_leaves() == n

    def test_single_leaf_on_the_first_draw(self, monkeypatch):
        monkeypatch.setattr(jetgen, "JET_RESAMPLE_BUDGET", 1)
        for seed in range(5):
            assert exact_leaf_jet(1, seed).num_leaves() == 1

    def test_range(self):
        jet = generate_jet(JetConfig(seed=10, leaf_count_filter=(5, 10)))
        assert 5 <= jet.num_leaves() <= 10

    def test_budget_exhaustion(self, monkeypatch):
        monkeypatch.setattr(jetgen, "JET_RESAMPLE_BUDGET", 3)
        with pytest.raises(ValueError, match="leaves"):
            generate_jet(JetConfig(seed=0, leaf_count_filter=(25, 25)))


class TestLeafBudget:
    def test_tiny_cutoff_is_refused_quickly(self):
        # without a leaf budget this jet grows without bound (over 50 s)
        start = time.perf_counter()
        with pytest.raises(ValueError, match="leaves"):
            generate_jet(JetConfig(seed=1, t_cut=1e-300))
        assert time.perf_counter() - start < 20.0

    def test_budget_is_the_largest_jet_allowed(self, monkeypatch):
        config = JetConfig(seed=(9, 9))
        jet = generate_jet(config)
        monkeypatch.setattr(jetgen, "_LEAF_BUDGET", jet.num_leaves())
        assert jet_digest(generate_jet(config)) == jet_digest(jet)
        monkeypatch.setattr(jetgen, "_LEAF_BUDGET", jet.num_leaves() - 1)
        with pytest.raises(ValueError, match=f"past {jet.num_leaves() - 1} leaves"):
            generate_jet(config)

    def test_budget_applies_to_draws_the_filter_rejects(self, monkeypatch):
        # the jet kept is the third draw (9 leaves); the first has 19
        config = JetConfig(root=SPARSE_ROOT, seed=1, leaf_count_filter=(9, 9))
        assert generate_jet(config).num_leaves() == 9
        monkeypatch.setattr(jetgen, "_LEAF_BUDGET", 12)
        with pytest.raises(ValueError, match="past 12 leaves"):
            generate_jet(config)


class TestUniformBlocks:
    """Uniforms are drawn in blocks; the jets must not depend on the block size."""

    @pytest.mark.parametrize("k", [1, 7, 256])
    def test_block_draw_equals_scalar_draws(self, k):
        block_rng, scalar_rng = np.random.default_rng((4, k)), np.random.default_rng((4, k))
        block = [x.hex() for x in block_rng.random(k).tolist()]
        assert block == [scalar_rng.random().hex() for _ in range(k)]
        # and both streams continue from the same state
        assert block_rng.random() == scalar_rng.random()

    @pytest.mark.parametrize("root, leaf_filter, t_cut, seed", [
        # dozens of resamples per jet, so blocks end across resamples
        (SPARSE_ROOT, (24, 24), jetgen.DEFAULT_TCUT, 1),
        (SPARSE_ROOT, (24, 24), jetgen.DEFAULT_TCUT, (3, 1_000_000)),
        # no filter: one draw, ~50 uniforms
        (jetgen.DEFAULT_ROOT, None, jetgen.DEFAULT_TCUT, (9, 9)),
        # no filter, 51 leaves: ~430 uniforms span more than one default block
        (SPARSE_ROOT, None, 5.0, 4),
    ], ids=["filtered_24", "filtered_24_large_seed", "unfiltered_9", "unfiltered_51"])
    def test_jets_do_not_depend_on_block_size(self, monkeypatch, root, leaf_filter, t_cut, seed):
        config = JetConfig(root=root, t_cut=t_cut, seed=seed, leaf_count_filter=leaf_filter)
        digests = []
        # 7 uniforms end a block in the middle of most splits (~7.7 per split)
        for size in (1, 7, jetgen._UNIFORM_BLOCK):
            monkeypatch.setattr(jetgen, "_UNIFORM_BLOCK", size)
            digests.append(jet_digest(generate_jet(config)))
        assert digests[0] == digests[1] == digests[2]
