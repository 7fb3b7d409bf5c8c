import hashlib
import math

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
