"""The dense engine under a masked model as an oracle for the sparse engine.

A tree is realizable in a sparse trellis exactly when every one of its
splits is stored, so the sparse log Z, MAP and posterior of a model equal
the dense ones of the same model with log psi = -inf on every split the
trellis does not store.  These tests check that at 10 to 13 leaves, on
trellises as sparse as the seeded ones the engine is built for.
"""

from collections import Counter
from functools import lru_cache

import numpy as np
import pytest
from scipy.stats import binomtest

from hctrellis import DenseTrellis, GinkgoModel, JetConfig, PotentialModel, generate_jet
from hctrellis.core import LOG_ZERO
from hctrellis.sparse import LeafOrdering, build_beam_search_trellis, build_simulator_trellis

ORDERING = LeafOrdering("norm_ascending")
BINOM_MIN_P = 1e-6


class _Masked(PotentialModel):
    """``base`` on the splits of ``stored``, -inf on every other split.

    A split is keyed by (parent, the child holding the parent's lowest
    leaf), so both orientations of a pair find the same key; keys are
    looked up by ``np.searchsorted`` in one sorted array.  There are no
    separable terms, so the dense engine scores every split through
    ``log_psi_pairs``."""

    kind = "masked"

    def __init__(self, base: PotentialModel, stored):
        self.n = base.n
        self.base = base
        pairs = [pair for pairs in stored.values() for pair in pairs]
        self.keys = np.sort(self._keys(*np.array(pairs, dtype=np.int64).reshape(-1, 2).T))

    def _keys(self, lefts, rights):
        lefts, rights = np.asarray(lefts, dtype=np.int64), np.asarray(rights, dtype=np.int64)
        parents = lefts | rights
        held = np.where(lefts & (parents & -parents), lefts, rights)
        return parents << self.n | held

    def _stored(self, lefts, rights):
        keys = self._keys(lefts, rights)
        at = np.searchsorted(self.keys, keys).clip(max=self.keys.size - 1)
        return self.keys[at] == keys

    def log_psi_pairs(self, lefts, rights):
        return np.where(self._stored(lefts, rights), self.base.log_psi_pairs(lefts, rights), LOG_ZERO)

    def _log_psi(self, left, right):
        return self.base.log_psi(left, right) if self._stored(left, right) else LOG_ZERO


def _jet_trellis(n: int):
    config = JetConfig(lam=1.5, seed=n, leaf_count_filter=(n, n))
    return build_simulator_trellis(config, 40, ORDERING)


@lru_cache(maxsize=None)
def _trellis(name: str):
    if name == "beam10":
        sets = [generate_jet(JetConfig(lam=1.5, seed=(7, i), leaf_count_filter=(10, 10))).payloads
                for i in range(2)]
        return build_beam_search_trellis(sets, lambda p: GinkgoModel(p, lam=1.5), ORDERING)
    return _jet_trellis(int(name.removeprefix("sim")))


def _model(name: str, index: int) -> GinkgoModel:
    n = _trellis(name).ground.n
    jet = generate_jet(JetConfig(lam=1.5, seed=(n, 100 + index), leaf_count_filter=(n, n)))
    return GinkgoModel(ORDERING.order_payloads(jet.payloads), lam=1.5)


def _assert_matches_masked_dense(st, model):
    ev = st.evaluate(model)
    dense = DenseTrellis(st.ground, _Masked(model, st.vertices))
    log_z, dense_z = ev.log_partition(), dense.log_partition()
    assert np.isfinite(log_z) and np.isfinite(dense_z)
    assert abs(log_z - dense_z) <= 1e-12 * max(1.0, abs(dense_z))
    assert ev.map_hierarchy() == dense.map_hierarchy()
    return ev, dense


CASES = [(name, index) for name in ("sim10", "sim12", "sim13") for index in range(3)]
CASES += [("beam10", 0), ("beam10", 1)]


class TestMaskedDenseOracle:
    @pytest.mark.parametrize("name, index", CASES, ids=[f"{n}-{i}" for n, i in CASES])
    def test_log_z_and_map(self, name, index):
        st = _trellis(name)
        assert st.count_trees() > 1
        _assert_matches_masked_dense(st, _model(name, index))

    def test_mask_keeps_exactly_the_stored_splits(self):
        # every split of every cluster of 10 leaves, in both orientations
        st = _trellis("sim10")
        masked = _Masked(_model("sim10", 0), st.vertices)
        lefts, rights, stored = [], [], []
        for v in range(3, 1 << 10):
            pairs = set(st.vertices.get(v, ()))
            sub = (v - 1) & v
            while sub:
                lefts.append(sub)
                rights.append(v ^ sub)
                stored.append((sub, v ^ sub) in pairs or (v ^ sub, sub) in pairs)
                sub = (sub - 1) & v
        lefts, rights = np.array(lefts), np.array(rights)
        assert sum(stored) == 2 * st.num_edges()
        expect = np.where(stored, masked.base.log_psi_pairs(lefts, rights), LOG_ZERO)
        assert masked.log_psi_pairs(lefts, rights).tolist() == expect.tolist()
        pick = slice(None, None, 97)
        scalar = [masked.log_psi(l, r) for l, r in zip(lefts[pick].tolist(), rights[pick].tolist())]
        assert scalar == expect[pick].tolist()

    def test_dead_splits_inside_the_trellis(self):
        # the base model is dead on the first pair of every multi-pair vertex
        # and on every pair of one inner multi-pair vertex
        st = _trellis("sim12")
        model = _model("sim12", 0)
        multi = [v for v, pairs in st.vertices.items() if len(pairs) > 1]
        dead_vertex = next(v for v in multi if v != st.root)
        live = {v: pairs[1:] if len(pairs) > 1 else pairs for v, pairs in st.vertices.items()}
        live[dead_vertex] = []
        dead = _Masked(model, live)
        ev, dense = _assert_matches_masked_dense(st, dead)
        assert ev._log_z[st._table.ids[dead_vertex]] == LOG_ZERO
        _, tree = ev.map_hierarchy()
        assert dead_vertex not in tree.children
        assert all(tree.children[v] != pairs[0] for v, pairs in st.vertices.items()
                   if v in tree.children and len(pairs) > 1)

    @pytest.mark.parametrize("name, index", [("sim10", 1), ("beam10", 0)])
    def test_draws_match_masked_dense_marginals(self, name, index):
        st = _trellis(name)
        ev, dense = _assert_matches_masked_dense(st, _model(name, index))
        draws = 2000
        rng = np.random.default_rng((index, 2000))
        seen = Counter(v for _ in range(draws) for v in ev.sample(rng).children)
        clusters = set(seen) | {v for v in st.vertices if v.bit_count() > 1}
        assert len(seen) > 10
        for v in sorted(clusters):
            p = float(np.exp(dense.marginal_cluster(v)))
            assert binomtest(seen[v], draws, min(p, 1.0)).pvalue >= BINOM_MIN_P, v
