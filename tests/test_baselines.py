from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hctrellis import (
    CorrelationModel,
    DasguptaModel,
    DenseTrellis,
    GinkgoModel,
    GroundSet,
    Hierarchy,
    beam_search_cluster,
    beam_search_forest,
    greedy_cluster,
    log_hierarchy_potential,
)
from hctrellis.baselines import (
    JOIN_CHUNK_PAIRS,
    SCORE_TIE_TOL,
    _lookahead_one,
    _merges,
    _ranked,
)
from hctrellis.core import full_mask
from hctrellis.datasets import (
    greedy_adversarial_weights,
    random_affinity_weights,
    random_similarity_weights,
)
from hctrellis.jetgen import JetConfig, generate_jet

from conftest import MODEL_KINDS, WIDE_ROOT, make_model, output_digest

ALL_KINDS = MODEL_KINDS + ("constant",)


# ---------------------------------------------------------------------------
# reference beam: the one-object-per-candidate implementation the level
# arrays replaced, kept verbatim so forests can be compared bit for bit


@dataclass
class BeamState:
    """A partial clustering: disjoint clusters covering the ground set."""

    partition: tuple[int, ...]  # ordered by lowest leaf
    children: dict[int, tuple[int, int]] = field(default_factory=dict)
    log_score: float = 0.0


def _merge_partition(partition: tuple[int, ...], i: int, j: int) -> tuple[int, ...]:
    merged = partition[i] | partition[j]
    out = list(partition[:j]) + list(partition[j + 1 :])
    out[i] = merged  # i < j and the lowest leaf is cluster i's, order is kept
    return tuple(out)


def _lookahead_bonus(partition: tuple[int, ...], psi, depth: int) -> float:
    # Greedy rollout of `depth` further merges, scored but not committed.
    bonus = 0.0
    parts = list(partition)
    for _ in range(depth):
        if len(parts) < 2:
            break
        best_val = None
        best = (0, 1)
        for i in range(len(parts)):
            for j in range(i + 1, len(parts)):
                v = psi(parts[i], parts[j])
                if best_val is None or v > best_val:
                    best_val = v
                    best = (i, j)
        bonus += best_val
        i, j = best
        parts[i] |= parts[j]
        del parts[j]
    return bonus


def reference_beam_search_forest(
    model,
    beam_width: int | None = None,
    lookahead: int = 1,
) -> list[tuple[float, Hierarchy]]:
    """Full final beam, best first.  Default width is n(n-1)/2."""
    n = model.n
    if n == 1:
        return [(0.0, Hierarchy(1, {}))]
    if beam_width is None:
        beam_width = max(1, n * (n - 1) // 2)
    if beam_width < 1:
        raise ValueError("beam width must be at least 1")

    cache: dict[tuple[int, int], float] = {}

    def psi(a: int, b: int) -> float:
        key = (a, b) if a < b else (b, a)
        val = cache.get(key)
        if val is None:
            val = model.log_psi(a, b)
            cache[key] = val
        return val

    states = [BeamState(tuple(1 << i for i in range(n)))]
    for _ in range(n - 1):
        candidates: list[tuple[float, BeamState]] = []
        for state in states:
            part = state.partition
            for i in range(len(part)):
                for j in range(i + 1, len(part)):
                    new_part = _merge_partition(part, i, j)
                    new_children = dict(state.children)
                    new_children[part[i] | part[j]] = (part[i], part[j])
                    new_score = state.log_score + psi(part[i], part[j])
                    bonus = (
                        _lookahead_bonus(new_part, psi, lookahead)
                        if lookahead > 0 and len(new_part) > 1
                        else 0.0
                    )
                    candidates.append(
                        (new_score + bonus, BeamState(new_part, new_children, new_score))
                    )
        candidates.sort(key=lambda c: (-c[0], c[1].partition))
        kept: list[BeamState] = []
        seen: dict[tuple[int, ...], list[float]] = {}
        for _, state in candidates:
            scores = seen.setdefault(state.partition, [])
            if any(abs(state.log_score - s) <= SCORE_TIE_TOL for s in scores):
                continue  # another merge order of the same clustering
            scores.append(state.log_score)
            kept.append(state)
            if len(kept) == beam_width:
                break
        states = kept
    return [
        (s.log_score, Hierarchy(full_mask(n), s.children))
        for s in sorted(states, key=lambda s: (-s.log_score, s.partition))
    ]


def reference_greedy_cluster(model) -> tuple[float, Hierarchy]:
    """greedy_cluster as a rescan of every pair after every merge, kept verbatim."""
    n = model.n
    clusters = [1 << i for i in range(n)]
    children: dict[int, tuple[int, int]] = {}
    score = 0.0
    for _ in range(n - 1):
        best_val = None
        best = (0, 1)
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                v = model.log_psi(clusters[i], clusters[j])
                if best_val is None or v > best_val:
                    best_val = v
                    best = (i, j)
        i, j = best
        merged = clusters[i] | clusters[j]
        children[merged] = (clusters[i], clusters[j])
        score += best_val
        clusters[i] = merged
        del clusters[j]
    return score, Hierarchy(full_mask(n), children)


def forest_bits(forest):
    """A forest as (score bits, children) pairs, compared exactly."""
    return [(score.hex(), dict(tree.children)) for score, tree in forest]


def recording_psi(model):
    """Record the pairs model.log_psi and model.log_psi_pairs are given."""
    scalar, batched = [], []
    raw, raw_pairs = model.log_psi, model.log_psi_pairs

    def log_psi(left, right):
        scalar.append((left, right))
        return raw(left, right)

    def log_psi_pairs(lefts, rights):
        batched.extend(zip(lefts.tolist(), rights.tolist()))
        return raw_pairs(lefts, rights)

    model.log_psi, model.log_psi_pairs = log_psi, log_psi_pairs
    return scalar, batched


def assert_greedy_psi_calls(model, reference_calls):
    """The pair table scores each pair once, (n-1)^2 calls in all, in the
    argument order the reference's rescan uses, and keeps its result."""
    scalar, _ = recording_psi(model)
    expected = reference_greedy_cluster(model)
    reference_pairs = set(scalar)
    assert len(scalar) == reference_calls
    scalar.clear()
    got = greedy_cluster(model)
    assert len(scalar) == (model.n - 1) ** 2
    assert len({frozenset(pair) for pair in scalar}) == len(scalar)
    assert set(scalar) <= reference_pairs
    assert forest_bits([got]) == forest_bits([expected])


def assert_same_forest(model, beam_width=None, lookahead=1):
    expected = reference_beam_search_forest(model, beam_width, lookahead)
    got = beam_search_forest(model, beam_width, lookahead)
    assert all(type(score) is float for score, _ in got)
    assert forest_bits(got) == forest_bits(expected)


class TestGreedy:
    def test_single_leaf(self):
        score, tree = greedy_cluster(make_model("constant", 1, seed=0))
        assert score == 0.0 and tree == Hierarchy(1, {})

    def test_two_leaves_equals_map(self):
        model = make_model("dasgupta", 2, seed=0)
        g_score, g_tree = greedy_cluster(model)
        m_score, m_tree = DenseTrellis(GroundSet(2), model).map_hierarchy()
        assert g_tree == m_tree
        assert g_score == pytest.approx(m_score, abs=1e-12)

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_never_beats_exact_map(self, kind):
        for n in (4, 6, 7):
            model = make_model(kind, n, seed=n)
            g_score, _ = greedy_cluster(model)
            m_score, _ = DenseTrellis(GroundSet(n), model).map_hierarchy()
            assert g_score <= m_score + 1e-9

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_score_matches_tree(self, kind):
        model = make_model(kind, 6, seed=2)
        score, tree = greedy_cluster(model)
        tree.validate(n=6, require_root=full_mask(6))
        assert score == pytest.approx(log_hierarchy_potential(tree, model), abs=1e-9)

    def test_deterministic_tie_break(self):
        model = make_model("constant", 5, seed=0)
        _, tree = greedy_cluster(model)
        # with all psi equal the first (lowest-leaf) pair always merges
        _, tree2 = greedy_cluster(model)
        assert tree == tree2


class TestGreedyMatchesReference:
    """greedy_cluster returns the reference's (score, tree) bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(ALL_KINDS), n=st.integers(1, 10), seed=st.integers(0, 10**6))
    def test_small_models(self, kind, n, seed):
        model = make_model(kind, n, seed)
        assert forest_bits([greedy_cluster(model)]) == forest_bits([reference_greedy_cluster(model)])

    @pytest.mark.parametrize("kind, n, digest", [
        ("constant", 7, "f29d49a51c9ae20b"),
        ("constant", 12, "5ba63c19ef43d138"),
        ("dasgupta", 7, "137a7d5e41c3bbae"),
        ("dasgupta", 12, "fbfab5b55662ffc8"),
        ("correlation", 7, "9760e1d9a9229367"),
        ("correlation", 12, "6d076e66dc38de50"),
        ("ginkgo", 7, "a3cf3c55299fb42b"),
        ("ginkgo", 12, "629c279cde69269d"),
    ])
    def test_frozen_digest(self, kind, n, digest):
        # (score, tree) digests recorded before greedy shared the pair scan
        assert output_digest(*greedy_cluster(make_model(kind, n, seed=5))) == digest

    def test_same_psi_calls(self):
        assert_greedy_psi_calls(make_model("ginkgo", 9, seed=3), 120)


class TestPastTheTables:
    """Greedy and beam above the table cap, where psi reads the memo backend."""

    @pytest.mark.parametrize("kind, greedy, beam", [
        ("ginkgo", "dc06f16f46348a25", "22b91f92c3924844"),
        ("dasgupta", "94f924bbed099794", "8dff2f05ae70c3e6"),
        ("correlation", "49c9e2f32d642c9a", "91ad82413043b62b"),
    ])
    def test_frozen_digest(self, kind, greedy, beam):
        # (score, tree) digests of greedy and a width-3 beam forest, recorded
        # while the memo was a recursive dict cache
        if kind == "ginkgo":
            config = JetConfig(root=WIDE_ROOT, lam=1.5, seed=(5, 2000), leaf_count_filter=(24, 24))
            model = GinkgoModel(generate_jet(config).payloads, lam=1.5)
        elif kind == "dasgupta":
            model = DasguptaModel(random_similarity_weights(40, 5))
        else:
            model = CorrelationModel(random_affinity_weights(40, 5))
        assert output_digest(*greedy_cluster(model)) == greedy
        forest = beam_search_forest(model, 3)
        assert output_digest(*[x for pair in forest for x in pair]) == beam

    def test_greedy_psi_calls(self):
        # 1521 calls against the rescan's 10660
        assert_greedy_psi_calls(make_model("dasgupta", 40, seed=5), 10660)


class TestBeam:
    def test_degenerate_beam_equals_greedy(self):
        for seed in range(4):
            model = DasguptaModel(random_similarity_weights(6, seed))
            g_score, g_tree = greedy_cluster(model)
            b_score, b_tree = beam_search_cluster(model, beam_width=1, lookahead=0)
            assert b_tree == g_tree
            assert b_score == pytest.approx(g_score, abs=1e-12)

    def test_exhaustive_beam_equals_map(self):
        for kind in MODEL_KINDS:
            for n in (4, 5):
                model = make_model(kind, n, seed=7)
                b_score, _ = beam_search_cluster(model, beam_width=100_000, lookahead=1)
                m_score, _ = DenseTrellis(GroundSet(n), model).map_hierarchy()
                assert b_score == pytest.approx(m_score, abs=1e-9)

    def test_default_width_dominated_by_map(self):
        for i in range(10):
            model = make_model("ginkgo", 7, seed=(40, i))
            b_score, b_tree = beam_search_cluster(model)
            m_score, _ = DenseTrellis(GroundSet(7), model).map_hierarchy()
            assert b_score <= m_score + 1e-9
            assert b_score == pytest.approx(
                log_hierarchy_potential(b_tree, model), abs=1e-9
            )

    def test_width_validation(self):
        with pytest.raises(ValueError):
            beam_search_cluster(make_model("constant", 3, seed=0), beam_width=0)

    @pytest.mark.parametrize("n", [1, 4])
    def test_negative_lookahead_rejected(self, n):
        with pytest.raises(ValueError, match="lookahead"):
            beam_search_cluster(make_model("dasgupta", n, seed=0), lookahead=-1)

    def test_non_integer_width_rejected(self):
        # a width of 2.5 is never reached, so it would keep every candidate
        with pytest.raises(ValueError, match="beam width"):
            beam_search_forest(make_model("dasgupta", 7, seed=1), beam_width=2.5)

    @pytest.mark.parametrize("lookahead", [1.0, "1"])
    def test_non_integer_lookahead_rejected(self, lookahead):
        with pytest.raises(ValueError, match="lookahead"):
            beam_search_forest(make_model("dasgupta", 7, seed=1), lookahead=lookahead)

    @pytest.mark.parametrize("name", ["beam_width", "lookahead"])
    @pytest.mark.parametrize("value", [True, False, np.bool_(True)], ids=repr)
    def test_booleans_rejected(self, name, value):
        # True ran a width-1 beam and False lookahead 0
        with pytest.raises(ValueError, match=f"{name.replace('_', ' ')} must be an integer"):
            beam_search_forest(make_model("dasgupta", 7, seed=1), **{name: value})

    def test_numpy_integers_accepted(self):
        model = make_model("dasgupta", 7, seed=1)
        got = beam_search_forest(model, np.int64(2), np.int32(2))
        assert forest_bits(got) == forest_bits(beam_search_forest(model, 2, 2))

    def test_forest_is_sorted_and_bounded(self):
        model = make_model("dasgupta", 6, seed=5)
        forest = beam_search_forest(model, beam_width=7)
        assert len(forest) <= 7
        scores = [s for s, _ in forest]
        assert scores == sorted(scores, reverse=True)
        for score, tree in forest:
            tree.validate(n=6, require_root=full_mask(6))
            assert score == pytest.approx(log_hierarchy_potential(tree, model), abs=1e-9)

    def test_forest_deduplicates_orderings(self):
        # under a constant model every merge order of a clustering ties, so
        # the beam must not be flooded by permuted copies of one tree
        model = make_model("constant", 5, seed=0)
        forest = beam_search_forest(model, beam_width=50)
        signatures = [tree.signature() for _, tree in forest]
        assert len(signatures) == len(set(signatures))


class TestBeamMatchesReference:
    """The level-array beam returns the reference's forest bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(ALL_KINDS),
        n=st.integers(1, 10),
        seed=st.integers(0, 10**6),
        beam_width=st.sampled_from([1, 3, None]),
        lookahead=st.sampled_from([0, 1, 2, 3]),
    )
    def test_small_models(self, kind, n, seed, beam_width, lookahead):
        assert_same_forest(make_model(kind, n, seed), beam_width, lookahead)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_fourteen_leaves(self, kind):
        assert_same_forest(make_model(kind, 14, seed=1))

    @pytest.mark.parametrize("lookahead", [0, 1, 2])
    def test_same_psi_calls(self, lookahead):
        # levels and rollouts score every pair in batches, smaller cluster
        # first, and cover exactly the pairs the reference scores one at a time
        for kind in MODEL_KINDS:
            model = make_model(kind, 9, seed=3)
            scalar, batched = recording_psi(model)
            reference_beam_search_forest(model, lookahead=lookahead)
            expected = {tuple(sorted(pair)) for pair in scalar}
            scalar.clear()
            beam_search_forest(model, lookahead=lookahead)
            assert scalar == []
            assert all(left < right for left, right in batched)
            assert set(batched) == expected

    def test_rollout_calls_are_chunked(self):
        # at n = 10 a level scores at most 45 * 36 merges, while the second
        # level's rollout scores 45 * 36 rows of 28 pairs, past JOIN_CHUNK_PAIRS
        model = make_model("ginkgo", 10, seed=3)
        sizes = []
        raw_pairs = model.log_psi_pairs

        def log_psi_pairs(lefts, rights):
            sizes.append(len(lefts))
            return raw_pairs(lefts, rights)

        model.log_psi_pairs = log_psi_pairs
        beam_search_forest(model, lookahead=2)
        assert max(sizes) <= JOIN_CHUNK_PAIRS

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_fourteen_leaves_width_one(self, kind):
        # the first ranking band is two candidates, so most levels need more
        assert_same_forest(make_model(kind, 14, seed=1), beam_width=1)

    @pytest.mark.parametrize("beam_width, lookahead", [(None, 1), (3, 2), (None, 0)])
    @pytest.mark.parametrize("kind", ["correlation", "dasgupta"])
    def test_extreme_beta(self, kind, beam_width, lookahead):
        # psi past the float range: scores near -1e308 or all -inf
        if kind == "correlation":
            model = CorrelationModel(random_affinity_weights(7, 4), beta=1e307)
        else:
            model = DasguptaModel(random_similarity_weights(7, 4), beta=1e307)
        assert_same_forest(model, beam_width, lookahead)

    def test_clusters_past_32_bits(self):
        # clusters over 40 leaves need more than 32 bits
        assert_same_forest(make_model("dasgupta", 40, seed=2), beam_width=3)

    def test_leaf_63(self):
        # leaf 63 sets the sign bit of an int64, so clusters stay uint64
        assert_same_forest(make_model("dasgupta", 64, seed=2), beam_width=2, lookahead=0)


class TestClosedFormLookahead:
    def test_sixty_four_clusters(self):
        # merges of column 63 set the top bit of their uint64 touch masks;
        # the bonus is checked against a max over every pair avoiding i and j
        model = make_model("dasgupta", 64, seed=2)

        def psi_pairs(a, b):
            lo, hi = np.minimum(a, b), np.maximum(a, b)
            return model.log_psi_pairs(lo.ravel(), hi.ravel()).reshape(lo.shape)

        parts = np.array([[1 << i for i in range(64)]], dtype=np.uint64)
        I, J, _ = _merges(64)
        lefts, rights = parts[:, I], parts[:, J]
        merged = lefts | rights
        pair_vals = psi_pairs(lefts, rights)
        got = _lookahead_one(parts, merged, pair_vals, I, J, psi_pairs)

        cols = np.arange(64)
        rest = np.broadcast_to(cols, (len(I), 64))[(cols != I[:, None]) & (cols != J[:, None])]
        best_join = psi_pairs(merged[:, :, None], parts[:, rest.reshape(len(I), 62)]).max(axis=2)
        disjoint = (I[:, None] != I) & (I[:, None] != J) & (J[:, None] != I) & (J[:, None] != J)
        best_avoid = np.array([np.where(disjoint, vals, -np.inf).max(axis=1) for vals in pair_vals])
        assert got.tobytes() == np.maximum(best_join, best_avoid).tobytes()


def assert_lexsort_order(neg_keys, parts, first):
    neg_keys = np.asarray(neg_keys, dtype=np.float64)
    parts = np.asarray(parts, dtype=np.uint64).reshape(len(neg_keys), -1)
    expected = np.lexsort(tuple(parts.T[::-1]) + (neg_keys,))
    assert list(_ranked(neg_keys, parts, first)) == expected.tolist()


INF, NAN = np.inf, np.nan
RNG = np.random.default_rng(3)


class TestBandedRanking:
    """The bands concatenate to one stable np.lexsort on (key, partition)."""

    # a first band of 64 is more than all but the last table holds
    @pytest.mark.parametrize("first", [1, 2, 3, 5, 64])
    @pytest.mark.parametrize("neg_keys, parts", [
        pytest.param(  # the 2nd to 6th smallest keys tie; partitions break some
            [0.5, 1.0, 1.0, 1.0, 1.0, 2.0, 1.0, 3.0, 0.5],
            [[3, 4], [5, 1], [3, 4], [2, 9], [5, 0], [1, 1], [2, 9], [0, 0], [7, 7]],
            id="ties-span-a-band-boundary",
        ),
        pytest.param(
            [0.0, -0.0, 1.0, 0.0, -0.0, -1.0], [[6], [5], [4], [3], [2], [1]],
            id="signed-zeros-tie",
        ),
        pytest.param(
            [NAN, INF, -INF, 0.0, NAN, INF, -INF, 1.0, NAN, -INF, 2.0],
            [[3], [1], [2], [0], [1], [0], [1], [5], [0], [1], [4]],
            id="infinities-and-nan",
        ),
        pytest.param([NAN] * 5, [[4], [2], [3], [2], [0]], id="all-nan"),
        pytest.param(  # the constant model: every key ties, partitions decide
            np.zeros(50), RNG.integers(0, 4, size=(50, 3)), id="all-keys-equal",
        ),
        pytest.param(  # a width-1 beam ranks with a first band of two
            RNG.integers(0, 30, size=300), RNG.integers(0, 3, size=(300, 4)), id="many-bands",
        ),
    ])
    def test_matches_one_lexsort(self, neg_keys, parts, first):
        assert_lexsort_order(neg_keys, parts, first)

    @settings(max_examples=80, deadline=None)
    @given(
        data=st.lists(
            st.tuples(
                st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, np.inf, -np.inf, np.nan]),
                st.lists(st.integers(0, 2), min_size=2, max_size=2),
            ),
            min_size=1,
            max_size=40,
        ),
        first=st.integers(1, 12),
    )
    def test_random_keys(self, data, first):
        assert_lexsort_order([key for key, _ in data], [part for _, part in data], first)


class TestBeamScores:
    def test_score_recompute(self):
        model = make_model("correlation", 6, seed=3)
        for score, tree in beam_search_forest(model, beam_width=5):
            assert score == pytest.approx(log_hierarchy_potential(tree, model), abs=1e-12)


class TestGreedySuboptimality:
    def test_adversarial_graph(self):
        weights = greedy_adversarial_weights()
        model = DasguptaModel(weights)
        greedy_score, _ = greedy_cluster(model)
        map_score, _ = DenseTrellis(GroundSet(weights.n), model).map_hierarchy()
        greedy_cost = -greedy_score
        map_cost = -map_score
        assert map_cost < greedy_cost - 1e-6
