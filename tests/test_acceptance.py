"""Acceptance suite: every exit criterion at its stated tolerance.

Each criterion is one test that prints a single PASS/FAIL line (run with
``pytest tests/test_acceptance.py -v -s`` to see them live).  Expected
values come from the brute-force oracle, closed-form counts, or direct
formula evaluation; nothing is tuned to the code under test.
"""

from __future__ import annotations

import functools
import math
import time
from collections import Counter
from dataclasses import replace

import numpy as np
from scipy import stats

from hctrellis import (
    ConstantModel,
    DenseTrellis,
    GinkgoModel,
    GroundSet,
    beam_search_cluster,
    greedy_cluster,
    log_hierarchy_potential,
    num_hierarchies,
    oracle_summary,
    pivot_splits,
    split_term_count,
)
from hctrellis.core import full_mask, relabel_hierarchy
from hctrellis.datasets import greedy_adversarial_weights
from hctrellis.jetgen import JetConfig, generate_jet
from hctrellis.models import DasguptaModel
from hctrellis.sparse import (
    LeafOrdering,
    build_beam_search_trellis,
    build_simulator_trellis,
)

from conftest import MODEL_KINDS, exact_leaf_jet, make_model

TOL = 1e-9


def criterion(number: int, name: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {number} ({name}): FAIL")
                raise
            suffix = f" [{detail}]" if detail else ""
            print(f"\nACCEPTANCE {number} ({name}): PASS{suffix}")

        return wrapper

    return decorate


@criterion(1, "oracle equivalence")
def test_oracle_equivalence():
    started = time.perf_counter()
    instances = 0
    for n in range(2, 9):
        ground = GroundSet(n)
        for kind in MODEL_KINDS:
            for seed in range(7):
                model = make_model(kind, n, seed=(1000, seed))
                trellis = DenseTrellis(ground, model)
                summary = oracle_summary(ground, model)
                assert abs(trellis.log_partition() - summary.log_z) <= TOL
                map_value, map_tree = trellis.map_hierarchy()
                assert abs(map_value - summary.map_log_potential) <= TOL
                map_tree.validate(n=n, require_root=full_mask(n))
                for i in range(n):
                    for j in range(i + 1, n):
                        bits = (1 << i) | (1 << j)
                        assert (
                            abs(trellis.marginal_cluster(bits) - summary.marginal(bits))
                            <= TOL
                        )
                instances += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0, f"criterion 1 sweep took {elapsed:.1f}s"
    return f"{instances} instances over n=2..8 in {elapsed:.1f}s"


@criterion(2, "counting identities")
def test_counting_identities():
    for n in range(2, 15):
        trellis = DenseTrellis(GroundSet(n), ConstantModel(n))
        assert trellis.count_trees() == num_hierarchies(n)
    assert num_hierarchies(4) == 15
    assert num_hierarchies(10) == 34_459_425
    for k in range(2, 11):
        assert len(list(pivot_splits(full_mask(k)))) == 2 ** (k - 1) - 1
    assert len(list(pivot_splits(full_mask(4)))) == 7
    return "counts match (2n-3)!! for n<=12; splits match 2^(k-1)-1"


@criterion(3, "sampling exactness")
def test_sampling_exactness():
    started = time.perf_counter()
    draws = 100_000

    jet = exact_leaf_jet(5, seed=(42,))
    model = GinkgoModel(jet.payloads, lam=jet.config.lam)
    trellis = DenseTrellis(GroundSet(5), model)
    summary = oracle_summary(GroundSet(5), model)
    counts = Counter(h.signature() for h in trellis.sample_many(draws, seed=2024))
    posterior = summary.posterior_table()
    tv = 0.5 * sum(
        abs(counts.get(sig, 0) / draws - math.exp(lp)) for sig, lp in posterior.items()
    )
    assert tv <= 0.01, f"jet posterior TV {tv:.4f}"

    # chi-square against the exact posterior, merging bins expected < 5
    expected, observed = [], []
    tail_e = tail_o = 0.0
    for sig, lp in posterior.items():
        e = draws * math.exp(lp)
        o = counts.get(sig, 0)
        if e < 5.0:
            tail_e += e
            tail_o += o
        else:
            expected.append(e)
            observed.append(o)
    if tail_e > 0:
        expected.append(tail_e)
        observed.append(tail_o)
    result = stats.chisquare(observed, expected)
    assert result.pvalue > 0.001, f"chi-square p={result.pvalue:.2e}"

    uniform = DenseTrellis(GroundSet(5), ConstantModel(5))
    ucounts = Counter(h.signature() for h in uniform.sample_many(draws, seed=7))
    assert sum(ucounts.values()) == draws and len(ucounts) <= 105
    tv_u = 0.5 * (
        sum(abs(c / draws - 1 / 105) for c in ucounts.values())
        + (105 - len(ucounts)) / 105
    )
    assert tv_u <= 0.02, f"uniform TV {tv_u:.4f}"

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"sampling criterion took {elapsed:.1f}s"
    return (
        f"jet TV={tv:.4f}, chi2 p={result.pvalue:.3f}, uniform TV={tv_u:.4f}, "
        f"{elapsed:.1f}s"
    )


@criterion(4, "baseline dominance")
def test_baseline_dominance():
    jets = [
        generate_jet(JetConfig(seed=(4000, i), leaf_count_filter=(5, 9)))
        for i in range(500)
    ]
    gap_beam, gap_greedy = [], []
    for jet in jets:
        model = GinkgoModel(jet.payloads, lam=jet.config.lam)
        map_value, _ = DenseTrellis(GroundSet(model.n), model).map_hierarchy()
        beam_value, _ = beam_search_cluster(model)
        greedy_value, _ = greedy_cluster(model)
        assert map_value >= beam_value - TOL
        assert map_value >= greedy_value - TOL
        gap_beam.append(map_value - beam_value)
        gap_greedy.append(map_value - greedy_value)
    mean_beam, mean_greedy = np.mean(gap_beam), np.mean(gap_greedy)
    assert mean_beam >= 0.0 and mean_greedy >= 0.0
    return (
        f"500 jets: trellis-beam {mean_beam:.3f}+-{np.std(gap_beam):.3f}, "
        f"trellis-greedy {mean_greedy:.3f}+-{np.std(gap_greedy):.3f}"
    )


@criterion(5, "greedy suboptimality on cut costs")
def test_greedy_suboptimality():
    weights = greedy_adversarial_weights()
    model = DasguptaModel(weights)
    greedy_value, _ = greedy_cluster(model)
    map_value, _ = DenseTrellis(GroundSet(weights.n), model).map_hierarchy()
    greedy_cost, map_cost = -greedy_value, -map_value
    assert map_cost < greedy_cost
    return f"optimal cost {map_cost:.3f} < greedy cost {greedy_cost:.3f}"


@criterion(6, "sparse trellis sandwich and trend")
def test_sparse_trellis():
    n, lam = 9, 8.0
    ordering = LeafOrdering("norm_ascending")
    test_jets = [
        generate_jet(JetConfig(lam=lam, seed=(900, i), leaf_count_filter=(n, n)))
        for i in range(100)
    ]
    models = [
        GinkgoModel(ordering.order_payloads(j.payloads), lam=lam) for j in test_jets
    ]
    full_maps = [DenseTrellis(GroundSet(n), m).map_hierarchy()[0] for m in models]
    beam_mean = float(np.mean([beam_search_cluster(m)[0] for m in models]))

    def sweep(builder_name, trellises):
        prev_mean = -math.inf
        results = []
        for trellis in trellises:
            sparsity = float(trellis.sparsity_index())
            maps = []
            for model, full in zip(models, full_maps):
                value, tree = trellis.evaluate(model).map_hierarchy()
                assert trellis.realizes(tree)
                assert value <= full + TOL, f"{builder_name}: sparse MAP above full"
                maps.append(value)
            mean_map = float(np.mean(maps))
            assert mean_map >= prev_mean - TOL, f"{builder_name}: mean MAP decreased"
            prev_mean = mean_map
            results.append((sparsity, mean_map))
        return results

    # seed-shape lower bound: every seed tree stays realizable, so its
    # potential on any test dataset bounds the restricted MAP from below
    def check_seed_floor(trellis, seed_trees):
        shapes = {t.signature(): t for t in seed_trees}
        for sig, shape in shapes.items():
            assert trellis.realizes(shape)
        for model in models[:15]:
            floor = max(
                log_hierarchy_potential(t, model) for t in shapes.values()
            )
            value, _ = trellis.evaluate(model).map_hierarchy()
            assert value >= floor - TOL

    sim_config = JetConfig(lam=lam, seed=444, leaf_count_filter=(n, n))
    sim_points = []
    for k in (1, 10, 100, 400):
        trellis = build_simulator_trellis(sim_config, k, ordering)
        if k == 10:
            seed_trees = []
            rng = np.random.default_rng(ordering.seed)
            for i in range(k):
                jet = generate_jet(replace(sim_config, seed=(sim_config.seed, i)))
                perm = ordering.permutation_for_tree(jet.tree, jet.payloads, rng)
                seed_trees.append(relabel_hierarchy(jet.tree, perm))
            check_seed_floor(trellis, seed_trees)
        sim_points.append(trellis)
    sim_results = sweep("simulator", sim_points)

    train_payloads = [
        generate_jet(JetConfig(lam=lam, seed=(333, i), leaf_count_filter=(n, n))).payloads
        for i in range(200)
    ]
    bs_points = [
        build_beam_search_trellis(
            train_payloads[:k], lambda p: GinkgoModel(p, lam=lam), ordering
        )
        for k in (5, 50, 200)
    ]
    bs_results = sweep("beam-search", bs_points)

    crossing = [
        (s, m) for s, m in bs_results if s <= 0.10 and m >= beam_mean
    ]
    assert crossing, (
        f"no BS point at sparsity <= 10% beats beam mean {beam_mean:.4f}: {bs_results}"
    )
    best = crossing[0]
    return (
        f"sim {['%.2g/%.3f' % p for p in sim_results]}; "
        f"bs {['%.2g/%.3f' % p for p in bs_results]}; "
        f"beam mean {beam_mean:.3f} beaten at sparsity {best[0]:.3g}"
    )


@criterion(7, "complexity scaling")
def test_complexity_scaling():
    ops = {}
    for n in range(2, 16):
        trellis = DenseTrellis(GroundSet(n), ConstantModel(n))
        trellis.log_partition()
        assert trellis.operation_count() == split_term_count(n), f"n={n}"
        ops[n] = trellis.operation_count()
    xs = np.arange(8, 16)
    slope = np.polyfit(xs, [math.log(ops[n]) for n in xs], 1)[0]
    assert abs(slope - math.log(3)) <= 0.05 * math.log(3), f"slope {slope:.4f}"

    jet = exact_leaf_jet(10, seed=(7000,))
    model = GinkgoModel(jet.payloads, lam=jet.config.lam)
    started = time.perf_counter()
    trellis = DenseTrellis(GroundSet(10), model)
    trellis.map_hierarchy()
    wall = time.perf_counter() - started
    assert wall <= 10.0, f"n=10 MAP took {wall:.2f}s"
    return (
        f"ops exact for n<=15; log-ops slope {slope:.4f} vs ln3={math.log(3):.4f}; "
        f"n=10 MAP in {wall:.2f}s"
    )


@criterion(8, "generator self-consistency")
def test_generator_self_consistency():
    from hctrellis.core import leaf_indices

    for i in range(1000):
        jet = generate_jet(JetConfig(seed=(8000, i)))

        def leaf_sum(bits):
            vecs = [jet.payloads[k] for k in leaf_indices(bits)]
            acc = vecs[0]
            for v in vecs[1:]:
                acc = acc + v
            return acc

        for parent, (left, right) in jet.tree.children.items():
            stored = jet.internal_vectors[parent]
            summed = leaf_sum(parent)
            for a, b in zip(stored.as_tuple(), summed.as_tuple()):
                assert abs(a - b) <= TOL
            for child in (left, right):
                assert leaf_sum(child).mass2 < stored.mass2
        if jet.num_leaves() >= 2:
            model = GinkgoModel(jet.payloads, lam=jet.config.lam)
            rescored = log_hierarchy_potential(jet.tree, model)
            assert abs(rescored - jet.truth_log_likelihood) <= TOL
    return "1000 jets: conservation, strict mass decrease, likelihood agreement"
