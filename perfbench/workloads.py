"""Workload inputs, generated from the workload seed alone.

Every workload fixes its instance sizes; the seed changes only the data
(jet kinematics, weight matrices, seed trees), so run-to-run spread comes
from the engine and the machine, not from a different mix of sizes.

Each workload has a primary engine (``dense`` or ``sparse``) whose
instances give the end-to-end numbers.  Every metric has to exist on every
workload, so ``sparse_n24`` also carries a few small dense jets, the only
place its marginal and beam-search numbers can come from (the sparse
engine has no marginals, and default-width beam search at n = 24 takes
minutes).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from hctrellis import FourVector, JetConfig, LeafOrdering, build_simulator_trellis, generate_jet
from hctrellis.datasets import random_affinity_weights, random_similarity_weights

WORKLOADS = ("dense_n14", "jet_corpus", "sparse_n24")

LAM = 1.5
# The default root (100, 0, 0, 80) yields 14 leaves in about 1 of 500 jets,
# so the (14, 14) filter would resample 10 to 1100 times depending on the
# seed, and setup_s with it.  The same energy at rest gives 14 leaves in
# about 1 of 12 jets, and posteriors nearly as flat as the default root's,
# so posterior sampling costs about the same from seed to seed.
DENSE_ROOT = FourVector(100.0, 0.0, 0.0, 0.0)
# The default root cannot reach 16+ leaves; this one gives 24 in about 1 of 55.
SPARSE_ROOT = FourVector(200.0, 0.0, 0.0, 100.0)
# Test jets and side jets draw from seed streams disjoint from the
# (seed, i) streams build_simulator_trellis uses for its seed trees.
TEST_STREAM = 1_000_000
SIDE_STREAM = 2_000_000


@dataclass
class DenseInstance:
    """One dataset for the dense engine: a model kind and its payload."""

    name: str
    n: int
    kind: str  # ginkgo | dasgupta | correlation
    payload: object  # leaf four-vectors or PairwiseWeights
    true_tree: object = None  # generator truth, when there is one
    cache: dict = field(default_factory=dict)  # oracle results, reused across passes


@dataclass
class Workload:
    name: str
    seed: int
    primary: str  # engine whose ops give exact/draw/greedy/count numbers
    dense: list
    params: dict  # inputs that no other field states: n, models, root, ...
    sparse_trellis: object = None
    sparse_jets: list = field(default_factory=list)
    draws: int = 0  # dense posterior draws per instance
    sparse_draws: int = 0  # sparse posterior draws per trellis evaluation
    greedy_repeats: int = 1  # greedy runs per instance and pass (it is ~1 ms at n = 14)
    count_repeats: int = 1  # count_trees runs per instance and pass
    reference: dict = field(default_factory=dict)  # independent sparse results, reused across passes

    def describe(self) -> dict:
        """The parameters for provenance: ``params`` plus the op counts."""
        counts = {k: getattr(self, k) for k in ("draws", "sparse_draws", "greedy_repeats", "count_repeats")}
        return {**self.params, **counts, "dense_instances": [i.name for i in self.dense],
                "sparse_test_jets": len(self.sparse_jets)}


def _ginkgo(name: str, config: JetConfig) -> DenseInstance:
    jet = generate_jet(config)
    return DenseInstance(name, jet.num_leaves(), "ginkgo", jet.payloads, jet.tree)


def _dense_n14(seed: int, smoke: bool) -> Workload:
    n = 7 if smoke else 14
    dense = [
        _ginkgo("ginkgo", JetConfig(root=DENSE_ROOT, lam=LAM, seed=(seed, n), leaf_count_filter=(n, n))),
        DenseInstance("dasgupta", n, "dasgupta", random_similarity_weights(n, (seed, 1))),
        DenseInstance("correlation", n, "correlation", random_affinity_weights(n, (seed, 2))),
    ]
    params = {"n": n, "models": ["ginkgo", "dasgupta", "correlation"], "lam": LAM, "beta": 1.0,
              "ginkgo_root": DENSE_ROOT.as_tuple()}
    return Workload("dense_n14", seed, "dense", dense, params, draws=2000, sparse_draws=50,
                    greedy_repeats=10)


def _jet_corpus(seed: int, smoke: bool) -> Workload:
    sizes = range(5, 8) if smoke else range(5, 12)
    per_size = 1 if smoke else 2
    draws = 200 if smoke else 500
    dense = [
        _ginkgo(f"jet_n{k}_{j}", JetConfig(lam=LAM, seed=(seed, k, j), leaf_count_filter=(k, k)))
        for k in sizes
        for j in range(per_size)
    ]
    params = {"leaf_counts": [sizes.start, sizes.stop - 1], "jets_per_leaf_count": per_size,
              "model": "ginkgo", "lam": LAM, "root": "default", "beam_width": "default",
              "lookahead": 1}
    return Workload("jet_corpus", seed, "dense", dense, params, draws=draws, sparse_draws=50,
                    greedy_repeats=3, count_repeats=5)


def _sparse_n24(seed: int, smoke: bool) -> Workload:
    n = 12 if smoke else 24
    seed_trees = 30 if smoke else 300
    tests = 2 if smoke else 10
    side = (6,) if smoke else (8, 9, 10)
    config = JetConfig(root=SPARSE_ROOT, lam=LAM, seed=seed, leaf_count_filter=(n, n))
    trellis = build_simulator_trellis(config, seed_trees, LeafOrdering("norm_ascending"))
    jets = [generate_jet(replace(config, seed=(seed, TEST_STREAM + i))) for i in range(tests)]
    dense = [
        _ginkgo(f"side_n{k}", JetConfig(lam=LAM, seed=(seed, SIDE_STREAM + k), leaf_count_filter=(k, k)))
        for k in side
    ]
    params = {"n": n, "root": SPARSE_ROOT.as_tuple(), "lam": LAM, "seed_trees": seed_trees,
              "ordering": "norm_ascending"}
    return Workload("sparse_n24", seed, "sparse", dense, params, sparse_trellis=trellis,
                    sparse_jets=jets, draws=200, sparse_draws=300, count_repeats=3)


def build_workload(name: str, seed: int, smoke: bool = False) -> Workload:
    """Generate the inputs of one workload; ``smoke`` shrinks every size."""
    makers = {"dense_n14": _dense_n14, "jet_corpus": _jet_corpus, "sparse_n24": _sparse_n24}
    if name not in makers:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return makers[name](seed, smoke)
