"""Shared helpers for the test suite."""

from __future__ import annotations

import hashlib

import numpy as np

from hctrellis import (
    ConstantModel,
    CorrelationModel,
    DasguptaModel,
    FourVector,
    GinkgoModel,
    Hierarchy,
    PotentialModel,
)
from hctrellis.datasets import random_affinity_weights, random_similarity_weights
from hctrellis.jetgen import JetConfig, generate_jet

MODEL_KINDS = ("dasgupta", "correlation", "ginkgo")

# The default root cannot reach 16+ leaves; this heavier one reaches 24.
WIDE_ROOT = FourVector(200.0, 0.0, 0.0, 100.0)


def make_model(kind: str, n: int, seed):
    """A random instance of one scoring model over n leaves."""
    if kind == "dasgupta":
        return DasguptaModel(random_similarity_weights(n, seed))
    if kind == "correlation":
        return CorrelationModel(random_affinity_weights(n, seed))
    if kind == "ginkgo":
        jet = exact_leaf_jet(n, seed)
        return GinkgoModel(jet.payloads, lam=jet.config.lam)
    if kind == "constant":
        return ConstantModel(n)
    raise ValueError(kind)


class ScalarOnlyModel(PotentialModel):
    """Another model's scalar psi alone, batched by the base class."""

    kind = "scalar-only"

    def __init__(self, inner):
        self.n = inner.n
        self.inner = inner

    def _log_psi(self, left, right):
        return self.inner._log_psi(left, right)


class PsiPathModel(ScalarOnlyModel):
    """Another model's batched psi without its separable terms, so the
    dense trellis scores every split by ``log_psi_pairs``."""

    kind = "psi-path"

    def log_psi_pairs(self, lefts, rights):
        return self.inner.log_psi_pairs(lefts, rights)


def exact_leaf_jet(n: int, seed, lam: float = 1.5):
    base = seed if isinstance(seed, tuple) else (seed,)
    # a softer cutoff makes 2-3 leaf jets common instead of one-in-a-thousand;
    # one leaf needs a cutoff above the root's squared mass (3600), so the
    # root never splits
    t_cut = 4000.0 if n == 1 else 600.0 if n <= 3 else 35.0
    return generate_jet(
        JetConfig(lam=lam, t_cut=t_cut, seed=base + (n,), leaf_count_filter=(n, n))
    )


def output_digest(*items) -> str:
    """Hash of hierarchies (root and sorted splits), arrays (dtype and raw
    bytes) and floats (exact bits)."""
    h = hashlib.sha256()
    for item in items:
        if isinstance(item, Hierarchy):
            h.update(repr((item.root, sorted(item.children.items()))).encode())
        elif isinstance(item, np.ndarray):
            h.update(item.dtype.str.encode())
            h.update(np.ascontiguousarray(item).tobytes())
        else:
            h.update(float(item).hex().encode())
    return h.hexdigest()[:16]
