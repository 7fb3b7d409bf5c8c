"""Split potentials: the pluggable scoring contract and its instantiations.

A model maps an ordered pair of disjoint sibling clusters to log psi.  All
models here are symmetric in their two arguments and pure functions of the
payloads bound at construction, so evaluations can be cached freely.

Scoring flavours:

* ``DasguptaModel``:    log psi = -beta * (|L|+|R|) * cross-cut weight.
* ``CorrelationModel``: log psi = -beta * (cross positive weight minus
  within-cluster negative weight, ordered-pair convention).
* ``GinkgoModel``:      product of two truncated-exponential splitting
  densities over the squared masses of the children.
* ``ConstantModel``:    log psi = 0 everywhere (uniform over trees).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    LOG_ZERO,
    TABLE_MAX_LEAVES,
    Hierarchy,
    full_mask,
    leaf_indices,
    popcount,
    popcounts,
)

# Squared masses this far below zero are treated as rounding debris (the
# generator guarantees leaf masses >= 0 only up to this tolerance).
KINEMATIC_TOL = 1e-9


# ---------------------------------------------------------------------------
# payload containers


class PairwiseWeights:
    """Symmetric weight matrix over leaf pairs with a zero diagonal."""

    def __init__(self, w: np.ndarray):
        w = np.asarray(w, dtype=np.float64)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError("weight matrix must be square")
        if not np.array_equal(w, w.T):
            raise ValueError("weight matrix must be symmetric")
        if np.any(np.diagonal(w) != 0.0):
            raise ValueError("diagonal must be zero")
        self.w = w
        self.n = w.shape[0]

    @classmethod
    def from_triples(cls, n: int, triples) -> "PairwiseWeights":
        """Build from (i, j, w) entries with i < j; missing pairs are 0."""
        w = np.zeros((n, n))
        seen = set()
        for i, j, val in triples:
            if not (0 <= i < j < n):
                raise ValueError(f"bad index pair ({i}, {j}) for n={n}")
            if (i, j) in seen:
                raise ValueError(f"duplicate weight entry ({i}, {j})")
            seen.add((i, j))
            w[i, j] = val
            w[j, i] = val
        return cls(w)


def _mass2(e, px, py, pz):
    # One shared expression so scalar and vector paths round identically.
    return e * e - px * px - py * py - pz * pz


@dataclass(frozen=True)
class FourVector:
    """Energy-momentum vector; squared mass is derived, never stored."""

    e: float
    px: float
    py: float
    pz: float

    @property
    def mass2(self) -> float:
        return _mass2(self.e, self.px, self.py, self.pz)

    @property
    def p3_norm(self) -> float:
        return math.sqrt(self.px * self.px + self.py * self.py + self.pz * self.pz)

    def __add__(self, other: "FourVector") -> "FourVector":
        return FourVector(
            self.e + other.e, self.px + other.px, self.py + other.py, self.pz + other.pz
        )

    def __sub__(self, other: "FourVector") -> "FourVector":
        return FourVector(
            self.e - other.e, self.px - other.px, self.py - other.py, self.pz - other.pz
        )

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.e, self.px, self.py, self.pz)


@dataclass(frozen=True)
class ModelParams:
    """Scoring knobs shared by the CLI and experiment drivers."""

    beta: float = 1.0
    lam: float = 1.5
    t_cut: float = 1.0

    def __post_init__(self):
        if self.beta <= 0 or self.lam <= 0 or self.t_cut <= 0:
            raise ValueError("beta, lam and t_cut must all be positive")


# ---------------------------------------------------------------------------
# splitting density


def log_splitting_density(t: float, t_parent: float, lam: float) -> float:
    """Log of the truncated-exponential density over a child squared mass.

    f(t) = (1 / (1 - exp(-lam))) * (lam / t_parent) * exp(-lam * t / t_parent)
    supported on 0 <= t < t_parent; outside the support the density is zero.
    """
    if t_parent <= 0:
        raise ValueError("parent squared mass must be positive")
    if lam <= 0:
        raise ValueError("decay rate must be positive")
    if t < 0 or t >= t_parent:
        return LOG_ZERO
    norm = math.log(lam) - math.log1p(-math.exp(-lam))
    return norm - math.log(t_parent) - lam * (t / t_parent)


# ---------------------------------------------------------------------------
# cached per-cluster aggregates


class _SubsetPairSums:
    """Sum of w[i][j] over unordered leaf pairs inside each cluster.

    Backed by a dense 2**n table when n is small enough, else by a dict
    cache; any one instance only ever uses a single backend, so repeated
    lookups are bit-identical.
    """

    def __init__(self, w: np.ndarray):
        self.w = w
        self.n = w.shape[0]
        self._table: np.ndarray | None = None
        self._cache: dict[int, float] = {0: 0.0}
        if self.n <= TABLE_MAX_LEAVES:
            self._table = self._build_table()

    def _build_table(self) -> np.ndarray:
        n, w = self.n, self.w
        table = np.zeros(1 << n)
        for h in range(n):
            base = 1 << h
            # row[b] = sum of w[j][h] over leaves j in b, for b over leaves < h
            row = np.zeros(base)
            for j in range(h):
                lo = 1 << j
                row[lo : lo << 1] = row[:lo] + w[j, h]
            table[base : base << 1] = table[:base] + row
        return table

    def get(self, bits: int) -> float:
        if self._table is not None:
            return float(self._table[bits])
        cached = self._cache.get(bits)
        if cached is not None:
            return cached
        h = bits.bit_length() - 1
        rest = bits ^ (1 << h)
        row = 0.0
        for j in leaf_indices(rest):
            row += self.w[j, h]
        val = self.get(rest) + row
        self._cache[bits] = val
        return val

    def get_many(self, arr: np.ndarray) -> np.ndarray:
        if self._table is not None:
            return self._table[arr]
        return np.array([self.get(int(b)) for b in arr])


class _SubsetVectorSums:
    """Per-cluster component sums of leaf four-vectors, plus squared mass."""

    def __init__(self, payloads: np.ndarray):
        self.payloads = payloads  # (n, 4) rows (e, px, py, pz)
        self.n = payloads.shape[0]
        self._vec: np.ndarray | None = None
        self._t: np.ndarray | None = None
        self._cache: dict[int, tuple[np.ndarray, float]] = {}
        if self.n <= TABLE_MAX_LEAVES:
            vec = np.zeros((1 << self.n, 4))
            for h in range(self.n):
                base = 1 << h
                vec[base : base << 1] = vec[:base] + payloads[h]
            self._vec = vec
            self._t = _mass2(vec[:, 0], vec[:, 1], vec[:, 2], vec[:, 3])

    def components(self, bits: int) -> np.ndarray:
        if self._vec is not None:
            return self._vec[bits]
        return self._entry(bits)[0]

    def mass2_of(self, bits: int) -> float:
        if self._t is not None:
            return float(self._t[bits])
        return self._entry(bits)[1]

    def _entry(self, bits: int) -> tuple[np.ndarray, float]:
        cached = self._cache.get(bits)
        if cached is not None:
            return cached
        h = bits.bit_length() - 1
        rest = bits ^ (1 << h)
        if rest == 0:
            vec = self.payloads[h].copy()
        else:
            vec = self._entry(rest)[0] + self.payloads[h]
        t = float(_mass2(vec[0], vec[1], vec[2], vec[3]))
        entry = (vec, t)
        self._cache[bits] = entry
        return entry


# ---------------------------------------------------------------------------
# models


class PotentialModel:
    """Base contract: symmetric, pure log psi over disjoint cluster pairs."""

    kind = "abstract"
    n: int

    def log_psi(self, left: int, right: int) -> float:
        if left == 0 or right == 0:
            raise ValueError("sibling clusters must be nonempty")
        if left & right:
            raise ValueError("sibling clusters overlap")
        if (left | right) & ~full_mask(self.n):
            raise ValueError("cluster extends past the ground set")
        if left > right:  # symmetric by construction: evaluate one ordering
            left, right = right, left
        return self._log_psi(left, right)

    def log_psi_pairs(self, lefts: np.ndarray, rights: np.ndarray) -> np.ndarray:
        """Vectorized psi for trusted disjoint pairs (no per-pair checks)."""
        return np.array(
            [self._log_psi(*sorted((int(l), int(r)))) for l, r in zip(lefts, rights)]
        )

    def _log_psi(self, left: int, right: int) -> float:
        raise NotImplementedError

    def params_dict(self) -> dict:
        return {}


class ConstantModel(PotentialModel):
    """psi == 1 for every split; the posterior is uniform over trees."""

    kind = "constant"

    def __init__(self, n: int):
        self.n = n

    def _log_psi(self, left: int, right: int) -> float:
        return 0.0

    def log_psi_pairs(self, lefts, rights) -> np.ndarray:
        return np.zeros(len(lefts))


class DasguptaModel(PotentialModel):
    """Cut-cost scoring: maximizing psi minimizes total hierarchy cost."""

    kind = "dasgupta"

    def __init__(self, weights: PairwiseWeights, beta: float = 1.0):
        if beta <= 0:
            raise ValueError("beta must be positive")
        if np.any(weights.w < 0):
            raise ValueError("cut-cost weights must be nonnegative")
        self.weights = weights
        self.beta = beta
        self.n = weights.n
        self._sums = _SubsetPairSums(weights.w)

    def _log_psi(self, left: int, right: int) -> float:
        parent = left | right
        cut = self._sums.get(parent) - self._sums.get(left) - self._sums.get(right)
        return (-self.beta * popcount(parent)) * cut

    def log_psi_pairs(self, lefts, rights) -> np.ndarray:
        parents = lefts | rights
        cut = (
            self._sums.get_many(parents)
            - self._sums.get_many(lefts)
            - self._sums.get_many(rights)
        )
        return (-self.beta * popcounts(parents)) * cut

    def split_cost(self, left: int, right: int) -> float:
        """The raw (positive-is-bad) cost contribution of one split."""
        return -self.log_psi(left, right) / self.beta

    def params_dict(self) -> dict:
        return {"beta": self.beta}


class CorrelationModel(PotentialModel):
    """Agreement scoring over signed affinities.

    The energy of a split charges positive weight crossing the cut and
    credits negative weight kept inside either side; within-cluster sums
    run over ordered pairs, so each unordered pair counts twice.
    """

    kind = "correlation"

    def __init__(self, weights: PairwiseWeights, beta: float = 1.0):
        if beta <= 0:
            raise ValueError("beta must be positive")
        if np.any(np.abs(weights.w) > 1.0):
            raise ValueError("affinities must lie in [-1, 1]")
        self.weights = weights
        self.beta = beta
        self.n = weights.n
        w = weights.w
        self._pos = _SubsetPairSums(np.where(w > 0, w, 0.0))
        self._neg = _SubsetPairSums(np.where(w < 0, w, 0.0))

    def _log_psi(self, left: int, right: int) -> float:
        parent = left | right
        cross_pos = self._pos.get(parent) - self._pos.get(left) - self._pos.get(right)
        energy = cross_pos - 2.0 * self._neg.get(left) - 2.0 * self._neg.get(right)
        return (-self.beta) * energy

    def log_psi_pairs(self, lefts, rights) -> np.ndarray:
        parents = lefts | rights
        cross_pos = (
            self._pos.get_many(parents)
            - self._pos.get_many(lefts)
            - self._pos.get_many(rights)
        )
        energy = (
            cross_pos
            - 2.0 * self._neg.get_many(lefts)
            - 2.0 * self._neg.get_many(rights)
        )
        return (-self.beta) * energy

    def params_dict(self) -> dict:
        return {"beta": self.beta}


class GinkgoModel(PotentialModel):
    """Jet-style scoring: a split's likelihood is the product of the two
    children's splitting densities given the squared mass of their sum.

    Kinematically impossible splits (negative child squared mass beyond
    rounding tolerance, or child mass not below the parent's) get zero
    potential rather than an error: arbitrary clusterings of real leaves
    legitimately produce such splits.
    """

    kind = "ginkgo"

    def __init__(self, payloads, lam: float = 1.5):
        if lam <= 0:
            raise ValueError("decay rate must be positive")
        rows = [p.as_tuple() if isinstance(p, FourVector) else tuple(p) for p in payloads]
        arr = np.asarray(rows, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != 4:
            raise ValueError("payloads must be four-vectors")
        if np.any(arr[:, 0] <= 0):
            raise ValueError("leaf energies must be positive")
        self.lam = lam
        self.n = arr.shape[0]
        self.payloads = arr
        self._sums = _SubsetVectorSums(arr)
        self._log_norm = math.log(lam) - math.log1p(-math.exp(-lam))

    def _density(self, t: float, t_parent: float) -> float:
        if t < 0:
            if t < -KINEMATIC_TOL:
                return LOG_ZERO
            t = 0.0
        if t >= t_parent:
            return LOG_ZERO
        return self._log_norm - math.log(t_parent) - self.lam * (t / t_parent)

    def _log_psi(self, left: int, right: int) -> float:
        vl = self._sums.components(left)
        vr = self._sums.components(right)
        e, px, py, pz = (vl[0] + vr[0], vl[1] + vr[1], vl[2] + vr[2], vl[3] + vr[3])
        t_parent = float(_mass2(e, px, py, pz))
        if t_parent <= 0:
            return LOG_ZERO
        dl = self._density(self._sums.mass2_of(left), t_parent)
        dr = self._density(self._sums.mass2_of(right), t_parent)
        return dl + dr

    def log_psi_pairs(self, lefts, rights) -> np.ndarray:
        s = self._sums
        if s._vec is None:
            return super().log_psi_pairs(lefts, rights)
        vl = s._vec[lefts]
        vr = s._vec[rights]
        e = vl[:, 0] + vr[:, 0]
        px = vl[:, 1] + vr[:, 1]
        py = vl[:, 2] + vr[:, 2]
        pz = vl[:, 3] + vr[:, 3]
        t_parent = _mass2(e, px, py, pz)
        tl = s._t[lefts]
        tr = s._t[rights]
        tl = np.where((tl < 0) & (tl >= -KINEMATIC_TOL), 0.0, tl)
        tr = np.where((tr < 0) & (tr >= -KINEMATIC_TOL), 0.0, tr)
        valid = (t_parent > 0) & (tl >= 0) & (tl < t_parent) & (tr >= 0) & (tr < t_parent)
        with np.errstate(all="ignore"):
            log_tp = np.log(t_parent)
            dl = self._log_norm - log_tp - self.lam * (tl / t_parent)
            dr = self._log_norm - log_tp - self.lam * (tr / t_parent)
            out = dl + dr
        return np.where(valid, out, LOG_ZERO)

    def cluster_vector(self, bits: int) -> FourVector:
        v = self._sums.components(bits)
        return FourVector(float(v[0]), float(v[1]), float(v[2]), float(v[3]))

    def params_dict(self) -> dict:
        return {"lam": self.lam}


def log_hierarchy_potential(h: Hierarchy, model: PotentialModel) -> float:
    """Total log potential of a hierarchy: sum of log psi over sibling pairs.

    Accepts fragments rooted at any cluster of the model's ground set; a
    tree over k leaves contributes k-1 terms.  The sum uses fsum, so the
    value is independent of traversal order.
    """
    h.validate(n=model.n)
    return math.fsum(model.log_psi(l, r) for l, r in h.sibling_pairs())
