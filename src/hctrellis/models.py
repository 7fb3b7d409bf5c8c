"""Split potentials: the pluggable scoring contract and its instantiations.

A model maps an ordered pair of disjoint sibling clusters to log psi.  All
models here are symmetric in their two arguments and pure functions of the
payloads bound at construction, so evaluations can be cached freely.

The batched entry point, ``log_psi_pairs(lefts, rights)``, takes two
arrays of one shape and returns log psi in that shape.  Each row of a 2-D
input splits one parent, ``lefts[:, 0] | rights[:, 0]``, so a model reads
that parent's terms once per row; the dense trellis hands it one row per
parent.  A 1-D input is read as one pair per row, and a higher-dimensional
one as rows along its last axis.  Every pair scores the same bits whatever
block it arrives in.

A model may also offer ``separable_terms()``: when log psi of every split
is c(P) + scale[|P|] * (u(L) + u(R)) for per-cluster arrays u and c over
the 2**n cluster table and a per-size array scale, it returns
``(u, c, scale)``, new arrays the caller may overwrite, and the dense
trellis scores splits from them with no psi call: the fill and the
sampler form h = u * scale[k] per level of k leaves, the outside pass
reads scale per superset size.  Those sums equal ``log_psi_pairs`` up to
rounding, not bit for bit.  The default returns None, as does a model
whose coefficient times its largest pair sum could overflow; psi is then
scored per split.  Dasgupta's cost is additive, so u = W, scale[k] =
beta*k and c = -beta*|P|*W; correlation has u = pos + 2 neg, scale =
beta at every size and c = -beta*pos.  Ginkgo's density divides a child's
squared mass by the parent's, which couples the two, so it keeps the
default.  Callers that score pairs of differing parents hand them to
``log_psi_pairs`` flat and smaller cluster first, the order ``log_psi``
gives ``_log_psi``.

Scoring flavours:

* ``DasguptaModel``:    log psi = -beta * (|L|+|R|) * cross-cut weight.
* ``CorrelationModel``: log psi = -beta * (cross positive weight minus
  within-cluster negative weight, ordered-pair convention).
* ``GinkgoModel``:      product of two truncated-exponential splitting
  densities over the squared masses of the children, given the parent's;
  parents and children read one store of squared masses, clamped once.
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
    leaf_indices,
    popcount,
    subset_block,
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
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
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

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.e, self.px, self.py, self.pz)


@dataclass(frozen=True)
class ModelParams:
    """Scoring knobs shared by the CLI and experiment drivers."""

    beta: float = 1.0
    lam: float = 1.5

    def __post_init__(self):
        if not (0 < self.beta < math.inf and 0 < self.lam < math.inf):  # NaN fails too
            raise ValueError("beta and lam must both be positive and finite")


# ---------------------------------------------------------------------------
# splitting density


def log_splitting_density(t: float, t_parent: float, lam: float) -> float:
    """Log of the truncated-exponential density over a child squared mass.

    f(t) = (1 / (1 - exp(-lam))) * (lam / t_parent) * exp(-lam * t / t_parent)
    supported on 0 <= t < t_parent; outside the support the density is zero.
    """
    if t_parent <= 0:
        raise ValueError("parent squared mass must be positive")
    if not 0 < lam < math.inf:
        raise ValueError("decay rate must be positive and finite")
    if t < 0 or t >= t_parent:
        return LOG_ZERO
    norm = math.log(lam) - math.log1p(-math.exp(-lam))
    return norm - math.log(t_parent) - lam * (t / t_parent)


# ---------------------------------------------------------------------------
# cached per-cluster aggregates


class _ClusterTable:
    """One float per cluster, from a dense 2**n table when n is small enough,
    else from a flat memo filled by ``_value``.

    Subclasses build the table with ``core.subset_block``, the ascending
    doubling that also enumerates the trellis's splits, and compute
    ``_value`` by adding the cluster's leaves in ascending order, the same
    additions in the same order, so the two backends agree bit for bit.
    The memo is append-only and holds plain floats.
    """

    def __init__(self, n: int):
        self.n = n
        self._table: np.ndarray | None = None
        self._memo: dict[int, float] = {}
        if n <= TABLE_MAX_LEAVES:
            self._table = self._build_table()

    def get(self, bits: int) -> float:
        if self._table is not None:
            return float(self._table[bits])
        val = self._memo.get(bits)
        if val is None:
            val = self._memo[bits] = self._value(bits)
        return val

    def get_many(self, arr: np.ndarray) -> np.ndarray:
        if self._table is not None:
            return self._table.take(arr)
        uniq, inv = np.unique(arr, return_inverse=True)
        return np.array([self.get(b) for b in uniq.tolist()])[inv].reshape(np.shape(arr))


class _SubsetPairSums(_ClusterTable):
    """Sum of w[i][j] over unordered leaf pairs inside each cluster."""

    def __init__(self, w: np.ndarray):
        self.w = w
        self._rows = w.tolist()
        super().__init__(w.shape[0])

    def _build_table(self) -> np.ndarray:
        # table[b | 1 << h] = table[b] + row_h[b] for b over the leaves
        # below h, row_h[b] summing w[j][h] over the leaves j of b
        zero = np.zeros(())
        rows = (subset_block(zero, self.w[:h, h], 1 << h) for h in range(self.n))
        return subset_block(zero, rows, 1 << self.n)

    def _value(self, bits: int) -> float:
        leaves = leaf_indices(bits)
        total = 0.0
        for k, h in enumerate(leaves):
            row = 0.0
            for j in leaves[:k]:
                row += self._rows[j][h]
            total += row
        return total


def _clamped(t: np.ndarray) -> np.ndarray:
    """``t`` clamped in place as a splitting density reads squared masses:
    rounding debris in [-KINEMATIC_TOL, 0) is 0.0, anything further below
    is +inf, which no child lies below and whose log is +inf."""
    t[t < -KINEMATIC_TOL] = np.inf
    t[t < 0] = 0.0
    return t


class _SubsetMass2(_ClusterTable):
    """Squared mass t(C) of the summed leaf four-vectors of each cluster,
    clamped as a splitting density reads it (``_clamped``), for parents
    and children alike.

    Both backends subtract the squares in _mass2's order and clamp alike.
    The table is built one component at a time, so construction holds two
    2**n arrays, not five, and is clamped in place.  ``prime`` fills the
    memo for a batch of clusters with ``_value``'s additions made as
    vector adds, one leaf at a time, each term times the leaf's 0/1
    membership.  A non-member adds 0.0 times a finite number, a zero,
    which leaves every sum as it was: a sum that starts at +0.0 never
    becomes -0.0.
    """

    def __init__(self, payloads: np.ndarray):
        self.payloads = payloads  # (n, 4) rows (e, px, py, pz)
        self._rows = payloads.tolist()
        super().__init__(payloads.shape[0])

    def _build_table(self) -> np.ndarray:
        table = self._squared_sums(0)
        for c in (1, 2, 3):
            table -= self._squared_sums(c)
        return _clamped(table)

    def _squared_sums(self, c: int) -> np.ndarray:
        # Component c summed over every cluster by ascending doubling, squared.
        col = subset_block(np.zeros(()), self.payloads[:, c], 1 << self.n)
        return np.multiply(col, col, out=col)

    def _value(self, bits: int) -> float:
        e = px = py = pz = 0.0
        for h in leaf_indices(bits):
            de, dx, dy, dz = self._rows[h]
            e += de
            px += dx
            py += dy
            pz += dz
        t = _mass2(e, px, py, pz)
        if t < 0:
            return math.inf if t < -KINEMATIC_TOL else 0.0
        return t

    def prime(self, clusters) -> None:
        """Memoize every cluster of ``clusters`` at once; a table has nothing
        to prime.  Clusters are uint64 or Python ints: int64 would sign bit 63.
        """
        if self._table is not None:
            return
        bits = np.asarray(clusters, dtype=np.uint64)
        leaves = np.arange(self.n, dtype=np.uint64)[:, None]
        member = ((bits >> leaves) & np.uint64(1)).astype(np.float64)  # (n, clusters)
        sums = np.zeros((4, len(bits)))
        for h in range(self.n):
            sums += self.payloads[h, :, None] * member[h]
        self._memo.update(zip(bits.tolist(), _clamped(_mass2(*sums)).tolist()))


# ---------------------------------------------------------------------------
# models


def _bounded(scale: float, weight: float) -> bool:
    """Whether sums of a few terms as large as ``scale`` times the largest
    pair sum ``weight`` (and log Z values of that size) stay finite."""
    return math.isfinite(4.0 * scale * float(weight))


def _split_rows(lefts, rights):
    """``(parents, lefts, rights, shape)``: the pairs as 2-D rows that each
    split one parent, that parent as a column, and the shape to give the
    result.  A 1-D input is one pair per row."""
    shape = np.shape(lefts)
    width = shape[-1] if len(shape) > 1 else 1
    lefts, rights = np.reshape(lefts, (-1, width)), np.reshape(rights, (-1, width))
    return lefts[:, :1] | rights[:, :1], lefts, rights, shape


class PotentialModel:
    """Base contract: symmetric, pure log psi over disjoint cluster pairs.

    ``log_psi_pairs`` scores trusted disjoint pairs given as two arrays of
    one shape and returns that shape; the pairs of one row of a 2-D input
    split one parent.  Subclasses need only ``_log_psi``: the default batch
    scores pair by pair.
    """

    kind = "abstract"
    n: int

    def log_psi(self, left: int, right: int) -> float:
        if left == 0 or right == 0:
            raise ValueError("sibling clusters must be nonempty")
        if left & right:
            raise ValueError("sibling clusters overlap")
        if (left | right) >> self.n:
            raise ValueError("cluster extends past the ground set")
        if left > right:  # symmetric by construction: evaluate one ordering
            left, right = right, left
        return self._log_psi(left, right)

    def log_psi_pairs(self, lefts: np.ndarray, rights: np.ndarray) -> np.ndarray:
        """Vectorized psi for trusted disjoint pairs (no per-pair checks)."""
        pairs = zip(np.ravel(lefts).tolist(), np.ravel(rights).tolist())
        flat = [self._log_psi(*sorted(pair)) for pair in pairs]
        return np.array(flat, dtype=np.float64).reshape(np.shape(lefts))

    def separable_terms(self):
        """``(u, c, scale)`` with log psi(L, R) = c[L | R] + scale[|L| +
        |R|] * (u[L] + u[R]) up to rounding for every split, u and c new
        arrays over the 2**n cluster table and scale indexed by the
        parent's size, or None: psi is not separable or could overflow.
        The default is None."""
        return None

    def prime(self, clusters) -> None:
        """Precompute the per-cluster aggregates psi reads for ``clusters``
        (uint64 or Python int bit sets).  Psi values are the same with or
        without it.  The default does nothing; GinkgoModel batches its
        squared masses, which sparse jet trellises past the table cap read."""

    def _log_psi(self, left: int, right: int) -> float:
        raise NotImplementedError


class ConstantModel(PotentialModel):
    """psi == 1 for every split; the posterior is uniform over trees."""

    kind = "constant"

    def __init__(self, n: int):
        self.n = n

    def _log_psi(self, left: int, right: int) -> float:
        return 0.0

    def log_psi_pairs(self, lefts, rights) -> np.ndarray:
        return np.zeros(np.shape(lefts))


class DasguptaModel(PotentialModel):
    """Cut-cost scoring: maximizing psi minimizes total hierarchy cost."""

    kind = "dasgupta"

    def __init__(self, weights: PairwiseWeights, beta: float = 1.0):
        if not 0 < beta < math.inf:
            raise ValueError("beta must be positive and finite")
        if beta * weights.n == math.inf:  # psi scales by beta * |P|: inf * a zero cut is NaN
            raise ValueError("beta times the leaf count overflows")
        if np.any(weights.w < 0):
            raise ValueError("cut-cost weights must be nonnegative")
        # Each leaf's pair weights to the leaves below it, summed, then those
        # sums' running total, added as the pair-sum table adds them: every
        # cluster's sum is a sub-sum of these nonnegative weights, no larger.
        with np.errstate(over="ignore"):
            total = np.cumsum(np.diagonal(np.cumsum(weights.w, axis=0), 1))
        if not np.isfinite(total).all():
            raise ValueError("the pair weights sum past the float range")
        self.weights = weights
        self.beta = beta
        self.n = weights.n
        self._sums = _SubsetPairSums(weights.w)
        # separable terms, built once (the fill asks per level) unless they
        # could overflow; c[P] = -(W[P] * scale[|P|])
        table = self._sums._table
        self._terms = None
        if table is not None and _bounded(beta * self.n, table[-1]):
            scale = beta * np.arange(self.n + 1, dtype=np.float64)
            c = scale.take(np.bitwise_count(np.arange(table.size)))
            c *= table
            self._terms = table, np.negative(c, out=c), scale

    def _log_psi(self, left: int, right: int) -> float:
        parent = left | right
        cut = self._sums.get(parent) - self._sums.get(left) - self._sums.get(right)
        return (-self.beta * popcount(parent)) * cut

    @np.errstate(over="ignore")  # past the float range psi is 0: -inf
    def log_psi_pairs(self, lefts, rights) -> np.ndarray:
        parents, lefts, rights, shape = _split_rows(lefts, rights)
        cut = self._sums.get_many(parents) - self._sums.get_many(lefts)
        cut -= self._sums.get_many(rights)
        cut *= -self.beta * np.bitwise_count(parents)
        return cut.reshape(shape)

    def separable_terms(self):
        return None if self._terms is None else tuple(x.copy() for x in self._terms)


class CorrelationModel(PotentialModel):
    """Agreement scoring over signed affinities.

    The energy of a split charges positive weight crossing the cut and
    credits negative weight kept inside either side; within-cluster sums
    run over ordered pairs, so each unordered pair counts twice.
    """

    kind = "correlation"

    def __init__(self, weights: PairwiseWeights, beta: float = 1.0):
        if not 0 < beta < math.inf:
            raise ValueError("beta must be positive and finite")
        if np.any(np.abs(weights.w) > 1.0):
            raise ValueError("affinities must lie in [-1, 1]")
        self.weights = weights
        self.beta = beta
        self.n = weights.n
        w = weights.w
        self._pos = _SubsetPairSums(np.where(w > 0, w, 0.0))
        # twice the negative sums: doubling every weight doubles every
        # partial sum exactly, so this is 2.0 * the sums, bit for bit
        self._neg2 = _SubsetPairSums(np.where(w < 0, 2.0 * w, 0.0))

    def _log_psi(self, left: int, right: int) -> float:
        parent = left | right
        cross_pos = self._pos.get(parent) - self._pos.get(left) - self._pos.get(right)
        energy = cross_pos - self._neg2.get(left) - self._neg2.get(right)
        return (-self.beta) * energy

    @np.errstate(over="ignore")  # past the float range psi is 0 (-inf) or +inf
    def log_psi_pairs(self, lefts, rights) -> np.ndarray:
        parents, lefts, rights, shape = _split_rows(lefts, rights)
        energy = self._pos.get_many(parents) - self._pos.get_many(lefts)
        energy -= self._pos.get_many(rights)
        energy -= self._neg2.get_many(lefts)
        energy -= self._neg2.get_many(rights)
        energy *= -self.beta
        return energy.reshape(shape)

    def separable_terms(self):
        pos, neg2 = self._pos._table, self._neg2._table
        if pos is None or not _bounded(self.beta * self.n, pos[-1] - neg2[-1]):
            return None
        return pos + neg2, pos * -self.beta, np.full(self.n + 1, float(self.beta))


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
        if not 0 < lam < math.inf:
            raise ValueError("decay rate must be positive and finite")
        rows = [p.as_tuple() if isinstance(p, FourVector) else tuple(p) for p in payloads]
        arr = np.asarray(rows, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != 4:
            raise ValueError("payloads must be four-vectors")
        # Summed in ascending leaf order (numpy sums along a slow axis one
        # row at a time), as the mass table adds them, the absolute
        # components bound every cluster's summed components; a NaN or
        # infinite component leaves them non-finite too.
        with np.errstate(over="ignore"):
            top = np.abs(arr).sum(axis=0)
            top *= top
        if not np.isfinite(top).all():
            raise ValueError("four-vectors must be finite, their summed squares within the float range")
        if np.any(arr[:, 0] <= 0):
            raise ValueError("leaf energies must be positive")
        self.lam = lam
        self.n = arr.shape[0]
        self.payloads = arr
        self._t = _SubsetMass2(arr)
        self._log_norm = math.log(lam) - math.log1p(-math.exp(-lam))

    def prime(self, clusters) -> None:
        self._t.prime(clusters)

    def _log_psi(self, left: int, right: int) -> float:
        t_parent = self._t.get(left | right)
        tl, tr = self._t.get(left), self._t.get(right)
        # stored masses are >= 0 or +inf: a t(P) <= 0 holds no child below
        # it, and a +inf t(P) takes log +inf, so the split scores -inf
        if not max(tl, tr) < t_parent:
            return LOG_ZERO
        base = self._log_norm - math.log(t_parent)
        return (base - self.lam * (tl / t_parent)) + (base - self.lam * (tr / t_parent))

    def log_psi_pairs(self, lefts, rights) -> np.ndarray:
        parents, lefts, rights, shape = _split_rows(lefts, rights)
        t_parent = self._t.get_many(parents)
        del parents  # each temporary held is one more block-sized array
        tl = self._t.get_many(lefts)
        tr = self._t.get_many(rights)
        with np.errstate(all="ignore"):
            # _log_psi's test and operations in its order (products commute)
            invalid = ~(np.maximum(tl, tr) < t_parent)
            base = np.log(t_parent)
            np.subtract(self._log_norm, base, out=base)
            tl /= t_parent
            tl *= self.lam
            tr /= t_parent
            tr *= self.lam
            out = np.subtract(base, tl, out=tl)
            out += np.subtract(base, tr, out=tr)
        out[invalid] = LOG_ZERO
        return out.reshape(shape)


def log_hierarchy_potential(h: Hierarchy, model: PotentialModel) -> float:
    """Total log potential of a hierarchy: sum of log psi over sibling pairs.

    Accepts fragments rooted at any cluster of the model's ground set; a
    tree over k leaves contributes k-1 terms.  The sum uses fsum, so the
    value is independent of traversal order.
    """
    h.validate(n=model.n)
    terms = [model.log_psi(l, r) for l, r in h.sibling_pairs()]
    try:
        return math.fsum(terms)
    except OverflowError:  # fsum refuses a sum past the float range: take its infinity
        return sum(terms)
