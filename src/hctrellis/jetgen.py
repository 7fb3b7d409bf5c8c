"""Toy jet generator: recursive two-body splittings with mass decay.

Starting from a root energy-momentum vector, each node with squared mass
above the cutoff splits in two.  The children's squared masses are drawn
independently from the truncated-exponential splitting density, redrawn
until the pair is kinematically feasible, and the decay is realized
back-to-back in the parent rest frame with an isotropic direction before
boosting to the lab frame.  Ground-truth structure and the log likelihood
of every performed split are recorded alongside the leaves.

The feasibility rejection (sqrt(tL) + sqrt(tR) <= sqrt(tP)) is required by
two-body kinematics but is not part of the splitting density itself, so
the recorded likelihood is the product of the raw densities, each child
scored by ``models.log_splitting_density`` (exactly what the scoring model
assigns to the true tree), not the rejection-normalized sampling density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .core import Hierarchy, full_mask
from .models import FourVector, _mass2, log_splitting_density

SPLIT_REJECT_BUDGET = 10_000
JET_RESAMPLE_BUDGET = 10_000
# Far above the 64-leaf bitset cap: a jet this large means t_cut is tiny
# against the root mass and the jet would keep growing.
_LEAF_BUDGET = 1 << 16
# Uniforms per rng.random call: a small unfiltered jet reads ~50, a
# 24-leaf jet under a (24, 24) filter a few thousand.
_UNIFORM_BLOCK = 256

Vec = tuple[float, float, float, float]

# Default scale: a moderately boosted root with mass**2 = 3600 over a
# cutoff of 35 yields mostly 5-10 leaf jets at lam = 1.5.
DEFAULT_ROOT = FourVector(100.0, 0.0, 0.0, 80.0)
DEFAULT_LAM = 1.5
DEFAULT_TCUT = 35.0


@dataclass(frozen=True)
class JetConfig:
    root: FourVector = DEFAULT_ROOT
    lam: float = DEFAULT_LAM
    t_cut: float = DEFAULT_TCUT
    seed: object = 0
    leaf_count_filter: tuple[int, int] | None = None

    def __post_init__(self):
        if not 0 < self.lam < math.inf:
            raise ValueError("decay rate must be positive and finite")
        if not 0 < self.t_cut < math.inf:
            raise ValueError(f"mass cutoff t_cut must be positive and finite, got {self.t_cut}")
        for name, value in zip(("e", "px", "py", "pz"), self.root.as_tuple()):
            if not math.isfinite(value):
                raise ValueError(f"root.{name} must be finite, got {value}")
        if self.root.e <= 0:
            raise ValueError("root energy must be positive")
        if not 0 <= self.root.mass2 < math.inf:
            raise ValueError("root squared mass must be nonnegative and finite")
        if self.leaf_count_filter is not None:
            lo, hi = self.leaf_count_filter
            if not 1 <= lo <= hi:
                raise ValueError("bad leaf-count range")


@dataclass
class GeneratedJet:
    tree: Hierarchy
    payloads: list[FourVector]
    truth_log_likelihood: float
    internal_vectors: dict[int, FourVector]
    config: JetConfig = field(repr=False, default=None)

    def num_leaves(self) -> int:
        return len(self.payloads)


def _uniforms(rng: np.random.Generator):
    """``rng.random()`` values in stream order, drawn ``_UNIFORM_BLOCK`` at a
    time: ``rng.random(k)`` yields the same doubles as k scalar calls.  The
    generator is private to one ``generate_jet`` call, so the unread tail of
    the last block changes nothing."""
    k = _UNIFORM_BLOCK
    return chain.from_iterable(iter(lambda: rng.random(k).tolist(), None))


def _boost(child: Vec, parent: Vec, m_parent: float) -> Vec:
    e, px, py, pz = parent
    p_norm = math.sqrt(px * px + py * py + pz * pz)
    if p_norm < 1e-300:
        return child
    nx, ny, nz = px / p_norm, py / p_norm, pz / p_norm
    gamma = e / m_parent
    beta = p_norm / e
    ce, cx, cy, cz = child
    p_par = cx * nx + cy * ny + cz * nz
    shift = (gamma - 1.0) * p_par + gamma * beta * ce
    return (gamma * (ce + beta * p_par), cx + shift * nx, cy + shift * ny, cz + shift * nz)


def _generate_once(config: JetConfig, uniforms):
    """Draw one jet from the uniform stream: its leaves and, per split in
    post-order, (first leaf index, last index of the left child, last leaf
    index, vector, left vector, right vector).  Vectors are (e, px, py, pz)
    float tuples."""
    t_cut, lam = config.t_cut, config.lam
    decay = math.expm1(-lam)
    log1p, sqrt, cos, sin = math.log1p, math.sqrt, math.cos, math.sin
    leaves: list[Vec] = []
    internal: list[tuple[int, int, int, Vec, Vec, Vec]] = []
    # Depth first, left child first, so every subtree owns a contiguous leaf
    # range.  A tuple on the stack is (vector, split record it is the right
    # child of, or None); a list is a split record whose subtrees are done.
    stack: list = [(config.root.as_tuple(), None)]
    while stack:
        top = stack.pop()
        if type(top) is list:
            top[2] = len(leaves) - 1
            internal.append(tuple(top))
            continue
        vec, split = top
        if split is not None:
            split[1] = len(leaves) - 1
        t = _mass2(*vec)
        if t <= t_cut:
            leaves.append(vec)
            if len(leaves) > _LEAF_BUDGET:
                raise ValueError(
                    f"jet grew past {_LEAF_BUDGET} leaves; raise t_cut or lower the root mass"
                )
            continue
        # One two-body decay: the children's squared masses come from the
        # inverse CDF of the truncated exponential on [0, t).
        m = sqrt(t)
        scale = -(t / lam)
        for _ in range(SPLIT_REJECT_BUDGET):
            t_l = scale * log1p(next(uniforms) * decay)
            t_r = scale * log1p(next(uniforms) * decay)
            if sqrt(t_l) + sqrt(t_r) <= m:
                break
        else:
            raise ValueError("kinematic rejection budget exhausted; config is pathological")
        e_l = (t + t_l - t_r) / (2.0 * m)
        p_mag2 = e_l * e_l - t_l
        p_mag = sqrt(p_mag2) if p_mag2 > 0 else 0.0
        cos_t = 1.0 - 2.0 * next(uniforms)
        sin_t = sqrt(max(1.0 - cos_t * cos_t, 0.0))
        phi = 2.0 * math.pi * next(uniforms)
        dx, dy, dz = sin_t * cos(phi), sin_t * sin(phi), cos_t
        lab_l = _boost((e_l, p_mag * dx, p_mag * dy, p_mag * dz), vec, m)
        # The right child absorbs the boost rounding so the pair sums to the
        # parent to within one ulp per component.
        lab_r = (vec[0] - lab_l[0], vec[1] - lab_l[1], vec[2] - lab_l[2], vec[3] - lab_l[3])
        record = [len(leaves), None, None, vec, lab_l, lab_r]
        stack += (record, (lab_r, record), (lab_l, None))
    return leaves, internal


def _assemble(config: JetConfig, leaves, internal) -> GeneratedJet:
    # Kept apart from the draw so jets a leaf-count filter rejects skip it.
    def span_bits(first: int, last: int) -> int:
        # Leaves are indexed in generation order, so every subtree owns a
        # contiguous index range.
        return ((1 << (last - first + 1)) - 1) << first

    def split_log(vec: Vec, left: Vec, right: Vec) -> float:
        t, lam = _mass2(*vec), config.lam
        # a child's squared mass can round to just below 0; it is read as 0
        dl = log_splitting_density(max(_mass2(*left), 0.0), t, lam)
        return dl + log_splitting_density(max(_mass2(*right), 0.0), t, lam)

    children = {
        span_bits(a, b): (span_bits(a, mid), span_bits(mid + 1, b))
        for a, mid, b, *_ in internal
    }
    return GeneratedJet(
        tree=Hierarchy(full_mask(len(leaves)), children),
        payloads=[FourVector(*v) for v in leaves],
        # fsum is exactly rounded, so summing in post-order changes nothing
        truth_log_likelihood=math.fsum(split_log(v, l, r) for *_, v, l, r in internal),
        internal_vectors={span_bits(a, b): FourVector(*v) for a, _, b, v, *_ in internal},
        config=config,
    )


def generate_jet(config: JetConfig) -> GeneratedJet:
    """Generate one jet; with a leaf-count filter, resample until it lands."""
    uniforms = _uniforms(np.random.default_rng(config.seed))
    if config.leaf_count_filter is None:
        return _assemble(config, *_generate_once(config, uniforms))
    lo, hi = config.leaf_count_filter
    for _ in range(JET_RESAMPLE_BUDGET):
        leaves, internal = _generate_once(config, uniforms)
        if lo <= len(leaves) <= hi:
            return _assemble(config, leaves, internal)
    raise ValueError(
        f"could not hit {lo}..{hi} leaves in {JET_RESAMPLE_BUDGET} jets; "
        "adjust root mass, lam or t_cut"
    )
