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
the recorded likelihood is the product of the raw densities (exactly what
the scoring model assigns to the true tree), not the rejection-normalized
sampling density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import Hierarchy, full_mask
from .models import FourVector, log_splitting_density

SPLIT_REJECT_BUDGET = 10_000
JET_RESAMPLE_BUDGET = 10_000

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
        if self.t_cut <= 0:
            raise ValueError("mass cutoff must be positive")
        if self.root.e <= 0:
            raise ValueError("root energy must be positive")
        if self.root.mass2 < 0:
            raise ValueError("root squared mass must be nonnegative")
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


def _draw_mass2(rng: np.random.Generator, t_parent: float, lam: float) -> float:
    # Inverse CDF of the truncated exponential on [0, t_parent).
    u = rng.random()
    return -(t_parent / lam) * math.log1p(u * math.expm1(-lam))


def _boost(child: FourVector, parent: FourVector, m_parent: float) -> FourVector:
    px, py, pz = parent.px, parent.py, parent.pz
    p_norm = math.sqrt(px * px + py * py + pz * pz)
    if p_norm < 1e-300:
        return child
    nx, ny, nz = px / p_norm, py / p_norm, pz / p_norm
    gamma = parent.e / m_parent
    beta = p_norm / parent.e
    p_par = child.px * nx + child.py * ny + child.pz * nz
    shift = (gamma - 1.0) * p_par + gamma * beta * child.e
    return FourVector(
        gamma * (child.e + beta * p_par),
        child.px + shift * nx,
        child.py + shift * ny,
        child.pz + shift * nz,
    )


def _split_vector(
    vec: FourVector, t: float, rng: np.random.Generator, lam: float
) -> tuple[FourVector, FourVector]:
    """One two-body decay of ``vec`` (squared mass t) into lab-frame children."""
    m = math.sqrt(t)
    for _ in range(SPLIT_REJECT_BUDGET):
        t_l = _draw_mass2(rng, t, lam)
        t_r = _draw_mass2(rng, t, lam)
        if math.sqrt(t_l) + math.sqrt(t_r) <= m:
            break
    else:
        raise ValueError("kinematic rejection budget exhausted; config is pathological")
    e_l = (t + t_l - t_r) / (2.0 * m)
    p_mag2 = e_l * e_l - t_l
    p_mag = math.sqrt(p_mag2) if p_mag2 > 0 else 0.0
    cos_t = 1.0 - 2.0 * rng.random()
    sin_t = math.sqrt(max(1.0 - cos_t * cos_t, 0.0))
    phi = 2.0 * math.pi * rng.random()
    dx, dy, dz = sin_t * math.cos(phi), sin_t * math.sin(phi), cos_t
    rest_l = FourVector(e_l, p_mag * dx, p_mag * dy, p_mag * dz)
    lab_l = _boost(rest_l, vec, m)
    # The right child absorbs the boost rounding so the pair sums to the
    # parent to within one ulp per component.
    lab_r = vec - lab_l
    return lab_l, lab_r


def _generate_once(config: JetConfig, rng: np.random.Generator):
    """Draw one jet: its leaves and, per split, (first leaf index, last leaf
    index, last index of the left child, vector, left vector, right vector)."""
    leaves: list[FourVector] = []
    internal: list[tuple[int, int, int, FourVector, FourVector, FourVector]] = []

    def rec(vec: FourVector) -> tuple[int, int]:
        t = vec.mass2
        if t <= config.t_cut:
            leaves.append(vec)
            idx = len(leaves) - 1
            return idx, idx
        left_vec, right_vec = _split_vector(vec, t, rng, config.lam)
        first, left_last = rec(left_vec)
        _, last = rec(right_vec)
        internal.append((first, last, left_last, vec, left_vec, right_vec))
        return first, last

    rec(config.root)
    return leaves, internal


def _assemble(config: JetConfig, leaves, internal) -> GeneratedJet:
    # Kept apart from the draw so jets a leaf-count filter rejects skip it.
    def span_bits(first: int, last: int) -> int:
        # Leaves are indexed in generation order, so every subtree owns a
        # contiguous index range.
        return full_mask(last + 1) ^ full_mask(first)

    def split_log(vec: FourVector, left: FourVector, right: FourVector) -> float:
        t = vec.mass2
        dl = log_splitting_density(max(left.mass2, 0.0), t, config.lam)
        return dl + log_splitting_density(max(right.mass2, 0.0), t, config.lam)

    children = {
        span_bits(a, b): (span_bits(a, mid), span_bits(mid + 1, b))
        for a, b, mid, *_ in internal
    }
    return GeneratedJet(
        tree=Hierarchy(full_mask(len(leaves)), children),
        payloads=leaves,
        # fsum is exactly rounded, so summing in post-order changes nothing
        truth_log_likelihood=math.fsum(split_log(v, l, r) for *_, v, l, r in internal),
        internal_vectors={span_bits(a, b): v for a, b, _, v, *_ in internal},
        config=config,
    )


def generate_jet(config: JetConfig) -> GeneratedJet:
    """Generate one jet; with a leaf-count filter, resample until it lands."""
    rng = np.random.default_rng(config.seed)
    if config.leaf_count_filter is None:
        return _assemble(config, *_generate_once(config, rng))
    lo, hi = config.leaf_count_filter
    for _ in range(JET_RESAMPLE_BUDGET):
        leaves, internal = _generate_once(config, rng)
        if lo <= len(leaves) <= hi:
            return _assemble(config, leaves, internal)
    raise ValueError(
        f"could not hit {lo}..{hi} leaves in {JET_RESAMPLE_BUDGET} jets; "
        "adjust root mass, lam or t_cut"
    )
