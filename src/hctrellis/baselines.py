"""Agglomerative baselines driven by the same split potentials.

Greedy merges the locally best pair at each step.  Beam search is
level-synchronous: every kept partial clustering expands all pairwise
merges, candidates are ranked by accumulated score plus a short greedy
lookahead, near-duplicate states (same partition, same score) collapse to
one, and the top ``beam_width`` survive to the next level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .core import Hierarchy, full_mask
from .models import PotentialModel

SCORE_TIE_TOL = 1e-12


@dataclass
class BeamState:
    """A partial clustering: disjoint clusters covering the ground set."""

    partition: tuple[int, ...]  # ordered by lowest leaf
    children: dict[int, tuple[int, int]] = field(default_factory=dict)
    log_score: float = 0.0

    def recomputed_score(self, model: PotentialModel) -> float:
        return math.fsum(model.log_psi(l, r) for l, r in self.children.values())


def _merge_partition(partition: tuple[int, ...], i: int, j: int) -> tuple[int, ...]:
    merged = partition[i] | partition[j]
    out = list(partition[:j]) + list(partition[j + 1 :])
    out[i] = merged  # i < j and the lowest leaf is cluster i's, order is kept
    return tuple(out)


def greedy_cluster(model: PotentialModel) -> tuple[float, Hierarchy]:
    """n-1 locally optimal merges; ties go to the smallest leaf-index pair."""
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


def beam_search_forest(
    model: PotentialModel,
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


def beam_search_cluster(
    model: PotentialModel,
    beam_width: int | None = None,
    lookahead: int = 1,
) -> tuple[float, Hierarchy]:
    """Best complete tree found by the beam."""
    return beam_search_forest(model, beam_width, lookahead)[0]

