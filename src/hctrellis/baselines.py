"""Agglomerative baselines driven by the same split potentials.

Greedy merges the locally best pair at each step, found by the same pair
scan (``_best_pair``, first maximum in nested ``(i, j)`` order) that the
beam's depth >= 2 lookahead rollout runs.  Beam search is
level-synchronous: every kept partial clustering expands all pairwise
merges, candidates are ranked by accumulated score plus a short greedy
lookahead, near-duplicate states (same partition, same score) collapse to
one, and the top ``beam_width`` survive to the next level.

Each level of the beam is one pass over parallel arrays.  The S kept
states are an ``S x k`` ``uint64`` array of clusters, ordered by lowest
leaf, plus a score vector.  The ``C = k(k-1)/2`` merges ``(i, j)`` come
from ``np.triu_indices`` in the nested-loop order, so candidate
``s * C + c`` is the c-th merge of state s.  A level's psi values come
from ``model.log_psi_pairs`` on the cluster values themselves, each pair
given smaller cluster first as scalar ``model.log_psi`` orders it, so
they equal the scalar values bit for bit.  Clusters stay ``uint64``: leaf
63 sets bit 63.

A depth-1 lookahead needs no rollout: the best merge after (i, j) either
avoids both clusters, and is then the state's best pair avoiding i and j,
or joins the merged cluster to one of the other k-2.  The best avoiding
pair is among the state's top ``2k-2`` pair scores, since only ``2k-3``
pairs touch i or j.  A max over floats is exact, so the bonus equals the
greedy rollout's.  Deeper lookaheads still run that rollout per candidate,
scored by scalar ``model.log_psi`` through a pair cache.

Candidates rank by ``(-(score + bonus), partition)`` in one stable
``np.lexsort``, so full ties keep the expansion order.  The dedup walk
then goes down that ranking, drops a candidate whose partition was
already kept with a score within ``SCORE_TIE_TOL`` (another merge order
of the same clustering), and builds a ``BeamState`` only for the
candidates it keeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import Hierarchy, full_mask
from .models import PotentialModel

SCORE_TIE_TOL = 1e-12
# Join pairs (merged cluster, other cluster) are scored about this many at a
# time, which caps the join's temporaries; every other per-level array holds
# at most S * C * k words.
JOIN_CHUNK_PAIRS = 1 << 15


@dataclass
class BeamState:
    """A partial clustering: disjoint clusters covering the ground set."""

    partition: tuple[int, ...]  # ordered by lowest leaf
    children: dict[int, tuple[int, int]] = field(default_factory=dict)
    log_score: float = 0.0

    def recomputed_score(self, model: PotentialModel) -> float:
        return math.fsum(model.log_psi(l, r) for l, r in self.children.values())


def _best_pair(parts: list[int], psi) -> tuple[float, int, int]:
    """The highest psi over pairs of ``parts`` and its (i, j), i < j; the
    first maximum in nested (i, j) order wins."""
    best = None
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            v = psi(parts[i], parts[j])
            if best is None or v > best[0]:
                best = (v, i, j)
    return best


def greedy_cluster(model: PotentialModel) -> tuple[float, Hierarchy]:
    """n-1 locally optimal merges; ties go to the smallest leaf-index pair."""
    n = model.n
    clusters = [1 << i for i in range(n)]
    children: dict[int, tuple[int, int]] = {}
    score = 0.0
    for _ in range(n - 1):
        best_val, i, j = _best_pair(clusters, model.log_psi)
        children[clusters[i] | clusters[j]] = (clusters[i], clusters[j])
        score += best_val
        clusters[i] |= clusters[j]
        del clusters[j]
    return score, Hierarchy(full_mask(n), children)


def _lookahead_bonus(partition: tuple[int, ...], psi, depth: int) -> float:
    # Greedy rollout of `depth` further merges, scored but not committed.
    bonus = 0.0
    parts = list(partition)
    for _ in range(min(depth, len(parts) - 1)):
        best_val, i, j = _best_pair(parts, psi)
        bonus += best_val
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
    if beam_width is None:
        beam_width = max(1, n * (n - 1) // 2)
    if beam_width < 1:
        raise ValueError("beam width must be at least 1")
    if lookahead < 0:
        raise ValueError("lookahead must be nonnegative")
    if n == 1:
        return [(0.0, Hierarchy(1, {}))]

    cache: dict[tuple[int, int], float] = {}

    def psi(a: int, b: int) -> float:
        key = (a, b) if a < b else (b, a)
        val = cache.get(key)
        if val is None:
            val = model.log_psi(a, b)
            cache[key] = val
        return val

    def psi_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        # psi of every broadcast pair of uint64 clusters, smaller cluster first
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        return model.log_psi_pairs(lo.ravel(), hi.ravel()).reshape(lo.shape)

    states = [BeamState(tuple(1 << i for i in range(n)))]
    parts = np.array([states[0].partition], dtype=np.uint64)
    scores = np.zeros(1)
    for k in range(n, 1, -1):
        S = len(states)
        I, J = np.triu_indices(k, 1)
        C = len(I)
        lefts, rights = parts[:, I], parts[:, J]
        merged = lefts | rights
        pair_vals = psi_pairs(lefts, rights)
        cols = np.arange(k)
        if lookahead == 1 and k > 2:
            # best psi of the merged cluster against each cluster but i and j
            rest = np.broadcast_to(cols, (C, k))[(cols != I[:, None]) & (cols != J[:, None])]
            rest = rest.reshape(C, k - 2)
            step = max(1, JOIN_CHUNK_PAIRS // (C * (k - 2)))
            best_join = np.concatenate([
                psi_pairs(merged[a : a + step, :, None], parts[a : a + step, rest]).max(axis=2)
                for a in range(0, S, step)
            ])
            # best pair avoiding i and j: the first such pair among the top 2k-2
            top = np.argsort(-pair_vals, axis=1)[:, : min(C, 2 * k - 2)]
            ti, tj = I[top][:, None, :], J[top][:, None, :]
            ci, cj = I[None, :, None], J[None, :, None]
            avoids = (ti != ci) & (ti != cj) & (tj != ci) & (tj != cj)
            top_vals = np.take_along_axis(pair_vals, top, axis=1)
            best_avoid = np.take_along_axis(top_vals, avoids.argmax(axis=2), axis=1)
            best_avoid[~avoids.any(axis=2)] = -np.inf
            bonus = np.maximum(best_join, best_avoid)
        else:
            bonus = 0.0
        # merge c keeps every column but J[c], with column I[c] replaced
        keep = np.broadcast_to(cols, (C, k))[cols != J[:, None]].reshape(C, k - 1)
        new_parts = parts[:, keep]
        new_parts[:, np.arange(C), I] = merged
        new_parts = new_parts.reshape(S * C, k - 1)
        new_scores = scores[:, None] + pair_vals
        if lookahead > 1 and k > 2:
            bonus = np.array(
                [_lookahead_bonus(p, psi, lookahead) for p in new_parts.tolist()]
            ).reshape(S, C)
        keys = (new_scores + bonus).ravel()
        new_scores = new_scores.ravel()

        ranking = np.lexsort(tuple(new_parts.T[::-1]) + (-keys,))
        kept: list[BeamState] = []
        kept_idx: list[int] = []
        seen: dict[tuple[int, ...], list[float]] = {}
        score_list = new_scores.tolist()
        for idx in ranking.tolist():
            partition = tuple(new_parts[idx].tolist())
            score = score_list[idx]
            prior = seen.setdefault(partition, [])
            if any(abs(score - s) <= SCORE_TIE_TOL for s in prior):
                continue  # another merge order of the same clustering
            prior.append(score)
            s, c = divmod(idx, C)
            left, right = int(lefts[s, c]), int(rights[s, c])
            children = dict(states[s].children)
            children[left | right] = (left, right)
            kept.append(BeamState(partition, children, score))
            kept_idx.append(idx)
            if len(kept) == beam_width:
                break
        states = kept
        parts, scores = new_parts[kept_idx], new_scores[kept_idx]
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
