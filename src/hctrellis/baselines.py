"""Agglomerative baselines driven by the same split potentials.

Greedy merges the locally best pair at each step, the first maximum in
nested ``(i, j)`` order.  It keeps a pair-score table: row i holds the
scalar ``model.log_psi(clusters[i], clusters[j])`` of every j > i.  A step
takes each row's first maximum and a later row wins only when strictly
greater; the merge drops row and column j and rescores only the merged
cluster's pairs, with the arguments in the scan's order.  That is
n(n-1)/2 + (n-1)(n-2)/2 = (n-1)^2 psi calls where a rescan of every pair
after every merge makes about n^3/6.  Beam search is level-synchronous:
every kept partial clustering expands all pairwise merges, candidates are
ranked by accumulated score plus a short greedy lookahead, near-duplicate
states (same partition, same score) collapse to one, and the top
``beam_width`` survive to the next level.

The beam keeps its states only as arrays.  The S states of a level with k
clusters are an ``S x k`` ``uint64`` array of clusters, ordered by lowest
leaf, a score vector and an ``S x (n-k) x 2`` history of the (left, right)
merges that built them; the final trees are read from that history.  The
``C = k(k-1)/2`` merges ``(i, j)`` come from ``np.triu_indices`` in the
nested-loop order, so candidate ``s * C + c`` is the c-th merge of state
s.  Every psi value comes from ``model.log_psi_pairs`` on the cluster
values themselves, each pair given smaller cluster first as scalar
``model.log_psi`` orders it, so it equals the scalar value bit for bit.
Clusters stay ``uint64``: leaf 63 sets bit 63.

A depth-1 lookahead needs no rollout: the best merge after (i, j) either
avoids both clusters, and is then the state's best pair avoiding i and j,
or joins the merged cluster to one of the other k-2.  The best avoiding
pair is among the state's top ``2k-2`` pair scores (``np.argpartition``,
in no order), since only ``2k-3`` pairs touch i or j; a pair avoids merge
c when its ``uint64`` touch mask, bit i | bit j, shares no bit with c's.
Joins and avoids are laid out (states, terms, merges), so each max reduces
the middle axis, and both run over the same chunks of states.  psi is
never NaN and a max over floats is exact, so the bonus equals the greedy
rollout's.  Deeper lookaheads run the greedy rollout for all candidates at
once: each step scores every pair of every candidate, takes each row's
first maximum and merges it row by row.

Candidates rank in the order of one stable ``np.lexsort`` on
``(-(score + bonus), partition)``, so full ties keep the expansion order,
but only as far as the dedup walk reads: the ranking lexsorts a band of
the best keys at a time (``_ranked``).  The walk goes down that ranking
and drops a candidate whose partition was already kept with a score
within ``SCORE_TIE_TOL`` (another merge order of the same clustering),
until ``beam_width`` are kept; at n = 14 it reads about 150 of up to 7098
candidates a level.  The last level's candidates share one partition and
get no bonus, so its kept order is the forest's, best first.
"""

from __future__ import annotations

import operator

import numpy as np

from .core import Hierarchy, full_mask
from .models import PotentialModel

SCORE_TIE_TOL = 1e-12
# Lookahead pairs (joins and rollout steps) are scored about this many at a
# time, over chunks of states, which caps their temporaries; a join chunk's
# avoid test holds up to three times as many words (2k-2 top pairs against
# the k-2 joins of each merge).  Every other per-level array holds at most
# S * C * k words.
JOIN_CHUNK_PAIRS = 1 << 15


def greedy_cluster(model: PotentialModel) -> tuple[float, Hierarchy]:
    """n-1 locally optimal merges; ties go to the first pair in nested (i, j)
    order."""
    n = model.n
    psi = model.log_psi
    clusters = [1 << i for i in range(n)]
    # rows[i][j - i - 1] = psi(clusters[i], clusters[j]) for j > i
    rows = [[psi(c, d) for d in clusters[i + 1 :]] for i, c in enumerate(clusters)]
    children: dict[int, tuple[int, int]] = {}
    score = 0.0
    for _ in range(n - 1):
        # max keeps the first of equal values, so the first maximum in
        # nested (i, j) order wins
        maxima = [max(row) for row in rows[:-1]]
        best = max(maxima)
        i = maxima.index(best)
        j = i + 1 + rows[i].index(best)
        merged = clusters[i] | clusters[j]
        children[merged] = (clusters[i], clusters[j])
        score += best
        clusters[i] = merged
        del clusters[j], rows[j]
        for a in range(j):
            del rows[a][j - a - 1]
        for a in range(i):
            rows[a][i - a - 1] = psi(clusters[a], merged)
        rows[i] = [psi(merged, d) for d in clusters[i + 1 :]]
    return score, Hierarchy(full_mask(n), children)


def _merges(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The merges (I[c], J[c]) of k clusters in nested (i, j) order, and the
    columns merge c keeps: every one but J[c], where I[c] takes the merge."""
    I, J = np.triu_indices(k, 1)
    cols = np.arange(k)
    keep = np.broadcast_to(cols, (len(I), k))[cols != J[:, None]].reshape(len(I), k - 1)
    return I, J, keep


def _rollout_bonus(rows: np.ndarray, depth: int, psi_pairs) -> np.ndarray:
    # Greedy rollout of `depth` further merges from every row, scored but not
    # committed.
    bonus = np.zeros(len(rows))
    r = np.arange(len(rows))
    for m in range(rows.shape[1], max(1, rows.shape[1] - depth), -1):
        I, J, keep = _merges(m)
        vals = psi_pairs(rows[:, I], rows[:, J])
        best = vals.argmax(axis=1)  # the first maximum, as greedy_cluster takes
        bonus += vals[r, best]
        merged = rows[r, I[best]] | rows[r, J[best]]
        rows = rows[r[:, None], keep[best]]
        rows[r, I[best]] = merged
    return bonus


def _lookahead_one(parts, merged, pair_vals, I, J, psi_pairs) -> np.ndarray:
    # Depth-1 lookahead of merge (I[c], J[c]) of every state, in closed form:
    # the best join of the merged cluster or the best pair avoiding I[c], J[c].
    S, k = parts.shape
    C = len(I)
    # each state's top 2k-2 pair scores, in no order, and the columns those
    # pairs and each merge touch, as bit masks
    T = min(C, 2 * k - 2)
    top = np.argpartition(pair_vals, C - T, axis=1)[:, C - T :]
    top_vals = np.take_along_axis(pair_vals, top, axis=1)[:, :, None]
    bit = np.uint64(1) << np.arange(k, dtype=np.uint64)
    touch = bit[I] | bit[J]
    top_touch = touch[top][:, :, None]
    # the k-2 clusters but i and j of merge c, as rest[:, c]
    cols = np.arange(k)
    rest = np.broadcast_to(cols, (C, k))[(cols != I[:, None]) & (cols != J[:, None])]
    rest = rest.reshape(C, k - 2).T
    bonus = np.empty((S, C))
    step = max(1, JOIN_CHUNK_PAIRS // (C * (k - 2)))
    for a in range(0, S, step):
        b = slice(a, a + step)
        best_join = psi_pairs(merged[b, None], parts[b][:, rest]).max(axis=1)
        avoids = (top_touch[b] & touch) == 0
        best_avoid = np.where(avoids, top_vals[b], -np.inf).max(axis=1)
        np.maximum(best_join, best_avoid, out=bonus[b])
    return bonus


def _ranked(neg_keys: np.ndarray, parts: np.ndarray, first: int):
    """Candidate indices in the order of the stable
    ``np.lexsort(tuple(parts.T[::-1]) + (neg_keys,))``, one band at a time.

    A band is every candidate not yet ranked whose key is at most the m-th
    smallest key, m growing fourfold from ``first``; a tie never spans two
    bands, so the bands, each lexsorted, concatenate to the full order.
    NaN keys sort last, as in ``np.lexsort``: no band bounded by a NaN takes
    them, and the last band is everything left.
    """
    total = len(neg_keys)
    left = np.ones(total, dtype=bool)
    m = first
    while True:
        band = left
        if m < total:
            band = left & (neg_keys <= np.partition(neg_keys, m - 1)[m - 1])
        idx = np.flatnonzero(band)
        yield from idx[np.lexsort(tuple(parts[idx].T[::-1]) + (neg_keys[idx],))].tolist()
        if m >= total:
            return
        left &= ~band
        m *= 4


def _integer(value, name: str) -> int:
    if not isinstance(value, bool):  # np.bool_ has no __index__
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, not {value!r}")


@np.errstate(over="ignore")  # scores past the float range are -inf
def beam_search_forest(
    model: PotentialModel,
    beam_width: int | None = None,
    lookahead: int = 1,
) -> list[tuple[float, Hierarchy]]:
    """Full final beam, best first.  Default width is n(n-1)/2."""
    n = model.n
    if beam_width is None:
        beam_width = max(1, n * (n - 1) // 2)
    beam_width = _integer(beam_width, "beam width")
    lookahead = _integer(lookahead, "lookahead")
    if beam_width < 1:
        raise ValueError("beam width must be at least 1")
    if lookahead < 0:
        raise ValueError("lookahead must be nonnegative")
    if n == 1:
        return [(0.0, Hierarchy(1, {}))]

    def psi_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        # psi of every broadcast pair of uint64 clusters, smaller cluster first
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        return model.log_psi_pairs(lo.ravel(), hi.ravel()).reshape(lo.shape)

    parts = np.array([[1 << i for i in range(n)]], dtype=np.uint64)
    scores = np.zeros(1)
    history = np.zeros((1, 0, 2), dtype=np.uint64)
    for k in range(n, 1, -1):
        S = len(parts)
        I, J, keep = _merges(k)
        C = len(I)
        lefts, rights = parts[:, I], parts[:, J]
        merged = lefts | rights
        pair_vals = psi_pairs(lefts, rights)
        new_parts = parts[:, keep]
        new_parts[:, np.arange(C), I] = merged
        new_parts = new_parts.reshape(S * C, k - 1)
        new_scores = scores[:, None] + pair_vals
        if lookahead == 1 and k > 2:
            bonus = _lookahead_one(parts, merged, pair_vals, I, J, psi_pairs)
        elif lookahead > 1 and k > 2:
            # the rollout's first step scores the most pairs, (k-1)(k-2)/2 a row
            step = max(1, JOIN_CHUNK_PAIRS // ((k - 1) * (k - 2) // 2))
            bonus = np.concatenate([
                _rollout_bonus(new_parts[a : a + step], lookahead, psi_pairs)
                for a in range(0, S * C, step)
            ]).reshape(S, C)
        else:
            bonus = 0.0
        neg_keys = -(new_scores + bonus).ravel()
        new_scores = new_scores.ravel()

        kept: list[int] = []
        seen: dict[tuple[int, ...], list[float]] = {}
        score_list = new_scores.tolist()
        for idx in _ranked(neg_keys, new_parts, 2 * beam_width):
            score = score_list[idx]
            prior = seen.setdefault(tuple(new_parts[idx].tolist()), [])
            if any(abs(score - s) <= SCORE_TIE_TOL for s in prior):
                continue  # another merge order of the same clustering
            prior.append(score)
            kept.append(idx)
            if len(kept) == beam_width:
                break
        s, c = np.divmod(kept, C)
        merge = np.stack([lefts[s, c], rights[s, c]], axis=1)
        history = np.concatenate([history[s], merge[:, None]], axis=1)
        parts, scores = new_parts[kept], new_scores[kept]
    root = full_mask(n)
    return [
        (score, Hierarchy(root, {left | right: (left, right) for left, right in merges}))
        for score, merges in zip(scores.tolist(), history.tolist())
    ]


def beam_search_cluster(
    model: PotentialModel,
    beam_width: int | None = None,
    lookahead: int = 1,
) -> tuple[float, Hierarchy]:
    """Best complete tree found by the beam."""
    return beam_search_forest(model, beam_width, lookahead)[0]
