"""Dense subset trellis: exact partition function, MAP, marginals, sampling.

The trellis memoizes one cell per nonempty cluster, filled bottom-up one
popcount level at a time.  Every cell only reads strictly smaller clusters,
so a whole level is filled in chunks of parents.  A chunk is one 2-D block
of splits, a row per parent, and one row-wise reduction.  The fill and the
sampler take their blocks from ``_scored_chunks``: where the model gives
separable terms (u, c, scale), a level of k leaves has h = u * scale[k],
a split's term is (table + h)[L] + (table + h)[R] plus c[P], which is
constant along a row and so is added after the row's reduction;
otherwise one psi call scores the block.  The same single pass produces
both the summed (partition function) and maxed (MAP) recursions plus MAP
backpointers; the split-term counter therefore advances exactly once per
evaluated split.  Tree counts run over the same chunks, flattened, through
``core.tree_counts``, the count kernel the sparse engine shares.

Cluster marginals come from one outside pass, levels top-down from n - 1
to 2, as a gather: each cluster C gets one row over its strict supersets
P = C | S, whose terms up(P) + log psi(C, S) + Z(S), with up(P) =
log P(P) - Z(P), are all final when C's level starts.  The fill's row
log-sum-exp reduces the row (high-beta marginals underflow a linear sum),
and log P(C) = Z(C) + the row's value.  Separable terms score a row from
per-cluster tables; otherwise one psi call per chunk scores its pairs,
smaller cluster first.  The first marginal query runs the pass; later
queries are lookups.  A query is refused once one float step of log
Z(root) passes 1e-6: the pass's differences of log values are then
rounding noise.

The MAP tree is a preorder walk down the backpointers.  Posterior draws
are batched: all draws walk down together, one cluster size per pass,
each picking its splits from cumulative weights built once per call for
every distinct vertex of the pass, one fill chunk at a time, and reading
its left child from the split block that chunk scored.  Sampling writes
nothing to the trellis.  A draw spends one uniform per non-singleton node
in preorder, two-leaf nodes included, so it equals the draw a
one-node-at-a-time walk would make from the same generator.
"""

from __future__ import annotations

import numpy as np

from .core import (
    DENSE_MAX_LEAVES,
    LOG_ZERO,
    GroundSet,
    Hierarchy,
    low_bits,
    pivot_splits_array,
    subset_block,
    tree_counts,
)
from .models import PotentialModel, log_hierarchy_potential

# Split terms per fill chunk: each popcount level is filled a block of
# parents at a time, bounding the temporaries to a few arrays of this length.
FILL_CHUNK_TERMS = 1 << 14
# Draws walked down together; larger counts run as consecutive batches that
# keep drawing from the same generator.
SAMPLE_CHUNK_DRAWS = 1 << 14


def _split_chunks(levels):
    """Yield (parents, lefts, rights) for every split of every parent in
    ``levels``, an iterable of arrays of parents that share a popcount, in
    chunks of ~FILL_CHUNK_TERMS split terms.  ``lefts`` and ``rights`` are
    (parents, splits per parent) blocks, row i splitting parents[i], lefts
    ascending along the row."""
    for level in levels:
        width = (1 << (int(np.bitwise_count(level[0])) - 1)) - 1  # splits per parent
        step = max(1, FILL_CHUNK_TERMS // width)
        for lo in range(0, level.size, step):
            parents = level[lo : lo + step]
            lefts = pivot_splits_array(parents).reshape(parents.size, width)
            yield parents, lefts, parents[:, None] ^ lefts


def _row_log_sum_exp(terms: np.ndarray) -> np.ndarray:
    """log sum exp of each row of a 2-D block, shifted by the row's
    maximum; ``terms`` is overwritten.  A row of -inf alone is -inf."""
    top = terms.max(axis=1)
    shift = np.where(top == LOG_ZERO, 0.0, top)  # all-zero rows stay -inf
    terms -= shift[:, None]
    return shift + np.log(np.exp(terms, out=terms).sum(axis=1))


def _superset_chunks(level, full):
    """Yield (clusters, supersets, rests) for the clusters of ``level`` (an
    array of clusters that share a popcount) in chunks of ~FILL_CHUNK_TERMS
    terms: row i of ``rests`` lists the nonempty subsets S of clusters[i]'s
    complement in ``subset_block`` order from entry 1, so entry t holds
    popcount(t + 1) leaves, and ``supersets`` is clusters[i] | S.  The
    complement's leaves are split out once per level."""
    m = full.bit_count() - int(np.bitwise_count(level[0]))
    lows = np.array(list(low_bits(full ^ level, m)))  # (m, clusters)
    step = max(1, FILL_CHUNK_TERMS >> m)
    for lo in range(0, level.size, step):
        clusters = level[lo : lo + step]
        rests = subset_block(np.zeros_like(clusters), lows[:, lo : lo + step], 1 << m)
        rests = np.ascontiguousarray(rests[1:].T)
        yield clusters, rests | clusters[:, None], rests


def _pair_sums(table: np.ndarray, lefts, rights, lp=None) -> np.ndarray:
    """lp + table[lefts] + table[rights], added in that order, in a new
    array; without ``lp``, table[lefts] + table[rights]."""
    out = table.take(lefts)
    if lp is not None:
        out += lp  # addition commutes bit for bit, so this is lp + table[lefts]
    out += table.take(rights)
    return out


class DenseTrellis:
    """Memoized dynamic programs over all 2**n - 1 clusters of a ground set."""

    def __init__(self, ground: GroundSet, model: PotentialModel):
        if ground.n > DENSE_MAX_LEAVES:
            raise ValueError(f"dense trellis is capped at {DENSE_MAX_LEAVES} leaves")
        if model.n != ground.n:
            raise ValueError("model and ground set disagree on the leaf count")
        self.ground = ground
        self.model = model
        self.op_count = 0
        self._log_z: np.ndarray | None = None
        self._log_map: np.ndarray | None = None
        self._map_child: np.ndarray | None = None
        self._counts: np.ndarray | None = None
        self._log_p: np.ndarray | None = None

    # -- dynamic program ----------------------------------------------------

    def _levels(self, sizes=None):
        """The clusters of each popcount in ``sizes`` (bottom-up from 2 by
        default), one ascending array per size."""
        n = self.ground.n
        pc = np.bitwise_count(np.arange(1 << n, dtype=np.int64))
        sizes = range(2, n + 1) if sizes is None else sizes
        return (np.nonzero(pc == k)[0] for k in sizes)

    def _scored_chunks(self, levels, tables):
        """Yield (parents, lefts, rights, const, blocks) for every split of
        every parent in ``levels`` (arrays of parents that share a
        popcount), in ``_split_chunks``' chunks: per table of ``tables``, a
        block whose rows plus ``const`` are log psi + table[lefts] +
        table[rights].  Cells below a level must be final when it starts.

        If the model gives separable terms (u, c, scale), a level of k
        leaves has h = u * scale[k], a block is (table + h)[lefts] +
        (table + h)[rights] and ``const`` is c[parents]; otherwise one psi
        call scores the chunk and ``const`` is None (zero).  The terms are
        fetched per level, so at most two extra cluster tables are held:
        kept across levels, u would be a third."""
        for level in levels:
            shifted = None  # free the last level's tables first
            terms = self.model.separable_terms()
            if terms is None:
                for parents, lefts, rights in _split_chunks([level]):
                    lp = self.model.log_psi_pairs(lefts, rights)
                    yield parents, lefts, rights, None, [
                        _pair_sums(t, lefts, rights, lp) for t in tables
                    ]
                continue
            h, c, scale = terms
            const = c.take(level)
            del terms, c
            h *= scale[int(level[0]).bit_count()]
            # the last table is added into h itself
            shifted = [h + t for t in tables[:-1]] + [np.add(h, tables[-1], out=h)]
            lo = 0
            for parents, lefts, rights in _split_chunks([level]):
                yield parents, lefts, rights, const[lo : lo + parents.size], [
                    _pair_sums(g, lefts, rights) for g in shifted
                ]
                lo += parents.size

    def _ensure_filled(self) -> None:
        if self._log_z is not None:
            return
        size = 1 << self.ground.n
        log_z = np.zeros(size)
        log_map = np.zeros(size)
        map_child = np.zeros(size, dtype=np.int64)
        ops = 0
        chunks = self._scored_chunks(self._levels(), (log_z, log_map))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for parents, subs, _, const, (z_terms, m_terms) in chunks:
                z = _row_log_sum_exp(z_terms)
                best = np.argmax(m_terms, axis=1)  # first max = smallest bits
                rows = np.arange(parents.size)
                m = m_terms[rows, best]
                if const is not None:
                    z += const
                    m += const
                log_z[parents] = z
                log_map[parents] = m
                map_child[parents] = subs[rows, best]
                ops += subs.size
        self.op_count = ops
        self._log_map = log_map
        self._map_child = map_child
        self._log_z = log_z  # last: a set _log_z tells other threads every table is ready

    # -- queries -------------------------------------------------------------

    def log_partition(self) -> float:
        """log Z over all hierarchies of the full ground set."""
        self._ensure_filled()
        return float(self._log_z[self.ground.full])

    def map_hierarchy(self) -> tuple[float, Hierarchy]:
        """The maximum-potential hierarchy and its log potential.

        The returned value is the tree's own recomputed potential, so it
        matches log_hierarchy_potential(tree, model) bit for bit.  A -inf
        value flags a degenerate instance (every hierarchy has zero
        potential); the tree returned alongside is then an arbitrary valid
        one.
        """
        self._ensure_filled()
        children: dict[int, tuple[int, int]] = {}
        stack = [self.ground.full]
        while stack:  # preorder, left subtree first
            v = stack.pop()
            if v.bit_count() > 1:
                left = int(self._map_child[v])
                children[v] = (left, v ^ left)
                stack += (v ^ left, left)
        tree = Hierarchy.from_canonical(self.ground.full, children)
        return log_hierarchy_potential(tree, self.model), tree

    @property
    def log_z_table(self) -> np.ndarray:
        self._ensure_filled()
        return self._log_z

    @property
    def log_map_table(self) -> np.ndarray:
        self._ensure_filled()
        return self._log_map

    def operation_count(self) -> int:
        if self._log_z is None:
            raise ValueError("run the partition-function pass first")
        return self.op_count

    # -- marginals -----------------------------------------------------------

    def _check_cluster(self, bits: int) -> None:
        if bits == 0:
            raise ValueError("empty cluster")
        if bits >> self.ground.n:  # a shift, not a mask built per query
            raise ValueError("cluster extends past the ground set")

    def _log_marginals(self) -> np.ndarray:
        """log P(C) for every cluster C, from one top-down outside pass (see
        the module docstring).  For C of j leaves, separable terms give the
        term (up + c)[P] + g[S] + s u[C] with s = scale[j + |S|] and
        g = Z + s u built once per level; otherwise one psi call per chunk
        scores its pairs, smaller cluster first.  Singletons are never
        written: they stay 0.0."""
        log_z, n, full = self.log_z_table, self.ground.n, self.ground.full
        if log_z[full] == LOG_ZERO:
            raise ValueError("degenerate posterior: partition function is zero")
        terms = self.model.separable_terms()
        # above[P] is up(P) + c(P) once P's level is done, c(P) before
        u, above, scale = (None, np.zeros(full + 1), None) if terms is None else terms
        del terms
        sizes = None if u is None else np.bitwise_count(np.arange(full + 1))
        log_p = np.full(full + 1, LOG_ZERO)
        log_p[full] = 0.0
        log_p[1 << np.arange(n)] = 0.0
        done = np.array([full])
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for j, level in zip(range(n - 1, 1, -1), self._levels(range(n - 1, 1, -1))):
                p = log_p[done]
                # P(P) is -inf wherever Z(P) is, and -inf - -inf would be NaN
                above[done] += np.where(p == LOG_ZERO, LOG_ZERO, p - log_z[done])
                if u is not None:
                    # s per cluster read as S; no S past n - j leaves is read
                    g = scale.take(sizes + j, mode="clip")
                    g *= u
                    g += log_z
                    s = scale[j + np.bitwise_count(np.arange(1, 1 << (n - j)))]
                for cs, ps, ss in _superset_chunks(level, full):
                    t = above.take(ps)
                    if u is None:
                        t += log_z.take(ss)
                        col = cs[:, None]
                        lo, hi = np.minimum(col, ss, out=ps), np.maximum(col, ss, out=ss)
                        t += self.model.log_psi_pairs(lo.ravel(), hi.ravel()).reshape(t.shape)
                    else:
                        t += g.take(ss)
                        t += np.multiply.outer(u.take(cs), s)
                    log_p[cs] = log_z.take(cs) + _row_log_sum_exp(t)
                done = level
        self._log_p = log_p
        return log_p

    def _checked_marginals(self) -> np.ndarray:
        """``_log_marginals``, refused when one float step of log Z(root)
        passes 1e-6: the outside pass sums differences of log values that
        large, and the identity sum of P(C) = n - 2 drifts by about two
        such steps, so the marginals would be rounding noise.  Queries
        build the table only through here, so once it exists they are
        lookups."""
        if self._log_p is not None:
            return self._log_p
        log_z = self.log_partition()
        if log_z != LOG_ZERO and not np.spacing(abs(log_z)) <= 1e-6:
            raise ValueError(
                f"|log Z| = {abs(log_z):.6g} is too large for marginals: one float"
                f" step of it is {np.spacing(abs(log_z)):.3g}"
            )
        return self._log_marginals()

    def marginal_cluster(self, bits: int) -> float:
        """log P(cluster appears in the hierarchy); 0.0 for root/singletons."""
        self._check_cluster(bits)
        return float(self._checked_marginals()[bits])

    def marginal_subhierarchy(self, fragment: Hierarchy) -> float:
        """log P(the fragment appears intact, rooted at its own cluster)."""
        fragment.validate(n=self.ground.n)
        root = fragment.root
        log_p = float(self._checked_marginals()[root])
        if log_p == LOG_ZERO:  # then Z(root) may be zero too
            return LOG_ZERO
        return log_p - float(self._log_z[root]) + log_hierarchy_potential(fragment, self.model)

    # -- posterior sampling ----------------------------------------------------

    def _split_cums(self, distinct: np.ndarray):
        """Yield (parents, lefts, cum) per chunk of ``distinct``, ascending
        vertices of one size: row i of cum holds the cumulative split
        weights psi * Z(left) * Z(right) of parents[i]'s splits, whose left
        children are row i of lefts, scaled by the row maximum.  A
        separable model's c[parent] is constant along the row, so the
        scaling cancels it."""
        chunks = self._scored_chunks([distinct], (self._log_z,))
        for parents, lefts, _, _, (terms,) in chunks:
            terms -= terms.max(axis=1, keepdims=True)
            yield parents, lefts, np.cumsum(np.exp(terms, out=terms), axis=1)

    def _pick_lefts(self, vertices: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Left child drawn at each vertex, all of one size, from its uniform:
        over the vertex's rows of ``_split_cums``, entry i of lefts where i
        is min(searchsorted(cum, u * cum[-1], side="right"), width - 1).
        The vertices are sorted so each chunk of distinct vertices holds a
        run of them; a chunk's rows are built, then searched at once by
        binary lifting."""
        order = np.argsort(vertices)
        ordered = vertices[order]
        target = u[order]
        # vertices are nonzero, so the first is kept
        distinct = ordered[np.diff(ordered, prepend=0) != 0]
        out = np.empty_like(vertices)
        a = 0
        for parents, lefts, cum in self._split_cums(distinct):
            b = np.searchsorted(ordered, parents[-1], side="right")
            width = cum.shape[1]
            flat = cum.ravel()
            # flat index of the last entry of each draw's row
            last = (np.searchsorted(parents, ordered[a:b]) + 1) * width - 1
            t = target[a:b] * flat.take(last)
            # lift from entry "-1" of the row: width is 2**(k-1) - 1, the
            # sum of all steps, so no probe passes the end of its row
            pos = last - width
            step = (width + 1) >> 1
            while step:
                pos += step * (flat.take(pos + step) <= t)
                step >>= 1
            out[order[a:b]] = lefts.take(np.minimum(pos + 1, last))
            a = b
        return out

    def _draw_batch(self, count: int, rng: np.random.Generator) -> list[Hierarchy]:
        """``count`` posterior draws walked down together, one cluster size
        per pass from n down to 2: a node only comes from a larger parent,
        so every node of size k is pending when pass k starts.  Draw d
        gives uniform u[d, p] to its p-th non-singleton node in preorder,
        left subtree first: a node at p has its left child at p + 1 and its
        right child at p + |left|, so every uniform lands where successive
        one-at-a-time draws would spend it."""
        n, full = self.ground.n, self.ground.full
        u = rng.random((count, n - 1))
        nodes = np.zeros((count, n - 1), dtype=np.int64)
        lefts = np.zeros((count, n - 1), dtype=np.int64)
        draw = np.arange(count if n > 1 else 0)
        pos = np.zeros(draw.size, dtype=np.int64)
        v = np.full(draw.size, full, dtype=np.int64)
        for k in range(n, 1, -1):
            now = np.bitwise_count(v) == k
            if not now.any():
                continue
            d, p, w = draw[now], pos[now], v[now]
            left = self._pick_lefts(w, u[d, p])
            nodes[d, p] = w
            lefts[d, p] = left
            size_l = np.bitwise_count(left).astype(np.int64)
            go_l, go_r, rest = size_l > 1, k - size_l > 1, ~now
            draw = np.concatenate((draw[rest], d[go_l], d[go_r]))
            pos = np.concatenate((pos[rest], p[go_l] + 1, (p + size_l)[go_r]))
            v = np.concatenate((v[rest], left[go_l], (w ^ left)[go_r]))
        rights = nodes ^ lefts
        return [
            Hierarchy.from_canonical(full, dict(zip(vs, zip(ls, rs))))
            for vs, ls, rs in zip(nodes.tolist(), lefts.tolist(), rights.tolist())
        ]

    def sample(self, rng: np.random.Generator) -> Hierarchy:
        """One posterior draw."""
        return self.sample_many(1, rng)[0]

    def sample_many(self, count: int, seed) -> list[Hierarchy]:
        """``count`` posterior draws; splits are chosen top-down per the exact
        conditional p(left | parent) = psi * Z(left) * Z(right) / Z(parent).
        ``seed`` may be a Generator: each draw advances it by n - 1
        uniforms, so splitting a count into several calls gives the same
        draws."""
        if count < 0:
            raise ValueError(f"draw count must be nonnegative, not {count}")
        if count and self.log_partition() == LOG_ZERO:
            raise ValueError("degenerate posterior: partition function is zero")
        rng = np.random.default_rng(seed)
        draws = []
        with np.errstate(over="ignore"):  # split terms past the float range are -inf
            for lo in range(0, count, SAMPLE_CHUNK_DRAWS):
                draws += self._draw_batch(min(SAMPLE_CHUNK_DRAWS, count - lo), rng)
        return draws

    # -- exact counting --------------------------------------------------------

    def count_trees(self) -> int:
        """Number of hierarchies the trellis realizes: (2n-3)!! when dense."""
        if self._counts is None:
            n = self.ground.n
            levels = (
                (p, l.ravel(), r.ravel(), np.arange(0, l.size, l.shape[1]))
                for p, l, r in _split_chunks(self._levels())
            )
            self._counts = tree_counts(n, 1 << n, 1 << np.arange(n), levels)
        return int(self._counts[self.ground.full])

    def tree_count_of(self, bits: int) -> int:
        self._check_cluster(bits)
        self.count_trees()
        return int(self._counts[bits])
