"""One pass over a workload: every timed call into the library, then its check.

A ``Recorder`` times each call the benchmark makes into a package module
(a top-level span) and groups calls into ops.  In traced mode it also
wraps the model instance's ``log_psi``/``log_psi_pairs`` and
``pivot_splits_array`` as ``hctrellis.trellis`` sees it, so psi and
enumeration time show up as child spans of the call that caused them.
Nothing inside the package is changed; the wrappers live on the model
instance and on a module attribute that is restored after the pass.

Checks run outside the timed calls.  An op that raises or fails a check
counts once in ``failed``; an exception also skips the rest of that
instance.
"""

from __future__ import annotations

import bisect
import gc
import math
import signal
import time
from array import array
from contextlib import contextmanager
from functools import lru_cache

import numpy as np
from scipy.stats import binomtest

import hctrellis.sparse as hsparse
import hctrellis.trellis as htrellis
from hctrellis import (
    ConstantModel,
    CorrelationModel,
    DasguptaModel,
    DenseTrellis,
    GinkgoModel,
    GroundSet,
    Hierarchy,
    SparseTrellis,
    beam_search_forest,
    build_from_trees,
    greedy_cluster,
    log_hierarchy_potential,
    num_hierarchies,
    oracle_summary,
    split_term_count,
)
from hctrellis.core import log_sum_exp, log_sum_exp_array, pivot_splits
from hctrellis.oracle import ORACLE_MAX_LEAVES

import workloads
from workloads import LAM

LOG_ZERO = float("-inf")
# Marginal queries whose contracted ground set is larger than this cost a
# near-full refill each (2.3 s at n = 14); they are left out.
MARGINAL_MAX_LEAVES = 10
# Dense instances up to this size also evaluate a sparse trellis holding
# every split, against the dense engine (3025 edges at n = 8).
FULL_SPARSE_MAX_LEAVES = 8
BINOM_MIN_P = 1e-6
CALIBRATION_INTERVAL_S = 0.25
WARM_DRAWS = 200  # draws after the cold ones, for trellis.sample_warm_us only


def calibration_kernel() -> None:
    """Fixed work that touches no hctrellis code: numpy calls on small
    arrays joined by interpreter code, the shape of the engine's
    per-vertex reductions.

    Its run time tracks how fast the shared machine is at the moment.  Of
    the kernels tried, this one tracked sparse evaluate, greedy and an
    n = 10 dense fill most closely: their time over its time varied least
    from one few-second window to the next (see README.md).
    """
    a = np.arange(64, dtype=np.float64)
    for i in range(2500):
        b = a[(i & 31):(i & 31) + 24]
        top = b.max()
        math.log(float(np.exp(b - top).sum()))


def tol(x: float) -> float:
    return 1e-9 * max(1.0, abs(x))


class Recorder:
    """Spans of one pass, kept in flat arrays until the run ends.

    A span is (parent, op, name, t0, t1, terms, neginf); its id is its
    index.  ``terms`` is the number of split terms a psi or enumeration
    call covered, ``neginf`` how many psi values were -inf.
    """

    def __init__(self, traced: bool = False):
        self.traced = traced
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.parent = array("q")
        self.op = array("q")
        self.name = array("q")
        self.t0 = array("d")
        self.t1 = array("d")
        self.terms = array("q")
        self.neginf = array("q")
        self.ops: list[dict] = []
        self._stack: list[int] = []
        self._op = -1
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    # -- spans ----------------------------------------------------------------

    def _open(self, name: str, terms: int = 0) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.t0)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op)
        self.name.append(nid)
        self.terms.append(terms)
        self.neginf.append(0)
        self.t1.append(math.nan)
        self._stack.append(sid)
        self.t0.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.t1[sid] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args):
        """Time one call into a package module as a top-level span."""
        sid = self._open(name)
        try:
            return fn(*args)
        finally:
            self._close(sid)

    def settle(self) -> None:
        """Start an instance with a settled collector.

        Objects alive now (inputs, earlier records) are frozen, so the
        collector's work inside the instance depends only on what the
        instance allocates.
        """
        gc.collect()
        gc.freeze()

    def begin(self, kind: str, engine: str, instance: str, **attrs) -> dict:
        self._op = len(self.ops)
        self.attempted += 1
        rec = {"kind": kind, "engine": engine, "instance": instance, **attrs}
        self.ops.append(rec)
        return rec

    def fail(self, message: str, op: dict | None = None) -> None:
        if op is None:
            op = self.ops[self._op] if self._op >= 0 else {"kind": "setup", "instance": "-"}
        if not op.get("failed"):
            op["failed"] = True
            self.failed += 1
        self.errors.append(f"{op['kind']}[{op['instance']}]: {message}")

    def check(self, ok: bool, message: str, op: dict | None = None) -> None:
        if not ok:
            self.fail(message, op)

    # -- tracing wrappers -----------------------------------------------------

    def _wrap_psi(self, fn):
        def log_psi(left, right):
            if not self._stack:  # a check recomputing psi, not a timed call
                return fn(left, right)
            sid = self._open("models.log_psi", 1)
            try:
                out = fn(left, right)
            finally:
                self._close(sid)
            if out == LOG_ZERO:
                self.neginf[sid] = 1
            return out

        return log_psi

    def _wrap_psi_pairs(self, fn):
        def log_psi_pairs(lefts, rights):
            if not self._stack:
                return fn(lefts, rights)
            sid = self._open("models.log_psi_pairs", len(lefts))
            try:
                out = fn(lefts, rights)
            finally:
                self._close(sid)
            self.neginf[sid] = int(np.count_nonzero(np.isneginf(out)))
            return out

        return log_psi_pairs

    def instrument(self, model):
        """Route the model instance's psi entry points through spans."""
        if self.traced:
            model.log_psi = self._wrap_psi(model.log_psi)
            model.log_psi_pairs = self._wrap_psi_pairs(model.log_psi_pairs)
        return model

    def _wrap_module_fn(self, name, fn, terms_of_output):
        def wrapped(*args):
            sid = self._open(name)
            try:
                out = fn(*args)
            finally:
                self._close(sid)
            if terms_of_output:
                self.terms[sid] = len(out)
            return out

        return wrapped

    @contextmanager
    def patched(self):
        """Trace enumeration, jet generation and the simulator trellis build.

        ``pivot_splits_array`` is wrapped as ``hctrellis.trellis`` sees it,
        ``generate_jet`` as ``hctrellis.sparse`` and ``workloads`` see it;
        the originals are restored on exit.
        """
        if not self.traced:
            yield
            return
        targets = [
            (htrellis, "pivot_splits_array", "core.pivot_splits_array", True),
            (hsparse, "generate_jet", "jetgen.generate_jet", False),
            (workloads, "generate_jet", "jetgen.generate_jet", False),
            (workloads, "build_simulator_trellis", "sparse.build_simulator_trellis", False),
        ]
        saved = [(module, attr, getattr(module, attr)) for module, attr, _, _ in targets]
        for (module, attr, name, terms), (_, _, fn) in zip(targets, saved):
            setattr(module, attr, self._wrap_module_fn(name, fn, terms))
        try:
            yield
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)

    # -- derived views ----------------------------------------------------------

    def op_walls(self) -> list[float]:
        """Seconds per op: the sum of its top-level spans."""
        return [wall for _, wall in self.op_times()]

    def op_times(self, sampler: "SpeedSampler | None" = None) -> list[tuple[float, float]]:
        """(start, seconds) per op, over its top-level spans, less the
        calibration kernel runs of ``sampler`` inside them."""
        start = [math.inf] * len(self.ops)
        walls = [0.0] * len(self.ops)
        for sid in range(len(self.t0)):
            op = self.op[sid]
            if self.parent[sid] == -1 and op >= 0:
                t0, t1 = self.t0[sid], self.t1[sid]
                start[op] = min(start[op], t0)
                walls[op] += sampler.net(t0, t1) if sampler else t1 - t0
        return list(zip(start, walls))


class SpeedSampler:
    """Runs the calibration kernel every CALIBRATION_INTERVAL_S from a timer
    signal, whatever the main thread is doing.

    The kernel thus also runs inside long ops, so their speed factor comes
    from samples taken while they ran; ``net`` takes those runs back out of
    a span.  Python runs the handler between bytecodes, so a kernel run lies
    wholly inside or wholly outside any span.
    """

    def __init__(self):
        self.runs: list[tuple[float, float]] = []  # (start, end) per kernel run
        self._previous = None

    def run_kernel(self, *_signal) -> None:
        t0 = time.perf_counter()
        calibration_kernel()
        self.runs.append((t0, time.perf_counter()))

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self.run_kernel)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_INTERVAL_S, CALIBRATION_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.runs.sort()  # a timer run can nest inside an explicit one

    def samples(self) -> list[tuple[float, float]]:
        """(midpoint, seconds) per kernel run, in time order."""
        return sorted(((a + b) / 2, b - a) for a, b in self.runs)

    def net(self, t0: float, t1: float) -> float:
        """t1 - t0 less the kernel runs that started inside [t0, t1]."""
        i = bisect.bisect_left(self.runs, (t0,))
        wall = t1 - t0
        while i < len(self.runs) and self.runs[i][0] < t1:
            wall -= min(self.runs[i][1], t1) - self.runs[i][0]
            i += 1
        return wall


# ---------------------------------------------------------------------------
# ops


def make_model(inst):
    if inst.kind == "ginkgo":
        return GinkgoModel(inst.payload, lam=LAM)
    if inst.kind == "dasgupta":
        return DasguptaModel(inst.payload)
    if inst.kind == "correlation":
        return CorrelationModel(inst.payload)
    raise ValueError(f"unknown model kind {inst.kind!r}")


def _fill(model):
    trellis = DenseTrellis(GroundSet(model.n), model)
    return trellis, trellis.log_partition()


def _count(n: int) -> int:
    return DenseTrellis(GroundSet(n), ConstantModel(n)).count_trees()


def _oracle(inst, model):
    """Exhaustive reference for n <= ORACLE_MAX_LEAVES, computed once per instance."""
    if "oracle" not in inst.cache:
        inst.cache["oracle"] = oracle_summary(GroundSet(inst.n), model)
    return inst.cache["oracle"]


def _oracle_fragment(inst, summary, fragment: Hierarchy) -> float:
    key = ("fragment", fragment.signature())
    if key not in inst.cache:
        keep = [
            i for i, h in enumerate(summary.hierarchies())
            if all(h.children.get(p) == pair for p, pair in fragment.children.items())
        ]
        inst.cache[key] = (
            log_sum_exp_array(summary.tree_log_potentials[keep]) - summary.log_z
            if keep else LOG_ZERO
        )
    return inst.cache[key]


def marginal_queries(n: int):
    """Clusters and one fragment to query on an n-leaf instance.

    The clusters {0..k-1} whose contracted ground sets have 2..10 leaves,
    and a left comb over the first max(2, n - 7) leaves.  Their cost does
    not depend on the seed, where the cluster sizes of a tree do.
    """
    low = max(2, n - MARGINAL_MAX_LEAVES + 1)
    clusters = [(1 << k) - 1 for k in range(low, n)]
    k = max(2, n - 7)
    comb = {(1 << j) - 1: ((1 << (j - 1)) - 1, 1 << (j - 1)) for j in range(2, k + 1)}
    return clusters, Hierarchy((1 << k) - 1, comb)


def _isclose(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


def sparse_reference(st, model) -> tuple[float, float, int]:
    """Log Z, MAP value and tree count of a sparse trellis.

    A plain recursion over the stored pairs, written here so the sparse
    engine's answers are checked against something it does not compute.
    """
    z, best, count = {}, {}, {}
    for v in sorted(st.vertices, key=int.bit_count):
        pairs = st.vertices[v]
        if v.bit_count() == 1:
            z[v], best[v], count[v] = 0.0, 0.0, 1
            continue
        psi = [model.log_psi(l, r) for l, r in pairs]
        z[v] = log_sum_exp([p + z[l] + z[r] for p, (l, r) in zip(psi, pairs)])
        best[v] = max(p + best[l] + best[r] for p, (l, r) in zip(psi, pairs))
        count[v] = sum(count[l] * count[r] for l, r in pairs)
    return z[st.root], best[st.root], count[st.root]


@lru_cache(maxsize=None)
def full_sparse_trellis(n: int) -> SparseTrellis:
    """The sparse trellis that holds every split of every cluster of n leaves."""
    vertices = {v: [(left, v ^ left) for left in pivot_splits(v)] if v.bit_count() > 1 else []
                for v in range(1, 1 << n)}
    return SparseTrellis(GroundSet(n), vertices)


def _check_draws(rec, draws, n, queried):
    full = (1 << n) - 1
    for h in draws:
        try:
            h.validate(n=n, require_root=full)
        except ValueError as exc:
            rec.fail(f"invalid draw: {exc}")
            return
    for bits, log_p in queried:
        hits = sum(1 for h in draws if bits in h.children)
        p = min(1.0, max(0.0, math.exp(log_p)))
        pvalue = binomtest(hits, len(draws), p).pvalue
        rec.check(pvalue >= BINOM_MIN_P, f"cluster {bits:#x}: {hits}/{len(draws)} draws vs P={p:.4g} (p={pvalue:.2g})")


def run_dense(rec: Recorder, wl, idx: int, inst, with_forest: bool) -> None:
    n = inst.n
    full = (1 << n) - 1
    rec.begin("exact", "dense", inst.name, n=n, terms=split_term_count(n))
    model = rec.instrument(rec.call("models.build", make_model, inst))
    trellis, log_z = rec.call("trellis.fill", _fill, model)
    log_map, tree = rec.call("trellis.backtrack", trellis.map_hierarchy)
    rec.check(trellis.operation_count() == split_term_count(n), "op count != (3^n+1)/2 - 2^n")
    rec.check(log_map <= log_z + tol(log_z), "log MAP > log Z")
    rec.check(log_map == log_hierarchy_potential(tree, model), "MAP value != tree potential")
    table_map = float(trellis.log_map_table[full])
    rec.check(_isclose(log_map, table_map), f"MAP tree potential {log_map!r} != table {table_map!r}")
    oracle = _oracle(inst, model) if n <= ORACLE_MAX_LEAVES else None
    if oracle is not None:
        rec.check(_isclose(log_z, oracle.log_z), f"log Z {log_z!r} != oracle {oracle.log_z!r}")
        rec.check(_isclose(log_map, oracle.map_log_potential), "log MAP != oracle")

    clusters, fragment = marginal_queries(n)
    queried = []
    for bits in clusters:
        rec.begin("marginal_cluster", "dense", inst.name, n=n, query=bits)
        value = rec.call("trellis.marginal_cluster", trellis.marginal_cluster, bits)
        rec.check(value <= tol(value), f"log P(cluster) = {value!r} > 0")
        if oracle is not None:
            rec.check(_isclose(value, oracle.marginal(bits)), f"cluster {bits:#x} marginal != oracle")
        queried.append((bits, value))
    rec.begin("marginal_fragment", "dense", inst.name, n=n)
    value = rec.call("trellis.marginal_subhierarchy", trellis.marginal_subhierarchy, fragment)
    rec.check(value <= tol(value), f"log P(fragment) = {value!r} > 0")
    if oracle is not None:
        rec.check(_isclose(value, _oracle_fragment(inst, oracle, fragment)), "fragment marginal != oracle")

    rec.begin("draws", "dense", inst.name, n=n, draws=wl.draws)
    draws = rec.call("trellis.sample_many", trellis.sample_many, wl.draws, (wl.seed, idx))
    _check_draws(rec, draws, n, queried)
    rec.begin("draws_warm", "dense", inst.name, n=n, draws=WARM_DRAWS)
    warm = rec.call("trellis.sample_many", trellis.sample_many, WARM_DRAWS, (wl.seed, idx, 1))
    _check_draws(rec, warm, n, [])

    for _ in range(wl.greedy_repeats):
        rec.begin("greedy", "dense", inst.name, n=n)
        g_score, g_tree = rec.call("baselines.greedy_cluster", greedy_cluster, model)
        rec.check(g_score <= log_map + tol(log_map), "greedy beats the exact MAP")
        g_tree.validate(n=n, require_root=full)

    beam_op = rec.begin("beam", "dense", inst.name, n=n)
    forest = rec.call("baselines.beam_search_forest", beam_search_forest, model)
    b_score = forest[0][0]
    rec.check(b_score <= log_map + tol(log_map), "beam beats the exact MAP")
    beam_op["hit"] = abs(b_score - log_map) <= tol(log_map)

    if n <= FULL_SPARSE_MAX_LEAVES:
        # A sparse trellis with every split must give the dense answers.
        op = rec.begin("sparse_full", "sparse", inst.name, n=n)
        full_st = full_sparse_trellis(n)
        ev = rec.call("sparse.fill", full_st.evaluate, model)
        f_map, f_tree = rec.call("sparse.backtrack", ev.map_hierarchy)
        f_z = ev.log_partition()
        rec.check(_isclose(f_z, log_z), f"full sparse log Z {f_z!r} != dense {log_z!r}", op)
        rec.check(_isclose(f_map, log_map), f"full sparse MAP {f_map!r} != dense {log_map!r}", op)
        rec.check(full_st.realizes(f_tree), "full sparse MAP tree is not realizable", op)
        f_count = rec.call("sparse.count_trees", full_st.count_trees)
        rec.check(f_count == num_hierarchies(n), f"full sparse count {f_count} != (2n-3)!!", op)

    if not with_forest:
        return
    # The beam forest doubles as a sparse trellis, so every dense workload
    # also runs the sparse engine (the `hctrellis sparse --builder bs` path).
    rec.begin("sparse_build", "sparse", inst.name, n=n)
    st = rec.call("sparse.build_from_trees", build_from_trees, [t for _, t in forest])
    op, s_z, s_map, _ = _run_sparse_eval(rec, wl, inst.name, st, model, (wl.seed, idx, 2), inst.cache)
    rec.check(s_z <= log_z + tol(log_z), "sparse log Z > dense log Z", op)
    rec.check(s_map <= log_map + tol(log_map), "sparse MAP > dense MAP", op)
    rec.check(s_map >= b_score - tol(b_score), "sparse MAP < best beam tree it holds", op)


def _run_sparse_eval(rec, wl, name, st, model, seed, cache):
    """Sparse Z + MAP (timed as one exact op), then cold-cache draws.

    ``cache`` keeps the reference answers of ``st`` across passes.
    """
    n = st.ground.n
    op = rec.begin("exact", "sparse", name, n=n, terms=st.num_edges(),
                   vertices=st.num_vertices(), edges=st.num_edges())
    if callable(model):  # bind the payloads inside the op, as the CLI does
        model = rec.instrument(rec.call("models.build", model))
    ev = rec.call("sparse.fill", st.evaluate, model)
    log_map, tree = rec.call("sparse.backtrack", ev.map_hierarchy)
    log_z = ev.log_partition()
    if "sparse_reference" not in cache:
        cache["sparse_reference"] = sparse_reference(st, model)
    ref_z, ref_map, _ = cache["sparse_reference"]
    rec.check(log_map <= log_z + tol(log_z), "sparse log MAP > log Z")
    rec.check(_isclose(log_z, ref_z), f"sparse log Z {log_z!r} != reference {ref_z!r}")
    rec.check(_isclose(log_map, ref_map), f"sparse log MAP {log_map!r} != reference {ref_map!r}")
    rec.check(log_map == log_hierarchy_potential(tree, model), "sparse MAP value != tree potential")
    rec.check(st.realizes(tree), "sparse MAP tree is not realizable")
    rec.begin("draws", "sparse", name, n=n, draws=wl.sparse_draws)
    rng = np.random.default_rng(seed)
    out = [rec.call("sparse.sample", ev.sample, rng) for _ in range(wl.sparse_draws)]
    rec.check(all(st.realizes(h) for h in out), "sparse draw is not realizable")
    return op, log_z, log_map, model


def run_sparse_jet(rec: Recorder, wl, idx: int, jet) -> None:
    st = wl.sparse_trellis
    name = f"test_{idx}"

    def bind():
        return GinkgoModel(st.ordering.order_payloads(jet.payloads), lam=LAM)

    cache = wl.reference.setdefault(name, {})
    _, _, _, model = _run_sparse_eval(rec, wl, name, st, bind, (wl.seed, idx), cache)
    for _ in range(wl.greedy_repeats):
        rec.begin("greedy", "sparse", name, n=st.ground.n)
        g_score, g_tree = rec.call("baselines.greedy_cluster", greedy_cluster, model)
        g_tree.validate(n=st.ground.n, require_root=st.root)
        rec.check(_isclose(g_score, log_hierarchy_potential(g_tree, model)), "greedy score != tree potential")


def run_pass(wl, rec: Recorder, deadline: float | None = None) -> None:
    """Every op of the workload once, each followed by its checks.

    Past ``deadline`` (a perf_counter value) the pass stops at the next
    instance boundary.
    """

    def late():
        return deadline is not None and time.perf_counter() > deadline

    with rec.patched():
        for idx, inst in enumerate(wl.dense):
            if late():
                return
            rec.settle()
            _guard(rec, run_dense, rec, wl, idx, inst, wl.primary == "dense")
        for idx, jet in enumerate(wl.sparse_jets):
            if late():
                return
            rec.settle()
            _guard(rec, run_sparse_jet, rec, wl, idx, jet)
        if late():
            return
        # One count per dense instance: the count is model-free, but a sample
        # per instance keeps the n = 14 count as steady as the fills.
        rec.settle()
        for inst in wl.dense:
            n = inst.n
            for _ in range(wl.count_repeats):
                rec.begin("count", "dense", f"n{n}", n=n)
                counted = _guard(rec, rec.call, "trellis.count_trees", _count, n)
                rec.check(counted == num_hierarchies(n), f"count_trees({n}) = {counted} != (2n-3)!!")
        if wl.sparse_trellis is not None:
            st = wl.sparse_trellis
            if "count" not in wl.reference:
                wl.reference["count"] = sparse_reference(st, ConstantModel(st.ground.n))[2]
            for _ in range(wl.count_repeats):
                fresh = SparseTrellis(st.ground, {v: list(p) for v, p in st.vertices.items()}, st.ordering)
                rec.begin("count", "sparse", "seed_trellis", n=st.ground.n)
                counted = _guard(rec, rec.call, "sparse.count_trees", fresh.count_trees)
                rec.check(counted == wl.reference["count"], f"sparse count {counted} != reference")


def _guard(rec: Recorder, fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # a failing op is counted, never fatal to the run
        rec.fail(f"{type(exc).__name__}: {exc}")
        return None
