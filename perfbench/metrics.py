"""Turn recorded ops and spans into the named metrics.

End-to-end metrics come from untraced passes.  Their times are scaled to a
reference machine speed.  Other tenants of a shared host change its speed
by up to 2x for seconds and by a third for minutes, so a run times a fixed
calibration kernel every CALIBRATION_INTERVAL_S, inside ops too (see
pipeline.SpeedSampler), and divides each op's time, less the kernel runs
inside it, by its local speed factor

    median kernel time within CALIBRATION_WINDOW_S of the op
    / REFERENCE_CALIBRATION_S.

setup_s is scaled in ``run.setup`` the same way, build by build.
Per-layer metrics come from traced passes, one value per pass, and the run
reports their median; they are raw wall-clock values.
"""

from __future__ import annotations

import bisect
import math
import statistics
from collections import defaultdict

# name -> (unit, better); the order is the print order.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "exact_ms": ("ms", "lower"),
    "ns_per_term": ("ns", "lower"),
    "marginal_ms": ("ms", "lower"),
    "draws_per_s": ("1/s", "higher"),
    "greedy_ms": ("ms", "lower"),
    "beam_ms": ("ms", "lower"),
    "count_ms": ("ms", "lower"),
}

PER_LAYER = {
    "core.enum_calls": "count",
    "core.enum_ns_per_term": "ns",
    "core.self_ms": "ms",
    "models.build_ms": "ms",
    "models.psi_calls": "count",
    "models.psi_ns_per_term": "ns",
    "models.neginf_frac": "ratio",
    "models.self_ms": "ms",
    "trellis.split_terms": "count",
    "trellis.fill_ms": "ms",
    "trellis.fill_self_ms": "ms",
    "trellis.backtrack_ms": "ms",
    "trellis.table_bytes": "B",
    "trellis.count_ms": "ms",
    "trellis.marginal_cluster_ms": "ms",
    "trellis.marginal_fragment_ms": "ms",
    "trellis.marginal_psi_terms": "count",
    "trellis.sample_cold_us": "us",
    "trellis.sample_warm_us": "us",
    "trellis.sample_psi_terms": "count",
    "trellis.self_ms": "ms",
    "sparse.build_ms": "ms",
    "sparse.vertices": "count",
    "sparse.edges": "count",
    "sparse.fill_ms": "ms",
    "sparse.psi_share": "ratio",
    "sparse.backtrack_ms": "ms",
    "sparse.draw_us": "us",
    "sparse.self_ms": "ms",
    "baselines.greedy_ms": "ms",
    "baselines.beam_ms": "ms",
    "baselines.beam_psi_calls": "count",
    "baselines.beam_hit_frac": "ratio",
    "baselines.self_ms": "ms",
    "jetgen.generate_ms": "ms",
    "trace.op_wall_ms": "ms",
    "trace.untraced_op_wall_ms": "ms",
    "trace_overhead_frac": "ratio",
}

# Median calibration_kernel time on the machine the baseline was measured
# on (2-vCPU Intel Xeon, CPython 3.11.7, numpy 2.4.6).  A constant of the
# benchmark: changing it rescales every end-to-end time.
REFERENCE_CALIBRATION_S = 0.022
CALIBRATION_WINDOW_S = 0.5

LAYERS = ("core", "models", "trellis", "sparse", "baselines")
PSI = ("models.log_psi", "models.log_psi_pairs")


def _ops(records, kind, engine=None):
    return [(op, wall) for op, wall in records if op["kind"] == kind
            and (engine is None or op["engine"] == engine)]


def _by_key(pairs) -> dict:
    """Op key -> (op, median wall over passes).

    An op's key names the same work in every pass and repeat (kind,
    instance, query), so the median is over repeats of identical work.
    """
    walls = defaultdict(list)
    first = {}
    for op, wall in pairs:
        key = (op["kind"], op["engine"], op["instance"], op.get("query"))
        walls[key].append(wall)
        first.setdefault(key, op)
    return {key: (first[key], statistics.median(w)) for key, w in walls.items()}


def _geomean_ms(pairs) -> float:
    medians = [wall for _, wall in _by_key(pairs).values()]
    return math.exp(statistics.fmean(math.log(w) for w in medians)) * 1e3


def latency_detail(pairs) -> dict:
    """Sample count, median and the highest percentile with >= 10 samples beyond it."""
    walls = sorted(w * 1e3 for _, w in pairs)
    out = {"samples": len(walls), "distinct_ops": len(_by_key(pairs)),
           "median_ms": statistics.median(walls)}
    if len(walls) >= 20:
        pct = math.floor(100 * (1 - 10 / len(walls)))
        out[f"p{pct}_ms"] = walls[min(len(walls) - 1, math.ceil(pct / 100 * len(walls)) - 1)]
    return out


def speed_factor(calibration, times, t0: float, t1: float) -> float:
    """Median kernel time within CALIBRATION_WINDOW_S of [t0, t1], over the
    reference; ``times`` are the kernel runs' midpoints, in order."""
    lo = bisect.bisect_left(times, t0 - CALIBRATION_WINDOW_S)
    hi = bisect.bisect_right(times, t1 + CALIBRATION_WINDOW_S)
    if lo == hi:  # no kernel run nearby: take the nearest one
        lo = min(max(0, lo - 1), len(times) - 1)
        hi = lo + 1
    return statistics.median(d for _, d in calibration[lo:hi]) / REFERENCE_CALIBRATION_S


def _scale(records, calibration):
    """Divide each op's wall by the speed factor around it."""
    times = [t for t, _ in calibration]
    return [(op, wall / speed_factor(calibration, times, start, start + wall))
            for op, start, wall in records]


def end_to_end(records, primary: str, setup_s: float, raw_setup_s: float, peak_rss_mb: float,
               calibration):
    """records: (op dict, start, wall seconds) over every untraced pass;
    calibration: sorted (midpoint, seconds) kernel runs of the same passes;
    setup_s: already at reference speed, raw_setup_s: as measured.

    A latency is the geometric mean over distinct ops of each op's median
    repeat; a rate is work over the summed per-op medians.  The values are
    at reference speed; the detail keeps the raw ones.
    """
    speed = statistics.median(d for _, d in calibration) / REFERENCE_CALIBRATION_S
    scaled, detail = _values(_scale(records, calibration), primary, setup_s)
    raw, _ = _values([(op, wall) for op, _, wall in records], primary, raw_setup_s)
    metrics = {name: {"value": scaled.get(name, peak_rss_mb), "unit": END_TO_END[name][0]}
               for name in END_TO_END}
    detail.update(raw=raw, speed_factor=speed, calibration_runs=len(calibration))
    return metrics, detail


def _values(records, primary: str, setup_s: float):
    exact = _ops(records, "exact", primary)
    draws = _ops(records, "draws", primary)
    marginal = _ops(records, "marginal_cluster") + _ops(records, "marginal_fragment")
    groups = {
        "exact_ms": exact,
        "marginal_ms": marginal,
        "greedy_ms": _ops(records, "greedy", primary),
        "beam_ms": _ops(records, "beam"),
        "count_ms": _ops(records, "count", primary),
    }
    values = {name: _geomean_ms(pairs) for name, pairs in groups.items()}
    values["setup_s"] = setup_s
    exact_k = _by_key(exact).values()
    values["ns_per_term"] = sum(w for _, w in exact_k) / sum(op["terms"] for op, _ in exact_k) * 1e9
    draws_k = _by_key(draws).values()
    values["draws_per_s"] = sum(op["draws"] for op, _ in draws_k) / sum(w for _, w in draws_k)
    return values, {name: latency_detail(pairs) for name, pairs in groups.items()}


def _spans(rec):
    """Per span: (name, op dict or None, duration, self time, terms, neginf)."""
    n = len(rec.t0)
    dur = [rec.t1[i] - rec.t0[i] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        if rec.parent[i] >= 0:
            child[rec.parent[i]] += dur[i]
    out = []
    for i in range(n):
        op = rec.ops[rec.op[i]] if rec.op[i] >= 0 else None
        out.append((rec.names[rec.name[i]], op, dur[i], dur[i] - child[i],
                    rec.terms[i], rec.neginf[i]))
    return out


def per_layer_pass(traced, untraced, setup_rec) -> dict:
    """Per-layer values of one traced pass; ``untraced`` is the same pass untraced."""
    spans = _spans(traced)
    setup = _spans(setup_rec)
    m = {}

    def sel(name, kind=None, engine=None):
        return [s for s in spans if s[0] == name
                and (kind is None or s[1]["kind"] == kind)
                and (engine is None or s[1]["engine"] == engine)]

    def total_ms(items, idx=2):
        return sum(s[idx] for s in items) * 1e3

    def median_ms(items):
        return statistics.median(s[2] for s in items) * 1e3

    def per_op(items, value):
        by_op = defaultdict(float)
        for s in items:
            by_op[id(s[1])] += value(s)
        return by_op

    for layer in LAYERS:
        m[f"{layer}.self_ms"] = total_ms([s for s in spans if s[0].startswith(layer + ".")], 3)

    enum = sel("core.pivot_splits_array", "exact", "dense")
    m["core.enum_calls"] = len(enum)
    m["core.enum_ns_per_term"] = total_ms(enum) * 1e6 / sum(s[4] for s in enum)

    psi = [s for s in spans if s[0] in PSI]
    psi_terms = sum(s[4] for s in psi)
    m["models.build_ms"] = total_ms(sel("models.build"))
    m["models.psi_calls"] = len(psi)
    m["models.psi_ns_per_term"] = total_ms(psi) * 1e6 / psi_terms
    m["models.neginf_frac"] = sum(s[5] for s in psi) / psi_terms

    dense_exact = [op for op in traced.ops if op["kind"] == "exact" and op["engine"] == "dense"]
    fills = sel("trellis.fill", "exact", "dense")
    m["trellis.split_terms"] = sum(op["terms"] for op in dense_exact)
    m["trellis.fill_ms"] = total_ms(fills)
    # Fill self time: the fill minus its psi and enumeration child spans.
    m["trellis.fill_self_ms"] = total_ms(fills, 3)
    m["trellis.backtrack_ms"] = total_ms(sel("trellis.backtrack"))
    # Computed, not measured: log Z, log MAP (float64) and backpointer (int64) tables.
    m["trellis.table_bytes"] = max(24 << op["n"] for op in dense_exact)
    m["trellis.count_ms"] = median_ms(sel("trellis.count_trees"))
    m["trellis.marginal_cluster_ms"] = median_ms(sel("trellis.marginal_cluster"))
    m["trellis.marginal_fragment_ms"] = median_ms(sel("trellis.marginal_subhierarchy"))
    marginal_psi = per_op([s for s in psi if s[1]["kind"].startswith("marginal")], lambda s: s[4])
    m["trellis.marginal_psi_terms"] = statistics.median(marginal_psi.values())
    for kind, key in (("draws", "cold"), ("draws_warm", "warm")):
        batch = sel("trellis.sample_many", kind)
        n_draws = sum(s[1]["draws"] for s in batch)
        m[f"trellis.sample_{key}_us"] = total_ms(batch) * 1e3 / n_draws
        if key == "cold":
            cold_psi = [s for s in psi if s[1]["kind"] == "draws" and s[1]["engine"] == "dense"]
            m["trellis.sample_psi_terms"] = sum(s[4] for s in cold_psi) / n_draws

    builds = sel("sparse.build_from_trees") or [s for s in setup if s[0] == "sparse.build_simulator_trellis"]
    m["sparse.build_ms"] = statistics.median(s[3] for s in builds) * 1e3
    sparse_exact = [op for op in traced.ops if op["kind"] == "exact" and op["engine"] == "sparse"]
    m["sparse.vertices"] = statistics.median(op["vertices"] for op in sparse_exact)
    m["sparse.edges"] = statistics.median(op["edges"] for op in sparse_exact)
    sfill = sel("sparse.fill", "exact")
    m["sparse.fill_ms"] = total_ms(sfill)
    m["sparse.psi_share"] = 1.0 - total_ms(sfill, 3) / total_ms(sfill)
    m["sparse.backtrack_ms"] = total_ms(sel("sparse.backtrack", "exact"))
    sdraw = sel("sparse.sample")
    m["sparse.draw_us"] = total_ms(sdraw) * 1e3 / len(sdraw)

    m["baselines.greedy_ms"] = median_ms(sel("baselines.greedy_cluster"))
    beams = sel("baselines.beam_search_forest")
    m["baselines.beam_ms"] = median_ms(beams)
    beam_psi = per_op([s for s in psi if s[1]["kind"] == "beam"], lambda s: 1)
    m["baselines.beam_psi_calls"] = statistics.median(beam_psi.values())
    beam_ops = [op for op in traced.ops if op["kind"] == "beam"]
    m["baselines.beam_hit_frac"] = sum(bool(op.get("hit")) for op in beam_ops) / len(beam_ops)

    m["jetgen.generate_ms"] = sum(s[2] for s in setup if s[0] == "jetgen.generate_jet") * 1e3
    traced_wall = sum(traced.op_walls()) * 1e3
    untraced_wall = sum(untraced.op_walls()) * 1e3
    m["trace.op_wall_ms"] = traced_wall
    m["trace.untraced_op_wall_ms"] = untraced_wall
    m["trace_overhead_frac"] = traced_wall / untraced_wall - 1.0
    return m


def per_layer(passes: list[dict]) -> dict:
    return {name: {"value": statistics.median(p[name] for p in passes), "unit": unit}
            for name, unit in PER_LAYER.items()}
