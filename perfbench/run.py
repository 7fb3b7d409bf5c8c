"""hctrellis benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload dense_n14 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout, never from an installed copy.  The untraced run
(``--trace 0``) prints every end-to-end metric; the traced run
(``--trace 1``) prints every per-layer metric and writes its spans to
``perfbench/out/``.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code
is 0 only when every check passed.
"""

from __future__ import annotations

import time

START = time.perf_counter()  # setup_s counts the package import from here on

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
SETUP_KERNEL_RUNS = 3  # calibration kernel runs before each build and after the last


def _import_package() -> float:
    """Import hctrellis from this checkout; return seconds since START."""
    src = ROOT / "src"
    if not (src / "hctrellis" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {src / 'hctrellis'}; run from a source checkout")
    sys.path.insert(0, str(src))
    import hctrellis

    if Path(hctrellis.__file__).resolve().parent != (src / "hctrellis").resolve():
        raise SystemExit(f"error: imported hctrellis from {hctrellis.__file__}, not {src}")
    return time.perf_counter() - START


def _git_revision() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def provenance(wl, passes: int, seconds: float) -> dict:
    import numpy
    import scipy
    from hctrellis import split_term_count

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_revision": _git_revision(),
        "workload": wl.name,
        "seed": wl.seed,
        "params": wl.describe(),
        "split_terms_per_pass": sum(split_term_count(inst.n) for inst in wl.dense),
        "sparse_edges": wl.sparse_trellis.num_edges() if wl.sparse_trellis is not None else None,
        "sparse_vertices": wl.sparse_trellis.num_vertices() if wl.sparse_trellis is not None else None,
        "passes": passes,
        "measured_s": seconds,
    }


def _pass(wl, traced: bool, deadline: float | None = None):
    from pipeline import Recorder, run_pass

    rec = Recorder(traced=traced)
    run_pass(wl, rec, deadline)
    return rec


def setup(workload: str, seed: int, import_s: float, smoke: bool = False):
    """Build the inputs SETUP_REPEATS times; return (workload, setup_s, raw setup_s, detail).

    setup_s is the package import plus the median build at reference
    speed.  A build, less the calibration kernel runs inside it, is scaled
    by the speed sampled during and around it, as an op is; the kernel also
    runs SETUP_KERNEL_RUNS times before and after each build, so a short
    build has samples too.  The import stays raw: it reads files, and the
    kernel's speed does not predict its time (README.md, Observed spread).
    """
    import metrics
    from pipeline import SpeedSampler
    from workloads import build_workload

    spans = []
    with SpeedSampler() as sampler:
        for _ in range(SETUP_REPEATS):
            for _ in range(SETUP_KERNEL_RUNS):
                sampler.run_kernel()
            t0 = time.perf_counter()
            wl = build_workload(workload, seed, smoke)
            spans.append((t0, time.perf_counter()))
        for _ in range(SETUP_KERNEL_RUNS):
            sampler.run_kernel()
    samples = sampler.samples()
    times = [t for t, _ in samples]
    builds = [sampler.net(t0, t1) for t0, t1 in spans]
    speeds = [metrics.speed_factor(samples, times, t0, t1) for t0, t1 in spans]
    setup_s = import_s + statistics.median(b / f for b, f in zip(builds, speeds))
    raw = import_s + statistics.median(builds)
    return wl, setup_s, raw, {"import_s": import_s, "setup_runs_s": builds, "setup_speed_factors": speeds}


def run(workload: str, seed: int, seconds: float, trace: bool, import_s: float,
        smoke: bool = False, out_dir=None):
    """One benchmark run: (result, provenance, report details, check failures).

    ``import_s`` is the package import time, the first part of setup_s.
    """
    import metrics
    from pipeline import Recorder, SpeedSampler
    from workloads import build_workload

    if not trace:
        wl, setup_s, raw_setup_s, extra = setup(workload, seed, import_s, smoke)
        recs = []
        with SpeedSampler() as sampler:
            sampler.run_kernel()  # so even a pass shorter than the timer interval has a sample
            t_start = time.perf_counter()
            deadline = t_start + seconds
            while not recs or time.perf_counter() < deadline:
                # The first pass is whole, so every op has a sample; later
                # passes stop at the first instance boundary past the deadline.
                recs.append(_pass(wl, traced=False, deadline=deadline if recs else None))
            measured = time.perf_counter() - t_start
        records = [(op, start, wall) for rec in recs
                   for op, (start, wall) in zip(rec.ops, rec.op_times(sampler))]
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values, detail = metrics.end_to_end(records, wl.primary, setup_s, raw_setup_s, peak_mb,
                                            sampler.samples())
        extra["latency_detail"] = detail
    else:
        setup_rec = Recorder(traced=True)
        with setup_rec.patched():
            wl = build_workload(workload, seed, smoke)
        recs, layer_passes = [], []
        t_start = time.perf_counter()
        while not layer_passes or time.perf_counter() - t_start < seconds:
            untraced = _pass(wl, traced=False)
            traced = _pass(wl, traced=True)
            recs += [untraced, traced]
            layer_passes.append(metrics.per_layer_pass(traced, untraced, setup_rec))
        measured = time.perf_counter() - t_start
        values = metrics.per_layer(layer_passes)
        extra = {"trace_file": str(_write_spans(out_dir or HERE / "out", wl, setup_rec, recs[1::2]))}
    attempted = sum(r.attempted for r in recs)
    failed = sum(r.failed for r in recs)
    errors = [e for r in recs for e in r.errors]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": values}
    return result, provenance(wl, len(recs), measured), extra, errors


def _write_spans(out_dir: Path, wl, setup_rec, traced_recs) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"trace-{wl.name}-seed{wl.seed}.jsonl"
    with open(path, "w") as fh:
        for pass_no, rec in [(-1, setup_rec)] + list(enumerate(traced_recs)):
            for i in range(len(rec.t0)):
                op = rec.ops[rec.op[i]] if rec.op[i] >= 0 else {"kind": "setup", "engine": None}
                fh.write(json.dumps({
                    "pass": pass_no, "span": i, "parent": rec.parent[i], "op": rec.op[i],
                    "op_kind": op["kind"], "engine": op["engine"], "name": rec.names[rec.name[i]],
                    "start_us": round((rec.t0[i] - START) * 1e6, 3),
                    "dur_us": round((rec.t1[i] - rec.t0[i]) * 1e6, 3),
                    "terms": rec.terms[i], "neginf": rec.neginf[i],
                }) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_s = _import_package()
    result, prov, extra, errors = run(args.workload, args.seed, args.seconds, bool(args.trace), import_s)
    for err in errors[:20]:
        print(f"FAILED {err}", file=sys.stderr)
    print("provenance " + json.dumps(prov))
    print("detail " + json.dumps(extra))
    for name, m in result["metrics"].items():
        print(f"{args.workload:>10}  {name:<28} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
