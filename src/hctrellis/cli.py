"""Command-line front end tying the engine together.

Commands: generate, z, map, marginal, sample, baselines, sparse, bench,
count.  Structured artifacts are JSON, tables are CSV, and every run
appends one line to records.jsonl in the output directory.  ``--config
FILE``, before the command, names a JSON object of option values keyed
by their argparse names (``lam`` for ``--lambda``); they are read as the
command's flags ahead of the explicit ones, which win.  Exit codes:
0 success, 2 invalid input, 1 internal error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import statistics
import sys
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

from . import io as hio
from .baselines import beam_search_cluster, greedy_cluster
from .core import DENSE_MAX_LEAVES, GroundSet, mask_of, num_hierarchies, split_term_count
from .datasets import random_affinity_weights, random_similarity_weights
from .jetgen import DEFAULT_LAM, DEFAULT_TCUT, JetConfig, generate_jet
from .models import (
    ConstantModel,
    FourVector,
    GinkgoModel,
    ModelParams,
    log_hierarchy_potential,
)
from .sparse import (
    LeafOrdering,
    SparseTrellis,
    build_beam_search_trellis,
    build_simulator_trellis,
)
from .trellis import DenseTrellis

SAMPLE_FILE_CAP = 2000  # above this, per-draw tree files collapse to distinct trees


def _model_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", default="constant", help="dasgupta|correlation|ginkgo|constant")
    parser.add_argument("--beta", type=float, default=1.0)
    parser.add_argument("--lambda", dest="lam", type=float, default=DEFAULT_LAM)


def _jet_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--root", default="100,0,0,80")
    parser.add_argument("--lambda", dest="lam", type=float, default=DEFAULT_LAM)
    parser.add_argument("--tcut", type=float, default=DEFAULT_TCUT)


def _beam_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--beam-width", type=int)
    parser.add_argument("--lookahead", type=int, default=1)


def _record(args, out: Path, **fields) -> None:
    record = {"command": args.command, "seed": args.seed, **fields}
    hio.append_record(out / "records.jsonl", record)


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _build_model(args, ds: hio.Dataset):
    return hio.build_model(ds, args.model, ModelParams(beta=args.beta, lam=args.lam))


def _provenance(args, path=None) -> dict:
    """The record fields naming the model and, given its path, the input file."""
    digest = {} if path is None else {"dataset_sha256": hio.file_sha256(path)}
    return {"model": args.model, "beta": args.beta, "lam": args.lam, **digest}


def _load_instance(args):
    """The ``--data`` dataset, its bound model and the record's provenance."""
    ds = hio.load_dataset(args.data)
    return ds, _build_model(args, ds), _provenance(args, args.data)


# ---------------------------------------------------------------------------
# inference commands


def _fill(args):
    """Fill the ``--data`` instance's dense trellis: leaf count, model, MAP
    tree, and the record fields with log Z and the MAP value."""
    ds, model, fields = _load_instance(args)
    start = time.perf_counter()
    trellis = DenseTrellis(ds.ground(), model)
    log_z = trellis.log_partition()
    log_map, tree = trellis.map_hierarchy()  # same pass fills both memos
    fields.update(log_z=log_z, log_map=log_map, wall_time=time.perf_counter() - start,
                  op_count=trellis.operation_count())
    return ds.n, model, tree, fields


def cmd_z(args, out: Path) -> int:
    n, _, _, fields = _fill(args)
    _record(args, out, **fields)
    print(f"n={n} log_z={fields['log_z']:.12g} ops={fields['op_count']} "
          f"wall={fields['wall_time']:.3f}s")
    return 0


def cmd_map(args, out: Path) -> int:
    n, model, tree, fields = _fill(args)
    tree_path = out / args.tree_name
    hio.save_tree(tree, tree_path, model)
    _record(args, out, **fields, tree_file=tree_path.name)
    value = fields["log_map"]
    print(f"n={n} log_map={value:.12g} log_z={fields['log_z']:.12g} tree={tree_path}")
    if value == float("-inf"):  # then the tree is an arbitrary one
        print("degenerate instance: every hierarchy has zero potential", file=sys.stderr)
    elif args.model == "dasgupta":
        print(f"cut_cost={-value / args.beta:.12g}")
    return 0


def cmd_marginal(args, out: Path) -> int:
    ds, model, fields = _load_instance(args)
    trellis = DenseTrellis(ds.ground(), model)
    if (args.cluster is None) == (args.fragment is None):
        raise ValueError("pass exactly one of --cluster or --fragment")
    if args.cluster is not None:
        bits = mask_of(int(tok) for tok in args.cluster.split(","))
        value = trellis.marginal_cluster(bits)
        target = {"cluster": args.cluster}
    else:
        fragment = hio.load_tree(args.fragment)
        value = trellis.marginal_subhierarchy(fragment)
        target = {"fragment": Path(args.fragment).name}
    _record(args, out, **fields, log_z=trellis.log_partition(), log_marginal=value, **target)
    print(f"log_marginal={value:.12g} (probability {math.exp(value):.6g})")
    return 0


def cmd_sample(args, out: Path) -> int:
    if args.count < 1:
        raise ValueError("--count must be positive")
    ds, model, fields = _load_instance(args)
    trellis = DenseTrellis(ds.ground(), model)
    start = time.perf_counter()
    samples = trellis.sample_many(args.count, args.seed)
    wall = time.perf_counter() - start
    counts = Counter(samples)  # equal trees hash and compare alike
    ranked = counts.most_common()
    sample_dir = out / "samples"
    sample_dir.mkdir(exist_ok=True)
    if args.count <= SAMPLE_FILE_CAP:
        for k, h in enumerate(samples):
            hio.save_tree(h, sample_dir / f"sample_{k:05d}.json", model)
    else:
        for rank, (h, _) in enumerate(ranked):
            hio.save_tree(h, sample_dir / f"distinct_{rank:04d}.json", model)
    csv_path = out / "sample_frequencies.csv"
    rows = [
        [rank, cnt, cnt / args.count, log_hierarchy_potential(h, model)]
        for rank, (h, cnt) in enumerate(ranked)
    ]
    _write_csv(csv_path, ["rank", "count", "frequency", "log_phi"], rows)
    _record(
        args, out, **fields, log_z=trellis.log_partition(), draws=args.count,
        distinct=len(counts), wall_time=wall,
    )
    print(f"{args.count} draws, {len(counts)} distinct trees -> {csv_path}")
    return 0


# ---------------------------------------------------------------------------
# generation and corpus commands


def _jet_config(args, leaf_filter) -> JetConfig:
    root = [float(tok) for tok in args.root.split(",")]
    if len(root) != 4:
        raise ValueError("--root needs E,px,py,pz")
    return JetConfig(
        root=FourVector(*root), lam=args.lam, t_cut=args.tcut, seed=args.seed,
        leaf_count_filter=leaf_filter,
    )


def cmd_generate(args, out: Path) -> int:
    if args.count < 1:
        raise ValueError("--count must be positive")
    if (args.min_leaves is None) != (args.max_leaves is None):
        raise ValueError("pass both --min-leaves and --max-leaves or neither")
    leaf_filter = None if args.min_leaves is None else (args.min_leaves, args.max_leaves)
    config = _jet_config(args, leaf_filter)
    start = time.perf_counter()
    files = []
    for i in range(args.count):
        jet = generate_jet(replace(config, seed=(args.seed, i)))
        name = f"jet_{i:05d}.json"
        hio.save_jet(jet, out / name)
        files.append({"file": name, "leaves": jet.num_leaves()})
    manifest = {
        "count": args.count,
        "seed": args.seed,
        "lam": args.lam,
        "t_cut": args.tcut,
        "root": [config.root.e, config.root.px, config.root.py, config.root.pz],
        "leaf_count_filter": list(leaf_filter) if leaf_filter else None,
        "jets": files,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True))
    wall = time.perf_counter() - start
    _record(args, out, count=args.count, lam=args.lam, tcut=args.tcut, wall_time=wall)
    print(f"wrote {args.count} jets + manifest to {out}")
    return 0


def _load_corpus(path: str):
    manifest = json.loads((Path(path) / "manifest.json").read_text())
    return [hio.load_jet(Path(path) / entry["file"]) for entry in manifest["jets"]]


def cmd_baselines(args, out: Path) -> int:
    if (args.corpus is None) == (args.data is None):
        raise ValueError("pass exactly one of --corpus or --data")
    if args.corpus is not None:
        models = [
            _build_model(args, hio.fourvector_dataset(jet.payloads))
            for jet in _load_corpus(args.corpus)
        ]
        fields = _provenance(args, Path(args.corpus) / "manifest.json")
    else:
        _, model, fields = _load_instance(args)
        models = [model]
    for idx, model in enumerate(models):
        if model.n > DENSE_MAX_LEAVES:
            raise ValueError(
                f"instance {idx} has {model.n} leaves; the exact MAP is capped at "
                f"{DENSE_MAX_LEAVES} leaves"
            )
    rows = []
    start = time.perf_counter()
    for idx, model in enumerate(models):
        g_score, _ = greedy_cluster(model)
        b_score, _ = beam_search_cluster(model, args.beam_width, args.lookahead)
        m_score, _ = DenseTrellis(GroundSet(model.n), model).map_hierarchy()
        rows.append([idx, model.n, g_score, b_score, m_score])
    wall = time.perf_counter() - start
    csv_path = out / "baselines.csv"
    _write_csv(
        csv_path, ["instance", "n", "log_phi_greedy", "log_phi_beam", "log_phi_trellis"], rows
    )
    gaps = {
        "trellis_minus_beam": [r[4] - r[3] for r in rows],
        "trellis_minus_greedy": [r[4] - r[2] for r in rows],
        "beam_minus_greedy": [r[3] - r[2] for r in rows],
    }
    summary = {
        name: {
            "mean": statistics.fmean(vals),
            "std": statistics.pstdev(vals) if len(vals) > 1 else 0.0,
        }
        for name, vals in gaps.items()
    }
    _record(
        args, out, **fields, beam_width=args.beam_width, lookahead=args.lookahead,
        instances=len(rows), wall_time=wall, summary=summary,
    )
    for name, stats in summary.items():
        print(f"{name}: {stats['mean']:.4f} +- {stats['std']:.4f}")
    print(f"per-instance table -> {csv_path}")
    return 0


def cmd_sparse(args, out: Path) -> int:
    seed = args.seed if args.ordering_seed is None else args.ordering_seed
    ordering = LeafOrdering(args.ordering, seed)
    if args.load_trellis:
        trellis = SparseTrellis.load(args.load_trellis)
        record = {"trellis_file": Path(args.load_trellis).name}
    else:
        record = {"builder": args.builder, "n_leaves": args.n_leaves,
                  "num_seeds": args.num_seeds, "ordering": args.ordering, "ordering_seed": seed}
        if args.builder == "bs":
            record.update(beam_width=args.beam_width, lookahead=args.lookahead)
        base = _jet_config(args, (args.n_leaves, args.n_leaves))
        if args.builder == "sim":
            trellis = build_simulator_trellis(base, args.num_seeds, ordering)
        elif args.builder == "bs":
            payload_sets = [
                generate_jet(replace(base, seed=(args.seed, i))).payloads
                for i in range(args.num_seeds)
            ]
            trellis = build_beam_search_trellis(
                payload_sets, lambda p: GinkgoModel(p, lam=args.lam), ordering,
                args.beam_width, args.lookahead,
            )
        else:
            raise ValueError("--builder must be sim or bs")
    if args.save_trellis:
        trellis.save(args.save_trellis)
    sparsity = trellis.sparsity_index()
    record.update(vertices=trellis.num_vertices(), edges=trellis.num_edges(),
                  sparsity=float(sparsity))
    print(
        f"trellis: {record['vertices']} vertices, {record['edges']} edges, "
        f"sparsity={float(sparsity):.3g} ({sparsity.numerator}/{sparsity.denominator})"
    )
    if not args.test_corpus:
        _record(args, out, **record)
        return 0
    jets = _load_corpus(args.test_corpus)
    # past the dense cap the full-MAP column stays blank
    full = trellis.ground.n <= DENSE_MAX_LEAVES
    rows = []
    for idx, jet in enumerate(jets):
        if jet.num_leaves() != trellis.ground.n:
            raise ValueError("test corpus leaf count does not match the trellis")
        # the standard ordering binds the payloads as they are
        payloads = (trellis.ordering or LeafOrdering()).order_payloads(jet.payloads)
        model = GinkgoModel(payloads, lam=args.lam)
        sparse_map, _ = trellis.evaluate(model).map_hierarchy()
        greedy_score, _ = greedy_cluster(model)
        full_map = DenseTrellis(GroundSet(model.n), model).map_hierarchy()[0] if full else None
        rows.append([idx, sparse_map, greedy_score, full_map])
    csv_path = out / "sparse_eval.csv"
    _write_csv(
        csv_path, ["instance", "log_phi_sparse_map", "log_phi_greedy", "log_phi_full_map"], rows
    )
    mean_rel = statistics.fmean(r[1] - r[2] for r in rows)
    mean_full_rel = statistics.fmean(r[3] - r[2] for r in rows) if full else None
    _record(
        args, out, **record, instances=len(rows),
        mean_sparse_map_minus_greedy=mean_rel, mean_full_map_minus_greedy=mean_full_rel,
    )
    print(f"mean(sparse MAP - greedy) = {mean_rel:.4f}")
    print(f"mean(full   MAP - greedy) = {f'{mean_full_rel:.4f}' if full else 'n/a'}")
    print(f"per-instance table -> {csv_path}")
    return 0


def cmd_bench(args, out: Path) -> int:
    if not 2 <= args.n_min <= args.n_max <= DENSE_MAX_LEAVES:
        raise ValueError(f"need 2 <= n-min <= n-max <= {DENSE_MAX_LEAVES}")
    rows = []
    prev_ops = split_term_count(args.n_min - 1)  # 0 at n-min 2: no ratio
    for n in range(args.n_min, args.n_max + 1):
        if args.model == "ginkgo":
            jet = generate_jet(
                JetConfig(seed=(args.seed, n), leaf_count_filter=(n, n), lam=args.lam)
            )
            ds = hio.fourvector_dataset(jet.payloads)
        elif args.model == "correlation":  # signed, so the negative term is exercised
            ds = hio.pairwise_dataset(random_affinity_weights(n, args.seed))
        else:
            ds = hio.pairwise_dataset(random_similarity_weights(n, args.seed))
        model = _build_model(args, ds)
        trellis = DenseTrellis(GroundSet(n), model)
        # fill, MAP, then the outside pass, timed even where marginal
        # queries refuse to read it (|log Z| past float precision)
        walls = []
        for phase in (trellis.log_partition, trellis.map_hierarchy, trellis._log_marginals):
            start = time.perf_counter()
            phase()
            walls.append(time.perf_counter() - start)
        ops = trellis.operation_count()
        expected = split_term_count(n)
        if ops != expected:
            raise RuntimeError(f"op counter {ops} != closed form {expected} at n={n}")
        ratio = ops / prev_ops if prev_ops else float("nan")
        prev_ops = ops
        rows.append([n, ops, expected, ratio, *walls, walls[0] / ops * 1e9])
    csv_path = out / "bench.csv"
    _write_csv(csv_path, ["n", "ops", "ops_closed_form", "ops_ratio", "wall_fill_s",
                          "wall_map_s", "wall_marginals_s", "ns_per_term"], rows)
    _record(args, out, **_provenance(args), n_min=args.n_min, n_max=args.n_max)
    print(f"bench table -> {csv_path}")
    if args.n_max >= 8:
        final_ratio = rows[-1][3]
        if abs(final_ratio - 3.0) > 0.15:
            raise RuntimeError(f"op growth ratio {final_ratio:.3f} is not approaching 3")
        print(f"ops growth ratio at n={args.n_max}: {final_ratio:.4f} (target 3)")
    return 0


def cmd_count(args, out: Path) -> int:
    if (args.n is None) == (args.data is None):
        raise ValueError("pass exactly one of --n or --data")
    n = args.n if args.n is not None else hio.load_dataset(args.data).n
    closed = num_hierarchies(n)
    trellis = DenseTrellis(GroundSet(n), ConstantModel(n))
    counted = trellis.count_trees()
    _record(args, out, n=n, hierarchies=str(counted))
    print(f"n={n}: {counted} hierarchies (closed form {closed})")
    return 0 if counted == closed else 1


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    # no abbreviations at the top level: --conf would parse, unread by main
    parser = argparse.ArgumentParser(
        prog="hctrellis",
        description="Exact inference over binary hierarchical clusterings.",
        allow_abbrev=False,
    )
    parser.add_argument("--config", help="JSON object of option values for the command")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=".", help="output directory")
        return p

    for name, func, help_text in [
        ("z", cmd_z, "partition function of a dataset"),
        ("map", cmd_map, "best hierarchy of a dataset"),
        ("marginal", cmd_marginal, "posterior probability of a cluster or fragment"),
        ("sample", cmd_sample, "exact posterior samples"),
    ]:
        p = add(name, func, help_text)
        p.add_argument("--data", required=True)
        _model_arguments(p)
    sub.choices["map"].add_argument("--tree-name", default="map_tree.json")
    sub.choices["marginal"].add_argument("--cluster", help="comma-separated leaf indices")
    sub.choices["marginal"].add_argument("--fragment", help="tree file rooted at the cluster")
    sub.choices["sample"].add_argument("--count", type=int, default=1000)

    p = add("generate", cmd_generate, "write a corpus of toy jets")
    p.add_argument("--count", type=int, default=1)
    _jet_arguments(p)
    p.add_argument("--min-leaves", type=int)
    p.add_argument("--max-leaves", type=int)

    p = add("baselines", cmd_baselines, "greedy vs beam vs exact MAP")
    p.add_argument("--corpus", help="directory written by generate")
    p.add_argument("--data", help="single dataset file")
    _beam_arguments(p)
    _model_arguments(p)

    p = add("sparse", cmd_sparse, "build / evaluate a sparse trellis")
    p.add_argument("--builder", default="sim", help="sim|bs")
    p.add_argument("--n-leaves", type=int, default=9)
    p.add_argument("--num-seeds", type=int, default=10)
    p.add_argument("--ordering", default="norm_ascending")
    p.add_argument("--ordering-seed", type=int)
    _jet_arguments(p)
    _beam_arguments(p)
    p.add_argument("--save-trellis")
    p.add_argument("--load-trellis")
    p.add_argument("--test-corpus")

    p = add("bench", cmd_bench, "operation counts and wall times vs n")
    p.add_argument("--n-min", type=int, default=2)
    p.add_argument("--n-max", type=int, default=10)
    _model_arguments(p)

    p = add("count", cmd_count, "number of hierarchies over n leaves")
    p.add_argument("--n", type=int)
    p.add_argument("--data")
    return parser


def _with_config(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """``argv`` with the ``--config`` file's values as ``--flag=value`` tokens of the
    chosen command ahead of its explicit flags, so argparse checks both alike
    and explicit flags win; a key that only another command defines is skipped."""
    commands = next(a.choices for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction))
    path, k = None, 0
    while k < len(argv) and argv[k] not in commands:  # the top level reads only --config
        if argv[k] == "--config" and k + 1 < len(argv):
            path, k = argv[k + 1], k + 1
        elif argv[k].startswith("--config="):
            path = argv[k].partition("=")[2]
        k += 1
    if path is None or k == len(argv):
        return argv
    try:
        config = hio._json_object(json.loads(Path(path).read_text()), "config")
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"bad config file: {exc}") from None
    flags = {
        name: {a.dest: a.option_strings[0] for a in p._actions
               if a.option_strings and a.dest != "help"}
        for name, p in commands.items()
    }
    known, chosen = set().union(*flags.values()), flags[argv[k]]
    tokens = []
    for key, value in config.items():
        if key not in known:
            raise ValueError(f"config key {key!r} is not an option of any command")
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise ValueError(f"config value of {key!r} must be a string or a number, "
                             f"not {value!r}")
        if key in chosen:
            tokens.append(f"{chosen[key]}={value}")
    return [*argv[:k + 1], *tokens, *argv[k + 1:]]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_with_config(parser, argv))
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return args.func(args, out)
    except (ValueError, FileNotFoundError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal failure
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
