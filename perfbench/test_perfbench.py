"""Tests of the benchmark itself, at smoke size.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run

IMPORT_S = run._import_package()

import metrics  # noqa: E402  (needs the package on sys.path)
import pipeline  # noqa: E402
from hctrellis import ConstantModel, num_hierarchies, split_term_count  # noqa: E402
from workloads import WORKLOADS, build_workload  # noqa: E402


def _smoke(name, trace, tmp_path):
    return run.run(name, 7, 0.0, trace, IMPORT_S, smoke=True, out_dir=tmp_path)


@pytest.mark.parametrize("name", WORKLOADS)
def test_smoke_run_passes_every_check(name, tmp_path):
    result, prov, _, errors = _smoke(name, False, tmp_path)
    assert errors == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == list(metrics.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert prov["seed"] == 7 and prov["params"]


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_smoke_run_reports_every_layer(name, tmp_path):
    result, prov, extra, errors = _smoke(name, True, tmp_path)
    assert errors == [] and result["correct"]
    values = {k: m["value"] for k, m in result["metrics"].items()}
    assert list(values) == list(metrics.PER_LAYER)
    wl = build_workload(name, 7, smoke=True)
    assert values["trellis.split_terms"] == sum(split_term_count(i.n) for i in wl.dense)
    self_sum = sum(values[f"{layer}.self_ms"] for layer in metrics.LAYERS)
    assert self_sum == pytest.approx(values["trace.op_wall_ms"], rel=1e-6)
    spans = [json.loads(line) for line in Path(extra["trace_file"]).read_text().splitlines()]
    assert any(s["name"] == "core.pivot_splits_array" for s in spans)


def test_perturbed_psi_is_caught(monkeypatch, tmp_path):
    make = pipeline.make_model

    def perturbed(inst):
        model = make(inst)
        full = (1 << inst.n) - 1
        left, right = inst.true_tree.children[full]
        exact = model.log_psi_pairs

        def log_psi_pairs(lefts, rights):
            out = np.array(exact(lefts, rights), dtype=float)
            out[(lefts == left) & (rights == right)] += 1e-6
            return out

        model.log_psi_pairs = log_psi_pairs
        return model

    monkeypatch.setattr(pipeline, "make_model", perturbed)
    result, _, _, errors = _smoke("jet_corpus", False, tmp_path)
    assert result["failed"] > 0 and not result["correct"]
    assert any("oracle" in e or "table" in e for e in errors), errors


def test_scalar_psi_perturbation_is_caught_by_the_full_sparse_trellis(monkeypatch, tmp_path):
    # Only the scalar entry point is perturbed: the dense fill (log_psi_pairs)
    # stays exact, so the sparse engine disagrees with the dense one.
    make = pipeline.make_model

    def perturbed(inst):
        model = make(inst)
        exact = model.log_psi
        model.log_psi = lambda left, right: exact(left, right) + 1e-6
        return model

    monkeypatch.setattr(pipeline, "make_model", perturbed)
    result, _, _, errors = _smoke("jet_corpus", False, tmp_path)
    assert result["failed"] > 0
    assert any("full sparse" in e for e in errors), errors


def test_sparse_fill_dropping_a_term_is_caught(monkeypatch, tmp_path):
    import hctrellis.sparse

    exact = hctrellis.sparse.log_sum_exp

    def drop_last(values):
        values = list(values)
        return exact(values[:-1] if len(values) > 1 else values)

    monkeypatch.setattr(hctrellis.sparse, "log_sum_exp", drop_last)
    result, _, _, errors = _smoke("sparse_n24", False, tmp_path)
    assert result["failed"] > 0
    assert any("sparse log Z" in e and "reference" in e for e in errors), errors


def test_full_sparse_trellis_holds_every_tree():
    for n in range(2, pipeline.FULL_SPARSE_MAX_LEAVES + 1):
        st = pipeline.full_sparse_trellis(n)
        assert st.num_edges() == split_term_count(n)
        assert pipeline.sparse_reference(st, ConstantModel(n))[2] == num_hierarchies(n)


def test_sampler_takes_kernel_runs_out_of_a_span():
    sampler = pipeline.SpeedSampler()
    sampler.runs = [(1.0, 1.1), (2.0, 2.05), (3.0, 3.02)]
    assert sampler.net(0.5, 2.5) == pytest.approx(2.0 - 0.15)
    assert sampler.net(1.2, 1.9) == pytest.approx(0.7)
    assert [round(d, 6) for _, d in sampler.samples()] == [0.1, 0.05, 0.02]


def _inputs(wl):
    out = [np.asarray(getattr(i.payload, "w", None) if i.kind != "ginkgo"
                      else [p.as_tuple() for p in i.payload]) for i in wl.dense]
    out += [np.asarray([p.as_tuple() for p in jet.payloads]) for jet in wl.sparse_jets]
    return out


@pytest.mark.parametrize("name", WORKLOADS)
def test_seed_changes_the_inputs(name):
    a, b, a2 = (build_workload(name, s, smoke=True) for s in (1, 2, 1))
    assert all(np.array_equal(x, y) for x, y in zip(_inputs(a), _inputs(a2)))
    assert not any(np.array_equal(x, y) for x, y in zip(_inputs(a), _inputs(b)))
    assert [i.n for i in a.dense] == [i.n for i in b.dense]


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "jet_corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
