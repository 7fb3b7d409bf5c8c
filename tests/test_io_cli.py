import csv
import json

import pytest

from hctrellis import (
    ConstantModel,
    DenseTrellis,
    GroundSet,
    ModelParams,
    PairwiseWeights,
    num_hierarchies,
)
from hctrellis.cli import main
from hctrellis.datasets import greedy_adversarial_weights, random_similarity_weights
from hctrellis.io import (
    build_model,
    dataset_from_dict,
    fourvector_dataset,
    hierarchy_to_tree_dict,
    load_dataset,
    load_jet,
    load_tree,
    pairwise_dataset,
    save_dataset,
    save_jet,
    save_tree,
    tree_dict_to_hierarchy,
)
from conftest import exact_leaf_jet


class TestDatasetFiles:
    def test_pairwise_round_trip(self, tmp_path):
        ds = pairwise_dataset(random_similarity_weights(5, 3), labels=("a", "b", "c", "d", "e"))
        path = tmp_path / "d.json"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert back.schema == "pairwise" and back.n == 5
        assert (back.weights.w == ds.weights.w).all()
        assert back.labels == ("a", "b", "c", "d", "e")

    def test_fourvector_round_trip(self, tmp_path):
        jet = exact_leaf_jet(4, 1)
        ds = fourvector_dataset(jet.payloads)
        path = tmp_path / "j.json"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert back.leaves == jet.payloads

    def test_unknown_schema_rejected(self):
        with pytest.raises(ValueError):
            dataset_from_dict({"schema": "parquet", "n": 2})

    def test_schema_model_compatibility(self):
        pw = pairwise_dataset(random_similarity_weights(3, 0))
        fv = fourvector_dataset(exact_leaf_jet(3, 0).payloads)
        params = ModelParams()
        assert build_model(pw, "dasgupta", params).kind == "dasgupta"
        assert build_model(fv, "ginkgo", params).kind == "ginkgo"
        assert build_model(pw, "constant", params).kind == "constant"
        with pytest.raises(ValueError):
            build_model(pw, "ginkgo", params)
        with pytest.raises(ValueError):
            build_model(fv, "correlation", params)
        with pytest.raises(ValueError):
            build_model(pw, "kmeans", params)


class TestTreeFiles:
    def test_round_trip_many_random_hierarchies(self, tmp_path):
        total = 0
        for n in range(2, 11):
            trellis = DenseTrellis(GroundSet(n), ConstantModel(n))
            for h in trellis.sample_many(120, seed=n):
                data = hierarchy_to_tree_dict(h)
                assert tree_dict_to_hierarchy(data) == h
                total += 1
        assert total >= 1000

    def test_file_round_trip_with_scores(self, tmp_path):
        jet = exact_leaf_jet(6, 2)
        from hctrellis import GinkgoModel, log_hierarchy_potential

        model = GinkgoModel(jet.payloads, lam=jet.config.lam)
        path = tmp_path / "tree.json"
        save_tree(jet.tree, path, model)
        data = json.loads(path.read_text())
        assert data["log_phi"] == pytest.approx(
            log_hierarchy_potential(jet.tree, model), abs=1e-12
        )
        internal_scores = [v for v in data["log_psi"] if v is not None]
        assert len(internal_scores) == 5
        assert load_tree(path) == jet.tree

    def test_fragment_round_trip(self, tmp_path):
        from hctrellis import Hierarchy

        fragment = Hierarchy(0b10101, {0b10101: (0b00101, 0b10000), 0b00101: (1, 4)})
        path = tmp_path / "frag.json"
        save_tree(fragment, path)
        assert load_tree(path) == fragment

    def test_corrupt_parent_array_rejected(self):
        with pytest.raises(ValueError):
            tree_dict_to_hierarchy({"n": 2, "parents": [-1, -1], "clusters": ["3", "1"]})
        with pytest.raises(ValueError):
            tree_dict_to_hierarchy({"n": 2, "parents": [0], "clusters": ["3", "1"]})


class TestJetFiles:
    def test_round_trip(self, tmp_path):
        jet = exact_leaf_jet(5, 4)
        path = tmp_path / "jet.json"
        save_jet(jet, path)
        back = load_jet(path)
        assert back.tree == jet.tree
        assert back.payloads == jet.payloads
        assert back.truth_log_likelihood == jet.truth_log_likelihood
        assert back.config.lam == jet.config.lam
        assert back.config.t_cut == jet.config.t_cut


def _write_two_leaf_dataset(path):
    save_dataset(pairwise_dataset(PairwiseWeights.from_triples(2, [(0, 1, 0.5)])), path)


class TestCli:
    def test_z_two_leaves_constant(self, tmp_path, capsys):
        data = tmp_path / "d.json"
        _write_two_leaf_dataset(data)
        code = main(["z", "--data", str(data), "--model", "constant", "--out", str(tmp_path)])
        assert code == 0
        assert "log_z=0" in capsys.readouterr().out
        records = (tmp_path / "records.jsonl").read_text().strip().splitlines()
        assert json.loads(records[0])["log_z"] == 0.0

    def test_map_on_adversarial_graph_beats_greedy(self, tmp_path, capsys):
        data = tmp_path / "adv.json"
        save_dataset(pairwise_dataset(greedy_adversarial_weights()), data)
        code = main(["map", "--data", str(data), "--model", "dasgupta", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        map_cost = float(out.split("cut_cost=")[1].split()[0])
        code = main(
            ["baselines", "--data", str(data), "--model", "dasgupta", "--out", str(tmp_path)]
        )
        assert code == 0
        rows = list(csv.reader((tmp_path / "baselines.csv").read_text().splitlines()))
        greedy_cost = -float(rows[1][2])
        assert map_cost < greedy_cost
        tree = load_tree(tmp_path / "map_tree.json")
        tree.validate(n=6)

    def test_generate_deterministic_bytes(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        args = ["generate", "--count", "3", "--seed", "5", "--min-leaves", "3", "--max-leaves", "8"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        for name in ["jet_00000.json", "jet_00001.json", "jet_00002.json", "manifest.json"]:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_generate_then_baselines_corpus(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        assert main(
            ["generate", "--count", "4", "--seed", "2", "--min-leaves", "4",
             "--max-leaves", "6", "--out", str(corpus)]
        ) == 0
        assert main(
            ["baselines", "--corpus", str(corpus), "--model", "ginkgo", "--out", str(tmp_path)]
        ) == 0
        rows = list(csv.reader((tmp_path / "baselines.csv").read_text().splitlines()))
        assert len(rows) == 5
        for row in rows[1:]:
            greedy, beam, trellis = map(float, row[2:5])
            assert trellis + 1e-9 >= beam and trellis + 1e-9 >= greedy

    def test_baselines_rejects_negative_lookahead(self, tmp_path, capsys):
        data = tmp_path / "d.json"
        _write_two_leaf_dataset(data)
        args = ["baselines", "--data", str(data), "--lookahead", "-1", "--out", str(tmp_path)]
        assert main(args) == 2
        assert "lookahead must be nonnegative" in capsys.readouterr().err

    def test_sparse_beam_builder_rejects_negative_lookahead(self, tmp_path, capsys):
        args = ["sparse", "--builder", "bs", "--n-leaves", "4", "--num-seeds", "1",
                "--lookahead", "-1", "--out", str(tmp_path)]
        assert main(args) == 2
        assert "lookahead must be nonnegative" in capsys.readouterr().err

    def test_sample_frequencies(self, tmp_path):
        corpus = tmp_path / "c"
        assert main(
            ["generate", "--count", "1", "--seed", "9", "--min-leaves", "4",
             "--max-leaves", "4", "--out", str(corpus)]
        ) == 0
        jet = load_jet(corpus / "jet_00000.json")
        data = tmp_path / "leaves.json"
        save_dataset(fourvector_dataset(jet.payloads), data)
        assert main(
            ["sample", "--data", str(data), "--model", "ginkgo", "--count", "500",
             "--seed", "3", "--out", str(tmp_path)]
        ) == 0
        rows = list(csv.reader((tmp_path / "sample_frequencies.csv").read_text().splitlines()))
        freqs = [float(r[2]) for r in rows[1:]]
        counts = [int(r[1]) for r in rows[1:]]
        assert sum(counts) == 500
        assert sum(freqs) == pytest.approx(1.0, abs=1e-9)
        assert len(list((tmp_path / "samples").glob("*.json"))) == 500

    def test_sample_above_file_cap_writes_distinct_trees(self, tmp_path):
        from hctrellis.cli import SAMPLE_FILE_CAP

        corpus = tmp_path / "c"
        assert main(
            ["generate", "--count", "1", "--seed", "12", "--min-leaves", "4",
             "--max-leaves", "4", "--out", str(corpus)]
        ) == 0
        jet = load_jet(corpus / "jet_00000.json")
        data = tmp_path / "leaves.json"
        save_dataset(fourvector_dataset(jet.payloads), data)
        count = SAMPLE_FILE_CAP + 500
        assert main(
            ["sample", "--data", str(data), "--model", "ginkgo", "--count",
             str(count), "--seed", "3", "--out", str(tmp_path)]
        ) == 0
        written = list((tmp_path / "samples").glob("distinct_*.json"))
        assert 1 <= len(written) <= 15
        rows = list(csv.reader((tmp_path / "sample_frequencies.csv").read_text().splitlines()))
        assert sum(int(r[1]) for r in rows[1:]) == count

    def test_marginal_cluster(self, tmp_path, capsys):
        data = tmp_path / "d.json"
        save_dataset(pairwise_dataset(random_similarity_weights(4, 1)), data)
        code = main(
            ["marginal", "--data", str(data), "--model", "dasgupta",
             "--cluster", "0,2", "--out", str(tmp_path)]
        )
        assert code == 0
        assert "log_marginal=" in capsys.readouterr().out

    def test_marginal_fragment_file(self, tmp_path, capsys):
        from hctrellis import Hierarchy

        data = tmp_path / "d.json"
        save_dataset(pairwise_dataset(random_similarity_weights(4, 1)), data)
        fragment = Hierarchy(0b0101, {0b0101: (0b0001, 0b0100)})
        frag_path = tmp_path / "frag.json"
        save_tree(fragment, frag_path)
        code = main(
            ["marginal", "--data", str(data), "--model", "dasgupta",
             "--fragment", str(frag_path), "--out", str(tmp_path)]
        )
        assert code == 0
        fragment_out = capsys.readouterr().out
        code = main(
            ["marginal", "--data", str(data), "--model", "dasgupta",
             "--cluster", "0,2", "--out", str(tmp_path)]
        )
        assert code == 0
        cluster_out = capsys.readouterr().out
        # a 2-cluster has a unique sub-hierarchy, so the two queries agree
        assert fragment_out.split("log_marginal=")[1].split()[0] == (
            cluster_out.split("log_marginal=")[1].split()[0]
        )

    def test_marginal_requires_exactly_one_target(self, tmp_path):
        data = tmp_path / "d.json"
        _write_two_leaf_dataset(data)
        assert main(["marginal", "--data", str(data), "--out", str(tmp_path)]) == 2

    def test_schema_mismatch_is_validation_error(self, tmp_path):
        data = tmp_path / "d.json"
        _write_two_leaf_dataset(data)
        assert main(["z", "--data", str(data), "--model", "ginkgo", "--out", str(tmp_path)]) == 2

    def test_missing_file_is_validation_error(self, tmp_path):
        assert main(["z", "--data", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2

    def test_cap_violation_is_validation_error(self, tmp_path):
        # 23 leaves is one past the models' subset tables: the guard must
        # refuse before a fill of ~3**23 per-pair psi calls starts
        data = tmp_path / "big.json"
        for n in (23, 26):
            save_dataset(pairwise_dataset(PairwiseWeights.from_triples(n, [])), data)
            for model in ("constant", "dasgupta"):
                args = ["z", "--data", str(data), "--model", model, "--out", str(tmp_path)]
                assert main(args) == 2

    def test_sparse_build_save_load_eval(self, tmp_path, capsys):
        corpus = tmp_path / "test_corpus"
        assert main(
            ["generate", "--count", "3", "--seed", "31", "--min-leaves", "5",
             "--max-leaves", "5", "--out", str(corpus)]
        ) == 0
        trellis_file = tmp_path / "trellis.json"
        assert main(
            ["sparse", "--builder", "sim", "--n-leaves", "5", "--num-seeds", "4",
             "--ordering", "norm_ascending", "--seed", "7",
             "--save-trellis", str(trellis_file), "--test-corpus", str(corpus),
             "--out", str(tmp_path)]
        ) == 0
        assert trellis_file.exists()
        out = capsys.readouterr().out
        assert "sparsity=" in out and "mean(sparse MAP - greedy)" in out
        rows = list(csv.reader((tmp_path / "sparse_eval.csv").read_text().splitlines()))
        assert len(rows) == 4
        for row in rows[1:]:
            sparse_map, greedy, full_map = map(float, row[1:4])
            assert sparse_map <= full_map + 1e-9
        # reuse the saved trellis
        assert main(
            ["sparse", "--load-trellis", str(trellis_file), "--test-corpus", str(corpus),
             "--out", str(tmp_path)]
        ) == 0

    def test_bench_small_range(self, tmp_path):
        assert main(
            ["bench", "--n-min", "2", "--n-max", "9", "--model", "constant",
             "--out", str(tmp_path)]
        ) == 0
        rows = list(csv.reader((tmp_path / "bench.csv").read_text().splitlines()))
        assert len(rows) == 9
        per_term = rows[0].index("ns_per_term")
        marginals = rows[0].index("wall_marginals_s")
        for row in rows[1:]:
            assert int(row[1]) == int(row[2])
            assert float(row[per_term]) > 0
            assert float(row[marginals]) > 0

    @pytest.mark.parametrize("n", [1, 2, 10, 14])
    def test_count_command(self, n, tmp_path, capsys):
        assert main(["count", "--n", str(n), "--out", str(tmp_path)]) == 0
        closed = num_hierarchies(n)
        assert f"n={n}: {closed} hierarchies (closed form {closed})" in capsys.readouterr().out

    def test_config_file_defaults(self, tmp_path, capsys):
        data = tmp_path / "d.json"
        _write_two_leaf_dataset(data)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"model": "dasgupta", "beta": 2.0}))
        code = main(
            ["--config", str(config), "z", "--data", str(data), "--out", str(tmp_path)]
        )
        assert code == 0
        record = json.loads((tmp_path / "records.jsonl").read_text().splitlines()[-1])
        assert record["model"] == "dasgupta" and record["beta"] == 2.0

    def test_records_accumulate(self, tmp_path):
        data = tmp_path / "d.json"
        _write_two_leaf_dataset(data)
        for _ in range(3):
            assert main(["z", "--data", str(data), "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "records.jsonl").read_text().strip().splitlines()
        assert len(lines) == 3


def _generate_corpus(path, count=3, seed=2, leaves=(4, 6)):
    args = ["generate", "--count", str(count), "--seed", str(seed), "--min-leaves",
            str(leaves[0]), "--max-leaves", str(leaves[1]), "--out", str(path)]
    assert main(args) == 0


class TestCliRefusals:
    @pytest.mark.parametrize("schema, payload, model", [
        ("pairwise", {"n": 3, "weights": [[0, 1, "Infinity"], [1, 2, 0.5]]}, "dasgupta"),
        ("pairwise", {"n": 3, "weights": [[0, 1, "NaN"]]}, "correlation"),
        ("fourvectors", {"leaves": [{"E": "NaN", "px": 0, "py": 0, "pz": 1},
                                    {"E": 5.0, "px": 0, "py": 1, "pz": 0}]}, "ginkgo"),
    ])
    def test_nonfinite_inputs_exit_2(self, tmp_path, capsys, schema, payload, model):
        # Python's json reads the bare tokens Infinity and NaN as floats
        text = json.dumps({"schema": schema, **payload})
        text = text.replace('"Infinity"', "Infinity").replace('"NaN"', "NaN")
        data = tmp_path / "d.json"
        data.write_text(text)
        args = ["map", "--data", str(data), "--model", model, "--out", str(tmp_path)]
        assert main(args) == 2
        assert "must be finite" in capsys.readouterr().err
        assert not (tmp_path / "map_tree.json").exists()

    @pytest.mark.parametrize("kind, payload, message", [
        ("tree", {"n": 2, "parents": [-1, 0, 3], "clusters": ["3", "1", "2"]}, "parent index 3"),
        # -3 would wrap to the root and load as a valid tree
        ("tree", {"n": 2, "parents": [-1, 0, -3], "clusters": ["3", "1", "2"]}, "parent index -3"),
        ("dataset", [{"schema": "pairwise", "n": 2}], "must hold a JSON object"),
        ("dataset", {"schema": "pairwise", "n": 2, "weights": 5}, "[i, j, w] triples"),
        ("dataset", {"schema": "fourvectors", "leaves": 5}, "E/px/py/pz objects"),
        ("trellis", [{"n": 2, "vertices": []}], "must hold a JSON object"),
        ("trellis", {"n": 2, "vertices": 5}, "bits/pairs objects"),
    ], ids=["tree_index_past_end", "tree_index_below_root", "dataset_list",
            "dataset_weights_int", "dataset_leaves_int", "trellis_list", "trellis_vertices_int"])
    def test_malformed_input_file_exits_2(self, tmp_path, capsys, kind, payload, message):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        data = tmp_path / "d.json"
        _write_two_leaf_dataset(data)
        args = {
            "tree": ["marginal", "--data", str(data), "--fragment", str(bad)],
            "dataset": ["z", "--data", str(bad)],
            "trellis": ["sparse", "--load-trellis", str(bad)],
        }[kind]
        assert main([*args, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert message in err and "internal error" not in err

    @pytest.mark.parametrize("count", ["0", "-5"])
    def test_sample_refuses_nonpositive_count(self, tmp_path, capsys, count):
        data = tmp_path / "d.json"
        _write_two_leaf_dataset(data)
        args = ["sample", "--data", str(data), "--count", count, "--out", str(tmp_path)]
        assert main(args) == 2
        assert "--count must be positive" in capsys.readouterr().err
        assert not (tmp_path / "records.jsonl").exists()

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_generate_refuses_nonpositive_count(self, tmp_path, capsys, count):
        assert main(["generate", "--count", count, "--out", str(tmp_path)]) == 2
        assert "--count must be positive" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()

    def test_bench_refuses_past_dense_cap_before_any_fill(self, tmp_path, capsys, monkeypatch):
        import hctrellis.cli

        def no_fill(*args, **kwargs):
            raise AssertionError("bench started a fill before refusing")

        monkeypatch.setattr(hctrellis.cli, "DenseTrellis", no_fill)
        args = ["bench", "--n-max", "23", "--out", str(tmp_path)]
        assert main(args) == 2
        assert "n-max <= 22" in capsys.readouterr().err
        assert not (tmp_path / "bench.csv").exists()

    @pytest.mark.parametrize("flag", ["--beta", "--lambda"])
    def test_bench_validates_model_params(self, tmp_path, capsys, flag):
        args = ["bench", "--n-max", "4", "--model", "dasgupta", flag, "-1", "--out", str(tmp_path)]
        assert main(args) == 2
        assert "must both be positive" in capsys.readouterr().err


class TestCliModelBinding:
    def test_baselines_corpus_defaults_to_constant(self, tmp_path):
        _generate_corpus(tmp_path / "corpus")
        assert main(["baselines", "--corpus", str(tmp_path / "corpus"), "--out", str(tmp_path)]) == 0
        record = json.loads((tmp_path / "records.jsonl").read_text())
        assert record["model"] == "constant"
        for stats in record["summary"].values():
            assert stats == {"mean": 0.0, "std": 0.0}

    def test_baselines_corpus_scores_with_ginkgo(self, tmp_path):
        from hctrellis import GinkgoModel
        from hctrellis.baselines import beam_search_cluster, greedy_cluster

        _generate_corpus(tmp_path / "corpus")
        args = ["baselines", "--corpus", str(tmp_path / "corpus"), "--model", "ginkgo",
                "--lambda", "1.2", "--out", str(tmp_path)]
        assert main(args) == 0
        expected = []
        for k in range(3):
            jet = load_jet(tmp_path / "corpus" / f"jet_{k:05d}.json")
            model = GinkgoModel(jet.payloads, lam=1.2)
            expected.append([
                str(k), str(model.n), repr(greedy_cluster(model)[0]),
                repr(beam_search_cluster(model, None, 1)[0]),
                repr(DenseTrellis(GroundSet(model.n), model).map_hierarchy()[0]),
            ])
        rows = list(csv.reader((tmp_path / "baselines.csv").read_text().splitlines()))
        assert rows[1:] == expected
        record = json.loads((tmp_path / "records.jsonl").read_text())
        assert (record["model"], record["lam"]) == ("ginkgo", 1.2)

    @pytest.mark.parametrize("model", ["dasgupta", "correlation"])
    def test_baselines_corpus_refuses_pairwise_models(self, tmp_path, capsys, model):
        _generate_corpus(tmp_path / "corpus")
        args = ["baselines", "--corpus", str(tmp_path / "corpus"), "--model", model,
                "--beta", "3", "--out", str(tmp_path)]
        assert main(args) == 2
        assert f"{model} scoring needs a pairwise dataset" in capsys.readouterr().err
        assert not (tmp_path / "records.jsonl").exists()

    def test_bench_runs_correlation(self, tmp_path):
        args = ["bench", "--n-max", "6", "--model", "correlation", "--out", str(tmp_path)]
        assert main(args) == 0
        rows = list(csv.reader((tmp_path / "bench.csv").read_text().splitlines()))
        assert len(rows) == 6
        for row in rows[1:]:
            assert int(row[1]) == int(row[2])

    def test_bench_records_model_parameters(self, tmp_path):
        args = ["bench", "--n-max", "4", "--model", "dasgupta", "--beta", "0.5", "--out", str(tmp_path)]
        assert main(args) == 0
        record = json.loads((tmp_path / "records.jsonl").read_text())
        assert (record["model"], record["beta"]) == ("dasgupta", 0.5) and "lam" in record


# Every command at fixed seeds.  The digest covers each file written and
# each stdout line, with wall-clock fields and temp paths masked, so a
# refactor of the command layer that changes any output byte fails here.
FROZEN_RUNS = [
    ["generate", "--count", "3", "--seed", "4", "--min-leaves", "4", "--max-leaves", "6",
     "--out", "{tmp}/corpus"],
    ["generate", "--count", "2", "--seed", "31", "--min-leaves", "5", "--max-leaves", "5",
     "--out", "{tmp}/test_corpus"],
    ["z", "--data", "{tmp}/pw.json", "--model", "dasgupta", "--beta", "2", "--out", "{tmp}/z"],
    ["map", "--data", "{tmp}/fv.json", "--model", "ginkgo", "--out", "{tmp}/map"],
    ["map", "--data", "{tmp}/pw.json", "--model", "dasgupta", "--out", "{tmp}/map_dasgupta"],
    ["marginal", "--data", "{tmp}/pw.json", "--model", "correlation", "--cluster", "0,2",
     "--out", "{tmp}/marginal"],
    ["marginal", "--data", "{tmp}/fv.json", "--model", "ginkgo", "--fragment",
     "{tmp}/frag.json", "--out", "{tmp}/fragment"],
    ["sample", "--data", "{tmp}/fv.json", "--model", "ginkgo", "--count", "40", "--seed", "3",
     "--out", "{tmp}/sample"],
    ["baselines", "--data", "{tmp}/pw.json", "--model", "dasgupta", "--out", "{tmp}/bl_data"],
    ["baselines", "--corpus", "{tmp}/corpus", "--model", "ginkgo", "--lambda", "1.2",
     "--beam-width", "3", "--out", "{tmp}/bl_corpus"],
    ["sparse", "--builder", "sim", "--n-leaves", "5", "--num-seeds", "4", "--seed", "7",
     "--save-trellis", "{tmp}/trellis.json", "--test-corpus", "{tmp}/test_corpus",
     "--out", "{tmp}/sparse_sim"],
    ["sparse", "--builder", "bs", "--n-leaves", "5", "--num-seeds", "2", "--seed", "7",
     "--ordering", "standard", "--out", "{tmp}/sparse_bs"],
    ["sparse", "--load-trellis", "{tmp}/trellis.json", "--test-corpus", "{tmp}/test_corpus",
     "--out", "{tmp}/sparse_load"],
    ["bench", "--n-min", "2", "--n-max", "6", "--model", "ginkgo", "--seed", "2",
     "--out", "{tmp}/bench_ginkgo"],
    ["bench", "--n-min", "3", "--n-max", "6", "--model", "dasgupta", "--beta", "0.5",
     "--out", "{tmp}/bench_dasgupta"],
    ["count", "--n", "6", "--out", "{tmp}/count"],
]


def _is_wall(name: str) -> bool:
    return name.startswith("wall") or name == "ns_per_term"


def _masked_bytes(path) -> bytes:
    if path.suffix == ".jsonl":
        lines = []
        for line in path.read_text().splitlines():
            record = json.loads(line)
            lines.append(json.dumps({k: v for k, v in record.items() if not _is_wall(k)},
                                    sort_keys=True))
        return "\n".join(lines).encode()
    if path.suffix == ".csv":
        rows = list(csv.reader(path.read_text().splitlines()))
        keep = [k for k, name in enumerate(rows[0]) if not _is_wall(name)]
        return repr([[row[k] for k in keep] for row in rows]).encode()
    return path.read_bytes()


class TestCliOutputDigest:
    def test_frozen_digest(self, tmp_path, capsys):
        import hashlib
        import re

        from hctrellis import Hierarchy

        save_dataset(pairwise_dataset(random_similarity_weights(5, 1)), tmp_path / "pw.json")
        save_dataset(fourvector_dataset(exact_leaf_jet(5, 3).payloads), tmp_path / "fv.json")
        save_tree(Hierarchy(0b0101, {0b0101: (0b0001, 0b0100)}), tmp_path / "frag.json")
        digest = hashlib.sha256()
        for run in FROZEN_RUNS:
            assert main([arg.replace("{tmp}", str(tmp_path)) for arg in run]) == 0, run
            stdout = capsys.readouterr().out.replace(str(tmp_path), "<tmp>")
            digest.update(re.sub(r"wall=\S+", "wall=<masked>", stdout).encode())
        for path in sorted(p for p in tmp_path.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(tmp_path)).encode())
            digest.update(_masked_bytes(path))
        assert digest.hexdigest()[:16] == "a6de82b1e54b2413"
