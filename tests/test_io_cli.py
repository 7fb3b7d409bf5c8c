import csv
import json

import pytest

from hctrellis import (
    ConstantModel,
    DenseTrellis,
    GroundSet,
    ModelParams,
    PairwiseWeights,
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
        rows = list(csv.reader((tmp_path / "baselines.csv").open()))
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
        rows = list(csv.reader((tmp_path / "baselines.csv").open()))
        assert len(rows) == 5
        for row in rows[1:]:
            greedy, beam, trellis = map(float, row[2:5])
            assert trellis + 1e-9 >= beam and trellis + 1e-9 >= greedy

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
        rows = list(csv.reader((tmp_path / "sample_frequencies.csv").open()))
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
        rows = list(csv.reader((tmp_path / "sample_frequencies.csv").open()))
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
        rows = list(csv.reader((tmp_path / "sparse_eval.csv").open()))
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
        rows = list(csv.reader((tmp_path / "bench.csv").open()))
        assert len(rows) == 9
        for row in rows[1:]:
            assert int(row[1]) == int(row[2])

    def test_count_command(self, tmp_path, capsys):
        assert main(["count", "--n", "10", "--out", str(tmp_path)]) == 0
        assert "34459425" in capsys.readouterr().out

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
