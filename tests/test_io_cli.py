import csv
import json

import pytest

from hctrellis import (
    ConstantModel,
    DenseTrellis,
    FourVector,
    GroundSet,
    ModelParams,
    PairwiseWeights,
    num_hierarchies,
    split_term_count,
)
from hctrellis.cli import main
from hctrellis.datasets import greedy_adversarial_weights, random_similarity_weights
from hctrellis.io import (
    Dataset,
    build_model,
    dataset_from_dict,
    dataset_to_dict,
    fourvector_dataset,
    hierarchy_to_tree_dict,
    jet_from_dict,
    file_sha256,
    jet_to_dict,
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

    def test_unknown_schema_not_written(self):
        with pytest.raises(ValueError, match="unknown dataset schema 'parquet'"):
            dataset_to_dict(Dataset("parquet", 2))

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

    @pytest.mark.parametrize("seed, expected", [(7, 7), ("7", 7), ([5, 1, 4], (5, 1, 4))],
                             ids=["int", "int_string", "list"])
    def test_integer_seeds_accepted(self, seed, expected):
        data = jet_to_dict(exact_leaf_jet(5, 4))
        data["seed"] = seed
        assert jet_from_dict(data).config.seed == expected

    @pytest.mark.parametrize("seed, message", [
        (3.5, "seed must be an integer, not 3.5"),
        (True, "seed must be an integer, not True"),
        ("x", "seed must be an integer, not 'x'"),
        ([5, 1.5], "seed entry must be an integer, not 1.5"),
        ([5, False], "seed entry must be an integer, not False"),
    ])
    def test_non_integral_seed_refused(self, seed, message):
        # such a seed loaded, and generate_jet on its config raised TypeError
        data = jet_to_dict(exact_leaf_jet(5, 4))
        data["seed"] = seed
        with pytest.raises(ValueError) as info:
            jet_from_dict(data)
        assert str(info.value) == message


def _small_files() -> dict:
    """The dicts the writers make for a 3-leaf trellis, dataset and tree."""
    from hctrellis import Hierarchy, LeafOrdering, SparseTrellis, build_from_trees
    from hctrellis.io import dataset_to_dict

    trees = [Hierarchy(7, {7: (1, 6), 6: (2, 4)}), Hierarchy(7, {7: (3, 4), 3: (1, 2)})]
    return {
        "trellis": (build_from_trees(trees, LeafOrdering("random", seed=5)).to_dict(),
                    SparseTrellis.from_dict),
        "dataset": (dataset_to_dict(pairwise_dataset(random_similarity_weights(3, 1))),
                    dataset_from_dict),
        "tree": (hierarchy_to_tree_dict(trees[0]), tree_dict_to_hierarchy),
    }


# (file kind, the field's name in the error, where it sits in the dict)
INTEGER_FIELDS = [
    ("trellis", "n", ("n",)),
    ("trellis", "vertex bits", ("vertices", -1, "bits")),
    ("trellis", "pair member", ("vertices", -1, "pairs", 0, 1)),
    ("trellis", "ordering seed", ("ordering", "seed")),
    ("dataset", "n", ("n",)),
    ("dataset", "weight index", ("weights", 1, 1)),
    ("tree", "n", ("n",)),
    ("tree", "parent index", ("parents", 2)),
    ("tree", "cluster", ("clusters", 1)),
]


class TestIntegerFields:
    @pytest.mark.parametrize("kind, what, path", INTEGER_FIELDS,
                             ids=[f"{k}_{w.replace(' ', '_')}" for k, w, _ in INTEGER_FIELDS])
    def test_non_integral_value_refused(self, kind, what, path):
        # int() would truncate each of these to a valid looking integer
        data, read = _small_files()[kind]
        *outer, key = path
        holder = data
        for step in outer:
            holder = holder[step]
        value = int(holder[key])
        read(json.loads(json.dumps(data)))  # the file as written loads
        for bad in (value + 0.9, float(value), True, f"{value}.7", f"{value}e0"):
            holder[key] = bad
            with pytest.raises(ValueError, match=f"{what} must be an integer, not "):
                read(json.loads(json.dumps(data)))

    def test_integer_strings_and_ints_accepted(self):
        from hctrellis.core import integer_field

        assert [integer_field(v, "x") for v in (12, "12", -1, "-1", str(2**64 - 1))] == [
            12, 12, -1, -1, 2**64 - 1]
        for bad in (False, 12.0, "12.0", "", "-", "0x10", "1_2", " 12", "+12", [12]):
            with pytest.raises(ValueError, match="x must be an integer"):
                integer_field(bad, "x")

    def test_written_files_load_and_rewrite_byte_for_byte(self, tmp_path):
        from hctrellis import SparseTrellis, build_simulator_trellis
        from hctrellis.jetgen import JetConfig
        from hctrellis.sparse import LeafOrdering

        st = build_simulator_trellis(JetConfig(seed=2, leaf_count_filter=(7, 7)), 12,
                                     LeafOrdering("random", seed=3))
        st.save(tmp_path / "a.json")
        SparseTrellis.load(tmp_path / "a.json").save(tmp_path / "b.json")
        ds = pairwise_dataset(random_similarity_weights(6, 2), labels=tuple("abcdef"))
        save_dataset(ds, tmp_path / "c.json")
        save_dataset(load_dataset(tmp_path / "c.json"), tmp_path / "d.json")
        tree = exact_leaf_jet(7, 5).tree
        save_tree(tree, tmp_path / "e.json")
        save_tree(load_tree(tmp_path / "e.json"), tmp_path / "f.json")
        for a, b in ("ab", "cd", "ef"):
            assert (tmp_path / f"{a}.json").read_bytes() == (tmp_path / f"{b}.json").read_bytes()


class TestTrellisFileRefusals:
    def _saved(self, tmp_path, capsys) -> dict:
        out = tmp_path / "build"
        path = tmp_path / "t.json"
        args = ["sparse", "--builder", "sim", "--n-leaves", "12", "--num-seeds", "40",
                "--root", "200,0,0,100", "--save-trellis", str(path), "--out", str(out)]
        assert main(args) == 0
        capsys.readouterr()
        return json.loads(path.read_text())

    def _load(self, tmp_path, data, capsys):
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(data))
        status = main(["sparse", "--load-trellis", str(path), "--out", str(tmp_path / "load")])
        return status, capsys.readouterr()

    def test_repeated_vertex_refused(self, tmp_path, capsys):
        # a dict built entry by entry kept only the last of the two roots:
        # 24 vertices and 13 edges instead of 275 and 317, with exit 0
        data = self._saved(tmp_path, capsys)
        root = data["vertices"][-1]
        assert int(root["bits"]) == (1 << 12) - 1 and len(root["pairs"]) > 1
        data["vertices"].append({"bits": root["bits"], "pairs": root["pairs"][:1]})
        status, captured = self._load(tmp_path, data, capsys)
        assert status == 2
        assert "vertex bits 4095 are listed twice" in captured.err
        assert "trellis:" not in captured.out

    def test_non_integral_leaf_count_refused(self, tmp_path, capsys):
        data = self._saved(tmp_path, capsys)
        status, captured = self._load(tmp_path, data, capsys)
        assert status == 0 and "275 vertices, 317 edges" in captured.out
        data["n"] = 12.9
        status, captured = self._load(tmp_path, data, capsys)
        assert status == 2 and "n must be an integer, not 12.9" in captured.err


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

    def test_sparse_random_ordering_follows_seed(self, tmp_path):
        # without --ordering-seed the leaf permutations come from --seed
        files = []
        for name in ("a", "b"):
            files.append(tmp_path / f"{name}.json")
            assert main(["sparse", "--builder", "sim", "--n-leaves", "6", "--num-seeds", "8",
                         "--ordering", "random", "--seed", "3", "--save-trellis", str(files[-1]),
                         "--out", str(tmp_path / name)]) == 0
        assert files[0].read_bytes() == files[1].read_bytes()

    @pytest.mark.parametrize("builder", ["sim", "bs"])
    def test_sparse_records_build_inputs(self, tmp_path, builder):
        args = ["sparse", "--builder", builder, "--n-leaves", "4", "--num-seeds", "2",
                "--ordering", "random", "--seed", "5", "--out", str(tmp_path)]
        assert main(args + (["--beam-width", "2", "--lookahead", "0"] if builder == "bs" else [])) == 0
        record = json.loads((tmp_path / "records.jsonl").read_text())
        assert {k: record[k] for k in ("builder", "n_leaves", "num_seeds", "ordering",
                                       "ordering_seed")} == {
            "builder": builder, "n_leaves": 4, "num_seeds": 2, "ordering": "random",
            "ordering_seed": 5,
        }
        if builder == "bs":
            assert (record["beam_width"], record["lookahead"]) == (2, 0)
        else:
            assert "beam_width" not in record and "lookahead" not in record

    def test_baselines_records_beam_settings(self, tmp_path):
        data = tmp_path / "d.json"
        _write_two_leaf_dataset(data)
        args = ["baselines", "--data", str(data), "--beam-width", "4", "--lookahead", "2",
                "--out", str(tmp_path)]
        assert main(args) == 0
        record = json.loads((tmp_path / "records.jsonl").read_text())
        assert (record["beam_width"], record["lookahead"]) == (4, 2)

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

    def test_marginal_refuses_repeated_cluster_index(self, tmp_path, capsys):
        data = tmp_path / "d.json"
        save_dataset(pairwise_dataset(random_similarity_weights(4, 1)), data)
        code = main(
            ["marginal", "--data", str(data), "--model", "dasgupta",
             "--cluster", "0,0", "--out", str(tmp_path)]
        )
        assert code == 2
        out, err = capsys.readouterr()
        assert "log_marginal" not in out and "repeated" in err

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

    def test_sparse_eval_past_dense_cap(self, tmp_path, capsys):
        # 24 leaves is past the dense cap: the full-MAP column stays blank
        corpus = tmp_path / "corpus"
        root = ["--root", "200,0,0,100"]
        assert main(["generate", "--count", "2", *root, "--min-leaves", "24",
                     "--max-leaves", "24", "--out", str(corpus)]) == 0
        assert main(["sparse", "--n-leaves", "24", "--num-seeds", "20", *root,
                     "--test-corpus", str(corpus), "--out", str(tmp_path)]) == 0
        assert "mean(full   MAP - greedy) = n/a" in capsys.readouterr().out
        rows = list(csv.reader((tmp_path / "sparse_eval.csv").read_text().splitlines()))
        assert len(rows) == 3
        assert all(row[1] and row[2] and row[3] == "" for row in rows[1:])
        record = json.loads((tmp_path / "records.jsonl").read_text())
        assert record["mean_full_map_minus_greedy"] is None
        assert isinstance(record["mean_sparse_map_minus_greedy"], float)

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
        assert rows[1][rows[0].index("ops_ratio")] == "nan"  # no split terms at n = 1

    def test_bench_single_n_checks_growth(self, tmp_path, capsys):
        # one n still has a ratio: against the closed-form count at n - 1
        args = ["bench", "--model", "dasgupta", "--n-min", "9", "--n-max", "9",
                "--out", str(tmp_path)]
        assert main(args) == 0
        rows = list(csv.reader((tmp_path / "bench.csv").read_text().splitlines()))
        assert len(rows) == 2
        ratio = float(rows[1][rows[0].index("ops_ratio")])
        assert ratio == split_term_count(9) / split_term_count(8)
        assert abs(ratio - 3.0) <= 0.15
        assert "nan" not in capsys.readouterr().out

    @pytest.mark.parametrize("n", [1, 2, 10, 14])
    def test_count_command(self, n, tmp_path, capsys):
        assert main(["count", "--n", str(n), "--out", str(tmp_path)]) == 0
        closed = num_hierarchies(n)
        assert f"n={n}: {closed} hierarchies (closed form {closed})" in capsys.readouterr().out

    def test_count_from_dataset_file(self, tmp_path, capsys):
        data = tmp_path / "d.json"
        save_dataset(pairwise_dataset(random_similarity_weights(6, 1)), data)
        assert main(["count", "--data", str(data), "--out", str(tmp_path)]) == 0
        closed = num_hierarchies(6)
        assert f"n=6: {closed} hierarchies (closed form {closed})" in capsys.readouterr().out

    @pytest.mark.parametrize("both", [False, True], ids=["neither", "both"])
    def test_count_needs_exactly_one_source(self, tmp_path, capsys, both):
        data = tmp_path / "d.json"
        _write_two_leaf_dataset(data)
        extra = ["--n", "2", "--data", str(data)] if both else []
        assert main(["count", *extra, "--out", str(tmp_path)]) == 2
        assert "pass exactly one of --n or --data" in capsys.readouterr().err
        assert not (tmp_path / "records.jsonl").exists()

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
        ("dataset", {"schema": "pairwise", "n": None}, "n must be an integer"),
        ("dataset", {"schema": "pairwise", "n": 2, "labels": 5}, "labels must be a list"),
        ("dataset", {"schema": "fourvectors", "leaves": [{"E": 1, "px": 0, "py": 0, "pz": 0}] * 2,
                     "labels": 5}, "labels must be a list"),
        ("tree", {"n": 2, "parents": 5, "clusters": ["3", "1", "2"]}, "lists of integers"),
        ("trellis", {"n": None, "vertices": []}, "n must be an integer"),
        ("trellis", {"n": 2, "vertices": [], "ordering": 5}, "mode/seed object"),
        ("trellis", {"n": 2, "vertices": [], "ordering": [1]}, "mode/seed object"),
        ("tree", {"n": 2, "parents": [-1], "clusters": ["0"]}, "empty root cluster"),
        ("tree", {"n": 2, "parents": [-1, 0, 0, 1, 1], "clusters": ["3", "1", "2", "4", "8"]},
         "singleton listed as an internal node"),
        ("tree", {"n": 2, "parents": [-1, 0, 0], "clusters": ["3", "3", "0"]},
         "empty child cluster"),
        ("tree", {"n": 2, "parents": [0, 0], "clusters": ["3", "1"]}, "tree file has no root"),
        ("tree", {"n": 2, "parents": [-1, 0], "clusters": ["3", "1"]},
         "every internal node needs exactly two children"),
        ("dataset", {"schema": "pairwise", "n": 2, "labels": ["a", "a"]},
         "leaf labels must be unique"),
        ("dataset", {"schema": "pairwise", "n": 2, "labels": ["a", "b", "c"]},
         "label count does not match leaf count"),
    ], ids=["tree_index_past_end", "tree_index_below_root", "dataset_list",
            "dataset_weights_int", "dataset_leaves_int", "trellis_list", "trellis_vertices_int",
            "dataset_n_null", "dataset_labels_int", "fourvector_labels_int", "tree_parents_int",
            "trellis_n_null", "trellis_ordering_int", "trellis_ordering_list",
            "tree_empty_root", "tree_singleton_split", "tree_empty_child", "tree_no_root",
            "tree_one_child", "dataset_labels_repeated", "dataset_labels_one_too_many"])
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
        assert not (tmp_path / "records.jsonl").exists()

    @pytest.mark.parametrize("args, message", [
        (["generate", "--root", "100,0,80"], "--root needs E,px,py,pz"),
        (["generate", "--min-leaves", "4"], "pass both --min-leaves and --max-leaves or neither"),
        (["baselines"], "pass exactly one of --corpus or --data"),
        (["baselines", "--corpus", "{corpus}", "--data", "{data}"],
         "pass exactly one of --corpus or --data"),
        (["sparse", "--builder", "xyz"], "--builder must be sim or bs"),
        (["sparse", "--n-leaves", "5", "--num-seeds", "2", "--test-corpus", "{corpus}"],
         "test corpus leaf count does not match the trellis"),
    ], ids=["root_three_components", "min_leaves_alone", "baselines_neither",
            "baselines_both", "sparse_unknown_builder", "sparse_corpus_leaf_count"])
    def test_argument_refusals_exit_2(self, tmp_path, capsys, args, message):
        data, corpus = tmp_path / "d.json", tmp_path / "corpus"
        _write_two_leaf_dataset(data)
        _generate_corpus(corpus, count=2, leaves=(4, 4))
        capsys.readouterr()
        args = [a.format(data=data, corpus=corpus) for a in args]
        assert main([*args, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert message in err and "internal error" not in err
        assert not (tmp_path / "out" / "records.jsonl").exists()

    @pytest.mark.parametrize("command", ["baselines", "sparse"])
    def test_corpus_jet_with_non_integral_seed_exits_2(self, tmp_path, capsys, command):
        corpus = tmp_path / "corpus"
        _generate_corpus(corpus, count=2, leaves=(5, 5))
        first = corpus / "jet_00000.json"
        first.write_text(json.dumps(dict(json.loads(first.read_text()), seed=3.5)))
        capsys.readouterr()
        args = {
            "baselines": ["baselines", "--corpus", str(corpus), "--model", "ginkgo"],
            "sparse": ["sparse", "--n-leaves", "5", "--num-seeds", "2",
                       "--test-corpus", str(corpus)],
        }[command]
        assert main([*args, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "seed must be an integer, not 3.5" in err and "internal error" not in err

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

    @pytest.mark.parametrize("args, message", [
        (["--tcut", "nan"], "t_cut"),
        (["--root", "100,0,inf,0"], "root.py"),
        # t_cut so small that the jet never stops splitting
        (["--tcut", "1e-300"], "leaves"),
        (["--root=-1,0,0,0"], "root energy must be positive"),
    ], ids=["tcut_nan", "root_inf", "tcut_tiny", "root_negative_energy"])
    def test_generate_refuses_pathological_config(self, tmp_path, capsys, args, message):
        assert main(["generate", "--count", "1", *args, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert message in err and "internal error" not in err
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

    def test_baselines_refuses_past_dense_cap_before_any_search(self, tmp_path, capsys,
                                                                monkeypatch):
        import hctrellis.cli

        def no_search(*args, **kwargs):
            raise AssertionError("baselines started a search before refusing")

        monkeypatch.setattr(hctrellis.cli, "greedy_cluster", no_search)
        monkeypatch.setattr(hctrellis.cli, "beam_search_cluster", no_search)
        data = tmp_path / "big.json"
        save_dataset(pairwise_dataset(PairwiseWeights.from_triples(23, [])), data)
        args = ["baselines", "--data", str(data), "--model", "dasgupta", "--out", str(tmp_path)]
        assert main(args) == 2
        assert "instance 0 has 23 leaves" in capsys.readouterr().err
        assert not (tmp_path / "baselines.csv").exists()

    @pytest.mark.parametrize("command, model", [("z", "dasgupta"), ("map", "ginkgo")])
    def test_overflowing_payloads_exit_2(self, tmp_path, capsys, command, model):
        # pair weights of 1e308 printed log_z=nan, leaf energies of 1e160
        # log_map=nan, both after a RuntimeWarning and with exit 0
        data = tmp_path / "d.json"
        if model == "ginkgo":
            payloads = [FourVector(1e160 * (i + 2), 1e159 * i, 0.0, 0.0) for i in range(5)]
            save_dataset(fourvector_dataset(payloads), data)
        else:
            w = [(i, j, 1e308) for i in range(4) for j in range(i + 1, 4)]
            save_dataset(pairwise_dataset(PairwiseWeights.from_triples(4, w)), data)
        assert main([command, "--data", str(data), "--model", model, "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert "float range" in captured.err and "nan" not in captured.out

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("model, flag", [
        ("dasgupta", "--beta"), ("correlation", "--beta"), ("ginkgo", "--lambda"),
    ])
    def test_nonfinite_model_params_exit_2(self, tmp_path, capsys, model, flag, value):
        # --beta nan printed log_z=nan and --beta inf printed -inf, both exit 0
        data = tmp_path / "d.json"
        if model == "ginkgo":
            save_dataset(fourvector_dataset(exact_leaf_jet(4, 0).payloads), data)
        else:
            save_dataset(pairwise_dataset(random_similarity_weights(4, 0)), data)
        args = ["z", "--data", str(data), "--model", model, f"{flag}={value}",
                "--out", str(tmp_path)]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert "must both be positive and finite" in captured.err and "log_z" not in captured.out
        assert not (tmp_path / "records.jsonl").exists()

    @pytest.mark.parametrize("flag", ["--beta", "--lambda"])
    def test_bench_validates_model_params(self, tmp_path, capsys, flag):
        args = ["bench", "--n-max", "4", "--model", "dasgupta", flag, "-1", "--out", str(tmp_path)]
        assert main(args) == 2
        assert "must both be positive" in capsys.readouterr().err

    def test_internal_failure_exits_1(self, tmp_path, capsys, monkeypatch):
        import hctrellis.cli

        def broken(*args, **kwargs):
            raise RuntimeError("fill failed")

        monkeypatch.setattr(hctrellis.cli, "DenseTrellis", broken)
        data = tmp_path / "d.json"
        _write_two_leaf_dataset(data)
        assert main(["z", "--data", str(data), "--out", str(tmp_path)]) == 1
        assert "internal error: fill failed" in capsys.readouterr().err
        assert not (tmp_path / "records.jsonl").exists()


class TestCliConfig:
    """A config file's values are read as the command's flags, ahead of the
    explicit ones."""

    def _run(self, tmp_path, config, *args):
        data = tmp_path / "d.json"
        _write_two_leaf_dataset(data)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        command = [a.replace("{data}", str(data)) for a in args]
        return main(["--config", str(path), *command, "--out", str(tmp_path / "out")])

    def _record(self, tmp_path):
        return json.loads((tmp_path / "out" / "records.jsonl").read_text())

    @pytest.mark.parametrize("config, message", [
        ([{"model": "dasgupta"}], "a config file must hold a JSON object, not a list"),
        ({"bogus_flag": 3}, "config key 'bogus_flag' is not an option of any command"),
        ({"command": "map"}, "config key 'command' is not an option of any command"),
        ({"seed": True}, "config value of 'seed' must be a string or a number"),
        ({"beta": None}, "config value of 'beta' must be a string or a number"),
    ], ids=["list", "unknown_key", "command_key", "boolean_value", "null_value"])
    def test_refused_config_exits_2(self, tmp_path, capsys, config, message):
        assert self._run(tmp_path, config, "z", "--data", "{data}") == 2
        err = capsys.readouterr().err
        assert message in err and "internal error" not in err
        assert not (tmp_path / "out" / "records.jsonl").exists()

    def test_value_the_flag_refuses_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            self._run(tmp_path, {"seed": 1.5}, "z", "--data", "{data}")
        assert exc.value.code == 2
        assert "argument --seed: invalid int value: '1.5'" in capsys.readouterr().err
        assert not (tmp_path / "out" / "records.jsonl").exists()

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        data = tmp_path / "d.json"
        _write_two_leaf_dataset(data)
        args = ["--config", str(tmp_path / "none.json"), "z", "--data", str(data),
                "--out", str(tmp_path / "out")]
        assert main(args) == 2
        assert "bad config file" in capsys.readouterr().err

    def test_equals_form_is_read(self, tmp_path):
        data = tmp_path / "d.json"
        _write_two_leaf_dataset(data)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"model": "dasgupta", "beta": 2.0}))
        args = [f"--config={config}", "z", "--data", str(data), "--out", str(tmp_path / "out")]
        assert main(args) == 0
        record = self._record(tmp_path)
        assert (record["model"], record["beta"]) == ("dasgupta", 2.0)

    def test_abbreviated_option_refused(self, tmp_path):
        data = tmp_path / "d.json"
        _write_two_leaf_dataset(data)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"model": "dasgupta"}))
        with pytest.raises(SystemExit) as exc:
            main(["--conf", str(config), "z", "--data", str(data), "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_explicit_flag_wins(self, tmp_path):
        config = {"model": "dasgupta", "beta": 2.0}
        assert self._run(tmp_path, config, "z", "--data", "{data}", "--beta", "3") == 0
        record = self._record(tmp_path)
        assert (record["model"], record["beta"]) == ("dasgupta", 3.0)

    def test_key_of_another_command_skipped(self, tmp_path):
        assert self._run(tmp_path, {"count": 5, "beta": 2.0}, "z", "--data", "{data}") == 0
        record = self._record(tmp_path)
        assert record["beta"] == 2.0 and "count" not in record

    def test_config_supplies_data(self, tmp_path):
        data = tmp_path / "d.json"
        assert self._run(tmp_path, {"data": str(data), "model": "dasgupta"}, "z") == 0
        assert self._record(tmp_path)["dataset_sha256"] == file_sha256(data)

    def test_dest_names_and_negative_values(self, tmp_path, capsys):
        # keys are the names argparse stores (lam for --lambda), and a value
        # starting with a minus sign still reads as the flag's value
        assert self._run(tmp_path, {"lam": 0.7, "root": "-1,0,0,0"}, "generate") == 2
        assert "root energy must be positive" in capsys.readouterr().err
        assert self._run(tmp_path, {"lam": 0.7, "beam_width": 2}, "generate") == 0
        assert self._record(tmp_path)["lam"] == 0.7


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

    def test_bench_correlation_has_negative_affinities(self, tmp_path, monkeypatch):
        """The correlation sweep scores signed affinities, so the negative
        within-cluster term is exercised, not nonnegative similarities."""
        import hctrellis.io
        from hctrellis import CorrelationModel

        smallest = []

        class Spy(CorrelationModel):
            def __init__(self, weights, beta=1.0):
                smallest.append(weights.w.min())
                super().__init__(weights, beta)

        monkeypatch.setattr(hctrellis.io, "CorrelationModel", Spy)
        args = ["bench", "--n-min", "3", "--n-max", "6", "--model", "correlation",
                "--out", str(tmp_path)]
        assert main(args) == 0
        assert len(smallest) == 4 and all(w < 0 for w in smallest)

    def test_bench_records_model_parameters(self, tmp_path):
        args = ["bench", "--n-max", "4", "--model", "dasgupta", "--beta", "0.5", "--out", str(tmp_path)]
        assert main(args) == 0
        record = json.loads((tmp_path / "records.jsonl").read_text())
        assert (record["model"], record["beta"]) == ("dasgupta", 0.5) and "lam" in record


class TestCliExtremeBeta:
    """Past the float range a split's potential is zero: log psi, the tables
    and the tree scores read -inf, with no warning on the way."""

    @pytest.fixture
    def data(self, tmp_path):
        path = tmp_path / "pw.json"
        save_dataset(pairwise_dataset(random_similarity_weights(7, 4, 0.0, 5.0)), path)
        return path

    @pytest.mark.parametrize("command", ["z", "map", "baselines"])
    def test_overflowing_beta_runs_clean(self, tmp_path, capsys, data, command):
        args = [command, "--data", str(data), "--model", "dasgupta", "--beta", "1e307",
                "--out", str(tmp_path)]
        assert main(args) == 0
        assert "internal error" not in capsys.readouterr().err
        record = json.loads((tmp_path / "records.jsonl").read_text())
        if command != "baselines":
            assert record["log_z"] == float("-inf")

    def test_degenerate_map_prints_no_cut_cost(self, tmp_path, capsys, data):
        args = ["map", "--data", str(data), "--model", "dasgupta", "--beta", "1e307",
                "--out", str(tmp_path)]
        assert main(args) == 0
        out, err = capsys.readouterr()
        assert "log_map=-inf" in out and "cut_cost" not in out
        assert "degenerate instance" in err

    @pytest.mark.parametrize("beta", ["1e9", "1e307"])
    def test_marginal_refuses_log_z_past_float_precision(self, tmp_path, capsys, beta):
        """With |log Z| near 1.3e308 the outside pass gave P({0, 1}) = 7;
        one float step of log Z must stay below 1e-6 for a marginal."""
        path = tmp_path / "pw7.json"
        save_dataset(pairwise_dataset(random_similarity_weights(7, 4)), path)
        for query in (["--cluster", "0,1"], ["--cluster", "0"]):
            args = ["marginal", "--data", str(path), "--model", "correlation",
                    "--beta", beta, *query, "--out", str(tmp_path)]
            assert main(args) == 2
            out, err = capsys.readouterr()
            assert "log_marginal" not in out and "too large for marginals" in err

    def test_bench_times_the_outside_pass_past_marginal_precision(self, tmp_path):
        args = ["bench", "--model", "correlation", "--beta", "1e12", "--n-min", "2",
                "--n-max", "6", "--out", str(tmp_path)]
        assert main(args) == 0
        assert (tmp_path / "bench.csv").read_text().count("\n") == 6  # header and n = 2..6


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
        # re-recorded when the Dasgupta and correlation fills took separable
        # terms (only the log_z of map_dasgupta and marginal moved, in the
        # last bits: relative 2.4e-16 and 9.9e-16), and when the outside
        # pass became a gather (only fragment's log_marginal moved,
        # relative 1.4e-15), and when bench's first row took a ratio
        # against the closed-form count at n-min - 1 (only bench_dasgupta's
        # n = 3 ops_ratio moved, nan to 6.0)
        assert digest.hexdigest()[:16] == "f56359ee314b1878"
