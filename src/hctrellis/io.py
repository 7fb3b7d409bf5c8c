"""File formats: datasets, trees, jets, and append-only result records.

Everything structured is JSON (trees, datasets, jets, trellises) and
everything tabular is CSV; cluster bit sets are serialized as decimal
integer strings so 64-leaf clusters survive JSON number precision.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from .core import GroundSet, Hierarchy, integer_field, popcount
from .jetgen import GeneratedJet, JetConfig
from .models import (
    ConstantModel,
    CorrelationModel,
    DasguptaModel,
    FourVector,
    GinkgoModel,
    ModelParams,
    PairwiseWeights,
    PotentialModel,
    log_hierarchy_potential,
)

SCHEMA_PAIRWISE = "pairwise"
SCHEMA_FOURVECTORS = "fourvectors"

MODEL_KINDS = ("dasgupta", "correlation", "ginkgo", "constant")


@dataclass
class Dataset:
    schema: str
    n: int
    weights: PairwiseWeights | None = None
    leaves: list[FourVector] | None = None
    labels: tuple[str, ...] | None = None

    def ground(self) -> GroundSet:
        if self.labels:
            return GroundSet(self.n, tuple(self.labels))
        return GroundSet(self.n)


def _leaves_to_dicts(leaves) -> list[dict]:
    return [{"E": v.e, "px": v.px, "py": v.py, "pz": v.pz} for v in leaves]


def _leaves_from_dicts(items) -> list[FourVector]:
    try:
        return [
            FourVector(float(v["E"]), float(v["px"]), float(v["py"]), float(v["pz"]))
            for v in items
        ]
    except TypeError as exc:
        raise ValueError(f"leaves must be a list of E/px/py/pz objects: {exc}") from None


def _json_object(data, what: str) -> dict:
    if not isinstance(data, dict):
        raise ValueError(f"a {what} file must hold a JSON object, not a {type(data).__name__}")
    return data


def dataset_to_dict(ds: Dataset) -> dict:
    out: dict = {"schema": ds.schema, "n": ds.n}
    if ds.labels:
        out["labels"] = list(ds.labels)
    if ds.schema == SCHEMA_PAIRWISE:
        w = ds.weights.w
        out["weights"] = [
            [i, j, w[i, j]]
            for i in range(ds.n)
            for j in range(i + 1, ds.n)
            if w[i, j] != 0.0
        ]
    elif ds.schema == SCHEMA_FOURVECTORS:
        out["leaves"] = _leaves_to_dicts(ds.leaves)
    else:
        raise ValueError(f"unknown dataset schema {ds.schema!r}")
    return out


def dataset_from_dict(data: dict) -> Dataset:
    data = _json_object(data, "dataset")
    schema = data.get("schema")
    try:
        labels = tuple(data["labels"]) if data.get("labels") else None
    except TypeError:
        raise ValueError(f"labels must be a list of leaf names, not {data['labels']!r}") from None
    if schema == SCHEMA_PAIRWISE:
        n = integer_field(data["n"], "n")
        try:
            triples = [
                (integer_field(i, "weight index"), integer_field(j, "weight index"), float(w))
                for i, j, w in data.get("weights", [])
            ]
        except TypeError as exc:
            raise ValueError(f"weights must be a list of [i, j, w] triples: {exc}") from None
        return Dataset(schema, n, weights=PairwiseWeights.from_triples(n, triples), labels=labels)
    if schema == SCHEMA_FOURVECTORS:
        leaves = _leaves_from_dicts(data["leaves"])
        return Dataset(schema, len(leaves), leaves=leaves, labels=labels)
    raise ValueError(f"unknown dataset schema {schema!r}")


def save_dataset(ds: Dataset, path) -> None:
    Path(path).write_text(json.dumps(dataset_to_dict(ds), indent=1, sort_keys=True))


def load_dataset(path) -> Dataset:
    return dataset_from_dict(json.loads(Path(path).read_text()))


def pairwise_dataset(weights: PairwiseWeights, labels=None) -> Dataset:
    return Dataset(SCHEMA_PAIRWISE, weights.n, weights=weights, labels=labels)


def fourvector_dataset(leaves, labels=None) -> Dataset:
    return Dataset(SCHEMA_FOURVECTORS, len(leaves), leaves=list(leaves), labels=labels)


def build_model(ds: Dataset, kind: str, params: ModelParams) -> PotentialModel:
    """Bind a dataset's payloads to a scoring model, checking the schema."""
    if kind == "constant":
        return ConstantModel(ds.n)
    if kind in ("dasgupta", "correlation"):
        if ds.schema != SCHEMA_PAIRWISE:
            raise ValueError(f"{kind} scoring needs a pairwise dataset")
        cls = DasguptaModel if kind == "dasgupta" else CorrelationModel
        return cls(ds.weights, beta=params.beta)
    if kind == "ginkgo":
        if ds.schema != SCHEMA_FOURVECTORS:
            raise ValueError("ginkgo scoring needs a four-vector dataset")
        return GinkgoModel(ds.leaves, lam=params.lam)
    raise ValueError(f"unknown model kind {kind!r}; pick one of {MODEL_KINDS}")


# ---------------------------------------------------------------------------
# trees: parent-array files


def hierarchy_to_tree_dict(h: Hierarchy, model: PotentialModel | None = None) -> dict:
    """Encode as preorder node list + parent indices (root's parent is -1).

    ``n`` records the leaf-index width, not the leaf count, so fragments
    rooted at a non-contiguous cluster (say leaves {0, 2}) survive the trip.
    """
    nodes = h.preorder()
    index = {node: k for k, node in enumerate(nodes)}
    parents = [-1] * len(nodes)
    for parent, (left, right) in h.children.items():
        parents[index[left]] = index[parent]
        parents[index[right]] = index[parent]
    out = {
        "n": h.root.bit_length(),
        "parents": parents,
        "clusters": [str(node) for node in nodes],
    }
    if model is not None:
        out["log_psi"] = [
            model.log_psi(*h.children[node]) if popcount(node) > 1 else None
            for node in nodes
        ]
        out["log_phi"] = log_hierarchy_potential(h, model)
    return out


def tree_dict_to_hierarchy(data: dict) -> Hierarchy:
    data = _json_object(data, "tree")
    try:
        clusters = [integer_field(c, "cluster") for c in data["clusters"]]
        parents = [integer_field(p, "parent index") for p in data["parents"]]
    except TypeError as exc:
        raise ValueError(f"clusters and parents must be lists of integers: {exc}") from None
    if len(clusters) != len(parents):
        raise ValueError("clusters and parents disagree in length")
    kids: dict[int, list[int]] = {}
    root = None
    for k, p in enumerate(parents):
        if not -1 <= p < len(clusters):
            raise ValueError(f"parent index {p} is out of range")
        if p == -1:
            if root is not None:
                raise ValueError("two roots in tree file")
            root = clusters[k]
        else:
            kids.setdefault(clusters[p], []).append(clusters[k])
    if root is None:
        raise ValueError("tree file has no root")
    children = {}
    for parent, pair in kids.items():
        if len(pair) != 2:
            raise ValueError("every internal node needs exactly two children")
        children[parent] = (pair[0], pair[1])
    h = Hierarchy(root, children)
    h.validate(n=integer_field(data["n"], "n"))
    return h


def save_tree(h: Hierarchy, path, model: PotentialModel | None = None) -> None:
    Path(path).write_text(json.dumps(hierarchy_to_tree_dict(h, model), indent=1))


def load_tree(path) -> Hierarchy:
    return tree_dict_to_hierarchy(json.loads(Path(path).read_text()))


# ---------------------------------------------------------------------------
# jets


def jet_to_dict(jet: GeneratedJet) -> dict:
    cfg = jet.config
    return {
        "leaves": _leaves_to_dicts(jet.payloads),
        "tree": hierarchy_to_tree_dict(jet.tree),
        "lam": cfg.lam,
        "t_cut": cfg.t_cut,
        "seed": list(cfg.seed) if isinstance(cfg.seed, tuple) else cfg.seed,
        "truth_log_likelihood": jet.truth_log_likelihood,
    }


def jet_from_dict(data: dict) -> GeneratedJet:
    leaves = _leaves_from_dicts(data["leaves"])
    seed = data["seed"]
    if isinstance(seed, list):
        seed = tuple(integer_field(s, "seed entry") for s in seed)
    config = JetConfig(
        root=sum(leaves[1:], leaves[0]),
        lam=float(data["lam"]),
        t_cut=float(data["t_cut"]),
        seed=seed if isinstance(seed, tuple) else integer_field(seed, "seed"),
    )
    return GeneratedJet(
        tree=tree_dict_to_hierarchy(data["tree"]),
        payloads=leaves,
        truth_log_likelihood=float(data["truth_log_likelihood"]),
        internal_vectors={},
        config=config,
    )


def save_jet(jet: GeneratedJet, path) -> None:
    Path(path).write_text(json.dumps(jet_to_dict(jet), indent=1, sort_keys=True))


def load_jet(path) -> GeneratedJet:
    return jet_from_dict(json.loads(Path(path).read_text()))


# ---------------------------------------------------------------------------
# result records


def file_sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def append_record(path, record: dict) -> None:
    with open(path, "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
