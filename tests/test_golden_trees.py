"""Golden digests of tree-ensemble documents.

The digests were recorded from the argsort-per-column split search. Any
change to the tree learner, the split kernels or the boosting loop that
alters a single threshold, leaf value or child order changes a digest.
"""

import hashlib
import json

import pytest

from cricpred.dataset import load_matches, load_player_performances
from cricpred.features import build_schema, encode
from cricpred.models import make_spec, serialize, train
from cricpred.scoring import REFERENCE_POINTS_MODEL
from cricpred.strength import build_ledger

from conftest import fixture_path, separable_dataset

SMALL_FOREST = (("max_depth", 6), ("min_leaf", 3), ("n_trees", 20))

# (dataset, kind, hyperparameters) -> sha256 of the sorted-key JSON document
GOLDEN = {
    ("fixture", "random_forest", ()):
        "72447fdabce4ca3b3624ad8418865c6e491e740f2d01a9d69e5f916114081cb8",
    ("fixture", "random_forest", SMALL_FOREST):
        "05eadc9347063e9e02469e644d49af7480dbb3dfd110ddccbbd814b28848197f",
    ("fixture", "gradient_boosting", ()):
        "0abb0004585be022c77b2151f43ac131e5c9c623145f4d0af214b7e8f6ad35fb",
    ("separable", "random_forest", SMALL_FOREST):
        "d70cb3dc5a09e0effda183e3191d433151cfc576cfa1b62988361a3c0a6251fd",
    ("separable", "gradient_boosting", (("n_rounds", 30),)):
        "9450be6bfe8a2cdbe2b52947bfe9fa3a708fb4f1c35c5bf557a53304669ce15b",
}


def fixture_dataset():
    dataset = load_matches(fixture_path("matches.csv"))
    players = load_player_performances(fixture_path("players.csv"))
    ledger = build_ledger(REFERENCE_POINTS_MODEL, players, dataset)
    return encode(dataset, ledger, build_schema(dataset))


DATASETS = {
    "fixture": fixture_dataset,
    "separable": lambda: separable_dataset(n=300, seed=4),
}


@pytest.mark.parametrize("source,kind,extra", list(GOLDEN),
                         ids=[f"{s}-{k}-{i}" for i, (s, k, _) in enumerate(GOLDEN)])
def test_document_digest(source, kind, extra):
    model = train(make_spec(kind, seed=0, **dict(extra)), DATASETS[source]())
    blob = json.dumps(serialize(model), sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == GOLDEN[(source, kind, extra)]
