"""Golden digests of model documents, at least one for each kind.

The tree-ensemble digests were recorded from the argsort-per-column split
search: any change to the tree learner, the split kernels or the boosting
loop that alters a single threshold, leaf value or child order changes a
digest. The ``mlp``, ``linear_svm``, ``logistic_regression`` and
``naive_bayes`` digests pin every weight of those documents to the last
bit, so a faster training loop must reproduce its floating-point
operations exactly.
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
    ("fixture", "mlp", ()):
        "2b77e7963c4771da8c7b477256fd282950013debd7ebd8e138cc084d4a8d9fb9",
    ("separable", "mlp", (("epochs", 40),)):
        "6c659759ef423c275436c6123b76b4e405447ef90a15fd32eb0516851cce1131",
    ("fixture", "linear_svm", ()):
        "21c0dbf2dfcfd541752f99e095dac8c14094983ed6555c906288d29fc7b0c163",
    ("fixture", "logistic_regression", ()):
        "452a2d5ed6ecb880db8c3cedae873f18f04a6bfaa93310d805c01fd48b3d2a82",
    ("fixture", "naive_bayes", ()):
        "8934107e5770669bc83430018e656ff17d958654a601ff7b2af80af0e8abefaf",
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
