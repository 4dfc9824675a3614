"""Golden digests of model documents, at least one for each kind.

Each model is pinned twice. ``GOLDEN_V4`` holds the digest of the
format_version 4 document ``serialize`` writes, where a tree ensemble's
node table is stored as four base64 strings of little-endian bytes:
``<i4`` roots and right children, ``<i2`` columns and ``<f8`` thresholds,
a leaf's threshold holding its value. ``GOLDEN`` holds the digest of the
same document written as format_version 2, with the table as the six
JSON lists it had then (``as_v2``); those ten digests were recorded
before versions 3 and 4 existed and are unchanged, so every tree and
every weight is bit-identical across both version bumps.

The tree-ensemble digests pin the trees, saved as one preorder node
table: any change to the tree learner, the split kernels or the boosting
loop that alters a single threshold, leaf value or child order changes a
digest, and so does any change to the table's layout. The
gradient-boosting digests are unchanged from the depth-first grower that
breadth-first growth replaced, and equal the digests of format_version 1
documents (nested trees) of the same models converted to the table. The
random-forest digests were re-recorded for breadth-first growth: a tree
draws the candidate columns of all its open nodes at a level in one call,
where the depth-first grower drew them node by node, so the same
generator hands out other columns. The ``mlp``, ``linear_svm``,
``logistic_regression`` and ``naive_bayes`` digests pin every weight of
those documents to the last bit, so a faster training loop must
reproduce its floating-point operations exactly; their documents differ
between versions only in ``format_version``. With ``format_version``
set back to 1, the ``mlp``, ``logistic_regression`` and ``naive_bayes``
digests give the version 1 digests; the ``linear_svm`` digest pins the
Newton fit of the squared hinge, which no version 1 document holds, and
was re-recorded when Platt scaling moved onto the same Newton loop, which
changed only ``platt_a`` and ``platt_b`` (by about 1e-9 relative).
"""
import hashlib
import json

import pytest

from cricpred.models import make_spec, serialize, train

from conftest import fixture_dataset, separable_dataset, table_lists

SMALL_FOREST = (("max_depth", 6), ("min_leaf", 3), ("n_trees", 20))

# (dataset, kind, hyperparameters) -> sha256 of the sorted-key JSON
# document, written as format_version 2 (``as_v2``)
GOLDEN = {
    ("fixture", "random_forest", ()):
        "f164a78ed3cac669f36f060f78c3a1e027629fdd8536de989366f554eb89697a",
    ("fixture", "random_forest", SMALL_FOREST):
        "40d067492eb2b133817bbebf15e2a58e131554f00f312d75c973344df069b007",
    ("fixture", "gradient_boosting", ()):
        "1fb0c601288d2718925c9b68346185bb72d40a8a6c5975afa7d48566c8966371",
    ("separable", "random_forest", SMALL_FOREST):
        "809d9d6fe1f3f88a7b28347990b4137cb92518f26f44e8262926a5e8f36b491d",
    ("separable", "gradient_boosting", (("n_rounds", 30),)):
        "66119b14b981b898b74d2a3e9eadbfe1b281bc8c98d360460b7b9d45c153107d",
    ("fixture", "mlp", ()):
        "932a146e1692399e51f42acc817a14ffaf0d36c46f32918e22882aedc143e6d7",
    ("separable", "mlp", (("epochs", 40),)):
        "4727e6ad3aac8bf9634bb00ed1bd26289b9d63ace93750d33dcd61f86e37468f",
    ("fixture", "linear_svm", ()):
        "c8285b36025998550f0604af1c9eb6294798860d9c6db7ec3dca83c2d565523c",
    ("fixture", "logistic_regression", ()):
        "fb0ce9fef10ceb7e9c7490d817afab09878468ac3a8d42c62212b7a3b239a32f",
    ("fixture", "naive_bayes", ()):
        "4757098c47c4d8dc5d2fc0907ba75f3d620c76058c11854ab7620af23933562f",
}

# the same, for the format_version 4 document
GOLDEN_V4 = {
    ("fixture", "random_forest", ()):
        "a329620ee1df9cfef3dc5a86faa1ceadcc1c472c37fc12c8f3c79794fce43ec9",
    ("fixture", "random_forest", SMALL_FOREST):
        "eb97a123271fd888ebed977535b047c0779877777683ed4ff6f30ec0244cc2b1",
    ("fixture", "gradient_boosting", ()):
        "105b322464f3b19fe54f1a53de04aa4dd5588655396f7543df4a07977fd4fd66",
    ("separable", "random_forest", SMALL_FOREST):
        "e9762883da665efb67a6ebb342494948904f034ae49cbfb3adee465e07190e9d",
    ("separable", "gradient_boosting", (("n_rounds", 30),)):
        "ff1577298000bb5ecf0470cbb40bae1bedab65b7bdc43f747f079e04cfa7f7c8",
    ("fixture", "mlp", ()):
        "59347cf3f6a88291a1bcf696d376160d1527f90a862b7548bc3427824ab65b97",
    ("separable", "mlp", (("epochs", 40),)):
        "b4297cf00bdebdd130395d73ad9a0f367d50570e346a15015675127ee7822bae",
    ("fixture", "linear_svm", ()):
        "1238ad0691482f500f5aa78d3960ae5f9ca07ce04a8991e8de584b53178fe4d5",
    ("fixture", "logistic_regression", ()):
        "e9d226b5b40c3c53de277df2ed97f2ab8088f897f5df219ab18316ca62c5d255",
    ("fixture", "naive_bayes", ()):
        "84fe98d25373be7f21325f6c08ff3f232150cc4b26309c0d28dea70dd7031e56",
}


DATASETS = {
    "fixture": fixture_dataset,
    "separable": lambda: separable_dataset(n=300, seed=4),
}


@pytest.mark.parametrize("source,kind,extra", list(GOLDEN),
                         ids=[f"{s}-{k}-{i}" for i, (s, k, _) in enumerate(GOLDEN)])
def test_document_digest(source, kind, extra):
    model = train(make_spec(kind, seed=0, **dict(extra)), DATASETS[source]())
    doc = serialize(model)
    assert digest(doc) == GOLDEN_V4[(source, kind, extra)]
    assert digest(as_v2(doc)) == GOLDEN[(source, kind, extra)]


def digest(doc):
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def as_v2(doc):
    """``doc`` as the format_version 2 document of the same model: node
    tables as the six JSON lists of their values. Edits ``doc`` in place."""
    table_lists(doc["parameters"])
    doc["format_version"] = 2
    return doc
