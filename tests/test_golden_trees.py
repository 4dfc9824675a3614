"""Golden digests of model documents, at least one for each kind.

Each model is pinned twice. ``GOLDEN_V3`` holds the digest of the
format_version 3 document ``serialize`` writes, where a tree ensemble's
node table is stored as base64 strings of little-endian bytes (``<i4``
node indices and columns, ``<f8`` thresholds and leaf values).
``GOLDEN`` holds the digest of the same document written as
format_version 2, with the table as JSON lists (``as_v2``); those ten
digests were recorded before version 3 existed and are unchanged, so
every tree and every weight is bit-identical across the version bump.

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

# the same, for the format_version 3 document
GOLDEN_V3 = {
    ("fixture", "random_forest", ()):
        "9192b9b1e003bdffc5d011761a9cd4922d94a8415b86b8e8acc418c978cc603f",
    ("fixture", "random_forest", SMALL_FOREST):
        "3fcbfaca61e36a564043d01e8c2be4f9a02b72ad7a185cc403e2caa74d6b7acd",
    ("fixture", "gradient_boosting", ()):
        "da41e557e06e54ddbc5aa0fdc726d0f58755793aae57003ee2e9a55b91b41564",
    ("separable", "random_forest", SMALL_FOREST):
        "0e2c19210abd6d59572a05626e3ba38db8f5e0627d8b9bb03365e9ad81b65b53",
    ("separable", "gradient_boosting", (("n_rounds", 30),)):
        "8f6e36500cbc114dfbc0750438825e79ecb2210b9bf0672485da54448707714e",
    ("fixture", "mlp", ()):
        "21bc5b30fa6a166f07650254422a4c926d53e648258d1322723945790fef4d1c",
    ("separable", "mlp", (("epochs", 40),)):
        "503184f316d0e8f97cb5107bfc84d531500050b0098e41d08763a0c141f3647c",
    ("fixture", "linear_svm", ()):
        "2beb47b78f255cf23ad6cfaf9d1da21d721cbc9df2c85b276cab6409f7723fd2",
    ("fixture", "logistic_regression", ()):
        "8245d72200eb48833025c02c3902f3f6de63141a6d0fb88c6892fdb40b315f52",
    ("fixture", "naive_bayes", ()):
        "9c916127de78a1b45c8823c0766175926be8096557f934a4f9d0e5218213cb35",
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
    assert digest(doc) == GOLDEN_V3[(source, kind, extra)]
    assert digest(as_v2(doc)) == GOLDEN[(source, kind, extra)]


def digest(doc):
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def as_v2(doc):
    """``doc`` as the format_version 2 document of the same model: node
    tables as JSON lists of their values. Edits ``doc`` in place."""
    table_lists(doc["parameters"])
    doc["format_version"] = 2
    return doc
