"""Golden digests of format_version 2 model documents, at least one for
each kind.

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
reproduce its floating-point operations exactly. With ``format_version``
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

from conftest import fixture_dataset, separable_dataset

SMALL_FOREST = (("max_depth", 6), ("min_leaf", 3), ("n_trees", 20))

# (dataset, kind, hyperparameters) -> sha256 of the sorted-key JSON document
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
