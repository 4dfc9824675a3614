import numpy as np
import pytest

from cricpred.models import ensemble, make_spec, train
from cricpred.models.linear import sigmoid
from cricpred.models.tree import (
    fit_classification_tree,
    fit_regression_tree,
    flatten,
    tree_predict_matrix,
)

from conftest import fixture_dataset, separable_dataset

MAX = np.finfo(np.float64).max


def adjacent_pair(lo):
    """Two rows at ``lo`` (class 0) and two at the next double up (class 1)."""
    hi = np.nextafter(lo, np.inf)
    return np.array([[lo], [lo], [hi], [hi]]), np.array([0.0, 0.0, 1.0, 1.0])


# 1.0 and -3.0: the midpoint of the pair rounds down to ``lo``; the pair
# below MAX: it overflows to inf; 1.0 + ulp: it rounds up to ``hi``.
LOWS = [1.0, -3.0, np.nextafter(MAX, 0.0), np.nextafter(1.0, 2.0)]


@pytest.mark.parametrize("lo", LOWS)
class TestThresholdBetweenAdjacentValues:
    """Every training row lands in the leaf it was grown into."""

    def test_gini(self, lo):
        X, y = adjacent_pair(lo)
        tree = fit_classification_tree(X, y)
        assert lo < tree["threshold"] <= X[2, 0]
        assert tree_predict_matrix(flatten([tree]), X)[0].tolist() == y.tolist()

    def test_sse(self, lo):
        X, y = adjacent_pair(lo)
        tree = fit_regression_tree(X, y, np.ones(4))
        assert lo < tree["threshold"] <= X[2, 0]
        leaves = [tree["left"]["value"]] * 2 + [tree["right"]["value"]] * 2
        assert leaves[0] != leaves[2]
        assert tree_predict_matrix(flatten([tree]), X)[0].tolist() == leaves


# --- the node table against the nested trees it was flattened from -------

def walk(node, row):
    """Reference descent: one row through one nested tree."""
    while "value" not in node:
        node = node["left"] if row[node["feature"]] < node["threshold"] else node["right"]
    return node["value"]


def walk_matrix(trees, X):
    return np.array([[walk(tree, row) for row in X] for tree in trees],
                    dtype=np.float64)


def grown(monkeypatch, kind, data, **hyperparameters):
    """The trained model and the nested trees its ensemble was flattened
    from."""
    seen = []

    def spy(trees):
        seen.append(trees)
        return flatten(trees)

    monkeypatch.setattr(ensemble, "flatten", spy)
    model = train(make_spec(kind, seed=3, **hyperparameters), data)
    return model, seen[-1]


def random_rows(data, n=200):
    """Rows around the training rows' scale, with 0/1 columns kept 0/1."""
    rng = np.random.default_rng(11)
    X = rng.normal(data.X.mean(axis=0), data.X.std(axis=0) + 1.0,
                   size=(n, data.X.shape[1]))
    binary = np.all((data.X == 0.0) | (data.X == 1.0), axis=0)
    X[:, binary] = rng.integers(0, 2, size=(n, int(binary.sum())))
    return X


DATASETS = {"fixture": fixture_dataset,
            "separable": lambda: separable_dataset(n=300, seed=4)}
ENSEMBLES = {"random_forest": {"n_trees": 30},
             "gradient_boosting": {"n_rounds": 30}}


@pytest.mark.parametrize("kind", ENSEMBLES)
@pytest.mark.parametrize("source", DATASETS)
def test_ensemble_matches_nested_walk(monkeypatch, source, kind):
    data = DATASETS[source]()
    model, trees = grown(monkeypatch, kind, data, **ENSEMBLES[kind])
    params = model.parameters
    for X in (data.X, random_rows(data), np.zeros((0, data.X.shape[1]))):
        leaves = walk_matrix(trees, X)
        assert np.array_equal(tree_predict_matrix(flatten(trees), X), leaves)
        # the ensemble sums its trees in tree order, one tree at a time
        if kind == "random_forest":
            expected = np.zeros(X.shape[0])
            for v in leaves:
                expected += v
            expected = expected / len(trees)
        else:
            f = np.full(X.shape[0], params["base_score"])
            for v in leaves:
                f = f + params["shrinkage"] * v
            expected = sigmoid(f)
        assert np.array_equal(model.predict_proba_matrix(X), expected)


@pytest.mark.parametrize("lo", LOWS)
def test_adjacent_doubles_match_nested_walk(lo):
    X, y = adjacent_pair(lo)
    trees = [fit_classification_tree(X, y), fit_regression_tree(X, y, np.ones(4))]
    t = trees[0]["threshold"]
    probes = np.array([[lo], [np.nextafter(t, -np.inf)], [t], [-np.inf],
                       [np.inf], [np.nan]])
    for rows in (X, probes):
        assert np.array_equal(tree_predict_matrix(flatten(trees), rows),
                              walk_matrix(trees, rows))


def test_random_matrices_match_nested_walk():
    rng = np.random.default_rng(5)
    for _ in range(5):
        X = rng.normal(size=(80, 4))
        X[:, 0] = rng.integers(0, 2, size=80)
        y = (X[:, 1] + rng.normal(scale=0.5, size=80) > 0).astype(np.float64)
        trees = [fit_classification_tree(X, y, rng=rng, max_features=2)
                 for _ in range(3)]
        trees.append(fit_regression_tree(X, y - 0.5, np.full(80, 0.25)))
        rows = rng.normal(size=(150, 4))
        assert np.array_equal(tree_predict_matrix(flatten(trees), rows),
                              walk_matrix(trees, rows))


def test_flatten_layout():
    """Preorder; a leaf points to itself and reads column 0."""
    stump = {"feature": 2, "threshold": 0.5,
             "left": {"value": 0.25},
             "right": {"feature": 1, "threshold": -1.0,
                       "left": {"value": 0.5}, "right": {"value": 0.75}}}
    table = flatten([stump, {"value": 1.0}])
    assert {k: v.tolist() for k, v in table.items()} == {
        "roots": [0, 5],
        "feature": [2, 0, 1, 0, 0, 0],
        "threshold": [0.5, 0.0, -1.0, 0.0, 0.0, 0.0],
        "left": [1, 1, 3, 3, 4, 5],
        "right": [2, 1, 4, 3, 4, 5],
        "value": [0.0, 0.25, 0.0, 0.5, 0.75, 1.0],
    }
